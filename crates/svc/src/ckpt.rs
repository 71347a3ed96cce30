//! Durable job state: specs, engine snapshots, and results on disk.
//!
//! Per job, under one directory:
//!
//! - `<id>.job` — the submitted spec as JSON; written at admission,
//!   never rewritten.
//! - `<id>.ckpt` and `<id>.ckpt.1` — two snapshot slots, written in
//!   turn: the first snapshot of a job lands in `<id>.ckpt`, the second
//!   in `<id>.ckpt.1`, and every later one overwrites the older slot.
//! - `<id>.done` — the final result as JSON; written once at completion,
//!   after which both slots are removed.
//!
//! `.job` and `.done` are written atomically (temp file `<id>.tmp` +
//! rename on the same filesystem), so a `SIGKILL` at any instant leaves
//! either the old or the new bytes, never a torn file; a temp file a
//! kill left behind is deleted by the next [`CkptStore::scan`].
//!
//! A snapshot slot is rewritten in place instead — a rename would
//! allocate and free every block of a file the size of the graph, at
//! every checkpoint. A slot is a 32-byte header (magic, sequence number,
//! body length, 64-bit hash of the body, little-endian) followed by the
//! body, the engine snapshot (the binary `ESNP` codec of
//! `core::parallel::wire`). A save zeroes the target slot's header,
//! writes the body over the old one, fixes the file length if it
//! changed, and writes the header last. A kill mid-save therefore tears
//! only the slot being written, and the other slot still holds the
//! previous snapshot: [`CkptStore::load_snapshot`] returns the newest
//! slot whose header, length and hash hold, and treats any other slot —
//! torn, or a `.ckpt` an older build wrote — as absent.
//!
//! [`CkptStore::scan`] classifies every job after a restart: a `.done`
//! file means finished (serve the stored result); a `.job` without one
//! means in-flight — resume from the newest valid slot if there is one,
//! else restart from the spec. Either way the engines' step-boundary
//! determinism makes the final result bit-identical to an uninterrupted
//! run.

use crate::job::JobSpec;
use crate::json::{self, Json};
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// One job recovered from disk by [`CkptStore::scan`].
#[derive(Debug)]
pub struct RecoveredJob {
    /// The job's id.
    pub id: u64,
    /// The spec it was submitted with.
    pub spec: JobSpec,
    /// The latest engine snapshot, if one was written.
    pub snapshot: Option<Vec<u8>>,
    /// The stored result, if the job finished.
    pub done: Option<Json>,
}

/// The newest valid snapshot slot of a job, as [`CkptStore::load_slot`]
/// found it.
#[derive(Debug)]
pub struct SnapshotSlot {
    /// The slot file.
    pub path: PathBuf,
    /// Its sequence number: 0 for a job's first snapshot, one more for
    /// each after.
    pub seq: u64,
    /// The snapshot bytes.
    pub bytes: Vec<u8>,
}

/// Slot header: `b"ESCKSLOT"`, then sequence number, body length and
/// body hash.
const SLOT_MAGIC: u64 = u64::from_le_bytes(*b"ESCKSLOT");
const SLOT_HEADER: usize = 32;

/// A directory of per-job files; see the module docs for the layout.
#[derive(Debug, Clone)]
pub struct CkptStore {
    dir: PathBuf,
    /// Per job, the slot holding its newest valid snapshot and that
    /// snapshot's sequence number, as this store last wrote or loaded
    /// it: the next save goes to the other slot without reading either.
    newest: Arc<Mutex<HashMap<u64, (usize, u64)>>>,
}

impl CkptStore {
    /// Open (creating if needed) the checkpoint directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<CkptStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CkptStore {
            dir,
            newest: Arc::default(),
        })
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path(&self, id: u64, ext: &str) -> PathBuf {
        self.dir.join(format!("{id}.{ext}"))
    }

    /// The table of newest slots. Every update is one insert or remove,
    /// so a holder that panicked left it valid.
    fn slots(&self) -> MutexGuard<'_, HashMap<u64, (usize, u64)>> {
        self.newest
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Snapshot slot `slot` (0 or 1) of job `id`.
    fn slot_path(&self, id: u64, slot: usize) -> PathBuf {
        match slot {
            0 => self.path(id, "ckpt"),
            _ => self.path(id, "ckpt.1"),
        }
    }

    /// Atomic write: the bytes land under a temp name, then rename.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, bytes)?;
        fs::rename(&tmp, path)
    }

    /// Persist the submitted spec (`<id>.job`).
    pub fn save_job(&self, id: u64, spec: &JobSpec) -> io::Result<()> {
        self.write_atomic(&self.path(id, "job"), spec.to_json().to_json().as_bytes())
    }

    /// Persist an engine snapshot of job `id` into the slot not holding
    /// its newest valid one (see the module docs).
    pub fn save_snapshot(&self, id: u64, bytes: &[u8]) -> io::Result<()> {
        let known = self.slots().get(&id).copied();
        let newest = known.or_else(|| self.load_slot(id).map(|s| (slot_of(&s.path), s.seq)));
        let (slot, seq) = newest.map_or((0, 0), |(slot, seq)| (1 - slot, seq + 1));
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(self.slot_path(id, slot))?;
        file.write_all_at(&[0; SLOT_HEADER], 0)?;
        file.write_all_at(bytes, SLOT_HEADER as u64)?;
        let len = (SLOT_HEADER + bytes.len()) as u64;
        if file.metadata()?.len() != len {
            file.set_len(len)?;
        }
        let mut header = [0u8; SLOT_HEADER];
        let fields = [SLOT_MAGIC, seq, bytes.len() as u64, body_hash(bytes)];
        for (at, value) in header.chunks_exact_mut(8).zip(fields) {
            at.copy_from_slice(&value.to_le_bytes());
        }
        file.write_all_at(&header, 0)?;
        self.slots().insert(id, (slot, seq));
        Ok(())
    }

    /// Persist the final result (`<id>.done`) and drop both snapshot
    /// slots.
    pub fn save_done(&self, id: u64, result: &Json) -> io::Result<()> {
        self.write_atomic(&self.path(id, "done"), result.to_json().as_bytes())?;
        for slot in 0..2 {
            let _ = fs::remove_file(self.slot_path(id, slot));
        }
        self.slots().remove(&id);
        Ok(())
    }

    /// Load the newest valid snapshot of job `id`, if any.
    pub fn load_snapshot(&self, id: u64) -> Option<Vec<u8>> {
        self.load_slot(id).map(|slot| slot.bytes)
    }

    /// The newest snapshot slot of job `id` whose header, length and
    /// hash hold, if any; the next save overwrites the other slot.
    pub fn load_slot(&self, id: u64) -> Option<SnapshotSlot> {
        let newest = (0..2)
            .filter_map(|slot| read_slot(self.slot_path(id, slot)))
            .max_by_key(|slot| slot.seq);
        let mut known = self.slots();
        match &newest {
            Some(found) => known.insert(id, (slot_of(&found.path), found.seq)),
            None => known.remove(&id),
        };
        newest
    }

    /// Recover every job on disk (sorted by id, i.e. admission order),
    /// deleting the temp files of `.job`/`.done` writes a kill cut
    /// short.
    pub fn scan(&self) -> io::Result<Vec<RecoveredJob>> {
        let mut jobs = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            match path.extension().and_then(|e| e.to_str()) {
                Some("job") => {}
                Some("tmp") => {
                    fs::remove_file(&path)?;
                    continue;
                }
                _ => continue,
            }
            let Some(id) = path
                .file_stem()
                .and_then(|s| s.to_str())
                .and_then(|s| s.parse::<u64>().ok())
            else {
                continue;
            };
            let text = fs::read_to_string(&path)?;
            let spec_json = json::parse(&text)
                .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err))?;
            let spec = JobSpec::from_json(&spec_json)
                .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err))?;
            let done = fs::read_to_string(self.path(id, "done"))
                .ok()
                .and_then(|text| json::parse(&text).ok());
            jobs.push(RecoveredJob {
                id,
                spec,
                snapshot: self.load_snapshot(id),
                done,
            });
        }
        jobs.sort_by_key(|j| j.id);
        Ok(jobs)
    }
}

/// Which slot `path` is (`<id>.ckpt` is 0, `<id>.ckpt.1` is 1).
fn slot_of(path: &Path) -> usize {
    usize::from(path.extension().is_some_and(|e| e == "1"))
}

/// The slot at `path`, if its header is one and its body has the length
/// and hash the header records.
fn read_slot(path: PathBuf) -> Option<SnapshotSlot> {
    let file = File::open(&path).ok()?;
    let mut header = [0u8; SLOT_HEADER];
    file.read_exact_at(&mut header, 0).ok()?;
    let [magic, seq, len, hash]: [u64; 4] = std::array::from_fn(|i| {
        u64::from_le_bytes(
            header[8 * i..8 * i + 8]
                .try_into()
                .expect("an 8-byte field"),
        )
    });
    let file_len = file.metadata().ok()?.len();
    if magic != SLOT_MAGIC || file_len.checked_sub(SLOT_HEADER as u64) != Some(len) {
        return None;
    }
    let mut bytes = vec![0u8; usize::try_from(len).ok()?];
    file.read_exact_at(&mut bytes, SLOT_HEADER as u64).ok()?;
    (body_hash(&bytes) == hash).then_some(SnapshotSlot { path, seq, bytes })
}

/// 64-bit hash of a slot body, at memory speed: a multiply-rotate-xor
/// over its little-endian 8-byte words (the tail zero-padded), then the
/// length. Each step is a bijection of the running state, so a body that
/// differs from the one hashed in any single word always hashes apart.
fn body_hash(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let step = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(K);
    let mut words = bytes.chunks_exact(8);
    let mut h = (&mut words).fold(0, |h, w| {
        step(h, u64::from_le_bytes(w.try_into().expect("an 8-byte word")))
    });
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    h = step(h, u64::from_le_bytes(tail));
    step(h, bytes.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn store(tag: &str) -> CkptStore {
        let dir = std::env::temp_dir().join(format!(
            "edgeswitch-ckpt-{}-{tag}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        CkptStore::open(dir).unwrap()
    }

    /// A body of `len` bytes, distinct per `tag`.
    fn body(tag: u8, len: usize) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(31) ^ tag).collect()
    }

    fn spec() -> JobSpec {
        let job = r#"{"graph":{"type":"er","n":20,"m":40,"seed":1},"budget":{"switches":10}}"#;
        JobSpec::from_json(&json::parse(job).unwrap()).unwrap()
    }

    /// Ways a slot is damaged: its body cut short or run on, a body
    /// byte flipped, its header zeroed (a save interrupted before the
    /// header), its magic not this store's.
    const TEARS: usize = 5;
    fn tear(path: &Path, how: usize) {
        let mut bytes = fs::read(path).unwrap();
        match how {
            0 => bytes.truncate(bytes.len() - 3),
            1 => bytes.push(0),
            2 => bytes[SLOT_HEADER + 5] ^= 0x10,
            3 => bytes[..SLOT_HEADER].fill(0),
            _ => bytes[0] ^= 1,
        }
        fs::write(path, bytes).unwrap();
    }

    #[test]
    fn the_newest_valid_slot_wins() {
        let store = store("newest");
        assert!(store.load_snapshot(7).is_none());
        store.save_snapshot(7, &body(1, 100)).unwrap();
        // The first save lands in `<id>.ckpt`, the second beside it.
        assert!(store.slot_path(7, 0).exists() && !store.slot_path(7, 1).exists());
        store.save_snapshot(7, &body(2, 90)).unwrap();
        assert!(store.slot_path(7, 1).exists());
        // The third overwrites the older slot, shorter than what it held.
        store.save_snapshot(7, &body(3, 40)).unwrap();
        let slot = store.load_slot(7).unwrap();
        assert_eq!(
            (slot_of(&slot.path), slot.seq, slot.bytes),
            (0, 2, body(3, 40))
        );
        // Another store over the directory reads the same off the disk.
        let reopened = CkptStore::open(store.dir()).unwrap();
        assert_eq!(reopened.load_snapshot(7), Some(body(3, 40)));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn a_torn_newest_slot_falls_back_and_is_the_one_overwritten() {
        for how in 0..TEARS {
            let store = store("torn");
            store.save_snapshot(1, &body(1, 200)).unwrap();
            store.save_snapshot(1, &body(2, 200)).unwrap();
            tear(&store.slot_path(1, 1), how);
            assert_eq!(store.load_snapshot(1), Some(body(1, 200)), "tear {how}");
            // The next save goes to the torn slot, keeping the valid one.
            store.save_snapshot(1, &body(3, 150)).unwrap();
            assert_eq!(store.load_snapshot(1), Some(body(3, 150)), "tear {how}");
            let older = read_slot(store.slot_path(1, 0)).expect("older slot intact");
            assert_eq!((older.seq, older.bytes), (0, body(1, 200)), "tear {how}");
            // So does a store that learns the layout from the disk.
            let reopened = CkptStore::open(store.dir()).unwrap();
            tear(&store.slot_path(1, 1), how);
            reopened.save_snapshot(1, &body(4, 10)).unwrap();
            assert_eq!(reopened.load_snapshot(1), Some(body(4, 10)), "tear {how}");
            assert!(read_slot(store.slot_path(1, 0)).is_some_and(|s| s.seq == 0));
            let _ = fs::remove_dir_all(store.dir());
        }
    }

    #[test]
    fn both_slots_bad_is_no_snapshot() {
        let store = store("bad");
        store.save_snapshot(3, &body(1, 64)).unwrap();
        store.save_snapshot(3, &body(2, 64)).unwrap();
        tear(&store.slot_path(3, 0), 2);
        tear(&store.slot_path(3, 1), 0);
        assert!(store.load_snapshot(3).is_none());
        // A raw snapshot an older build wrote is no slot either.
        fs::write(store.slot_path(3, 0), body(5, 64)).unwrap();
        assert!(store.load_snapshot(3).is_none());
        // The next save starts the job's slots over.
        store.save_snapshot(3, &body(6, 8)).unwrap();
        let slot = store.load_slot(3).unwrap();
        assert_eq!((slot_of(&slot.path), slot.seq), (0, 0));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn save_done_leaves_no_slot_behind() {
        let store = store("done");
        store.save_snapshot(4, &body(1, 30)).unwrap();
        store.save_snapshot(4, &body(2, 30)).unwrap();
        store.save_done(4, &Json::num(1)).unwrap();
        assert!(!store.slot_path(4, 0).exists() && !store.slot_path(4, 1).exists());
        assert!(store.load_snapshot(4).is_none());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn scan_deletes_leftover_temp_files() {
        let store = store("tmp");
        store.save_job(1, &spec()).unwrap();
        store.save_done(1, &Json::num(9)).unwrap();
        store.save_job(2, &spec()).unwrap();
        store.save_snapshot(2, &body(1, 16)).unwrap();
        // A kill during a `.job` or `.done` write leaves its temp file.
        for id in [1, 2, 3] {
            fs::write(store.path(id, "tmp"), b"{\"partial").unwrap();
        }
        let jobs = store.scan().unwrap();
        for id in [1, 2, 3] {
            assert!(!store.path(id, "tmp").exists(), "{id}.tmp left behind");
        }
        let classified: Vec<_> = (jobs.iter())
            .map(|j| (j.id, j.done.is_some(), j.snapshot.clone()))
            .collect();
        assert_eq!(classified, [(1, true, None), (2, false, Some(body(1, 16)))]);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn the_body_hash_tells_apart_any_one_word() {
        let bytes = body(9, 77);
        let h = body_hash(&bytes);
        for at in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[at] ^= 1;
            assert_ne!(body_hash(&flipped), h, "byte {at}");
        }
        assert_ne!(body_hash(&bytes[..76]), h);
        assert_ne!(body_hash(&[0; 8]), body_hash(&[0; 9]));
    }
}
