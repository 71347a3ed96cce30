//! Durable job state: specs, engine snapshots, and results on disk.
//!
//! Three files per job under one directory, all written atomically
//! (temp file + rename on the same filesystem) so a `SIGKILL` at any
//! instant leaves either the old or the new bytes, never a torn file:
//!
//! - `<id>.job` — the submitted spec as JSON; written at admission,
//!   never rewritten.
//! - `<id>.ckpt` — the engine snapshot (the binary `ESNP` codec from
//!   `core::parallel::wire`); rewritten at every checkpoint interval.
//! - `<id>.done` — the final result as JSON; written once at completion.
//!
//! [`CkptStore::scan`] classifies every job after a restart: a `.done`
//! file means finished (serve the stored result); a `.job` without one
//! means in-flight — resume from `.ckpt` if present, else restart from
//! the spec. Either way the engines' step-boundary determinism makes the
//! final result bit-identical to an uninterrupted run.

use crate::job::JobSpec;
use crate::json::{self, Json};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

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

/// A directory of per-job files; see the module docs for the layout.
#[derive(Debug, Clone)]
pub struct CkptStore {
    dir: PathBuf,
}

impl CkptStore {
    /// Open (creating if needed) the checkpoint directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<CkptStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CkptStore { dir })
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path(&self, id: u64, ext: &str) -> PathBuf {
        self.dir.join(format!("{id}.{ext}"))
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

    /// Persist the latest engine snapshot (`<id>.ckpt`).
    pub fn save_snapshot(&self, id: u64, bytes: &[u8]) -> io::Result<()> {
        self.write_atomic(&self.path(id, "ckpt"), bytes)
    }

    /// Persist the final result (`<id>.done`) and drop the snapshot.
    pub fn save_done(&self, id: u64, result: &Json) -> io::Result<()> {
        self.write_atomic(&self.path(id, "done"), result.to_json().as_bytes())?;
        let _ = fs::remove_file(self.path(id, "ckpt"));
        Ok(())
    }

    /// Load the snapshot for `id`, if any.
    pub fn load_snapshot(&self, id: u64) -> Option<Vec<u8>> {
        fs::read(self.path(id, "ckpt")).ok()
    }

    /// Recover every job on disk (sorted by id, i.e. admission order).
    pub fn scan(&self) -> io::Result<Vec<RecoveredJob>> {
        let mut jobs = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("job") {
                continue;
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
