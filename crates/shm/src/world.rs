//! A "world": one shared mapping holding a boot blob, per-participant
//! doorbells, and a full grid of point-to-point SPSC rings.
//!
//! Memory layout (all offsets 64-byte aligned, `k` = participants):
//!
//! ```text
//! [ header 64B ][ k doorbells × 64B ][ boot region ][ k×k rings ]
//!
//! header:   magic u64 | version u32 | participants u32 | ring_cap u64
//!           | boot_cap u64 | boot_len u64 | live u32 | parent_pid u32
//! doorbell: seq AtomicU32 | waiters AtomicU32   (one cache line each)
//! ring i→j: at index i*k + j, RING_HDR + ring_cap bytes (diagonal unused)
//! ```
//!
//! Doorbell protocol (eventcount): a producer pushes a frame into ring `me→dst`,
//! then `seq[dst].fetch_add(1, Release)` and — only if `waiters[dst] > 0` — a
//! `futex_wake`. A consumer that found all rings empty snapshots its `seq`,
//! re-checks the rings, registers in `waiters`, re-checks again (so a wake
//! between snapshot and sleep is never lost), and `futex_wait`s on `seq` with
//! a short slice so it also notices `live == 0` (orphan backstop).

use std::io;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::map::SharedMapping;
use crate::ring::SpscRing;
use crate::sys;

const MAGIC: u64 = 0x4544_4745_5348_4D31; // "EDGESHM1"
const VERSION: u32 = 1;
const HDR_BYTES: usize = 64;
const DOORBELL_BYTES: usize = 64;
/// How long a parked consumer sleeps per futex slice before re-checking the
/// liveness word. Bounds orphan-detection latency when PDEATHSIG is missing.
const PARK_SLICE: Duration = Duration::from_millis(10);

const OFF_MAGIC: usize = 0;
const OFF_VERSION: usize = 8;
const OFF_PARTICIPANTS: usize = 12;
const OFF_RING_CAP: usize = 16;
const OFF_BOOT_CAP: usize = 24;
const OFF_BOOT_LEN: usize = 32;
const OFF_LIVE: usize = 40;
const OFF_PARENT_PID: usize = 44;

fn pad64(n: usize) -> usize {
    n.div_ceil(64) * 64
}

/// A shared-memory world connecting `k` participants.
pub struct ShmWorld {
    map: SharedMapping,
    k: usize,
    ring_cap: usize,
    boot_cap: usize,
    creator: bool,
}

/// Outcome of [`Endpoint::wait`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitOutcome {
    /// At least one incoming ring has a frame (may have been found while
    /// spinning — no park happened).
    Ready,
    /// A frame arrived after parking; carries nanoseconds spent parked.
    ParkedReady(u64),
    /// The total timeout elapsed with no traffic.
    TimedOut,
    /// The world was marked dead (creator exited or torn down).
    Dead,
}

impl ShmWorld {
    fn layout(k: usize, ring_cap: usize, boot_cap: usize) -> (usize, usize, usize) {
        let boot_off = HDR_BYTES + k * DOORBELL_BYTES;
        let rings_off = boot_off + pad64(boot_cap);
        let total = rings_off + k * k * SpscRing::footprint(ring_cap);
        (boot_off, rings_off, pad64(total))
    }

    /// Create a fresh world for `k` participants with the given per-pair ring
    /// capacity (rounded up to a power of two, min 4 KiB) and boot-blob
    /// capacity. The calling process becomes the creator: dropping the world
    /// marks it dead and wakes every parked participant.
    pub fn create(k: usize, ring_cap: usize, boot_cap: usize) -> io::Result<ShmWorld> {
        assert!(k >= 1);
        let ring_cap = ring_cap.next_power_of_two().max(4096);
        let (_, _, total) = Self::layout(k, ring_cap, boot_cap);
        let map = SharedMapping::create(total)?;
        let world = ShmWorld {
            map,
            k,
            ring_cap,
            boot_cap,
            creator: true,
        };
        // The mapping starts zero-filled, which is already a valid state for
        // every ring and doorbell; only the header needs writing.
        world.hdr_u64(OFF_MAGIC).store(MAGIC, Ordering::Relaxed);
        world.hdr_u32(OFF_VERSION).store(VERSION, Ordering::Relaxed);
        world
            .hdr_u32(OFF_PARTICIPANTS)
            .store(k as u32, Ordering::Relaxed);
        world
            .hdr_u64(OFF_RING_CAP)
            .store(ring_cap as u64, Ordering::Relaxed);
        world
            .hdr_u64(OFF_BOOT_CAP)
            .store(boot_cap as u64, Ordering::Relaxed);
        world
            .hdr_u32(OFF_PARENT_PID)
            .store(std::process::id(), Ordering::Relaxed);
        world.hdr_u32(OFF_LIVE).store(1, Ordering::Release);
        Ok(world)
    }

    /// Attach to an inherited world by fd + mapping length.
    pub fn open(fd: i32, len: usize) -> io::Result<ShmWorld> {
        let map = SharedMapping::from_fd(fd, len)?;
        let mut world = ShmWorld {
            map,
            k: 1,
            ring_cap: 4096,
            boot_cap: 0,
            creator: false,
        };
        let bad = |what: &str| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("shm world header: {what}"),
            )
        };
        if world.hdr_u64(OFF_MAGIC).load(Ordering::Relaxed) != MAGIC {
            return Err(bad("bad magic"));
        }
        if world.hdr_u32(OFF_VERSION).load(Ordering::Relaxed) != VERSION {
            return Err(bad("version mismatch"));
        }
        world.k = world.hdr_u32(OFF_PARTICIPANTS).load(Ordering::Relaxed) as usize;
        world.ring_cap = world.hdr_u64(OFF_RING_CAP).load(Ordering::Relaxed) as usize;
        world.boot_cap = world.hdr_u64(OFF_BOOT_CAP).load(Ordering::Relaxed) as usize;
        let (_, _, total) = Self::layout(world.k, world.ring_cap, world.boot_cap);
        if total != len {
            return Err(bad("length mismatch"));
        }
        Ok(world)
    }

    fn hdr_u64(&self, off: usize) -> &AtomicU64 {
        unsafe { &*(self.map.as_ptr().add(off) as *const AtomicU64) }
    }

    fn hdr_u32(&self, off: usize) -> &AtomicU32 {
        unsafe { &*(self.map.as_ptr().add(off) as *const AtomicU32) }
    }

    fn doorbell_seq(&self, who: usize) -> &AtomicU32 {
        debug_assert!(who < self.k);
        unsafe { &*(self.map.as_ptr().add(HDR_BYTES + who * DOORBELL_BYTES) as *const AtomicU32) }
    }

    fn doorbell_waiters(&self, who: usize) -> &AtomicU32 {
        debug_assert!(who < self.k);
        unsafe {
            &*(self.map.as_ptr().add(HDR_BYTES + who * DOORBELL_BYTES + 4) as *const AtomicU32)
        }
    }

    fn ring(&self, from: usize, to: usize) -> SpscRing {
        debug_assert!(from < self.k && to < self.k);
        let (_, rings_off, _) = Self::layout(self.k, self.ring_cap, self.boot_cap);
        let at = rings_off + (from * self.k + to) * SpscRing::footprint(self.ring_cap);
        unsafe { SpscRing::attach(self.map.as_ptr().add(at), self.ring_cap) }
    }

    /// Inheritable file descriptor identifying the mapping.
    pub fn fd(&self) -> i32 {
        self.map.fd()
    }

    /// Total mapping length in bytes (children need it to re-attach).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the world holds no participants (never true; see `len`).
    pub fn is_empty(&self) -> bool {
        self.k == 0
    }

    /// Number of participants `k`.
    pub fn participants(&self) -> usize {
        self.k
    }

    /// Per-pair ring data capacity in bytes.
    pub fn ring_capacity(&self) -> usize {
        self.ring_cap
    }

    /// Pid of the creating process, as recorded in the header.
    pub fn parent_pid(&self) -> u32 {
        self.hdr_u32(OFF_PARENT_PID).load(Ordering::Relaxed)
    }

    /// Write the boot blob (creator, before spawning participants).
    pub fn write_boot(&self, bytes: &[u8]) {
        assert!(
            bytes.len() <= self.boot_cap,
            "boot blob exceeds reserved capacity"
        );
        let (boot_off, _, _) = Self::layout(self.k, self.ring_cap, self.boot_cap);
        unsafe {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                self.map.as_ptr().add(boot_off),
                bytes.len(),
            );
        }
        self.hdr_u64(OFF_BOOT_LEN)
            .store(bytes.len() as u64, Ordering::Release);
    }

    /// Read the boot blob (participants, after attaching).
    pub fn boot(&self) -> &[u8] {
        let len = self.hdr_u64(OFF_BOOT_LEN).load(Ordering::Acquire) as usize;
        assert!(len <= self.boot_cap);
        let (boot_off, _, _) = Self::layout(self.k, self.ring_cap, self.boot_cap);
        unsafe { std::slice::from_raw_parts(self.map.as_ptr().add(boot_off), len) }
    }

    /// Whether the world is still live (creator has not torn it down).
    pub fn alive(&self) -> bool {
        self.hdr_u32(OFF_LIVE).load(Ordering::Acquire) == 1
    }

    /// Mark the world dead and wake every parked participant.
    pub fn mark_dead(&self) {
        self.hdr_u32(OFF_LIVE).store(0, Ordering::Release);
        for who in 0..self.k {
            self.doorbell_seq(who).fetch_add(1, Ordering::Release);
            sys::futex_wake_all(self.doorbell_seq(who));
        }
    }

    /// Build the endpoint for participant `me`. Each participant index must be
    /// claimed by exactly one process/thread.
    pub fn endpoint(&self, me: usize) -> Endpoint<'_> {
        assert!(me < self.k);
        let incoming = (0..self.k).map(|src| self.ring(src, me)).collect();
        let outgoing = (0..self.k).map(|dst| self.ring(me, dst)).collect();
        Endpoint {
            world: self,
            me,
            incoming,
            outgoing,
            scratch: Vec::new(),
            next_src: 0,
        }
    }
}

impl Drop for ShmWorld {
    fn drop(&mut self) {
        if self.creator {
            self.mark_dead();
        }
    }
}

/// One participant's view of a world: its incoming/outgoing rings plus its
/// doorbell.
pub struct Endpoint<'w> {
    world: &'w ShmWorld,
    me: usize,
    incoming: Vec<SpscRing>,
    outgoing: Vec<SpscRing>,
    scratch: Vec<u8>,
    next_src: usize,
}

impl Endpoint<'_> {
    /// This endpoint's participant index.
    pub fn me(&self) -> usize {
        self.me
    }

    /// The world this endpoint belongs to.
    pub fn world(&self) -> &ShmWorld {
        self.world
    }

    /// Send one tagged frame to `dst`, blocking (spin, then yield) while the
    /// destination ring is full. Panics if the world dies or the peer stops
    /// draining for `timeout`.
    pub fn send(&self, dst: usize, tag: u32, payload: &[u8], timeout: Duration) {
        assert_ne!(dst, self.me, "self-sends never cross the shm transport");
        let ring = &self.outgoing[dst];
        let tag_bytes = tag.to_le_bytes();
        let parts: [&[u8]; 2] = [&tag_bytes, payload];
        if !ring.try_push(&parts) {
            let start = Instant::now();
            let mut spins = 0u32;
            loop {
                if ring.try_push(&parts) {
                    break;
                }
                spins = spins.wrapping_add(1);
                if spins.is_multiple_of(1024) {
                    if !self.world.alive() {
                        panic!(
                            "shm endpoint {}: world died while sending to {dst}",
                            self.me
                        );
                    }
                    if start.elapsed() >= timeout {
                        panic!(
                            "shm endpoint {}: ring to {dst} full for {timeout:?} (peer dead?)",
                            self.me
                        );
                    }
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
        // Eventcount publish: bump seq, then wake only if someone is parked.
        let seq = self.world.doorbell_seq(dst);
        seq.fetch_add(1, Ordering::Release);
        if self.world.doorbell_waiters(dst).load(Ordering::Acquire) > 0 {
            sys::futex_wake_all(seq);
        }
    }

    /// Whether any incoming ring currently holds a frame.
    pub fn has_incoming(&self) -> bool {
        (0..self.incoming.len()).any(|src| src != self.me && self.incoming[src].has_frame())
    }

    /// How many incoming rings currently hold a frame: a lower bound on
    /// the frames waiting, without walking any ring.
    pub fn sources_ready(&self) -> usize {
        (0..self.incoming.len())
            .filter(|&src| src != self.me && self.incoming[src].has_frame())
            .count()
    }

    /// Pop one incoming frame, scanning sources round-robin for fairness.
    /// The payload borrows this endpoint's scratch buffer — decode it before
    /// the next call.
    pub fn try_recv(&mut self) -> Option<(usize, u32, &[u8])> {
        let k = self.incoming.len();
        for i in 0..k {
            let src = (self.next_src + i) % k;
            if src == self.me {
                continue;
            }
            if self.incoming[src].try_pop(&mut self.scratch) {
                self.next_src = (src + 1) % k;
                let tag = u32::from_le_bytes(self.scratch[..4].try_into().unwrap());
                return Some((src, tag, &self.scratch[4..]));
            }
        }
        None
    }

    /// Wait until a frame is available: spin `spin_relax` times with CPU
    /// relax hints, keep spinning with `yield_now` up to `spin_total`, then
    /// park on the doorbell futex until woken, the world dies, or `timeout`
    /// elapses in total.
    pub fn wait(&self, spin_relax: u32, spin_total: u32, timeout: Duration) -> WaitOutcome {
        for spin in 0..spin_total {
            if self.has_incoming() {
                return WaitOutcome::Ready;
            }
            if spin < spin_relax {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        let seq = self.world.doorbell_seq(self.me);
        let waiters = self.world.doorbell_waiters(self.me);
        let start = Instant::now();
        loop {
            let snapshot = seq.load(Ordering::Acquire);
            if self.has_incoming() {
                return self.parked_ready(start);
            }
            if !self.world.alive() {
                return WaitOutcome::Dead;
            }
            if start.elapsed() >= timeout {
                return WaitOutcome::TimedOut;
            }
            waiters.fetch_add(1, Ordering::SeqCst);
            // Re-check after registering so a producer that published between
            // our ring scan and the waiter increment still wakes us.
            if self.has_incoming() {
                waiters.fetch_sub(1, Ordering::SeqCst);
                return self.parked_ready(start);
            }
            sys::futex_wait(seq, snapshot, PARK_SLICE);
            waiters.fetch_sub(1, Ordering::SeqCst);
        }
    }

    fn parked_ready(&self, start: Instant) -> WaitOutcome {
        let ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        WaitOutcome::ParkedReady(ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_roundtrips_boot_and_frames_between_endpoints() {
        if !sys::SUPPORTED {
            return;
        }
        let world = ShmWorld::create(3, 4096, 128).unwrap();
        world.write_boot(b"hello-boot");
        assert_eq!(world.boot(), b"hello-boot");
        assert!(world.alive());

        // Re-open through the fd as a second attachment (same process).
        let peer = ShmWorld::open(world.fd(), world.len()).unwrap();
        assert_eq!(peer.participants(), 3);
        assert_eq!(peer.boot(), b"hello-boot");

        let a = world.endpoint(0);
        let mut b = peer.endpoint(1);
        a.send(1, 7, b"payload", Duration::from_secs(5));
        assert_eq!(b.wait(4, 8, Duration::from_secs(5)), WaitOutcome::Ready);
        let (src, tag, bytes) = b.try_recv().unwrap();
        assert_eq!((src, tag, bytes), (0, 7, &b"payload"[..]));
        assert!(b.try_recv().is_none());
    }

    #[test]
    fn parked_endpoint_wakes_on_send_and_observes_death() {
        if !sys::SUPPORTED {
            return;
        }
        let world = ShmWorld::create(2, 4096, 0).unwrap();
        std::thread::scope(|scope| {
            let w = &world;
            let waker = scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                w.endpoint(0).send(1, 1, b"wake", Duration::from_secs(5));
            });
            let mut ep = world.endpoint(1);
            match ep.wait(16, 32, Duration::from_secs(10)) {
                WaitOutcome::Ready | WaitOutcome::ParkedReady(_) => {}
                other => panic!("expected wake, got {other:?}"),
            }
            assert!(ep.try_recv().is_some());
            waker.join().unwrap();
        });

        world.mark_dead();
        let ep = world.endpoint(0);
        assert_eq!(ep.wait(0, 0, Duration::from_secs(10)), WaitOutcome::Dead);
    }
}
