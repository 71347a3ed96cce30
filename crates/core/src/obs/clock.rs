//! Clock injection: probes read time through a [`Clock`] so the same
//! instrumentation points serve wall-clock runs (threaded engine,
//! sequential algorithm) and the discrete-event simulator, which
//! advances a virtual nanosecond counter instead.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotonic nanosecond source. `Send + Sync` so one clock can be
/// shared across ranks (the DES owns a single virtual timeline).
pub trait Clock: Send + Sync {
    /// Nanoseconds since an arbitrary (per-clock) epoch. Must never go
    /// backwards.
    fn now_ns(&self) -> u64;

    /// Stable label recorded in [`RunReport`](super::RunReport) so a
    /// reader knows which timeline the numbers live on.
    fn label(&self) -> &'static str;
}

/// Wall-clock time via [`Instant`], anchored at construction.
#[derive(Clone, Debug)]
pub struct MonoClock {
    epoch: Instant,
}

impl MonoClock {
    /// A clock whose epoch is "now".
    pub fn new() -> Self {
        MonoClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for MonoClock {
    fn default() -> Self {
        MonoClock::new()
    }
}

impl Clock for MonoClock {
    fn now_ns(&self) -> u64 {
        // u64 nanoseconds cover ~584 years of run time.
        self.epoch.elapsed().as_nanos() as u64
    }

    fn label(&self) -> &'static str {
        "monotonic"
    }
}

/// A virtual timeline driven by a simulator: reads the shared cell the
/// DES advances as it executes events. Probes observing through this
/// clock report *virtual* nanoseconds.
#[derive(Clone, Debug)]
pub struct VirtualClock {
    cell: Arc<AtomicU64>,
}

impl VirtualClock {
    /// A virtual clock over `cell`; the simulator stores the current
    /// virtual time there (Relaxed is sufficient — readers only need
    /// monotonicity per simulator thread).
    pub fn new(cell: Arc<AtomicU64>) -> Self {
        VirtualClock { cell }
    }

    /// The shared cell, for the simulator to advance.
    pub fn cell(&self) -> Arc<AtomicU64> {
        self.cell.clone()
    }
}

impl Clock for VirtualClock {
    fn now_ns(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    fn label(&self) -> &'static str {
        "virtual"
    }
}

/// A hand-cranked clock for tests.
#[derive(Debug, Default)]
pub struct ManualClock {
    now: AtomicU64,
}

impl ManualClock {
    /// A manual clock starting at 0.
    pub fn new() -> Self {
        ManualClock::default()
    }

    /// Advance by `ns` nanoseconds.
    pub fn advance(&self, ns: u64) {
        self.now.fetch_add(ns, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }

    fn label(&self) -> &'static str {
        "manual"
    }
}

/// Monotonic time that counts how often it is read: the cost of an
/// observed run in clock reads, which no timing noise can blur.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct CountingClock {
    inner: MonoClock,
    reads: AtomicU64,
}

#[cfg(test)]
impl CountingClock {
    /// Calls to [`Clock::now_ns`] so far.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
impl Clock for CountingClock {
    fn now_ns(&self) -> u64 {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.now_ns()
    }

    fn label(&self) -> &'static str {
        "counting"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mono_clock_is_monotonic() {
        let c = MonoClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
        assert_eq!(c.label(), "monotonic");
    }

    #[test]
    fn virtual_clock_reads_shared_cell() {
        let cell = Arc::new(AtomicU64::new(0));
        let c = VirtualClock::new(cell.clone());
        assert_eq!(c.now_ns(), 0);
        cell.store(1_234, Ordering::Relaxed);
        assert_eq!(c.now_ns(), 1_234);
        assert_eq!(c.label(), "virtual");
    }

    #[test]
    fn manual_clock_advances() {
        let c = ManualClock::new();
        c.advance(7);
        c.advance(5);
        assert_eq!(c.now_ns(), 12);
        assert_eq!(c.label(), "manual");
    }
}
