//! Zero-dependency observability: phase spans, latency histograms and
//! run reports for every driver.
//!
//! The paper's evaluation (§6) is about *where time goes* — the per-step
//! cost of the `q` refresh, message waiting versus switching, load
//! imbalance across ranks. This module is the measurement substrate:
//!
//! - [`Probe`] receives spans/latencies/gauges; the default
//!   [`NoopProbe`] compiles to a single branch on a cached `bool`
//!   (the path perfbench's `seq-switch-pa1m` workload times), while
//!   [`RecordingProbe`] aggregates into log₂-bucketed histograms;
//! - [`Clock`] abstracts *when*: the threaded engine and the sequential
//!   algorithm use the monotonic [`MonoClock`], the DES injects a
//!   [`VirtualClock`] so its report is in virtual nanoseconds;
//! - [`Phase`] names the protocol's instrumented phases: edge sampling,
//!   legality check, message wait, switch apply, step barrier,
//!   q-refresh, the local fast path and the Curveball trade shuffle;
//! - [`RunReport`] is the serializable aggregate attached to
//!   [`SequentialOutcome`](crate::sequential::SequentialOutcome) /
//!   [`ParallelOutcome`](crate::parallel::ParallelOutcome) and exported
//!   by `repro trace`.
//!
//! Observation never perturbs the run: probes only *read* — no RNG
//! draws, no message reordering — so an observed run is bit-identical
//! to an unobserved one under the same seed (enforced by the
//! probe-identity conformance tests).

pub mod clock;
pub mod hist;
pub mod progress;
mod recorder;
mod report;

pub use clock::{Clock, ManualClock, MonoClock, VirtualClock};
pub use hist::{HistSummary, LogHist};
pub use progress::{ProgressEvent, SpanTotals, StepProgress, StreamingProbe};
pub use recorder::{GaugeAgg, RankObs, RecordingProbe};
pub use report::{CommGauges, GaugeStat, PhaseStat, RttStat, RunReport, RTT_KINDS};

use crate::parallel::msg::MsgKind;
use std::sync::Arc;

/// The instrumented phases of a switch-protocol run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// Drawing candidate edges (first/second edge sampling loops).
    Sample = 0,
    /// Legality checking: recombination plus existence/reservation
    /// (parallel-edge) checks.
    Legality = 1,
    /// Waiting for a protocol message (blocking receive, or the DES's
    /// virtual arrival gap).
    MsgWait = 2,
    /// Applying a switch: edge removals/insertions and visit tracking.
    SwitchApply = 3,
    /// The step-boundary collective (allgather of live edge counts).
    StepBarrier = 4,
    /// Refreshing the probability vector `q` and drawing the Algorithm-5
    /// multinomial quota.
    QRefresh = 5,
    /// One rank-local switch attempt taken end to end on the zero-message
    /// fast path (sample → legality → apply inline, covering the other
    /// phase spans it records along the way).
    LocalFastpath = 6,
    /// Executing one Curveball trade: splitting the paired neighborhoods
    /// into common/disjoint parts, shuffling the disjoint union, and
    /// reassigning (Curveball runs only; see DESIGN.md §4h).
    TradeShuffle = 7,
}

impl Phase {
    /// Number of phases (length of dense per-phase arrays).
    pub const COUNT: usize = 8;

    /// All phases, in slot order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Sample,
        Phase::Legality,
        Phase::MsgWait,
        Phase::SwitchApply,
        Phase::StepBarrier,
        Phase::QRefresh,
        Phase::LocalFastpath,
        Phase::TradeShuffle,
    ];

    /// Stable label used in reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            Phase::Sample => "sample",
            Phase::Legality => "legality",
            Phase::MsgWait => "msg-wait",
            Phase::SwitchApply => "switch-apply",
            Phase::StepBarrier => "step-barrier",
            Phase::QRefresh => "q-refresh",
            Phase::LocalFastpath => "local-fastpath",
            Phase::TradeShuffle => "trade-shuffle",
        }
    }
}

/// Instantaneous quantities sampled by the protocol (aggregated as
/// count/mean/peak rather than histograms).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum GaugeKind {
    /// Own conversations in flight after a start (window occupancy).
    WindowOccupancy = 0,
    /// Conversations being served as partner when a proposal arrives.
    ServingDepth = 1,
}

impl GaugeKind {
    /// Number of gauge kinds.
    pub const COUNT: usize = 2;

    /// All gauge kinds, in slot order.
    pub const ALL: [GaugeKind; GaugeKind::COUNT] =
        [GaugeKind::WindowOccupancy, GaugeKind::ServingDepth];

    /// Stable label used in reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            GaugeKind::WindowOccupancy => "window-occupancy",
            GaugeKind::ServingDepth => "serving-depth",
        }
    }
}

/// Observation sink. All methods default to no-ops so custom probes can
/// implement only what they need; [`Obs`] additionally gates every call
/// on a cached `enabled` bit, so the no-op path costs one branch.
pub trait Probe: Send {
    /// Whether this probe wants data at all (checked once, cached).
    fn enabled(&self) -> bool {
        false
    }
    /// One completed phase span of `dur_ns` nanoseconds.
    fn span(&mut self, _phase: Phase, _dur_ns: u64) {}
    /// One completed request/response round trip, keyed by the request's
    /// [`MsgKind`] (`Propose` = whole conversation lifetime).
    fn rtt(&mut self, _kind: MsgKind, _dur_ns: u64) {}
    /// One gauge sample.
    fn gauge(&mut self, _gauge: GaugeKind, _value: u64) {}
    /// Tear down into the per-rank aggregate (`None` = nothing
    /// recorded).
    fn finish(self: Box<Self>) -> Option<RankObs> {
        None
    }
}

/// The always-off probe (default everywhere).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopProbe;

impl Probe for NoopProbe {}

/// Which observation to attach to a run. Serializable so it travels with
/// [`ParallelConfig`](crate::config::ParallelConfig).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ObsSpec {
    /// No observation (zero overhead beyond one cold branch per probe
    /// point).
    #[default]
    Off,
    /// Record phase spans, round-trip latencies and gauges into
    /// histograms; the run's outcome carries a [`RunReport`].
    Spans,
}

impl ObsSpec {
    /// Whether this spec records anything.
    pub fn enabled(&self) -> bool {
        *self != ObsSpec::Off
    }

    /// Build the per-rank observation context, reading time from
    /// `clock` when recording.
    pub fn build(&self, clock: Arc<dyn Clock>) -> Obs {
        match self {
            ObsSpec::Off => Obs::noop(),
            ObsSpec::Spans => Obs::with_probe(Box::new(RecordingProbe::new()), clock),
        }
    }

    /// [`ObsSpec::build`] against the monotonic wall clock.
    pub fn build_mono(&self) -> Obs {
        self.build(Arc::new(MonoClock::new()))
    }
}

/// One rank's observation context: a probe plus the clock it reads.
/// Every operation is gated on a cached `enabled` bit so the disabled
/// path never reads the clock or virtual-dispatches into the probe.
pub struct Obs {
    enabled: bool,
    clock: Option<Arc<dyn Clock>>,
    probe: Box<dyn Probe>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.enabled)
            .finish()
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::noop()
    }
}

impl Obs {
    /// The disabled context (all probe points cost one branch).
    pub fn noop() -> Self {
        Obs {
            enabled: false,
            clock: None,
            probe: Box::new(NoopProbe),
        }
    }

    /// An enabled context feeding `probe` with time from `clock`.
    pub fn with_probe(probe: Box<dyn Probe>, clock: Arc<dyn Clock>) -> Self {
        let enabled = probe.enabled();
        Obs {
            enabled,
            clock: if enabled { Some(clock) } else { None },
            probe,
        }
    }

    /// Whether observations are being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Current time in nanoseconds (0 when disabled — pair with the
    /// `*_since` recorders, which are no-ops then too).
    #[inline]
    pub fn now(&self) -> u64 {
        match &self.clock {
            Some(c) if self.enabled => c.now_ns(),
            _ => 0,
        }
    }

    /// Record a phase span of an explicit duration.
    #[inline]
    pub fn span(&mut self, phase: Phase, dur_ns: u64) {
        if self.enabled {
            self.probe.span(phase, dur_ns);
        }
    }

    /// Record a phase span from a start stamp taken with [`Obs::now`].
    #[inline]
    pub fn span_since(&mut self, phase: Phase, start_ns: u64) {
        if self.enabled {
            let now = self.now();
            self.probe.span(phase, now.saturating_sub(start_ns));
        }
    }

    /// Record a round trip from a start stamp taken with [`Obs::now`].
    #[inline]
    pub fn rtt_since(&mut self, kind: MsgKind, start_ns: u64) {
        if self.enabled {
            let now = self.now();
            self.probe.rtt(kind, now.saturating_sub(start_ns));
        }
    }

    /// Record a gauge sample.
    #[inline]
    pub fn gauge(&mut self, gauge: GaugeKind, value: u64) {
        if self.enabled {
            self.probe.gauge(gauge, value);
        }
    }

    /// Tear down into the recorded per-rank aggregate.
    pub fn finish(self) -> Option<RankObs> {
        self.probe.finish()
    }
}

/// A one-thread run's [`Obs`] on the monotonic clock, and its start.
pub(crate) struct SoloObs {
    pub obs: Obs,
    start: u64,
}

impl SoloObs {
    /// What `spec` asks for (the no-op context when off).
    pub fn new(spec: ObsSpec) -> Self {
        let obs = spec.build_mono();
        SoloObs {
            start: obs.now(),
            obs,
        }
    }

    /// Stream span totals through `tx` instead ([`StreamingProbe`]).
    pub fn stream(&mut self, tx: std::sync::mpsc::Sender<ProgressEvent>, every: u64) {
        let probe = Box::new(StreamingProbe::new(tx, every));
        self.obs = Obs::with_probe(probe, Arc::new(MonoClock::new()));
    }

    /// The run's report: `Some` iff it was recorded.
    pub fn report(self) -> Option<RunReport> {
        let wall_ns = self.obs.now().saturating_sub(self.start);
        let rec = self.obs.finish()?;
        Some(RunReport::from_obs("monotonic", 1, wall_ns, &rec, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_obs_is_disabled_and_yields_nothing() {
        let mut obs = Obs::noop();
        assert!(!obs.enabled());
        assert_eq!(obs.now(), 0);
        obs.span(Phase::Sample, 5);
        obs.gauge(GaugeKind::WindowOccupancy, 3);
        assert!(obs.finish().is_none());
    }

    #[test]
    fn spans_spec_records_through_a_manual_clock() {
        let clock = Arc::new(ManualClock::new());
        let mut obs = ObsSpec::Spans.build(clock.clone());
        assert!(obs.enabled());
        let t0 = obs.now();
        clock.advance(250);
        obs.span_since(Phase::Legality, t0);
        obs.rtt_since(MsgKind::Propose, t0);
        obs.gauge(GaugeKind::ServingDepth, 2);
        let rec = obs.finish().expect("recording probe yields data");
        assert_eq!(rec.phases[Phase::Legality as usize].count(), 1);
        assert_eq!(rec.phases[Phase::Legality as usize].max(), 250);
        assert_eq!(rec.rtt[MsgKind::Propose as usize].count(), 1);
        assert_eq!(rec.gauges[GaugeKind::ServingDepth as usize].peak, 2);
    }

    #[test]
    fn labels_are_dense_and_distinct() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i);
            assert!(!p.label().is_empty());
        }
        for (i, g) in GaugeKind::ALL.iter().enumerate() {
            assert_eq!(*g as usize, i);
            assert!(!g.label().is_empty());
        }
        assert_eq!(ObsSpec::default(), ObsSpec::Off);
        assert!(!ObsSpec::Off.enabled());
        assert!(ObsSpec::Spans.enabled());
    }
}
