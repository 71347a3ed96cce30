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
//! Per-operation spans are *sampled*: [`Obs::stamp`] reads the clock for
//! the 1st, 65th, 129th … stamp of each phase and hands out an untimed
//! [`Stamp`] otherwise, so an observed switch costs a few counter bumps
//! instead of four to six clock reads. Every span is still counted —
//! histogram counts are exact, totals are the timed sum scaled by
//! `count / timed` ([`HistSummary`]). Per-step spans (barrier, q-refresh,
//! message wait) and wall time read the clock every time ([`Obs::now`]).
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

#[cfg(test)]
pub(crate) use clock::CountingClock;
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
///
/// Every span and round trip arrives; its duration is `None` when the
/// sampler left it untimed ([`Obs::stamp`]).
pub trait Probe: Send {
    /// Whether this probe wants data at all (checked once, cached).
    fn enabled(&self) -> bool {
        false
    }
    /// One completed phase span, of `dur_ns` nanoseconds if timed.
    fn span(&mut self, _phase: Phase, _dur_ns: Option<u64>) {}
    /// One completed request/response round trip, keyed by the request's
    /// [`MsgKind`] (`Propose` = whole conversation lifetime).
    fn rtt(&mut self, _kind: MsgKind, _dur_ns: Option<u64>) {}
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

/// One span in [`TIMED_EVERY`] of each phase (and of each round-trip
/// kind) is timed, starting with the first.
const TIMED_EVERY: u8 = 64;

/// Stride slots: one per [`Phase`], then one per round-trip [`MsgKind`].
const STRIDES: usize = Phase::COUNT + MsgKind::COUNT;

/// Back-to-back clock reads [`read_cost`] takes the least gap of (an
/// enabled [`Obs`] reads its clock one more time than this on set-up).
pub(crate) const CALIBRATION_READS: usize = 16;

/// What reading `clock` adds to a span timed with it: the least gap
/// between back-to-back reads (0 for a virtual or manual clock). A timed
/// span's raw duration carries one read's latency that the untimed
/// spans it stands for do not, so [`Obs::span_since`] subtracts it.
fn read_cost(clock: &dyn Clock) -> u64 {
    let mut last = clock.now_ns();
    let mut least = u64::MAX;
    for _ in 0..CALIBRATION_READS {
        let now = clock.now_ns();
        least = least.min(now.saturating_sub(last));
        last = now;
    }
    least
}

/// The start of a span or round trip, from [`Obs::stamp`] or
/// [`Obs::stamp_rtt`]: the clock reading if the sampler chose to time it,
/// otherwise a marker that the span is only to be counted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stamp(u64);

impl Stamp {
    /// The stamp of a span that is counted but not timed.
    pub const UNTIMED: Stamp = Stamp(u64::MAX);

    /// Whether the span starting here is timed.
    #[inline]
    pub fn is_timed(&self) -> bool {
        *self != Stamp::UNTIMED
    }
}

/// One rank's observation context: a probe plus the clock it reads.
/// Every operation is gated on a cached `enabled` bit so the disabled
/// path never reads the clock or virtual-dispatches into the probe.
pub struct Obs {
    enabled: bool,
    clock: Option<Arc<dyn Clock>>,
    probe: Box<dyn Probe>,
    /// Stamps handed out since each slot's last timed one, modulo
    /// [`TIMED_EVERY`].
    strides: [u8; STRIDES],
    /// [`read_cost`] of the clock, subtracted from every stamped span.
    read_cost: u64,
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
            strides: [0; STRIDES],
            read_cost: 0,
        }
    }

    /// An enabled context feeding `probe` with time from `clock`.
    pub fn with_probe(probe: Box<dyn Probe>, clock: Arc<dyn Clock>) -> Self {
        let enabled = probe.enabled();
        Obs {
            enabled,
            read_cost: if enabled { read_cost(&*clock) } else { 0 },
            clock: if enabled { Some(clock) } else { None },
            probe,
            strides: [0; STRIDES],
        }
    }

    /// Whether observations are being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Current time in nanoseconds, read every call (0 when disabled).
    /// For wall time and the once-a-step spans recorded with
    /// [`Obs::span`]; per-operation spans start from [`Obs::stamp`].
    #[inline]
    pub fn now(&self) -> u64 {
        match &self.clock {
            Some(c) if self.enabled => c.now_ns(),
            _ => 0,
        }
    }

    /// The start of a `phase` span, timed for the 1st, 65th, 129th …
    /// stamp of that phase and untimed otherwise (always untimed when
    /// disabled). Close it with [`Obs::span_since`], which counts the
    /// span either way and reads the clock only for a timed one.
    #[inline]
    pub fn stamp(&mut self, phase: Phase) -> Stamp {
        self.stamp_slot(phase as usize)
    }

    /// [`Obs::stamp`] for a round trip of request `kind`, sampled on the
    /// kind's own stride; close it with [`Obs::rtt_since`].
    #[inline]
    pub fn stamp_rtt(&mut self, kind: MsgKind) -> Stamp {
        self.stamp_slot(Phase::COUNT + kind as usize)
    }

    #[inline]
    fn stamp_slot(&mut self, slot: usize) -> Stamp {
        if !self.enabled {
            return Stamp::UNTIMED;
        }
        let n = &mut self.strides[slot];
        let timed = *n == 0;
        *n = (*n + 1) % TIMED_EVERY;
        if timed {
            Stamp(self.now())
        } else {
            Stamp::UNTIMED
        }
    }

    /// Time elapsed since `start` less the clock's read cost, if it is
    /// timed (reads the clock then only).
    #[inline]
    fn since(&self, start: Stamp) -> Option<u64> {
        let Stamp(at) = start;
        let elapsed = || self.now().saturating_sub(at).saturating_sub(self.read_cost);
        start.is_timed().then(elapsed)
    }

    /// Record a timed phase span of an explicit duration.
    #[inline]
    pub fn span(&mut self, phase: Phase, dur_ns: u64) {
        if self.enabled {
            self.probe.span(phase, Some(dur_ns));
        }
    }

    /// Record a phase span from a start taken with [`Obs::stamp`].
    #[inline]
    pub fn span_since(&mut self, phase: Phase, start: Stamp) {
        if self.enabled {
            let dur = self.since(start);
            self.probe.span(phase, dur);
        }
    }

    /// Record a round trip from a start taken with [`Obs::stamp_rtt`]
    /// (or the [`Obs::stamp`] of the span it began with).
    #[inline]
    pub fn rtt_since(&mut self, kind: MsgKind, start: Stamp) {
        if self.enabled {
            let dur = self.since(start);
            self.probe.rtt(kind, dur);
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
        assert_eq!(obs.stamp(Phase::Sample), Stamp::UNTIMED);
        obs.span(Phase::Sample, 5);
        obs.gauge(GaugeKind::WindowOccupancy, 3);
        assert!(obs.finish().is_none());
    }

    #[test]
    fn spans_spec_records_through_a_manual_clock() {
        let clock = Arc::new(ManualClock::new());
        let mut obs = ObsSpec::Spans.build(clock.clone());
        assert!(obs.enabled());
        let t0 = obs.stamp(Phase::Legality);
        assert!(t0.is_timed(), "the first stamp of a phase is timed");
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

    /// `rounds` rounds of one constant-duration span for each of
    /// `phases`, stamped alternately; returns the recorded aggregate.
    fn interleaved(phases: &[Phase], rounds: u64, dur: u64) -> RankObs {
        let clock = Arc::new(ManualClock::new());
        let mut obs = ObsSpec::Spans.build(clock.clone());
        for _ in 0..rounds {
            for &phase in phases {
                let start = obs.stamp(phase);
                clock.advance(dur);
                obs.span_since(phase, start);
            }
        }
        obs.finish().expect("recording probe yields data")
    }

    #[test]
    fn sampling_strides_are_per_phase() {
        // A shared stride would time every 64th stamp overall, which at
        // period 2 (or 3) lands on the same phase every time.
        for phases in [
            &[Phase::Sample, Phase::Legality][..],
            &[Phase::Sample, Phase::Legality, Phase::SwitchApply][..],
        ] {
            let rec = interleaved(phases, 200, 10);
            for &phase in phases {
                let h = &rec.phases[phase as usize];
                assert_eq!(h.count(), 200, "{phase:?}");
                assert_eq!(h.timed(), 4, "{phase:?}: stamps 1, 65, 129, 193");
            }
        }
    }

    #[test]
    fn counts_and_constant_totals_are_exact() {
        for rounds in [1u64, 63, 64, 65, 1_000] {
            let rec = interleaved(&[Phase::SwitchApply], rounds, 9);
            let s = rec.phases[Phase::SwitchApply as usize].summary();
            assert_eq!(s.count, rounds);
            assert_eq!(s.timed, rounds.div_ceil(64));
            assert_eq!(s.sum_ns, 9 * rounds, "rounds {rounds}");
            assert_eq!((s.p50_ns, s.max_ns), (9, 9));
        }
    }

    #[test]
    fn every_counted_phase_has_a_timed_span() {
        let clock = Arc::new(ManualClock::new());
        let mut obs = ObsSpec::Spans.build(clock.clone());
        // Uneven traffic: phase i gets i + 1 spans, round-trip kinds one.
        for (i, &phase) in Phase::ALL.iter().enumerate() {
            for _ in 0..=i {
                let start = obs.stamp(phase);
                clock.advance(3);
                obs.span_since(phase, start);
            }
        }
        for kind in RTT_KINDS {
            let start = obs.stamp_rtt(kind);
            clock.advance(5);
            obs.rtt_since(kind, start);
        }
        let rec = obs.finish().unwrap();
        for h in rec.phases.iter().chain(rec.rtt.iter()) {
            assert!(h.count() == 0 || h.timed() >= 1);
            assert!(h.timed() <= h.count());
        }
        let mut merged = rec.clone();
        merged.merge(&rec);
        for (m, h) in merged.phases.iter().zip(&rec.phases) {
            assert_eq!(
                (m.count(), m.timed(), m.sum()),
                (2 * h.count(), 2 * h.timed(), 2 * h.sum())
            );
        }
    }

    /// A clock that moves 7 ns each time it is read.
    #[derive(Default)]
    struct Ticking(std::sync::atomic::AtomicU64);

    impl Clock for Ticking {
        fn now_ns(&self) -> u64 {
            self.0.fetch_add(7, std::sync::atomic::Ordering::Relaxed)
        }
        fn label(&self) -> &'static str {
            "ticking"
        }
    }

    #[test]
    fn the_clocks_own_read_cost_is_taken_off_timed_spans() {
        let mut obs = ObsSpec::Spans.build(Arc::new(Ticking::default()));
        let start = obs.stamp(Phase::Sample);
        obs.span_since(Phase::Sample, start);
        let h = &obs.finish().unwrap().phases[Phase::Sample as usize];
        assert_eq!((h.timed(), h.sum()), (1, 0), "an empty span reads as empty");
    }

    #[test]
    fn explicit_spans_are_always_timed() {
        let clock = Arc::new(ManualClock::new());
        let mut obs = ObsSpec::Spans.build(clock);
        for _ in 0..100 {
            obs.span(Phase::StepBarrier, 4);
        }
        let h = &obs.finish().unwrap().phases[Phase::StepBarrier as usize];
        assert_eq!((h.count(), h.timed(), h.sum()), (100, 100, 400));
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
