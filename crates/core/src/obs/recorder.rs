//! The recording probe and its per-rank aggregate.

use super::hist::LogHist;
use super::{GaugeKind, Phase, Probe};
use crate::parallel::msg::MsgKind;

/// Count/sum/peak aggregation for a gauge.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GaugeAgg {
    /// Number of samples.
    pub samples: u64,
    /// Sum of sampled values (for the mean).
    pub sum: u64,
    /// Largest sampled value.
    pub peak: u64,
}

impl GaugeAgg {
    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.samples += 1;
        self.sum = self.sum.saturating_add(v);
        self.peak = self.peak.max(v);
    }

    /// Fold another aggregate in.
    pub fn merge(&mut self, other: &GaugeAgg) {
        self.samples += other.samples;
        self.sum = self.sum.saturating_add(other.sum);
        self.peak = self.peak.max(other.peak);
    }

    /// Mean sampled value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum as f64 / self.samples as f64
        }
    }
}

/// Everything one rank recorded: per-phase span histograms, per-kind
/// round-trip histograms and gauge aggregates. Merged across ranks into
/// a [`RunReport`](super::RunReport).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankObs {
    /// Span histograms indexed by `Phase as usize`.
    pub phases: [LogHist; Phase::COUNT],
    /// Round-trip histograms indexed by `MsgKind as usize` (request
    /// kind; `Propose` carries whole-conversation lifetimes).
    pub rtt: [LogHist; MsgKind::COUNT],
    /// Gauge aggregates indexed by `GaugeKind as usize`.
    pub gauges: [GaugeAgg; GaugeKind::COUNT],
}

impl Default for RankObs {
    fn default() -> Self {
        RankObs {
            phases: std::array::from_fn(|_| LogHist::new()),
            rtt: std::array::from_fn(|_| LogHist::new()),
            gauges: [GaugeAgg::default(); GaugeKind::COUNT],
        }
    }
}

impl RankObs {
    /// Fold another rank's observations in.
    pub fn merge(&mut self, other: &RankObs) {
        for (a, b) in self.phases.iter_mut().zip(other.phases.iter()) {
            a.merge(b);
        }
        for (a, b) in self.rtt.iter_mut().zip(other.rtt.iter()) {
            a.merge(b);
        }
        for (a, b) in self.gauges.iter_mut().zip(other.gauges.iter()) {
            a.merge(b);
        }
    }

    /// Whether anything at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.phases.iter().all(LogHist::is_empty)
            && self.rtt.iter().all(LogHist::is_empty)
            && self.gauges.iter().all(|g| g.samples == 0)
    }
}

/// A [`Probe`] that aggregates every observation into a [`RankObs`].
#[derive(Clone, Debug, Default)]
pub struct RecordingProbe {
    obs: RankObs,
}

impl RecordingProbe {
    /// An empty recorder.
    pub fn new() -> Self {
        RecordingProbe::default()
    }
}

impl Probe for RecordingProbe {
    fn enabled(&self) -> bool {
        true
    }

    fn span(&mut self, phase: Phase, dur_ns: Option<u64>) {
        self.obs.phases[phase as usize].add(dur_ns);
    }

    fn rtt(&mut self, kind: MsgKind, dur_ns: Option<u64>) {
        self.obs.rtt[kind as usize].add(dur_ns);
    }

    fn gauge(&mut self, gauge: GaugeKind, value: u64) {
        self.obs.gauges[gauge as usize].record(value);
    }

    fn finish(self: Box<Self>) -> Option<RankObs> {
        Some(self.obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_agg_tracks_mean_and_peak() {
        let mut g = GaugeAgg::default();
        g.record(2);
        g.record(6);
        assert_eq!(g.samples, 2);
        assert_eq!(g.peak, 6);
        assert!((g.mean() - 4.0).abs() < 1e-12);
        let mut h = GaugeAgg::default();
        h.record(10);
        g.merge(&h);
        assert_eq!(g.samples, 3);
        assert_eq!(g.peak, 10);
    }

    #[test]
    fn recording_probe_round_trips_into_rank_obs() {
        let mut p = RecordingProbe::new();
        assert!(p.enabled());
        p.span(Phase::MsgWait, Some(40));
        p.span(Phase::MsgWait, Some(80));
        p.span(Phase::MsgWait, None);
        p.rtt(MsgKind::Validate, Some(15));
        p.gauge(GaugeKind::WindowOccupancy, 16);
        let obs = Box::new(p).finish().unwrap();
        assert!(!obs.is_empty());
        assert_eq!(obs.phases[Phase::MsgWait as usize].count(), 3);
        assert_eq!(obs.phases[Phase::MsgWait as usize].timed(), 2);
        assert_eq!(obs.phases[Phase::MsgWait as usize].sum(), 120);
        assert_eq!(obs.rtt[MsgKind::Validate as usize].max(), 15);
        assert_eq!(obs.gauges[GaugeKind::WindowOccupancy as usize].peak, 16);
    }

    #[test]
    fn rank_obs_merge_is_elementwise() {
        let mut a = RankObs::default();
        let mut b = RankObs::default();
        a.phases[Phase::Sample as usize].record(10);
        b.phases[Phase::Sample as usize].record(30);
        b.rtt[MsgKind::CommitAdd as usize].record(5);
        a.merge(&b);
        assert_eq!(a.phases[Phase::Sample as usize].count(), 2);
        assert_eq!(a.phases[Phase::Sample as usize].max(), 30);
        assert_eq!(a.rtt[MsgKind::CommitAdd as usize].count(), 1);
        assert!(RankObs::default().is_empty());
    }
}
