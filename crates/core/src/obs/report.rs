//! The serializable run report: cross-rank aggregation of everything
//! the probes recorded.

use super::hist::HistSummary;
use super::recorder::RankObs;
use super::{GaugeKind, Phase};
use crate::parallel::msg::MsgKind;
use edgeswitch_json::{json, Json};

/// The request kinds whose round trips are reported, in report order.
/// `Propose` carries whole-conversation lifetimes (propose → done); the
/// others measure request → reply latency.
pub const RTT_KINDS: [MsgKind; 4] = [
    MsgKind::Propose,
    MsgKind::Validate,
    MsgKind::CommitAdd,
    MsgKind::CommitRemove,
];

/// One phase's span histogram summary.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseStat {
    /// [`Phase::label`].
    pub phase: String,
    /// Span durations in (clock-domain) nanoseconds.
    pub hist: HistSummary,
}

/// One message kind's round-trip histogram summary.
#[derive(Clone, Debug, PartialEq)]
pub struct RttStat {
    /// [`MsgKind::label`] of the *request*.
    pub kind: String,
    /// Round-trip latencies in (clock-domain) nanoseconds.
    pub hist: HistSummary,
}

/// One gauge's count/mean/peak aggregate.
#[derive(Clone, Debug, PartialEq)]
pub struct GaugeStat {
    /// Gauge name (`window-occupancy`, `serving-depth`,
    /// `recv-queue-depth`, `park`).
    pub gauge: String,
    /// Number of samples (for `park`: number of parks).
    pub samples: u64,
    /// Mean sampled value (for `park`: mean park duration in ns).
    pub mean: f64,
    /// Peak sampled value (for `park`: longest cumulative per-rank park
    /// time in ns).
    pub peak: u64,
}

/// Comm-layer gauge inputs harvested from `mpilite::CommStats` (threaded
/// driver only; the simulators have no receive queue or parking).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CommGauges {
    /// Per-rank peak receive-queue depth.
    pub queue_peaks: Vec<u64>,
    /// Total park events across ranks.
    pub parks: u64,
    /// Total parked nanoseconds across ranks.
    pub park_ns: u64,
    /// Largest cumulative per-rank park time in nanoseconds.
    pub park_ns_max: u64,
}

/// Aggregated observability output of one run. Attached to
/// [`SequentialOutcome`](crate::sequential::SequentialOutcome) /
/// [`ParallelOutcome`](crate::parallel::ParallelOutcome) when the run
/// was observed, and exported as JSON by `repro trace`.
///
/// Schema stability: `phases` always holds all [`Phase::ALL`] entries in
/// order, `rtt` all [`RTT_KINDS`], and `gauges` the fixed four — empty
/// histograms report zero summaries rather than vanishing. The JSON
/// carries [`RunReport::SCHEMA_VERSION`].
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Which timeline the nanoseconds live on: `"monotonic"` for real
    /// runs, `"virtual"` for the DES.
    pub clock: String,
    /// Number of ranks observed (1 for sequential).
    pub ranks: u64,
    /// End-to-end run duration in clock-domain nanoseconds.
    pub wall_ns: u64,
    /// Per-phase span summaries, indexed by `Phase as usize`.
    pub phases: Vec<PhaseStat>,
    /// Round-trip summaries for [`RTT_KINDS`], in that order.
    pub rtt: Vec<RttStat>,
    /// Gauge aggregates: `window-occupancy`, `serving-depth`,
    /// `recv-queue-depth`, `park`.
    pub gauges: Vec<GaugeStat>,
}

impl RunReport {
    /// Version of [`RunReport::to_json`]'s schema. 2: every histogram
    /// says how many of its spans were `timed`, and `sum_ns` is the
    /// sampled estimate.
    pub const SCHEMA_VERSION: u64 = 2;

    /// Build a report from the merged per-rank observations plus
    /// optional comm-layer gauges.
    pub fn from_obs(
        clock: &str,
        ranks: u64,
        wall_ns: u64,
        merged: &RankObs,
        comm: Option<&CommGauges>,
    ) -> Self {
        let phases = Phase::ALL
            .iter()
            .map(|p| PhaseStat {
                phase: p.label().to_string(),
                hist: merged.phases[*p as usize].summary(),
            })
            .collect();
        let rtt = RTT_KINDS
            .iter()
            .map(|k| RttStat {
                kind: k.label().to_string(),
                hist: merged.rtt[*k as usize].summary(),
            })
            .collect();
        let mut gauges: Vec<GaugeStat> = GaugeKind::ALL
            .iter()
            .map(|g| {
                let agg = &merged.gauges[*g as usize];
                GaugeStat {
                    gauge: g.label().to_string(),
                    samples: agg.samples,
                    mean: agg.mean(),
                    peak: agg.peak,
                }
            })
            .collect();
        let default_comm = CommGauges::default();
        let cg = comm.unwrap_or(&default_comm);
        let queue_peak = cg.queue_peaks.iter().copied().max().unwrap_or(0);
        let queue_mean = if cg.queue_peaks.is_empty() {
            0.0
        } else {
            cg.queue_peaks.iter().sum::<u64>() as f64 / cg.queue_peaks.len() as f64
        };
        gauges.push(GaugeStat {
            gauge: "recv-queue-depth".to_string(),
            samples: cg.queue_peaks.len() as u64,
            mean: queue_mean,
            peak: queue_peak,
        });
        gauges.push(GaugeStat {
            gauge: "park".to_string(),
            samples: cg.parks,
            mean: if cg.parks == 0 {
                0.0
            } else {
                cg.park_ns as f64 / cg.parks as f64
            },
            peak: cg.park_ns_max,
        });
        RunReport {
            clock: clock.to_string(),
            ranks,
            wall_ns,
            phases,
            rtt,
            gauges,
        }
    }

    /// The span summary for `phase` (reports always carry all phases).
    pub fn phase(&self, phase: Phase) -> &PhaseStat {
        &self.phases[phase as usize]
    }

    /// The round-trip summary for `kind`, if it is one of [`RTT_KINDS`].
    pub fn rtt_of(&self, kind: MsgKind) -> Option<&RttStat> {
        RTT_KINDS
            .iter()
            .position(|k| *k == kind)
            .map(|i| &self.rtt[i])
    }

    /// The gauge aggregate named `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<&GaugeStat> {
        self.gauges.iter().find(|g| g.gauge == name)
    }

    /// The report as JSON: the schema the golden test pins and
    /// `repro trace` exports.
    pub fn to_json(&self) -> Json {
        fn hist(h: &HistSummary) -> Json {
            json!({
                "count": h.count,
                "timed": h.timed,
                "sum_ns": h.sum_ns,
                "p50_ns": h.p50_ns,
                "p90_ns": h.p90_ns,
                "p99_ns": h.p99_ns,
                "max_ns": h.max_ns,
            })
        }
        let phases: Vec<Json> = self
            .phases
            .iter()
            .map(|p| {
                json!({
                    "phase": p.phase.clone(),
                    "hist": hist(&p.hist),
                })
            })
            .collect();
        let rtt: Vec<Json> = self
            .rtt
            .iter()
            .map(|r| {
                json!({
                    "kind": r.kind.clone(),
                    "hist": hist(&r.hist),
                })
            })
            .collect();
        let gauges: Vec<Json> = self
            .gauges
            .iter()
            .map(|g| {
                json!({
                    "gauge": g.gauge.clone(),
                    "samples": g.samples,
                    "mean": g.mean,
                    "peak": g.peak,
                })
            })
            .collect();
        json!({
            "schema_version": RunReport::SCHEMA_VERSION,
            "clock": self.clock.clone(),
            "ranks": self.ranks,
            "wall_ns": self.wall_ns,
            "phases": phases,
            "rtt": rtt,
            "gauges": gauges,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        let mut obs = RankObs::default();
        obs.phases[Phase::Sample as usize].record(100);
        obs.phases[Phase::MsgWait as usize].record(4_000);
        obs.rtt[MsgKind::Propose as usize].record(9_000);
        obs.gauges[GaugeKind::WindowOccupancy as usize].record(16);
        let comm = CommGauges {
            queue_peaks: vec![3, 7],
            parks: 4,
            park_ns: 2_000,
            park_ns_max: 1_500,
        };
        RunReport::from_obs("monotonic", 2, 123_456, &obs, Some(&comm))
    }

    #[test]
    fn report_is_schema_complete() {
        let r = sample_report();
        assert_eq!(r.phases.len(), Phase::COUNT);
        assert_eq!(r.rtt.len(), RTT_KINDS.len());
        assert_eq!(r.gauges.len(), GaugeKind::COUNT + 2);
        assert_eq!(r.phase(Phase::Sample).hist.count, 1);
        assert_eq!(r.phase(Phase::Legality).hist.count, 0);
        assert_eq!(r.rtt_of(MsgKind::Propose).unwrap().hist.max_ns, 9_000);
        assert!(r.rtt_of(MsgKind::CommitRemove).is_some());
        assert!(r.rtt_of(MsgKind::Done).is_none());
        let q = r.gauge("recv-queue-depth").unwrap();
        assert_eq!(q.peak, 7);
        assert_eq!(q.samples, 2);
        let park = r.gauge("park").unwrap();
        assert_eq!(park.samples, 4);
        assert!((park.mean - 500.0).abs() < 1e-9);
    }

    #[test]
    fn to_json_mirrors_the_struct() {
        let r = sample_report();
        let v = r.to_json();
        assert_eq!(v["schema_version"].as_u64(), Some(2));
        assert_eq!(v["clock"].as_str(), Some("monotonic"));
        assert_eq!(v["ranks"].as_u64(), Some(2));
        assert_eq!(v["wall_ns"].as_u64(), Some(123_456));
        let phases = v["phases"].as_arr().unwrap();
        assert_eq!(phases.len(), Phase::COUNT);
        assert_eq!(phases[0]["phase"].as_str(), Some("sample"));
        assert_eq!(phases[0]["hist"]["count"].as_u64(), Some(1));
        assert_eq!(phases[0]["hist"]["timed"].as_u64(), Some(1));
        let rtt = v["rtt"].as_arr().unwrap();
        assert_eq!(rtt[0]["kind"].as_str(), Some("propose"));
        assert_eq!(rtt[0]["hist"]["max_ns"].as_u64(), Some(9_000));
        let gauges = v["gauges"].as_arr().unwrap();
        assert_eq!(gauges.len(), 4);
        assert_eq!(gauges[3]["gauge"].as_str(), Some("park"));
    }

    #[test]
    fn missing_comm_gauges_report_zeros() {
        let r = RunReport::from_obs("virtual", 4, 10, &RankObs::default(), None);
        let q = r.gauge("recv-queue-depth").unwrap();
        assert_eq!((q.samples, q.peak), (0, 0));
        let park = r.gauge("park").unwrap();
        assert_eq!((park.samples, park.peak), (0, 0));
        assert_eq!(r.clock, "virtual");
    }
}
