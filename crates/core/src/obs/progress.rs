//! Streaming progress: live events out of a running job.
//!
//! The report machinery in this module's siblings aggregates *after* the
//! run; a job server needs to narrate *during* it. Two bridges feed that
//! narration:
//!
//! - [`StepProgress`] is where a stepped run stands, in
//!   driver-independent units — what
//!   [`Engine::advance`](crate::Engine::advance) returns after each
//!   piece of work.
//! - [`StreamingProbe`] is a [`Probe`] that forwards cumulative span
//!   totals over an [`mpsc`](std::sync::mpsc) channel every `every`
//!   spans ([`Engine::attach_probe`](crate::Engine::attach_probe)).
//!   It counts every span exactly; its nanosecond totals are estimated
//!   from the sampled, timed spans as a report's `sum_ns` is. Like every
//!   probe it only reads — no RNG draws, no message reordering — so a
//!   streamed run stays bit-identical to a silent one.
//!
//! Both arrive as [`ProgressEvent`]s; `crates/svc` serializes them onto
//! job event streams.

use super::hist::scaled_sum;
use super::{Phase, Probe, RankObs};
use std::sync::mpsc::Sender;

/// One progress event streamed out of a running job.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProgressEvent {
    /// Cumulative span totals from an attached [`StreamingProbe`].
    Spans(SpanTotals),
    /// One completed step (or sequential chunk) of a stepping driver.
    Step(StepProgress),
}

/// Cumulative per-phase span totals since the probe was attached.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans observed across all phases.
    pub total: u64,
    /// Spans observed per [`Phase`] (indexed by `Phase as usize`).
    pub counts: [u64; Phase::COUNT],
    /// Estimated nanoseconds per [`Phase`]: the timed spans' sum scaled
    /// by `counts / timed`, as [`HistSummary::sum_ns`](super::HistSummary::sum_ns).
    pub ns: [u64; Phase::COUNT],
}

/// Where a stepped run stands after one [`Engine::advance`](crate::Engine::advance).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StepProgress {
    /// Steps completed so far (1-based: the step this record closes);
    /// 0 for an engine without a step structure (sequential chunks).
    /// Under Curveball a step is a pass.
    pub step: u64,
    /// Total steps the run will take (0 when the engine has no step
    /// structure). A Curveball run decides its pass count as it goes,
    /// so there this is the passes run so far.
    pub steps: u64,
    /// Operations performed so far, run-wide (trades under Curveball).
    pub performed: u64,
    /// The run's operation budget `t` (see
    /// [`Engine::budget`](crate::Engine::budget) for Curveball's).
    pub budget: u64,
    /// Observed visit rate so far.
    pub visit_rate: f64,
    /// Logical protocol messages this step (0 for sequential chunks).
    pub logical_msgs: u64,
    /// Whether the run is over: [`Engine::is_done`](crate::Engine::is_done).
    pub done: bool,
}

impl StepProgress {
    /// Fraction of the budget consumed, in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        if self.budget == 0 {
            1.0
        } else {
            (self.performed as f64 / self.budget as f64).min(1.0)
        }
    }
}

/// A [`Probe`] that streams [`SpanTotals`] snapshots over a channel as
/// the run executes: one event per `every` spans, plus a final event at
/// teardown. Send errors (receiver gone) are ignored — a disappearing
/// listener must never fail the run.
pub struct StreamingProbe {
    tx: Sender<ProgressEvent>,
    every: u64,
    unsent: u64,
    totals: SpanTotals,
    /// Timed spans and their summed nanoseconds, per phase.
    timed: [(u64, u64); Phase::COUNT],
}

impl StreamingProbe {
    /// Stream through `tx`, emitting every `every` spans (`every` is
    /// clamped to at least 1).
    pub fn new(tx: Sender<ProgressEvent>, every: u64) -> Self {
        StreamingProbe {
            tx,
            every: every.max(1),
            unsent: 0,
            totals: SpanTotals::default(),
            timed: [(0, 0); Phase::COUNT],
        }
    }

    /// Send the totals so far, with their nanosecond estimates.
    fn send(&mut self) {
        for (i, &(timed, sum)) in self.timed.iter().enumerate() {
            self.totals.ns[i] = scaled_sum(sum, self.totals.counts[i], timed);
        }
        let _ = self.tx.send(ProgressEvent::Spans(self.totals));
    }
}

impl Probe for StreamingProbe {
    fn enabled(&self) -> bool {
        true
    }

    fn span(&mut self, phase: Phase, dur_ns: Option<u64>) {
        self.totals.total += 1;
        self.totals.counts[phase as usize] += 1;
        if let Some(ns) = dur_ns {
            let (timed, sum) = &mut self.timed[phase as usize];
            *timed += 1;
            *sum += ns;
        }
        self.unsent += 1;
        if self.unsent >= self.every {
            self.unsent = 0;
            self.send();
        }
    }

    fn finish(mut self: Box<Self>) -> Option<RankObs> {
        self.send();
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::Obs;
    use std::sync::mpsc::channel;
    use std::sync::Arc;

    #[test]
    fn streaming_probe_emits_monotone_totals() {
        let (tx, rx) = channel();
        let clock = Arc::new(crate::obs::ManualClock::new());
        let mut obs = Obs::with_probe(Box::new(StreamingProbe::new(tx, 3)), clock.clone());
        for _ in 0..10 {
            let t0 = obs.stamp(Phase::Sample);
            clock.advance(7);
            obs.span_since(Phase::Sample, t0);
        }
        obs.finish();
        let events: Vec<ProgressEvent> = rx.iter().collect();
        // 10 spans at every=3 → snapshots at 3, 6, 9, plus the final.
        assert_eq!(events.len(), 4);
        let mut last = 0;
        for ev in &events {
            let ProgressEvent::Spans(totals) = ev else {
                panic!("unexpected event {ev:?}");
            };
            assert!(totals.total >= last, "totals must be monotone");
            last = totals.total;
        }
        let ProgressEvent::Spans(end) = events[events.len() - 1] else {
            unreachable!()
        };
        // One of the ten spans was timed; constant spans estimate exactly.
        assert_eq!(end.total, 10);
        assert_eq!(end.counts[Phase::Sample as usize], 10);
        assert_eq!(end.ns[Phase::Sample as usize], 70);
    }

    #[test]
    fn streamed_ns_is_the_report_estimate() {
        let (tx, rx) = channel();
        let mut stream = StreamingProbe::new(tx, 1_000);
        let mut hist = crate::obs::LogHist::new();
        for i in 0..300u64 {
            let dur = (i % 64 == 0).then_some(100 + i);
            stream.span(Phase::SwitchApply, dur);
            hist.add(dur);
        }
        Box::new(stream).finish();
        let Ok(ProgressEvent::Spans(end)) = rx.recv() else {
            panic!("no final totals");
        };
        let i = Phase::SwitchApply as usize;
        assert_eq!(end.counts[i], hist.summary().count);
        assert_eq!(end.ns[i], hist.summary().sum_ns);
    }

    #[test]
    fn dropped_receiver_never_fails_the_run() {
        let (tx, rx) = channel();
        drop(rx);
        let clock = Arc::new(crate::obs::ManualClock::new());
        let mut obs = Obs::with_probe(Box::new(StreamingProbe::new(tx, 1)), clock);
        obs.span(Phase::Legality, 1);
        obs.span(Phase::Legality, 2);
        assert!(obs.finish().is_none());
    }

    #[test]
    fn step_progress_tracks_fraction() {
        let p = StepProgress {
            performed: 250,
            budget: 1000,
            ..Default::default()
        };
        assert!((p.fraction() - 0.25).abs() < 1e-12);
        assert_eq!(StepProgress::default().fraction(), 1.0);
    }
}
