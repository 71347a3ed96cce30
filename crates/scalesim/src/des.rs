//! Discrete-event execution of the parallel edge-switch protocol under
//! the virtual-time cost model.
//!
//! [`des_run`] executes a [`Run`] on the *same* simulated world as the
//! deterministic FIFO simulator in `edgeswitch-core`
//! ([`Run::try_execute_over`]) — every message of Section 4.4 is
//! logically exchanged in the same global causal order — but over
//! [`DesTransport`], which charges virtual time as it goes (trace-driven
//! simulation):
//! handling charges CPU overhead to the receiving rank, remote delivery
//! adds network latency, and step boundaries add the collective and
//! multinomial costs of Section 4.5. Because the logical schedule is the
//! FIFO one, a DES run and a FIFO run of the same `(graph, t, config)`
//! produce identical [`ParallelOutcome`] results; the DES adds the
//! timing axis. The maximum rank clock at the end is the predicted
//! distributed runtime, from which speedup-vs-`p` curves are produced
//! for worlds far larger than the host machine.

use crate::model::CostModel;
use edgeswitch_core::config::Randomizer;
use edgeswitch_core::obs::{Clock, Obs, Phase, VirtualClock};
use edgeswitch_core::parallel::{Msg, WorldTransport};
use edgeswitch_core::{ParallelOutcome, Run};
use edgeswitch_graph::Graph;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Virtual-time report of a DES run.
#[derive(Clone, Debug)]
pub struct DesReport {
    /// Total predicted runtime in virtual nanoseconds.
    pub runtime_ns: f64,
    /// Network packets exchanged (the DES delivers one logical message
    /// per packet, so this also equals the logical message total).
    pub packets: u64,
    /// Predicted runtime of each step (its boundary plus its drain).
    pub step_ns: Vec<f64>,
    /// How each step's virtual time was charged.
    pub steps: Vec<DesStep>,
    /// Predicted speedup over the modeled sequential run of the same
    /// operation count.
    pub speedup: f64,
    /// Per-rank busy CPU time (ns) — the rest of each rank's clock is
    /// latency/idle; `busy/runtime` is the rank's utilization.
    pub busy_ns: Vec<f64>,
}

/// The virtual time of one step as the DES charged it, in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DesStep {
    /// The step boundary: collective plus multinomial quota draw.
    pub boundary: u64,
    /// Collective share of `boundary` (the rest is the multinomial).
    pub collective: u64,
    /// The conversation drain, from the boundary's end to the last
    /// rank's clock.
    pub drain: u64,
    /// Time receivers spent waiting for arrivals (sum of `arrival −
    /// clock` gaps over the step's deliveries).
    pub wait: u64,
}

/// The cost-charging transport: global causal-FIFO delivery (identical
/// logical schedule to the core FIFO simulator) with per-rank virtual
/// clocks advanced by the [`CostModel`] hooks.
pub struct DesTransport {
    clocks: Vec<u64>,
    busy: Vec<u64>,
    /// In-flight messages `(dst, src, msg, arrival_time)` in causal
    /// order.
    queue: VecDeque<(usize, usize, Msg, u64)>,
    cost: CostModel,
    /// Max clock when the current step began.
    step_start: u64,
    /// The current step's charges so far.
    step: DesStep,
    /// The charges of the steps ended, in order.
    steps: Vec<DesStep>,
    /// The shared cell behind the probes' [`VirtualClock`]: always holds
    /// the clock of the rank whose event was processed last, so observed
    /// spans and round trips land on the virtual timeline.
    now_cell: Arc<AtomicU64>,
}

impl DesTransport {
    /// Fresh clocks for a `p`-rank world under `cost`.
    pub fn new(p: usize, cost: CostModel) -> Self {
        DesTransport {
            clocks: vec![0; p],
            busy: vec![0; p],
            queue: VecDeque::new(),
            cost,
            step_start: 0,
            step: DesStep::default(),
            steps: Vec::new(),
            now_cell: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Predicted total runtime so far: the maximum rank clock.
    pub fn runtime_ns(&self) -> f64 {
        self.clocks.iter().copied().max().unwrap_or(0) as f64
    }

    /// Per-rank busy CPU time in nanoseconds.
    pub fn busy_ns(&self) -> Vec<f64> {
        self.busy.iter().map(|&b| b as f64).collect()
    }

    fn charge(&mut self, rank: usize, ns: f64) {
        self.clocks[rank] += ns as u64;
        self.busy[rank] += ns as u64;
        self.now_cell.store(self.clocks[rank], Ordering::Relaxed);
    }
}

impl WorldTransport for DesTransport {
    fn on_op_started(&mut self, rank: usize) {
        self.charge(rank, self.cost.local_op_ns);
    }
    fn on_self_delivery(&mut self, rank: usize) {
        // Local role change: pure CPU handling cost.
        self.charge(rank, self.cost.msg_handle_ns);
    }
    fn deliver(&mut self, src: usize, dst: usize, msg: Msg) {
        // Send overhead at the source, then latency on the wire.
        self.charge(src, self.cost.msg_handle_ns);
        let at = self.clocks[src] + self.cost.latency_ns as u64;
        self.queue.push_back((dst, src, msg, at));
    }

    fn pop_any(&mut self) -> Option<(usize, usize, Msg)> {
        let (dst, src, msg, at) = self.queue.pop_front()?;
        // The receiver can't handle a message before it arrives; the gap
        // is virtual wait time.
        self.step.wait += at.saturating_sub(self.clocks[dst]);
        self.clocks[dst] = self.clocks[dst].max(at) + self.cost.msg_handle_ns as u64;
        self.busy[dst] += self.cost.msg_handle_ns as u64;
        self.now_cell.store(self.clocks[dst], Ordering::Relaxed);
        Some((dst, src, msg))
    }

    fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    fn begin_step(&mut self, step_ops: u64, p: usize) {
        // Step boundary: q refresh + multinomial, synchronizing all
        // ranks (the collectives are barriers).
        let coll = self.cost.step_collective_ns(p);
        let multi = self.cost.multinomial_step_ns(step_ops, p);
        self.step_start = self.clocks.iter().copied().max().unwrap_or(0);
        self.step = DesStep {
            boundary: (coll + multi) as u64,
            collective: coll as u64,
            ..DesStep::default()
        };
        let start = self.step_start + self.step.boundary;
        for c in self.clocks.iter_mut() {
            *c = start;
        }
        self.now_cell.store(start, Ordering::Relaxed);
    }

    fn end_step(&mut self, obs: &mut Obs, _: Vec<(Phase, u64)>) {
        let end = self.clocks.iter().copied().max().unwrap_or(0);
        let step = DesStep {
            drain: end - self.step_start - self.step.boundary,
            ..self.step
        };
        self.steps.push(step);
        // The DES owns the step spans: the boundary splits into its
        // collective (barrier) and multinomial (q-refresh) shares, and
        // message waiting is the accumulated virtual arrival gap.
        // Handler-internal spans (sampling, legality, switch apply) are
        // zero-width on this timeline — the cost model charges handling
        // as a whole, not its interior — which the report makes explicit.
        obs.span(Phase::StepBarrier, step.collective);
        obs.span(Phase::QRefresh, step.boundary - step.collective);
        obs.span(Phase::MsgWait, step.wait);
    }

    fn obs_clock(&mut self) -> Option<Arc<dyn Clock>> {
        // Probes read the shared cell the transport advances: an
        // observed DES run reports in virtual nanoseconds.
        Some(Arc::new(VirtualClock::new(self.now_cell.clone())))
    }
}

/// Execute `run` — its budget, config, randomizer and partitioner — on
/// virtual ranks under the cost model, returning the logical outcome and
/// the timing report. The logical schedule is the FIFO simulator's, so
/// the outcome is bit-identical to `Run::simulated` under the same seed
/// (for Curveball: to every driver, the sequential engine included); the
/// DES adds the virtual-time axis.
///
/// # Panics
/// With the [`RunError`](edgeswitch_core::RunError)'s message if `run`
/// fails validation.
pub fn des_run(run: &Run, graph: &Graph, cost: &CostModel) -> (ParallelOutcome, DesReport) {
    let transport = DesTransport::new(run.config().processors, *cost);
    let (outcome, transport) = run
        .try_execute_over(graph, transport)
        .unwrap_or_else(|err| panic!("{err}"));

    let runtime_ns = transport.runtime_ns();
    let speedup = match run.get_randomizer() {
        // Against the modeled sequential run of the same operation count.
        Randomizer::Switch if runtime_ns > 0.0 => {
            let t: u64 = outcome.telemetry.iter().map(|s| s.ops).sum();
            cost.sequential_time_ns(t) / runtime_ns
        }
        // No modeled sequential trade baseline: report parity.
        _ => 1.0,
    };
    let report = DesReport {
        runtime_ns,
        packets: outcome.comm.iter().map(|c| c.packets_sent).sum(),
        step_ns: (transport.steps.iter())
            .map(|s| s.boundary as f64 + s.drain as f64)
            .collect(),
        speedup,
        busy_ns: transport.busy_ns(),
        steps: transport.steps,
    };
    (outcome, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgeswitch_core::config::{ParallelConfig, StepSize};
    use edgeswitch_dist::root_rng;
    use edgeswitch_graph::generators::erdos_renyi_gnm;
    use edgeswitch_graph::SchemeKind;

    fn des_parallel(
        g: &Graph,
        t: u64,
        cfg: &ParallelConfig,
        cost: &CostModel,
    ) -> (ParallelOutcome, DesReport) {
        let run = Run::simulated(cfg.processors)
            .switches(t)
            .prepared(cfg.clone(), None);
        des_run(&run, g, cost)
    }

    fn graph() -> Graph {
        let mut rng = root_rng(42);
        erdos_renyi_gnm(400, 2400, &mut rng)
    }

    #[test]
    fn des_preserves_logical_invariants() {
        let g = graph();
        let t = 2000;
        let cfg = ParallelConfig::new(16)
            .with_scheme(SchemeKind::HashUniversal)
            .with_step_size(StepSize::FractionOfT(5))
            .with_seed(1);
        let (out, report) = des_parallel(&g, t, &cfg, &CostModel::default());
        out.graph.check_invariants().unwrap();
        assert_eq!(out.graph.degree_sequence(), g.degree_sequence());
        assert_eq!(out.performed() + out.forfeited(), t);
        assert!(report.runtime_ns > 0.0);
        assert_eq!(report.step_ns.len(), 5);
        assert!(report.packets > 0);
        // The step counts and message kinds surface in the telemetry,
        // the step phases in the report.
        assert_eq!(out.telemetry.len(), 5);
        assert_eq!(report.steps.len(), 5);
        assert!(report.steps.iter().all(|s| s.boundary > 0));
        assert_eq!(out.telemetry.iter().map(|s| s.ops).sum::<u64>(), t);
        assert_eq!(out.logical_msg_totals().total(), report.packets);
    }

    #[test]
    fn des_speedup_grows_with_p() {
        // Note: p = 2 is *slower* than p = 1 (half the switches pay full
        // network latency) — a real property of latency-bound distributed
        // switching; the paper's plots start at p = 64. We assert growth
        // within the rising regime.
        let g = graph();
        let t = 8000;
        let cost = CostModel::default();
        let mut prev = 0.0;
        for p in [4, 16, 64] {
            let cfg = ParallelConfig::new(p)
                .with_step_size(StepSize::FractionOfT(4))
                .with_seed(2);
            let (_, report) = des_parallel(&g, t, &cfg, &cost);
            assert!(
                report.speedup > prev,
                "speedup must grow: p={p} gave {} after {prev}",
                report.speedup
            );
            prev = report.speedup;
        }
    }

    #[test]
    fn des_single_rank_speedup_below_one() {
        // p = 1 pays protocol overhead with no parallelism.
        let g = graph();
        let cfg = ParallelConfig::new(1).with_seed(3);
        let (_, report) = des_parallel(&g, 1000, &cfg, &CostModel::default());
        assert!(report.speedup <= 1.1, "speedup {} at p=1", report.speedup);
    }

    #[test]
    fn des_deterministic() {
        let g = graph();
        let cfg = ParallelConfig::new(8).with_seed(9);
        let (a, ra) = des_parallel(&g, 1500, &cfg, &CostModel::default());
        let (b, rb) = des_parallel(&g, 1500, &cfg, &CostModel::default());
        assert!(a.graph.same_edge_set(&b.graph));
        assert_eq!(ra.runtime_ns, rb.runtime_ns);
        assert_eq!(ra.packets, rb.packets);
    }
}
