//! Correctness tests for the distributed protocol, run through both the
//! threaded world (real message passing) and the simulated one.

use super::harness::{FifoTransport, WorldTransport};
use super::msg::{Msg, MsgKind};
use super::ParallelOutcome;
use crate::config::{ParallelConfig, StepSize};
use crate::obs::{Clock, CountingClock, ObsSpec, Phase, CALIBRATION_READS, RTT_KINDS};
use crate::Run;
use edgeswitch_dist::root_rng;
use edgeswitch_graph::generators::{contact_network, erdos_renyi_gnm, ContactParams};
use edgeswitch_graph::{Graph, Partitioner, SchemeKind};
use std::sync::Arc;

fn test_graph(seed: u64) -> Graph {
    let mut rng = root_rng(seed);
    erdos_renyi_gnm(300, 1500, &mut rng)
}

/// `t` operations under `cfg` on the world `run` names.
fn execute(run: Run, g: &Graph, t: u64, cfg: &ParallelConfig) -> ParallelOutcome {
    run.switches(t)
        .prepared(cfg.clone(), None)
        .execute(g)
        .into_parallel()
        .expect("parallel outcome")
}

fn threaded(g: &Graph, t: u64, cfg: &ParallelConfig) -> ParallelOutcome {
    execute(Run::parallel(cfg.processors), g, t, cfg)
}

pub(super) fn simulated(g: &Graph, t: u64, cfg: &ParallelConfig) -> ParallelOutcome {
    execute(Run::simulated(cfg.processors), g, t, cfg)
}

fn check_outcome(g0: &Graph, out: &ParallelOutcome, t: u64) {
    // Simplicity and internal consistency of the result.
    out.graph.check_invariants().expect("result must be simple");
    // Degree sequence is invariant under switching.
    assert_eq!(out.graph.degree_sequence(), g0.degree_sequence());
    // Edge count conserved, both globally and as the per-rank sum.
    assert_eq!(out.graph.num_edges(), g0.num_edges());
    assert_eq!(out.final_edges.iter().sum::<u64>() as usize, g0.num_edges());
    // Every operation is accounted for.
    assert_eq!(out.performed() + out.forfeited(), t);
    assert_eq!(out.forfeited(), 0, "healthy graphs never forfeit");
    // Visit tracking is within bounds.
    let vr = out.visit_rate();
    assert!((0.0..=1.0).contains(&vr));
    assert!(vr > 0.0, "operations must visit edges");
}

#[test]
fn threaded_engine_four_ranks_cp() {
    let g = test_graph(1);
    let t = 2000;
    let cfg = ParallelConfig::new(4)
        .with_step_size(StepSize::FractionOfT(10))
        .with_seed(11);
    let out = threaded(&g, t, &cfg);
    check_outcome(&g, &out, t);
    assert_eq!(out.steps, 10);
    // All ranks participated.
    assert!(out.per_rank.iter().all(|s| s.performed > 0));
    // Some switches must have been global (cross-partition).
    assert!(out.per_rank.iter().map(|s| s.performed_global).sum::<u64>() > 0);
}

#[test]
fn threaded_engine_all_schemes() {
    let g = test_graph(2);
    let t = 800;
    for scheme in SchemeKind::all() {
        let cfg = ParallelConfig::new(3)
            .with_scheme(scheme)
            .with_step_size(StepSize::FractionOfT(4))
            .with_seed(7);
        let out = threaded(&g, t, &cfg);
        check_outcome(&g, &out, t);
    }
}

#[test]
fn threaded_engine_single_rank() {
    let g = test_graph(3);
    let t = 500;
    let cfg = ParallelConfig::new(1).with_seed(5);
    let out = threaded(&g, t, &cfg);
    check_outcome(&g, &out, t);
    // p = 1: everything is a local switch.
    assert_eq!(out.per_rank[0].performed_local, t);
    assert_eq!(out.per_rank[0].performed_global, 0);
}

#[test]
fn threaded_engine_single_step() {
    let g = test_graph(4);
    let t = 1000;
    let cfg = ParallelConfig::new(4)
        .with_scheme(SchemeKind::HashUniversal)
        .with_step_size(StepSize::SingleStep)
        .with_seed(9);
    let out = threaded(&g, t, &cfg);
    check_outcome(&g, &out, t);
    assert_eq!(out.steps, 1);
}

#[test]
fn sim_driver_matches_invariants_various_p() {
    let g = test_graph(5);
    let t = 1500;
    for p in [1, 2, 5, 16, 64] {
        let cfg = ParallelConfig::new(p)
            .with_scheme(SchemeKind::HashDivision)
            .with_step_size(StepSize::FractionOfT(5))
            .with_seed(13);
        let out = simulated(&g, t, &cfg);
        check_outcome(&g, &out, t);
    }
}

#[test]
fn sim_driver_is_deterministic() {
    let g = test_graph(6);
    let cfg = ParallelConfig::new(8).with_seed(21);
    let a = simulated(&g, 1000, &cfg);
    let b = simulated(&g, 1000, &cfg);
    assert!(a.graph.same_edge_set(&b.graph), "same seed, same result");
    assert_eq!(a.per_rank, b.per_rank);
}

#[test]
fn sim_driver_seeds_differ() {
    let g = test_graph(7);
    let a = simulated(&g, 1000, &ParallelConfig::new(4).with_seed(1));
    let b = simulated(&g, 1000, &ParallelConfig::new(4).with_seed(2));
    assert!(!a.graph.same_edge_set(&b.graph));
}

#[test]
fn visit_rate_tracks_target_in_parallel() {
    // The Section 3.1 conversion applies unchanged to the parallel
    // process.
    let g = test_graph(8);
    let m = g.num_edges() as u64;
    for &x in &[0.3, 0.7] {
        let t = edgeswitch_dist::switch_ops_for_visit_rate(m, x);
        let cfg = ParallelConfig::new(8)
            .with_scheme(SchemeKind::HashUniversal)
            .with_step_size(StepSize::FractionOfT(10))
            .with_seed(3);
        let out = simulated(&g, t, &cfg);
        let observed = out.visit_rate();
        assert!((observed - x).abs() < 0.05, "x = {x}: observed {observed}");
    }
}

#[test]
fn workload_follows_multinomial_quotas() {
    // With a balanced partition, the per-rank workload should be near
    // t/p.
    let g = test_graph(9);
    let t = 4000u64;
    let p = 4;
    let cfg = ParallelConfig::new(p)
        .with_step_size(StepSize::FractionOfT(8))
        .with_seed(17);
    let out = simulated(&g, t, &cfg);
    let expect = t as f64 / p as f64;
    for s in &out.per_rank {
        assert!(
            (s.performed as f64 - expect).abs() < 0.3 * expect,
            "workload {} far from {expect}",
            s.performed
        );
    }
}

#[test]
fn contact_graph_with_adversarial_partitioner() {
    // Explicit partitioner path + a graph whose clustering stresses the
    // validator chain (many third-party replacement owners).
    let mut rng = root_rng(10);
    let g = contact_network(
        ContactParams {
            n: 600,
            community_size: 40,
            intra_degree: 12.0,
            inter_degree: 2.0,
        },
        &mut rng,
    );
    let part = Partitioner::hash_multiplication(5);
    let t = 1200;
    let cfg = ParallelConfig::new(5)
        .with_scheme(SchemeKind::HashMultiplication)
        .with_step_size(StepSize::FractionOfT(6))
        .with_seed(23);
    for run in [Run::parallel(5), Run::simulated(5)] {
        let out = run
            .switches(t)
            .prepared(cfg.clone(), Some(part.clone()))
            .execute(&g)
            .into_parallel()
            .expect("parallel outcome");
        check_outcome(&g, &out, t);
    }
}

#[test]
fn zero_ops_is_identity() {
    let g = test_graph(11);
    let cfg = ParallelConfig::new(4).with_seed(2);
    let out = simulated(&g, 0, &cfg);
    assert!(out.graph.same_edge_set(&g));
    assert_eq!(out.performed(), 0);
    assert_eq!(out.steps, 0);
}

#[test]
fn aborts_happen_but_do_not_leak() {
    // A dense-ish graph provokes parallel-edge aborts; the run must
    // still balance its books (checked inside into_output debug asserts
    // and by op accounting).
    let mut rng = root_rng(12);
    let g = erdos_renyi_gnm(40, 300, &mut rng); // ~38% density
    let t = 1000;
    let cfg = ParallelConfig::new(4)
        .with_step_size(StepSize::FractionOfT(4))
        .with_seed(31);
    let out = simulated(&g, t, &cfg);
    check_outcome(&g, &out, t);
    let aborts: u64 = out.per_rank.iter().map(|s| s.aborts()).sum();
    assert!(aborts > 0, "density should provoke rejections");
}

#[test]
fn more_ranks_than_meaningful_partitions() {
    // p close to n: many near-empty partitions must not wedge the run.
    let mut rng = root_rng(13);
    let g = erdos_renyi_gnm(60, 240, &mut rng);
    let t = 300;
    let cfg = ParallelConfig::new(30)
        .with_scheme(SchemeKind::HashDivision)
        .with_step_size(StepSize::FractionOfT(3))
        .with_seed(37);
    let out = simulated(&g, t, &cfg);
    out.graph.check_invariants().unwrap();
    assert_eq!(out.graph.degree_sequence(), g.degree_sequence());
    assert_eq!(out.performed() + out.forfeited(), t);
}

/// The FIFO simulator's transport, handing probes a clock that counts
/// its reads.
struct CountingFifo(FifoTransport, Arc<CountingClock>);

impl WorldTransport for CountingFifo {
    fn deliver(&mut self, src: usize, dst: usize, msg: Msg) {
        self.0.deliver(src, dst, msg);
    }
    fn pop_any(&mut self) -> Option<(usize, usize, Msg)> {
        self.0.pop_any()
    }
    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
    fn obs_clock(&mut self) -> Option<Arc<dyn Clock>> {
        Some(self.1.clone())
    }
}

#[test]
fn observed_simulated_run_reads_the_clock_for_one_span_in_64() {
    // Per-operation spans and round trips time one stamp in 64 per rank
    // and kind; the step boundary reads the clock three times a step.
    let g = test_graph(21);
    let clock = Arc::new(CountingClock::default());
    let run = Run::simulated(2)
        .switches(20_000)
        .seed(21)
        .probe(ObsSpec::Spans);
    let transport = CountingFifo(FifoTransport::new(), clock.clone());
    let (out, _) = run.try_execute_over(&g, transport).unwrap();
    let report = out.report.as_ref().expect("observed run");
    let hists = report.phases.iter().map(|p| p.hist);
    let spans: u64 = hists
        .chain(report.rtt.iter().map(|r| r.hist))
        .map(|h| h.count)
        .sum();
    let started: u64 = out.telemetry.iter().map(|s| s.started).sum();
    assert!(report.phase(Phase::LocalFastpath).hist.count > 0);
    let commits = report.rtt_of(MsgKind::CommitRemove).unwrap().hist.count;
    assert!(commits > 0, "global conversations ran");
    // Per-rank, per-slot rounding, each rank's calibration reads, and
    // the reads at set-up and teardown.
    let slots = (Phase::COUNT + RTT_KINDS.len()) as u64;
    let slack = 2 * (2 * slots + CALIBRATION_READS as u64 + 1) + 2;
    let bound = 2 * spans.div_ceil(64) + 3 * out.steps + slack;
    assert!(
        clock.reads() <= bound,
        "{} clock reads for {spans} spans in {} steps (bound {bound})",
        clock.reads(),
        out.steps
    );
    // Timing every span reads the clock at least four times a start.
    assert!(bound < 4 * started);
}

/// A parallel outcome's visit marks are its ranks' joined in rank order,
/// the order `assemble_outcome` inserts their key lists in. Ranks of 63, 2, 0
/// and 130 edges: one is empty, and no rank boundary falls on a word
/// (63, 65, 65, 195), so every later rank's bits land shifted. Each rank
/// switches a third of its edges away, so its marks are a mix and
/// swap-removes have moved some of them.
#[test]
fn rank_visits_join_in_assembly_order() {
    use super::harness::{assemble_outcome, RankOutput};
    use crate::visit::Visits;
    use edgeswitch_graph::sampling::EdgePool;
    use edgeswitch_graph::Edge;
    let (mut next, mut unvisited) = (0u64, Vec::new());
    let outputs: Vec<RankOutput> = [63u64, 2, 0, 130]
        .into_iter()
        .enumerate()
        .map(|(rank, m)| {
            let mut store = EdgePool::new();
            let edges: Vec<Edge> = (next..next + m).map(|v| Edge::new(v, v + 1000)).collect();
            next += m;
            edges.iter().for_each(|&e| assert!(store.insert(e)));
            store.track_visits();
            for (i, &e) in edges.iter().enumerate() {
                if i % 3 == 1 {
                    assert!(store.remove(e) && store.insert(Edge::new(e.src(), e.src() + 2000)));
                } else {
                    unvisited.push(e);
                }
            }
            RankOutput {
                rank,
                visits: Visits {
                    initial: m as usize,
                    unvisited: store.unvisited_bitmap(),
                },
                keys: store.iter().map(|e| e.key()).collect(),
                stats: Default::default(),
                comm: Default::default(),
                obs: None,
            }
        })
        .collect();
    let out = assemble_outcome(3000, 0, outputs, Vec::new(), None).unwrap();
    assert_eq!(out.initial_edges, [63, 2, 0, 130]);
    let edges: Vec<Edge> = out.graph.edges().collect();
    assert_eq!((edges.len(), out.visits.unvisited.len()), (195, 4));
    for (i, e) in edges.iter().enumerate() {
        let bit = out.visits.unvisited[i / 64] >> (i % 64) & 1 == 1;
        assert_eq!(bit, unvisited.contains(e), "edge {i}: {e}");
    }
    assert_eq!(out.visits.visited(), 195 - unvisited.len());
    assert_eq!(
        out.visits.unvisited[3] >> (195 % 64),
        0,
        "a bit past the end"
    );
}
