//! Helpers shared by the integration tests: the worlds of `Run` under a
//! prepared [`ParallelConfig`] (driver, randomizer and budget from the
//! builder, everything else — world size, observation — from the
//! config), and
//! [`frozen_sequential`], the independent Algorithm-1 implementation the
//! sequential engine is tested against, and [`check_property`], the
//! seeded-case loop the property suite runs on.
#![allow(dead_code)] // each test crate uses its own subset

use edge_switching::core::sequential::RejectCounts;
use edge_switching::core::switch::{flip_kind, recombine, Recombination, RejectReason};
use edge_switching::dist::Rng64;
use edge_switching::graph::OrientedEdge;
use edge_switching::prelude::*;
use edge_switching::scalesim::DesReport;
use std::collections::HashSet;

/// `run` under the prepared `cfg`, as a parallel outcome.
pub fn under(run: Run, g: &Graph, cfg: &ParallelConfig) -> ParallelOutcome {
    run.prepared(cfg.clone(), None)
        .execute(g)
        .into_parallel()
        .expect("parallel outcome")
}

/// `t` switches on the FIFO-simulated world.
pub fn simulated(g: &Graph, t: u64, cfg: &ParallelConfig) -> ParallelOutcome {
    under(Run::simulated(cfg.processors).switches(t), g, cfg)
}

/// `t` switches on the threaded world.
pub fn threaded(g: &Graph, t: u64, cfg: &ParallelConfig) -> ParallelOutcome {
    under(Run::parallel(cfg.processors).switches(t), g, cfg)
}

/// `t` switches on the process world.
pub fn process(g: &Graph, t: u64, cfg: &ParallelConfig) -> ParallelOutcome {
    under(Run::process(cfg.processors).switches(t), g, cfg)
}

/// `t` switches on the simulated world under the DES.
pub fn des(g: &Graph, t: u64, cfg: &ParallelConfig) -> (ParallelOutcome, DesReport) {
    let run = Run::simulated(cfg.processors)
        .switches(t)
        .prepared(cfg.clone(), None);
    des_run(&run, g, &CostModel::default())
}

/// What [`frozen_sequential`] did to the graph it was given.
pub struct FrozenRun {
    pub performed: u64,
    pub rejects: RejectCounts,
    /// Initial edge count.
    pub initial: usize,
    /// Keys of the initial edges no switch has removed.
    pub unvisited: HashSet<u64>,
}

impl FrozenRun {
    /// The run's visits as marks over `edges`, a graph's edge list in
    /// its order.
    pub fn visits(&self, edges: impl ExactSizeIterator<Item = Edge>) -> Visits {
        let mut unvisited = vec![0u64; edges.len().div_ceil(64)];
        for (i, e) in edges.enumerate() {
            if self.unvisited.contains(&e.key()) {
                unvisited[i / 64] |= 1 << (i % 64);
            }
        }
        Visits {
            initial: self.initial,
            unvisited,
        }
    }
}

/// Algorithm 1 written out against the full [`Graph`] — the loop as it
/// stood before there was a stepped engine: draw two edges and the coin,
/// reject loops, useless switches and parallel edges with a fresh draw,
/// otherwise replace the pair through `Graph::{remove_edge, add_edge}`,
/// which keep every adjacency list current at every step. It shares the
/// switch arithmetic (`recombine`) with the engine and nothing else: no
/// chunking, no checkpoint, no pool-only storage. That is what makes it
/// the reference for an engine that runs on the `EdgePool` alone — equal
/// draws, equal switches and an equal final pool order mean the engine
/// dropped the adjacency updates and nothing with them.
pub fn frozen_sequential<R: Rng>(graph: &mut Graph, t: u64, rng: &mut R) -> FrozenRun {
    let mut run = FrozenRun {
        performed: 0,
        rejects: RejectCounts::default(),
        initial: graph.num_edges(),
        unvisited: graph.edges().map(|e| e.key()).collect(),
    };
    if graph.num_edges() < 2 {
        return run;
    }
    'ops: for _ in 0..t {
        let mut retries = 0u64;
        loop {
            let e1 = OrientedEdge::from_edge(graph.sample_edge(rng).expect("m >= 2"));
            let e2 = OrientedEdge::from_edge(graph.sample_edge(rng).expect("m >= 2"));
            let kind = flip_kind(rng);
            match recombine(e1, e2, kind) {
                Recombination::Candidate { f1, f2 } => {
                    if graph.has_edge(f1) || graph.has_edge(f2) {
                        run.rejects.parallel += 1;
                    } else {
                        let (o1, o2) = (e1.edge(), e2.edge());
                        graph.remove_edge(o1).expect("sampled edge exists");
                        graph.remove_edge(o2).expect("sampled edge exists");
                        graph.add_edge(f1).expect("checked absent");
                        graph.add_edge(f2).expect("checked absent");
                        run.unvisited.remove(&o1.key());
                        run.unvisited.remove(&o2.key());
                        run.performed += 1;
                        continue 'ops;
                    }
                }
                Recombination::Rejected(RejectReason::SelfLoop) => run.rejects.self_loop += 1,
                Recombination::Rejected(RejectReason::Useless) => run.rejects.useless += 1,
                Recombination::Rejected(other) => unreachable!("{other:?} from recombine"),
            }
            retries += 1;
            if retries >= 100_000 {
                return run;
            }
        }
    }
    run
}

/// Cases [`check_property`] draws per property.
pub const PROPERTY_CASES: u64 = 64;

/// Check `property` on [`PROPERTY_CASES`] generated cases, after the
/// `regressions` — case seeds of earlier failures, kept so they are
/// re-checked on every run.
///
/// A case is its seed: the property draws every input from the
/// `root_rng(case_seed)` it is handed, and returns early (without
/// failing) on a draw it has no claim about. Generated seeds count up
/// from a hash of `name`, so properties do not share inputs. A failing
/// case panics with its seed; to re-run just that case, pass the seed
/// as a regression.
pub fn check_property(name: &str, regressions: &[u64], property: impl Fn(&mut Rng64)) {
    // FNV-1a.
    let base = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    });
    let generated = (0..PROPERTY_CASES).map(|i| base.wrapping_add(i));
    for case_seed in regressions.iter().copied().chain(generated) {
        let mut rng = root_rng(case_seed);
        let case = std::panic::AssertUnwindSafe(|| property(&mut rng));
        if let Err(cause) = std::panic::catch_unwind(case) {
            let cause = cause
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| cause.downcast_ref::<&str>().copied())
                .unwrap_or("(non-string panic)");
            panic!("property `{name}` fails on case seed {case_seed:#x}: {cause}");
        }
    }
}
