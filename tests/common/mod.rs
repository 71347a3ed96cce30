//! Helpers shared by the integration tests: the worlds of `Run` under a
//! prepared [`ParallelConfig`] (budget from the builder, everything else
//! — world size, observation, randomizer — from the config), and
//! [`frozen_sequential`], the independent Algorithm-1 implementation the
//! sequential engine is tested against.
#![allow(dead_code)] // each test crate uses its own subset

use edge_switching::core::sequential::RejectCounts;
use edge_switching::core::switch::{flip_kind, recombine, Recombination, RejectReason};
use edge_switching::graph::OrientedEdge;
use edge_switching::prelude::*;
use edge_switching::scalesim::DesReport;
use rand::Rng;

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

/// `t` switches on the threaded world — or the process world, if `cfg`
/// names that backend.
pub fn threaded(g: &Graph, t: u64, cfg: &ParallelConfig) -> ParallelOutcome {
    under(Run::parallel(cfg.processors).switches(t), g, cfg)
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
    pub tracker: VisitTracker,
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
        tracker: VisitTracker::new(graph.edges()),
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
                        run.tracker.record_removal(o1);
                        run.tracker.record_removal(o2);
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
