//! The threaded world: the distributed protocol over real
//! message-passing ranks (`mpilite`), one thread per processor, each a
//! `Comm` over a channel mailbox.
//!
//! [`run_threaded_world`] is the one set-up both randomizers run on: it
//! splits the graph into stores, builds each rank thread's machine from
//! its store ([`RankMachine::build`]) with a probe on one shared clock,
//! runs the shared rank body ([`run_rank`]) over a [`MpiliteTransport`]
//! with the rank's copy of the schedule — whose `Schedule::open` is
//! the same boundary a simulated world opens its steps with — and
//! merges the per-rank outputs and telemetry into one
//! [`ParallelOutcome`]. The process world (`super::proc`) runs the very
//! same rank body over its shm link.

use super::harness::{
    assemble_outcome, run_rank, MpiliteTransport, ParallelOutcome, RankMachine, RankOutput,
    RunMeta, StepTelemetry,
};
use super::msg::Msg;
use crate::config::ParallelConfig;
use crate::obs::{Clock, MonoClock, Obs};
use edgeswitch_graph::store::build_stores;
use edgeswitch_graph::{Graph, PartitionStore, Partitioner};
use mpilite::{run_world, Comm, WorldConfig};
use std::sync::{Arc, Mutex};

/// Run `schedule` on one world of `config.processors` rank threads over
/// `graph` split by `part`: each rank is machine `S` over its partition
/// store, with an observation context that is a no-op unless
/// `config.obs` is on.
pub(crate) fn run_threaded_world<S: RankMachine>(
    graph: &Graph,
    config: &ParallelConfig,
    part: &Partitioner,
    schedule: S::Schedule,
) -> ParallelOutcome {
    let p = config.processors;
    assert_eq!(part.num_parts(), p, "partitioner size must match config");
    let stores = build_stores(graph, part);
    // Each rank thread takes its own store out of the shared list.
    let stores: Mutex<Vec<Option<PartitionStore>>> =
        Mutex::new(stores.into_iter().map(Some).collect());

    // One shared monotonic clock so every rank's spans live on the same
    // timeline. `None` when unobserved: probes stay no-ops.
    let clock: Option<Arc<dyn Clock>> = config
        .obs
        .enabled()
        .then(|| Arc::new(MonoClock::new()) as Arc<dyn Clock>);
    let run_start = clock.as_ref().map_or(0, |c| c.now_ns());

    let results: Vec<(RankOutput, Vec<StepTelemetry>)> =
        run_world(p, WorldConfig::default(), |comm: &mut Comm<Msg>| {
            let rank = comm.rank();
            let store = stores.lock().expect("no rank panics holding the stores")[rank]
                .take()
                .expect("store taken once per rank");
            let obs = match &clock {
                Some(clock) => config.obs.build(clock.clone()),
                None => Obs::noop(),
            };
            let state = S::build(rank, part, store, config, &schedule, obs);
            run_rank(&mut MpiliteTransport::new(comm), state, schedule.clone())
        });

    let meta = clock.as_ref().map(|c| RunMeta {
        clock: c.label(),
        wall_ns: c.now_ns().saturating_sub(run_start),
    });

    // Merge each rank's per-step telemetry into whole-world records
    // (every rank runs the same number of steps).
    let steps = results.first().map_or(0, |(_, t)| t.len());
    let mut telemetry = vec![StepTelemetry::default(); steps];
    let mut outputs = Vec::with_capacity(p);
    for (output, rank_telemetry) in results {
        debug_assert_eq!(rank_telemetry.len(), steps, "ranks agree on step count");
        for (acc, step) in telemetry.iter_mut().zip(&rank_telemetry) {
            acc.merge(step);
        }
        outputs.push(output);
    }
    assemble_outcome(graph.num_vertices(), steps as u64, outputs, telemetry, meta)
}
