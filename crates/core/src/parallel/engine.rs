//! The threaded world: the distributed protocol over real
//! message-passing ranks (`mpilite`), one thread per processor.
//!
//! [`run_threaded_world`] is the scaffold both randomizers run on: it
//! splits the graph into stores, hands one to each rank thread, gives
//! every rank a probe on one shared clock, runs the caller's rank body
//! over a [`MpiliteTransport`], and merges the per-rank outputs and
//! telemetry into one [`ParallelOutcome`]. Both rank bodies are the
//! shared rank loop ([`super::harness::run_rank`]) under their own step
//! boundary: [`run_switch_rank`] for switches (the process world's rank
//! body too), the pass boundary of [`super::trade::threaded_trades`] for
//! Curveball.

use super::harness::{
    assemble_outcome, run_switch_rank, MpiliteTransport, ParallelOutcome, RankMachine, RankOutput,
    RankTransport, RunMeta, StepHarness, StepTelemetry,
};
use super::msg::Msg;
use super::rank::RankState;
use crate::config::ParallelConfig;
use crate::obs::{Clock, MonoClock, Obs};
use edgeswitch_graph::store::build_stores;
use edgeswitch_graph::{Graph, PartitionStore, Partitioner};
use mpilite::{run_world, Comm, WorldConfig};
use std::sync::{Arc, Mutex};

/// Run one world of `config.processors` rank threads over `graph` split
/// by `part`. `body` is one rank's whole run: it receives the rank's
/// transport, its partition store and its observation context (a no-op
/// unless `config.obs` is on) and returns the rank's [`RankOutput`] next
/// to its per-step telemetry.
pub(crate) fn run_threaded_world<F>(
    graph: &Graph,
    config: &ParallelConfig,
    part: &Partitioner,
    body: F,
) -> ParallelOutcome
where
    F: Fn(&mut MpiliteTransport<'_>, PartitionStore, Obs) -> (RankOutput, Vec<StepTelemetry>)
        + Sync,
{
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
            let store = stores.lock().expect("no rank panics holding the stores")[comm.rank()]
                .take()
                .expect("store taken once per rank");
            let obs = match &clock {
                Some(clock) => config.obs.build(clock.clone()),
                None => Obs::noop(),
            };
            body(&mut MpiliteTransport::new(comm), store, obs)
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

/// Run `t` switch operations on `graph` over threaded ranks split by
/// `part` (Sections 4–5).
pub(crate) fn threaded_switch(
    graph: &Graph,
    t: u64,
    config: &ParallelConfig,
    part: &Partitioner,
) -> ParallelOutcome {
    let harness = StepHarness::new(t, config);
    run_threaded_world(graph, config, part, |transport, store, obs| {
        let mut state = RankState::new(transport.rank(), part.clone(), store, config).with_obs(obs);
        let telemetry = run_switch_rank(transport, &mut state, harness);
        (state.into_output(transport.stats()), telemetry)
    })
}
