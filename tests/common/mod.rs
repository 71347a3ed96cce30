//! Helpers shared by the integration tests: the worlds of `Run` under a
//! prepared [`ParallelConfig`] (budget from the builder, everything else
//! — world size, observation, randomizer — from the config).
#![allow(dead_code)] // each test crate uses its own subset

use edge_switching::prelude::*;
use edge_switching::scalesim::DesReport;

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
