//! The parallel randomizers under shuffled delivery: every simulated run
//! here delivers its messages through a seeded [`ShuffleTransport`],
//! which keeps each link's messages in order and interleaves the links
//! at random — orders the FIFO simulator and the DES never produce, and
//! the threaded and process worlds produce only by chance.
//!
//! A switch run must end simple, on the input's degrees, with every
//! operation performed or forfeited; no edge may stay reserved across a
//! step boundary (`RankState::begin_step` and the rank's teardown assert
//! it in debug builds, which is how this suite runs in tier 1). Parallel
//! Curveball must end on the sequential Curveball graph whatever the
//! order. A failure names its schedule seed: pass it to
//! [`check_switch`] or [`check_curveball`] to replay that order.

mod common;

use common::{simulated, ShuffleTransport};
use edge_switching::core::parallel::WorldTransport;
use edge_switching::prelude::*;

const PROCESSORS: [usize; 4] = [2, 3, 4, 8];
const WINDOWS: [usize; 3] = [1, 4, 16];
const SCHEMES: [SchemeKind; 2] = [SchemeKind::Consecutive, SchemeKind::HashUniversal];

/// A heavy-tailed graph: hubs make conversations collide.
fn graph() -> Graph {
    preferential_attachment(300, 3, &mut root_rng(47))
}

fn config(p: usize, window: usize, scheme: SchemeKind) -> ParallelConfig {
    ParallelConfig::new(p)
        .with_scheme(scheme)
        .with_window(window)
        .with_step_size(StepSize::FractionOfT(4))
        .with_seed(4242)
}

/// `t` switches under `cfg` delivered in schedule `schedule`'s order,
/// checked; returns the outcome's digest.
fn check_switch(g: &Graph, t: u64, cfg: &ParallelConfig, schedule: u64) -> u64 {
    let ctx = format!(
        "p={} window={} {} schedule {schedule}",
        cfg.processors,
        cfg.window,
        cfg.scheme.label()
    );
    let run = Run::simulated(cfg.processors)
        .switches(t)
        .prepared(cfg.clone(), None);
    let (out, transport) = run
        .try_execute_over(g, ShuffleTransport::new(schedule))
        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
    assert!(transport.is_empty(), "{ctx}: messages left in flight");
    out.graph
        .check_invariants()
        .unwrap_or_else(|why| panic!("{ctx}: {why}"));
    assert_eq!(
        out.graph.degree_sequence(),
        g.degree_sequence(),
        "{ctx}: degrees"
    );
    assert_eq!(out.performed() + out.forfeited(), t, "{ctx}: ledger");
    out.graph.edge_digest()
}

/// Curveball for `budget` on `p` ranks delivered in schedule
/// `schedule`'s order: it must end on `want`, the sequential engine's
/// digest.
fn check_curveball(g: &Graph, budget: Budget, p: usize, schedule: u64, want: u64) {
    let run = Run::simulated(p)
        .randomizer(Randomizer::Curveball)
        .budget(budget)
        .prepared(config(p, 1, SchemeKind::HashUniversal), None);
    let (out, _) = run
        .try_execute_over(g, ShuffleTransport::new(schedule))
        .unwrap_or_else(|e| panic!("curveball p={p} schedule {schedule}: {e}"));
    assert_eq!(
        out.graph.edge_digest(),
        want,
        "curveball p={p} schedule {schedule}: not the sequential graph"
    );
}

/// Every cell of p × window × scheme under `schedules` schedules each;
/// returns how many outcomes differ from the FIFO simulator's.
fn sweep_switch(schedules: u64) -> usize {
    let g = graph();
    let t = 3_000;
    let mut reordered = 0;
    for p in PROCESSORS {
        for window in WINDOWS {
            for scheme in SCHEMES {
                let cfg = config(p, window, scheme);
                let fifo = simulated(&g, t, &cfg).graph.edge_digest();
                for schedule in 0..schedules {
                    let seed = 1000 * p as u64 + 10 * window as u64 + schedule;
                    reordered += usize::from(check_switch(&g, t, &cfg, seed) != fifo);
                }
            }
        }
    }
    reordered
}

fn sweep_curveball(schedules: u64) {
    let g = graph();
    let budget = Budget::Ops(1_500);
    let want = Run::sequential()
        .randomizer(Randomizer::Curveball)
        .budget(budget)
        .seed(4242)
        .execute(&g)
        .graph()
        .edge_digest();
    for p in PROCESSORS {
        for schedule in 0..schedules {
            check_curveball(&g, budget, p, 100 * p as u64 + schedule, want);
        }
    }
}

#[test]
fn switching_holds_under_shuffled_delivery() {
    let reordered = sweep_switch(4);
    // The orders are really new: at p >= 3 the outcome follows the
    // schedule.
    assert!(reordered > 0, "every shuffled run ended on the FIFO graph");
}

#[test]
fn curveball_ends_on_the_sequential_graph_under_shuffled_delivery() {
    sweep_curveball(4);
}

/// About 10³ schedules: run with `--release --ignored`.
#[test]
#[ignore = "about 10^3 schedules; about a minute in a debug build"]
fn a_thousand_schedules() {
    sweep_switch(40);
    sweep_curveball(40);
}
