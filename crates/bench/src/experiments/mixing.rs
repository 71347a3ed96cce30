//! Mixing efficiency: operations to reach a target visit rate, edge
//! switching vs. global Curveball trades.
//!
//! Not a paper figure. The paper's objective is a *target visit rate*
//! (Section 3.1): switching needs `t = (m/2)(H_m − H_{(1−x)m})`
//! operations because uniform edge sampling keeps revisiting edges it
//! has already touched — the coupon-collector tail. A global Curveball
//! trade re-deals two whole neighborhoods in one operation and marks
//! every re-dealt edge visited, so a single pass of `⌊n/2⌋` trades
//! covers almost the whole edge set at once.
//!
//! This experiment measures both schemes to the same target on three
//! graph families (uniform, heavy-tailed, clustered), sequentially and
//! on the threaded engine at p = 4. Two work ledgers are recorded per
//! case:
//!
//! - `ops` — scheme-native operations (performed switches, or trades),
//!   the number the schedulers and the protocol pay per operation;
//! - `edges_moved` — edges re-dealt (2 per switch; the disjoint-union
//!   size per trade), the per-edge mutation work.
//!
//! Run via `repro mixing` (or `repro mixing --quick --gate-mixing` in
//! CI); the repro binary archives the structured result as
//! `BENCH_mixing.json` with schema `{"bench": "mixing", "metric":
//! "ops_to_target", "target_rate": ..., "provenance": ..., "cases":
//! [...]}`.

use super::ExpConfig;
use crate::report::{f, provenance, table, Report};
use edgeswitch_core::config::Budget;
use edgeswitch_core::config::Randomizer;
use edgeswitch_core::run::Run;
use edgeswitch_core::trade::CurveballResumable;
use edgeswitch_dist::harmonic::switch_ops_for_visit_rate;
use edgeswitch_dist::root_rng;
use edgeswitch_graph::generators::{erdos_renyi_gnm, preferential_attachment, small_world};
use edgeswitch_graph::Graph;
use edgeswitch_json::json;
use std::time::Instant;

/// Visit-rate target every scheme runs to.
const TARGET_RATE: f64 = 0.9;

/// Rank count for the threaded-engine cases.
const THREADED_P: usize = 4;

/// Below this edge count the quick-scale gate skips: a handful of trades
/// covers the whole graph and the ratio measures granularity, not mixing.
const GATE_MIN_EDGES: u64 = 200;

fn scaled(base: usize, scale: f64, floor: usize) -> usize {
    ((base as f64 * scale) as usize).max(floor)
}

/// The three graph families, at `scale` of their 100k-edge
/// reference size: uniform (ER), heavy-tailed (PA), clustered (WS).
fn families(cfg: &ExpConfig) -> Vec<(&'static str, Graph)> {
    let mut rng = root_rng(cfg.seed);
    let er = erdos_renyi_gnm(
        scaled(20_000, cfg.scale, 64),
        scaled(100_000, cfg.scale, 128),
        &mut rng,
    );
    let pa = preferential_attachment(scaled(10_000, cfg.scale, 64), 10, &mut rng);
    let ws = small_world(scaled(20_000, cfg.scale, 64), 10, 0.1, &mut rng);
    vec![
        ("erdos_renyi_100k", er),
        ("preferential_100k", pa),
        ("small_world_100k", ws),
    ]
}

/// One measured case: scheme-native ops, edges re-dealt, achieved rate,
/// and the best-of-`reps` wall time on identical (seeded) work.
struct Case {
    scheme: &'static str,
    mode: &'static str,
    p: usize,
    ops: u64,
    edges_moved: u64,
    achieved: f64,
    reached: bool,
    best_secs: f64,
}

fn best_of<F: FnMut() -> Case>(reps: u32, mut run: F) -> Case {
    let mut best = run();
    for _ in 1..reps.max(1) {
        let next = run();
        if next.best_secs < best.best_secs {
            best = next;
        }
    }
    best
}

fn switch_sequential(graph: &Graph, seed: u64, reps: u32) -> Case {
    let run = Run::sequential().visit_rate(TARGET_RATE).seed(seed);
    best_of(reps, || {
        let start = Instant::now();
        let out = run.execute(graph);
        let secs = start.elapsed().as_secs_f64();
        let achieved = out.visit_rate();
        Case {
            scheme: "switch",
            mode: "sequential",
            p: 1,
            ops: out.performed(),
            edges_moved: 2 * out.performed(),
            achieved,
            // The expected-t prescription lands near the target in
            // expectation; a near miss is the formula working, not a
            // stall.
            reached: achieved >= 0.9 * TARGET_RATE,
            best_secs: secs,
        }
    })
}

// Stays on the trade engine directly: the `edges_moved` ledger needs
// `CurveballResumable::neighbors_moved`, which the `Run` facade's
// driver-independent outcome does not surface.
fn curveball_sequential(graph: &Graph, seed: u64, reps: u32) -> Case {
    best_of(reps, || {
        let given = graph.clone();
        let start = Instant::now();
        let mut eng = CurveballResumable::new(given, Budget::VisitRate(TARGET_RATE), seed);
        while !eng.is_done() {
            eng.step();
        }
        let secs = start.elapsed().as_secs_f64();
        let achieved = eng.visit_rate();
        Case {
            scheme: "curveball",
            mode: "sequential",
            p: 1,
            ops: eng.performed(),
            edges_moved: eng.neighbors_moved(),
            achieved,
            reached: achieved >= TARGET_RATE,
            best_secs: secs,
        }
    })
}

fn switch_threaded(graph: &Graph, seed: u64, reps: u32) -> Case {
    let t = switch_ops_for_visit_rate(graph.num_edges() as u64, TARGET_RATE);
    let run = Run::parallel(THREADED_P).switches(t).seed(seed);
    best_of(reps, || {
        let start = Instant::now();
        let out = run.execute(graph);
        let secs = start.elapsed().as_secs_f64();
        let achieved = out.visit_rate();
        Case {
            scheme: "switch",
            mode: "threaded",
            p: THREADED_P,
            ops: out.performed(),
            edges_moved: 2 * out.performed(),
            achieved,
            reached: achieved >= 0.9 * TARGET_RATE,
            best_secs: secs,
        }
    })
}

fn curveball_threaded(graph: &Graph, seed: u64, reps: u32) -> Case {
    let run = Run::parallel(THREADED_P)
        .randomizer(Randomizer::Curveball)
        .visit_rate(TARGET_RATE)
        .seed(seed);
    best_of(reps, || {
        let start = Instant::now();
        let out = run
            .execute(graph)
            .into_parallel()
            .expect("parallel outcome");
        let secs = start.elapsed().as_secs_f64();
        let achieved = out.visit_rate();
        Case {
            scheme: "curveball",
            mode: "threaded",
            p: THREADED_P,
            ops: out.performed(),
            edges_moved: out.telemetry.iter().map(|s| s.neighbors_moved).sum(),
            achieved,
            reached: achieved >= TARGET_RATE,
            best_secs: secs,
        }
    })
}

/// `mixing` — work to a target visit rate, switch vs. Curveball.
pub fn mixing(cfg: &ExpConfig) -> Report {
    let mut cases = Vec::new();
    let mut rows = Vec::new();
    for (family, graph) in families(cfg) {
        let (n, m) = (graph.num_vertices(), graph.num_edges());
        let measured = [
            switch_sequential(&graph, cfg.seed, cfg.reps),
            curveball_sequential(&graph, cfg.seed, cfg.reps),
            switch_threaded(&graph, cfg.seed, cfg.reps),
            curveball_threaded(&graph, cfg.seed, cfg.reps),
        ];
        for c in measured {
            let ops_per_sec = if c.best_secs > 0.0 {
                c.ops as f64 / c.best_secs
            } else {
                0.0
            };
            cases.push(json!({
                "family": family,
                "scheme": c.scheme,
                "mode": c.mode,
                "p": c.p,
                "n": n,
                "m": m,
                "target_rate": TARGET_RATE,
                "ops": c.ops,
                "edges_moved": c.edges_moved,
                "achieved_rate": c.achieved,
                "reached": c.reached,
                "wall_secs": c.best_secs,
                "ops_per_sec": ops_per_sec,
            }));
            rows.push(vec![
                family.to_string(),
                c.scheme.into(),
                c.mode.into(),
                c.p.to_string(),
                m.to_string(),
                c.ops.to_string(),
                c.edges_moved.to_string(),
                f(c.achieved, 3),
                f(c.best_secs, 3),
                f(ops_per_sec, 0),
            ]);
        }
    }
    let rendered = table(
        &[
            "family",
            "scheme",
            "mode",
            "p",
            "m",
            "ops",
            "edges_moved",
            "rate",
            "secs",
            "ops/sec",
        ],
        &rows,
    );
    Report {
        id: "mixing".into(),
        title: format!("work to visit rate {TARGET_RATE} (switch vs curveball)"),
        data: json!({
            "bench": "mixing",
            "metric": "ops_to_target",
            "target_rate": TARGET_RATE,
            "provenance": provenance(),
            "cases": cases,
        }),
        rendered,
    }
}

/// Mixing-efficiency gate over an already-computed mixing report: on the
/// heavy-tailed PA family, sequential Curveball must reach the target
/// visit rate in at most half the operations sequential switching needs.
/// *Skips* (`Ok` with a notice, not a failure) when the quick-scale
/// instance is too small to mix meaningfully — fewer than
/// `GATE_MIN_EDGES` edges, or a Curveball run that stalled below the
/// target. Returns the notice or pass summary in `Ok`, a human-readable
/// error in `Err`.
pub fn mixing_gate(data: &edgeswitch_json::Json) -> Result<String, String> {
    let case = |scheme: &str| {
        data["cases"]
            .as_arr()
            .into_iter()
            .flatten()
            .find(|c| {
                c["family"].as_str() == Some("preferential_100k")
                    && c["scheme"].as_str() == Some(scheme)
                    && c["mode"].as_str() == Some("sequential")
            })
            .cloned()
    };
    let sw = case("switch").ok_or("gate: no PA sequential switch case")?;
    let cb = case("curveball").ok_or("gate: no PA sequential curveball case")?;
    let m = sw["m"].as_u64().unwrap_or(0);
    if m < GATE_MIN_EDGES {
        return Ok(format!(
            "skipped: PA instance too small to mix (m = {m} < {GATE_MIN_EDGES})"
        ));
    }
    if cb["reached"].as_bool() != Some(true) {
        return Ok(format!(
            "skipped: curveball stalled at rate {:.3} below target {TARGET_RATE} (too small to mix)",
            cb["achieved_rate"].as_f64().unwrap_or(0.0)
        ));
    }
    let sw_ops = sw["ops"].as_u64().ok_or("gate: switch case has no ops")?;
    let cb_ops = cb["ops"]
        .as_u64()
        .ok_or("gate: curveball case has no ops")?;
    if sw_ops == 0 {
        return Err("gate: switch case performed zero operations".into());
    }
    let ratio = cb_ops as f64 / sw_ops as f64;
    if ratio > 0.5 {
        return Err(format!(
            "mixing regression: curveball needed {cb_ops} trades vs {sw_ops} switches \
             on PA ({ratio:.2}x; ceiling 0.50x)"
        ));
    }
    Ok(format!(
        "curveball at {ratio:.2}x switch ops to rate {TARGET_RATE} on PA \
         ({cb_ops} trades vs {sw_ops} switches)"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixing_smoke_at_tiny_scale() {
        let cfg = ExpConfig {
            scale: 0.01,
            reps: 1,
            seed: 7,
            timeline: false,
        };
        let r = mixing(&cfg);
        assert_eq!(r.id, "mixing");
        assert_eq!(r.data["bench"].as_str(), Some("mixing"));
        assert_eq!(r.data["metric"].as_str(), Some("ops_to_target"));
        assert!(!r.data["provenance"]["rustc"].as_str().unwrap().is_empty());
        let cases = r.data["cases"].as_arr().unwrap();
        // 3 families × 2 schemes × 2 modes.
        assert_eq!(cases.len(), 12);
        for c in cases {
            assert!(c["ops"].as_u64().unwrap() > 0, "no work recorded: {c:?}");
            assert!(c["edges_moved"].as_u64().unwrap() > 0);
            assert!(c["achieved_rate"].as_f64().unwrap() > 0.0);
            if c["scheme"].as_str() == Some("curveball") {
                // The pass controller stops at the first boundary at or
                // past the target.
                assert!(c["achieved_rate"].as_f64().unwrap() >= TARGET_RATE);
            }
        }
        assert!(r.rendered.contains("curveball"));
        // The headline claim holds even at smoke scale: trades reach the
        // target in far fewer operations on every family.
        assert!(mixing_gate(&r.data).unwrap().contains("curveball at"));
    }

    #[test]
    fn mixing_gate_reads_the_report_schema() {
        let ok = json!({"cases": [
            {"family": "preferential_100k", "scheme": "switch", "mode": "sequential",
             "m": 1000, "ops": 1000, "reached": true, "achieved_rate": 0.9},
            {"family": "preferential_100k", "scheme": "curveball", "mode": "sequential",
             "m": 1000, "ops": 100, "reached": true, "achieved_rate": 0.95},
        ]});
        assert!(mixing_gate(&ok).unwrap().contains("0.10x"));
        let bad = json!({"cases": [
            {"family": "preferential_100k", "scheme": "switch", "mode": "sequential",
             "m": 1000, "ops": 1000, "reached": true, "achieved_rate": 0.9},
            {"family": "preferential_100k", "scheme": "curveball", "mode": "sequential",
             "m": 1000, "ops": 800, "reached": true, "achieved_rate": 0.95},
        ]});
        assert!(mixing_gate(&bad).unwrap_err().contains("mixing regression"));
        // Tiny instance or a stalled curveball run skips, not fails.
        let tiny = json!({"cases": [
            {"family": "preferential_100k", "scheme": "switch", "mode": "sequential",
             "m": 64, "ops": 100, "reached": true, "achieved_rate": 0.9},
            {"family": "preferential_100k", "scheme": "curveball", "mode": "sequential",
             "m": 64, "ops": 90, "reached": true, "achieved_rate": 0.95},
        ]});
        assert!(mixing_gate(&tiny).unwrap().contains("skipped"));
        let stalled = json!({"cases": [
            {"family": "preferential_100k", "scheme": "switch", "mode": "sequential",
             "m": 1000, "ops": 1000, "reached": true, "achieved_rate": 0.9},
            {"family": "preferential_100k", "scheme": "curveball", "mode": "sequential",
             "m": 1000, "ops": 900, "reached": false, "achieved_rate": 0.4},
        ]});
        assert!(mixing_gate(&stalled).unwrap().contains("skipped"));
        assert!(mixing_gate(&json!({"cases": []})).is_err());
    }
}
