//! Hot-path throughput: switches/sec as a first-class, tracked number.
//!
//! Not a paper figure. The paper's `O(t log d_max)` bound hides the
//! constant factor set by adjacency/membership data layout (cf. the
//! EM-LFR line of work), so this experiment measures raw edge-switch
//! throughput — sequential Algorithm 1 and the threaded distributed
//! engine at p ∈ {1, 2, 4, 8} — across three graph families, giving
//! later PRs a perf trajectory to regress against.
//!
//! Run via `repro hotpath` (or `repro hotpath --quick` for a CI smoke
//! pass); the repro binary additionally archives the structured result
//! as `BENCH_hotpath.json` at the invocation directory (the repo root
//! in CI) with schema
//! `{"bench": "hotpath", "metric": "switches_per_sec", "cases": [...]}`.

use super::ExpConfig;
use crate::report::{f, peak_rss_kb, provenance, table, Report};
use edgeswitch_core::parallel::process_backend_supported;
use edgeswitch_core::run::Run;
use edgeswitch_core::switch::{flip_kind, recombine, Recombination};
use edgeswitch_core::visit::VisitTracker;
use edgeswitch_dist::Rng;
use edgeswitch_dist::{root_rng, BlockRng64};
use edgeswitch_graph::generators::{erdos_renyi_gnm, preferential_attachment, small_world};
use edgeswitch_graph::sampling::EdgePool;
use edgeswitch_graph::{Graph, OrientedEdge};
use edgeswitch_json::json;
use std::time::Instant;

/// Processor counts for the threaded-engine cases.
const PROCESSORS: [usize; 4] = [1, 2, 4, 8];

/// Pipelining windows swept for each threaded case: stop-and-wait,
/// shallow, and the [`ParallelConfig`] default.
const WINDOWS: [usize; 3] = [1, 4, 16];

/// Floor of [`local_gate`], which divides the threaded p = 1 rate by the
/// sequential rate. The threaded case times a whole `Run::execute` —
/// rank start, `build_stores`, the step barriers, `assemble_graph` — and
/// the rank loop's bookkeeping on top of the same pool calls, so when
/// the sequential loop stopped maintaining adjacency (2.9 → 6.9 M
/// switches/s on this gate's case) the threaded rate rose nearly as much
/// in absolute terms (2.5 → 4.3 M/s) and fell as a ratio. Restated from
/// 0.75 on that commit: six same-session `--quick` repetitions read
/// 0.62–0.84 (median 0.70), and five runs of the gate itself dipped to
/// 0.52 — a `--quick` case is a few milliseconds, one repetition. The
/// state the gate guards against (the fast path falling back into the
/// conversation protocol) reads under 0.25.
pub const THREADED_P1_FLOOR: f64 = 0.45;

/// Switch operations per measurement, as a multiple of `m` (long enough
/// to amortize timer noise at full scale). Shared by the sequential and
/// threaded cases: both run exactly `OPS_PER_EDGE * m` operations, so
/// their switches/sec — and the [`local_gate`] ratio between them — are
/// measured on identical work.
const OPS_PER_EDGE: u64 = 5;

fn scaled(base: usize, scale: f64, floor: usize) -> usize {
    ((base as f64 * scale) as usize).max(floor)
}

/// Hardware threads on the machine running the bench. Stamped into every
/// case so archived numbers are interpretable: on a 1-core host threaded
/// and process ranks alike timeshare one core, and any p>1 "speedup" is
/// noise, not scaling.
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The 2–3 graph families measured, at `scale` of their 100k-edge
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

/// Measure sequential switches/sec on `graph`: best of `reps` timed runs
/// (best-of suppresses scheduler noise; the work per run is identical).
fn bench_sequential(graph: &Graph, reps: u32, seed: u64) -> (u64, f64) {
    let t = OPS_PER_EDGE * graph.num_edges() as u64;
    let mut best = 0.0f64;
    for rep in 0..reps.max(1) {
        let run = Run::sequential()
            .switches(t)
            .seed(seed ^ (0xb0b0 + rep as u64));
        let start = Instant::now();
        let out = run.execute(graph);
        let secs = start.elapsed().as_secs_f64();
        best = best.max(out.performed() as f64 / secs);
    }
    (t, best)
}

/// Switch operations for the probe-overhead comparison. Fixed rather
/// than scale-proportional: long enough to amortize timer noise even at
/// `--quick` scale, where the graphs are tiny.
const PROBE_GATE_OPS: u64 = 200_000;

/// The *uninstrumented* Algorithm-1 inner loop, frozen as the reference
/// the probe-overhead gate compares against: the same storage calls in
/// the same order as the engine behind `Run::sequential` — sampling,
/// the existence test, removal and insertion on the [`EdgePool`] alone,
/// visit tracking, the draws served through the same [`BlockRng64`] —
/// with no observation points at all. If the no-op probe in the real
/// path ever grows measurable cost, the ratio of the two exposes it.
/// (The loop that also maintains adjacency, which the
/// engine is tested against for equal results, is
/// `tests/common::frozen_sequential`; as a timing baseline it would do
/// eight sorted-array updates a switch the engine no longer does, and
/// the ratio would measure those instead of the probe.)
fn frozen_sequential<R: Rng>(pool: &mut EdgePool, t: u64, rng: &mut R) -> u64 {
    let mut tracker = VisitTracker::new(pool.iter());
    let mut performed = 0u64;
    if pool.len() < 2 {
        return 0;
    }
    'ops: for _ in 0..t {
        let mut retries = 0u64;
        loop {
            let e1 = OrientedEdge::from_edge(pool.sample(rng).expect("m >= 2"));
            let e2 = OrientedEdge::from_edge(pool.sample(rng).expect("m >= 2"));
            let kind = flip_kind(rng);
            if let Recombination::Candidate { f1, f2 } = recombine(e1, e2, kind) {
                if !pool.contains(f1) && !pool.contains(f2) {
                    let (o1, o2) = (e1.edge(), e2.edge());
                    assert!(pool.remove(o1) && pool.remove(o2), "sampled edges exist");
                    assert!(pool.insert(f1) && pool.insert(f2), "checked absent");
                    tracker.record_removal(o1);
                    tracker.record_removal(o2);
                    performed += 1;
                    continue 'ops;
                }
            }
            retries += 1;
            if retries >= 100_000 {
                std::hint::black_box(&tracker);
                return performed;
            }
        }
    }
    std::hint::black_box(&tracker);
    performed
}

/// Best-of-`reps` switches/sec of the frozen baseline and of the real
/// (no-op-probed) sequential path, on identical work.
fn bench_probe_overhead(graph: &Graph, reps: u32, seed: u64) -> (f64, f64) {
    let mut base_best = 0.0f64;
    let mut noop_best = 0.0f64;
    // At least three reps: the gate divides two timings, so a single
    // noisy sample on either side would dominate the ratio.
    for rep in 0..reps.max(3) {
        let salt = 0x9e0 + rep as u64;
        let mut pool = graph.pool().clone();
        let mut rng = BlockRng64::new(root_rng(seed ^ salt));
        let start = Instant::now();
        let performed = frozen_sequential(&mut pool, PROBE_GATE_OPS, &mut rng);
        base_best = base_best.max(performed as f64 / start.elapsed().as_secs_f64());

        // `start` sets the engine up (it clones the pool) outside the
        // timed region: the gate divides this timing by the frozen
        // loop's, so both sides must time the switch loop alone.
        let mut engine = Run::sequential()
            .switches(PROBE_GATE_OPS)
            .seed(seed ^ salt)
            .start(graph)
            .expect("a sequential switch run always starts");
        let start = Instant::now();
        engine.advance(u64::MAX);
        noop_best = noop_best.max(engine.performed() as f64 / start.elapsed().as_secs_f64());
    }
    (base_best, noop_best)
}

/// Measure switches/sec of the rank world `ranks` (`Run::parallel(p)`
/// or `Run::process(p)`) with a pipelining window of `window`
/// conversations: best of `reps` timed runs, the same best-of discipline
/// as [`bench_sequential`] — the gates compare the two as a ratio, so a
/// best-of-N numerator over a single-shot denominator would measure
/// scheduler noise, not regressions. Each rep still pays the world's own
/// startup and teardown — thread start, or process spawn and the
/// result blobs — as it would in production: that end-to-end cost is
/// the number being tracked.
fn bench_ranks(ranks: Run, graph: &Graph, window: usize, reps: u32, seed: u64) -> (u64, f64) {
    let t = OPS_PER_EDGE * graph.num_edges() as u64;
    let run = ranks.switches(t).seed(seed).window(window);
    let mut best = 0.0f64;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let out = run.execute(graph);
        let secs = start.elapsed().as_secs_f64();
        best = best.max(out.performed() as f64 / secs);
    }
    (t, best)
}

/// `hotpath` — sequential and threaded-engine switch throughput.
pub fn hotpath(cfg: &ExpConfig) -> Report {
    let cores = host_cores();
    let mut cases = Vec::new();
    let mut rows = Vec::new();
    for (family, graph) in families(cfg) {
        let m = graph.num_edges();
        let (ops, rate) = bench_sequential(&graph, cfg.reps, cfg.seed);
        cases.push(json!({
            "family": family,
            "mode": "sequential",
            "p": 1,
            "n": graph.num_vertices(),
            "m": m,
            "ops": ops,
            "switches_per_sec": rate,
            "host_cores": cores,
            "vm_hwm_kb": peak_rss_kb(),
        }));
        rows.push(vec![
            family.to_string(),
            "sequential".into(),
            "1".into(),
            "-".into(),
            m.to_string(),
            ops.to_string(),
            f(rate, 0),
            "-".into(),
        ]);
        for window in WINDOWS {
            let mut p1_rate = 0.0f64;
            for p in PROCESSORS {
                let (ops, rate) = bench_ranks(Run::parallel(p), &graph, window, cfg.reps, cfg.seed);
                if p == 1 {
                    p1_rate = rate;
                }
                let speedup = rate / p1_rate;
                cases.push(json!({
                    "family": family,
                    "mode": "threaded",
                    "p": p,
                    "window": window,
                    "n": graph.num_vertices(),
                    "m": m,
                    "ops": ops,
                    "switches_per_sec": rate,
                    "speedup_vs_p1": speedup,
                    "host_cores": cores,
                    "vm_hwm_kb": peak_rss_kb(),
                }));
                rows.push(vec![
                    family.to_string(),
                    "threaded".into(),
                    p.to_string(),
                    window.to_string(),
                    m.to_string(),
                    ops.to_string(),
                    f(rate, 0),
                    f(speedup, 2),
                ]);
            }
        }
    }
    // Probe-overhead comparison on the uniform family: the no-op probe
    // must be free relative to the frozen uninstrumented loop. Measured
    // before the process sweep so the ratio is not skewed by the page
    // cache / scheduler churn that spawning rank processes leaves behind.
    let fams = families(cfg);
    let (family, er) = &fams[0];
    let (baseline, noop) = bench_probe_overhead(er, cfg.reps, cfg.seed);
    let noop_vs_baseline = if baseline > 0.0 { noop / baseline } else { 1.0 };
    // The process backend, measured at the default window only: the
    // interesting axis is the substrate (threads timesharing the parent
    // vs. one process per core), not another window sweep.
    if process_backend_supported() {
        for (family, graph) in &fams {
            let m = graph.num_edges();
            let window = *WINDOWS.last().unwrap();
            let mut p1_rate = 0.0f64;
            for p in PROCESSORS {
                let (ops, rate) = bench_ranks(Run::process(p), graph, window, cfg.reps, cfg.seed);
                if p == 1 {
                    p1_rate = rate;
                }
                let speedup = rate / p1_rate;
                cases.push(json!({
                    "family": *family,
                    "mode": "process",
                    "p": p,
                    "window": window,
                    "n": graph.num_vertices(),
                    "m": m,
                    "ops": ops,
                    "switches_per_sec": rate,
                    "speedup_vs_p1": speedup,
                    "host_cores": cores,
                    "vm_hwm_kb": peak_rss_kb(),
                }));
                rows.push(vec![
                    family.to_string(),
                    "process".into(),
                    p.to_string(),
                    window.to_string(),
                    m.to_string(),
                    ops.to_string(),
                    f(rate, 0),
                    f(speedup, 2),
                ]);
            }
        }
    }

    let mut rendered = table(
        &[
            "family",
            "mode",
            "p",
            "window",
            "m",
            "ops",
            "switches/sec",
            "vs p=1",
        ],
        &rows,
    );
    rendered.push_str(&format!(
        "\nprobe overhead ({family}, {PROBE_GATE_OPS} ops): frozen baseline {}/s, \
         no-op probe {}/s, ratio {}\n",
        f(baseline, 0),
        f(noop, 0),
        f(noop_vs_baseline, 3),
    ));
    Report {
        id: "hotpath".into(),
        title: "hot-path switch throughput (sequential + threaded engine)".into(),
        data: json!({
            "bench": "hotpath",
            "metric": "switches_per_sec",
            "provenance": provenance(),
            "cases": cases,
            "probe": {
                "family": *family,
                "ops": PROBE_GATE_OPS,
                "baseline_per_sec": baseline,
                "noop_per_sec": noop,
                "noop_vs_baseline": noop_vs_baseline,
            },
        }),
        rendered,
    }
}

/// Probe-overhead gate over an already-computed hotpath report: the
/// sequential path with its (disabled) observation points compiled in
/// must stay within 3% of the frozen uninstrumented baseline's
/// throughput. Returns a human-readable error when the gate trips.
pub fn probe_gate(data: &edgeswitch_json::Json) -> Result<(), String> {
    let ratio = data["probe"]["noop_vs_baseline"]
        .as_f64()
        .ok_or("gate: hotpath report has no probe section")?;
    if ratio < 0.97 {
        return Err(format!(
            "probe overhead regression: no-op-probed path at {:.1}% of the \
             uninstrumented baseline (floor 97%)",
            100.0 * ratio
        ));
    }
    Ok(())
}

/// Anti-scaling regression gate over an already-computed hotpath report:
/// on the ER family at the default window, threaded p=2 must not fall
/// below threaded p=1 (the collapse the pipelined window eliminated).
/// Returns a human-readable error when the gate trips. Meaningful only
/// on a multi-core host — with a single hardware thread, p ranks time-
/// share one core and p=2 ≥ p=1 is physically unreachable.
pub fn scaling_gate(data: &edgeswitch_json::Json) -> Result<(), String> {
    let window = *WINDOWS.last().unwrap() as u64;
    let rate = |p: u64| -> Result<f64, String> {
        data["cases"]
            .as_arr()
            .into_iter()
            .flatten()
            .find(|c| {
                c["family"].as_str() == Some("erdos_renyi_100k")
                    && c["mode"].as_str() == Some("threaded")
                    && c["p"].as_u64() == Some(p)
                    && c["window"].as_u64() == Some(window)
            })
            .and_then(|c| c["switches_per_sec"].as_f64())
            .ok_or_else(|| format!("gate: no ER threaded p={p} window={window} case"))
    };
    let (p1, p2) = (rate(1)?, rate(2)?);
    if p2 < p1 {
        return Err(format!(
            "anti-scaling regression: ER threaded p=2 ({p2:.0}/s) below p=1 ({p1:.0}/s) at window {window}"
        ));
    }
    Ok(())
}

/// Local-fast-path gate over an already-computed hotpath report: on the
/// ER family at the default window, threaded p=1 — where every switch
/// is rank-local and takes the zero-message fast path — must hold at
/// least [`THREADED_P1_FLOOR`] of sequential Algorithm 1's throughput on
/// identical work (both modes run `OPS_PER_EDGE * m` operations). Guards
/// against the fast path silently regressing back into the conversation
/// protocol, which held p=1 near 40% of a sequential loop less than half
/// as fast as today's. Returns a human-readable error when the gate
/// trips.
pub fn local_gate(data: &edgeswitch_json::Json) -> Result<(), String> {
    let window = *WINDOWS.last().unwrap() as u64;
    let cases = || data["cases"].as_arr().into_iter().flatten();
    let seq = cases()
        .find(|c| {
            c["family"].as_str() == Some("erdos_renyi_100k")
                && c["mode"].as_str() == Some("sequential")
        })
        .and_then(|c| c["switches_per_sec"].as_f64())
        .ok_or("gate: no ER sequential case")?;
    let p1 = cases()
        .find(|c| {
            c["family"].as_str() == Some("erdos_renyi_100k")
                && c["mode"].as_str() == Some("threaded")
                && c["p"].as_u64() == Some(1)
                && c["window"].as_u64() == Some(window)
        })
        .and_then(|c| c["switches_per_sec"].as_f64())
        .ok_or_else(|| format!("gate: no ER threaded p=1 window={window} case"))?;
    let ratio = if seq > 0.0 { p1 / seq } else { 1.0 };
    if ratio < THREADED_P1_FLOOR {
        return Err(format!(
            "local fast-path regression: ER threaded p=1 at {:.1}% of \
             sequential (floor {:.0}%) at window {window}",
            100.0 * ratio,
            100.0 * THREADED_P1_FLOOR
        ));
    }
    Ok(())
}

/// Process-scaling gate over an already-computed hotpath report: on the
/// ER family at the default window, process-backend p=2 must reach at
/// least 1.3× process p=1 — the whole point of the backend is that a
/// second rank brings a second core. Only meaningful where that second
/// core exists: the gate reads the report's `host_cores` stamp and
/// *skips* (`Ok` with a notice, not a failure) on single-core runners
/// and on reports without process cases (non-Linux). Returns the notice
/// or pass summary in `Ok`, a human-readable error in `Err`.
pub fn proc_gate(data: &edgeswitch_json::Json) -> Result<String, String> {
    let window = *WINDOWS.last().unwrap() as u64;
    let case = |p: u64| {
        data["cases"]
            .as_arr()
            .into_iter()
            .flatten()
            .find(|c| {
                c["family"].as_str() == Some("erdos_renyi_100k")
                    && c["mode"].as_str() == Some("process")
                    && c["p"].as_u64() == Some(p)
                    && c["window"].as_u64() == Some(window)
            })
            .cloned()
    };
    let (Some(c1), Some(c2)) = (case(1), case(2)) else {
        return Ok("skipped: no process cases in report (platform unsupported)".into());
    };
    let cores = c2["host_cores"].as_u64().unwrap_or(1);
    if cores < 2 {
        return Ok(format!(
            "skipped: host has {cores} core(s); process p=2 cannot beat p=1 while timesharing"
        ));
    }
    let p1 = c1["switches_per_sec"]
        .as_f64()
        .ok_or("gate: p=1 case has no rate")?;
    let p2 = c2["switches_per_sec"]
        .as_f64()
        .ok_or("gate: p=2 case has no rate")?;
    let speedup = if p1 > 0.0 { p2 / p1 } else { 0.0 };
    if speedup < 1.3 {
        return Err(format!(
            "process-scaling regression: ER process p=2 at {speedup:.2}x p=1 \
             (floor 1.30x) on a {cores}-core host"
        ));
    }
    Ok(format!(
        "process p=2 at {speedup:.2}x p=1 on ER ({cores}-core host)"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hotpath_smoke_at_tiny_scale() {
        let cfg = ExpConfig {
            scale: 0.002,
            reps: 1,
            seed: 7,
            timeline: false,
        };
        let r = hotpath(&cfg);
        assert_eq!(r.id, "hotpath");
        assert_eq!(r.data["bench"].as_str(), Some("hotpath"));
        assert_eq!(r.data["metric"].as_str(), Some("switches_per_sec"));
        let cases = r.data["cases"].as_arr().unwrap();
        // 3 families × (1 sequential + |WINDOWS| × |PROCESSORS| threaded
        // + |PROCESSORS| process where the backend exists).
        let proc_cases = if process_backend_supported() {
            PROCESSORS.len()
        } else {
            0
        };
        assert_eq!(
            cases.len(),
            3 * (1 + WINDOWS.len() * PROCESSORS.len() + proc_cases)
        );
        for c in cases {
            assert!(c["switches_per_sec"].as_f64().unwrap() > 0.0);
            assert!(c["ops"].as_u64().unwrap() > 0);
            assert!(c["host_cores"].as_u64().unwrap() >= 1);
            // Peak RSS is stamped per case wherever /proc exists
            // (monotone within this one process; per-case isolation is
            // the genscale experiment's job).
            if cfg!(target_os = "linux") {
                assert!(c["vm_hwm_kb"].as_u64().unwrap() > 0);
            }
            if matches!(c["mode"].as_str(), Some("threaded") | Some("process")) {
                let speedup = c["speedup_vs_p1"].as_f64().unwrap();
                assert!(speedup > 0.0);
                if c["p"].as_u64() == Some(1) {
                    assert!((speedup - 1.0).abs() < 1e-9);
                }
            }
        }
        assert!(r.rendered.contains("switches/sec"));
        assert!(r.rendered.contains("window"));
        // Archived numbers carry their build provenance.
        assert!(!r.data["provenance"]["rustc"].as_str().unwrap().is_empty());
        // The probe-overhead section is always present for the gate.
        assert!(r.data["probe"]["baseline_per_sec"].as_f64().unwrap() > 0.0);
        assert!(r.data["probe"]["noop_per_sec"].as_f64().unwrap() > 0.0);
        assert!(r.data["probe"]["noop_vs_baseline"].as_f64().unwrap() > 0.0);
        assert!(r.rendered.contains("probe overhead"));
    }

    #[test]
    fn frozen_baseline_and_the_engine_make_the_same_switches() {
        // The gate's ratio means something only while both sides do the
        // same work: same draws, same switches, same final pool order.
        let g = erdos_renyi_gnm(400, 2000, &mut root_rng(7));
        for (t, seed) in [(1u64, 3u64), (3000, 11), (5000, 12)] {
            let mut frozen = g.pool().clone();
            let performed = frozen_sequential(&mut frozen, t, &mut root_rng(seed));
            let out = Run::sequential().switches(t).seed(seed).execute(&g);
            assert_eq!(out.performed(), performed);
            assert!(out.graph().edges().eq(frozen.iter()), "t={t}");
        }
    }

    #[test]
    fn probe_gate_reads_the_report_schema() {
        let ok = json!({"probe": {"noop_vs_baseline": 0.995}});
        assert!(probe_gate(&ok).is_ok());
        let bad = json!({"probe": {"noop_vs_baseline": 0.90}});
        assert!(probe_gate(&bad).unwrap_err().contains("probe overhead"));
        assert!(probe_gate(&json!({})).is_err());
    }

    #[test]
    fn sequential_and_threaded_cases_run_identical_work() {
        let cfg = ExpConfig {
            scale: 0.002,
            reps: 1,
            seed: 7,
            timeline: false,
        };
        let r = hotpath(&cfg);
        let cases = r.data["cases"].as_arr().unwrap();
        for family in ["erdos_renyi_100k", "preferential_100k", "small_world_100k"] {
            let ops: Vec<u64> = cases
                .iter()
                .filter(|c| c["family"].as_str() == Some(family))
                .map(|c| c["ops"].as_u64().unwrap())
                .collect();
            assert!(
                ops.windows(2).all(|w| w[0] == w[1]),
                "{family}: uneven workloads across modes: {ops:?}"
            );
        }
    }

    #[test]
    fn local_gate_reads_the_report_schema() {
        let ok = json!({"cases": [
            {"family": "erdos_renyi_100k", "mode": "sequential", "p": 1, "switches_per_sec": 100.0},
            {"family": "erdos_renyi_100k", "mode": "threaded", "p": 1, "window": 16, "switches_per_sec": 80.0},
        ]});
        assert!(local_gate(&ok).is_ok());
        let bad = json!({"cases": [
            {"family": "erdos_renyi_100k", "mode": "sequential", "p": 1, "switches_per_sec": 100.0},
            {"family": "erdos_renyi_100k", "mode": "threaded", "p": 1, "window": 16, "switches_per_sec": 40.0},
        ]});
        assert!(local_gate(&bad).unwrap_err().contains("local fast-path"));
        assert!(local_gate(&json!({"cases": []})).is_err());
    }

    #[test]
    fn proc_gate_skips_asserts_and_fails_by_schema() {
        // No process cases → skip, not failure (non-Linux platforms).
        let none = json!({"cases": []});
        assert!(proc_gate(&none).unwrap().contains("skipped"));
        // Single-core host → skip with the core count in the notice.
        let one_core = json!({"cases": [
            {"family": "erdos_renyi_100k", "mode": "process", "p": 1, "window": 16,
             "switches_per_sec": 100.0, "host_cores": 1},
            {"family": "erdos_renyi_100k", "mode": "process", "p": 2, "window": 16,
             "switches_per_sec": 60.0, "host_cores": 1},
        ]});
        assert!(proc_gate(&one_core).unwrap().contains("skipped"));
        // Multi-core host with real scaling → pass.
        let ok = json!({"cases": [
            {"family": "erdos_renyi_100k", "mode": "process", "p": 1, "window": 16,
             "switches_per_sec": 100.0, "host_cores": 4},
            {"family": "erdos_renyi_100k", "mode": "process", "p": 2, "window": 16,
             "switches_per_sec": 150.0, "host_cores": 4},
        ]});
        assert!(proc_gate(&ok).unwrap().contains("1.50x"));
        // Multi-core host without scaling → failure.
        let bad = json!({"cases": [
            {"family": "erdos_renyi_100k", "mode": "process", "p": 1, "window": 16,
             "switches_per_sec": 100.0, "host_cores": 4},
            {"family": "erdos_renyi_100k", "mode": "process", "p": 2, "window": 16,
             "switches_per_sec": 110.0, "host_cores": 4},
        ]});
        assert!(proc_gate(&bad).unwrap_err().contains("process-scaling"));
    }

    #[test]
    fn scaling_gate_reads_the_report_schema() {
        let ok = json!({"cases": [
            {"family": "erdos_renyi_100k", "mode": "threaded", "p": 1, "window": 16, "switches_per_sec": 100.0},
            {"family": "erdos_renyi_100k", "mode": "threaded", "p": 2, "window": 16, "switches_per_sec": 150.0},
        ]});
        assert!(scaling_gate(&ok).is_ok());
        let bad = json!({"cases": [
            {"family": "erdos_renyi_100k", "mode": "threaded", "p": 1, "window": 16, "switches_per_sec": 100.0},
            {"family": "erdos_renyi_100k", "mode": "threaded", "p": 2, "window": 16, "switches_per_sec": 60.0},
        ]});
        assert!(scaling_gate(&bad).unwrap_err().contains("anti-scaling"));
        assert!(scaling_gate(&json!({"cases": []})).is_err());
    }
}
