//! Generation-at-scale: the streaming generate→partition→randomize
//! pipeline measured at 10⁶–10⁸ edges, with per-case peak RSS.
//!
//! Not a paper figure. The streaming pipeline (DESIGN.md §4j) claims two
//! things the ordinary benches cannot show: (1) a rank's store can be
//! built from an O(1) generator spec at O(m/p + chunk) peak residency,
//! where the materialized path pays the full graph plus every rank's
//! store at once; (2) the seed-boot process launch randomizes a graph no
//! participant ever held in full. This experiment measures both, per
//! target edge count:
//!
//! * `boot-materialized` — the pre-streaming boot path: collect the full
//!   raw edge list, build the [`Graph`], split it with `build_stores`.
//! * `boot-streamed` — one rank's share built directly from the spec via
//!   [`build_rank_store_streamed`]; never holds a global edge list.
//! * `degseq-streamed` — the same rank-local build for the prescribed
//!   power-law degree-sequence constructor.
//! * `proc-switch` — end-to-end seed-boot randomization: the process
//!   backend at p = 2, booted from the spec, running `t` switches.
//! * `curveball` — global trades over the streamed-built graph (one full
//!   pass), for trades/sec at scale.
//!
//! **Per-case isolation**: `VmHWM` is monotone over a process lifetime,
//! so every case runs in a freshly spawned child of the current binary
//! (the same respawn discipline as the process backend) and reports its
//! own high-water mark. Results are archived as `BENCH_genscale.json`;
//! `repro genscale --quick --gate-mem` gates the streamed/materialized
//! peak-RSS ratio at m = 10⁶ in CI.

use super::ExpConfig;
use crate::report::{f, peak_rss_kb, provenance, table, Report};
use edgeswitch_core::config::Budget;
use edgeswitch_core::config::ParallelConfig;
use edgeswitch_core::parallel::{process_backend_supported, try_parallel_edge_switch_proc_gen};
use edgeswitch_core::trade::CurveballResumable;
use edgeswitch_graph::generators::{PaStream, StreamSpec};
use edgeswitch_graph::store::{build_rank_store_streamed, build_stores};
use edgeswitch_graph::{Graph, IterStream, Partitioner};
use edgeswitch_json::{json, Json};
use std::time::Instant;

/// Ranks for the partition/boot cases: the smallest world where "one
/// rank's share" differs from "the whole graph".
const BOOT_P: usize = 2;

/// Edges per arriving vertex for the PA spec at every scale.
const PA_D: usize = 10;

/// Switch budget per end-to-end case, as a fraction of `m`.
const SWITCH_FRACTION: u64 = 10;

/// The full sweep (`repro genscale` at scale 1): 10⁶ and 10⁷ edges.
const FULL_GRID: [u64; 2] = [1_000_000, 10_000_000];

/// Quick sweep (`--quick`): the CI memory gate compares the two
/// construction paths at exactly this m.
const QUICK_M: u64 = 1_000_000;

/// The stretch case: `boot-streamed` at 10⁸ raw edges, run only when
/// `MemAvailable` leaves this much headroom (the streamed rank store is
/// ~m/2 edges of pool + position map; 32 GiB is comfortable slack).
const HUGE_M: u64 = 100_000_000;
const HUGE_MIN_AVAILABLE_KB: u64 = 32 * 1024 * 1024;

/// `--gate-mem` ceiling: streamed construction peak RSS as a fraction of
/// the materialized path at equal m.
const GATE_MEM_RATIO: f64 = 0.6;

/// Environment channel to the per-case child: the case as JSON, and the
/// path the child writes its result JSON to.
const ENV_CASE: &str = "EDGESWITCH_GENSCALE_CASE";
const ENV_OUT: &str = "EDGESWITCH_GENSCALE_OUT";

/// The recomputation-PA spec targeting `m` raw edges: `n` chosen so the
/// stream emits `m + PA_D` raw edges (dedup trims a few).
fn pa_spec(m: u64, seed: u64) -> StreamSpec {
    StreamSpec::Pa {
        n: (m / PA_D as u64) as usize + PA_D + 1,
        d: PA_D,
        seed,
    }
}

/// The prescribed power-law spec sized so the realized edge count lands
/// near `m` (mean sampled degree ≈ 3.3 at γ = 2.5, d ∈ [2, 1000]).
fn degseq_spec(m: u64, seed: u64) -> StreamSpec {
    StreamSpec::PowerLawSeq {
        n: ((3 * m / 5) as usize).max(64),
        gamma: 2.5,
        d_min: 2,
        d_max: 1000,
        seed,
    }
}

/// `MemAvailable` from `/proc/meminfo`, in KiB (`None` off-Linux).
fn mem_available_kb() -> Option<u64> {
    let meminfo = std::fs::read_to_string("/proc/meminfo").ok()?;
    for line in meminfo.lines() {
        if let Some(rest) = line.strip_prefix("MemAvailable:") {
            return rest.trim().trim_end_matches("kB").trim().parse().ok();
        }
    }
    None
}

/// Run one case **in the current process** and return its result row.
/// The experiment driver never calls this directly for measurement — it
/// spawns a child per case so `VmHWM` is per-case — but the child lands
/// here, and tests may call it for schema checks.
pub fn run_case(case: &Json) -> Json {
    let mode = case["mode"].as_str().expect("case has a mode");
    let m = case["m"].as_u64().expect("case has a target m");
    let seed = case["seed"].as_u64().unwrap_or(1);
    let t = case["t"].as_u64().unwrap_or(m / SWITCH_FRACTION);
    let mut row = match mode {
        "boot-materialized" => boot_materialized(m, seed),
        "boot-streamed" => boot_streamed(pa_spec(m, seed), "boot-streamed"),
        "degseq-streamed" => boot_streamed(degseq_spec(m, seed), "degseq-streamed"),
        "proc-switch" => proc_switch(m, seed, t),
        "curveball" => curveball(m, seed),
        other => panic!("unknown genscale mode {other}"),
    };
    row["m_target"] = json!(m);
    row["seed"] = json!(seed);
    // Read VmHWM last: it is a high-water mark, so sampling after the
    // workload (even after frees) captures the case's peak.
    row["vm_hwm_kb"] = json!(peak_rss_kb());
    row
}

/// The pre-streaming pipeline: materialize the global raw edge list,
/// build the full graph, split it into every rank's store at once.
fn boot_materialized(m: u64, seed: u64) -> Json {
    let spec = pa_spec(m, seed);
    let n = spec.num_vertices();
    let start = Instant::now();
    let mut edges = Vec::new();
    let mut stream = spec.stream().expect("PA spec is always realizable");
    let mut chunk = Vec::new();
    while stream.next_chunk(&mut chunk) {
        edges.extend_from_slice(&chunk);
    }
    let raw = edges.len() as u64;
    // Replay the materialized list through the dedup-on-insert path
    // (the raw stream may repeat an edge; `from_edges` would reject it).
    let mut replay = IterStream::new(edges.iter().copied());
    let graph = Graph::from_stream(n, &mut replay).expect("PA stream stays in range");
    drop(edges);
    let part = Partitioner::hash_division(BOOT_P);
    let stores = build_stores(&graph, &part);
    let secs = start.elapsed().as_secs_f64();
    let split: u64 = stores.iter().map(|s| s.len() as u64).sum();
    std::hint::black_box(&stores);
    json!({
        "mode": "boot-materialized",
        "n": n,
        "m": graph.num_edges(),
        "raw_edges": raw,
        "p": BOOT_P,
        "split_edges": split,
        "elapsed_sec": secs,
        "gen_edges_per_sec": raw as f64 / secs,
    })
}

/// The streamed boot path, exactly as a seed-booted rank child runs it:
/// replay the spec's stream, keep rank 0's share, never hold the rest.
fn boot_streamed(spec: StreamSpec, mode: &str) -> Json {
    let n = spec.num_vertices();
    let start = Instant::now();
    let mut stream = spec.stream().expect("spec is realizable");
    let raw = stream.size_hint().0 as u64;
    let part = Partitioner::hash_division(BOOT_P);
    let store = build_rank_store_streamed(&mut *stream, &part, 0);
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(&store);
    json!({
        "mode": mode,
        "n": n,
        "m": store.len(),
        "raw_edges": raw,
        "p": BOOT_P,
        "rank": 0,
        "elapsed_sec": secs,
        "gen_edges_per_sec": raw as f64 / secs,
    })
}

/// End-to-end seed boot: generate-partition-randomize over the process
/// backend at p = 2, with the launcher (this process) never holding the
/// graph — its VmHWM is the O(1)-boot claim in a number.
fn proc_switch(m: u64, seed: u64, t: u64) -> Json {
    if !process_backend_supported() {
        return json!({
            "mode": "proc-switch",
            "skipped": "process backend unsupported on this platform",
        });
    }
    let spec = pa_spec(m, seed);
    let config = ParallelConfig::new(BOOT_P).with_seed(seed);
    let part = Partitioner::hash_division(BOOT_P);
    let start = Instant::now();
    let out = try_parallel_edge_switch_proc_gen(&spec, t, &config, &part)
        .unwrap_or_else(|err| panic!("seed-boot run failed: {err}"));
    let secs = start.elapsed().as_secs_f64();
    json!({
        "mode": "proc-switch",
        "n": spec.num_vertices(),
        "m": out.graph.num_edges(),
        "raw_edges": PaStream::raw_edges(spec.num_vertices(), PA_D),
        "p": BOOT_P,
        "t": t,
        "performed": out.performed(),
        "elapsed_sec": secs,
        "switches_per_sec": out.performed() as f64 / secs,
    })
}

/// One full Curveball pass over the streamed-built graph: trades/sec at
/// scale for the alternative randomizer.
fn curveball(m: u64, seed: u64) -> Json {
    let spec = pa_spec(m, seed);
    let graph = spec.build().expect("PA spec is always realizable");
    let (n, m) = (graph.num_vertices(), graph.num_edges());
    let pass = (n / 2).max(1) as u64;
    let start = Instant::now();
    let mut eng = CurveballResumable::new(graph, Budget::Ops(pass), seed);
    eng.step();
    let secs = start.elapsed().as_secs_f64();
    json!({
        "mode": "curveball",
        "n": n,
        "m": m,
        "trades": eng.performed(),
        "neighbors_moved": eng.neighbors_moved(),
        "elapsed_sec": secs,
        "trades_per_sec": eng.performed() as f64 / secs,
    })
}

/// Per-case child re-entry hook: a no-op unless the genscale environment
/// variables are present, in which case it runs the case described by
/// `ENV_CASE`, writes the result JSON to `ENV_OUT`, and **exits the
/// process**. Binaries that drive this experiment route children here —
/// the `repro` binary at the top of `main`, the bench test binary
/// through an `#[ignore]`d `genscale_child_entry` hook test (the same
/// discipline as the process backend's `shm_child_entry`).
pub fn genscale_child_from_env() {
    let Ok(case) = std::env::var(ENV_CASE) else {
        return;
    };
    let out_path = std::env::var(ENV_OUT).expect("genscale child needs an output path");
    let case: Json = edgeswitch_json::parse(&case).expect("genscale case JSON parses");
    let result = run_case(&case);
    let body = result.to_json();
    std::fs::write(&out_path, body).expect("write genscale case result");
    std::process::exit(0);
}

/// Spawn the current binary on one case and collect its result row, so
/// `VmHWM` is measured per case. The argv routes libtest binaries into
/// the `genscale_child_entry` hook; binaries that call
/// [`genscale_child_from_env`] at the top of `main` never parse argv.
fn run_case_in_child(case: &Json) -> Json {
    let exe = std::env::current_exe().expect("current_exe for genscale child");
    let out_path = std::env::temp_dir().join(format!(
        "genscale-{}-{}-{}.json",
        std::process::id(),
        case["mode"].as_str().unwrap_or("case"),
        case["m"].as_u64().unwrap_or(0),
    ));
    let _ = std::fs::remove_file(&out_path);
    let status = std::process::Command::new(&exe)
        .args(["genscale_child_entry", "--include-ignored", "--nocapture"])
        .env(ENV_CASE, case.to_json())
        .env(ENV_OUT, &out_path)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("spawn genscale case child");
    assert!(
        status.success(),
        "genscale case child failed ({status}): {}",
        case.to_json()
    );
    let body = std::fs::read_to_string(&out_path).expect("genscale case result exists");
    let _ = std::fs::remove_file(&out_path);
    edgeswitch_json::parse(&body).expect("genscale case result parses")
}

/// The case modes per grid point, in run order.
const MODES: [&str; 5] = [
    "boot-materialized",
    "boot-streamed",
    "degseq-streamed",
    "proc-switch",
    "curveball",
];

/// `genscale` — the streaming pipeline at scale. `--quick` (scale < 1)
/// runs the m = 10⁶ column only (what the CI memory gate reads); the
/// full run sweeps `FULL_GRID` and stretches to `boot-streamed` at
/// 10⁸ when `MemAvailable` permits.
pub fn genscale(cfg: &ExpConfig) -> Report {
    let grid: Vec<u64> = if cfg.scale >= 1.0 {
        FULL_GRID.to_vec()
    } else {
        vec![QUICK_M]
    };
    genscale_with_grid(cfg, &grid, cfg.scale >= 1.0)
}

/// [`genscale`] over an explicit m grid (tests shrink it); `try_huge`
/// additionally attempts the 10⁸ `boot-streamed` stretch case.
pub fn genscale_with_grid(cfg: &ExpConfig, grid: &[u64], try_huge: bool) -> Report {
    let mut cases = Vec::new();
    for &m in grid {
        for mode in MODES {
            let case = json!({
                "mode": mode,
                "m": m,
                "seed": cfg.seed,
                "t": m / SWITCH_FRACTION,
            });
            cases.push(run_case_in_child(&case));
        }
    }
    if try_huge {
        match mem_available_kb() {
            Some(avail) if avail >= HUGE_MIN_AVAILABLE_KB => {
                let case = json!({"mode": "boot-streamed", "m": HUGE_M, "seed": cfg.seed});
                cases.push(run_case_in_child(&case));
            }
            avail => println!(
                "# genscale: skipping m={HUGE_M} stretch case \
                 (MemAvailable {avail:?} kB below {HUGE_MIN_AVAILABLE_KB} kB)"
            ),
        }
    }

    let rows: Vec<Vec<String>> = cases
        .iter()
        .map(|c| {
            let rate = ["gen_edges_per_sec", "switches_per_sec", "trades_per_sec"]
                .iter()
                .find_map(|k| c[*k].as_f64());
            let hwm_mib = c["vm_hwm_kb"].as_u64().map(|kb| kb as f64 / 1024.0);
            vec![
                c["m_target"].as_u64().map_or("-".into(), |v| v.to_string()),
                c["mode"].as_str().unwrap_or("?").to_string(),
                c["n"].as_u64().map_or("-".into(), |v| v.to_string()),
                c["m"].as_u64().map_or("-".into(), |v| v.to_string()),
                c["elapsed_sec"].as_f64().map_or("-".into(), |v| f(v, 2)),
                rate.map_or("-".into(), |v| f(v, 0)),
                hwm_mib.map_or("-".into(), |v| f(v, 1)),
                c["skipped"].as_str().unwrap_or("").to_string(),
            ]
        })
        .collect();
    let rendered = table(
        &[
            "m_target", "mode", "n", "m", "secs", "rate/s", "peakMiB", "note",
        ],
        &rows,
    );
    Report {
        id: "genscale".into(),
        title: "streaming generation at scale (per-case peak RSS)".into(),
        data: json!({
            "bench": "genscale",
            "metric": "edges_per_sec",
            "provenance": provenance(),
            "boot_p": BOOT_P,
            "cases": cases,
        }),
        rendered,
    }
}

/// `--gate-mem` over an already-computed genscale report: at the
/// smallest measured m, streamed construction peak RSS must stay at or
/// below `GATE_MEM_RATIO` × the materialized path's. Skips (`Ok` with
/// a notice) where `VmHWM` is unavailable (non-Linux). Returns the pass
/// or skip summary in `Ok`, a human-readable error in `Err`.
pub fn mem_gate(data: &Json) -> Result<String, String> {
    let cases = data["cases"]
        .as_arr()
        .ok_or("gate: genscale report has no cases")?;
    let hwm = |mode: &str| -> Option<(u64, u64)> {
        cases
            .iter()
            .filter(|c| c["mode"].as_str() == Some(mode))
            .filter_map(|c| Some((c["m_target"].as_u64()?, c["vm_hwm_kb"].as_u64()?)))
            .min()
    };
    let materialized = hwm("boot-materialized");
    let streamed = hwm("boot-streamed");
    let (Some((m_mat, kb_mat)), Some((m_str, kb_str))) = (materialized, streamed) else {
        if cases
            .iter()
            .all(|c| c["vm_hwm_kb"].as_u64().is_none() || c["skipped"].as_str().is_some())
        {
            return Ok("skipped: no VmHWM measurements (non-Linux)".into());
        }
        return Err("gate: missing boot-materialized / boot-streamed cases".into());
    };
    if m_mat != m_str {
        return Err(format!(
            "gate: construction cases measured at different m ({m_mat} vs {m_str})"
        ));
    }
    let ratio = kb_str as f64 / kb_mat as f64;
    if ratio > GATE_MEM_RATIO {
        return Err(format!(
            "streamed-construction memory regression at m={m_mat}: peak RSS \
             {kb_str} kB is {ratio:.2}x the materialized path's {kb_mat} kB \
             (ceiling {GATE_MEM_RATIO}x)"
        ));
    }
    Ok(format!(
        "streamed construction at {ratio:.2}x materialized peak RSS \
         ({kb_str} kB vs {kb_mat} kB at m={m_mat})"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny m: the point is the child-spawn plumbing and the report
    /// schema, not the at-scale numbers.
    const SMOKE_M: u64 = 30_000;

    #[test]
    fn genscale_smoke_spawns_children_and_reports_schema() {
        let cfg = ExpConfig {
            scale: 0.02,
            reps: 1,
            seed: 9,
            timeline: false,
        };
        let r = genscale_with_grid(&cfg, &[SMOKE_M], false);
        assert_eq!(r.id, "genscale");
        assert_eq!(r.data["bench"].as_str(), Some("genscale"));
        let cases = r.data["cases"].as_arr().unwrap();
        assert_eq!(cases.len(), MODES.len());
        for c in cases {
            assert_eq!(c["m_target"].as_u64(), Some(SMOKE_M));
            if c["skipped"].as_str().is_some() {
                continue;
            }
            assert!(c["elapsed_sec"].as_f64().unwrap() > 0.0);
            if cfg!(target_os = "linux") {
                assert!(c["vm_hwm_kb"].as_u64().unwrap() > 0);
            }
        }
        // The construction trio reports generation rates; the e2e cases
        // report their engine's native rate.
        let rate_key = |mode: &str| match mode {
            "proc-switch" => "switches_per_sec",
            "curveball" => "trades_per_sec",
            _ => "gen_edges_per_sec",
        };
        for c in cases {
            if c["skipped"].as_str().is_some() {
                continue;
            }
            let mode = c["mode"].as_str().unwrap();
            assert!(
                c[rate_key(mode)].as_f64().unwrap() > 0.0,
                "{mode} missing its rate"
            );
        }
        assert!(r.rendered.contains("peakMiB"));
    }

    #[test]
    fn streamed_case_holds_one_share_of_the_materialized_split() {
        // The memory claim in edge counts (robust at any scale, unlike
        // RSS): the streamed store holds rank 0's share only, and the
        // two paths agree on what that share is.
        let mat = run_case(&json!({"mode": "boot-materialized", "m": SMOKE_M, "seed": 5}));
        let s = run_case(&json!({"mode": "boot-streamed", "m": SMOKE_M, "seed": 5}));
        let split = mat["split_edges"].as_u64().unwrap();
        assert_eq!(mat["m"].as_u64().unwrap(), split, "split covers the graph");
        let share = s["m"].as_u64().unwrap();
        assert!(share < split, "rank 0 holds a strict subset");
        assert!(2 * share > split / 2, "hash split is roughly balanced");
        assert_eq!(mat["raw_edges"], s["raw_edges"], "same raw stream");
    }

    #[test]
    fn mem_gate_reads_the_report_schema() {
        let ok = json!({"cases": [
            {"mode": "boot-materialized", "m_target": 1000, "vm_hwm_kb": 100_000},
            {"mode": "boot-streamed", "m_target": 1000, "vm_hwm_kb": 40_000},
        ]});
        assert!(mem_gate(&ok).unwrap().contains("0.40x"));
        let bad = json!({"cases": [
            {"mode": "boot-materialized", "m_target": 1000, "vm_hwm_kb": 100_000},
            {"mode": "boot-streamed", "m_target": 1000, "vm_hwm_kb": 90_000},
        ]});
        assert!(mem_gate(&bad).unwrap_err().contains("memory regression"));
        // No VmHWM anywhere (non-Linux) → skip, not failure.
        let none = json!({"cases": [
            {"mode": "boot-materialized", "m_target": 1000},
            {"mode": "boot-streamed", "m_target": 1000},
        ]});
        assert!(mem_gate(&none).unwrap().contains("skipped"));
        assert!(mem_gate(&json!({})).is_err());
    }

    #[test]
    fn seed_boot_proc_run_matches_the_materialized_launch() {
        // The gen-boot conformance claim: a process world booted from
        // the O(1) spec starts from the same per-rank pools, in the same
        // pool (= sampling) order, as one booted from the materialized
        // edge list — checked on the stores themselves at every p. At
        // p = 1 there is no cross-rank interleaving, so the two runs are
        // then the same randomization bit for bit; at p = 2 the message
        // interleaving is the OS's (DESIGN.md §4g), so two process runs
        // of one job need not end in the same graph, and only what
        // `(spec, t, config)` fixes must agree.
        if !process_backend_supported() {
            return;
        }
        let spec = pa_spec(2_000, 77);
        let graph = spec.build().expect("materialize the same spec");
        let t = 500;
        for p in [1usize, 2] {
            let config = ParallelConfig::new(p).with_seed(13);
            let part = Partitioner::hash_division(p);
            for (rank, mat) in build_stores(&graph, &part).iter().enumerate() {
                let mut stream = spec.stream().expect("spec is realizable");
                let gen = build_rank_store_streamed(&mut *stream, &part, rank);
                assert!(
                    gen.iter().eq(mat.iter()),
                    "p={p}: rank {rank} boots from a different pool"
                );
            }
            let gen =
                try_parallel_edge_switch_proc_gen(&spec, t, &config, &part).expect("seed-boot run");
            let mat = edgeswitch_core::Run::process(p)
                .switches(t)
                .prepared(config, Some(part))
                .execute(&graph)
                .into_parallel()
                .expect("materialized run");
            assert_eq!(gen.initial_edges, mat.initial_edges, "p={p}");
            assert_eq!(gen.performed(), mat.performed(), "p={p}");
            // Degree sequence is preserved through the seed-boot run.
            assert_eq!(gen.graph.degree_sequence(), graph.degree_sequence());
            if p == 1 {
                assert_eq!(gen.graph.edge_digest(), mat.graph.edge_digest());
                assert_eq!(gen.per_rank, mat.per_rank);
            }
        }
    }
}
