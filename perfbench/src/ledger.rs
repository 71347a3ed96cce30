//! The traced run (`--trace 1`): the per-layer ledger of one workload.
//!
//! Separate from the run that produces the end-to-end numbers. It
//! alternates plain and observed trials (their ratio is the tracing
//! overhead), times each pipeline stage as a standalone public call on
//! the workload's own input inside a span, runs the kernel rows and the
//! seed-deterministic counter ledgers, and writes the spans to
//! `<out>/<workload>.trace.json` when it ends.
//!
//! A stage the engine repeats internally (the store build inside
//! `Run::parallel`, say) cannot be timed from outside the call, so the
//! standalone timing of the same call on the same input stands in for
//! it: `stage.engine_self_share` is the observed engine time minus those
//! stand-ins, and `stage.switching_share` is one minus the cost of the
//! same front door on a one-operation budget.

use crate::api::*;
use crate::kernels::{self, Rows};
use crate::stats::{median, percentile, timed, vm_hwm_kib, vm_rss_kib, written_bytes};
use crate::trace::Tracer;
use crate::workloads::{self, Input, Kind, Ready, Trial, Workload, P};
use crate::Report;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Repetitions of each stage row, fixed-cost probe and baseline.
const STAGE_REPS: u32 = 3;

/// Samples per per-layer metric; the ledger reports each one's median.
#[derive(Default)]
struct Ledger(BTreeMap<&'static str, Vec<f64>>);

impl Ledger {
    fn add(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn extend(&mut self, rows: Rows) {
        for (name, value) in rows {
            self.add(name, value);
        }
    }

    fn median_of(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v))
    }
}

/// The standalone stage rows on `input`, each repetition in its own
/// span under a `stages` root.
fn stages(input: &Input, tracer: &mut Tracer, ledger: &mut Ledger) {
    let graph = &input.graph;
    let n = graph.num_vertices();
    let part = Partitioner::hash_division(P);
    for rep in 0..STAGE_REPS {
        tracer.span("stages", rep, None, |tr, root| {
            let mut stage = |name: &'static str, f: &mut dyn FnMut()| {
                let (secs, ()) = tr.span(name, rep, Some(root), |_, _| f());
                ledger.add(name, secs);
                secs
            };
            let mut raw = 0usize;
            let gen = stage("graph.generators.gen_s", &mut || {
                let mut stream = input.spec.stream().expect("PA specs are always realizable");
                let mut chunk = Vec::new();
                raw = 0;
                while stream.next_chunk(&mut chunk) {
                    raw += chunk.len();
                }
            });
            stage("graph.from_stream_s", &mut || {
                std::hint::black_box(input.spec.build().expect("PA spec"));
            });
            stage("graph.clone_s", &mut || {
                std::hint::black_box(graph.clone());
            });
            // The workloads partition by hash (O(1) to build); this row is
            // the default consecutive scheme, which scans the graph.
            stage("graph.partition.build_s", &mut || {
                std::hint::black_box(Partitioner::consecutive(graph, P));
            });
            let mut stores = Vec::new();
            stage("graph.store.build_stores_s", &mut || {
                stores = build_stores(graph, &part);
            });
            stage("graph.store.build_rank_streamed_s", &mut || {
                let mut stream = input.spec.stream().expect("PA spec");
                std::hint::black_box(build_rank_store_streamed(&mut *stream, &part, 0));
            });
            stage("graph.store.assemble_s", &mut || {
                std::hint::black_box(assemble_graph(n, &stores));
            });
            stage("graph.edge_digest_s", &mut || {
                std::hint::black_box(graph.edge_digest());
            });
            ledger.add("graph.generators.raw_edges_per_s", raw as f64 / gen);
        });
    }
}

/// The stage rows the workload's engine repeats inside its timed call.
fn repeated_stages(kind: Kind) -> &'static [&'static str] {
    match kind {
        Kind::SeqSwitch | Kind::Curveball => &["graph.clone_s"],
        Kind::ThrSwitch | Kind::ProcSwitch => {
            &["graph.store.build_stores_s", "graph.store.assemble_s"]
        }
        // Both ranks replay the stream side by side: one rank's build is
        // the wall time of the pair.
        Kind::GenBoot => &[
            "graph.store.build_rank_streamed_s",
            "graph.store.assemble_s",
            "graph.edge_digest_s",
        ],
        Kind::Svc => &["graph.from_stream_s"],
    }
}

/// Counter rows of a simulated 4-rank run at visit rate 0.1: the only
/// place the three-rank conversation is exercised on a 2-core box.
/// Exact per seed.
fn sim4(input: &Input) -> Result<Rows, String> {
    let out = Run::simulated(4)
        .scheme(SchemeKind::HashDivision)
        .visit_rate(0.1)
        .seed(input.run_seed)
        .try_execute(&input.graph)
        .map_err(|err| err.to_string())?
        .into_parallel()
        .expect("simulated runs are parallel outcomes");
    input.check_graph(&out.graph)?;
    let performed = out.performed().max(1) as f64;
    let aborts: u64 = out.per_rank.iter().map(|s| s.aborts()).sum();
    let fastpath: u64 = out.telemetry.iter().map(|s| s.local_fastpath).sum();
    Ok(vec![
        (
            "core.parallel.sim4.logical_msgs_per_switch",
            out.logical_msg_totals().total() as f64 / performed,
        ),
        (
            "core.parallel.sim4.packets_per_switch",
            out.packet_total() as f64 / performed,
        ),
        (
            "core.parallel.sim4.local_fastpath_share",
            fastpath as f64 / performed,
        ),
        (
            "core.parallel.sim4.abort_ratio",
            aborts as f64 / (performed + aborts as f64),
        ),
        (
            "core.parallel.sim4.blocked_per_kswitch",
            out.blocked_events() as f64 * 1e3 / performed,
        ),
        ("core.parallel.sim4.steps", out.steps as f64),
    ])
}

/// Pass and neighbour counts of the Curveball workload. The sequential
/// front door reports trades only; the one-rank simulated driver runs
/// the same trades bit for bit (checked against `reference`) and counts
/// what they moved. Exact per seed.
fn trade_counts(w: &Workload, input: &Input, reference: u64, secs: f64) -> Result<Rows, String> {
    let out = Run::simulated(1)
        .randomizer(Randomizer::Curveball)
        .visit_rate(w.visit)
        .seed(input.run_seed)
        .try_execute(&input.graph)
        .map_err(|err| err.to_string())?
        .into_parallel()
        .expect("simulated runs are parallel outcomes");
    if out.graph.edge_digest() != reference {
        return Err("simulated and sequential Curveball outputs differ".to_string());
    }
    let trades: u64 = out.telemetry.iter().map(|s| s.trades).sum();
    let moved: u64 = out.telemetry.iter().map(|s| s.neighbors_moved).sum();
    Ok(vec![
        ("core.trade.passes", out.steps as f64),
        (
            "core.trade.neighbors_moved_per_trade",
            moved as f64 / trades.max(1) as f64,
        ),
        (
            "core.trade.ns_per_neighbor_moved",
            secs * 1e9 / moved.max(1) as f64,
        ),
    ])
}

/// Seconds of the workload's front door on a one-operation budget:
/// everything it does except the switch loop.
fn fixed_cost(w: &Workload, ready: &Ready) -> Result<f64, String> {
    let input = &ready.input;
    let (secs, result) = match w.kind {
        Kind::Curveball => timed(|| {
            std::hint::black_box(input.graph.clone());
            Ok(())
        }),
        Kind::GenBoot => timed(|| {
            workloads::gen_boot(input, 1).map(|out| {
                std::hint::black_box(out.graph.edge_digest());
            })
        }),
        Kind::Svc => {
            let job = workloads::svc_one_op_job(ready, w);
            (job.trial.secs, job.trial.error.map_or(Ok(()), Err))
        }
        _ => {
            let run = workloads::front_door(w, input, false, Some(1));
            timed(|| {
                run.try_execute(&input.graph)
                    .map(|out| {
                        std::hint::black_box(out);
                    })
                    .map_err(|err| err.to_string())
            })
        }
    };
    result.map(|()| secs)
}

/// Run the traced ledger of `w`.
pub fn run(w: &Workload, seed: u64, seconds: f64, smoke: bool, out_dir: &Path) -> Report {
    let mut ledger = Ledger::default();
    let mut tracer = Tracer::new();
    let mut report = Report::default();

    // Memory: resident-set growth around the input build and the store split.
    let rss_start = vm_rss_kib();
    let ready = Ready::set_up(w, seed, smoke, out_dir);
    let input = &ready.input;
    let m = input.graph.num_edges() as f64;
    let rss_graph = vm_rss_kib();
    let stores = build_stores(&input.graph, &Partitioner::hash_division(P));
    let rss_stores = vm_rss_kib();
    drop(stores);
    ledger.add(
        "mem.graph_bytes_per_edge",
        (rss_graph - rss_start) * 1024.0 / m,
    );
    ledger.add(
        "mem.stores_bytes_per_edge",
        (rss_stores - rss_graph) * 1024.0 / m,
    );

    // Plain and observed trials, alternating.
    let warm = ready.warm_up(w);
    let reference = warm.error.is_none().then_some(warm.digest);
    report.count(&warm);
    let budget = Duration::from_secs_f64(seconds / 2.0);
    let pairs = if smoke { 1 } else { 2 };
    let written_before = written_bytes();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    if w.kind == Kind::Svc {
        let reference = reference.unwrap_or(0);
        let server = ready
            .server
            .as_ref()
            .expect("service workloads hold a server");
        let (jobs, _) = workloads::svc_loop(server, w, input, budget, pairs, reference);
        let mut refused = jobs.iter().filter(|job| job.refused).count();
        plain.extend(jobs.into_iter().map(|job| job.trial));
        let (jobs, _) = workloads::svc_loop(server, w, input, budget, pairs, reference);
        refused += jobs.iter().filter(|job| job.refused).count();
        ledger.add("svc.jobs_refused", refused as f64);
        for (i, job) in jobs.into_iter().enumerate() {
            let [submit, admitted, running, done, fetched] = job.marks;
            let root = tracer.record("trial", i as u32, None, submit, fetched);
            for (name, from, to) in [
                ("svc.submit", submit, admitted),
                ("svc.queue_wait", admitted, running),
                ("engine", running, done),
                ("svc.result_fetch", done, fetched),
            ] {
                tracer.record(name, i as u32, Some(root), from, to);
            }
            traced.push(job.trial);
        }
        let jobs = (plain.len() + traced.len()).max(1) as f64;
        ledger.add(
            "svc.ckpt.bytes_written_per_job",
            (written_bytes() - written_before) / jobs,
        );
        let turnarounds: Vec<f64> = plain.iter().chain(&traced).map(|t| t.secs * 1e3).collect();
        ledger.add("svc.turnaround_p80_ms", percentile(&turnarounds, 0.8));
        report.notes.push(format!(
            "svc.turnaround_p80_ms is the nearest-rank p80 of {} job turnarounds",
            turnarounds.len()
        ));
    } else {
        let start = Instant::now();
        while plain.len() < pairs || start.elapsed() < budget {
            plain.push(workloads::trial(w, input, false, reference));
            let i = traced.len() as u32;
            let t = workloads::trial(w, input, true, reference);
            let root = tracer.record("trial", i, None, t.started, Instant::now());
            let end = t.started + Duration::from_secs_f64(t.secs);
            tracer.record("engine", i, Some(root), t.started, end);
            traced.push(t);
        }
    }
    ledger.add("mem.peak_bytes_per_edge", vm_hwm_kib() * 1024.0 / m);
    if ready.server.is_some() {
        report.count(&ready.closing_job(w, reference.unwrap_or(0)));
    }
    for t in plain.iter().chain(&traced) {
        report.count(t);
    }
    let secs_of = |trials: &[Trial]| median(&trials.iter().map(|t| t.secs).collect::<Vec<_>>());
    let (plain_secs, traced_secs) = (secs_of(&plain), secs_of(&traced));
    ledger.add("core.obs.spans_overhead_ratio", traced_secs / plain_secs);
    ledger.add("stage.traced_time_to_target_s", traced_secs);
    // Observed trials carry the phase shares; counts repeat in both kinds.
    for t in traced {
        ledger.extend(t.layers);
    }

    // Where the time goes: fixed cost, standalone stages, engine self time.
    let mut check = |what: &str, result: Result<Rows, String>, ledger: &mut Ledger| {
        report.attempted += 1;
        match result {
            Ok(rows) => ledger.extend(rows),
            Err(why) => report.fail(format!("{what}: {why}")),
        }
    };
    for _ in 0..STAGE_REPS {
        let fixed = fixed_cost(w, &ready).map(|secs| vec![("stage.fixed_cost_s", secs)]);
        check("one-operation run", fixed, &mut ledger);
    }
    let fixed = ledger.median_of("stage.fixed_cost_s");
    if matches!(w.kind, Kind::ProcSwitch | Kind::GenBoot) {
        // On the process backend that probe is spawn + boot + assemble.
        ledger.add("core.proc.fixed_cost_s", fixed);
    }
    ledger.add("stage.switching_share", 1.0 - fixed / plain_secs);
    stages(input, &mut tracer, &mut ledger);
    let repeated: f64 = repeated_stages(w.kind)
        .iter()
        .map(|name| ledger.median_of(name))
        .sum();
    ledger.add("stage.engine_self_share", 1.0 - repeated / traced_secs);

    // Counter ledgers and baselines.
    check("simulated 4-rank run", sim4(input), &mut ledger);
    if let (Kind::Curveball, Some(reference)) = (w.kind, reference) {
        let counts = trade_counts(w, input, reference, plain_secs);
        check("simulated 1-rank Curveball", counts, &mut ledger);
    }
    if matches!(w.kind, Kind::ThrSwitch | Kind::ProcSwitch) {
        let run = Run::sequential().switches(input.t).seed(input.run_seed);
        let seq: Vec<f64> = (0..STAGE_REPS)
            .map(|_| timed(|| run.try_execute(&input.graph).expect("sequential baseline")).0)
            .collect();
        let efficiency = median(&seq) / (P as f64 * plain_secs);
        ledger.add("core.parallel.efficiency_vs_seq", efficiency);
    }
    // Kernel rows on the workload's own graph.
    let step_ops = (input.t / 100).max(1);
    ledger.extend(kernels::hot_loop(&input.graph, input.run_seed, step_ops));
    ledger.extend(kernels::transports());
    let chunk_budget = switch_ops_for_visit_rate(input.graph.num_edges() as u64, 0.1);
    let (rows, snapshot) = kernels::resume(&input.graph, chunk_budget, input.run_seed);
    ledger.extend(rows);
    ledger.extend(kernels::service(&snapshot, out_dir));

    let trace_path = out_dir.join(format!("{}.trace.json", w.name));
    std::fs::write(&trace_path, tracer.to_json(w.name, seed)).expect("write the span file");
    report.notes.push(format!(
        "spans: {} written to {}; engine self time = observed engine time minus the \
         standalone timings of {:?}",
        tracer.spans.len(),
        trace_path.display(),
        repeated_stages(w.kind),
    ));
    ready.tear_down();
    report.metrics = ledger
        .0
        .iter()
        .map(|(name, samples)| (*name, median(samples)))
        .collect();
    report
}
