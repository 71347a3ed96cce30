//! `perfbench` — the repository's benchmark: six workloads, four
//! end-to-end metrics, and a per-layer ledger measured from outside the
//! program. See `README.md` beside this crate; `run.py` builds and
//! drives this binary.
//!
//! One invocation measures one workload in one process (so `VmHWM` is
//! that workload's own) and prints every metric by name and unit, then
//! one JSON object as the last line of standard output.

mod api;
mod kernels;
mod ledger;
mod stats;
mod trace;
mod workloads;

use stats::{median, timed, vm_hwm_kib};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workloads::{Kind, Ready, Trial, Workload, WORKLOADS};

/// `(name, unit, better)` of every end-to-end metric, printed by
/// `--trace 0`. Bounds live in `BENCHMARK.json`.
const END_TO_END: [(&str, &str, &str); 4] = [
    ("setup_s", "s", "lower"),
    ("time_to_target_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
];

/// `(name, unit, better)` of every per-layer metric, printed by
/// `--trace 1`. A metric whose layer the workload never enters reads 0.
const PER_LAYER: [(&str, &str, &str); 67] = [
    ("graph.generators.gen_s", "s", "lower"),
    ("graph.generators.raw_edges_per_s", "1/s", "higher"),
    ("graph.from_stream_s", "s", "lower"),
    ("graph.clone_s", "s", "lower"),
    ("graph.partition.build_s", "s", "lower"),
    ("graph.store.build_stores_s", "s", "lower"),
    ("graph.store.build_rank_streamed_s", "s", "lower"),
    ("graph.store.assemble_s", "s", "lower"),
    ("graph.edge_digest_s", "s", "lower"),
    ("graph.sampling.sample_ns", "ns", "lower"),
    ("graph.sampling.remove_insert_ns", "ns", "lower"),
    ("graph.adjacency.contains_ns", "ns", "lower"),
    ("graph.adjacency.insert_remove_ns", "ns", "lower"),
    ("graph.hashing.probe_ns", "ns", "lower"),
    ("dist.rng.block_next_ns", "ns", "lower"),
    ("dist.binomial.draw_ns", "ns", "lower"),
    ("dist.multinomial.quota_us", "us", "lower"),
    ("core.sequential.attempts", "count", "lower"),
    ("core.sequential.accept_ratio", "ratio", "higher"),
    ("core.sequential.sample_share", "ratio", "lower"),
    ("core.sequential.legality_share", "ratio", "lower"),
    ("core.sequential.apply_share", "ratio", "lower"),
    ("core.parallel.msg_wait_share", "ratio", "lower"),
    ("core.parallel.step_barrier_share", "ratio", "lower"),
    ("core.parallel.q_refresh_share", "ratio", "lower"),
    ("core.parallel.local_fastpath_share", "ratio", "higher"),
    ("core.parallel.parked", "count", "lower"),
    ("core.parallel.packets_per_switch", "count", "lower"),
    ("core.parallel.logical_msgs_per_switch", "count", "lower"),
    ("core.parallel.efficiency_vs_seq", "ratio", "higher"),
    (
        "core.parallel.sim4.logical_msgs_per_switch",
        "count",
        "lower",
    ),
    ("core.parallel.sim4.packets_per_switch", "count", "lower"),
    ("core.parallel.sim4.local_fastpath_share", "ratio", "higher"),
    ("core.parallel.sim4.abort_ratio", "ratio", "lower"),
    ("core.parallel.sim4.blocked_per_kswitch", "count", "lower"),
    ("core.parallel.sim4.steps", "count", "lower"),
    ("core.wire.encode_ns_per_msg", "ns", "lower"),
    ("core.wire.decode_ns_per_msg", "ns", "lower"),
    ("core.wire.bytes_per_msg", "bytes", "lower"),
    ("shm.ring.push_pop_ns", "ns", "lower"),
    ("shm.ring.pingpong_us", "us", "lower"),
    ("core.proc.fixed_cost_s", "s", "lower"),
    ("mpi.pingpong_us", "us", "lower"),
    ("mpi.allgather_us", "us", "lower"),
    ("core.trade.trades_per_s", "1/s", "higher"),
    ("core.trade.passes", "count", "lower"),
    ("core.trade.neighbors_moved_per_trade", "count", "lower"),
    ("core.trade.ns_per_neighbor_moved", "ns", "lower"),
    ("core.trade.trade_shuffle_share", "ratio", "lower"),
    ("core.resume.chunked_overhead_ratio", "ratio", "lower"),
    ("core.resume.snapshot_encode_ms", "ms", "lower"),
    ("core.resume.snapshot_bytes_per_edge", "bytes", "lower"),
    ("svc.json.parse_us_per_kb", "us", "lower"),
    ("svc.ckpt.save_snapshot_ms", "ms", "lower"),
    ("svc.ckpt.bytes_written_per_job", "bytes", "lower"),
    ("svc.ping_rtt_us", "us", "lower"),
    ("svc.queue_wait_p50_ms", "ms", "lower"),
    ("svc.turnaround_p80_ms", "ms", "lower"),
    ("svc.jobs_refused", "count", "lower"),
    ("mem.graph_bytes_per_edge", "bytes", "lower"),
    ("mem.stores_bytes_per_edge", "bytes", "lower"),
    ("mem.peak_bytes_per_edge", "bytes", "lower"),
    ("core.obs.spans_overhead_ratio", "ratio", "lower"),
    ("stage.traced_time_to_target_s", "s", "lower"),
    ("stage.fixed_cost_s", "s", "lower"),
    ("stage.switching_share", "ratio", "higher"),
    ("stage.engine_self_share", "ratio", "higher"),
];

/// Per-layer metrics that must repeat bit for bit for a given seed.
const EXACT: [&str; 13] = [
    "core.sequential.attempts",
    "core.sequential.accept_ratio",
    "core.parallel.sim4.logical_msgs_per_switch",
    "core.parallel.sim4.packets_per_switch",
    "core.parallel.sim4.local_fastpath_share",
    "core.parallel.sim4.abort_ratio",
    "core.parallel.sim4.blocked_per_kswitch",
    "core.parallel.sim4.steps",
    "core.wire.bytes_per_msg",
    "core.trade.passes",
    "core.trade.neighbors_moved_per_trade",
    "core.resume.snapshot_bytes_per_edge",
    "svc.jobs_refused",
];

/// What one run found.
#[derive(Default)]
pub struct Report {
    /// Trials, jobs and ledger runs whose output was checked.
    pub attempted: u64,
    /// Those that failed the check.
    pub failed: u64,
    /// Why each one failed.
    pub failures: Vec<String>,
    /// Free-form remarks printed with the metrics.
    pub notes: Vec<String>,
    /// Metric values by name.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// Record one failed check.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Count one trial, failed or not.
    pub fn count(&mut self, trial: &Trial) {
        self.attempted += 1;
        if let Some(why) = &trial.error {
            self.fail(why.clone());
        }
    }

    fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// The last line of standard output: one JSON object holding every
    /// metric of `defs`.
    fn to_json(&self, defs: &[(&str, &str, &str)]) -> String {
        let metrics: Vec<String> = defs
            .iter()
            .map(|(name, unit, _)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    self.value(name)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Set-ups per run; `setup_s` is their median.
const SET_UPS: usize = 5;

/// The untraced run (`--trace 0`): set up, warm up, then timed trials
/// for `seconds`.
fn end_to_end(w: &Workload, seed: u64, seconds: f64, smoke: bool, out_dir: &Path) -> Report {
    let mut report = Report::default();
    let mut set_ups = Vec::new();
    let mut ready: Option<Ready> = None;
    for _ in 0..SET_UPS {
        if let Some(previous) = ready.take() {
            previous.tear_down();
        }
        let (secs, fresh) = timed(|| Ready::set_up(w, seed, smoke, out_dir));
        set_ups.push(secs);
        ready = Some(fresh);
    }
    let ready = ready.expect("SET_UPS >= 1");
    let warm = ready.warm_up(w);
    report.count(&warm);
    let reference = warm.error.is_none().then_some(warm.digest);

    let budget = Duration::from_secs_f64(seconds);
    let min_trials = if smoke { 2 } else { 3 };
    let mut trials = Vec::new();
    let start = Instant::now();
    if let Some(server) = &ready.server {
        let reference = reference.unwrap_or(0);
        let (jobs, _) = workloads::svc_loop(server, w, &ready.input, budget, min_trials, reference);
        trials.extend(jobs.into_iter().map(|job| job.trial));
    } else {
        while trials.len() < min_trials || start.elapsed() < budget {
            trials.push(workloads::trial(w, &ready.input, false, reference));
        }
    }
    let makespan = start.elapsed().as_secs_f64();
    let peak_kib = vm_hwm_kib();
    if ready.server.is_some() {
        report.count(&ready.closing_job(w, reference.unwrap_or(0)));
    }
    ready.tear_down();

    for t in &trials {
        report.count(t);
    }
    let secs: Vec<f64> = trials.iter().map(|t| t.secs).collect();
    let performed: Vec<f64> = trials.iter().map(|t| t.performed as f64).collect();
    let time_to_target = median(&secs);
    let ops_per_s = if w.kind == Kind::Svc {
        performed.iter().sum::<f64>() / makespan
    } else {
        median(&performed) / time_to_target
    };
    let each: Vec<String> = secs.iter().map(|s| format!("{s:.3}")).collect();
    report.notes.push(format!(
        "{} timed {} in {makespan:.2} s, seconds of each: {}",
        trials.len(),
        if w.kind == Kind::Svc {
            "jobs"
        } else {
            "trials"
        },
        each.join(" "),
    ));
    report.metrics = vec![
        ("setup_s", median(&set_ups)),
        ("time_to_target_s", time_to_target),
        ("ops_per_s", ops_per_s),
        ("peak_rss_mib", peak_kib / 1024.0),
    ];
    report
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out_dir: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <name> [--seed N] [--seconds S] \
                     [--trace 0|1] [--smoke] [--out-dir DIR] | perfbench --list";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: &WORKLOADS[0],
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from("perfbench/out"),
    };
    let mut named = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Workload::by_name(name).ok_or(format!("unknown workload '{name}'"))?;
                named = true;
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
            }
            "--trace" => args.trace = value()? == "1",
            "--smoke" => args.smoke = true,
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !named {
        return Err("--workload is required".to_string());
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".to_string());
    }
    Ok(args)
}

fn main() {
    // Rank children of the process backend re-enter here and never return.
    api::child_entry_from_env();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--list"] {
        for w in &WORKLOADS {
            println!("{}\t{}", w.name, w.why);
        }
        return;
    }
    let args = parse_args(&argv).unwrap_or_else(|err| {
        eprintln!("perfbench: {err}\n{USAGE}");
        std::process::exit(2);
    });
    std::fs::create_dir_all(&args.out_dir).expect("create the output directory");
    let w = args.workload;
    let (mut report, defs): (Report, &[_]) = if args.trace {
        let r = ledger::run(w, args.seed, args.seconds, args.smoke, &args.out_dir);
        (r, &PER_LAYER)
    } else {
        let r = end_to_end(w, args.seed, args.seconds, args.smoke, &args.out_dir);
        (r, &END_TO_END)
    };
    for (name, value) in report.metrics.clone() {
        if !defs.iter().any(|(n, _, _)| *n == name) {
            report.fail(format!("metric {name} is not in the benchmark's list"));
        }
        if !value.is_finite() {
            report.fail(format!("metric {name} is not finite"));
        }
    }
    report.metrics.retain(|(_, v)| v.is_finite());

    println!(
        "# {} seed {} trace {}",
        w.name,
        args.seed,
        u8::from(args.trace)
    );
    for (name, unit, _) in defs {
        let exact = if EXACT.contains(name) {
            "  (exact)"
        } else {
            ""
        };
        println!("{name} = {} {unit}{exact}", report.value(name));
    }
    for note in &report.notes {
        println!("# {note}");
    }
    for why in &report.failures {
        println!("# FAILED: {why}");
    }
    println!("{}", report.to_json(defs));
}

#[cfg(test)]
mod tests;
