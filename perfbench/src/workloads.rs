//! The six workloads: their inputs, their one timed front-door call, and
//! the verification of what it returns.

use crate::api::*;
use crate::kernels::Rows;
use crate::stats::splitmix64;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Edges per arriving vertex of every preferential-attachment input.
const PA_D: usize = 10;

/// Ranks of the parallel workloads: one per core of the 2-core box.
pub const P: usize = 2;

/// Vertices at `--smoke` scale (m ≈ 2·10⁴) — plumbing, not numbers.
const SMOKE_N: usize = 2_000;

/// Which front door a workload times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `Run::sequential` switches.
    SeqSwitch,
    /// `Run::parallel(2)` switches over the thread transport.
    ThrSwitch,
    /// `Run::process(2)` switches over shm rings.
    ProcSwitch,
    /// `try_parallel_edge_switch_proc_gen` from an O(1) spec, then digest.
    GenBoot,
    /// `Run::sequential` Curveball trades.
    Curveball,
    /// Jobs through an in-process `Server`, closed loop of two clients.
    Svc,
}

/// One benchmark workload.
pub struct Workload {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it is in the benchmark (one line, also in `BENCHMARK.json`).
    pub why: &'static str,
    /// The front door it times.
    pub kind: Kind,
    /// Vertices of its input graph (m ≈ 10 n).
    n: usize,
    /// Target visit rate.
    pub visit: f64,
}

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "seq-switch-pa1m",
        why: "Algorithm 1 alone at m=1e6: EdgePool, NeighborSet, Fx map and BlockRng64 do all the work; baseline for the p=2 rows",
        kind: Kind::SeqSwitch,
        n: 100_000,
        visit: 0.9,
    },
    Workload {
        name: "thr-switch-pa250k-p2",
        why: "the section-4 protocol on 2 thread ranks: rank.rs, message wait, step barrier, build_stores and assemble_graph; no wire codec, no shm",
        kind: Kind::ThrSwitch,
        n: 25_000,
        visit: 0.9,
    },
    Workload {
        name: "proc-switch-pa250k-p2",
        why: "the same protocol on 2 rank processes: wire codec, shm rings and process boot, which the threaded row bypasses",
        kind: Kind::ProcSwitch,
        n: 25_000,
        visit: 0.9,
    },
    Workload {
        name: "genboot-proc-pa1m-p2",
        why: "generate, rank-streamed store build and assemble dominate (visit rate 0.1, switching under half): the stage-cost and bytes-per-edge row",
        kind: Kind::GenBoot,
        n: 100_000,
        visit: 0.1,
    },
    Workload {
        name: "seq-curveball-pa500k",
        why: "adjacency used the other way: bulk neighbourhood rewrite and shuffle instead of point probes, so a probe-only layout win shows as a loss here",
        kind: Kind::Curveball,
        n: 50_000,
        visit: 1.0,
    },
    Workload {
        name: "svc-jobs-pa100k",
        why: "the chunked resumable engine, svc JSON and checkpoint I/O under a closed loop of 2 clients: the switch loop in 4096-op chunks with snapshots",
        kind: Kind::Svc,
        n: 10_000,
        visit: 0.9,
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Whether equal seeds must give equal outputs (one rank, no races).
    pub fn deterministic(&self) -> bool {
        matches!(self.kind, Kind::SeqSwitch | Kind::Curveball | Kind::Svc)
    }
}

/// A workload's generated input. `--seed` reaches the program only
/// through `spec` (generator seed) and `run_seed`.
pub struct Input {
    /// The O(1) recipe of the input graph.
    pub spec: StreamSpec,
    /// The materialized input (the reference for verification, and the
    /// argument of every front door that takes a `&Graph`).
    pub graph: Graph,
    degrees: Vec<usize>,
    /// Seed handed to the run.
    pub run_seed: u64,
    /// Switch operations the visit-rate target resolves to.
    pub t: u64,
}

impl Input {
    /// Generate the input of `w` for `--seed seed`.
    pub fn generate(w: &Workload, seed: u64, smoke: bool) -> Input {
        // 52-bit seeds: the service's wire format keeps integers below 2^53.
        let graph_seed = splitmix64(seed) >> 12;
        let spec = StreamSpec::Pa {
            n: if smoke { SMOKE_N } else { w.n },
            d: PA_D,
            seed: graph_seed,
        };
        let graph = spec.build().expect("PA specs are always realizable");
        Input {
            degrees: graph.degree_sequence(),
            t: switch_ops_for_visit_rate(graph.num_edges() as u64, w.visit),
            run_seed: splitmix64(graph_seed) >> 12,
            spec,
            graph,
        }
    }

    /// Degree sequence preserved and every structural invariant holds.
    pub fn check_graph(&self, out: &Graph) -> Result<(), String> {
        if out.degree_sequence() != self.degrees {
            return Err("degree sequence changed".to_string());
        }
        out.check_invariants()
    }
}

/// What one timed front-door call produced.
pub struct Trial {
    /// When the input was handed over.
    pub started: Instant,
    /// Wall seconds from handing over the input to holding the output.
    pub secs: f64,
    /// Operations performed (switches, or trades for Curveball).
    pub performed: u64,
    /// `Some(why)` when the output failed verification.
    pub error: Option<String>,
    /// `edge_digest` of the output graph.
    pub digest: u64,
    /// Per-layer readings taken from the outcome.
    pub layers: Rows,
}

impl Trial {
    fn failed(started: Instant, secs: f64, why: String) -> Trial {
        Trial {
            started,
            secs,
            performed: 0,
            error: Some(why),
            digest: 0,
            layers: Rows::new(),
        }
    }
}

/// The `Run` a `&Graph` workload times. `ops` overrides the visit-rate
/// budget with an operation count (the fixed-cost probe passes 1).
pub fn front_door(w: &Workload, input: &Input, obs: bool, ops: Option<u64>) -> Run {
    let run = match w.kind {
        Kind::SeqSwitch => Run::sequential(),
        Kind::ThrSwitch => Run::parallel(P).scheme(SchemeKind::HashDivision),
        Kind::ProcSwitch => Run::process(P).scheme(SchemeKind::HashDivision),
        Kind::Curveball => Run::sequential().randomizer(Randomizer::Curveball),
        Kind::GenBoot | Kind::Svc => unreachable!("{} takes no &Graph", w.name),
    };
    let run = match ops {
        Some(ops) => run.switches(ops),
        None => run.visit_rate(w.visit),
    };
    // The process backend has no probes; asking it for spans changes nothing.
    let spans = obs && w.kind != Kind::ProcSwitch;
    run.seed(input.run_seed)
        .probe(if spans { ObsSpec::Spans } else { ObsSpec::Off })
}

/// The seed-boot front door: `t` switches on the graph `spec` describes.
pub fn gen_boot(input: &Input, t: u64) -> Result<ParallelOutcome, String> {
    let config = ParallelConfig::new(P).with_seed(input.run_seed);
    try_parallel_edge_switch_proc_gen(&input.spec, t, &config, &Partitioner::hash_division(P))
        .map_err(|err| err.to_string())
}

/// Share of `report`'s rank-time spent in `phase`.
fn phase_share(report: &RunReport, phase: Phase) -> f64 {
    let rank_ns = report.wall_ns as f64 * report.ranks as f64;
    report.phase(phase).hist.sum_ns as f64 / rank_ns.max(1.0)
}

fn parallel_layers(out: &ParallelOutcome) -> Rows {
    let performed = out.performed().max(1) as f64;
    let fastpath: u64 = out.telemetry.iter().map(|s| s.local_fastpath).sum();
    let mut rows = vec![
        (
            "core.parallel.local_fastpath_share",
            fastpath as f64 / performed,
        ),
        ("core.parallel.parked", out.parked_events() as f64),
        (
            "core.parallel.packets_per_switch",
            out.packet_total() as f64 / performed,
        ),
        (
            "core.parallel.logical_msgs_per_switch",
            out.logical_msg_totals().total() as f64 / performed,
        ),
    ];
    if let Some(report) = &out.report {
        rows.push((
            "core.parallel.msg_wait_share",
            phase_share(report, Phase::MsgWait),
        ));
        rows.push((
            "core.parallel.step_barrier_share",
            phase_share(report, Phase::StepBarrier),
        ));
        rows.push((
            "core.parallel.q_refresh_share",
            phase_share(report, Phase::QRefresh),
        ));
    }
    rows
}

/// Run one trial of a non-service workload and verify its output.
/// `reference` is the digest of an already fully verified trial of the
/// same deterministic workload: an output that digests equal to it has
/// the same edge set, so only a differing one is re-checked (and fails).
pub fn trial(w: &Workload, input: &Input, obs: bool, reference: Option<u64>) -> Trial {
    let run = (w.kind != Kind::GenBoot).then(|| front_door(w, input, obs, None));
    let started = Instant::now();
    let outcome = match &run {
        Some(run) => run.try_execute(&input.graph).map_err(|err| err.to_string()),
        None => gen_boot(input, input.t).map(|out| RunOutcome::Parallel(Box::new(out))),
    };
    let mut secs = started.elapsed().as_secs_f64();
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(err) => return Trial::failed(started, secs, err),
    };
    let digest = outcome.graph().edge_digest();
    if w.kind == Kind::GenBoot {
        // The digest is the last stage of this pipeline, so it is timed.
        secs = started.elapsed().as_secs_f64();
    }
    let performed = outcome.performed();
    let visit = outcome.visit_rate();
    let mut problems = Vec::new();
    match reference {
        Some(expect) if w.deterministic() => {
            if digest != expect {
                problems.push(format!("digest {digest:#x} differs from {expect:#x}"));
            }
        }
        _ => problems.extend(input.check_graph(outcome.graph()).err()),
    }
    if w.kind == Kind::Curveball {
        if visit < w.visit {
            problems.push(format!("visit rate {visit} below {}", w.visit));
        }
    } else {
        if performed != input.t {
            problems.push(format!("performed {performed} of {}", input.t));
        }
        if (visit - w.visit).abs() > 0.01 {
            problems.push(format!("visit rate {visit} misses {}", w.visit));
        }
    }
    let mut layers = Rows::new();
    match outcome {
        RunOutcome::Sequential(run) => {
            let out = &run.outcome;
            if out.abandoned > 0 {
                problems.push(format!("{} operations abandoned", out.abandoned));
            }
            if w.kind == Kind::SeqSwitch {
                let attempts = out.performed + out.rejects.total();
                layers.push(("core.sequential.attempts", attempts as f64));
                layers.push((
                    "core.sequential.accept_ratio",
                    out.performed as f64 / attempts.max(1) as f64,
                ));
            }
            if let Some(report) = &out.report {
                if w.kind == Kind::SeqSwitch {
                    for (name, phase) in [
                        ("core.sequential.sample_share", Phase::Sample),
                        ("core.sequential.legality_share", Phase::Legality),
                        ("core.sequential.apply_share", Phase::SwitchApply),
                    ] {
                        layers.push((name, phase_share(report, phase)));
                    }
                } else {
                    layers.push((
                        "core.trade.trade_shuffle_share",
                        phase_share(report, Phase::TradeShuffle),
                    ));
                }
            }
            if w.kind == Kind::Curveball {
                layers.push(("core.trade.trades_per_s", performed as f64 / secs));
            }
        }
        RunOutcome::Parallel(out) => {
            if out.forfeited() > 0 {
                problems.push(format!("{} operations forfeited", out.forfeited()));
            }
            layers = parallel_layers(&out);
        }
    }
    Trial {
        started,
        secs,
        performed,
        error: (!problems.is_empty()).then(|| problems.join("; ")),
        digest,
        layers,
    }
}

// ---------------------------------------------------------------------
// The service workload
// ---------------------------------------------------------------------

/// Closed-loop clients of the service workload.
const SVC_CLIENTS: usize = 2;

/// An in-process job server on an ephemeral port with a fresh
/// checkpoint directory.
pub struct SvcServer {
    /// `host:port` to connect to.
    pub addr: String,
    thread: std::thread::JoinHandle<()>,
    dir: PathBuf,
}

impl SvcServer {
    /// Start a server (`pool: 2`, `queue_cap: 16`, default worker knobs)
    /// checkpointing under `scratch/<name>-<pid>`.
    pub fn start(scratch: &Path, name: &str) -> SvcServer {
        let dir = scratch.join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ServerOpts {
            ckpt_dir: dir.clone(),
            sched: SchedOpts {
                pool: SVC_CLIENTS,
                queue_cap: 16,
                ..SchedOpts::default()
            },
        };
        let server = Server::bind("127.0.0.1:0", opts).expect("bind the job server");
        let addr = server.local_addr().to_string();
        let thread = std::thread::spawn(move || server.run().expect("job server accept loop"));
        SvcServer { addr, thread, dir }
    }

    /// Shut the server down, wait for it, and delete its checkpoints.
    pub fn stop(self) {
        let mut client = Client::connect(&self.addr).expect("connect for shutdown");
        client.shutdown().expect("shutdown request");
        self.thread.join().expect("job server thread");
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The job every client submits: the input's spec, sequential driver.
fn job_json(w: &Workload, input: &Input, return_edges: bool, ops: Option<u64>) -> Json {
    let StreamSpec::Pa { n, d, seed } = input.spec else {
        unreachable!("inputs are PA specs");
    };
    let graph = Json::obj([
        ("type", Json::str("pa-stream")),
        ("n", Json::num(n as u64)),
        ("d", Json::num(d as u64)),
        ("seed", Json::num(seed)),
    ]);
    Json::obj([
        ("graph", graph),
        (
            "budget",
            match ops {
                Some(ops) => Json::obj([("switches", Json::num(ops))]),
                None => Json::obj([("visit_rate", Json::Num(w.visit))]),
            },
        ),
        ("driver", Json::str("sequential")),
        ("seed", Json::num(input.run_seed)),
        ("return_edges", Json::Bool(return_edges)),
    ])
}

/// One job as its client saw it.
pub struct Job {
    /// The job as a trial: `secs` is submit → `done` event.
    pub trial: Trial,
    /// The submission was refused (queue full, invalid).
    pub refused: bool,
    /// Client-side instants: submit, admitted, `running` event, `done`
    /// event, result fetched.
    pub marks: [Instant; 5],
}

fn io_err(what: &str, err: std::io::Error) -> String {
    format!("{what}: {err}")
}

/// What a job's result is held against.
struct Expect {
    /// Operations it must have performed.
    ops: u64,
    /// Visit rate it must have reached (within 0.01), if any.
    visit: Option<f64>,
    /// How its output graph is checked.
    output: Output,
}

enum Output {
    /// The job returns its edges: rebuild the graph, check it in full,
    /// and require the digest every other job reported.
    Edges(u64),
    /// The digest must equal the one the fully checked job confirms.
    Digest(u64),
    /// Counts only (the warm-up job, the one-operation probe).
    Unchecked,
}

/// Submit `job`, stream its events to completion, fetch the result and
/// hold it against `expect`.
fn run_job(client: &mut Client, job: &Json, input: &Input, expect: &Expect) -> Job {
    let submit = Instant::now();
    let mut marks = [submit; 5];
    let fail = |marks: [Instant; 5], refused: bool, why: String| Job {
        trial: Trial::failed(submit, marks[3].duration_since(submit).as_secs_f64(), why),
        refused,
        marks,
    };
    let id = match client.submit(job.clone()) {
        Ok(Ok(id)) => id,
        Ok(Err(reply)) => return fail(marks, true, format!("refused: {}", reply.to_json())),
        Err(err) => return fail(marks, false, io_err("submit", err)),
    };
    marks[1..].fill(Instant::now());
    let watch = Json::obj([
        ("op", Json::str("watch")),
        ("id", Json::num(id)),
        ("from", Json::num(0)),
    ]);
    let mut line = client.request(&watch);
    loop {
        let event = match line {
            Ok(event) => event,
            Err(err) => return fail(marks, false, io_err("watch", err)),
        };
        match event.get("event").and_then(Json::as_str) {
            Some("running") => marks[2] = Instant::now(),
            Some("done") => marks[3] = Instant::now(),
            Some("failed") => {
                return fail(marks, false, format!("job failed: {}", event.to_json()))
            }
            _ => {}
        }
        if event.get("ok").is_some() {
            break;
        }
        line = client.read_line();
    }
    let fetch = Json::obj([("op", Json::str("result")), ("id", Json::num(id))]);
    let reply = match client.request(&fetch) {
        Ok(reply) => reply,
        Err(err) => return fail(marks, false, io_err("result", err)),
    };
    marks[4] = Instant::now();
    let Some(result) = reply.get("result") else {
        return fail(marks, false, format!("no result: {}", reply.to_json()));
    };
    let field = |key: &str| result.get(key).and_then(Json::as_u64).unwrap_or(u64::MAX);
    let performed = field("performed");
    let visit = result
        .get("visit_rate")
        .and_then(Json::as_f64)
        .unwrap_or(-1.0);
    let digest = result
        .get("digest")
        .and_then(Json::as_str)
        .and_then(|hex| u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok())
        .unwrap_or(0);
    let mut problems = Vec::new();
    match expect.output {
        Output::Digest(reference) if digest != reference => {
            problems.push(format!("digest {digest:#x} differs from {reference:#x}"));
        }
        Output::Edges(reference) => {
            if digest != reference {
                problems.push(format!("digest {digest:#x} differs from {reference:#x}"));
            }
            let edges = result.get("edges").and_then(Json::as_arr).unwrap_or(&[]);
            let pairs = edges.iter().filter_map(|pair| {
                let pair = pair.as_arr()?;
                Some(Edge::new(pair.first()?.as_u64()?, pair.get(1)?.as_u64()?))
            });
            match Graph::from_edges(input.graph.num_vertices(), pairs) {
                Ok(out) => {
                    problems.extend(input.check_graph(&out).err());
                    if out.edge_digest() != digest {
                        problems.push("reported digest is not the digest of the edges".into());
                    }
                }
                Err(err) => problems.push(format!("returned edges are no simple graph: {err:?}")),
            }
        }
        _ => {}
    }
    if performed != expect.ops {
        problems.push(format!("performed {performed} of {}", expect.ops));
    }
    if field("abandoned") != 0 {
        problems.push(format!("{} operations abandoned", field("abandoned")));
    }
    if expect
        .visit
        .is_some_and(|target| (visit - target).abs() > 0.01)
    {
        problems.push(format!("visit rate {visit} misses its target"));
    }
    let ms = |from: usize, to: usize| marks[to].duration_since(marks[from]).as_secs_f64() * 1e3;
    Job {
        trial: Trial {
            started: submit,
            secs: ms(0, 3) / 1e3,
            performed,
            error: (!problems.is_empty()).then(|| problems.join("; ")),
            digest,
            layers: vec![("svc.queue_wait_p50_ms", ms(1, 2))],
        },
        refused: false,
        marks,
    }
}

/// The closed loop: each of two clients submits its next job when its
/// previous one completed, until `budget` has elapsed and it has run
/// `min_jobs`. Returns every job and the makespan in seconds.
pub fn svc_loop(
    server: &SvcServer,
    w: &Workload,
    input: &Input,
    budget: Duration,
    min_jobs: usize,
    reference: u64,
) -> (Vec<Job>, f64) {
    let job = job_json(w, input, false, None);
    let expect = Expect {
        ops: input.t,
        visit: Some(w.visit),
        output: Output::Digest(reference),
    };
    let start = Instant::now();
    let per_client: Vec<Vec<Job>> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..SVC_CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::connect(&server.addr).expect("connect to own server");
                    let mut jobs = Vec::new();
                    while jobs.len() < min_jobs || start.elapsed() < budget {
                        jobs.push(run_job(&mut client, &job, input, &expect));
                    }
                    jobs
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect()
    });
    let makespan = start.elapsed().as_secs_f64();
    (per_client.into_iter().flatten().collect(), makespan)
}

// ---------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------

/// Everything that exists before the first trial: the generated input
/// and, for the service workload, a running server.
pub struct Ready {
    /// The generated input.
    pub input: Input,
    /// The job server (service workload only).
    pub server: Option<SvcServer>,
}

impl Ready {
    /// Generate the input and start what the workload needs running.
    pub fn set_up(w: &Workload, seed: u64, smoke: bool, scratch: &Path) -> Ready {
        Ready {
            input: Input::generate(w, seed, smoke),
            server: (w.kind == Kind::Svc).then(|| SvcServer::start(scratch, w.name)),
        }
    }

    /// Stop what [`Ready::set_up`] started.
    pub fn tear_down(self) {
        if let Some(server) = self.server {
            server.stop();
        }
    }

    fn one_job(&self, job: &Json, expect: &Expect) -> Job {
        let server = self
            .server
            .as_ref()
            .expect("service workloads hold a server");
        let mut client = Client::connect(&server.addr).expect("connect to own server");
        run_job(&mut client, job, &self.input, expect)
    }

    /// The discarded warm-up trial; its digest is the reference of the
    /// trials that follow. Verified in full, except the service's: that
    /// output is verified by [`Ready::closing_job`].
    pub fn warm_up(&self, w: &Workload) -> Trial {
        if w.kind != Kind::Svc {
            return trial(w, &self.input, false, None);
        }
        let expect = Expect {
            ops: self.input.t,
            visit: Some(w.visit),
            output: Output::Unchecked,
        };
        self.one_job(&job_json(w, &self.input, false, None), &expect)
            .trial
    }

    /// One more service job, returning its edges: they must form a valid
    /// output whose digest is `reference`, the digest every measured job
    /// reported. Run after the memory high-water mark is read, since
    /// parsing a whole edge list is the benchmark's cost, not the server's.
    pub fn closing_job(&self, w: &Workload, reference: u64) -> Trial {
        let expect = Expect {
            ops: self.input.t,
            visit: Some(w.visit),
            output: Output::Edges(reference),
        };
        self.one_job(&job_json(w, &self.input, true, None), &expect)
            .trial
    }
}

/// A service job on a one-switch budget: what a job costs apart from
/// its switch loop.
pub fn svc_one_op_job(ready: &Ready, w: &Workload) -> Job {
    let expect = Expect {
        ops: 1,
        visit: None,
        output: Output::Unchecked,
    };
    ready.one_job(&job_json(w, &ready.input, false, Some(1)), &expect)
}
