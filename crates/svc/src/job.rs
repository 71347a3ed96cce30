//! Job specs, per-job state, and the execution loop.
//!
//! A job is a graph (inline edges or a generator spec), a budget, a
//! randomizer and driver knobs. Every job runs on the stepped
//! [`Engine`](edgeswitch_core::Engine) behind [`Run::start`] — a chunk
//! of Algorithm 1, one Curveball pass or one simulated step per
//! [`advance`](edgeswitch_core::Engine::advance) — so the worker can
//! emit a progress event and (periodically) an `ESNP` snapshot between
//! units of work, and a killed server resumes every job from its last
//! snapshot.

use crate::json::Json;
use edgeswitch_core::config::DEFAULT_WINDOW;
use edgeswitch_core::obs::ProgressEvent;
use edgeswitch_core::{Budget, Randomizer, Run, RunError, RunOutcome};
use edgeswitch_dist::root_rng;
use edgeswitch_graph::generators::{
    check_gnm, check_preferential_attachment, erdos_renyi_gnm, preferential_attachment, StreamSpec,
};
use edgeswitch_graph::{Edge, Graph, GraphError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// The input graph: shipped inline or regenerated from a seeded spec.
#[derive(Clone, Debug, PartialEq)]
pub enum GraphSpec {
    /// Explicit vertex count and edge list.
    Inline {
        /// Number of vertices.
        n: usize,
        /// The edges as `(src, dst)` pairs.
        edges: Vec<(u64, u64)>,
    },
    /// `G(n, m)` Erdős–Rényi, regenerated from `seed`.
    ErdosRenyi {
        /// Number of vertices.
        n: usize,
        /// Number of edges.
        m: usize,
        /// Generator seed.
        seed: u64,
    },
    /// Preferential attachment with `d` edges per arrival.
    PreferentialAttachment {
        /// Number of vertices.
        n: usize,
        /// Edges per arriving vertex.
        d: usize,
        /// Generator seed.
        seed: u64,
    },
    /// A streaming recomputation generator (`"pa-stream"` /
    /// `"degree-seq"` on the wire): the O(1) [`StreamSpec`] currency of
    /// the seed-boot pipeline. Validated at submit time via
    /// [`StreamSpec::validate`], so a bad spec is rejected before the
    /// job is queued.
    Streamed(StreamSpec),
}

impl GraphSpec {
    /// Materialize the graph (deterministic for generator specs).
    pub fn build(&self) -> Result<Graph, String> {
        match self {
            GraphSpec::Inline { n, edges } => edges
                .iter()
                .map(|&(a, b)| Edge::try_new(a, b).ok_or(GraphError::SelfLoop(a)))
                .collect::<Result<Vec<_>, _>>()
                .and_then(|edges| Graph::from_edges(*n, edges))
                .map_err(|err| format!("bad inline graph: {err:?}")),
            GraphSpec::ErdosRenyi { n, m, seed } => {
                Ok(erdos_renyi_gnm(*n, *m, &mut root_rng(*seed)))
            }
            GraphSpec::PreferentialAttachment { n, d, seed } => {
                Ok(preferential_attachment(*n, *d, &mut root_rng(*seed)))
            }
            GraphSpec::Streamed(spec) => spec
                .build()
                .map_err(|err| format!("streamed graph spec failed to realize: {err:?}")),
        }
    }
}

/// Which driver executes the job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Driver {
    /// Algorithm 1, in chunks of [`WorkerOpts::chunk`] operations.
    Sequential,
    /// The parallel protocol on `p` simulated ranks, step by step.
    Simulated,
}

/// One job submission.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// The input graph.
    pub graph: GraphSpec,
    /// The budget.
    pub budget: Budget,
    /// The driver.
    pub driver: Driver,
    /// Simulated world size (rank-pool cost; 1 for sequential).
    pub p: usize,
    /// Master seed for the switching RNG streams.
    pub seed: u64,
    /// Pipelining window (simulated driver).
    pub window: usize,
    /// Randomization engine.
    pub randomizer: Randomizer,
    /// Whether the result should carry the switched edge list.
    pub return_edges: bool,
}

impl JobSpec {
    /// Rank-pool slots this job occupies while running.
    pub fn ranks(&self) -> usize {
        match self.driver {
            Driver::Sequential => 1,
            Driver::Simulated => self.p.max(1),
        }
    }

    /// The equivalent [`Run`] builder — what validates, starts and
    /// resumes the job.
    pub fn as_run(&self) -> Run {
        let run = match self.driver {
            Driver::Sequential => Run::sequential(),
            Driver::Simulated => Run::simulated(self.p),
        };
        run.budget(self.budget)
            .seed(self.seed)
            .window(self.window)
            .randomizer(self.randomizer)
    }

    /// Submit-time validation via [`Run::validate`].
    pub fn validate(&self) -> Result<(), RunError> {
        self.as_run().validate()
    }

    /// Parse from the wire shape (see DESIGN.md §4i for the schema).
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        let graph_json = v.get("graph").ok_or("missing 'graph'")?;
        let kind = graph_json.get("type").and_then(Json::as_str);
        // Required fields of the graph spec, named in the error.
        let missing = |key: &str| format!("{} graph needs '{key}'", kind.unwrap_or_default());
        let need = |key: &str| graph_json.get(key).ok_or_else(|| missing(key));
        let size = |key: &str| {
            let value = need(key)?.as_u64().map(|x| x as usize);
            value.ok_or_else(|| missing(key))
        };
        let graph = match kind {
            Some("inline") => {
                let n = size("n")?;
                if n as u128 > 1 << 32 {
                    return Err("inline graph needs 'n' <= 2^32".to_string());
                }
                let edges = need("edges")?
                    .as_arr()
                    .ok_or_else(|| missing("edges"))?
                    .iter()
                    .map(|pair| {
                        let pair = pair.as_arr().ok_or("edge must be [src, dst]")?;
                        match (
                            pair.first().and_then(Json::as_u64),
                            pair.get(1).and_then(Json::as_u64),
                        ) {
                            (Some(a), Some(b)) if pair.len() == 2 => {
                                if a == b {
                                    Err(format!("inline edge [{a}, {b}] is a self-loop"))
                                } else if a.max(b) >= n as u64 {
                                    Err(format!(
                                        "inline edge [{a}, {b}] has an endpoint >= n = {n}"
                                    ))
                                } else {
                                    Ok((a, b))
                                }
                            }
                            _ => Err("edge must be [src, dst]".to_string()),
                        }
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                GraphSpec::Inline { n, edges }
            }
            Some("er") => {
                let (n, m) = (size("n")?, size("m")?);
                check_gnm(n, m)?;
                GraphSpec::ErdosRenyi {
                    n,
                    m,
                    seed: knob(graph_json, "seed", 1)?,
                }
            }
            Some("pa") => {
                let (n, d) = (size("n")?, size("d")?);
                check_preferential_attachment(n, d)?;
                GraphSpec::PreferentialAttachment {
                    n,
                    d,
                    seed: knob(graph_json, "seed", 1)?,
                }
            }
            Some("pa-stream") => {
                let spec = StreamSpec::Pa {
                    n: size("n")?,
                    d: size("d")?,
                    seed: knob(graph_json, "seed", 1)?,
                };
                spec.validate()?;
                GraphSpec::Streamed(spec)
            }
            Some("degree-seq") => {
                let spec = StreamSpec::PowerLawSeq {
                    n: size("n")?,
                    gamma: need("gamma")?.as_f64().ok_or_else(|| missing("gamma"))?,
                    d_min: size("d_min")?,
                    d_max: size("d_max")?,
                    seed: knob(graph_json, "seed", 1)?,
                };
                spec.validate()?;
                GraphSpec::Streamed(spec)
            }
            other => return Err(format!("unknown graph type {other:?}")),
        };
        let budget_json = v.get("budget").ok_or("missing 'budget'")?;
        let budget = if let Some(t) = budget_json.get("switches").and_then(Json::as_u64) {
            Budget::Ops(t)
        } else if let Some(x) = budget_json.get("visit_rate").and_then(Json::as_f64) {
            Budget::VisitRate(x)
        } else {
            return Err("budget needs 'switches' or 'visit_rate'".to_string());
        };
        let driver = match v.get("driver").and_then(Json::as_str) {
            Some("sequential") | None => Driver::Sequential,
            Some("simulated") => Driver::Simulated,
            Some(other) => return Err(format!("unknown driver '{other}'")),
        };
        let randomizer = match v.get("randomizer").and_then(Json::as_str) {
            Some("switch") | None => Randomizer::Switch,
            Some("curveball") => Randomizer::Curveball,
            Some(other) => return Err(format!("unknown randomizer '{other}'")),
        };
        Ok(JobSpec {
            graph,
            budget,
            driver,
            p: knob(v, "p", 1)? as usize,
            seed: knob(v, "seed", 0)?,
            window: knob(v, "window", DEFAULT_WINDOW as u64)? as usize,
            randomizer,
            return_edges: v
                .get("return_edges")
                .and_then(Json::as_bool)
                .unwrap_or(false),
        })
    }

    /// Serialize back to the wire shape (inverse of
    /// [`JobSpec::from_json`]; used for `.job` persistence).
    pub fn to_json(&self) -> Json {
        let graph = match &self.graph {
            GraphSpec::Inline { n, edges } => Json::obj([
                ("type", Json::str("inline")),
                ("n", Json::num(*n as u64)),
                (
                    "edges",
                    Json::Arr(
                        edges
                            .iter()
                            .map(|&(a, b)| Json::Arr(vec![Json::num(a), Json::num(b)]))
                            .collect(),
                    ),
                ),
            ]),
            GraphSpec::ErdosRenyi { n, m, seed } => Json::obj([
                ("type", Json::str("er")),
                ("n", Json::num(*n as u64)),
                ("m", Json::num(*m as u64)),
                ("seed", Json::num(*seed)),
            ]),
            GraphSpec::PreferentialAttachment { n, d, seed } => Json::obj([
                ("type", Json::str("pa")),
                ("n", Json::num(*n as u64)),
                ("d", Json::num(*d as u64)),
                ("seed", Json::num(*seed)),
            ]),
            GraphSpec::Streamed(StreamSpec::Pa { n, d, seed }) => Json::obj([
                ("type", Json::str("pa-stream")),
                ("n", Json::num(*n as u64)),
                ("d", Json::num(*d as u64)),
                ("seed", Json::num(*seed)),
            ]),
            GraphSpec::Streamed(StreamSpec::PowerLawSeq {
                n,
                gamma,
                d_min,
                d_max,
                seed,
            }) => Json::obj([
                ("type", Json::str("degree-seq")),
                ("n", Json::num(*n as u64)),
                ("gamma", Json::Num(*gamma)),
                ("d_min", Json::num(*d_min as u64)),
                ("d_max", Json::num(*d_max as u64)),
                ("seed", Json::num(*seed)),
            ]),
        };
        let budget = match self.budget {
            Budget::Ops(t) => Json::obj([("switches", Json::num(t))]),
            Budget::VisitRate(x) => Json::obj([("visit_rate", Json::Num(x))]),
        };
        Json::obj([
            ("graph", graph),
            ("budget", budget),
            (
                "driver",
                Json::str(match self.driver {
                    Driver::Sequential => "sequential",
                    Driver::Simulated => "simulated",
                }),
            ),
            (
                "randomizer",
                Json::str(match self.randomizer {
                    Randomizer::Switch => "switch",
                    Randomizer::Curveball => "curveball",
                }),
            ),
            ("p", Json::num(self.p as u64)),
            ("seed", Json::num(self.seed)),
            ("window", Json::num(self.window as u64)),
            ("return_edges", Json::Bool(self.return_edges)),
        ])
    }
}

/// An optional integer knob of a submission or of its graph spec:
/// `default` when absent; a
/// value that is present but not an exact integer in `[0, 2^53)` is an
/// error naming the field — never silently the default.
fn knob(v: &Json, key: &str, default: u64) -> Result<u64, String> {
    match v.get(key) {
        None => Ok(default),
        Some(x) => x.as_u64().ok_or_else(|| {
            format!(
                "'{key}' must be an integer in [0, 2^53), got {}",
                x.to_json()
            )
        }),
    }
}

/// Lifecycle phase of a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobPhase {
    /// Admitted, waiting for rank-pool slots.
    Queued,
    /// Executing on a worker.
    Running,
    /// Finished; result stored.
    Done,
    /// Failed; error stored.
    Failed,
}

impl JobPhase {
    /// Stable wire label.
    pub fn label(&self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Failed => "failed",
        }
    }
}

#[derive(Debug)]
struct JobState {
    phase: JobPhase,
    performed: u64,
    budget: u64,
    visit_rate: f64,
    /// The event log, one encoded JSON line per event: a finished job's
    /// log stays for replay as long as the server runs, and as text it
    /// takes a tenth of the memory of the parsed tree.
    events: Vec<String>,
    result: Option<Json>,
    error: Option<String>,
}

/// One job's shared state: spec plus a mutex-guarded progress record
/// that workers write and connection handlers read. A condvar wakes
/// event streamers on every append.
#[derive(Debug)]
pub struct JobEntry {
    /// The job's id.
    pub id: u64,
    /// The spec it runs.
    pub spec: JobSpec,
    state: Mutex<JobState>,
    wake: Condvar,
}

impl JobEntry {
    /// A freshly admitted job.
    pub fn new(id: u64, spec: JobSpec) -> JobEntry {
        let entry = JobEntry {
            id,
            spec,
            state: Mutex::new(JobState {
                phase: JobPhase::Queued,
                performed: 0,
                budget: 0,
                visit_rate: 0.0,
                events: Vec::new(),
                result: None,
                error: None,
            }),
            wake: Condvar::new(),
        };
        entry.push_event(Json::obj([("event", Json::str("queued"))]));
        entry
    }

    /// A job recovered as already finished: state jumps straight to
    /// `Done` with the stored result.
    pub fn recovered_done(id: u64, spec: JobSpec, result: Json) -> JobEntry {
        let entry = JobEntry::new(id, spec);
        {
            let mut st = entry.locked();
            st.phase = JobPhase::Done;
            st.performed = result.get("performed").and_then(Json::as_u64).unwrap_or(0);
            st.result = Some(result);
        }
        entry
    }

    /// The progress record. A poisoned lock is recovered: the record is
    /// plain data that no panic can leave half-written, and the worker's
    /// panic arm must still be able to mark the job failed.
    fn locked(&self) -> MutexGuard<'_, JobState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Append one event and wake streamers.
    pub fn push_event(&self, event: Json) {
        let line = event.to_json();
        let mut st = self.locked();
        st.events.push(line);
        self.wake.notify_all();
    }

    fn set_phase(&self, phase: JobPhase) {
        let mut st = self.locked();
        st.phase = phase;
        drop(st);
        self.push_event(Json::obj([("event", Json::str(phase.label()))]));
    }

    /// Record one unit of forward progress.
    pub fn progress(&self, performed: u64, budget: u64, visit_rate: f64) {
        let mut st = self.locked();
        st.performed = performed;
        st.budget = budget;
        st.visit_rate = visit_rate;
    }

    /// Mark done with `result`.
    pub fn set_done(&self, result: Json) {
        {
            let mut st = self.locked();
            st.phase = JobPhase::Done;
            st.result = Some(result);
        }
        self.push_event(Json::obj([("event", Json::str("done"))]));
    }

    /// Mark failed with `error` (a wire code plus detail).
    pub fn set_failed(&self, code: &str, detail: String) {
        {
            let mut st = self.locked();
            st.phase = JobPhase::Failed;
            st.error = Some(format!("{code}: {detail}"));
        }
        self.push_event(Json::obj([
            ("event", Json::str("failed")),
            ("error", Json::str(detail)),
            ("code", Json::str(code)),
        ]));
    }

    /// Current phase.
    pub fn phase(&self) -> JobPhase {
        self.locked().phase
    }

    /// The status object served for `{"op":"status"}`.
    pub fn status_json(&self) -> Json {
        let st = self.locked();
        let mut fields = vec![
            ("id", Json::num(self.id)),
            ("state", Json::str(st.phase.label())),
            ("performed", Json::num(st.performed)),
            ("budget", Json::num(st.budget)),
            ("visit_rate", Json::Num(st.visit_rate)),
            ("events", Json::num(st.events.len() as u64)),
        ];
        if let Some(err) = &st.error {
            fields.push(("error", Json::str(err.clone())));
        }
        Json::obj(fields)
    }

    /// Events from index `from` on, plus the next cursor.
    pub fn events_from(&self, from: usize) -> (Vec<Json>, usize) {
        let st = self.locked();
        (decoded(&st.events, from), st.events.len())
    }

    /// Block until there are events past `from` or the job reaches a
    /// terminal phase; returns like [`JobEntry::events_from`].
    pub fn wait_events(&self, from: usize, timeout: Duration) -> (Vec<Json>, usize, JobPhase) {
        let mut st = self.locked();
        while st.events.len() <= from && !matches!(st.phase, JobPhase::Done | JobPhase::Failed) {
            let (guard, wait) = self
                .wake
                .wait_timeout(st, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
            if wait.timed_out() {
                break;
            }
        }
        (decoded(&st.events, from), st.events.len(), st.phase)
    }

    /// The stored result (`None` until done).
    pub fn result_json(&self) -> Option<Json> {
        self.locked().result.clone()
    }
}

/// The events of `log` from index `from` on, parsed back.
fn decoded(log: &[String], from: usize) -> Vec<Json> {
    let lines = &log[from.min(log.len())..];
    let parse = |line: &String| crate::json::parse(line).expect("the log holds encoded events");
    lines.iter().map(parse).collect()
}

/// Worker-side knobs: sequential chunk size and the checkpoint cadence
/// (every `ckpt_every` chunks/steps).
#[derive(Clone, Copy, Debug)]
pub struct WorkerOpts {
    /// Operations per sequential chunk (one progress event each).
    pub chunk: u64,
    /// Chunks/steps between snapshots (0 disables checkpointing).
    pub ckpt_every: u64,
}

impl Default for WorkerOpts {
    fn default() -> Self {
        WorkerOpts {
            chunk: 4096,
            ckpt_every: 4,
        }
    }
}

fn result_json(out: &RunOutcome, spec: &JobSpec) -> Json {
    let graph = out.graph();
    let abandoned = match out {
        RunOutcome::Sequential(run) => run.outcome.abandoned,
        RunOutcome::Parallel(_) => 0,
    };
    let mut fields = vec![
        ("performed", Json::num(out.performed())),
        ("abandoned", Json::num(abandoned)),
        ("visit_rate", Json::Num(out.visit_rate())),
        (
            "digest",
            Json::str(format!("{:#018x}", graph.edge_digest())),
        ),
        ("num_vertices", Json::num(graph.num_vertices() as u64)),
        ("num_edges", Json::num(graph.num_edges() as u64)),
    ];
    if spec.return_edges {
        fields.push((
            "edges",
            Json::Arr(
                graph
                    .sorted_edges()
                    .into_iter()
                    .map(|e| Json::Arr(vec![Json::num(e.src()), Json::num(e.dst())]))
                    .collect(),
            ),
        ));
    }
    Json::obj(fields)
}

/// Record `out` as the job's result.
fn complete(entry: &JobEntry, out: &RunOutcome, budget: u64) -> Json {
    let result = result_json(out, &entry.spec);
    entry.progress(out.performed(), budget, out.visit_rate());
    entry.set_done(result.clone());
    result
}

/// Execute `entry` to completion (or until `stop` is raised, leaving a
/// snapshot behind). `snapshot` resumes from checkpoint bytes — anything
/// that is not a snapshot of this job fails it with code
/// `bad-checkpoint`. `save_snapshot` persists checkpoint bytes; errors
/// from it are surfaced as job failures.
pub fn run_job(
    entry: &JobEntry,
    opts: WorkerOpts,
    snapshot: Option<Vec<u8>>,
    stop: &AtomicBool,
    save_snapshot: &dyn Fn(&[u8]) -> std::io::Result<()>,
) -> Option<Json> {
    entry.set_phase(JobPhase::Running);
    let graph = match entry.spec.graph.build() {
        Ok(graph) => graph,
        Err(err) => {
            entry.set_failed("bad-graph", err);
            return None;
        }
    };
    match run_stepped(entry, graph, opts, snapshot, stop, save_snapshot) {
        Ok(Some((budget, out))) => Some(complete(entry, &out, budget)),
        Ok(None) => None,
        Err(err) => {
            entry.set_failed(error_code(&err), err.to_string());
            None
        }
    }
}

/// The one worker loop: stop-check → `advance` → progress event →
/// checkpoint cadence, then `finish` (returned with the budget).
/// `Ok(None)` means the job parked (stopped behind a snapshot) or already
/// failed on checkpoint I/O.
fn run_stepped(
    entry: &JobEntry,
    graph: Graph,
    opts: WorkerOpts,
    snapshot: Option<Vec<u8>>,
    stop: &AtomicBool,
    save_snapshot: &dyn Fn(&[u8]) -> std::io::Result<()>,
) -> Result<Option<(u64, RunOutcome)>, RunError> {
    let run = entry.spec.as_run();
    // Either way the engine owns the only graph from here on.
    let mut engine = match snapshot {
        Some(bytes) => {
            let engine = run.resume(&graph, &bytes)?;
            drop(graph);
            engine
        }
        None => run.start(graph)?,
    };
    // Live span totals ride on the step events (sequential jobs only:
    // a simulated engine has no single span stream to forward).
    let (tx, rx) = channel::<ProgressEvent>();
    engine.attach_probe(tx, 1024);
    let mut units = 0u64;
    while !engine.is_done() {
        if stop.load(Ordering::Relaxed) {
            if save_snapshot(&engine.snapshot()).is_err() {
                entry.set_failed("io", "checkpoint write failed at shutdown".to_string());
            }
            return Ok(None);
        }
        let progress = engine.advance(opts.chunk);
        units += 1;
        entry.progress(progress.performed, progress.budget, progress.visit_rate);
        // Engines with a step structure (the simulated world, Curveball
        // passes) also say where in it they are and what the step cost
        // in messages.
        let in_steps = progress.steps > 0;
        let mut step = vec![
            ("event", Json::str("step")),
            ("performed", Json::num(progress.performed)),
            ("budget", Json::num(progress.budget)),
            ("visit_rate", Json::Num(progress.visit_rate)),
        ];
        if in_steps {
            step.push(("step", Json::num(progress.step)));
            step.push(("steps", Json::num(progress.steps)));
            step.push(("logical_msgs", Json::num(progress.logical_msgs)));
        }
        // Drain the probe: the latest cumulative total, if any arrived.
        let mut spans_total = None;
        while let Ok(ProgressEvent::Spans(totals)) = rx.try_recv() {
            spans_total = Some(totals.total);
        }
        if let Some(total) = spans_total {
            step.push(("spans", Json::num(total)));
        }
        entry.push_event(Json::obj(step));
        if opts.ckpt_every > 0 && units.is_multiple_of(opts.ckpt_every) && !engine.is_done() {
            if save_snapshot(&engine.snapshot()).is_err() {
                entry.set_failed("io", "checkpoint write failed".to_string());
                return Ok(None);
            }
            let mut checkpoint = vec![
                ("event", Json::str("checkpoint")),
                ("performed", Json::num(progress.performed)),
            ];
            if in_steps {
                checkpoint.push(("step", Json::num(progress.step)));
            }
            entry.push_event(Json::obj(checkpoint));
        }
    }
    Ok(Some((engine.budget(), engine.finish())))
}

/// The wire error code for a [`RunError`].
pub fn error_code(err: &RunError) -> &'static str {
    match err {
        RunError::InvalidBudget(_) => "invalid-budget",
        RunError::InvalidConfig(_) => "invalid-config",
        RunError::BackendUnsupported(_) => "backend-unsupported",
        RunError::SpawnFailed(_) => "spawn-failed",
        RunError::RankDied(_) => "rank-died",
        RunError::BadSnapshot(_) => "bad-checkpoint",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn er_spec() -> JobSpec {
        JobSpec {
            graph: GraphSpec::ErdosRenyi {
                n: 100,
                m: 400,
                seed: 3,
            },
            budget: Budget::Ops(300),
            driver: Driver::Simulated,
            p: 2,
            seed: 9,
            window: 4,
            randomizer: Randomizer::Switch,
            return_edges: false,
        }
    }

    #[test]
    fn spec_roundtrips_through_json() {
        for spec in [
            er_spec(),
            JobSpec {
                graph: GraphSpec::Inline {
                    n: 4,
                    edges: vec![(0, 1), (1, 2), (2, 3), (3, 0)],
                },
                budget: Budget::VisitRate(0.5),
                driver: Driver::Sequential,
                p: 1,
                seed: 0,
                window: 1,
                randomizer: Randomizer::Curveball,
                return_edges: true,
            },
            JobSpec {
                graph: GraphSpec::Streamed(StreamSpec::Pa {
                    n: 200,
                    d: 4,
                    seed: 7,
                }),
                ..er_spec()
            },
            JobSpec {
                graph: GraphSpec::Streamed(StreamSpec::PowerLawSeq {
                    n: 150,
                    gamma: 2.5,
                    d_min: 2,
                    d_max: 12,
                    seed: 7,
                }),
                ..er_spec()
            },
        ] {
            let encoded = spec.to_json().to_json();
            let back = JobSpec::from_json(&json::parse(&encoded).unwrap()).unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn streamed_specs_are_validated_at_parse_time() {
        // A malformed generator spec is rejected when the submission is
        // parsed — before a job is queued — with the generator's own
        // message, not a build-time failure.
        let bad_pa = r#"{"graph":{"type":"pa-stream","n":4,"d":9,"seed":1},
                         "budget":{"switches":10}}"#;
        let err = JobSpec::from_json(&json::parse(bad_pa).unwrap()).unwrap_err();
        assert!(err.contains("1 <= d < n"), "{err}");
        let bad_seq = r#"{"graph":{"type":"degree-seq","n":50,"gamma":2.5,
                          "d_min":9,"d_max":2,"seed":1},"budget":{"switches":10}}"#;
        let err = JobSpec::from_json(&json::parse(bad_seq).unwrap()).unwrap_err();
        assert!(err.contains("d_min <= d_max"), "{err}");
        // Missing required fields name the field.
        let no_gamma = r#"{"graph":{"type":"degree-seq","n":50,"d_min":2,"d_max":9},
                           "budget":{"switches":10}}"#;
        let err = JobSpec::from_json(&json::parse(no_gamma).unwrap()).unwrap_err();
        assert!(err.contains("gamma"), "{err}");
        // The materialized generators' preconditions are checked the same
        // way, by the rule each generator asserts.
        for (graph, why) in [
            (r#"{"type":"pa","n":4,"d":4}"#, "1 <= d < n"),
            (r#"{"type":"pa","n":4294967297,"d":4}"#, "2^32"),
            (r#"{"type":"er","n":10,"m":46}"#, "more edges"),
            (r#"{"type":"er","n":0,"m":0}"#, "1 <= n"),
            (r#"{"type":"er","n":4294967297,"m":10}"#, "1 <= n <= 2^32"),
            (r#"{"type":"er","n":5000,"m":10000000}"#, "crawl"),
            // Inline edges are checked against the graph they claim to be.
            (
                r#"{"type":"inline","n":5,"edges":[[0,1],[3,3]]}"#,
                "[3, 3] is a self-loop",
            ),
            (
                r#"{"type":"inline","n":5,"edges":[[2,9]]}"#,
                "[2, 9] has an endpoint >= n = 5",
            ),
            (
                r#"{"type":"inline","n":4294967297,"edges":[]}"#,
                "'n' <= 2^32",
            ),
        ] {
            let text = format!(r#"{{"graph":{graph},"budget":{{"switches":10}}}}"#);
            let err = JobSpec::from_json(&json::parse(&text).unwrap()).unwrap_err();
            assert!(err.contains(why), "{graph}: {err}");
        }
    }

    #[test]
    fn unusable_knobs_are_errors_and_absent_ones_default() {
        let job = |extra: &str| {
            let text = format!(
                r#"{{"graph":{{"type":"er","n":100,"m":400,"seed":3}},
                    "budget":{{"switches":300}},"driver":"simulated"{extra}}}"#
            );
            JobSpec::from_json(&json::parse(&text).unwrap())
        };
        for field in ["p", "seed", "window"] {
            for value in ["-3", "2.5", r#""7""#, "9007199254740992"] {
                let err = job(&format!(r#","{field}":{value}"#)).unwrap_err();
                assert!(
                    err.contains(&format!("'{field}'")),
                    "{field}={value}: {err}"
                );
            }
        }
        let spec = job("").unwrap();
        assert_eq!((spec.p, spec.seed, spec.window), (1, 0, DEFAULT_WINDOW));
        let spec = job(r#","p":2,"seed":9007199254740991,"window":1"#).unwrap();
        assert_eq!((spec.p, spec.seed, spec.window), (2, (1 << 53) - 1, 1));
        // Every generator spec's own seed is read the same way.
        let graph_seed = |graph: &str, seed: &str| {
            let text = format!(r#"{{"graph":{{{graph}{seed}}},"budget":{{"switches":10}}}}"#);
            JobSpec::from_json(&json::parse(&text).unwrap()).map(|spec| spec.graph)
        };
        let graphs = [
            r#""type":"er","n":100,"m":400"#,
            r#""type":"pa","n":100,"d":3"#,
            r#""type":"pa-stream","n":100,"d":3"#,
            r#""type":"degree-seq","n":100,"gamma":2.5,"d_min":2,"d_max":9"#,
        ];
        for graph in graphs {
            for value in ["-5", r#""x""#, "1.5", "9007199254740993"] {
                let err = graph_seed(graph, &format!(r#","seed":{value}"#)).unwrap_err();
                assert!(err.contains("'seed'"), "{graph} seed={value}: {err}");
            }
            let absent = graph_seed(graph, "").unwrap();
            assert_eq!(
                absent,
                graph_seed(graph, r#","seed":1"#).unwrap(),
                "{graph}"
            );
        }
    }

    #[test]
    fn a_windowless_job_runs_the_window_run_defaults_to() {
        let text = r#"{"graph":{"type":"er","n":100,"m":400,"seed":3},
                       "budget":{"switches":300},"driver":"simulated","p":2,"seed":9}"#;
        let spec = JobSpec::from_json(&json::parse(text).unwrap()).unwrap();
        let entry = JobEntry::new(1, spec.clone());
        let result = run_job(
            &entry,
            WorkerOpts::default(),
            None,
            &AtomicBool::new(false),
            &|_| Ok(()),
        )
        .expect("job completes");
        let graph = spec.graph.build().unwrap();
        let direct = Run::simulated(2).switches(300).seed(9).execute(&graph);
        assert_eq!(
            result.get("digest").and_then(Json::as_str),
            Some(&format!("{:#018x}", direct.graph().edge_digest())[..])
        );
    }

    #[test]
    fn streamed_spec_job_runs_to_completion() {
        let spec = JobSpec {
            graph: GraphSpec::Streamed(StreamSpec::Pa {
                n: 120,
                d: 3,
                seed: 4,
            }),
            budget: Budget::Ops(200),
            driver: Driver::Sequential,
            p: 1,
            ..er_spec()
        };
        let entry = JobEntry::new(1, spec.clone());
        let result = run_job(
            &entry,
            WorkerOpts::default(),
            None,
            &AtomicBool::new(false),
            &|_| Ok(()),
        )
        .expect("job completes");
        assert_eq!(entry.phase(), JobPhase::Done);
        // Deterministic: the spec materializes to the same graph the
        // job started from.
        let graph = spec.graph.build().unwrap();
        let direct = spec.as_run().execute(&graph);
        assert_eq!(
            result.get("digest").and_then(Json::as_str),
            Some(&format!("{:#018x}", direct.graph().edge_digest())[..])
        );
    }

    #[test]
    fn invalid_specs_fail_validation() {
        let mut spec = er_spec();
        spec.window = 0;
        assert!(matches!(spec.validate(), Err(RunError::InvalidConfig(_))));
        let mut spec = er_spec();
        spec.budget = Budget::VisitRate(1.5);
        assert!(matches!(spec.validate(), Err(RunError::InvalidBudget(_))));
        assert!(er_spec().validate().is_ok());
    }

    #[test]
    fn run_job_completes_and_matches_direct_execution() {
        let spec = er_spec();
        let entry = JobEntry::new(1, spec.clone());
        let stop = AtomicBool::new(false);
        let result = run_job(&entry, WorkerOpts::default(), None, &stop, &|_bytes| Ok(()))
            .expect("job completes");
        assert_eq!(entry.phase(), JobPhase::Done);
        // The same spec through the one-shot Run API lands on the same
        // switched graph.
        let graph = spec.graph.build().unwrap();
        let direct = spec.as_run().execute(&graph);
        let expect = format!("{:#018x}", direct.graph().edge_digest());
        assert_eq!(
            result.get("digest").and_then(Json::as_str),
            Some(&expect[..])
        );
        assert_eq!(
            result.get("performed").and_then(Json::as_u64),
            Some(direct.performed())
        );
        let (events, _) = entry.events_from(0);
        assert!(events.len() >= 3, "queued + running + steps + done");
    }

    #[test]
    fn sequential_step_events_carry_live_span_totals() {
        let spans_of = |driver: Driver| -> Vec<u64> {
            let spec = JobSpec {
                driver,
                budget: Budget::Ops(5000),
                ..er_spec()
            };
            let entry = JobEntry::new(1, spec);
            let opts = WorkerOpts {
                chunk: 1024,
                ckpt_every: 0,
            };
            run_job(&entry, opts, None, &AtomicBool::new(false), &|_| Ok(())).expect("completes");
            let (events, _) = entry.events_from(0);
            events
                .iter()
                .filter(|ev| ev.get("event").and_then(Json::as_str) == Some("step"))
                .filter_map(|ev| ev.get("spans").and_then(Json::as_u64))
                .collect()
        };
        // Several spans per operation at one probe event per 1024 spans:
        // every 1024-op chunk sees a fresh cumulative total.
        let spans = spans_of(Driver::Sequential);
        assert!(spans.len() >= 4, "{spans:?}");
        assert!(spans.windows(2).all(|w| w[0] < w[1]), "{spans:?}");
        assert!(spans_of(Driver::Simulated).is_empty());
    }

    #[test]
    fn a_checkpoint_of_another_job_fails_the_job_with_its_own_code() {
        for driver in [Driver::Sequential, Driver::Simulated] {
            let spec = JobSpec {
                driver,
                ..er_spec()
            };
            let entry = JobEntry::new(1, spec);
            let out = run_job(
                &entry,
                WorkerOpts::default(),
                Some(b"ESNP, but not really".to_vec()),
                &AtomicBool::new(false),
                &|_| Ok(()),
            );
            assert!(out.is_none());
            assert_eq!(entry.phase(), JobPhase::Failed);
            let (events, _) = entry.events_from(0);
            let failed = events.last().expect("failed event");
            assert_eq!(
                failed.get("code").and_then(Json::as_str),
                Some("bad-checkpoint"),
                "{}",
                failed.to_json()
            );
        }
    }

    #[test]
    fn a_poisoned_entry_can_still_be_failed_and_read() {
        let entry = std::sync::Arc::new(JobEntry::new(1, er_spec()));
        let poisoner = entry.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.state.lock().unwrap();
            panic!("worker dies holding the progress record");
        })
        .join();
        assert!(entry.state.is_poisoned());
        entry.set_failed("internal", "the job's worker panicked".to_string());
        assert_eq!(entry.phase(), JobPhase::Failed);
        let (events, _, phase) = entry.wait_events(0, Duration::from_millis(1));
        assert_eq!(phase, JobPhase::Failed);
        assert_eq!(
            events
                .last()
                .and_then(|ev| ev.get("code"))
                .and_then(Json::as_str),
            Some("internal")
        );
    }

    #[test]
    fn stopped_job_leaves_a_resumable_snapshot() {
        for randomizer in [Randomizer::Switch, Randomizer::Curveball] {
            stopped_job_resumes(JobSpec {
                driver: Driver::Sequential,
                p: 1,
                budget: Budget::Ops(5000),
                randomizer,
                ..er_spec()
            });
        }
    }

    fn stopped_job_resumes(spec: JobSpec) {
        // Run uninterrupted for the reference digest.
        let reference = {
            let entry = JobEntry::new(1, spec.clone());
            run_job(
                &entry,
                WorkerOpts {
                    chunk: 256,
                    ckpt_every: 1,
                },
                None,
                &AtomicBool::new(false),
                &|_| Ok(()),
            )
            .unwrap()
        };
        // Raise stop before the first chunk: the worker snapshots the
        // fresh engine and returns; resuming replays the whole run.
        let entry = JobEntry::new(2, spec.clone());
        let stop_now = AtomicBool::new(true);
        let snap = std::sync::Mutex::new(Vec::new());
        let out = run_job(
            &entry,
            WorkerOpts {
                chunk: 256,
                ckpt_every: 1,
            },
            None,
            &stop_now,
            &|bytes| {
                *snap.lock().unwrap() = bytes.to_vec();
                Ok(())
            },
        );
        assert!(out.is_none());
        let bytes = snap.lock().unwrap().clone();
        assert!(!bytes.is_empty(), "stop must leave a snapshot");
        let resumed = run_job(
            &entry,
            WorkerOpts {
                chunk: 256,
                ckpt_every: 1,
            },
            Some(bytes),
            &AtomicBool::new(false),
            &|_| Ok(()),
        )
        .unwrap();
        assert_eq!(
            resumed.get("digest").and_then(Json::as_str),
            reference.get("digest").and_then(Json::as_str),
            "resumed result must be bit-identical"
        );
    }
}
