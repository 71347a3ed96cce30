//! The [`Run`] builder and the stepped [`Engine`] behind it: the one way
//! to run a switching job.
//!
//! Pick a driver and a randomizer, state the budget as either an
//! operation count or a target visit rate (Section 3.1: `t = E[T]/2`),
//! tune the knobs, and `execute`:
//!
//! ```
//! use edgeswitch_core::Run;
//! use edgeswitch_dist::root_rng;
//! use edgeswitch_graph::generators::erdos_renyi_gnm;
//!
//! let g = erdos_renyi_gnm(200, 800, &mut root_rng(1));
//! let out = Run::sequential().switches(500).seed(9).execute(&g);
//! assert_eq!(out.performed(), 500);
//! assert_eq!(out.graph().degree_sequence(), g.degree_sequence());
//!
//! let out = Run::parallel(4).visit_rate(0.5).seed(9).execute(&g);
//! assert!((out.visit_rate() - 0.5).abs() < 0.1);
//! ```
//!
//! Both randomizers have natural pause points — between two operations
//! of Algorithm 1, at the Section 4.5 step boundary, between two
//! Curveball passes — where no randomness is in flight, so every
//! sequential and simulated run is a stepped [`Engine`]: [`Run::start`],
//! [`Engine::advance`] until [`Engine::is_done`], [`Engine::finish`];
//! [`Engine::snapshot`] between two calls captures everything
//! [`Run::resume`] needs to continue bit-exactly in a fresh process.
//! `execute` on those drivers *is* that loop:
//!
//! ```
//! use edgeswitch_core::{Randomizer, Run};
//! use edgeswitch_dist::root_rng;
//! use edgeswitch_graph::generators::erdos_renyi_gnm;
//!
//! let g = erdos_renyi_gnm(200, 800, &mut root_rng(1));
//! for run in [
//!     Run::simulated(4).switches(600).seed(3),
//!     Run::sequential().randomizer(Randomizer::Curveball).switches(600).seed(3),
//! ] {
//!     let mut engine = run.start(&g).unwrap();
//!     engine.advance(100);
//!     let bytes = engine.snapshot();
//!     drop(engine); // the process dies here
//!     let mut engine = run.resume(&g, &bytes).unwrap();
//!     while !engine.is_done() {
//!         engine.advance(100);
//!     }
//!     let resumed = engine.finish();
//!     let oneshot = run.execute(&g);
//!     assert_eq!(resumed.graph().edge_digest(), oneshot.graph().edge_digest());
//! }
//! ```
//!
//! Who owns what: `Run` validates, resolves the budget, builds the
//! partitioner and picks the engine from its driver and randomizer — the
//! per-rank [`ParallelConfig`] names neither, so a prepared config can
//! never change them. The engine ([`SequentialResumable`],
//! [`CurveballResumable`], the simulated `SimWorld` of either
//! randomizer) owns set-up, stepping, snapshot and teardown. The
//! threaded and process worlds run one-shot in [`Run::try_execute`].

use crate::config::{Budget, ParallelConfig, QuotaPolicy, Randomizer, StepSize};
use crate::obs::{ObsSpec, ProgressEvent, RunReport, StepProgress};
use crate::parallel::engine::run_threaded_world;
use crate::parallel::proc::{process_backend_supported, process_switch, ProcError};
use crate::parallel::resume::SimWorld;
use crate::parallel::trade::{Passes, TradeRankState};
use crate::parallel::wire::{
    decode_curveball_checkpoint, decode_seq_checkpoint, decode_world_snapshot,
};
use crate::parallel::{FifoTransport, ParallelOutcome, RankState, StepHarness, WorldTransport};
use crate::sequential::{SequentialOutcome, SequentialResumable};
use crate::trade::CurveballResumable;
use edgeswitch_graph::{Graph, Partitioner, SchemeKind};
use std::borrow::Cow;
use std::sync::mpsc::Sender;

/// Why a [`Run`] could not execute. Produced by [`Run::try_execute`],
/// [`Run::start`] and [`Run::resume`]; [`Run::execute`] panics with the
/// same message.
///
/// Validation errors ([`RunError::InvalidBudget`],
/// [`RunError::InvalidConfig`]) are recorded at the builder call that
/// supplied the bad value — the first offending call wins — and surface
/// at execute time, so a server can reject a bad job submission without
/// running anything. Launch errors ([`RunError::BackendUnsupported`],
/// [`RunError::SpawnFailed`], [`RunError::RankDied`]) come from the
/// process backend's fallible launcher.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// The budget is unusable: a visit-rate target outside `(0, 1]` or
    /// not a number.
    InvalidBudget(String),
    /// A configuration knob is out of its documented range (`p ≥ 1`,
    /// `window ≥ 1`, a partitioner of `p` parts).
    InvalidConfig(String),
    /// The selected driver cannot run this job on this platform or with
    /// this randomizer (the process backend needs Linux and supports
    /// switches only; threaded and process runs cannot be stepped).
    BackendUnsupported(String),
    /// A process-backend rank child could not be spawned.
    SpawnFailed(String),
    /// A process-backend rank child died, exited abnormally, or returned
    /// no result.
    RankDied(String),
    /// The bytes handed to [`Run::resume`] are not a snapshot of this
    /// run: truncated or damaged, written by another engine or
    /// randomizer or format version, or taken from a different graph,
    /// seed or budget.
    BadSnapshot(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::InvalidBudget(detail) => write!(f, "invalid budget: {detail}"),
            RunError::InvalidConfig(detail) => write!(f, "invalid config: {detail}"),
            RunError::BackendUnsupported(detail) => write!(f, "backend unsupported: {detail}"),
            RunError::SpawnFailed(detail) => write!(f, "spawn failed: {detail}"),
            RunError::RankDied(detail) => write!(f, "rank died: {detail}"),
            RunError::BadSnapshot(detail) => write!(f, "bad snapshot: {detail}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<ProcError> for RunError {
    fn from(err: ProcError) -> Self {
        match err {
            ProcError::Unsupported(_) => RunError::BackendUnsupported(err.to_string()),
            ProcError::Spawn { .. } => RunError::SpawnFailed(err.to_string()),
            ProcError::RankDied { .. } => RunError::RankDied(err.to_string()),
        }
    }
}

/// Which engine executes the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// One thread: Algorithm 1, or sequential Curveball passes.
    Sequential,
    /// The distributed protocol on `p` real (threaded) ranks.
    Threaded,
    /// The distributed protocol on `p` rank processes over
    /// shared-memory rings.
    Process,
    /// The distributed protocol on `p` simulated ranks (deterministic
    /// FIFO world — bit-reproducible at any `p`).
    Simulated,
}

/// Builder for one switching run. Start from [`Run::sequential`],
/// [`Run::parallel`], [`Run::process`] or [`Run::simulated`], chain the
/// knobs, then call [`Run::execute`] (or [`Run::start`] to step it).
#[derive(Clone, Debug)]
pub struct Run {
    mode: Mode,
    randomizer: Randomizer,
    budget: Budget,
    config: ParallelConfig,
    /// An explicit partitioner ([`Run::prepared`]); `None` builds the
    /// one `config.scheme` names.
    part: Option<Partitioner>,
    /// First validation error recorded by a builder call, surfaced by
    /// [`Run::try_execute`]. Builders record it *before* the config's
    /// defensive clamps run, so the raw offending value is preserved.
    invalid: Option<RunError>,
}

impl Run {
    fn new(mode: Mode, processors: usize) -> Self {
        let invalid = if processors == 0 {
            Some(RunError::InvalidConfig(
                "processors must be >= 1 (got 0)".to_string(),
            ))
        } else {
            None
        };
        Run {
            mode,
            randomizer: Randomizer::default(),
            // The paper's headline experiments run to full visit rate.
            budget: Budget::VisitRate(1.0),
            config: ParallelConfig::new(processors.max(1)),
            part: None,
            invalid,
        }
    }

    /// Record the first validation error; later ones are ignored so the
    /// surfaced message names the builder call that went wrong first.
    fn record_invalid(&mut self, err: RunError) {
        if self.invalid.is_none() {
            self.invalid = Some(err);
        }
    }

    /// A sequential run (Algorithm 1). The parallel-only knobs
    /// ([`Run::scheme`], [`Run::step_size`], [`Run::window`]) are
    /// accepted and ignored.
    pub fn sequential() -> Self {
        Run::new(Mode::Sequential, 1)
    }

    /// A parallel run on `p` threaded ranks (Sections 4–5).
    pub fn parallel(p: usize) -> Self {
        Run::new(Mode::Threaded, p)
    }

    /// A parallel run on `p` rank *processes* over shared-memory rings
    /// (Linux only): the same protocol as [`Run::parallel`], but each
    /// rank owns an OS process — and therefore a core — instead of a
    /// thread. Logically equivalent to [`Run::parallel`] at every `p`,
    /// bit-identical to the simulators at `p = 1`.
    pub fn process(p: usize) -> Self {
        Run::new(Mode::Process, p)
    }

    /// A parallel run on `p` deterministically simulated ranks: the same
    /// protocol as [`Run::parallel`], delivered from a global FIFO queue
    /// in one thread — bit-reproducible for a given seed at any `p`.
    pub fn simulated(p: usize) -> Self {
        Run::new(Mode::Simulated, p)
    }

    /// Budget by target expected visit rate `x` (the default, at
    /// `x = 1.0`): `t` is derived from the graph's edge count at
    /// execute time. Accepted range: `x ∈ (0, 1]`; anything else
    /// (including NaN) is [`RunError::InvalidBudget`] at execute time.
    pub fn visit_rate(self, x: f64) -> Self {
        self.budget(Budget::VisitRate(x))
    }

    /// Budget by explicit switch-operation count `t`. Under
    /// [`Randomizer::Curveball`] the count budgets whole passes of
    /// trades instead (a pass of an `n`-vertex graph runs `⌊n/2⌋`
    /// trades; the run stops at the first pass boundary at or past `t`).
    pub fn switches(self, t: u64) -> Self {
        self.budget(Budget::Ops(t))
    }

    /// Either budget: [`Run::switches`] or [`Run::visit_rate`].
    pub fn budget(mut self, budget: Budget) -> Self {
        if let Budget::VisitRate(x) = budget {
            if !(x > 0.0 && x <= 1.0) {
                self.record_invalid(RunError::InvalidBudget(format!(
                    "visit_rate must lie in (0, 1] (got {x})"
                )));
            }
        }
        self.budget = budget;
        self
    }

    /// Randomization scheme: classic edge [`Randomizer::Switch`]
    /// operations (the default) or global [`Randomizer::Curveball`]
    /// trades, which re-deal whole disjoint neighborhoods per operation
    /// and reach a target visit rate with far fewer operations (see
    /// `crate::trade`). Curveball supports the sequential, threaded and
    /// simulated drivers, but not the process backend.
    pub fn randomizer(mut self, randomizer: Randomizer) -> Self {
        self.randomizer = randomizer;
        self
    }

    /// The randomizer this builder runs.
    pub fn get_randomizer(&self) -> Randomizer {
        self.randomizer
    }

    /// Master seed (drives the sequential RNG or every rank stream).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config = self.config.with_seed(seed);
        self
    }

    /// Partitioning scheme (parallel/simulated only).
    pub fn scheme(mut self, scheme: SchemeKind) -> Self {
        self.config = self.config.with_scheme(scheme);
        self
    }

    /// Step-size policy (parallel/simulated only).
    pub fn step_size(mut self, step_size: StepSize) -> Self {
        self.config = self.config.with_step_size(step_size);
        self
    }

    /// Quota/partner weighting policy (parallel/simulated only):
    /// edge-proportional (the paper's Algorithm 2, the default) or
    /// uniform `1/p` (an ablation that breaks stochastic equivalence).
    pub fn quota_policy(mut self, policy: QuotaPolicy) -> Self {
        self.config = self.config.with_quota_policy(policy);
        self
    }

    /// Pipelining window (parallel/simulated only; `1` = stop-and-wait).
    /// Accepted range: `window ≥ 1`; `0` is [`RunError::InvalidConfig`]
    /// at execute time.
    pub fn window(mut self, window: usize) -> Self {
        if window == 0 {
            self.record_invalid(RunError::InvalidConfig(
                "window must be >= 1 (got 0)".to_string(),
            ));
        }
        self.config = self.config.with_window(window);
        self
    }

    /// Attach observation: with [`ObsSpec::Spans`] the outcome carries a
    /// [`RunReport`] of phase timings, latency histograms and gauges.
    /// Recording never perturbs the run (see [`crate::obs`]).
    pub fn probe(mut self, spec: ObsSpec) -> Self {
        self.config = self.config.with_obs(spec);
        self
    }

    /// Run under a [`ParallelConfig`] the caller prepared, replacing
    /// every knob above (`config.processors` included), and — with
    /// `Some(part)` — over exactly that partitioner instead of the one
    /// `config.scheme` would build (adversarial or custom partitioning
    /// experiments). The driver, the randomizer and the budget stay the
    /// builder's. This is the one door for values that have no knob of
    /// their own (`local_fastpath`, `proc_opts`).
    pub fn prepared(mut self, config: ParallelConfig, part: Option<Partitioner>) -> Self {
        if config.processors == 0 {
            self.record_invalid(RunError::InvalidConfig(
                "processors must be >= 1 (got 0)".to_string(),
            ));
        }
        self.config = config;
        self.part = part;
        self
    }

    /// The [`ParallelConfig`] this builder resolves to.
    pub fn config(&self) -> &ParallelConfig {
        &self.config
    }

    /// Check the builder without executing anything: surfaces the first
    /// recorded builder error and driver combinations this platform
    /// cannot run. A job server calls this at submit time so bad jobs
    /// are rejected before they queue.
    pub fn validate(&self) -> Result<(), RunError> {
        if let Some(err) = &self.invalid {
            return Err(err.clone());
        }
        if let Some(part) = &self.part {
            if part.num_parts() != self.config.processors {
                return Err(RunError::InvalidConfig(format!(
                    "partitioner has {} parts for {} processors",
                    part.num_parts(),
                    self.config.processors
                )));
            }
        }
        if self.mode == Mode::Process {
            if self.randomizer == Randomizer::Curveball {
                return Err(RunError::BackendUnsupported(
                    "the process backend runs the switch protocol only; \
                     Curveball needs the threaded or simulated driver"
                        .to_string(),
                ));
            }
            if !process_backend_supported() {
                return Err(RunError::BackendUnsupported(
                    "the process backend needs shared-memory support (Linux)".to_string(),
                ));
            }
        }
        Ok(())
    }

    /// The switch protocol's operation count on `graph`. (Curveball
    /// reads the budget as it is: its pass controller handles a
    /// visit-rate target natively — reaching the rate in fewer
    /// operations is precisely the point.)
    fn resolve_ops(&self, graph: &Graph) -> u64 {
        match self.budget {
            Budget::Ops(t) => t,
            Budget::VisitRate(x) => {
                edgeswitch_dist::switch_ops_for_visit_rate(graph.num_edges() as u64, x)
            }
        }
    }

    /// The partitioner of this run on `graph`: the explicit one, or the
    /// one the configured scheme builds from the config's root stream —
    /// every driver derives it the same way, so a given `(graph, config)`
    /// pair partitions identically (and a resumed run re-derives it).
    fn partitioner(&self, graph: &Graph) -> Partitioner {
        self.part.clone().unwrap_or_else(|| {
            Partitioner::build(
                self.config.scheme,
                graph,
                self.config.processors,
                &mut self.config.root_rng(),
            )
        })
    }

    /// Execute the run, panicking with the [`RunError`]'s message on any
    /// failure. Thin wrapper over [`Run::try_execute`] for callers (the
    /// bench CLI, examples, tests) that treat failure as fatal. The input
    /// graph is not modified: sequential runs switch a clone, parallel
    /// runs partition and reassemble.
    pub fn execute(&self, graph: &Graph) -> RunOutcome {
        self.try_execute(graph)
            .unwrap_or_else(|err| panic!("{err}"))
    }

    /// Execute the run, surfacing failures as typed [`RunError`]s: bad
    /// builder inputs recorded at the call that supplied them
    /// ([`RunError::InvalidBudget`], [`RunError::InvalidConfig`]),
    /// driver/randomizer combinations this platform cannot run
    /// ([`RunError::BackendUnsupported`]), and process-backend launch or
    /// rank failures ([`RunError::SpawnFailed`], [`RunError::RankDied`]).
    /// A sequential or simulated run is [`Run::start`] →
    /// [`Engine::run_to_end`]. The input graph is not modified.
    pub fn try_execute(&self, graph: &Graph) -> Result<RunOutcome, RunError> {
        if matches!(self.mode, Mode::Sequential | Mode::Simulated) {
            return Ok(self.start(graph)?.run_to_end());
        }
        self.validate()?;
        let (part, config) = (self.partitioner(graph), &self.config);
        let out = match (self.mode, self.randomizer) {
            (Mode::Process, _) => process_switch(graph, self.resolve_ops(graph), config, &part)?,
            (_, Randomizer::Switch) => {
                let harness = StepHarness::new(self.resolve_ops(graph), config);
                run_threaded_world::<RankState>(graph, config, &part, harness)
            }
            (_, Randomizer::Curveball) => {
                let passes = Passes::new(graph, self.budget);
                run_threaded_world::<TradeRankState>(graph, config, &part, passes)
            }
        };
        Ok(RunOutcome::Parallel(Box::new(out)))
    }

    /// Why a threaded or process run has no stepped engine.
    fn not_steppable() -> RunError {
        RunError::BackendUnsupported(
            "only sequential and simulated runs can be stepped; \
             threaded and process runs execute one-shot"
                .to_string(),
        )
    }

    /// Start the run as a stepped [`Engine`] without executing anything
    /// yet: validation and set-up happen here, the work in
    /// [`Engine::advance`]. A started engine honours [`Run::probe`] —
    /// [`Engine::finish`] then carries the [`RunReport`].
    ///
    /// `graph` is a `&Graph` (left unmodified: a sequential engine
    /// randomizes a clone — the switch engine of its edge pool alone) or
    /// a `Graph` the caller is done with (randomized in place of a
    /// clone — the job service's peak memory). Threaded and process runs
    /// are [`RunError::BackendUnsupported`].
    pub fn start<'g>(&self, graph: impl Into<Cow<'g, Graph>>) -> Result<Engine, RunError> {
        let graph = graph.into();
        self.validate()?;
        let config = &self.config;
        let engine: Box<dyn Stepped> = match (self.mode, self.randomizer) {
            (Mode::Sequential, Randomizer::Switch) => {
                let t = self.resolve_ops(&graph);
                Box::new(SequentialResumable::new(graph, t, config.seed).with_obs(config.obs))
            }
            (Mode::Sequential, Randomizer::Curveball) => Box::new(
                CurveballResumable::new(graph, self.budget, config.seed).with_obs(config.obs),
            ),
            (Mode::Simulated, Randomizer::Switch) => Box::new(SimWorld::<_, RankState>::set_up(
                &graph,
                config,
                &self.partitioner(&graph),
                FifoTransport::new(),
                StepHarness::new(self.resolve_ops(&graph), config),
            )),
            (Mode::Simulated, Randomizer::Curveball) => {
                Box::new(SimWorld::<_, TradeRankState>::set_up(
                    &graph,
                    config,
                    &self.partitioner(&graph),
                    FifoTransport::new(),
                    Passes::new(&graph, self.budget),
                ))
            }
            (Mode::Threaded | Mode::Process, _) => return Err(Run::not_steppable()),
        };
        Ok(Engine(engine))
    }

    /// Rebuild the engine of this run on `graph` from
    /// [`Engine::snapshot`] bytes, positioned to continue bit-identically
    /// to the uninterrupted run. The snapshot never carries a probe, so
    /// a resumed engine is unobserved whatever [`Run::probe`] says.
    ///
    /// The bytes are untrusted: anything that is not a well-formed
    /// snapshot of *this* run on *this* graph — truncated, damaged,
    /// another engine's or randomizer's, another seed, budget or graph —
    /// is [`RunError::BadSnapshot`], never a panic.
    pub fn resume(&self, graph: &Graph, snapshot: &[u8]) -> Result<Engine, RunError> {
        self.validate()?;
        let config = &self.config;
        let engine: Result<Box<dyn Stepped>, String> = match (self.mode, self.randomizer) {
            (Mode::Sequential, Randomizer::Switch) => decode_seq_checkpoint(snapshot)
                .and_then(|ckpt| {
                    SequentialResumable::restore(graph, self.resolve_ops(graph), config.seed, &ckpt)
                })
                .map(|eng| Box::new(eng) as Box<dyn Stepped>),
            (Mode::Sequential, Randomizer::Curveball) => decode_curveball_checkpoint(snapshot)
                .and_then(|ckpt| {
                    CurveballResumable::restore(graph, self.budget, config.seed, &ckpt)
                })
                .map(|eng| Box::new(eng) as Box<dyn Stepped>),
            (Mode::Simulated, Randomizer::Switch) => decode_world_snapshot(snapshot)
                .and_then(|snap| {
                    let harness = StepHarness::new(self.resolve_ops(graph), config);
                    let part = self.partitioner(graph);
                    SimWorld::<_, RankState>::resume(graph, config, &part, harness, &snap)
                })
                .map(|world| Box::new(world) as Box<dyn Stepped>),
            (Mode::Simulated, Randomizer::Curveball) => decode_world_snapshot(snapshot)
                .and_then(|snap| {
                    let (passes, part) = (Passes::new(graph, self.budget), self.partitioner(graph));
                    SimWorld::<_, TradeRankState>::resume(graph, config, &part, passes, &snap)
                })
                .map(|world| Box::new(world) as Box<dyn Stepped>),
            (Mode::Threaded | Mode::Process, _) => return Err(Run::not_steppable()),
        };
        engine.map(Engine).map_err(RunError::BadSnapshot)
    }

    /// Execute this job on the simulated world over a caller-supplied
    /// [`WorldTransport`], handing the transport back with the outcome —
    /// how the virtual-time DES of `edgeswitch-scalesim` runs the same
    /// world as [`Run::simulated`] with costs charged along the way.
    /// Budget, config, randomizer and partitioner are the builder's;
    /// which driver it named is immaterial.
    pub fn try_execute_over<T: WorldTransport>(
        &self,
        graph: &Graph,
        transport: T,
    ) -> Result<(ParallelOutcome, T), RunError> {
        self.validate()?;
        let (part, config) = (self.partitioner(graph), &self.config);
        Ok(match self.randomizer {
            Randomizer::Switch => {
                let harness = StepHarness::new(self.resolve_ops(graph), config);
                SimWorld::<_, RankState>::set_up(graph, config, &part, transport, harness).run()
            }
            Randomizer::Curveball => {
                let passes = Passes::new(graph, self.budget);
                SimWorld::<_, TradeRankState>::set_up(graph, config, &part, transport, passes).run()
            }
        })
    }
}

/// One stepped engine as [`Engine`] drives it (each implements it
/// beside its own code).
pub(crate) trait Stepped {
    /// Do the next piece of work; returns the logical messages it sent.
    fn advance(&mut self, max_ops: u64) -> u64;
    /// Where the run stands (`logical_msgs` left zero).
    fn progress(&self) -> StepProgress;
    fn snapshot(&self) -> Vec<u8>;
    /// Stream span totals through `tx` (if the engine has one stream).
    fn attach_probe(&mut self, _tx: Sender<ProgressEvent>, _every: u64) {}
    fn finish(self: Box<Self>) -> RunOutcome;
}

/// A started (or resumed) run that executes in caller-sized pieces:
/// [`Engine::advance`] until [`Engine::is_done`], then
/// [`Engine::finish`]. Which engine and which snapshot format is behind
/// it — [`SequentialResumable`] or [`CurveballResumable`] for
/// [`Run::sequential`], the FIFO `SimWorld` for [`Run::simulated`] — is
/// hidden; however the budget is cut into `advance` calls, and across
/// any [`Engine::snapshot`]/[`Run::resume`] boundary, `finish()` equals
/// the one-shot [`Run::execute`] bit for bit. Under
/// [`Randomizer::Curveball`] the operations are trades.
pub struct Engine(Box<dyn Stepped>);

impl Engine {
    /// Do the next piece of work and report where the run stands: a
    /// sequential switch engine performs up to `max_ops` further
    /// operations; a Curveball engine runs its next pass and a simulated
    /// one its next Section-4.5 step — their indivisible units —
    /// whatever `max_ops > 0` says. `max_ops == 0` and a finished engine
    /// do nothing.
    pub fn advance(&mut self, max_ops: u64) -> StepProgress {
        let logical_msgs = self.0.advance(max_ops);
        StepProgress {
            logical_msgs,
            ..self.0.progress()
        }
    }

    /// Stream live span totals out of the engine while it runs: a
    /// [`StreamingProbe`](crate::obs::StreamingProbe) sends cumulative
    /// totals through `tx` every `every` spans, in place of whatever
    /// [`Run::probe`] attached ([`Engine::finish`] then carries no
    /// report). Works on a resumed engine too. Only the sequential
    /// engines have one span stream to forward; on a simulated engine
    /// (one probe per rank) this does nothing and `tx` is dropped.
    pub fn attach_probe(&mut self, tx: Sender<ProgressEvent>, every: u64) {
        self.0.attach_probe(tx, every);
    }

    /// Whether the budget is exhausted (performed, abandoned, forfeited,
    /// or — under Curveball — the graph unable to mix further).
    pub fn is_done(&self) -> bool {
        self.0.progress().done
    }

    /// Operations performed so far (trades under Curveball).
    pub fn performed(&self) -> u64 {
        self.0.progress().performed
    }

    /// The run's operation budget `t`. Under Curveball: the
    /// [`Run::switches`] count, or — a visit-rate target fixing no trade
    /// count — the trades run so far, [`Engine::performed`] at every
    /// pause point.
    pub fn budget(&self) -> u64 {
        self.0.progress().budget
    }

    /// Observed visit rate so far.
    pub fn visit_rate(&self) -> f64 {
        self.0.progress().visit_rate
    }

    /// The complete engine state at the current pause point, as bytes
    /// for [`Run::resume`] (the `ESNP` snapshot codec of
    /// [`crate::parallel::wire`]).
    pub fn snapshot(&self) -> Vec<u8> {
        self.0.snapshot()
    }

    /// Tear down into the outcome of the work done so far (the whole
    /// run's once [`Engine::is_done`]); carries the [`RunReport`] iff
    /// the engine was started observed.
    pub fn finish(self) -> RunOutcome {
        self.0.finish()
    }

    /// Advance to the end of the budget and tear down — all of
    /// [`Run::execute`] on a stepped driver: the sequential switch
    /// budget as one chunk, everything else unit by unit.
    pub fn run_to_end(mut self) -> RunOutcome {
        while !self.is_done() {
            self.0.advance(u64::MAX);
        }
        self.finish()
    }
}

/// A sequential run's randomized graph together with its outcome.
#[derive(Clone, Debug)]
pub struct SequentialRun {
    /// The randomized graph.
    pub graph: Graph,
    /// The run's counters, visits and (if observed) report.
    pub outcome: SequentialOutcome,
}

/// What [`Run::execute`] (or [`Engine::finish`]) produced, with
/// driver-independent accessors.
#[derive(Debug)]
pub enum RunOutcome {
    /// A sequential run.
    Sequential(Box<SequentialRun>),
    /// A parallel run (threaded, process or simulated).
    Parallel(Box<ParallelOutcome>),
}

impl RunOutcome {
    /// The switched graph.
    pub fn graph(&self) -> &Graph {
        match self {
            RunOutcome::Sequential(run) => &run.graph,
            RunOutcome::Parallel(out) => &out.graph,
        }
    }

    /// Observed visit rate.
    pub fn visit_rate(&self) -> f64 {
        match self {
            RunOutcome::Sequential(run) => run.outcome.visit_rate(),
            RunOutcome::Parallel(out) => out.visit_rate(),
        }
    }

    /// Switch operations performed.
    pub fn performed(&self) -> u64 {
        match self {
            RunOutcome::Sequential(run) => run.outcome.performed,
            RunOutcome::Parallel(out) => out.performed(),
        }
    }

    /// The observability report (`Some` iff the run was observed via
    /// [`Run::probe`]).
    pub fn report(&self) -> Option<&RunReport> {
        match self {
            RunOutcome::Sequential(run) => run.outcome.report.as_ref(),
            RunOutcome::Parallel(out) => out.report.as_ref(),
        }
    }

    /// The parallel outcome, if this was a parallel or simulated run.
    pub fn into_parallel(self) -> Option<ParallelOutcome> {
        match self {
            RunOutcome::Parallel(out) => Some(*out),
            RunOutcome::Sequential(_) => None,
        }
    }

    /// The sequential run, if this was one.
    pub fn into_sequential(self) -> Option<SequentialRun> {
        match self {
            RunOutcome::Sequential(run) => Some(*run),
            RunOutcome::Parallel(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::wire::{
        encode_curveball_checkpoint, encode_seq_checkpoint, encode_world_snapshot, SnapField,
    };
    use crate::trade::{CurveballCheckpoint, PassController};
    use crate::visit::Visits;
    use crate::SeqCheckpoint;
    use edgeswitch_dist::root_rng;
    use edgeswitch_graph::generators::erdos_renyi_gnm;
    use edgeswitch_graph::Edge;

    fn graph() -> Graph {
        erdos_renyi_gnm(150, 600, &mut root_rng(3))
    }

    #[test]
    fn builder_resolves_config() {
        let run = Run::parallel(8)
            .scheme(SchemeKind::HashUniversal)
            .step_size(StepSize::SingleStep)
            .seed(42)
            .window(4)
            .probe(ObsSpec::Spans);
        let cfg = run.config();
        assert_eq!(cfg.processors, 8);
        assert_eq!(cfg.scheme, SchemeKind::HashUniversal);
        assert_eq!(cfg.step_size, StepSize::SingleStep);
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.window, 4);
        assert_eq!(cfg.obs, ObsSpec::Spans);
    }

    #[test]
    fn prepared_config_replaces_the_knobs_and_pins_the_partitioner() {
        let g = graph();
        let cfg = ParallelConfig::new(3)
            .with_seed(5)
            .with_local_fastpath(false);
        let run = Run::simulated(8).switches(300).prepared(cfg, None);
        assert_eq!(run.config().processors, 3);
        assert!(!run.config().local_fastpath);
        let built = run.execute(&g).into_parallel().expect("parallel outcome");
        assert_eq!(built.per_rank.len(), 3);
        // The same partitioner handed over explicitly changes nothing;
        // a different one moves the initial split.
        let cfg = run.config().clone();
        let same = Partitioner::build(cfg.scheme, &g, 3, &mut cfg.root_rng());
        let pinned = Run::simulated(3)
            .switches(300)
            .prepared(cfg.clone(), Some(same))
            .execute(&g);
        assert_eq!(pinned.graph().edge_digest(), built.graph.edge_digest());
        let hashed = Run::simulated(3)
            .switches(300)
            .prepared(cfg.clone(), Some(Partitioner::hash_division(3)))
            .execute(&g)
            .into_parallel()
            .expect("parallel outcome");
        assert_ne!(hashed.initial_edges, built.initial_edges);
        let wrong_size = Run::simulated(3)
            .switches(300)
            .prepared(cfg, Some(Partitioner::hash_division(4)))
            .try_execute(&g);
        assert!(matches!(wrong_size, Err(RunError::InvalidConfig(_))));
    }

    #[test]
    fn threaded_and_process_runs_refuse_start_and_resume() {
        let g = graph();
        for randomizer in [Randomizer::Switch, Randomizer::Curveball] {
            assert!(Run::sequential()
                .randomizer(randomizer)
                .switches(10)
                .start(&g)
                .is_ok());
            assert!(Run::simulated(2)
                .randomizer(randomizer)
                .switches(10)
                .start(&g)
                .is_ok());
        }
        for run in [
            Run::parallel(2).switches(10),
            Run::process(2).switches(10),
            Run::parallel(2)
                .switches(10)
                .randomizer(Randomizer::Curveball),
        ] {
            let err = run.start(&g).err().expect("not steppable");
            assert!(matches!(err, RunError::BackendUnsupported(_)), "{err:?}");
            let err = run.resume(&g, &[]).err().expect("not steppable");
            assert!(matches!(err, RunError::BackendUnsupported(_)), "{err:?}");
        }
    }

    #[test]
    fn a_started_engine_is_observed_and_a_resumed_one_is_not() {
        let g = graph();
        let curveball = |run: Run| run.randomizer(Randomizer::Curveball);
        for run in [
            Run::sequential(),
            Run::simulated(2),
            curveball(Run::sequential()),
            curveball(Run::simulated(2)),
        ] {
            let run = run.switches(400).seed(3).probe(ObsSpec::Spans);
            let mut engine = run.start(&g).expect("steppable");
            engine.advance(100);
            let bytes = engine.snapshot();
            let observed = engine.run_to_end();
            assert!(observed.report().is_some());
            let resumed = run.resume(&g, &bytes).expect("own snapshot").run_to_end();
            assert!(resumed.report().is_none());
            assert_eq!(
                resumed.graph().edge_digest(),
                observed.graph().edge_digest()
            );
        }
    }

    #[test]
    fn a_streamed_engine_is_bit_identical_to_a_silent_one() {
        let g = graph();
        let run = Run::sequential().switches(600).seed(21);
        let silent = run.execute(&g);
        // Streaming attaches to a fresh engine and again after a resume.
        let (tx, rx) = std::sync::mpsc::channel();
        let mut engine = run.start(&g).unwrap();
        engine.attach_probe(tx.clone(), 16);
        engine.advance(97);
        let bytes = engine.snapshot();
        drop(engine);
        let mut engine = run.resume(&g, &bytes).unwrap();
        engine.attach_probe(tx, 16);
        let streamed = engine.run_to_end();
        assert_eq!(streamed.graph().edge_digest(), silent.graph().edge_digest());
        assert_eq!(streamed.performed(), silent.performed());
        assert!(streamed.report().is_none());
        let events: Vec<ProgressEvent> = rx.iter().collect();
        assert!(events.len() > 2, "both probes must stream");
        // A simulated engine has no single span stream: the sender is
        // dropped unused and the run is untouched.
        let (tx, rx) = std::sync::mpsc::channel();
        let sim = Run::simulated(2).switches(100).seed(21);
        let mut engine = sim.start(&g).unwrap();
        engine.attach_probe(tx, 1);
        let out = engine.run_to_end();
        assert_eq!(
            out.graph().edge_digest(),
            sim.execute(&g).graph().edge_digest()
        );
        assert_eq!(rx.iter().count(), 0);
    }

    #[test]
    fn advance_reports_progress_and_zero_does_nothing() {
        let g = graph();
        let mut seq = Run::sequential().switches(100).start(&g).unwrap();
        assert_eq!(seq.advance(0).performed, 0);
        let progress = seq.advance(30);
        assert_eq!((progress.performed, progress.budget), (30, 100));
        assert_eq!((progress.step, progress.steps), (0, 0));
        assert!((progress.fraction() - 0.3).abs() < 1e-12);
        let mut sim = Run::simulated(2)
            .switches(100)
            .step_size(StepSize::Ops(25))
            .start(&g)
            .unwrap();
        assert_eq!(sim.advance(0).step, 0);
        let progress = sim.advance(1);
        assert_eq!((progress.step, progress.steps), (1, 4));
        assert_eq!(progress.performed, sim.performed());
        assert!(progress.logical_msgs > 0);
        assert!(!sim.is_done());
    }

    #[test]
    fn foreign_snapshots_are_bad_snapshots() {
        let g = graph();
        let seq = Run::sequential().switches(200).seed(1);
        let sim = Run::simulated(2).switches(200).seed(1);
        let seq_bytes = seq.start(&g).unwrap().snapshot();
        let sim_bytes = sim.start(&g).unwrap().snapshot();
        let bad = |res: Result<Engine, RunError>| {
            matches!(res.err().expect("must fail"), RunError::BadSnapshot(_))
        };
        // The other engine's format, another seed, budget or graph.
        assert!(bad(seq.resume(&g, &sim_bytes)));
        assert!(bad(sim.resume(&g, &seq_bytes)));
        assert!(bad(seq.clone().seed(2).resume(&g, &seq_bytes)));
        assert!(bad(sim.clone().seed(2).resume(&g, &sim_bytes)));
        assert!(bad(seq.clone().switches(201).resume(&g, &seq_bytes)));
        let other = erdos_renyi_gnm(150, 600, &mut root_rng(4));
        assert!(bad(seq.resume(&other, &seq_bytes)));
        assert!(bad(sim.resume(&other, &sim_bytes)));
        assert!(bad(seq.resume(&g, &seq_bytes[..seq_bytes.len() - 1])));
        // A snapshot stamped with the retired format version 1 is
        // refused by its header, not misread.
        let mut v1 = sim_bytes.clone();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        let why = match sim.resume(&g, &v1).err().expect("must fail") {
            RunError::BadSnapshot(why) => why,
            other => panic!("{other:?}"),
        };
        assert!(why.contains("unsupported version 1"), "{why}");
        assert!(seq.resume(&g, &seq_bytes).is_ok());
        assert!(sim.resume(&g, &sim_bytes).is_ok());

        // Curveball, mid-run on both engines: the switch snapshot of the
        // same driver and the reverse, another trade budget, another
        // seed, and every truncation.
        for (switches, run) in [(&seq, Run::sequential()), (&sim, Run::simulated(2))] {
            let trades = run.randomizer(Randomizer::Curveball).switches(300).seed(1);
            let mut engine = trades.start(&g).unwrap();
            engine.advance(1);
            let bytes = engine.snapshot();
            let switch_bytes = switches.start(&g).unwrap().snapshot();
            assert!(bad(trades.resume(&g, &switch_bytes)));
            assert!(bad(switches.resume(&g, &bytes)));
            assert!(bad(trades.clone().switches(301).resume(&g, &bytes)));
            assert!(bad(trades.clone().visit_rate(0.5).resume(&g, &bytes)));
            assert!(bad(trades.clone().seed(2).resume(&g, &bytes)));
            assert!(bad(trades.resume(&other, &bytes)));
            for cut in 0..bytes.len() {
                assert!(bad(trades.resume(&g, &bytes[..cut])), "cut {cut}");
            }
            assert!(trades.resume(&g, &bytes).is_ok());
        }
    }

    /// `bits` — visit marks over a snapshot's `edges` of a run on `g` —
    /// damaged each way a resume refuses, with what the refusal says: a
    /// word too many or too few, a bit past the last edge, and a mark on
    /// an edge a switch or trade created.
    fn damaged_marks(g: &Graph, edges: &[Edge], bits: &[u64]) -> Vec<(&'static str, Vec<u64>)> {
        let mut long = bits.to_vec();
        long.push(0);
        let mut short = bits.to_vec();
        short.pop();
        assert!(!edges.len().is_multiple_of(64), "no padding bit to set");
        let mut padding = bits.to_vec();
        *padding.last_mut().expect("a word") |= 1 << 63;
        let created = (edges.iter().position(|&e| !g.has_edge(e))).expect("a created edge");
        let mut on_created = bits.to_vec();
        on_created[created / 64] |= 1 << (created % 64);
        vec![
            ("words for", long),
            ("words for", short),
            ("past the last edge", padding),
            ("not an edge of the run's graph", on_created),
        ]
    }

    /// World snapshot `bytes` damaged each way a resume refuses rank 0's
    /// visit marks: as [`damaged_marks`], and with more marks than the
    /// rank tracks — the world's tracked total kept, so only the count
    /// is wrong.
    fn damaged_worlds<C: SnapField + Clone>(
        g: &Graph,
        bytes: &[u8],
    ) -> Vec<(&'static str, Vec<u8>)> {
        let snap = decode_world_snapshot::<C>(bytes).unwrap();
        let rank = &snap.ranks[0];
        let mut worlds: Vec<_> = damaged_marks(g, &rank.store_edges, &rank.visits.unvisited)
            .into_iter()
            .map(|(why, bits)| {
                let mut damaged = snap.clone();
                damaged.ranks[0].visits.unvisited = bits;
                (why, damaged)
            })
            .collect();
        let cut = rank.visits.initial + 1 - marks(&rank.visits.unvisited);
        let mut over = snap.clone();
        over.ranks[0].visits.initial -= cut;
        over.ranks[1].visits.initial += cut;
        worlds.push(("more than its", over));
        (worlds.into_iter())
            .map(|(why, world)| (why, encode_world_snapshot(&world)))
            .collect()
    }

    fn marks(bits: &[u64]) -> usize {
        bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Visit marks are untrusted like the rest of a snapshot: on every
    /// engine, a bitmap a word too long or too short, a bit past the
    /// last edge, a mark on an edge a switch or trade created and more
    /// marks than initial edges are bad snapshots, each refused for its
    /// own reason. A sequential engine's marks cannot outnumber its
    /// initial edges — its snapshot holds exactly that many — so there
    /// the over-count comes with a tracked total the graph refuses.
    #[test]
    fn damaged_visit_marks_are_bad_snapshots() {
        let g = graph();
        // Some operations in, with edges of both kinds: a Curveball pass
        // visits a large share at once.
        let snapshot = |run: &Run, units| {
            let mut engine = run.start(&g).unwrap();
            for _ in 0..units {
                engine.advance(64);
            }
            let bytes = engine.snapshot();
            assert!(run.resume(&g, &bytes).is_ok());
            bytes
        };
        let refused = |run: &Run, bytes: &[u8], why: &str| match run.resume(&g, bytes) {
            Err(RunError::BadSnapshot(reason)) => assert!(reason.contains(why), "{why}: {reason}"),
            other => panic!("{why}: {:?}", other.map(|_| "resumed")),
        };
        let (switches, trades) = (Randomizer::Switch, Randomizer::Curveball);

        let run = Run::sequential().switches(3000).seed(1);
        let ckpt = decode_seq_checkpoint(&snapshot(&run, 4)).unwrap();
        for (why, unvisited) in damaged_marks(&g, &ckpt.graph_edges, &ckpt.visits.unvisited) {
            let damaged = SeqCheckpoint {
                visits: Visits {
                    unvisited,
                    ..ckpt.visits.clone()
                },
                ..ckpt.clone()
            };
            refused(&run, &encode_seq_checkpoint(&damaged), why);
        }
        let over = SeqCheckpoint {
            visits: Visits {
                initial: marks(&ckpt.visits.unvisited) - 1,
                ..ckpt.visits
            },
            ..ckpt
        };
        refused(&run, &encode_seq_checkpoint(&over), "does not fit");

        let run = Run::sequential().randomizer(trades).switches(3000).seed(1);
        let ckpt = decode_curveball_checkpoint(&snapshot(&run, 1)).unwrap();
        for (why, unvisited) in damaged_marks(&g, &ckpt.graph_edges, &ckpt.visits.unvisited) {
            let damaged = CurveballCheckpoint {
                visits: Visits {
                    unvisited,
                    ..ckpt.visits.clone()
                },
                ..ckpt.clone()
            };
            refused(&run, &encode_curveball_checkpoint(&damaged), why);
        }
        let over = CurveballCheckpoint {
            visits: Visits {
                initial: marks(&ckpt.visits.unvisited) - 1,
                ..ckpt.visits
            },
            ..ckpt
        };
        refused(&run, &encode_curveball_checkpoint(&over), "does not fit");

        for randomizer in [switches, trades] {
            let run = Run::simulated(2)
                .randomizer(randomizer)
                .switches(3000)
                .seed(1);
            let bytes = snapshot(&run, if randomizer == switches { 4 } else { 1 });
            let damaged = if randomizer == switches {
                damaged_worlds::<u64>(&g, &bytes)
            } else {
                damaged_worlds::<PassController>(&g, &bytes)
            };
            for (why, bytes) in damaged {
                refused(&run, &bytes, why);
            }
        }
    }

    /// A world snapshot's per-rank initial edge counts are what the
    /// outcome reports as Figure 17's data, so a resume checks them
    /// against the count each rank's checkpoint tracks: one moved from
    /// rank 1 to rank 0 — the total kept — is a bad snapshot, on the
    /// switch world and the Curveball one.
    #[test]
    fn a_damaged_initial_edge_count_is_a_bad_snapshot() {
        let g = graph();
        for randomizer in [Randomizer::Switch, Randomizer::Curveball] {
            let run = Run::simulated(2)
                .randomizer(randomizer)
                .switches(3000)
                .seed(1);
            let mut engine = run.start(&g).unwrap();
            engine.advance(64);
            let bytes = engine.snapshot();
            fn damaged<C: SnapField>(bytes: &[u8]) -> (Vec<u64>, Vec<u8>) {
                let mut snap = decode_world_snapshot::<C>(bytes).unwrap();
                let want = snap.ranks.iter().map(|c| c.visits.initial as u64);
                assert!(snap.initial_edges.iter().copied().eq(want));
                let initial = snap.initial_edges.clone();
                snap.initial_edges[0] += 1;
                snap.initial_edges[1] -= 1;
                (initial, encode_world_snapshot(&snap))
            }
            let (initial, bad) = match randomizer {
                Randomizer::Switch => damaged::<u64>(&bytes),
                Randomizer::Curveball => damaged::<PassController>(&bytes),
            };
            match run.resume(&g, &bad) {
                Err(RunError::BadSnapshot(why)) => assert!(why.contains("tracks"), "{why}"),
                other => panic!("{randomizer:?}: {:?}", other.map(|_| "resumed")),
            }
            let out = run.resume(&g, &bytes).unwrap().run_to_end();
            let out = out.into_parallel().expect("a simulated world");
            assert_eq!(out.initial_edges, initial, "{randomizer:?}");
        }
    }

    /// Edge lists with their visit marks — a sequential checkpoint's one,
    /// a world's one per rank — with `{a, c}` and `{b, d}` of a path
    /// `c – a – b – d` (`c` its least vertex) replaced by `{c, d}`, in
    /// the place of `{a, c}`, and a second `{a, b}` at the end of the
    /// list holding the first. Both new entries are unmarked. Every
    /// degree stays, and each edge stays on the list of its least
    /// endpoint's owner: only distinctness breaks.
    fn repeat_an_edge(lists: &mut [(Vec<Edge>, Vec<u64>)]) {
        let find = |lists: &[(Vec<Edge>, Vec<u64>)], e: Edge| {
            (lists.iter().enumerate())
                .find_map(|(l, (edges, _))| Some((l, edges.iter().position(|&f| f == e)?)))
        };
        let all: Vec<Edge> = lists.iter().flat_map(|(edges, _)| edges.clone()).collect();
        let adj = |v: u64| {
            all.iter()
                .filter(move |e| e.touches(v))
                .map(move |e| e.other(v))
        };
        let (a, b, c, d) = (all.iter())
            .flat_map(|e| [(e.src(), e.dst()), (e.dst(), e.src())])
            .flat_map(|(a, b)| adj(a).map(move |c| (a, b, c)))
            .flat_map(|(a, b, c)| adj(b).map(move |d| (a, b, c, d)))
            .find(|&(a, b, c, d)| c != b && d != a && c < a.min(d))
            .expect("a path of four vertices");
        let mut marks: Vec<Vec<bool>> = (lists.iter())
            .map(|(edges, bits)| (0..edges.len()).map(|i| bits[i / 64] >> (i % 64) & 1 == 1))
            .map(|marks| marks.collect())
            .collect();
        let (l, i) = find(lists, Edge::new(a, c)).unwrap();
        (lists[l].0[i], marks[l][i]) = (Edge::new(c, d), false);
        let (l, i) = find(lists, Edge::new(b, d)).unwrap();
        lists[l].0.remove(i);
        marks[l].remove(i);
        let (l, _) = find(lists, Edge::new(a, b)).unwrap();
        lists[l].0.push(Edge::new(a, b));
        marks[l].push(false);
        for ((_, bits), marks) in lists.iter_mut().zip(marks) {
            *bits = vec![0; marks.len().div_ceil(64)];
            for (i, _) in marks.iter().enumerate().filter(|(_, &m)| m) {
                bits[i / 64] |= 1 << (i % 64);
            }
        }
    }

    /// A snapshot that holds one edge twice is a bad snapshot, though its
    /// degrees, ownership and visit marks all fit the run: a sequential
    /// Curveball checkpoint, and a simulated world of either randomizer.
    #[test]
    fn repeated_edges_are_bad_snapshots() {
        let g = graph();
        let refused = |run: &Run, bytes: &[u8]| match run.resume(&g, bytes) {
            Err(RunError::BadSnapshot(why)) => {
                let repeated = why.contains("not simple") || why.contains("duplicate");
                assert!(repeated, "{why}");
            }
            other => panic!("{:?}", other.map(|_| "resumed")),
        };
        let snapshot = |run: &Run| {
            let mut engine = run.start(&g).unwrap();
            engine.advance(64);
            engine.snapshot()
        };

        let run = Run::sequential()
            .randomizer(Randomizer::Curveball)
            .switches(3000)
            .seed(1);
        let ckpt = decode_curveball_checkpoint(&snapshot(&run)).unwrap();
        let mut lists = [(ckpt.graph_edges.clone(), ckpt.visits.unvisited.clone())];
        repeat_an_edge(&mut lists);
        let [(graph_edges, unvisited)] = lists;
        let repeated = CurveballCheckpoint {
            graph_edges,
            visits: Visits {
                unvisited,
                ..ckpt.visits
            },
            ..ckpt
        };
        refused(&run, &encode_curveball_checkpoint(&repeated));

        fn repeated_world<C: SnapField + Clone>(bytes: &[u8]) -> Vec<u8> {
            let mut snap = decode_world_snapshot::<C>(bytes).unwrap();
            let mut lists: Vec<_> = (snap.ranks.iter())
                .map(|r| (r.store_edges.clone(), r.visits.unvisited.clone()))
                .collect();
            repeat_an_edge(&mut lists);
            for (rank, (edges, bits)) in snap.ranks.iter_mut().zip(lists) {
                (rank.store_edges, rank.visits.unvisited) = (edges, bits);
            }
            encode_world_snapshot(&snap)
        }
        for randomizer in [Randomizer::Switch, Randomizer::Curveball] {
            let run = Run::simulated(2)
                .randomizer(randomizer)
                .switches(3000)
                .seed(1);
            let bytes = snapshot(&run);
            assert!(run.resume(&g, &bytes).is_ok());
            let bad = match randomizer {
                Randomizer::Switch => repeated_world::<u64>(&bytes),
                Randomizer::Curveball => repeated_world::<PassController>(&bytes),
            };
            refused(&run, &bad);
        }
    }

    /// Under Curveball an engine counts trades: a `switches(t)` budget
    /// reports `t` throughout (the last pass may overshoot it), and a
    /// visit-rate target — which fixes no trade count in advance —
    /// reports the trades run so far, so `budget == performed` at every
    /// pause point and a progress fraction reads 1.
    #[test]
    fn a_curveball_budget_counts_trades() {
        let g = graph();
        for run in [Run::sequential(), Run::simulated(2)] {
            let run = run.randomizer(Randomizer::Curveball).seed(8);
            let mut engine = run.clone().switches(200).start(&g).unwrap();
            while !engine.is_done() {
                assert_eq!(engine.advance(1).budget, 200);
            }
            assert!(engine.performed() >= 200);
            let mut engine = run.visit_rate(0.9).start(&g).unwrap();
            assert_eq!((engine.budget(), engine.performed()), (0, 0));
            while !engine.is_done() {
                let progress = engine.advance(1);
                assert_eq!(progress.budget, progress.performed);
                assert!(progress.performed > 0);
                assert_eq!(progress.fraction(), 1.0);
            }
            assert!(engine.visit_rate() >= 0.9);
        }
    }

    /// A prepared config replaces the knobs, never the driver or the
    /// randomizer: a process run stays a process run (here one whose
    /// rank binary cannot spawn), and a Curveball run stays Curveball.
    #[test]
    fn prepared_never_changes_the_driver() {
        let g = graph();
        if crate::parallel::process_backend_supported() {
            let mut cfg = ParallelConfig::new(2).with_seed(4);
            cfg.proc_opts.exe_override =
                Some(std::path::PathBuf::from("/nonexistent/edgeswitch-rank-exe"));
            let err = Run::process(2)
                .switches(50)
                .prepared(cfg, None)
                .try_execute(&g)
                .expect_err("the process driver must try to spawn");
            assert!(matches!(err, RunError::SpawnFailed(_)), "{err:?}");
        }
        let run = Run::sequential()
            .randomizer(Randomizer::Curveball)
            .switches(300)
            .seed(5);
        let plain = run.execute(&g);
        let prepared = run
            .clone()
            .prepared(ParallelConfig::new(1).with_seed(5), None)
            .execute(&g);
        assert_eq!(prepared.graph().edge_digest(), plain.graph().edge_digest());
        assert_eq!(prepared.performed(), plain.performed());
    }

    #[test]
    fn visit_rate_budget_derives_ops() {
        let g = graph();
        let out = Run::sequential().visit_rate(0.5).seed(2).execute(&g);
        let t = edgeswitch_dist::switch_ops_for_visit_rate(g.num_edges() as u64, 0.5);
        assert_eq!(out.performed(), t);
        // Input untouched.
        assert_eq!(g.num_edges(), 600);
    }

    #[test]
    fn bad_visit_rate_is_invalid_budget() {
        let g = graph();
        for x in [0.0, -0.25, 1.5, f64::NAN] {
            let err = Run::sequential()
                .visit_rate(x)
                .try_execute(&g)
                .expect_err("bad visit rate must fail");
            assert!(
                matches!(err, RunError::InvalidBudget(_)),
                "{x} gave {err:?}"
            );
        }
    }

    #[test]
    fn zero_knobs_are_invalid_config() {
        let g = graph();
        let zero_p = Run::parallel(0).switches(10).try_execute(&g);
        assert!(matches!(zero_p, Err(RunError::InvalidConfig(_))));
        let zero_window = Run::simulated(2).switches(10).window(0).try_execute(&g);
        assert!(matches!(zero_window, Err(RunError::InvalidConfig(_))));
    }

    #[test]
    fn first_builder_error_wins() {
        let g = graph();
        let err = Run::simulated(2)
            .visit_rate(2.0)
            .window(0)
            .try_execute(&g)
            .expect_err("both knobs invalid");
        assert!(matches!(err, RunError::InvalidBudget(_)), "{err:?}");
    }

    #[test]
    fn curveball_on_process_backend_is_unsupported() {
        let g = graph();
        let err = Run::process(2)
            .randomizer(Randomizer::Curveball)
            .switches(10)
            .try_execute(&g)
            .expect_err("curveball has no process driver");
        assert!(matches!(err, RunError::BackendUnsupported(_)), "{err:?}");
        // The threaded driver runs it.
        let out = Run::parallel(2)
            .randomizer(Randomizer::Curveball)
            .switches(10)
            .try_execute(&g)
            .expect("threaded Curveball");
        assert_eq!(out.graph().degree_sequence(), g.degree_sequence());
    }

    #[test]
    fn unspawnable_rank_exe_is_spawn_failed() {
        if !crate::parallel::process_backend_supported() {
            return;
        }
        let g = graph();
        let mut run = Run::process(2).switches(50).seed(4);
        run.config.proc_opts.exe_override =
            Some(std::path::PathBuf::from("/nonexistent/edgeswitch-rank-exe"));
        let err = run.try_execute(&g).expect_err("spawn must fail");
        assert!(matches!(err, RunError::SpawnFailed(_)), "{err:?}");
    }

    #[test]
    fn rank_exiting_without_results_is_rank_died() {
        if !crate::parallel::process_backend_supported() {
            return;
        }
        let g = graph();
        let mut run = Run::process(2).switches(50).seed(4);
        // `false` spawns fine, then exits nonzero without ever attaching
        // to the shm world or returning a result.
        run.config.proc_opts.exe_override = Some(std::path::PathBuf::from("/bin/false"));
        let err = run.try_execute(&g).expect_err("dead rank must fail");
        assert!(matches!(err, RunError::RankDied(_)), "{err:?}");
    }

    #[test]
    fn rank_exiting_cleanly_without_results_is_rank_died() {
        if !crate::parallel::process_backend_supported() {
            return;
        }
        let g = graph();
        let mut run = Run::process(2).switches(50).seed(4);
        // `true` spawns fine and exits 0 without ever returning a
        // result: a clean exit must not leave the launcher waiting for
        // frames that will never come.
        run.config.proc_opts.exe_override = Some(std::path::PathBuf::from("/bin/true"));
        let err = run.try_execute(&g).expect_err("silent rank must fail");
        assert!(matches!(err, RunError::RankDied(_)), "{err:?}");
    }

    #[test]
    fn execute_panics_with_the_error_display() {
        let g = graph();
        let caught = std::panic::catch_unwind(|| {
            Run::sequential().visit_rate(0.0).execute(&g);
        })
        .expect_err("execute must panic");
        let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("invalid budget"), "panic message: {msg}");
    }

    #[test]
    fn observed_run_carries_report_and_identical_graph() {
        let g = graph();
        let plain = Run::sequential().switches(250).seed(7).execute(&g);
        let observed = Run::sequential()
            .switches(250)
            .seed(7)
            .probe(ObsSpec::Spans)
            .execute(&g);
        assert!(observed.graph().same_edge_set(plain.graph()));
        let report = observed.report().expect("observed run has a report");
        assert_eq!(report.clock, "monotonic");
        assert!(report.phase(crate::obs::Phase::Sample).hist.count > 0);
    }
}
