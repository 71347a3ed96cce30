//! Configuration of a run: its budget, randomizer and per-rank knobs.
//! Driver and randomizer are the [`crate::Run`]'s choice, not the
//! [`ParallelConfig`]'s, so a prepared config can never change them.

use crate::obs::ObsSpec;
use edgeswitch_dist::Rng64;
use edgeswitch_graph::SchemeKind;

/// Salt decorrelating the driver-level root stream (partitioning,
/// world-building) from the per-rank protocol streams derived from the
/// same master seed.
const ROOT_STREAM_SALT: u64 = 0x9a17;

/// Default bound on concurrently in-flight own conversations per rank
/// (the pipelining window). 16 keeps several message round trips
/// overlapped without flooding partner ranks with proposals.
pub const DEFAULT_WINDOW: usize = 16;

/// Tuning for the process backend that only makes sense per-invocation
/// (never serialized with the rest of the configuration).
#[derive(Clone, Debug, PartialEq)]
pub struct ProcOpts {
    /// Extra argv passed to re-spawned rank children. The default routes
    /// libtest binaries into an `#[ignore]`d `shm_child_entry` hook test;
    /// binaries that call [`crate::parallel::child_entry_from_env`] at the
    /// top of `main` ignore their argv entirely.
    pub child_args: Vec<String>,
    /// Print one `shm-child-pid: <pid>` line per spawned rank child
    /// (consumed by orphan-reaping tests).
    pub announce_children: bool,
    /// Binary to respawn as rank children instead of `current_exe()`.
    /// `None` (the default) respawns the current binary; tests point this
    /// at a nonexistent path to exercise the spawn-failure path of
    /// [`crate::run::RunError::SpawnFailed`].
    pub exe_override: Option<std::path::PathBuf>,
}

impl Default for ProcOpts {
    fn default() -> Self {
        ProcOpts {
            child_args: vec![
                "shm_child_entry".into(),
                "--include-ignored".into(),
                "--nocapture".into(),
            ],
            announce_children: false,
            exe_override: None,
        }
    }
}

/// Which randomization engine a [`crate::Run`] drives — a choice of the
/// run ([`crate::Run::randomizer`]), not of the per-rank configuration.
///
/// Both engines preserve the degree sequence exactly and report
/// progress the same way, as [`Visits`](crate::visit::Visits): the
/// initial edge count and a bitmap of those not yet visited; they
/// differ in how much graph they re-randomize per unit of work (see
/// DESIGN.md §4h).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Randomizer {
    /// Single edge switches (the paper's protocol): each operation
    /// removes two sampled edges and inserts the crossed pair.
    #[default]
    Switch,
    /// Global Curveball trades (Carstens/Hamann/Meyer, arXiv
    /// 1804.08487): each pass pairs all vertices in a random perfect
    /// matching and every pair re-deals the disjoint part of its two
    /// neighborhoods in one Fisher–Yates shuffle.
    Curveball,
}

/// How much randomization a run does.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Budget {
    /// `t` switches, or — under Curveball — whole passes until at least
    /// `t` trades have run (`⌊n/2⌋` a pass).
    Ops(u64),
    /// A target expected visit rate `x ∈ (0, 1]`: switching derives `t`
    /// from the edge count (Section 3.1); Curveball runs whole passes
    /// until the rate is reached or three passes make no progress.
    VisitRate(f64),
}

/// How the step size `s` is chosen (Section 4.5: the probability vector
/// `q` is refreshed every `s` operations).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StepSize {
    /// A fixed number of operations per step.
    Ops(u64),
    /// `s = max(1, t / divisor)` — the paper's `t/100` and `t/1000`
    /// presets.
    FractionOfT(u64),
    /// All `t` operations in one step (the paper runs HP schemes this
    /// way; Table 3).
    SingleStep,
}

impl StepSize {
    /// Resolve to a concrete `s` for a run of `t` operations.
    pub fn resolve(&self, t: u64) -> u64 {
        match self {
            StepSize::Ops(s) => (*s).max(1),
            StepSize::FractionOfT(div) => (t / (*div).max(1)).max(1),
            StepSize::SingleStep => t.max(1),
        }
    }
}

/// How per-step operation quotas (and partner choices) are weighted.
///
/// The paper weights both by the live edge counts `q_i = |E_i|/|E|`
/// (Algorithm 2); the uniform policy exists as an ablation showing why
/// that choice matters for similarity to the sequential process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuotaPolicy {
    /// `q_i = |E_i| / |E|` — the paper's design.
    EdgeProportional,
    /// `q_i = 1/p` — ablation: ignores partition loads.
    Uniform,
}

/// Full configuration of a parallel run.
#[derive(Clone, Debug)]
pub struct ParallelConfig {
    /// Number of processors (partitions) `p`.
    pub processors: usize,
    /// Partitioning scheme.
    pub scheme: SchemeKind,
    /// Step size policy.
    pub step_size: StepSize,
    /// Quota/partner weighting (see [`QuotaPolicy`]).
    pub quota_policy: QuotaPolicy,
    /// Master seed; all rank streams derive from it.
    pub seed: u64,
    /// Bound on concurrently in-flight own conversations per rank
    /// (clamped to ≥ 1). `1` reproduces the original stop-and-wait
    /// protocol exactly; larger values pipeline message round trips.
    pub window: usize,
    /// Observability attached to the run (off by default; recording
    /// never perturbs results — see [`crate::obs`]).
    pub obs: ObsSpec,
    /// Commit rank-local switches inline, without allocating a
    /// conversation or routing self-addressed protocol messages (§4's
    /// local/global distinction made structural). On by default; the
    /// `false` setting is a conformance-testing escape hatch — the
    /// fast path is draw-order- and apply-order-preserving, so outcomes
    /// are bit-identical either way (enforced by
    /// `tests/driver_conformance.rs`).
    pub local_fastpath: bool,
    /// Per-invocation process-backend knobs (child argv, pid announcing,
    /// ring sizing).
    pub proc_opts: ProcOpts,
}

impl ParallelConfig {
    /// The paper's default setup for strong-scaling runs: CP scheme with
    /// `s = t/100`.
    pub fn new(processors: usize) -> Self {
        ParallelConfig {
            processors,
            scheme: SchemeKind::Consecutive,
            step_size: StepSize::FractionOfT(100),
            quota_policy: QuotaPolicy::EdgeProportional,
            seed: 0,
            window: DEFAULT_WINDOW,
            obs: ObsSpec::default(),
            local_fastpath: true,
            proc_opts: ProcOpts::default(),
        }
    }

    /// Builder-style scheme override.
    pub fn with_scheme(mut self, scheme: SchemeKind) -> Self {
        self.scheme = scheme;
        self
    }

    /// Builder-style step-size override.
    pub fn with_step_size(mut self, step_size: StepSize) -> Self {
        self.step_size = step_size;
        self
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style pipelining-window override (`1` = stop-and-wait).
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }

    /// Builder-style quota-policy override (ablation only).
    pub fn with_quota_policy(mut self, quota_policy: QuotaPolicy) -> Self {
        self.quota_policy = quota_policy;
        self
    }

    /// Builder-style observability override.
    pub fn with_obs(mut self, obs: ObsSpec) -> Self {
        self.obs = obs;
        self
    }

    /// Builder-style local fast-path override (`false` forces every
    /// switch through the conversation protocol; conformance tests
    /// only).
    pub fn with_local_fastpath(mut self, local_fastpath: bool) -> Self {
        self.local_fastpath = local_fastpath;
        self
    }

    /// Builder-style process-backend options override.
    pub fn with_proc_opts(mut self, proc_opts: ProcOpts) -> Self {
        self.proc_opts = proc_opts;
        self
    }

    /// The driver-level root stream for this configuration: seeds
    /// partition construction and any other pre-protocol randomness.
    /// Every driver (threaded, FIFO, DES, predictor) derives it the same
    /// way so a given `(graph, config)` pair partitions identically.
    pub fn root_rng(&self) -> Rng64 {
        edgeswitch_dist::root_rng(self.seed ^ ROOT_STREAM_SALT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_step_sizes() {
        assert_eq!(StepSize::Ops(500).resolve(10_000), 500);
        assert_eq!(StepSize::FractionOfT(100).resolve(10_000), 100);
        assert_eq!(StepSize::SingleStep.resolve(10_000), 10_000);
        // Degenerate inputs stay positive.
        assert_eq!(StepSize::Ops(0).resolve(10), 1);
        assert_eq!(StepSize::FractionOfT(100).resolve(5), 1);
        assert_eq!(StepSize::SingleStep.resolve(0), 1);
    }

    #[test]
    fn root_rng_depends_on_seed_only() {
        use edgeswitch_dist::Rng;
        let a = ParallelConfig::new(4).with_seed(9).root_rng().next_u64();
        let b = ParallelConfig::new(8).with_seed(9).root_rng().next_u64();
        let c = ParallelConfig::new(4).with_seed(10).root_rng().next_u64();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn builder_chains() {
        let cfg = ParallelConfig::new(8)
            .with_scheme(SchemeKind::HashUniversal)
            .with_step_size(StepSize::SingleStep)
            .with_seed(42)
            .with_window(4)
            .with_obs(ObsSpec::Spans);
        assert_eq!(cfg.processors, 8);
        assert_eq!(cfg.scheme, SchemeKind::HashUniversal);
        assert_eq!(cfg.step_size, StepSize::SingleStep);
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.window, 4);
        assert_eq!(cfg.obs, ObsSpec::Spans);
        // The window is clamped to at least one conversation.
        assert_eq!(ParallelConfig::new(2).with_window(0).window, 1);
        assert_eq!(ParallelConfig::new(2).window, DEFAULT_WINDOW);
        assert_eq!(ParallelConfig::new(2).obs, ObsSpec::Off);
        // The local fast path is on unless a test forces it off.
        assert!(ParallelConfig::new(2).local_fastpath);
        assert!(
            !ParallelConfig::new(2)
                .with_local_fastpath(false)
                .local_fastpath
        );
        // The switch protocol is the default engine.
        assert_eq!(Randomizer::default(), Randomizer::Switch);
    }

    #[test]
    fn proc_opts_default_routes_libtest_children() {
        // The default child argv must select the `#[ignore]`d
        // `shm_child_entry` hook by substring (libtest's default filter
        // mode), so it matches at any module depth; `--nocapture` keeps
        // `shm-child-pid` announcements visible to orphan tests.
        let opts = ProcOpts::default();
        assert_eq!(opts.child_args[0], "shm_child_entry");
        assert!(opts.child_args.iter().any(|a| a == "--include-ignored"));
        assert!(opts.child_args.iter().any(|a| a == "--nocapture"));
        assert!(!opts.announce_children);
    }
}
