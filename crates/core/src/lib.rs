//! # edgeswitch-core
//!
//! Sequential and distributed-memory parallel edge-switching algorithms:
//! the primary contribution of Bhuiyan et al., *"Fast Parallel Algorithms
//! for Edge-Switching to Achieve a Target Visit Rate in Heterogeneous
//! Graphs"* (ICPP 2014; extended JPDC version).
//!
//! - [`run`]: the [`Run`] builder and the stepped [`Engine`] — the one
//!   way to run a job,
//! - [`switch`]: straight/cross recombination and legality,
//! - [`sequential`]: Algorithm 1 as a pausable engine,
//! - [`parallel`]: the distributed protocol (Sections 4–5) and the
//!   simulated, threaded and process worlds it runs on,
//! - [`trade`]: the Curveball randomizer (global trades) and its
//!   pausable sequential engine,
//! - [`visit`]: visit-rate tracking (Section 3.1),
//! - [`error_rate`](mod@error_rate): the sequential-vs-parallel similarity metric
//!   (Section 4.6),
//! - [`obs`]: probes, clocks and the [`RunReport`],
//! - [`config`]: per-rank run configuration (scheme, step size, seed,
//!   window, …) and the randomizer choice.
//!
//! The front door is the [`Run`] builder:
//!
//! ```
//! use edgeswitch_core::Run;
//! use edgeswitch_dist::root_rng;
//! use edgeswitch_graph::generators::erdos_renyi_gnm;
//!
//! let g = erdos_renyi_gnm(100, 400, &mut root_rng(1));
//! let out = Run::sequential().switches(500).seed(1).execute(&g);
//! assert_eq!(out.performed(), 500);
//! // Switches preserve degrees.
//! assert_eq!(out.graph().degree_sequence(), g.degree_sequence());
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod error_rate;
pub mod obs;
pub mod parallel;
pub mod run;
pub mod sequential;
pub mod switch;
pub mod trade;
pub mod variants;
pub mod visit;

pub use config::{Budget, ParallelConfig, ProcOpts, Randomizer, StepSize};
pub use error_rate::{error_rate, BlockMatrix};
pub use obs::{Obs, ObsSpec, Probe, RunReport};
pub use parallel::{child_entry_from_env, MsgCounts, ParallelOutcome, StepTelemetry};
pub use run::{Engine, Run, RunError, RunOutcome, SequentialRun};
pub use sequential::{SeqCheckpoint, SequentialOutcome, SequentialResumable};
pub use switch::{RejectReason, SwitchKind};
pub use trade::CurveballResumable;
pub use variants::{sequential_edge_switch_connected, sequential_exact_visit, ConstrainedOutcome};
pub use visit::Visits;
