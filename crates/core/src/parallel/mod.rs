//! The distributed-memory parallel edge-switch algorithm (Sections 4–5).
//!
//! - [`rank`]: the pure per-processor protocol state machine,
//! - [`msg`]: the wire protocol,
//! - [`harness`]: the shared step machinery every world runs on — one
//!   step loop per world shape for both randomizers, the transports
//!   ([`WorldTransport`] for simulated worlds, [`MpiliteTransport`] for
//!   real ones), [`StepHarness`] and per-step [`StepTelemetry`],
//! - [`resume`]: the simulated world (`SimWorld`) of either randomizer:
//!   all ranks in one loop, stepped, with step-boundary snapshots for
//!   checkpoint/resume; deterministic over the FIFO transport,
//!   virtual-time under the DES of `edgeswitch-scalesim`,
//! - [`engine`]: the threaded world: `mpilite` ranks as threads, each a
//!   `Comm` over a channel mailbox,
//! - [`proc`]: the process world: ranks as processes, each the same
//!   `Comm` and rank body over shared-memory rings ([`wire`] is the byte
//!   codec for [`Msg`] on those rings, and the snapshot codec),
//! - [`trade`]: the Curveball randomizer's rank machine and pass
//!   boundary (global trades on the same loops and transports; see
//!   [`crate::trade`]).
//!
//! Nothing here is an entry point: [`Run`](crate::Run) sets each world
//! up, runs it and tears it down.

pub mod engine;
pub mod harness;
pub mod msg;
pub mod proc;
pub mod rank;
pub mod resume;
pub mod trade;
pub mod wire;

#[cfg(test)]
mod rank_tests;
#[cfg(test)]
mod tests;

pub use harness::{
    assemble_outcome, probability_vector, FifoTransport, MpiliteTransport, MsgCounts,
    ParallelOutcome, RankOutput, RunMeta, StepHarness, StepTelemetry, WorldTransport,
};
pub use msg::{ConvId, Msg, MsgKind, Outbox};
pub use proc::{
    child_entry_from_env, process_backend_supported, try_parallel_edge_switch_proc_gen, ProcError,
};
pub use rank::{RankCheckpoint, RankState, RankStats, StartResult};
pub use resume::WorldSnapshot;
