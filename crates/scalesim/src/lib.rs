//! # edgeswitch-scalesim
//!
//! Virtual-time cluster substrate: predicts the distributed runtime and
//! speedup of the parallel edge-switch algorithm for processor counts far
//! beyond the host machine (the paper evaluates up to 1024 MPI ranks on
//! an InfiniBand cluster; this repository runs on whatever machine it is
//! checked out on).
//!
//! - [`model::CostModel`]: LogGP-style parameters (latency, per-message
//!   overhead, per-switch compute, per-trial BINV cost),
//! - [`des`]: a discrete-event transport under which
//!   [`des_run`] executes a `Run` — the *actual* protocol state machines
//!   — on virtual clocks,
//! - [`predict`]: strong/weak scaling sweeps, the analytic multinomial
//!   scaling series, and host calibration.
//!
//! The logical results of a DES run (final graph, workload distribution,
//! visit rate) are genuine outputs of the parallel algorithm; only the
//! wall-clock axis is modeled. See DESIGN.md §2.

#![warn(missing_docs)]

pub mod des;
pub mod model;
pub mod predict;

pub use des::{des_run, DesReport, DesTransport};
pub use model::CostModel;
pub use predict::{
    calibrate, multinomial_strong_scaling, multinomial_weak_scaling, strong_scaling, weak_scaling,
    ScalePoint,
};
