//! # edge-switching
//!
//! Distributed-memory parallel edge switching in heterogeneous graphs —
//! a full reproduction of Bhuiyan, Khan, Chen & Marathe, *"Fast Parallel
//! Algorithms for Edge-Switching to Achieve a Target Visit Rate in
//! Heterogeneous Graphs"* (ICPP 2014; extended JPDC journal version).
//!
//! This facade crate re-exports the workspace:
//!
//! - [`graph`] (`edgeswitch-graph`): simple graphs, reduced adjacency
//!   partitions, the four partitioning schemes, generators, metrics;
//! - [`dist`] (`edgeswitch-dist`): BINV binomial sampling, sequential
//!   and parallel multinomial generation, visit-rate math;
//! - [`mpi`] (`mpilite`): the thread-backed message-passing runtime;
//! - [`core`] (`edgeswitch-core`): the sequential and distributed
//!   edge-switch algorithms;
//! - [`scalesim`] (`edgeswitch-scalesim`): the virtual-time cluster for
//!   scaling studies.
//!
//! # Quickstart
//!
//! [`Run`](prelude::Run) is the one way to run a job: pick a driver,
//! state the budget (operation count or target visit rate), execute —
//! or [`start`](prelude::Run::start) it as a stepped
//! [`Engine`](prelude::Engine) to pause, snapshot and resume it.
//!
//! ```
//! use edge_switching::prelude::*;
//!
//! // A random graph, switched at visit rate 0.5, sequentially.
//! let mut rng = root_rng(7);
//! let g = erdos_renyi_gnm(500, 2500, &mut rng);
//! let out = Run::sequential().visit_rate(0.5).seed(7).execute(&g);
//! assert!((out.visit_rate() - 0.5).abs() < 0.05);
//! assert_eq!(out.graph().degree_sequence(), g.degree_sequence());
//!
//! // The same process distributed over 4 ranks, with phase timing and
//! // latency histograms recorded along the way.
//! let out = Run::parallel(4)
//!     .switches(1000)
//!     .seed(7)
//!     .probe(ObsSpec::Spans)
//!     .execute(&g);
//! assert_eq!(out.performed(), 1000);
//! assert_eq!(out.graph().degree_sequence(), g.degree_sequence());
//! let report = out.report().expect("observed run");
//! assert!(report.wall_ns > 0);
//! ```

#![warn(missing_docs)]

pub use edgeswitch_core as core;
pub use edgeswitch_dist as dist;
pub use edgeswitch_graph as graph;
pub use edgeswitch_scalesim as scalesim;
pub use mpilite as mpi;

/// The most commonly used items in one import.
pub mod prelude {
    pub use edgeswitch_core::config::{
        Budget, ParallelConfig, ProcOpts, Randomizer, StepSize, DEFAULT_WINDOW,
    };
    pub use edgeswitch_core::error_rate::error_rate;
    pub use edgeswitch_core::obs::{ObsSpec, Phase, RunReport};
    pub use edgeswitch_core::parallel::{
        child_entry_from_env, MsgCounts, MsgKind, ParallelOutcome, RankStats, StepTelemetry,
    };
    pub use edgeswitch_core::run::{Engine, Run, RunError, RunOutcome, SequentialRun};
    pub use edgeswitch_core::trade::CurveballResumable;
    pub use edgeswitch_core::variants::{sequential_edge_switch_connected, sequential_exact_visit};
    pub use edgeswitch_core::visit::VisitTracker;
    pub use edgeswitch_dist::harmonic::{expected_touches, switch_ops_for_visit_rate};
    pub use edgeswitch_dist::rng::{rank_rng, root_rng, Rng};
    pub use edgeswitch_dist::{binomial, multinomial};
    pub use edgeswitch_graph::degree::{erdos_gallai, havel_hakimi, power_law_sequence};
    pub use edgeswitch_graph::generators::{
        contact_network, erdos_renyi_gnm, erdos_renyi_gnp, preferential_attachment, random_regular,
        small_world, stochastic_block_model, ContactParams, Dataset,
    };
    pub use edgeswitch_graph::metrics::{
        average_clustering_exact, average_clustering_sampled, average_shortest_path_sampled,
        degree_assortativity, is_connected, transitivity, triangle_count,
    };
    pub use edgeswitch_graph::{Edge, Graph, Partitioner, SchemeKind, VertexId};
    pub use edgeswitch_scalesim::{des_run, strong_scaling, CostModel};
}
