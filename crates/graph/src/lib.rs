//! # edgeswitch-graph
//!
//! Graph substrate for the edge-switching reproduction of Bhuiyan et al.,
//! *"Fast Parallel Algorithms for Edge-Switching to Achieve a Target Visit
//! Rate in Heterogeneous Graphs"* (ICPP 2014 / JPDC).
//!
//! Provides:
//! - simple undirected graphs with O(1) uniform edge sampling
//!   ([`graph::Graph`], [`sampling::EdgePool`]) over cache-compact
//!   packed-edge storage ([`hashing`], [`adjacency::NeighborSet`]),
//! - the split of a graph into per-rank [`sampling::EdgePool`] shares
//!   under the *reduced adjacency* ownership rule, and their gather
//!   ([`store`]),
//! - the paper's four partitioning schemes ([`partition::Partitioner`]),
//! - generators for the Table 2 dataset inventory ([`generators`]),
//!   including streaming prescribed-degree and preferential-attachment
//!   constructors that never materialize a global edge list ([`stream`]),
//! - degree-sequence tooling including Havel–Hakimi ([`degree`]),
//! - network metrics for the trajectory experiments ([`metrics`]),
//! - edge-list I/O ([`io`]).

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod adjacency;
pub mod degree;
pub mod generators;
pub mod graph;
pub mod hashing;
pub mod io;
mod memhint;
pub mod metrics;
pub mod partition;
pub mod sampling;
pub mod store;
pub mod stream;
pub mod types;

pub use graph::Graph;
pub use partition::{Partitioner, SchemeKind};
pub use stream::{EdgeStream, IterStream, OwnedOnly};
pub use types::{Edge, GraphError, OrientedEdge, VertexId};
