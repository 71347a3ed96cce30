//! Fundamental identifier and edge types shared across the workspace.

use std::fmt;

/// A vertex label. The paper labels vertices `0, 1, ..., n-1`; we use `u64`
/// so that graphs with billions of vertices are representable.
pub type VertexId = u64;

/// Largest vertex label the packed-edge hot path supports (`2^32 - 1`).
///
/// [`Edge::key`] packs both endpoints of an edge into one `u64`, so the
/// cache-compact storage ([`crate::sampling::EdgePool`],
/// [`crate::adjacency::NeighborSet`]) handles graphs of up to `2^32`
/// vertices — comfortably past the paper's largest instance (Friendster,
/// 65M vertices). Larger graphs are rejected at construction
/// ([`crate::graph::Graph::new`]) rather than silently corrupted.
pub const MAX_PACKED_VERTEX: VertexId = u32::MAX as VertexId;

/// Most edges one [`crate::sampling::EdgePool`] — hence one
/// [`crate::graph::Graph`] or one rank's share — can hold (`2^32 - 1`): the
/// pool's position index stores dense slots as `u32`, for the same
/// cache-compactness reason endpoints are narrowed. Past it the pool
/// panics on insert, in release builds too, rather than wrap a slot.
/// An indexed pool stops short of it, at about 9.4·10⁸ edges, where its
/// index would outgrow the fingerprints that place its entries (see
/// [`crate::sampling::EdgePool::insert`]).
pub const MAX_POOL_EDGES: usize = u32::MAX as usize;

/// An undirected edge stored in canonical orientation: `src() < dst()`.
///
/// Simple graphs have no self-loops, so construction of an edge with equal
/// endpoints is rejected at the [`Edge::new`] boundary.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Edge {
    u: VertexId,
    v: VertexId,
}

impl Edge {
    /// Create a canonical edge from two distinct endpoints (in any order).
    ///
    /// # Panics
    /// Panics if `a == b` (a self-loop can never be materialized in a
    /// simple graph; callers must filter loops before constructing edges).
    #[inline]
    pub fn new(a: VertexId, b: VertexId) -> Self {
        assert!(a != b, "self-loop edge ({a},{b}) is not representable");
        if a < b {
            Edge { u: a, v: b }
        } else {
            Edge { u: b, v: a }
        }
    }

    /// Create a canonical edge, returning `None` for a self-loop.
    #[inline]
    pub fn try_new(a: VertexId, b: VertexId) -> Option<Self> {
        if a == b {
            None
        } else {
            Some(Self::new(a, b))
        }
    }

    /// Lower endpoint (the vertex whose reduced adjacency list stores the edge).
    #[inline]
    pub fn src(&self) -> VertexId {
        self.u
    }

    /// Higher endpoint.
    #[inline]
    pub fn dst(&self) -> VertexId {
        self.v
    }

    /// Both endpoints as a `(low, high)` pair.
    #[inline]
    pub fn endpoints(&self) -> (VertexId, VertexId) {
        (self.u, self.v)
    }

    /// Whether `w` is one of the two endpoints.
    #[inline]
    pub fn touches(&self, w: VertexId) -> bool {
        self.u == w || self.v == w
    }

    /// Both endpoints packed into a single `u64`: `src << 32 | dst`.
    ///
    /// This is the key the hot-path hash maps use: one register-wide
    /// value, one multiply to hash, no per-field dispatch. Because the
    /// edge is canonical (`src < dst`), the packing is injective over
    /// all edges with endpoints `<= MAX_PACKED_VERTEX`.
    ///
    /// # Panics
    /// Panics if either endpoint exceeds [`MAX_PACKED_VERTEX`]; graphs
    /// that large are rejected at [`crate::graph::Graph::new`], so the
    /// check only fires for hand-built edges fed directly into the
    /// storage layer.
    #[inline]
    pub fn key(&self) -> u64 {
        // Single-branch narrowing check for both endpoints: `v` is the
        // larger label, so `v` fitting implies `u` fits.
        assert!(
            self.v <= MAX_PACKED_VERTEX,
            "edge ({},{}) has an endpoint beyond 2^32-1; packed storage \
             supports at most 2^32 vertices",
            self.u,
            self.v
        );
        (self.u << 32) | self.v
    }

    /// Inverse of [`Edge::key`].
    #[inline]
    pub fn from_key(key: u64) -> Self {
        let e = Edge {
            u: key >> 32,
            v: key & 0xFFFF_FFFF,
        };
        debug_assert!(e.u < e.v, "key {key:#x} does not encode a canonical edge");
        e
    }

    /// The endpoint that is not `w`.
    ///
    /// # Panics
    /// Panics if `w` is not an endpoint of this edge.
    #[inline]
    pub fn other(&self, w: VertexId) -> VertexId {
        if self.u == w {
            self.v
        } else if self.v == w {
            self.u
        } else {
            panic!("vertex {w} is not an endpoint of {self:?}");
        }
    }
}

impl fmt::Debug for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.u, self.v)
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.u, self.v)
    }
}

impl From<(VertexId, VertexId)> for Edge {
    fn from((a, b): (VertexId, VertexId)) -> Self {
        Edge::new(a, b)
    }
}

/// An edge whose orientation carries meaning during a switch operation.
///
/// The paper selects an edge `(u1, v1)` *from the reduced adjacency list*,
/// which always yields `tail < head`; the straight/cross coin then decides
/// how the oriented endpoints recombine (Fig. 3). We keep the orientation
/// explicit so the switch arithmetic mirrors the paper exactly.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct OrientedEdge {
    /// The lower-labelled endpoint (`u` in the paper).
    pub tail: VertexId,
    /// The higher-labelled endpoint (`v` in the paper).
    pub head: VertexId,
}

impl OrientedEdge {
    /// Orient a canonical edge (tail = lower endpoint).
    #[inline]
    pub fn from_edge(e: Edge) -> Self {
        OrientedEdge {
            tail: e.src(),
            head: e.dst(),
        }
    }

    /// Collapse back to the canonical undirected edge.
    #[inline]
    pub fn edge(&self) -> Edge {
        Edge::new(self.tail, self.head)
    }
}

/// Errors produced by graph construction and mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The edge already exists (would create a parallel edge).
    ParallelEdge(Edge),
    /// Attempted to add or reference a self-loop.
    SelfLoop(VertexId),
    /// Edge not present in the graph.
    MissingEdge(Edge),
    /// Vertex label out of the graph's `0..n` range.
    UnknownVertex(VertexId),
    /// A degree sequence that cannot be realized as a simple graph.
    UnrealizableDegreeSequence(String),
    /// Input parse failure.
    Parse(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::ParallelEdge(e) => write!(f, "edge {e} already exists"),
            GraphError::SelfLoop(v) => write!(f, "self-loop at vertex {v}"),
            GraphError::MissingEdge(e) => write!(f, "edge {e} not in graph"),
            GraphError::UnknownVertex(v) => write!(f, "vertex {v} out of range"),
            GraphError::UnrealizableDegreeSequence(why) => {
                write!(f, "degree sequence not realizable: {why}")
            }
            GraphError::Parse(why) => write!(f, "parse error: {why}"),
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_canonicalizes_orientation() {
        let e = Edge::new(7, 3);
        assert_eq!(e.src(), 3);
        assert_eq!(e.dst(), 7);
        assert_eq!(e, Edge::new(3, 7));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn edge_rejects_self_loop() {
        let _ = Edge::new(4, 4);
    }

    #[test]
    fn try_new_filters_loops() {
        assert_eq!(Edge::try_new(1, 1), None);
        assert_eq!(Edge::try_new(2, 1), Some(Edge::new(1, 2)));
    }

    #[test]
    fn other_returns_opposite_endpoint() {
        let e = Edge::new(1, 9);
        assert_eq!(e.other(1), 9);
        assert_eq!(e.other(9), 1);
    }

    #[test]
    #[should_panic]
    fn other_panics_for_non_endpoint() {
        Edge::new(1, 9).other(5);
    }

    #[test]
    fn touches_checks_both_ends() {
        let e = Edge::new(2, 5);
        assert!(e.touches(2));
        assert!(e.touches(5));
        assert!(!e.touches(3));
    }

    #[test]
    fn oriented_round_trip() {
        let e = Edge::new(4, 11);
        let o = OrientedEdge::from_edge(e);
        assert_eq!(o.tail, 4);
        assert_eq!(o.head, 11);
        assert_eq!(o.edge(), e);
    }

    #[test]
    fn key_round_trips_and_orders() {
        let e = Edge::new(7, 3);
        assert_eq!(Edge::from_key(e.key()), e);
        assert_eq!(e.key(), (3u64 << 32) | 7);
        // Key order matches Ord order (both lexicographic on (src, dst)).
        let a = Edge::new(1, 9);
        let b = Edge::new(3, 4);
        assert_eq!(a < b, a.key() < b.key());
        let top = Edge::new(MAX_PACKED_VERTEX - 1, MAX_PACKED_VERTEX);
        assert_eq!(Edge::from_key(top.key()), top);
    }

    #[test]
    #[should_panic(expected = "2^32")]
    fn key_rejects_oversized_labels() {
        let _ = Edge::new(1, MAX_PACKED_VERTEX + 1).key();
    }

    #[test]
    fn edge_ordering_is_lexicographic() {
        let mut v = vec![Edge::new(3, 4), Edge::new(1, 9), Edge::new(1, 2)];
        v.sort();
        assert_eq!(v, vec![Edge::new(1, 2), Edge::new(1, 9), Edge::new(3, 4)]);
    }
}
