//! The shared-memory simple-graph type used by the sequential algorithm,
//! the generators, and the metrics.
//!
//! Invariants maintained at all times:
//! - no self-loops (unrepresentable via [`Edge`]),
//! - no parallel edges ([`Graph::add_edge`] rejects duplicates),
//! - full adjacency and the edge pool agree exactly.
//!
//! The pool is the primary structure: it answers `sample_edge`, and it
//! fixes the edge order everything deterministic depends on. Adjacency
//! answers `has_edge` (a binary search of one endpoint's sorted list),
//! so reading a graph never builds the pool's hash index — that comes
//! with the first probe or mutation of the pool itself (see
//! [`crate::sampling`]). Adjacency is derived from the pool — one edge
//! at a time by [`Graph::add_edge`] / [`Graph::remove_edge`]
//! (generators, the constrained variants), or all at once by
//! [`Graph::from_pool`], which is how a graph is built from an edge
//! list or a stream and how it comes back out of a switch engine
//! ([`Graph::into_pool`] is the way in: the switch engines run on the
//! pool alone).

use crate::adjacency::{ascending_edges, NeighborSet};
use crate::sampling::EdgePool;
use crate::stream::{capacity_hint, EdgeStream};
use crate::types::{Edge, GraphError, VertexId};
use edgeswitch_dist::Rng;
use std::borrow::Cow;

/// An undirected simple graph over vertices `0..n`.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    adj: Vec<NeighborSet>,
    pool: EdgePool,
}

/// A consumer that mutates a copy takes `impl Into<Cow<Graph>>`: lend
/// `&graph` to have it cloned, or give `graph` away to skip the clone.
impl<'a> From<&'a Graph> for Cow<'a, Graph> {
    fn from(graph: &'a Graph) -> Self {
        Cow::Borrowed(graph)
    }
}

impl From<Graph> for Cow<'_, Graph> {
    fn from(graph: Graph) -> Self {
        Cow::Owned(graph)
    }
}

impl Graph {
    /// Edgeless graph with `n` vertices labelled `0..n`.
    ///
    /// # Panics
    /// Panics if `n > 2^32`: the packed-edge hot path
    /// ([`crate::types::Edge::key`]) narrows endpoints to `u32`, so
    /// larger graphs are out of scope and rejected here — at build, with
    /// a clear message — rather than silently corrupted downstream.
    pub fn new(n: usize) -> Self {
        Self::with_edge_capacity(n, 0)
    }

    /// Edgeless graph with `n` vertices and room for `m` edges
    /// pre-allocated in the sampling pool (see [`Graph::new`] for the
    /// vertex-count limit).
    pub fn with_edge_capacity(n: usize, m: usize) -> Self {
        check_vertex_count(n);
        Graph {
            adj: vec![NeighborSet::new(); n],
            pool: EdgePool::with_capacity(m),
        }
    }

    /// The graph on `n` vertices whose edges, in this order, are
    /// `pool`'s — the one bulk adjacency builder. Counts degrees,
    /// allocates every neighbor set at its exact size, fills and sorts
    /// each once: `O(n + m + Σ d log d)` with no per-edge search and no
    /// growth reallocation, against two binary-search inserts with
    /// doubling per edge on the [`Graph::add_edge`] route. The pool is
    /// taken as is (loops are unrepresentable), so pool order is exactly
    /// the caller's.
    ///
    /// Errors with [`GraphError::UnknownVertex`] if an edge has an
    /// endpoint `>= n`, and with [`GraphError::ParallelEdge`] if an edge
    /// repeats: the sorted neighbor lists show it, so a pool appended
    /// unhashed (`EdgePool::push_distinct`) is checked here; see
    /// [`Graph::new`] for the vertex-count limit.
    pub fn from_pool(n: usize, pool: EdgePool) -> Result<Self, GraphError> {
        check_vertex_count(n);
        let mut degree = vec![0u32; n];
        for e in pool.iter() {
            check_in_range(n, e)?;
            degree[e.src() as usize] += 1;
            degree[e.dst() as usize] += 1;
        }
        let mut lists: Vec<Vec<u32>> = degree
            .iter()
            .map(|&d| Vec::with_capacity(d as usize))
            .collect();
        drop(degree);
        for e in pool.iter() {
            // Both labels are below n <= 2^32: the narrowing is exact.
            lists[e.src() as usize].push(e.dst() as u32);
            lists[e.dst() as usize].push(e.src() as u32);
        }
        // Collected in place: each set takes its list's slot and storage.
        let adj = (lists.into_iter().enumerate())
            .map(|(v, list)| {
                NeighborSet::from_distinct(list)
                    .map_err(|w| GraphError::ParallelEdge(Edge::new(v as VertexId, w.into())))
            })
            .collect::<Result<_, _>>()?;
        Ok(Graph { adj, pool })
    }

    /// Give up the adjacency and keep the edges: the pool, in its
    /// current order. The inverse of [`Graph::from_pool`].
    pub fn into_pool(self) -> EdgePool {
        self.pool
    }

    /// The edge pool: the graph's edges in the order sampling sees them.
    pub fn pool(&self) -> &EdgePool {
        &self.pool
    }

    /// Build a graph from an edge iterator, rejecting duplicates and
    /// out-of-range endpoints at the first offender (loops are
    /// unrepresentable as [`Edge`]s).
    ///
    /// Pre-sizes from the checked `size_hint` upper bound when the
    /// iterator reports one (exact-size iterators behind adapters often
    /// report `(0, Some(m))`; sizing from the lower bound alone forced
    /// a rehash-and-regrow cascade on those).
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = Edge>,
    {
        let edges = edges.into_iter();
        let mut pool = EdgePool::with_capacity(capacity_hint(edges.size_hint()));
        for e in edges {
            check_in_range(n, e)?;
            if !pool.insert(e) {
                return Err(GraphError::ParallelEdge(e));
            }
        }
        Graph::from_pool(n, pool)
    }

    /// Build a graph by draining an [`EdgeStream`] chunk by chunk, so no
    /// global edge list ever materializes alongside the graph.
    ///
    /// Unlike [`Graph::from_edges`], re-emitted duplicate edges are
    /// *skipped* rather than rejected: streams (notably the
    /// recomputation-based preferential-attachment generator) may
    /// produce occasional multi-edges, and deduplication-on-insert is
    /// part of the streaming contract (see [`crate::stream`]).
    /// Out-of-range endpoints still error.
    pub fn from_stream<S>(n: usize, stream: &mut S) -> Result<Self, GraphError>
    where
        S: EdgeStream + ?Sized,
    {
        let mut pool = EdgePool::with_capacity(capacity_hint(stream.size_hint()));
        let mut chunk = Vec::new();
        while stream.next_chunk(&mut chunk) {
            for &e in &chunk {
                check_in_range(n, e)?;
                pool.insert(e);
            }
        }
        Graph::from_pool(n, pool)
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.pool.len()
    }

    /// Degree of `v`.
    ///
    /// # Panics
    /// Panics if `v >= n`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.adj[v as usize].len()
    }

    /// Maximum degree over all vertices (`0` for an edgeless graph).
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(NeighborSet::len).max().unwrap_or(0)
    }

    /// Average degree `2m/n`.
    pub fn avg_degree(&self) -> f64 {
        if self.adj.is_empty() {
            0.0
        } else {
            2.0 * self.pool.len() as f64 / self.adj.len() as f64
        }
    }

    /// The degree of every vertex, indexed by label.
    pub fn degree_sequence(&self) -> Vec<usize> {
        self.adj.iter().map(NeighborSet::len).collect()
    }

    /// Full neighbor set of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &NeighborSet {
        &self.adj[v as usize]
    }

    /// `O(log d)` edge-existence test: a binary search of the lower
    /// endpoint's sorted neighbor list. It never builds the pool's hash
    /// index, so a graph that is only read never pays for one.
    #[inline]
    pub fn has_edge(&self, e: Edge) -> bool {
        self.adj
            .get(e.src() as usize)
            .is_some_and(|nbrs| nbrs.contains(e.dst()))
    }

    /// Add an edge; errors on duplicates or out-of-range endpoints.
    pub fn add_edge(&mut self, e: Edge) -> Result<(), GraphError> {
        check_in_range(self.adj.len(), e)?;
        if !self.pool.insert(e) {
            return Err(GraphError::ParallelEdge(e));
        }
        self.adj[e.src() as usize].insert(e.dst());
        self.adj[e.dst() as usize].insert(e.src());
        Ok(())
    }

    /// Remove an edge; errors if absent.
    pub fn remove_edge(&mut self, e: Edge) -> Result<(), GraphError> {
        if !self.pool.remove(e) {
            return Err(GraphError::MissingEdge(e));
        }
        self.adj[e.src() as usize].remove(e.dst());
        self.adj[e.dst() as usize].remove(e.src());
        Ok(())
    }

    /// Draw an edge uniformly at random.
    #[inline]
    pub fn sample_edge<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<Edge> {
        self.pool.sample(rng)
    }

    /// Iterate all edges in pool order, with an exact `size_hint`.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = Edge> + '_ {
        self.pool.iter()
    }

    /// All edges in ascending order (stable across pool order; useful
    /// for equality checks): one walk of the sorted neighbor lists
    /// ([`ascending_edges`]), with no sort.
    pub fn sorted_edges(&self) -> Vec<Edge> {
        let mut v = Vec::with_capacity(self.num_edges());
        v.extend(ascending_edges(&self.adj));
        v
    }

    /// Order-independent 64-bit digest of the graph: the vertex count,
    /// then every edge key in ascending order, folded through a
    /// splitmix-style mixer. The keys come off one walk of the sorted
    /// neighbor lists ([`ascending_edges`]): `O(n + m)`, no key vector,
    /// no sort. Pool order does not enter it, so equal edge sets on
    /// equal vertex counts digest equal, and different ones collide with
    /// probability about 2⁻⁶⁴ — checkpoint/resume identity can be
    /// asserted (and wired over protocols) without shipping the edges.
    pub fn edge_digest(&self) -> u64 {
        fn mix(mut z: u64) -> u64 {
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }
        let mut h = mix(0x65646765_u64 ^ self.num_vertices() as u64);
        for e in ascending_edges(&self.adj) {
            h = mix(h ^ e.key().wrapping_mul(0x9e3779b97f4a7c15));
        }
        h
    }

    /// Structural equality: same vertex count and same edge set.
    pub fn same_edge_set(&self, other: &Graph) -> bool {
        self.num_vertices() == other.num_vertices()
            && self.num_edges() == other.num_edges()
            && self.edges().all(|e| other.has_edge(e))
    }

    /// Verify all internal invariants (adjacency symmetry, pool/adjacency
    /// agreement, no out-of-range labels). Intended for tests; `O(m log d)`.
    ///
    /// Never builds the pool's index. The pool is checked against
    /// adjacency slot by slot: each pool edge marks its slot in its lower
    /// endpoint's list, so one missing from adjacency or repeated is an
    /// error, and with the half-edge count that makes pool and adjacency
    /// equal as sets. An indexed pool is also checked against its index
    /// ([`EdgePool::check_consistent`]).
    pub fn check_invariants(&self) -> Result<(), String> {
        if !self.pool.check_consistent() {
            return Err("edge pool index inconsistent".into());
        }
        let n = self.adj.len() as u64;
        let mut adj_edge_count = 0usize;
        for (u, nbrs) in self.adj.iter().enumerate() {
            let u = u as u64;
            for v in nbrs.iter() {
                if v >= n {
                    return Err(format!("neighbor {v} of {u} out of range"));
                }
                if v == u {
                    return Err(format!("self-loop at {u}"));
                }
                if !self.adj[v as usize].contains(u) {
                    return Err(format!("asymmetric adjacency {u}->{v}"));
                }
                adj_edge_count += 1;
            }
        }
        if adj_edge_count != 2 * self.pool.len() {
            return Err(format!(
                "adjacency lists hold {adj_edge_count} half-edges but pool has {} edges",
                self.pool.len()
            ));
        }
        // Slot `start[u] + i` is label `i` of `adj[u]`.
        let mut start = Vec::with_capacity(self.adj.len());
        let mut slots = 0usize;
        for nbrs in &self.adj {
            start.push(slots);
            slots += nbrs.len();
        }
        let mut seen = vec![0u64; slots.div_ceil(64)];
        for e in self.pool.iter() {
            // A pool edge is a packed key: both labels fit in `u32`.
            let at = self.adj.get(e.src() as usize).and_then(|nbrs| {
                let i = nbrs.labels().binary_search(&(e.dst() as u32)).ok()?;
                Some(start[e.src() as usize] + i)
            });
            let Some(at) = at else {
                return Err(format!("pool edge {e} missing from adjacency"));
            };
            if seen[at / 64] >> (at % 64) & 1 == 1 {
                return Err(format!("pool edge {e} repeated"));
            }
            seen[at / 64] |= 1 << (at % 64);
        }
        Ok(())
    }
}

/// Both endpoints of `e` are vertices of an `n`-vertex graph (`dst` is
/// the larger label).
#[inline]
fn check_in_range(n: usize, e: Edge) -> Result<(), GraphError> {
    if e.dst() >= n as u64 {
        return Err(GraphError::UnknownVertex(e.dst()));
    }
    Ok(())
}

/// The packed-storage vertex limit of [`Graph::new`].
fn check_vertex_count(n: usize) {
    assert!(
        n as u128 <= 1 << 32,
        "graph with {n} vertices exceeds the 2^32 packed-storage limit"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgeswitch_dist::Pcg64;

    fn path_graph(n: usize) -> Graph {
        Graph::from_edges(n, (0..n as u64 - 1).map(|i| Edge::new(i, i + 1))).unwrap()
    }

    #[test]
    fn edge_digest_is_order_independent_and_discriminating() {
        let g = path_graph(5);
        // Same edge set inserted in reverse pool order digests equal.
        let reversed = Graph::from_edges(5, (0..4u64).rev().map(|i| Edge::new(i, i + 1))).unwrap();
        assert_eq!(g.edge_digest(), reversed.edge_digest());
        // One different edge, or a different vertex count, digests apart.
        let rewired = Graph::from_edges(
            5,
            [(0, 1), (1, 2), (2, 3), (0, 4)].map(|(a, b)| Edge::new(a, b)),
        )
        .unwrap();
        assert_ne!(g.edge_digest(), rewired.edge_digest());
        let padded = Graph::from_edges(6, g.edges()).unwrap();
        assert_ne!(g.edge_digest(), padded.edge_digest());
    }

    #[test]
    fn build_and_query() {
        let g = path_graph(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 4);
        assert!(g.has_edge(Edge::new(0, 1)));
        assert!(!g.has_edge(Edge::new(0, 2)));
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.max_degree(), 2);
        g.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "2^32")]
    fn oversized_vertex_count_rejected_at_build() {
        // The assert fires before any allocation is attempted.
        let _ = Graph::new((1usize << 32) + 1);
    }

    #[test]
    fn with_edge_capacity_behaves_like_new() {
        let mut g = Graph::with_edge_capacity(3, 10);
        g.add_edge(Edge::new(0, 1)).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 1);
        g.check_invariants().unwrap();
    }

    #[test]
    fn add_duplicate_rejected() {
        let mut g = path_graph(3);
        assert!(matches!(
            g.add_edge(Edge::new(1, 0)),
            Err(GraphError::ParallelEdge(_))
        ));
    }

    #[test]
    fn add_out_of_range_rejected() {
        let mut g = Graph::new(3);
        assert!(matches!(
            g.add_edge(Edge::new(0, 3)),
            Err(GraphError::UnknownVertex(3))
        ));
    }

    #[test]
    fn remove_missing_rejected() {
        let mut g = path_graph(3);
        assert!(matches!(
            g.remove_edge(Edge::new(0, 2)),
            Err(GraphError::MissingEdge(_))
        ));
    }

    #[test]
    fn remove_updates_both_sides() {
        let mut g = path_graph(3);
        g.remove_edge(Edge::new(0, 1)).unwrap();
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.degree(1), 1);
        assert_eq!(g.num_edges(), 1);
        g.check_invariants().unwrap();
    }

    #[test]
    fn degree_sequence_and_avg() {
        let g = path_graph(4);
        assert_eq!(g.degree_sequence(), vec![1, 2, 2, 1]);
        assert!((g.avg_degree() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn sample_edge_comes_from_graph() {
        let g = path_graph(50);
        let mut rng = Pcg64::seed_from_u64(7);
        for _ in 0..100 {
            let e = g.sample_edge(&mut rng).unwrap();
            assert!(g.has_edge(e));
        }
    }

    #[test]
    fn invariants_of_an_unindexed_graph_catch_a_pool_off_its_adjacency() {
        // Adjacency of the path 0-1-2-3; the pool is appended unhashed.
        let adj = path_graph(4).adj;
        let e = Edge::new;
        let with_pool = |edges: &[Edge]| {
            let mut pool = EdgePool::new();
            for &edge in edges {
                pool.push_distinct(edge);
            }
            Graph {
                adj: adj.clone(),
                pool,
            }
        };
        let fine = with_pool(&[e(2, 3), e(0, 1), e(1, 2)]);
        fine.check_invariants().unwrap();
        for (pool, why) in [
            (&[e(0, 1), e(1, 2), e(0, 3)][..], "missing from adjacency"),
            (&[e(0, 1), e(1, 2), e(0, 1)][..], "repeated"),
            // (2,3) is in adjacency only: the counts disagree.
            (&[e(0, 1), e(1, 2)][..], "half-edges"),
        ] {
            let g = with_pool(pool);
            let err = g.check_invariants().unwrap_err();
            assert!(err.contains(why), "{pool:?}: {err}");
            assert!(!g.pool.is_indexed(), "the check builds no index");
        }
        assert!(!fine.pool.is_indexed());
    }

    #[test]
    fn same_edge_set_detects_difference() {
        let a = path_graph(4);
        let mut b = path_graph(4);
        assert!(a.same_edge_set(&b));
        b.remove_edge(Edge::new(2, 3)).unwrap();
        b.add_edge(Edge::new(1, 3)).unwrap();
        assert!(!a.same_edge_set(&b));
    }
}
