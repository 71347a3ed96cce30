//! The shared-memory simple-graph type used by the sequential algorithm,
//! the generators, and the metrics.
//!
//! Invariants maintained at all times:
//! - no self-loops (unrepresentable via [`Edge`]),
//! - no parallel edges ([`Graph::add_edge`] rejects duplicates),
//! - adjacency, once built, agrees with the pool.
//!
//! The pool is the primary structure: it answers `sample_edge`, and it
//! fixes the edge order everything deterministic depends on. Adjacency
//! is a cache of the pool, built in bulk the first time something reads
//! it — `neighbors`, `degree`, `sorted_edges`, `check_invariants`, or
//! `has_edge` on an unindexed pool — and kept in step by
//! [`Graph::add_edge`] / [`Graph::remove_edge`] once built; before that
//! they touch only the pool. The vertex count, the edges in pool order,
//! a sampled edge, the degree sequence (one counting pass over the
//! pool) and the edge digest (one transient bucket pass) never build
//! it.
//!
//! Which constructors leave adjacency unbuilt: [`Graph::new`],
//! [`Graph::with_edge_capacity`], [`Graph::from_edges`] and
//! [`Graph::from_stream`] (their pools are indexed as they fill, so a
//! repeated edge is refused or skipped there and the range is checked
//! per edge), and [`Graph::from_pool`] handed an *indexed* pool — the
//! index proves its edges distinct, and one pass checks their range;
//! that is how a graph comes back out of a switch engine
//! ([`Graph::into_pool`] is the way in: the switch engines run on the
//! pool alone). [`Graph::from_pool`] handed an *unindexed* pool — a
//! gather of ranks' key lists — builds adjacency at once, because its
//! distinct-neighbour check is what catches a repeated edge.
//!
//! [`Graph::has_edge`] probes the pool's hash index when the pool has
//! one, and otherwise answers from adjacency (a binary search of one
//! endpoint's sorted list), so reading a graph never builds the index
//! — that comes with the first probe or mutation of the pool itself
//! (see [`crate::sampling`]).

use crate::adjacency::{ascending_edges, NeighborSet};
use crate::sampling::EdgePool;
use crate::stream::{capacity_hint, EdgeStream};
use crate::types::{Edge, GraphError, VertexId};
use edgeswitch_dist::Rng;
use std::borrow::Cow;
use std::sync::OnceLock;

/// An undirected simple graph over vertices `0..n`.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    n: usize,
    pool: EdgePool,
    /// Vertex `v`'s neighbours at `adj[v]`, built from `pool` by the
    /// first read that needs them (see the module docs); `OnceLock` so a
    /// lent `&Graph` can build it.
    adj: OnceLock<Vec<NeighborSet>>,
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
        Graph::unbuilt(n, EdgePool::with_capacity(m))
    }

    /// The graph on `n` vertices whose edges, in this order, are
    /// `pool`'s; the pool is taken as is (loops are unrepresentable), so
    /// pool order is exactly the caller's. An indexed pool's edges are
    /// distinct, so only their range is checked, in one pass, and
    /// adjacency is left for the first read that needs it. An unindexed
    /// pool's adjacency is built here, and its distinct-neighbour check
    /// is what catches a repeated edge.
    ///
    /// Errors with [`GraphError::UnknownVertex`] if an edge has an
    /// endpoint `>= n`, and, for an unindexed pool (one appended
    /// unhashed by `EdgePool::push_distinct`), with
    /// [`GraphError::ParallelEdge`] if an edge repeats; see
    /// [`Graph::new`] for the vertex-count limit.
    pub fn from_pool(n: usize, pool: EdgePool) -> Result<Self, GraphError> {
        if pool.is_indexed() {
            return Graph::from_distinct_pool(n, pool);
        }
        check_vertex_count(n);
        let adj = adjacency_of(n, &pool)?;
        Ok(Graph {
            n,
            pool,
            adj: OnceLock::from(adj),
        })
    }

    /// [`Graph::from_pool`] for a pool its caller knows to hold distinct
    /// edges, indexed or not: one pass checks their range, and adjacency
    /// is left unbuilt.
    pub(crate) fn from_distinct_pool(n: usize, pool: EdgePool) -> Result<Self, GraphError> {
        pool.iter().try_for_each(|e| check_in_range(n, e))?;
        Ok(Graph::unbuilt(n, pool))
    }

    /// The graph of `pool`, whose edges are distinct and in range, with
    /// adjacency unbuilt (see [`Graph::new`] for the vertex-count limit).
    fn unbuilt(n: usize, pool: EdgePool) -> Self {
        check_vertex_count(n);
        Graph {
            n,
            pool,
            adj: OnceLock::new(),
        }
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
    /// unrepresentable as [`Edge`]s). Adjacency is left unbuilt.
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
        Ok(Graph::unbuilt(n, pool))
    }

    /// Build a graph by draining an [`EdgeStream`] chunk by chunk, so no
    /// global edge list ever materializes alongside the graph. Adjacency
    /// is left unbuilt.
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
        Ok(Graph::unbuilt(n, pool))
    }

    /// Full adjacency, built from the pool on first use.
    #[inline]
    fn adj(&self) -> &[NeighborSet] {
        self.adj.get_or_init(|| {
            adjacency_of(self.n, &self.pool)
                .expect("an unbuilt graph's edges are distinct and in range")
        })
    }

    /// Whether adjacency has been built (tests assert which paths leave
    /// it unbuilt).
    #[cfg(any(test, feature = "testing"))]
    pub fn adjacency_is_built(&self) -> bool {
        self.adj.get().is_some()
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.pool.len()
    }

    /// Degree of `v`. Builds adjacency; a reader of every degree calls
    /// [`Graph::degree_sequence`], which does not.
    ///
    /// # Panics
    /// Panics if `v >= n`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.adj()[v as usize].len()
    }

    /// Maximum degree over all vertices (`0` for an edgeless graph).
    pub fn max_degree(&self) -> usize {
        self.degree_sequence().into_iter().max().unwrap_or(0)
    }

    /// Average degree `2m/n`.
    pub fn avg_degree(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            2.0 * self.pool.len() as f64 / self.n as f64
        }
    }

    /// The degree of every vertex, indexed by label: read off adjacency
    /// if it is built, otherwise counted in one pass over the pool,
    /// which builds nothing.
    pub fn degree_sequence(&self) -> Vec<usize> {
        if let Some(adj) = self.adj.get() {
            return adj.iter().map(NeighborSet::len).collect();
        }
        let mut degree = vec![0usize; self.n];
        for e in self.pool.iter() {
            degree[e.src() as usize] += 1;
            degree[e.dst() as usize] += 1;
        }
        degree
    }

    /// Full neighbor set of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &NeighborSet {
        &self.adj()[v as usize]
    }

    /// Edge-existence test: one probe of the pool's hash index if the
    /// pool has one, otherwise an `O(log d)` binary search of the lower
    /// endpoint's sorted neighbor list. It never builds the index, so a
    /// graph that is only read never pays for one.
    #[inline]
    pub fn has_edge(&self, e: Edge) -> bool {
        if e.dst() >= self.n as u64 {
            return false;
        }
        match self.pool.contains_if_indexed(e) {
            Some(found) => found,
            None => self.adj()[e.src() as usize].contains(e.dst()),
        }
    }

    /// Add an edge; errors on duplicates or out-of-range endpoints.
    pub fn add_edge(&mut self, e: Edge) -> Result<(), GraphError> {
        check_in_range(self.n, e)?;
        if !self.pool.insert(e) {
            return Err(GraphError::ParallelEdge(e));
        }
        if let Some(adj) = self.adj.get_mut() {
            adj[e.src() as usize].insert(e.dst());
            adj[e.dst() as usize].insert(e.src());
        }
        Ok(())
    }

    /// Remove an edge; errors if absent.
    pub fn remove_edge(&mut self, e: Edge) -> Result<(), GraphError> {
        if !self.pool.remove(e) {
            return Err(GraphError::MissingEdge(e));
        }
        if let Some(adj) = self.adj.get_mut() {
            adj[e.src() as usize].remove(e.dst());
            adj[e.dst() as usize].remove(e.src());
        }
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
        v.extend(ascending_edges(self.adj()));
        v
    }

    /// Order-independent 64-bit digest of the graph: the vertex count,
    /// then every edge key in ascending order, folded through a
    /// splitmix-style mixer. Built adjacency gives the keys by one walk
    /// of its sorted neighbor lists ([`ascending_edges`]): `O(n + m)`,
    /// no key vector, no sort. Unbuilt, it stays unbuilt: one transient
    /// bucket pass over the pool gives them (`ascending_pool_keys`),
    /// at a third to a half of the cost of building adjacency. Pool
    /// order does not enter it, so equal edge sets on
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
        let mut fold = |key: u64| h = mix(h ^ key.wrapping_mul(0x9e3779b97f4a7c15));
        match self.adj.get() {
            Some(adj) => ascending_edges(adj).for_each(|e| fold(e.key())),
            None => ascending_pool_keys(self.n, &self.pool, fold),
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
    /// agreement, no out-of-range labels), building adjacency if it is
    /// not built. Intended for tests; `O(m log d)`.
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
        let adj = self.adj();
        let n = self.n as u64;
        let mut adj_edge_count = 0usize;
        for (u, nbrs) in adj.iter().enumerate() {
            let u = u as u64;
            for v in nbrs.iter() {
                if v >= n {
                    return Err(format!("neighbor {v} of {u} out of range"));
                }
                if v == u {
                    return Err(format!("self-loop at {u}"));
                }
                if !adj[v as usize].contains(u) {
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
        let mut start = Vec::with_capacity(adj.len());
        let mut slots = 0usize;
        for nbrs in adj {
            start.push(slots);
            slots += nbrs.len();
        }
        let mut seen = vec![0u64; slots.div_ceil(64)];
        for e in self.pool.iter() {
            // A pool edge is a packed key: both labels fit in `u32`.
            let at = adj.get(e.src() as usize).and_then(|nbrs| {
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

/// The adjacency of the `n`-vertex graph whose edges are `pool`'s — the
/// one bulk adjacency builder. Counts degrees, allocates every neighbor
/// set at its exact size, fills and sorts each once:
/// `O(n + m + Σ d log d)` with no per-edge search and no growth
/// reallocation, against two binary-search inserts with doubling per
/// edge on the [`Graph::add_edge`] route.
///
/// Errors with [`GraphError::UnknownVertex`] if an edge has an endpoint
/// `>= n`, and with [`GraphError::ParallelEdge`] if an edge repeats: the
/// sorted neighbor lists show it.
fn adjacency_of(n: usize, pool: &EdgePool) -> Result<Vec<NeighborSet>, GraphError> {
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
    (lists.into_iter().enumerate())
        .map(|(v, list)| {
            NeighborSet::from_distinct(list)
                .map_err(|w| GraphError::ParallelEdge(Edge::new(v as VertexId, w.into())))
        })
        .collect()
}

/// Hand `visit` the key of every edge of `pool`, a graph's on `n`
/// vertices, in ascending order — the order [`ascending_edges`] walks
/// built adjacency in — from one transient pass that builds no
/// adjacency: count the edges by lower endpoint, scatter the upper
/// endpoints into those buckets as `u32`, sort each bucket. `4(n + m)`
/// bytes, freed on return.
fn ascending_pool_keys(n: usize, pool: &EdgePool, mut visit: impl FnMut(u64)) {
    // `end[u]` ends lower endpoint `u`'s bucket once counted and summed;
    // the scatter walks each back to its bucket's start.
    let mut end = vec![0u32; n + 1];
    for e in pool.iter() {
        end[e.src() as usize] += 1;
    }
    let mut sum = 0;
    for slot in &mut end {
        sum += *slot;
        *slot = sum;
    }
    let mut upper = vec![0u32; pool.len()];
    for e in pool.iter() {
        let at = &mut end[e.src() as usize];
        *at -= 1;
        // Labels are below n <= 2^32: the narrowing is exact.
        upper[*at as usize] = e.dst() as u32;
    }
    for (u, bounds) in end.windows(2).enumerate() {
        let bucket = &mut upper[bounds[0] as usize..bounds[1] as usize];
        bucket.sort_unstable();
        // An edge's key is its lower label over its upper (`Edge::key`).
        bucket
            .iter()
            .for_each(|&x| visit((u as u64) << 32 | u64::from(x)));
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
        let adj = path_graph(4).adj().to_vec();
        let e = Edge::new;
        let with_pool = |edges: &[Edge]| {
            let mut pool = EdgePool::new();
            for &edge in edges {
                pool.push_distinct(edge);
            }
            Graph {
                n: 4,
                pool,
                adj: OnceLock::from(adj.clone()),
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

    /// Which constructors and reads leave adjacency unbuilt, and which
    /// reads build it, on the pattern of
    /// `store::tests::reading_an_assembled_graph_builds_no_index`.
    #[test]
    fn adjacency_is_built_only_when_read() {
        use crate::generators::{preferential_attachment, StreamSpec};
        let spec = StreamSpec::Pa {
            n: 300,
            d: 4,
            seed: 5,
        };
        let streamed = spec.build().unwrap();
        let listed = Graph::from_edges(300, streamed.edges()).unwrap();
        let generated = preferential_attachment(300, 4, &mut Pcg64::seed_from_u64(5));
        let pooled = Graph::from_pool(300, streamed.pool().clone()).unwrap();
        for g in [&streamed, &listed, &generated, &pooled] {
            assert!(!g.adjacency_is_built());
            assert!(g.pool().is_indexed());
            let degrees = g.degree_sequence();
            assert_eq!(degrees.iter().sum::<usize>(), 2 * g.num_edges());
            assert_eq!(g.max_degree(), *degrees.iter().max().unwrap());
            let e = g.pool().get(7).unwrap();
            assert!(g.has_edge(e) && !g.has_edge(Edge::new(e.src(), 300)));
            let mut rng = Pcg64::seed_from_u64(1);
            assert!(g.sample_edge(&mut rng).is_some_and(|e| g.has_edge(e)));
            assert_eq!(g.edges().len(), g.num_edges());
            assert_ne!(g.edge_digest(), 0);
            assert!(!g.clone().adjacency_is_built());
            assert!(!g.adjacency_is_built(), "reads of the pool build nothing");
        }
        assert!(streamed.same_edge_set(&listed) && streamed.same_edge_set(&pooled));
        assert!(!streamed.adjacency_is_built() && !listed.adjacency_is_built());
        let mut edgeless = Graph::new(4);
        edgeless.add_edge(Edge::new(0, 1)).unwrap();
        assert!(
            !edgeless.adjacency_is_built(),
            "an unbuilt graph's edits touch the pool only"
        );

        // Each of these reads builds it, and a clone keeps it built.
        for what in ["neighbors", "degree", "sorted_edges", "check_invariants"] {
            let g = streamed.clone();
            match what {
                "neighbors" => assert!(!g.neighbors(0).is_empty()),
                "degree" => assert!(g.degree(0) > 0),
                "sorted_edges" => assert!(!g.sorted_edges().is_empty()),
                _ => g.check_invariants().unwrap(),
            }
            assert!(g.adjacency_is_built(), "{what} builds adjacency");
            assert!(g.clone().adjacency_is_built());
        }
        // An unindexed pool answers `has_edge` from adjacency, never
        // from an index it would have to build.
        let mut pool = EdgePool::new();
        for e in [(2, 3), (0, 1), (1, 2)] {
            pool.push_distinct(Edge::new(e.0, e.1));
        }
        let gathered = Graph::from_distinct_pool(4, pool).unwrap();
        assert!(!gathered.adjacency_is_built());
        assert!(gathered.has_edge(Edge::new(1, 2)) && !gathered.has_edge(Edge::new(0, 2)));
        assert!(gathered.adjacency_is_built() && !gathered.pool().is_indexed());
    }

    /// The digest of a graph whose adjacency is unbuilt comes from the
    /// pool's bucket pass, which leaves it unbuilt, and equals the walk
    /// of built adjacency: pools far from key order, isolated vertices,
    /// a hub, the empty graphs.
    #[test]
    fn an_unbuilt_digest_equals_the_walk_and_builds_nothing() {
        let mut rng = Pcg64::seed_from_u64(12);
        let pa = crate::generators::preferential_attachment(500, 3, &mut rng);
        let mut shuffled: Vec<Edge> = pa.edges().collect();
        crate::sampling::fisher_yates_shuffle(&mut shuffled, &mut rng);
        let hub = (1..40u64).rev().map(|v| Edge::new(0, v));
        let sparse = [(9, 2), (2, 5), (11, 0), (5, 9)].map(|(a, b)| Edge::new(a, b));
        let graphs = [
            pa.clone(),
            Graph::from_edges(500, shuffled).unwrap(),
            Graph::from_edges(60, hub).unwrap(),
            Graph::from_edges(12, sparse).unwrap(),
            Graph::new(0),
            Graph::new(3),
        ];
        for (i, g) in graphs.iter().enumerate() {
            assert!(!g.adjacency_is_built(), "graph {i}");
            let unbuilt = g.edge_digest();
            assert!(!g.adjacency_is_built(), "graph {i}: the digest built it");
            let built = g.clone();
            built.sorted_edges();
            assert!(built.adjacency_is_built());
            assert_eq!(built.edge_digest(), unbuilt, "graph {i}");
        }
        assert_eq!(graphs[0].edge_digest(), graphs[1].edge_digest());
    }

    #[test]
    fn edits_keep_built_adjacency_in_step() {
        let mut g = path_graph(4);
        assert_eq!(g.degree(1), 2);
        g.remove_edge(Edge::new(1, 2)).unwrap();
        g.add_edge(Edge::new(0, 3)).unwrap();
        assert_eq!(g.degree_sequence(), vec![2, 1, 1, 2]);
        assert!(g.neighbors(0).contains(3) && !g.neighbors(1).contains(2));
        g.check_invariants().unwrap();
    }

    #[test]
    fn from_pool_checks_the_range_of_an_indexed_pool() {
        let e = Edge::new;
        let pool: EdgePool = [e(0, 1), e(1, 2)].into_iter().collect();
        assert_eq!(
            Graph::from_pool(2, pool.clone()).unwrap_err(),
            GraphError::UnknownVertex(2)
        );
        let g = Graph::from_pool(3, pool).unwrap();
        assert!(!g.adjacency_is_built());
        assert_eq!(g.sorted_edges(), [e(0, 1), e(1, 2)]);
    }
}
