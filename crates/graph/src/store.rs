//! Per-partition storage: the ownership rule of the *reduced adjacency
//! list* (Section 4.2).
//!
//! An edge `(u, v)` with `u < v` is stored exactly once, in the partition
//! that owns `u`. This guarantees an edge can be selected from only one
//! partition and halves the memory footprint against storing it at both
//! endpoints.
//!
//! The paper keeps each rank's share as per-vertex reduced lists because
//! its parallel-edge test searches them. Here that test — like the
//! sequential one — is one probe of the pool's packed-key index
//! ([`PartitionStore::contains`]), and nothing in the protocol reads a
//! neighbor list, so a store is its [`EdgePool`] and nothing else: what
//! Section 4.2 contributes is *where an edge lives*, not a second copy of
//! it. Full adjacency exists only on the [`Graph`]s that go in
//! ([`build_stores`]) and come out ([`assemble_graph`]).
//!
//! A store's index lives only as long as its rank runs. At teardown a
//! rank hands over its edges as a plain key list in pool order, and the
//! gather loop ([`assemble_edges`]) appends the lists in rank order to
//! the output graph's pool without hashing them: the output is read
//! through its edge order and adjacency, and its index comes with the
//! first probe or mutation, if any.

use crate::graph::Graph;
use crate::partition::Partitioner;
use crate::sampling::EdgePool;
use crate::stream::{capacity_hint, EdgeStream};
use crate::types::Edge;
use edgeswitch_dist::Rng;

/// One processor's share of the distributed graph.
#[derive(Clone, Debug)]
pub struct PartitionStore {
    rank: usize,
    /// The owned edges `{(u,v) ∈ E : u < v, owner(u) = rank}`: uniformly
    /// sampleable, existence-testable, in a deterministic order.
    pool: EdgePool,
}

impl PartitionStore {
    /// Empty store for processor `rank`.
    pub fn new(rank: usize) -> Self {
        Self::with_capacity(rank, 0)
    }

    /// Empty store for processor `rank`, pre-sized for about `edges`
    /// owned edges (it still grows on demand if the estimate is low).
    pub fn with_capacity(rank: usize, edges: usize) -> Self {
        PartitionStore {
            rank,
            pool: EdgePool::with_capacity(edges),
        }
    }

    /// The processor rank this store belongs to.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of edges `|E_i|` currently owned.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.pool.len()
    }

    /// `O(1)` existence test for an edge owned by this partition.
    ///
    /// The caller must only ask about edges whose lower endpoint is owned
    /// here; asking about a foreign edge returns `false`, which in the
    /// distributed protocol would be a routing bug, so debug builds do not
    /// check it — ownership is the protocol's responsibility.
    #[inline]
    pub fn contains(&self, e: Edge) -> bool {
        self.pool.contains(e)
    }

    /// Insert an owned edge; `false` if already present (parallel edge).
    #[inline]
    pub fn insert(&mut self, e: Edge) -> bool {
        self.pool.insert(e)
    }

    /// Remove an owned edge; `false` if absent.
    #[inline]
    pub fn remove(&mut self, e: Edge) -> bool {
        self.pool.remove(e)
    }

    /// Draw a uniformly random owned edge.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<Edge> {
        self.pool.sample(rng)
    }

    /// Iterate owned edges in pool order, with an exact `size_hint`.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = Edge> + '_ {
        self.pool.iter()
    }

    /// Give up the store and keep its edges: their packed keys
    /// ([`Edge::key`]) in pool order. The index goes with the store — a
    /// rank's teardown hands over this list, not its index.
    pub fn into_keys(self) -> Vec<u64> {
        self.pool.iter().map(|e| e.key()).collect()
    }

    /// Mark every owned edge an unvisited initial edge
    /// ([`EdgePool::track_visits`]).
    pub fn track_visits(&mut self) {
        self.pool.track_visits();
    }

    /// Mark the owned edge of key `key` unvisited; `false` if absent
    /// ([`EdgePool::mark_unvisited`]).
    pub fn mark_unvisited(&mut self, key: u64) -> bool {
        self.pool.mark_unvisited(key)
    }

    /// Owned initial edges not yet removed ([`EdgePool::unvisited`]).
    #[inline]
    pub fn unvisited(&self) -> usize {
        self.pool.unvisited()
    }

    /// The marks as a bitmap over pool order
    /// ([`EdgePool::unvisited_bitmap`]).
    pub fn unvisited_bitmap(&self) -> Vec<u64> {
        self.pool.unvisited_bitmap()
    }

    /// Internal consistency of the pool (index against dense array).
    pub fn check_consistent(&self) -> bool {
        self.pool.check_consistent()
    }
}

/// Split a graph into `p` partition stores under `part`.
///
/// Edge `(u,v)` with `u < v` goes to `part.owner(u)` — the distributed
/// distribution step of Section 4.3.
pub fn build_stores(graph: &Graph, part: &Partitioner) -> Vec<PartitionStore> {
    let p = part.num_parts();
    // `m` is known up front; size every store for the balanced share so
    // the distribution loop below never rehashes (skewed schemes may
    // still grow the heavy stores once or twice).
    let share = graph.num_edges() / p.max(1);
    let mut stores: Vec<PartitionStore> = (0..p)
        .map(|rank| PartitionStore::with_capacity(rank, share))
        .collect();
    for e in graph.edges() {
        let owner = part.owner(e.src());
        let inserted = stores[owner].insert(e);
        debug_assert!(inserted, "input graph contained duplicate edge {e}");
    }
    stores
}

/// Split a *streamed* edge sequence into `p` partition stores under
/// `part`, without ever materializing the global edge list: each chunk
/// is routed edge-by-edge to `part.owner(e.src())` and dropped.
///
/// Equivalence with [`build_stores`]: feeding the same edge sequence
/// (e.g. a graph's pool order via `IterStream::new(graph.edges())`)
/// produces stores whose pool orders match `build_stores` exactly,
/// because both insert in sequence order and deduplicate on insert —
/// re-emitted duplicates are *skipped* here rather than asserted away,
/// matching the streaming contract (see [`crate::stream`]).
pub fn build_stores_streamed<S>(stream: &mut S, part: &Partitioner) -> Vec<PartitionStore>
where
    S: EdgeStream + ?Sized,
{
    let p = part.num_parts();
    let share = capacity_hint(stream.size_hint()) / p.max(1);
    let mut stores: Vec<PartitionStore> = (0..p)
        .map(|rank| PartitionStore::with_capacity(rank, share))
        .collect();
    let mut chunk = Vec::new();
    while stream.next_chunk(&mut chunk) {
        for &e in &chunk {
            stores[part.owner(e.src())].insert(e);
        }
    }
    stores
}

/// Build *one* rank's partition store from a streamed edge sequence,
/// keeping only the edges `part` assigns to `rank` — the per-process
/// form of [`build_stores_streamed`] used by seed-booted children, who
/// regenerate the full deterministic sequence locally and keep their
/// share (peak memory O(m/p + chunk), zero communication).
pub fn build_rank_store_streamed<S>(
    stream: &mut S,
    part: &Partitioner,
    rank: usize,
) -> PartitionStore
where
    S: EdgeStream + ?Sized,
{
    let share = capacity_hint(stream.size_hint()) / part.num_parts().max(1);
    let mut store = PartitionStore::with_capacity(rank, share);
    let mut chunk = Vec::new();
    while stream.next_chunk(&mut chunk) {
        for &e in &chunk {
            if part.owner(e.src()) == rank {
                store.insert(e);
            }
        }
    }
    store
}

/// Reassemble the full graph from partition stores (gather step, used for
/// post-run validation and metric computation): the stores' edges in
/// rank order, each in its pool order ([`assemble_edges`]).
///
/// # Panics
/// Panics if two stores hold the same edge or an edge has an endpoint
/// `>= n` — the stores are not a partition of one `n`-vertex graph.
pub fn assemble_graph(n: usize, stores: &[PartitionStore]) -> Graph {
    assemble_edges(n, stores.iter().flat_map(PartitionStore::edges))
}

/// The gather step's one loop: the `n`-vertex graph whose pool holds
/// `edges` in this order — each partition's share in turn, or a
/// Curveball engine's edges in ascending key order. The edges are
/// appended to the pool unhashed (its index is built on first use, see
/// [`crate::sampling`]) and adjacency is built once in bulk
/// ([`Graph::from_pool`]), whose distinct-neighbor check is what catches
/// a repeated edge.
///
/// # Panics
/// Panics if an edge repeats or has an endpoint `>= n` — the shares are
/// not a partition of one `n`-vertex graph.
pub fn assemble_edges(n: usize, edges: impl IntoIterator<Item = Edge>) -> Graph {
    let mut pool = EdgePool::new();
    for e in edges {
        pool.push_distinct(e);
    }
    Graph::from_pool(n, pool).expect("partition stores must hold edges of an n-vertex graph")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Edge;
    use edgeswitch_dist::Pcg64;

    fn grid_graph() -> Graph {
        // 5x5 grid.
        let n = 25u64;
        let mut edges = vec![];
        for r in 0..5u64 {
            for c in 0..5u64 {
                let v = r * 5 + c;
                if c + 1 < 5 {
                    edges.push(Edge::new(v, v + 1));
                }
                if r + 1 < 5 {
                    edges.push(Edge::new(v, v + 5));
                }
            }
        }
        Graph::from_edges(n as usize, edges).unwrap()
    }

    #[test]
    fn build_assigns_every_edge_once() {
        let g = grid_graph();
        let part = Partitioner::hash_division(4);
        let stores = build_stores(&g, &part);
        let total: usize = stores.iter().map(PartitionStore::num_edges).sum();
        assert_eq!(total, g.num_edges());
        for s in &stores {
            assert!(s.check_consistent());
            for e in s.edges() {
                assert_eq!(part.owner(e.src()), s.rank());
            }
        }
    }

    #[test]
    fn assemble_round_trips() {
        let g = grid_graph();
        let part = Partitioner::consecutive(&g, 3);
        let stores = build_stores(&g, &part);
        let h = assemble_graph(g.num_vertices(), &stores);
        assert!(g.same_edge_set(&h));
    }

    /// One scripted operation on a pool, and what it answered: `which`
    /// picks contains, insert, remove, track_visits or mark_unvisited.
    fn scripted(pool: &mut EdgePool, which: u64, e: Edge) -> (bool, usize) {
        let answer = match which {
            0 => pool.contains(e),
            1 => pool.insert(e),
            2 => pool.remove(e),
            3 => {
                pool.track_visits();
                true
            }
            _ => pool.mark_unvisited(e.key()),
        };
        (answer, pool.unvisited())
    }

    /// `lazy`, an unindexed pool, behaves exactly like an eagerly
    /// indexed pool of the same order: reads that need no index build
    /// none, and whichever probe or mutation comes first builds it.
    fn assert_behaves_like_indexed(lazy: &EdgePool, n: u64) {
        assert!(!lazy.is_indexed());
        assert!(lazy.check_consistent());
        let eager: EdgePool = lazy.iter().collect();
        assert!(eager.is_indexed());
        assert!(lazy.iter().eq(eager.iter()));
        let (mut a, mut b) = (Pcg64::seed_from_u64(3), Pcg64::seed_from_u64(3));
        for _ in 0..64 {
            assert_eq!(lazy.sample(&mut a), eager.sample(&mut b));
        }
        assert_eq!(lazy.unvisited_bitmap(), eager.unvisited_bitmap());
        assert!(!lazy.is_indexed(), "sampling and reading build no index");
        for first in 0..5 {
            let (mut lazy, mut eager) = (lazy.clone(), eager.clone());
            let e = lazy.get(0).expect("a non-empty pool");
            assert_eq!(
                scripted(&mut lazy, first, e),
                scripted(&mut eager, first, e)
            );
            assert!(lazy.is_indexed(), "operation {first} builds the index");
            assert!(lazy.check_consistent());
            let mut rng = Pcg64::seed_from_u64(first);
            for _ in 0..400 {
                let e = match rng.gen_range(0..2u64) {
                    0 => lazy.sample(&mut rng),
                    _ => Edge::try_new(rng.gen_range(0..n), rng.gen_range(0..n)),
                };
                let Some(e) = e else { continue };
                let which = rng.gen_range(0..5u64);
                assert_eq!(
                    scripted(&mut lazy, which, e),
                    scripted(&mut eager, which, e)
                );
            }
            assert!(lazy.iter().eq(eager.iter()));
            assert_eq!(lazy.unvisited_bitmap(), eager.unvisited_bitmap());
            assert!(lazy.check_consistent() && eager.check_consistent());
        }
    }

    #[test]
    fn gathered_pools_behave_like_indexed_ones() {
        let g = grid_graph();
        let n = g.num_vertices();
        let stores = build_stores(&g, &Partitioner::hash_division(3));
        let assembled = assemble_graph(n, &stores);
        assert_behaves_like_indexed(assembled.pool(), n as u64);
    }

    #[test]
    fn reading_an_assembled_graph_builds_no_index() {
        let g = grid_graph();
        let part = Partitioner::hash_division(2);
        let stores = build_stores(&g, &part);
        let h = assemble_edges(
            g.num_vertices(),
            stores.iter().flat_map(PartitionStore::edges),
        );
        assert_eq!(h.edge_digest(), g.edge_digest());
        h.check_invariants().unwrap();
        assert!(g.edges().all(|e| h.has_edge(e)));
        assert!(!h.has_edge(Edge::new(0, 24)) && !h.has_edge(Edge::new(3, 99)));
        assert!(h.same_edge_set(&g) && g.same_edge_set(&h));
        assert_eq!(h.degree_sequence(), g.degree_sequence());
        assert!(!h.pool().is_indexed());
        assert!(!h.clone().pool().is_indexed());
    }

    #[test]
    #[should_panic(expected = "neighbor labels must be distinct")]
    fn assembling_overlapping_shares_panics() {
        let g = grid_graph();
        let stores = build_stores(&g, &Partitioner::hash_division(2));
        let overlap = stores[0].edges().take(1);
        assemble_edges(
            g.num_vertices(),
            stores.iter().flat_map(PartitionStore::edges).chain(overlap),
        );
    }

    #[test]
    fn insert_remove_reject_duplicates_and_absentees() {
        let mut s = PartitionStore::new(0);
        assert!(s.insert(Edge::new(1, 5)));
        assert!(s.insert(Edge::new(1, 7)));
        assert!(!s.insert(Edge::new(1, 5)), "duplicate rejected");
        assert_eq!(s.num_edges(), 2);
        assert!(s.remove(Edge::new(1, 5)));
        assert!(!s.contains(Edge::new(1, 5)));
        assert!(s.remove(Edge::new(1, 7)));
        assert!(!s.remove(Edge::new(1, 7)));
        assert_eq!(s.num_edges(), 0);
        assert!(s.check_consistent());
    }

    #[test]
    fn sample_returns_owned_edges() {
        let g = grid_graph();
        let part = Partitioner::hash_multiplication(3);
        let stores = build_stores(&g, &part);
        let mut rng = Pcg64::seed_from_u64(11);
        for s in &stores {
            if s.num_edges() == 0 {
                continue;
            }
            for _ in 0..20 {
                let e = s.sample(&mut rng).unwrap();
                assert!(s.contains(e));
            }
        }
    }
}
