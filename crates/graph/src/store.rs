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
/// rank order, each in its pool order, with adjacency built once in bulk
/// ([`Graph::from_pool`]).
///
/// # Panics
/// Panics if two stores hold the same edge or an edge has an endpoint
/// `>= n` — the stores are not a partition of one `n`-vertex graph.
pub fn assemble_graph(n: usize, stores: &[PartitionStore]) -> Graph {
    let m: usize = stores.iter().map(PartitionStore::num_edges).sum();
    let mut pool = EdgePool::with_capacity(m);
    for s in stores {
        for e in s.edges() {
            assert!(pool.insert(e), "partition stores must hold disjoint edges");
        }
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
