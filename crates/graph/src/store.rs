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
//! ([`EdgePool::contains`]), and nothing in the protocol reads a
//! neighbor list, so a rank's share is an [`EdgePool`] and nothing else:
//! what Section 4.2 contributes is *where an edge lives*, not a second
//! copy of it. Full adjacency exists only on the [`Graph`]s that go in
//! ([`build_stores`]) and come out ([`assemble_graph`]), and on those
//! only once something reads it (see [`crate::graph`]).
//!
//! Only a switch rank probes its share, so the split indexes nothing:
//! [`build_stores`] appends a graph's edges, distinct already, unhashed,
//! and a switch rank's pool builds its index when the rank starts
//! tracking visits ([`EdgePool::track_visits`]). A streamed share
//! ([`build_rank_store_streamed`]) is indexed as it fills, because a
//! stream may re-emit an edge.
//!
//! A share's index lives only as long as its rank runs. At teardown a
//! rank hands over its edges as a plain key list in pool order, and the
//! gather loop ([`assemble_edges`]) appends the lists in rank order to
//! the output graph's pool without hashing them: the output is read
//! through its edge order and adjacency — which the gather builds and
//! checks at once, since that check is what catches an edge two ranks
//! both sent — and its index comes with the first probe or mutation, if
//! any.

use crate::graph::Graph;
use crate::partition::Partitioner;
use crate::sampling::EdgePool;
use crate::stream::{capacity_hint, EdgeStream};
use crate::types::{Edge, GraphError};

/// Split a graph into `p` per-rank shares under `part`, unindexed.
///
/// Edge `(u,v)` with `u < v` goes to `part.owner(u)` — the distributed
/// distribution step of Section 4.3 — in the graph's pool order.
pub fn build_stores(graph: &Graph, part: &Partitioner) -> Vec<EdgePool> {
    let mut stores = vec![EdgePool::new(); part.num_parts()];
    for e in graph.edges() {
        stores[part.owner(e.src())].push_distinct(e);
    }
    stores
}

/// Build *one* rank's share from a streamed edge sequence, keeping only
/// the edges `part` assigns to `rank` in sequence order and skipping a
/// re-emitted one (see [`crate::stream`]). Seed-booted children
/// regenerate the full deterministic sequence locally and keep their
/// share (peak memory O(m/p + chunk), zero communication); fed a graph's
/// pool order, it yields that rank's [`build_stores`] share.
pub fn build_rank_store_streamed<S>(stream: &mut S, part: &Partitioner, rank: usize) -> EdgePool
where
    S: EdgeStream + ?Sized,
{
    let share = capacity_hint(stream.size_hint()) / part.num_parts().max(1);
    let mut store = EdgePool::with_capacity(share);
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

/// Reassemble the full graph from per-rank shares (gather step, used
/// for post-run validation and metric computation): the shares' edges in
/// rank order, each in its pool order ([`assemble_edges`]).
///
/// # Panics
/// Panics if two shares hold the same edge or an edge has an endpoint
/// `>= n` — the shares are not a partition of one `n`-vertex graph.
pub fn assemble_graph(n: usize, stores: &[EdgePool]) -> Graph {
    assemble_edges(n, stores.iter().flat_map(EdgePool::iter))
        .expect("rank shares must hold edges of an n-vertex graph")
}

/// The gather step's one loop: the `n`-vertex graph whose pool holds
/// `edges` in this order — each partition's share in turn, or a
/// Curveball engine's edges in ascending key order. The edges are
/// appended to the pool unhashed (its index is built on first use, see
/// [`crate::sampling`]). A strictly increasing key list holds each edge
/// once, so for one (a Curveball finish) only the range is checked and
/// adjacency is left to its first reader; any other list (a gather of
/// ranks' shares) has its adjacency built at once
/// ([`Graph::from_pool`]), whose distinct-neighbor check is what
/// catches a repeated edge.
///
/// Errors as [`Graph::from_pool`] does if an edge repeats or has an
/// endpoint `>= n` — the shares are not a partition of one `n`-vertex
/// graph — naming the edge, so that a gather of untrusted shares can
/// blame the share that holds it.
pub fn assemble_edges(
    n: usize,
    edges: impl IntoIterator<Item = Edge>,
) -> Result<Graph, GraphError> {
    let mut pool = EdgePool::new();
    // No key is `u64::MAX` (its `src` is below its `dst`), so `next`,
    // the least key that keeps the list strictly increasing, never wraps.
    let (mut ascending, mut next) = (true, 0u64);
    for e in edges {
        let key = e.key();
        ascending &= key >= next;
        next = key + 1;
        pool.push_distinct(e);
    }
    if ascending {
        Graph::from_distinct_pool(n, pool)
    } else {
        Graph::from_pool(n, pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::IterStream;
    use crate::types::Edge;
    use edgeswitch_dist::{Pcg64, Rng};

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
        assert_eq!(stores.len(), 4);
        let total: usize = stores.iter().map(EdgePool::len).sum();
        assert_eq!(total, g.num_edges());
        for (rank, s) in stores.iter().enumerate() {
            assert!(s.check_consistent());
            for e in s.iter() {
                assert_eq!(part.owner(e.src()), rank);
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
    /// picks contains, insert, remove, track_visits or restore_unvisited
    /// (marking the edges that share `e`'s smaller endpoint).
    fn scripted(pool: &mut EdgePool, which: u64, e: Edge) -> (bool, usize) {
        let answer = match which {
            0 => pool.contains(e),
            1 => pool.insert(e),
            2 => pool.remove(e),
            3 => {
                pool.track_visits();
                true
            }
            _ => {
                let mut bits = vec![0u64; pool.len().div_ceil(64)];
                for i in (0..pool.len()).filter(|&i| pool.get(i).unwrap().src() == e.src()) {
                    bits[i / 64] |= 1 << (i % 64);
                }
                pool.restore_unvisited(&bits).is_ok()
            }
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
    fn the_split_builds_no_index_and_tracking_builds_it() {
        let g = grid_graph();
        let stores = build_stores(&g, &Partitioner::hash_division(3));
        assert!(stores.iter().all(|s| !s.is_indexed()));
        for mut s in stores {
            let order: Vec<Edge> = s.iter().collect();
            s.track_visits();
            assert!(s.is_indexed());
            assert_eq!(s.unvisited(), s.len());
            assert!(s.iter().eq(order), "indexing keeps pool order");
            assert!(s.check_consistent());
        }
    }

    #[test]
    fn reading_an_assembled_graph_builds_no_index() {
        let g = grid_graph();
        let part = Partitioner::hash_division(2);
        let stores = build_stores(&g, &part);
        let h = assemble_edges(g.num_vertices(), stores.iter().flat_map(EdgePool::iter)).unwrap();
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
    #[should_panic(expected = "rank shares must hold edges of an n-vertex graph")]
    fn assembling_overlapping_shares_panics() {
        let g = grid_graph();
        let mut stores = build_stores(&g, &Partitioner::hash_division(2));
        let overlap = stores[0].get(0).unwrap();
        stores[1].insert(overlap);
        assemble_graph(g.num_vertices(), &stores);
    }

    /// An untrusted gather learns which edge broke it: the repeated one,
    /// or the one with an endpoint out of range.
    #[test]
    fn assembling_a_bad_edge_list_names_the_edge() {
        let g = grid_graph();
        let n = g.num_vertices();
        let stores = build_stores(&g, &Partitioner::hash_division(2));
        let overlap = stores[0].get(3).unwrap();
        let repeated = stores.iter().flat_map(EdgePool::iter).chain([overlap]);
        let err = assemble_edges(n, repeated).unwrap_err();
        assert_eq!(err, GraphError::ParallelEdge(overlap));
        let stray = Edge::new(2, n as u64);
        let err = assemble_edges(n, g.edges().chain([stray])).unwrap_err();
        assert_eq!(err, GraphError::UnknownVertex(n as u64));
    }

    /// A strictly increasing key list (a Curveball finish) assembles
    /// with adjacency unbuilt; a gather of shares builds and checks it.
    #[test]
    fn an_ascending_key_list_assembles_without_adjacency() {
        let g = grid_graph();
        let n = g.num_vertices();
        let sorted = assemble_edges(n, g.sorted_edges()).unwrap();
        assert!(!sorted.adjacency_is_built() && !sorted.pool().is_indexed());
        assert!(sorted.edges().eq(g.sorted_edges()));
        let stores = build_stores(&g, &Partitioner::hash_division(2));
        let gathered = assemble_edges(n, stores.iter().flat_map(EdgePool::iter)).unwrap();
        assert!(gathered.adjacency_is_built());
        assert_eq!(sorted.edge_digest(), gathered.edge_digest());
        // Ascending but out of range, or equal neighbours: still refused.
        let mut stray = g.sorted_edges();
        stray.push(Edge::new(24, n as u64));
        let err = assemble_edges(n, stray).unwrap_err();
        assert_eq!(err, GraphError::UnknownVertex(n as u64));
        let mut twice = g.sorted_edges();
        twice.push(*twice.last().unwrap());
        let err = assemble_edges(n, twice).unwrap_err();
        assert!(matches!(err, GraphError::ParallelEdge(_)));
    }

    #[test]
    fn insert_remove_reject_duplicates_and_absentees() {
        let emitted = [(1, 5), (2, 6), (1, 7), (1, 5), (2, 6)].map(|(u, v)| Edge::new(u, v));
        let part = Partitioner::hash_division(2);
        let mut stream = IterStream::with_chunk_edges(emitted, 2);
        let mut s = build_rank_store_streamed(&mut stream, &part, part.owner(1));
        let owned: Vec<Edge> = s.iter().collect();
        assert_eq!(
            owned,
            [Edge::new(1, 5), Edge::new(1, 7)],
            "re-emission skipped"
        );
        assert!(!s.insert(Edge::new(1, 5)), "duplicate rejected");
        assert!(s.remove(Edge::new(1, 5)));
        assert!(!s.contains(Edge::new(1, 5)));
        assert!(s.remove(Edge::new(1, 7)));
        assert!(!s.remove(Edge::new(1, 7)));
        assert!(s.is_empty());
        assert!(s.check_consistent());
    }

    #[test]
    fn sample_returns_owned_edges() {
        let g = grid_graph();
        let part = Partitioner::hash_multiplication(3);
        let stores = build_stores(&g, &part);
        let mut rng = Pcg64::seed_from_u64(11);
        for s in stores.iter().filter(|s| !s.is_empty()) {
            for _ in 0..20 {
                let e = s.sample(&mut rng).unwrap();
                assert!(s.contains(e));
            }
        }
    }
}
