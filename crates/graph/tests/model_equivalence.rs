//! Model-based equivalence: the cache-compact hot-path storage
//! (`NeighborSet` over a sorted `Vec<u32>`, `EdgePool` keyed on packed
//! `u64` edges with the in-repo Fx hasher) must be
//! operation-for-operation indistinguishable from the obvious reference
//! models (`BTreeSet`, `std` `HashSet`), over seeded random op
//! sequences.
//!
//! The same goes for the bulk builder: `Graph::from_pool` must
//! produce, row for row and in the same pool order, the graph the
//! one-edge-at-a-time `Graph::add_edge` route builds. And a graph whose
//! adjacency is built on first read must, edit for edit, read like one
//! whose adjacency is built in bulk from its pool at the end.

use edgeswitch_dist::{Pcg64, Rng};
use edgeswitch_graph::adjacency::NeighborSet;
use edgeswitch_graph::generators::families::star;
use edgeswitch_graph::generators::{erdos_renyi_gnm, preferential_attachment};
use edgeswitch_graph::sampling::EdgePool;
use edgeswitch_graph::store::{assemble_edges, assemble_graph, build_stores};
use edgeswitch_graph::{Edge, Graph, GraphError, IterStream, Partitioner, VertexId};
use std::collections::{BTreeSet, HashSet};

#[test]
fn neighbor_set_matches_btreeset_model() {
    for seed in 0..8u64 {
        let mut rng = Pcg64::seed_from_u64(seed);
        let mut sut = NeighborSet::new();
        let mut model: BTreeSet<VertexId> = BTreeSet::new();
        for step in 0..4000 {
            let v: VertexId = rng.gen_range(0..120);
            match rng.gen_range(0..3) {
                0 => assert_eq!(sut.insert(v), model.insert(v), "insert {v} @ {step}"),
                1 => assert_eq!(sut.remove(v), model.remove(&v), "remove {v} @ {step}"),
                _ => assert_eq!(sut.contains(v), model.contains(&v), "contains {v} @ {step}"),
            }
            assert_eq!(sut.len(), model.len());
            assert_eq!(sut.is_empty(), model.is_empty());
        }
        // Iteration agrees with the sorted model order exactly.
        let got: Vec<VertexId> = sut.iter().collect();
        let want: Vec<VertexId> = model.iter().copied().collect();
        assert_eq!(got, want, "seed {seed}");
    }
}

#[test]
fn intersection_size_matches_btreeset_model() {
    let mut rng = Pcg64::seed_from_u64(99);
    for case in 0..40 {
        // Skew the sizes so both the two-pointer merge and the galloping
        // branch get exercised.
        let (na, nb) = if case % 3 == 0 { (500, 6) } else { (60, 40) };
        let a_model: BTreeSet<VertexId> = (0..na).map(|_| rng.gen_range(0..1000)).collect();
        let b_model: BTreeSet<VertexId> = (0..nb).map(|_| rng.gen_range(0..1000)).collect();
        let a: NeighborSet = a_model.iter().copied().collect();
        let b: NeighborSet = b_model.iter().copied().collect();
        let want = a_model.intersection(&b_model).count();
        assert_eq!(a.intersection_size(&b), want, "case {case}");
        assert_eq!(b.intersection_size(&a), want, "case {case} (swapped)");
    }
}

fn random_edge<R: Rng + ?Sized>(rng: &mut R, universe: u64) -> Option<Edge> {
    Edge::try_new(rng.gen_range(0..universe), rng.gen_range(0..universe))
}

#[test]
fn edge_pool_matches_hashset_model() {
    for seed in 0..8u64 {
        let mut rng = Pcg64::seed_from_u64(1000 + seed);
        let mut sut = EdgePool::new();
        let mut model: HashSet<Edge> = HashSet::new();
        for step in 0..4000 {
            let Some(e) = random_edge(&mut rng, 40) else {
                continue;
            };
            match rng.gen_range(0..3) {
                0 => assert_eq!(sut.insert(e), model.insert(e), "insert {e} @ {step}"),
                1 => assert_eq!(sut.remove(e), model.remove(&e), "remove {e} @ {step}"),
                _ => assert_eq!(sut.contains(e), model.contains(&e), "contains {e} @ {step}"),
            }
            assert_eq!(sut.len(), model.len());
        }
        assert!(sut.check_consistent(), "seed {seed}");
        let mut got: Vec<Edge> = sut.iter().collect();
        let mut want: Vec<Edge> = model.into_iter().collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "seed {seed}");
        // Samples come from the surviving set.
        if !sut.is_empty() {
            for _ in 0..50 {
                let s = sut.sample(&mut rng).unwrap();
                assert!(sut.contains(s));
            }
        }
    }
}

/// The visit marks the pool carries against the obvious model: a
/// `HashSet` pool plus the set of initial edges not yet removed since
/// the last `track_visits`. Random inserts, removes, `track_visits` and
/// `restore_unvisited` calls (the model's marks plus one more edge, as a
/// bitmap over pool order) must leave the same count and the same edges,
/// read through the bitmap the pool hands out (`unvisited_bitmap`) —
/// including when swap-remove displaces a marked edge into a freed slot
/// (it keeps its mark) and when a visited initial edge is inserted again
/// (it stays visited).
#[test]
fn edge_pool_visit_marks_match_a_tracker_model() {
    let (mut displaced_marked, mut revisited) = (0u32, 0u32);
    for seed in 0..8u64 {
        let mut rng = Pcg64::seed_from_u64(2000 + seed);
        let mut sut = EdgePool::new();
        let mut model: HashSet<Edge> = HashSet::new();
        let mut unvisited: HashSet<Edge> = HashSet::new();
        let mut visited: HashSet<Edge> = HashSet::new();
        for step in 0..4000 {
            let Some(e) = random_edge(&mut rng, 30) else {
                continue;
            };
            match rng.gen_range(0..16) {
                0 => {
                    sut.track_visits();
                    unvisited = model.clone();
                    visited.clear();
                }
                1 => {
                    if model.contains(&e) {
                        unvisited.insert(e);
                    }
                    let mut bits = vec![0u64; sut.len().div_ceil(64)];
                    for i in (0..sut.len()).filter(|&i| unvisited.contains(&sut.get(i).unwrap())) {
                        bits[i / 64] |= 1 << (i % 64);
                    }
                    assert_eq!(sut.restore_unvisited(&bits), Ok(()), "mark {e} @ {step}");
                }
                2..=8 => {
                    revisited += u32::from(!model.contains(&e) && visited.contains(&e));
                    assert_eq!(sut.insert(e), model.insert(e), "insert {e} @ {step}");
                }
                _ => {
                    let last = sut.len().checked_sub(1).and_then(|i| sut.get(i));
                    let displaces = last.is_some_and(|l| l != e && model.contains(&e));
                    displaced_marked += u32::from(displaces && unvisited.contains(&last.unwrap()));
                    assert_eq!(sut.remove(e), model.remove(&e), "remove {e} @ {step}");
                    if unvisited.remove(&e) {
                        visited.insert(e);
                    }
                }
            }
            assert_eq!(sut.unvisited(), unvisited.len(), "count @ {step}");
            // The marks as they leave the pool: a bitmap over pool order.
            let bits = sut.unvisited_bitmap();
            assert_eq!(bits.len(), sut.len().div_ceil(64), "words @ {step}");
            let mut got: Vec<u64> = (0..64 * bits.len())
                .filter(|&i| bits[i / 64] >> (i % 64) & 1 == 1)
                .map(|i| sut.get(i).expect("no bit past the last edge").key())
                .collect();
            got.sort_unstable();
            let mut want: Vec<u64> = unvisited.iter().map(|e| e.key()).collect();
            want.sort_unstable();
            assert_eq!(got, want, "unvisited keys @ {step}");
        }
        assert!(sut.check_consistent(), "seed {seed}");
    }
    assert!(
        displaced_marked > 100 && revisited > 100,
        "{displaced_marked} {revisited}"
    );
}

/// The reservation bits the pool keeps for a protocol rank against the
/// obvious model: a `HashSet` pool plus the set of reserved edges. Random
/// reserves of a drawn slot (as a rank locks an edge it drew), releases
/// by edge (an abort), inserts, removals of random edges and of drawn
/// ones (a commit removes a reserved edge) must leave the same reserved
/// edges, read off the pool slot by slot — including when a swap-remove
/// moves a reserved tail into a slot of an earlier 64-bit word, and when
/// a reserved edge leaves, taking its bit with it.
#[test]
fn edge_pool_reservations_match_a_set_model() {
    let (mut crossed, mut committed) = (0u32, 0u32);
    for seed in 0..8u64 {
        let mut rng = Pcg64::seed_from_u64(5000 + seed);
        let mut sut = EdgePool::new();
        let mut model: HashSet<Edge> = HashSet::new();
        let mut reserved: HashSet<Edge> = HashSet::new();
        for step in 0..4000 {
            let drawn = sut.sample_slot(&mut rng);
            let Some(random) = random_edge(&mut rng, 30) else {
                continue;
            };
            let op = rng.gen_range(0..16);
            match (op, drawn) {
                (0..=2, Some(i)) => {
                    let e = sut.get(i).unwrap();
                    if !sut.is_reserved(i) {
                        sut.reserve(i);
                        assert!(reserved.insert(e), "reserve {e} @ {step}");
                    }
                }
                (3..=4, Some(i)) => {
                    let e = sut.get(i).unwrap();
                    assert_eq!(sut.release(e), reserved.remove(&e), "release {e} @ {step}");
                }
                (5, _) => assert_eq!(
                    sut.release(random),
                    reserved.remove(&random),
                    "release {random} @ {step}"
                ),
                (6..=10, _) => {
                    assert_eq!(sut.insert(random), model.insert(random), "insert @ {step}");
                }
                (11.., _) => {
                    let e = match drawn {
                        Some(i) if op >= 14 => sut.get(i).unwrap(),
                        _ => random,
                    };
                    let tail = sut.len().checked_sub(1);
                    let slot = (0..sut.len()).find(|&i| sut.get(i) == Some(e));
                    if let (Some(tail), Some(slot)) = (tail, slot) {
                        crossed += u32::from(slot / 64 != tail / 64 && sut.is_reserved(tail));
                    }
                    assert_eq!(sut.remove(e), model.remove(&e), "remove {e} @ {step}");
                    committed += u32::from(reserved.remove(&e));
                }
                _ => {}
            }
            let got: HashSet<Edge> = (0..sut.len())
                .filter(|&i| sut.is_reserved(i))
                .map(|i| sut.get(i).unwrap())
                .collect();
            assert_eq!(got, reserved, "reserved edges @ {step}");
            assert_eq!(sut.any_reserved(), !reserved.is_empty(), "@ {step}");
            assert_eq!(sut.is_reserved_edge(random), reserved.contains(&random));
            if step % 16 == 0 {
                assert!(sut.check_consistent(), "seed {seed} @ {step}");
            }
        }
        assert!(sut.check_consistent(), "seed {seed}");
    }
    assert!(crossed > 50 && committed > 100, "{crossed} {committed}");
}

/// The dense-array order inside the pool — which is what `sample` indexes
/// and therefore what the switch algorithms' RNG draw sequence observes —
/// must be a pure function of the operation sequence, independent of
/// hasher state or allocation history. Same seed ⇒ same draw sequence ⇒
/// same final edge set, the `deterministic_under_seed` guarantee.
#[test]
fn pool_order_is_a_pure_function_of_the_op_sequence() {
    let build = || {
        let mut rng = Pcg64::seed_from_u64(4242);
        let mut pool = EdgePool::new();
        for _ in 0..3000 {
            if let Some(e) = random_edge(&mut rng, 60) {
                if rng.gen_range(0..4) == 0 {
                    pool.remove(e);
                } else {
                    pool.insert(e);
                }
            }
        }
        pool
    };
    let a = build();
    let b = build();
    assert_eq!(
        a.iter().collect::<Vec<_>>(),
        b.iter().collect::<Vec<_>>(),
        "dense order diverged between identical op sequences"
    );
    // And the sampled stream is identical draw for draw.
    let mut ra = Pcg64::seed_from_u64(7);
    let mut rb = Pcg64::seed_from_u64(7);
    for _ in 0..500 {
        assert_eq!(a.sample(&mut ra), b.sample(&mut rb));
    }
}

/// `edges` added one at a time — the reference [`Graph::from_pool`] is
/// held to.
fn incremental(n: usize, edges: impl IntoIterator<Item = Edge>) -> Graph {
    let mut g = Graph::new(n);
    for e in edges {
        g.add_edge(e).unwrap();
    }
    g
}

fn assert_same_graph(bulk: &Graph, reference: &Graph, ctx: &str) {
    bulk.check_invariants()
        .unwrap_or_else(|why| panic!("{ctx}: {why}"));
    assert_eq!(bulk.num_vertices(), reference.num_vertices(), "{ctx}");
    assert!(bulk.edges().eq(reference.edges()), "{ctx}: pool order");
    for v in 0..bulk.num_vertices() as VertexId {
        assert_eq!(bulk.neighbors(v), reference.neighbors(v), "{ctx}: row {v}");
    }
}

#[test]
fn bulk_built_adjacency_equals_the_incremental_build() {
    let mut rng = Pcg64::seed_from_u64(31);
    let mut isolated = erdos_renyi_gnm(60, 90, &mut rng).sorted_edges();
    isolated.retain(|e| e.dst() < 40); // vertices 40..60 keep no edge
    let cases: Vec<(&str, usize, Vec<Edge>)> = vec![
        (
            "er",
            300,
            erdos_renyi_gnm(300, 1500, &mut rng).edges().collect(),
        ),
        (
            "pa",
            400,
            preferential_attachment(400, 6, &mut rng).edges().collect(),
        ),
        ("star", 50, star(50).edges().collect()),
        ("empty", 0, vec![]),
        ("edgeless", 7, vec![]),
        ("isolated", 60, isolated),
    ];
    for (name, n, edges) in cases {
        let reference = incremental(n, edges.iter().copied());
        let pool: EdgePool = edges.iter().copied().collect();
        assert_same_graph(&Graph::from_pool(n, pool).unwrap(), &reference, name);
        // The two public constructors are the same builder.
        let listed = Graph::from_edges(n, edges.iter().copied()).unwrap();
        assert_same_graph(&listed, &reference, name);
        let mut stream = IterStream::with_chunk_edges(edges.iter().copied(), 17);
        let streamed = Graph::from_stream(n, &mut stream).unwrap();
        assert_same_graph(&streamed, &reference, name);
        // And the way back out gives the pool it was built from.
        assert!(
            listed.into_pool().iter().eq(edges.iter().copied()),
            "{name}"
        );
    }
}

#[test]
fn bulk_build_follows_a_churned_pool() {
    // After removes and inserts the pool is no longer in insertion
    // order; the bulk builder must take it as it stands.
    let n = 80;
    let mut rng = Pcg64::seed_from_u64(32);
    let mut reference = erdos_renyi_gnm(n, 400, &mut rng);
    let mut pool = reference.pool().clone();
    for _ in 0..10_000 {
        let Some(e) = random_edge(&mut rng, n as u64) else {
            continue;
        };
        if pool.remove(e) {
            reference.remove_edge(e).unwrap();
        } else {
            assert!(pool.insert(e));
            reference.add_edge(e).unwrap();
        }
    }
    let bulk = Graph::from_pool(n, pool).unwrap();
    assert_same_graph(&bulk, &reference, "churned");
}

#[test]
fn constructors_still_reject_what_they_rejected() {
    let e = Edge::new;
    assert_eq!(
        Graph::from_edges(4, [e(0, 1), e(2, 3), e(1, 0)]).unwrap_err(),
        GraphError::ParallelEdge(e(0, 1))
    );
    assert_eq!(
        Graph::from_edges(4, [e(0, 1), e(2, 4)]).unwrap_err(),
        GraphError::UnknownVertex(4)
    );
    // The first offender wins, whichever kind it is.
    assert_eq!(
        Graph::from_edges(4, [e(0, 1), e(0, 9), e(0, 1)]).unwrap_err(),
        GraphError::UnknownVertex(9)
    );
    // A loop never becomes an `Edge`, so it cannot reach a constructor.
    assert_eq!(Edge::try_new(3, 3), None);
    // Streams may re-emit an edge; an endpoint out of range still errors.
    let dup = vec![e(0, 1), e(1, 2), e(0, 1), e(2, 3), e(1, 2)];
    let g = Graph::from_stream(4, &mut IterStream::with_chunk_edges(dup, 2)).unwrap();
    assert!(g.edges().eq([e(0, 1), e(1, 2), e(2, 3)]));
    g.check_invariants().unwrap();
    let bad = vec![e(0, 1), e(1, 7)];
    assert_eq!(
        Graph::from_stream(4, &mut IterStream::new(bad)).unwrap_err(),
        GraphError::UnknownVertex(7)
    );
    let stray: EdgePool = [e(0, 1), e(1, 7)].into_iter().collect();
    assert_eq!(
        Graph::from_pool(4, stray).unwrap_err(),
        GraphError::UnknownVertex(7)
    );
}

#[test]
fn split_and_assemble_round_trips_at_every_p() {
    let g = preferential_attachment(500, 5, &mut Pcg64::seed_from_u64(33));
    for p in [1usize, 2, 4] {
        for part in [
            Partitioner::hash_division(p),
            Partitioner::consecutive(&g, p),
        ] {
            let stores = build_stores(&g, &part);
            assert!(stores.iter().all(|s| s.check_consistent()));
            let back = assemble_graph(g.num_vertices(), &stores);
            back.check_invariants().unwrap();
            assert!(back.same_edge_set(&g), "p={p}");
            assert_eq!(back.degree_sequence(), g.degree_sequence(), "p={p}");
            // Rank order, then each rank's pool order.
            assert!(back.edges().eq(stores.iter().flat_map(|s| s.iter())));
        }
    }
}

/// A read that builds adjacency if it is not built yet: `which` picks
/// `neighbors`, `degree`, `sorted_edges` or `check_invariants`.
fn forcing_read(g: &Graph, which: u64, v: VertexId) {
    let degree = g.degree_sequence()[v as usize];
    match which {
        0 => assert_eq!(g.neighbors(v).len(), degree),
        1 => assert_eq!(g.degree(v), degree),
        2 => assert_eq!(g.sorted_edges().len(), g.num_edges()),
        _ => g.check_invariants().unwrap(),
    }
}

/// Random `add_edge`/`remove_edge` sequences on a graph whose adjacency
/// starts unbuilt, with a read that forces the build at a random step,
/// against a `BTreeSet` model; at the end, against the eager reference —
/// the bulk builder run once over the graph's own pool order
/// (`assemble_edges` of a non-ascending list builds adjacency at once).
/// Edits after the build must be mirrored into adjacency, edits before
/// it must not be lost when it is built.
#[test]
fn lazy_adjacency_agrees_with_an_eager_build() {
    let n = 30u64;
    for seed in 0..24u64 {
        let mut rng = Pcg64::seed_from_u64(3000 + seed);
        let initial = erdos_renyi_gnm(n as usize, 60, &mut rng).sorted_edges();
        let mut model: BTreeSet<Edge> = initial.iter().copied().collect();
        // Half the cases start indexed (`from_edges`), half unindexed (an
        // ascending gather, the Curveball finish).
        let mut lazy = if seed % 2 == 0 {
            Graph::from_edges(n as usize, initial.iter().copied()).unwrap()
        } else {
            assemble_edges(n as usize, initial.iter().copied()).unwrap()
        };
        let steps = 600;
        let build_at = rng.gen_range(0..steps);
        for step in 0..steps {
            if step == build_at {
                let (which, v) = (rng.gen_range(0..4u64), rng.gen_range(0..n));
                forcing_read(&lazy, which, v);
            }
            let Some(e) = random_edge(&mut rng, n) else {
                continue;
            };
            if rng.gen_range(0..2) == 0 {
                assert_eq!(
                    lazy.add_edge(e).is_ok(),
                    model.insert(e),
                    "add {e} @ {step}"
                );
            } else {
                assert_eq!(
                    lazy.remove_edge(e).is_ok(),
                    model.remove(&e),
                    "remove {e} @ {step}"
                );
            }
            assert_eq!(lazy.has_edge(e), model.contains(&e), "has {e} @ {step}");
        }
        let mut degrees = vec![0usize; n as usize];
        for e in &model {
            degrees[e.src() as usize] += 1;
            degrees[e.dst() as usize] += 1;
        }
        assert_eq!(lazy.degree_sequence(), degrees, "seed {seed}");
        let eager = assemble_edges(n as usize, lazy.edges()).unwrap();
        // The same pool order with adjacency unbuilt digests the same.
        let unbuilt = Graph::from_edges(n as usize, lazy.edges()).unwrap();
        assert_eq!(unbuilt.edge_digest(), eager.edge_digest(), "seed {seed}");
        lazy.check_invariants()
            .unwrap_or_else(|why| panic!("seed {seed}: {why}"));
        assert_eq!(lazy.edge_digest(), eager.edge_digest(), "seed {seed}");
        assert_eq!(lazy.degree_sequence(), eager.degree_sequence());
        assert_eq!(lazy.sorted_edges(), eager.sorted_edges(), "seed {seed}");
        assert!(lazy.sorted_edges().iter().eq(model.iter()), "seed {seed}");
        for v in 0..n {
            assert_eq!(
                lazy.neighbors(v),
                eager.neighbors(v),
                "seed {seed}: row {v}"
            );
        }
    }
}
