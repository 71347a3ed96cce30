//! Streamed-pipeline equivalence and determinism (PR 10 satellite
//! suite): `build_stores_streamed` must be logically identical to the
//! materialized `build_stores` on every existing graph family, the
//! prescribed-degree constructor must be exact and bit-reproducible
//! across processor counts, and `Graph::from_stream` must agree with
//! `Graph::from_edges`.

use edgeswitch_dist::Pcg64;
use edgeswitch_graph::generators::{
    contact_network, erdos_renyi_gnm, pa_stream_graph, preferential_attachment, random_regular,
    small_world, stochastic_block_model, ContactParams, DegreeSequence, PaStream, StreamSpec,
};
use edgeswitch_graph::store::{build_rank_store_streamed, build_stores, build_stores_streamed};
use edgeswitch_graph::stream::{EdgeStream, IterStream, OwnedOnly};
use edgeswitch_graph::{Edge, Graph, Partitioner, SchemeKind};

fn families() -> Vec<(&'static str, Graph)> {
    let mut rng = Pcg64::seed_from_u64(20140901);
    vec![
        ("erdos_renyi", erdos_renyi_gnm(400, 1600, &mut rng)),
        ("preferential", preferential_attachment(300, 4, &mut rng)),
        ("small_world", small_world(400, 6, 0.1, &mut rng)),
        (
            "random_regular",
            random_regular(200, 6, &mut rng).expect("regular graph"),
        ),
        (
            "sbm",
            stochastic_block_model(
                &[100, 80, 60],
                &[
                    vec![0.2, 0.01, 0.01],
                    vec![0.01, 0.2, 0.01],
                    vec![0.01, 0.01, 0.2],
                ],
                &mut rng,
            ),
        ),
        (
            "contact",
            contact_network(ContactParams::miami_like(300), &mut rng),
        ),
        ("pa_stream", pa_stream_graph(300, 4, 7)),
        (
            "degree_seq",
            DegreeSequence::power_law(300, 2.5, 2, 30, 7)
                .unwrap()
                .build(7),
        ),
    ]
}

/// The headline equivalence: streaming a graph's pool order through
/// `build_stores_streamed` yields stores identical to `build_stores` —
/// same ranks, same edges, same pool order — for every family and
/// every partitioning scheme.
#[test]
fn streamed_stores_match_materialized_stores_everywhere() {
    for (name, g) in families() {
        let mut rng = Pcg64::seed_from_u64(5);
        for kind in SchemeKind::all() {
            for p in [1usize, 3, 4] {
                let part = Partitioner::build(kind, &g, p, &mut rng);
                let reference = build_stores(&g, &part);
                let mut stream = IterStream::with_chunk_edges(g.edges(), 101);
                let streamed = build_stores_streamed(&mut stream, &part);
                assert_eq!(streamed.len(), reference.len());
                for (s, r) in streamed.iter().zip(&reference) {
                    assert_eq!(s.rank(), r.rank());
                    let a: Vec<Edge> = s.edges().collect();
                    let b: Vec<Edge> = r.edges().collect();
                    assert_eq!(a, b, "{name} {kind:?} p={p} rank={}", s.rank());
                    assert!(s.check_consistent());
                }
            }
        }
    }
}

/// Per-rank regeneration (`build_rank_store_streamed` over a fresh
/// stream) equals the corresponding slice of the one-pass split.
#[test]
fn rank_local_streams_match_one_pass_split() {
    let spec = StreamSpec::Pa {
        n: 500,
        d: 4,
        seed: 13,
    };
    let part = Partitioner::hash_division(4);
    let mut one_pass = spec.stream().unwrap();
    let split = build_stores_streamed(&mut *one_pass, &part);
    for (rank, joint) in split.iter().enumerate() {
        let mut s = spec.stream().unwrap();
        let local = build_rank_store_streamed(&mut *s, &part, rank);
        let a: Vec<Edge> = local.edges().collect();
        let b: Vec<Edge> = joint.edges().collect();
        assert_eq!(a, b, "rank {rank}");
    }
}

/// Degree-sequence constructor: exact degrees, simple graph, and the
/// emitted edge sequence is bit-identical across p ∈ {1, 2, 4} (each
/// rank's owned subsequence is exactly the p=1 sequence filtered).
#[test]
fn degree_sequence_constructor_is_exact_and_p_invariant() {
    let ds = DegreeSequence::power_law(800, 2.4, 2, 60, 99).unwrap();
    let g = ds.build(99);
    assert_eq!(g.degree_sequence(), ds.degrees(), "exact sequence");
    g.check_invariants().unwrap();

    fn collect(mut s: impl EdgeStream) -> Vec<Edge> {
        let (mut all, mut chunk) = (Vec::new(), Vec::new());
        while s.next_chunk(&mut chunk) {
            all.extend_from_slice(&chunk);
        }
        all
    }
    let full = collect(ds.stream(99));
    assert_eq!(full.len(), ds.num_edges());
    for p in [1usize, 2, 4] {
        let part = Partitioner::hash_multiplication(p);
        let mut seen = 0usize;
        for rank in 0..p {
            let got = collect(OwnedOnly::new(ds.stream(99), &part, rank));
            let expect: Vec<Edge> = full
                .iter()
                .copied()
                .filter(|e| part.owner(e.src()) == rank)
                .collect();
            assert_eq!(got, expect, "p={p} rank={rank} diverged");
            seen += got.len();
        }
        assert_eq!(seen, full.len(), "p={p}: ranks must partition the stream");
    }
}

/// `Graph::from_stream` equals `Graph::from_edges` on duplicate-free
/// input, and deduplicates (rather than erroring) on re-emission.
#[test]
fn from_stream_matches_from_edges_and_dedups() {
    let (_, g) = &families()[0];
    let a = Graph::from_edges(g.num_vertices(), g.edges()).unwrap();
    let mut s = IterStream::with_chunk_edges(g.edges(), 33);
    let b = Graph::from_stream(g.num_vertices(), &mut s).unwrap();
    assert!(a.same_edge_set(&b));
    assert_eq!(a.edge_digest(), b.edge_digest());

    let dup: Vec<Edge> = vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 1)];
    let mut s = IterStream::new(dup);
    let g = Graph::from_stream(3, &mut s).unwrap();
    assert_eq!(g.num_edges(), 2);
}

/// The PA stream materialized via `from_stream` equals the same spec's
/// stores reassembled — generation and partitioned generation agree.
#[test]
fn pa_spec_build_matches_assembled_stores() {
    let spec = StreamSpec::Pa {
        n: 600,
        d: 3,
        seed: 4,
    };
    let g = spec.build().unwrap();
    let part = Partitioner::hash_division(3);
    let mut s = spec.stream().unwrap();
    let stores = build_stores_streamed(&mut *s, &part);
    let h = edgeswitch_graph::store::assemble_graph(g.num_vertices(), &stores);
    assert!(g.same_edge_set(&h));
    // Raw emission bound holds after dedup.
    assert!(g.num_edges() as u64 <= PaStream::raw_edges(600, 3));
}

/// `from_edges` honors iterators that only report an upper bound
/// (the satellite fix: capacity from the checked upper bound).
#[test]
fn from_edges_accepts_upper_bound_only_hints() {
    struct UpperOnly<I: Iterator<Item = Edge>> {
        inner: I,
        upper: usize,
    }
    impl<I: Iterator<Item = Edge>> Iterator for UpperOnly<I> {
        type Item = Edge;
        fn next(&mut self) -> Option<Edge> {
            self.inner.next()
        }
        fn size_hint(&self) -> (usize, Option<usize>) {
            (0, Some(self.upper))
        }
    }
    let edges: Vec<Edge> = (0..50u64).map(|i| Edge::new(i, i + 1)).collect();
    let it = UpperOnly {
        inner: edges.iter().copied(),
        upper: edges.len(),
    };
    let g = Graph::from_edges(51, it).unwrap();
    assert_eq!(g.num_edges(), 50);
    g.check_invariants().unwrap();
}
