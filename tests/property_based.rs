//! Property tests over the core invariants — simplicity, degree
//! preservation, partition coverage, sampler laws — each on
//! [`common::PROPERTY_CASES`] seeded cases (see
//! [`common::check_property`]).

mod common;

use common::check_property;
use edge_switching::core::switch::{recombine, Recombination, SwitchKind};
use edge_switching::dist::Rng64;
use edge_switching::graph::store::{assemble_graph, build_stores};
use edge_switching::graph::OrientedEdge;
use edge_switching::prelude::*;

/// A random simple graph: `G(n, m)` with `10 <= n < 120` and about `n`
/// to `3n` edges.
fn arb_graph(rng: &mut Rng64) -> Graph {
    let n = rng.gen_range(10usize..120);
    let density = rng.gen_range(1usize..4);
    let max_m = n * (n - 1) / 2;
    let m = (n * density).min(max_m / 2).max(1);
    erdos_renyi_gnm(n, m, &mut root_rng(rng.next_u64()))
}

fn arb_scheme(rng: &mut Rng64) -> SchemeKind {
    SchemeKind::all()[rng.gen_range(0usize..4)]
}

#[test]
fn switching_preserves_simplicity_and_degrees() {
    check_property("switching_preserves_simplicity_and_degrees", &[], |rng| {
        let g = arb_graph(rng);
        let t = rng.gen_range(0u64..500);
        let run = Run::sequential()
            .switches(t)
            .seed(rng.next_u64())
            .execute(&g)
            .into_sequential()
            .expect("sequential run");
        assert!(run.graph.check_invariants().is_ok());
        assert_eq!(run.graph.degree_sequence(), g.degree_sequence());
        assert_eq!(run.graph.num_edges(), g.num_edges());
        assert_eq!(run.outcome.performed + run.outcome.abandoned, t);
    });
}

#[test]
fn parallel_switching_preserves_invariants() {
    check_property("parallel_switching_preserves_invariants", &[], |rng| {
        let g = arb_graph(rng);
        let t = rng.gen_range(0u64..300);
        let out = Run::simulated(rng.gen_range(1usize..9))
            .switches(t)
            .scheme(arb_scheme(rng))
            .step_size(StepSize::FractionOfT(5))
            .seed(rng.next_u64())
            .execute(&g)
            .into_parallel()
            .expect("parallel outcome");
        assert!(out.graph.check_invariants().is_ok());
        assert_eq!(out.graph.degree_sequence(), g.degree_sequence());
        assert_eq!(out.performed() + out.forfeited(), t);
        assert_eq!(out.final_edges.iter().sum::<u64>() as usize, g.num_edges());
    });
}

#[test]
fn partitions_cover_disjointly() {
    check_property("partitions_cover_disjointly", &[], |rng| {
        let g = arb_graph(rng);
        let p = rng.gen_range(1usize..17);
        let scheme = arb_scheme(rng);
        let part = Partitioner::build(scheme, &g, p, &mut root_rng(rng.next_u64()));
        let stores = build_stores(&g, &part);
        // Disjoint cover: total edges match, reassembly is the identity.
        let total: usize = stores.iter().map(|s| s.num_edges()).sum();
        assert_eq!(total, g.num_edges());
        let back = assemble_graph(g.num_vertices(), &stores);
        assert!(back.same_edge_set(&g));
        // Ownership: every vertex maps into range.
        for v in 0..g.num_vertices() as u64 {
            assert!(part.owner(v) < p);
        }
    });
}

#[test]
fn recombination_preserves_endpoint_multiset() {
    check_property("recombination_preserves_endpoint_multiset", &[], |rng| {
        let [a, b, c, d] = [(); 4].map(|()| rng.gen_range(0u64..50));
        if a == b || c == d {
            return;
        }
        let e1 = OrientedEdge {
            tail: a.min(b),
            head: a.max(b),
        };
        let e2 = OrientedEdge {
            tail: c.min(d),
            head: c.max(d),
        };
        let kind = if rng.gen_bool(0.5) {
            SwitchKind::Cross
        } else {
            SwitchKind::Straight
        };
        if let Recombination::Candidate { f1, f2 } = recombine(e1, e2, kind) {
            let mut before = [e1.tail, e1.head, e2.tail, e2.head];
            let mut after = [f1.src(), f1.dst(), f2.src(), f2.dst()];
            before.sort_unstable();
            after.sort_unstable();
            assert_eq!(before, after);
            // Replacements never equal the originals.
            assert!(f1 != e1.edge() && f1 != e2.edge());
            assert!(f2 != e1.edge() && f2 != e2.edge());
            assert!(f1 != f2);
        }
    });
}

#[test]
fn binomial_within_support() {
    check_property("binomial_within_support", &[], |rng| {
        let n = rng.gen_range(0u64..100_000);
        // The closed unit interval, end points included on purpose.
        let q = match rng.gen_range(0u32..8) {
            0 => 0.0,
            1 => 1.0,
            _ => rng.gen_f64(),
        };
        let x = binomial(n, q, &mut root_rng(rng.next_u64()));
        assert!(x <= n);
        if q == 0.0 {
            assert_eq!(x, 0);
        }
        if q == 1.0 {
            assert_eq!(x, n);
        }
    });
}

#[test]
fn multinomial_sums_to_n() {
    check_property("multinomial_sums_to_n", &[], |rng| {
        let n = rng.gen_range(0u64..50_000);
        let l = rng.gen_range(1usize..12);
        let q = vec![1.0 / l as f64; l];
        let x = multinomial(n, &q, &mut root_rng(rng.next_u64()));
        assert_eq!(x.iter().sum::<u64>(), n);
        assert_eq!(x.len(), l);
    });
}

#[test]
fn visit_ops_monotone_in_x() {
    check_property("visit_ops_monotone_in_x", &[], |rng| {
        let m = rng.gen_range(100u64..1_000_000);
        let i = rng.gen_range(1u32..10);
        let x1 = i as f64 / 10.0;
        let x2 = (i + 1) as f64 / 10.0;
        assert!(switch_ops_for_visit_rate(m, x1) <= switch_ops_for_visit_rate(m, x2));
    });
}

#[test]
fn havel_hakimi_realizes_iff_erdos_gallai() {
    check_property("havel_hakimi_realizes_iff_erdos_gallai", &[], |rng| {
        let len = rng.gen_range(2usize..40);
        let mut degs: Vec<usize> = (0..len).map(|_| rng.gen_range(0usize..8)).collect();
        // Make the sum even to hit the interesting branch more often.
        if degs.iter().sum::<usize>() % 2 == 1 {
            degs[0] += 1;
        }
        let graphical = erdos_gallai(&degs);
        match havel_hakimi(&degs) {
            Ok(g) => {
                assert!(graphical, "HH realized a non-graphical sequence");
                assert_eq!(g.degree_sequence(), degs);
                assert!(g.check_invariants().is_ok());
            }
            Err(_) => assert!(!graphical, "HH failed on a graphical sequence"),
        }
    });
}

#[test]
fn error_rate_bounded_and_reflexive() {
    check_property("error_rate_bounded_and_reflexive", &[], |rng| {
        let g = arb_graph(rng);
        let seed = rng.next_u64();
        let r = rng.gen_range(1usize..8);
        if r > g.num_vertices() {
            return;
        }
        assert_eq!(error_rate(&g, &g, r), 0.0);
        let switched = Run::sequential().switches(50).seed(seed).execute(&g);
        let er = error_rate(&g, switched.graph(), r);
        assert!((0.0..=100.0).contains(&er), "ER = {er}");
    });
}

/// The harness itself: a failure names the case that re-runs it.
#[test]
#[should_panic(expected = "property `always_fails` fails on case seed 0x2a: boom 42")]
fn a_failing_case_reports_its_seed() {
    check_property("always_fails", &[42], |rng| {
        // A regression seed runs first and draws from its own stream.
        assert_eq!(rng.next_u64(), root_rng(42).next_u64());
        panic!("boom {}", 42);
    });
}
