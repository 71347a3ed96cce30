//! Property-based tests (proptest) over the core invariants:
//! simplicity, degree preservation, partition coverage, sampler laws.

use edge_switching::core::switch::{recombine, Recombination, SwitchKind};
use edge_switching::graph::store::{assemble_graph, build_stores};
use edge_switching::graph::OrientedEdge;
use edge_switching::prelude::*;
use proptest::prelude::*;

/// A random simple graph from a seed: ER with bounded size.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (10usize..120, 1usize..4, any::<u64>()).prop_map(|(n, density, seed)| {
        let mut rng = root_rng(seed);
        let max_m = n * (n - 1) / 2;
        let m = (n * density).min(max_m / 2).max(1);
        erdos_renyi_gnm(n, m, &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn switching_preserves_simplicity_and_degrees(g in arb_graph(), t in 0u64..500, seed: u64) {
        let run = Run::sequential()
            .switches(t)
            .seed(seed)
            .execute(&g)
            .into_sequential()
            .expect("sequential run");
        prop_assert!(run.graph.check_invariants().is_ok());
        prop_assert_eq!(run.graph.degree_sequence(), g.degree_sequence());
        prop_assert_eq!(run.graph.num_edges(), g.num_edges());
        prop_assert!(run.outcome.performed + run.outcome.abandoned == t);
    }

    #[test]
    fn parallel_switching_preserves_invariants(
        g in arb_graph(),
        t in 0u64..300,
        p in 1usize..9,
        scheme_idx in 0usize..4,
        seed: u64,
    ) {
        let scheme = SchemeKind::all()[scheme_idx];
        let out = Run::simulated(p)
            .switches(t)
            .scheme(scheme)
            .step_size(StepSize::FractionOfT(5))
            .seed(seed)
            .execute(&g)
            .into_parallel()
            .expect("parallel outcome");
        prop_assert!(out.graph.check_invariants().is_ok());
        prop_assert_eq!(out.graph.degree_sequence(), g.degree_sequence());
        prop_assert_eq!(out.performed() + out.forfeited(), t);
        prop_assert_eq!(
            out.final_edges.iter().sum::<u64>() as usize,
            g.num_edges()
        );
    }

    #[test]
    fn partitions_cover_disjointly(g in arb_graph(), p in 1usize..17, scheme_idx in 0usize..4, seed: u64) {
        let mut rng = root_rng(seed);
        let scheme = SchemeKind::all()[scheme_idx];
        let part = Partitioner::build(scheme, &g, p, &mut rng);
        let stores = build_stores(&g, &part);
        // Disjoint cover: total edges match, reassembly is the identity.
        let total: usize = stores.iter().map(|s| s.num_edges()).sum();
        prop_assert_eq!(total, g.num_edges());
        let back = assemble_graph(g.num_vertices(), &stores);
        prop_assert!(back.same_edge_set(&g));
        // Ownership: every vertex maps into range.
        for v in 0..g.num_vertices() as u64 {
            prop_assert!(part.owner(v) < p);
        }
    }

    #[test]
    fn recombination_preserves_endpoint_multiset(
        a in 0u64..50, b in 0u64..50, c in 0u64..50, d in 0u64..50, cross: bool
    ) {
        prop_assume!(a != b && c != d);
        let e1 = OrientedEdge { tail: a.min(b), head: a.max(b) };
        let e2 = OrientedEdge { tail: c.min(d), head: c.max(d) };
        let kind = if cross { SwitchKind::Cross } else { SwitchKind::Straight };
        if let Recombination::Candidate { f1, f2 } = recombine(e1, e2, kind) {
            let mut before = [e1.tail, e1.head, e2.tail, e2.head];
            let mut after = [f1.src(), f1.dst(), f2.src(), f2.dst()];
            before.sort_unstable();
            after.sort_unstable();
            prop_assert_eq!(before, after);
            // Replacements never equal the originals.
            prop_assert!(f1 != e1.edge() && f1 != e2.edge());
            prop_assert!(f2 != e1.edge() && f2 != e2.edge());
            prop_assert!(f1 != f2);
        }
    }

    #[test]
    fn binomial_within_support(n in 0u64..100_000, q in 0.0f64..=1.0, seed: u64) {
        let mut rng = root_rng(seed);
        let x = binomial(n, q, &mut rng);
        prop_assert!(x <= n);
        if q == 0.0 { prop_assert_eq!(x, 0); }
        if q == 1.0 { prop_assert_eq!(x, n); }
    }

    #[test]
    fn multinomial_sums_to_n(n in 0u64..50_000, l in 1usize..12, seed: u64) {
        let mut rng = root_rng(seed);
        let q = vec![1.0 / l as f64; l];
        let x = multinomial(n, &q, &mut rng);
        prop_assert_eq!(x.iter().sum::<u64>(), n);
        prop_assert_eq!(x.len(), l);
    }

    #[test]
    fn visit_ops_monotone_in_x(m in 100u64..1_000_000, i in 1u32..10) {
        let x1 = i as f64 / 10.0;
        let x2 = (i + 1) as f64 / 10.0;
        prop_assert!(
            switch_ops_for_visit_rate(m, x1) <= switch_ops_for_visit_rate(m, x2)
        );
    }

    #[test]
    fn havel_hakimi_realizes_iff_erdos_gallai(mut degs in proptest::collection::vec(0usize..8, 2..40)) {
        // Make the sum even to hit the interesting branch more often.
        if degs.iter().sum::<usize>() % 2 == 1 {
            degs[0] += 1;
        }
        let graphical = erdos_gallai(&degs);
        match havel_hakimi(&degs) {
            Ok(g) => {
                prop_assert!(graphical, "HH realized a non-graphical sequence");
                prop_assert_eq!(g.degree_sequence(), degs);
                prop_assert!(g.check_invariants().is_ok());
            }
            Err(_) => prop_assert!(!graphical, "HH failed on a graphical sequence"),
        }
    }

    #[test]
    fn error_rate_bounded_and_reflexive(g in arb_graph(), seed: u64, r in 1usize..8) {
        prop_assume!(r <= g.num_vertices());
        prop_assert_eq!(error_rate(&g, &g, r), 0.0);
        let switched = Run::sequential().switches(50).seed(seed).execute(&g);
        let er = error_rate(&g, switched.graph(), r);
        prop_assert!((0.0..=100.0).contains(&er), "ER = {er}");
    }
}
