//! Cross-crate integration: the full pipeline from generation through
//! sequential and distributed switching to similarity measurement.

mod common;

use common::{des, simulated, threaded};
use edge_switching::prelude::*;

fn clustered_graph(seed: u64) -> Graph {
    let mut rng = root_rng(seed);
    contact_network(
        ContactParams {
            n: 1200,
            community_size: 50,
            intra_degree: 15.0,
            inter_degree: 3.0,
        },
        &mut rng,
    )
}

#[test]
fn sequential_and_parallel_agree_statistically() {
    // The paper's similarity criterion: ER(seq, par) should be in the
    // same ballpark as ER(seq, seq) for a reasonable step size.
    let g = clustered_graph(1);
    let t = switch_ops_for_visit_rate(g.num_edges() as u64, 1.0);

    let seq1 = Run::sequential().switches(t).seed(100).execute(&g);
    let seq2 = Run::sequential().switches(t).seed(200).execute(&g);
    let (gs1, gs2) = (seq1.graph(), seq2.graph());
    let baseline = error_rate(gs1, gs2, 20);

    let cfg = ParallelConfig::new(16)
        .with_scheme(SchemeKind::HashUniversal)
        .with_step_size(StepSize::FractionOfT(100))
        .with_seed(300);
    let out = simulated(&g, t, &cfg);
    let par = error_rate(gs1, &out.graph, 20);

    assert!(
        par < 2.0 * baseline + 1.0,
        "ER(seq,par) = {par:.3}% vs ER(seq,seq) = {baseline:.3}%"
    );
}

#[test]
fn threaded_engine_full_pipeline() {
    let g = clustered_graph(2);
    let before_cc = {
        let mut rng = root_rng(5);
        average_clustering_sampled(&g, 600, &mut rng)
    };
    let t = switch_ops_for_visit_rate(g.num_edges() as u64, 1.0);
    let cfg = ParallelConfig::new(6)
        .with_scheme(SchemeKind::Consecutive)
        .with_step_size(StepSize::FractionOfT(50))
        .with_seed(7);
    let out = threaded(&g, t, &cfg);

    out.graph.check_invariants().unwrap();
    assert_eq!(out.graph.degree_sequence(), g.degree_sequence());
    assert!(out.visit_rate() > 0.95, "visit rate {}", out.visit_rate());

    // Randomization must destroy the community clustering.
    let mut rng = root_rng(6);
    let after_cc = average_clustering_sampled(&out.graph, 600, &mut rng);
    assert!(
        after_cc < before_cc / 3.0,
        "clustering {before_cc} -> {after_cc}: randomization failed"
    );
}

#[test]
fn all_schemes_produce_valid_switched_graphs() {
    let g = clustered_graph(3);
    let t = 2_000u64;
    for scheme in SchemeKind::all() {
        let cfg = ParallelConfig::new(5)
            .with_scheme(scheme)
            .with_step_size(StepSize::FractionOfT(10))
            .with_seed(11);
        let out = simulated(&g, t, &cfg);
        out.graph.check_invariants().unwrap();
        assert_eq!(out.graph.degree_sequence(), g.degree_sequence(), "{scheme}");
        assert_eq!(out.performed() + out.forfeited(), t, "{scheme}");
    }
}

#[test]
fn havel_hakimi_plus_switching_generates_random_graph() {
    let mut rng = root_rng(4);
    let seq = power_law_sequence(400, 2.5, 2, 50, &mut rng);
    let g0 = havel_hakimi(&seq).unwrap();
    let t = switch_ops_for_visit_rate(g0.num_edges() as u64, 1.0);

    let cfg = ParallelConfig::new(4).with_seed(21);
    let out = threaded(&g0, t, &cfg);
    assert_eq!(out.graph.degree_sequence(), seq);
    // Nearly every edge replaced.
    let shared = out.graph.edges().filter(|&e| g0.has_edge(e)).count();
    assert!(
        (shared as f64) < 0.3 * g0.num_edges() as f64,
        "randomization left {shared} of {} original edges",
        g0.num_edges()
    );
}

#[test]
fn visit_rate_conversion_round_trips_through_both_algorithms() {
    let mut rng = root_rng(8);
    let g = erdos_renyi_gnm(1500, 9000, &mut rng);
    for &x in &[0.25, 0.6, 0.95] {
        let t = switch_ops_for_visit_rate(g.num_edges() as u64, x);
        let seq = Run::sequential().switches(t).seed(x.to_bits()).execute(&g);
        assert!(
            (seq.visit_rate() - x).abs() < 0.04,
            "seq x={x}: {}",
            seq.visit_rate()
        );

        let cfg = ParallelConfig::new(8)
            .with_scheme(SchemeKind::HashDivision)
            .with_step_size(StepSize::FractionOfT(20))
            .with_seed(x.to_bits());
        let out = simulated(&g, t, &cfg);
        assert!(
            (out.visit_rate() - x).abs() < 0.04,
            "par x={x}: {}",
            out.visit_rate()
        );
    }
}

#[test]
fn des_and_logical_sim_agree_on_invariants() {
    let g = clustered_graph(9);
    let t = 3000;
    let cfg = ParallelConfig::new(12)
        .with_scheme(SchemeKind::HashMultiplication)
        .with_step_size(StepSize::FractionOfT(6))
        .with_seed(31);
    let sim = simulated(&g, t, &cfg);
    let (des_out, report) = des(&g, t, &cfg);
    for out in [&sim, &des_out] {
        out.graph.check_invariants().unwrap();
        assert_eq!(out.graph.degree_sequence(), g.degree_sequence());
        assert_eq!(out.performed() + out.forfeited(), t);
    }
    assert!(report.runtime_ns > 0.0);
}
