//! Failure-injection and edge-case integration tests: degenerate graphs,
//! starved partitions, dense graphs with heavy abort traffic, and the
//! quota-policy ablation.

mod common;

use common::{simulated, threaded};
use edge_switching::core::config::QuotaPolicy;
use edge_switching::core::variants::{sequential_edge_switch_connected, sequential_exact_visit};
use edge_switching::prelude::*;

#[test]
fn star_graph_forfeits_in_parallel_without_wedging() {
    // No legal switch exists on a star; every rank must forfeit its
    // quota (bounded retries), not hang.
    let g = {
        let mut g = Graph::new(40);
        for v in 1..40u64 {
            g.add_edge(Edge::new(0, v)).unwrap();
        }
        g
    };
    let cfg = ParallelConfig::new(4)
        .with_scheme(SchemeKind::HashDivision)
        .with_step_size(StepSize::SingleStep)
        .with_seed(1);
    let out = simulated(&g, 6, &cfg);
    assert_eq!(out.performed(), 0);
    assert_eq!(out.forfeited(), 6);
    assert!(
        out.graph.same_edge_set(&g),
        "degenerate graph must be untouched"
    );
}

#[test]
fn empty_and_single_edge_graphs() {
    for m in [0usize, 1] {
        let mut g = Graph::new(4);
        if m == 1 {
            g.add_edge(Edge::new(0, 1)).unwrap();
        }
        let cfg = ParallelConfig::new(2).with_seed(2);
        let out = simulated(&g, 10, &cfg);
        assert_eq!(out.performed(), 0);
        assert_eq!(out.graph.num_edges(), m);
    }
}

#[test]
fn near_complete_graph_mostly_aborts_but_terminates() {
    // K12 minus one edge: only one switch outcome is ever legal.
    let n = 12u64;
    let mut g = Graph::new(n as usize);
    for a in 0..n {
        for b in (a + 1)..n {
            if !(a == 0 && b == 1) {
                g.add_edge(Edge::new(a, b)).unwrap();
            }
        }
    }
    let cfg = ParallelConfig::new(3)
        .with_step_size(StepSize::FractionOfT(2))
        .with_seed(3);
    let out = simulated(&g, 30, &cfg);
    out.graph.check_invariants().unwrap();
    assert_eq!(out.performed() + out.forfeited(), 30);
    let aborts: u64 = out.per_rank.iter().map(|s| s.aborts()).sum();
    assert!(
        aborts > 20,
        "dense graph should reject heavily, got {aborts}"
    );
}

#[test]
fn uniform_quota_ablation_still_correct_but_less_similar() {
    // Correctness must hold under the ablated policy; similarity is
    // allowed to degrade (that is the point of the ablation).
    let mut rng = root_rng(4);
    let g = contact_network(
        ContactParams {
            n: 800,
            community_size: 40,
            intra_degree: 12.0,
            inter_degree: 2.0,
        },
        &mut rng,
    );
    let t = 3_000u64;
    let cfg = ParallelConfig::new(8)
        .with_quota_policy(QuotaPolicy::Uniform)
        .with_step_size(StepSize::FractionOfT(10))
        .with_seed(5);
    let out = simulated(&g, t, &cfg);
    out.graph.check_invariants().unwrap();
    assert_eq!(out.graph.degree_sequence(), g.degree_sequence());
    assert_eq!(out.performed() + out.forfeited(), t);
}

#[test]
fn exact_visit_on_sparse_graph_handles_leftovers() {
    // A path graph has few legal switches among "original" edges as the
    // pool drains; the variant must terminate with bounded shortfall.
    let mut rng = root_rng(6);
    let n = 200u64;
    let mut g = Graph::from_edges(n as usize, (0..n - 1).map(|i| Edge::new(i, i + 1))).unwrap();
    let out = sequential_exact_visit(&mut g, 1.0, &mut rng);
    g.check_invariants().unwrap();
    assert!(out.performed > 0);
    assert!(out.visit_rate() > 0.5, "visit rate {}", out.visit_rate());
}

#[test]
fn connectivity_constraint_on_a_tree_rejects_everything() {
    // Every edge of a tree is a bridge; a straight/cross switch removes
    // two bridges and can only reconnect endpoints in limited ways —
    // most operations must be rejected, and connectivity must survive
    // regardless.
    let mut rng = root_rng(7);
    let n = 64u64;
    let mut g = Graph::from_edges(n as usize, (1..n).map(|v| Edge::new((v - 1) / 2, v))).unwrap();
    let out = sequential_edge_switch_connected(&mut g, 10, &mut rng);
    assert!(is_connected(&g));
    assert!(out.connectivity_rejects > 0 || out.performed == 10);
}

#[test]
fn threaded_engine_survives_many_tiny_steps() {
    // Step-boundary storm: hundreds of steps with single-digit quotas.
    let mut rng = root_rng(8);
    let g = erdos_renyi_gnm(200, 800, &mut rng);
    let cfg = ParallelConfig::new(4)
        .with_step_size(StepSize::Ops(3))
        .with_seed(9);
    let out = threaded(&g, 300, &cfg);
    assert_eq!(out.steps, 100);
    assert_eq!(out.performed() + out.forfeited(), 300);
    out.graph.check_invariants().unwrap();
}

#[test]
fn partition_starvation_recovers_across_steps() {
    // HP-D on labels 0..n with p=7: some partitions start tiny. Quotas
    // follow |E_i|, so starved partitions get little work and the run
    // completes.
    let mut rng = root_rng(10);
    // Skewed labels: clique on multiples of 7 plus sparse rest.
    let mut g = erdos_renyi_gnm(140, 300, &mut rng);
    for a in (0..140u64).step_by(7) {
        for b in ((a + 7)..140).step_by(7) {
            let _ = g.add_edge(Edge::new(a, b));
        }
    }
    let cfg = ParallelConfig::new(7)
        .with_scheme(SchemeKind::HashDivision)
        .with_step_size(StepSize::FractionOfT(10))
        .with_seed(11);
    let t = 1_000u64;
    let out = simulated(&g, t, &cfg);
    assert_eq!(out.performed() + out.forfeited(), t);
    assert_eq!(out.graph.degree_sequence(), g.degree_sequence());
}
