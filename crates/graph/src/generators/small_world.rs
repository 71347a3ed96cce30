//! Watts–Strogatz small-world graphs.

use crate::graph::Graph;
use crate::types::Edge;
use edgeswitch_dist::Rng;

/// Watts–Strogatz model: a ring lattice where each vertex connects to its
/// `k/2` nearest neighbors on each side, with every edge independently
/// rewired with probability `beta` (keeping the graph simple — rewires
/// that would create a loop or parallel edge are retried a bounded number
/// of times and otherwise left in place).
///
/// # Panics
/// Panics unless `k` is even, `k < n`, and `0 ≤ beta ≤ 1`.
pub fn small_world<R: Rng + ?Sized>(n: usize, k: usize, beta: f64, rng: &mut R) -> Graph {
    assert!(
        k.is_multiple_of(2),
        "k must be even (k/2 neighbors per side)"
    );
    assert!(k < n, "ring lattice needs k < n");
    assert!((0.0..=1.0).contains(&beta), "beta out of range");
    let n64 = n as u64;
    let mut g = Graph::with_edge_capacity(n, n * k / 2);
    for v in 0..n64 {
        for j in 1..=(k as u64 / 2) {
            let w = (v + j) % n64;
            // Each lattice edge added once (by its "left" endpoint).
            g.add_edge(Edge::new(v, w))
                .expect("lattice edge duplicated");
        }
    }
    if beta == 0.0 {
        return g;
    }
    // Rewire pass: iterate the original lattice edges deterministically.
    for v in 0..n64 {
        for j in 1..=(k as u64 / 2) {
            let w = (v + j) % n64;
            let old = Edge::new(v, w);
            if !g.has_edge(old) {
                continue; // already rewired away by an earlier step
            }
            if rng.gen_bool(beta) {
                // Replace (v, w) with (v, w') for a uniform random w'.
                for _attempt in 0..32 {
                    let cand = rng.gen_range(0..n64);
                    let Some(new) = Edge::try_new(v, cand) else {
                        continue;
                    };
                    if !g.has_edge(new) {
                        g.remove_edge(old).unwrap();
                        g.add_edge(new).unwrap();
                        break;
                    }
                }
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::average_clustering_exact;
    use edgeswitch_dist::Pcg64;

    #[test]
    fn lattice_without_rewiring() {
        let mut rng = Pcg64::seed_from_u64(1);
        let g = small_world(20, 4, 0.0, &mut rng);
        assert_eq!(g.num_edges(), 20 * 2);
        for v in 0..20u64 {
            assert_eq!(g.degree(v), 4);
        }
        g.check_invariants().unwrap();
    }

    #[test]
    fn rewiring_preserves_edge_count_and_simplicity() {
        let mut rng = Pcg64::seed_from_u64(2);
        let g = small_world(500, 10, 0.1, &mut rng);
        assert_eq!(g.num_edges(), 500 * 5);
        g.check_invariants().unwrap();
    }

    #[test]
    fn low_beta_keeps_high_clustering() {
        let mut rng = Pcg64::seed_from_u64(3);
        let ordered = small_world(400, 10, 0.0, &mut rng);
        let rewired = small_world(400, 10, 1.0, &mut rng);
        let c_ordered = average_clustering_exact(&ordered);
        let c_random = average_clustering_exact(&rewired);
        assert!(
            c_ordered > 0.5,
            "ring lattice clustering should be ~2/3, got {c_ordered}"
        );
        assert!(
            c_random < c_ordered / 2.0,
            "full rewiring should destroy clustering: {c_random} vs {c_ordered}"
        );
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_k_rejected() {
        small_world(10, 3, 0.1, &mut Pcg64::seed_from_u64(4));
    }
}
