//! Deterministic graph families and additional random models: building
//! blocks for tests, baselines, and workloads beyond Table 2.

use crate::graph::Graph;
use crate::types::{Edge, GraphError, VertexId};
use edgeswitch_dist::Rng;

/// Complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut g = Graph::with_edge_capacity(n, n * n.saturating_sub(1) / 2);
    for a in 0..n as u64 {
        for b in (a + 1)..n as u64 {
            g.add_edge(Edge::new(a, b)).expect("fresh pair");
        }
    }
    g
}

/// Path graph `P_n` (`n-1` edges).
pub fn path(n: usize) -> Graph {
    let mut g = Graph::with_edge_capacity(n, n.saturating_sub(1));
    for v in 1..n as u64 {
        g.add_edge(Edge::new(v - 1, v)).expect("fresh pair");
    }
    g
}

/// Cycle `C_n`.
///
/// # Panics
/// Panics for `n < 3` (smaller cycles need loops or parallel edges).
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs n >= 3");
    let mut g = path(n);
    g.add_edge(Edge::new(0, n as u64 - 1)).expect("fresh pair");
    g
}

/// Star `K_{1,n-1}` with the hub at label 0.
pub fn star(n: usize) -> Graph {
    let mut g = Graph::with_edge_capacity(n, n.saturating_sub(1));
    for v in 1..n as u64 {
        g.add_edge(Edge::new(0, v)).expect("fresh pair");
    }
    g
}

/// `rows × cols` grid graph.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let m = rows * cols.saturating_sub(1) + cols * rows.saturating_sub(1);
    let mut g = Graph::with_edge_capacity(rows * cols, m);
    let at = |r: usize, c: usize| (r * cols + c) as VertexId;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                g.add_edge(Edge::new(at(r, c), at(r, c + 1))).unwrap();
            }
            if r + 1 < rows {
                g.add_edge(Edge::new(at(r, c), at(r + 1, c))).unwrap();
            }
        }
    }
    g
}

/// Random `d`-regular graph via the configuration (pairing) model with
/// retry-on-collision: stubs are shuffled and paired; a pairing with a
/// loop or duplicate is rediscovered from scratch (fast for `d ≪ n`).
///
/// # Errors
/// `n·d` must be even and `d < n`; gives up after a bounded number of
/// full restarts (astronomically unlikely for sparse inputs).
pub fn random_regular<R: Rng + ?Sized>(
    n: usize,
    d: usize,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if !(n * d).is_multiple_of(2) {
        return Err(GraphError::UnrealizableDegreeSequence(
            "n*d must be even".into(),
        ));
    }
    if d >= n {
        return Err(GraphError::UnrealizableDegreeSequence(format!(
            "d = {d} >= n = {n}"
        )));
    }
    if d == 0 {
        return Ok(Graph::new(n));
    }
    // Pairing model with local partner retries: a naive
    // pair-consecutive-stubs loop succeeds with probability
    // ≈ exp(−(d²−1)/4) per attempt, hopeless beyond small d. Instead,
    // each stub searches a bounded number of random partners that avoid
    // loops and duplicates; only a genuinely stuck tail forces a restart.
    let template: Vec<VertexId> = (0..n as u64)
        .flat_map(|v| std::iter::repeat_n(v, d))
        .collect();
    'restart: for _attempt in 0..64 {
        let mut stubs = template.clone();
        for i in (1..stubs.len()).rev() {
            stubs.swap(i, rng.gen_range(0..=i));
        }
        let mut g = Graph::with_edge_capacity(n, n * d / 2);
        while let Some(a) = stubs.pop() {
            let mut paired = false;
            for _try in 0..64 {
                if stubs.is_empty() {
                    break;
                }
                let idx = rng.gen_range(0..stubs.len());
                let b = stubs[idx];
                if let Some(e) = Edge::try_new(a, b) {
                    if !g.has_edge(e) {
                        g.add_edge(e).expect("checked absent");
                        stubs.swap_remove(idx);
                        paired = true;
                        break;
                    }
                }
            }
            if !paired {
                continue 'restart;
            }
        }
        return Ok(g);
    }
    Err(GraphError::UnrealizableDegreeSequence(format!(
        "pairing model failed to produce a simple {d}-regular graph on {n} vertices"
    )))
}

/// Stochastic block model: `sizes[i]` vertices per block (consecutive
/// labels), independent edge probability `probs[i][j]` between blocks
/// `i` and `j` (symmetric; only the upper triangle is read).
pub fn stochastic_block_model<R: Rng + ?Sized>(
    sizes: &[usize],
    probs: &[Vec<f64>],
    rng: &mut R,
) -> Graph {
    let k = sizes.len();
    assert_eq!(probs.len(), k, "probability matrix must be k x k");
    let n: usize = sizes.iter().sum();
    let mut starts = Vec::with_capacity(k + 1);
    let mut acc = 0u64;
    for &s in sizes {
        starts.push(acc);
        acc += s as u64;
    }
    starts.push(acc);
    let mut g = Graph::new(n);
    for i in 0..k {
        assert_eq!(probs[i].len(), k, "probability matrix must be k x k");
        for j in i..k {
            let p = probs[i][j];
            assert!((0.0..=1.0).contains(&p), "probability out of range");
            if p == 0.0 {
                continue;
            }
            // Bernoulli per pair; block pairs are small by construction.
            let (as_, ae) = (starts[i], starts[i + 1]);
            let (bs, be) = (starts[j], starts[j + 1]);
            for a in as_..ae {
                let from = if i == j { a + 1 } else { bs };
                for b in from.max(bs)..be {
                    if rng.gen_bool(p) {
                        let _ = g.add_edge(Edge::new(a, b));
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
    use edgeswitch_dist::Pcg64;

    #[test]
    fn complete_graph_counts() {
        let g = complete(6);
        assert_eq!(g.num_edges(), 15);
        assert!(g.degree_sequence().iter().all(|&d| d == 5));
    }

    #[test]
    fn path_cycle_star_grid_shapes() {
        assert_eq!(path(5).num_edges(), 4);
        assert_eq!(cycle(5).num_edges(), 5);
        assert_eq!(star(5).degree(0), 4);
        let g = grid(3, 4);
        assert_eq!(g.num_vertices(), 12);
        assert_eq!(g.num_edges(), 3 * 3 + 2 * 4);
        g.check_invariants().unwrap();
    }

    #[test]
    fn random_regular_is_regular_and_simple() {
        let mut rng = Pcg64::seed_from_u64(1);
        let g = random_regular(200, 6, &mut rng).unwrap();
        assert!(g.degree_sequence().iter().all(|&d| d == 6));
        g.check_invariants().unwrap();
    }

    #[test]
    fn random_regular_rejects_bad_parameters() {
        let mut rng = Pcg64::seed_from_u64(2);
        assert!(random_regular(5, 3, &mut rng).is_err()); // odd n*d
        assert!(random_regular(4, 4, &mut rng).is_err()); // d >= n
        assert_eq!(random_regular(5, 0, &mut rng).unwrap().num_edges(), 0);
    }

    #[test]
    fn random_regular_varies_with_seed() {
        let a = random_regular(100, 4, &mut Pcg64::seed_from_u64(3)).unwrap();
        let b = random_regular(100, 4, &mut Pcg64::seed_from_u64(4)).unwrap();
        assert!(!a.same_edge_set(&b));
    }

    #[test]
    fn sbm_respects_block_structure() {
        let mut rng = Pcg64::seed_from_u64(5);
        let sizes = [50usize, 50];
        let probs = vec![vec![0.3, 0.0], vec![0.0, 0.3]];
        let g = stochastic_block_model(&sizes, &probs, &mut rng);
        // No cross-block edges.
        for e in g.edges() {
            assert_eq!(e.src() < 50, e.dst() < 50, "cross-block edge {e}");
        }
        // Intra-block density near 0.3.
        let expect = 2.0 * 0.3 * (50.0 * 49.0 / 2.0);
        assert!((g.num_edges() as f64 - expect).abs() < 4.0 * expect.sqrt() + 20.0);
    }

    #[test]
    fn sbm_cross_blocks_only() {
        let mut rng = Pcg64::seed_from_u64(6);
        let g = stochastic_block_model(&[30, 30], &[vec![0.0, 0.5], vec![0.5, 0.0]], &mut rng);
        for e in g.edges() {
            assert_ne!(e.src() < 30, e.dst() < 30, "intra-block edge {e}");
        }
    }

    #[test]
    #[should_panic(expected = "k x k")]
    fn sbm_rejects_ragged_matrix() {
        let mut rng = Pcg64::seed_from_u64(7);
        stochastic_block_model(&[10, 10], &[vec![0.1]], &mut rng);
    }
}
