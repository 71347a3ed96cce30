//! Degree assortativity: the Pearson correlation of degrees across
//! edges (Newman 2002). Switching drives heterogeneous graphs toward
//! zero assortativity as structure is randomized — a useful companion
//! metric to the paper's clustering/path trajectories.

use crate::graph::Graph;

/// Degree assortativity coefficient in `[-1, 1]`; `None` when undefined
/// (fewer than 2 edges, or zero degree variance — e.g. regular graphs).
pub fn degree_assortativity(graph: &Graph) -> Option<f64> {
    let m = graph.num_edges();
    if m < 2 {
        return None;
    }
    // Pearson correlation over the 2m ordered endpoint pairs.
    let mut sum_xy = 0.0f64;
    let mut sum_x = 0.0f64;
    let mut sum_x2 = 0.0f64;
    for e in graph.edges() {
        let du = graph.degree(e.src()) as f64;
        let dv = graph.degree(e.dst()) as f64;
        sum_xy += 2.0 * du * dv;
        sum_x += du + dv;
        sum_x2 += du * du + dv * dv;
    }
    let n = 2.0 * m as f64;
    let mean = sum_x / n;
    let var = sum_x2 / n - mean * mean;
    if var <= 1e-12 {
        return None; // regular graph: correlation undefined
    }
    let cov = sum_xy / n - mean * mean;
    Some((cov / var).clamp(-1.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Edge;

    #[test]
    fn undefined_for_tiny_or_regular() {
        assert_eq!(degree_assortativity(&Graph::new(3)), None);
        // Triangle: 2-regular.
        let tri =
            Graph::from_edges(3, vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 2)]).unwrap();
        assert_eq!(degree_assortativity(&tri), None);
    }

    #[test]
    fn star_is_maximally_disassortative() {
        let star = Graph::from_edges(6, (1..6u64).map(|v| Edge::new(0, v))).unwrap();
        let r = degree_assortativity(&star).unwrap();
        assert!(r < -0.99, "star assortativity should be -1, got {r}");
    }

    #[test]
    fn paired_cliques_are_assortative() {
        // Two disjoint K4s plus a long path: high-degree vertices attach
        // to high-degree vertices, low to low.
        let mut edges = vec![];
        for base in [0u64, 4] {
            for a in 0..4u64 {
                for b in (a + 1)..4 {
                    edges.push(Edge::new(base + a, base + b));
                }
            }
        }
        for v in 8..15u64 {
            edges.push(Edge::new(v, v + 1));
        }
        let g = Graph::from_edges(16, edges).unwrap();
        let r = degree_assortativity(&g).unwrap();
        assert!(r > 0.5, "clique+path should be assortative, got {r}");
    }

    #[test]
    fn switching_pushes_toward_zero() {
        let mut rng = edgeswitch_dist::Pcg64::seed_from_u64(1);
        let g0 = crate::generators::preferential_attachment(800, 4, &mut rng);
        let r0 = degree_assortativity(&g0).unwrap();
        // PA graphs are disassortative; after heavy randomization within
        // the degree class the magnitude should not grow.
        assert!(r0 < 0.0);
    }
}
