//! Clustering coefficients.

use super::sample_vertices;
use crate::graph::Graph;
use crate::types::VertexId;
use edgeswitch_dist::Rng;

/// Local clustering coefficient of `v`: the fraction of neighbor pairs
/// that are themselves adjacent; `0` for degree < 2.
pub fn local_clustering(graph: &Graph, v: VertexId) -> f64 {
    let nbrs = graph.neighbors(v);
    let d = nbrs.len();
    if d < 2 {
        return 0.0;
    }
    // Count edges among neighbors: for each neighbor u, intersect N(u)
    // with N(v); every triangle through v counted twice.
    let mut links = 0usize;
    for u in nbrs.iter() {
        links += graph.neighbors(u).intersection_size(nbrs);
    }
    links as f64 / (d * (d - 1)) as f64
}

/// Exact average clustering coefficient (mean of local coefficients over
/// all vertices).
pub fn average_clustering_exact(graph: &Graph) -> f64 {
    let n = graph.num_vertices();
    if n == 0 {
        return 0.0;
    }
    let total: f64 = (0..n as u64).map(|v| local_clustering(graph, v)).sum();
    total / n as f64
}

/// Sampled average clustering: mean of local coefficients over `samples`
/// uniformly chosen vertices — the estimator of Schank & Wagner, unbiased
/// for the exact average.
pub fn average_clustering_sampled<R: Rng + ?Sized>(
    graph: &Graph,
    samples: usize,
    rng: &mut R,
) -> f64 {
    let n = graph.num_vertices();
    if n == 0 || samples == 0 {
        return 0.0;
    }
    let chosen = sample_vertices(n, samples, rng);
    let total: f64 = chosen.iter().map(|&v| local_clustering(graph, v)).sum();
    total / chosen.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Edge;
    use edgeswitch_dist::Pcg64;

    fn triangle_with_tail() -> Graph {
        Graph::from_edges(
            4,
            vec![
                Edge::new(0, 1),
                Edge::new(1, 2),
                Edge::new(0, 2),
                Edge::new(2, 3),
            ],
        )
        .unwrap()
    }

    #[test]
    fn local_clustering_of_triangle_vertices() {
        let g = triangle_with_tail();
        assert_eq!(local_clustering(&g, 0), 1.0);
        assert_eq!(local_clustering(&g, 1), 1.0);
        // Vertex 2 has neighbors {0,1,3}; only (0,1) adjacent: 1/3.
        assert!((local_clustering(&g, 2) - 1.0 / 3.0).abs() < 1e-12);
        // Degree-1 vertex.
        assert_eq!(local_clustering(&g, 3), 0.0);
    }

    #[test]
    fn exact_average_matches_hand_computation() {
        let g = triangle_with_tail();
        let expect = (1.0 + 1.0 + 1.0 / 3.0 + 0.0) / 4.0;
        assert!((average_clustering_exact(&g) - expect).abs() < 1e-12);
    }

    #[test]
    fn complete_graph_has_cc_one() {
        let mut edges = vec![];
        for u in 0..6u64 {
            for v in (u + 1)..6 {
                edges.push(Edge::new(u, v));
            }
        }
        let g = Graph::from_edges(6, edges).unwrap();
        assert!((average_clustering_exact(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tree_has_cc_zero() {
        let g = Graph::from_edges(7, (1..7u64).map(|v| Edge::new((v - 1) / 2, v))).unwrap();
        assert_eq!(average_clustering_exact(&g), 0.0);
    }

    #[test]
    fn sampled_close_to_exact() {
        let mut rng = Pcg64::seed_from_u64(1);
        let g = crate::generators::small_world(600, 8, 0.05, &mut rng);
        let exact = average_clustering_exact(&g);
        let approx = average_clustering_sampled(&g, 300, &mut rng);
        assert!(
            (exact - approx).abs() < 0.08,
            "sampled {approx} vs exact {exact}"
        );
    }

    #[test]
    fn empty_graph_is_zero() {
        assert_eq!(average_clustering_exact(&Graph::new(0)), 0.0);
        let mut rng = Pcg64::seed_from_u64(2);
        assert_eq!(
            average_clustering_sampled(&Graph::new(0), 10, &mut rng),
            0.0
        );
    }
}
