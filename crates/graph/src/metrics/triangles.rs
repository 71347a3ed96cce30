//! Triangle counting and global clustering (transitivity).

use crate::graph::Graph;

/// Total number of triangles in the graph.
///
/// Per-vertex neighbor-pair intersection with the canonical `u < v < w`
/// ordering so each triangle is counted once.
pub fn triangle_count(graph: &Graph) -> u64 {
    let n = graph.num_vertices() as u64;
    (0..n)
        .map(|u| {
            let nu = graph.neighbors(u);
            let mut tri = 0u64;
            for v in nu.iter() {
                if v <= u {
                    continue;
                }
                // Count w > v adjacent to both u and v.
                for w in graph.neighbors(v).iter() {
                    if w > v && nu.contains(w) {
                        tri += 1;
                    }
                }
            }
            tri
        })
        .sum()
}

/// Number of connected ordered triples ("wedges"/paths of length 2,
/// counted as unordered center-based pairs): `Σ_v d_v (d_v − 1) / 2`.
pub fn wedge_count(graph: &Graph) -> u64 {
    (0..graph.num_vertices() as u64)
        .map(|v| {
            let d = graph.degree(v) as u64;
            d * (d.saturating_sub(1)) / 2
        })
        .sum()
}

/// Global clustering coefficient (transitivity): `3·triangles / wedges`;
/// `0` when the graph has no wedges.
pub fn transitivity(graph: &Graph) -> f64 {
    let wedges = wedge_count(graph);
    if wedges == 0 {
        return 0.0;
    }
    3.0 * triangle_count(graph) as f64 / wedges as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::families::{complete, cycle, path, star};

    #[test]
    fn complete_graph_triangles() {
        // K5: C(5,3) = 10 triangles, transitivity 1.
        let g = complete(5);
        assert_eq!(triangle_count(&g), 10);
        assert!((transitivity(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn triangle_free_graphs() {
        assert_eq!(triangle_count(&path(10)), 0);
        assert_eq!(triangle_count(&star(10)), 0);
        assert_eq!(triangle_count(&cycle(5)), 0);
        assert_eq!(transitivity(&path(10)), 0.0);
    }

    #[test]
    fn wedge_count_of_star() {
        // Star hub degree 9: C(9,2) = 36 wedges.
        assert_eq!(wedge_count(&star(10)), 36);
    }

    #[test]
    fn single_triangle() {
        let g = cycle(3);
        assert_eq!(triangle_count(&g), 1);
        assert!((transitivity(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_is_zero() {
        let g = crate::graph::Graph::new(5);
        assert_eq!(triangle_count(&g), 0);
        assert_eq!(transitivity(&g), 0.0);
    }
}
