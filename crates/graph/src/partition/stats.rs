//! Per-partition load statistics (Figures 16–20 of the paper).

use super::{reduced_degrees, Partitioner};
use crate::graph::Graph;

/// Vertex/edge counts per partition for a given scheme, as plotted in the
/// paper's load-balancing figures.
#[derive(Clone, Debug)]
pub struct PartitionStats {
    /// Number of vertices assigned to each partition.
    pub vertices: Vec<u64>,
    /// Number of (reduced-adjacency) edges assigned to each partition.
    pub edges: Vec<u64>,
}

impl PartitionStats {
    /// Compute the initial distribution of vertices and edges.
    pub fn measure(graph: &Graph, part: &Partitioner) -> Self {
        let p = part.num_parts();
        let mut vertices = vec![0u64; p];
        let mut edges = vec![0u64; p];
        let reduced = reduced_degrees(graph);
        for v in 0..graph.num_vertices() as u64 {
            let owner = part.owner(v);
            vertices[owner] += 1;
            edges[owner] += reduced[v as usize];
        }
        PartitionStats { vertices, edges }
    }

    /// Largest / mean edge count: 1.0 means perfectly balanced.
    pub fn edge_imbalance(&self) -> f64 {
        imbalance(&self.edges)
    }

    /// Largest / mean vertex count.
    pub fn vertex_imbalance(&self) -> f64 {
        imbalance(&self.vertices)
    }
}

/// Ratio of the maximum entry to the mean entry (1.0 = perfectly even).
/// Returns `f64::INFINITY` when the mean is zero but some entry is not.
pub fn imbalance(counts: &[u64]) -> f64 {
    if counts.is_empty() {
        return 1.0;
    }
    let max = *counts.iter().max().unwrap() as f64;
    let mean = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
    if mean == 0.0 {
        if max == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        max / mean
    }
}

/// Coefficient of variation (stddev / mean) of a count vector; a scale-free
/// skew measure used when comparing workload distributions across schemes.
pub fn coefficient_of_variation(counts: &[u64]) -> f64 {
    if counts.is_empty() {
        return 0.0;
    }
    let n = counts.len() as f64;
    let mean = counts.iter().sum::<u64>() as f64 / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = counts
        .iter()
        .map(|&c| {
            let d = c as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / n;
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Edge;

    fn ring(n: u64) -> Graph {
        Graph::from_edges(n as usize, (0..n).map(|v| Edge::new(v, (v + 1) % n))).unwrap()
    }

    #[test]
    fn measure_counts_everything_once() {
        let g = ring(40);
        let part = Partitioner::hash_division(4);
        let stats = PartitionStats::measure(&g, &part);
        assert_eq!(stats.vertices.iter().sum::<u64>(), 40);
        assert_eq!(stats.edges.iter().sum::<u64>() as usize, g.num_edges());
    }

    #[test]
    fn perfectly_balanced_ring() {
        let g = ring(40);
        let part = Partitioner::hash_division(4);
        let stats = PartitionStats::measure(&g, &part);
        assert_eq!(stats.vertex_imbalance(), 1.0);
        // Each vertex has reduced degree 1, except n-1 whose successor
        // wraps to 0 making the edge (0, n-1): reduced degree counted at 0.
        assert!(stats.edge_imbalance() < 1.5);
    }

    #[test]
    fn imbalance_of_skewed_counts() {
        assert_eq!(imbalance(&[4, 0, 0, 0]), 4.0);
        assert_eq!(imbalance(&[2, 2, 2, 2]), 1.0);
        assert_eq!(imbalance(&[0, 0]), 1.0);
        assert!(imbalance(&[]).is_finite());
    }

    #[test]
    fn cv_zero_for_uniform() {
        assert_eq!(coefficient_of_variation(&[5, 5, 5]), 0.0);
        assert!(coefficient_of_variation(&[0, 10]) > 0.9);
        assert_eq!(coefficient_of_variation(&[]), 0.0);
    }
}
