//! Network property metrics used by the paper's trajectory experiments
//! (Figures 12–13): average clustering coefficient and average shortest
//! path distance, each in exact and sampled (approximate) variants.

mod assortativity;
mod clustering;
mod paths;
mod triangles;

pub use assortativity::degree_assortativity;
pub use clustering::{average_clustering_exact, average_clustering_sampled, local_clustering};
pub use paths::{average_shortest_path_exact, average_shortest_path_sampled, bfs_distances};
pub use triangles::{transitivity, triangle_count, wedge_count};

use crate::graph::Graph;
use crate::types::VertexId;

/// Connected-component count via repeated BFS.
pub fn connected_components(graph: &Graph) -> usize {
    let n = graph.num_vertices();
    let mut seen = vec![false; n];
    let mut components = 0;
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n as u64 {
        if seen[start as usize] {
            continue;
        }
        components += 1;
        seen[start as usize] = true;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            for w in graph.neighbors(v).iter() {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    queue.push_back(w);
                }
            }
        }
    }
    components
}

/// Whether the graph is connected (a single component; the empty graph is
/// trivially connected).
pub fn is_connected(graph: &Graph) -> bool {
    connected_components(graph) <= 1
}

/// Histogram of degrees: `hist[d]` = number of vertices of degree `d`.
pub fn degree_histogram(graph: &Graph) -> Vec<usize> {
    let mut hist = vec![0usize; graph.max_degree() + 1];
    for v in 0..graph.num_vertices() as u64 {
        hist[graph.degree(v)] += 1;
    }
    hist
}

/// Uniformly sample `k` distinct vertices (Floyd's algorithm when `k` is
/// small relative to `n`).
pub(crate) fn sample_vertices<R: edgeswitch_dist::Rng + ?Sized>(
    n: usize,
    k: usize,
    rng: &mut R,
) -> Vec<VertexId> {
    use std::collections::HashSet;
    let k = k.min(n);
    if k * 3 >= n {
        let mut all: Vec<VertexId> = (0..n as u64).collect();
        // Partial Fisher–Yates.
        for i in 0..k {
            let j = rng.gen_range(i..n);
            all.swap(i, j);
        }
        all.truncate(k);
        return all;
    }
    let mut chosen = HashSet::with_capacity(k);
    let mut out = Vec::with_capacity(k);
    while out.len() < k {
        let v = rng.gen_range(0..n as u64);
        if chosen.insert(v) {
            out.push(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Edge;
    use edgeswitch_dist::Pcg64;

    #[test]
    fn components_of_two_triangles() {
        let edges = vec![
            Edge::new(0, 1),
            Edge::new(1, 2),
            Edge::new(0, 2),
            Edge::new(3, 4),
            Edge::new(4, 5),
            Edge::new(3, 5),
        ];
        let g = Graph::from_edges(6, edges).unwrap();
        assert_eq!(connected_components(&g), 2);
        assert!(!is_connected(&g));
    }

    #[test]
    fn path_is_connected() {
        let g = Graph::from_edges(4, (0..3u64).map(|i| Edge::new(i, i + 1))).unwrap();
        assert!(is_connected(&g));
    }

    #[test]
    fn isolated_vertices_count_as_components() {
        let g = Graph::new(3);
        assert_eq!(connected_components(&g), 3);
    }

    #[test]
    fn degree_histogram_of_star() {
        let g = Graph::from_edges(5, (1..5u64).map(|v| Edge::new(0, v))).unwrap();
        let h = degree_histogram(&g);
        assert_eq!(h, vec![0, 4, 0, 0, 1]);
    }

    #[test]
    fn sample_vertices_distinct_and_in_range() {
        let mut rng = Pcg64::seed_from_u64(1);
        for (n, k) in [(100, 10), (50, 50), (10, 3), (30, 25)] {
            let s = sample_vertices(n, k, &mut rng);
            assert_eq!(s.len(), k.min(n));
            let set: std::collections::HashSet<_> = s.iter().collect();
            assert_eq!(set.len(), s.len(), "duplicates in sample");
            assert!(s.iter().all(|&v| (v as usize) < n));
        }
    }
}
