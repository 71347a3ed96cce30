//! Shortest-path distances.
//!
//! The paper computes *approximate* average shortest path distance for its
//! Figure 13 trajectories because exact all-pairs BFS is "very time
//! consuming"; we provide both the exact version (for tests and small
//! graphs) and the sampled-sources estimator the paper uses.

use super::sample_vertices;
use crate::graph::Graph;
use crate::types::VertexId;
use edgeswitch_dist::Rng;
use std::collections::VecDeque;

/// BFS distances from `source`; unreachable vertices get `u32::MAX`.
pub fn bfs_distances(graph: &Graph, source: VertexId) -> Vec<u32> {
    let n = graph.num_vertices();
    let mut dist = vec![u32::MAX; n];
    let mut queue = VecDeque::new();
    dist[source as usize] = 0;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v as usize];
        for w in graph.neighbors(v).iter() {
            if dist[w as usize] == u32::MAX {
                dist[w as usize] = dv + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Sum and count of finite, non-zero distances from `source`.
fn reachable_sum(graph: &Graph, source: VertexId) -> (u64, u64) {
    let dist = bfs_distances(graph, source);
    let mut sum = 0u64;
    let mut cnt = 0u64;
    for &d in &dist {
        if d != u32::MAX && d != 0 {
            sum += d as u64;
            cnt += 1;
        }
    }
    (sum, cnt)
}

/// Exact average shortest path over all connected ordered pairs.
/// `O(n(n+m))` — use only on small graphs.
pub fn average_shortest_path_exact(graph: &Graph) -> f64 {
    let n = graph.num_vertices();
    if n < 2 {
        return 0.0;
    }
    let (sum, cnt) = (0..n as u64)
        .map(|v| reachable_sum(graph, v))
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    if cnt == 0 {
        0.0
    } else {
        sum as f64 / cnt as f64
    }
}

/// Approximate average shortest path: full BFS from `sources` sampled
/// vertices, averaging distances to every reached vertex — the standard
/// estimator the paper relies on for Figure 13.
pub fn average_shortest_path_sampled<R: Rng + ?Sized>(
    graph: &Graph,
    sources: usize,
    rng: &mut R,
) -> f64 {
    let n = graph.num_vertices();
    if n < 2 || sources == 0 {
        return 0.0;
    }
    let chosen = sample_vertices(n, sources, rng);
    let (sum, cnt) = chosen
        .iter()
        .map(|&v| reachable_sum(graph, v))
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    if cnt == 0 {
        0.0
    } else {
        sum as f64 / cnt as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Edge;
    use edgeswitch_dist::Pcg64;

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, (0..n as u64 - 1).map(|i| Edge::new(i, i + 1))).unwrap()
    }

    #[test]
    fn bfs_on_path() {
        let g = path(5);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
        let d2 = bfs_distances(&g, 2);
        assert_eq!(d2, vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_unreachable() {
        let g = Graph::from_edges(4, vec![Edge::new(0, 1)]).unwrap();
        let d = bfs_distances(&g, 0);
        assert_eq!(d[0], 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], u32::MAX);
        assert_eq!(d[3], u32::MAX);
    }

    #[test]
    fn exact_on_path_of_three() {
        // Pairs: (0,1)=1 (0,2)=2 (1,2)=1, each ordered twice: avg = 8/6.
        let g = path(3);
        assert!((average_shortest_path_exact(&g) - 8.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn exact_on_complete_graph_is_one() {
        let mut edges = vec![];
        for u in 0..5u64 {
            for v in (u + 1)..5 {
                edges.push(Edge::new(u, v));
            }
        }
        let g = Graph::from_edges(5, edges).unwrap();
        assert!((average_shortest_path_exact(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampled_close_to_exact() {
        let mut rng = Pcg64::seed_from_u64(3);
        let g = crate::generators::erdos_renyi_gnm(400, 1600, &mut rng);
        let exact = average_shortest_path_exact(&g);
        let approx = average_shortest_path_sampled(&g, 120, &mut rng);
        assert!(
            (exact - approx).abs() / exact < 0.1,
            "sampled {approx} vs exact {exact}"
        );
    }

    #[test]
    fn degenerate_graphs() {
        assert_eq!(average_shortest_path_exact(&Graph::new(0)), 0.0);
        assert_eq!(average_shortest_path_exact(&Graph::new(1)), 0.0);
        // All isolated: no reachable pairs.
        assert_eq!(average_shortest_path_exact(&Graph::new(5)), 0.0);
    }
}
