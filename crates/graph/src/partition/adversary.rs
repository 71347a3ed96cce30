//! Adversarial relabeling (Section 5.2, Figures 21–22).
//!
//! The division and multiplication hashes are deterministic, so an
//! adversary who knows the hash can relabel vertices to pile the highest
//! degree vertices onto a single processor. The paper simulates this for
//! HP-D on a preferential-attachment graph: the `n/p` highest-degree
//! vertices are given labels congruent to a chosen rank modulo `p`.

use crate::graph::Graph;
use crate::types::{Edge, VertexId};

/// A vertex relabeling: `mapping[old_label] = new_label` (a bijection).
#[derive(Clone, Debug)]
pub struct Relabeling {
    mapping: Vec<VertexId>,
}

impl Relabeling {
    /// Identity relabeling over `n` vertices.
    pub fn identity(n: usize) -> Self {
        Relabeling {
            mapping: (0..n as u64).collect(),
        }
    }

    /// Build from an explicit map; panics unless it is a bijection on
    /// `0..n`.
    pub fn from_mapping(mapping: Vec<VertexId>) -> Self {
        let n = mapping.len() as u64;
        let mut seen = vec![false; mapping.len()];
        for &t in &mapping {
            assert!(t < n, "relabel target {t} out of range");
            assert!(!seen[t as usize], "relabel target {t} duplicated");
            seen[t as usize] = true;
        }
        Relabeling { mapping }
    }

    /// New label of `old`.
    #[inline]
    pub fn map(&self, old: VertexId) -> VertexId {
        self.mapping[old as usize]
    }

    /// Apply to a graph, producing the isomorphic relabeled graph.
    pub fn apply(&self, graph: &Graph) -> Graph {
        let n = graph.num_vertices();
        assert_eq!(n, self.mapping.len());
        Graph::from_edges(
            n,
            graph
                .edges()
                .map(|e| Edge::new(self.map(e.src()), self.map(e.dst()))),
        )
        .expect("bijective relabeling preserves simplicity")
    }
}

/// The worst-case relabeling for HP-D: the `⌈n/p⌉` highest-degree vertices
/// receive labels `target_rank, target_rank + p, target_rank + 2p, ...`,
/// concentrating them on processor `target_rank`; remaining vertices fill
/// the remaining labels in arbitrary (degree-descending) order.
pub fn division_worst_case(graph: &Graph, p: usize, target_rank: usize) -> Relabeling {
    assert!(target_rank < p, "target rank must be < p");
    let n = graph.num_vertices();
    // Vertices sorted by degree, highest first (ties by label for
    // determinism).
    let degree = graph.degree_sequence();
    let mut by_degree: Vec<VertexId> = (0..n as u64).collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(degree[v as usize]), v));

    // Labels owned by target_rank under HP-D, ascending.
    let hot_labels = (0..n as u64).filter(|l| (*l % p as u64) as usize == target_rank);
    // All other labels, ascending.
    let cold_labels = (0..n as u64).filter(|l| (*l % p as u64) as usize != target_rank);

    let mut mapping = vec![0u64; n];
    let mut assigned = hot_labels.chain(cold_labels);
    for &v in &by_degree {
        mapping[v as usize] = assigned.next().expect("label supply matches vertex count");
    }
    Relabeling::from_mapping(mapping)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Partitioner;

    fn star(n: u64) -> Graph {
        Graph::from_edges(n as usize, (1..n).map(|v| Edge::new(0, v))).unwrap()
    }

    #[test]
    fn identity_maps_to_self() {
        let r = Relabeling::identity(5);
        for v in 0..5u64 {
            assert_eq!(r.map(v), v);
        }
    }

    #[test]
    #[should_panic(expected = "duplicated")]
    fn rejects_non_bijection() {
        Relabeling::from_mapping(vec![0, 0, 1]);
    }

    #[test]
    fn apply_preserves_structure() {
        let g = star(6);
        let r = Relabeling::from_mapping(vec![5, 0, 1, 2, 3, 4]);
        let h = r.apply(&g);
        assert_eq!(h.num_edges(), g.num_edges());
        // The hub moved to label 5.
        assert_eq!(h.degree(5), 5);
        assert_eq!(h.degree(0), 1);
        h.check_invariants().unwrap();
    }

    #[test]
    fn worst_case_concentrates_high_degree() {
        // A graph with a few hubs: union of 4 stars of decreasing size.
        let n = 64usize;
        let mut edges = vec![];
        let hubs = [0u64, 1, 2, 3];
        for (i, &h) in hubs.iter().enumerate() {
            for v in 4 + (i as u64 * 15)..4 + (i as u64 + 1) * 15 {
                edges.push(Edge::new(h, v));
            }
        }
        let g = Graph::from_edges(n, edges).unwrap();

        let p = 8;
        let target = 3;
        let relab = division_worst_case(&g, p, target);
        let h = relab.apply(&g);
        let part = Partitioner::hash_division(p);

        // All hubs (degree 15) should now live on partition `target`.
        let mut hot_degree_total = 0usize;
        let mut per_part_reduced = vec![0u64; p];
        for e in h.edges() {
            per_part_reduced[part.owner(e.src())] += 1;
        }
        for v in 0..n as u64 {
            if part.owner(v) == target {
                hot_degree_total += h.degree(v);
            }
        }
        // The hot partition must see far more than its fair share of
        // incident edges.
        assert!(
            hot_degree_total as f64 > 2.0 * (2 * h.num_edges()) as f64 / p as f64,
            "adversary failed: hot partition degree {hot_degree_total}"
        );
        assert_eq!(per_part_reduced.iter().sum::<u64>() as usize, h.num_edges());
    }
}
