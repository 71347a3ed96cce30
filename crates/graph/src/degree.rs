//! Degree sequences: sampling, realizability, and Havel–Hakimi realization.
//!
//! The paper's flagship application pairs the deterministic Havel–Hakimi
//! construction with edge switching: Havel–Hakimi produces *one* graph
//! with the given degree sequence, and randomly switching its edges then
//! samples from the space of graphs with that degree sequence.

use crate::graph::Graph;
use crate::types::{Edge, GraphError, VertexId};
use edgeswitch_dist::Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Erdős–Gallai test: is the sequence realizable as a simple graph?
///
/// Requires: Σdᵢ even, and for each k:
/// `Σ_{i≤k} dᵢ ≤ k(k−1) + Σ_{i>k} min(dᵢ, k)` over the sequence sorted
/// descending. `O(n log n)`.
pub fn erdos_gallai(degrees: &[usize]) -> bool {
    let n = degrees.len();
    if n == 0 {
        return true;
    }
    let mut d: Vec<usize> = degrees.to_vec();
    d.sort_unstable_by_key(|&x| Reverse(x));
    if d[0] >= n {
        return false;
    }
    let total: u64 = d.iter().map(|&x| x as u64).sum();
    if !total.is_multiple_of(2) {
        return false;
    }
    // Suffix sums of min(d_i, k) computed incrementally: since d is sorted
    // descending, min(d_i, k) = k for i < cross(k), else d_i.
    let suffix: Vec<u64> = {
        let mut s = vec![0u64; n + 1];
        for i in (0..n).rev() {
            s[i] = s[i + 1] + d[i] as u64;
        }
        s
    };
    let mut lhs = 0u64;
    for k in 1..=n {
        lhs += d[k - 1] as u64;
        // Number of indices i > k (1-based) with d_i > k: binary search in
        // the descending array over positions k..n.
        let cross = partition_point_gt(&d[k..], k);
        let rhs = (k as u64) * (k as u64 - 1)
            + (cross as u64) * k as u64
            + (suffix[k + cross] - suffix[n]);
        if lhs > rhs {
            return false;
        }
    }
    true
}

/// Number of leading entries of the descending slice strictly greater
/// than `threshold`.
fn partition_point_gt(desc: &[usize], threshold: usize) -> usize {
    desc.partition_point(|&x| x > threshold)
}

/// Havel–Hakimi: deterministically realize a degree sequence as a simple
/// graph, or report why it cannot be done.
///
/// Highest-degree-first greedy with a max-heap: `O(m log n)`.
pub fn havel_hakimi(degrees: &[usize]) -> Result<Graph, GraphError> {
    let n = degrees.len();
    let total: u64 = degrees.iter().map(|&x| x as u64).sum();
    if !total.is_multiple_of(2) {
        return Err(GraphError::UnrealizableDegreeSequence(
            "odd degree sum".into(),
        ));
    }
    if degrees.iter().any(|&d| d >= n) {
        return Err(GraphError::UnrealizableDegreeSequence(format!(
            "a degree exceeds n-1 = {}",
            n.saturating_sub(1)
        )));
    }
    let mut g = Graph::with_edge_capacity(n, degrees.iter().sum::<usize>() / 2);
    let mut heap: BinaryHeap<(usize, VertexId)> = degrees
        .iter()
        .enumerate()
        .filter(|(_, &d)| d > 0)
        .map(|(v, &d)| (d, v as VertexId))
        .collect();
    let mut scratch: Vec<(usize, VertexId)> = Vec::new();
    while let Some((d, v)) = heap.pop() {
        if d == 0 {
            continue;
        }
        scratch.clear();
        for _ in 0..d {
            match heap.pop() {
                Some((du, u)) if du > 0 => scratch.push((du, u)),
                _ => {
                    return Err(GraphError::UnrealizableDegreeSequence(format!(
                        "vertex {v} needs {d} more neighbors but fewer remain"
                    )));
                }
            }
        }
        for &(du, u) in &scratch {
            g.add_edge(Edge::new(v, u))?;
            if du > 1 {
                heap.push((du - 1, u));
            }
        }
    }
    debug_assert_eq!(g.degree_sequence(), degrees);
    Ok(g)
}

/// Sample a power-law degree sequence: `Pr{d = k} ∝ k^(−gamma)` for
/// `k ∈ [d_min, d_max]`, adjusted to an even sum (and renormalized so it
/// passes Erdős–Gallai, by capping `d_max < n`).
pub fn power_law_sequence<R: Rng + ?Sized>(
    n: usize,
    gamma: f64,
    d_min: usize,
    d_max: usize,
    rng: &mut R,
) -> Vec<usize> {
    assert!(n > 1 && d_min >= 1 && d_max >= d_min);
    let d_max = d_max.min(n - 1);
    let d_min = d_min.min(d_max);
    // Precompute the discrete CDF.
    let weights: Vec<f64> = (d_min..=d_max).map(|k| (k as f64).powf(-gamma)).collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    let mut seq: Vec<usize> = (0..n)
        .map(|_| {
            let u = rng.gen_f64();
            let idx = cdf.partition_point(|&c| c < u).min(cdf.len() - 1);
            d_min + idx
        })
        .collect();
    // Fix parity by bumping a non-maximal entry.
    if seq.iter().map(|&d| d as u64).sum::<u64>() % 2 != 0 {
        if let Some(slot) = seq.iter_mut().find(|d| **d < d_max) {
            *slot += 1;
        } else {
            seq[0] -= 1; // all entries at d_max >= 1
        }
    }
    seq
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgeswitch_dist::Pcg64;

    #[test]
    fn erdos_gallai_accepts_valid() {
        assert!(erdos_gallai(&[])); // empty
        assert!(erdos_gallai(&[0, 0, 0]));
        assert!(erdos_gallai(&[1, 1]));
        assert!(erdos_gallai(&[2, 2, 2])); // triangle
        assert!(erdos_gallai(&[3, 3, 3, 3])); // K4
        assert!(erdos_gallai(&[2, 2, 1, 1])); // path + edge arrangements
    }

    #[test]
    fn erdos_gallai_rejects_invalid() {
        assert!(!erdos_gallai(&[1])); // odd sum
        assert!(!erdos_gallai(&[3, 1, 1])); // fails EG inequality... odd too
        assert!(!erdos_gallai(&[2, 2])); // degree >= n
        assert!(!erdos_gallai(&[4, 4, 4, 4])); // degree >= n
        assert!(!erdos_gallai(&[3, 3, 1, 1])); // classic non-graphical
    }

    #[test]
    fn havel_hakimi_realizes_regular() {
        let g = havel_hakimi(&[3, 3, 3, 3]).unwrap();
        assert_eq!(g.degree_sequence(), vec![3, 3, 3, 3]);
        g.check_invariants().unwrap();
    }

    #[test]
    fn havel_hakimi_realizes_heterogeneous() {
        let seq = vec![5, 3, 3, 2, 2, 2, 1, 1, 1, 0];
        assert!(erdos_gallai(&seq));
        let g = havel_hakimi(&seq).unwrap();
        assert_eq!(g.degree_sequence(), seq);
        g.check_invariants().unwrap();
    }

    #[test]
    fn havel_hakimi_rejects_odd_sum() {
        assert!(matches!(
            havel_hakimi(&[1, 1, 1]),
            Err(GraphError::UnrealizableDegreeSequence(_))
        ));
    }

    #[test]
    fn havel_hakimi_rejects_non_graphical() {
        assert!(havel_hakimi(&[3, 3, 1, 1]).is_err());
    }

    #[test]
    fn havel_hakimi_deterministic() {
        let seq = vec![4, 3, 3, 2, 2, 2, 2];
        let a = havel_hakimi(&seq).unwrap();
        let b = havel_hakimi(&seq).unwrap();
        assert!(a.same_edge_set(&b), "Havel–Hakimi must be deterministic");
    }

    #[test]
    fn power_law_sequence_in_bounds_even_sum() {
        let mut rng = Pcg64::seed_from_u64(9);
        let seq = power_law_sequence(2000, 2.5, 2, 100, &mut rng);
        assert_eq!(seq.len(), 2000);
        assert!(seq.iter().all(|&d| (1..=101).contains(&d)));
        assert_eq!(seq.iter().map(|&d| d as u64).sum::<u64>() % 2, 0);
        // Power law: low degrees dominate.
        let low = seq.iter().filter(|&&d| d <= 4).count();
        let high = seq.iter().filter(|&&d| d >= 50).count();
        assert!(
            low > 10 * high.max(1),
            "not heavy-tailed: low={low} high={high}"
        );
    }

    #[test]
    fn power_law_sequence_is_graphical_and_realizable() {
        let mut rng = Pcg64::seed_from_u64(10);
        let seq = power_law_sequence(300, 2.2, 2, 40, &mut rng);
        assert!(erdos_gallai(&seq));
        let g = havel_hakimi(&seq).unwrap();
        assert_eq!(g.degree_sequence(), seq);
    }
}
