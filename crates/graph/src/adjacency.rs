//! Neighbor sets stored as flat sorted arrays.
//!
//! The paper stores each adjacency list as a balanced binary search tree
//! so the parallel-edge check during a switch costs `O(log d_u)`
//! (Section 3.3). We keep the same asymptotic bound but swap the tree for
//! a sorted `Vec<u32>`: membership is a branch-predictable binary search
//! over one contiguous cache-resident array instead of a pointer chase
//! through heap-allocated tree nodes, and insert/remove are a binary
//! search plus a contiguous `memmove` of at most `d` 4-byte labels —
//! for the degrees real graphs have, that move is cheaper than a single
//! B-tree node split. Labels are narrowed to `u32` at the boundary (the
//! packed-edge limit, [`crate::types::MAX_PACKED_VERTEX`]), halving the
//! bytes touched per probe versus `u64` tree nodes.

use crate::types::{Edge, VertexId, MAX_PACKED_VERTEX};

/// A sorted set of neighbor vertex labels.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NeighborSet {
    /// Strictly increasing labels.
    inner: Vec<u32>,
}

#[inline]
fn narrow(v: VertexId) -> u32 {
    assert!(
        v <= MAX_PACKED_VERTEX,
        "vertex label {v} beyond 2^32-1; packed storage supports at most \
         2^32 vertices"
    );
    v as u32
}

impl NeighborSet {
    /// Empty neighbor set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The set of `labels` in any order, taking the vector as storage
    /// (sorted in place, no copy). The bulk constructor behind a
    /// [`crate::graph::Graph`]'s adjacency. A repeated label comes back
    /// as `Err`: it would break the strictly-increasing invariant every
    /// probe relies on.
    pub(crate) fn from_distinct(mut labels: Vec<u32>) -> Result<Self, u32> {
        labels.sort_unstable();
        match labels.windows(2).find(|w| w[0] == w[1]) {
            Some(w) => Err(w[0]),
            None => Ok(NeighborSet { inner: labels }),
        }
    }

    /// Number of neighbors (the vertex degree).
    #[inline]
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether there are no neighbors.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// `O(log d)` membership test (binary search over the flat array).
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        if v > MAX_PACKED_VERTEX {
            return false;
        }
        self.inner.binary_search(&(v as u32)).is_ok()
    }

    /// Insert a neighbor; `false` if already present.
    ///
    /// `O(log d)` search plus an `O(d)` contiguous shift of 4-byte
    /// labels (one `memmove`, not a tree rebalance).
    #[inline]
    pub fn insert(&mut self, v: VertexId) -> bool {
        let v = narrow(v);
        match self.inner.binary_search(&v) {
            Ok(_) => false,
            Err(at) => {
                self.inner.insert(at, v);
                true
            }
        }
    }

    /// Remove a neighbor; `false` if absent. Same cost shape as
    /// [`NeighborSet::insert`].
    #[inline]
    pub fn remove(&mut self, v: VertexId) -> bool {
        if v > MAX_PACKED_VERTEX {
            return false;
        }
        match self.inner.binary_search(&(v as u32)) {
            Ok(at) => {
                self.inner.remove(at);
                true
            }
            Err(_) => false,
        }
    }

    /// The labels, ascending.
    pub(crate) fn labels(&self) -> &[u32] {
        &self.inner
    }

    /// Iterate neighbors in ascending label order.
    pub fn iter(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.inner.iter().map(|&v| v as VertexId)
    }

    /// Count of common neighbors with `other`.
    ///
    /// Linear two-pointer merge over the two sorted arrays — `O(d1 + d2)`
    /// with no per-element probes. When one set is much smaller
    /// (`16·min < max`), switches to galloping: a binary search in the
    /// larger set per element of the smaller, `O(min(d1,d2) · log
    /// max(d1,d2))`, which wins on skewed degree pairs.
    pub fn intersection_size(&self, other: &NeighborSet) -> usize {
        let (small, large) = if self.len() <= other.len() {
            (&self.inner, &other.inner)
        } else {
            (&other.inner, &self.inner)
        };
        if small.is_empty() {
            return 0;
        }
        if small.len() * 16 < large.len() {
            // Galloping: probe each small element, narrowing the search
            // window from the left as both arrays are sorted.
            let mut count = 0usize;
            let mut window = &large[..];
            for &v in small {
                match window.binary_search(&v) {
                    Ok(at) => {
                        count += 1;
                        window = &window[at + 1..];
                    }
                    Err(at) => window = &window[at..],
                }
                if window.is_empty() {
                    break;
                }
            }
            return count;
        }
        let mut count = 0usize;
        let (mut i, mut j) = (0usize, 0usize);
        while i < small.len() && j < large.len() {
            let (a, b) = (small[i], large[j]);
            count += (a == b) as usize;
            i += (a <= b) as usize;
            j += (b <= a) as usize;
        }
        count
    }
}

impl FromIterator<VertexId> for NeighborSet {
    fn from_iter<I: IntoIterator<Item = VertexId>>(iter: I) -> Self {
        let mut inner: Vec<u32> = iter.into_iter().map(narrow).collect();
        inner.sort_unstable();
        inner.dedup();
        NeighborSet { inner }
    }
}

/// Every edge of the graph whose neighbor sets are `adj` (vertex `v`'s
/// at `adj[v]`), once each, in ascending key order: every `(u, x)` with
/// `u < x`, by `u`, then `x` — the order [`Edge::key`] sorts in, since a
/// key is `u << 32 | x`. One walk of the sorted lists, `O(n + m)`: the
/// lists already hold the order a collect-and-sort of the keys would
/// rebuild.
pub fn ascending_edges(adj: &[NeighborSet]) -> impl Iterator<Item = Edge> + '_ {
    adj.iter().enumerate().flat_map(|(u, nbrs)| {
        let labels = nbrs.labels();
        let above = labels.partition_point(|&x| x as usize <= u);
        let u = u as VertexId;
        labels[above..]
            .iter()
            .map(move |&x| Edge::new(u, VertexId::from(x)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = NeighborSet::new();
        assert!(s.insert(3));
        assert!(s.insert(1));
        assert!(!s.insert(3));
        assert!(s.contains(1));
        assert!(s.contains(3));
        assert!(!s.contains(2));
        assert!(s.remove(1));
        assert!(!s.remove(1));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn iteration_is_sorted() {
        let s: NeighborSet = [9, 2, 7, 4].into_iter().collect();
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![2, 4, 7, 9]);
    }

    #[test]
    fn from_iter_dedups() {
        let s: NeighborSet = [5, 1, 5, 1, 5].into_iter().collect();
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 5]);
    }

    #[test]
    fn intersection_size_counts_common() {
        let a: NeighborSet = [1, 2, 3, 4, 5].into_iter().collect();
        let b: NeighborSet = [4, 5, 6].into_iter().collect();
        assert_eq!(a.intersection_size(&b), 2);
        assert_eq!(b.intersection_size(&a), 2);
        let empty = NeighborSet::new();
        assert_eq!(a.intersection_size(&empty), 0);
    }

    #[test]
    fn intersection_size_galloping_path() {
        // Skewed sizes trigger the galloping branch (3 * 16 < 1000).
        let small: NeighborSet = [10, 500, 999].into_iter().collect();
        let large: NeighborSet = (0..1000u64).collect();
        assert_eq!(small.intersection_size(&large), 3);
        assert_eq!(large.intersection_size(&small), 3);
        let disjoint: NeighborSet = [2000, 3000].into_iter().collect();
        assert_eq!(disjoint.intersection_size(&large), 0);
    }

    #[test]
    fn oversized_labels_are_never_members() {
        let s: NeighborSet = [1, 2].into_iter().collect();
        assert!(!s.contains(MAX_PACKED_VERTEX + 1));
        let mut s = s;
        assert!(!s.remove(MAX_PACKED_VERTEX + 1));
        assert!(s.contains(1) && s.contains(2));
    }

    #[test]
    #[should_panic(expected = "2^32")]
    fn insert_rejects_oversized_label() {
        NeighborSet::new().insert(MAX_PACKED_VERTEX + 1);
    }
}
