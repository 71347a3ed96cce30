//! Visit-rate tracking (Section 3.1).
//!
//! An edge of the *initial* graph is **visited** once it participates in
//! a switch (i.e. is removed and replaced). The visit rate is the
//! fraction of initial edges visited. A replacement edge may later
//! coincide with an already-visited initial edge; that does not un-visit
//! it — the tracker counts only first removals of initial edges.
//!
//! Of the engines, only the Curveball ones hold a [`VisitTracker`] while
//! they run: they hold no edge pool. The switch engines count visits in
//! their pool's index instead ([`EdgePool::track_visits`]: the removal
//! that takes an edge out takes its mark) and build a tracker from the
//! unvisited keys only where an outcome leaves the engine. (The
//! constrained variants of [`crate::variants`], which switch a whole
//! `Graph`, keep one too.)
//!
//! [`EdgePool::track_visits`]: edgeswitch_graph::sampling::EdgePool::track_visits

use edgeswitch_graph::hashing::{set_with_capacity, FxHashSet};
use edgeswitch_graph::Edge;

/// Tracks which of the initial `m` edges have been switched away.
///
/// Keyed on the packed edge ([`Edge::key`]) with the fast in-repo hasher:
/// every neighbour a trade re-deals probes it once.
#[derive(Clone, Debug)]
pub struct VisitTracker {
    initial_count: usize,
    remaining: FxHashSet<u64>,
}

impl VisitTracker {
    /// Start tracking the given initial edge set.
    pub fn new<I: IntoIterator<Item = Edge>>(initial_edges: I) -> Self {
        let iter = initial_edges.into_iter();
        let mut remaining: FxHashSet<u64> = set_with_capacity(iter.size_hint().0);
        remaining.extend(iter.map(|e| e.key()));
        VisitTracker {
            initial_count: remaining.len(),
            remaining,
        }
    }

    /// Record that `e` was removed by a switch. Returns `true` if this
    /// was the first visit of an initial edge.
    pub fn record_removal(&mut self, e: Edge) -> bool {
        self.remaining.remove(&e.key())
    }

    /// Number of initial edges.
    pub fn initial_count(&self) -> usize {
        self.initial_count
    }

    /// Number of initial edges visited so far (`m'` in the paper).
    pub fn visited_count(&self) -> usize {
        self.initial_count - self.remaining.len()
    }

    /// The observed visit rate `x' = m'/m` (`0` for an empty graph).
    pub fn visit_rate(&self) -> f64 {
        visit_rate(self.visited_count(), self.initial_count)
    }

    /// Merge another tracker's progress (used to aggregate per-partition
    /// trackers after a distributed run; the trackers must have been
    /// created over disjoint initial edge sets).
    pub fn merge_disjoint(&mut self, other: VisitTracker) {
        self.initial_count += other.initial_count;
        self.remaining.extend(other.remaining);
    }

    /// Keys of initial edges not yet visited, in arbitrary order (for
    /// serializing a tracker across the process transport).
    pub fn remaining_keys(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        self.remaining.iter().copied()
    }

    /// The unvisited marks over `edges` as a snapshot carries them: bit
    /// `i % 64` of word `i / 64` set iff `edges[i]` is an unvisited
    /// initial edge. One probe an edge.
    pub fn unvisited_bitmap(&self, edges: impl ExactSizeIterator<Item = Edge>) -> Vec<u64> {
        let mut bits = vec![0u64; edges.len().div_ceil(64)];
        for (i, e) in edges.enumerate() {
            if self.remaining.contains(&e.key()) {
                bits[i / 64] |= 1 << (i % 64);
            }
        }
        bits
    }

    /// Rebuild a tracker from [`VisitTracker::initial_count`] and
    /// [`VisitTracker::remaining_keys`].
    pub fn from_parts<I: IntoIterator<Item = u64>>(initial_count: usize, remaining: I) -> Self {
        let iter = remaining.into_iter();
        let mut set: FxHashSet<u64> = set_with_capacity(iter.size_hint().0);
        set.extend(iter);
        debug_assert!(set.len() <= initial_count);
        VisitTracker {
            initial_count,
            remaining: set,
        }
    }
}

/// The edges a snapshot marks unvisited, in list order. Snapshots carry
/// visit marks as a bitmap over their own edge list: bit `i % 64` of
/// word `i / 64` is set iff `edges[i]` is an unvisited initial edge, so
/// the marks take ⌈m/64⌉ words and need no key of their own. Bits past
/// the end of `edges` are skipped (a restore refuses them first).
pub(crate) fn marked<'a>(bits: &'a [u64], edges: &'a [Edge]) -> impl Iterator<Item = Edge> + 'a {
    let set_bits = |(w, &word): (usize, &u64)| {
        std::iter::successors(Some(word), |&x| Some(x & x.wrapping_sub(1)))
            .take_while(|&x| x != 0)
            .map(move |x| w * 64 + x.trailing_zeros() as usize)
    };
    (bits.iter().enumerate())
        .flat_map(set_bits)
        .map_while(|i| edges.get(i).copied())
}

/// The visit rate `visited / initial` (`0` for an empty graph).
pub(crate) fn visit_rate(visited: usize, initial: usize) -> f64 {
    if initial == 0 {
        0.0
    } else {
        visited as f64 / initial as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(a: u64, b: u64) -> Edge {
        Edge::new(a, b)
    }

    #[test]
    fn fresh_tracker_has_zero_rate() {
        let t = VisitTracker::new(vec![e(0, 1), e(1, 2)]);
        assert_eq!(t.initial_count(), 2);
        assert_eq!(t.visited_count(), 0);
        assert_eq!(t.visit_rate(), 0.0);
    }

    #[test]
    fn removal_of_initial_edge_counts_once() {
        let mut t = VisitTracker::new(vec![e(0, 1), e(1, 2)]);
        assert!(t.record_removal(e(0, 1)));
        assert!(!t.record_removal(e(0, 1)), "second removal not a visit");
        assert_eq!(t.visited_count(), 1);
        assert!((t.visit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn removal_of_modified_edge_does_not_count() {
        let mut t = VisitTracker::new(vec![e(0, 1)]);
        assert!(!t.record_removal(e(5, 6)));
        assert_eq!(t.visited_count(), 0);
    }

    #[test]
    fn full_visit_reaches_one() {
        let edges = vec![e(0, 1), e(1, 2), e(2, 3)];
        let mut t = VisitTracker::new(edges.clone());
        for edge in edges {
            t.record_removal(edge);
        }
        assert_eq!(t.visit_rate(), 1.0);
    }

    #[test]
    fn empty_graph_rate_is_zero() {
        let t = VisitTracker::new(vec![]);
        assert_eq!(t.visit_rate(), 0.0);
    }

    #[test]
    fn marks_go_through_a_bitmap_and_back() {
        let edges: Vec<Edge> = (0..150).map(|i| e(i, i + 200)).collect();
        let mut t = VisitTracker::new(edges.iter().copied());
        for i in (0..150).filter(|i| i % 3 != 1) {
            t.record_removal(e(i, i + 200));
        }
        let bits = t.unvisited_bitmap(edges.iter().copied());
        assert_eq!(bits.len(), 3);
        let back: Vec<Edge> = marked(&bits, &edges).collect();
        let want: Vec<Edge> = (0..150)
            .filter(|i| i % 3 == 1)
            .map(|i| e(i, i + 200))
            .collect();
        assert_eq!(back, want);
        // A bit past the end of the list marks nothing.
        assert!(marked(&[1 << 63], &edges[..10]).next().is_none());
    }

    #[test]
    fn a_tracker_over_a_pool_is_sized_once() {
        // A switch engine's outcome tracker is built from its pool's
        // unvisited keys, which report their exact count, so the set is
        // allocated for all of them up front and filling it never
        // rehashes.
        let m = 40_000usize;
        let mut pool: edgeswitch_graph::sampling::EdgePool =
            (0..m as u64).map(|i| e(i, i + m as u64)).collect();
        pool.track_visits();
        for i in (0..m as u64).step_by(4) {
            pool.remove(e(i, i + m as u64));
        }
        let left = pool.unvisited();
        let t = VisitTracker::from_parts(m, pool.unvisited_keys());
        assert_eq!((t.initial_count(), t.visited_count()), (m, m - left));
        assert_eq!(
            t.remaining.capacity(),
            set_with_capacity::<u64>(left).capacity()
        );
    }

    #[test]
    fn merge_disjoint_combines_progress() {
        let mut a = VisitTracker::new(vec![e(0, 1), e(1, 2)]);
        let mut b = VisitTracker::new(vec![e(5, 6), e(6, 7)]);
        a.record_removal(e(0, 1));
        b.record_removal(e(5, 6));
        b.record_removal(e(6, 7));
        a.merge_disjoint(b);
        assert_eq!(a.initial_count(), 4);
        assert_eq!(a.visited_count(), 3);
        assert!((a.visit_rate() - 0.75).abs() < 1e-12);
    }
}
