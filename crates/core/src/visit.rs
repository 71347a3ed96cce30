//! Visit-rate tracking (Section 3.1).
//!
//! An edge of the *initial* graph is **visited** once it participates in
//! a switch (i.e. is removed and replaced). The visit rate is the
//! fraction of initial edges visited. A replacement edge may later
//! coincide with an already-visited initial edge; that does not un-visit
//! it — the tracker counts only first removals of initial edges.
//!
//! At rest — in a snapshot, an outcome, a process rank's result — visit
//! state has one form, [`Visits`]: a bitmap over the holder's own edge
//! list, decoded by `marked` and validated by `check_marks`. While
//! they run, the switch engines keep the marks in their pool's index
//! ([`EdgePool::track_visits`]) and read the bitmap off it in one sweep
//! ([`EdgePool::unvisited_bitmap`]). The Curveball engines, sequential
//! and parallel, keep each mark in its edge's token ([`crate::trade`]).
//! Only the constrained variants of [`crate::variants`] run on a
//! [`VisitTracker`].
//!
//! [`EdgePool::track_visits`]: edgeswitch_graph::sampling::EdgePool::track_visits
//! [`EdgePool::unvisited_bitmap`]: edgeswitch_graph::sampling::EdgePool::unvisited_bitmap

use edgeswitch_graph::hashing::{set_with_capacity, FxHashSet};
use edgeswitch_graph::{Edge, Graph};

/// Visit state at rest: the initial edge count, and marks over the
/// holder's own edge list — a snapshot's, or the `edges()` order of the
/// graph or store an outcome carries. They cannot name an edge the list
/// lacks, or name one twice.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Visits {
    /// Number of initial edges (what the visit rate divides by).
    pub initial: usize,
    /// ⌈m/64⌉ words over `m` edges: bit `i % 64` of word `i / 64` is set
    /// iff edge `i` is an unvisited initial edge.
    pub unvisited: Vec<u64>,
}

impl Visits {
    /// Number of initial edges visited (`m'` in the paper).
    pub fn visited(&self) -> usize {
        self.initial - ones(&self.unvisited)
    }

    /// The observed visit rate `x' = m'/m` (`0` for an empty graph).
    pub fn visit_rate(&self) -> f64 {
        visit_rate(self.visited(), self.initial)
    }

    /// The unvisited initial edges among `edges` — the holder's own
    /// list, in its order.
    pub fn unvisited_edges<'a>(&'a self, edges: &'a [Edge]) -> impl Iterator<Item = Edge> + 'a {
        marked(&self.unvisited, edges)
    }

    /// The visits over the concatenation of edge lists, each part given
    /// with the length of its list, in list order — a parallel outcome
    /// joins its ranks' in rank order, the order `assemble_outcome`
    /// inserts their key lists in. A word at a time, shifted into place.
    pub(crate) fn joined(parts: impl IntoIterator<Item = (Visits, usize)>) -> Visits {
        let mut out = Visits::default();
        let mut len = 0usize;
        for (part, m) in parts {
            out.initial += part.initial;
            out.unvisited.resize((len + m).div_ceil(64), 0);
            let (base, shift) = (len / 64, len % 64);
            for (w, &word) in part.unvisited.iter().enumerate() {
                out.unvisited[base + w] |= word << shift;
                if shift > 0 && word >> (64 - shift) != 0 {
                    out.unvisited[base + w + 1] |= word >> (64 - shift);
                }
            }
            len += m;
        }
        out
    }
}

/// Tracks which of the initial `m` edges have been switched away.
///
/// Keyed on the packed edge ([`Edge::key`]) with the fast in-repo hasher.
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

    /// The tracker at rest over `edges`, the holder's edge list in its
    /// order: one probe an edge.
    pub fn visits(&self, edges: impl ExactSizeIterator<Item = Edge>) -> Visits {
        let mut bits = vec![0u64; edges.len().div_ceil(64)];
        for (i, e) in edges.enumerate() {
            if self.remaining.contains(&e.key()) {
                bits[i / 64] |= 1 << (i % 64);
            }
        }
        Visits {
            initial: self.initial_count,
            unvisited: bits,
        }
    }
}

/// The edges a bitmap marks unvisited, in list order: bit `i % 64` of
/// word `i / 64` marks `edges[i]`. Bits past the end of `edges` are
/// skipped (a restore refuses them first, [`check_marks`]).
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

/// Check the visit marks of an untrusted snapshot: `unvisited` must be a
/// bitmap over the snapshot's own `edges` ([`marked`]: ⌈m/64⌉ words, no
/// bit set past the last edge) that marks at most `initial` edges — the
/// tracker's share of the initial ones — each an edge of the run's input
/// `graph`. A mark on an edge the snapshot lacks, or two on one edge,
/// has no encoding; anything else — a flipped bit, a damaged count —
/// would silently change the visited count and, under a visit-rate
/// budget, the run.
pub(crate) fn check_marks(
    graph: &Graph,
    edges: &[Edge],
    unvisited: &[u64],
    initial: usize,
) -> Result<(), String> {
    check_bitmap(edges.len(), unvisited, initial).map_err(|err| format!("snapshot {err}"))?;
    match marked(unvisited, edges).find(|&e| !graph.has_edge(e)) {
        Some(e) => Err(format!(
            "snapshot marks {e} unvisited, not an edge of the run's graph"
        )),
        None => Ok(()),
    }
}

/// Check that `unvisited` is a bitmap over a list of `m` edges
/// ([`marked`]: ⌈m/64⌉ words, no bit set past the last edge) marking at
/// most `initial` of them — the shape [`Visits::joined`] and
/// [`Visits::visited`] rely on.
pub(crate) fn check_bitmap(m: usize, unvisited: &[u64], initial: usize) -> Result<(), String> {
    if unvisited.len() != m.div_ceil(64) {
        return Err(format!(
            "visit marks are {} words for {m} edges",
            unvisited.len()
        ));
    }
    if !m.is_multiple_of(64) && unvisited.last().is_some_and(|&word| word >> (m % 64) != 0) {
        return Err("visit marks set a bit past the last edge".to_string());
    }
    let count = ones(unvisited);
    if count > initial {
        return Err(format!(
            "marks {count} edges unvisited, more than its {initial} initial ones"
        ));
    }
    Ok(())
}

/// Set bits of a bitmap.
fn ones(bits: &[u64]) -> usize {
    bits.iter().map(|w| w.count_ones() as usize).sum()
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
        assert_eq!(t.visits(std::iter::empty()), Visits::default());
        assert_eq!(Visits::default().visit_rate(), 0.0);
    }

    #[test]
    fn marks_go_through_a_bitmap_and_back() {
        let edges: Vec<Edge> = (0..150).map(|i| e(i, i + 200)).collect();
        let mut t = VisitTracker::new(edges.iter().copied());
        for i in (0..150).filter(|i| i % 3 != 1) {
            t.record_removal(e(i, i + 200));
        }
        let visits = t.visits(edges.iter().copied());
        assert_eq!(visits.unvisited.len(), 3);
        assert_eq!((visits.initial, visits.visited()), (150, 100));
        assert_eq!(visits.visit_rate(), t.visit_rate());
        let back: Vec<Edge> = visits.unvisited_edges(&edges).collect();
        let want: Vec<Edge> = (0..150)
            .filter(|i| i % 3 == 1)
            .map(|i| e(i, i + 200))
            .collect();
        assert_eq!(back, want);
        // A bit past the end of the list marks nothing.
        assert!(marked(&[1 << 63], &edges[..10]).next().is_none());
    }
}
