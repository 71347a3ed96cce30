//! Visit-rate tracking (Section 3.1).
//!
//! An edge of the *initial* graph is **visited** once it participates in
//! a switch (i.e. is removed and replaced). The visit rate is the
//! fraction of initial edges visited. A replacement edge may later
//! coincide with an already-visited initial edge; that does not un-visit
//! it — only the first removal of an initial edge counts.
//!
//! At rest — in a snapshot, an outcome, a process rank's result — visit
//! state has one form, [`Visits`]: a bitmap over the holder's own edge
//! list, decoded by [`Visits::unvisited_edges`] and validated by
//! `check_marks`. While they run, the switch engines keep the same
//! bitmap in their pool, one bit per slot ([`EdgePool::track_visits`]):
//! a snapshot copies its words ([`EdgePool::unvisited_bitmap`]), a
//! restore hands a checked one back ([`EdgePool::restore_unvisited`]).
//! The constrained variants of [`crate::variants`] keep theirs in a
//! pool of the unvisited initial edges. The Curveball engines,
//! sequential and parallel, keep each mark in its edge's token
//! ([`crate::trade`]).
//!
//! [`EdgePool::track_visits`]: edgeswitch_graph::sampling::EdgePool::track_visits
//! [`EdgePool::unvisited_bitmap`]: edgeswitch_graph::sampling::EdgePool::unvisited_bitmap
//! [`EdgePool::restore_unvisited`]: edgeswitch_graph::sampling::EdgePool::restore_unvisited

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
    /// list, in its order: bit `i % 64` of word `i / 64` marks
    /// `edges[i]`. Bits past the end of `edges` are skipped (a restore
    /// refuses them first, `check_marks`).
    pub fn unvisited_edges<'a>(&'a self, edges: &'a [Edge]) -> impl Iterator<Item = Edge> + 'a {
        let set_bits = |(w, &word): (usize, &u64)| {
            std::iter::successors(Some(word), |&x| Some(x & x.wrapping_sub(1)))
                .take_while(|&x| x != 0)
                .map(move |x| w * 64 + x.trailing_zeros() as usize)
        };
        (self.unvisited.iter().enumerate())
            .flat_map(set_bits)
            .map_while(|i| edges.get(i).copied())
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

/// Check the visit marks of an untrusted snapshot: `visits` must be a
/// bitmap over the snapshot's own `edges` ([`Visits::unvisited_edges`]:
/// ⌈m/64⌉ words, no bit set past the last edge) that marks at most its
/// `initial` edges — the holder's share of the initial ones — each an
/// edge of the run's input `graph`. A mark on an edge the snapshot lacks, or two on one
/// edge, has no encoding; anything else — a flipped bit, a damaged count
/// — would silently change the visited count and, under a visit-rate
/// budget, the run.
pub(crate) fn check_marks(graph: &Graph, edges: &[Edge], visits: &Visits) -> Result<(), String> {
    check_bitmap(edges.len(), visits).map_err(|err| format!("snapshot {err}"))?;
    match visits.unvisited_edges(edges).find(|&e| !graph.has_edge(e)) {
        Some(e) => Err(format!(
            "snapshot marks {e} unvisited, not an edge of the run's graph"
        )),
        None => Ok(()),
    }
}

/// Check that `visits` marks a list of `m` edges
/// ([`Visits::unvisited_edges`]: ⌈m/64⌉ words, no bit set past the last
/// edge) and at most its `initial` of them — the shape
/// [`Visits::joined`] and [`Visits::visited`] rely on.
pub(crate) fn check_bitmap(m: usize, visits: &Visits) -> Result<(), String> {
    let Visits { initial, unvisited } = visits;
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
    if count > *initial {
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
    use edgeswitch_graph::sampling::EdgePool;

    fn e(a: u64, b: u64) -> Edge {
        Edge::new(a, b)
    }

    #[test]
    fn empty_graph_rate_is_zero() {
        assert_eq!(Visits::default().visit_rate(), 0.0);
        assert_eq!(Visits::default().visited(), 0);
    }

    /// The visits of a switch engine's pool: its marks over pool order.
    fn pool_visits(pool: &EdgePool, initial: usize) -> Visits {
        Visits {
            initial,
            unvisited: pool.unvisited_bitmap(),
        }
    }

    #[test]
    fn removal_of_initial_edge_counts_once() {
        let mut pool: EdgePool = [e(0, 1), e(1, 2)].into_iter().collect();
        pool.track_visits();
        assert!(pool.remove(e(0, 1)));
        assert_eq!(pool_visits(&pool, 2).visited(), 1);
        // A replacement coinciding with the visited initial edge comes in
        // unmarked: removing it again is not a second visit.
        assert!(pool.insert(e(0, 1)));
        assert!(pool.remove(e(0, 1)));
        let visits = pool_visits(&pool, 2);
        assert_eq!(visits.visited(), 1, "second removal not a visit");
        assert!((visits.visit_rate() - 0.5).abs() < 1e-12);
        let edges: Vec<Edge> = pool.iter().collect();
        let unvisited: Vec<Edge> = visits.unvisited_edges(&edges).collect();
        assert_eq!(unvisited, [e(1, 2)]);
    }

    #[test]
    fn removal_of_modified_edge_does_not_count() {
        let mut pool: EdgePool = [e(0, 1)].into_iter().collect();
        pool.track_visits();
        assert!(pool.insert(e(5, 6)));
        assert!(pool.remove(e(5, 6)));
        assert_eq!(pool.unvisited(), 1);
        assert_eq!(pool_visits(&pool, 1).visited(), 0);
    }

    #[test]
    fn full_visit_reaches_one() {
        let visits = Visits {
            initial: 3,
            unvisited: vec![0],
        };
        assert_eq!((visits.visited(), visits.visit_rate()), (3, 1.0));
        assert_eq!(check_bitmap(3, &visits), Ok(()));
    }

    #[test]
    fn marks_go_through_a_bitmap_and_back() {
        let edges: Vec<Edge> = (0..150).map(|i| e(i, i + 200)).collect();
        let mut unvisited = vec![0u64; 3];
        for i in (0..150).filter(|i| i % 3 == 1) {
            unvisited[i / 64] |= 1 << (i % 64);
        }
        let visits = Visits {
            initial: 150,
            unvisited,
        };
        assert_eq!(check_bitmap(150, &visits), Ok(()));
        assert_eq!(visits.visited(), 100);
        assert!((visits.visit_rate() - 2.0 / 3.0).abs() < 1e-12);
        let back: Vec<Edge> = visits.unvisited_edges(&edges).collect();
        let want: Vec<Edge> = (0..150)
            .filter(|i| i % 3 == 1)
            .map(|i| e(i, i + 200))
            .collect();
        assert_eq!(back, want);
        // A bit past the end of the list marks nothing.
        let past = Visits {
            initial: 1,
            unvisited: vec![1 << 63],
        };
        assert!(past.unvisited_edges(&edges[..10]).next().is_none());
    }
}
