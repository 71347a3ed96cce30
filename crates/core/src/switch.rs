//! Switch arithmetic: straight vs cross recombination and legality
//! (Sections 3.2 and 4.2, Figure 3).
//!
//! Edges drawn from reduced adjacency lists always arrive oriented
//! `tail < head`, so an unordered pair of edges can recombine two ways:
//!
//! - **cross**:    `(u1,v1),(u2,v2) → (u1,v2),(u2,v1)`
//! - **straight**: `(u1,v1),(u2,v2) → (u1,u2),(v1,v2)`
//!
//! Each is chosen with probability ½, restoring the switch distribution a
//! full (non-reduced) adjacency representation would produce.

use edgeswitch_graph::{Edge, OrientedEdge};

/// Rejections of one operation before it is given up, by every switch
/// engine alike: a graph with no legal switch left would otherwise
/// retry forever.
pub(crate) const MAX_REJECTS_PER_OP: u64 = 100_000;

/// Which recombination the ½-coin selected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SwitchKind {
    /// `(u1,u2)` and `(v1,v2)`.
    Straight,
    /// `(u1,v2)` and `(u2,v1)`.
    Cross,
}

/// Why a proposed switch was rejected before any state changed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RejectReason {
    /// A replacement edge would be a self-loop.
    SelfLoop,
    /// The replacement pair equals the original pair (no-op switch).
    Useless,
    /// A replacement edge already exists (or is about to exist) — a
    /// parallel edge.
    ParallelEdge,
    /// An edge involved is locked by a concurrent in-flight switch
    /// (parallel algorithm only).
    Contended,
}

/// Result of the pure recombination step (before any existence checks).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Recombination {
    /// Structurally legal: these two edges would replace the originals.
    Candidate {
        /// First replacement edge (canonical).
        f1: Edge,
        /// Second replacement edge (canonical).
        f2: Edge,
    },
    /// Structurally illegal before touching the graph.
    Rejected(RejectReason),
}

/// Compute the replacement pair for switching `e1` with `e2` under
/// `kind`, rejecting self-loops and useless switches.
///
/// Inputs are oriented `tail < head` as drawn from reduced adjacency
/// lists. The two input edges must be distinct *as edges* or the result
/// is `Rejected` (same-edge draws are always useless or loops).
pub fn recombine(e1: OrientedEdge, e2: OrientedEdge, kind: SwitchKind) -> Recombination {
    debug_assert!(
        e1.tail < e1.head && e2.tail < e2.head,
        "inputs must be oriented"
    );
    let (a, b) = match kind {
        SwitchKind::Cross => ((e1.tail, e2.head), (e2.tail, e1.head)),
        SwitchKind::Straight => ((e1.tail, e2.tail), (e1.head, e2.head)),
    };
    let Some(f1) = Edge::try_new(a.0, a.1) else {
        return Recombination::Rejected(RejectReason::SelfLoop);
    };
    let Some(f2) = Edge::try_new(b.0, b.1) else {
        return Recombination::Rejected(RejectReason::SelfLoop);
    };
    let o1 = e1.edge();
    let o2 = e2.edge();
    if (f1 == o1 && f2 == o2) || (f1 == o2 && f2 == o1) {
        return Recombination::Rejected(RejectReason::Useless);
    }
    // With loops and useless switches excluded, the replacements are
    // necessarily distinct from each other and from both originals: a
    // coincidence like f1 == o2 forces the useless case (Section 3.2).
    debug_assert!(f1 != f2);
    debug_assert!(f1 != o1 && f1 != o2 && f2 != o1 && f2 != o2);
    Recombination::Candidate { f1, f2 }
}

/// Draw the ½ straight/cross coin.
pub fn flip_kind<R: edgeswitch_dist::Rng + ?Sized>(rng: &mut R) -> SwitchKind {
    if rng.gen_bool(0.5) {
        SwitchKind::Straight
    } else {
        SwitchKind::Cross
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn o(a: u64, b: u64) -> OrientedEdge {
        OrientedEdge { tail: a, head: b }
    }

    #[test]
    fn cross_swaps_heads() {
        let r = recombine(o(1, 2), o(3, 4), SwitchKind::Cross);
        assert_eq!(
            r,
            Recombination::Candidate {
                f1: Edge::new(1, 4),
                f2: Edge::new(3, 2),
            }
        );
    }

    #[test]
    fn straight_joins_tails_and_heads() {
        let r = recombine(o(1, 2), o(3, 4), SwitchKind::Straight);
        assert_eq!(
            r,
            Recombination::Candidate {
                f1: Edge::new(1, 3),
                f2: Edge::new(2, 4),
            }
        );
    }

    #[test]
    fn cross_with_shared_endpoint_makes_loop() {
        // e1 = (1,5), e2 = (2,1): wait, inputs oriented; use (1,5),(5,9):
        // cross gives (1,9) and (5,5) -> loop.
        let r = recombine(o(1, 5), o(5, 9), SwitchKind::Cross);
        assert_eq!(r, Recombination::Rejected(RejectReason::SelfLoop));
    }

    #[test]
    fn straight_with_shared_tail_makes_loop() {
        // (1,5) & (1,9) straight -> (1,1) loop.
        let r = recombine(o(1, 5), o(1, 9), SwitchKind::Straight);
        assert_eq!(r, Recombination::Rejected(RejectReason::SelfLoop));
    }

    #[test]
    fn cross_with_shared_tail_is_useless() {
        // (1,5) & (1,9) cross -> (1,9),(1,5): the original pair.
        let r = recombine(o(1, 5), o(1, 9), SwitchKind::Cross);
        assert_eq!(r, Recombination::Rejected(RejectReason::Useless));
    }

    #[test]
    fn cross_with_shared_head_is_useless() {
        // (1,9) & (5,9) cross -> (1,9),(5,9).
        let r = recombine(o(1, 9), o(5, 9), SwitchKind::Cross);
        assert_eq!(r, Recombination::Rejected(RejectReason::Useless));
    }

    #[test]
    fn straight_with_crossing_endpoints_is_useless() {
        // (1,5) & (5,9) straight -> (1,5),(5,9): original pair.
        let r = recombine(o(1, 5), o(5, 9), SwitchKind::Straight);
        assert_eq!(r, Recombination::Rejected(RejectReason::Useless));
    }

    #[test]
    fn same_edge_twice_never_yields_candidate() {
        for kind in [SwitchKind::Straight, SwitchKind::Cross] {
            let r = recombine(o(2, 7), o(2, 7), kind);
            assert!(
                matches!(r, Recombination::Rejected(_)),
                "same-edge {kind:?} must reject, got {r:?}"
            );
        }
    }

    #[test]
    fn degree_preservation() {
        // Whatever the recombination, each vertex keeps its incidence
        // count across {e1,e2} -> {f1,f2}.
        let cases = [(o(1, 2), o(3, 4)), (o(1, 9), o(2, 8)), (o(0, 3), o(2, 5))];
        for (e1, e2) in cases {
            for kind in [SwitchKind::Straight, SwitchKind::Cross] {
                if let Recombination::Candidate { f1, f2 } = recombine(e1, e2, kind) {
                    let mut before = vec![e1.tail, e1.head, e2.tail, e2.head];
                    let mut after = vec![f1.src(), f1.dst(), f2.src(), f2.dst()];
                    before.sort_unstable();
                    after.sort_unstable();
                    assert_eq!(before, after, "{e1:?} {e2:?} {kind:?}");
                }
            }
        }
    }

    #[test]
    fn coin_is_roughly_fair() {
        let mut rng = edgeswitch_dist::Pcg64::seed_from_u64(1);
        let straight = (0..10_000)
            .filter(|_| flip_kind(&mut rng) == SwitchKind::Straight)
            .count();
        assert!((4700..=5300).contains(&straight), "biased coin: {straight}");
    }
}
