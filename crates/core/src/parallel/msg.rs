//! The wire protocol of the distributed edge-switch algorithm
//! (Section 4.4, generalized — see `rank.rs` module docs).

use crate::switch::RejectReason;
use edgeswitch_graph::Edge;
use mpilite::{CollCarrier, CollPayload};

/// Conversation identifier: unique per (initiating rank, sequence).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConvId {
    /// Rank that initiated the switch operation.
    pub initiator: u32,
    /// Per-initiator sequence number.
    pub seq: u64,
}

impl std::fmt::Display for ConvId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.initiator, self.seq)
    }
}

/// Protocol messages. One switch operation exchanges a bounded number of
/// these (at most ~10 in the four-rank worst case).
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// Initiator → partner: "switch my edge `e1` with one of yours".
    Propose {
        /// Conversation.
        conv: ConvId,
        /// The initiator's reserved first edge.
        e1: Edge,
    },
    /// Partner → owner of a replacement edge: check `edge` can be created
    /// and reserve it as a *potential edge* if so.
    Validate {
        /// Conversation.
        conv: ConvId,
        /// Replacement edge to check-and-reserve.
        edge: Edge,
    },
    /// Validator → partner: reserved.
    ValidateOk {
        /// Conversation.
        conv: ConvId,
        /// The edge that was reserved.
        edge: Edge,
    },
    /// Validator → partner: would create a parallel edge.
    ValidateFail {
        /// Conversation.
        conv: ConvId,
        /// The offending edge.
        edge: Edge,
    },
    /// Partner → validator: abort; drop the reservation of `edge`.
    Release {
        /// Conversation.
        conv: ConvId,
        /// Previously reserved potential edge.
        edge: Edge,
    },
    /// Partner → validator: materialize the reserved potential `edge`.
    CommitAdd {
        /// Conversation.
        conv: ConvId,
        /// Edge to add to the owner's partition.
        edge: Edge,
    },
    /// Partner → initiator: remove your first edge `edge` (= `e1`).
    CommitRemove {
        /// Conversation.
        conv: ConvId,
        /// Edge to remove at its owner.
        edge: Edge,
    },
    /// Participant → partner: commit instruction applied.
    CommitAck {
        /// Conversation.
        conv: ConvId,
    },
    /// Partner → initiator: all updates applied everywhere; the operation
    /// counts as performed.
    Done {
        /// Conversation.
        conv: ConvId,
    },
    /// Partner → initiator: operation rejected; restart with a fresh
    /// sample.
    Abort {
        /// Conversation.
        conv: ConvId,
        /// Why the switch was rejected.
        reason: RejectReason,
    },
    /// Curveball: edges bound for one trade's executor, as tokens — a
    /// packed key ([`Edge::key`]) whose halves are swapped iff the edge
    /// is an unvisited initial one, so its visit mark travels with it.
    /// At pass start every rank routes each token it holds to the
    /// lowest-indexed trade touching it; after a trade fires, its output
    /// tokens whose far endpoint belongs to a later trade are forwarded
    /// the same way.
    TradeLoad {
        /// Pass-local trade index the edges are bound for.
        trade: u32,
        /// Tokens of the contributed edges.
        tokens: Vec<u64>,
    },
    /// Curveball: finalized edges (no later trade touches either
    /// endpoint this pass) returning, as tokens, to the owner of their
    /// smaller endpoint.
    TradeHome {
        /// Tokens of the finalized edges.
        tokens: Vec<u64>,
    },
    /// Rank finished its own quota for the current step (keeps serving).
    EndOfStep,
    /// Collective payloads (step-boundary bookkeeping).
    Coll(CollPayload),
    /// Framing: several protocol messages to the same destination,
    /// coalesced into one packet by the threaded driver. Never nested;
    /// the receiving transport unpacks it before the state machine runs,
    /// so [`super::rank::RankState::handle`] never sees one.
    Batch(Vec<Msg>),
}

/// Coarse classification of [`Msg`] variants, used to bucket per-variant
/// traffic counters in [`mpilite::CommStats::logical_by_kind`] and in
/// the per-step telemetry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum MsgKind {
    /// [`Msg::Propose`].
    Propose = 0,
    /// [`Msg::Validate`].
    Validate = 1,
    /// [`Msg::ValidateOk`].
    ValidateOk = 2,
    /// [`Msg::ValidateFail`].
    ValidateFail = 3,
    /// [`Msg::Release`].
    Release = 4,
    /// [`Msg::CommitAdd`].
    CommitAdd = 5,
    /// [`Msg::CommitRemove`].
    CommitRemove = 6,
    /// [`Msg::CommitAck`].
    CommitAck = 7,
    /// [`Msg::Done`].
    Done = 8,
    /// [`Msg::Abort`].
    Abort = 9,
    /// [`Msg::EndOfStep`].
    EndOfStep = 10,
    /// [`Msg::Coll`] (collective bookkeeping traffic).
    Coll = 11,
    /// [`Msg::Batch`] (coalescing frame — carries no slot of its own in
    /// traffic accounting: the framed messages are counted by their own
    /// kinds, so this counter stays zero on every driver).
    Batch = 12,
    /// [`Msg::TradeLoad`]. Unlike the coalescing frame, a *logical*
    /// message: it counts once under its own kind per coalesced send,
    /// however many edge keys it carries (it may still ride inside a
    /// [`Msg::Batch`] packet).
    TradeLoad = 13,
    /// [`Msg::TradeHome`].
    TradeHome = 14,
}

impl MsgKind {
    /// Number of kinds (length of a dense per-kind counter array).
    pub const COUNT: usize = 15;

    /// All kinds, in counter-slot order.
    pub const ALL: [MsgKind; MsgKind::COUNT] = [
        MsgKind::Propose,
        MsgKind::Validate,
        MsgKind::ValidateOk,
        MsgKind::ValidateFail,
        MsgKind::Release,
        MsgKind::CommitAdd,
        MsgKind::CommitRemove,
        MsgKind::CommitAck,
        MsgKind::Done,
        MsgKind::Abort,
        MsgKind::EndOfStep,
        MsgKind::Coll,
        MsgKind::Batch,
        MsgKind::TradeLoad,
        MsgKind::TradeHome,
    ];

    /// Classify a message.
    pub fn of(msg: &Msg) -> MsgKind {
        match msg {
            Msg::Propose { .. } => MsgKind::Propose,
            Msg::Validate { .. } => MsgKind::Validate,
            Msg::ValidateOk { .. } => MsgKind::ValidateOk,
            Msg::ValidateFail { .. } => MsgKind::ValidateFail,
            Msg::Release { .. } => MsgKind::Release,
            Msg::CommitAdd { .. } => MsgKind::CommitAdd,
            Msg::CommitRemove { .. } => MsgKind::CommitRemove,
            Msg::CommitAck { .. } => MsgKind::CommitAck,
            Msg::Done { .. } => MsgKind::Done,
            Msg::Abort { .. } => MsgKind::Abort,
            Msg::TradeLoad { .. } => MsgKind::TradeLoad,
            Msg::TradeHome { .. } => MsgKind::TradeHome,
            Msg::EndOfStep => MsgKind::EndOfStep,
            Msg::Coll(_) => MsgKind::Coll,
            Msg::Batch(_) => MsgKind::Batch,
        }
    }

    /// Human-readable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            MsgKind::Propose => "propose",
            MsgKind::Validate => "validate",
            MsgKind::ValidateOk => "validate-ok",
            MsgKind::ValidateFail => "validate-fail",
            MsgKind::Release => "release",
            MsgKind::CommitAdd => "commit-add",
            MsgKind::CommitRemove => "commit-remove",
            MsgKind::CommitAck => "commit-ack",
            MsgKind::Done => "done",
            MsgKind::Abort => "abort",
            MsgKind::EndOfStep => "end-of-step",
            MsgKind::Coll => "coll",
            MsgKind::Batch => "batch",
            MsgKind::TradeLoad => "trade-load",
            MsgKind::TradeHome => "trade-home",
        }
    }
}

impl CollCarrier for Msg {
    fn from_coll(p: CollPayload) -> Self {
        Msg::Coll(p)
    }
    fn into_coll(self) -> Option<CollPayload> {
        match self {
            Msg::Coll(p) => Some(p),
            _ => None,
        }
    }
    fn wire_size(&self) -> usize {
        match self {
            Msg::Coll(p) => p.wire_size(),
            // conv (12) + edge (16) is the dominant layout.
            Msg::Propose { .. }
            | Msg::Validate { .. }
            | Msg::ValidateOk { .. }
            | Msg::ValidateFail { .. }
            | Msg::Release { .. }
            | Msg::CommitAdd { .. }
            | Msg::CommitRemove { .. } => 28,
            Msg::CommitAck { .. } | Msg::Done { .. } | Msg::Abort { .. } => 13,
            // Trade index (4) + length prefix (4) + packed key (8) each.
            Msg::TradeLoad { tokens, .. } => 8 + 8 * tokens.len(),
            // Length prefix (4) + token (8) each.
            Msg::TradeHome { tokens } => 4 + 8 * tokens.len(),
            Msg::EndOfStep => 1,
            // Length prefix plus the framed messages.
            Msg::Batch(msgs) => 4 + msgs.iter().map(|m| m.wire_size()).sum::<usize>(),
        }
    }
    fn kind_index(&self) -> usize {
        MsgKind::of(self) as usize
    }
    fn record_kinds(&self, slots: &mut [u64]) {
        match self {
            // The frame is transparent to traffic accounting: each framed
            // message counts under its own kind, the wrapper under none —
            // so per-kind counts stay driver-independent.
            Msg::Batch(msgs) => {
                for m in msgs {
                    m.record_kinds(slots);
                }
            }
            m => slots[m.kind_index().min(slots.len() - 1)] += 1,
        }
    }
}

/// Messages queued by the state machine for the driver to route
/// (self-addressed messages are delivered in place by the driver), with
/// the flush points the machine marks between them.
#[derive(Debug, Default)]
pub struct Outbox {
    queue: std::collections::VecDeque<(usize, Msg)>,
}

impl Outbox {
    /// Destination of a flush point's queue entry: no rank has it.
    pub(crate) const FLUSH: usize = usize::MAX;

    /// Empty outbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue `msg` for delivery to rank `dst`.
    pub fn push(&mut self, dst: usize, msg: Msg) {
        self.queue.push_back((dst, msg));
    }

    /// Mark a flush point: a driver that coalesces sends lets everything
    /// queued before it leave — one packet per destination — before it
    /// routes anything queued after. Drivers that deliver message by
    /// message skip it.
    pub(crate) fn seal(&mut self) {
        self.queue.push_back((Self::FLUSH, Msg::EndOfStep));
    }

    /// Next message to route, FIFO (flush points are skipped).
    pub fn pop(&mut self) -> Option<(usize, Msg)> {
        loop {
            let entry = self.pop_entry()?;
            if entry.0 != Self::FLUSH {
                return Some(entry);
            }
        }
    }

    /// Next entry, FIFO, flush points included (addressed to
    /// [`Outbox::FLUSH`]).
    pub(crate) fn pop_entry(&mut self) -> Option<(usize, Msg)> {
        self.queue.pop_front()
    }

    /// Whether anything is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coll_round_trip() {
        let m = Msg::from_coll(CollPayload::U64(5));
        assert_eq!(m.clone().into_coll(), Some(CollPayload::U64(5)));
        let p = Msg::Propose {
            conv: ConvId {
                initiator: 0,
                seq: 1,
            },
            e1: Edge::new(1, 2),
        };
        assert_eq!(p.into_coll(), None);
    }

    #[test]
    fn outbox_is_fifo() {
        let mut o = Outbox::new();
        o.push(1, Msg::EndOfStep);
        o.seal();
        o.push(2, Msg::EndOfStep);
        assert_eq!(o.pop_entry().unwrap().0, 1);
        assert_eq!(o.pop_entry().unwrap().0, Outbox::FLUSH);
        assert_eq!(o.pop().unwrap().0, 2);
        assert!(o.pop().is_none());
        assert!(o.is_empty());
        // A message-by-message driver never sees a flush point.
        o.push(3, Msg::EndOfStep);
        o.seal();
        o.seal();
        o.push(4, Msg::EndOfStep);
        assert_eq!(o.pop().unwrap().0, 3);
        assert_eq!(o.pop().unwrap().0, 4);
        assert!(o.is_empty());
    }

    #[test]
    fn conv_id_display() {
        let c = ConvId {
            initiator: 3,
            seq: 17,
        };
        assert_eq!(c.to_string(), "3#17");
    }

    #[test]
    fn batch_framing_is_transparent_to_kind_counters() {
        let conv = ConvId {
            initiator: 0,
            seq: 1,
        };
        let inner = vec![
            Msg::Propose {
                conv,
                e1: Edge::new(1, 2),
            },
            Msg::CommitAck { conv },
            Msg::CommitAck { conv },
        ];
        let framed_size: usize = inner.iter().map(|m| m.wire_size()).sum();
        let batch = Msg::Batch(inner);
        assert_eq!(batch.wire_size(), 4 + framed_size);
        let mut slots = [0u64; MsgKind::COUNT];
        batch.record_kinds(&mut slots);
        assert_eq!(slots[MsgKind::Propose as usize], 1);
        assert_eq!(slots[MsgKind::CommitAck as usize], 2);
        assert_eq!(slots[MsgKind::Batch as usize], 0);
        assert_eq!(slots.iter().sum::<u64>(), 3);
    }

    #[test]
    fn trade_messages_count_once_per_coalesced_send() {
        let load = Msg::TradeLoad {
            trade: 7,
            tokens: vec![Edge::new(1, 2).key(), Edge::new(3, 4).key()],
        };
        assert_eq!(load.wire_size(), 8 + 16);
        let home = Msg::TradeHome {
            tokens: vec![Edge::new(1, 2).key()],
        };
        let empty = Msg::TradeHome { tokens: vec![] };
        assert_eq!(home.wire_size(), 4 + 8);
        assert_eq!(empty.wire_size(), 4);
        let mut slots = [0u64; MsgKind::COUNT];
        Msg::Batch(vec![load, home, empty]).record_kinds(&mut slots);
        assert_eq!(slots[MsgKind::TradeLoad as usize], 1);
        assert_eq!(slots[MsgKind::TradeHome as usize], 2);
        assert_eq!(slots.iter().sum::<u64>(), 3);
    }

    #[test]
    fn kind_slots_are_dense_and_distinct() {
        for (slot, kind) in MsgKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, slot);
            assert!(!kind.label().is_empty());
        }
        assert_eq!(MsgKind::ALL.len(), MsgKind::COUNT);
        const { assert!(MsgKind::COUNT <= mpilite::KIND_SLOTS) };
        let m = Msg::Propose {
            conv: ConvId {
                initiator: 0,
                seq: 1,
            },
            e1: Edge::new(1, 2),
        };
        assert_eq!(m.kind_index(), MsgKind::Propose as usize);
        assert_eq!(Msg::EndOfStep.kind_index(), MsgKind::EndOfStep as usize);
    }
}
