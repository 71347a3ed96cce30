//! Per-rank communicator: tagged point-to-point messaging over a
//! [`Link`].

use crate::link::{Link, Mailbox};
use crate::packet::{CollPayload, Packet, COLLECTIVE_TAG_BASE};
use crate::stats::CommStats;
use std::collections::VecDeque;
use std::time::Duration;

/// Iterations of the cheap spin phase of a blocking receive (busy-poll
/// with a CPU relax hint) before escalating to `yield_now`. Every link
/// spins this long; tuned for oversubscribed single-machine worlds,
/// where ranks timeshare cores.
pub const SPIN_RELAX: u32 = 64;

/// Total polling iterations (relax + yield phases) of a blocking receive
/// before it parks. Oversubscribed boxes reach the yield phase almost
/// immediately, so the sender gets scheduled instead of us burning its
/// time slice.
pub const SPIN_TOTAL: u32 = 256;

/// How long a blocking receive parks before the rank gives up on a
/// deadlocked protocol and panics, so a hang fails loudly instead.
pub const RECV_TIMEOUT: Duration = Duration::from_secs(120);

/// How user message types expose their approximate wire size and embed
/// collective payloads. Implemented for [`CollPayload`] itself and easily
/// derived for protocol enums that add a `Coll(CollPayload)` variant.
pub trait CollCarrier: Sized {
    /// Wrap a collective payload into the message type.
    fn from_coll(p: CollPayload) -> Self;
    /// Extract a collective payload (`None` if this is a user message —
    /// receiving one inside a collective is a protocol error).
    fn into_coll(self) -> Option<CollPayload>;
    /// Approximate serialized size in bytes, for traffic accounting.
    fn wire_size(&self) -> usize {
        std::mem::size_of::<Self>()
    }
    /// Counter slot in [`CommStats::logical_by_kind`] for this message.
    /// Protocol enums override this to get per-variant traffic counts;
    /// the default buckets everything into the last (catch-all) slot.
    fn kind_index(&self) -> usize {
        crate::stats::KIND_SLOTS - 1
    }
    /// Fold this message into per-kind counters. The default counts one
    /// message under [`CollCarrier::kind_index`]; batching carriers
    /// override it to count each framed logical message under its own
    /// kind, keeping per-kind counts packet-framing-independent.
    fn record_kinds(&self, slots: &mut [u64]) {
        slots[self.kind_index().min(slots.len() - 1)] += 1;
    }
}

impl CollCarrier for CollPayload {
    fn from_coll(p: CollPayload) -> Self {
        p
    }
    fn into_coll(self) -> Option<CollPayload> {
        Some(self)
    }
    fn wire_size(&self) -> usize {
        CollPayload::wire_size(self)
    }
}

/// Buffered packets indexed by tag, preserving global arrival order.
///
/// The protocol keeps very few distinct tags alive at once (the
/// point-to-point protocol tag plus the current rotating collective
/// tag), so the index is an association list of per-tag FIFO queues:
/// lookup by tag is a scan over ≤ a handful of buckets instead of a
/// scan over every buffered packet, and emptied buckets are freed so
/// rotating collective tags cannot accumulate.
struct PendingBuf<M> {
    /// `(tag, queue of (arrival_seq, packet))`.
    buckets: Vec<(u32, TagQueue<M>)>,
    /// Emptied per-tag queues kept for reuse. Collective tags rotate, so
    /// without recycling every collective that overtakes a peer pays a
    /// fresh queue allocation for its one-shot tag; with it the same few
    /// queue buffers cycle for the whole run. Kept separate from
    /// `buckets` so the live index stays a minimal scan.
    spares: Vec<TagQueue<M>>,
    /// Queue allocations avoided via `spares`.
    reuses: u64,
    /// Global arrival stamp, so any-tag receives stay FIFO.
    seq: u64,
}

/// One tag's FIFO of `(arrival_seq, packet)` entries.
type TagQueue<M> = VecDeque<(u64, Packet<M>)>;

/// Emptied per-tag queues retained for reuse (beyond this, retired
/// queues are dropped; the protocol keeps ≤ a handful of tags alive).
const SPARE_QUEUES: usize = 4;

impl<M> PendingBuf<M> {
    fn new() -> Self {
        PendingBuf {
            buckets: Vec::new(),
            spares: Vec::new(),
            reuses: 0,
            seq: 0,
        }
    }

    fn push(&mut self, p: Packet<M>) {
        let seq = self.seq;
        self.seq += 1;
        match self.buckets.iter_mut().find(|(t, _)| *t == p.tag) {
            Some((_, q)) => q.push_back((seq, p)),
            None => {
                let mut q = match self.spares.pop() {
                    Some(q) => {
                        self.reuses += 1;
                        q
                    }
                    None => VecDeque::new(),
                };
                let tag = p.tag;
                q.push_back((seq, p));
                self.buckets.push((tag, q));
            }
        }
    }

    /// Drop bucket `idx` (it just emptied), parking its queue for reuse.
    fn retire(&mut self, idx: usize) {
        let (_, q) = self.buckets.swap_remove(idx);
        debug_assert!(q.is_empty(), "retired bucket still holds packets");
        if self.spares.len() < SPARE_QUEUES {
            self.spares.push(q);
        }
    }

    /// Earliest-arrived packet of any tag.
    fn pop_any(&mut self) -> Option<Packet<M>> {
        let idx = self
            .buckets
            .iter()
            .enumerate()
            .min_by_key(|(_, (_, q))| q.front().expect("buckets are never empty").0)
            .map(|(i, _)| i)?;
        Some(self.pop_front_of(idx))
    }

    /// Earliest-arrived packet with `tag`.
    fn pop_tag(&mut self, tag: u32) -> Option<Packet<M>> {
        let idx = self.buckets.iter().position(|(t, _)| *t == tag)?;
        Some(self.pop_front_of(idx))
    }

    /// Earliest-arrived packet matching `(src, tag)`.
    fn pop_match(&mut self, src: usize, tag: u32) -> Option<Packet<M>> {
        let idx = self.buckets.iter().position(|(t, _)| *t == tag)?;
        let q = &mut self.buckets[idx].1;
        let at = q.iter().position(|(_, p)| p.src == src)?;
        let (_, packet) = q.remove(at).expect("position is in range");
        if q.is_empty() {
            self.retire(idx);
        }
        Some(packet)
    }

    fn pop_front_of(&mut self, idx: usize) -> Packet<M> {
        let q = &mut self.buckets[idx].1;
        let (_, packet) = q.pop_front().expect("buckets are never empty");
        if q.is_empty() {
            self.retire(idx);
        }
        packet
    }
}

/// One rank's endpoint into the world: `send`/`recv` plus collectives
/// (in [`crate::collectives`]), over the link `L` that moves its packets.
pub struct Comm<M, L = Mailbox<M>> {
    rank: usize,
    size: usize,
    link: L,
    /// Messages received while waiting for something more specific,
    /// indexed by tag.
    pending: PendingBuf<M>,
    pub(crate) stats: CommStats,
    pub(crate) coll_seq: u32,
}

impl<M: CollCarrier, L: Link<M>> Comm<M, L> {
    /// Rank `rank` of a `size`-rank world whose packets move over `link`.
    pub fn new(rank: usize, size: usize, link: L) -> Self {
        assert!(rank < size, "rank {rank} outside a world of {size}");
        Comm {
            rank,
            size,
            link,
            pending: PendingBuf::new(),
            stats: CommStats::default(),
            coll_seq: 0,
        }
    }

    /// Tear down into the link, for traffic after the protocol (packets
    /// still buffered as pending are dropped).
    pub fn into_link(self) -> L {
        self.link
    }

    /// This rank's id in `0..size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks `p`.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> CommStats {
        let mut stats = self.stats;
        stats.recv_buf_reuses = self.pending.reuses;
        stats
    }

    /// Send `payload` to `dst` with a user tag.
    ///
    /// # Panics
    /// Panics if `dst` is out of range, the tag collides with the
    /// collective namespace, or the destination has already shut down.
    pub fn send(&mut self, dst: usize, tag: u32, payload: M) {
        assert!(
            tag < COLLECTIVE_TAG_BASE,
            "tag {tag:#x} reserved for collectives"
        );
        self.send_raw(dst, tag, payload);
    }

    pub(crate) fn send_raw(&mut self, dst: usize, tag: u32, payload: M) {
        self.stats.packets_sent += 1;
        self.stats.bytes_sent += payload.wire_size() as u64;
        payload.record_kinds(&mut self.stats.logical_by_kind);
        self.link.post(
            dst,
            Packet {
                src: self.rank,
                tag,
                payload,
            },
        );
    }

    /// Blocking receive from the link, metering any park into
    /// [`CommStats::parks`] and [`CommStats::park_ns`]. `None` on timeout.
    fn recv_spin(&mut self) -> Option<Packet<M>> {
        let (packet, parked_ns) = self.link.block()?;
        if let Some(ns) = parked_ns {
            self.stats.parks += 1;
            self.stats.park_ns += ns;
        }
        Some(packet)
    }

    /// Sample the link's backlog at a receive entry point into
    /// [`CommStats::recv_queue_peak`].
    #[inline]
    fn note_queue_depth(&mut self) {
        let depth = self.link.backlog() as u64;
        if depth > self.stats.recv_queue_peak {
            self.stats.recv_queue_peak = depth;
        }
    }

    /// Blocking receive of the next message (any source, any tag).
    ///
    /// # Panics
    /// Panics after [`RECV_TIMEOUT`] — a deadlocked protocol should fail
    /// loudly in tests rather than hang — or as soon as the link reports
    /// its world dead.
    pub fn recv(&mut self) -> Packet<M> {
        self.note_queue_depth();
        if let Some(p) = self.pending.pop_any() {
            self.stats.packets_received += 1;
            return p;
        }
        let p = self.recv_spin().unwrap_or_else(|| {
            panic!(
                "rank {}: recv timed out after {RECV_TIMEOUT:?} (deadlock, or a dead peer?)",
                self.rank
            )
        });
        self.stats.packets_received += 1;
        p
    }

    /// Blocking receive of a message matching `(src, tag)`; anything else
    /// arriving in the meantime is buffered for later `try_recv`/`recv`.
    pub(crate) fn recv_match(&mut self, src: usize, tag: u32) -> Packet<M> {
        self.note_queue_depth();
        if let Some(p) = self.pending.pop_match(src, tag) {
            self.stats.packets_received += 1;
            return p;
        }
        loop {
            let p = self.recv_spin().unwrap_or_else(|| {
                panic!(
                    "rank {}: recv_match(src={src}, tag={tag:#x}) timed out (deadlock, or a dead peer?)",
                    self.rank
                )
            });
            if p.src == src && p.tag == tag {
                self.stats.packets_received += 1;
                return p;
            }
            self.pending.push(p);
        }
    }

    /// Non-blocking receive of a message with `tag` from any source;
    /// messages with other tags encountered on the way are buffered (so
    /// e.g. early-arriving collective traffic from a rank that has moved
    /// ahead survives until its collective runs).
    pub fn try_recv_tag(&mut self, tag: u32) -> Option<Packet<M>> {
        self.note_queue_depth();
        if let Some(p) = self.pending.pop_tag(tag) {
            self.stats.packets_received += 1;
            return Some(p);
        }
        loop {
            let p = self.link.poll()?;
            if p.tag == tag {
                self.stats.packets_received += 1;
                return Some(p);
            }
            self.pending.push(p);
        }
    }

    /// Blocking receive of a message with `tag` from any source.
    pub fn recv_tag(&mut self, tag: u32) -> Packet<M> {
        self.note_queue_depth();
        if let Some(p) = self.pending.pop_tag(tag) {
            self.stats.packets_received += 1;
            return p;
        }
        loop {
            let p = self.recv_spin().unwrap_or_else(|| {
                panic!(
                    "rank {}: recv_tag({tag:#x}) timed out (deadlock, or a dead peer?)",
                    self.rank
                )
            });
            if p.tag == tag {
                self.stats.packets_received += 1;
                return p;
            }
            self.pending.push(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(src: usize, tag: u32, v: u64) -> Packet<CollPayload> {
        Packet {
            src,
            tag,
            payload: CollPayload::U64(v),
        }
    }

    fn val(p: &Packet<CollPayload>) -> u64 {
        match p.payload {
            CollPayload::U64(v) => v,
            _ => unreachable!("test packets are U64"),
        }
    }

    #[test]
    fn pending_pop_any_is_globally_fifo_across_tags() {
        let mut buf = PendingBuf::new();
        buf.push(pkt(0, 7, 1));
        buf.push(pkt(1, 3, 2));
        buf.push(pkt(2, 7, 3));
        let order: Vec<u64> = std::iter::from_fn(|| buf.pop_any().as_ref().map(val)).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert!(buf.buckets.is_empty());
    }

    #[test]
    fn pending_pop_tag_keeps_per_tag_order_and_frees_buckets() {
        let mut buf = PendingBuf::new();
        // Rotating collective tags: each used once, then emptied.
        for tag in 0..100u32 {
            buf.push(pkt(0, tag, tag as u64));
            assert_eq!(buf.pop_tag(tag).as_ref().map(val), Some(tag as u64));
        }
        assert!(buf.buckets.is_empty());
        assert!(buf.buckets.capacity() <= 8, "buckets list stays small");
        assert_eq!(
            buf.reuses, 99,
            "after the first tag, every rotation reuses a retired queue"
        );
        assert!(buf.spares.len() <= SPARE_QUEUES);
        buf.push(pkt(0, 5, 10));
        buf.push(pkt(1, 5, 11));
        buf.push(pkt(0, 6, 12));
        assert_eq!(buf.pop_tag(5).as_ref().map(val), Some(10));
        assert_eq!(buf.pop_tag(5).as_ref().map(val), Some(11));
        assert!(buf.pop_tag(5).is_none());
        assert_eq!(buf.pop_tag(6).as_ref().map(val), Some(12));
    }

    #[test]
    fn pending_pop_match_selects_by_source() {
        let mut buf = PendingBuf::new();
        buf.push(pkt(3, 9, 1));
        buf.push(pkt(1, 9, 2));
        buf.push(pkt(1, 4, 3));
        assert_eq!(buf.pop_match(1, 9).as_ref().map(val), Some(2));
        assert!(buf.pop_match(1, 9).is_none());
        assert_eq!(buf.pop_match(3, 9).as_ref().map(val), Some(1));
        assert_eq!(buf.pop_match(1, 4).as_ref().map(val), Some(3));
        assert!(buf.buckets.is_empty());
    }
}
