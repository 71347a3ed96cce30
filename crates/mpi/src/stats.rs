//! Per-rank traffic counters, consumed by the virtual-time cost models
//! and the observability layer.
//!
//! Vocabulary (used consistently across the workspace):
//! - **packets** — physical channel sends/receives. A coalesced
//!   `Batch` frame is one packet regardless of how many protocol
//!   messages it carries.
//! - **logical messages** — protocol-level messages, counted per kind
//!   in [`CommStats::logical_by_kind`]; batching is transparent (each
//!   framed message counts under its own kind, the frame itself counts
//!   nothing).

/// Number of per-kind counter slots in [`CommStats::logical_by_kind`].
///
/// Message types report a slot via [`crate::comm::CollCarrier::kind_index`];
/// the last slot (`KIND_SLOTS - 1`) is the default catch-all for types that
/// don't classify their variants.
pub const KIND_SLOTS: usize = 24;

/// Traffic and wait counters accumulated by one rank's
/// [`crate::comm::Comm`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Physical packets sent (including collective rounds); a coalesced
    /// batch counts once.
    pub packets_sent: u64,
    /// Approximate payload bytes sent.
    pub bytes_sent: u64,
    /// Physical packets received.
    pub packets_received: u64,
    /// Collective operations completed.
    pub collectives: u64,
    /// Logical messages sent, bucketed by
    /// [`crate::comm::CollCarrier::kind_index`] (batch-transparent).
    pub logical_by_kind: [u64; KIND_SLOTS],
    /// Times a blocking receive exhausted its spin budget and parked on
    /// its link.
    pub parks: u64,
    /// Total nanoseconds spent parked in blocking receives.
    pub park_ns: u64,
    /// Peak receive-queue depth observed at receive entry (how far
    /// behind its senders this rank got).
    pub recv_queue_peak: u64,
    /// Receive-buffer queue allocations avoided by recycling emptied
    /// per-tag buckets (rotating collective tags retire one per
    /// collective).
    pub recv_buf_reuses: u64,
}

impl CommStats {
    /// Element-wise aggregation for a whole world's traffic: counters
    /// add, `recv_queue_peak` takes the max.
    pub fn merge(&self, other: &CommStats) -> CommStats {
        let mut logical_by_kind = self.logical_by_kind;
        for (slot, v) in logical_by_kind.iter_mut().zip(other.logical_by_kind.iter()) {
            *slot += v;
        }
        CommStats {
            packets_sent: self.packets_sent + other.packets_sent,
            bytes_sent: self.bytes_sent + other.bytes_sent,
            packets_received: self.packets_received + other.packets_received,
            collectives: self.collectives + other.collectives,
            logical_by_kind,
            parks: self.parks + other.parks,
            park_ns: self.park_ns + other.park_ns,
            recv_queue_peak: self.recv_queue_peak.max(other.recv_queue_peak),
            recv_buf_reuses: self.recv_buf_reuses + other.recv_buf_reuses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counters_and_maxes_peaks() {
        let mut ka = [0u64; KIND_SLOTS];
        ka[0] = 7;
        let mut kb = [0u64; KIND_SLOTS];
        kb[0] = 2;
        kb[3] = 1;
        let a = CommStats {
            packets_sent: 1,
            bytes_sent: 10,
            packets_received: 2,
            collectives: 3,
            logical_by_kind: ka,
            parks: 1,
            park_ns: 100,
            recv_queue_peak: 4,
            recv_buf_reuses: 2,
        };
        let b = CommStats {
            packets_sent: 4,
            bytes_sent: 40,
            packets_received: 5,
            collectives: 6,
            logical_by_kind: kb,
            parks: 2,
            park_ns: 300,
            recv_queue_peak: 2,
            recv_buf_reuses: 3,
        };
        let c = a.merge(&b);
        assert_eq!(c.packets_sent, 5);
        assert_eq!(c.bytes_sent, 50);
        assert_eq!(c.packets_received, 7);
        assert_eq!(c.collectives, 9);
        assert_eq!(c.logical_by_kind[0], 9);
        assert_eq!(c.logical_by_kind[3], 1);
        assert_eq!(c.logical_by_kind[1], 0);
        assert_eq!(c.parks, 3);
        assert_eq!(c.park_ns, 400);
        assert_eq!(c.recv_queue_peak, 4);
        assert_eq!(c.recv_buf_reuses, 5);
    }
}
