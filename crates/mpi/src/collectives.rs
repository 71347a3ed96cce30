//! Collective operations over a [`Comm`].
//!
//! Implementations are direct-exchange (`O(p)` messages) for clarity and
//! robustness — the paper's `O(log p)` tree costs are what the
//! virtual-time cost models charge; the threaded runtime only needs
//! correctness. Every collective draws a fresh sequence number so that
//! back-to-back collectives and in-flight user messages can never be
//! confused (non-matching packets are buffered by `recv_match`).

// Rank indices are used simultaneously for slot indexing and message
// routing; iterator rewrites would hide the SPMD structure.
#![allow(clippy::needless_range_loop)]

use crate::comm::{CollCarrier, Comm};
use crate::link::Link;
use crate::packet::{CollPayload, COLLECTIVE_TAG_BASE};

/// Tags per collective invocation (round budget).
const TAG_STRIDE: u32 = 4;

impl<M: CollCarrier, L: Link<M>> Comm<M, L> {
    fn next_coll_tag(&mut self) -> u32 {
        let seq = self.coll_seq;
        self.coll_seq = self.coll_seq.wrapping_add(1);
        COLLECTIVE_TAG_BASE + (seq % ((u32::MAX - COLLECTIVE_TAG_BASE) / TAG_STRIDE)) * TAG_STRIDE
    }

    fn expect_coll(&mut self, src: usize, tag: u32) -> CollPayload {
        self.recv_match(src, tag)
            .payload
            .into_coll()
            .expect("user message arrived with a collective tag")
    }

    /// Gather one `u64` from every rank; every rank receives the full
    /// vector indexed by rank.
    pub fn allgather_u64(&mut self, value: u64) -> Vec<u64> {
        let tag = self.next_coll_tag();
        let (rank, p) = (self.rank(), self.size());
        let mut out = vec![0u64; p];
        out[rank] = value;
        for dst in 0..p {
            if dst != rank {
                self.send_raw(dst, tag, M::from_coll(CollPayload::U64(value)));
            }
        }
        for src in 0..p {
            if src != rank {
                match self.expect_coll(src, tag) {
                    CollPayload::U64(v) => out[src] = v,
                    other => panic!("allgather_u64 got {other:?}"),
                }
            }
        }
        self.stats.collectives += 1;
        out
    }

    /// Gather a `Vec<u64>` from every rank (rows may differ in length).
    pub fn allgather_vec_u64(&mut self, row: Vec<u64>) -> Vec<Vec<u64>> {
        let tag = self.next_coll_tag();
        let (rank, p) = (self.rank(), self.size());
        let mut out: Vec<Vec<u64>> = vec![Vec::new(); p];
        for dst in 0..p {
            if dst != rank {
                self.send_raw(dst, tag, M::from_coll(CollPayload::VecU64(row.clone())));
            }
        }
        out[rank] = row;
        for src in 0..p {
            if src != rank {
                match self.expect_coll(src, tag) {
                    CollPayload::VecU64(v) => out[src] = v,
                    other => panic!("allgather_vec_u64 got {other:?}"),
                }
            }
        }
        self.stats.collectives += 1;
        out
    }

    /// Personalized all-to-all of one `u64` per peer: rank `i` sends
    /// `row[j]` to rank `j` and receives `result[k]` from each rank `k`.
    /// This is the exchange step of the parallel multinomial algorithm
    /// (Alg. 5, line 5).
    pub fn alltoall_u64(&mut self, row: &[u64]) -> Vec<u64> {
        let (rank, p) = (self.rank(), self.size());
        assert_eq!(row.len(), p, "alltoall row must have one entry per rank");
        let tag = self.next_coll_tag();
        let mut out = vec![0u64; p];
        out[rank] = row[rank];
        for dst in 0..p {
            if dst != rank {
                self.send_raw(dst, tag, M::from_coll(CollPayload::U64(row[dst])));
            }
        }
        for src in 0..p {
            if src != rank {
                match self.expect_coll(src, tag) {
                    CollPayload::U64(v) => out[src] = v,
                    other => panic!("alltoall_u64 got {other:?}"),
                }
            }
        }
        self.stats.collectives += 1;
        out
    }
}
