//! # mpilite
//!
//! A small distributed-memory message-passing runtime: the substrate
//! standing in for MPI in this reproduction. Each *rank* holds a [`Comm`]
//! over a [`Link`] — in [`run_world`], an OS thread with a private
//! [`Mailbox`]; any other carrier (a process's shared-memory rings)
//! plugs in as another link. Ranks exchange tagged messages and
//! participate in collectives, exactly mirroring the communication
//! pattern of the paper's MPI implementation (DESIGN.md §2 explains the
//! substitution).
//!
//! ```
//! use mpilite::{run_world_default, CollPayload};
//!
//! let sums = run_world_default::<CollPayload, u64, _>(4, |comm| {
//!     comm.allgather_u64(comm.rank() as u64 + 1).iter().sum()
//! });
//! assert_eq!(sums, vec![10, 10, 10, 10]);
//! ```

#![warn(missing_docs)]

mod channel;
pub mod collectives;
pub mod comm;
pub mod link;
pub mod packet;
pub mod runtime;
pub mod stats;

#[cfg(test)]
mod tag_tests;

pub use comm::{CollCarrier, Comm, RECV_TIMEOUT, SPIN_RELAX, SPIN_TOTAL};
pub use link::{Link, Mailbox};
pub use packet::{CollPayload, Packet, COLLECTIVE_TAG_BASE};
pub use runtime::{run_world, run_world_default, WorldConfig};
pub use stats::{CommStats, KIND_SLOTS};

#[cfg(test)]
mod collective_tests {
    use super::*;

    #[test]
    fn allgather_collects_rank_values() {
        let out = run_world_default::<CollPayload, Vec<u64>, _>(6, |comm| {
            comm.allgather_u64(comm.rank() as u64 * 10)
        });
        for row in out {
            assert_eq!(row, vec![0, 10, 20, 30, 40, 50]);
        }
    }

    #[test]
    fn allgather_vec_collects_rows() {
        let out = run_world_default::<CollPayload, Vec<Vec<u64>>, _>(3, |comm| {
            let r = comm.rank() as u64;
            comm.allgather_vec_u64(vec![r; comm.rank() + 1])
        });
        for rows in out {
            assert_eq!(rows, vec![vec![0], vec![1, 1], vec![2, 2, 2]]);
        }
    }

    #[test]
    fn alltoall_transposes() {
        // rank i sends row[j] = i*10 + j to rank j; rank j should end up
        // with out[i] = i*10 + j.
        let out = run_world_default::<CollPayload, Vec<u64>, _>(4, |comm| {
            let i = comm.rank() as u64;
            let row: Vec<u64> = (0..4).map(|j| i * 10 + j).collect();
            comm.alltoall_u64(&row)
        });
        for (j, got) in out.into_iter().enumerate() {
            let expect: Vec<u64> = (0..4).map(|i| i * 10 + j as u64).collect();
            assert_eq!(got, expect, "rank {j}");
        }
    }

    #[test]
    fn collectives_ignore_in_flight_user_messages() {
        // A user message sent before a collective must survive it.
        let out = run_world_default::<CollPayload, u64, _>(3, |comm| {
            let next = (comm.rank() + 1) % 3;
            comm.send(next, 1, CollPayload::U64(comm.rank() as u64));
            comm.allgather_u64(0);
            let v = comm.allgather_u64(7);
            assert_eq!(v, vec![7, 7, 7]);
            let prev = (comm.rank() + 2) % 3;
            match comm.recv_match(prev, 1).payload {
                CollPayload::U64(v) => v,
                _ => unreachable!(),
            }
        });
        assert_eq!(out, vec![2, 0, 1]);
    }

    #[test]
    fn stats_count_traffic() {
        let stats = run_world_default::<CollPayload, CommStats, _>(2, |comm| {
            comm.send(1 - comm.rank(), 5, CollPayload::U64(1));
            let _ = comm.recv_match(1 - comm.rank(), 5);
            comm.allgather_u64(0);
            comm.stats()
        });
        for s in stats {
            assert!(s.packets_sent >= 2, "p2p + allgather: {s:?}");
            assert!(s.packets_received >= 2);
            assert_eq!(s.collectives, 1);
            assert!(s.bytes_sent >= 8);
        }
    }

    #[test]
    fn back_to_back_collectives_do_not_cross_talk() {
        let out = run_world_default::<CollPayload, (Vec<u64>, Vec<u64>), _>(4, |comm| {
            let a = comm.allgather_u64(comm.rank() as u64);
            let b = comm.allgather_u64(100 + comm.rank() as u64);
            (a, b)
        });
        for (a, b) in out {
            assert_eq!(a, vec![0, 1, 2, 3]);
            assert_eq!(b, vec![100, 101, 102, 103]);
        }
    }
}
