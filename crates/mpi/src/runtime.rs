//! Spawning a world of ranks as scoped threads.

use crate::channel::unbounded;
use crate::comm::{CollCarrier, Comm, DEFAULT_SPIN_RELAX, DEFAULT_SPIN_TOTAL};
use crate::packet::Packet;
use std::time::Duration;

/// Configuration for a threaded world.
#[derive(Clone, Copy, Debug)]
pub struct WorldConfig {
    /// Per-receive deadlock timeout; a rank that waits longer panics.
    pub recv_timeout: Duration,
    /// Busy-spin iterations with CPU relax hints at the start of a
    /// blocking receive.
    pub spin_relax: u32,
    /// Total spin iterations (relax, then `yield_now`) before the receive
    /// parks on the channel. Keep small when ranks timeshare cores; grow
    /// it once each rank owns one.
    pub spin_total: u32,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            recv_timeout: Duration::from_secs(120),
            spin_relax: DEFAULT_SPIN_RELAX,
            spin_total: DEFAULT_SPIN_TOTAL,
        }
    }
}

/// Run `f` on `p` ranks, each in its own thread with a connected
/// [`Comm`]; returns the per-rank results in rank order.
///
/// This is the SPMD entry point: every rank runs the same closure and
/// branches on `comm.rank()`, exactly like an `MPI_COMM_WORLD` program.
///
/// # Panics
/// Propagates the first rank panic (including recv timeouts, which turn
/// protocol deadlocks into loud test failures).
pub fn run_world<M, T, F>(p: usize, config: WorldConfig, f: F) -> Vec<T>
where
    M: CollCarrier + Send + 'static,
    T: Send,
    F: Fn(&mut Comm<M>) -> T + Send + Sync,
{
    assert!(p >= 1, "world needs at least one rank");
    let mut senders = Vec::with_capacity(p);
    let mut receivers = Vec::with_capacity(p);
    for _ in 0..p {
        let (tx, rx) = unbounded::<Packet<M>>();
        senders.push(tx);
        receivers.push(rx);
    }
    let f = &f;
    let mut comms: Vec<Comm<M>> = receivers
        .into_iter()
        .enumerate()
        .map(|(rank, rx)| {
            Comm::new(
                rank,
                senders.clone(),
                rx,
                config.recv_timeout,
                config.spin_relax,
                config.spin_total,
            )
        })
        .collect();
    // Channels now live only inside the Comms, so a send to a finished
    // rank fails fast instead of queueing forever.
    drop(senders);

    std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .iter_mut()
            .map(|comm| scope.spawn(move || f(comm)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    })
}

/// [`run_world`] with the default configuration.
pub fn run_world_default<M, T, F>(p: usize, f: F) -> Vec<T>
where
    M: CollCarrier + Send + 'static,
    T: Send,
    F: Fn(&mut Comm<M>) -> T + Send + Sync,
{
    run_world(p, WorldConfig::default(), f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::CollPayload;

    #[test]
    fn ranks_see_their_ids() {
        let out = run_world_default::<CollPayload, _, _>(4, |comm| (comm.rank(), comm.size()));
        assert_eq!(out, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn point_to_point_ring() {
        let out = run_world_default::<CollPayload, usize, _>(5, |comm| {
            let next = (comm.rank() + 1) % comm.size();
            comm.send(next, 7, CollPayload::U64(comm.rank() as u64));
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            let pkt = comm.recv_match(prev, 7);
            match pkt.payload {
                CollPayload::U64(v) => v as usize,
                _ => unreachable!(),
            }
        });
        assert_eq!(out, vec![4, 0, 1, 2, 3]);
    }

    #[test]
    fn single_rank_world() {
        let out = run_world_default::<CollPayload, _, _>(1, |comm| {
            comm.allgather_u64(0);
            comm.allgather_u64(42)
        });
        assert_eq!(out, vec![vec![42]]);
    }

    #[test]
    fn self_send_is_received() {
        let out = run_world_default::<CollPayload, u64, _>(2, |comm| {
            let me = comm.rank();
            comm.send(me, 3, CollPayload::U64(9 + me as u64));
            match comm.recv_match(me, 3).payload {
                CollPayload::U64(v) => v,
                _ => unreachable!(),
            }
        });
        assert_eq!(out, vec![9, 10]);
    }
}
