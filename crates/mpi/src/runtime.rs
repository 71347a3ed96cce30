//! Spawning a world of ranks as scoped threads.

use crate::channel::unbounded;
use crate::comm::{CollCarrier, Comm};
use crate::link::Mailbox;
use crate::packet::Packet;

/// Configuration of a threaded world. It has no settings: the receive
/// spin budget and deadlock timeout are [`Comm`]'s constants
/// ([`crate::SPIN_RELAX`], [`crate::SPIN_TOTAL`], [`crate::RECV_TIMEOUT`])
/// on every link, threads and processes alike.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorldConfig {}

/// Run `f` on `p` ranks, each in its own thread with a connected
/// [`Comm`]; returns the per-rank results in rank order.
///
/// This is the SPMD entry point: every rank runs the same closure and
/// branches on `comm.rank()`, exactly like an `MPI_COMM_WORLD` program.
///
/// # Panics
/// Propagates the first rank panic (including recv timeouts, which turn
/// protocol deadlocks into loud test failures).
pub fn run_world<M, T, F>(p: usize, _config: WorldConfig, f: F) -> Vec<T>
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
        .map(|(rank, receiver)| {
            let senders = senders.clone();
            Comm::new(rank, p, Mailbox { senders, receiver })
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
