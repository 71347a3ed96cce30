//! What moves a [`Comm`](crate::Comm)'s packets: the [`Link`] trait, and
//! [`Mailbox`], the in-process link every [`crate::run_world`] rank gets.
//!
//! A link only carries packets. Tag matching, the pending buffer, the
//! collectives and the traffic counters live in `Comm`, once, for every
//! link; `Comm` is generic over its link, so dispatch is static.

use crate::channel::{Receiver, Sender};
use crate::comm::{RECV_TIMEOUT, SPIN_RELAX, SPIN_TOTAL};
use crate::packet::Packet;
use std::time::Instant;

/// One rank's connection to the other ranks of its world.
pub trait Link<M> {
    /// Deliver `packet` to rank `dst`.
    ///
    /// # Panics
    /// Panics if `dst` can no longer receive.
    fn post(&mut self, dst: usize, packet: Packet<M>);
    /// The oldest arrived packet, without blocking.
    fn poll(&mut self) -> Option<Packet<M>>;
    /// The oldest packet, blocking for it: poll [`SPIN_RELAX`] times with
    /// a CPU relax hint, then with `yield_now` up to [`SPIN_TOTAL`] polls
    /// (an oversubscribed sender gets to run), then park. Returns the
    /// packet with the nanoseconds spent parked (`None` if it came while
    /// spinning), or `None` when nothing came within [`RECV_TIMEOUT`].
    fn block(&mut self) -> Option<(Packet<M>, Option<u64>)>;
    /// Packets arrived and not yet polled, as far as the link can tell
    /// cheaply (the `recv-queue-depth` gauge).
    fn backlog(&self) -> usize;
}

/// The link of a threaded world: one channel into each rank, whose
/// receiving end this rank owns.
pub struct Mailbox<M> {
    pub(crate) senders: Vec<Sender<Packet<M>>>,
    pub(crate) receiver: Receiver<Packet<M>>,
}

impl<M> Link<M> for Mailbox<M> {
    fn post(&mut self, dst: usize, packet: Packet<M>) {
        let src = packet.src;
        self.senders[dst]
            .send(packet)
            .unwrap_or_else(|_| panic!("rank {src} -> {dst}: receiver disconnected"));
    }

    fn poll(&mut self) -> Option<Packet<M>> {
        self.receiver.try_recv().ok()
    }

    /// Park time is metered around the channel wait (the park already
    /// costs microseconds, so the `Instant` reads are noise).
    fn block(&mut self) -> Option<(Packet<M>, Option<u64>)> {
        for spin in 0..SPIN_TOTAL {
            if let Ok(p) = self.receiver.try_recv() {
                return Some((p, None));
            }
            if spin < SPIN_RELAX {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        let parked_at = Instant::now();
        let p = self.receiver.recv_timeout(RECV_TIMEOUT).ok()?;
        Some((p, Some(parked_at.elapsed().as_nanos() as u64)))
    }

    fn backlog(&self) -> usize {
        self.receiver.len()
    }
}
