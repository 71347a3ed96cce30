//! The queue under every rank's mailbox: an unbounded FIFO channel with
//! many senders and the single consumer a [`crate::Mailbox`] is.
//!
//! A `Mutex<VecDeque>` plus a `Condvar`, deliberately: the receiver
//! must report its backlog ([`Receiver::len`], the `recv-queue-depth`
//! gauge), which `std::sync::mpsc` cannot, and a receive only parks
//! here after the `Mailbox`'s spin phase has already polled `try_recv`,
//! so an uncontended lock is what the hot path pays. Either side learns of
//! the other's departure: a send to a dropped receiver is an error, and
//! a receive from an empty queue with no sender left (or after
//! [`Sender::hang_up`]) reports the disconnect instead of blocking. Only
//! queue pushes, pops and flag writes run under the lock, so it cannot be
//! poisoned and is simply unwrapped.
//!
//! A send notifies the condvar only when the receiver is parked in
//! [`Receiver::recv_timeout`], which it records under the queue lock
//! before it waits — the eventcount rule of the shm doorbell (`waiters >
//! 0` before `futex_wake_all`). A futex condvar makes a wake syscall on
//! every `notify_one`, parked waiter or not; skipping it is what lets a
//! rank stream small packets to a spinning peer (DESIGN §4b).
//!
//! The hot functions are otherwise kept as `perfbench`'s
//! `thr-switch-pa250k-p2` and `mpi.pingpong_us` have always measured
//! them; a tidier rewrite (unit send error, boolean receiver flag, a
//! `lock` helper) read about 5 % slower on that row.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

struct Shared<T> {
    queue: Mutex<Queue<T>>,
    ready: Condvar,
    senders: AtomicUsize,
    receivers: AtomicUsize,
}

/// What the lock guards: the values, and what a send must know of the
/// receiver.
struct Queue<T> {
    values: VecDeque<T>,
    /// The receiver is waiting on the condvar: a send must notify it.
    parked: bool,
    /// A sender hung up for every sender ([`Sender::hang_up`]).
    hung_up: bool,
}

/// An empty channel: its first sender and its receiver.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        queue: Mutex::new(Queue {
            values: VecDeque::new(),
            parked: false,
            hung_up: false,
        }),
        ready: Condvar::new(),
        senders: AtomicUsize::new(1),
        receivers: AtomicUsize::new(1),
    });
    (Sender(shared.clone()), Receiver(shared))
}

/// The receiver is gone; the unsent value comes back.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Why [`Receiver::try_recv`] returned nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// Nothing queued right now.
    Empty,
    /// Nothing queued and every sender dropped.
    Disconnected,
}

/// Why [`Receiver::recv_timeout`] returned nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// Nothing arrived within the timeout.
    Timeout,
    /// Nothing queued and every sender dropped.
    Disconnected,
}

/// A sending handle; clones feed the same queue, each in FIFO order.
pub struct Sender<T>(Arc<Shared<T>>);

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.0.senders.fetch_add(1, Ordering::SeqCst);
        Sender(self.0.clone())
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.0.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Take the lock so a receiver between its disconnect check
            // and its wait cannot miss this wake-up.
            let _queue = self.0.queue.lock();
            self.0.ready.notify_all();
        }
    }
}

impl<T> Sender<T> {
    /// Queue `value`, waking the receiver if it is parked.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        if self.0.receivers.load(Ordering::SeqCst) == 0 {
            return Err(SendError(value));
        }
        let mut queue = self.0.queue.lock().unwrap();
        queue.values.push_back(value);
        let parked = queue.parked;
        drop(queue);
        if parked {
            self.0.ready.notify_one();
        }
        Ok(())
    }

    /// Disconnect the channel as if every sender had dropped: once the
    /// queued values are received, receives report
    /// [`RecvTimeoutError::Disconnected`], and a parked receiver wakes to
    /// say so. How a dying rank tells the others it will send nothing more.
    pub fn hang_up(&self) {
        self.0.queue.lock().unwrap().hung_up = true;
        self.0.ready.notify_all();
    }
}

/// The receiving end (one per channel).
pub struct Receiver<T>(Arc<Shared<T>>);

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.0.receivers.fetch_sub(1, Ordering::SeqCst);
    }
}

impl<T> Receiver<T> {
    /// Values queued and not yet received.
    pub fn len(&self) -> usize {
        self.0.queue.lock().unwrap().values.len()
    }

    /// The oldest queued value, without blocking.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut queue = self.0.queue.lock().unwrap();
        match queue.values.pop_front() {
            Some(v) => Ok(v),
            None if queue.hung_up || self.0.senders.load(Ordering::SeqCst) == 0 => {
                Err(TryRecvError::Disconnected)
            }
            None => Err(TryRecvError::Empty),
        }
    }

    /// The oldest queued value, parking up to `timeout` for one.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut queue = self.0.queue.lock().unwrap();
        loop {
            if let Some(v) = queue.values.pop_front() {
                return Ok(v);
            }
            if queue.hung_up || self.0.senders.load(Ordering::SeqCst) == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            // Set and cleared under the lock that `send` reads it under,
            // so a send either sees it and notifies or queued its value
            // before this wait's re-check.
            queue.parked = true;
            let (guard, _res) = self.0.ready.wait_timeout(queue, deadline - now).unwrap();
            queue = guard;
            queue.parked = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_per_sender_and_len_tracks_send_and_recv() {
        let (tx_a, rx) = unbounded();
        let tx_b = tx_a.clone();
        assert_eq!(rx.len(), 0);
        for i in 0..50u32 {
            tx_a.send(('a', i)).unwrap();
            tx_b.send(('b', i)).unwrap();
            assert_eq!(rx.len(), 2 * (i as usize + 1));
        }
        let (mut next_a, mut next_b) = (0, 0);
        for left in (0..100).rev() {
            let (who, i) = rx.try_recv().unwrap();
            let next = if who == 'a' { &mut next_a } else { &mut next_b };
            assert_eq!(i, *next, "sender {who} out of order");
            *next += 1;
            assert_eq!(rx.len(), left);
        }
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn senders_on_other_threads_stay_ordered() {
        let (tx, rx) = unbounded();
        std::thread::scope(|scope| {
            for who in 0..4u32 {
                let tx = tx.clone();
                scope.spawn(move || (0..500u32).for_each(|i| tx.send((who, i)).unwrap()));
            }
            drop(tx);
            let mut next = [0u32; 4];
            loop {
                match rx.recv_timeout(Duration::from_secs(30)) {
                    Ok((who, i)) => {
                        assert_eq!(i, next[who as usize]);
                        next[who as usize] += 1;
                    }
                    Err(err) => {
                        assert_eq!(err, RecvTimeoutError::Disconnected);
                        break;
                    }
                }
            }
            assert_eq!(next, [500; 4]);
        });
    }

    #[test]
    fn recv_timeout_times_out_on_a_live_empty_channel() {
        let (_tx, rx) = unbounded::<u8>();
        let started = Instant::now();
        let timeout = Duration::from_millis(20);
        assert_eq!(rx.recv_timeout(timeout), Err(RecvTimeoutError::Timeout));
        assert!(started.elapsed() >= timeout);
    }

    #[test]
    fn both_sides_report_the_other_sides_departure() {
        let (tx, rx) = unbounded();
        tx.send(1u8).unwrap();
        drop(rx);
        assert_eq!(tx.send(2), Err(SendError(2)));

        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        tx.send(7u8).unwrap();
        drop(tx);
        // One sender is left: empty is not yet disconnected.
        assert_eq!(rx.try_recv(), Ok(7));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx2.send(8).unwrap();
        drop(tx2);
        // Queued values outlive their senders.
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(8));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn a_parked_receiver_wakes_when_the_last_sender_drops() {
        let (tx, rx) = unbounded::<u8>();
        std::thread::scope(|scope| {
            let parked = scope.spawn(|| rx.recv_timeout(Duration::from_secs(30)));
            drop(tx);
            assert_eq!(parked.join().unwrap(), Err(RecvTimeoutError::Disconnected));
        });
    }

    #[test]
    fn a_ping_pong_of_parking_receives_loses_no_wake_up() {
        // Every receive parks at once, so each round races a park against
        // a send; a lost wake-up fails here as a timeout, never a hang.
        // A spin of varying length before each receive slides the park
        // across the moment the peer's send lands.
        const ROUNDS: u32 = 100_000;
        let deadline = Duration::from_secs(10);
        let (ping, pinged) = unbounded::<u32>();
        let (pong, ponged) = unbounded::<u32>();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for i in 0..ROUNDS {
                    (0..i % 61).for_each(|_| std::hint::spin_loop());
                    assert_eq!(pinged.recv_timeout(deadline), Ok(i), "ping {i} lost");
                    pong.send(i).unwrap();
                }
            });
            for i in 0..ROUNDS {
                ping.send(i).unwrap();
                (0..i % 64).for_each(|_| std::hint::spin_loop());
                assert_eq!(ponged.recv_timeout(deadline), Ok(i), "pong {i} lost");
            }
        });
    }

    #[test]
    fn hanging_up_wakes_a_parked_receiver_after_the_queue_drains() {
        let (tx, rx) = unbounded::<u8>();
        let other = tx.clone();
        tx.send(1).unwrap();
        std::thread::scope(|scope| {
            let parked = scope.spawn(|| {
                let first = rx.recv_timeout(Duration::from_secs(30));
                (first, rx.recv_timeout(Duration::from_secs(30)))
            });
            while !other.0.queue.lock().unwrap().parked {
                assert!(!parked.is_finished(), "the receiver never parked");
                std::thread::yield_now();
            }
            other.hang_up();
            assert_eq!(
                parked.join().unwrap(),
                (Ok(1), Err(RecvTimeoutError::Disconnected))
            );
        });
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }
}
