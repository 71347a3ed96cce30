//! Shared-memory plumbing for the process-backed parallel transport.
//!
//! Three layers, bottom-up:
//!
//! * `sys`-level raw syscalls (`memfd_create`, `mmap`, `futex`, `prctl`)
//!   declared by hand so the crate needs no dependencies;
//! * [`SpscRing`], a lock-free single-producer/single-consumer byte ring with
//!   `[u32 len]`-framed messages over any 8-byte-aligned memory;
//! * [`ShmWorld`], one anonymous mapping holding a boot blob, per-participant
//!   futex doorbells, and a k×k grid of rings, attachable from child
//!   processes through an inherited file descriptor.
//!
//! The crate knows nothing about edge switching: it moves tagged byte frames
//! between processes. See `edgeswitch-core`'s `parallel::proc` module for the
//! protocol layered on top.

#![warn(missing_docs)]

mod map;
mod ring;
mod sys;
mod world;

pub use map::SharedMapping;
pub use ring::{SpscRing, FRAME_OVERHEAD, RING_HDR};
pub use sys::{die_with_parent, parent_pid, SUPPORTED};
pub use world::{Endpoint, ShmWorld, WaitOutcome};
