//! Streaming edge production: generator → consumer in bounded chunks.
//!
//! The scale ceiling of the materialized pipeline is memory, not
//! compute: a generator fills a global `Vec<Edge>`, `Graph::from_edges`
//! copies it into pool + adjacency, and `build_stores` copies it again
//! into per-rank pools — three O(m) residents at peak. [`EdgeStream`]
//! replaces the global list with a pull-based chunk protocol: the
//! consumer hands the stream a reusable buffer, the stream refills it
//! with the next few tens of thousands of edges, and the consumer
//! routes each chunk straight into its destination structure
//! ([`crate::graph::Graph::from_stream`], one rank's pool by
//! [`crate::store::build_rank_store_streamed`]). Peak residency is the
//! destination itself plus one chunk.
//!
//! For distributed construction, [`OwnedOnly`] filters a stream down to
//! one rank's edges. Paired with a *recomputation-based* generator
//! (every rank re-derives the full deterministic edge sequence from the
//! seed — see `crate::generators`), rank `r` emits exactly the edges
//! whose owner is `r` with zero communication, so a process-backed
//! world can boot from an O(1) seed blob instead of an O(m) edge list.
//!
//! Streams are allowed to re-emit an edge (the recomputation PA model
//! produces occasional multi-edges); consumers deduplicate on insert.
//! Emission *order* is part of a stream's determinism contract: two
//! streams constructed with the same parameters and seed must produce
//! the identical edge sequence, chunk boundaries aside.

use crate::partition::Partitioner;
use crate::types::Edge;

/// Default edges per refilled chunk (64 Ki edges = 1 MiB of packed
/// endpoints): large enough to amortize per-chunk dispatch, small
/// enough to be RSS-invisible next to any graph worth streaming.
pub const DEFAULT_CHUNK_EDGES: usize = 1 << 16;

/// A finite edge producer consumed in chunks.
///
/// The contract mirrors `Iterator`, batched: `next_chunk` clears the
/// caller's buffer, refills it with the next run of edges (the stream
/// picks the batch size; [`DEFAULT_CHUNK_EDGES`] is conventional), and
/// returns `true` iff it produced at least one edge. After the first
/// `false` the stream is exhausted and every later call must also
/// leave the buffer empty and return `false`. Implementations must
/// never return `true` with an empty buffer — consumers drive plain
/// `while` loops off the return value.
pub trait EdgeStream {
    /// Bounds on the number of edges *remaining*, `(lower, upper)` with
    /// `upper = None` for unknown — same convention as
    /// `Iterator::size_hint`. Consumers use it to pre-size indexes;
    /// correctness never depends on it.
    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, None)
    }

    /// Refill `chunk` with the next run of edges. See the trait docs
    /// for the exhaustion contract.
    fn next_chunk(&mut self, chunk: &mut Vec<Edge>) -> bool;
}

impl<S: EdgeStream + ?Sized> EdgeStream for &mut S {
    fn size_hint(&self) -> (usize, Option<usize>) {
        (**self).size_hint()
    }

    fn next_chunk(&mut self, chunk: &mut Vec<Edge>) -> bool {
        (**self).next_chunk(chunk)
    }
}

/// Adapt any edge iterator into an [`EdgeStream`] (the bridge for the
/// materialized generators and for re-streaming an existing graph's
/// pool order via `Graph::edges`).
pub struct IterStream<I> {
    iter: I,
    chunk_edges: usize,
}

impl<I: Iterator<Item = Edge>> IterStream<I> {
    /// Stream `iter` in [`DEFAULT_CHUNK_EDGES`]-sized chunks.
    pub fn new<T: IntoIterator<IntoIter = I>>(iter: T) -> Self {
        Self::with_chunk_edges(iter, DEFAULT_CHUNK_EDGES)
    }

    /// Stream `iter` in `chunk_edges`-sized chunks (tests use tiny
    /// chunks to exercise boundary handling).
    pub fn with_chunk_edges<T: IntoIterator<IntoIter = I>>(iter: T, chunk_edges: usize) -> Self {
        IterStream {
            iter: iter.into_iter(),
            chunk_edges: chunk_edges.max(1),
        }
    }
}

impl<I: Iterator<Item = Edge>> EdgeStream for IterStream<I> {
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.iter.size_hint()
    }

    fn next_chunk(&mut self, chunk: &mut Vec<Edge>) -> bool {
        chunk.clear();
        chunk.extend(self.iter.by_ref().take(self.chunk_edges));
        !chunk.is_empty()
    }
}

/// Filter a stream down to the edges owned by one rank: edge `(u, v)`
/// with `u < v` passes iff `part.owner(u) == rank` — the same reduced
/// adjacency ownership rule as `build_stores`.
///
/// This is the communication-free emission adapter: every rank runs the
/// *full* generator (recomputing all random choices from the shared
/// seed) wrapped in its own `OwnedOnly`, and keeps only its share.
/// Generation work is O(m) per rank, memory is O(m/p) per rank, and
/// the union over ranks is exactly the unfiltered stream.
pub struct OwnedOnly<'p, S> {
    inner: S,
    part: &'p Partitioner,
    rank: usize,
}

impl<'p, S: EdgeStream> OwnedOnly<'p, S> {
    /// Wrap `inner`, keeping only edges `part` assigns to `rank`.
    pub fn new(inner: S, part: &'p Partitioner, rank: usize) -> Self {
        OwnedOnly { inner, part, rank }
    }
}

impl<S: EdgeStream> EdgeStream for OwnedOnly<'_, S> {
    fn size_hint(&self) -> (usize, Option<usize>) {
        // Anywhere from none to all of the inner edges may be owned.
        (0, self.inner.size_hint().1)
    }

    fn next_chunk(&mut self, chunk: &mut Vec<Edge>) -> bool {
        // An inner chunk can filter down to nothing; keep pulling until
        // an owned edge shows up so `true` always means non-empty.
        while self.inner.next_chunk(chunk) {
            chunk.retain(|e| self.part.owner(e.src()) == self.rank);
            if !chunk.is_empty() {
                return true;
            }
        }
        chunk.clear();
        false
    }
}

/// A size hint for pre-allocation: the checked upper bound when the
/// stream (or iterator) reports one, else the lower bound. An upper
/// bound below the lower bound is a contract violation; it is ignored
/// rather than trusted.
pub fn capacity_hint(size_hint: (usize, Option<usize>)) -> usize {
    let (lo, hi) = size_hint;
    hi.filter(|&h| h >= lo).unwrap_or(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Edge;

    fn ring(n: u64) -> Vec<Edge> {
        (0..n).map(|i| Edge::new(i, (i + 1) % n)).collect()
    }

    #[test]
    fn iter_stream_yields_everything_in_order() {
        let edges = ring(100);
        let mut s = IterStream::with_chunk_edges(edges.clone(), 7);
        assert_eq!(capacity_hint(s.size_hint()), 100);
        let mut got = Vec::new();
        let mut chunk = Vec::new();
        while s.next_chunk(&mut chunk) {
            assert!(!chunk.is_empty());
            assert!(chunk.len() <= 7);
            got.extend_from_slice(&chunk);
        }
        assert_eq!(got, edges);
        // Exhausted streams stay exhausted with an empty buffer.
        assert!(!s.next_chunk(&mut chunk));
        assert!(chunk.is_empty());
    }

    #[test]
    fn owned_only_partitions_the_stream_exactly() {
        let edges = ring(257);
        let part = Partitioner::hash_division(4);
        let mut union: Vec<Edge> = Vec::new();
        for rank in 0..4 {
            let mut s =
                OwnedOnly::new(IterStream::with_chunk_edges(edges.clone(), 16), &part, rank);
            let mut chunk = Vec::new();
            while s.next_chunk(&mut chunk) {
                for &e in &chunk {
                    assert_eq!(part.owner(e.src()), rank);
                    union.push(e);
                }
            }
        }
        union.sort_unstable();
        let mut expect = edges;
        expect.sort_unstable();
        assert_eq!(union, expect, "rank streams must partition the edge set");
    }

    #[test]
    fn owned_only_skips_empty_inner_chunks() {
        // With 1-edge inner chunks most refills filter to nothing; the
        // adapter must keep pulling rather than report early exhaustion.
        let edges = ring(64);
        let part = Partitioner::hash_division(8);
        let mut total = 0usize;
        for rank in 0..8 {
            let mut s = OwnedOnly::new(IterStream::with_chunk_edges(edges.clone(), 1), &part, rank);
            let mut chunk = Vec::new();
            while s.next_chunk(&mut chunk) {
                total += chunk.len();
            }
        }
        assert_eq!(total, 64);
    }

    #[test]
    fn capacity_hint_prefers_checked_upper_bound() {
        assert_eq!(capacity_hint((0, Some(10))), 10);
        assert_eq!(capacity_hint((3, Some(7))), 7);
        assert_eq!(capacity_hint((5, None)), 5);
        // A nonsense upper bound below the lower bound is ignored.
        assert_eq!(capacity_hint((5, Some(2))), 5);
    }
}
