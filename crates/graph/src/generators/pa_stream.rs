//! Communication-free streaming preferential attachment.
//!
//! Sanders/Schulz-style recomputation generation (arXiv 1602.07106):
//! instead of materializing the Batagelj–Brandes endpoint array — whose
//! O(m) residency is exactly what a distributed generator must avoid —
//! every random choice is a *seeded hash* of its position, so any
//! worker can re-derive any predecessor's choice on demand. Rank `r`
//! wraps the stream in [`crate::stream::OwnedOnly`] and emits exactly
//! the edges it owns with zero communication; the union over ranks is
//! the full graph, bit-identical for any processor count.
//!
//! The slot model: edge `i` occupies slots `2i` (its arriving vertex)
//! and `2i + 1` (its target). The first `d` edges are the seed star —
//! edge `k < d` joins hub `d` to vertex `k` — and each later vertex
//! `v = d+1, …, n−1` arrives with `d` edges, so edge `i ≥ d` belongs to
//! vertex `v(i) = d + 1 + (i − d)/d`. Its target is found by drawing a
//! uniform slot `j ∈ [0, 2i)` and *resolving* it: an even slot is the
//! arriving vertex of edge `j/2` (computable in O(1)); an odd slot
//! means "copy edge `j/2`'s target", which recurses on that edge's own
//! first draw. Slot indices strictly decrease, so the chain terminates
//! (expected O(1) steps), and landing on an odd slot with probability
//! proportional to prior occurrences is precisely the
//! degree-proportional attachment that produces the heavy tail. Draws
//! that would self-loop retry with the attempt counter; occasional
//! duplicate edges are emitted and deduplicated by the consumer
//! (`Graph::from_stream` / store insert), per the streaming contract.

use super::check_preferential_attachment;
use crate::graph::Graph;
use crate::hashing::mix64;
use crate::stream::{EdgeStream, DEFAULT_CHUNK_EDGES};
use crate::types::Edge;

/// Retry budget for re-drawing a self-looping target before falling
/// back to the hub (always a valid, distinct earlier vertex). The
/// self-loop probability per attempt is `deg(v)/2i < 1/2`, so 64
/// independent attempts fail with probability < 2⁻⁶⁴ — the fallback is
/// a termination guarantee, not a code path that runs in practice.
const MAX_ATTEMPTS: u64 = 64;

/// The seeded hash substream: draw `attempt` for edge `i`.
#[inline]
fn draw(seed: u64, i: u64, attempt: u64) -> u64 {
    mix64(mix64(seed) ^ mix64(i) ^ mix64(attempt.wrapping_add(0x7061_5f61_7474)))
}

/// Map a hash word uniformly onto `[0, range)` (Lemire reduction).
#[inline]
fn bounded(h: u64, range: u64) -> u64 {
    ((h as u128 * range as u128) >> 64) as u64
}

/// The arriving vertex of edge `i ≥ d` (edges `< d` are the seed star).
#[inline]
fn arriving(d: u64, i: u64) -> u64 {
    d + 1 + (i - d) / d
}

/// Resolve slot `j` to the vertex occupying it, recomputing prior draws
/// from the seed instead of reading a stored endpoint array.
fn resolve(seed: u64, d: u64, mut j: u64) -> u64 {
    loop {
        let i = j / 2;
        if i < d {
            // Seed star: even slots hold the hub, odd slot 2k+1 holds k.
            return if j & 1 == 0 { d } else { i };
        }
        if j & 1 == 0 {
            return arriving(d, i);
        }
        // Odd slot: copy edge i's target — recurse on its first draw.
        j = bounded(draw(seed, i, 0), 2 * i);
    }
}

/// Edge `i` of the recomputation PA process over `(n, d, seed)` — a
/// pure function, the unit every rank can evaluate independently.
pub fn pa_stream_edge(seed: u64, d: u64, i: u64) -> Edge {
    if i < d {
        return Edge::new(i, d);
    }
    let v = arriving(d, i);
    // Fallback target: the hub, always present and never equal to v.
    let mut target = d;
    for attempt in 0..MAX_ATTEMPTS {
        let candidate = resolve(seed, d, bounded(draw(seed, i, attempt), 2 * i));
        if candidate != v {
            target = candidate;
            break;
        }
    }
    Edge::new(v, target)
}

/// Streaming communication-free preferential attachment: `n` vertices,
/// `d` edges per arrival, minimum degree `d` (before deduplication).
///
/// Emits `d + (n − d − 1)·d` raw edges in index order; consumers drop
/// the occasional duplicate, so the realized `m` is marginally smaller.
/// The emitted sequence is a pure function of `(n, d, seed)`.
pub struct PaStream {
    seed: u64,
    d: u64,
    next: u64,
    raw_edges: u64,
    chunk_edges: usize,
}

impl PaStream {
    /// Stream for an `n`-vertex, `d`-per-arrival process.
    ///
    /// # Panics
    /// Panics unless [`check_preferential_attachment`] accepts `(n, d)`.
    pub fn new(n: usize, d: usize, seed: u64) -> Self {
        check_preferential_attachment(n, d).unwrap_or_else(|why| panic!("{why}"));
        PaStream {
            seed,
            d: d as u64,
            next: 0,
            raw_edges: Self::raw_edges(n, d),
            chunk_edges: DEFAULT_CHUNK_EDGES,
        }
    }

    /// Raw emitted edge count for `(n, d)`: the seed star plus `d` per
    /// arriving vertex (an upper bound on the deduplicated `m`).
    pub fn raw_edges(n: usize, d: usize) -> u64 {
        (d + n.saturating_sub(d + 1) * d) as u64
    }
}

impl EdgeStream for PaStream {
    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = (self.raw_edges - self.next) as usize;
        (remaining, Some(remaining))
    }

    fn next_chunk(&mut self, chunk: &mut Vec<Edge>) -> bool {
        chunk.clear();
        let end = self.raw_edges.min(self.next + self.chunk_edges as u64);
        for i in self.next..end {
            chunk.push(pa_stream_edge(self.seed, self.d, i));
        }
        self.next = end;
        !chunk.is_empty()
    }
}

/// Materialize the recomputation PA graph (deduplicated) — the
/// single-process convenience over [`PaStream`] + [`Graph::from_stream`].
pub fn pa_stream_graph(n: usize, d: usize, seed: u64) -> Graph {
    Graph::from_stream(n, &mut PaStream::new(n, d, seed))
        .expect("PA stream emits only in-range endpoints")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::OwnedOnly;
    use crate::Partitioner;

    fn collect(mut s: impl EdgeStream) -> Vec<Edge> {
        let (mut all, mut chunk) = (Vec::new(), Vec::new());
        while s.next_chunk(&mut chunk) {
            all.extend_from_slice(&chunk);
        }
        all
    }

    #[test]
    fn stream_is_deterministic_per_seed() {
        let a = collect(PaStream::new(500, 4, 77));
        let b = collect(PaStream::new(500, 4, 77));
        let c = collect(PaStream::new(500, 4, 78));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len() as u64, PaStream::raw_edges(500, 4));
    }

    #[test]
    fn graph_is_simple_connected_min_degree_and_heavy_tailed() {
        let g = pa_stream_graph(2000, 5, 1);
        g.check_invariants().unwrap();
        assert!(g.num_edges() as u64 <= PaStream::raw_edges(2000, 5));
        // Every vertex arrived with d edges; dedup can only merge a few.
        assert!(
            (0..2000).all(|v| g.degree(v as u64) >= 1),
            "isolated vertex"
        );
        assert!(
            g.max_degree() >= 10 * 5,
            "no heavy tail: max degree {}",
            g.max_degree()
        );
    }

    #[test]
    fn rank_streams_partition_the_full_stream_for_every_p() {
        let full = collect(PaStream::new(300, 3, 5));
        for p in [1usize, 2, 4] {
            let part = Partitioner::hash_multiplication(p);
            let mut union: Vec<Edge> = Vec::new();
            for rank in 0..p {
                let got = collect(OwnedOnly::new(PaStream::new(300, 3, 5), &part, rank));
                let expect: Vec<Edge> = full
                    .iter()
                    .copied()
                    .filter(|e| part.owner(e.src()) == rank)
                    .collect();
                assert_eq!(got, expect, "p={p} rank={rank} not bit-identical");
                union.extend(got);
            }
            assert_eq!(union.len(), full.len(), "p={p}: ranks must cover all edges");
        }
    }

    #[test]
    fn smallest_valid_configurations_work() {
        // n = d + 1: just the seed star.
        let g = pa_stream_graph(4, 3, 9);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(3), 3);
        let g = pa_stream_graph(2, 1, 9);
        assert_eq!(g.num_edges(), 1);
    }
}
