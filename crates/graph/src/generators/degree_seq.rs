//! Prescribed-degree-sequence construction, streamed.
//!
//! Bhuiyan-style parallel graph construction (arXiv 1708.07290): the
//! paper's production pipeline first *builds* a graph with an exact
//! prescribed degree sequence, then edge-switches it toward a target
//! visit rate. The constructor here is the generalized Havel–Hakimi
//! greedy: repeatedly pick any vertex `v` with residual degree
//! `r_v > 0` (we pick them in a seeded random order, which is what
//! decorrelates the output from the sorted-by-degree artifact of
//! classic Havel–Hakimi), connect `v` to its `r_v` largest-residual
//! other vertices, and zero `v`'s residual. The generalized
//! Havel–Hakimi theorem guarantees this never gets stuck on a
//! graphical sequence regardless of the order vertices are picked in.
//!
//! Two properties make it stream- and distribution-friendly:
//!
//! - **Simplicity is structural.** Edges are only ever created incident
//!   to the vertex currently being processed, whose residual then drops
//!   to zero — so among vertices with positive residual *no edges
//!   exist*, and connecting `v` to distinct positive-residual vertices
//!   can create neither a duplicate nor a self-loop. No adjacency
//!   lookups, no rejection loop.
//! - **The whole construction is a pure function of `(degrees, seed)`.**
//!   There is no data-dependent randomness beyond the one seeded
//!   processing permutation, so every rank of a distributed world can
//!   replay the identical edge sequence locally and keep only its owned
//!   share ([`crate::stream::OwnedOnly`]) — recomputation instead of
//!   communication, bit-identical across any processor count.
//!
//! The residual bookkeeping is O(1) per endpoint via a bucketed
//! permutation: `perm` keeps vertices sorted by residual descending,
//! `cnt_ge[d]` counts vertices with residual ≥ d, and decrementing a
//! vertex swaps it with the last entry of its equal-residual segment
//! and shrinks the segment boundary. Total O(n + m) time, O(n) state.

use crate::degree::{erdos_gallai, power_law_sequence};
use crate::graph::Graph;
use crate::hashing::mix64;
use crate::sampling::random_permutation;
use crate::stream::{EdgeStream, DEFAULT_CHUNK_EDGES};
use crate::types::{Edge, GraphError};
use edgeswitch_dist::Pcg64;

/// Salt separating the processing-order stream from other users of the
/// same seed (e.g. the degree-sampling stream in [`DegreeSequence::power_law`]).
const ORDER_STREAM_SALT: u64 = 0x6465_675f_6f72_6472; // "deg_ordr"
/// Salt for the power-law degree-sampling stream.
const SAMPLE_STREAM_SALT: u64 = 0x6465_675f_7361_6d70; // "deg_samp"

/// A validated graphical degree sequence: the entry point of the
/// prescribed-degree constructor.
///
/// Construction validates via Erdős–Gallai, so every instance is
/// realizable; [`DegreeSequence::stream`] then yields a seeded
/// [`DegreeSeqStream`] producing a simple graph whose degree sequence
/// matches *exactly*.
#[derive(Clone, Debug)]
pub struct DegreeSequence {
    degrees: Vec<usize>,
}

impl DegreeSequence {
    /// Validate `degrees` (Erdős–Gallai); errors on non-graphical input.
    pub fn new(degrees: Vec<usize>) -> Result<Self, GraphError> {
        if !erdos_gallai(&degrees) {
            return Err(GraphError::UnrealizableDegreeSequence(
                "sequence fails the Erdős–Gallai realizability test".into(),
            ));
        }
        Ok(DegreeSequence { degrees })
    }

    /// A graphical power-law sequence: `Pr{d = k} ∝ k^(−gamma)` over
    /// `[d_min, d_max]`, sampled deterministically from `seed`.
    /// Sampled sequences are parity-fixed but not guaranteed graphical;
    /// this retries fresh substreams (deterministically) until one
    /// passes Erdős–Gallai, erroring after 64 attempts — in practice
    /// the first attempt passes for any reasonable `(gamma, d_max)`.
    pub fn power_law(
        n: usize,
        gamma: f64,
        d_min: usize,
        d_max: usize,
        seed: u64,
    ) -> Result<Self, GraphError> {
        for attempt in 0..64u64 {
            let mut rng = Pcg64::seed_from_u64(mix64(
                mix64(seed) ^ mix64(SAMPLE_STREAM_SALT) ^ mix64(attempt),
            ));
            let seq = power_law_sequence(n, gamma, d_min, d_max, &mut rng);
            if let Ok(ds) = Self::new(seq) {
                return Ok(ds);
            }
        }
        Err(GraphError::UnrealizableDegreeSequence(format!(
            "no graphical power-law sample in 64 attempts (n={n}, gamma={gamma}, \
             d_min={d_min}, d_max={d_max})"
        )))
    }

    /// The prescribed degrees, indexed by vertex label.
    pub fn degrees(&self) -> &[usize] {
        &self.degrees
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.degrees.len()
    }

    /// Exact number of edges the realization will have (`Σd / 2`).
    pub fn num_edges(&self) -> usize {
        (self.degrees.iter().map(|&d| d as u64).sum::<u64>() / 2) as usize
    }

    /// The seeded streaming realization (see [`DegreeSeqStream`]).
    ///
    /// # Panics
    /// Panics if `n > 2^32` (the packed-edge limit, same as
    /// [`Graph::new`]).
    pub fn stream(&self, seed: u64) -> DegreeSeqStream {
        DegreeSeqStream::new(&self.degrees, seed)
    }

    /// Realize the sequence as a materialized [`Graph`].
    pub fn build(&self, seed: u64) -> Graph {
        Graph::from_stream(self.num_vertices(), &mut self.stream(seed))
            .expect("degree-sequence stream emits only in-range, distinct endpoints")
    }
}

/// The streaming generalized Havel–Hakimi realization of a
/// [`DegreeSequence`]: emits `Σd/2` edges in a deterministic order that
/// is a pure function of `(degrees, seed)`, O(n) working state.
pub struct DegreeSeqStream {
    /// Seeded processing order over vertices.
    order: Vec<u32>,
    /// Next index into `order`.
    next: usize,
    /// Vertices sorted by residual descending (ties in deterministic
    /// swap order); `perm[pos[v]] == v`.
    perm: Vec<u32>,
    pos: Vec<u32>,
    /// Residual degree per vertex.
    res: Vec<u32>,
    /// `cnt_ge[d]` = number of vertices with residual ≥ d; the
    /// exactly-d segment of `perm` is `[cnt_ge[d+1], cnt_ge[d])`.
    cnt_ge: Vec<usize>,
    /// Edges still to be emitted.
    remaining: usize,
    /// Scratch for one vertex's target list.
    targets: Vec<u32>,
    chunk_edges: usize,
}

impl DegreeSeqStream {
    /// Seeded stream over a sequence already known to be graphical
    /// (callers go through [`DegreeSequence`], which validates).
    fn new(degrees: &[usize], seed: u64) -> Self {
        let n = degrees.len();
        assert!(
            n as u128 <= 1 << 32,
            "degree sequence over {n} vertices exceeds the 2^32 packed-storage limit"
        );
        let d_max = degrees.iter().copied().max().unwrap_or(0);
        // Bucket counts → suffix counts cnt_ge.
        let mut count = vec![0usize; d_max + 1];
        for &d in degrees {
            count[d] += 1;
        }
        let mut cnt_ge = vec![0usize; d_max + 2];
        for d in (0..=d_max).rev() {
            cnt_ge[d] = cnt_ge[d + 1] + count[d];
        }
        // Counting-sort vertices into perm, descending by degree with
        // ties in ascending label order (deterministic).
        let mut fill: Vec<usize> = (0..=d_max).map(|d| cnt_ge[d + 1]).collect();
        let mut perm = vec![0u32; n];
        let mut pos = vec![0u32; n];
        for (v, &d) in degrees.iter().enumerate() {
            let slot = fill[d];
            fill[d] += 1;
            perm[slot] = v as u32;
            pos[v] = slot as u32;
        }
        let total: u64 = degrees.iter().map(|&d| d as u64).sum();
        let mut rng = Pcg64::seed_from_u64(mix64(mix64(seed) ^ mix64(ORDER_STREAM_SALT)));
        let order: Vec<u32> = random_permutation(n, &mut rng)
            .into_iter()
            .map(|v| v as u32)
            .collect();
        DegreeSeqStream {
            order,
            next: 0,
            perm,
            pos,
            res: degrees.iter().map(|&d| d as u32).collect(),
            cnt_ge,
            remaining: (total / 2) as usize,
            targets: Vec::new(),
            chunk_edges: DEFAULT_CHUNK_EDGES,
        }
    }

    /// Drop `u`'s residual by one, keeping `perm` sorted: swap `u` with
    /// the last entry of its equal-residual segment (also residual `d`,
    /// so order is preserved) and shrink the ≥d boundary over it.
    #[inline]
    fn decrement(&mut self, u: usize) {
        let d = self.res[u] as usize;
        debug_assert!(d > 0);
        let j = self.cnt_ge[d] - 1;
        let pu = self.pos[u] as usize;
        debug_assert!(self.cnt_ge[d + 1] <= pu && pu <= j);
        let w = self.perm[j];
        self.perm.swap(pu, j);
        self.pos[w as usize] = pu as u32;
        self.pos[u] = j as u32;
        self.cnt_ge[d] = j;
        self.res[u] = (d - 1) as u32;
    }

    /// Process the next vertex in the seeded order: emit its residual's
    /// worth of edges into `out`. Returns `false` when every vertex has
    /// been processed.
    fn process_next_vertex(&mut self, out: &mut Vec<Edge>) -> bool {
        loop {
            let Some(&v32) = self.order.get(self.next) else {
                return false;
            };
            self.next += 1;
            let v = v32 as usize;
            let k = self.res[v] as usize;
            if k == 0 {
                continue; // degree-0, or already saturated by earlier picks
            }
            // The k largest-residual vertices other than v, scanning the
            // sorted permutation front (collect first: decrements below
            // reshuffle perm).
            let mut targets = std::mem::take(&mut self.targets);
            targets.clear();
            let mut idx = 0usize;
            while targets.len() < k {
                let u = self.perm[idx];
                idx += 1;
                if u != v32 {
                    assert!(
                        self.res[u as usize] > 0,
                        "graphical degree sequence ran out of positive-residual \
                         candidates — generalized Havel–Hakimi invariant violated"
                    );
                    targets.push(u);
                }
            }
            for &u in &targets {
                out.push(Edge::new(v as u64, u as u64));
                self.decrement(u as usize);
            }
            for _ in 0..k {
                self.decrement(v);
            }
            self.remaining -= k;
            self.targets = targets;
            return true;
        }
    }
}

impl EdgeStream for DegreeSeqStream {
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }

    fn next_chunk(&mut self, chunk: &mut Vec<Edge>) -> bool {
        chunk.clear();
        // Whole vertices are processed per refill, so a chunk may run
        // over the target by up to d_max − 1 edges.
        while chunk.len() < self.chunk_edges {
            if !self.process_next_vertex(chunk) {
                break;
            }
        }
        !chunk.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{IterStream, OwnedOnly};
    use crate::Partitioner;

    #[test]
    fn realizes_the_exact_sequence_simply() {
        let seq = vec![5, 3, 3, 2, 2, 2, 1, 1, 1, 0];
        let ds = DegreeSequence::new(seq.clone()).unwrap();
        let g = ds.build(7);
        assert_eq!(g.degree_sequence(), seq);
        assert_eq!(g.num_edges(), ds.num_edges());
        g.check_invariants().unwrap();
    }

    #[test]
    fn rejects_non_graphical_sequences() {
        assert!(DegreeSequence::new(vec![3, 3, 1, 1]).is_err());
        assert!(DegreeSequence::new(vec![1, 1, 1]).is_err(), "odd sum");
        assert!(DegreeSequence::new(vec![2, 2]).is_err(), "degree ≥ n");
    }

    #[test]
    fn power_law_realization_is_exact_at_scale() {
        let ds = DegreeSequence::power_law(3000, 2.5, 2, 120, 42).unwrap();
        let g = ds.build(42);
        assert_eq!(g.degree_sequence(), ds.degrees());
        g.check_invariants().unwrap();
        // Heavy-tailed: someone got a big degree.
        assert!(g.max_degree() >= 40, "max degree {}", g.max_degree());
    }

    #[test]
    fn stream_is_a_pure_function_of_seed() {
        let ds = DegreeSequence::power_law(500, 2.3, 2, 40, 3).unwrap();
        let collect = |seed: u64| {
            let mut s = ds.stream(seed);
            let (mut all, mut chunk) = (Vec::new(), Vec::new());
            while s.next_chunk(&mut chunk) {
                all.extend_from_slice(&chunk);
            }
            all
        };
        assert_eq!(collect(11), collect(11), "same seed, same edge sequence");
        assert_ne!(collect(11), collect(12), "seeds must decorrelate");
        // Different seeds still realize the same degrees.
        assert_eq!(ds.build(11).degree_sequence(), ds.degrees());
        assert_eq!(ds.build(12).degree_sequence(), ds.degrees());
    }

    #[test]
    fn rank_filtered_streams_are_bit_identical_across_p() {
        // The full sequence each rank replays is p-independent, so the
        // owner-filtered subsequence for a given scheme is exactly the
        // unfiltered sequence filtered — for every p.
        let ds = DegreeSequence::power_law(400, 2.4, 2, 30, 9).unwrap();
        let mut full = Vec::new();
        {
            let mut s = ds.stream(5);
            let mut chunk = Vec::new();
            while s.next_chunk(&mut chunk) {
                full.extend_from_slice(&chunk);
            }
        }
        for p in [1usize, 2, 4] {
            let part = Partitioner::hash_division(p);
            for rank in 0..p {
                let mut s = OwnedOnly::new(ds.stream(5), &part, rank);
                let (mut got, mut chunk) = (Vec::new(), Vec::new());
                while s.next_chunk(&mut chunk) {
                    got.extend_from_slice(&chunk);
                }
                let expect: Vec<Edge> = full
                    .iter()
                    .copied()
                    .filter(|e| part.owner(e.src()) == rank)
                    .collect();
                assert_eq!(got, expect, "p={p} rank={rank}");
            }
        }
    }

    #[test]
    fn tiny_chunks_preserve_the_sequence() {
        let ds = DegreeSequence::new(vec![3, 3, 2, 2, 2, 2, 1, 1]).unwrap();
        let mut s = ds.stream(1);
        s.chunk_edges = 1;
        let (mut small, mut chunk) = (Vec::new(), Vec::new());
        while s.next_chunk(&mut chunk) {
            small.extend_from_slice(&chunk);
        }
        let mut big = Vec::new();
        let mut s2 = ds.stream(1);
        while s2.next_chunk(&mut chunk) {
            big.extend_from_slice(&chunk);
        }
        assert_eq!(small, big);
        let g = Graph::from_stream(8, &mut IterStream::new(small)).unwrap();
        assert_eq!(g.degree_sequence(), ds.degrees());
    }
}
