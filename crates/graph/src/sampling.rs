//! O(1) uniform edge sampling with O(1) insert/remove.
//!
//! Both the sequential algorithm (Alg. 1) and every partition of the
//! parallel algorithm must repeatedly draw edges uniformly at random from a
//! *dynamically changing* edge set. A dense array of edges paired with a
//! position index gives O(1) `sample`, O(1) `insert`, and O(1) `remove`
//! (swap-remove), which is what makes the `O(t log d_max)` bound of the
//! paper achievable in practice.
//!
//! The dense array is *chunked*: fixed-size blocks of [`BLOCK_EDGES`]
//! packed edge keys ([`EdgeBlocks`], 8 bytes a slot — the same `u64`
//! the position index is keyed on) instead of one contiguous `Vec`.
//! Dense index `i` lives at `blocks[i >> BLOCK_SHIFT][i & BLOCK_MASK]`,
//! so indexing stays O(1) while memory grows and shrinks in 128 KiB
//! steps — no doubling reallocation that momentarily holds 1.5× the
//! edge set, and no up-front O(m) reservation. That bounds a
//! streamed build's peak RSS at O(edges stored + one block), which is
//! what lets the generate→partition pipeline run at 10⁷–10⁸ edges
//! without a global edge list (see `crate::stream`). A small free list
//! of emptied blocks absorbs remove/insert churn at a block boundary
//! without round-tripping the allocator.
//!
//! The position index is keyed on the packed-`u64` edge key
//! ([`Edge::key`]) and hashed with the in-repo [`crate::hashing`]
//! multiply-rotate-xor hasher: one register-wide key, one multiply per
//! probe, versus SipHash over a 16-byte struct with the default hasher.
//! Every switch operation performs at least one existence probe and four
//! index updates, so this map is the hottest structure in the system.
//!
//! The index value is a [`Slot`]: the edge's dense position and its
//! visit mark (Section 3.1). [`EdgePool::track_visits`] marks every
//! edge present as an unvisited initial edge; the first
//! [`EdgePool::remove`] of a marked edge takes the mark with the entry
//! it already probes, and an inserted edge comes in unmarked, so a
//! switch engine reads its visited count off the pool
//! ([`EdgePool::unvisited`]) with no second table and no extra probe.
//! The mark lives in the index entry, keyed by edge, not in the dense
//! slot, so pool order — sampling order — does not depend on it. The
//! entry holds the slot index too, so the marks leave the pool in one
//! form: a bitmap over pool order ([`EdgePool::unvisited_bitmap`]), the
//! one every snapshot, switch outcome and process rank result carries.

use crate::hashing::{map_with_capacity, FxHashMap};
use crate::types::{Edge, VertexId, MAX_POOL_EDGES};
use edgeswitch_dist::Rng;

/// In-place Fisher–Yates shuffle.
///
/// Draws exactly `items.len().saturating_sub(1)` values from `rng`
/// (one `gen_range` per position, back to front), so the consumed RNG
/// stream depends only on the slice length — a prerequisite for the
/// Curveball engines, which replay per-trade substreams bit-exactly
/// across sequential, threaded, and simulated drivers.
pub fn fisher_yates_shuffle<T, R: Rng + ?Sized>(items: &mut [T], rng: &mut R) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// A uniformly random permutation of `0..n`, seeded by `rng`.
pub fn random_permutation<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<VertexId> {
    let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
    fisher_yates_shuffle(&mut perm, rng);
    perm
}

/// A uniformly random perfect matching of the vertices `0..n`: `⌊n/2⌋`
/// disjoint pairs, each canonicalized as `(min, max)`. For odd `n` one
/// vertex is left unmatched.
///
/// This is the per-pass pairing primitive of the global Curveball
/// trade sequence: pair `k` is `(perm[2k], perm[2k+1])` of a random
/// permutation, so every vertex appears in at most one pair and every
/// matching is equally likely.
pub fn random_matching<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<(VertexId, VertexId)> {
    let perm = random_permutation(n, rng);
    perm.chunks_exact(2)
        .map(|pair| (pair[0].min(pair[1]), pair[0].max(pair[1])))
        .collect()
}

/// log₂ of the edges per block: blocks hold 2¹⁴ = 16 384 packed edges
/// (128 KiB), small enough that a near-empty pool wastes at most one
/// block and large enough that the block table is negligible (6 103
/// pointers at m = 10⁸).
const BLOCK_SHIFT: usize = 14;
/// Edges per fixed-size block.
const BLOCK_EDGES: usize = 1 << BLOCK_SHIFT;
/// Within-block index mask.
const BLOCK_MASK: usize = BLOCK_EDGES - 1;
/// Emptied blocks kept on the free list before being returned to the
/// allocator (absorbs swap-remove/insert churn at a block boundary).
const SPARE_BLOCKS: usize = 4;

/// The chunked dense array behind [`EdgePool`]: a table of fixed-size
/// blocks of packed edge keys ([`Edge::key`]) with exact `Vec`
/// semantics (push, pop, swap, index) so pool order — and therefore
/// sampling order and the bit-identity guarantees of the deterministic
/// drivers — is unchanged from the contiguous representation it
/// replaces.
#[derive(Clone, Debug, Default)]
struct EdgeBlocks {
    /// `blocks.len() == len.div_ceil(BLOCK_EDGES)`; every block but the
    /// last holds exactly [`BLOCK_EDGES`] keys.
    blocks: Vec<Vec<u64>>,
    /// Emptied blocks retained for reuse, each with full capacity.
    spare: Vec<Vec<u64>>,
    len: usize,
}

impl EdgeBlocks {
    fn with_capacity(cap: usize) -> Self {
        // Only the block *table* is reserved; blocks themselves are
        // allocated on demand, 128 KiB at a time.
        EdgeBlocks {
            blocks: Vec::with_capacity(cap.div_ceil(BLOCK_EDGES)),
            spare: Vec::new(),
            len: 0,
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn get(&self, i: usize) -> u64 {
        self.blocks[i >> BLOCK_SHIFT][i & BLOCK_MASK]
    }

    #[inline]
    fn set(&mut self, i: usize, key: u64) {
        self.blocks[i >> BLOCK_SHIFT][i & BLOCK_MASK] = key;
    }

    fn push(&mut self, key: u64) {
        if self.len & BLOCK_MASK == 0 {
            debug_assert_eq!(self.blocks.len(), self.len >> BLOCK_SHIFT);
            let block = self
                .spare
                .pop()
                .unwrap_or_else(|| Vec::with_capacity(BLOCK_EDGES));
            self.blocks.push(block);
        }
        self.blocks
            .last_mut()
            .expect("block just ensured")
            .push(key);
        self.len += 1;
    }

    fn pop(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let key = self
            .blocks
            .last_mut()
            .expect("non-empty")
            .pop()
            .expect("last block non-empty");
        self.len -= 1;
        if self.len & BLOCK_MASK == 0 {
            let block = self.blocks.pop().expect("emptied block present");
            debug_assert!(block.is_empty());
            if self.spare.len() < SPARE_BLOCKS {
                self.spare.push(block);
            }
        }
        Some(key)
    }

    /// Dense order, exact-size: a walk over the blocks themselves could
    /// not bound its length, and every consumer that pre-sizes from
    /// `size_hint` (visit trackers, `collect`, pool rebuilds) would
    /// start from zero and grow by doubling.
    fn iter(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        (0..self.len).map(|i| self.get(i))
    }

    /// Block-structure invariants (used by `check_consistent`).
    fn check_blocks(&self) -> bool {
        self.blocks.len() == self.len.div_ceil(BLOCK_EDGES)
            && self.len == self.blocks.iter().map(Vec::len).sum::<usize>()
            && self
                .blocks
                .iter()
                .rev()
                .skip(1)
                .all(|b| b.len() == BLOCK_EDGES)
    }
}

/// Content equality in dense order; the free list is not observable.
impl PartialEq for EdgeBlocks {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

/// The dense slot a pool of `len` edges appends into, as the `u32` the
/// position index stores. A hard check in every build: past
/// [`MAX_POOL_EDGES`] the narrowing would wrap, the index would point
/// at the wrong slots and sampling would be silently corrupt.
#[inline]
fn next_slot(len: usize) -> u32 {
    assert!(
        len < MAX_POOL_EDGES,
        "EdgePool holds {len} edges; positions are u32, so a pool stores at most 2^32-1"
    );
    len as u32
}

/// What the position index holds per edge: its dense position, and
/// whether it is an initial edge not yet removed since
/// [`EdgePool::track_visits`]. Eight bytes, so an index bucket stays
/// sixteen.
#[derive(Clone, Copy, Debug)]
struct Slot {
    idx: u32,
    unvisited: bool,
}

/// A dynamic multiset-free edge pool supporting uniform sampling.
#[derive(Clone, Debug, Default)]
pub struct EdgePool {
    edges: EdgeBlocks,
    pos: FxHashMap<u64, Slot>,
    /// Entries of `pos` whose `unvisited` mark is set.
    unvisited: usize,
}

impl EdgePool {
    /// Empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pool pre-sized for `cap` edges. Only the position index and the
    /// block table reserve memory up front; edge blocks are allocated
    /// on demand in [`BLOCK_EDGES`]-edge steps.
    pub fn with_capacity(cap: usize) -> Self {
        EdgePool {
            edges: EdgeBlocks::with_capacity(cap),
            pos: map_with_capacity(cap),
            unvisited: 0,
        }
    }

    /// Number of edges currently in the pool.
    #[inline]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the pool holds no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.len() == 0
    }

    /// Whether the pool contains `e`.
    #[inline]
    pub fn contains(&self, e: Edge) -> bool {
        self.pos.contains_key(&e.key())
    }

    /// Insert `e`, unmarked (an inserted edge is never an unvisited
    /// initial one); returns `false` (and leaves the pool unchanged) if
    /// the edge is already present.
    ///
    /// # Panics
    /// Panics if the pool already holds [`MAX_POOL_EDGES`] edges.
    pub fn insert(&mut self, e: Edge) -> bool {
        let idx = next_slot(self.edges.len());
        let key = e.key();
        match self.pos.entry(key) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(Slot {
                    idx,
                    unvisited: false,
                });
                self.edges.push(key);
                true
            }
        }
    }

    /// Remove `e`; returns `false` (pool unchanged) if it was not present.
    /// Removing a marked edge visits it: its mark goes with its entry.
    pub fn remove(&mut self, e: Edge) -> bool {
        let Some(Slot { idx, unvisited }) = self.pos.remove(&e.key()) else {
            return false;
        };
        self.unvisited -= usize::from(unvisited);
        let i = idx as usize;
        let last = self.edges.pop().expect("an indexed edge is stored");
        if i < self.edges.len() {
            // Swap-remove: the formerly-last edge moves into `i`, and
            // keeps its mark.
            self.edges.set(i, last);
            self.pos
                .get_mut(&last)
                .expect("the last edge is indexed")
                .idx = idx;
        }
        true
    }

    /// Mark every edge present as an unvisited initial edge — one sweep
    /// of the index, the start of a switch run's visit tracking.
    pub fn track_visits(&mut self) {
        for slot in self.pos.values_mut() {
            slot.unvisited = true;
        }
        self.unvisited = self.pos.len();
    }

    /// Mark the edge of packed key `key` unvisited (rebuilding a
    /// snapshot's tracking); returns `false` if no such edge is present.
    pub fn mark_unvisited(&mut self, key: u64) -> bool {
        let Some(slot) = self.pos.get_mut(&key) else {
            return false;
        };
        self.unvisited += usize::from(!slot.unvisited);
        slot.unvisited = true;
        true
    }

    /// Marked edges: initial edges not removed since
    /// [`EdgePool::track_visits`].
    #[inline]
    pub fn unvisited(&self) -> usize {
        self.unvisited
    }

    /// The marks as a bitmap over pool order: bit `i % 64` of word
    /// `i / 64` is set iff the edge at dense index `i` is marked. One
    /// sweep of the index — the slot index is the bit index, so no key is
    /// collected or sorted.
    pub fn unvisited_bitmap(&self) -> Vec<u64> {
        let mut bits = vec![0u64; self.len().div_ceil(64)];
        if self.unvisited > 0 {
            for slot in self.pos.values().filter(|slot| slot.unvisited) {
                bits[slot.idx as usize / 64] |= 1 << (slot.idx % 64);
            }
        }
        bits
    }

    /// Draw one edge uniformly at random; `None` on an empty pool.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<Edge> {
        if self.edges.len() == 0 {
            None
        } else {
            let i = rng.gen_range(0..self.edges.len());
            Some(Edge::from_key(self.edges.get(i)))
        }
    }

    /// Iterate over all edges in dense (pool) order, with an exact
    /// `size_hint`.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Edge> + '_ {
        self.edges.iter().map(Edge::from_key)
    }

    /// The edge stored at dense index `i` (used by deterministic drivers).
    #[inline]
    pub fn get(&self, i: usize) -> Option<Edge> {
        (i < self.edges.len()).then(|| Edge::from_key(self.edges.get(i)))
    }

    /// Internal consistency check: the position index matches the dense
    /// array exactly and the block structure is well-formed. Used by
    /// tests and debug assertions.
    pub fn check_consistent(&self) -> bool {
        self.edges.check_blocks()
            && self.pos.len() == self.edges.len()
            && self
                .edges
                .iter()
                .enumerate()
                .all(|(i, key)| self.pos.get(&key).map(|s| s.idx as usize) == Some(i))
            && self.unvisited == self.pos.values().filter(|s| s.unvisited).count()
    }
}

impl FromIterator<Edge> for EdgePool {
    fn from_iter<I: IntoIterator<Item = Edge>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut pool = EdgePool::with_capacity(iter.size_hint().0);
        for e in iter {
            pool.insert(e);
        }
        pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgeswitch_dist::Pcg64;

    fn e(a: u64, b: u64) -> Edge {
        Edge::new(a, b)
    }

    #[test]
    fn insert_remove_contains() {
        let mut p = EdgePool::new();
        assert!(p.insert(e(1, 2)));
        assert!(p.insert(e(2, 3)));
        assert!(!p.insert(e(1, 2)), "duplicate insert must be rejected");
        assert!(p.contains(e(1, 2)));
        assert_eq!(p.len(), 2);
        assert!(p.remove(e(1, 2)));
        assert!(!p.remove(e(1, 2)));
        assert!(!p.contains(e(1, 2)));
        assert_eq!(p.len(), 1);
        assert!(p.check_consistent());
    }

    #[test]
    fn swap_remove_keeps_index_consistent() {
        let mut p = EdgePool::new();
        for i in 0..50u64 {
            p.insert(e(i, i + 1));
        }
        // Remove from the middle repeatedly.
        for i in (0..50u64).step_by(3) {
            assert!(p.remove(e(i, i + 1)));
            assert!(p.check_consistent());
        }
    }

    #[test]
    fn pool_spans_block_boundaries_consistently() {
        // Fill past two block boundaries, then churn across them: the
        // chunked array must behave exactly like one dense Vec.
        let total = 2 * BLOCK_EDGES + 1000;
        let mut p = EdgePool::new();
        for i in 0..total as u64 {
            assert!(p.insert(e(i, i + total as u64)));
        }
        assert_eq!(p.len(), total);
        assert!(p.check_consistent());
        // Dense order is insertion order before any removal.
        for (i, edge) in p.iter().enumerate() {
            assert_eq!(edge, e(i as u64, (i + total) as u64));
            if i > 10 {
                break;
            }
        }
        assert_eq!(
            p.get(BLOCK_EDGES),
            Some(e(BLOCK_EDGES as u64, (BLOCK_EDGES + total) as u64))
        );
        // Remove enough to cross back over a boundary (exercises the
        // free list), then refill.
        for i in 0..(BLOCK_EDGES + 500) as u64 {
            assert!(p.remove(e(i, i + total as u64)));
        }
        assert!(p.check_consistent());
        assert_eq!(p.len(), total - BLOCK_EDGES - 500);
        for i in 0..600u64 {
            assert!(p.insert(e(i, i + 1)));
        }
        assert!(p.check_consistent());
        let mut rng = Pcg64::seed_from_u64(9);
        for _ in 0..200 {
            let s = p.sample(&mut rng).unwrap();
            assert!(p.contains(s));
        }
    }

    #[test]
    fn iteration_reports_its_exact_length_across_blocks() {
        let total = BLOCK_EDGES + 77;
        let p: EdgePool = (0..total as u64).map(|i| e(i, i + total as u64)).collect();
        let mut it = p.iter();
        assert_eq!(it.size_hint(), (total, Some(total)));
        assert_eq!(it.len(), total);
        // The count stays exact while the walk crosses the boundary.
        for left in (total - BLOCK_EDGES - 10..total).rev() {
            assert!(it.next().is_some());
            assert_eq!(it.size_hint(), (left, Some(left)));
        }
        assert_eq!(it.count(), total - BLOCK_EDGES - 10);
        assert_eq!(EdgePool::new().iter().size_hint(), (0, Some(0)));
        // Consumers that pre-size from the hint get the whole length up
        // front: a pool rebuilt from the iterator never rehashes.
        let rebuilt: EdgePool = p.iter().collect();
        assert!(rebuilt.pos.capacity() >= total);
        assert!(rebuilt.iter().eq(p.iter()));
    }

    #[test]
    fn a_slot_is_eight_bytes() {
        let mut blocks = EdgeBlocks::default();
        blocks.push(e(1, 2).key());
        assert_eq!(std::mem::size_of_val(&blocks.blocks[0][0]), 8);
    }

    #[test]
    fn an_index_bucket_stays_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 8);
        assert_eq!(std::mem::size_of::<(u64, Slot)>(), 16);
    }

    #[test]
    fn the_unvisited_bitmap_marks_pool_positions() {
        let total = BLOCK_EDGES + 77;
        let mut p: EdgePool = (0..total as u64).map(|i| e(i, i + total as u64)).collect();
        assert_eq!(p.unvisited_bitmap(), vec![0; total.div_ceil(64)]);
        p.track_visits();
        for i in (0..total as u64).step_by(3) {
            assert!(p.remove(e(i, i + total as u64)));
        }
        // Swap-removes moved marked edges: each bit follows its edge.
        let bits = p.unvisited_bitmap();
        assert_eq!(bits.len(), p.len().div_ceil(64));
        // The marked edges are exactly the survivors: `i` with
        // `i % 3 != 0`, paired with `i + total`.
        let mut marked: Vec<u64> = (0..p.len())
            .filter(|&i| bits[i / 64] >> (i % 64) & 1 == 1)
            .map(|i| p.get(i).unwrap().src())
            .collect();
        marked.sort_unstable();
        let want: Vec<u64> = (0..total as u64).filter(|i| i % 3 != 0).collect();
        assert_eq!(marked.len(), p.unvisited());
        assert_eq!(marked, want);
        // No bit past the last edge.
        assert_eq!(bits.last().unwrap() >> (p.len() % 64), 0);
    }

    #[test]
    #[should_panic(expected = "at most 2^32-1")]
    fn the_slot_limit_is_a_hard_check() {
        assert_eq!(next_slot(MAX_POOL_EDGES - 1), u32::MAX - 1);
        next_slot(MAX_POOL_EDGES);
    }

    #[test]
    fn sample_none_on_empty() {
        let p = EdgePool::new();
        let mut rng = Pcg64::seed_from_u64(1);
        assert_eq!(p.sample(&mut rng), None);
    }

    #[test]
    fn sample_is_roughly_uniform() {
        let mut p = EdgePool::new();
        let k = 8u64;
        for i in 0..k {
            p.insert(e(i, i + 100));
        }
        let mut rng = Pcg64::seed_from_u64(42);
        let trials = 80_000;
        let mut counts = vec![0u32; k as usize];
        for _ in 0..trials {
            let s = p.sample(&mut rng).unwrap();
            counts[s.src() as usize] += 1;
        }
        let expect = trials as f64 / k as f64;
        for c in counts {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(dev < 0.05, "sampling deviates {dev:.3} from uniform");
        }
    }

    #[test]
    fn from_iterator_dedups() {
        let p: EdgePool = vec![e(1, 2), e(2, 1), e(3, 4)].into_iter().collect();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Pcg64::seed_from_u64(7);
        for n in [0usize, 1, 2, 3, 17, 100] {
            let mut v: Vec<u64> = (0..n as u64).collect();
            fisher_yates_shuffle(&mut v, &mut rng);
            let mut sorted = v.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n as u64).collect::<Vec<_>>(), "n={n}");
        }
    }

    #[test]
    fn shuffle_and_permutation_are_deterministic_per_seed() {
        let mut a = Pcg64::seed_from_u64(99);
        let mut b = Pcg64::seed_from_u64(99);
        assert_eq!(
            random_permutation(64, &mut a),
            random_permutation(64, &mut b)
        );
        assert_eq!(random_matching(33, &mut a), random_matching(33, &mut b));
        let mut c = Pcg64::seed_from_u64(100);
        assert_ne!(
            random_permutation(64, &mut a),
            random_permutation(64, &mut c),
            "different seeds should diverge on 64 elements"
        );
    }

    #[test]
    fn matching_pairs_are_disjoint_and_canonical() {
        let mut rng = Pcg64::seed_from_u64(5);
        for n in [0usize, 1, 2, 5, 6, 101] {
            let pairs = random_matching(n, &mut rng);
            assert_eq!(pairs.len(), n / 2);
            let mut seen = std::collections::HashSet::new();
            for &(u, v) in &pairs {
                assert!(u < v, "pair must be canonicalized (min, max)");
                assert!(v < n as u64);
                assert!(seen.insert(u) && seen.insert(v), "vertex reused");
            }
        }
    }

    #[test]
    fn shuffle_uniformity_chi_square_smoke() {
        // All 4! = 24 orderings of a 4-element shuffle should be
        // equally likely. With 48k trials the chi-square statistic over
        // 23 degrees of freedom stays far below the ~49.7 cutoff
        // (p = 0.001) unless the shuffle is biased.
        let mut rng = Pcg64::seed_from_u64(20140901);
        let trials = 48_000usize;
        let mut counts = [0u32; 24];
        for _ in 0..trials {
            let mut v = [0u8, 1, 2, 3];
            fisher_yates_shuffle(&mut v, &mut rng);
            // Lehmer code of the permutation -> index in 0..24.
            let mut code = 0usize;
            for i in 0..3 {
                let smaller = v[i + 1..].iter().filter(|&&x| x < v[i]).count();
                code = code * (4 - i) + smaller;
            }
            counts[code] += 1;
        }
        let expect = trials as f64 / 24.0;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expect;
                d * d / expect
            })
            .sum();
        assert!(chi2 < 49.7, "chi-square {chi2:.1} exceeds p=0.001 cutoff");
    }
}
