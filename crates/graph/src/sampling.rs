//! O(1) uniform edge sampling with O(1) insert/remove.
//!
//! Both the sequential algorithm (Alg. 1) and every partition of the
//! parallel algorithm must repeatedly draw edges uniformly at random from a
//! *dynamically changing* edge set. A dense array of edges paired with a
//! position index gives O(1) `sample`, O(1) `insert`, and O(1) `remove`
//! (swap-remove), which is what makes the `O(t log d_max)` bound of the
//! paper achievable in practice.
//!
//! The dense array is *chunked*: fixed-size blocks of `BLOCK_EDGES`
//! packed edge keys (`EdgeBlocks`, 8 bytes a slot — the same `u64`
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
//! The position index maps each packed-`u64` edge key ([`Edge::key`])
//! to its dense slot. It is an in-repo open-addressing table
//! (`PosIndex`): one allocation of 8-byte entries, eight to a cache
//! line, each packing a key's 31-bit fingerprint (the top bits of its
//! hash) with its slot. The key itself is not stored twice: a
//! fingerprint match is confirmed against the dense array, the word a
//! switch loop has just sampled or is about to overwrite. So the table
//! takes twice the buckets of the `std` map it replaces for the same
//! capacity, in 16 bytes a bucket of that map against its 17, and is at
//! most 7/16 full; lookups use Robin Hood probing, removals
//! backward-shift deletion. Every switch operation makes two existence
//! probes and four index updates, so this table is the hottest
//! structure in the system, and at 10⁶ edges each probe is a cache
//! miss. What the table buys over the `std` map is an address known
//! before the probe: the entry a lookup starts at is one multiply away
//! from the key, so a caller that knows its next keys early —
//! Algorithm 1's loop draws them ahead (`edgeswitch_core::sequential`)
//! — prefetches them ([`EdgePool::prefetch_edge`],
//! [`EdgePool::prefetch_slot`]) and the probes find their lines in
//! cache. A large table is advised onto transparent huge pages before
//! its first write, so those random probes also miss the TLB less.
//!
//! Besides the slot, an entry holds the edge's visit mark (Section
//! 3.1). [`EdgePool::track_visits`] marks every edge present as an
//! unvisited initial edge; the first [`EdgePool::remove`] of a marked
//! edge takes the mark with the entry it already probes, and an inserted edge comes in unmarked, so a
//! switch engine reads its visited count off the pool
//! ([`EdgePool::unvisited`]) with no second table and no extra probe.
//! The mark lives in the index entry, keyed by edge, not in the dense
//! slot, so pool order — sampling order — does not depend on it. The
//! entry holds the slot index too, so the marks leave the pool in one
//! form: a bitmap over pool order ([`EdgePool::unvisited_bitmap`]), the
//! one every snapshot, switch outcome and process rank result carries.
//!
//! Only the switch loop reads the index: a finished run's graph is read
//! through its edge order (and its adjacency, see [`crate::graph`]). So
//! the index is built on demand, the first time something probes or
//! mutates the pool. A pool filled by [`EdgePool::insert`] (or
//! `collect`, or pre-sized by [`EdgePool::with_capacity`]) is indexed
//! as it fills; a builder that already knows its edges are distinct —
//! the split of a graph into its ranks' shares, the gather of a parallel
//! run's ranks, the adjacency walk of a Curveball finish — only appends
//! keys, and a graph that is only digested or written out, or a share
//! no switch rank probes, never pays for the index. An unindexed pool
//! holds no visit marks: marks live in the index.

use crate::memhint::{advise_huge_pages, prefetch};
use crate::types::{Edge, VertexId, MAX_POOL_EDGES};
use edgeswitch_dist::Rng;
use std::sync::OnceLock;

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

    #[inline]
    fn push(&mut self, key: u64) {
        if self.len & BLOCK_MASK == 0 {
            self.open_block();
        }
        self.blocks
            .last_mut()
            .expect("block just ensured")
            .push(key);
        self.len += 1;
    }

    /// Start the next block, from the free list when it has one: once
    /// every [`BLOCK_EDGES`] pushes, so kept off `push`'s inlined path.
    #[cold]
    fn open_block(&mut self) {
        debug_assert_eq!(self.blocks.len(), self.len >> BLOCK_SHIFT);
        let block = self
            .spare
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(BLOCK_EDGES));
        self.blocks.push(block);
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
/// [`EdgePool::track_visits`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Slot {
    idx: u32,
    unvisited: bool,
}

/// One entry of the position index, packed in a `u64`: bits 63..33 are
/// the key's fingerprint (the top 31 bits of its hash), bit 32 its
/// visit mark and bits 31..0 its dense slot. The key itself is not
/// stored: it is the dense array's word at that slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Entry(u64);

impl Entry {
    /// A free entry. No stored entry equals it: its slot bits read
    /// `u32::MAX`, which is never a dense position (see `next_slot`).
    const FREE: Entry = Entry(u64::MAX);

    #[inline]
    fn new(fp: u32, slot: Slot) -> Entry {
        Entry(u64::from(fp) << 33 | u64::from(slot.unvisited) << 32 | u64::from(slot.idx))
    }

    #[inline]
    fn fp(self) -> u32 {
        (self.0 >> 33) as u32
    }

    #[inline]
    fn slot(self) -> Slot {
        Slot {
            idx: self.0 as u32,
            unvisited: self.0 >> 32 & 1 == 1,
        }
    }
}

/// Fibonacci hashing's multiplier, `2^64 / φ`: every bit of a key
/// reaches the top bits of `key * K`.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// A key's fingerprint: the top 31 bits of `key * K`. Its top
/// `log2(entries)` bits are the key's home, so an entry's home is known
/// from the entry alone.
#[inline]
fn fingerprint(key: u64) -> u32 {
    (key.wrapping_mul(K) >> 33) as u32
}

/// Most entries an index can have: a home is a prefix of a 31-bit
/// fingerprint.
const MAX_ENTRIES: usize = 1 << 31;

/// The position index: packed edge key → [`Slot`], open addressing
/// over one power-of-two array of 8-byte [`Entry`]s with Robin Hood
/// probing.
///
/// Sizing: twice the buckets `std`'s `HashMap` would take for the same
/// capacity (a power of two at or above 8/7 of it) at half the bytes
/// each, so the table costs 16 bytes per bucket of that map against
/// its 17, and is never more than 7/16 full.
///
/// Each key sits at its home or after it, and along any run of occupied
/// entries the distance from home never drops by more than one from one
/// entry to the next (the Robin Hood invariant: an insert displaces a
/// resident nearer its home than the newcomer is to its own). A lookup
/// walks from the home and stops at the key, a free entry, or a
/// resident nearer its home than the key would be; an entry whose
/// fingerprint matches is confirmed against the dense array, the one
/// place keys are stored. A removal shifts the run after it back by one
/// (backward-shift deletion), leaving no tombstones.
#[derive(Debug)]
struct PosIndex {
    entries: Box<[Entry]>,
    len: usize,
    /// `31 - log2(entries.len())`: the home of fingerprint `fp` is
    /// `fp >> shift`.
    shift: u32,
}

impl PosIndex {
    /// An empty index holding up to `cap` keys without growing.
    fn with_capacity(cap: usize) -> Self {
        Self::with_entries(2 * map_buckets(cap))
    }

    fn with_entries(n: usize) -> Self {
        assert!(
            n <= MAX_ENTRIES,
            "an index of {n} entries outgrows its fingerprints"
        );
        debug_assert!(n.is_power_of_two() && n >= 8);
        PosIndex {
            entries: fresh(n, |entries| entries.resize(n, Entry::FREE)),
            len: 0,
            shift: 31 - n.trailing_zeros(),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    /// Keys the index holds before it grows: what `std`'s map holds in
    /// half as many buckets, 7/16 of the entries (3 of 8 at the least).
    fn capacity(&self) -> usize {
        let buckets = self.entries.len() / 2;
        if buckets < 8 {
            buckets - 1
        } else {
            buckets / 8 * 7
        }
    }

    #[inline]
    fn mask(&self) -> usize {
        self.entries.len() - 1
    }

    #[inline]
    fn home(&self, fp: u32) -> usize {
        (fp >> self.shift) as usize
    }

    /// How far past its home the entry of fingerprint `fp` at `at` sits.
    #[inline]
    fn displacement(&self, fp: u32, at: usize) -> usize {
        at.wrapping_sub(self.home(fp)) & self.mask()
    }

    /// Where `key` is stored, if it is. `edges` is the dense array the
    /// entries' slots point into.
    #[inline]
    fn find(&self, key: u64, edges: &EdgeBlocks) -> Option<usize> {
        let fp = fingerprint(key);
        let mut at = self.home(fp);
        for dist in 0.. {
            let entry = self.entries[at];
            if entry == Entry::FREE {
                return None;
            }
            if entry.fp() == fp && edges.get(entry.slot().idx as usize) == key {
                return Some(at);
            }
            if self.displacement(entry.fp(), at) < dist {
                return None;
            }
            at = (at + 1) & self.mask();
        }
        unreachable!("a probe ends at a free entry")
    }

    #[inline]
    fn slot(&self, at: usize) -> Slot {
        self.entries[at].slot()
    }

    #[inline]
    fn set_slot(&mut self, at: usize, slot: Slot) {
        self.entries[at] = Entry::new(self.entries[at].fp(), slot);
    }

    /// Insert `key` → `slot`; `false` (index unchanged) if `key` is
    /// present.
    #[inline]
    fn insert(&mut self, key: u64, slot: Slot, edges: &EdgeBlocks) -> bool {
        if self.find(key, edges).is_some() {
            return false;
        }
        self.add(Entry::new(fingerprint(key), slot));
        true
    }

    /// Store `entry`, whose key is absent, growing first if the index
    /// is full.
    #[inline]
    fn add(&mut self, entry: Entry) {
        if self.len == self.capacity() {
            self.grow();
        }
        self.place(entry);
        self.len += 1;
    }

    /// Put `entry` in its place: Robin Hood from its home.
    fn place(&mut self, mut entry: Entry) {
        let mut at = self.home(entry.fp());
        let mut dist = 0;
        loop {
            let resident = self.entries[at];
            if resident == Entry::FREE {
                self.entries[at] = entry;
                return;
            }
            let theirs = self.displacement(resident.fp(), at);
            if theirs < dist {
                // The resident is nearer home: it yields the entry and
                // is carried on.
                self.entries[at] = entry;
                entry = resident;
                dist = theirs;
            }
            at = (at + 1) & self.mask();
            dist += 1;
        }
    }

    /// Free the entry at `at`, pulling the run after it one entry
    /// nearer home, up to a free entry or one already at its home.
    fn remove_at(&mut self, mut hole: usize) {
        loop {
            let next = (hole + 1) & self.mask();
            let moved = self.entries[next];
            if moved == Entry::FREE || self.displacement(moved.fp(), next) == 0 {
                break;
            }
            self.entries[hole] = moved;
            hole = next;
        }
        self.entries[hole] = Entry::FREE;
        self.len -= 1;
    }

    /// Double the entries, re-placing every one: an entry's fingerprint
    /// holds its home at any size.
    #[cold]
    #[inline(never)]
    fn grow(&mut self) {
        let old = std::mem::replace(self, PosIndex::with_entries(2 * self.entries.len()));
        self.len = old.len;
        for &entry in old.entries.iter().filter(|&&e| e != Entry::FREE) {
            self.place(entry);
        }
    }

    /// Every stored slot, in table order.
    fn slots(&self) -> impl Iterator<Item = Slot> + '_ {
        self.entries
            .iter()
            .filter(|&&e| e != Entry::FREE)
            .map(|e| e.slot())
    }

    /// Set every stored entry's visit mark.
    fn mark_all(&mut self) {
        for entry in self.entries.iter_mut().filter(|e| **e != Entry::FREE) {
            entry.0 |= 1 << 32;
        }
    }

    /// Start loading the entry a lookup of `key` begins at.
    #[inline]
    fn prefetch(&self, key: u64) {
        let at = self.home(fingerprint(key));
        prefetch(self.entries.as_ptr().wrapping_add(at));
    }

    /// Whether a lookup from its home reaches every stored key, `len`
    /// counts them and the table is within its load limit.
    fn check_probes(&self, edges: &EdgeBlocks) -> bool {
        let reachable = self.entries.iter().enumerate().all(|(at, &entry)| {
            entry == Entry::FREE
                || (entry.slot().idx as usize) < edges.len()
                    && self.find(edges.get(entry.slot().idx as usize), edges) == Some(at)
        });
        reachable && self.len == self.slots().count() && self.len <= self.capacity()
    }
}

/// Cloned onto huge pages too: the copy is advised before its first
/// write, like a fresh index.
impl Clone for PosIndex {
    fn clone(&self) -> Self {
        PosIndex {
            entries: fresh(self.entries.len(), |entries| {
                entries.extend_from_slice(&self.entries)
            }),
            len: self.len,
            shift: self.shift,
        }
    }
}

/// The buckets `std`'s `HashMap` takes for `cap` keys: the smallest
/// power of two of which 7/8 is at least `cap`, 4 or 8 below eight
/// keys.
fn map_buckets(cap: usize) -> usize {
    match cap {
        0..4 => 4,
        4..8 => 8,
        _ => (cap.checked_mul(8).expect("index capacity overflows") / 7).next_power_of_two(),
    }
}

/// A fresh boxed array of `n` entries: allocated, advised onto huge
/// pages, then filled by `fill`.
fn fresh(n: usize, fill: impl FnOnce(&mut Vec<Entry>)) -> Box<[Entry]> {
    let mut entries = Vec::with_capacity(n);
    advise_huge_pages(entries.as_ptr(), n * std::mem::size_of::<Entry>());
    fill(&mut entries);
    debug_assert_eq!(entries.len(), n);
    entries.into_boxed_slice()
}

/// A dynamic multiset-free edge pool supporting uniform sampling.
#[derive(Clone, Debug, Default)]
pub struct EdgePool {
    edges: EdgeBlocks,
    /// The position index, built with the pool or on first use (see
    /// the module docs); `OnceLock` so a lent `&EdgePool` can build it.
    pos: OnceLock<PosIndex>,
    /// Entries of `pos` whose `unvisited` mark is set.
    unvisited: usize,
}

impl EdgePool {
    /// Empty pool. Its index is built by the first probe or mutation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pool pre-sized for `cap` edges and indexed from the start. Only
    /// the position index and the block table reserve memory up front;
    /// edge blocks are allocated on demand in `BLOCK_EDGES`-edge steps.
    pub fn with_capacity(cap: usize) -> Self {
        EdgePool {
            edges: EdgeBlocks::with_capacity(cap),
            pos: OnceLock::from(PosIndex::with_capacity(cap)),
            unvisited: 0,
        }
    }

    /// Append `e` without indexing it: the fill of a builder that
    /// already knows its edges are distinct. The pool must be a fresh
    /// [`EdgePool::new`], never probed or mutated; its index, when
    /// something first needs one, is built from the keys as appended.
    ///
    /// # Panics
    /// Panics if the pool already holds [`MAX_POOL_EDGES`] edges.
    pub(crate) fn push_distinct(&mut self, e: Edge) {
        debug_assert!(self.pos.get().is_none(), "push_distinct on an indexed pool");
        next_slot(self.edges.len());
        self.edges.push(e.key());
    }

    /// Whether the position index has been built (tests assert which
    /// paths leave it unbuilt).
    #[cfg(test)]
    pub(crate) fn is_indexed(&self) -> bool {
        self.pos.get().is_some()
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

    /// Whether the pool contains `e`. Builds the index on first use.
    #[inline]
    pub fn contains(&self, e: Edge) -> bool {
        self.pos
            .get_or_init(|| index_of(&self.edges))
            .find(e.key(), &self.edges)
            .is_some()
    }

    /// Insert `e`, unmarked (an inserted edge is never an unvisited
    /// initial one); returns `false` (and leaves the pool unchanged) if
    /// the edge is already present.
    ///
    /// # Panics
    /// Panics if the pool already holds [`MAX_POOL_EDGES`] edges, or if
    /// its index would grow past 2³¹ entries (at about 9.4·10⁸ edges:
    /// an entry's home is a prefix of its 31-bit fingerprint).
    pub fn insert(&mut self, e: Edge) -> bool {
        let idx = next_slot(self.edges.len());
        let key = e.key();
        let slot = Slot {
            idx,
            unvisited: false,
        };
        let fresh = index_mut(&mut self.pos, &self.edges).insert(key, slot, &self.edges);
        if fresh {
            self.edges.push(key);
        }
        fresh
    }

    /// Remove `e`; returns `false` (pool unchanged) if it was not present.
    /// Removing a marked edge visits it: its mark goes with its entry.
    pub fn remove(&mut self, e: Edge) -> bool {
        let pos = index_mut(&mut self.pos, &self.edges);
        let Some(at) = pos.find(e.key(), &self.edges) else {
            return false;
        };
        let Slot { idx, unvisited } = pos.slot(at);
        pos.remove_at(at);
        self.unvisited -= usize::from(unvisited);
        let tail = self.edges.len() - 1;
        if idx as usize != tail {
            // Swap-remove: the last edge moves into `idx`, and keeps its
            // mark. Its entry is found while the dense array still holds
            // it at `tail`.
            let last = self.edges.get(tail);
            let moved = pos
                .find(last, &self.edges)
                .expect("the last edge is indexed");
            let unvisited = pos.slot(moved).unvisited;
            pos.set_slot(moved, Slot { idx, unvisited });
            self.edges.set(idx as usize, last);
        }
        self.edges.pop();
        true
    }

    /// Mark every edge present as an unvisited initial edge — one sweep
    /// of the index, the start of a switch run's visit tracking.
    pub fn track_visits(&mut self) {
        let pos = index_mut(&mut self.pos, &self.edges);
        pos.mark_all();
        self.unvisited = pos.len();
    }

    /// Mark the edge of packed key `key` unvisited (rebuilding a
    /// snapshot's tracking); returns `false` if no such edge is present.
    pub fn mark_unvisited(&mut self, key: u64) -> bool {
        let pos = index_mut(&mut self.pos, &self.edges);
        let Some(at) = pos.find(key, &self.edges) else {
            return false;
        };
        let slot = pos.slot(at);
        self.unvisited += usize::from(!slot.unvisited);
        pos.set_slot(
            at,
            Slot {
                unvisited: true,
                ..slot
            },
        );
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
    /// collected or sorted. Never builds the index: an unindexed pool
    /// has no marks.
    pub fn unvisited_bitmap(&self) -> Vec<u64> {
        let mut bits = vec![0u64; self.len().div_ceil(64)];
        if let Some(pos) = self.pos.get().filter(|_| self.unvisited > 0) {
            for slot in pos.slots().filter(|slot| slot.unvisited) {
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

    /// Start loading dense slot `i` into cache, ahead of a `get(i)` or
    /// a `sample` that draws it. A hint: the pool is unchanged.
    #[inline]
    pub fn prefetch_slot(&self, i: usize) {
        debug_assert!(i < self.len(), "prefetch of slot {i} of {}", self.len());
        if let Some(block) = self.edges.blocks.get(i >> BLOCK_SHIFT) {
            prefetch(block.as_ptr().wrapping_add(i & BLOCK_MASK));
        }
    }

    /// Start loading the index entry a probe, insert or removal of `e`
    /// begins at. A hint: the pool is unchanged, and an unindexed pool
    /// is not indexed by it.
    #[inline]
    pub fn prefetch_edge(&self, e: Edge) {
        if let Some(pos) = self.pos.get() {
            pos.prefetch(e.key());
        }
    }

    /// Internal consistency check: the block structure is well-formed
    /// and, once the index is built, it matches the dense array exactly
    /// and a lookup from its home reaches every entry.
    /// Never builds the index: an unindexed pool must hold no marks,
    /// and its edges' distinctness is its builder's contract (checked
    /// against adjacency by [`crate::graph::Graph::check_invariants`]).
    /// Used by tests and debug assertions.
    pub fn check_consistent(&self) -> bool {
        if !self.edges.check_blocks() {
            return false;
        }
        let Some(pos) = self.pos.get() else {
            return self.unvisited == 0;
        };
        pos.check_probes(&self.edges)
            && pos.len() == self.edges.len()
            && self.edges.iter().enumerate().all(|(i, key)| {
                pos.find(key, &self.edges)
                    .map(|at| pos.slot(at).idx as usize)
                    == Some(i)
            })
            && self.unvisited == pos.slots().filter(|s| s.unvisited).count()
    }
}

/// The position index for a mutation: one check that it exists, built
/// on a cold path the first time. A free function over the two fields
/// so the caller keeps `edges` for the mutation itself.
#[inline]
fn index_mut<'a>(pos: &'a mut OnceLock<PosIndex>, edges: &EdgeBlocks) -> &'a mut PosIndex {
    if pos.get().is_none() {
        build_index(pos, edges);
    }
    pos.get_mut().expect("the index was just built")
}

#[cold]
#[inline(never)]
fn build_index(pos: &mut OnceLock<PosIndex>, edges: &EdgeBlocks) {
    let _ = pos.set(index_of(edges));
}

/// The position index of `edges`, which are distinct, every edge
/// unmarked.
fn index_of(edges: &EdgeBlocks) -> PosIndex {
    let mut pos = PosIndex::with_capacity(edges.len());
    for (i, key) in edges.iter().enumerate() {
        let slot = Slot {
            idx: i as u32,
            unvisited: false,
        };
        pos.add(Entry::new(fingerprint(key), slot));
    }
    pos
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
        assert!(rebuilt.pos.get().unwrap().capacity() >= total);
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

    /// Edges whose home, in an index of `entries` entries, is one of
    /// its last `last` entries: inserting them makes runs that wrap past
    /// the table's end.
    fn edges_homed_at_the_end(entries: usize, last: usize, count: usize) -> Vec<Edge> {
        let probe = PosIndex::with_entries(entries);
        (0..u64::MAX)
            .map(|i| e(i / 64, i / 64 + 1 + i % 64))
            .filter(|edge| probe.home(fingerprint(edge.key())) >= entries - last)
            .take(count)
            .collect()
    }

    /// A seeded trace of insert, remove, get, get_mut and contains on
    /// `pool`, drawing edges from `universe`, checked op by op against a
    /// model: `std`'s map from key to (dense slot, mark) beside a `Vec`
    /// of the dense order. `get` reads an edge's slot through the index
    /// and `get_mut` is the pool's one in-place slot update,
    /// `mark_unvisited`. Returns how often a removal's backward shift
    /// carried an entry from the table's first entry back over its end
    /// to the last.
    fn trace_against_a_map(pool: &mut EdgePool, universe: &[Edge], ops: usize, seed: u64) -> usize {
        let mut map: std::collections::HashMap<u64, (u32, bool)> = std::collections::HashMap::new();
        let mut dense: Vec<u64> = Vec::new();
        let mut rng = Pcg64::seed_from_u64(seed);
        let mut shifted_across = 0;
        let index = |pool: &EdgePool| pool.pos.get().expect("indexed").entries.clone();
        for step in 0..ops {
            let edge = universe[rng.gen_range(0..universe.len())];
            let key = edge.key();
            match rng.gen_range(0..5u32) {
                0 | 1 => {
                    let fresh = !map.contains_key(&key);
                    if fresh {
                        map.insert(key, (dense.len() as u32, false));
                        dense.push(key);
                    }
                    assert_eq!(pool.insert(edge), fresh, "step {step}: insert");
                }
                2 => {
                    let before = index(pool);
                    let want = map.remove(&key);
                    if let Some((idx, _)) = want {
                        let last = dense.pop().expect("a present key is stored");
                        if last != key {
                            dense[idx as usize] = last;
                            map.get_mut(&last).expect("stored").0 = idx;
                        }
                    }
                    assert_eq!(pool.remove(edge), want.is_some(), "step {step}: remove");
                    let after = index(pool);
                    let end = after.len() - 1;
                    shifted_across +=
                        usize::from(before[0] != Entry::FREE && after[end].fp() == before[0].fp());
                }
                3 => {
                    let want = map
                        .get_mut(&key)
                        .map(|(_, unvisited)| !std::mem::replace(unvisited, true));
                    let was = pool.unvisited();
                    assert_eq!(
                        pool.mark_unvisited(key),
                        want.is_some(),
                        "step {step}: get_mut"
                    );
                    let newly = want.unwrap_or(false);
                    assert_eq!(
                        pool.unvisited(),
                        was + usize::from(newly),
                        "step {step}: marks"
                    );
                }
                _ => assert_eq!(pool.contains(edge), map.contains_key(&key), "step {step}"),
            }
            assert_eq!(pool.len(), map.len(), "step {step}: len");
            assert!(
                pool.iter().map(|e| e.key()).eq(dense.iter().copied()),
                "step {step}: order"
            );
            let pos = pool.pos.get().expect("indexed");
            for (&key, &(idx, unvisited)) in &map {
                let at = pos.find(key, &pool.edges).expect("a stored key is found");
                assert_eq!(pos.slot(at), Slot { idx, unvisited }, "step {step}: get");
            }
            assert!(
                pool.check_consistent(),
                "step {step}: a key is out of reach"
            );
        }
        shifted_across
    }

    #[test]
    fn the_index_agrees_with_a_hash_map_across_its_end() {
        // 48 edges homed at the last four of 128 entries: every run
        // wraps, and no insert grows the table (capacity 56).
        let crowd = edges_homed_at_the_end(128, 4, 48);
        let mut pool = EdgePool::with_capacity(48);
        assert_eq!(pool.pos.get().unwrap().entries.len(), 128);
        let shifted = trace_against_a_map(&mut pool, &crowd, 5_000, 41);
        let pos = pool.pos.get().unwrap();
        assert_eq!(pos.entries.len(), 128, "the crowd fits without growing");
        assert!(shifted > 0, "no removal shifted an entry back over the end");
        let wrapped = pos
            .entries
            .iter()
            .enumerate()
            .any(|(at, &entry)| entry != Entry::FREE && at < pos.home(entry.fp()));
        assert!(wrapped, "the trace ends with no run wrapped");
    }

    #[test]
    fn the_index_agrees_with_a_hash_map_while_it_grows() {
        // Edges from everywhere, starting eight entries small: the trace
        // grows the table several times, then churns at the larger size.
        let universe: Vec<Edge> = (0..600u64).map(|i| e(i % 37, 40 + i)).collect();
        let mut pool = EdgePool::with_capacity(0);
        assert_eq!(pool.pos.get().unwrap().entries.len(), 8);
        trace_against_a_map(&mut pool, &universe, 6_000, 42);
        assert!(
            pool.pos.get().unwrap().entries.len() >= 512,
            "the trace must have grown the table"
        );
    }

    #[test]
    fn the_index_is_no_larger_than_the_std_map_it_replaced() {
        // `std`'s map holds 7/8 of a power-of-two bucket count, each
        // bucket a 16-byte `(u64, Slot)` plus one control byte. The index
        // holds as many keys before it grows, in no more bytes, whether
        // pre-sized or grown by inserts.
        for m in [1_000usize, 100_000, 1_000_000] {
            let map = crate::hashing::map_with_capacity::<u64, Slot>(m);
            let map_bytes = map.capacity() / 7 * 8 * 17;
            let presized = PosIndex::with_capacity(m);
            assert_eq!(presized.capacity(), map.capacity(), "m={m}");
            let bytes = std::mem::size_of_val(&*presized.entries);
            assert!(
                bytes < map_bytes,
                "m={m}: {bytes} bytes against {map_bytes}"
            );

            let pool: EdgePool = (0..m as u64).map(|i| e(i, i + 1)).collect();
            let collected = pool.pos.get().expect("a collected pool is indexed");
            assert_eq!(collected.entries.len(), presized.entries.len(), "m={m}");
            let mut grown = EdgePool::new();
            let mut map = crate::hashing::map_with_capacity::<u64, Slot>(0);
            for i in 0..m as u64 {
                grown.insert(e(i, i + 1));
                let slot = Slot {
                    idx: i as u32,
                    unvisited: false,
                };
                map.insert(e(i, i + 1).key(), slot);
            }
            let grown = grown.pos.get().unwrap();
            assert!(grown.capacity() <= map.capacity(), "m={m}");
            assert!(
                size_of_val(&*grown.entries) < map.capacity() / 7 * 8 * 17,
                "m={m}"
            );
        }
    }

    #[test]
    fn check_consistent_finds_an_entry_out_of_reach() {
        let mut p: EdgePool = (0..40u64).map(|i| e(i, i + 1)).collect();
        assert!(p.check_consistent());
        // Move one entry a step back from its home: a lookup starting
        // at the home never sees it.
        let index = p.pos.get_mut().expect("indexed");
        let n = index.entries.len();
        let at = (0..n)
            .find(|&at| {
                let entry = index.entries[at];
                let before = index.entries[(at + n - 1) % n];
                entry != Entry::FREE
                    && index.displacement(entry.fp(), at) == 0
                    && before == Entry::FREE
            })
            .expect("a run starting at its home after a free entry");
        index.entries.swap(at, (at + n - 1) % n);
        assert!(!p.check_consistent());
    }

    #[test]
    fn prefetching_leaves_the_pool_unchanged() {
        let p: EdgePool = (0..100u64).map(|i| e(i, i + 1)).collect();
        let before: Vec<Edge> = p.iter().collect();
        for i in 0..p.len() {
            p.prefetch_slot(i);
            p.prefetch_edge(p.get(i).unwrap());
            p.prefetch_edge(e(i as u64, i as u64 + 500));
        }
        assert!(p.iter().eq(before) && p.check_consistent());
        // An unindexed pool stays unindexed.
        let mut lazy = EdgePool::new();
        lazy.push_distinct(e(1, 2));
        lazy.prefetch_slot(0);
        lazy.prefetch_edge(e(1, 2));
        assert!(!lazy.is_indexed());
    }

    #[test]
    fn an_entry_packs_fingerprint_mark_and_slot() {
        assert_eq!(std::mem::size_of::<Entry>(), 8);
        let slot = Slot {
            idx: u32::MAX - 1,
            unvisited: true,
        };
        let entry = Entry::new(u32::MAX >> 1, slot);
        assert_eq!((entry.fp(), entry.slot()), (u32::MAX >> 1, slot));
        assert_ne!(entry, Entry::FREE, "the last position is still a position");
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
