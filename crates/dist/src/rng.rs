//! Seeded, per-rank-decorrelated PRNG streams.
//!
//! Every experiment in the repository is reproducible from a single
//! `u64` seed. Distributed components derive one independent stream per
//! rank by mixing `(seed, rank)` through SplitMix64, the standard
//! stream-splitting construction.

use rand::RngCore;
use rand_pcg::Pcg64;

/// The PRNG used everywhere: PCG-64, seeded deterministically.
pub type Rng64 = Pcg64;

/// Words drawn from the core generator per [`BlockRng64`] refill.
pub const RNG_BLOCK_WORDS: usize = 32;

/// Block-buffered view of a [`Rng64`] stream: refills a fixed buffer of
/// raw `u64` words in one tight pass over the core generator and serves
/// every downstream draw from it.
///
/// The hot switching loop draws randomness a few words at a time (edge
/// index, partner pick, straight/cross coin); batching the underlying
/// PCG steps keeps the generator state in registers across a whole
/// refill instead of re-touching it per draw. Crucially the buffering is
/// *stream-transparent*: words are served strictly in generation order
/// and leftovers are never discarded, so any consumer sees exactly the
/// `u64` sequence the bare [`Rng64`] would have produced. `next_u32`
/// truncates a full word just like `rand_pcg`'s `Pcg64` does, which is
/// what keeps seeded runs bit-identical to the unbuffered stream.
///
/// Every draw routes through [`RngCore::next_u64`], so the generator
/// also knows its exact *stream position*: [`BlockRng64::words_served`]
/// counts the words handed out so far, and
/// [`BlockRng64::jump_words`] fast-forwards a freshly derived stream to
/// any recorded position. Together they make an engine checkpoint as
/// small as one `u64` — re-derive the stream from `(seed, rank)` and
/// jump — which is what the resumable drivers and the job service
/// serialize instead of generator internals.
#[derive(Clone, Debug)]
pub struct BlockRng64 {
    core: Rng64,
    buf: [u64; RNG_BLOCK_WORDS],
    /// Next unserved slot; `buf[pos..len]` are pending words.
    pos: usize,
    len: usize,
    /// Total words handed to consumers since construction.
    served: u64,
}

impl BlockRng64 {
    /// Buffer `core`, serving its exact word stream.
    pub fn new(core: Rng64) -> Self {
        BlockRng64 {
            core,
            buf: [0; RNG_BLOCK_WORDS],
            pos: 0,
            len: 0,
            served: 0,
        }
    }

    #[inline(never)]
    fn refill(&mut self) {
        for slot in &mut self.buf {
            *slot = self.core.next_u64();
        }
        self.pos = 0;
        self.len = RNG_BLOCK_WORDS;
    }

    /// Number of `u64` words served since construction — the stream
    /// position a checkpoint records.
    #[inline]
    pub fn words_served(&self) -> u64 {
        self.served
    }

    /// Fast-forward by drawing and discarding `n` words — `O(n)`, the
    /// generator's plain serving rate. Benchmark-only: the program
    /// restores with [`BlockRng64::jump_words`]; this stays because
    /// `perfbench`'s `dist.rng.block_next_ns` kernel times the serving
    /// rate through it (and the tests use it as the jump's oracle), and
    /// goes when that kernel moves to `next_u64`.
    pub fn skip_words(&mut self, n: u64) {
        for _ in 0..n {
            self.next_u64();
        }
    }

    /// Fast-forward `n` words in `O(log n)`: the same stream position as
    /// [`BlockRng64::skip_words`], reached by jumping the core LCG.
    /// Restoring a checkpoint re-derives the stream from its seed and
    /// jumps to the recorded [`BlockRng64::words_served`]; every
    /// subsequent draw is then bit-identical to the uninterrupted
    /// stream, and a position read from an untrusted checkpoint cannot
    /// stall the restore however large it is.
    pub fn jump_words(&mut self, n: u64) {
        let pending = (self.len - self.pos) as u64;
        if n <= pending {
            self.pos += n as usize;
        } else {
            // The buffered words are already drawn from the core: jump
            // it over the rest and restart from an empty buffer.
            self.core.advance((n - pending) as u128);
            self.pos = 0;
            self.len = 0;
        }
        self.served = self.served.wrapping_add(n);
    }
}

impl RngCore for BlockRng64 {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        // Same truncation as rand_pcg's Pcg64: a full word, low half.
        self.next_u64() as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        if self.pos == self.len {
            self.refill();
        }
        let v = self.buf[self.pos];
        self.pos += 1;
        self.served += 1;
        v
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

/// SplitMix64 finalizer: a bijective avalanche mix.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A root stream for single-process algorithms.
pub fn root_rng(seed: u64) -> Rng64 {
    use rand::SeedableRng;
    Pcg64::seed_from_u64(splitmix64(seed))
}

/// An independent stream for rank `rank` of a world seeded with `seed`.
pub fn rank_rng(seed: u64, rank: u64) -> Rng64 {
    use rand::SeedableRng;
    Pcg64::seed_from_u64(splitmix64(
        splitmix64(seed) ^ splitmix64(rank.wrapping_add(0xA5A5)),
    ))
}

/// Rank `rank`'s stream as a block-buffered generator (the hot-loop form
/// used by the protocol state machines); bit-identical to [`rank_rng`].
pub fn rank_block_rng(seed: u64, rank: u64) -> BlockRng64 {
    BlockRng64::new(rank_rng(seed, rank))
}

/// A named substream (e.g. one per step, per purpose) of a rank stream.
pub fn substream_rng(seed: u64, rank: u64, stream: u64) -> Rng64 {
    use rand::SeedableRng;
    Pcg64::seed_from_u64(splitmix64(
        splitmix64(seed) ^ splitmix64(rank) ^ splitmix64(stream.wrapping_add(0x1234_5678)),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn deterministic_per_seed() {
        let a: u64 = root_rng(7).gen();
        let b: u64 = root_rng(7).gen();
        let c: u64 = root_rng(8).gen();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn rank_streams_differ() {
        let draws: Vec<u64> = (0..16).map(|r| rank_rng(1, r).gen()).collect();
        let unique: std::collections::HashSet<_> = draws.iter().collect();
        assert_eq!(unique.len(), draws.len(), "rank streams collided");
    }

    #[test]
    fn substreams_differ_from_rank_stream() {
        let base: u64 = rank_rng(1, 3).gen();
        let sub: u64 = substream_rng(1, 3, 0).gen();
        assert_ne!(base, sub);
    }

    #[test]
    fn block_rng_serves_the_exact_core_word_stream() {
        let mut bare = rank_rng(17, 3);
        let mut block = rank_block_rng(17, 3);
        // Cross several refill boundaries with a mixed draw pattern.
        for i in 0..(3 * RNG_BLOCK_WORDS) {
            if i % 3 == 0 {
                assert_eq!(bare.next_u32(), block.next_u32(), "u32 draw {i}");
            } else {
                assert_eq!(bare.next_u64(), block.next_u64(), "u64 draw {i}");
            }
        }
        // Typed draws ride the same words.
        let a: f64 = bare.gen_range(0.0..1.0);
        let b: f64 = block.gen_range(0.0..1.0);
        assert_eq!(a, b);
        assert_eq!(bare.gen::<u64>(), block.gen::<u64>());
    }

    #[test]
    fn block_rng_fill_bytes_matches_core() {
        let mut bare = rank_rng(5, 0);
        let mut block = rank_block_rng(5, 0);
        let mut a = [0u8; 13];
        let mut b = [0u8; 13];
        bare.fill_bytes(&mut a);
        block.fill_bytes(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn words_served_counts_every_draw_shape() {
        let mut block = rank_block_rng(9, 1);
        assert_eq!(block.words_served(), 0);
        block.next_u64();
        assert_eq!(block.words_served(), 1);
        block.next_u32(); // full word, truncated
        assert_eq!(block.words_served(), 2);
        let mut buf = [0u8; 17]; // 3 words (chunks of 8)
        block.fill_bytes(&mut buf);
        assert_eq!(block.words_served(), 5);
        // Counting is refill-transparent.
        for _ in 0..(2 * RNG_BLOCK_WORDS) {
            block.next_u64();
        }
        assert_eq!(block.words_served(), 5 + 2 * RNG_BLOCK_WORDS as u64);
    }

    #[test]
    fn skip_words_rejoins_the_stream_bit_exactly() {
        let mut full = rank_block_rng(23, 2);
        let n = RNG_BLOCK_WORDS as u64 + 7; // cross a refill boundary
        for _ in 0..n {
            full.next_u64();
        }
        let mut resumed = rank_block_rng(23, 2);
        resumed.skip_words(n);
        assert_eq!(resumed.words_served(), full.words_served());
        for i in 0..100 {
            assert_eq!(full.next_u64(), resumed.next_u64(), "post-skip draw {i}");
        }
    }

    #[test]
    fn jump_words_lands_where_skip_words_does() {
        for n in [0u64, 5, RNG_BLOCK_WORDS as u64, 1000, 65_537] {
            let mut skipped = rank_block_rng(31, 1);
            let mut jumped = rank_block_rng(31, 1);
            // Start both mid-buffer so the jump has pending words to eat.
            for rng in [&mut skipped, &mut jumped] {
                rng.next_u64();
            }
            skipped.skip_words(n);
            jumped.jump_words(n);
            assert_eq!(jumped.words_served(), skipped.words_served());
            for i in 0..(2 * RNG_BLOCK_WORDS) {
                assert_eq!(jumped.next_u64(), skipped.next_u64(), "n={n} draw {i}");
            }
        }
        // An absurd position costs nothing.
        rank_block_rng(31, 1).jump_words(u64::MAX);
    }

    #[test]
    fn splitmix_is_bijective_sample() {
        // Spot-check injectivity on a contiguous range.
        let outs: std::collections::HashSet<u64> = (0..10_000u64).map(splitmix64).collect();
        assert_eq!(outs.len(), 10_000);
    }
}
