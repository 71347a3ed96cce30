//! Seeded, per-rank-decorrelated PRNG streams, and the generator and
//! sampling trait they are drawn from.
//!
//! Every experiment in the repository is reproducible from a single
//! `u64` seed. Distributed components derive one independent stream per
//! rank by mixing `(seed, rank)` through SplitMix64, the standard
//! stream-splitting construction.
//!
//! The generator is an in-repo PCG XSL-RR 128/64 ([`Pcg64`]) and the
//! typed draws are the provided methods of one trait ([`Rng`]); both are
//! what every golden digest, archived `results/` file and `BENCH_*.json`
//! row was drawn from, so their word stream and their word → value maps
//! are part of the repository's contract (pinned by the tests below).

use std::ops::{Range, RangeInclusive};

/// The one sampling interface: a source of `u64` words plus the typed
/// draws the repository makes from them. Every provided method consumes
/// exactly one word per draw (`fill_bytes`: one per 8 bytes), so the
/// stream position after a call never depends on the value drawn.
pub trait Rng {
    /// The next word of the stream.
    fn next_u64(&mut self) -> u64;

    /// A full word, low half.
    #[inline]
    fn next_u32(&mut self) -> u32 {
        self.next_u64() as u32
    }

    /// A uniform `f64` in `[0, 1)`: the top 53 bits of one word.
    #[inline]
    fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p`: [`Rng::gen_f64`]` < p`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} outside [0,1]");
        self.gen_f64() < p
    }

    /// A draw from `range` (`a..b` or `a..=b`; panics when empty).
    ///
    /// Integers are `low + next_u64() % span` — modulo reduction, whose
    /// bias towards the low residues is below `span / 2^64`: under
    /// `2^-32` for every range the engines draw (spans are edge,
    /// vertex and rank counts, all under `2^32`). Floats are
    /// `low + gen_f64() * (high - low)`.
    #[inline]
    fn gen_range<T: SampleUniform>(&mut self, range: impl SampleRange<T>) -> T {
        let (low, high, inclusive) = range.bounds();
        assert!(
            if inclusive { low <= high } else { low < high },
            "cannot sample empty range"
        );
        T::sample_between(low, high, inclusive, self)
    }

    /// Fill `dest` from little-endian words, one word per 8 bytes (the
    /// last word truncated).
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

/// A type [`Rng::gen_range`] can draw.
pub trait SampleUniform: PartialOrd + Sized {
    /// One draw from the non-empty `[low, high)` (`[low, high]` when
    /// `inclusive`).
    fn sample_between<R: Rng + ?Sized>(low: Self, high: Self, inclusive: bool, rng: &mut R)
        -> Self;
}

/// A range [`Rng::gen_range`] accepts.
pub trait SampleRange<T> {
    /// `(low, high, inclusive)`.
    fn bounds(self) -> (T, T, bool);
}

impl<T> SampleRange<T> for Range<T> {
    fn bounds(self) -> (T, T, bool) {
        (self.start, self.end, false)
    }
}

impl<T> SampleRange<T> for RangeInclusive<T> {
    fn bounds(self) -> (T, T, bool) {
        let (low, high) = self.into_inner();
        (low, high, true)
    }
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_between<R: Rng + ?Sized>(
                low: Self,
                high: Self,
                inclusive: bool,
                rng: &mut R,
            ) -> Self {
                // Sign extension makes the wrapping difference the true
                // span for signed types too; it is 0 only for the
                // inclusive full 64-bit range, whose span is 2^64.
                let span = (high as u64)
                    .wrapping_sub(low as u64)
                    .wrapping_add(inclusive as u64);
                let word = rng.next_u64();
                let offset = if span == 0 { word } else { word % span };
                (low as u64).wrapping_add(offset) as $t
            }
        }
    )*};
}
impl_uniform_int!(u32, u64, usize, i32, i64);

impl SampleUniform for f64 {
    #[inline]
    fn sample_between<R: Rng + ?Sized>(low: f64, high: f64, _inclusive: bool, rng: &mut R) -> f64 {
        low + rng.gen_f64() * (high - low)
    }
}

const PCG_MULTIPLIER: u128 = 0x2360_ed05_1fc6_5da4_4385_df64_9fcc_f645;

/// The PRNG used everywhere: PCG XSL-RR 128/64 — a 128-bit LCG whose
/// output is the xor-folded state rotated by its top six bits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pcg64 {
    state: u128,
    increment: u128,
}

/// The repository's name for its generator.
pub type Rng64 = Pcg64;

impl Pcg64 {
    /// The generator with initial `state` on sequence `stream`.
    pub fn new(state: u128, stream: u128) -> Self {
        let increment = (stream << 1) | 1;
        Pcg64 {
            state: state.wrapping_mul(PCG_MULTIPLIER).wrapping_add(increment),
            increment,
        }
    }

    /// Seed from one `u64`: four SplitMix64 outputs of the running
    /// state `seed` give the 128-bit state (first two, little-endian)
    /// and stream (last two).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut s = seed;
        let mut next = || {
            let word = splitmix64(s);
            s = s.wrapping_add(SPLITMIX_GAMMA);
            word as u128
        };
        let state = next() | next() << 64;
        let stream = next() | next() << 64;
        Pcg64::new(state, stream)
    }

    /// Jump `delta` steps ahead in `O(log delta)`: the LCG's affine map
    /// composed with itself by repeated squaring.
    pub fn advance(&mut self, delta: u128) {
        let (mut acc_mult, mut acc_plus) = (1u128, 0u128);
        let (mut cur_mult, mut cur_plus) = (PCG_MULTIPLIER, self.increment);
        let mut left = delta;
        while left > 0 {
            if left & 1 != 0 {
                acc_mult = acc_mult.wrapping_mul(cur_mult);
                acc_plus = acc_plus.wrapping_mul(cur_mult).wrapping_add(cur_plus);
            }
            cur_plus = cur_mult.wrapping_add(1).wrapping_mul(cur_plus);
            cur_mult = cur_mult.wrapping_mul(cur_mult);
            left >>= 1;
        }
        self.state = acc_mult.wrapping_mul(self.state).wrapping_add(acc_plus);
    }
}

impl Rng for Pcg64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let state = self.state;
        self.state = state
            .wrapping_mul(PCG_MULTIPLIER)
            .wrapping_add(self.increment);
        let xored = ((state >> 64) as u64) ^ (state as u64);
        xored.rotate_right((state >> 122) as u32)
    }
}

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
/// `u64` sequence the bare [`Rng64`] would have produced, and every
/// typed draw — a provided method of [`Rng`] over `next_u64` — the same
/// value.
///
/// Every draw routes through [`Rng::next_u64`], so the generator
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

    /// The words the next draws will be served, in order, without
    /// serving them: the buffered rest of the block, refilled first if
    /// it is spent (that refill is the one the next draw would make, so
    /// the stream and [`BlockRng64::words_served`] are unchanged). At
    /// most [`RNG_BLOCK_WORDS`] words, borrowed in place. A consumer
    /// that knows how it maps words to values — an edge slot is
    /// `word % m` — reads its coming draws here to prefetch them.
    #[inline]
    pub fn peek(&mut self) -> &[u64] {
        if self.pos == self.len {
            self.refill();
        }
        &self.buf[self.pos..self.len]
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

impl Rng for BlockRng64 {
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
}

const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer: a bijective avalanche mix.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(SPLITMIX_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A root stream for single-process algorithms.
pub fn root_rng(seed: u64) -> Rng64 {
    Pcg64::seed_from_u64(splitmix64(seed))
}

/// An independent stream for rank `rank` of a world seeded with `seed`.
pub fn rank_rng(seed: u64, rank: u64) -> Rng64 {
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
    Pcg64::seed_from_u64(splitmix64(
        splitmix64(seed) ^ splitmix64(rank) ^ splitmix64(stream.wrapping_add(0x1234_5678)),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The word streams every golden digest in the repository was drawn
    /// from: a change here re-pins all of them.
    #[test]
    fn the_seeded_word_streams_are_pinned() {
        let words = |mut rng: Rng64| [rng.next_u64(), rng.next_u64(), rng.next_u64()];
        assert_eq!(
            words(root_rng(0)),
            [
                0xe436_39a0_83e4_23c2,
                0x81e5_d27d_ef22_699e,
                0x2538_bf95_e604_11d4
            ]
        );
        let rank_streams = [
            [
                0x85aa_20fb_45de_a436,
                0x9742_e616_ed6a_f17b,
                0x06a0_2d57_5585_7f6a,
            ],
            [
                0xa164_fac1_5d92_7e6a,
                0xd120_b3eb_d7e0_284d,
                0x5720_412a_5141_5f7a,
            ],
            [
                0xf060_0abe_1368_96dd,
                0x5e73_6f4e_7299_1370,
                0x8d36_3a36_ef7c_89e8,
            ],
        ];
        for (rank, pinned) in rank_streams.iter().enumerate() {
            assert_eq!(words(rank_rng(1, rank as u64)), *pinned, "rank {rank}");
        }
        // Typed draws, as the pre-promotion stream made them.
        let mut rng = root_rng(5);
        assert_eq!(rng.gen_range(7u32..1000), 910);
        assert_eq!(rng.gen_range(0..=u64::MAX), 16_587_765_168_926_665_003);
        assert_eq!(
            rng.gen_range(i64::MIN..=i64::MAX),
            3_620_567_181_799_549_785
        );
        assert_eq!(rng.gen_range(-5i64..5), 0);
        assert_eq!(rng.gen_range(2.0..6.0), 2.095728382663559);
        assert!(!rng.gen_bool(0.25));
    }

    #[test]
    fn advance_equals_single_steps() {
        for n in [0u64, 1, 31, 32, 33, 1_000_000] {
            let mut stepped = root_rng(3);
            for _ in 0..n {
                stepped.next_u64();
            }
            let mut jumped = root_rng(3);
            jumped.advance(n as u128);
            assert_eq!(jumped, stepped, "n={n}");
        }
    }

    /// `gen_range` is `low + next_u64() % span`, one word per draw, for
    /// every integer type and both range shapes.
    #[test]
    fn gen_range_is_modulo_reduction_of_one_word() {
        let mut rng = root_rng(5);
        let mut bare = root_rng(5);
        for _ in 0..200 {
            let w = bare.next_u64();
            assert_eq!(rng.gen_range(7u32..1000), 7 + (w % 993) as u32);
            let w = bare.next_u64();
            assert_eq!(rng.gen_range(7u32..=1000), 7 + (w % 994) as u32);
            let w = bare.next_u64();
            assert_eq!(rng.gen_range(0usize..3), (w % 3) as usize);
            let w = bare.next_u64();
            assert_eq!(rng.gen_range(10u64..=u64::MAX), 10 + w % (u64::MAX - 9));
            let w = bare.next_u64();
            assert_eq!(rng.gen_range(-5i64..5), -5 + (w % 10) as i64);
            let w = bare.next_u64();
            assert_eq!(
                rng.gen_range(i64::MIN..=-1),
                i64::MIN + (w % (1 << 63)) as i64
            );
            // Span 2^64 does not fit a u64: the word itself, not `% 0`.
            assert_eq!(rng.gen_range(0..=u64::MAX), bare.next_u64());
            assert_eq!(
                rng.gen_range(i64::MIN..=i64::MAX),
                i64::MIN.wrapping_add(bare.next_u64() as i64)
            );
            // A one-value range still consumes its word.
            assert_eq!(rng.gen_range(4u64..5), 4);
            bare.next_u64();
        }
    }

    #[test]
    fn float_draws_are_the_top_53_bits() {
        let mut rng = root_rng(6);
        let mut bare = root_rng(6);
        for _ in 0..200 {
            let unit = (bare.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            assert_eq!(rng.gen_f64(), unit);
            let unit = (bare.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            assert_eq!(rng.gen_range(2.0..6.0), 2.0 + unit * 4.0);
            let unit = (bare.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            assert_eq!(rng.gen_bool(0.25), unit < 0.25);
        }
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_half_open_range_panics() {
        root_rng(1).gen_range(3u64..3);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    #[allow(clippy::reversed_empty_ranges)]
    fn empty_inclusive_range_panics() {
        root_rng(1).gen_range(3usize..=2);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = root_rng(7).next_u64();
        let b = root_rng(7).next_u64();
        let c = root_rng(8).next_u64();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn rank_streams_differ() {
        let draws: Vec<u64> = (0..16).map(|r| rank_rng(1, r).next_u64()).collect();
        let unique: std::collections::HashSet<_> = draws.iter().collect();
        assert_eq!(unique.len(), draws.len(), "rank streams collided");
    }

    #[test]
    fn substreams_differ_from_rank_stream() {
        let base = rank_rng(1, 3).next_u64();
        let sub = substream_rng(1, 3, 0).next_u64();
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
        assert_eq!(bare.gen_f64().to_bits(), block.gen_f64().to_bits());
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
    fn peek_shows_the_coming_words_and_serves_none() {
        let mut block = rank_block_rng(4, 1);
        let mut bare = rank_rng(4, 1);
        // From a fresh generator, then after jumps within and past the
        // buffered words.
        for skip in [0u64, 5, 27, 40] {
            block.jump_words(skip);
            for _ in 0..skip {
                bare.next_u64();
            }
            let served = block.words_served();
            let ahead = block.peek().to_vec();
            assert!(!ahead.is_empty() && ahead.len() <= RNG_BLOCK_WORDS);
            assert_eq!(block.words_served(), served, "peek serves nothing");
            let half = ahead.len() / 2;
            for &word in &ahead[..half] {
                assert_eq!((block.next_u64(), bare.next_u64()), (word, word));
            }
            assert_eq!(block.peek(), &ahead[half..], "mid-block");
            for &word in &ahead[half..] {
                assert_eq!((block.next_u64(), bare.next_u64()), (word, word));
            }
        }
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
