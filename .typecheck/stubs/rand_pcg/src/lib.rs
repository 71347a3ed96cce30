//! Offline stand-in for `rand_pcg` 0.3: a real PCG XSL-RR 128/64
//! generator (deterministic, good statistical quality) compatible with
//! the stub `rand` traits. Streams differ from upstream `rand_pcg`.

use rand::{RngCore, SeedableRng};

const MULTIPLIER: u128 = 0x2360_ed05_1fc6_5da4_4385_df64_9fcc_f645;

/// PCG-XSL-RR 128/64.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pcg64 {
    state: u128,
    increment: u128,
}

impl Pcg64 {
    pub fn new(state: u128, stream: u128) -> Self {
        let increment = (stream << 1) | 1;
        let mut pcg = Pcg64 { state: 0, increment };
        pcg.state = pcg
            .state
            .wrapping_add(state)
            .wrapping_mul(MULTIPLIER)
            .wrapping_add(increment);
        pcg
    }

    /// Jump `delta` steps ahead in `O(log delta)` (the LCG's affine map
    /// composed by repeated squaring), as upstream's `advance` does.
    pub fn advance(&mut self, delta: u128) {
        let (mut acc_mult, mut acc_plus) = (1u128, 0u128);
        let (mut cur_mult, mut cur_plus) = (MULTIPLIER, self.increment);
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

    #[inline]
    fn step(&mut self) -> u128 {
        let old = self.state;
        self.state = old.wrapping_mul(MULTIPLIER).wrapping_add(self.increment);
        old
    }
}

impl RngCore for Pcg64 {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        self.next_u64() as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let state = self.step();
        let xored = ((state >> 64) as u64) ^ (state as u64);
        let rot = (state >> 122) as u32;
        xored.rotate_right(rot)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&bytes[..n]);
        }
    }
}

impl SeedableRng for Pcg64 {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut lo = [0u8; 16];
        let mut hi = [0u8; 16];
        lo.copy_from_slice(&seed[..16]);
        hi.copy_from_slice(&seed[16..]);
        Pcg64::new(u128::from_le_bytes(lo), u128::from_le_bytes(hi))
    }
}

/// Alias used by upstream.
pub type Lcg128Xsl64 = Pcg64;
