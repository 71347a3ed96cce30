//! In-repo Fx-style hashing for the maps and sets keyed on small
//! integers.
//!
//! `std::collections::HashMap` defaults to SipHash-1-3, a poor fit for
//! the keys we hash: small integers — packed edges
//! ([`crate::types::Edge::key`]), conversation ids and vertex labels —
//! for which a multiply-rotate-xor hash (the "Fx" scheme popularized by
//! the Firefox and rustc codebases) is both faster and diffuse enough.
//! The parallel rank state's reservation sets and conversation maps,
//! the Curveball ranks' trade slots and the visit tracker use it. The
//! edge pool's position index does not: it is its own open-addressing
//! table (see [`crate::sampling`]), whose entries a switch loop can
//! prefetch.
//!
//! Implemented in-repo because the build environment has no crates.io
//! access; the algorithm is a dozen lines and needs no external crate.
//! This is **not** a DoS-resistant hash: keys here come from graph
//! structure we generate or load ourselves, not from untrusted input.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant: `2^64 / φ`, the 64-bit golden-ratio mixer.
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A 64-bit Fx hasher: `hash = (rotl5(hash) ^ word) * K` per input word.
///
/// Word-at-a-time for the integer `write_*` fast paths the hot maps use;
/// arbitrary byte slices are folded in 8-byte chunks so composite keys
/// (e.g. derived `Hash` impls) also work.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher64 {
    hash: u64,
}

impl FxHasher64 {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher64 {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// Builder for [`FxHasher64`] (zero-sized, all hashers start identical).
pub type FxBuildHasher = BuildHasherDefault<FxHasher64>;

/// A `HashMap` using [`FxHasher64`]. Drop-in for `std::HashMap` on keys
/// that are not attacker-controlled.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher64`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// `FxHashMap` pre-sized for `cap` entries.
pub fn map_with_capacity<K, V>(cap: usize) -> FxHashMap<K, V> {
    FxHashMap::with_capacity_and_hasher(cap, FxBuildHasher::default())
}

/// SplitMix64 finalizer: a bijective avalanche mix over `u64`.
///
/// The seeded-substream primitive of the recomputation-based generators
/// (`crate::generators`): hashing `(seed, index, attempt)` tuples
/// through nested `mix64` calls yields independent deterministic draws
/// addressable by index, which is what lets every rank re-derive any
/// predecessor's random choice without storing or communicating it.
/// Same construction as `edgeswitch_dist::splitmix64`, duplicated here
/// because the graph crate sits below `dist` in the dependency order.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_hashers() {
        assert_eq!(hash_of(42u64), hash_of(42u64));
        assert_eq!(hash_of("edge"), hash_of("edge"));
    }

    #[test]
    fn distinct_inputs_rarely_collide() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            seen.insert(hash_of(i));
        }
        assert_eq!(seen.len(), 10_000, "u64 keys must not collide in-range");
    }

    #[test]
    fn low_bits_are_diffuse() {
        // HashMap indexes with the low bits; sequential keys must not
        // land in sequential buckets' worth of identical low bits.
        let mask = 0xFFu64;
        let mut buckets = [0u32; 256];
        for i in 0..4096u64 {
            buckets[(hash_of(i) & mask) as usize] += 1;
        }
        let max = *buckets.iter().max().unwrap();
        assert!(max < 64, "low-bit bucket skew too high: {max}");
    }

    #[test]
    fn byte_slices_hash_consistently() {
        let mut a = FxHasher64::default();
        a.write(b"0123456789abcdef");
        let mut b = FxHasher64::default();
        b.write(b"0123456789abcdef");
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher64::default();
        c.write(b"0123456789abcdeX");
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn presized_collections_start_empty() {
        let m: FxHashMap<u64, u32> = map_with_capacity(100);
        assert!(m.is_empty() && m.capacity() >= 100);
    }
}
