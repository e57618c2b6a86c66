//! Stable 64-bit state digests.
//!
//! [`StableHasher`] is a fixed-seed FNV-1a accumulator with a splitmix64
//! finalizer: no per-process randomization (unlike `DefaultHasher`), no
//! platform dependence (all writes are explicit little-endian integers), so
//! a digest computed today on one host equals the digest of the same state
//! on any other host or run. [`StateDigest`] is the visitor trait each layer
//! implements; composite digests are order-sensitive by design — hashing a
//! `BTreeMap` walks it in key order, and hashing a `Vec` walks it in index
//! order, so any reordering of logically-ordered state changes the digest.
//!
//! Floats are hashed through [`f64::to_bits`]: two states digest equal iff
//! their floats are bit-identical, which is exactly the reproduction's
//! "bit-identical solve" guarantee (tolerance-based comparison would mask
//! the accumulation-order bugs the double-run gates exist to catch).
//!
//! [`compare`] records per-tick [`DigestTrace`]s and walks two runs to
//! their first divergent tick.

use crate::{Bitrate, ClientId, SimDuration, SimTime, Ssrc, StreamKind};
use std::collections::BTreeMap;

pub mod compare;

pub use compare::{first_divergence, DigestEntry, DigestTrace, Divergence};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// Deterministic, seed-free 64-bit hash accumulator.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl StableHasher {
    /// A fresh accumulator (fixed FNV offset basis; never randomized).
    #[must_use]
    pub fn new() -> Self {
        StableHasher { state: FNV_OFFSET }
    }

    /// Absorb raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorb a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorb a `u8`.
    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// Absorb an `f64` through its exact bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorb a length prefix (guards against concatenation ambiguity:
    /// `["ab","c"]` and `["a","bc"]` must not collide).
    pub fn write_len(&mut self, len: usize) {
        self.write_u64(len as u64);
    }

    /// Absorb a string (length-prefixed).
    pub fn write_str(&mut self, s: &str) {
        self.write_len(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// Finish with a splitmix64 avalanche so near-identical states land far
    /// apart in digest space.
    #[must_use]
    pub fn finish(&self) -> u64 {
        let mut z = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A type that can contribute to a stable state digest.
pub trait StateDigest {
    /// Absorb this value's state into the accumulator.
    fn digest(&self, h: &mut StableHasher);

    /// This value's standalone 64-bit digest.
    fn state_digest(&self) -> u64 {
        let mut h = StableHasher::new();
        self.digest(&mut h);
        h.finish()
    }
}

macro_rules! digest_as_u64 {
    ($($t:ty),*) => {$(
        impl StateDigest for $t {
            fn digest(&self, h: &mut StableHasher) {
                h.write_u64(u64::from(*self));
            }
        }
    )*};
}

digest_as_u64!(u8, u16, u32, u64, bool);

impl StateDigest for usize {
    fn digest(&self, h: &mut StableHasher) {
        h.write_u64(*self as u64);
    }
}

impl StateDigest for i64 {
    fn digest(&self, h: &mut StableHasher) {
        h.write_u64(*self as u64);
    }
}

impl StateDigest for f64 {
    fn digest(&self, h: &mut StableHasher) {
        h.write_f64(*self);
    }
}

impl StateDigest for str {
    fn digest(&self, h: &mut StableHasher) {
        h.write_str(self);
    }
}

impl StateDigest for String {
    fn digest(&self, h: &mut StableHasher) {
        h.write_str(self);
    }
}

impl<T: StateDigest + ?Sized> StateDigest for &T {
    fn digest(&self, h: &mut StableHasher) {
        (**self).digest(h);
    }
}

impl<T: StateDigest> StateDigest for Option<T> {
    fn digest(&self, h: &mut StableHasher) {
        match self {
            None => h.write_u8(0),
            Some(v) => {
                h.write_u8(1);
                v.digest(h);
            }
        }
    }
}

impl<T: StateDigest> StateDigest for [T] {
    fn digest(&self, h: &mut StableHasher) {
        h.write_len(self.len());
        for v in self {
            v.digest(h);
        }
    }
}

impl<T: StateDigest> StateDigest for Vec<T> {
    fn digest(&self, h: &mut StableHasher) {
        self.as_slice().digest(h);
    }
}

impl<A: StateDigest, B: StateDigest> StateDigest for (A, B) {
    fn digest(&self, h: &mut StableHasher) {
        self.0.digest(h);
        self.1.digest(h);
    }
}

impl<A: StateDigest, B: StateDigest, C: StateDigest> StateDigest for (A, B, C) {
    fn digest(&self, h: &mut StableHasher) {
        self.0.digest(h);
        self.1.digest(h);
        self.2.digest(h);
    }
}

impl<K: StateDigest, V: StateDigest> StateDigest for BTreeMap<K, V> {
    fn digest(&self, h: &mut StableHasher) {
        h.write_len(self.len());
        for (k, v) in self {
            k.digest(h);
            v.digest(h);
        }
    }
}

// ---------------------------------------------------------------------------
// Foundation types of this crate.
// ---------------------------------------------------------------------------

impl StateDigest for SimTime {
    fn digest(&self, h: &mut StableHasher) {
        h.write_u64(self.as_micros());
    }
}

impl StateDigest for SimDuration {
    fn digest(&self, h: &mut StableHasher) {
        h.write_u64(self.as_micros());
    }
}

impl StateDigest for Bitrate {
    fn digest(&self, h: &mut StableHasher) {
        h.write_u64(self.as_bps());
    }
}

impl StateDigest for ClientId {
    fn digest(&self, h: &mut StableHasher) {
        h.write_u64(u64::from(self.0));
    }
}

impl StateDigest for Ssrc {
    fn digest(&self, h: &mut StableHasher) {
        h.write_u64(u64::from(self.0));
    }
}

impl StateDigest for StreamKind {
    fn digest(&self, h: &mut StableHasher) {
        h.write_u8(match self {
            StreamKind::Audio => 0,
            StreamKind::Video => 1,
            StreamKind::Screen => 2,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_stable_across_calls() {
        let v = vec![(ClientId(1), Bitrate::from_kbps(500)), (ClientId(2), Bitrate::from_kbps(7))];
        assert_eq!(v.state_digest(), v.state_digest());
    }

    #[test]
    fn known_value_is_pinned() {
        // Pin the scalar path end-to-end (FNV-1a over 8 LE bytes, then
        // splitmix64) so an accidental change to the hash function — which
        // would silently invalidate every recorded baseline — fails loudly.
        let mut state = FNV_OFFSET;
        for b in 42u64.to_le_bytes() {
            state ^= u64::from(b);
            state = state.wrapping_mul(FNV_PRIME);
        }
        let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let expected = z ^ (z >> 31);
        assert_eq!(42u64.state_digest(), expected);
        assert_ne!(42u64.state_digest(), 43u64.state_digest());
    }

    #[test]
    fn order_sensitivity() {
        let a = vec![1u64, 2, 3].state_digest();
        let b = vec![3u64, 2, 1].state_digest();
        assert_ne!(a, b, "element order must matter");
    }

    #[test]
    fn length_prefix_prevents_concatenation_collisions() {
        let a = vec!["ab".to_string(), "c".to_string()].state_digest();
        let b = vec!["a".to_string(), "bc".to_string()].state_digest();
        assert_ne!(a, b);
    }

    #[test]
    fn float_bits_not_value_tolerance() {
        assert_ne!((0.1f64 + 0.2).state_digest(), 0.3f64.state_digest());
        assert_eq!(1.5f64.state_digest(), 1.5f64.state_digest());
    }

    #[test]
    fn option_tags_disambiguate() {
        assert_ne!(Some(0u64).state_digest(), None::<u64>.state_digest());
    }

    #[test]
    fn btreemap_digest_follows_key_order() {
        let mut m1 = BTreeMap::new();
        m1.insert(2u64, 20u64);
        m1.insert(1u64, 10u64);
        let mut m2 = BTreeMap::new();
        m2.insert(1u64, 10u64);
        m2.insert(2u64, 20u64);
        // Insertion order is irrelevant: BTreeMap iterates in key order.
        assert_eq!(m1.state_digest(), m2.state_digest());
    }
}
