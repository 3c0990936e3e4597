//! A small deterministic hasher for maps keyed by line addresses.
//!
//! The standard library's default `RandomState` (SipHash-1-3 with a
//! per-process random key) guards against adversarial keys, which the
//! simulator never sees; on the MSHR lookup path it is pure overhead. The
//! [`LineHasher`] here folds each integer written into its state with one
//! 64×64→128-bit multiply by an odd constant and XORs the product's
//! halves, so both the low bits (bucket index) and the high bits (control
//! tag) of the hash depend on every key bit. It is seedless: a map's
//! layout is the same in every process, though nothing may depend on the
//! iteration order.
//!
//! # Examples
//!
//! ```
//! use gcache_core::addr::LineAddr;
//! use gcache_core::hash::LineMap;
//!
//! let mut m: LineMap<u32> = LineMap::default();
//! m.insert(LineAddr::new(7), 1);
//! assert_eq!(m.get(&LineAddr::new(7)), Some(&1));
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 divided by the golden ratio, rounded to odd.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Deterministic multiplicative hasher (see the module docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let p = u128::from(self.0 ^ x) * u128::from(K);
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed with [`LineHasher`].
pub type LineMap<V> = HashMap<crate::addr::LineAddr, V, BuildHasherDefault<LineHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of(v: impl Hash) -> u64 {
        let mut h = LineHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_and_spreading() {
        assert_eq!(hash_of(42u64), hash_of(42u64));
        // Consecutive and power-of-two-strided keys (the MSHR's typical
        // line streams) land in distinct low-bit buckets.
        for stride in [1u64, 8, 64, 4096] {
            let mut buckets: Vec<u64> = (0..64u64).map(|i| hash_of(i * stride) & 63).collect();
            buckets.sort_unstable();
            buckets.dedup();
            assert!(
                buckets.len() >= 32,
                "stride {stride}: {} buckets",
                buckets.len()
            );
        }
    }

    #[test]
    fn byte_writes_match_word_writes() {
        let mut a = LineHasher::default();
        a.write(&5u64.to_le_bytes());
        let mut b = LineHasher::default();
        b.write_u64(5);
        assert_eq!(a.finish(), b.finish());
    }
}
