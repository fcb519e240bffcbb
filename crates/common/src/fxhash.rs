//! A small, fast, non-cryptographic hasher in the style of `rustc-hash`.
//!
//! The approved offline dependency set does not include `rustc-hash`, and the
//! default SipHash tables are measurably slow on the short string and integer
//! keys that dominate this workspace (term ids, attribute names, URL strings).
//! This is the classic Fx multiply-and-rotate mix; it is *not* HashDoS
//! resistant, which is fine for a simulator whose inputs we generate ourselves.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant used by the Firefox/rustc "Fx" hash.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, deterministic, non-cryptographic [`Hasher`].
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in chunks.by_ref() {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            // Length tag keeps "ab" and "ab\0" distinct.
            buf[7] = rest.len() as u8;
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `HashMap` keyed with [`FxHasher`].
#[expect(
    clippy::disallowed_types,
    reason = "alias definition site: the fixed-seed FxHasher replacing RandomState is the fix the rule points at"
)]
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
#[expect(
    clippy::disallowed_types,
    reason = "alias definition site: the fixed-seed FxHasher replacing RandomState is the fix the rule points at"
)]
pub type FxHashSet<K> = std::collections::HashSet<K, BuildHasherDefault<FxHasher>>;

/// Hash a single value with [`FxHasher`]; useful for content signatures.
pub fn fxhash64<T: std::hash::Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(fxhash64("deep web"), fxhash64("deep web"));
        assert_eq!(fxhash64(&12345u64), fxhash64(&12345u64));
    }

    #[test]
    fn distinguishes_short_strings() {
        assert_ne!(fxhash64("a"), fxhash64("b"));
        assert_ne!(fxhash64("ab"), fxhash64("ab\0"));
        assert_ne!(fxhash64(""), fxhash64("\0"));
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<String, u32> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert(format!("key-{i}"), i);
        }
        for i in 0..1000u32 {
            assert_eq!(m[&format!("key-{i}")], i);
        }
    }

    #[test]
    fn set_dedups() {
        let mut s: FxHashSet<u64> = FxHashSet::default();
        for i in 0..100 {
            s.insert(i % 10);
        }
        assert_eq!(s.len(), 10);
    }
}
