//! A fast, non-cryptographic hasher (the rustc "Fx" algorithm).
//!
//! The standard library's SipHash is HashDoS-resistant but slow for the
//! short string and integer keys that dominate Helix (column names, feature
//! names, operator signatures). None of those keys are attacker-controlled,
//! so the workspace uses this hasher instead, per the Rust Performance
//! Book's hashing guidance. Implemented locally because `rustc-hash` is not
//! in the approved offline dependency set.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// The Fx hash state: multiply-rotate word-at-a-time mixing.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(
                chunk.try_into().expect("exact 8-byte chunk"),
            ));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf));
            self.add_to_hash(rest.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Hashes a byte slice in one call (used for operator signatures).
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write(bytes);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_calls() {
        assert_eq!(hash_bytes(b"workflow"), hash_bytes(b"workflow"));
        assert_ne!(hash_bytes(b"workflow"), hash_bytes(b"workflows"));
    }

    #[test]
    fn distinguishes_suffix_lengths() {
        // Trailing bytes must not collide with their zero-padded versions.
        assert_ne!(hash_bytes(&[1, 2, 3]), hash_bytes(&[1, 2, 3, 0]));
        assert_ne!(hash_bytes(&[]), hash_bytes(&[0]));
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut map: FxHashMap<String, usize> = FxHashMap::default();
        map.insert("age".into(), 0);
        map.insert("education".into(), 1);
        assert_eq!(map["age"], 0);
        let mut set: FxHashSet<u64> = FxHashSet::default();
        set.insert(42);
        assert!(set.contains(&42));
    }

    #[test]
    fn empty_input_hashes_to_initial_state() {
        let hasher = FxHasher::default();
        assert_eq!(hasher.finish(), 0);
        assert_ne!(hash_bytes(b"x"), 0);
    }
}
