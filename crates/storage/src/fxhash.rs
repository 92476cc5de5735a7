//! A small Fx-style hasher, implemented in-repo so we stay within the
//! approved dependency set.
//!
//! Join keys are overwhelmingly small integers and short strings; SipHash's
//! HashDoS protection buys nothing inside a query engine that hashes its own
//! data structures, and costs real cycles on the probe path (see the Rust
//! perf book's "Hashing" chapter). This is the same multiply-rotate scheme
//! as `rustc-hash`.

use std::hash::{BuildHasherDefault, Hasher};

/// The FxHash mixing constant (64-bit golden-ratio multiplier).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fx-style streaming hasher.
#[derive(Debug, Clone, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, w: u64) {
        self.hash = (self.hash.rotate_left(5) ^ w).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
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

    #[inline]
    fn write_i64(&mut self, i: i64) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Drop-in `HashMap` with the Fx hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// Drop-in `HashSet` with the Fx hasher.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn equal_values_hash_equal() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"abc"), hash_of(&"abc"));
    }

    #[test]
    fn distinct_small_ints_spread() {
        let hashes: std::collections::HashSet<u64> = (0..1000u64).map(|i| hash_of(&i)).collect();
        assert_eq!(hashes.len(), 1000);
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FxHashMap<i64, &str> = FxHashMap::default();
        m.insert(1, "one");
        assert_eq!(m.get(&1), Some(&"one"));
        let mut s: FxHashSet<&str> = FxHashSet::default();
        assert!(s.insert("x"));
        assert!(!s.insert("x"));
    }

    #[test]
    fn write_bytes_handles_partial_chunks() {
        let mut h1 = FxHasher::default();
        h1.write(&[1, 2, 3]);
        let mut h2 = FxHasher::default();
        h2.write(&[1, 2, 3]);
        assert_eq!(h1.finish(), h2.finish());
        let mut h3 = FxHasher::default();
        h3.write(&[1, 2, 3, 0, 0, 0, 0, 0, 9]);
        assert_ne!(h1.finish(), h3.finish());
    }
}
