//! Probe keys with precomputed equality hashes — the "hash-once" unit of
//! the flat probe pipeline.
//!
//! The eddy's hot path is probing SteM dictionaries with equality keys.
//! Before this vocabulary existed, every layer re-derived the same two
//! facts about each key: its equality normal form ([`Value::equality_key`])
//! and its stable hash ([`Value::stable_key_hash`]) — once in the shard
//! router, again in the hash index, again per duplicate key in an
//! envelope. [`HashedKey`] computes both exactly once, at the envelope
//! boundary, and every downstream consumer (memo shard routing through
//! [`KeyHash::shard`], prehashed index lookups, the UDF
//! hop's grouping of equal keys) reads the annotations
//! instead of re-hashing. A SteM lookup resolves each key of an envelope
//! on its own, repeats included: it keeps no map of the keys it has seen.

use crate::value::Value;

/// A precomputed [`Value::stable_key_hash`], carried alongside a probe key
/// so downstream layers never re-hash. The wrapped hash is of the key's
/// *equality normal form*, so it can be compared across `Int`/`Float`
/// coercion boundaries and fed directly to shard routing
/// ([`KeyHash::shard`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeyHash(pub u64);

impl KeyHash {
    /// The raw 64-bit hash.
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }

    /// The shard a key with this hash routes to under a `num_shards`
    /// fan-out (the verdict memo's lock shards): the high half of the
    /// hash scaled onto `0..num_shards`. An `Int` key's hash
    /// is one multiply, so its low bits depend only on the key's low bits
    /// — `hash % num_shards` would put every even key in half the shards
    /// and every multiple of 8 in one of eight.
    #[inline]
    pub fn shard(self, num_shards: usize) -> usize {
        (((self.0 >> 32) * num_shards.max(1) as u64) >> 32) as usize
    }
}

/// An equality probe key annotated with its normal form and hash, both
/// computed once ([`HashedKey::new`]).
///
/// `key` is the [`Value::equality_key`] normal form (`None` when the raw
/// value is NULL/EOT and can never match anything); `hash` is its
/// [`Value::stable_key_hash`] and is present iff `key` is — the two are
/// computed from the same value in one place, so they cannot disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct HashedKey {
    raw: Value,
    key: Option<Value>,
    hash: Option<KeyHash>,
}

impl HashedKey {
    /// Annotate a probe key: normalize and hash exactly once.
    pub fn new(raw: Value) -> HashedKey {
        let key = raw.equality_key();
        let hash = key.as_ref().and_then(Value::stable_key_hash).map(KeyHash);
        debug_assert_eq!(
            hash.map(KeyHash::get),
            raw.stable_key_hash(),
            "stable_key_hash must hash the equality normal form"
        );
        HashedKey { raw, key, hash }
    }

    /// The probe value as supplied (un-normalized) — what scalar
    /// `lookup_eq` fallback paths receive.
    #[inline]
    pub fn raw(&self) -> &Value {
        &self.raw
    }

    /// The equality normal form, `None` for NULL/EOT keys (which match
    /// nothing and take the empty path everywhere).
    #[inline]
    pub fn key(&self) -> Option<&Value> {
        self.key.as_ref()
    }

    /// The precomputed hash of the normal form.
    #[inline]
    pub fn hash(&self) -> Option<KeyHash> {
        self.hash
    }

    /// The Grace partition of this key under a `partitions` fan-out: its
    /// hash routed by [`KeyHash::shard`], so a strided key column spreads
    /// over every partition. A NULL/EOT key has no hash and goes to
    /// partition 0.
    pub fn partition(&self, partitions: usize) -> usize {
        self.hash.map_or(0, |h| h.shard(partitions))
    }

    /// Two annotated keys resolve to identical lookup results iff their
    /// equality normal forms agree (`Int(5)` ≡ `Float(5.0)`; all NULL/EOT
    /// keys are mutually equivalent because they all match nothing). The
    /// hash comparison screens out almost everything before the value
    /// compare runs.
    #[inline]
    pub fn same_lookup(&self, other: &HashedKey) -> bool {
        self.hash == other.hash && self.key == other.key
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annotations_match_value_methods() {
        for v in [
            Value::Int(5),
            Value::Float(5.0),
            Value::Float(5.5),
            Value::str("abc"),
            Value::Bool(true),
            Value::Null,
            Value::Eot,
        ] {
            let hk = HashedKey::new(v.clone());
            assert_eq!(hk.raw(), &v);
            assert_eq!(hk.key(), v.equality_key().as_ref());
            assert_eq!(hk.hash().map(KeyHash::get), v.stable_key_hash());
        }
    }

    #[test]
    fn coerced_keys_are_same_lookup() {
        let int5 = HashedKey::new(Value::Int(5));
        let float5 = HashedKey::new(Value::Float(5.0));
        assert!(int5.same_lookup(&float5));
        assert!(!int5.same_lookup(&HashedKey::new(Value::Float(5.5))));
        // All un-hashable keys share the (empty) lookup result.
        let null = HashedKey::new(Value::Null);
        let eot = HashedKey::new(Value::Eot);
        assert!(null.same_lookup(&eot));
        assert!(!null.same_lookup(&int5));
    }

    #[test]
    fn shard_routing_uses_the_precomputed_hash() {
        let hk = HashedKey::new(Value::Int(42));
        let h = hk.hash().unwrap();
        assert_eq!(h.shard(4) as u64, ((h.get() >> 32) * 4) >> 32);
        assert_eq!(h.shard(1), 0);
        assert_eq!(KeyHash(u64::MAX).shard(7), 6, "the top of the range");
        assert_eq!(h.shard(0), 0, "degenerate fan-out must not divide by 0");
    }

    /// Keys that are all multiples of 8 reach every one of 8 partitions,
    /// `Int` and `Float` spellings of a key share one, and a NULL key
    /// goes to partition 0.
    #[test]
    fn strided_keys_reach_every_partition() {
        let parts: std::collections::BTreeSet<usize> = (0..256)
            .map(|i| HashedKey::new(Value::Int(i * 8)).partition(8))
            .collect();
        assert_eq!(parts.len(), 8, "{parts:?}");
        for k in [0i64, 8, 40, 1 << 40] {
            assert_eq!(
                HashedKey::new(Value::Int(k)).partition(8),
                HashedKey::new(Value::Float(k as f64)).partition(8)
            );
        }
        assert_eq!(HashedKey::new(Value::Null).partition(8), 0);
    }
}
