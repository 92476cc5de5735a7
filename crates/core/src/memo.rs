//! Verdict memoization for expensive UDF-style predicates.
//!
//! A [`MemoCache`] maps the *equality normal form* of a predicate's input
//! value ([`stems_types::Value::equality_key`], pre-hashed as a
//! [`HashedKey`]) to the UDF's boolean verdict, so a verdict is computed —
//! and its virtual latency paid — at most once per distinct key. Because a
//! [`stems_types::UdfSpec`] verdict is a pure function of the equality
//! key, replaying a cached verdict is semantically invisible: the only
//! observable difference is time.
//!
//! Structure: `num_shards` independently locked shards (routed by the
//! high half of the key's hash, [`KeyHash::shard`]), each an entry slab
//! indexed by the key's
//! precomputed stable hash — slot chains under an identity hasher
//! ([`SlotChains`], the SteM index's shape), so a lookup never re-hashes
//! and an entry costs no list of its own — with a clock/second-chance
//! eviction hand bounded by an
//! [`stems_types::Value::approx_bytes`] budget. Shards live behind the
//! [`crate::sync`] shim; poison recovery clears the poisoned shard — the
//! memo is pure performance state, so an empty shard is always correct.
//!
//! One cache memoizes exactly one verdict function. The query server
//! shares a [`MemoCell`] across queries whose predicates carry the same
//! `UdfSpec` (folding, PR 7's registry idiom): query B never re-pays a
//! verdict query A bought.

use crate::sync::{lock_recover, Arc, Mutex, MutexGuard};
use stems_storage::{Slot, SlotChains};
use stems_types::{HashedKey, KeyHash, Value};

/// Default per-cache byte budget (`ExecConfig::memo_bytes`).
pub const DEFAULT_MEMO_BYTES: usize = 1 << 20;

/// Default shard fan-out for a memo cache.
pub const DEFAULT_MEMO_SHARDS: usize = 8;

/// Estimated per-entry bookkeeping on top of the key's own
/// `approx_bytes`: slab slot, index chain slot, verdict + clock bits.
const ENTRY_OVERHEAD: usize = 48;

/// A shareable handle on one [`MemoCache`] (what the server folds across
/// compatible queries; a solo query holds the only reference).
pub type MemoCell = Arc<MemoCache>;

/// Per-call counters a memo operation hands back to the caller, which
/// folds them into its own per-query `Metrics` — so even when the cache
/// itself is shared, each query observes *its* hits and misses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoCounters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

/// One memoized verdict.
#[derive(Debug)]
struct MemoEntry {
    hash: u64,
    /// The input's equality normal form (dictionary-compared on lookup, so
    /// hash collisions between distinct keys can never alias verdicts).
    key: Value,
    verdict: bool,
    /// Second-chance bit: set on every hit, cleared when the clock hand
    /// sweeps past.
    referenced: bool,
}

impl MemoEntry {
    fn approx_bytes(&self) -> usize {
        self.key.approx_bytes() + ENTRY_OVERHEAD
    }
}

/// One lock's worth of cache: an entry slab plus a hash index over it.
#[derive(Default)]
struct MemoShard {
    /// Slab of entries; `None` slots are free (reused before growing).
    slab: Vec<Option<MemoEntry>>,
    free: Vec<usize>,
    /// hash → slab slots holding entries with that hash (collision chain).
    index: SlotChains,
    /// Clock hand for second-chance eviction, an index into `slab`.
    hand: usize,
    bytes: usize,
}

impl MemoShard {
    fn clear(&mut self) {
        self.slab.clear();
        self.free.clear();
        self.index.clear();
        self.hand = 0;
        self.bytes = 0;
    }

    fn lookup(&mut self, hash: u64, key: &Value) -> Option<bool> {
        let slab = &self.slab;
        let held = |s: &Slot| slab[*s as usize].as_ref().is_some_and(|e| &e.key == key);
        let slot = self.index.chain(hash).find(held)?;
        let entry = self.slab[slot as usize]
            .as_mut()
            .expect("indexed slot is live");
        entry.referenced = true;
        Some(entry.verdict)
    }

    /// Insert a verdict, evicting clock victims until the shard fits its
    /// budget. Returns how many entries were evicted.
    fn insert(&mut self, hash: u64, key: Value, verdict: bool, budget: usize) -> u64 {
        let entry = MemoEntry {
            hash,
            key,
            verdict,
            referenced: false,
        };
        let need = entry.approx_bytes();
        let mut evicted = 0;
        while self.bytes + need > budget && self.live() > 0 {
            self.evict_one();
            evicted += 1;
        }
        self.bytes += need;
        let slot = match self.free.pop() {
            Some(s) => {
                self.slab[s] = Some(entry);
                s
            }
            None => {
                self.slab.push(Some(entry));
                self.slab.len() - 1
            }
        };
        self.index.push(hash, slot as Slot);
        evicted
    }

    fn live(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// Advance the clock hand to the next victim: referenced entries get
    /// a second chance (bit cleared, hand moves on); the first
    /// unreferenced entry is evicted. Deterministic for a deterministic
    /// access sequence.
    fn evict_one(&mut self) {
        debug_assert!(self.live() > 0);
        loop {
            if self.hand >= self.slab.len() {
                self.hand = 0;
            }
            let slot = self.hand;
            self.hand += 1;
            let Some(entry) = self.slab[slot].as_mut() else {
                continue;
            };
            if entry.referenced {
                entry.referenced = false;
                continue;
            }
            let entry = self.slab[slot].take().expect("checked live above");
            self.bytes -= entry.approx_bytes();
            let unlinked = self.index.unlink(entry.hash, slot as Slot);
            debug_assert!(unlinked, "live entry is indexed");
            self.free.push(slot);
            return;
        }
    }
}

/// A sharded, capacity-bounded verdict memo. See the module docs.
pub struct MemoCache {
    shards: Vec<Mutex<MemoShard>>,
    budget_per_shard: usize,
}

impl MemoCache {
    /// A cache with `num_shards` lock shards splitting `budget_bytes`
    /// evenly (each shard enforces its slice independently).
    pub fn new(num_shards: usize, budget_bytes: usize) -> MemoCache {
        let n = num_shards.max(1);
        MemoCache {
            shards: (0..n).map(|_| Mutex::new(MemoShard::default())).collect(),
            budget_per_shard: (budget_bytes / n).max(1),
        }
    }

    /// A shareable handle on a fresh cache.
    pub fn cell(num_shards: usize, budget_bytes: usize) -> MemoCell {
        Arc::new(MemoCache::new(num_shards, budget_bytes))
    }

    /// The memoized verdict for `key`, if present. NULL/EOT keys have no
    /// equality form and are never cached (their verdict is uniformly
    /// `false` and costs nothing — callers short-circuit them).
    pub fn lookup(&self, key: &HashedKey) -> Option<bool> {
        let hash = key.hash()?.get();
        let normal = key.key()?;
        self.shard(hash).lookup(hash, normal)
    }

    /// Memoize a computed verdict. Returns the number of entries evicted
    /// to make room. NULL/EOT keys are silently not cached.
    pub fn insert(&self, key: &HashedKey, verdict: bool) -> u64 {
        let (Some(hash), Some(normal)) = (key.hash(), key.key()) else {
            return 0;
        };
        let budget = self.budget_per_shard;
        self.shard(hash.get())
            .insert(hash.get(), normal.clone(), verdict, budget)
    }

    /// Total live entries across shards.
    pub fn len(&self) -> usize {
        (0..self.shards.len())
            .map(|i| lock_recover(&self.shards[i], MemoShard::clear).live())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total accounted bytes across shards.
    pub fn approx_bytes(&self) -> usize {
        (0..self.shards.len())
            .map(|i| lock_recover(&self.shards[i], MemoShard::clear).bytes)
            .sum()
    }

    fn shard(&self, hash: u64) -> MutexGuard<'_, MemoShard> {
        // The high half of the hash: a strided key column spreads evenly,
        // so no shard's slice of the budget has to hold most of the keys.
        let i = KeyHash(hash).shard(self.shards.len());
        // Poison recovery: a memo shard is pure performance state — a
        // panicking evaluator may have died mid-insert, so discard the
        // shard's contents; an empty shard is always correct.
        lock_recover(&self.shards[i], MemoShard::clear)
    }

    /// Whether any shard is currently poisoned (test observability).
    pub fn any_poisoned(&self) -> bool {
        self.shards.iter().any(|s| s.is_poisoned())
    }

    /// Run `f` under the lock of the shard `hash` routes to. Exists for
    /// tests that plant adversarial collision chains or poison a shard
    /// deliberately (panic inside `f`); production code goes through
    /// [`lookup`](MemoCache::lookup) / [`insert`](MemoCache::insert).
    #[doc(hidden)]
    pub fn with_shard_of<R>(&self, hash: u64, f: impl FnOnce(&mut dyn std::any::Any) -> R) -> R {
        f(&mut *self.shard(hash))
    }

    /// Plant an entry under an explicit hash, bypassing the key's own
    /// hash — the adversarial-collision seam for the property suite.
    #[doc(hidden)]
    pub fn insert_with_hash(&self, hash: u64, key: Value, verdict: bool) {
        let budget = self.budget_per_shard;
        self.shard(hash).insert(hash, key, verdict, budget);
    }

    /// Lookup under an explicit hash (pairs with
    /// [`insert_with_hash`](MemoCache::insert_with_hash)).
    #[doc(hidden)]
    pub fn lookup_with_hash(&self, hash: u64, key: &Value) -> Option<bool> {
        self.shard(hash).lookup(hash, key)
    }
}

impl std::fmt::Debug for MemoCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoCache")
            .field("shards", &self.shards.len())
            .field("budget_per_shard", &self.budget_per_shard)
            .field("entries", &self.len())
            .field("bytes", &self.approx_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hk(i: i64) -> HashedKey {
        HashedKey::new(Value::Int(i))
    }

    #[test]
    fn lookup_after_insert_and_coercion() {
        let m = MemoCache::new(4, 1 << 16);
        assert_eq!(m.lookup(&hk(5)), None);
        m.insert(&hk(5), true);
        assert_eq!(m.lookup(&hk(5)), Some(true));
        // Float(5.0) normalizes to the same equality key as Int(5).
        assert_eq!(m.lookup(&HashedKey::new(Value::Float(5.0))), Some(true));
        assert_eq!(m.lookup(&hk(6)), None);
        assert_eq!(m.len(), 1);
        assert!(m.approx_bytes() > 0);
    }

    #[test]
    fn null_and_eot_keys_never_cached() {
        let m = MemoCache::new(2, 1 << 16);
        for v in [Value::Null, Value::Eot] {
            let k = HashedKey::new(v);
            assert_eq!(m.insert(&k, true), 0);
            assert_eq!(m.lookup(&k), None);
        }
        assert!(m.is_empty());
    }

    #[test]
    fn budget_bounds_bytes_with_clock_eviction() {
        // Single shard, room for only a few Int entries.
        let m = MemoCache::new(1, 4 * (ENTRY_OVERHEAD + std::mem::size_of::<Value>()));
        let mut evictions = 0;
        for i in 0..100 {
            evictions += m.insert(&hk(i), i % 2 == 0);
        }
        assert!(evictions >= 96, "evicted {evictions}");
        assert!(m.len() <= 4);
        assert!(m.approx_bytes() <= 4 * (ENTRY_OVERHEAD + std::mem::size_of::<Value>()));
        // The survivors still answer correctly.
        let mut live = 0;
        for i in 0..100 {
            if let Some(v) = m.lookup(&hk(i)) {
                assert_eq!(v, i % 2 == 0);
                live += 1;
            }
        }
        assert_eq!(live, m.len());
    }

    #[test]
    fn second_chance_prefers_hot_entries() {
        let budget = 3 * (ENTRY_OVERHEAD + std::mem::size_of::<Value>());
        let m = MemoCache::new(1, budget);
        m.insert(&hk(1), true);
        m.insert(&hk(2), false);
        m.insert(&hk(3), true);
        // Touch key 1: its referenced bit shields it from the next sweep.
        assert_eq!(m.lookup(&hk(1)), Some(true));
        m.insert(&hk(4), false);
        assert_eq!(m.lookup(&hk(1)), Some(true), "hot entry survived");
        assert_eq!(m.lookup(&hk(2)), None, "cold entry was the victim");
    }

    #[test]
    fn collision_chains_compare_full_keys() {
        let m = MemoCache::new(1, 1 << 16);
        // Two distinct keys planted under one hash: the chain must
        // dictionary-compare keys, not trust the hash.
        m.insert_with_hash(42, Value::Int(1), true);
        m.insert_with_hash(42, Value::Int(2), false);
        assert_eq!(m.lookup_with_hash(42, &Value::Int(1)), Some(true));
        assert_eq!(m.lookup_with_hash(42, &Value::Int(2)), Some(false));
        assert_eq!(m.lookup_with_hash(42, &Value::Int(3)), None);
    }

    #[test]
    fn poisoned_shard_recovers_empty() {
        let m = MemoCache::new(1, 1 << 16);
        m.insert(&hk(7), true);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.with_shard_of(0, |_| panic!("die holding the shard lock"));
        }));
        assert!(caught.is_err());
        assert!(m.any_poisoned());
        // Recovery clears the shard; the cache keeps working.
        assert_eq!(m.lookup(&hk(7)), None);
        assert!(!m.any_poisoned());
        m.insert(&hk(7), false);
        assert_eq!(m.lookup(&hk(7)), Some(false));
    }

    /// A strided key column spreads over every shard, so each shard's
    /// slice of the budget holds its share: between half and twice it at
    /// strides 1, 2, 8 and 64 over eight shards.
    #[test]
    fn strided_keys_spread_over_every_shard() {
        const KEYS: i64 = 4000;
        for stride in [1i64, 2, 8, 64] {
            let m = MemoCache::new(8, 1 << 24);
            for i in 0..KEYS {
                m.insert(&hk(i * stride), true);
            }
            let lens: Vec<usize> = m
                .shards
                .iter()
                .map(|s| lock_recover(s, MemoShard::clear).live())
                .collect();
            let share = KEYS as usize / 8;
            assert!(
                lens.iter().all(|&n| share / 2 <= n && n <= share * 2),
                "stride {stride}: {lens:?}"
            );
        }
    }

    #[test]
    fn string_keys_charge_arc_header_convention() {
        let m = MemoCache::new(1, 1 << 16);
        let k = HashedKey::new(Value::str("hello"));
        m.insert(&k, true);
        assert_eq!(
            m.approx_bytes(),
            Value::str("hello").approx_bytes() + ENTRY_OVERHEAD
        );
    }
}
