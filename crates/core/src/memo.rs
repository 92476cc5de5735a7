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
//! Structure: one lock over an entry slab indexed by the key's
//! precomputed stable hash — slot chains under an identity hasher
//! ([`SlotChains`], the SteM index's shape), so a lookup never re-hashes
//! and an entry costs no list of its own — with a clock/second-chance
//! eviction hand bounded by an
//! [`stems_types::Value::approx_bytes`] budget. One lock is enough: a
//! cache shared across queries is only touched by executors the server
//! steps serially. The lock lives behind the `crate::sync` shim; poison
//! recovery clears the cache — the memo is pure performance state, so an
//! empty cache is always correct.
//!
//! One cache memoizes exactly one verdict function. The query server
//! shares a `MemoCell` across queries whose predicates carry the same
//! `UdfSpec` (folding, PR 7's registry idiom): query B never re-pays a
//! verdict query A bought.

use crate::sync::Lock;
use std::ops::DerefMut;
use std::sync::Arc;
use stems_storage::{Slot, SlotChains};
use stems_types::{HashedKey, Value};

/// Default per-cache byte budget (`ExecConfig::memo_bytes`).
pub(crate) const DEFAULT_MEMO_BYTES: usize = 1 << 20;

/// The shard count [`MemoCache::new`] and [`MemoCache::cell`] are passed
/// and ignore (the cache has one lock).
pub const DEFAULT_MEMO_SHARDS: usize = 8;

/// Estimated per-entry bookkeeping on top of the key's own
/// `approx_bytes`: slab slot, index chain slot, verdict + clock bits.
const ENTRY_OVERHEAD: usize = 48;

/// A shareable handle on one [`MemoCache`] (what the server folds across
/// compatible queries; a solo query holds the only reference).
pub(crate) type MemoCell = Arc<MemoCache>;

/// Per-call counters a memo operation hands back to the caller, which
/// folds them into its own per-query `Metrics` — so even when the cache
/// itself is shared, each query observes *its* hits and misses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoCounters {
    pub hits: u64,
    pub(crate) misses: u64,
    pub(crate) evictions: u64,
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

/// What the cache's lock guards: an entry slab plus a hash index over it.
#[derive(Default)]
struct MemoState {
    /// Slab of entries; `None` slots are free (reused before growing).
    slab: Vec<Option<MemoEntry>>,
    free: Vec<usize>,
    /// hash → slab slots holding entries with that hash (collision chain).
    index: SlotChains,
    /// Clock hand for second-chance eviction, an index into `slab`.
    hand: usize,
    bytes: usize,
}

impl MemoState {
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

    /// Insert a verdict, evicting clock victims until the cache fits its
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

/// A capacity-bounded verdict memo. See the module docs.
pub struct MemoCache {
    state: Lock<MemoState>,
    budget: usize,
}

impl MemoCache {
    /// A cache of `budget_bytes`. `num_shards` is ignored.
    pub fn new(_num_shards: usize, budget_bytes: usize) -> MemoCache {
        MemoCache {
            state: Lock::default(),
            budget: budget_bytes.max(1),
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
        self.state().lookup(hash, normal)
    }

    /// Memoize a computed verdict. Returns the number of entries evicted
    /// to make room. NULL/EOT keys are silently not cached.
    pub fn insert(&self, key: &HashedKey, verdict: bool) -> u64 {
        let (Some(hash), Some(normal)) = (key.hash(), key.key()) else {
            return 0;
        };
        self.state()
            .insert(hash.get(), normal.clone(), verdict, self.budget)
    }

    /// Live entries.
    pub(crate) fn len(&self) -> usize {
        self.state().live()
    }

    /// Accounted bytes.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.state().bytes
    }

    fn state(&self) -> impl DerefMut<Target = MemoState> + '_ {
        // Poison recovery: the memo is pure performance state — a
        // panicking evaluator may have died mid-insert, so discard the
        // contents; an empty cache is always correct.
        self.state.lock_recover(MemoState::clear)
    }
}

/// Seams for the tests: plant collision chains, poison the lock.
#[cfg(test)]
impl MemoCache {
    /// Whether the lock is currently poisoned (test observability).
    pub(crate) fn is_poisoned(&self) -> bool {
        self.state.is_poisoned()
    }

    /// Run `f` under the lock: a test poisons it by panicking inside `f`.
    pub(crate) fn with_lock<R>(&self, f: impl FnOnce(&mut dyn std::any::Any) -> R) -> R {
        f(&mut *self.state())
    }

    /// Plant an entry under an explicit hash, bypassing the key's own
    /// hash — the adversarial-collision seam for the tests.
    pub(crate) fn insert_with_hash(&self, hash: u64, key: Value, verdict: bool) {
        self.state().insert(hash, key, verdict, self.budget);
    }

    /// Lookup under an explicit hash (pairs with
    /// [`insert_with_hash`](MemoCache::insert_with_hash)).
    pub(crate) fn lookup_with_hash(&self, hash: u64, key: &Value) -> Option<bool> {
        self.state().lookup(hash, key)
    }
}

impl std::fmt::Debug for MemoCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoCache")
            .field("budget", &self.budget)
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
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn budget_bounds_bytes_with_clock_eviction() {
        // Room for only a few Int entries.
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
            m.with_lock(|_| panic!("die holding the lock"));
        }));
        assert!(caught.is_err());
        assert!(m.is_poisoned());
        // Recovery clears the cache; it keeps working.
        assert_eq!(m.lookup(&hk(7)), None);
        assert!(!m.is_poisoned());
        m.insert(&hk(7), false);
        assert_eq!(m.lookup(&hk(7)), Some(false));
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

    /// Forced hash collisions (every key claims hash 42) must fall back to
    /// full-key dictionary comparison: each distinct key keeps its own
    /// verdict, and a colliding never-inserted key misses.
    #[test]
    fn adversarial_hash_collisions_compare_full_keys() {
        let cache = MemoCache::new(2, 1 << 16);
        // Distinct keys, alternating verdicts, one shared hash.
        let keys: Vec<Value> = (0..16).map(Value::Int).collect();
        for (i, k) in keys.iter().enumerate() {
            cache.insert_with_hash(42, k.clone(), i % 2 == 0);
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(
                cache.lookup_with_hash(42, k),
                Some(i % 2 == 0),
                "collision chain lost key {k}"
            );
        }
        assert_eq!(cache.lookup_with_hash(42, &Value::Int(99)), None);
        // A colliding *string* key (different Value kind entirely).
        cache.insert_with_hash(42, Value::str("x"), true);
        assert_eq!(cache.lookup_with_hash(42, &Value::str("x")), Some(true));
        assert_eq!(cache.lookup_with_hash(42, &Value::str("y")), None);
    }
}
