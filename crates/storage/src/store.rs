//! The SteM's dictionary: one row slab and, when asked for, a hash index
//! per join column.

use crate::flat::CandidateBuf;
use crate::prehash::SlotChains;
use crate::slab::{Slab, Slot, NIL};
use std::hint::black_box;
use std::sync::Arc;
use stems_types::{HashedKey, Row, Value};

/// Normalize a value for use as an equality-index key.
///
/// Returns `None` for values that can never satisfy an SQL equality
/// predicate (`NULL`, the EOT marker) — such rows are stored but excluded
/// from secondary indexes. Integral floats normalize to `Int` so that
/// `R.a = S.x` with mixed `Int`/`Float` columns still finds every match an
/// index-free scan would (index lookups must be *complete* w.r.t.
/// [`Value::sql_eq`]; candidate rows are always re-verified by the caller).
///
/// Thin wrapper over [`Value::equality_key`] — the normal form whose
/// [`Value::stable_key_hash`] the hash-once probe pipeline precomputes.
pub fn index_key(v: &Value) -> Option<Value> {
    v.equality_key()
}

/// Does the stored value `v` normalize to the equality key `key`? The
/// per-candidate test of every lookup — `index_key(v) == Some(key)` —
/// without building the normal form of the values that are their own
/// (everything but a float, NULL and EOT), so verifying a `Str` column
/// bumps no reference count.
#[inline]
pub(crate) fn key_matches(v: &Value, key: &Value) -> bool {
    match v {
        Value::Float(_) | Value::Null | Value::Eot => index_key(v).is_some_and(|k| k == *key),
        own_normal_form => own_normal_form == key,
    }
}

/// The fixed term of [`Store::approx_bytes`] while the store keeps no
/// index, and once it does. Constants of the accounting model, not
/// `size_of::<Store>()`: server admission budgets and the
/// `stem_bytes_total` series read them, so they must not move when the
/// struct changes shape.
const UNINDEXED_HEADER_BYTES: usize = 32;
const INDEXED_HEADER_BYTES: usize = 64;

/// A dictionary of rows from one table, supporting the three SteM
/// operations of the paper: insert (build), search (probe) and delete
/// (eviction).
///
/// The rows live in one [`Slab`] and are addressed by **slot**: `insert`
/// returns the slot a row took, lookups answer slots, removal is by slot.
/// Over the slab the store keeps, or does not keep yet, the paper's
/// default SteM index (§2.1.4): "one main-memory index ... on each column
/// of S that is involved in a join predicate. These are all secondary
/// indexes having pointers to the same tuples in memory." The "pointers"
/// are slots, and each index is a [`SlotChains`] keyed by
/// [`Value::stable_key_hash`] of the column's equality normal form: a
/// probe arriving through [`Store::lookup_eq_flat`] carries that hash
/// precomputed and jumps straight to the chain of slots built under it,
/// and the walk compares each slot's own column with the probe key, so
/// keys that merely collide never answer for one another and the index
/// stores no key copies. Routing through indexed SteMs realizes the n-ary
/// symmetric hash join of §2.3.
///
/// *When* the indexes exist is what a [`StoreKind`] chooses. Unindexed,
/// the store is the slab alone and a lookup filters a scan of it — cheap
/// to build into and adequate while small, which is the paper's example
/// of adaptation *inside* a SteM, invisible to the eddy (§3.1): "the SteM
/// may use a linked list when it holds a small number of tuples, and
/// switch to a hash-based implementation when the list size increases.
/// This switch can be made independent of other modules." The switch
/// indexes the slab in place, so every slot handed out before it keeps
/// naming the same row; it happens once, and [`Store::clear`] and
/// [`Store::compact`] do not undo it. Indexed or not, every lookup
/// answers in insertion order.
#[derive(Debug)]
pub struct Store {
    slab: Slab,
    /// `(col, key hash → slots)`, one per distinct join column, chains in
    /// insertion order. Empty until the store is `indexed`.
    indexes: Vec<(usize, SlotChains)>,
    /// Are the indexes kept? Never reset once set.
    indexed: bool,
    /// An unindexed store indexes itself when it holds more rows than
    /// this.
    threshold: usize,
}

/// The hash a row is indexed under on `col`; `None` keeps it out of the
/// index (NULL/EOT match nothing, and a missing column has no key).
fn key_hash(row: &Row, col: usize) -> Option<u64> {
    row.get(col).and_then(Value::stable_key_hash)
}

/// Append `slot` (holding `row`) to its chain in every index.
fn link(indexes: &mut [(usize, SlotChains)], row: &Row, slot: Slot) {
    for (col, chains) in indexes {
        if let Some(h) = key_hash(row, *col) {
            chains.push(h, slot);
        }
    }
}

impl Store {
    fn new(indexed_cols: &[usize], indexed: bool, threshold: usize) -> Store {
        let mut cols: Vec<usize> = indexed_cols.to_vec();
        cols.sort_unstable();
        cols.dedup();
        Store {
            slab: Slab::new(),
            indexes: cols.into_iter().map(|c| (c, SlotChains::new())).collect(),
            indexed,
            threshold,
        }
    }

    /// The slab holding this store's rows.
    pub fn slab(&self) -> &Slab {
        &self.slab
    }

    /// The columns this store indexes, or will once it switches: the
    /// distinct join columns it was built for, ascending.
    pub fn indexed_cols(&self) -> impl Iterator<Item = usize> + '_ {
        self.indexes.iter().map(|(col, _)| *col)
    }

    /// Room for `rows` more rows in the slab and, if the store indexes
    /// them, for `keys(col)` more distinct keys in the index of each
    /// indexed column `col`: a store reserved for what it will hold
    /// allocates each buffer once instead of regrowing it. An index holds
    /// one entry per distinct key, not per row, so the row count cannot
    /// size it; where a column's keys repeat (fewer keys than rows), its
    /// chains link slots, and the link column is reserved for the rows
    /// too. A store that stays unindexed through `rows` more rows
    /// ([`StoreKind::List`], or [`StoreKind::Adaptive`] below its
    /// threshold) reserves no index. A capacity hint only: a wrong count
    /// costs a regrow or spare room, never an answer.
    pub fn reserve(&mut self, rows: usize, keys: impl Fn(usize) -> usize) {
        self.slab.reserve(rows);
        if self.indexed || self.slab.live().saturating_add(rows) > self.threshold {
            let slots = self.slab.slots() + rows;
            for (col, chains) in &mut self.indexes {
                let keys = keys(*col);
                chains.reserve(keys);
                if keys < rows {
                    chains.reserve_links(slots);
                }
            }
        }
    }

    /// Insert a row; returns its slot — the slab's next insertion ordinal.
    /// Duplicate handling is the caller's job ([`crate::RowSet`]).
    pub fn insert(&mut self, row: Arc<Row>) -> Slot {
        let slot = self.slab.push(row);
        if self.indexed {
            let row = self.slab.row(slot).expect("just pushed");
            link(&mut self.indexes, row, slot);
        } else if self.slab.live() > self.threshold {
            self.indexed = true;
            for held in self.slab.live_slots() {
                let row = self.slab.row(held).expect("live slot");
                link(&mut self.indexes, row, held);
            }
        }
        slot
    }

    /// Insert a batch of rows into consecutive slots, under one slab
    /// reservation; the per-row path is [`Store::insert`], so the two can
    /// never diverge. Takes any row sequence — an owned `Vec`, or the
    /// drain of a buffer the caller keeps across envelopes.
    pub fn insert_batch(&mut self, rows: impl IntoIterator<Item = Arc<Row>>) {
        let rows = rows.into_iter();
        self.slab.reserve(rows.size_hint().0);
        for row in rows {
            self.insert(row);
        }
    }

    /// The flat batch-lookup hot path: one candidate span per key, written
    /// into the caller-owned, reusable `out` arena (no per-key
    /// allocations, no row handles cloned). Keys arrive with their
    /// equality hash precomputed ([`HashedKey`]) and are never re-hashed
    /// here; every key resolves on its own, so a repeated key walks its
    /// chain again and gets a span equal to, but separate from, the first;
    /// NULL/EOT keys match nothing. Each span lists **every** stored row
    /// whose column `col` holds the key, in insertion order.
    ///
    /// On an indexed column the envelope is resolved level by level, not
    /// key by key. Reaching a key's first candidate is four dependent
    /// loads — the hash bucket, the slab entry, the row header, the key
    /// cell — and one key's loads cannot start before the previous one
    /// lands, so a key-by-key walk waits on every miss in turn. Here each
    /// level is one pass over all keys, and the loads of one pass depend
    /// on the previous pass only, not on each other, so the processor
    /// overlaps the misses of different keys (group prefetching with
    /// plain loads):
    ///
    /// 1. every key's chain head, into `out`'s heads column;
    /// 2. every head's slab entry;
    /// 3. every head's row header;
    /// 4. every head's key cell, which decides whether the head holds the
    ///    key.
    ///
    /// Passes 2 and 3 fold what they read into a [`std::hint::black_box`]
    /// accumulator, so the compiler cannot drop them; an envelope of one
    /// key skips them. Only then is each span written: the verified head,
    /// then the rest of its chain, walked and compared slot by slot — by
    /// now usually from cache, since most chains hold one row.
    ///
    /// An unindexed column (or store) scan-filters the live slots once per
    /// key: correct, just slower — a SteM probed on an unindexed
    /// predicate.
    pub fn lookup_eq_flat(&self, col: usize, keys: &[HashedKey], out: &mut CandidateBuf) {
        out.reset();
        let index = self.indexes.iter().find(|(c, _)| *c == col);
        let Some((_, chains)) = index.filter(|_| self.indexed) else {
            for key in keys {
                let start = out.begin_key();
                if let Some(k) = key.key() {
                    self.slab.filter_eq(col, k, self.slab.live_slots(), out);
                }
                out.commit_key(start);
            }
            return;
        };
        let slab = &self.slab;
        let heads = out.set_heads(keys.iter().map(|key| match key.hash() {
            Some(h) => chains.head(h.get()),
            None => NIL,
        }));
        // One key has no other key's misses to overlap with.
        if keys.len() > 1 {
            let live = heads.iter().filter(|(h, _)| slab.row(*h).is_some());
            black_box(live.count());
            let held = heads.iter().filter_map(|(h, _)| slab.row(*h));
            black_box(held.map(|row| row.values().len()).sum::<usize>());
        }
        for ((head, verdict), key) in heads.iter_mut().zip(keys) {
            let cell = slab.row(*head).and_then(|row| row.get(col));
            *verdict = cell.zip(key.key()).is_some_and(|(v, k)| key_matches(v, k));
        }
        for (i, key) in keys.iter().enumerate() {
            let start = out.begin_key();
            let (head, verdict) = out.head(i);
            if verdict {
                out.push_slot(head);
            }
            if let Some(k) = key.key().filter(|_| head != NIL) {
                slab.filter_eq(col, k, chains.after(head), out);
            }
            out.commit_key(start);
        }
    }

    /// Rows matching `row[col] = key`, resolved — the scalar convenience
    /// over [`Store::lookup_eq_flat`] for tests and experiments.
    pub fn lookup_eq(&self, col: usize, key: &Value) -> Vec<Arc<Row>> {
        let mut buf = CandidateBuf::new();
        self.lookup_eq_flat(col, &[HashedKey::new(key.clone())], &mut buf);
        let slots = buf.candidates(0).iter();
        slots.filter_map(|s| self.row(*s).cloned()).collect()
    }

    /// The row stored in `slot`; `None` once removed.
    pub fn row(&self, slot: Slot) -> Option<&Arc<Row>> {
        self.slab.row(slot)
    }

    /// All rows in insertion order.
    pub fn scan(&self) -> Vec<Arc<Row>> {
        let slots = self.slab.live_slots();
        slots.filter_map(|s| self.slab.row(s).cloned()).collect()
    }

    /// Remove the row in `slot`, returning it (`None` if the slot is
    /// already dead). The slot is never answered again. Used for eviction
    /// in windowed/continuous queries.
    pub fn remove(&mut self, slot: Slot) -> Option<Arc<Row>> {
        let row = self.slab.remove(slot)?;
        if self.indexed {
            for (col, chains) in &mut self.indexes {
                if let Some(h) = key_hash(&row, *col) {
                    chains.unlink(h, slot);
                }
            }
        }
        Some(row)
    }

    /// Drop every row and every slot; the next insert gets slot 0.
    pub fn clear(&mut self) {
        self.slab.clear();
        for (_, chains) in &mut self.indexes {
            chains.clear();
        }
    }

    /// Reclaim dead slots: rebuild the store from its live rows in
    /// insertion order, so they occupy slots `0..len()`. Whoever holds
    /// slots of this store renumbers with it — the `k`-th live slot
    /// becomes slot `k`.
    pub fn compact(&mut self) {
        let rows = self.scan();
        self.clear();
        self.insert_batch(rows);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.slab.live()
    }

    /// True if no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap footprint, for the memory-accounting series: the
    /// rows, a header, and once indexed a rough 16 bytes per (index, row)
    /// pair.
    pub fn approx_bytes(&self) -> usize {
        if self.indexed {
            let entries = self.indexes.len() * self.slab.live();
            self.slab.bytes() + entries * 16 + INDEXED_HEADER_BYTES
        } else {
            self.slab.bytes() + UNINDEXED_HEADER_BYTES
        }
    }

    /// `"hash"` once the store keeps its indexes, `"list"` until then, so
    /// experiments can log store adaptations.
    pub fn backend(&self) -> &'static str {
        if self.indexed {
            "hash"
        } else {
            "list"
        }
    }
}

/// When a SteM's [`Store`] indexes its join columns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum StoreKind {
    /// Never; lookups scan.
    List,
    /// From the first row.
    #[default]
    Hash,
    /// Once it exceeds `threshold` rows (paper §3.1's example of
    /// SteM-internal adaptation).
    Adaptive { threshold: usize },
}

impl StoreKind {
    /// Instantiate the store. `indexed_cols` lists the columns involved in
    /// equi-join predicates — the SteM builds "one main-memory index ... on
    /// each column ... involved in a join predicate" (paper §2.1.4).
    pub fn build(&self, indexed_cols: &[usize]) -> Store {
        match *self {
            StoreKind::List => Store::new(indexed_cols, false, usize::MAX),
            StoreKind::Hash => Store::new(indexed_cols, true, 0),
            StoreKind::Adaptive { threshold } => Store::new(indexed_cols, false, threshold),
        }
    }
}

#[cfg(test)]
pub(crate) mod conformance {
    //! Shared conformance suite run against every [`StoreKind`]: the slot
    //! contract of [`Store`].

    use super::*;
    use stems_types::Value;

    pub(crate) fn row(vals: &[i64]) -> Arc<Row> {
        Row::shared(vals.iter().map(|v| Value::Int(*v)).collect())
    }

    /// Insert a standard dataset and exercise every method.
    pub(crate) fn run_suite(mut store: Store) {
        assert!(store.is_empty());
        assert_eq!(store.slab().oldest(), None);
        assert_eq!(store.slab().slots(), 0);

        // rows: (key, a) with a in {10, 20}. Slots are dense insertion
        // ordinals starting at 0, and resolve back to the row they name.
        let rows = [row(&[1, 10]), row(&[2, 20]), row(&[3, 10])];
        for (want, r) in rows.iter().enumerate() {
            assert_eq!(store.insert(r.clone()), want as Slot);
        }
        for (slot, r) in rows.iter().enumerate() {
            assert!(Arc::ptr_eq(store.row(slot as Slot).unwrap(), r));
        }
        assert_eq!(store.row(3), None, "a slot not handed out yet");
        assert_eq!(store.len(), 3);
        assert!(!store.is_empty());
        assert!(store.approx_bytes() > 0);

        // equality lookup on col 1
        let hits = store.lookup_eq(1, &Value::Int(10));
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|r| r.get(1) == Some(&Value::Int(10))));
        assert_eq!(store.lookup_eq(1, &Value::Int(99)).len(), 0);

        // NULL / EOT keys match nothing
        assert_eq!(store.lookup_eq(1, &Value::Null).len(), 0);
        assert_eq!(store.lookup_eq(1, &Value::Eot).len(), 0);

        // numeric coercion: Float(10.0) must find Int(10) rows
        assert_eq!(store.lookup_eq(1, &Value::Float(10.0)).len(), 2);

        // scan preserves insertion order
        let all = store.scan();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].get(0), Some(&Value::Int(1)));
        assert_eq!(all[2].get(0), Some(&Value::Int(3)));
        assert_eq!(store.slab().oldest(), Some(0));

        // rows containing NULL in an indexed column are stored but never
        // returned by equality lookups
        assert_eq!(
            store.insert(Row::shared(vec![Value::Int(4), Value::Null])),
            3
        );
        assert_eq!(store.len(), 4);
        assert_eq!(store.lookup_eq(1, &Value::Int(10)).len(), 2);
        assert_eq!(store.lookup_eq(1, &Value::Null).len(), 0);

        // removal is by slot: the row comes back, the slot goes dead and
        // is never answered again — the surviving slots keep their numbers
        assert_eq!(store.remove(0), Some(row(&[1, 10])));
        assert_eq!(store.remove(0), None);
        assert_eq!(store.row(0), None);
        assert_eq!(store.len(), 3);
        assert_eq!(store.slab().slots(), 4);
        assert_eq!(slots_of(&store, 1, &Value::Int(10)), vec![2]);
        assert_eq!(store.slab().oldest(), Some(1));
        assert_eq!(store.remove(9), None, "a slot never handed out");

        // duplicates are allowed at this layer (dedup is RowSet's job)
        assert_eq!(store.insert(row(&[2, 20])), 4);
        assert_eq!(store.len(), 4);
        assert_eq!(slots_of(&store, 1, &Value::Int(20)), vec![1, 4]);
        // remove deletes exactly the copy named
        assert!(store.remove(4).is_some());
        assert_eq!(slots_of(&store, 1, &Value::Int(20)), vec![1]);

        // a batch takes consecutive slots, like as many scalar inserts
        let before = store.len();
        store.insert_batch(vec![row(&[7, 30]), row(&[8, 30])]);
        assert_eq!(store.len(), before + 2);
        assert_eq!(slots_of(&store, 1, &Value::Int(30)), vec![5, 6]);

        // flat batch API: agreement with scalar lookup_eq and with a
        // naive filter of the slab on every key, for both indexed-path
        // and scan-filter columns
        for col in [0, 1] {
            assert_flat_matches_scalar(
                &store,
                col,
                &[
                    // duplicate-heavy run: every repeat answers in full
                    Value::Int(30),
                    Value::Int(30),
                    Value::Float(30.0), // coercion duplicate of Int(30)
                    Value::Int(99),
                    Value::Null, // un-hashable keys get empty spans
                    Value::Eot,
                    Value::Null,
                    Value::Int(20),
                    Value::Int(30),
                    Value::Int(1), // only ever held by the removed slot 0
                ],
            );
        }
        // empty-key envelope: a no-op, not a panic
        assert_flat_matches_scalar(&store, 1, &[]);
        // a reused buffer must not leak the previous envelope's state
        let mut buf = CandidateBuf::new();
        let big: Vec<HashedKey> = [Value::Int(30), Value::Int(20), Value::Int(30)]
            .into_iter()
            .map(HashedKey::new)
            .collect();
        store.lookup_eq_flat(1, &big, &mut buf);
        assert_eq!(buf.num_keys(), 3);
        let small: Vec<HashedKey> = vec![HashedKey::new(Value::Int(99))];
        store.lookup_eq_flat(1, &small, &mut buf);
        assert_eq!(buf.num_keys(), 1);
        assert!(buf.candidates(0).is_empty());

        // compaction reclaims the dead slots: the live rows, in insertion
        // order, now sit in slots 0..len and answer under those numbers
        let live = store.scan();
        store.compact();
        assert_eq!(store.slab().slots(), live.len());
        assert_eq!(store.scan(), live);
        for (slot, r) in live.iter().enumerate() {
            assert!(Arc::ptr_eq(store.row(slot as Slot).unwrap(), r));
        }
        assert_eq!(store.slab().oldest(), Some(0));
        assert_eq!(slots_of(&store, 1, &Value::Int(30)), vec![3, 4]);
        assert_flat_matches_scalar(&store, 1, &[Value::Int(20), Value::Int(10)]);

        // clear forgets rows and numbering alike
        store.clear();
        assert!(store.is_empty());
        assert_eq!(store.slab().oldest(), None);
        assert!(store.lookup_eq(1, &Value::Int(30)).is_empty());
        assert_eq!(store.insert(row(&[9, 30])), 0);
        assert_eq!(slots_of(&store, 1, &Value::Int(30)), vec![0]);
    }

    /// One key's candidate slots, in answer order.
    fn slots_of(store: &Store, col: usize, key: &Value) -> Vec<Slot> {
        let mut buf = CandidateBuf::new();
        store.lookup_eq_flat(col, &[HashedKey::new(key.clone())], &mut buf);
        buf.candidates(0).to_vec()
    }

    /// Pin `lookup_eq_flat` key for key: its slots resolve to exactly the
    /// scalar `lookup_eq`'s rows in the same order, through a fresh arena,
    /// and are the live slots a naive filter of the slab selects, in
    /// insertion order.
    pub(crate) fn assert_flat_matches_scalar(store: &Store, col: usize, raw_keys: &[Value]) {
        let keys: Vec<HashedKey> = raw_keys.iter().cloned().map(HashedKey::new).collect();
        let mut buf = CandidateBuf::new();
        store.lookup_eq_flat(col, &keys, &mut buf);
        assert_eq!(buf.num_keys(), raw_keys.len());
        for (i, raw) in raw_keys.iter().enumerate() {
            let ctx = format!("col {col} key {raw:?} ({})", store.backend());
            let want = store.lookup_eq(col, raw);
            let got = buf.candidates(i);
            assert_eq!(got.len(), want.len(), "flat/scalar length drift on {ctx}");
            for (g, w) in got.iter().zip(&want) {
                let g = store.row(*g).expect("an answered slot is live");
                assert!(Arc::ptr_eq(g, w), "flat/scalar row drift on {ctx}");
            }
            let slab = store.slab();
            let naive: Vec<Slot> = slab
                .live_slots()
                .filter(|s| {
                    let held = slab.row(*s).and_then(|r| r.get(col));
                    held.and_then(index_key)
                        .is_some_and(|k| Some(k) == index_key(raw))
                })
                .collect();
            assert_eq!(got, naive, "flat/naive slot drift on {ctx}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_matches_is_index_key_equality_without_the_copy() {
        let pool = [
            Value::Null,
            Value::Eot,
            Value::Int(5),
            Value::Float(5.0),
            Value::Float(5.5),
            Value::Float(f64::NAN),
            Value::Float(1.0e16), // integral, but past the Int normal form
            Value::str("5"),
            Value::Bool(true),
        ];
        for v in &pool {
            for key in pool.iter().filter_map(index_key) {
                assert_eq!(
                    key_matches(v, &key),
                    index_key(v).is_some_and(|k| k == key),
                    "{v:?} vs key {key:?}"
                );
            }
        }
    }

    #[test]
    fn index_key_normalizes() {
        assert_eq!(index_key(&Value::Null), None);
        assert_eq!(index_key(&Value::Eot), None);
        assert_eq!(index_key(&Value::Int(5)), Some(Value::Int(5)));
        assert_eq!(index_key(&Value::Float(5.0)), Some(Value::Int(5)));
        assert_eq!(index_key(&Value::Float(5.5)), Some(Value::Float(5.5)));
        assert_eq!(index_key(&Value::str("x")), Some(Value::str("x")));
    }

    #[test]
    fn kind_builds_expected_backend() {
        assert_eq!(StoreKind::List.build(&[]).backend(), "list");
        assert_eq!(StoreKind::Hash.build(&[0]).backend(), "hash");
        assert_eq!(
            StoreKind::Adaptive { threshold: 4 }.build(&[0]).backend(),
            "list"
        );
        assert_eq!(StoreKind::default(), StoreKind::Hash);
    }

    #[test]
    fn independently_built_stores_stay_isolated() {
        // Sharded SteMs build one store per shard via StoreKind::build;
        // an insert into one must be invisible to its siblings, and the
        // logical store is their union.
        let mut a = StoreKind::Hash.build(&[0]);
        let mut b = StoreKind::Hash.build(&[0]);
        a.insert(conformance::row(&[1, 10]));
        b.insert(Arc::new(Row::new(vec![Value::Null, Value::Int(10)])));
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        // A NULL-keyed row still answers lookups on other columns.
        assert_eq!(b.lookup_eq(1, &Value::Int(10)).len(), 1);
        assert_eq!(b.lookup_eq(0, &Value::Null).len(), 0);
    }

    #[test]
    // The one thread started outside the engine's runtime.
    #[allow(clippy::disallowed_methods)]
    fn stores_are_shareable_across_threads() {
        // Sharded SteMs probe shard stores from scoped threads via &self.
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<Store>();
        let mut store = StoreKind::Hash.build(&[0]);
        store.insert(conformance::row(&[7, 8]));
        std::thread::scope(|s| {
            let store = &store;
            let h = s.spawn(move || store.lookup_eq(0, &Value::Int(7)).len());
            assert_eq!(h.join().unwrap(), 1);
        });
    }
}
