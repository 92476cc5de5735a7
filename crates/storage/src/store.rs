//! The dictionary-store abstraction shared by all SteM backends.

use crate::flat::CandidateBuf;
use crate::{AdaptiveStore, HashStore, ListStore, PartitionedStore, SortedStore};
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

/// The trait-default [`DictStore::lookup_eq_flat`] body: key-run dedup
/// plus one scalar [`DictStore::lookup_eq`] per *distinct* key. A free
/// function so backend overrides (e.g. [`HashStore`] on an un-indexed
/// column) can fall back to it explicitly.
pub(crate) fn lookup_eq_flat_via_scalar(
    store: &(impl DictStore + ?Sized),
    col: usize,
    keys: &[HashedKey],
    out: &mut CandidateBuf,
) {
    out.reset();
    for (i, key) in keys.iter().enumerate() {
        if let Some(j) = out.probe_dup(i, keys) {
            out.share_key(j);
            continue;
        }
        let start = out.begin_key();
        for row in store.lookup_eq(col, key.raw()) {
            out.push_row(row);
        }
        out.commit_key(start);
    }
}

/// A dictionary of rows from one table, supporting the three SteM
/// operations of the paper: insert (build), search (probe) and optionally
/// delete (eviction).
///
/// `lookup_eq` implements the hot path — equality search on one column —
/// and must return **every** row whose column `col` is `sql_eq` to `key`
/// (it may return extra candidates; the SteM re-verifies predicates on the
/// concatenated tuple). Non-equality predicates go through `scan`.
pub trait DictStore: std::fmt::Debug {
    /// Insert a row. Duplicate handling is the caller's job ([`crate::RowSet`]).
    fn insert(&mut self, row: Arc<Row>);

    /// Insert a batch of rows. Backends override this when they can
    /// amortize work across the batch (e.g. one capacity reservation for
    /// the whole batch); the default loops over [`DictStore::insert`].
    fn insert_batch(&mut self, rows: Vec<Arc<Row>>) {
        for row in rows {
            self.insert(row);
        }
    }

    /// Rows matching `row[col] = key` (superset allowed, see trait docs).
    fn lookup_eq(&self, col: usize, key: &Value) -> Vec<Arc<Row>>;

    /// The flat batch-lookup hot path: one [`DictStore::lookup_eq`]-
    /// equivalent result per key, written into the caller-owned, reusable
    /// `out` arena (no per-key `Vec` allocations). Keys arrive with their
    /// equality hash precomputed ([`HashedKey`]); implementations must
    /// never re-hash them. The default performs key-run dedup (identical
    /// keys resolve once and share a candidate span — see
    /// [`CandidateBuf::probe_dup`]) around the scalar `lookup_eq`;
    /// index-backed stores override to also resolve the index once for
    /// the whole envelope and descend by the precomputed hashes.
    fn lookup_eq_flat(&self, col: usize, keys: &[HashedKey], out: &mut CandidateBuf) {
        lookup_eq_flat_via_scalar(self, col, keys, out);
    }

    /// All rows in insertion order.
    fn scan(&self) -> Vec<Arc<Row>>;

    /// Remove one row equal (by value) to `row`. Returns whether a row was
    /// removed. Used for eviction in windowed/continuous queries.
    fn remove(&mut self, row: &Row) -> bool;

    /// The oldest still-present row (insertion order), for FIFO eviction.
    fn oldest(&self) -> Option<Arc<Row>>;

    /// Number of rows.
    fn len(&self) -> usize;

    /// True if no rows are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap footprint, for the memory-accounting series.
    fn approx_bytes(&self) -> usize;

    /// A short human-readable description of the backend currently in use
    /// ("list", "hash", ...), so experiments can log store adaptations.
    fn backend(&self) -> &'static str;
}

/// Factory describing which [`DictStore`] a SteM should use.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum StoreKind {
    /// Append-only list; lookups scan.
    List,
    /// Hash indexes on the given columns.
    #[default]
    Hash,
    /// List that converts itself to hash once it exceeds `threshold` rows
    /// (paper §3.1's example of SteM-internal adaptation).
    Adaptive { threshold: usize },
    /// Grace-style hash partitions on the first indexed column, with a
    /// memory-resident prefix (§3.1's "asynchronous hash index").
    Partitioned {
        partitions: usize,
        mem_resident: usize,
    },
    /// Kept sorted on the first indexed column ("tournament trees",
    /// §3.1's sort-merge simulation); range probes are cheap.
    Sorted,
}

impl StoreKind {
    /// Instantiate the store. `indexed_cols` lists the columns involved in
    /// equi-join predicates — the SteM builds "one main-memory index ... on
    /// each column ... involved in a join predicate" (paper §2.1.4).
    ///
    /// The trait object is `Send + Sync`: sharded SteMs probe their shard
    /// stores from scoped worker threads through `&self`, so every backend
    /// must be shareable (none uses interior mutability).
    pub fn build(&self, indexed_cols: &[usize]) -> Box<dyn DictStore + Send + Sync> {
        let primary_col = indexed_cols.first().copied().unwrap_or(0);
        match self {
            StoreKind::List => Box::new(ListStore::new()),
            StoreKind::Hash => Box::new(HashStore::new(indexed_cols)),
            StoreKind::Adaptive { threshold } => {
                Box::new(AdaptiveStore::new(indexed_cols, *threshold))
            }
            StoreKind::Partitioned {
                partitions,
                mem_resident,
            } => Box::new(PartitionedStore::new(
                primary_col,
                (*partitions).max(1),
                *mem_resident,
            )),
            StoreKind::Sorted => Box::new(SortedStore::new(primary_col)),
        }
    }
}

#[cfg(test)]
pub(crate) mod conformance {
    //! Shared conformance suite run against every store backend.

    use super::*;
    use stems_types::Value;

    pub fn row(vals: &[i64]) -> Arc<Row> {
        Row::shared(vals.iter().map(|v| Value::Int(*v)).collect())
    }

    /// Insert a standard dataset and exercise every trait method.
    pub fn run_suite(mut store: Box<dyn DictStore + Send + Sync>) {
        assert!(store.is_empty());
        assert_eq!(store.oldest(), None);

        // rows: (key, a) with a in {10, 20}
        store.insert(row(&[1, 10]));
        store.insert(row(&[2, 20]));
        store.insert(row(&[3, 10]));
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
        assert_eq!(store.oldest().unwrap().get(0), Some(&Value::Int(1)));

        // rows containing NULL in an indexed column are stored but never
        // returned by equality lookups
        store.insert(Row::shared(vec![Value::Int(4), Value::Null]));
        assert_eq!(store.len(), 4);
        assert_eq!(store.lookup_eq(1, &Value::Int(10)).len(), 2);
        assert_eq!(store.lookup_eq(1, &Value::Null).len(), 0);

        // removal
        assert!(store.remove(&row(&[1, 10])));
        assert!(!store.remove(&row(&[1, 10])));
        assert_eq!(store.len(), 3);
        assert_eq!(store.lookup_eq(1, &Value::Int(10)).len(), 1);
        assert_eq!(store.oldest().unwrap().get(0), Some(&Value::Int(2)));

        // duplicates are allowed at this layer (dedup is RowSet's job)
        store.insert(row(&[2, 20]));
        assert_eq!(store.len(), 4);
        assert_eq!(store.lookup_eq(1, &Value::Int(20)).len(), 2);
        // remove deletes one copy at a time
        assert!(store.remove(&row(&[2, 20])));
        assert_eq!(store.lookup_eq(1, &Value::Int(20)).len(), 1);

        // batch APIs must agree with the scalar path
        let before = store.len();
        store.insert_batch(vec![row(&[7, 30]), row(&[8, 30])]);
        assert_eq!(store.len(), before + 2);
        assert_eq!(store.lookup_eq(1, &Value::Int(30)).len(), 2);

        // flat batch API: agreement with scalar lookup_eq on every key,
        // for both indexed-path and scan-filter columns
        for col in [0, 1] {
            assert_flat_matches_scalar(
                store.as_ref(),
                col,
                &[
                    // duplicate-heavy run: dedup must not change results
                    Value::Int(30),
                    Value::Int(30),
                    Value::Float(30.0), // coercion duplicate of Int(30)
                    Value::Int(99),
                    Value::Null, // un-hashable keys share an empty span
                    Value::Eot,
                    Value::Null,
                    Value::Int(20),
                    Value::Int(30),
                ],
            );
        }
        // empty-key envelope: a no-op, not a panic
        assert_flat_matches_scalar(store.as_ref(), 1, &[]);
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
    }

    /// Pin `lookup_eq_flat` to the scalar `lookup_eq`, key for key (same
    /// rows in the same order), through a fresh arena.
    pub fn assert_flat_matches_scalar(store: &dyn DictStore, col: usize, raw_keys: &[Value]) {
        let keys: Vec<HashedKey> = raw_keys.iter().cloned().map(HashedKey::new).collect();
        let mut buf = CandidateBuf::new();
        store.lookup_eq_flat(col, &keys, &mut buf);
        assert_eq!(buf.num_keys(), raw_keys.len());
        for (i, raw) in raw_keys.iter().enumerate() {
            let want = store.lookup_eq(col, raw);
            let got = buf.candidates(i);
            assert_eq!(
                got.len(),
                want.len(),
                "flat/scalar length drift on col {col} key {raw:?} ({})",
                store.backend()
            );
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(
                    g.as_ref(),
                    w.as_ref(),
                    "flat/scalar row drift on col {col} key {raw:?} ({})",
                    store.backend()
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(
            StoreKind::Partitioned {
                partitions: 4,
                mem_resident: 0
            }
            .build(&[1])
            .backend(),
            "partitioned"
        );
        assert_eq!(StoreKind::Sorted.build(&[1]).backend(), "sorted");
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
        // A NULL-keyed (overflow-lane) row still answers lookups on other
        // columns, like the PartitionedStore lane the shard layer mirrors.
        assert_eq!(b.lookup_eq(1, &Value::Int(10)).len(), 1);
        assert_eq!(b.lookup_eq(0, &Value::Null).len(), 0);
    }

    #[test]
    fn stores_are_shareable_across_threads() {
        // Sharded SteMs probe shard stores from scoped threads via &self;
        // the trait object must be Sync (and the boxes Send).
        fn assert_sync<T: Sync + Send + ?Sized>() {}
        assert_sync::<dyn DictStore + Send + Sync>();
        let mut store = StoreKind::Hash.build(&[0]);
        store.insert(conformance::row(&[7, 8]));
        std::thread::scope(|s| {
            let store = &store;
            let h = s.spawn(move || store.lookup_eq(0, &Value::Int(7)).len());
            assert_eq!(h.join().unwrap(), 1);
        });
    }

    #[test]
    fn partitioned_and_sorted_pass_conformance_via_kind() {
        conformance::run_suite(
            StoreKind::Partitioned {
                partitions: 4,
                mem_resident: 1,
            }
            .build(&[1]),
        );
        conformance::run_suite(StoreKind::Sorted.build(&[1]));
    }
}
