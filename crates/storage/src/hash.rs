//! Hash store with secondary indexes per join column.

use crate::flat::CandidateBuf;
use crate::prehash::SlotChains;
use crate::slab::{Slab, Slot};
use crate::store::DictStore;
use std::sync::Arc;
use stems_types::{KeyHash, Row, Value};

/// The fixed term of [`DictStore::approx_bytes`] (the store header as
/// first accounted). A constant of the accounting model, not
/// `size_of::<HashStore>()`: server admission budgets and the
/// `stem_bytes_total` series read it, so it must not move when the
/// struct changes shape.
const HEADER_BYTES: usize = 64;

/// A dictionary with one secondary hash index per join column.
///
/// This is the paper's default SteM backend (§2.1.4): "a SteM on a table S
/// has one main-memory index ... on each column of S that is involved in a
/// join predicate. These are all secondary indexes having pointers to the
/// same tuples in memory." Routing through hash-backed SteMs realizes the
/// n-ary symmetric hash join of §2.3.
///
/// The "pointers" are slots of the one row slab, and each index is a
/// [`SlotChains`] keyed by [`Value::stable_key_hash`] of the column's
/// equality normal form: probes arriving through
/// [`DictStore::lookup_eq_flat`] carry that hash precomputed and jump
/// straight to the chain of slots built under it — the hash-once contract
/// of the flat probe pipeline — and the walk compares each slot's own
/// column with the probe key, so keys that merely collide never answer
/// for one another and the index stores no key copies.
#[derive(Debug)]
pub struct HashStore {
    slab: Slab,
    /// `(col, key hash → slots)` secondary indexes, chains in insertion
    /// order.
    indexes: Vec<(usize, SlotChains)>,
}

/// The hash a row is indexed under on `col`; `None` keeps it out of the
/// index (NULL/EOT match nothing, and a missing column has no key).
fn key_hash(row: &Row, col: usize) -> Option<u64> {
    row.get(col).and_then(Value::stable_key_hash)
}

impl HashStore {
    /// Create a store with secondary indexes on `indexed_cols`.
    pub fn new(indexed_cols: &[usize]) -> HashStore {
        HashStore::over(Slab::new(), indexed_cols)
    }

    /// Index the rows already in `slab`, slot numbers kept (the
    /// [`crate::AdaptiveStore`] upgrade).
    pub(crate) fn over(slab: Slab, indexed_cols: &[usize]) -> HashStore {
        let mut cols: Vec<usize> = indexed_cols.to_vec();
        cols.sort_unstable();
        cols.dedup();
        let mut indexes: Vec<(usize, SlotChains)> =
            cols.into_iter().map(|c| (c, SlotChains::new())).collect();
        for slot in slab.live_slots() {
            let row = slab.row(slot).expect("live slot");
            link(&mut indexes, row, slot);
        }
        HashStore { slab, indexes }
    }

    /// Which columns carry secondary indexes.
    pub fn indexed_cols(&self) -> Vec<usize> {
        self.indexes.iter().map(|(c, _)| *c).collect()
    }
}

/// Append `slot` (holding `row`) to its chain in every index.
fn link(indexes: &mut [(usize, SlotChains)], row: &Row, slot: Slot) {
    for (col, chains) in indexes {
        if let Some(h) = key_hash(row, *col) {
            chains.push(h, slot);
        }
    }
}

impl DictStore for HashStore {
    fn slab(&self) -> &Slab {
        &self.slab
    }

    fn insert(&mut self, row: Arc<Row>) -> Slot {
        let slot = self.slab.push(row);
        let row = self.slab.row(slot).expect("just pushed");
        link(&mut self.indexes, row, slot);
        slot
    }

    fn insert_batch(&mut self, rows: Vec<Arc<Row>>) {
        // One slab reservation for the whole batch; the per-row path is
        // shared with `insert` so the two can never diverge.
        self.slab.reserve(rows.len());
        for row in rows {
            self.insert(row);
        }
    }

    fn lookup_slots(&self, col: usize, key: &Value, hash: KeyHash, out: &mut CandidateBuf) {
        match self.indexes.iter().find(|(c, _)| *c == col) {
            Some((_, chains)) => self.slab.filter_eq(col, key, chains.chain(hash.get()), out),
            // No index on this column: fall back to scan-filter. Correct,
            // just slower — mirrors a SteM probed on an unindexed predicate.
            None => self.slab.filter_eq(col, key, self.slab.live_slots(), out),
        }
    }

    fn remove(&mut self, slot: Slot) -> Option<Arc<Row>> {
        let row = self.slab.remove(slot)?;
        for (col, chains) in &mut self.indexes {
            if let Some(h) = key_hash(&row, *col) {
                chains.unlink(h, slot);
            }
        }
        Some(row)
    }

    fn clear(&mut self) {
        self.slab.clear();
        for (_, chains) in &mut self.indexes {
            chains.clear();
        }
    }

    fn approx_bytes(&self) -> usize {
        // Rows + a rough 16 bytes of index overhead per (index, row) pair.
        self.slab.bytes() + self.indexes.len() * self.slab.live() * 16 + HEADER_BYTES
    }

    fn backend(&self) -> &'static str {
        "hash"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::conformance::{self, row};
    use stems_types::HashedKey;

    #[test]
    fn conformance_suite() {
        conformance::run_suite(Box::new(HashStore::new(&[1])));
    }

    #[test]
    fn conformance_without_matching_index() {
        // Same behaviour expected when lookups hit the scan-filter path.
        conformance::run_suite(Box::new(HashStore::new(&[0])));
    }

    #[test]
    fn multiple_secondary_indexes_share_rows() {
        // Mirrors the paper's S table: indexes on both x and y.
        let mut s = HashStore::new(&[0, 1]);
        s.insert(row(&[7, 8]));
        let by_x = s.lookup_eq(0, &Value::Int(7));
        let by_y = s.lookup_eq(1, &Value::Int(8));
        assert_eq!(by_x.len(), 1);
        assert_eq!(by_y.len(), 1);
        // same allocation, not a copy
        assert!(Arc::ptr_eq(&by_x[0], &by_y[0]));
    }

    #[test]
    fn duplicate_index_cols_deduped() {
        let s = HashStore::new(&[1, 1, 0]);
        assert_eq!(s.indexed_cols(), vec![0, 1]);
    }

    #[test]
    fn removal_cleans_index_entries() {
        let mut s = HashStore::new(&[0]);
        let first = s.insert(row(&[5]));
        let second = s.insert(row(&[5]));
        assert!(s.remove(first).is_some());
        assert_eq!(s.lookup_eq(0, &Value::Int(5)).len(), 1);
        assert!(s.remove(second).is_some());
        assert_eq!(s.lookup_eq(0, &Value::Int(5)).len(), 0);
        assert_eq!(s.len(), 0);
        // The emptied chain is gone, not dangling: the key indexes afresh.
        let third = s.insert(row(&[5]));
        assert_eq!(s.lookup_eq(0, &Value::Int(5)).len(), 1);
        assert!(s.remove(third).is_some());
    }

    #[test]
    fn out_of_range_index_column_is_harmless() {
        let mut s = HashStore::new(&[9]);
        s.insert(row(&[1, 2]));
        assert_eq!(s.len(), 1);
        assert_eq!(s.lookup_eq(9, &Value::Int(1)).len(), 0);
        assert_eq!(s.lookup_eq(0, &Value::Int(1)).len(), 1);
    }

    #[test]
    fn flat_lookup_skips_tombstones_and_dedups() {
        let mut s = HashStore::new(&[0]);
        let dead = s.insert(row(&[5, 1]));
        s.insert(row(&[5, 2]));
        s.insert(row(&[6, 3]));
        assert!(s.remove(dead).is_some());
        let keys: Vec<HashedKey> = [Value::Int(5), Value::Float(5.0), Value::Int(6)]
            .into_iter()
            .map(HashedKey::new)
            .collect();
        let mut buf = CandidateBuf::new();
        s.lookup_eq_flat(0, &keys, &mut buf);
        assert_eq!(buf.candidates(0), [1]);
        assert_eq!(buf.candidates(0), buf.candidates(1), "coercion dedup");
        assert_eq!(buf.candidates(2), [2]);
        // Two distinct keys resolved; the coerced duplicate shared.
        assert_eq!(buf.rows_stored(), 2);
    }

    #[test]
    fn accounting_model_terms_are_pinned() {
        // header + rows + 16 bytes per (index, row) pair — the numbers
        // budgets were tuned against.
        let mut s = HashStore::new(&[0, 1]);
        assert_eq!(s.approx_bytes(), 64);
        let r = row(&[1, 2]);
        s.insert(r.clone());
        assert_eq!(s.approx_bytes(), 64 + r.approx_bytes() + 2 * 16);
    }
}
