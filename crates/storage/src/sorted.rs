//! Sorted store for merge-style and range access.

use crate::flat::CandidateBuf;
use crate::slab::{Slab, Slot};
use crate::store::{index_key, DictStore};
use std::cmp::Ordering;
use std::sync::Arc;
use stems_types::{CmpOp, KeyHash, Row, Value};

/// The fixed term of [`DictStore::approx_bytes`] — a constant of the
/// accounting model (see `HashStore`'s), not the struct's current size.
const HEADER_BYTES: usize = 88;

/// A dictionary kept sorted on one column.
///
/// Stands in for the paper's "tournament trees that spill sorted runs to
/// disk" (§3.1, the sort-merge-join simulation). Beyond equality probes it
/// supports range lookups, which SteMs use for non-equi join predicates
/// (`<`, `<=`, `>`, `>=`) instead of full scans.
#[derive(Debug)]
pub struct SortedStore {
    sort_col: usize,
    /// Rows in arrival order (the scan / FIFO order).
    slab: Slab,
    /// The slots whose sort column is indexable, sorted by
    /// `index_key(row[sort_col])` under `Value::total_cmp`, equal keys in
    /// slot (= insertion) order. Rows with un-indexable keys (NULL/EOT)
    /// live in the slab only.
    sorted: Vec<(Value, Slot)>,
}

impl SortedStore {
    pub fn new(sort_col: usize) -> SortedStore {
        SortedStore {
            sort_col,
            slab: Slab::new(),
            sorted: Vec::new(),
        }
    }

    /// All keyed rows in sort order (the "merge" cursor).
    pub fn sorted(&self) -> impl Iterator<Item = &Arc<Row>> {
        self.sorted.iter().filter_map(|(_, s)| self.slab.row(*s))
    }

    /// The sorted run's positions holding a key `op key`, in sort order.
    /// Equality uses binary search; inequalities use a split point.
    fn range(&self, op: CmpOp, key: &Value) -> impl Iterator<Item = usize> {
        let lb = self
            .sorted
            .partition_point(|(k, _)| k.total_cmp(key) == Ordering::Less);
        let ub = self
            .sorted
            .partition_point(|(k, _)| k.total_cmp(key) != Ordering::Greater);
        let n = self.sorted.len();
        let (head, tail) = match op {
            // Membership against the single scalar `key` is equality.
            CmpOp::Eq | CmpOp::In => (lb..ub, 0..0),
            CmpOp::Lt => (0..lb, 0..0),
            CmpOp::Le => (0..ub, 0..0),
            CmpOp::Gt => (ub..n, 0..0),
            CmpOp::Ge => (lb..n, 0..0),
            CmpOp::Ne => (0..lb, ub..n),
        };
        head.chain(tail)
    }

    /// Rows whose sort-column value satisfies `row[col] op key`.
    pub fn lookup_range(&self, op: CmpOp, key: &Value) -> Vec<Arc<Row>> {
        let Some(k) = index_key(key) else {
            return Vec::new();
        };
        self.range(op, &k)
            .filter_map(|i| self.slab.row(self.sorted[i].1).cloned())
            .collect()
    }

    /// Where `slot` (holding `row`) sits, or belongs, in the sorted run:
    /// after every smaller key and every earlier slot of its own key.
    /// `None` for an un-indexable sort key.
    fn place(&self, row: &Row, slot: Slot) -> Option<(usize, Value)> {
        let k = row.get(self.sort_col).and_then(index_key)?;
        let pos = self
            .sorted
            .partition_point(|(rk, s)| rk.total_cmp(&k).then(s.cmp(&slot)) == Ordering::Less);
        Some((pos, k))
    }
}

impl DictStore for SortedStore {
    fn slab(&self) -> &Slab {
        &self.slab
    }

    fn insert(&mut self, row: Arc<Row>) -> Slot {
        let slot = self.slab.push(row);
        let row = self.slab.row(slot).expect("just pushed");
        if let Some((pos, k)) = self.place(row, slot) {
            self.sorted.insert(pos, (k, slot));
        }
        slot
    }

    fn lookup_slots(&self, col: usize, key: &Value, _hash: KeyHash, out: &mut CandidateBuf) {
        if col == self.sort_col {
            for i in self.range(CmpOp::Eq, key) {
                out.push_slot(self.sorted[i].1);
            }
        } else {
            self.slab.filter_eq(col, key, self.slab.live_slots(), out);
        }
    }

    fn remove(&mut self, slot: Slot) -> Option<Arc<Row>> {
        let row = self.slab.remove(slot)?;
        if let Some((pos, _)) = self.place(&row, slot) {
            debug_assert_eq!(self.sorted[pos].1, slot, "sorted run out of step");
            self.sorted.remove(pos);
        }
        Some(row)
    }

    fn clear(&mut self) {
        self.slab.clear();
        self.sorted.clear();
    }

    fn approx_bytes(&self) -> usize {
        self.slab.bytes() + HEADER_BYTES
    }

    fn backend(&self) -> &'static str {
        "sorted"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::conformance::{self, row};

    #[test]
    fn conformance_on_sort_column() {
        conformance::run_suite(Box::new(SortedStore::new(1)));
    }

    #[test]
    fn conformance_off_sort_column() {
        conformance::run_suite(Box::new(SortedStore::new(0)));
    }

    #[test]
    fn sorted_iteration_order() {
        let mut s = SortedStore::new(0);
        for k in [5, 1, 9, 3, 7] {
            s.insert(row(&[k]));
        }
        let keys: Vec<i64> = s
            .sorted()
            .map(|r| match r.get(0) {
                Some(Value::Int(i)) => *i,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(keys, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn range_lookups() {
        let mut s = SortedStore::new(0);
        for k in 0..10 {
            s.insert(row(&[k]));
        }
        assert_eq!(s.lookup_range(CmpOp::Lt, &Value::Int(3)).len(), 3);
        assert_eq!(s.lookup_range(CmpOp::Le, &Value::Int(3)).len(), 4);
        assert_eq!(s.lookup_range(CmpOp::Gt, &Value::Int(7)).len(), 2);
        assert_eq!(s.lookup_range(CmpOp::Ge, &Value::Int(7)).len(), 3);
        assert_eq!(s.lookup_range(CmpOp::Eq, &Value::Int(5)).len(), 1);
        assert_eq!(s.lookup_range(CmpOp::Ne, &Value::Int(5)).len(), 9);
    }

    #[test]
    fn duplicate_sort_keys_all_found() {
        let mut s = SortedStore::new(0);
        s.insert(row(&[4, 1]));
        s.insert(row(&[4, 2]));
        s.insert(row(&[4, 3]));
        assert_eq!(s.lookup_range(CmpOp::Eq, &Value::Int(4)).len(), 3);
        assert_eq!(s.lookup_range(CmpOp::Lt, &Value::Int(4)).len(), 0);
        assert_eq!(s.lookup_range(CmpOp::Gt, &Value::Int(4)).len(), 0);
    }

    #[test]
    fn removal_finds_its_slot_among_equal_keys() {
        let mut s = SortedStore::new(0);
        let slots: Vec<Slot> = (0..5).map(|v| s.insert(row(&[4, v]))).collect();
        s.insert(row(&[2, 9]));
        assert_eq!(s.remove(slots[2]), Some(row(&[4, 2])));
        let left: Vec<Arc<Row>> = s.lookup_range(CmpOp::Eq, &Value::Int(4));
        let vals: Vec<&Value> = left.iter().filter_map(|r| r.get(1)).collect();
        assert_eq!(
            vals,
            [
                &Value::Int(0),
                &Value::Int(1),
                &Value::Int(3),
                &Value::Int(4)
            ]
        );
        assert_eq!(s.sorted().count(), 5);
    }

    #[test]
    fn scan_keeps_arrival_order_despite_sorting() {
        let mut s = SortedStore::new(0);
        s.insert(row(&[9]));
        s.insert(row(&[1]));
        let arrived: Vec<_> = s
            .scan()
            .iter()
            .map(|r| r.get(0).cloned().unwrap())
            .collect();
        assert_eq!(arrived, vec![Value::Int(9), Value::Int(1)]);
    }
}
