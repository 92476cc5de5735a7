//! List→hash adaptive store.

use crate::flat::CandidateBuf;
use crate::slab::{Slab, Slot};
use crate::store::DictStore;
use crate::{HashStore, ListStore};
use std::sync::Arc;
use stems_types::{KeyHash, Row, Value};

/// A store that starts as a [`ListStore`] and silently converts itself to a
/// [`HashStore`] once it crosses a size threshold.
///
/// This is the paper's example of adaptation *inside* a SteM, invisible to
/// the eddy (§3.1): "the SteM may use a linked list when it holds a small
/// number of tuples, and switch to a hash-based implementation when the
/// list size increases. This switch can be made independent of other
/// modules." Invisible includes the slots: the upgrade hands the list's
/// slab to the hash store as is, so every slot handed out before it keeps
/// naming the same row.
#[derive(Debug)]
pub struct AdaptiveStore {
    inner: Inner,
    indexed_cols: Vec<usize>,
    threshold: usize,
    /// How many times the store upgraded (0 or 1; exposed for experiments).
    pub upgrades: u32,
}

#[derive(Debug)]
enum Inner {
    List(ListStore),
    Hash(HashStore),
}

impl AdaptiveStore {
    pub fn new(indexed_cols: &[usize], threshold: usize) -> AdaptiveStore {
        AdaptiveStore {
            inner: Inner::List(ListStore::new()),
            indexed_cols: indexed_cols.to_vec(),
            threshold,
            upgrades: 0,
        }
    }

    fn maybe_upgrade(&mut self) {
        if let Inner::List(list) = &mut self.inner {
            if list.len() > self.threshold {
                let hash = HashStore::over(list.take_slab(), &self.indexed_cols);
                self.inner = Inner::Hash(hash);
                self.upgrades += 1;
            }
        }
    }

    fn as_dyn(&self) -> &dyn DictStore {
        match &self.inner {
            Inner::List(l) => l,
            Inner::Hash(h) => h,
        }
    }

    fn as_dyn_mut(&mut self) -> &mut dyn DictStore {
        match &mut self.inner {
            Inner::List(l) => l,
            Inner::Hash(h) => h,
        }
    }
}

impl DictStore for AdaptiveStore {
    fn slab(&self) -> &Slab {
        self.as_dyn().slab()
    }

    fn insert(&mut self, row: Arc<Row>) -> Slot {
        let slot = self.as_dyn_mut().insert(row);
        self.maybe_upgrade();
        slot
    }

    fn lookup_slots(&self, col: usize, key: &Value, hash: KeyHash, out: &mut CandidateBuf) {
        self.as_dyn().lookup_slots(col, key, hash, out)
    }

    fn remove(&mut self, slot: Slot) -> Option<Arc<Row>> {
        self.as_dyn_mut().remove(slot)
    }

    fn clear(&mut self) {
        self.as_dyn_mut().clear()
    }

    fn approx_bytes(&self) -> usize {
        self.as_dyn().approx_bytes()
    }

    fn backend(&self) -> &'static str {
        self.as_dyn().backend()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::conformance::{self, row};

    #[test]
    fn conformance_suite_small_threshold() {
        // Upgrades mid-suite; behaviour must be indistinguishable.
        conformance::run_suite(Box::new(AdaptiveStore::new(&[1], 2)));
    }

    #[test]
    fn conformance_suite_large_threshold() {
        // Never upgrades; stays a list throughout.
        conformance::run_suite(Box::new(AdaptiveStore::new(&[1], 1_000)));
    }

    #[test]
    fn upgrade_happens_exactly_once_at_threshold() {
        let mut s = AdaptiveStore::new(&[0], 3);
        for i in 0..3 {
            s.insert(row(&[i]));
        }
        assert_eq!(s.backend(), "list");
        assert_eq!(s.upgrades, 0);
        s.insert(row(&[3]));
        assert_eq!(s.backend(), "hash");
        assert_eq!(s.upgrades, 1);
        for i in 4..10 {
            s.insert(row(&[i]));
        }
        assert_eq!(s.upgrades, 1);
        // Data survived the upgrade.
        assert_eq!(s.len(), 10);
        for i in 0..10 {
            assert_eq!(s.lookup_eq(0, &Value::Int(i)).len(), 1, "key {i}");
        }
    }

    #[test]
    fn slots_keep_their_numbers_across_the_upgrade() {
        let mut s = AdaptiveStore::new(&[0], 3);
        let rows: Vec<Arc<Row>> = (0..4).map(|i| row(&[i % 2, i])).collect();
        for (slot, r) in rows.iter().take(3).enumerate() {
            assert_eq!(s.insert(r.clone()), slot as Slot);
        }
        // A dead slot made while still a list must stay dead — and
        // unnumbered-over — once the hash store takes the slab.
        assert!(s.remove(1).is_some());
        for r in &rows {
            s.insert(r.clone());
        }
        assert_eq!(s.backend(), "hash");
        assert_eq!(s.row(1), None);
        for slot in [0, 2, 3, 4, 5, 6] {
            let want = &rows[if slot < 3 { slot } else { slot - 3 }];
            assert!(Arc::ptr_eq(s.row(slot as Slot).unwrap(), want), "{slot}");
        }
        // The index built at the upgrade answers the pre-upgrade slots.
        let mut buf = CandidateBuf::new();
        let key = [stems_types::HashedKey::new(Value::Int(0))];
        s.lookup_eq_flat(0, &key, &mut buf);
        assert_eq!(buf.candidates(0), [0, 2, 3, 5]);
    }

    #[test]
    fn scan_order_preserved_across_upgrade() {
        let mut s = AdaptiveStore::new(&[0], 1);
        s.insert(row(&[10]));
        s.insert(row(&[11]));
        s.insert(row(&[12]));
        let keys: Vec<_> = s
            .scan()
            .iter()
            .map(|r| r.get(0).cloned().unwrap())
            .collect();
        assert_eq!(keys, vec![Value::Int(10), Value::Int(11), Value::Int(12)]);
    }
}
