//! Append-only list store.

use crate::flat::CandidateBuf;
use crate::slab::{Slab, Slot};
use crate::store::DictStore;
use std::sync::Arc;
use stems_types::{KeyHash, Row, Value};

/// The fixed term of [`DictStore::approx_bytes`] — a constant of the
/// accounting model (see `HashStore`'s), not the struct's current size.
const HEADER_BYTES: usize = 32;

/// The simplest dictionary: the row slab and nothing else, lookups by
/// scan.
///
/// Cheap to build into (no index maintenance) and perfectly adequate while
/// small — which is why the paper suggests starting SteMs as linked lists
/// and adapting to hash later (§3.1); see [`crate::AdaptiveStore`].
#[derive(Debug, Default)]
pub struct ListStore {
    slab: Slab,
}

impl ListStore {
    pub fn new() -> ListStore {
        ListStore::default()
    }

    /// Take the slab out, slot numbering and all (used when an
    /// [`crate::AdaptiveStore`] upgrades itself to a hash store).
    pub(crate) fn take_slab(&mut self) -> Slab {
        std::mem::take(&mut self.slab)
    }
}

impl DictStore for ListStore {
    fn slab(&self) -> &Slab {
        &self.slab
    }

    fn insert(&mut self, row: Arc<Row>) -> Slot {
        self.slab.push(row)
    }

    fn lookup_slots(&self, col: usize, key: &Value, _hash: KeyHash, out: &mut CandidateBuf) {
        self.slab.filter_eq(col, key, self.slab.live_slots(), out);
    }

    fn remove(&mut self, slot: Slot) -> Option<Arc<Row>> {
        self.slab.remove(slot)
    }

    fn clear(&mut self) {
        self.slab.clear();
    }

    fn approx_bytes(&self) -> usize {
        self.slab.bytes() + HEADER_BYTES
    }

    fn backend(&self) -> &'static str {
        "list"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::conformance;

    #[test]
    fn conformance_suite() {
        conformance::run_suite(Box::new(ListStore::new()));
    }

    #[test]
    fn take_rows_empties_store() {
        let mut s = ListStore::new();
        s.insert(conformance::row(&[1]));
        s.insert(conformance::row(&[2]));
        let slab = s.take_slab();
        assert_eq!(slab.live(), 2);
        assert_eq!(s.len(), 0);
        assert_eq!(s.approx_bytes(), 32, "the accounting model's list header");
    }
}
