//! Set-semantics duplicate filter.

use crate::fxhash::FxBuildHasher;
use crate::prehash::SlotChains;
use crate::slab::Slot;
use std::hash::BuildHasher;
use stems_types::Row;

/// The fixed term of [`RowSet::approx_bytes`] — a constant of the
/// accounting model (see `Store`'s), not the struct's current size.
const HEADER_BYTES: usize = 40;

/// The duplicate filter a SteM applies to build tuples.
///
/// Paper §3.2: with competitive access methods "the same tuple can be
/// generated by different AMs. ... We currently adopt a set semantics,
/// where a SteM removes any build tuple that is identical to another tuple
/// already present in the SteM." `RowSet` answers "have I seen this row
/// value before?" in O(1).
///
/// The set holds no rows of its own: a member is the **slot** its row
/// occupies in the store beside it, chained under the whole-row hash
/// ([`RowSet::hash_of`]). The caller computes that hash once per build
/// row and resolves slots back to rows for the equality check, so growing
/// the table re-hashes nothing and membership costs one hash, not one per
/// structure the row is entered into.
#[derive(Debug, Default)]
pub struct RowSet {
    chains: SlotChains,
    len: usize,
    /// Sum of the members' [`Row::approx_bytes`] (the accounting model
    /// counts a stored row once here and once in its store).
    bytes: usize,
}

impl RowSet {
    pub fn new() -> RowSet {
        RowSet::default()
    }

    /// The hash rows are filed under — of the whole row, by value.
    pub fn hash_of(row: &Row) -> u64 {
        FxBuildHasher::default().hash_one(row)
    }

    /// The member equal to `row`, if any. `hash` is [`RowSet::hash_of`]
    /// `row`; `held` resolves a member slot to its row.
    pub fn find<'r>(&self, hash: u64, row: &Row, held: impl Fn(Slot) -> &'r Row) -> Option<Slot> {
        self.chains.chain(hash).find(|s| held(*s) == row)
    }

    /// Record `row` as the occupant of `slot`; returns `true` if it was
    /// new, `false` — recording nothing — if a member already equals it.
    pub fn insert<'r>(
        &mut self,
        hash: u64,
        row: &Row,
        slot: Slot,
        held: impl Fn(Slot) -> &'r Row,
    ) -> bool {
        if self.find(hash, row, held).is_some() {
            return false;
        }
        self.chains.push(hash, slot);
        self.len += 1;
        self.bytes += row.approx_bytes();
        true
    }

    /// Forget the member in `slot` (on eviction, so a re-arriving row is
    /// accepted again). `row` is the row it held, `hash` its hash.
    pub fn forget(&mut self, hash: u64, row: &Row, slot: Slot) -> bool {
        let removed = self.chains.unlink(hash, slot);
        if removed {
            self.len -= 1;
            self.bytes -= row.approx_bytes();
        }
        removed
    }

    /// Forget every member, keeping the allocations.
    pub fn clear(&mut self) {
        self.chains.clear();
        self.len = 0;
        self.bytes = 0;
    }

    /// Every member slot (no particular order).
    pub fn slots(&self) -> impl Iterator<Item = Slot> + '_ {
        self.chains.slots()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn approx_bytes(&self) -> usize {
        self.bytes + HEADER_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use stems_types::Value;

    fn row(vals: &[i64]) -> Arc<Row> {
        Row::shared(vals.iter().map(|v| Value::Int(*v)).collect())
    }

    /// A `RowSet` beside the slab it dedups: rows by slot.
    #[derive(Default)]
    struct Filtered {
        set: RowSet,
        slab: Vec<Arc<Row>>,
    }

    impl Filtered {
        /// The SteM's ingest step: dedup, then store the fresh row.
        fn insert(&mut self, row: Arc<Row>) -> bool {
            let (slab, slot) = (&self.slab, self.slab.len() as Slot);
            let hash = RowSet::hash_of(&row);
            let fresh = self.set.insert(hash, &row, slot, |s| &slab[s as usize]);
            if fresh {
                self.slab.push(row);
            }
            fresh
        }

        fn find(&self, row: &Row) -> Option<Slot> {
            let hash = RowSet::hash_of(row);
            self.set.find(hash, row, |s| &self.slab[s as usize])
        }

        fn forget(&mut self, row: &Row) -> bool {
            let Some(slot) = self.find(row) else {
                return false;
            };
            self.set.forget(RowSet::hash_of(row), row, slot)
        }
    }

    #[test]
    fn detects_value_duplicates_across_allocations() {
        let mut s = Filtered::default();
        assert!(s.insert(row(&[1, 2])));
        // A different allocation with the same values is a duplicate.
        assert!(!s.insert(row(&[1, 2])));
        assert!(s.insert(row(&[1, 3])));
        assert_eq!(s.set.len(), 2);
        let mut members: Vec<Slot> = s.set.slots().collect();
        members.sort_unstable();
        assert_eq!(members, vec![0, 1]);
    }

    #[test]
    fn contains_and_forget() {
        let mut s = Filtered::default();
        s.insert(row(&[7]));
        assert_eq!(s.find(&row(&[7])), Some(0));
        assert!(s.forget(&row(&[7])));
        assert_eq!(s.find(&row(&[7])), None);
        assert!(!s.forget(&row(&[7])));
        // After forgetting, the row is fresh again (eviction semantics).
        assert!(s.insert(row(&[7])));
        assert_eq!(s.find(&row(&[7])), Some(1));
    }

    #[test]
    fn colliding_rows_share_a_chain_and_stay_distinct() {
        // A caller-forced hash collision between different rows: equality
        // decides, never the hash.
        let slab = [row(&[1]), row(&[2])];
        let held = |s: Slot| &*slab[s as usize];
        let mut set = RowSet::new();
        assert!(set.insert(9, &slab[0], 0, held));
        assert!(set.insert(9, &slab[1], 1, held), "same hash, different row");
        assert!(!set.insert(9, &row(&[2]), 2, held));
        assert_eq!(set.find(9, &row(&[2]), held), Some(1));
        assert!(set.forget(9, &slab[0], 0));
        assert_eq!(set.find(9, &row(&[1]), held), None);
        assert_eq!(set.find(9, &row(&[2]), held), Some(1));
    }

    #[test]
    fn bytes_track_inserts_and_forgets() {
        let mut s = Filtered::default();
        let base = s.set.approx_bytes();
        assert_eq!(base, 40, "the accounting model's filter header");
        s.insert(row(&[1]));
        assert_eq!(s.set.approx_bytes(), base + row(&[1]).approx_bytes());
        s.forget(&row(&[1]));
        assert_eq!(s.set.approx_bytes(), base);
    }
}
