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
/// occupies in the store beside it, chained under the whole-row hash. The
/// set hashes each row it files once and resolves slots back to rows for
/// the equality check, so growing the table re-hashes nothing.
///
/// Where no duplicate can arrive — one scan over rows the catalog checked
/// pairwise distinct — the filter has nothing to catch: an
/// [unfiltered](RowSet::unfiltered) set hashes and files nothing and keeps
/// only its member count and bytes, so it accounts exactly as the filter
/// would.
#[derive(Debug)]
pub struct RowSet {
    /// Members by whole-row hash; `None` in an unfiltered set.
    chains: Option<SlotChains>,
    len: usize,
    /// Sum of the members' [`Row::approx_bytes`] (the accounting model
    /// counts a stored row once here and once in its store).
    bytes: usize,
}

impl Default for RowSet {
    fn default() -> RowSet {
        RowSet::new()
    }
}

impl RowSet {
    pub fn new() -> RowSet {
        RowSet {
            chains: Some(SlotChains::new()),
            len: 0,
            bytes: 0,
        }
    }

    /// A set whose owner vouches that no row arrives twice: every insert
    /// is fresh and nothing is filed (see the type docs).
    pub fn unfiltered() -> RowSet {
        RowSet {
            chains: None,
            ..RowSet::new()
        }
    }

    /// Does this set check rows against its members?
    pub fn filters(&self) -> bool {
        self.chains.is_some()
    }

    /// The hash rows are filed under — of the whole row, by value.
    fn hash_of(row: &Row) -> u64 {
        FxBuildHasher::default().hash_one(row)
    }

    /// Room for `additional` more members without regrowing.
    pub fn reserve(&mut self, additional: usize) {
        if let Some(chains) = &mut self.chains {
            chains.reserve(additional);
        }
    }

    /// The member equal to `row`, if any; `held` resolves a member slot
    /// to its row. An unfiltered set finds nothing.
    pub fn find<'r>(&self, row: &Row, held: impl Fn(Slot) -> &'r Row) -> Option<Slot> {
        self.find_hashed(Self::hash_of(row), row, held)
    }

    fn find_hashed<'r>(
        &self,
        hash: u64,
        row: &Row,
        held: impl Fn(Slot) -> &'r Row,
    ) -> Option<Slot> {
        self.chains.as_ref()?.chain(hash).find(|s| held(*s) == row)
    }

    /// Record `row` as the occupant of `slot`; returns `true` if it was
    /// new, `false` — recording nothing — if a member already equals it.
    pub fn insert<'r>(&mut self, row: &Row, slot: Slot, held: impl Fn(Slot) -> &'r Row) -> bool {
        let hash = if self.filters() {
            Self::hash_of(row)
        } else {
            0
        };
        self.insert_hashed(hash, row, slot, held)
    }

    fn insert_hashed<'r>(
        &mut self,
        hash: u64,
        row: &Row,
        slot: Slot,
        held: impl Fn(Slot) -> &'r Row,
    ) -> bool {
        if let Some(chains) = &mut self.chains {
            if chains.chain(hash).any(|s| held(s) == row) {
                return false;
            }
            chains.push(hash, slot);
        }
        self.len += 1;
        self.bytes += row.approx_bytes();
        true
    }

    /// Forget the member in `slot` (on eviction, so a re-arriving row is
    /// accepted again). `row` is the row it held.
    pub fn forget(&mut self, row: &Row, slot: Slot) -> bool {
        let hash = if self.filters() {
            Self::hash_of(row)
        } else {
            0
        };
        self.forget_hashed(hash, row, slot)
    }

    fn forget_hashed(&mut self, hash: u64, row: &Row, slot: Slot) -> bool {
        let removed = self.chains.as_mut().is_none_or(|c| c.unlink(hash, slot));
        if removed {
            self.len -= 1;
            self.bytes -= row.approx_bytes();
        }
        removed
    }

    /// Forget every member, keeping the allocations.
    pub fn clear(&mut self) {
        if let Some(chains) = &mut self.chains {
            chains.clear();
        }
        self.len = 0;
        self.bytes = 0;
    }

    /// Every filed member slot (no particular order; none in an
    /// unfiltered set).
    pub fn slots(&self) -> impl Iterator<Item = Slot> + '_ {
        self.chains.iter().flat_map(SlotChains::slots)
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
            let fresh = self.set.insert(&row, slot, |s| &slab[s as usize]);
            if fresh {
                self.slab.push(row);
            }
            fresh
        }

        fn find(&self, row: &Row) -> Option<Slot> {
            self.set.find(row, |s| &self.slab[s as usize])
        }

        fn forget(&mut self, row: &Row) -> bool {
            let Some(slot) = self.find(row) else {
                return false;
            };
            self.set.forget(row, slot)
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
        // A forced hash collision between different rows: equality
        // decides, never the hash.
        let slab = [row(&[1]), row(&[2])];
        let held = |s: Slot| &*slab[s as usize];
        let mut set = RowSet::new();
        assert!(set.insert_hashed(9, &slab[0], 0, held));
        assert!(
            set.insert_hashed(9, &slab[1], 1, held),
            "same hash, different row"
        );
        assert!(!set.insert_hashed(9, &row(&[2]), 2, held));
        assert_eq!(set.find_hashed(9, &row(&[2]), held), Some(1));
        assert!(set.forget_hashed(9, &slab[0], 0));
        assert_eq!(set.find_hashed(9, &row(&[1]), held), None);
        assert_eq!(set.find_hashed(9, &row(&[2]), held), Some(1));
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

    /// An unfiltered set takes every row as fresh and files nothing, but
    /// counts and accounts exactly as the filter does for distinct rows.
    #[test]
    fn unfiltered_set_counts_like_the_filter() {
        let slab: Vec<Arc<Row>> = (0..5).map(|k| row(&[k, k * k])).collect();
        let held = |s: Slot| &*slab[s as usize];
        let mut filter = RowSet::new();
        let mut count = RowSet::unfiltered();
        assert!(filter.filters() && !count.filters());
        for (slot, r) in slab.iter().enumerate() {
            assert!(filter.insert(r, slot as Slot, held));
            assert!(count.insert(r, slot as Slot, held));
            assert_eq!(count.len(), filter.len());
            assert_eq!(count.approx_bytes(), filter.approx_bytes());
        }
        assert_eq!(count.slots().count(), 0, "nothing filed");
        assert_eq!(count.find(&slab[2], held), None);
        // It trusts its owner: a repeat is not caught.
        assert!(count.insert(&slab[2], 5, held));
        assert!(count.forget(&slab[2], 5));
        assert!(filter.forget(&slab[0], 0) && count.forget(&slab[0], 0));
        assert_eq!(count.approx_bytes(), filter.approx_bytes());
        filter.clear();
        count.clear();
        assert_eq!(count.approx_bytes(), filter.approx_bytes());
        assert!(count.is_empty());
    }
}
