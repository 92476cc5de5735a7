//! The row slab the store embeds.
//!
//! A store gives each row it is handed one dense **slot** — the row's
//! insertion ordinal in that store — and everything else addresses the
//! row by that number: the store's own indexes, the flat probe arena
//! ([`crate::CandidateBuf`]), the dedup filter ([`crate::RowSet`]) and,
//! one layer up, a SteM lane's build-timestamp column and FIFO window.
//! The slab is the one place that maps a slot back to its shared
//! [`Arc<Row>`], so an index entry costs a `u32` instead of a handle
//! clone and a probe touches a row only once it has decided to use it.

use crate::flat::CandidateBuf;
use crate::store::key_matches;
use std::sync::Arc;
use stems_types::{Row, Value};

/// A stored row's address in its store: its insertion ordinal. Dense,
/// starting at 0, never reused while the store lives — a removed row
/// leaves its slot dead until [`crate::Store::compact`] renumbers the
/// survivors.
pub type Slot = u32;

/// "No slot" — ends a [`crate::SlotChains`] chain; never handed out.
pub(crate) const NIL: Slot = Slot::MAX;

/// Rows by slot, with the live/bytes accounting and the insertion-order
/// cursors.
#[derive(Debug, Default)]
pub struct Slab {
    /// `rows[slot]`; `None` marks a removed row (a dead slot).
    rows: Vec<Option<Arc<Row>>>,
    live: usize,
    /// Sum of the live rows' [`Row::approx_bytes`].
    bytes: usize,
    /// The oldest live slot, or `rows.len()` when none is live: removal
    /// advances it, so FIFO eviction never re-walks dead slots.
    oldest: usize,
}

impl Slab {
    pub fn new() -> Slab {
        Slab::default()
    }

    /// Slots handed out so far, dead ones included — the slot the next
    /// row will get.
    pub fn slots(&self) -> usize {
        self.rows.len()
    }

    /// Rows currently stored.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Accounted bytes of the live rows.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    pub fn reserve(&mut self, additional: usize) {
        self.rows.reserve(additional);
    }

    /// Store `row` in the next slot.
    pub fn push(&mut self, row: Arc<Row>) -> Slot {
        let slot = Slot::try_from(self.rows.len())
            .ok()
            .filter(|s| *s != NIL)
            .expect("a store addresses fewer than 2^32 - 1 rows");
        self.live += 1;
        self.bytes += row.approx_bytes();
        self.rows.push(Some(row));
        slot
    }

    /// The row in `slot`; `None` once removed (or never handed out).
    #[inline]
    pub fn row(&self, slot: Slot) -> Option<&Arc<Row>> {
        self.rows.get(slot as usize)?.as_ref()
    }

    /// Take the row out of `slot`, leaving the slot dead.
    pub fn remove(&mut self, slot: Slot) -> Option<Arc<Row>> {
        let row = self.rows.get_mut(slot as usize)?.take()?;
        self.live -= 1;
        self.bytes -= row.approx_bytes();
        while self.rows.get(self.oldest).is_some_and(Option::is_none) {
            self.oldest += 1;
        }
        Some(row)
    }

    /// The oldest stored row's slot (FIFO eviction order).
    pub fn oldest(&self) -> Option<Slot> {
        (self.oldest < self.rows.len()).then_some(self.oldest as Slot)
    }

    /// Live slots in insertion order.
    pub fn live_slots(&self) -> impl Iterator<Item = Slot> + '_ {
        (self.oldest..self.rows.len())
            .filter(|i| self.rows[*i].is_some())
            .map(|i| i as Slot)
    }

    /// Drop every row and slot, keeping the allocation.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.live = 0;
        self.bytes = 0;
        self.oldest = 0;
    }

    /// The filter behind every lookup: append to `out` those of `slots`
    /// whose row holds `key` (an equality normal form) in column `col`,
    /// in the order given.
    pub(crate) fn filter_eq(
        &self,
        col: usize,
        key: &Value,
        slots: impl Iterator<Item = Slot>,
        out: &mut CandidateBuf,
    ) {
        for slot in slots {
            let held = self.row(slot).and_then(|row| row.get(col));
            if held.is_some_and(|v| key_matches(v, key)) {
                out.push_slot(slot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::conformance::row;

    #[test]
    fn slots_are_dense_ordinals_and_removal_leaves_them_dead() {
        let mut slab = Slab::new();
        assert_eq!(slab.oldest(), None);
        let slots: Vec<Slot> = (0..4).map(|k| slab.push(row(&[k]))).collect();
        assert_eq!(slots, vec![0, 1, 2, 3]);
        assert_eq!((slab.slots(), slab.live()), (4, 4));
        let full = slab.bytes();

        assert_eq!(slab.remove(1), Some(row(&[1])));
        assert_eq!(slab.remove(1), None, "a dead slot stays dead");
        assert_eq!(slab.row(1), None);
        assert_eq!(slab.remove(9), None, "never handed out");
        assert_eq!((slab.slots(), slab.live()), (4, 3));
        assert_eq!(slab.bytes(), full - row(&[1]).approx_bytes());
        assert_eq!(slab.live_slots().collect::<Vec<_>>(), vec![0, 2, 3]);
        // The next row does not reuse the dead slot.
        assert_eq!(slab.push(row(&[4])), 4);
    }

    #[test]
    fn oldest_cursor_skips_dead_prefix_and_survives_emptying() {
        let mut slab = Slab::new();
        for k in 0..4 {
            slab.push(row(&[k]));
        }
        slab.remove(1);
        assert_eq!(slab.oldest(), Some(0));
        slab.remove(0);
        assert_eq!(slab.oldest(), Some(2), "jumps the already-dead slot 1");
        slab.remove(2);
        slab.remove(3);
        assert_eq!(slab.oldest(), None);
        assert_eq!(slab.push(row(&[9])), 4);
        assert_eq!(slab.oldest(), Some(4));
        slab.clear();
        assert_eq!((slab.slots(), slab.live(), slab.bytes()), (0, 0, 0));
        assert_eq!(slab.push(row(&[9])), 0);
    }
}
