//! Slot chains keyed by *precomputed* hashes.
//!
//! The flat probe pipeline computes a key's
//! [`stems_types::Value::stable_key_hash`] exactly once, at the envelope
//! boundary; [`SlotChains`] accepts that hash as is, so an index descent
//! is one bucket jump, never a re-hash. What the bucket holds is not a
//! list of its own but the ends of a **chain threaded through one flat
//! `next` column**, indexed by slot ([`crate::Slot`]): a key costs no heap
//! block, a build appends by writing two integers, and dropping the
//! structure frees two allocations however many keys it indexed.
//!
//! A chain holds every slot pushed under one *hash*. Distinct keys that
//! collide share a chain, so whoever walks it compares each slot's row
//! with the key it is looking for (the row is at hand through the slab;
//! [`crate::Store`] checks the indexed column, [`crate::RowSet`] the
//! whole row) — which is also why no key copy is kept here. Chains are in
//! push order, so a walk answers in insertion order.

use crate::slab::{Slot, NIL};
use std::collections::hash_map::Entry;
use std::hash::{BuildHasherDefault, Hasher};

/// A no-op hasher: the map's u64 keys *are* the hashes. Feeding anything
/// but a single u64 is a logic error.
#[derive(Debug, Clone, Default)]
pub(crate) struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("IdentityHasher only accepts u64 keys");
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0 = i;
    }
}

/// `BuildHasher` for [`IdentityHasher`].
pub(crate) type BuildIdentityHasher = BuildHasherDefault<IdentityHasher>;

/// Hash → chain of slots, with every hash supplied by the caller (see the
/// module docs).
#[derive(Debug, Default)]
pub struct SlotChains {
    /// Hash → `(first, last)` slot of its chain.
    ends: std::collections::HashMap<u64, (Slot, Slot), BuildIdentityHasher>,
    /// Per slot: the next slot of its chain; [`NIL`] at a chain's tail
    /// and for slots in no chain. Grown only as far as the last slot that
    /// has a successor, so chains of one — unique keys, and every chain of
    /// a dedup filter short of a true hash collision — cost no column.
    next: Vec<Slot>,
}

impl SlotChains {
    pub fn new() -> SlotChains {
        SlotChains::default()
    }

    /// Room for `additional` more distinct hashes without regrowing.
    pub fn reserve(&mut self, additional: usize) {
        self.ends.reserve(additional);
    }

    /// Room in the link column for every slot below `slots`, so chains
    /// longer than one — a key pushed again — grow it no more.
    pub fn reserve_links(&mut self, slots: usize) {
        self.next.reserve(slots.saturating_sub(self.next.len()));
    }

    /// Append `slot` to the chain of `hash`.
    pub fn push(&mut self, hash: u64, slot: Slot) {
        match self.ends.entry(hash) {
            Entry::Occupied(mut ends) => {
                let (_, last) = ends.get_mut();
                let tail = std::mem::replace(last, slot) as usize;
                if self.next.len() <= tail {
                    self.next.resize(tail + 1, NIL);
                }
                self.next[tail] = slot;
            }
            Entry::Vacant(ends) => {
                ends.insert((slot, slot));
            }
        }
    }

    /// The slots pushed under `hash`, in push order.
    #[inline]
    pub fn chain(&self, hash: u64) -> Chain<'_> {
        Chain {
            next: &self.next,
            at: self.head(hash),
        }
    }

    /// The first slot pushed under `hash` (still chained), or [`NIL`]:
    /// one bucket read, and nothing of the chain behind it.
    #[inline]
    pub(crate) fn head(&self, hash: u64) -> Slot {
        self.ends.get(&hash).map_or(NIL, |(first, _)| *first)
    }

    /// The slots chained after `slot`, in push order — the rest of a
    /// chain whose head the caller already holds.
    #[inline]
    pub(crate) fn after(&self, slot: Slot) -> Chain<'_> {
        Chain {
            next: &self.next,
            at: successor(&self.next, slot),
        }
    }

    /// Take `slot` out of the chain of `hash`; `false` if it is not in it.
    /// Costs a walk to the slot's predecessor — nothing for a chain's
    /// head, which is what FIFO eviction removes.
    pub fn unlink(&mut self, hash: u64, slot: Slot) -> bool {
        let Entry::Occupied(mut ends) = self.ends.entry(hash) else {
            return false;
        };
        let (first, last) = *ends.get();
        let after = successor(&self.next, slot);
        if first == slot {
            match after {
                NIL => {
                    ends.remove();
                }
                after => ends.get_mut().0 = after,
            }
        } else {
            let mut prev = first;
            while successor(&self.next, prev) != slot {
                prev = successor(&self.next, prev);
                if prev == NIL {
                    return false;
                }
            }
            // `prev` has a successor, so the column covers it.
            self.next[prev as usize] = after;
            if last == slot {
                ends.get_mut().1 = prev;
            }
        }
        if let Some(next) = self.next.get_mut(slot as usize) {
            *next = NIL;
        }
        true
    }

    /// Every chained slot, chain by chain (no particular chain order).
    pub(crate) fn slots(&self) -> impl Iterator<Item = Slot> + '_ {
        self.ends.values().flat_map(|(first, _)| Chain {
            next: &self.next,
            at: *first,
        })
    }

    /// Forget every chain, keeping the allocations.
    pub fn clear(&mut self) {
        self.ends.clear();
        self.next.clear();
    }
}

/// The slot after `slot` in its chain; the column ends where no later
/// slot has a successor.
#[inline]
fn successor(next: &[Slot], slot: Slot) -> Slot {
    next.get(slot as usize).copied().unwrap_or(NIL)
}

/// Walks one chain of a [`SlotChains`].
#[derive(Debug, Clone)]
pub struct Chain<'a> {
    next: &'a [Slot],
    at: Slot,
}

impl Iterator for Chain<'_> {
    type Item = Slot;

    #[inline]
    fn next(&mut self) -> Option<Slot> {
        if self.at == NIL {
            return None;
        }
        let slot = self.at;
        self.at = successor(self.next, slot);
        Some(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stems_types::Value;

    fn hk(v: &Value) -> u64 {
        v.stable_key_hash().expect("hashable test key")
    }

    fn chain(m: &SlotChains, hash: u64) -> Vec<Slot> {
        m.chain(hash).collect()
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = SlotChains::new();
        let k = hk(&Value::str("abc"));
        assert!(chain(&m, k).is_empty());
        // Slots 7 and 9 of some slab hold this key; 8 holds another.
        m.push(k, 7);
        m.push(hk(&Value::Int(1)), 8);
        m.push(k, 9);
        assert_eq!(chain(&m, k), vec![7, 9], "push order");
        assert_eq!(chain(&m, hk(&Value::Int(2))), Vec::<Slot>::new());
        assert!(m.unlink(k, 7));
        assert!(!m.unlink(k, 7), "already gone");
        assert_eq!(chain(&m, k), vec![9]);
        assert!(m.unlink(k, 9));
        assert!(chain(&m, k).is_empty());
        assert!(!m.unlink(k, 9));
        assert_eq!(m.slots().collect::<Vec<_>>(), vec![8]);
        // The emptied chain restarts cleanly.
        m.push(k, 10);
        assert_eq!(chain(&m, k), vec![10]);
    }

    #[test]
    fn unlink_mends_head_middle_and_tail() {
        let h = 42;
        let filled = || {
            let mut m = SlotChains::new();
            for slot in [0, 1, 2, 3] {
                m.push(h, slot);
            }
            m
        };
        for (victim, rest) in [(0, [1, 2, 3]), (2, [0, 1, 3]), (3, [0, 1, 2])] {
            let mut m = filled();
            assert!(m.unlink(h, victim));
            assert_eq!(chain(&m, h), rest);
            // The tail pointer was mended too: appends land at the end.
            m.push(h, 4);
            assert_eq!(chain(&m, h).last(), Some(&4));
            assert_eq!(chain(&m, h).len(), 4);
        }
        let mut m = filled();
        assert!(!m.unlink(h, 9), "a slot the chain never held");
        assert!(!m.unlink(7, 0), "a hash with no chain");
        assert_eq!(chain(&m, h), vec![0, 1, 2, 3]);
    }

    #[test]
    fn forced_hash_collisions_resolve_by_value() {
        // Two distinct keys rammed into one chain with an identical
        // (caller-supplied) hash: the chain holds both, and the walker's
        // comparison against the slot's own value keeps them apart. This
        // is the adversarial case a real stable_key_hash collision hits.
        let held = [Value::Int(1), Value::str("one"), Value::Int(1)];
        let fake = 0xDEAD_BEEF;
        let mut m = SlotChains::new();
        for slot in 0..held.len() {
            m.push(fake, slot as Slot);
        }
        let find = |m: &SlotChains, key: &Value| -> Vec<Slot> {
            m.chain(fake)
                .filter(|s| held[*s as usize] == *key)
                .collect()
        };
        assert_eq!(find(&m, &Value::Int(1)), vec![0, 2]);
        assert_eq!(find(&m, &Value::str("one")), vec![1]);
        assert!(m.unlink(fake, 0));
        assert_eq!(find(&m, &Value::Int(1)), vec![2]);
        assert_eq!(
            find(&m, &Value::str("one")),
            vec![1],
            "chain sibling must survive"
        );
    }

    #[test]
    fn same_key_under_two_hashes_is_two_entries() {
        // The chains trust the caller's hash: they never re-hash, so a
        // wrong hash simply misses. Documents the contract rather than a
        // desirable behavior.
        let mut m = SlotChains::new();
        m.push(1, 0);
        assert!(chain(&m, 2).is_empty());
        m.push(2, 1);
        assert_eq!(chain(&m, 1), vec![0]);
        assert_eq!(chain(&m, 2), vec![1]);
    }
}
