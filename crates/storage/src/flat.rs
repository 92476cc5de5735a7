//! The caller-owned arena behind [`crate::Store::lookup_eq_flat`].
//!
//! The batched probe path used to materialize every envelope's candidates
//! as a `Vec<Vec<Arc<Row>>>` — one heap allocation per key, per envelope,
//! discarded immediately. [`CandidateBuf`] replaces that with two flat
//! vectors owned by the *caller* (a SteM's reusable probe scratch): all
//! candidate **slots** back to back, plus one `(start, end)` span per
//! key. Across envelopes the vectors keep their capacity, so steady-state
//! probing allocates nothing — and since a candidate is a slot number,
//! not a row handle, fetching one touches no reference count: the caller
//! resolves ([`crate::Slab::row`]) only the candidates it keeps.
//!
//! Every key of the envelope gets its own span, duplicates included: a
//! key repeated within one envelope is rare enough that remembering the
//! keys already resolved costs more than resolving them again.
//!
//! A third column, the **heads**, is the indexed lookup's working set: one
//! entry per key, holding the key's chain head and whether that head's row
//! holds the key. The lookup fills it level by level across the whole
//! envelope (see [`crate::Store::lookup_eq_flat`]) before it writes any
//! span, and it keeps its capacity like the other two.

use crate::slab::Slot;

/// Reusable flat storage for one envelope's candidate fetch. See the
/// module docs; the producer is [`crate::Store::lookup_eq_flat`], the
/// consumer reads [`CandidateBuf::candidates`] per key index.
#[derive(Debug, Default)]
pub struct CandidateBuf {
    /// Every key's candidate slots, back to back.
    slots: Vec<Slot>,
    /// Per input key, its `[start, end)` range in `slots`.
    spans: Vec<(usize, usize)>,
    /// Per input key of an indexed lookup: its chain head (`NIL` when it
    /// has none) and whether the head's row holds the key.
    heads: Vec<(Slot, bool)>,
}

impl CandidateBuf {
    pub fn new() -> CandidateBuf {
        CandidateBuf::default()
    }

    /// Forget the previous envelope, keeping every allocation.
    pub(crate) fn reset(&mut self) {
        self.slots.clear();
        self.spans.clear();
        self.heads.clear();
    }

    /// The heads column, to fill one entry per key (unverified: `false`)
    /// from `heads`.
    pub(crate) fn set_heads(&mut self, heads: impl Iterator<Item = Slot>) -> &mut [(Slot, bool)] {
        self.heads.clear();
        self.heads.extend(heads.map(|h| (h, false)));
        &mut self.heads
    }

    /// Key `i`'s chain head and its verdict.
    #[inline]
    pub(crate) fn head(&self, i: usize) -> (Slot, bool) {
        self.heads[i]
    }

    /// Keys resolved so far.
    pub fn num_keys(&self) -> usize {
        self.spans.len()
    }

    /// Candidate slots of key `i`, in the order the store produced them.
    pub fn candidates(&self, i: usize) -> &[Slot] {
        let (start, end) = self.spans[i];
        &self.slots[start..end]
    }

    /// Total candidates written — diagnostics for benches and tests.
    pub fn rows_stored(&self) -> usize {
        self.slots.len()
    }

    /// Start resolving the next key; returns the watermark to pass to
    /// [`CandidateBuf::commit_key`].
    pub(crate) fn begin_key(&mut self) -> usize {
        self.slots.len()
    }

    /// Append one candidate for the key being resolved.
    #[inline]
    pub(crate) fn push_slot(&mut self, slot: Slot) {
        self.slots.push(slot);
    }

    /// Seal the key begun at `start`: its span is everything pushed since.
    pub(crate) fn commit_key(&mut self, start: usize) {
        debug_assert!(start <= self.slots.len());
        self.spans.push((start, self.slots.len()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_partition_the_row_arena() {
        let mut buf = CandidateBuf::new();
        let s = buf.begin_key();
        buf.push_slot(10);
        buf.push_slot(11);
        buf.commit_key(s);
        let s = buf.begin_key();
        buf.commit_key(s);
        assert_eq!(buf.num_keys(), 2);
        assert_eq!(buf.candidates(0), [10, 11]);
        assert!(buf.candidates(1).is_empty());
        buf.reset();
        assert_eq!(buf.num_keys(), 0);
        assert_eq!(buf.rows_stored(), 0);
    }
}
