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
//! The buffer also drives **key-run dedup**: identical keys in one
//! envelope (identical = same [`stems_types::Value::equality_key`] normal
//! form, screened by the precomputed hash) resolve the index once and
//! *share* one candidate span — the paper's duplicate-heavy probe streams
//! pay for each distinct key, not each probe.

use crate::fxhash::FxHashMap;
use crate::slab::Slot;
use stems_types::HashedKey;

/// Reusable flat storage for one envelope's candidate fetch. See the
/// module docs; the producer is [`crate::Store::lookup_eq_flat`], the
/// consumer reads [`CandidateBuf::candidates`] per key index.
#[derive(Debug, Default)]
pub struct CandidateBuf {
    /// Every key's candidate slots, back to back.
    slots: Vec<Slot>,
    /// Per input key, its `[start, end)` range in `slots`. Duplicate keys
    /// alias one range.
    spans: Vec<(usize, usize)>,
    /// Dedup scratch: key hash → index of the first key seen with it.
    seen: FxHashMap<u64, usize>,
    /// Index of the first un-hashable (NULL/EOT) key; all later ones
    /// share its (empty) span — such keys match nothing by contract.
    seen_unhashable: Option<usize>,
}

impl CandidateBuf {
    pub fn new() -> CandidateBuf {
        CandidateBuf::default()
    }

    /// Forget the previous envelope, keeping every allocation.
    pub fn reset(&mut self) {
        self.slots.clear();
        self.spans.clear();
        self.seen.clear();
        self.seen_unhashable = None;
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

    /// Total candidates written (shared spans counted once) —
    /// diagnostics for benches and tests.
    pub fn rows_stored(&self) -> usize {
        self.slots.len()
    }

    /// Dedup check for key `i` of the envelope (which must be the next
    /// key to resolve): if an earlier key has the same equality normal
    /// form, returns its index — the caller then calls
    /// [`CandidateBuf::share_key`] instead of resolving the index again.
    /// Un-hashable keys all alias the first such key's empty span. On a
    /// hash collision with a *different* normal form the key simply
    /// resolves fresh (correctness over dedup).
    pub fn probe_dup(&mut self, i: usize, keys: &[HashedKey]) -> Option<usize> {
        debug_assert_eq!(i, self.spans.len(), "keys must resolve in order");
        match keys[i].hash() {
            None => match self.seen_unhashable {
                Some(j) => Some(j),
                None => {
                    self.seen_unhashable = Some(i);
                    None
                }
            },
            Some(h) => match self.seen.get(&h.get()) {
                Some(&j) if keys[j].same_lookup(&keys[i]) => Some(j),
                Some(_) => None, // true hash collision: resolve fresh
                None => {
                    self.seen.insert(h.get(), i);
                    None
                }
            },
        }
    }

    /// Start resolving the next key; returns the watermark to pass to
    /// [`CandidateBuf::commit_key`].
    pub fn begin_key(&mut self) -> usize {
        self.slots.len()
    }

    /// Append one candidate for the key being resolved.
    #[inline]
    pub fn push_slot(&mut self, slot: Slot) {
        self.slots.push(slot);
    }

    /// Seal the key begun at `start`: its span is everything pushed since.
    pub fn commit_key(&mut self, start: usize) {
        debug_assert!(start <= self.slots.len());
        self.spans.push((start, self.slots.len()));
    }

    /// Record the next key as sharing key `j`'s span (key-run dedup).
    pub fn share_key(&mut self, j: usize) {
        debug_assert!(j < self.spans.len(), "shared key must already be sealed");
        let span = self.spans[j];
        self.spans.push(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stems_types::Value;

    fn keys(vals: &[Value]) -> Vec<HashedKey> {
        vals.iter().cloned().map(HashedKey::new).collect()
    }

    #[test]
    fn spans_partition_the_row_arena() {
        let mut buf = CandidateBuf::new();
        let ks = keys(&[Value::Int(1), Value::Int(2)]);
        assert_eq!(buf.probe_dup(0, &ks), None);
        let s = buf.begin_key();
        buf.push_slot(10);
        buf.push_slot(11);
        buf.commit_key(s);
        assert_eq!(buf.probe_dup(1, &ks), None);
        let s = buf.begin_key();
        buf.commit_key(s);
        assert_eq!(buf.num_keys(), 2);
        assert_eq!(buf.candidates(0), [10, 11]);
        assert!(buf.candidates(1).is_empty());
        buf.reset();
        assert_eq!(buf.num_keys(), 0);
        assert_eq!(buf.rows_stored(), 0);
    }

    #[test]
    fn duplicates_share_spans_across_coercion_and_unhashables() {
        let mut buf = CandidateBuf::new();
        let ks = keys(&[
            Value::Int(5),
            Value::Float(5.0), // same normal form as Int(5)
            Value::Null,
            Value::Eot,        // shares the NULL key's empty span
            Value::Float(5.5), // distinct
        ]);
        assert_eq!(buf.probe_dup(0, &ks), None);
        let s = buf.begin_key();
        buf.push_slot(5);
        buf.commit_key(s);
        assert_eq!(buf.probe_dup(1, &ks), Some(0));
        buf.share_key(0);
        assert_eq!(buf.probe_dup(2, &ks), None);
        let s = buf.begin_key();
        buf.commit_key(s);
        assert_eq!(buf.probe_dup(3, &ks), Some(2));
        buf.share_key(2);
        assert_eq!(buf.probe_dup(4, &ks), None);
        let s = buf.begin_key();
        buf.commit_key(s);
        assert_eq!(buf.num_keys(), 5);
        assert_eq!(buf.candidates(1), buf.candidates(0));
        assert_eq!(buf.rows_stored(), 1, "the duplicate resolved no slots");
        assert!(buf.candidates(3).is_empty());
    }
}
