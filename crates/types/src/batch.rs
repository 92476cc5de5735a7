//! A batch of tuples moving through the dataflow as one unit.
//!
//! The paper routes tuples one at a time; every hop pays a routing-policy
//! decision and a constraint check. [`TupleBatch`] is the vocabulary type
//! for the batched engine path: tuples that share a routing destination
//! travel together, so per-decision costs are amortized over the batch
//! while correctness constraints are still enforced per tuple.

use crate::tuple::Tuple;

/// An ordered batch of tuples sharing a routing destination.
///
/// This is a thin, intention-revealing wrapper over `Vec<Tuple>`: modules
/// receive a `TupleBatch`, process every member, and the per-envelope
/// overhead (queueing, event scheduling, policy choice) is paid once.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TupleBatch {
    items: Vec<Tuple>,
}

impl TupleBatch {
    /// An empty batch.
    pub fn new() -> TupleBatch {
        TupleBatch { items: Vec::new() }
    }

    /// An empty batch with room for `cap` tuples.
    pub fn with_capacity(cap: usize) -> TupleBatch {
        TupleBatch {
            items: Vec::with_capacity(cap),
        }
    }

    /// A batch holding a single tuple.
    pub fn single(t: Tuple) -> TupleBatch {
        TupleBatch { items: vec![t] }
    }

    /// Append a tuple.
    pub fn push(&mut self, t: Tuple) {
        self.items.push(t);
    }

    /// Drop all tuples, keeping the allocation — lets pooled envelope
    /// buffers reuse capacity across calls.
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Number of tuples in the batch.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the batch holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterate over the member tuples.
    pub fn iter(&self) -> std::slice::Iter<'_, Tuple> {
        self.items.iter()
    }

    /// The member tuples as a slice.
    pub fn as_slice(&self) -> &[Tuple] {
        &self.items
    }

    /// The member tuples as a mutable slice — in-place compaction swaps
    /// survivors forward and then [`TupleBatch::truncate`]s.
    pub fn as_mut_slice(&mut self) -> &mut [Tuple] {
        &mut self.items
    }

    /// Keep the first `len` tuples, dropping the rest; the allocation
    /// stays.
    pub fn truncate(&mut self, len: usize) {
        self.items.truncate(len);
    }

    /// Move every tuple out, in order, leaving the batch empty with its
    /// allocation intact — how a recycled buffer hands its members on.
    pub fn drain(&mut self) -> std::vec::Drain<'_, Tuple> {
        self.items.drain(..)
    }
}

impl From<Vec<Tuple>> for TupleBatch {
    fn from(items: Vec<Tuple>) -> TupleBatch {
        TupleBatch { items }
    }
}

impl FromIterator<Tuple> for TupleBatch {
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> TupleBatch {
        TupleBatch {
            items: iter.into_iter().collect(),
        }
    }
}

impl IntoIterator for TupleBatch {
    type Item = Tuple;
    type IntoIter = std::vec::IntoIter<Tuple>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

impl<'a> IntoIterator for &'a TupleBatch {
    type Item = &'a Tuple;
    type IntoIter = std::slice::Iter<'a, Tuple>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::TableIdx;
    use crate::value::Value;

    fn t(k: i64) -> Tuple {
        Tuple::singleton_of(TableIdx(0), vec![Value::Int(k)])
    }

    #[test]
    fn construction_and_access() {
        let mut b = TupleBatch::new();
        assert!(b.is_empty());
        b.push(t(1));
        b.push(t(2));
        assert_eq!(b.len(), 2);
        assert_eq!(b.iter().count(), 2);
        assert_eq!(b.as_slice().len(), 2);
        let v = b.as_slice().to_vec();
        assert_eq!(v.len(), 2);
        assert_eq!(TupleBatch::from(v), b);
    }

    #[test]
    fn compaction_and_drain_keep_the_allocation() {
        let mut b: TupleBatch = (0..4).map(t).collect();
        b.as_mut_slice().swap(0, 3);
        b.truncate(2);
        assert_eq!(b.as_slice(), &[t(3), t(1)]);
        let moved: Vec<Tuple> = b.drain().collect();
        assert_eq!(moved, vec![t(3), t(1)]);
        assert!(b.is_empty());
        assert!(b.items.capacity() >= 4);
    }

    #[test]
    fn single_and_collect() {
        assert_eq!(TupleBatch::single(t(7)).len(), 1);
        let b: TupleBatch = (0..5).map(t).collect();
        assert_eq!(b.len(), 5);
        assert_eq!((&b).into_iter().count(), 5);
        assert_eq!(b.into_iter().count(), 5);
    }
}
