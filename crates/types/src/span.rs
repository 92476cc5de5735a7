//! Table-instance indices and spans (sets of table instances).

use std::fmt;

/// Index of a table *instance* in a query's FROM list.
///
/// Self-joins give the same base table two distinct `TableIdx` values; the
/// paper handles this by sharing one SteM across both instances (§2.2), and
/// the catalog layer records the instance→source mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableIdx(pub u8);

impl TableIdx {
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TableIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A set of table instances — the *span* of a tuple (paper Definition 1).
///
/// Implemented as a 32-bit mask, which bounds queries at 32 table instances
/// (far beyond the paper's experiments and typical SPJ workloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct TableSet(pub u32);

/// Maximum number of table instances in one query.
pub const MAX_TABLES: usize = 32;

impl TableSet {
    /// The empty span.
    pub const EMPTY: TableSet = TableSet(0);

    /// A span containing a single table.
    pub fn single(t: TableIdx) -> TableSet {
        debug_assert!((t.0 as usize) < MAX_TABLES);
        TableSet(1 << t.0)
    }

    /// The span of all tables `0..n`.
    pub fn all(n: usize) -> TableSet {
        assert!(n <= MAX_TABLES, "too many tables in query");
        if n == MAX_TABLES {
            TableSet(u32::MAX)
        } else {
            TableSet((1u32 << n) - 1)
        }
    }

    pub fn contains(self, t: TableIdx) -> bool {
        self.0 & (1 << t.0) != 0
    }

    pub fn insert(&mut self, t: TableIdx) {
        self.0 |= 1 << t.0;
    }

    pub fn with(self, t: TableIdx) -> TableSet {
        TableSet(self.0 | (1 << t.0))
    }

    pub fn union(self, other: TableSet) -> TableSet {
        TableSet(self.0 | other.0)
    }

    pub fn minus(self, other: TableSet) -> TableSet {
        TableSet(self.0 & !other.0)
    }

    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    pub fn is_subset_of(self, other: TableSet) -> bool {
        self.0 & !other.0 == 0
    }

    pub(crate) fn is_disjoint_from(self, other: TableSet) -> bool {
        self.0 & other.0 == 0
    }

    /// Number of tables in the span.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterate over member table indices in increasing order — one step
    /// per member, not per possible index (the router walks a frontier
    /// this way for every routed tuple).
    pub fn iter(self) -> impl Iterator<Item = TableIdx> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let t = bits.trailing_zeros() as u8;
                bits &= bits - 1;
                TableIdx(t)
            })
        })
    }
}

impl FromIterator<TableIdx> for TableSet {
    fn from_iter<I: IntoIterator<Item = TableIdx>>(iter: I) -> Self {
        let mut s = TableSet::EMPTY;
        for t in iter {
            s.insert(t);
        }
        s
    }
}

impl fmt::Display for TableSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_and_contains() {
        let s = TableSet::single(TableIdx(3));
        assert!(s.contains(TableIdx(3)));
        assert!(!s.contains(TableIdx(0)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn all_covers_prefix() {
        let s = TableSet::all(3);
        assert_eq!(s.len(), 3);
        assert!(s.contains(TableIdx(0)));
        assert!(s.contains(TableIdx(2)));
        assert!(!s.contains(TableIdx(3)));
        assert_eq!(TableSet::all(32).len(), 32);
    }

    #[test]
    fn set_algebra() {
        let a = TableSet::single(TableIdx(0)).with(TableIdx(1));
        let b = TableSet::single(TableIdx(1)).with(TableIdx(2));
        assert_eq!(a.union(b), TableSet::all(3));
        assert_eq!(a.minus(b), TableSet::single(TableIdx(0)));
        assert!(a.is_subset_of(TableSet::all(3)));
        assert!(!a.is_disjoint_from(b));
        assert!(TableSet::single(TableIdx(0)).is_disjoint_from(TableSet::single(TableIdx(5))));
    }

    #[test]
    fn iter_in_order() {
        let s: TableSet = [TableIdx(4), TableIdx(1)].into_iter().collect();
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![TableIdx(1), TableIdx(4)]);
    }

    #[test]
    fn display() {
        let s: TableSet = [TableIdx(0), TableIdx(2)].into_iter().collect();
        assert_eq!(s.to_string(), "{t0,t2}");
    }
}
