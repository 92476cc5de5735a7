//! Base-table rows.

use crate::Value;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The fixed term of [`Row::approx_bytes`] — a constant of the accounting
/// model (today's `size_of::<Row>()`), not the struct's current size, so
/// that state bytes do not move when the row changes shape.
const HEADER_BYTES: usize = 16;

/// One base-table row: an immutable, shared slice of values.
///
/// Rows are reference-counted ([`Arc<Row>`]) so a row stored in a SteM, held
/// in an AM lookup cache, and flowing through the eddy as a component of
/// several composite tuples is a single allocation. This mirrors the paper's
/// design where SteM indexes are "secondary indexes having pointers to the
/// same tuples in memory" (§2.1.4).
///
/// Whether the row is an EOT tuple, and what it weighs in the memory
/// accounting, are decided once, by [`Row::new`]: the values never change,
/// so neither do the answers. Equality and hashing are over the values
/// alone — the flag and the weight are functions of them.
#[derive(Clone)]
pub struct Row {
    values: Box<[Value]>,
    eot: bool,
    /// [`Row::approx_bytes`], saturated at `u32::MAX`: it sits in the
    /// padding after `eot`, so the row stays three words.
    bytes: u32,
}

const _: () = assert!(std::mem::size_of::<Row>() == 24);

impl PartialEq for Row {
    fn eq(&self, other: &Row) -> bool {
        self.values == other.values
    }
}

impl Eq for Row {}

impl Hash for Row {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.values.hash(state);
    }
}

impl Row {
    /// Build a row from values.
    pub fn new(values: Vec<Value>) -> Row {
        let bytes = HEADER_BYTES + values.iter().map(Value::approx_bytes).sum::<usize>();
        Row {
            eot: values.iter().any(Value::is_eot),
            bytes: u32::try_from(bytes).unwrap_or(u32::MAX),
            values: values.into_boxed_slice(),
        }
    }

    /// Shared row, ready to be used as a tuple component.
    pub fn shared(values: Vec<Value>) -> Arc<Row> {
        Arc::new(Row::new(values))
    }

    /// All values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value at column position `idx`.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.values.get(idx)
    }

    /// True if any field carries the EOT marker — i.e. this row encodes an
    /// End-Of-Transmission tuple (paper §2.1.3). Read off the flag
    /// [`Row::new`] set, not a scan of the values.
    #[inline]
    pub fn is_eot(&self) -> bool {
        self.eot
    }

    /// Approximate heap footprint for memory accounting: a fixed header
    /// plus every value's [`Value::approx_bytes`]. Read off the weight
    /// [`Row::new`] summed, not a walk of the values.
    #[inline]
    pub fn approx_bytes(&self) -> usize {
        self.bytes as usize
    }
}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_and_arity() {
        let r = Row::new(vec![Value::Int(1), Value::str("x")]);
        assert_eq!(r.values().len(), 2);
        assert_eq!(r.get(0), Some(&Value::Int(1)));
        assert_eq!(r.get(2), None);
    }

    #[test]
    fn eot_detection() {
        let normal = Row::new(vec![Value::Int(15), Value::str("John")]);
        let eot = Row::new(vec![Value::Int(15), Value::Eot]);
        assert!(!normal.is_eot());
        assert!(eot.is_eot());
    }

    /// The flag is the scan it replaces, and equality and hashing never
    /// see it: a row hashes exactly as its values do.
    #[test]
    fn eot_flag_is_a_function_of_the_values() {
        use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
        let hasher = BuildHasherDefault::<DefaultHasher>::default();
        for values in [
            vec![],
            vec![Value::Int(1), Value::Null],
            vec![Value::Eot],
            vec![Value::Eot, Value::Eot],
            vec![Value::str("x"), Value::Eot, Value::Float(0.5)],
        ] {
            let row = Row::new(values.clone());
            assert_eq!(row.is_eot(), values.iter().any(Value::is_eot), "{row:?}");
            assert_eq!(hasher.hash_one(&row), hasher.hash_one(row.values()));
            // A flag that disagreed would still not be seen by either.
            let flipped = Row {
                eot: !row.eot,
                ..row.clone()
            };
            assert_eq!(flipped, row);
            assert_eq!(hasher.hash_one(&flipped), hasher.hash_one(&row));
            assert_eq!(row, Row::new(values));
        }
        // Different values, different flags: unequal, as the values are.
        assert_ne!(Row::new(vec![Value::Eot]), Row::new(vec![Value::Null]));
    }

    /// The weight `Row::new` stores is the header plus every value's.
    #[test]
    fn approx_bytes_is_the_sum_of_the_values() {
        for values in [
            vec![],
            vec![Value::Int(1), Value::Null],
            vec![Value::str("hello"), Value::Float(0.5), Value::Eot],
        ] {
            let want = HEADER_BYTES + values.iter().map(Value::approx_bytes).sum::<usize>();
            assert_eq!(Row::new(values).approx_bytes(), want);
        }
    }

    #[test]
    fn rows_hash_and_eq_by_value() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Row::new(vec![Value::Int(1)]));
        assert!(set.contains(&Row::new(vec![Value::Int(1)])));
        assert!(!set.contains(&Row::new(vec![Value::Int(2)])));
    }

    #[test]
    fn debug_format() {
        let r = Row::new(vec![Value::Int(1), Value::str("a")]);
        assert_eq!(format!("{r:?}"), "(1, a)");
        assert_eq!(format!("{r}"), "(1, a)");
    }
}
