//! Dynamically typed scalar values.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The fixed term of [`Value::approx_bytes`], and the `Arc<str>` header
/// (strong and weak counts) a `Str` adds. Constants of the accounting
/// model — today's `size_of::<Value>()` and two `usize`s on a 64-bit
/// host — not the current layout: every SteM, memo and state-bytes figure
/// is a sum of them, so they must not move when the enum changes shape.
const VALUE_BYTES: usize = 24;
const ARC_HEADER_BYTES: usize = 16;

/// A scalar value stored in a row.
///
/// `Value` is the unit of data the whole system moves around. Two variants
/// deserve comment:
///
/// * [`Value::Eot`] is the special End-Of-Transmission marker the paper puts
///   in the *non-bound* fields of an EOT tuple (§2.1.3): "the EOT tuple is a
///   regular tuple with a special EOT value in all the non-bound fields".
///   `Eot` never compares equal to a data value, so EOT tuples can be stored
///   in SteMs "alongside standard tuples" without polluting join results.
/// * [`Value::Float`] wraps an `f64` by bit pattern for `Eq`/`Hash`, which
///   lets floats participate in hash indexes. `NaN` equals itself under this
///   scheme (total order by bits), which is the standard dictionary-key
///   compromise.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL. Never equal to anything under [`Value::sql_eq`], including
    /// itself, but equal to itself for dictionary purposes (`Eq`/`Hash`).
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float, compared by bit pattern for dictionary purposes.
    Float(f64),
    /// Interned string.
    Str(Arc<str>),
    /// Boolean.
    Bool(bool),
    /// End-Of-Transmission marker (paper §2.1.3).
    Eot,
}

impl Value {
    /// Build a string value.
    pub fn str(s: &str) -> Value {
        Value::Str(Arc::from(s))
    }

    /// True if this value is the EOT marker.
    pub fn is_eot(&self) -> bool {
        matches!(self, Value::Eot)
    }

    /// True if this value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// SQL equality: `NULL = x` is never true, and the EOT marker matches
    /// nothing. Values of different types are unequal (no coercion).
    pub fn sql_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => false,
            (Value::Eot, _) | (_, Value::Eot) => false,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b,
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => {
                (*a as f64) == *b
            }
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            _ => false,
        }
    }

    /// SQL ordering comparison. Returns `None` when the values are not
    /// comparable (NULLs, EOT markers, mixed non-numeric types).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Eot, _) | (_, Value::Eot) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).partial_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.partial_cmp(&(*b as f64)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// A stable total order used by sorted stores (sort-merge simulation).
    /// Orders first by type tag, then by value; NULL sorts first, EOT last.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn tag(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) => 2,
                Value::Float(_) => 3,
                Value::Str(_) => 4,
                Value::Eot => 5,
            }
        }
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            _ => tag(self).cmp(&tag(other)),
        }
    }

    /// Normalize this value for use as an equality-dictionary key.
    ///
    /// Returns `None` for values that can never satisfy an SQL equality
    /// predicate (`NULL`, the EOT marker). Integral floats normalize to
    /// `Int` so that mixed `Int`/`Float` columns still find every match a
    /// scan-filter would under [`Value::sql_eq`]. This is the single
    /// source of truth for key normalization: `index_key` in
    /// `stems-storage` delegates here, and [`Value::stable_key_hash`]
    /// hashes exactly this normal form — the consistency invariant the
    /// hash-once probe pipeline (shard router → hash index) depends on.
    pub fn equality_key(&self) -> Option<Value> {
        match self {
            Value::Null | Value::Eot => None,
            Value::Float(f) if f.fract() == 0.0 && f.abs() < 9.0e15 => Some(Value::Int(*f as i64)),
            other => Some(other.clone()),
        }
    }

    /// A stable 64-bit hash of this value *as an equality key*, used to
    /// route rows to SteM shards and to probe prehashed dictionary
    /// indexes without re-hashing. `None` marks values that can never
    /// satisfy an SQL equality predicate (NULL, the EOT marker) — sharded
    /// stores keep such rows in a dedicated overflow lane instead of a
    /// hash partition.
    ///
    /// The hash must agree with [`Value::equality_key`] normalization:
    /// any two values that can be `sql_eq` hash identically, so `Int(5)`
    /// and `Float(5.0)` land in the same shard and a partitioned equality
    /// lookup stays complete. The mixing is a fixed Fx-style
    /// multiply-rotate — deterministic across processes and machines, so
    /// shard layouts are reproducible.
    pub fn stable_key_hash(&self) -> Option<u64> {
        const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        #[inline]
        fn mix(h: u64, w: u64) -> u64 {
            (h.rotate_left(5) ^ w).wrapping_mul(SEED)
        }
        match self {
            Value::Null | Value::Eot => None,
            // Integral floats normalize to Int, exactly like `index_key`.
            Value::Float(f) if f.fract() == 0.0 && f.abs() < 9.0e15 => {
                Value::Int(*f as i64).stable_key_hash()
            }
            Value::Bool(b) => Some(mix(mix(0, 1), *b as u64)),
            Value::Int(i) => Some(mix(mix(0, 2), *i as u64)),
            Value::Float(f) => Some(mix(mix(0, 3), f.to_bits())),
            Value::Str(s) => {
                let mut h = mix(0, 4);
                for chunk in s.as_bytes().chunks(8) {
                    let mut buf = [0u8; 8];
                    buf[..chunk.len()].copy_from_slice(chunk);
                    h = mix(h, u64::from_le_bytes(buf));
                }
                h = mix(h, s.len() as u64);
                Some(h)
            }
        }
    }

    /// Approximate heap footprint in bytes, used for SteM and memo-cache
    /// memory accounting.
    ///
    /// Convention for interned strings: every `Str` handle charges the
    /// full payload *plus* the `Arc<str>` allocation header (strong +
    /// weak refcounts), even when several handles share one allocation.
    /// Budgets therefore over-count shared strings rather than depending
    /// on sharing structure — the estimate for a value is a pure function
    /// of the value, so SteM and memo budgets agree on what a key costs
    /// no matter which of them interned it first.
    pub fn approx_bytes(&self) -> usize {
        VALUE_BYTES
            + match self {
                Value::Str(s) => ARC_HEADER_BYTES + s.len(),
                _ => 0,
            }
    }
}

impl PartialEq for Value {
    /// Dictionary equality (used by hash indexes and duplicate elimination):
    /// byte-level, so `Null == Null`, `Eot == Eot`, and floats compare by
    /// bits. Query predicates must use [`Value::sql_eq`] instead.
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Eot, Value::Eot) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            Value::Int(i) => {
                2u8.hash(state);
                i.hash(state);
            }
            Value::Float(f) => {
                3u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Str(s) => {
                4u8.hash(state);
                s.hash(state);
            }
            Value::Eot => 5u8.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Eot => write!(f, "EOT"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    #[test]
    fn sql_eq_null_never_matches() {
        assert!(!Value::Null.sql_eq(&Value::Null));
        assert!(!Value::Null.sql_eq(&Value::Int(1)));
        assert!(!Value::Int(1).sql_eq(&Value::Null));
    }

    #[test]
    fn sql_eq_eot_never_matches() {
        assert!(!Value::Eot.sql_eq(&Value::Eot));
        assert!(!Value::Eot.sql_eq(&Value::Int(15)));
    }

    #[test]
    fn dictionary_eq_is_reflexive_for_null_and_eot() {
        assert_eq!(Value::Null, Value::Null);
        assert_eq!(Value::Eot, Value::Eot);
        assert_ne!(Value::Null, Value::Eot);
    }

    #[test]
    fn numeric_coercion_in_sql_eq() {
        assert!(Value::Int(3).sql_eq(&Value::Float(3.0)));
        assert!(!Value::Int(3).sql_eq(&Value::Float(3.5)));
    }

    #[test]
    fn sql_cmp_orders_numbers_and_strings() {
        assert_eq!(Value::Int(1).sql_cmp(&Value::Int(2)), Some(Ordering::Less));
        assert_eq!(
            Value::str("b").sql_cmp(&Value::str("a")),
            Some(Ordering::Greater)
        );
        assert_eq!(Value::Int(1).sql_cmp(&Value::str("a")), None);
        assert_eq!(Value::Null.sql_cmp(&Value::Int(0)), None);
    }

    #[test]
    fn total_cmp_is_total_and_consistent() {
        let vals = vec![
            Value::Null,
            Value::Bool(false),
            Value::Int(-5),
            Value::Float(2.5),
            Value::str("x"),
            Value::Eot,
        ];
        for a in &vals {
            assert_eq!(a.total_cmp(a), Ordering::Equal);
            for b in &vals {
                let ab = a.total_cmp(b);
                let ba = b.total_cmp(a);
                assert_eq!(ab, ba.reverse());
            }
        }
    }

    #[test]
    fn float_hash_eq_by_bits() {
        assert_eq!(Value::Float(1.5), Value::Float(1.5));
        assert_eq!(h(&Value::Float(1.5)), h(&Value::Float(1.5)));
        assert_ne!(Value::Float(0.0), Value::Float(-0.0));
    }

    #[test]
    fn hash_consistent_with_eq_for_ints_strings() {
        assert_eq!(h(&Value::Int(42)), h(&Value::Int(42)));
        assert_eq!(h(&Value::str("abc")), h(&Value::str("abc")));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::str("hi").to_string(), "hi");
        assert_eq!(Value::Eot.to_string(), "EOT");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn approx_bytes_counts_string_payload() {
        assert!(Value::str("hello").approx_bytes() > Value::Int(1).approx_bytes());
    }

    #[test]
    fn approx_bytes_charges_arc_header_per_handle() {
        // The convention: each handle pays enum + Arc header + payload,
        // independent of how many handles share the allocation.
        let (inline, header) = (VALUE_BYTES, ARC_HEADER_BYTES);
        let a = Value::str("hello");
        let b = a.clone(); // shares the Arc<str> allocation
        assert_eq!(a.approx_bytes(), inline + header + 5);
        assert_eq!(b.approx_bytes(), a.approx_bytes());
        assert_eq!(Value::Int(1).approx_bytes(), inline);
        assert_eq!(Value::Null.approx_bytes(), inline);
    }

    #[test]
    fn stable_key_hash_unhashable_values() {
        assert_eq!(Value::Null.stable_key_hash(), None);
        assert_eq!(Value::Eot.stable_key_hash(), None);
    }

    #[test]
    fn stable_key_hash_agrees_with_sql_eq_coercion() {
        // Values that can compare sql_eq must co-locate in one shard.
        assert_eq!(
            Value::Int(5).stable_key_hash(),
            Value::Float(5.0).stable_key_hash()
        );
        assert_ne!(
            Value::Int(5).stable_key_hash(),
            Value::Float(5.5).stable_key_hash()
        );
        assert_eq!(
            Value::str("abc").stable_key_hash(),
            Value::str("abc").stable_key_hash()
        );
    }

    #[test]
    fn stable_key_hash_separates_types_and_values() {
        let vals = [
            Value::Int(0),
            Value::Int(1),
            Value::Bool(false),
            Value::Bool(true),
            Value::Float(0.5),
            Value::str(""),
            Value::str("a"),
            Value::str("aa"),
        ];
        let hashes: std::collections::HashSet<u64> =
            vals.iter().map(|v| v.stable_key_hash().unwrap()).collect();
        assert_eq!(hashes.len(), vals.len());
        // Small ints spread across 4 shards reasonably.
        let shards: std::collections::HashSet<u64> = (0..64i64)
            .map(|i| Value::Int(i).stable_key_hash().unwrap() % 4)
            .collect();
        assert_eq!(shards.len(), 4, "small ints must hit every shard");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from("s"), Value::str("s"));
        assert_eq!(Value::from(true), Value::Bool(true));
    }
}
