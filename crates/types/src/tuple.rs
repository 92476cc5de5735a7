//! Composite tuples: base-table components, spans, timestamps.

use crate::{Row, TableIdx, TableSet, Value};
use std::fmt;
use std::sync::Arc;

/// Global, monotonically increasing build timestamp (paper §3.1, the
/// TimeStamp constraint). Timestamps are assigned by the engine when a
/// singleton tuple *builds* into a SteM.
pub type Timestamp = u64;

/// The timestamp of a tuple that has not yet been built into a SteM.
///
/// The paper defines an unbuilt tuple's timestamp as infinity, so that a
/// probe by a fresh tuple always passes the `ts(probe) > ts(match)` test.
pub const UNBUILT_TS: Timestamp = u64::MAX;

/// One base-table component of a tuple (paper Definition 1): a row of one
/// table instance, plus the build timestamp of that row.
#[derive(Debug, Clone)]
pub struct Component {
    pub table: TableIdx,
    pub row: Arc<Row>,
    /// Build timestamp; [`UNBUILT_TS`] until the singleton builds into a SteM.
    pub ts: Timestamp,
}

impl Component {
    pub fn new(table: TableIdx, row: Arc<Row>) -> Component {
        Component {
            table,
            row,
            ts: UNBUILT_TS,
        }
    }
}

impl PartialEq for Component {
    /// Components compare by table and row *value* — timestamps are
    /// execution metadata, not data (duplicate elimination must identify
    /// copies of the same row that built at different times, §3.2).
    fn eq(&self, other: &Component) -> bool {
        self.table == other.table && self.row == other.row
    }
}

impl Eq for Component {}

impl std::hash::Hash for Component {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.table.hash(state);
        self.row.hash(state);
    }
}

/// The fixed term of [`Tuple::approx_bytes`] — a constant of the
/// accounting model, not `size_of::<Tuple>()`: the memory-accounting
/// series (the pipelined-SHJ `mem_bytes` curve among them) read it, so it
/// must not move when the struct changes shape.
const HEADER_BYTES: usize = 24;

/// What [`Tuple::approx_bytes`] charges per component on top of its row —
/// today's `size_of::<Component>()`, pinned for the same reason.
const COMPONENT_BYTES: usize = 24;

/// The components of a [`Tuple`], in table order. The form is canonical:
/// exactly one component is always `One`, whichever constructor built it.
#[derive(Clone)]
enum Comps {
    /// A singleton's component, held inline: the tuple the AMs emit, the
    /// SteMs build and bounce and the SMs filter owns no allocation of its
    /// own. A one-element array so that `components()` is a plain slice.
    One([Component; 1]),
    /// A composite's components (or none: [`Tuple::empty`]).
    Many(Vec<Component>),
}

/// A (possibly composite) tuple: an ordered set of base-table components.
///
/// Components are kept sorted by table index, giving every tuple value a
/// canonical form — two tuples assembled along different join orders compare
/// equal, which is what the duplicate-avoidance theorems (paper Theorems
/// 1–2) quantify over.
///
/// A singleton (paper Definition 2) carries its component inline; only a
/// concatenation allocates a component vector. Equality, hashing and
/// `Debug` go through [`Tuple::components`], so the representation is
/// invisible to every reader.
#[derive(Clone)]
pub struct Tuple {
    comps: Comps,
}

impl PartialEq for Tuple {
    fn eq(&self, other: &Tuple) -> bool {
        self.components() == other.components()
    }
}

impl Eq for Tuple {}

impl std::hash::Hash for Tuple {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.components().hash(state);
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tuple")
            .field("comps", &self.components())
            .finish()
    }
}

impl Tuple {
    /// A singleton tuple (paper Definition 2) for `table`.
    pub fn singleton(table: TableIdx, row: Arc<Row>) -> Tuple {
        Tuple {
            comps: Comps::One([Component::new(table, row)]),
        }
    }

    /// A singleton from owned values (convenience for tests/examples).
    pub fn singleton_of(table: TableIdx, values: Vec<Value>) -> Tuple {
        Tuple::singleton(table, Row::shared(values))
    }

    /// A tuple spanning no tables, carrying no allocation. Used as the
    /// placeholder left behind when a tuple is moved out of a reusable
    /// arena slot (`ProbeReplySet`) or a build envelope; never a legal
    /// engine tuple.
    pub fn empty() -> Tuple {
        Tuple {
            comps: Comps::Many(Vec::new()),
        }
    }

    /// The canonical form of `comps`, already in table order.
    fn from_sorted(mut comps: Vec<Component>) -> Tuple {
        let comps = match comps.len() {
            1 => Comps::One([comps.pop().expect("one component")]),
            _ => Comps::Many(comps),
        };
        Tuple { comps }
    }

    /// Build from components (sorted internally). Panics if two components
    /// share a table instance.
    pub fn from_components(mut comps: Vec<Component>) -> Tuple {
        comps.sort_by_key(|c| c.table);
        for w in comps.windows(2) {
            assert!(
                w[0].table != w[1].table,
                "tuple cannot span the same table instance twice"
            );
        }
        Tuple::from_sorted(comps)
    }

    /// The set of tables this tuple spans (paper Definition 1).
    pub fn span(&self) -> TableSet {
        self.components().iter().map(|c| c.table).collect()
    }

    /// True for single-component tuples (paper Definition 2).
    pub fn is_singleton(&self) -> bool {
        matches!(self.comps, Comps::One(_))
    }

    /// Components in table order.
    pub fn components(&self) -> &[Component] {
        match &self.comps {
            Comps::One(one) => one,
            Comps::Many(many) => many,
        }
    }

    /// The component for `table`, if spanned.
    pub fn component(&self, table: TableIdx) -> Option<&Component> {
        self.components().iter().find(|c| c.table == table)
    }

    /// The tuple's timestamp: the max over component timestamps, i.e. "the
    /// timestamp of its last arriving base-table component" (paper §3.1).
    /// Unbuilt components make the whole tuple [`UNBUILT_TS`].
    pub fn timestamp(&self) -> Timestamp {
        let stamps = self.components().iter().map(|c| c.ts);
        stamps.max().unwrap_or(UNBUILT_TS)
    }

    /// Fetch the value at `(table, col)`. `None` if the table is not
    /// spanned or the column is out of range.
    pub fn value(&self, table: TableIdx, col: usize) -> Option<&Value> {
        self.component(table).and_then(|c| c.row.get(col))
    }

    /// Concatenate two tuples with disjoint spans (the SteM concatenates
    /// probe tuples with matches, paper Table 1). Panics on overlapping
    /// spans — the router must never join overlapping tuples.
    pub fn concat(&self, other: &Tuple) -> Tuple {
        assert!(
            self.span().is_disjoint_from(other.span()),
            "concat of overlapping tuples: {} vs {}",
            self.span(),
            other.span()
        );
        let (ours, theirs) = (self.components(), other.components());
        let mut comps = Vec::with_capacity(ours.len() + theirs.len());
        comps.extend_from_slice(ours);
        comps.extend_from_slice(theirs);
        Tuple::from_components(comps)
    }

    /// Concatenate one component onto this tuple in a single allocation:
    /// equivalent to `self.concat(&Tuple::singleton(table, row)
    /// .with_timestamp(table, ts))` without the temporary singleton, the
    /// second components vec, or the re-sort — the SteM probe reply path
    /// builds every match this way. Panics if `table` is already spanned.
    pub fn concat_row(&self, table: TableIdx, row: Arc<Row>, ts: Timestamp) -> Tuple {
        let ours = self.components();
        let pos = ours.partition_point(|c| c.table < table);
        assert!(
            ours.get(pos).is_none_or(|c| c.table != table),
            "concat of overlapping tuples: {} vs {}",
            self.span(),
            TableSet::single(table)
        );
        let mut comps = Vec::with_capacity(ours.len() + 1);
        comps.extend_from_slice(&ours[..pos]);
        comps.push(Component { table, row, ts });
        comps.extend_from_slice(&ours[pos..]);
        Tuple::from_sorted(comps)
    }

    /// A copy of this tuple with the component for `table` stamped with
    /// build timestamp `ts`. Panics if the table is not spanned.
    pub fn with_timestamp(&self, table: TableIdx, ts: Timestamp) -> Tuple {
        let mut stamped = self.clone();
        stamped.set_timestamp(table, ts);
        stamped
    }

    /// Stamp the component for `table` with build timestamp `ts`, in
    /// place — how a SteM stamps the singleton it then moves on, without
    /// the clone [`Tuple::with_timestamp`] makes. Panics if the table is
    /// not spanned.
    pub fn set_timestamp(&mut self, table: TableIdx, ts: Timestamp) {
        let comps = match &mut self.comps {
            Comps::One(one) => one.as_mut_slice(),
            Comps::Many(many) => many.as_mut_slice(),
        };
        let c = comps
            .iter_mut()
            .find(|c| c.table == table)
            .expect("set_timestamp: table not spanned");
        c.ts = ts;
    }

    /// True if any component row is an EOT tuple: one flag per component
    /// ([`Row::is_eot`]), so one read for a singleton.
    pub fn is_eot(&self) -> bool {
        self.components().iter().any(|c| c.row.is_eot())
    }

    /// Approximate heap footprint (shared rows counted fully; used for the
    /// memory-accounting series, not allocator-exact).
    pub fn approx_bytes(&self) -> usize {
        HEADER_BYTES
            + self
                .components()
                .iter()
                .map(|c| COMPONENT_BYTES + c.row.approx_bytes())
                .sum::<usize>()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, c) in self.components().iter().enumerate() {
            if i > 0 {
                write!(f, " ⋈ ")?;
            }
            write!(f, "{}:{}", c.table, c.row)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(vals: &[i64]) -> Arc<Row> {
        Row::shared(vals.iter().map(|v| Value::Int(*v)).collect())
    }

    #[test]
    fn singleton_span_and_flag() {
        let t = Tuple::singleton(TableIdx(2), row(&[1, 2]));
        assert!(t.is_singleton());
        assert_eq!(t.span(), TableSet::single(TableIdx(2)));
        assert_eq!(t.timestamp(), UNBUILT_TS);
    }

    /// One component is one representation, whichever constructor built
    /// it: equal, equally hashed, and inline.
    #[test]
    fn a_single_component_is_canonical_whoever_built_it() {
        use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
        let hash = |t: &Tuple| BuildHasherDefault::<DefaultHasher>::default().hash_one(t);
        let single = Tuple::singleton(TableIdx(3), row(&[4, 5]));
        let built = Tuple::from_components(vec![Component::new(TableIdx(3), row(&[4, 5]))]);
        let grown = Tuple::empty().concat_row(TableIdx(3), row(&[4, 5]), 7);
        let joined = Tuple::empty().concat(&single);
        for other in [&built, &grown, &joined, &single.clone()] {
            assert!(other.is_singleton());
            assert_eq!(*other, single);
            assert_eq!(hash(other), hash(&single));
        }
        assert_eq!(grown.timestamp(), 7);
        assert!(!Tuple::empty().is_singleton());
        assert!(std::mem::size_of::<Tuple>() <= 32);
    }

    /// Two singletons concatenate to exactly the components one expects,
    /// in table order, each keeping its own timestamp.
    #[test]
    fn concat_of_singletons_component_for_component() {
        let (r0, r1) = (row(&[20]), row(&[10]));
        let s = Tuple::singleton(TableIdx(1), r1.clone()).with_timestamp(TableIdx(1), 8);
        let r = Tuple::singleton(TableIdx(0), r0.clone()).with_timestamp(TableIdx(0), 3);
        let want = [(TableIdx(0), &r0, 3), (TableIdx(1), &r1, 8)];
        let by_row = s.concat_row(TableIdx(0), r0.clone(), 3);
        for got in [s.concat(&r), r.concat(&s), by_row] {
            assert!(!got.is_singleton());
            assert_eq!(got.components().len(), want.len());
            for (c, (table, row, ts)) in got.components().iter().zip(want) {
                assert_eq!((c.table, c.ts), (table, ts));
                assert!(Arc::ptr_eq(&c.row, row));
            }
        }
    }

    #[test]
    fn concat_merges_and_sorts() {
        let s = Tuple::singleton(TableIdx(1), row(&[10]));
        let r = Tuple::singleton(TableIdx(0), row(&[20]));
        let rs = s.concat(&r);
        assert_eq!(rs.span(), TableSet::all(2));
        assert_eq!(rs.components()[0].table, TableIdx(0));
        assert_eq!(rs.components()[1].table, TableIdx(1));
        assert!(!rs.is_singleton());
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn concat_rejects_overlap() {
        let a = Tuple::singleton(TableIdx(0), row(&[1]));
        let b = Tuple::singleton(TableIdx(0), row(&[2]));
        let _ = a.concat(&b);
    }

    #[test]
    fn concat_row_equals_concat_of_stamped_singleton() {
        let base = Tuple::singleton(TableIdx(1), row(&[10])).with_timestamp(TableIdx(1), 3);
        for table in [TableIdx(0), TableIdx(2), TableIdx(5)] {
            let r = row(&[7]);
            let fast = base.concat_row(table, r.clone(), 9);
            let slow = base.concat(&Tuple::singleton(table, r).with_timestamp(table, 9));
            assert_eq!(fast, slow);
            assert_eq!(
                fast.component(table).unwrap().ts,
                slow.component(table).unwrap().ts
            );
            assert_eq!(fast.timestamp(), slow.timestamp());
        }
        assert_eq!(Tuple::empty().span(), TableSet::default());
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn concat_row_rejects_overlap() {
        let a = Tuple::singleton(TableIdx(0), row(&[1]));
        let _ = a.concat_row(TableIdx(0), row(&[2]), 1);
    }

    #[test]
    fn timestamp_is_max_of_components() {
        let r = Tuple::singleton(TableIdx(0), row(&[1])).with_timestamp(TableIdx(0), 5);
        let s = Tuple::singleton(TableIdx(1), row(&[2])).with_timestamp(TableIdx(1), 9);
        assert_eq!(r.concat(&s).timestamp(), 9);
        let unbuilt = Tuple::singleton(TableIdx(2), row(&[3]));
        assert_eq!(r.concat(&unbuilt).timestamp(), UNBUILT_TS);
    }

    #[test]
    fn equality_ignores_timestamps() {
        let a = Tuple::singleton(TableIdx(0), row(&[1])).with_timestamp(TableIdx(0), 1);
        let b = Tuple::singleton(TableIdx(0), row(&[1])).with_timestamp(TableIdx(0), 2);
        assert_eq!(a, b);
    }

    /// Stamping in place is `with_timestamp` without the copy: the same
    /// components, the same row allocation, on singletons and composites.
    #[test]
    fn set_timestamp_stamps_in_place_like_with_timestamp() {
        let r = row(&[1]);
        let mut single = Tuple::singleton(TableIdx(2), r.clone());
        let copied = single.with_timestamp(TableIdx(2), 4);
        single.set_timestamp(TableIdx(2), 4);
        assert_eq!(single.timestamp(), 4);
        assert_eq!(single.timestamp(), copied.timestamp());
        assert!(Arc::ptr_eq(&single.components()[0].row, &r));
        let mut pair = single.concat(&Tuple::singleton(TableIdx(0), row(&[2])));
        pair.set_timestamp(TableIdx(0), 9);
        let ts: Vec<Timestamp> = pair.components().iter().map(|c| c.ts).collect();
        assert_eq!(ts, vec![9, 4]);
    }

    #[test]
    fn canonical_order_makes_join_order_irrelevant() {
        let r = Tuple::singleton(TableIdx(0), row(&[1]));
        let s = Tuple::singleton(TableIdx(1), row(&[2]));
        let t = Tuple::singleton(TableIdx(2), row(&[3]));
        let rst1 = r.concat(&s).concat(&t);
        let rst2 = t.concat(&s).concat(&r);
        assert_eq!(rst1, rst2);
    }

    #[test]
    fn value_lookup() {
        let t = Tuple::singleton(TableIdx(1), row(&[7, 8]));
        assert_eq!(t.value(TableIdx(1), 1), Some(&Value::Int(8)));
        assert_eq!(t.value(TableIdx(0), 0), None);
        assert_eq!(t.value(TableIdx(1), 9), None);
    }

    #[test]
    fn eot_propagates() {
        let t = Tuple::singleton_of(TableIdx(0), vec![Value::Int(1), Value::Eot]);
        assert!(t.is_eot());
        let n = Tuple::singleton_of(TableIdx(1), vec![Value::Int(1)]);
        assert!(!n.is_eot());
        assert!(t.concat(&n).is_eot());
    }

    /// The state-accounting model in literal numbers: what a value, a row
    /// and a tuple are charged must not move when a struct changes shape
    /// — `peak_state_bytes` and the paper's memory curves read them.
    #[test]
    fn accounted_bytes_are_pinned_to_the_model() {
        assert_eq!(Value::Int(1).approx_bytes(), 24);
        assert_eq!(Value::Null.approx_bytes(), 24);
        assert_eq!(Value::Float(0.5).approx_bytes(), 24);
        assert_eq!(Value::str("hello").approx_bytes(), 24 + 16 + 5);
        assert_eq!(row(&[1, 2]).approx_bytes(), 16 + 2 * 24);
        let mixed = Row::new(vec![Value::Int(1), Value::str("ab")]);
        assert_eq!(mixed.approx_bytes(), 16 + 24 + (24 + 16 + 2));
        let single = Tuple::singleton(TableIdx(0), row(&[1, 2]));
        assert_eq!(single.approx_bytes(), 24 + (24 + 64));
        let pair = single.concat(&Tuple::singleton(TableIdx(1), row(&[3])));
        assert_eq!(pair.approx_bytes(), 24 + (24 + 64) + (24 + 40));
        assert_eq!(Tuple::empty().approx_bytes(), 24);
    }

    #[test]
    fn display_shows_components() {
        let t = Tuple::singleton(TableIdx(0), row(&[1]))
            .concat(&Tuple::singleton(TableIdx(1), row(&[2])));
        assert_eq!(t.to_string(), "[t0:(1) ⋈ t1:(2)]");
    }
}
