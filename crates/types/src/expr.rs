//! The select-project-join predicate language.
//!
//! Queries are conjunctions of comparison predicates. Each predicate gets a
//! [`PredId`]; a tuple's "donebits" (paper §2.1.1: "the predicates that the
//! tuple has passed — our implementation uses a bitmap") are a [`PredSet`].

use crate::{TableIdx, TableSet, Tuple, Value};
use std::fmt;

/// Identifier of a predicate within one query (index into the query's
/// predicate list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PredId(pub u16);

impl PredId {
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

/// A bitmap of predicates a tuple has passed — the paper's "donebits".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PredSet(pub u64);

/// Maximum number of predicates per query.
pub const MAX_PREDS: usize = 64;

impl PredSet {
    pub const EMPTY: PredSet = PredSet(0);

    pub fn all(n: usize) -> PredSet {
        assert!(n <= MAX_PREDS);
        if n == MAX_PREDS {
            PredSet(u64::MAX)
        } else {
            PredSet((1u64 << n) - 1)
        }
    }

    pub fn contains(self, p: PredId) -> bool {
        self.0 & (1 << p.0) != 0
    }

    pub fn insert(&mut self, p: PredId) {
        self.0 |= 1 << p.0;
    }

    pub fn union(self, other: PredSet) -> PredSet {
        PredSet(self.0 | other.0)
    }

    pub fn is_superset_of(self, other: PredSet) -> bool {
        other.0 & !self.0 == 0
    }

    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Member predicate ids in increasing order, one step per member.
    pub fn iter(self) -> impl Iterator<Item = PredId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let p = bits.trailing_zeros() as u16;
                bits &= bits - 1;
                PredId(p)
            })
        })
    }
}

/// Where a predicate reads its column values from: a [`Tuple`], or a view
/// that answers for a tuple that is never built — the SteM probe tests a
/// candidate as "the probe tuple plus this stored row" before it
/// concatenates the two. [`Predicate::eval`] has one body over any source.
pub trait ColumnSource {
    /// The value at `(table, col)`; `None` if the table is not spanned or
    /// the column is out of range.
    fn value(&self, table: TableIdx, col: usize) -> Option<&Value>;
}

impl ColumnSource for Tuple {
    fn value(&self, table: TableIdx, col: usize) -> Option<&Value> {
        Tuple::value(self, table, col)
    }
}

/// A reference reads through, so an iterator's `&&Tuple` item evaluates
/// as it is.
impl<C: ColumnSource + ?Sized> ColumnSource for &C {
    fn value(&self, table: TableIdx, col: usize) -> Option<&Value> {
        C::value(self, table, col)
    }
}

/// A column reference `<table instance>.<column position>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColRef {
    pub table: TableIdx,
    pub col: usize,
}

impl ColRef {
    pub fn new(table: TableIdx, col: usize) -> ColRef {
        ColRef { table, col }
    }
}

impl fmt::Display for ColRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.c{}", self.table, self.col)
    }
}

/// Comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    /// Membership in a constant list (`col IN (c1, c2, ...)`). The right
    /// operand is an [`Operand::List`]; against a single scalar this
    /// degenerates to [`CmpOp::Eq`] under SQL equality.
    In,
}

impl CmpOp {
    /// The operator with sides swapped (`a < b` ⇔ `b > a`). `In` has no
    /// column-on-the-right form (its right side is a constant list), so it
    /// flips to itself.
    pub(crate) fn flipped(self) -> CmpOp {
        use CmpOp::*;
        match self {
            Eq => Eq,
            Ne => Ne,
            Lt => Gt,
            Le => Ge,
            Gt => Lt,
            Ge => Le,
            In => In,
        }
    }

    /// Apply the operator to two values using SQL comparison semantics
    /// (NULL/EOT never satisfy any comparison, including `<>`).
    pub(crate) fn eval(self, a: &Value, b: &Value) -> bool {
        use CmpOp::*;
        if a.is_null() || a.is_eot() || b.is_null() || b.is_eot() {
            return false;
        }
        match self {
            Eq => a.sql_eq(b),
            Ne => !a.sql_eq(b),
            Lt => matches!(a.sql_cmp(b), Some(std::cmp::Ordering::Less)),
            Le => matches!(
                a.sql_cmp(b),
                Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
            ),
            Gt => matches!(a.sql_cmp(b), Some(std::cmp::Ordering::Greater)),
            Ge => matches!(
                a.sql_cmp(b),
                Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
            ),
            // Membership against a single scalar is SQL equality; the list
            // form is handled in `Predicate::eval` (an `Operand::List` is
            // not a `Value`).
            In => a.sql_eq(b),
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use CmpOp::*;
        let s = match self {
            Eq => "=",
            Ne => "<>",
            Lt => "<",
            Le => "<=",
            Gt => ">",
            Ge => ">=",
            In => "IN",
        };
        write!(f, "{s}")
    }
}

/// One side of a comparison: a column, a constant, or a constant list
/// (the right side of an `IN` predicate).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Operand {
    Col(ColRef),
    Const(Value),
    /// A constant list, valid only as the right side of [`CmpOp::In`].
    List(Vec<Value>),
}

impl Operand {
    /// The table instance referenced, if this operand is a column.
    pub(crate) fn table(&self) -> Option<TableIdx> {
        match self {
            Operand::Col(c) => Some(c.table),
            Operand::Const(_) | Operand::List(_) => None,
        }
    }

    /// Resolve the operand against a tuple (or any [`ColumnSource`]).
    /// `None` if the source does not span the referenced table. A list does
    /// not resolve to a single value (`IN` is handled in
    /// [`Predicate::eval`]), so it yields `None` here, which makes a
    /// malformed `col < (list)` predicate evaluate to "not evaluable"
    /// rather than to a wrong verdict.
    pub fn resolve<'a, C: ColumnSource + ?Sized>(&'a self, t: &'a C) -> Option<&'a Value> {
        match self {
            Operand::Col(c) => t.value(c.table, c.col),
            Operand::Const(v) => Some(v),
            Operand::List(_) => None,
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Col(c) => write!(f, "{c}"),
            Operand::Const(v) => write!(f, "{v}"),
            Operand::List(vs) => {
                write!(f, "(")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// The deterministic verdict function of a UDF-style predicate. Every
/// variant must be a pure function of the input value's *equality key*
/// (see [`Value::equality_key`]) so that memoizing verdicts per distinct
/// key — and sharing the memo across queries — is semantically invisible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UdfKind {
    /// Passes iff `stable_key_hash(v) % 1000 < pass_per_mille`. A
    /// deterministic stand-in for an expensive black-box predicate (ML
    /// inference, remote lookup) with a tunable selectivity.
    HashSieve { pass_per_mille: u16 },
}

/// An expensive UDF-style selection: a deterministic verdict function plus
/// a per-call virtual latency, charged through the simulator's service
/// clock each time the verdict is actually *computed* (memo hits and
/// deduplicated rows pay nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UdfSpec {
    pub udf: UdfKind,
    /// Virtual microseconds per computed verdict.
    pub cost_us: u64,
}

impl UdfSpec {
    pub fn hash_sieve(pass_per_mille: u16, cost_us: u64) -> UdfSpec {
        UdfSpec {
            udf: UdfKind::HashSieve { pass_per_mille },
            cost_us,
        }
    }

    /// The verdict on one input value. NULL/EOT inputs never pass (SQL
    /// semantics: the function is never invoked on NULL), and cost is not
    /// charged for them. Otherwise the verdict depends only on the value's
    /// equality key, so `5` and `5.0` agree.
    pub fn verdict(&self, v: &Value) -> bool {
        match self.udf {
            UdfKind::HashSieve { pass_per_mille } => match v.stable_key_hash() {
                Some(h) => h % 1000 < pass_per_mille as u64,
                None => false,
            },
        }
    }
}

/// What kind of expression a [`Predicate`] evaluates: a plain comparison
/// (the default, and the only kind until UDF predicates landed) or an
/// expensive UDF-style verdict function over the left column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExprKind {
    /// `left op right` under SQL comparison semantics.
    Cmp,
    /// `udf(left)` — the comparison fields are ignored for evaluation; the
    /// verdict comes from [`UdfSpec::verdict`] on the resolved left value.
    Udf(UdfSpec),
}

/// A comparison predicate over at most two table instances.
///
/// * selections: `col op const` (one table) — become Selection Modules;
/// * join predicates: `col op col` over two tables — enforced at SteMs and
///   index AMs (paper §2.1.4).
///
/// `kind` upgrades a selection to a UDF-style expensive predicate (see
/// [`ExprKind`]); every comparison constructor leaves it at
/// [`ExprKind::Cmp`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Predicate {
    pub id: PredId,
    pub left: Operand,
    pub op: CmpOp,
    pub right: Operand,
    pub kind: ExprKind,
}

impl Predicate {
    pub fn new(id: PredId, left: Operand, op: CmpOp, right: Operand) -> Predicate {
        Predicate {
            id,
            left,
            op,
            right,
            kind: ExprKind::Cmp,
        }
    }

    /// Shorthand for a two-column join predicate.
    pub fn join(id: PredId, l: ColRef, op: CmpOp, r: ColRef) -> Predicate {
        Predicate::new(id, Operand::Col(l), op, Operand::Col(r))
    }

    /// Shorthand for a column-vs-constant selection.
    pub fn selection(id: PredId, col: ColRef, op: CmpOp, v: Value) -> Predicate {
        Predicate::new(id, Operand::Col(col), op, Operand::Const(v))
    }

    /// Shorthand for a membership selection `col IN (items...)`.
    pub fn in_list(id: PredId, col: ColRef, items: Vec<Value>) -> Predicate {
        Predicate::new(id, Operand::Col(col), CmpOp::In, Operand::List(items))
    }

    /// An expensive UDF-style selection `udf(col)`. The comparison fields
    /// are placeholders (`col = TRUE`) never consulted for evaluation —
    /// the verdict comes from [`UdfSpec::verdict`].
    pub fn udf(id: PredId, col: ColRef, spec: UdfSpec) -> Predicate {
        let mut p = Predicate::new(
            id,
            Operand::Col(col),
            CmpOp::Eq,
            Operand::Const(Value::Bool(true)),
        );
        p.kind = ExprKind::Udf(spec);
        p
    }

    /// The UDF spec when this is a UDF-style predicate.
    pub fn udf_spec(&self) -> Option<&UdfSpec> {
        match &self.kind {
            ExprKind::Udf(spec) => Some(spec),
            ExprKind::Cmp => None,
        }
    }

    /// For a UDF predicate, the input column (always the left operand).
    pub fn udf_input_col(&self) -> Option<ColRef> {
        match (&self.kind, &self.left) {
            (ExprKind::Udf(_), Operand::Col(c)) => Some(*c),
            _ => None,
        }
    }

    /// The set of table instances the predicate mentions.
    pub fn tables(&self) -> TableSet {
        let mut s = TableSet::EMPTY;
        if let Some(t) = self.left.table() {
            s.insert(t);
        }
        if let Some(t) = self.right.table() {
            s.insert(t);
        }
        s
    }

    /// True if the predicate touches at most one table (a selection).
    pub fn is_selection(&self) -> bool {
        self.tables().len() <= 1
    }

    /// True if the predicate relates two distinct tables (a join predicate).
    pub fn is_join(&self) -> bool {
        self.tables().len() == 2
    }

    /// True if this predicate can be evaluated on a tuple spanning `span`.
    pub fn evaluable_on(&self, span: TableSet) -> bool {
        self.tables().is_subset_of(span)
    }

    /// For an equi-join predicate, the two column refs `(left, right)`.
    pub fn equi_join_cols(&self) -> Option<(ColRef, ColRef)> {
        match (&self.left, self.op, &self.right) {
            (Operand::Col(l), CmpOp::Eq, Operand::Col(r)) if l.table != r.table => Some((*l, *r)),
            _ => None,
        }
    }

    /// For a join predicate, the column on side `table` and the opposite
    /// operand, with the operator oriented so `table`'s column is on the
    /// left. `None` if `table` is not mentioned.
    pub fn oriented_for(&self, table: TableIdx) -> Option<(ColRef, CmpOp, &Operand)> {
        match (&self.left, &self.right) {
            (Operand::Col(l), r) if l.table == table => Some((*l, self.op, r)),
            (l, Operand::Col(r)) if r.table == table => Some((*r, self.op.flipped(), l)),
            _ => None,
        }
    }

    /// Evaluate the predicate over a tuple (or any [`ColumnSource`]).
    /// `None` when the source does not span the predicate's tables;
    /// otherwise whether the predicate holds.
    /// EOT components make every predicate fail (EOT tuples never join).
    /// An `IN` predicate holds iff the left value SQL-equals any list
    /// member (so NULL/EOT on the left never match, and an empty list
    /// matches nothing).
    pub fn eval<C: ColumnSource + ?Sized>(&self, t: &C) -> Option<bool> {
        if let ExprKind::Udf(spec) = &self.kind {
            let l = self.left.resolve(t)?;
            return Some(spec.verdict(l));
        }
        if self.op == CmpOp::In {
            if let Operand::List(items) = &self.right {
                let l = self.left.resolve(t)?;
                return Some(items.iter().any(|v| l.sql_eq(v)));
            }
        }
        let l = self.left.resolve(t)?;
        let r = self.right.resolve(t)?;
        Some(self.op.eval(l, r))
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let ExprKind::Udf(spec) = &self.kind {
            let UdfKind::HashSieve { pass_per_mille } = spec.udf;
            return write!(
                f,
                "p{}: sieve({}, {}, {})",
                self.id.0, self.left, pass_per_mille, spec.cost_us
            );
        }
        write!(
            f,
            "p{}: {} {} {}",
            self.id.0, self.left, self.op, self.right
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Row;

    fn r_tuple(key: i64, a: i64) -> Tuple {
        Tuple::singleton(
            TableIdx(0),
            Row::shared(vec![Value::Int(key), Value::Int(a)]),
        )
    }

    fn s_tuple(x: i64) -> Tuple {
        Tuple::singleton(TableIdx(1), Row::shared(vec![Value::Int(x)]))
    }

    fn join_pred() -> Predicate {
        // R.a = S.x
        Predicate::join(
            PredId(0),
            ColRef::new(TableIdx(0), 1),
            CmpOp::Eq,
            ColRef::new(TableIdx(1), 0),
        )
    }

    #[test]
    fn predset_ops() {
        let mut s = PredSet::EMPTY;
        s.insert(PredId(3));
        assert!(s.contains(PredId(3)));
        assert!(!s.contains(PredId(0)));
        assert_eq!(PredSet::all(4).len(), 4);
        assert!(PredSet::all(4).is_superset_of(s));
        assert_eq!(s.union(PredSet::all(2)).len(), 3);
        let ids: Vec<_> = PredSet::all(3).iter().collect();
        assert_eq!(ids, vec![PredId(0), PredId(1), PredId(2)]);
        assert_eq!(PredSet::all(MAX_PREDS).len(), MAX_PREDS);
    }

    #[test]
    fn classify_selection_vs_join() {
        let p = join_pred();
        assert!(p.is_join());
        assert!(!p.is_selection());
        let s = Predicate::selection(
            PredId(1),
            ColRef::new(TableIdx(0), 0),
            CmpOp::Gt,
            Value::Int(10),
        );
        assert!(s.is_selection());
        assert!(!s.is_join());
        assert_eq!(s.tables(), TableSet::single(TableIdx(0)));
    }

    #[test]
    fn eval_requires_span() {
        let p = join_pred();
        assert_eq!(p.eval(&r_tuple(1, 5)), None);
        let joined = r_tuple(1, 5).concat(&s_tuple(5));
        assert_eq!(p.eval(&joined), Some(true));
        let not = r_tuple(1, 5).concat(&s_tuple(6));
        assert_eq!(p.eval(&not), Some(false));
    }

    #[test]
    fn eot_never_satisfies() {
        let p = join_pred();
        let eot_s = Tuple::singleton_of(TableIdx(1), vec![Value::Eot]);
        let joined = r_tuple(1, 5).concat(&eot_s);
        assert_eq!(p.eval(&joined), Some(false));
        // The composite carries its EOT component's flag along.
        assert!(joined.is_eot() && !joined.is_singleton());
        assert!(!r_tuple(1, 5).concat(&s_tuple(5)).is_eot());
    }

    #[test]
    fn oriented_for_flips_operator() {
        // R.a < S.x
        let p = Predicate::join(
            PredId(0),
            ColRef::new(TableIdx(0), 1),
            CmpOp::Lt,
            ColRef::new(TableIdx(1), 0),
        );
        let (c, op, _other) = p.oriented_for(TableIdx(1)).unwrap();
        assert_eq!(c.table, TableIdx(1));
        assert_eq!(op, CmpOp::Gt);
        let (c, op, _) = p.oriented_for(TableIdx(0)).unwrap();
        assert_eq!(c.table, TableIdx(0));
        assert_eq!(op, CmpOp::Lt);
        assert!(p.oriented_for(TableIdx(2)).is_none());
    }

    #[test]
    fn equi_join_cols_only_for_two_table_eq() {
        assert!(join_pred().equi_join_cols().is_some());
        let sel = Predicate::selection(
            PredId(0),
            ColRef::new(TableIdx(0), 0),
            CmpOp::Eq,
            Value::Int(1),
        );
        assert!(sel.equi_join_cols().is_none());
        let lt = Predicate::join(
            PredId(0),
            ColRef::new(TableIdx(0), 0),
            CmpOp::Lt,
            ColRef::new(TableIdx(1), 0),
        );
        assert!(lt.equi_join_cols().is_none());
    }

    #[test]
    fn cmp_op_eval_table() {
        use Value::Int;
        assert!(CmpOp::Eq.eval(&Int(1), &Int(1)));
        assert!(CmpOp::Ne.eval(&Int(1), &Int(2)));
        assert!(!CmpOp::Ne.eval(&Value::Null, &Int(2)));
        assert!(CmpOp::Lt.eval(&Int(1), &Int(2)));
        assert!(CmpOp::Le.eval(&Int(2), &Int(2)));
        assert!(CmpOp::Gt.eval(&Int(3), &Int(2)));
        assert!(CmpOp::Ge.eval(&Int(2), &Int(2)));
        assert!(!CmpOp::Lt.eval(&Int(2), &Value::Eot));
    }

    #[test]
    fn in_list_membership_follows_sql_equality() {
        let p = Predicate::in_list(
            PredId(0),
            ColRef::new(TableIdx(0), 1),
            vec![Value::Int(3), Value::Float(7.0), Value::str("x")],
        );
        assert!(p.is_selection());
        assert_eq!(p.eval(&r_tuple(0, 3)), Some(true));
        // Numeric coercion applies per member: Int(7) matches Float(7.0).
        assert_eq!(p.eval(&r_tuple(0, 7)), Some(true));
        assert_eq!(p.eval(&r_tuple(0, 4)), Some(false));
        // NULL on the left matches nothing, even a NULL list member.
        let null_t = Tuple::singleton(TableIdx(0), Row::shared(vec![Value::Int(0), Value::Null]));
        assert_eq!(p.eval(&null_t), Some(false));
        let with_null =
            Predicate::in_list(PredId(0), ColRef::new(TableIdx(0), 1), vec![Value::Null]);
        assert_eq!(with_null.eval(&null_t), Some(false));
        // Empty list matches nothing; wrong span is not evaluable.
        let empty = Predicate::in_list(PredId(0), ColRef::new(TableIdx(0), 1), vec![]);
        assert_eq!(empty.eval(&r_tuple(0, 3)), Some(false));
        assert_eq!(p.eval(&s_tuple(3)), None);
        assert_eq!(p.to_string(), "p0: t0.c1 IN (3, 7, x)");
    }

    #[test]
    fn malformed_list_shapes_do_not_panic() {
        // A list with a non-IN operator is "not evaluable", not a verdict.
        let bad = Predicate::new(
            PredId(0),
            Operand::Col(ColRef::new(TableIdx(0), 1)),
            CmpOp::Lt,
            Operand::List(vec![Value::Int(1)]),
        );
        assert_eq!(bad.eval(&r_tuple(0, 0)), None);
        // IN against a single scalar constant degenerates to equality.
        let single = Predicate::selection(
            PredId(0),
            ColRef::new(TableIdx(0), 1),
            CmpOp::In,
            Value::Int(5),
        );
        assert_eq!(single.eval(&r_tuple(0, 5)), Some(true));
        assert_eq!(single.eval(&r_tuple(0, 6)), Some(false));
    }

    #[test]
    fn udf_verdict_is_deterministic_and_key_normalized() {
        let spec = UdfSpec::hash_sieve(500, 1000);
        let p = Predicate::udf(PredId(1), ColRef::new(TableIdx(0), 1), spec);
        assert!(p.is_selection());
        assert_eq!(p.udf_spec(), Some(&spec));
        assert_eq!(p.udf_input_col(), Some(ColRef::new(TableIdx(0), 1)));
        // Deterministic: same input, same verdict, matching the spec.
        for a in 0..50 {
            let want = spec.verdict(&Value::Int(a));
            assert_eq!(p.eval(&r_tuple(0, a)), Some(want));
            assert_eq!(p.eval(&r_tuple(0, a)), Some(want));
        }
        // Equality-key normalization: Int(7) and Float(7.0) agree.
        assert_eq!(
            spec.verdict(&Value::Int(7)),
            spec.verdict(&Value::Float(7.0))
        );
        // NULL/EOT/NaN never pass and never error.
        assert!(!spec.verdict(&Value::Null));
        assert!(!spec.verdict(&Value::Eot));
        let null_t = Tuple::singleton(TableIdx(0), Row::shared(vec![Value::Int(0), Value::Null]));
        assert_eq!(p.eval(&null_t), Some(false));
        // Wrong span: not evaluable, same as any other selection.
        assert_eq!(p.eval(&s_tuple(3)), None);
        // Selectivity endpoints.
        assert!(!UdfSpec::hash_sieve(0, 1).verdict(&Value::Int(3)));
        assert!(UdfSpec::hash_sieve(1000, 1).verdict(&Value::Int(3)));
        assert_eq!(p.to_string(), "p1: sieve(t0.c1, 500, 1000)");
    }

    #[test]
    fn selection_against_constant() {
        let sel = Predicate::selection(
            PredId(2),
            ColRef::new(TableIdx(0), 1),
            CmpOp::Ge,
            Value::Int(5),
        );
        assert_eq!(sel.eval(&r_tuple(0, 7)), Some(true));
        assert_eq!(sel.eval(&r_tuple(0, 3)), Some(false));
    }
}
