//! Column-at-a-time predicate kernels over a typed partial gather.
//!
//! The scalar entry point, [`Predicate::eval`], resolves both operands and
//! dispatches on [`crate::Value`]'s type tag for every tuple. When a
//! selection of the common shape `col <op> constant` is applied to a whole
//! batch of tuples, that per-tuple dispatch dominates: the operator, the
//! constant, and the column are loop-invariant. [`Predicate::eval_batch`]
//! recognizes those shapes, gathers the column once into a **typed lane**,
//! and runs one tight comparison loop over primitive values — the standard
//! column-at-a-time lever that makes adaptive operators cheap enough to
//! re-route freely.
//!
//! # The typed partial gather
//!
//! [`PartialGather::classify`] walks the batch **once** and splits it into
//!
//! * a typed *lane* — the column values that match the kernel's type
//!   (including sound numeric coercions, e.g. `Int` rows widening into a
//!   `Float` kernel's lane exactly as [`crate::Value::sql_cmp`] would), in
//!   batch order, plus the batch index of each lane entry; and
//! * an *exception list* — the batch indices whose value broke the lane's
//!   type invariant (`Null`, EOT markers, cross-type rows with coercion
//!   semantics the lane cannot reproduce, or tuples that do not span the
//!   kernel's table at all).
//!
//! The kernel then runs over the lane, and **only** the exception rows are
//! evaluated by the scalar [`Predicate::eval`], which remains the semantic
//! ground truth for SQL three-valued logic and numeric coercion. No batch
//! is ever scanned twice: the PR-2 kernels aborted the gather on the first
//! non-conforming value and re-ran the scalar loop over the *whole* batch,
//! so one `NULL` in a 256-row wave paid a double scan. Now it pays one
//! classification pass plus one scalar call.
//!
//! # Dispatch rules
//!
//! 1. [`Predicate::const_kernel`] recognizes `col <op> const` with an
//!    `Int`, `Float`, `Str` or `Bool` constant, in either orientation (the
//!    operator is flipped so the column is always on the left), plus the
//!    membership shapes `col IN (all-Int list)` and `col IN (all-Str
//!    list)` (dedup-sorted for binary search). `col IN (single scalar)`
//!    normalizes to the equality kernel.
//! 2. Everything else evaluates via the scalar loop: join predicates,
//!    `Const op Const`, `NULL`/EOT constants (uniformly false — not worth
//!    a kernel), and *mixed-type* IN-lists, whose per-member coercion
//!    (`3 IN (3.0, 'x')` is true) a single typed lane cannot express.
//! 3. Per batch member, the gather admits exactly the values whose kernel
//!    verdict is bit-equal to the scalar verdict: `Int` rows enter `Int`
//!    and (widened) `Float` lanes; `Float` rows enter only `Float` lanes
//!    (an `Int`-constant comparison against a `Float` row coerces the
//!    *constant*, so it stays scalar); `Str`/`Bool` rows enter lanes of
//!    their own type. `NaN` needs no exception: the lane's native `f64`
//!    comparisons reproduce SQL's "NaN compares false, so `<>` is true"
//!    behaviour exactly.
//! 4. Either way the result is verdict-for-verdict identical to mapping
//!    [`Predicate::eval`] over the batch — `tests/prop_kernel_equivalence.rs`
//!    locks this down over randomized and adversarial mixed batches.
//!
//! Selection Modules additionally fuse several same-table selections into
//! one pass over a batch (`stems-core`'s `Sm::apply_batch_fused`); the
//! masked entry point [`Predicate::eval_batch_masked`] is what lets later
//! predicates in the fused chain gather only the still-alive rows.

use crate::{CmpOp, ColRef, Operand, Predicate, Tuple, Value};
use std::sync::Arc;

/// One typed gather of a column over a batch: the classification pass
/// behind every kernel. `lane[k]` is the typed value of batch row
/// `lane_rows[k]`; `exceptions` are the rows the kernel hands back to the
/// scalar path. Every non-masked row lands in exactly one of the two.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialGather<T> {
    pub(crate) lane: Vec<T>,
    pub(crate) lane_rows: Vec<u32>,
    pub(crate) exceptions: Vec<u32>,
}

impl<T> PartialGather<T> {
    /// Classify each (non-masked) batch member once: rows whose value at
    /// `col` is admitted by `extract` join the typed lane, the rest become
    /// exceptions. Rows where `mask` is `false` are skipped entirely.
    pub(crate) fn classify<'a>(
        batch: &'a [Tuple],
        col: ColRef,
        mask: Option<&[bool]>,
        extract: impl Fn(&'a Value) -> Option<T>,
    ) -> PartialGather<T> {
        debug_assert!(batch.len() <= u32::MAX as usize);
        let mut g = PartialGather {
            lane: Vec::with_capacity(batch.len()),
            lane_rows: Vec::with_capacity(batch.len()),
            exceptions: Vec::new(),
        };
        for (i, t) in batch.iter().enumerate() {
            if mask.is_some_and(|m| !m[i]) {
                continue;
            }
            match t.value(col.table, col.col).and_then(&extract) {
                Some(v) => {
                    g.lane.push(v);
                    g.lane_rows.push(i as u32);
                }
                None => g.exceptions.push(i as u32),
            }
        }
        g
    }
}

/// A selection predicate specialized to a columnar kernel: one typed
/// constant (or constant list) compared against one column.
#[derive(Debug, Clone, PartialEq)]
pub enum ConstKernel {
    /// `Int(col) <op> Int-constant`.
    Int { col: ColRef, op: CmpOp, rhs: i64 },
    /// `Float(col) <op> Float-constant`; `Int` rows widen into the lane.
    Float { col: ColRef, op: CmpOp, rhs: f64 },
    /// `Str(col) <op> Str-constant`.
    Str {
        col: ColRef,
        op: CmpOp,
        rhs: Arc<str>,
    },
    /// `Bool(col) <op> Bool-constant`.
    Bool { col: ColRef, op: CmpOp, rhs: bool },
    /// `Int(col) IN (all-Int list)`, dedup-sorted for binary search.
    InInt { col: ColRef, sorted: Vec<i64> },
    /// `Str(col) IN (all-Str list)`, dedup-sorted for binary search.
    InStr { col: ColRef, sorted: Vec<Arc<str>> },
}

impl Predicate {
    /// Recognize a vectorizable constant-selection shape (see the module
    /// docs for the dispatch rules). `None` for every other predicate.
    pub fn const_kernel(&self) -> Option<ConstKernel> {
        // UDF predicates carry placeholder comparison fields that must not
        // be mistaken for a `col = const` shape; their verdicts go through
        // the scalar path (and the memo/dedup pipeline in stems-core).
        if !matches!(self.kind, crate::ExprKind::Cmp) {
            return None;
        }
        // Membership against a constant list.
        if self.op == CmpOp::In {
            if let (Operand::Col(c), Operand::List(items)) = (&self.left, &self.right) {
                if items.is_empty() {
                    return None; // scalar loop: uniformly false
                }
                if items.iter().all(|v| matches!(v, Value::Int(_))) {
                    let mut sorted: Vec<i64> = items
                        .iter()
                        .map(|v| match v {
                            Value::Int(i) => *i,
                            _ => unreachable!("all-Int checked above"),
                        })
                        .collect();
                    sorted.sort_unstable();
                    sorted.dedup();
                    return Some(ConstKernel::InInt { col: *c, sorted });
                }
                if items.iter().all(|v| matches!(v, Value::Str(_))) {
                    let mut sorted: Vec<Arc<str>> = items
                        .iter()
                        .map(|v| match v {
                            Value::Str(s) => s.clone(),
                            _ => unreachable!("all-Str checked above"),
                        })
                        .collect();
                    sorted.sort();
                    sorted.dedup();
                    return Some(ConstKernel::InStr { col: *c, sorted });
                }
                // Mixed-type lists keep per-member scalar coercion.
                return None;
            }
        }
        // `col <op> const`, either orientation.
        let (col, op, k) = match (&self.left, &self.right) {
            (Operand::Col(c), Operand::Const(k)) => (*c, self.op, k),
            (Operand::Const(k), Operand::Col(c)) => (*c, self.op.flipped(), k),
            _ => return None,
        };
        // `col IN (single scalar)` is SQL equality.
        let op = if op == CmpOp::In { CmpOp::Eq } else { op };
        match k {
            Value::Int(i) => Some(ConstKernel::Int { col, op, rhs: *i }),
            Value::Float(f) => Some(ConstKernel::Float { col, op, rhs: *f }),
            Value::Str(s) => Some(ConstKernel::Str {
                col,
                op,
                rhs: s.clone(),
            }),
            Value::Bool(b) => Some(ConstKernel::Bool { col, op, rhs: *b }),
            Value::Null | Value::Eot => None,
        }
    }

    /// Evaluate the predicate over every tuple of a batch: one verdict per
    /// member, in batch order, verdict-for-verdict identical to mapping
    /// [`Predicate::eval`]. Uses a columnar kernel when the predicate
    /// qualifies (see the module docs for the dispatch rules).
    pub fn eval_batch(&self, batch: &[Tuple]) -> Vec<Option<bool>> {
        self.eval_batch_masked(batch, None)
    }

    /// [`Predicate::eval_batch`] restricted to the rows where `mask` is
    /// `true` (a fused conjunction's still-alive rows). Masked-out rows
    /// are neither gathered nor scalar-evaluated; their output slot is
    /// `None` and must not be interpreted as a verdict.
    pub fn eval_batch_masked(&self, batch: &[Tuple], mask: Option<&[bool]>) -> Vec<Option<bool>> {
        debug_assert!(mask.is_none_or(|m| m.len() == batch.len()));
        match self.const_kernel() {
            Some(k) => k.eval_masked(self, batch, mask),
            None => batch
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    if mask.is_some_and(|m| !m[i]) {
                        None
                    } else {
                        self.eval(t)
                    }
                })
                .collect(),
        }
    }
}

/// The comparison `lane-value <op> rhs` as a monomorphic function pointer,
/// selected once per batch. `PartialEq`/`PartialOrd` on the lane types
/// reproduce the scalar semantics exactly — including `f64`'s "NaN
/// compares false" (so `Ne` against NaN is true, as `!sql_eq` is).
fn ord_test<T: PartialOrd + ?Sized>(op: CmpOp) -> fn(&T, &T) -> bool {
    match op {
        // `In` only reaches a comparison kernel normalized to `Eq`; keep
        // the arm so the match is total.
        CmpOp::Eq | CmpOp::In => |a, b| a == b,
        CmpOp::Ne => |a, b| a != b,
        CmpOp::Lt => |a, b| a < b,
        CmpOp::Le => |a, b| a <= b,
        CmpOp::Gt => |a, b| a > b,
        CmpOp::Ge => |a, b| a >= b,
    }
}

impl ConstKernel {
    /// Gather the kernel column once (typed lane + exceptions), compare
    /// the lane column-at-a-time, and scalar-evaluate only the exception
    /// rows — all rows, or only those where `mask` is `true`. `pred` is the
    /// source predicate, the exceptions' ground truth.
    pub fn eval_masked(
        &self,
        pred: &Predicate,
        batch: &[Tuple],
        mask: Option<&[bool]>,
    ) -> Vec<Option<bool>> {
        match self {
            ConstKernel::Int { col, op, rhs } => {
                let test = ord_test::<i64>(*op);
                run(pred, batch, mask, *col, int_lane, |v| test(v, rhs))
            }
            ConstKernel::Float { col, op, rhs } => {
                let test = ord_test::<f64>(*op);
                run(pred, batch, mask, *col, float_lane, |v| test(v, rhs))
            }
            ConstKernel::Str { col, op, rhs } => {
                let test = ord_test::<str>(*op);
                let rhs: &str = rhs;
                run(pred, batch, mask, *col, str_lane, |v| test(v, rhs))
            }
            ConstKernel::Bool { col, op, rhs } => {
                let test = ord_test::<bool>(*op);
                run(pred, batch, mask, *col, bool_lane, |v| test(v, rhs))
            }
            ConstKernel::InInt { col, sorted } => run(pred, batch, mask, *col, int_lane, |v| {
                sorted.binary_search(v).is_ok()
            }),
            ConstKernel::InStr { col, sorted } => run(pred, batch, mask, *col, str_lane, |v| {
                sorted.binary_search_by(|s| s.as_ref().cmp(v)).is_ok()
            }),
        }
    }
}

/// Lane admission per kernel type (dispatch rule 3).
fn int_lane(v: &Value) -> Option<i64> {
    match v {
        Value::Int(i) => Some(*i),
        _ => None,
    }
}

fn float_lane(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        // The same widening `sql_cmp`/`sql_eq` apply to Int-vs-Float.
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

fn str_lane(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn bool_lane(v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

/// Shared kernel tail: classify once, run the lane test over the typed
/// column, scalar-evaluate exactly the exception rows.
fn run<'a, T>(
    pred: &Predicate,
    batch: &'a [Tuple],
    mask: Option<&[bool]>,
    col: ColRef,
    extract: impl Fn(&'a Value) -> Option<T>,
    test: impl Fn(&T) -> bool,
) -> Vec<Option<bool>> {
    let g = PartialGather::classify(batch, col, mask, extract);
    let mut out = vec![None; batch.len()];
    for (v, &row) in g.lane.iter().zip(&g.lane_rows) {
        out[row as usize] = Some(test(v));
    }
    for &row in &g.exceptions {
        out[row as usize] = pred.eval(&batch[row as usize]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PredId, TableIdx};

    fn t0(v: Value) -> Tuple {
        Tuple::singleton_of(TableIdx(0), vec![v])
    }

    fn batch(vals: Vec<Value>) -> Vec<Tuple> {
        vals.into_iter().map(t0).collect()
    }

    fn sel(op: CmpOp, k: Value) -> Predicate {
        Predicate::selection(PredId(0), ColRef::new(TableIdx(0), 0), op, k)
    }

    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    #[test]
    fn recognizes_both_orientations() {
        let p = sel(CmpOp::Lt, Value::Int(5));
        match p.const_kernel().unwrap() {
            ConstKernel::Int { op, rhs, .. } => {
                assert_eq!(op, CmpOp::Lt);
                assert_eq!(rhs, 5);
            }
            other => panic!("expected Int kernel, got {other:?}"),
        }
        // 5 > col  ⇔  col < 5
        let flipped = Predicate::new(
            PredId(0),
            Operand::Const(Value::Int(5)),
            CmpOp::Gt,
            Operand::Col(ColRef::new(TableIdx(0), 0)),
        );
        match flipped.const_kernel().unwrap() {
            ConstKernel::Int { op, rhs, .. } => {
                assert_eq!(op, CmpOp::Lt);
                assert_eq!(rhs, 5);
            }
            other => panic!("expected Int kernel, got {other:?}"),
        }
    }

    #[test]
    fn recognizes_typed_constant_family() {
        assert!(matches!(
            sel(CmpOp::Le, Value::Float(2.5)).const_kernel(),
            Some(ConstKernel::Float { rhs, .. }) if rhs == 2.5
        ));
        assert!(matches!(
            sel(CmpOp::Eq, Value::str("abc")).const_kernel(),
            Some(ConstKernel::Str { .. })
        ));
        assert!(matches!(
            sel(CmpOp::Ne, Value::Bool(true)).const_kernel(),
            Some(ConstKernel::Bool { rhs: true, .. })
        ));
        // NULL/EOT constants are uniformly false: scalar loop.
        assert!(sel(CmpOp::Eq, Value::Null).const_kernel().is_none());
        assert!(sel(CmpOp::Eq, Value::Eot).const_kernel().is_none());
    }

    #[test]
    fn recognizes_homogeneous_in_lists_only() {
        let col = ColRef::new(TableIdx(0), 0);
        let ints = Predicate::in_list(
            PredId(0),
            col,
            vec![Value::Int(3), Value::Int(1), Value::Int(3)],
        );
        match ints.const_kernel().unwrap() {
            ConstKernel::InInt { sorted, .. } => assert_eq!(sorted, vec![1, 3]),
            other => panic!("expected InInt, got {other:?}"),
        }
        let strs = Predicate::in_list(PredId(0), col, vec![Value::str("b"), Value::str("a")]);
        assert!(matches!(
            strs.const_kernel(),
            Some(ConstKernel::InStr { .. })
        ));
        // Mixed lists need per-member coercion: scalar.
        let mixed = Predicate::in_list(PredId(0), col, vec![Value::Int(3), Value::Float(3.0)]);
        assert!(mixed.const_kernel().is_none());
        let empty = Predicate::in_list(PredId(0), col, vec![]);
        assert!(empty.const_kernel().is_none());
        // IN against a single scalar normalizes to the equality kernel.
        let single = sel(CmpOp::In, Value::Int(7));
        assert!(matches!(
            single.const_kernel(),
            Some(ConstKernel::Int {
                op: CmpOp::Eq,
                rhs: 7,
                ..
            })
        ));
    }

    #[test]
    fn rejects_non_vectorizable_shapes() {
        let join = Predicate::join(
            PredId(0),
            ColRef::new(TableIdx(0), 0),
            CmpOp::Eq,
            ColRef::new(TableIdx(1), 0),
        );
        assert!(join.const_kernel().is_none());
    }

    #[test]
    fn all_typed_batches_run_kernel_and_match_scalar() {
        for op in OPS {
            for (konst, vals) in [
                (Value::Int(3), (0..7).map(Value::Int).collect::<Vec<_>>()),
                (
                    Value::Float(1.5),
                    vec![
                        Value::Float(1.0),
                        Value::Float(1.5),
                        Value::Int(2),
                        Value::Float(f64::NAN),
                    ],
                ),
                (
                    Value::str("m"),
                    ["a", "m", "z"].iter().map(|s| Value::str(s)).collect(),
                ),
                (
                    Value::Bool(true),
                    vec![Value::Bool(false), Value::Bool(true)],
                ),
            ] {
                let p = sel(op, konst);
                assert!(p.const_kernel().is_some(), "{p}");
                let b = batch(vals);
                let want: Vec<_> = b.iter().map(|t| p.eval(t)).collect();
                assert_eq!(p.eval_batch(&b), want, "{p}");
            }
        }
    }

    #[test]
    fn one_exception_row_is_gathered_once_not_rescanned() {
        // 97 rows, one poison value: the classification pass visits each
        // row exactly once — the typed lane holds the 96 conforming rows
        // and the exception list exactly the poison row. (The PR-2 kernel
        // aborted and re-ran the scalar loop over all 97.)
        let col = ColRef::new(TableIdx(0), 0);
        let mut vals: Vec<Value> = (0..97).map(Value::Int).collect();
        vals[41] = Value::Null;
        let b = batch(vals);
        let g = PartialGather::classify(&b, col, None, int_lane);
        assert_eq!(g.lane.len(), 96);
        assert_eq!(g.exceptions, vec![41]);
        assert!(!g.lane_rows.contains(&41));
        assert_eq!(g.lane_rows.len() + g.exceptions.len(), b.len());
        // And the kernel's verdicts still match the scalar loop's.
        let p = sel(CmpOp::Ge, Value::Int(50));
        let want: Vec<_> = b.iter().map(|t| p.eval(t)).collect();
        assert_eq!(p.eval_batch(&b), want);
        assert_eq!(want[41], Some(false)); // NULL >= 50 is not true
    }

    #[test]
    fn mixed_batch_splits_lane_and_exceptions() {
        let p = sel(CmpOp::Ne, Value::Int(3));
        let b = batch(vec![
            Value::Int(3),
            Value::Null,
            Value::str("x"),
            Value::Eot,
            Value::Float(3.0),
            Value::Int(4),
        ]);
        let want: Vec<_> = b.iter().map(|t| p.eval(t)).collect();
        assert_eq!(p.eval_batch(&b), want);
        // NULL <> 3 is not true under SQL semantics; Str <> Int is;
        // Float(3.0) <> Int(3) coerces to false on the scalar path.
        assert_eq!(want[1], Some(false));
        assert_eq!(want[2], Some(true));
        assert_eq!(want[4], Some(false));
    }

    #[test]
    fn float_kernel_widens_int_rows() {
        let p = sel(CmpOp::Lt, Value::Float(2.5));
        let b = batch(vec![Value::Int(2), Value::Int(3), Value::Float(2.4)]);
        // All three rows enter the float lane: no exceptions.
        let g = PartialGather::classify(&b, ColRef::new(TableIdx(0), 0), None, float_lane);
        assert_eq!(g.lane, vec![2.0, 3.0, 2.4]);
        assert!(g.exceptions.is_empty());
        assert_eq!(p.eval_batch(&b), vec![Some(true), Some(false), Some(true)]);
    }

    #[test]
    fn nan_semantics_match_scalar() {
        for op in OPS {
            let p = sel(op, Value::Float(f64::NAN));
            let b = batch(vec![
                Value::Float(1.0),
                Value::Float(f64::NAN),
                Value::Int(0),
            ]);
            let want: Vec<_> = b.iter().map(|t| p.eval(t)).collect();
            assert_eq!(p.eval_batch(&b), want, "op {op}");
        }
        // NaN <> anything is true (it never sql_eq's); orders are false.
        let ne = sel(CmpOp::Ne, Value::Float(f64::NAN));
        assert_eq!(
            ne.eval_batch(&batch(vec![Value::Float(f64::NAN)])),
            vec![Some(true)]
        );
    }

    #[test]
    fn in_kernels_match_scalar_membership() {
        let col = ColRef::new(TableIdx(0), 0);
        let p = Predicate::in_list(
            PredId(0),
            col,
            vec![Value::Int(2), Value::Int(5), Value::Int(9)],
        );
        let b = batch(vec![
            Value::Int(5),
            Value::Int(4),
            Value::Float(5.0), // exception: coerces to a match on the scalar path
            Value::Null,
        ]);
        let want: Vec<_> = b.iter().map(|t| p.eval(t)).collect();
        assert_eq!(p.eval_batch(&b), want);
        assert_eq!(want, vec![Some(true), Some(false), Some(true), Some(false)]);

        let ps = Predicate::in_list(PredId(0), col, vec![Value::str("a"), Value::str("c")]);
        let b = batch(vec![Value::str("c"), Value::str("b"), Value::Int(1)]);
        let want: Vec<_> = b.iter().map(|t| ps.eval(t)).collect();
        assert_eq!(ps.eval_batch(&b), want);
        assert_eq!(want, vec![Some(true), Some(false), Some(false)]);
    }

    #[test]
    fn masked_eval_skips_dead_rows() {
        let p = sel(CmpOp::Gt, Value::Int(1));
        let b = batch(vec![Value::Int(0), Value::Int(2), Value::Int(3)]);
        let mask = vec![false, true, false];
        assert_eq!(
            p.eval_batch_masked(&b, Some(&mask)),
            vec![None, Some(true), None]
        );
        // The gather itself honors the mask: dead rows are not classified.
        let g = PartialGather::classify(&b, ColRef::new(TableIdx(0), 0), Some(&mask), int_lane);
        assert_eq!(g.lane, vec![2]);
        assert_eq!(g.lane_rows, vec![1]);
        assert!(g.exceptions.is_empty());
        // Scalar-path predicates honor it too.
        let join = Predicate::join(
            PredId(0),
            ColRef::new(TableIdx(0), 0),
            CmpOp::Eq,
            ColRef::new(TableIdx(1), 0),
        );
        assert_eq!(
            join.eval_batch_masked(&b, Some(&mask)),
            vec![None, None, None]
        );
    }

    #[test]
    fn wrong_span_yields_none() {
        let p = sel(CmpOp::Eq, Value::Int(1));
        let b = vec![Tuple::singleton_of(TableIdx(1), vec![Value::Int(1)])];
        assert_eq!(p.eval_batch(&b), vec![None]);
    }

    #[test]
    fn empty_batch_yields_empty_verdicts() {
        assert!(sel(CmpOp::Eq, Value::Int(1)).eval_batch(&[]).is_empty());
    }
}
