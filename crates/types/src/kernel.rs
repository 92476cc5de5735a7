//! Column-at-a-time predicate kernels over a typed column pass.
//!
//! The scalar entry point, [`Predicate::eval`], resolves both operands and
//! dispatches on [`crate::Value`]'s type tag for every tuple. When a
//! selection of the common shape `col <op> constant` is applied to a whole
//! batch of tuples, that per-tuple dispatch dominates: the operator, the
//! constant, and the column are loop-invariant. [`Predicate::eval_batch`]
//! recognizes those shapes, picks the typed comparison once per batch, and
//! runs one tight loop that reads each row's column as a primitive value —
//! the standard column-at-a-time lever that makes adaptive operators cheap
//! enough to re-route freely.
//!
//! # The typed column pass
//!
//! The kernel walks the batch **once**. Each row's column value is either
//!
//! * admitted by the kernel's type — including sound numeric coercions,
//!   e.g. `Int` rows widening into a `Float` kernel exactly as
//!   [`crate::Value::sql_cmp`] would — and compared as a primitive; or
//! * an *exception*: a value that breaks the kernel's type invariant
//!   (`Null`, EOT markers, cross-type rows with coercion semantics the
//!   typed comparison cannot reproduce, or tuples that do not span the
//!   kernel's table at all), which the scalar [`Predicate::eval`] decides
//!   on the spot. The scalar path remains the semantic ground truth for
//!   SQL three-valued logic and numeric coercion.
//!
//! No batch is ever scanned twice, and the pass allocates nothing: each
//! verdict goes straight into the caller's slot for that row
//! ([`Predicate::eval_slots`]). A slot is whatever the caller keeps per
//! row — a plain verdict, or a fused conjunction's running verdict, whose
//! liveness doubles as the mask of rows later predicates skip — so a Select
//! envelope's verdicts live in buffers its executor reuses.
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
//!    (`3 IN (3.0, 'x')` is true) a single typed comparison cannot express.
//! 3. Per batch member, the kernel admits exactly the values whose typed
//!    verdict is bit-equal to the scalar verdict: `Int` rows enter `Int`
//!    and (widened) `Float` kernels; `Float` rows enter only `Float`
//!    kernels (an `Int`-constant comparison against a `Float` row coerces
//!    the *constant*, so it stays scalar); `Str`/`Bool` rows enter kernels
//!    of their own type. `NaN` needs no exception: native `f64`
//!    comparisons reproduce SQL's "NaN compares false, so `<>` is true"
//!    behaviour exactly.
//! 4. Either way the result is verdict-for-verdict identical to mapping
//!    [`Predicate::eval`] over the batch — `tests/prop_kernel_equivalence.rs`
//!    locks this down over randomized and adversarial mixed batches, into
//!    fresh and reused slot buffers alike.
//!
//! Selection Modules additionally fuse several same-table selections into
//! one pass over a batch (`stems-core`'s `Sm::apply_batch_fused`): each
//! later predicate of the chain visits only the rows whose slot is still
//! alive.

use crate::{CmpOp, ColRef, Operand, Predicate, Tuple, Value};
use std::sync::Arc;

/// A selection predicate specialized to a columnar kernel: one typed
/// constant (or constant list) compared against one column.
#[derive(Debug, Clone, PartialEq)]
pub enum ConstKernel {
    /// `Int(col) <op> Int-constant`.
    Int { col: ColRef, op: CmpOp, rhs: i64 },
    /// `Float(col) <op> Float-constant`; `Int` rows widen to `f64`.
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
        let mut out = vec![None; batch.len()];
        let kernel = self.const_kernel();
        self.eval_slots(
            kernel.as_ref(),
            batch,
            &mut out,
            |_| true,
            |v, verdict| {
                *v = verdict;
            },
        );
        out
    }

    /// One pass of the predicate over a batch, into the caller's per-row
    /// `slots` (one per member, in batch order): `record` receives each
    /// evaluated row's slot and verdict — the verdict
    /// [`Predicate::eval`] would give. Rows whose slot fails `live` are
    /// neither read nor evaluated (a fused conjunction's dead rows).
    /// `kernel` is this predicate's [`Predicate::const_kernel`], derived
    /// once by the caller; `None` takes the scalar loop. Allocates
    /// nothing.
    pub fn eval_slots<S>(
        &self,
        kernel: Option<&ConstKernel>,
        batch: &[Tuple],
        slots: &mut [S],
        live: impl Fn(&S) -> bool,
        mut record: impl FnMut(&mut S, Option<bool>),
    ) {
        debug_assert_eq!(slots.len(), batch.len());
        match kernel {
            Some(k) => k.eval_slots(self, batch, slots, live, record),
            None => {
                for (t, slot) in batch.iter().zip(slots) {
                    if live(slot) {
                        record(slot, self.eval(t));
                    }
                }
            }
        }
    }
}

/// The comparison `column-value <op> rhs` as a monomorphic function pointer,
/// selected once per batch. `PartialEq`/`PartialOrd` on the column types
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
    /// [`Predicate::eval_slots`] through this kernel: one typed pass over
    /// the live rows, scalar-evaluating only the exceptions. `pred` is
    /// the source predicate, the exceptions' ground truth.
    fn eval_slots<S>(
        &self,
        pred: &Predicate,
        batch: &[Tuple],
        slots: &mut [S],
        live: impl Fn(&S) -> bool,
        record: impl FnMut(&mut S, Option<bool>),
    ) {
        let pass = Pass {
            pred,
            batch,
            live,
            record,
        };
        match self {
            ConstKernel::Int { col, op, rhs } => {
                let test = ord_test::<i64>(*op);
                pass.run(*col, slots, int_of, |v| test(v, rhs))
            }
            ConstKernel::Float { col, op, rhs } => {
                let test = ord_test::<f64>(*op);
                pass.run(*col, slots, float_of, |v| test(v, rhs))
            }
            ConstKernel::Str { col, op, rhs } => {
                let test = ord_test::<str>(*op);
                let rhs: &str = rhs;
                pass.run(*col, slots, str_of, |v| test(v, rhs))
            }
            ConstKernel::Bool { col, op, rhs } => {
                let test = ord_test::<bool>(*op);
                pass.run(*col, slots, bool_of, |v| test(v, rhs))
            }
            ConstKernel::InInt { col, sorted } => {
                pass.run(*col, slots, int_of, |v| sorted.binary_search(v).is_ok())
            }
            ConstKernel::InStr { col, sorted } => pass.run(*col, slots, str_of, |v| {
                sorted.binary_search_by(|s| s.as_ref().cmp(v)).is_ok()
            }),
        };
    }
}

/// Admission per kernel type (dispatch rule 3).
fn int_of(v: &Value) -> Option<i64> {
    match v {
        Value::Int(i) => Some(*i),
        _ => None,
    }
}

fn float_of(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        // The same widening `sql_cmp`/`sql_eq` apply to Int-vs-Float.
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

fn str_of(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn bool_of(v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

/// One kernel pass over a batch, minus the typed column and comparison
/// ([`Pass::run`] takes those).
struct Pass<'p, 'a, L, R> {
    pred: &'p Predicate,
    batch: &'a [Tuple],
    live: L,
    record: R,
}

impl<'a, L, R> Pass<'_, 'a, L, R> {
    /// Visit each live row once: a value `extract` admits is compared by
    /// `test`, any other row is an exception the scalar path decides.
    /// Returns how many exceptions there were.
    fn run<S, T>(
        mut self,
        col: ColRef,
        slots: &mut [S],
        extract: impl Fn(&'a Value) -> Option<T>,
        test: impl Fn(&T) -> bool,
    ) -> usize
    where
        L: Fn(&S) -> bool,
        R: FnMut(&mut S, Option<bool>),
    {
        let mut exceptions = 0;
        for (t, slot) in self.batch.iter().zip(slots) {
            if !(self.live)(slot) {
                continue;
            }
            let verdict = match t.value(col.table, col.col).and_then(&extract) {
                Some(v) => Some(test(&v)),
                None => {
                    exceptions += 1;
                    self.pred.eval(t)
                }
            };
            (self.record)(slot, verdict);
        }
        exceptions
    }
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

    /// One pass of `pred`'s kernel shape through `extract`/`test` over
    /// the rows `mask` keeps: the verdicts (masked rows stay `None`) and
    /// how many rows went to the scalar path.
    fn pass<'a, T>(
        pred: &Predicate,
        b: &'a [Tuple],
        mask: &[bool],
        extract: impl Fn(&'a Value) -> Option<T>,
        test: impl Fn(&T) -> bool,
    ) -> (Vec<Option<bool>>, usize) {
        let mut slots: Vec<(bool, Option<bool>)> = mask.iter().map(|&m| (m, None)).collect();
        let pass = Pass {
            pred,
            batch: b,
            live: |s: &(bool, Option<bool>)| s.0,
            record: |s: &mut (bool, Option<bool>), v| s.1 = v,
        };
        let exceptions = pass.run(ColRef::new(TableIdx(0), 0), &mut slots, extract, test);
        (slots.into_iter().map(|s| s.1).collect(), exceptions)
    }

    #[test]
    fn one_exception_row_is_gathered_once_not_rescanned() {
        // 97 rows, one poison value: the pass visits each row exactly
        // once — the 96 conforming rows compare as typed values and only
        // the poison row takes the scalar path. (The PR-2 kernel aborted
        // and re-ran the scalar loop over all 97.)
        let mut vals: Vec<Value> = (0..97).map(Value::Int).collect();
        vals[41] = Value::Null;
        let b = batch(vals);
        let p = sel(CmpOp::Ge, Value::Int(50));
        let (got, exceptions) = pass(&p, &b, &[true; 97], int_of, |v| *v >= 50);
        assert_eq!(exceptions, 1);
        // And the kernel's verdicts match the scalar loop's.
        let want: Vec<_> = b.iter().map(|t| p.eval(t)).collect();
        assert_eq!(got, want);
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
        // All three rows compare as floats: no exceptions.
        let want = vec![Some(true), Some(false), Some(true)];
        assert_eq!(
            pass(&p, &b, &[true; 3], float_of, |v| *v < 2.5),
            (want.clone(), 0)
        );
        assert_eq!(p.eval_batch(&b), want);
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
        let b = batch(vec![Value::Int(0), Value::Int(2), Value::Null]);
        let mask = [false, true, false];
        // Dead rows are neither compared nor scalar-evaluated: the NULL
        // row, an exception when alive, costs nothing here.
        assert_eq!(
            pass(&p, &b, &mask, int_of, |v| *v > 1),
            (vec![None, Some(true), None], 0)
        );
        // Through the public entry, with kernel and without.
        let masked = |p: &Predicate, kernel: Option<&ConstKernel>| {
            let mut slots: Vec<(bool, Option<bool>)> = mask.iter().map(|&m| (m, None)).collect();
            p.eval_slots(kernel, &b, &mut slots, |s| s.0, |s, v| s.1 = v);
            slots.into_iter().map(|s| s.1).collect::<Vec<_>>()
        };
        assert_eq!(
            masked(&p, p.const_kernel().as_ref()),
            vec![None, Some(true), None]
        );
        assert_eq!(masked(&p, None), vec![None, Some(true), None]);
        // Scalar-path predicates honor it too.
        let join = Predicate::join(
            PredId(0),
            ColRef::new(TableIdx(0), 0),
            CmpOp::Eq,
            ColRef::new(TableIdx(1), 0),
        );
        assert_eq!(masked(&join, None), vec![None, None, None]);
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
