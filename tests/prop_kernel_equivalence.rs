//! Kernel/scalar equivalence: the vectorized predicate kernels must agree
//! with scalar `Predicate::eval` verdict-for-verdict.
//!
//! `Predicate::eval_batch` dispatches constant selections (`Int`/`Float`/
//! `Str`/`Bool` constants in either orientation, homogeneous IN-lists) to
//! column-at-a-time kernels built on a typed partial gather: each batch
//! member is classified once into a typed lane or an exception list, and
//! only exception rows take the scalar path. Over randomized batches (all
//! `CmpOp`s, both operand orientations, `Null`s, EOT markers, NaNs, mixed
//! `Value` types, wrong-span tuples) the batch verdict vector must equal
//! the per-tuple scalar verdicts exactly — and so must fused conjunction
//! cascades (`Sm::apply_batch_fused`), which ride the same kernels through
//! the masked entry point.

use stems::core::Sm;
use stems::prelude::*;
use stems::sim::SimRng;
use stems::types::Tuple;

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// A random value, skewed toward the typed-lane fast paths but covering
/// every variant the scalar semantics must survive — including NaN and
/// negative zero.
fn gen_value(rng: &mut SimRng, int_only: bool) -> Value {
    if int_only {
        return Value::Int(rng.range_inclusive(-4, 4));
    }
    match rng.below(12) {
        0 => Value::Null,
        1 => Value::Eot,
        2 => Value::Float(rng.range_inclusive(-4, 4) as f64 / 2.0),
        3 => Value::Float(f64::NAN),
        4 => Value::Float(-0.0),
        5 => Value::str(["a", "b", "zz"][rng.below(3) as usize]),
        6 => Value::Bool(rng.chance(0.5)),
        _ => Value::Int(rng.range_inclusive(-4, 4)),
    }
}

/// A random constant for the right-hand side, spanning the whole kernel
/// family plus the shapes the kernels must refuse (NULL/EOT constants).
fn gen_const(rng: &mut SimRng) -> Value {
    match rng.below(10) {
        0 => Value::Float(rng.range_inclusive(-4, 4) as f64 / 2.0),
        1 => Value::Float(f64::NAN),
        2 => Value::str(["a", "b", "zz"][rng.below(3) as usize]),
        3 => Value::Bool(rng.chance(0.5)),
        4 => Value::Null,
        5 => Value::Eot,
        _ => Value::Int(rng.range_inclusive(-4, 4)),
    }
}

/// A random selection: a typed constant comparison in either orientation,
/// or an IN-list (homogeneous or adversarially mixed).
fn gen_pred(rng: &mut SimRng) -> Predicate {
    let col = ColRef::new(TableIdx(rng.below(2) as u8), rng.below(2) as usize);
    if rng.chance(0.25) {
        // IN-list: 0..4 members, sometimes homogeneous Int/Str (kernel),
        // sometimes mixed (scalar coercion semantics).
        let n = rng.below(4) as usize;
        let items: Vec<Value> = (0..n)
            .map(|_| match rng.below(4) {
                0 => Value::str(["a", "zz"][rng.below(2) as usize]),
                1 => Value::Float(rng.range_inclusive(-4, 4) as f64),
                _ => Value::Int(rng.range_inclusive(-4, 4)),
            })
            .collect();
        return Predicate::in_list(PredId(0), col, items);
    }
    let op = OPS[rng.below(6) as usize];
    let k = gen_const(rng);
    if rng.chance(0.5) {
        Predicate::new(PredId(0), Operand::Col(col), op, Operand::Const(k))
    } else {
        // Constant on the left: the kernel must flip the operator.
        Predicate::new(PredId(0), Operand::Const(k), op, Operand::Col(col))
    }
}

fn gen_batch(rng: &mut SimRng, int_only: bool) -> Vec<Tuple> {
    let n = rng.below(200) as usize;
    (0..n)
        .map(|_| {
            // Mostly table 0; sometimes table 1 (wrong span for half the
            // predicates → verdict `None`), arity 2.
            let table = TableIdx(if rng.chance(0.85) { 0 } else { 1 });
            Tuple::singleton_of(
                table,
                vec![gen_value(rng, int_only), gen_value(rng, int_only)],
            )
        })
        .collect()
}

/// Randomized predicates over randomized mixed batches — the full kernel
/// family plus every refused shape: eval_batch ≡ map(eval).
#[test]
fn eval_batch_matches_scalar_on_mixed_batches() {
    let mut rng = SimRng::new(0x5EED_C0DE);
    for case in 0..1000 {
        let pred = gen_pred(&mut rng);
        let batch = gen_batch(&mut rng, false);
        let want: Vec<Option<bool>> = batch.iter().map(|t| pred.eval(t)).collect();
        assert_eq!(pred.eval_batch(&batch), want, "case {case}: {pred}");
    }
}

/// All-Int batches take the vectorized path (when the shape qualifies) and
/// must still agree with the scalar loop, for every operator and both
/// operand orientations.
#[test]
fn vectorized_path_matches_scalar_on_all_int_batches() {
    let mut rng = SimRng::new(0x1217_C0DE);
    let mut kernel_hits = 0usize;
    for case in 0..500 {
        let pred = gen_pred(&mut rng);
        let batch = gen_batch(&mut rng, true);
        if pred.const_kernel().is_some() {
            kernel_hits += 1;
        }
        let want: Vec<Option<bool>> = batch.iter().map(|t| pred.eval(t)).collect();
        assert_eq!(pred.eval_batch(&batch), want, "case {case}: {pred}");
    }
    assert!(
        kernel_hits > 300,
        "kernel path barely exercised: {kernel_hits}/500"
    );
}

/// Every typed constant comparison (Float including NaN constants, Str,
/// Bool) over uniformly typed batches engages its kernel and agrees with
/// the scalar loop on every operator.
#[test]
fn typed_constant_family_matches_scalar() {
    let mut rng = SimRng::new(0xF10A7);
    type ConstGen = fn(&mut SimRng) -> Value;
    let consts: [(&str, ConstGen); 4] = [
        ("float", |r| {
            Value::Float(r.range_inclusive(-4, 4) as f64 / 2.0)
        }),
        ("nan", |_| Value::Float(f64::NAN)),
        ("str", |r| Value::str(["a", "b", "zz"][r.below(3) as usize])),
        ("bool", |r| Value::Bool(r.chance(0.5))),
    ];
    for (label, genk) in consts {
        for op in OPS {
            for case in 0..40 {
                let k = genk(&mut rng);
                let pred =
                    Predicate::selection(PredId(0), ColRef::new(TableIdx(0), 0), op, k.clone());
                assert!(
                    pred.const_kernel().is_some(),
                    "{label} {op} should vectorize"
                );
                let batch = gen_batch(&mut rng, false);
                let want: Vec<Option<bool>> = batch.iter().map(|t| pred.eval(t)).collect();
                assert_eq!(
                    pred.eval_batch(&batch),
                    want,
                    "{label} op {op} case {case}: {pred}"
                );
            }
        }
    }
}

/// IN-list membership — homogeneous Int/Str lists (kernel path) and mixed
/// lists (scalar coercion path) — agrees with the scalar loop.
#[test]
fn in_list_kernels_match_scalar() {
    let mut rng = SimRng::new(0x1_11);
    let mut kernel_hits = 0usize;
    for case in 0..400 {
        let col = ColRef::new(TableIdx(0), rng.below(2) as usize);
        let n = rng.below(5) as usize;
        let homogeneous = rng.below(3);
        let items: Vec<Value> = (0..n)
            .map(|_| match homogeneous {
                0 => Value::Int(rng.range_inclusive(-4, 4)),
                1 => Value::str(["a", "b", "zz"][rng.below(3) as usize]),
                _ => gen_const(&mut rng),
            })
            .collect();
        let pred = Predicate::in_list(PredId(0), col, items);
        if pred.const_kernel().is_some() {
            kernel_hits += 1;
        }
        let batch = gen_batch(&mut rng, false);
        let want: Vec<Option<bool>> = batch.iter().map(|t| pred.eval(t)).collect();
        assert_eq!(pred.eval_batch(&batch), want, "case {case}: {pred}");
    }
    assert!(
        kernel_hits > 100,
        "IN kernels barely exercised: {kernel_hits}/400"
    );
}

/// Join predicates (col-vs-col) never vectorize but still evaluate
/// batch-equal to scalar, including over composite tuples.
#[test]
fn join_predicates_fall_back_and_agree() {
    let mut rng = SimRng::new(0x101A);
    let join = Predicate::join(
        PredId(0),
        ColRef::new(TableIdx(0), 1),
        CmpOp::Eq,
        ColRef::new(TableIdx(1), 0),
    );
    assert!(join.const_kernel().is_none());
    for _ in 0..100 {
        let n = rng.below(64) as usize;
        let batch: Vec<Tuple> = (0..n)
            .map(|_| {
                let left = Tuple::singleton_of(
                    TableIdx(0),
                    vec![gen_value(&mut rng, false), gen_value(&mut rng, false)],
                );
                if rng.chance(0.7) {
                    let right = Tuple::singleton_of(
                        TableIdx(1),
                        vec![gen_value(&mut rng, false), gen_value(&mut rng, false)],
                    );
                    left.concat(&right)
                } else {
                    left // wrong span → None
                }
            })
            .collect();
        let want: Vec<Option<bool>> = batch.iter().map(|t| join.eval(t)).collect();
        assert_eq!(join.eval_batch(&batch), want);
    }
}

/// One adversarial poison value anywhere in a large typed batch becomes a
/// lone exception row — all other verdicts still come off the typed lane
/// and every verdict matches the scalar loop.
#[test]
fn single_poison_value_does_not_corrupt_verdicts() {
    let mut rng = SimRng::new(0xBAD_CE11);
    for poison in [
        Value::Null,
        Value::Eot,
        Value::Float(1.5),
        Value::Float(f64::NAN),
        Value::str("q"),
        Value::Bool(true),
    ] {
        for op in OPS {
            let pred =
                Predicate::selection(PredId(0), ColRef::new(TableIdx(0), 0), op, Value::Int(1));
            let mut vals: Vec<Value> = (0..97)
                .map(|_| Value::Int(rng.range_inclusive(-2, 2)))
                .collect();
            let slot = rng.below(vals.len() as u64) as usize;
            vals[slot] = poison.clone();
            let batch: Vec<Tuple> = vals
                .into_iter()
                .map(|v| Tuple::singleton_of(TableIdx(0), vec![v]))
                .collect();
            let want: Vec<Option<bool>> = batch.iter().map(|t| pred.eval(t)).collect();
            assert_eq!(pred.eval_batch(&batch), want, "poison {poison} op {op}");
        }
    }
}

/// Fused conjunction cascades agree with the sequential scalar cascade:
/// for random chains of selections over one table, `Sm::apply_batch_fused`
/// must produce, per tuple, the same overall verdict, the same earned
/// donebits, and the same per-predicate evaluation sequence — rebuilt
/// from the verdict's `evaluated` count — as applying each predicate in
/// order with short-circuit on the first failure.
#[test]
fn fused_conjunctions_match_sequential_scalar_cascade() {
    let mut rng = SimRng::new(0x000F_05ED);
    for case in 0..300 {
        let n_preds = 1 + rng.below(3) as usize; // 1..=3
        let preds: Vec<Predicate> = (0..n_preds)
            .map(|i| {
                let mut p = gen_pred(&mut rng);
                p.id = PredId(i as u16);
                p
            })
            .collect();
        let batch = gen_batch(&mut rng, false);
        let sm = Sm::new(preds[0].clone());
        let sibling_sms: Vec<Sm> = preds[1..].iter().cloned().map(Sm::new).collect();
        let siblings: Vec<&Sm> = sibling_sms.iter().collect();
        let fused = sm.apply_batch_fused(&batch, &siblings);
        for (i, tuple) in batch.iter().enumerate() {
            // Reference: the scalar cascade.
            let mut verdict = None;
            let mut evals = Vec::new();
            let mut passed = stems::types::PredSet::EMPTY;
            for p in &preds {
                match p.eval(tuple) {
                    Some(true) => {
                        evals.push((p.id, true));
                        passed.insert(p.id);
                        verdict = Some(Some(true));
                    }
                    Some(false) => {
                        evals.push((p.id, false));
                        verdict = Some(Some(false));
                        break;
                    }
                    None => {
                        verdict = Some(None);
                        break;
                    }
                }
            }
            let want = verdict.expect("at least one predicate");
            let got = fused[i];
            assert_eq!(got.verdict, want, "case {case} row {i}");
            assert_eq!(got.evaluated as usize, evals.len(), "case {case} row {i}");
            let rebuilt: Vec<_> = got.evals(&sm, &siblings).collect();
            assert_eq!(rebuilt, evals, "case {case} row {i}");
            if want == Some(true) {
                assert_eq!(got.passed, passed, "case {case} row {i}");
            }
        }
    }
}
