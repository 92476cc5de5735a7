//! Memo/dedup equivalence: the expensive-predicate fast path — per-key
//! verdict memoization ([`stems::core::MemoCache`]) and within-envelope
//! dedup (`Sm::apply_batch_udf`) — must agree with direct scalar
//! [`Predicate::eval`] verdict-for-verdict. Over randomized batches the
//! four memo×dedup configurations must produce identical verdict vectors,
//! including for keys that can never be cached (`Null`/`Eot`), keys whose
//! equality normal form coerces (`Int(5)` vs `Float(5.0)`) and `NaN` keys
//! (never equal to themselves, so never served from cache). Forced hash
//! collisions and a poisoned shard need the cache's test-only seams, so
//! their tests live beside the cache (`memo.rs`, `sm.rs`).

use stems::core::{MemoCache, Sm};
use stems::prelude::*;
use stems::sim::SimRng;
use stems::types::{Tuple, UdfSpec};

/// A random sieve input, skewed toward duplicates (small Int range) but
/// covering every shape the key pipeline must survive.
fn gen_value(rng: &mut SimRng) -> Value {
    match rng.below(16) {
        0 => Value::Null,
        1 => Value::Eot,
        2 => Value::Float(f64::NAN),
        3 => Value::Float(-0.0),
        // Integral float: coerces to the same equality key as its Int.
        4 | 5 => Value::Float(rng.range_inclusive(-4, 4) as f64),
        6 => Value::Float(rng.range_inclusive(-9, 9) as f64 / 2.0),
        7 => Value::str(["a", "b", "zz", "long-enough-to-heap"][rng.below(4) as usize]),
        8 => Value::Bool(rng.chance(0.5)),
        _ => Value::Int(rng.range_inclusive(-6, 6)),
    }
}

fn gen_batch(rng: &mut SimRng) -> Vec<Tuple> {
    let n = rng.below(120) as usize;
    (0..n)
        .map(|_| {
            // Mostly table 0 (the predicate's span); sometimes table 1 —
            // unresolvable, so the verdict must be `None` everywhere.
            let table = TableIdx(if rng.chance(0.9) { 0 } else { 1 });
            Tuple::singleton_of(table, vec![gen_value(rng), gen_value(rng)])
        })
        .collect()
}

fn sieve(ppm: u16) -> Predicate {
    Predicate::udf(
        PredId(0),
        ColRef::new(TableIdx(0), 1),
        UdfSpec::hash_sieve(ppm, 1_000),
    )
}

/// All four memo×dedup configurations ≡ scalar eval, per row, over
/// randomized batches — with the memoized SMs keeping their cache *across*
/// batches, so later batches are served mostly from memo hits.
#[test]
fn memo_and_dedup_match_scalar_verdicts() {
    let mut rng = SimRng::new(0x3E40_CA5E);
    for &ppm in &[0u16, 1, 250, 500, 999, 1000] {
        let pred = sieve(ppm);
        let plain = Sm::new(pred.clone());
        let mut memoed = Sm::new(pred.clone());
        memoed.set_memo(Some(MemoCache::cell(4, 1 << 16)));
        let mut total_hits = 0u64;
        for case in 0..60 {
            let batch = gen_batch(&mut rng);
            let want: Vec<Option<bool>> = batch.iter().map(|t| pred.eval(t)).collect();
            for dedup in [false, true] {
                let got = plain.apply_batch_udf(&batch, dedup);
                assert_eq!(got.verdicts, want, "ppm {ppm} case {case} dedup {dedup}");
                let got = memoed.apply_batch_udf(&batch, dedup);
                assert_eq!(
                    got.verdicts, want,
                    "ppm {ppm} case {case} dedup {dedup} (memo)"
                );
                total_hits += got.memo.hits;
            }
        }
        assert!(
            total_hits > 0,
            "ppm {ppm}: cross-batch memo never hit — the cache is dead"
        );
    }
}

/// Dedup evaluates one representative per distinct key: on duplicate-heavy
/// batches it must compute strictly fewer verdicts than the plain path,
/// and a warm memo must not compute at all.
#[test]
fn dedup_and_memo_actually_save_work() {
    let pred = sieve(500);
    let batch: Vec<Tuple> = (0..100)
        .map(|i: i64| Tuple::singleton_of(TableIdx(0), vec![Value::Int(i), Value::Int(i % 5)]))
        .collect();
    let plain = Sm::new(pred.clone());
    assert_eq!(plain.apply_batch_udf(&batch, false).computed, 100);
    assert_eq!(plain.apply_batch_udf(&batch, true).computed, 5);
    let mut memoed = Sm::new(pred);
    memoed.set_memo(Some(MemoCache::cell(4, 1 << 16)));
    assert_eq!(memoed.apply_batch_udf(&batch, true).computed, 5);
    let warm = memoed.apply_batch_udf(&batch, true);
    assert_eq!(warm.computed, 0, "warm memo should serve every key");
    assert_eq!(warm.memo.hits, 5);
}
