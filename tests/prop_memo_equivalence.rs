//! Memo/dedup equivalence: the expensive-predicate fast path — per-key
//! verdict memoization ([`stems::core::MemoCache`]) and within-envelope
//! dedup (`Sm::apply_batch_udf`) — must agree with direct scalar
//! [`Predicate::eval`] verdict-for-verdict. Over randomized batches the
//! four memo×dedup configurations must produce identical verdict vectors,
//! including for keys that can never be cached (`Null`/`Eot`), keys whose
//! equality normal form coerces (`Int(5)` vs `Float(5.0)`), `NaN` keys
//! (never equal to themselves, so never served from cache), and
//! adversarial `stable_key_hash` collisions, which must fall back to full
//! key comparison. A poisoned cache shard must recover to an empty shard
//! and keep producing correct verdicts.

use stems::core::{MemoCache, Sm};
use stems::prelude::*;
use stems::sim::SimRng;
use stems::types::{TupleBatch, UdfSpec};

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

fn gen_batch(rng: &mut SimRng) -> TupleBatch {
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
    let batch: TupleBatch = (0..100)
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

/// Forced hash collisions (every key claims hash 42) must fall back to
/// full-key dictionary comparison: each distinct key keeps its own
/// verdict, and a colliding never-inserted key misses.
#[test]
fn adversarial_hash_collisions_compare_full_keys() {
    let cache = MemoCache::new(2, 1 << 16);
    // Distinct keys, alternating verdicts, one shared hash.
    let keys: Vec<Value> = (0..16).map(Value::Int).collect();
    for (i, k) in keys.iter().enumerate() {
        cache.insert_with_hash(42, k.clone(), i % 2 == 0);
    }
    for (i, k) in keys.iter().enumerate() {
        assert_eq!(
            cache.lookup_with_hash(42, k),
            Some(i % 2 == 0),
            "collision chain lost key {k}"
        );
    }
    assert_eq!(cache.lookup_with_hash(42, &Value::Int(99)), None);
    // A colliding *string* key (different Value kind entirely).
    cache.insert_with_hash(42, Value::str("x"), true);
    assert_eq!(cache.lookup_with_hash(42, &Value::str("x")), Some(true));
    assert_eq!(cache.lookup_with_hash(42, &Value::str("y")), None);
}

/// A panic while a shard lock is held poisons it; `lock_recover` must
/// clear that shard and keep the cache (and the SM using it) fully
/// functional — memoized verdicts still match scalar after recovery.
#[test]
fn poisoned_cache_recovers_and_stays_correct() {
    let pred = sieve(500);
    let cell = MemoCache::cell(2, 1 << 16);
    let mut sm = Sm::new(pred.clone());
    sm.set_memo(Some(cell.clone()));
    let batch: TupleBatch = (0..40)
        .map(|i: i64| Tuple::singleton_of(TableIdx(0), vec![Value::Int(i), Value::Int(i % 8)]))
        .collect();
    let want: Vec<Option<bool>> = batch.iter().map(|t| pred.eval(t)).collect();
    assert_eq!(sm.apply_batch_udf(&batch, true).verdicts, want);
    assert!(!cell.is_empty(), "warm-up should populate the cache");
    // Poison every shard: panic while holding each shard lock. Shards
    // are picked by the hash's high bits.
    for hash in (0..64u64).map(|i| i << 58) {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cell.with_shard_of(hash, |_| panic!("poison shard"));
        }));
        assert!(result.is_err());
    }
    assert!(cell.any_poisoned(), "panic under the lock must poison");
    // Recovery: poisoned shards come back empty, verdicts stay correct.
    let out = sm.apply_batch_udf(&batch, true);
    assert_eq!(out.verdicts, want, "verdicts diverged after recovery");
    assert!(!cell.any_poisoned(), "lock_recover must clear the poison");
    // And the cache works again: a second pass hits.
    let again = sm.apply_batch_udf(&batch, true);
    assert_eq!(again.verdicts, want);
    assert!(again.memo.hits > 0, "recovered cache never hit");
}
