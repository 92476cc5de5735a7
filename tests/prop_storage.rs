//! Property tests for the storage substrate: the store must be
//! observationally the same whenever it indexes its join columns (a SteM
//! may adapt its dictionary without anyone noticing — paper §3.1), and the
//! dedup structure must match a naive model.
//!
//! Cases are generated from the workspace's own seeded [`SimRng`] so the
//! suite is dependency-free and fully reproducible: a failure report names
//! the seed that produced it.

use std::sync::Arc;
use stems::sim::SimRng;
use stems::storage::{index_key, CandidateBuf, RowSet, Slot, Store, StoreKind};
use stems::types::{HashedKey, Row, Value};

#[derive(Debug, Clone)]
enum Op {
    Insert(i64, i64),
    InsertBatch(Vec<(i64, i64)>),
    Remove(i64, i64),
    Lookup(i64),
    Compact,
    Clear,
}

fn ops(rng: &mut SimRng) -> Vec<Op> {
    let n = rng.below(60) as usize;
    let kv = |rng: &mut SimRng| (rng.range_inclusive(0, 19), rng.range_inclusive(0, 5));
    (0..n)
        .map(|_| match rng.below(24) {
            0..=5 => {
                let (k, v) = kv(rng);
                Op::Insert(k, v)
            }
            6..=7 => Op::InsertBatch((0..rng.below(6)).map(|_| kv(rng)).collect()),
            8..=13 => {
                let (k, v) = kv(rng);
                Op::Remove(k, v)
            }
            14..=20 => Op::Lookup(rng.range_inclusive(0, 7)),
            21..=22 => Op::Compact,
            _ => Op::Clear,
        })
        .collect()
}

fn row(k: i64, v: i64) -> Arc<Row> {
    Row::shared(vec![Value::Int(k), Value::Int(v)])
}

/// Apply ops to a store and a naive model of its slab — rows by slot,
/// `None` once removed; compare every observation.
fn check_store_against_model(kind: StoreKind, ops: &[Op], seed: u64) {
    let mut store = kind.build(&[1]);
    let mut model: Vec<Option<Arc<Row>>> = Vec::new();
    for op in ops {
        match op {
            Op::Insert(k, v) => {
                let slot = store.insert(row(*k, *v));
                assert_eq!(slot as usize, model.len(), "seed {seed}, op {op:?}");
                model.push(Some(row(*k, *v)));
            }
            Op::InsertBatch(batch) => {
                store.insert_batch(batch.iter().map(|(k, v)| row(*k, *v)));
                model.extend(batch.iter().map(|(k, v)| Some(row(*k, *v))));
            }
            Op::Remove(k, v) => {
                // Removal is by slot: the oldest copy of the value, if the
                // model holds one; else a slot that names nothing.
                let victim = model.iter().position(|r| r == &Some(row(*k, *v)));
                let slot = victim.unwrap_or(model.len()) as Slot;
                let removed = store.remove(slot);
                assert_eq!(
                    removed,
                    victim.and_then(|i| model[i].take()),
                    "seed {seed}, op {op:?}"
                );
                assert_eq!(store.remove(slot), None, "seed {seed}: {slot} is dead now");
                assert_eq!(store.row(slot), None, "seed {seed}, op {op:?}");
            }
            Op::Lookup(key) => {
                let mut got: Vec<Vec<Value>> = store
                    .lookup_eq(1, &Value::Int(*key))
                    .iter()
                    .map(|r| r.values().to_vec())
                    .collect();
                let mut want: Vec<Vec<Value>> = model
                    .iter()
                    .flatten()
                    .filter(|r| r.get(1) == Some(&Value::Int(*key)))
                    .map(|r| r.values().to_vec())
                    .collect();
                got.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
                want.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
                assert_eq!(got, want, "seed {seed}, op {op:?}");
            }
            Op::Compact => {
                store.compact();
                model.retain(Option::is_some);
            }
            Op::Clear => {
                store.clear();
                model.clear();
            }
        }
        let live = model.iter().flatten().count();
        assert_eq!(store.len(), live, "seed {seed}");
        assert_eq!(store.slab().slots(), model.len(), "seed {seed}");
        let oldest = model.iter().position(Option::is_some);
        assert_eq!(
            store.slab().oldest(),
            oldest.map(|i| i as Slot),
            "seed {seed}"
        );
    }
    // Every slot resolves to the model's row; the scan is the live rows in
    // insertion order.
    for (slot, want) in model.iter().enumerate() {
        assert_eq!(store.row(slot as Slot), want.as_ref(), "seed {seed}");
    }
    let want: Vec<Arc<Row>> = model.into_iter().flatten().collect();
    assert_eq!(store.scan(), want, "seed {seed}");
}

fn store_cases(kind_of: impl Fn() -> StoreKind) {
    for seed in 0..64u64 {
        let mut rng = SimRng::new(0xA11CE ^ seed);
        let ops = ops(&mut rng);
        check_store_against_model(kind_of(), &ops, seed);
    }
}

#[test]
fn list_store_matches_model() {
    store_cases(|| StoreKind::List);
}

#[test]
fn hash_store_matches_model() {
    store_cases(|| StoreKind::Hash);
}

#[test]
fn adaptive_store_matches_model() {
    store_cases(|| StoreKind::Adaptive { threshold: 5 });
}

/// Everything the property below compares of a store: which kind it
/// currently is, its accounted bytes, its slot count, its rows in scan
/// order, and the slots it answers — in answer order — for every key of
/// the op model, on the indexed and on the unindexed column.
#[derive(Debug, PartialEq)]
struct Observed {
    backend: &'static str,
    approx_bytes: usize,
    slots: usize,
    scan: Vec<Arc<Row>>,
    answers: Vec<Vec<Slot>>,
}

fn observe(store: &Store) -> Observed {
    let keys: Vec<HashedKey> = (0..20).map(|k| HashedKey::new(Value::Int(k))).collect();
    let mut buf = CandidateBuf::new();
    let mut answers = Vec::new();
    for col in [0, 1] {
        store.lookup_eq_flat(col, &keys, &mut buf);
        answers.extend((0..keys.len()).map(|i| buf.candidates(i).to_vec()));
    }
    Observed {
        backend: store.backend(),
        approx_bytes: store.approx_bytes(),
        slots: store.slab().slots(),
        scan: store.scan(),
        answers,
    }
}

/// `Adaptive { threshold: t }` is `List` while it has never held more than
/// `t` rows and `Hash` from the op that crosses `t` onwards — slot for
/// slot, scan for scan, accounted byte for accounted byte — whatever
/// removals, compactions and clears come before or after.
#[test]
fn adaptive_store_is_list_until_its_threshold_and_hash_after() {
    // Ops compared on each side of the switch, over all seeds.
    let mut compared = [0usize; 2];
    for seed in 0..64u64 {
        let mut rng = SimRng::new(0xADA9 ^ seed);
        let threshold = rng.below(12) as usize;
        let mut adaptive = StoreKind::Adaptive { threshold }.build(&[1]);
        let mut list = StoreKind::List.build(&[1]);
        let mut hash = StoreKind::Hash.build(&[1]);
        let mut crossed = false;
        for op in ops(&mut rng) {
            for store in [&mut adaptive, &mut list, &mut hash] {
                match &op {
                    Op::Insert(k, v) => {
                        store.insert(row(*k, *v));
                    }
                    Op::InsertBatch(batch) => {
                        store.insert_batch(batch.iter().map(|(k, v)| row(*k, *v)));
                    }
                    Op::Remove(k, v) => {
                        // The oldest copy of the value, as in the model.
                        let slab = store.slab();
                        let held = |s: &Slot| slab.row(*s) == Some(&row(*k, *v));
                        let victim = slab.live_slots().find(held);
                        victim.and_then(|slot| store.remove(slot));
                    }
                    Op::Lookup(_) => {}
                    Op::Compact => store.compact(),
                    Op::Clear => store.clear(),
                }
            }
            // Rows only arrive within an op, so the count after it is the
            // most the store held during it.
            crossed |= list.len() > threshold;
            let twin = if crossed { &hash } else { &list };
            assert_eq!(
                observe(&adaptive),
                observe(twin),
                "seed {seed} threshold {threshold} after {op:?}"
            );
            compared[crossed as usize] += 1;
        }
    }
    assert!(compared.iter().all(|n| *n > 100), "{compared:?}");
}

/// Batched insert/lookup must be observationally identical to the scalar
/// path on every backend (the batched eddy relies on this).
#[test]
fn batched_ops_match_scalar_ops() {
    for seed in 0..32u64 {
        let mut rng = SimRng::new(0xBA7C4 ^ seed);
        let n = rng.below(200) as usize + 1;
        let rows: Vec<Arc<Row>> = (0..n)
            .map(|_| row(rng.range_inclusive(0, 30), rng.range_inclusive(0, 8)))
            .collect();
        let keys: Vec<Value> = (0..rng.below(20) + 1)
            .map(|_| Value::Int(rng.range_inclusive(0, 10)))
            .collect();
        for kind in [
            StoreKind::List,
            StoreKind::Hash,
            StoreKind::Adaptive { threshold: 16 },
        ] {
            let mut scalar = kind.build(&[1]);
            for r in &rows {
                scalar.insert(r.clone());
            }
            let mut batched = kind.build(&[1]);
            batched.insert_batch(rows.clone());
            assert_eq!(scalar.len(), batched.len(), "seed {seed} kind {kind:?}");
            let hashed: Vec<HashedKey> = keys.iter().cloned().map(HashedKey::new).collect();
            let mut got = CandidateBuf::new();
            batched.lookup_eq_flat(1, &hashed, &mut got);
            for (i, key) in keys.iter().enumerate() {
                let hits = got.candidates(i).iter().map(|s| batched.row(*s).unwrap());
                let mut hit_vals: Vec<Vec<Value>> = hits.map(|r| r.values().to_vec()).collect();
                let mut want_vals: Vec<Vec<Value>> = scalar
                    .lookup_eq(1, key)
                    .iter()
                    .map(|r| r.values().to_vec())
                    .collect();
                hit_vals.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
                want_vals.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
                assert_eq!(hit_vals, want_vals, "seed {seed} kind {kind:?} key {key:?}");
            }
        }
    }
}

/// RowSet is exactly "have I seen this value before".
#[test]
fn rowset_matches_hashset_model() {
    for seed in 0..64u64 {
        let mut rng = SimRng::new(0x5E7 ^ seed);
        let mut set = RowSet::new();
        // The slab the set's slots resolve through: fresh rows, in order.
        let mut slab: Vec<Arc<Row>> = Vec::new();
        let mut model: std::collections::HashSet<(i64, i64)> = Default::default();
        for _ in 0..rng.below(80) {
            let (k, v) = (rng.range_inclusive(0, 9), rng.range_inclusive(0, 3));
            let r = row(k, v);
            let slot = slab.len() as Slot;
            let fresh = set.insert(&r, slot, |s| &slab[s as usize]);
            assert_eq!(fresh, model.insert((k, v)), "seed {seed}");
            if fresh {
                slab.push(r);
            }
        }
        assert_eq!(set.len(), model.len(), "seed {seed}");
        let mut members: Vec<Slot> = set.slots().collect();
        members.sort_unstable();
        assert_eq!(members, (0..slab.len() as Slot).collect::<Vec<_>>());
    }
}

/// index_key normalization: sql-equal values get identical keys.
#[test]
fn index_key_respects_sql_equality() {
    for a in -1000..1000i64 {
        let int_key = index_key(&Value::Int(a));
        let float_key = index_key(&Value::Float(a as f64));
        assert_eq!(int_key, float_key);
    }
    assert_eq!(index_key(&Value::Null), None);
    assert_eq!(index_key(&Value::Eot), None);
}
