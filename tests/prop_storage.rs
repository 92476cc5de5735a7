//! Property tests for the storage substrate: all dictionary backends must
//! be observationally equivalent (a SteM may swap its store without anyone
//! noticing — paper §3.1), and the dedup/sorted structures must match
//! naive models.
//!
//! Cases are generated from the workspace's own seeded [`SimRng`] so the
//! suite is dependency-free and fully reproducible: a failure report names
//! the seed that produced it.

use std::sync::Arc;
use stems::sim::SimRng;
use stems::storage::{index_key, RowSet, Slot, SortedStore, StoreKind};
use stems::storage::{CandidateBuf, DictStore};
use stems::types::{CmpOp, HashedKey, Row, Value};

#[derive(Debug, Clone)]
enum Op {
    Insert(i64, i64),
    Remove(i64, i64),
    Lookup(i64),
    Compact,
}

fn ops(rng: &mut SimRng) -> Vec<Op> {
    let n = rng.below(60) as usize;
    (0..n)
        .map(|_| match rng.below(10) {
            0..=2 => Op::Insert(rng.range_inclusive(0, 19), rng.range_inclusive(0, 5)),
            3..=5 => Op::Remove(rng.range_inclusive(0, 19), rng.range_inclusive(0, 5)),
            6..=8 => Op::Lookup(rng.range_inclusive(0, 7)),
            _ => Op::Compact,
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

#[test]
fn partitioned_store_matches_model() {
    store_cases(|| StoreKind::Partitioned {
        partitions: 4,
        mem_resident: 1,
    });
}

#[test]
fn sorted_store_matches_model() {
    store_cases(|| StoreKind::Sorted);
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
            StoreKind::Partitioned {
                partitions: 4,
                mem_resident: 1,
            },
            StoreKind::Sorted,
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
            let fresh = set.insert(RowSet::hash_of(&r), &r, slot, |s| &slab[s as usize]);
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

/// SortedStore range lookups equal a naive filter.
#[test]
fn sorted_store_ranges_match_filter() {
    for seed in 0..64u64 {
        let mut rng = SimRng::new(0x50_27ED ^ seed);
        let vals: Vec<i64> = (0..rng.below(50))
            .map(|_| rng.range_inclusive(-20, 19))
            .collect();
        let key = rng.range_inclusive(-25, 24);
        let mut store = SortedStore::new(0);
        for (i, v) in vals.iter().enumerate() {
            store.insert(Row::shared(vec![Value::Int(*v), Value::Int(i as i64)]));
        }
        for op in [
            CmpOp::Eq,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Ne,
        ] {
            let got = store.lookup_range(op, &Value::Int(key)).len();
            let want = vals
                .iter()
                .filter(|v| op.eval(&Value::Int(**v), &Value::Int(key)))
                .count();
            assert_eq!(got, want, "seed {seed} op {op:?}");
        }
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
