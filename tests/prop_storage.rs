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
use stems::storage::{index_key, RowSet, SortedStore, StoreKind};
use stems::storage::{CandidateBuf, DictStore};
use stems::types::{CmpOp, HashedKey, Row, Value};

#[derive(Debug, Clone)]
enum Op {
    Insert(i64, i64),
    Remove(i64, i64),
    Lookup(i64),
}

fn ops(rng: &mut SimRng) -> Vec<Op> {
    let n = rng.below(60) as usize;
    (0..n)
        .map(|_| match rng.below(3) {
            0 => Op::Insert(rng.range_inclusive(0, 19), rng.range_inclusive(0, 5)),
            1 => Op::Remove(rng.range_inclusive(0, 19), rng.range_inclusive(0, 5)),
            _ => Op::Lookup(rng.range_inclusive(0, 7)),
        })
        .collect()
}

fn row(k: i64, v: i64) -> Arc<Row> {
    Row::shared(vec![Value::Int(k), Value::Int(v)])
}

/// Apply ops to a store and a naive Vec model; compare every observation.
fn check_store_against_model(kind: StoreKind, ops: &[Op], seed: u64) {
    let mut store = kind.build(&[1]);
    let mut model: Vec<Arc<Row>> = Vec::new();
    for op in ops {
        match op {
            Op::Insert(k, v) => {
                store.insert(row(*k, *v));
                model.push(row(*k, *v));
            }
            Op::Remove(k, v) => {
                let store_removed = store.remove(&row(*k, *v));
                let model_removed = model
                    .iter()
                    .position(|r| r.as_ref() == row(*k, *v).as_ref())
                    .map(|i| {
                        model.remove(i);
                    })
                    .is_some();
                assert_eq!(store_removed, model_removed, "seed {seed}, op {op:?}");
            }
            Op::Lookup(key) => {
                let mut got: Vec<Vec<Value>> = store
                    .lookup_eq(1, &Value::Int(*key))
                    .iter()
                    .map(|r| r.values().to_vec())
                    .collect();
                let mut want: Vec<Vec<Value>> = model
                    .iter()
                    .filter(|r| r.get(1) == Some(&Value::Int(*key)))
                    .map(|r| r.values().to_vec())
                    .collect();
                got.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
                want.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
                assert_eq!(got, want, "seed {seed}, op {op:?}");
            }
        }
        assert_eq!(store.len(), model.len(), "seed {seed}");
    }
    // Final scan must agree as a multiset.
    let mut got: Vec<Vec<Value>> = store.scan().iter().map(|r| r.values().to_vec()).collect();
    let mut want: Vec<Vec<Value>> = model.iter().map(|r| r.values().to_vec()).collect();
    got.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    want.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    assert_eq!(got, want, "seed {seed}");
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
                let hits = got.candidates(i);
                let mut hit_vals: Vec<Vec<Value>> =
                    hits.iter().map(|r| r.values().to_vec()).collect();
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
        let mut model: std::collections::HashSet<(i64, i64)> = Default::default();
        for _ in 0..rng.below(80) {
            let (k, v) = (rng.range_inclusive(0, 9), rng.range_inclusive(0, 3));
            let fresh = set.insert(row(k, v));
            assert_eq!(fresh, model.insert((k, v)), "seed {seed}");
        }
        assert_eq!(set.len(), model.len(), "seed {seed}");
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
