//! Property tests for the hash-once flat probe path: on every backend,
//! [`DictStore::lookup_eq_flat`] must agree with the scalar `lookup_eq`
//! verdict for verdict — through duplicate-heavy envelopes, `Int`/`Float`
//! coercion keys, NULL/EOT keys, and *adversarial hash collisions*
//! (distinct values sharing one `stable_key_hash`, constructed by
//! inverting the hash's multiply-rotate mixing).
//!
//! Cases are generated from the workspace's own seeded [`SimRng`] so the
//! suite is dependency-free and fully reproducible.

use std::sync::Arc;
use stems::sim::SimRng;
use stems::storage::{CandidateBuf, DictStore, StoreKind};
use stems::types::{HashedKey, Row, Value};

fn kinds() -> [StoreKind; 5] {
    [
        StoreKind::List,
        StoreKind::Hash,
        StoreKind::Adaptive { threshold: 16 },
        StoreKind::Partitioned {
            partitions: 4,
            mem_resident: 1,
        },
        StoreKind::Sorted,
    ]
}

/// A mixed-type value pool exercising every normalization edge: ints,
/// integral and fractional floats, strings, bools, NULL and EOT.
fn random_value(rng: &mut SimRng) -> Value {
    match rng.below(8) {
        0 | 1 => Value::Int(rng.range_inclusive(0, 12)),
        2 => Value::Float(rng.range_inclusive(0, 12) as f64), // integral: coerces to Int
        3 => Value::Float(rng.range_inclusive(0, 12) as f64 + 0.5),
        4 => Value::str(["a", "b", "cc", "ddd"][rng.below(4) as usize]),
        5 => Value::Bool(rng.below(2) == 0),
        6 => Value::Null,
        _ => Value::Eot,
    }
}

fn assert_flat_eq_scalar(store: &dyn DictStore, col: usize, raw_keys: &[Value], ctx: &str) {
    let keys: Vec<HashedKey> = raw_keys.iter().cloned().map(HashedKey::new).collect();
    let mut buf = CandidateBuf::new();
    store.lookup_eq_flat(col, &keys, &mut buf);
    assert_eq!(buf.num_keys(), raw_keys.len(), "{ctx}");
    for (i, raw) in raw_keys.iter().enumerate() {
        let want = store.lookup_eq(col, raw);
        let got = buf.candidates(i);
        assert_eq!(got.len(), want.len(), "{ctx}: key {raw:?}");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.as_ref(), w.as_ref(), "{ctx}: key {raw:?}");
        }
    }
}

/// Random mixed-type rows, duplicate-heavy mixed-type envelopes, all five
/// backends: flat ≡ scalar, key for key, row for row.
#[test]
fn flat_lookup_matches_scalar_on_random_envelopes() {
    for seed in 0..48u64 {
        let mut rng = SimRng::new(0xF1A7 ^ seed);
        let rows: Vec<Arc<Row>> = (0..rng.below(100))
            .map(|_| Row::shared(vec![random_value(&mut rng), random_value(&mut rng)]))
            .collect();
        // Envelope with heavy key duplication: half the keys repeat an
        // earlier one, exercising span sharing.
        let mut raw_keys: Vec<Value> = Vec::new();
        for _ in 0..rng.below(48) + 1 {
            if !raw_keys.is_empty() && rng.below(2) == 0 {
                let j = rng.below(raw_keys.len() as u64) as usize;
                raw_keys.push(raw_keys[j].clone());
            } else {
                raw_keys.push(random_value(&mut rng));
            }
        }
        for kind in kinds() {
            let mut store = kind.build(&[1]);
            store.insert_batch(rows.clone());
            let ctx = format!("seed {seed} kind {kind:?}");
            assert_flat_eq_scalar(store.as_ref(), 1, &raw_keys, &ctx);
            // The un-indexed column takes each backend's fallback path.
            assert_flat_eq_scalar(store.as_ref(), 0, &raw_keys, &ctx);
        }
    }
}

/// Invert the stable hash's mixing to manufacture a `Float` whose
/// `stable_key_hash` collides with a given `Int`'s while the two are not
/// SQL-equal. `mix(h, w) = (rot5(h) ^ w) * SEED` with odd SEED is
/// invertible mod 2^64.
fn colliding_float(i: i64) -> Option<Value> {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    // Newton iteration for the modular inverse of the odd SEED.
    let mut inv: u64 = SEED;
    for _ in 0..6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(SEED.wrapping_mul(inv)));
    }
    debug_assert_eq!(SEED.wrapping_mul(inv), 1);
    let mix = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(SEED);
    let target = Value::Int(i).stable_key_hash().expect("ints are hashable");
    // Solve mix(mix(0, 3), bits) == target for the float's payload bits.
    let bits = target.wrapping_mul(inv) ^ mix(0, 3).rotate_left(5);
    let f = f64::from_bits(bits);
    let v = Value::Float(f);
    // Floats that normalize to Int would hash down a different branch;
    // skip those (and the accidental true equality) — callers probe
    // several `i` values.
    (v.stable_key_hash() == Some(target) && !v.sql_eq(&Value::Int(i))).then_some(v)
}

/// Adversarial hash-collision rows: two keys with identical
/// `stable_key_hash` must still resolve to disjoint candidate sets (the
/// prehashed index chains and the envelope dedup both compare values,
/// never just hashes).
#[test]
fn hash_collisions_resolve_by_value_on_every_backend() {
    let mut pairs: Vec<(Value, Value)> = Vec::new();
    for i in 0..64i64 {
        if let Some(f) = colliding_float(i) {
            pairs.push((Value::Int(i), f));
        }
    }
    assert!(
        pairs.len() >= 32,
        "hash inversion should construct most collisions, got {}",
        pairs.len()
    );
    for (int_key, float_key) in pairs.iter().take(8) {
        assert_eq!(int_key.stable_key_hash(), float_key.stable_key_hash());
        for kind in kinds() {
            let mut store = kind.build(&[0]);
            // Two rows per key, plus an unrelated one.
            for v in [int_key, int_key, float_key, float_key, &Value::Int(-99)] {
                store.insert(Row::shared(vec![v.clone(), Value::Int(1)]));
            }
            assert_eq!(store.lookup_eq(0, int_key).len(), 2, "{kind:?}");
            assert_eq!(store.lookup_eq(0, float_key).len(), 2, "{kind:?}");
            // One envelope carrying both colliding keys (plus duplicates):
            // dedup must share only true duplicates, never the collision.
            assert_flat_eq_scalar(
                store.as_ref(),
                0,
                &[
                    int_key.clone(),
                    float_key.clone(),
                    int_key.clone(),
                    float_key.clone(),
                ],
                &format!("collision {int_key:?}/{float_key:?} on {kind:?}"),
            );
            let rows_int = store.lookup_eq(0, int_key);
            let rows_float = store.lookup_eq(0, float_key);
            for a in &rows_int {
                for b in &rows_float {
                    assert!(!Arc::ptr_eq(a, b), "collision leaked rows across keys");
                }
            }
        }
    }
}

/// The SteM's probe pipeline against an oracle that shares no code with
/// it: a nested loop over the rows the test built, keyed by the
/// timestamps `build_batch` handed back in [`BuildResult::Fresh`],
/// applying the TimeStamp and LastMatchTimeStamp rules and
/// [`Predicate::eval`] per candidate. Reply for reply — results, order,
/// donebits, outcome, observed_ts, raw_matches — on mixed envelopes of
/// keyed, NULL-keyed, coercing and unbindable probes, built and unbuilt,
/// fresh and re-probing, at one lane and at several. (The engine-level
/// equivalence suites cover this end to end; this pins the module API
/// directly.)
#[test]
fn probe_batch_replies_equal_scalar_probe_replies() {
    use stems::catalog::{Catalog, QuerySpec, ScanSpec, SourceId, TableDef, TableInstance};
    use stems::core::stem::{BuildResult, ProbeOutcome, ProbeReplySet, StemOptions};
    use stems::core::tuple_state::CompletionNeed;
    use stems::core::{ShardedStem, TupleState};
    use stems::types::{
        CmpOp, ColRef, ColumnType, PredId, PredSet, Predicate, Schema, TableIdx, Timestamp, Tuple,
        TupleBatch, UNBUILT_TS,
    };

    let mut c = Catalog::new();
    let r = c
        .add_table(TableDef::new(
            "R",
            Schema::of(&[("key", ColumnType::Int), ("a", ColumnType::Float)]),
        ))
        .unwrap();
    let s = c
        .add_table(TableDef::new(
            "S",
            Schema::of(&[("x", ColumnType::Int), ("y", ColumnType::Int)]),
        ))
        .unwrap();
    c.add_scan(r, ScanSpec::default()).unwrap();
    c.add_scan(s, ScanSpec::default()).unwrap();
    let join = Predicate::join(
        PredId(0),
        ColRef::new(TableIdx(0), 1),
        CmpOp::Eq,
        ColRef::new(TableIdx(1), 0),
    );
    let tables = vec![
        TableInstance {
            source: r,
            alias: "r".into(),
        },
        TableInstance {
            source: s,
            alias: "s".into(),
        },
    ];
    let query = QuerySpec::new(&c, tables.clone(), vec![join.clone()], None).unwrap();
    // The join plus a selection on S, checked at concatenation.
    let filtered = QuerySpec::new(
        &c,
        tables.clone(),
        vec![
            join,
            Predicate::selection(
                PredId(1),
                ColRef::new(TableIdx(1), 1),
                CmpOp::Lt,
                Value::Int(4),
            ),
        ],
        None,
    )
    .unwrap();
    let cartesian = QuerySpec::new(&c, tables, vec![], None).unwrap();

    /// What the oracle expects of one probe.
    struct Expected {
        results: Vec<(Tuple, PredSet)>,
        outcome: ProbeOutcome,
        raw_matches: usize,
    }
    // Nested loop over the built rows, in build order.
    let oracle = |built: &[(Arc<Row>, Timestamp)],
                  keyed: bool,
                  tuple: &Tuple,
                  state: &TupleState,
                  q: &QuerySpec| {
        let t = TableIdx(1);
        let key = tuple.value(TableIdx(0), 1).expect("R.a");
        let newly: Vec<&Predicate> = q
            .predicates
            .iter()
            .filter(|p| p.evaluable_on(tuple.span().with(t)) && !state.done.contains(p.id))
            .collect();
        let mut done = state.done;
        for p in &newly {
            done.insert(p.id);
        }
        let mut results = Vec::new();
        let mut raw_matches = 0;
        for (row, ts) in built {
            // Candidate fetch: the index answers SQL equality on x; a
            // query without the join scans.
            if keyed && !row.get(0).is_some_and(|x| x.sql_eq(key)) {
                continue;
            }
            raw_matches += 1;
            if *ts >= tuple.timestamp() || *ts <= state.last_match_ts {
                continue;
            }
            let cand = tuple.concat_row(t, row.clone(), *ts);
            if newly.iter().all(|p| p.eval(&cand) == Some(true)) {
                results.push((cand, done));
            }
        }
        // Scan-only SteM, no EOT seen: built probers are consumed,
        // unbuilt ones must keep re-probing (Table 2 + §3.5).
        let outcome = if tuple.timestamp() == UNBUILT_TS {
            ProbeOutcome::Bounced(CompletionNeed::Required)
        } else {
            ProbeOutcome::Consumed
        };
        Expected {
            results,
            outcome,
            raw_matches,
        }
    };

    for seed in 0..24u64 {
        for num_shards in [1usize, 4] {
            let mut rng = SimRng::new(0x9B0B ^ seed);
            let mut stem = ShardedStem::new(
                TableIdx(1),
                SourceId(1),
                &[0],
                true,
                false,
                StemOptions {
                    num_shards,
                    ..StemOptions::default()
                },
            );
            let batch: TupleBatch = (0..rng.below(60))
                .map(|_| {
                    let x = random_value(&mut rng);
                    let x = if x.is_eot() { Value::Null } else { x };
                    let y = Value::Int(rng.range_inclusive(0, 5));
                    Tuple::singleton_of(TableIdx(1), vec![x, y])
                })
                .collect();
            let mut ts = 0;
            let states = vec![TupleState::new(); batch.len()];
            let built: Vec<(Arc<Row>, Timestamp)> = stem
                .build_batch(&batch, &states, &mut ts)
                .into_iter()
                .filter_map(|r| match r {
                    BuildResult::Fresh(t) => Some((t.components()[0].row.clone(), t.timestamp())),
                    BuildResult::Duplicate => None,
                    other => panic!("unexpected {other:?}"),
                })
                .collect();
            assert_eq!(built.len(), stem.len());
            let max_ts = built.last().map_or(0, |(_, ts)| *ts);

            for (q, label) in [
                (&query, "keyed"),
                (&filtered, "filtered"),
                (&cartesian, "scan"),
            ] {
                let probes: Vec<Tuple> = (0..rng.below(40) + 1)
                    .map(|k| {
                        let t = Tuple::singleton_of(
                            TableIdx(0),
                            vec![Value::Int(k as i64), random_value(&mut rng)],
                        );
                        // Unbuilt (ts = ∞), built mid-stream (sees only
                        // the older rows), or built after everything.
                        match rng.below(4) {
                            0 => t,
                            1 => t.with_timestamp(TableIdx(0), rng.below(max_ts + 2)),
                            _ => t.with_timestamp(TableIdx(0), 1_000 + k),
                        }
                    })
                    .collect();
                let states: Vec<TupleState> = probes
                    .iter()
                    .map(|_| {
                        let mut st = TupleState::new();
                        if rng.below(3) == 0 {
                            st.last_match_ts = rng.below(max_ts + 1);
                        }
                        st
                    })
                    .collect();
                let mut replies = ProbeReplySet::new();
                stem.probe_batch_into(&probes, &states, q, &mut replies);
                assert_eq!(replies.len(), probes.len(), "seed {seed} {label}");
                let keyed = !q.predicates.is_empty();
                for ((tuple, state), (meta, results)) in
                    probes.iter().zip(&states).zip(replies.iter())
                {
                    let ctx = format!("seed {seed} shards {num_shards} {label} probe {tuple}");
                    let want = oracle(&built, keyed, tuple, state, q);
                    assert_eq!(want.results, results, "{ctx}");
                    let ts_of = |rs: &[(Tuple, PredSet)]| -> Vec<Timestamp> {
                        rs.iter()
                            .map(|(t, _)| t.component(TableIdx(1)).unwrap().ts)
                            .collect()
                    };
                    assert_eq!(ts_of(&want.results), ts_of(results), "{ctx}");
                    assert_eq!(want.outcome, meta.outcome, "{ctx}");
                    assert_eq!(max_ts, meta.observed_ts, "{ctx}");
                    assert_eq!(want.raw_matches, meta.raw_matches, "{ctx}");
                }
            }
        }
    }
}
