//! Property tests for the hash-once flat probe path: on every store
//! kind, the slots [`Store::lookup_eq_flat`] answers must resolve to the
//! scalar `lookup_eq`'s rows verdict for verdict, and be exactly the slots
//! a filter of the slab selects, in insertion order — through
//! duplicate-heavy envelopes, `Int`/`Float` coercion keys, NULL/EOT keys,
//! and *adversarial hash collisions* (distinct values sharing one
//! `stable_key_hash`, constructed by inverting the hash's multiply-rotate
//! mixing). Then the SteM on top: random builds, evictions and probe
//! envelopes against a naive model, on every store kind.
//!
//! Cases are generated from the workspace's own seeded [`SimRng`] so the
//! suite is dependency-free and fully reproducible.

use std::sync::Arc;
use stems::sim::SimRng;
use stems::storage::{CandidateBuf, Slot, Store, StoreKind};
use stems::types::{HashedKey, Row, Value};

fn kinds() -> [StoreKind; 3] {
    [
        StoreKind::List,
        StoreKind::Hash,
        StoreKind::Adaptive { threshold: 16 },
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

fn assert_flat_eq_scalar(store: &Store, col: usize, raw_keys: &[Value], ctx: &str) {
    let keys: Vec<HashedKey> = raw_keys.iter().cloned().map(HashedKey::new).collect();
    let mut buf = CandidateBuf::new();
    store.lookup_eq_flat(col, &keys, &mut buf);
    assert_eq!(buf.num_keys(), raw_keys.len(), "{ctx}");
    let slab = store.slab();
    for (i, raw) in raw_keys.iter().enumerate() {
        let want = store.lookup_eq(col, raw);
        let got = buf.candidates(i);
        assert_eq!(got.len(), want.len(), "{ctx}: key {raw:?}");
        for (g, w) in got.iter().zip(&want) {
            let g = store.row(*g).expect("an answered slot is live");
            assert!(Arc::ptr_eq(g, w), "{ctx}: key {raw:?}");
        }
        // Which slots, in which order: those whose column is SQL-equal to
        // the key, by a scan that shares nothing with the store's index.
        let naive: Vec<Slot> = slab
            .live_slots()
            .filter(|s| slab.row(*s).unwrap().get(col).unwrap().sql_eq(raw))
            .collect();
        assert_eq!(got, naive, "{ctx}: key {raw:?}");
    }
}

/// Random mixed-type rows, duplicate-heavy mixed-type envelopes, every
/// store kind: flat ≡ scalar, key for key, row for row.
#[test]
fn flat_lookup_matches_scalar_on_random_envelopes() {
    for seed in 0..48u64 {
        let mut rng = SimRng::new(0xF1A7 ^ seed);
        let rows: Vec<Arc<Row>> = (0..rng.below(100))
            .map(|_| Row::shared(vec![random_value(&mut rng), random_value(&mut rng)]))
            .collect();
        // Envelope with heavy key duplication: half the keys repeat an
        // earlier one, each repeat answered in a span of its own.
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
            assert_flat_eq_scalar(&store, 1, &raw_keys, &ctx);
            // The un-indexed column takes the scan-filter path.
            assert_flat_eq_scalar(&store, 0, &raw_keys, &ctx);
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
/// prehashed index chains compare values, never just hashes), and a
/// repeated key gets a span equal to, but separate from, its first.
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
            // One envelope carrying both colliding keys, each twice.
            let envelope = [
                int_key.clone(),
                float_key.clone(),
                int_key.clone(),
                float_key.clone(),
            ];
            let ctx = format!("collision {int_key:?}/{float_key:?} on {kind:?}");
            assert_flat_eq_scalar(&store, 0, &envelope, &ctx);
            let keys: Vec<HashedKey> = envelope.iter().cloned().map(HashedKey::new).collect();
            let mut buf = CandidateBuf::new();
            store.lookup_eq_flat(0, &keys, &mut buf);
            assert_eq!(buf.candidates(2), buf.candidates(0), "{ctx}");
            assert_eq!(buf.candidates(3), buf.candidates(1), "{ctx}");
            let (int_slots, float_slots) = (buf.candidates(0), buf.candidates(1));
            assert!(int_slots.iter().all(|s| !float_slots.contains(s)), "{ctx}");
            // Four spans of two candidates each: no repeat shares a span.
            assert_eq!(buf.rows_stored(), 8, "{ctx}");
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

/// Envelopes of the size `join_sharded` probes at once (1 024 keys) and a
/// little past it, against stores of a few thousand rows, where the
/// indexed lookup's level passes run over many heads: chains longer than
/// one (a key domain much smaller than the store, and `colliding_float`
/// rows that share a chain with an `Int` they do not equal, so a chain's
/// head may fail verification while its tail matches), NULL/EOT rows and
/// keys, keys no row holds — and the same store after `remove` has
/// unlinked heads, middles and tails of chains, after `compact` has
/// renumbered it, and after rows arrive again. Every span must be the
/// slots a naive filter of the slab selects, in insertion order, on every
/// store kind, through one reused arena.
#[test]
fn flat_lookup_matches_naive_filter_on_large_envelopes() {
    let colliders: Vec<Value> = (0..64).filter_map(colliding_float).collect();
    let key = |rng: &mut SimRng| match rng.below(12) {
        0 => Value::Null,
        1 => Value::Eot,
        2 | 3 => colliders[rng.below(colliders.len() as u64) as usize].clone(),
        4 => Value::Float(rng.range_inclusive(0, 400) as f64), // coerces to Int
        5 => Value::Int(rng.range_inclusive(401, 500)),        // held by no row
        _ => Value::Int(rng.range_inclusive(0, 400)),
    };
    for seed in 0..2u64 {
        let mut rng = SimRng::new(0x1E7E1 ^ seed);
        let row_of = |rng: &mut SimRng, i: usize| {
            let k = key(rng);
            let k = if matches!(k, Value::Int(v) if v > 400) {
                Value::Null
            } else {
                k
            };
            Row::shared(vec![k, Value::Int(i as i64)])
        };
        let rows: Vec<Arc<Row>> = (0..2_000 + rng.below(1_500) as usize)
            .map(|i| row_of(&mut rng, i))
            .collect();
        let keys: Vec<Value> = (0..1_000 + rng.below(100)).map(|_| key(&mut rng)).collect();
        let mut stores: Vec<(StoreKind, Store)> = kinds()
            .into_iter()
            .map(|kind| {
                let mut store = kind.build(&[0]);
                store.insert_batch(rows.clone());
                (kind, store)
            })
            .collect();
        let mut buf = CandidateBuf::new();
        // Checks every store and returns the candidates answered.
        let mut check = |stores: &[(StoreKind, Store)], step: &str| -> usize {
            let slab = stores[0].1.slab();
            let mut naive: Vec<(Value, Vec<Slot>)> = Vec::new();
            let hashed: Vec<HashedKey> = keys.iter().cloned().map(HashedKey::new).collect();
            for (kind, store) in stores {
                let ctx = format!("seed {seed} {kind:?} {step}");
                assert!(slab.live_slots().eq(store.slab().live_slots()), "{ctx}");
                store.lookup_eq_flat(0, &hashed, &mut buf);
                assert_eq!(buf.num_keys(), keys.len(), "{ctx}");
                for (i, raw) in keys.iter().enumerate() {
                    let want = match naive.iter().position(|(k, _)| k == raw) {
                        Some(at) => &naive[at].1,
                        None => {
                            let held = |s: &Slot| slab.row(*s).unwrap().get(0).unwrap().sql_eq(raw);
                            naive.push((raw.clone(), slab.live_slots().filter(held).collect()));
                            &naive[naive.len() - 1].1
                        }
                    };
                    assert_eq!(buf.candidates(i), want, "{ctx}: key {i} {raw:?}");
                }
            }
            buf.rows_stored()
        };
        assert!(
            check(&stores, "built") > keys.len(),
            "seed {seed}: the envelope should reach chains longer than one"
        );
        let doomed: Vec<Slot> = (0..rows.len() as Slot)
            .filter(|_| rng.below(3) == 0)
            .collect();
        for (_, store) in &mut stores {
            for slot in &doomed {
                assert!(store.remove(*slot).is_some());
            }
        }
        check(&stores, "after remove");
        for (_, store) in &mut stores {
            store.compact();
        }
        check(&stores, "after compact");
        let again: Vec<Arc<Row>> = (0..500).map(|i| row_of(&mut rng, rows.len() + i)).collect();
        for (_, store) in &mut stores {
            store.insert_batch(again.clone());
        }
        check(&stores, "after compact and more rows");
    }
}

mod stem_model {
    //! What the two SteM-level properties below share: the R ⋈ S fixture
    //! and a probe oracle that shares no code with the SteM.

    use super::*;
    pub use stems::catalog::{Catalog, QuerySpec, ScanSpec, SourceId, TableDef, TableInstance};
    pub use stems::core::stem::{BuildResult, ProbeOutcome, ProbeReplySet, StemOptions};
    pub use stems::core::tuple_state::CompletionNeed;
    pub use stems::core::{Stem, TupleState};
    pub use stems::types::{
        CmpOp, ColRef, ColumnType, PredId, PredSet, Predicate, Schema, TableIdx, Timestamp, Tuple,
        TupleBatch, UNBUILT_TS,
    };

    /// Queries over R(key, a) and S(x, y), probing S's SteM (first join
    /// column `x`) with R tuples.
    pub struct Queries {
        /// `R.a = S.x`: probes bind the SteM's first join column.
        pub keyed: QuerySpec,
        /// The same join plus `S.y < 4`, checked at concatenation.
        pub filtered: QuerySpec,
        /// `R.a = S.y`: probes bind the second column, so only a SteM
        /// joined on both is probed with it.
        pub by_y: QuerySpec,
        /// No predicate: probes bind nothing and visit every stored row.
        pub cartesian: QuerySpec,
    }

    pub fn queries() -> Queries {
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
        let join_on = |s_col: usize| {
            Predicate::join(
                PredId(0),
                ColRef::new(TableIdx(0), 1),
                CmpOp::Eq,
                ColRef::new(TableIdx(1), s_col),
            )
        };
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
        let spec = |preds: Vec<Predicate>| QuerySpec::new(&c, tables.clone(), preds, None).unwrap();
        let y_cut = Predicate::selection(
            PredId(1),
            ColRef::new(TableIdx(1), 1),
            CmpOp::Lt,
            Value::Int(4),
        );
        Queries {
            keyed: spec(vec![join_on(0)]),
            filtered: spec(vec![join_on(0), y_cut]),
            by_y: spec(vec![join_on(1)]),
            cartesian: spec(vec![]),
        }
    }

    /// S's SteM over `join_cols`: scan-only, so a built prober is consumed
    /// and an unbuilt one must keep re-probing (Table 2 + §3.5) until an
    /// EOT — which these properties never build.
    pub fn s_stem(join_cols: &[usize], opts: StemOptions) -> Stem {
        Stem::new(TableIdx(1), SourceId(1), join_cols, true, false, opts)
    }

    /// What the oracle expects of one probe.
    pub struct Expected {
        pub results: Vec<(Tuple, PredSet)>,
        pub outcome: ProbeOutcome,
        pub raw_matches: usize,
    }

    /// Nested loop over the stored rows, in build order. `bind` is the S
    /// column the query compares `R.a` with (`None`: no join — a scan).
    pub fn oracle(
        stored: &[(Arc<Row>, Timestamp)],
        bind: Option<usize>,
        tuple: &Tuple,
        state: &TupleState,
        q: &QuerySpec,
    ) -> Expected {
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
        for (row, ts) in stored {
            // Candidate fetch: the index answers SQL equality on the bound
            // column; a query without the join scans.
            if bind.is_some_and(|col| !row.get(col).is_some_and(|v| v.sql_eq(key))) {
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
    }

    /// Build timestamps of a reply's S components, in reply order (tuple
    /// equality ignores timestamps, so they are compared explicitly).
    pub fn s_stamps(results: &[(Tuple, PredSet)]) -> Vec<Timestamp> {
        results
            .iter()
            .map(|(t, _)| t.component(TableIdx(1)).unwrap().ts)
            .collect()
    }

    /// A random probe envelope of R tuples — unbuilt (ts = ∞), built
    /// mid-stream (sees only the older rows) or built after everything —
    /// with some states re-probing from a random LastMatchTimeStamp.
    pub fn random_probes(rng: &mut SimRng, max_ts: Timestamp) -> (Vec<Tuple>, Vec<TupleState>) {
        let probes: Vec<Tuple> = (0..rng.below(40) + 1)
            .map(|k| {
                let t =
                    Tuple::singleton_of(TableIdx(0), vec![Value::Int(k as i64), random_value(rng)]);
                match rng.below(4) {
                    0 => t,
                    1 => t.with_timestamp(TableIdx(0), rng.below(max_ts + 2)),
                    _ => t.with_timestamp(TableIdx(0), 1_000_000 + k),
                }
            })
            .collect();
        let states = probes
            .iter()
            .map(|_| {
                let mut st = TupleState::new();
                if rng.below(3) == 0 {
                    st.last_match_ts = rng.below(max_ts + 1);
                }
                st
            })
            .collect();
        (probes, states)
    }

    /// A random S row: `x` from the mixed-type pool (NULL for EOT — EOT
    /// rows are not data), `y` a small int, so values repeat.
    pub fn random_s_tuple(rng: &mut SimRng) -> Tuple {
        let x = random_value(rng);
        let x = if x.is_eot() { Value::Null } else { x };
        let y = Value::Int(rng.range_inclusive(0, 5));
        Tuple::singleton_of(TableIdx(1), vec![x, y])
    }
}

/// The SteM's probe pipeline against an oracle that shares no code with
/// it: a nested loop over the rows the test built, keyed by the
/// timestamps `build_batch` handed back in [`BuildResult::Fresh`],
/// applying the TimeStamp and LastMatchTimeStamp rules and
/// [`Predicate::eval`] per candidate. Reply for reply — results, order,
/// donebits, outcome, observed_ts, raw_matches — on mixed envelopes of
/// keyed, NULL-keyed, coercing and unbindable probes, built and unbuilt,
/// fresh and re-probing, on every store kind.
/// (The engine-level equivalence suites cover this end to end; this pins
/// the module API directly.)
///
/// [`BuildResult::Fresh`]: stems::core::stem::BuildResult::Fresh
/// [`Predicate::eval`]: stems::types::Predicate::eval
#[test]
fn probe_batch_replies_equal_scalar_probe_replies() {
    use stem_model::*;
    let qs = queries();
    for store in kinds() {
        for seed in 0..24u64 {
            let mut rng = SimRng::new(0x9B0B ^ seed);
            let mut stem = s_stem(
                &[0],
                StemOptions {
                    store: store.clone(),
                    ..StemOptions::default()
                },
            );
            let batch: TupleBatch = (0..rng.below(60))
                .map(|_| random_s_tuple(&mut rng))
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

            for (q, bind, label) in [
                (&qs.keyed, Some(0), "keyed"),
                (&qs.filtered, Some(0), "filtered"),
                (&qs.cartesian, None, "scan"),
            ] {
                let (probes, states) = random_probes(&mut rng, max_ts);
                let mut replies = ProbeReplySet::new();
                stem.probe_batch_into(&probes, &states, q, &mut replies);
                assert_eq!(replies.iter().count(), probes.len(), "seed {seed} {label}");
                for ((tuple, state), (meta, results)) in
                    probes.iter().zip(&states).zip(replies.iter())
                {
                    let ctx = format!("seed {seed} {store:?} {label} probe {tuple}");
                    let want = oracle(&built, bind, tuple, state, q);
                    assert_eq!(want.results, results, "{ctx}");
                    assert_eq!(s_stamps(&want.results), s_stamps(results), "{ctx}");
                    assert_eq!(want.outcome, meta.outcome, "{ctx}");
                    assert_eq!(max_ts, meta.observed_ts, "{ctx}");
                    assert_eq!(want.raw_matches, meta.raw_matches, "{ctx}");
                }
            }
        }
    }
}

/// The SteM as a whole against a naive model of it — a
/// `Vec<(Arc<Row>, Timestamp)>` in build order, a linear search for the
/// duplicate check, `remove(0)` for the window — through rounds of random
/// build envelopes (duplicates, and re-arrivals of rows the window has
/// since evicted) interleaved with probe envelopes that bind one of the
/// SteM's join columns, or nothing. Over S.x alone and over both columns
/// (probed on either), unbounded and windowed (where the slab fills with
/// dead slots and is rebuilt dense mid-stream), on every store kind: every
/// build verdict and stamp, and every reply — results, order, stamps,
/// outcome, observed_ts, raw_matches — as the model says.
#[test]
fn stem_matches_naive_model_through_builds_evictions_and_probes() {
    use stem_model::*;
    const WINDOW: usize = 12;
    let qs = queries();
    for seed in 0..6u64 {
        for kind in kinds() {
            let cells = [None, Some(WINDOW)]
                .into_iter()
                .flat_map(|window| [&[0][..], &[0, 1]].map(|cols| (window, cols)));
            for (window, join_cols) in cells {
                let cell = format!("seed {seed} {kind:?} {window:?} on {join_cols:?}");
                let mut rng = SimRng::new(0x5107 ^ seed);
                let mut stem = s_stem(
                    join_cols,
                    StemOptions {
                        store: kind.clone(),
                        eviction_window: window,
                        ..StemOptions::default()
                    },
                );
                let mut model: Vec<(Arc<Row>, Timestamp)> = Vec::new();
                let mut ts: Timestamp = 0;
                let mut evictions = 0;
                for round in 0..5 {
                    // Build: the model absorbs, stamps and evicts one
                    // row at a time, as a windowed SteM must.
                    let batch: TupleBatch = (0..rng.below(70))
                        .map(|_| random_s_tuple(&mut rng))
                        .collect();
                    let states = vec![TupleState::new(); batch.len()];
                    let mut want_ts = ts;
                    let want: Vec<Option<Timestamp>> = batch
                        .iter()
                        .map(|tuple| {
                            let row = &tuple.components()[0].row;
                            if model.iter().any(|(held, _)| held == row) {
                                return None;
                            }
                            want_ts += 1;
                            model.push((row.clone(), want_ts));
                            if window.is_some_and(|w| model.len() > w) {
                                model.remove(0);
                                evictions += 1;
                            }
                            Some(want_ts)
                        })
                        .collect();
                    let got: Vec<Option<Timestamp>> = stem
                        .build_batch(&batch, &states, &mut ts)
                        .into_iter()
                        .map(|r| match r {
                            BuildResult::Fresh(t) => Some(t.timestamp()),
                            BuildResult::Duplicate => None,
                            other => panic!("unexpected {other:?}"),
                        })
                        .collect();
                    assert_eq!(got, want, "{cell} round {round}: build verdicts");
                    assert_eq!(ts, want_ts, "{cell} round {round}");
                    assert_eq!(stem.len(), model.len(), "{cell} round {round}");
                    assert_eq!(stem.evictions(), evictions, "{cell} round {round}");

                    let probed_by = [
                        (&qs.keyed, Some(0), "keyed"),
                        (&qs.by_y, Some(1), "by_y"),
                        (&qs.cartesian, None, "scan"),
                    ];
                    // A plan binds only the columns it joins the SteM on.
                    let probed_by = probed_by
                        .into_iter()
                        .filter(|(_, bind, _)| bind.is_none_or(|c| join_cols.contains(&c)));
                    for (q, bind, label) in probed_by {
                        let (probes, states) = random_probes(&mut rng, ts);
                        let mut replies = ProbeReplySet::new();
                        stem.probe_batch_into(&probes, &states, q, &mut replies);
                        assert_eq!(replies.iter().count(), probes.len(), "{cell} {label}");
                        for ((tuple, state), (meta, results)) in
                            probes.iter().zip(&states).zip(replies.iter())
                        {
                            let ctx = format!("{cell} round {round} {label} probe {tuple}");
                            let want = oracle(&model, bind, tuple, state, q);
                            assert_eq!(want.results, results, "{ctx}");
                            assert_eq!(s_stamps(&want.results), s_stamps(results), "{ctx}");
                            assert_eq!(want.outcome, meta.outcome, "{ctx}");
                            assert_eq!(ts, meta.observed_ts, "{ctx}");
                            assert_eq!(want.raw_matches, meta.raw_matches, "{ctx}");
                        }
                    }
                }
                if window.is_some() {
                    assert!(evictions > 0, "{cell}: the window never filled");
                }
            }
        }
    }
}
