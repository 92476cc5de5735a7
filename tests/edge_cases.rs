//! Edge cases and failure injection: index-only chains (transitive probe
//! completion), stalled sources, composite bind keys, eviction, empty and
//! skewed inputs.

use stems::catalog::{reference, Catalog, IndexSpec, QuerySpec, ScanSpec, SourceId, TableInstance};
use stems::core::plan::PlanOptions;
use stems::core::StemOptions;
use stems::datagen::{gen::ColGen, TableBuilder};
use stems::prelude::*;
use stems::sim::secs;

fn checked() -> ExecConfig {
    ExecConfig {
        check_constraints: true,
        ..ExecConfig::default()
    }
}

/// The routing batch sizes every run is repeated at: 1 is the paper's
/// tuple-at-a-time eddy, 64 the batched default.
const BATCH_SIZES: [usize; 2] = [1, 64];

/// `config` at every batch size in [`BATCH_SIZES`], in that order.
fn at_each_batch(config: ExecConfig) -> impl Iterator<Item = ExecConfig> {
    BATCH_SIZES.into_iter().map(move |batch_size| ExecConfig {
        batch_size,
        ..config.clone()
    })
}

/// Run `config` at every batch size, check each run against the reference
/// executor, and return the reports in [`BATCH_SIZES`] order.
fn verify(catalog: &Catalog, query: &QuerySpec, config: ExecConfig) -> Vec<Report> {
    let verified = |config: ExecConfig| {
        let batch_size = config.batch_size;
        let report = EddyExecutor::build(catalog, query, config)
            .expect("plan")
            .run();
        assert!(
            report.violations.is_empty(),
            "batch {batch_size}: violations: {:?}",
            report.violations
        );
        let expected = reference::canonical(catalog, query, &reference::execute(catalog, query));
        assert_eq!(
            report.canonical(catalog, query),
            expected,
            "batch {batch_size}"
        );
        report
    };
    at_each_batch(config).map(verified).collect()
}

fn kv_table(name: &str, rows: Vec<(i64, i64)>) -> TableDef {
    TableDef::new(
        name,
        Schema::of(&[("k", ColumnType::Int), ("v", ColumnType::Int)]),
    )
    .with_rows(
        rows.into_iter()
            .map(|(k, v)| vec![Value::Int(k), Value::Int(v)])
            .collect(),
    )
}

/// `SELECT * FROM R, S WHERE R.k = S.f` over R(k Int) = [k], scanned,
/// and S(f Float) = [f]: scanned, so the join runs in S's SteM, or
/// (`index_only`) reached only through an index on f, bound from R.k.
fn int_float_join(k: i64, f: f64, index_only: bool) -> (Catalog, QuerySpec) {
    let mut c = Catalog::new();
    let table = |name: &str, ty, v: Value| {
        TableDef::new(name, Schema::of(&[("k", ty)])).with_rows(vec![vec![v]])
    };
    let r = c
        .add_table(table("R", ColumnType::Int, Value::Int(k)))
        .unwrap();
    let s = c
        .add_table(table("S", ColumnType::Float, Value::Float(f)))
        .unwrap();
    c.add_scan(r, ScanSpec::default()).unwrap();
    if index_only {
        c.add_index(s, IndexSpec::new(vec![0], 10_000)).unwrap();
    } else {
        c.add_scan(s, ScanSpec::default()).unwrap();
    }
    let instances = [(r, "r"), (s, "s")].map(|(source, alias)| TableInstance {
        source,
        alias: alias.into(),
    });
    let join = Predicate::join(
        PredId(0),
        ColRef::new(TableIdx(0), 0),
        CmpOp::Eq,
        ColRef::new(TableIdx(1), 0),
    );
    let q = QuerySpec::new(&c, instances.into(), vec![join], None).unwrap();
    (c, q)
}

/// The one row `R.k = S.f` keeps in [`int_float_join`], by the reference
/// executor and by the engine at every batch size, over both paths.
fn assert_int_float_join_keeps_one_row(k: i64, f: f64) {
    let want = vec![vec![Value::Int(k), Value::Float(f)]];
    for index_only in [false, true] {
        let (c, q) = int_float_join(k, f, index_only);
        let expected = reference::canonical(&c, &q, &reference::execute(&c, &q));
        assert_eq!(expected, want, "reference, index only {index_only}");
        for report in verify(&c, &q, checked()) {
            assert_eq!(report.canonical(&c, &q), want, "index only {index_only}");
        }
    }
}

/// An index probe bound on every column of S answers with an EOT row that
/// holds no EOT cell, `(5)`. It is still an EOT: the SteM must not build it
/// as a data row, which would join R's 5 a second time, with the probe's
/// `Int` in S's `Float` column.
#[test]
fn keyed_eot_over_a_fully_bound_table_is_no_data_row() {
    assert_int_float_join_keeps_one_row(5, 5.0);
}

/// `sql_eq` compares an `Int` with a `Float` through `as f64`, also past
/// 2^53 where the SteM index's normal form once stopped folding them
/// together: 10^16 = 1e16, and 2^53 + 1 = 2^53 as an `f64`.
#[test]
fn int_and_float_keys_past_2_53_join_as_sql_eq_says() {
    let p53 = 1i64 << 53;
    assert_int_float_join_keeps_one_row(10_000_000_000_000_000, 1e16);
    assert_int_float_join_keeps_one_row(p53 + 1, p53 as f64);
}

/// Chain where BOTH downstream tables are index-only: S is reached by
/// binding from R, T by binding from S — the asynchronous fetch cascade
/// (every T lookup depends on an S row that itself arrived via a lookup).
#[test]
fn transitive_index_only_chain() {
    let mut c = Catalog::new();
    let r = c
        .add_table(kv_table("R", (0..20).map(|i| (i, i % 5)).collect()))
        .unwrap();
    let s = c
        .add_table(kv_table("S", (0..5).map(|i| (i, i + 100)).collect()))
        .unwrap();
    let t = c
        .add_table(kv_table("T", (0..10).map(|i| (i + 100, i)).collect()))
        .unwrap();
    c.add_scan(r, ScanSpec::with_rate(500.0)).unwrap();
    // S: index on k (bound from R.v); T: index on k (bound from S.v).
    c.add_index(s, IndexSpec::new(vec![0], 20_000)).unwrap();
    c.add_index(t, IndexSpec::new(vec![0], 15_000)).unwrap();
    let q = QuerySpec::new(
        &c,
        [(r, "r"), (s, "s"), (t, "t")]
            .iter()
            .map(|(src, a)| TableInstance {
                source: *src,
                alias: a.to_string(),
            })
            .collect(),
        vec![
            Predicate::join(
                PredId(0),
                ColRef::new(TableIdx(0), 1),
                CmpOp::Eq,
                ColRef::new(TableIdx(1), 0),
            ),
            Predicate::join(
                PredId(1),
                ColRef::new(TableIdx(1), 1),
                CmpOp::Eq,
                ColRef::new(TableIdx(2), 0),
            ),
        ],
        None,
    )
    .unwrap();
    for report in verify(&c, &q, checked()) {
        // Every R row matches one S (v ∈ 0..5) and one T (S.v+100 ∈ 100..105).
        assert_eq!(report.results.len(), 20);
        assert!(report.counter("index_probes") >= 10);
    }
}

/// Every source stalls simultaneously mid-run; progress resumes and the
/// result is exact.
#[test]
fn total_blackout_recovers() {
    let mut c = Catalog::new();
    let r = c
        .add_table(kv_table("R", (0..30).map(|i| (i, i % 6)).collect()))
        .unwrap();
    let s = c
        .add_table(kv_table("S", (0..12).map(|i| (i, i % 6)).collect()))
        .unwrap();
    c.add_scan(
        r,
        ScanSpec::with_rate(20.0).stalled_during(secs(1), secs(10)),
    )
    .unwrap();
    c.add_scan(
        s,
        ScanSpec::with_rate(20.0).stalled_during(secs(1), secs(12)),
    )
    .unwrap();
    let q = QuerySpec::new(
        &c,
        vec![
            TableInstance {
                source: r,
                alias: "r".into(),
            },
            TableInstance {
                source: s,
                alias: "s".into(),
            },
        ],
        vec![Predicate::join(
            PredId(0),
            ColRef::new(TableIdx(0), 1),
            CmpOp::Eq,
            ColRef::new(TableIdx(1), 1),
        )],
        None,
    )
    .unwrap();
    for report in verify(&c, &q, checked()) {
        let series = report.metrics.series("results").unwrap();
        // Nothing happens during the blackout...
        assert_eq!(
            series.value_at(secs(9)),
            series.value_at(secs(2)),
            "no progress expected during the blackout"
        );
        // ...and everything completes after it.
        assert_eq!(report.results.len(), 60);
    }
}

/// An index AM with its own stall window delays, but does not lose,
/// responses.
#[test]
fn stalled_index_am_still_answers() {
    let mut c = Catalog::new();
    let r = c
        .add_table(kv_table("R", (0..8).map(|i| (i, i)).collect()))
        .unwrap();
    let s = c
        .add_table(kv_table("S", (0..8).map(|i| (i, i * 10)).collect()))
        .unwrap();
    c.add_scan(r, ScanSpec::with_rate(100.0)).unwrap();
    c.add_index(
        s,
        IndexSpec::new(vec![0], 10_000).stalled_during(secs(0), secs(3)),
    )
    .unwrap();
    let q = QuerySpec::new(
        &c,
        vec![
            TableInstance {
                source: r,
                alias: "r".into(),
            },
            TableInstance {
                source: s,
                alias: "s".into(),
            },
        ],
        vec![Predicate::join(
            PredId(0),
            ColRef::new(TableIdx(0), 1),
            CmpOp::Eq,
            ColRef::new(TableIdx(1), 0),
        )],
        None,
    )
    .unwrap();
    for report in verify(&c, &q, checked()) {
        assert_eq!(report.results.len(), 8);
        // All lookups were pushed past the stall window.
        assert!(report.end_time >= secs(3));
    }
}

/// Composite bind key: the index requires BOTH columns bound, covered by
/// two join predicates from the same driving table.
#[test]
fn multi_column_bind_key_index() {
    let mut c = Catalog::new();
    let r = c
        .add_table(
            TableDef::new(
                "R",
                Schema::of(&[
                    ("a", ColumnType::Int),
                    ("b", ColumnType::Int),
                    ("pad", ColumnType::Int),
                ]),
            )
            .with_rows(
                (0..24)
                    .map(|i| vec![Value::Int(i % 4), Value::Int(i % 3), Value::Int(i)])
                    .collect(),
            ),
        )
        .unwrap();
    let s = c
        .add_table(
            TableDef::new(
                "S",
                Schema::of(&[("x", ColumnType::Int), ("y", ColumnType::Int)]),
            )
            .with_rows(
                (0..4)
                    .flat_map(|x| (0..3).map(move |y| vec![Value::Int(x), Value::Int(y)]))
                    .collect(),
            ),
        )
        .unwrap();
    c.add_scan(r, ScanSpec::with_rate(200.0)).unwrap();
    c.add_index(s, IndexSpec::new(vec![0, 1], 5_000)).unwrap();
    let q = QuerySpec::new(
        &c,
        vec![
            TableInstance {
                source: r,
                alias: "r".into(),
            },
            TableInstance {
                source: s,
                alias: "s".into(),
            },
        ],
        vec![
            Predicate::join(
                PredId(0),
                ColRef::new(TableIdx(0), 0),
                CmpOp::Eq,
                ColRef::new(TableIdx(1), 0),
            ),
            Predicate::join(
                PredId(1),
                ColRef::new(TableIdx(0), 1),
                CmpOp::Eq,
                ColRef::new(TableIdx(1), 1),
            ),
        ],
        None,
    )
    .unwrap();
    for report in verify(&c, &q, checked()) {
        assert_eq!(report.results.len(), 24);
        // 4×3 distinct (a,b) pairs ⇒ 12 coalesced lookups.
        assert_eq!(report.counter("index_probes"), 12);
    }
}

/// Concurrency > 1: more servers, same answers, faster completion.
#[test]
fn index_concurrency_speeds_up_not_changes() {
    let build = |concurrency: usize| {
        let mut c = Catalog::new();
        let r = c
            .add_table(kv_table("R", (0..40).map(|i| (i, i % 20)).collect()))
            .unwrap();
        let s = c
            .add_table(kv_table("S", (0..20).map(|i| (i, i)).collect()))
            .unwrap();
        c.add_scan(r, ScanSpec::with_rate(1000.0)).unwrap();
        c.add_index(
            s,
            IndexSpec::new(vec![0], 100_000).with_concurrency(concurrency),
        )
        .unwrap();
        let q = QuerySpec::new(
            &c,
            vec![
                TableInstance {
                    source: r,
                    alias: "r".into(),
                },
                TableInstance {
                    source: s,
                    alias: "s".into(),
                },
            ],
            vec![Predicate::join(
                PredId(0),
                ColRef::new(TableIdx(0), 1),
                CmpOp::Eq,
                ColRef::new(TableIdx(1), 0),
            )],
            None,
        )
        .unwrap();
        (c, q)
    };
    let (c1, q1) = build(1);
    let serial = verify(&c1, &q1, checked());
    let (c4, q4) = build(4);
    let parallel = verify(&c4, &q4, checked());
    for (serial, parallel) in serial.iter().zip(&parallel) {
        assert_eq!(serial.results.len(), parallel.results.len());
        assert!(
            parallel.end_time * 2 < serial.end_time,
            "4-way concurrency should cut completion at least in half: {} vs {}",
            parallel.end_time,
            serial.end_time
        );
    }
}

/// Windowed (evicting) SteMs intentionally trade completeness for memory:
/// results are a subset of exact, still duplicate-free, and terminate.
#[test]
fn eviction_yields_duplicate_free_subset() {
    let mut c = Catalog::new();
    let r = TableBuilder::new("R", 400, 81)
        .col("v", ColGen::Mod(40))
        .register(&mut c)
        .unwrap();
    let s = TableBuilder::new("S", 400, 82)
        .col("v", ColGen::Mod(40))
        .register(&mut c)
        .unwrap();
    c.add_scan(r, ScanSpec::with_rate(500.0)).unwrap();
    c.add_scan(s, ScanSpec::with_rate(500.0)).unwrap();
    let q = QuerySpec::new(
        &c,
        vec![
            TableInstance {
                source: r,
                alias: "r".into(),
            },
            TableInstance {
                source: s,
                alias: "s".into(),
            },
        ],
        vec![Predicate::join(
            PredId(0),
            ColRef::new(TableIdx(0), 1),
            CmpOp::Eq,
            ColRef::new(TableIdx(1), 1),
        )],
        None,
    )
    .unwrap();
    let exact = reference::execute(&c, &q).len();
    let config = ExecConfig {
        plan: PlanOptions {
            default_stem: StemOptions {
                eviction_window: Some(32),
                ..StemOptions::default()
            },
            ..PlanOptions::default()
        },
        check_constraints: true, // duplicate detection stays on
        ..ExecConfig::default()
    };
    let valid = reference::canonical(&c, &q, &reference::execute(&c, &q));
    for config in at_each_batch(config) {
        let report = EddyExecutor::build(&c, &q, config).unwrap().run();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.results.len() < exact, "window should lose matches");
        assert!(
            !report.results.is_empty(),
            "window should still find close matches"
        );
        // Every produced result is a genuine join result.
        for row in report.canonical(&c, &q) {
            assert!(valid.contains(&row), "spurious result {row:?}");
        }
    }
}

/// Empty middle table in a chain: zero results, clean termination, and
/// the EOT machinery still covers probes.
#[test]
fn empty_middle_table() {
    let mut c = Catalog::new();
    let r = c
        .add_table(kv_table("R", (0..10).map(|i| (i, i)).collect()))
        .unwrap();
    let s = c.add_table(kv_table("S", vec![])).unwrap();
    let t = c
        .add_table(kv_table("T", (0..10).map(|i| (i, i)).collect()))
        .unwrap();
    for (src, rate) in [(r, 100.0), (s, 100.0), (t, 100.0)] {
        c.add_scan(src, ScanSpec::with_rate(rate)).unwrap();
    }
    let q = QuerySpec::new(
        &c,
        [(r, "r"), (s, "s"), (t, "t")]
            .iter()
            .map(|(src, a)| TableInstance {
                source: *src,
                alias: a.to_string(),
            })
            .collect(),
        vec![
            Predicate::join(
                PredId(0),
                ColRef::new(TableIdx(0), 1),
                CmpOp::Eq,
                ColRef::new(TableIdx(1), 1),
            ),
            Predicate::join(
                PredId(1),
                ColRef::new(TableIdx(1), 0),
                CmpOp::Eq,
                ColRef::new(TableIdx(2), 0),
            ),
        ],
        None,
    )
    .unwrap();
    for report in verify(&c, &q, checked()) {
        assert_eq!(report.results.len(), 0);
    }
}

/// Heavy skew: one hot join value carrying most of the weight.
#[test]
fn zipf_skewed_join() {
    let mut c = Catalog::new();
    let r = TableBuilder::new("R", 300, 91)
        .col("v", ColGen::Zipf { n: 20, theta: 1.3 })
        .register(&mut c)
        .unwrap();
    let s = TableBuilder::new("S", 100, 92)
        .col("v", ColGen::Zipf { n: 20, theta: 1.3 })
        .register(&mut c)
        .unwrap();
    c.add_scan(r, ScanSpec::with_rate(800.0)).unwrap();
    c.add_scan(s, ScanSpec::with_rate(600.0)).unwrap();
    let q = QuerySpec::new(
        &c,
        vec![
            TableInstance {
                source: r,
                alias: "r".into(),
            },
            TableInstance {
                source: s,
                alias: "s".into(),
            },
        ],
        vec![Predicate::join(
            PredId(0),
            ColRef::new(TableIdx(0), 1),
            CmpOp::Eq,
            ColRef::new(TableIdx(1), 1),
        )],
        None,
    )
    .unwrap();
    verify(&c, &q, checked());
}

/// Selections so strict that nothing qualifies: termination + 0 results.
#[test]
fn fully_selective_predicates() {
    let mut c = Catalog::new();
    let r = c
        .add_table(kv_table("R", (0..50).map(|i| (i, i)).collect()))
        .unwrap();
    c.add_scan(r, ScanSpec::with_rate(1000.0)).unwrap();
    let q = QuerySpec::new(
        &c,
        vec![TableInstance {
            source: r,
            alias: "r".into(),
        }],
        vec![
            Predicate::selection(
                PredId(0),
                ColRef::new(TableIdx(0), 1),
                CmpOp::Gt,
                Value::Int(100),
            ),
            Predicate::selection(
                PredId(1),
                ColRef::new(TableIdx(0), 0),
                CmpOp::Lt,
                Value::Int(0),
            ),
        ],
        None,
    )
    .unwrap();
    for report in verify(&c, &q, checked()) {
        assert_eq!(report.results.len(), 0);
        assert_eq!(report.counter("filtered"), 50);
    }
    let _ = SourceId(0);
}

/// Non-equi (band) join: no hash index applies; SteM probes fall back to
/// scan-filtering, and the join graph still links the tables.
#[test]
fn band_join_less_than() {
    let mut c = Catalog::new();
    let r = c
        .add_table(kv_table("R", (0..15).map(|i| (i, i)).collect()))
        .unwrap();
    let s = c
        .add_table(kv_table("S", (0..15).map(|i| (i, i)).collect()))
        .unwrap();
    c.add_scan(r, ScanSpec::with_rate(200.0)).unwrap();
    c.add_scan(s, ScanSpec::with_rate(150.0)).unwrap();
    let q = QuerySpec::new(
        &c,
        vec![
            TableInstance {
                source: r,
                alias: "r".into(),
            },
            TableInstance {
                source: s,
                alias: "s".into(),
            },
        ],
        vec![
            // R.v < S.v AND S.v <= R.v + 2 — a band of width 2.
            Predicate::join(
                PredId(0),
                ColRef::new(TableIdx(0), 1),
                CmpOp::Lt,
                ColRef::new(TableIdx(1), 1),
            ),
            Predicate::selection(
                PredId(1),
                ColRef::new(TableIdx(1), 1),
                CmpOp::Lt,
                Value::Int(12),
            ),
        ],
        None,
    )
    .unwrap();
    for report in verify(&c, &q, checked()) {
        // For each s.v = y < 12: matches r.v < y ⇒ y rows. Σ_{y=0}^{11} y = 66.
        assert_eq!(report.results.len(), 66);
    }
}

/// The routing trace records the life of every tuple when enabled, and
/// stays empty (zero cost) when disabled.
#[test]
fn routing_trace_records_tuple_lives() {
    use stems::core::TraceKind;
    let mut c = Catalog::new();
    let r = c.add_table(kv_table("R", vec![(1, 10), (2, 20)])).unwrap();
    let s = c.add_table(kv_table("S", vec![(10, 1)])).unwrap();
    c.add_scan(r, ScanSpec::with_rate(100.0)).unwrap();
    c.add_scan(s, ScanSpec::with_rate(100.0)).unwrap();
    let q = QuerySpec::new(
        &c,
        vec![
            TableInstance {
                source: r,
                alias: "r".into(),
            },
            TableInstance {
                source: s,
                alias: "s".into(),
            },
        ],
        vec![Predicate::join(
            PredId(0),
            ColRef::new(TableIdx(0), 1),
            CmpOp::Eq,
            ColRef::new(TableIdx(1), 0),
        )],
        None,
    )
    .unwrap();
    let traced = ExecConfig {
        trace: true,
        ..checked()
    };
    for (traced, quiet) in at_each_batch(traced).zip(at_each_batch(checked())) {
        let report = EddyExecutor::build(&c, &q, traced).unwrap().run();
        assert_eq!(report.results.len(), 1);
        assert!(!report.trace.is_empty());
        // First routed action must be a BuildFirst build.
        let first_route = report
            .trace
            .iter()
            .find_map(|e| match &e.kind {
                TraceKind::Route { action, .. } => Some(*action),
                _ => None,
            })
            .unwrap();
        assert_eq!(first_route, "build");
        // Exactly one output event, and it renders readably.
        let outputs: Vec<_> = report
            .trace
            .iter()
            .filter(|e| e.kind == TraceKind::Output)
            .collect();
        assert_eq!(outputs.len(), 1);
        assert!(outputs[0].to_string().contains("output"));
        // Timestamps are monotone.
        assert!(report.trace.windows(2).all(|w| w[0].t <= w[1].t));

        // Disabled by default: no events recorded.
        let quiet = EddyExecutor::build(&c, &q, quiet).unwrap().run();
        assert!(quiet.trace.is_empty());
    }
}

/// The trace cap bounds memory even on large runs.
#[test]
fn routing_trace_respects_cap() {
    let mut c = Catalog::new();
    let r = TableBuilder::new("R", 200, 99)
        .col("v", ColGen::Mod(50))
        .register(&mut c)
        .unwrap();
    let s = TableBuilder::new("S", 200, 98)
        .col("v", ColGen::Mod(50))
        .register(&mut c)
        .unwrap();
    c.add_scan(r, ScanSpec::with_rate(1000.0)).unwrap();
    c.add_scan(s, ScanSpec::with_rate(1000.0)).unwrap();
    let q = QuerySpec::new(
        &c,
        vec![
            TableInstance {
                source: r,
                alias: "r".into(),
            },
            TableInstance {
                source: s,
                alias: "s".into(),
            },
        ],
        vec![Predicate::join(
            PredId(0),
            ColRef::new(TableIdx(0), 1),
            CmpOp::Eq,
            ColRef::new(TableIdx(1), 1),
        )],
        None,
    )
    .unwrap();
    let config = ExecConfig {
        trace: true,
        trace_limit: 100,
        ..ExecConfig::default()
    };
    for config in at_each_batch(config) {
        let report = EddyExecutor::build(&c, &q, config).unwrap().run();
        assert_eq!(report.trace.len(), 100);
    }
}

/// `Report::time_to_fraction` summarizes the online metric.
#[test]
fn time_to_fraction_summary() {
    let mut c = Catalog::new();
    let r = c
        .add_table(kv_table("R", (0..10).map(|i| (i, i)).collect()))
        .unwrap();
    c.add_scan(r, ScanSpec::with_rate(10.0)).unwrap(); // 1 row/100ms
    let q = QuerySpec::new(
        &c,
        vec![TableInstance {
            source: r,
            alias: "r".into(),
        }],
        vec![],
        None,
    )
    .unwrap();
    for report in verify(&c, &q, checked()) {
        let half = report.time_to_fraction(0.5).unwrap();
        let full = report.time_to_fraction(1.0).unwrap();
        assert!(half < full);
        assert!(half >= secs(0) && full > secs(0));
        assert!(report.time_to_fraction(0.0).is_some());
    }
}

// ---------------------------------------------------------------------
// Chunked scan ingestion: EOT ordering under bursty arrival.
// ---------------------------------------------------------------------

/// Chunked scans under stall windows: the EOT is deferred along with the
/// final data chunk, and the join result is still exact. Covers chunk
/// sizes that divide, exceed, and straddle the table sizes.
#[test]
fn chunked_scans_with_stalls_are_exact() {
    for chunk in [2usize, 7, 64] {
        let mut c = Catalog::new();
        let r = c
            .add_table(kv_table("R", (0..30).map(|i| (i, i % 6)).collect()))
            .unwrap();
        let s = c
            .add_table(kv_table("S", (0..12).map(|i| (i, i % 6)).collect()))
            .unwrap();
        c.add_scan(
            r,
            ScanSpec::with_rate(20.0)
                .with_chunk(chunk)
                .stalled_during(secs(1), secs(10)),
        )
        .unwrap();
        c.add_scan(
            s,
            ScanSpec::with_rate(20.0)
                .with_chunk(chunk)
                .stalled_during(secs(1), secs(12)),
        )
        .unwrap();
        let q = QuerySpec::new(
            &c,
            vec![
                TableInstance {
                    source: r,
                    alias: "r".into(),
                },
                TableInstance {
                    source: s,
                    alias: "s".into(),
                },
            ],
            vec![Predicate::join(
                PredId(0),
                ColRef::new(TableIdx(0), 1),
                CmpOp::Eq,
                ColRef::new(TableIdx(1), 1),
            )],
            None,
        )
        .unwrap();
        verify(&c, &q, checked());
    }
}

/// A chunked self-join: one scan AM serves two instances, so every chunk
/// fans out per instance and the scan EOT must fire exactly once per
/// instance — a duplicated or missing EOT would corrupt SteM coverage and
/// show up as wrong results or constraint violations.
#[test]
fn chunked_self_join_eot_once_per_instance() {
    let mut c = Catalog::new();
    let r = c
        .add_table(kv_table("R", (0..15).map(|i| (i, i % 4)).collect()))
        .unwrap();
    c.add_scan(r, ScanSpec::with_rate(100.0).with_chunk(4))
        .unwrap();
    let q = QuerySpec::new(
        &c,
        vec![
            TableInstance {
                source: r,
                alias: "r1".into(),
            },
            TableInstance {
                source: r,
                alias: "r2".into(),
            },
        ],
        vec![Predicate::join(
            PredId(0),
            ColRef::new(TableIdx(0), 1),
            CmpOp::Eq,
            ColRef::new(TableIdx(1), 1),
        )],
        None,
    )
    .unwrap();
    verify(&c, &q, checked());
}

/// The routing trace respects chunked EOT ordering end to end: with a
/// single-table chunked scan every data tuple reaches the output before
/// the engine retires, and re-running with a chunk larger than the table
/// delivers everything in one burst with identical results.
#[test]
fn chunked_single_table_scan_trace_order() {
    for chunk in [3usize, 100] {
        let mut c = Catalog::new();
        let r = c
            .add_table(kv_table("R", (0..10).map(|i| (i, i)).collect()))
            .unwrap();
        c.add_scan(r, ScanSpec::with_rate(10.0).with_chunk(chunk))
            .unwrap();
        let q = QuerySpec::new(
            &c,
            vec![TableInstance {
                source: r,
                alias: "r".into(),
            }],
            vec![],
            None,
        )
        .unwrap();
        for report in verify(&c, &q, checked()) {
            assert_eq!(report.results.len(), 10, "chunk {chunk}");
            // The EOT trails the last data chunk by one row gap, so the
            // query cannot end before the full table has been delivered.
            assert!(report.end_time >= secs(1), "chunk {chunk}");
        }
    }
}
