//! End-to-end tests of the eddy executor on small catalogs: every result
//! must match the reference nested-loop executor exactly, with no
//! constraint violations, across module configurations that exercise each
//! paper mechanism (scans, async indexes, selections, cyclic queries,
//! competitive AMs, relaxed BuildFirst).

use stems_catalog::{
    reference, Catalog, IndexSpec, QuerySpec, ScanSpec, SourceId, TableDef, TableInstance,
};
use stems_core::{EddyExecutor, ExecConfig, RoutingPolicyKind, StemOptions};
use stems_types::{
    CmpOp, ColRef, ColumnType, PredId, Predicate, Schema, TableIdx, TableSet, UdfSpec, Value,
};

fn int_rows(rows: &[(i64, i64)]) -> Vec<Vec<Value>> {
    rows.iter()
        .map(|(a, b)| vec![Value::Int(*a), Value::Int(*b)])
        .collect()
}

/// R(key, a) with `n` rows, a = key % distinct.
fn r_rows(n: i64, distinct: i64) -> Vec<Vec<Value>> {
    (0..n)
        .map(|k| vec![Value::Int(k), Value::Int(k % distinct)])
        .collect()
}

fn two_table_catalog(
    r_data: Vec<Vec<Value>>,
    s_data: Vec<Vec<Value>>,
) -> (Catalog, SourceId, SourceId) {
    let mut c = Catalog::new();
    let r = c
        .add_table(
            TableDef::new(
                "R",
                Schema::of(&[("key", ColumnType::Int), ("a", ColumnType::Int)]),
            )
            .with_rows(r_data),
        )
        .unwrap();
    let s = c
        .add_table(
            TableDef::new(
                "S",
                Schema::of(&[("x", ColumnType::Int), ("y", ColumnType::Int)]),
            )
            .with_rows(s_data),
        )
        .unwrap();
    (c, r, s)
}

fn rs_query(c: &Catalog, r: SourceId, s: SourceId, extra: Vec<Predicate>) -> QuerySpec {
    let mut preds = vec![Predicate::join(
        PredId(0),
        ColRef::new(TableIdx(0), 1),
        CmpOp::Eq,
        ColRef::new(TableIdx(1), 0),
    )];
    preds.extend(extra);
    QuerySpec::new(
        c,
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
        preds,
        None,
    )
    .unwrap()
}

fn checked_config() -> ExecConfig {
    ExecConfig {
        check_constraints: true,
        ..ExecConfig::default()
    }
}

/// The routing batch sizes [`assert_matches_reference`] repeats a run at:
/// 1 is the paper's tuple-at-a-time eddy, 64 the batched default.
const BATCH_SIZES: [usize; 2] = [1, 64];

/// Run `config` at every batch size in [`BATCH_SIZES`], check each run
/// against the reference executor, and return the reports in that order.
fn assert_matches_reference(
    c: &Catalog,
    q: &QuerySpec,
    config: ExecConfig,
) -> Vec<stems_core::Report> {
    let at = |batch_size| ExecConfig {
        batch_size,
        ..config.clone()
    };
    BATCH_SIZES
        .map(|batch_size| checked_run(c, q, at(batch_size)))
        .into()
}

/// One run of `config` as given, checked against the reference executor.
fn checked_run(c: &Catalog, q: &QuerySpec, config: ExecConfig) -> stems_core::Report {
    let batch_size = config.batch_size;
    let report = EddyExecutor::build(c, q, config).unwrap().run();
    assert!(
        report.violations.is_empty(),
        "batch {batch_size}: violations: {:?}",
        report.violations
    );
    let expected = reference::canonical(c, q, &reference::execute(c, q));
    let got = report.canonical(c, q);
    assert_eq!(
        got.len(),
        expected.len(),
        "batch {batch_size}: result count mismatch: got {} want {} ({})",
        got.len(),
        expected.len(),
        report.summary()
    );
    assert_eq!(
        got, expected,
        "batch {batch_size}: result contents mismatch"
    );
    report
}

#[test]
fn shj_two_scans_matches_reference() {
    let (mut c, r, s) = two_table_catalog(
        r_rows(40, 10),
        int_rows(&[(0, 100), (1, 101), (5, 105), (9, 109), (42, 142)]),
    );
    c.add_scan(r, ScanSpec::with_rate(2000.0)).unwrap();
    c.add_scan(s, ScanSpec::with_rate(1500.0)).unwrap();
    let q = rs_query(&c, r, s, vec![]);
    for report in assert_matches_reference(&c, &q, checked_config()) {
        // 40 R rows over 10 distinct values ⇒ 4 rows per matching S key.
        assert_eq!(report.results.len(), 16);
    }
}

#[test]
fn index_join_flow_matches_reference() {
    // S reachable only through an index on x (fig-7 topology).
    let (mut c, r, s) = two_table_catalog(
        r_rows(30, 6),
        int_rows(&[(0, 100), (2, 102), (4, 104), (5, 105)]),
    );
    c.add_scan(r, ScanSpec::with_rate(2000.0)).unwrap();
    c.add_index(s, IndexSpec::new(vec![0], 50_000)).unwrap();
    let q = rs_query(&c, r, s, vec![]);
    for report in assert_matches_reference(&c, &q, checked_config()) {
        // 30 rows over 6 distinct values, matching x ∈ {0,2,4,5}: 5 each.
        assert_eq!(report.results.len(), 20);
        // Coalescing holds probe count at the number of distinct R.a values.
        assert_eq!(report.counter("index_probes"), 6);
    }
}

#[test]
fn hybrid_scan_plus_index_matches_reference() {
    // Both access methods on S (fig-8 topology).
    let (mut c, r, s) = two_table_catalog(r_rows(50, 25), r_rows(25, 25));
    c.add_scan(r, ScanSpec::with_rate(500.0)).unwrap();
    c.add_scan(s, ScanSpec::with_rate(100.0)).unwrap();
    c.add_index(s, IndexSpec::new(vec![0], 20_000)).unwrap();
    let q = rs_query(&c, r, s, vec![]);
    for policy in [
        RoutingPolicyKind::Fixed { probe_order: None },
        RoutingPolicyKind::BenefitCost {
            epsilon: 0.05,
            drop_rate: 2.0,
        },
        RoutingPolicyKind::Lottery,
    ] {
        let config = ExecConfig {
            policy,
            ..checked_config()
        };
        assert_matches_reference(&c, &q, config);
    }
}

#[test]
fn selections_prune_and_match() {
    let (mut c, r, s) = two_table_catalog(r_rows(60, 12), r_rows(12, 12));
    c.add_scan(r, ScanSpec::with_rate(2000.0)).unwrap();
    c.add_scan(s, ScanSpec::with_rate(2000.0)).unwrap();
    let q = rs_query(
        &c,
        r,
        s,
        vec![
            Predicate::selection(
                PredId(1),
                ColRef::new(TableIdx(0), 0),
                CmpOp::Gt,
                Value::Int(10),
            ),
            Predicate::selection(
                PredId(2),
                ColRef::new(TableIdx(1), 1),
                CmpOp::Lt,
                Value::Int(8),
            ),
        ],
    );
    for report in assert_matches_reference(&c, &q, checked_config()) {
        assert!(report.counter("filtered") > 0, "selections never fired");
    }
}

#[test]
fn three_way_chain_all_scans() {
    let mut c = Catalog::new();
    let schema = Schema::of(&[("k", ColumnType::Int), ("v", ColumnType::Int)]);
    let a = c
        .add_table(TableDef::new("A", schema.clone()).with_rows(r_rows(12, 4)))
        .unwrap();
    let b = c
        .add_table(TableDef::new("B", schema.clone()).with_rows(r_rows(8, 4)))
        .unwrap();
    let d = c
        .add_table(TableDef::new("D", schema.clone()).with_rows(r_rows(6, 3)))
        .unwrap();
    for (src, rate) in [(a, 900.0), (b, 700.0), (d, 1100.0)] {
        c.add_scan(src, ScanSpec::with_rate(rate)).unwrap();
    }
    // A.v = B.v AND B.k = D.k
    let q = QuerySpec::new(
        &c,
        [("a", a), ("b", b), ("d", d)]
            .iter()
            .map(|(al, src)| TableInstance {
                source: *src,
                alias: al.to_string(),
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
    for policy in [
        RoutingPolicyKind::Fixed { probe_order: None },
        RoutingPolicyKind::Lottery,
    ] {
        assert_matches_reference(
            &c,
            &q,
            ExecConfig {
                policy,
                ..checked_config()
            },
        );
    }
}

#[test]
fn cyclic_triangle_query() {
    let mut c = Catalog::new();
    let schema = Schema::of(&[("k", ColumnType::Int), ("v", ColumnType::Int)]);
    let names = ["A", "B", "D"];
    let ids: Vec<SourceId> = names
        .iter()
        .enumerate()
        .map(|(i, n)| {
            let id = c
                .add_table(TableDef::new(n, schema.clone()).with_rows(r_rows(10, 5 - i as i64)))
                .unwrap();
            c.add_scan(id, ScanSpec::with_rate(800.0 + 100.0 * i as f64))
                .unwrap();
            id
        })
        .collect();
    // Triangle: A.v=B.v, B.v=D.v, A.v=D.v — duplicates would appear
    // without ProbeCompletion (paper §3.4's example).
    let q = QuerySpec::new(
        &c,
        ids.iter()
            .zip(["a", "b", "d"])
            .map(|(s, al)| TableInstance {
                source: *s,
                alias: al.into(),
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
                ColRef::new(TableIdx(1), 1),
                CmpOp::Eq,
                ColRef::new(TableIdx(2), 1),
            ),
            Predicate::join(
                PredId(2),
                ColRef::new(TableIdx(0), 1),
                CmpOp::Eq,
                ColRef::new(TableIdx(2), 1),
            ),
        ],
        None,
    )
    .unwrap();
    for policy in [
        RoutingPolicyKind::Fixed { probe_order: None },
        RoutingPolicyKind::Lottery,
        RoutingPolicyKind::BenefitCost {
            epsilon: 0.1,
            drop_rate: 1.0,
        },
    ] {
        assert_matches_reference(
            &c,
            &q,
            ExecConfig {
                policy,
                ..checked_config()
            },
        );
    }
}

#[test]
fn competitive_scans_dedup() {
    // Two scan AMs on S: every row arrives twice; SteM dedup absorbs the
    // copies (paper §3.2).
    let (mut c, r, s) = two_table_catalog(r_rows(20, 5), r_rows(5, 5));
    c.add_scan(r, ScanSpec::with_rate(2000.0)).unwrap();
    c.add_scan(s, ScanSpec::with_rate(300.0)).unwrap();
    c.add_scan(s, ScanSpec::with_rate(80.0)).unwrap();
    let q = rs_query(&c, r, s, vec![]);
    for report in assert_matches_reference(&c, &q, checked_config()) {
        assert!(
            report.counter("duplicates_absorbed") > 0,
            "competition produced no duplicates to absorb?"
        );
    }
}

#[test]
fn relaxed_buildfirst_still_correct() {
    // R skips its SteM entirely (§3.5): R tuples re-probe SteM_S under
    // LastMatchTimeStamp until the S scan completes.
    let (mut c, r, s) = two_table_catalog(r_rows(25, 5), r_rows(5, 5));
    c.add_scan(r, ScanSpec::with_rate(2000.0)).unwrap();
    c.add_scan(s, ScanSpec::with_rate(100.0)).unwrap();
    let q = rs_query(&c, r, s, vec![]);
    let mut config = checked_config();
    config.plan.no_stem = TableSet::single(TableIdx(0));
    for report in assert_matches_reference(&c, &q, config) {
        assert!(report.counter("unparked") > 0, "no §3.5 re-probes happened");
    }
}

#[test]
fn single_table_selection_query() {
    let mut c = Catalog::new();
    let r = c
        .add_table(
            TableDef::new(
                "R",
                Schema::of(&[("key", ColumnType::Int), ("a", ColumnType::Int)]),
            )
            .with_rows(r_rows(30, 30)),
        )
        .unwrap();
    c.add_scan(r, ScanSpec::with_rate(1000.0)).unwrap();
    let q = QuerySpec::new(
        &c,
        vec![TableInstance {
            source: r,
            alias: "r".into(),
        }],
        vec![Predicate::selection(
            PredId(0),
            ColRef::new(TableIdx(0), 0),
            CmpOp::Ge,
            Value::Int(25),
        )],
        None,
    )
    .unwrap();
    for report in assert_matches_reference(&c, &q, checked_config()) {
        assert_eq!(report.results.len(), 5);
    }
}

#[test]
fn self_join_shares_rows() {
    let mut c = Catalog::new();
    let r = c
        .add_table(
            TableDef::new(
                "R",
                Schema::of(&[("key", ColumnType::Int), ("a", ColumnType::Int)]),
            )
            .with_rows(r_rows(12, 3)),
        )
        .unwrap();
    c.add_scan(r, ScanSpec::with_rate(1000.0)).unwrap();
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
    for report in assert_matches_reference(&c, &q, checked_config()) {
        // 12 rows, 3 groups of 4: each group contributes 4×4 pairs.
        assert_eq!(report.results.len(), 48);
    }
}

#[test]
fn deterministic_across_runs() {
    let (mut c, r, s) = two_table_catalog(r_rows(30, 6), r_rows(6, 6));
    c.add_scan(r, ScanSpec::with_rate(500.0)).unwrap();
    c.add_scan(s, ScanSpec::with_rate(400.0)).unwrap();
    c.add_index(s, IndexSpec::new(vec![0], 30_000)).unwrap();
    let q = rs_query(&c, r, s, vec![]);
    for batch_size in BATCH_SIZES {
        let run = |seed: u64| {
            let config = ExecConfig {
                policy: RoutingPolicyKind::BenefitCost {
                    epsilon: 0.2,
                    drop_rate: 1.0,
                },
                seed,
                batch_size,
                ..ExecConfig::default()
            };
            let rep = EddyExecutor::build(&c, &q, config).unwrap().run();
            (rep.end_time, rep.events, rep.canonical(&c, &q))
        };
        let (t1, e1, r1) = run(7);
        let (t2, e2, r2) = run(7);
        assert_eq!(t1, t2, "batch {batch_size}");
        assert_eq!(e1, e2, "batch {batch_size}");
        assert_eq!(r1, r2, "batch {batch_size}");
        // A different seed may take a different path but must agree on
        // results.
        let (_t3, _e3, r3) = run(8);
        assert_eq!(r1, r3, "batch {batch_size}");
    }
}

#[test]
fn empty_tables_terminate_cleanly() {
    let (mut c, r, s) = two_table_catalog(vec![], r_rows(5, 5));
    c.add_scan(r, ScanSpec::with_rate(100.0)).unwrap();
    c.add_scan(s, ScanSpec::with_rate(100.0)).unwrap();
    let q = rs_query(&c, r, s, vec![]);
    for report in assert_matches_reference(&c, &q, checked_config()) {
        assert_eq!(report.results.len(), 0);
    }
}

#[test]
fn udf_selection_memo_and_dedup_are_observably_invisible() {
    // A duplicate-heavy scan through an expensive sieve: 60 rows over 6
    // distinct sieve inputs, 5ms per computed verdict. Memoization and
    // dedup may only change *time*, never results.
    let mut c = Catalog::new();
    let r = c
        .add_table(
            TableDef::new(
                "R",
                Schema::of(&[("key", ColumnType::Int), ("a", ColumnType::Int)]),
            )
            .with_rows(r_rows(60, 6)),
        )
        .unwrap();
    c.add_scan(r, ScanSpec::with_rate(2000.0)).unwrap();
    let q = QuerySpec::new(
        &c,
        vec![TableInstance {
            source: r,
            alias: "r".into(),
        }],
        vec![Predicate::udf(
            PredId(0),
            ColRef::new(TableIdx(0), 1),
            UdfSpec::hash_sieve(500, 5_000),
        )],
        None,
    )
    .unwrap();
    let mut cells = Vec::new();
    for (memo, dedup) in [(false, false), (false, true), (true, false), (true, true)] {
        let config = ExecConfig {
            memo,
            udf_dedup: dedup,
            batch_size: 16,
            ..checked_config()
        };
        let report = checked_run(&c, &q, config);
        cells.push((memo, dedup, report));
    }
    let baseline = cells[0].2.canonical(&c, &q);
    for (memo, dedup, report) in &cells {
        assert_eq!(
            report.canonical(&c, &q),
            baseline,
            "results diverged at memo={memo} dedup={dedup}"
        );
        // Every cell applies the predicate to every routed row…
        assert_eq!(report.counter("sm_applied"), 60);
    }
    // …but only the plain cell computes a verdict per row.
    let plain = &cells[0].2;
    let memo_only = &cells[2].2;
    let both = &cells[3].2;
    assert_eq!(plain.counter("udf_calls"), 60);
    assert_eq!(plain.counter("memo_hits"), 0);
    assert_eq!(
        memo_only.counter("udf_calls"),
        6,
        "memo should pay once per key"
    );
    assert_eq!(
        memo_only.counter("memo_hits") + memo_only.counter("memo_misses"),
        60
    );
    assert_eq!(both.counter("udf_calls"), 6);
    // Skipped verdicts are skipped virtual time: the fast path finishes
    // strictly earlier on a duplicate-heavy input — at least 3× earlier,
    // since it pays 6 verdicts where the plain cell pays 60.
    assert!(
        both.end_time < plain.end_time,
        "memo+dedup {} !< plain {}",
        both.end_time,
        plain.end_time
    );
    assert!(
        plain.end_time >= 3 * both.end_time,
        "memo+dedup {} is not 3x earlier than plain {}",
        both.end_time,
        plain.end_time
    );
}

#[test]
fn chunked_index_replies_match_reference() {
    // The fig-7 index topology, but the index streams each answer back 2
    // tuples per wave instead of one burst — arrival shape changes,
    // results must not.
    let (mut c, r, s) = two_table_catalog(
        r_rows(30, 6),
        int_rows(&[
            (0, 100),
            (0, 101),
            (0, 102),
            (2, 102),
            (2, 103),
            (4, 104),
            (5, 105),
        ]),
    );
    c.add_scan(r, ScanSpec::with_rate(2000.0)).unwrap();
    c.add_index(s, IndexSpec::new(vec![0], 50_000)).unwrap();
    let q = rs_query(&c, r, s, vec![]);
    let burst = assert_matches_reference(&c, &q, checked_config());

    let (mut c2, r2, s2) = two_table_catalog(
        r_rows(30, 6),
        int_rows(&[
            (0, 100),
            (0, 101),
            (0, 102),
            (2, 102),
            (2, 103),
            (4, 104),
            (5, 105),
        ]),
    );
    c2.add_scan(r2, ScanSpec::with_rate(2000.0)).unwrap();
    c2.add_index(s2, IndexSpec::new(vec![0], 50_000).with_reply_chunk(2, 100))
        .unwrap();
    let q2 = rs_query(&c2, r2, s2, vec![]);
    let chunked = assert_matches_reference(&c2, &q2, checked_config());
    for (chunked, burst) in chunked.iter().zip(&burst) {
        assert_eq!(chunked.canonical(&c2, &q2), burst.canonical(&c, &q));
        // The trailing waves land strictly after the lookup completion, so
        // the chunked run cannot finish earlier.
        assert!(chunked.end_time >= burst.end_time);
        assert_eq!(
            chunked.counter("am_responses"),
            burst.counter("am_responses")
        );
    }
}

#[test]
fn null_join_keys_match_nothing() {
    let (mut c, r, s) = two_table_catalog(
        vec![
            vec![Value::Int(0), Value::Null],
            vec![Value::Int(1), Value::Int(3)],
        ],
        vec![
            vec![Value::Null, Value::Int(9)],
            vec![Value::Int(3), Value::Int(7)],
        ],
    );
    c.add_scan(r, ScanSpec::with_rate(100.0)).unwrap();
    c.add_scan(s, ScanSpec::with_rate(100.0)).unwrap();
    let q = rs_query(&c, r, s, vec![]);
    for report in assert_matches_reference(&c, &q, checked_config()) {
        assert_eq!(report.results.len(), 1);
    }
}

/// A–B–D chain (`A.v = B.v`, `B.k = D.k`, `A.k >= 8`), all scans.
fn chain_catalog() -> (Catalog, QuerySpec) {
    let mut c = Catalog::new();
    let schema = Schema::of(&[("k", ColumnType::Int), ("v", ColumnType::Int)]);
    let tables = [("a", 128, 16), ("b", 96, 16), ("d", 64, 8)]
        .iter()
        .map(|&(alias, n, distinct)| {
            let def = TableDef::new(&alias.to_uppercase(), schema.clone());
            let source = c.add_table(def.with_rows(r_rows(n, distinct))).unwrap();
            c.add_scan(source, ScanSpec::with_rate(1000.0)).unwrap();
            TableInstance {
                source,
                alias: alias.into(),
            }
        })
        .collect();
    let join = |id, l: (u8, usize), r: (u8, usize)| {
        Predicate::join(
            PredId(id),
            ColRef::new(TableIdx(l.0), l.1),
            CmpOp::Eq,
            ColRef::new(TableIdx(r.0), r.1),
        )
    };
    let preds = vec![
        join(0, (0, 1), (1, 1)),
        join(1, (1, 0), (2, 0)),
        Predicate::selection(
            PredId(2),
            ColRef::new(TableIdx(0), 0),
            CmpOp::Ge,
            Value::Int(8),
        ),
    ];
    let q = QuerySpec::new(&c, tables, preds, None).unwrap();
    (c, q)
}

/// R ⋈ S with a scan *and* an index on S (fig-8 topology).
fn hybrid_catalog() -> (Catalog, QuerySpec) {
    let (mut c, r, s) = two_table_catalog(r_rows(100, 25), r_rows(25, 25));
    c.add_scan(r, ScanSpec::with_rate(500.0)).unwrap();
    c.add_scan(s, ScanSpec::with_rate(100.0)).unwrap();
    c.add_index(s, IndexSpec::new(vec![0], 20_000)).unwrap();
    let q = rs_query(&c, r, s, vec![]);
    (c, q)
}

/// The retired SteM-lane knobs are inert: the chain query under all six
/// of them — eight lanes on the engine and on the SteM options, a pool
/// threshold of one row on both, a four-worker SteM budget, and the
/// busiest-lane cost model — reports exactly what the default
/// configuration does: ordered results, event count, end time and every
/// counter.
#[test]
fn retired_lane_knobs_are_inert() {
    let (c, q) = chain_catalog();
    let default = assert_matches_reference(&c, &q, checked_config());
    let mut config = checked_config();
    config.num_shards = 8;
    config.parallel_min_rows = 1;
    config.costs.shard_parallel_service = true;
    config.plan.default_stem = StemOptions {
        num_shards: 8,
        workers: Some(4),
        parallel_min_rows: Some(1),
        ..config.plan.default_stem
    };
    let retired = assert_matches_reference(&c, &q, config);
    for (retired, default) in retired.iter().zip(&default) {
        assert_eq!(retired.results, default.results);
        assert_eq!(retired.events, default.events);
        assert_eq!(retired.end_time, default.end_time);
        let names: Vec<&str> = default.metrics.names().collect();
        assert_eq!(retired.metrics.names().collect::<Vec<_>>(), names);
        for name in names {
            assert_eq!(retired.counter(name), default.counter(name), "{name}");
        }
        // And every curve at every instant: the SteM envelopes cost the
        // same virtual time.
        for name in default.metrics.series_names() {
            let points = |r: &stems_core::Report| r.metrics.series(name).unwrap().points().to_vec();
            assert_eq!(points(retired), points(default), "{name}");
        }
    }
}

/// The metric **name set** is part of the engine's surface: figures,
/// examples and the benchmark read series by name, and the executor
/// resolves every name to an id once at build. A metric that is renamed,
/// dropped or never resolved must fail here instead of silently vanishing
/// from a figure. Two sets are pinned: every recorded metric (`names`) and
/// the curves among them (`series_names`) — a counter that moves between
/// the engine's `curves` and `counts` lists changes the second. Counters
/// that move with the batch size are pinned per batch size.
#[test]
fn metric_names_and_counters_are_pinned() {
    const CHAIN: &[&str] = &[
        "end",
        "filtered",
        "hints_recosted",
        "probes_consumed",
        "results",
        "route_batches",
        "scanned",
        "sm_applied",
        "span2_formed",
        "span3_formed",
        "stem_bytes_t0",
        "stem_bytes_t1",
        "stem_bytes_t2",
        "stem_bytes_total",
        "stem_probes",
    ];
    const CHAIN_CURVES: &[&str] = &[
        "end",
        "filtered",
        "results",
        "scanned",
        "sm_applied",
        "span2_formed",
        "span3_formed",
        "stem_bytes_t0",
        "stem_bytes_t1",
        "stem_bytes_t2",
        "stem_bytes_total",
    ];
    const HYBRID_CURVES: &[&str] = &[
        "am_probe_choices",
        "duplicates_absorbed",
        "end",
        "index_probes",
        "policy_drops",
        "results",
        "scanned",
        "span2_formed",
        "stem_bytes_t0",
        "stem_bytes_total",
    ];
    const HYBRID: &[&str] = &[
        "am_dup_builds",
        "am_probe_choices",
        "am_responses",
        "duplicates_absorbed",
        "end",
        "hints_recosted",
        "index_probes",
        "policy_drops",
        "probes_bounced",
        "probes_coalesced",
        "probes_consumed",
        "probes_queued",
        "results",
        "route_batches",
        "scanned",
        "span2_formed",
        "stem_bytes_t0",
        "stem_bytes_total",
        "stem_probes",
    ];
    // Batching changes how many envelopes carry the tuples and how many
    // hybrid probes bounce before the scan catches up, nothing else here.
    for (batch_size, chain_batches, hybrid_batches, bounced, probes) in
        [(1, 1483, 387, 85, 125), (64, 963, 369, 92, 132)]
    {
        let run = |(c, q): (Catalog, QuerySpec)| {
            let config = ExecConfig {
                batch_size,
                policy: RoutingPolicyKind::Fixed { probe_order: None },
                ..checked_config()
            };
            checked_run(&c, &q, config)
        };
        // On these fixtures only the scalar engine splits a burst into
        // several waves that offer the same module.
        let expected = |names: &[&'static str]| -> Vec<&'static str> {
            let keep = |n: &&str| batch_size == 1 || *n != "hints_recosted";
            names.iter().copied().filter(keep).collect()
        };

        let chain = run(chain_catalog());
        let names: Vec<&str> = chain.metrics.names().collect();
        assert_eq!(names, expected(CHAIN), "chain, batch_size {batch_size}");
        let curves: Vec<&str> = chain.metrics.series_names().collect();
        assert_eq!(curves, CHAIN_CURVES, "chain, batch_size {batch_size}");
        for (name, want) in [
            ("scanned", 288),
            ("sm_applied", 128),
            ("filtered", 8),
            ("stem_probes", 1064),
            ("probes_consumed", 1064),
            ("span2_formed", 784),
            ("span3_formed", 480),
            ("results", 480),
            ("route_batches", chain_batches),
            ("never_recorded", 0),
        ] {
            assert_eq!(
                chain.counter(name),
                want,
                "chain {name}, batch_size {batch_size}"
            );
        }
        // A counter's series is its step function: one point per instant.
        let results = chain.metrics.series("results").unwrap();
        assert_eq!(results.last_value(), 480.0);
        assert!(results.points().windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(
            chain.metrics.series("end").unwrap().points(),
            &[(chain.end_time, 1.0)]
        );

        let hybrid = run(hybrid_catalog());
        let names: Vec<&str> = hybrid.metrics.names().collect();
        assert_eq!(names, expected(HYBRID), "hybrid, batch_size {batch_size}");
        let curves: Vec<&str> = hybrid.metrics.series_names().collect();
        assert_eq!(curves, HYBRID_CURVES, "hybrid, batch_size {batch_size}");
        for (name, want) in [
            ("scanned", 125),
            ("index_probes", 25),
            ("am_responses", 25),
            ("am_dup_builds", 25),
            ("duplicates_absorbed", 25),
            ("am_probe_choices", 85),
            ("policy_drops", 85),
            ("probes_queued", 24),
            ("probes_coalesced", 60),
            ("probes_bounced", bounced),
            ("stem_probes", probes),
            ("span2_formed", 100),
            ("results", 100),
            ("route_batches", hybrid_batches),
        ] {
            assert_eq!(
                hybrid.counter(name),
                want,
                "hybrid {name}, batch_size {batch_size}"
            );
        }
    }
}
