//! Folding invariance for the multi-query server: every query's
//! *observable* behaviour — ordered results, metrics, event counts, end
//! time — must be bit-identical whether it runs alone or alongside any
//! number of concurrent queries sharing its SteMs, swept across
//! concurrency levels, batch sizes and worker counts; with folding off the
//! server must be a pure merge of classic solo executors.

use stems_catalog::{reference, Catalog, QuerySpec, ScanSpec, SourceId, TableDef, TableInstance};
use stems_core::{
    EddyExecutor, ExecConfig, QueryServer, QueryStatus, Report, ServerStats, Submission,
};
use stems_types::{CmpOp, ColRef, ColumnType, PredId, Predicate, Schema, TableIdx, UdfSpec, Value};

/// R(key, a=key%10) x60, S(x, y=x%5) x10, T(z, w=z*100) x5 — all with
/// scan AMs at distinct rates so EOTs interleave across sources.
fn family_catalog() -> (Catalog, SourceId, SourceId, SourceId) {
    chunked_family_catalog(1)
}

/// [`family_catalog`] with every scan delivering `chunk` rows an event.
fn chunked_family_catalog(chunk: usize) -> (Catalog, SourceId, SourceId, SourceId) {
    let mut c = Catalog::new();
    let r = c
        .add_table(
            TableDef::new(
                "R",
                Schema::of(&[("key", ColumnType::Int), ("a", ColumnType::Int)]),
            )
            .with_rows(
                (0..60)
                    .map(|k| vec![Value::Int(k), Value::Int(k % 10)])
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
                (0..10)
                    .map(|x| vec![Value::Int(x), Value::Int(x % 5)])
                    .collect(),
            ),
        )
        .unwrap();
    let t = c
        .add_table(
            TableDef::new(
                "T",
                Schema::of(&[("z", ColumnType::Int), ("w", ColumnType::Int)]),
            )
            .with_rows(
                (0..5)
                    .map(|z| vec![Value::Int(z), Value::Int(z * 100)])
                    .collect(),
            ),
        )
        .unwrap();
    for (source, rate) in [(r, 2000.0), (s, 1000.0), (t, 500.0)] {
        c.add_scan(source, ScanSpec::with_rate(rate).with_chunk(chunk))
            .unwrap();
    }
    (c, r, s, t)
}

fn inst(source: SourceId, alias: &str) -> TableInstance {
    TableInstance {
        source,
        alias: alias.into(),
    }
}

/// A deterministic query family cycling three shapes (R⋈S⋈T, R⋈S, S⋈T)
/// with a selection constant that flips every full cycle, so
/// `query_for(i) == query_for(i % 6)`. R's SteM is shared between the
/// first two shapes, T's between the first and third; S's join columns
/// differ per shape, so its SteMs fold only between same-shape queries.
fn query_for(c: &Catalog, r: SourceId, s: SourceId, t: SourceId, i: usize) -> QuerySpec {
    let cut = Value::Int(if (i / 3).is_multiple_of(2) { 30 } else { 45 });
    let r_s = |id: u16| {
        Predicate::join(
            PredId(id),
            ColRef::new(TableIdx(0), 1),
            CmpOp::Eq,
            ColRef::new(TableIdx(1), 0),
        )
    };
    match i % 3 {
        0 => QuerySpec::new(
            c,
            vec![inst(r, "r"), inst(s, "s"), inst(t, "t")],
            vec![
                r_s(0),
                Predicate::join(
                    PredId(1),
                    ColRef::new(TableIdx(1), 1),
                    CmpOp::Eq,
                    ColRef::new(TableIdx(2), 0),
                ),
                Predicate::selection(PredId(2), ColRef::new(TableIdx(0), 0), CmpOp::Lt, cut),
            ],
            None,
        )
        .unwrap(),
        1 => QuerySpec::new(
            c,
            vec![inst(r, "r"), inst(s, "s")],
            vec![
                r_s(0),
                Predicate::selection(PredId(1), ColRef::new(TableIdx(0), 0), CmpOp::Lt, cut),
            ],
            None,
        )
        .unwrap(),
        _ => QuerySpec::new(
            c,
            vec![inst(s, "s"), inst(t, "t")],
            vec![
                Predicate::join(
                    PredId(0),
                    ColRef::new(TableIdx(0), 1),
                    CmpOp::Eq,
                    ColRef::new(TableIdx(1), 0),
                ),
                Predicate::selection(
                    PredId(1),
                    ColRef::new(TableIdx(0), 0),
                    CmpOp::Lt,
                    Value::Int(if (i / 3).is_multiple_of(2) { 6 } else { 8 }),
                ),
            ],
            None,
        )
        .unwrap(),
    }
}

/// Every configuration a server run is repeated in: routing batch size 1
/// (the paper's tuple-at-a-time eddy) and 64 (the batched default),
/// crossed with wave-drain worker budgets 1, 2 and 4.
fn cells() -> impl Iterator<Item = ExecConfig> {
    [1, 64].into_iter().flat_map(|batch_size| {
        [1, 2, 4].into_iter().map(move |workers| ExecConfig {
            check_constraints: true,
            batch_size,
            workers,
            ..ExecConfig::default()
        })
    })
}

/// A cell's name for assertion messages.
fn cell(config: &ExecConfig) -> String {
    format!("b{} w{}", config.batch_size, config.workers)
}

fn run_server(
    c: &Catalog,
    queries: &[QuerySpec],
    config: &ExecConfig,
    fold: bool,
) -> (Vec<stems_core::ServerReport>, ServerStats) {
    let mut srv = QueryServer::builder(c)
        .config(config.clone())
        .fold(fold)
        .build()
        .unwrap();
    for q in queries {
        srv.submit(Submission::new(q.clone())).unwrap();
    }
    let (handles, stats) = srv.serve();
    let reports = handles
        .into_iter()
        .map(|h| {
            assert_eq!(h.status, QueryStatus::Completed);
            h.report.expect("completed query has a report")
        })
        .collect();
    (reports, stats)
}

fn assert_reports_identical(got: &Report, want: &Report, ctx: &str) {
    assert_eq!(got.results, want.results, "{ctx}: ordered results differ");
    assert_eq!(got.end_time, want.end_time, "{ctx}: end_time differs");
    assert_eq!(got.events, want.events, "{ctx}: event count differs");
    assert_eq!(got.metrics, want.metrics, "{ctx}: metrics differ");
    assert!(got.violations.is_empty(), "{ctx}: {:?}", got.violations);
}

fn assert_matches_reference(c: &Catalog, q: &QuerySpec, report: &Report, ctx: &str) {
    let expected = reference::canonical(c, q, &reference::execute(c, q));
    assert_eq!(report.canonical(c, q), expected, "{ctx}: wrong result set");
}

/// The tentpole invariant: under shared-SteM folding, each query's report
/// is bit-identical to the same query admitted alone, for every
/// concurrency level, batch size and worker count.
#[test]
fn folding_is_invariant_across_concurrency() {
    let (c, r, s, t) = family_catalog();
    for config in cells() {
        let cell = cell(&config);
        let solo: Vec<Report> = (0..6)
            .map(|i| {
                let q = query_for(&c, r, s, t, i);
                let (mut reports, _) = run_server(&c, std::slice::from_ref(&q), &config, true);
                let report = reports.remove(0).report;
                assert_matches_reference(&c, &q, &report, &format!("solo q{i} {cell}"));
                report
            })
            .collect();
        for n in [1usize, 4, 16] {
            let queries: Vec<QuerySpec> = (0..n).map(|i| query_for(&c, r, s, t, i)).collect();
            let (reports, _) = run_server(&c, &queries, &config, true);
            assert_eq!(reports.len(), n);
            for (i, sr) in reports.iter().enumerate() {
                assert_eq!(sr.query, i);
                assert_eq!(sr.admitted_at, 0);
                assert_reports_identical(
                    &sr.report,
                    &solo[i % 6],
                    &format!("q{i} of N={n} {cell}"),
                );
            }
        }
    }
}

/// Scans whose catalog chunk exceeds the routing batch size, at batch 1
/// (chunk 8) and at batch 64 (chunk 256): the server's shared scan
/// streams must cut their chunks to the batch size as a solo executor's
/// scans do: in both, no instant scans more than a batch a source.
/// Folded, each query's report is bit-identical to its solo server run,
/// and its result multiset is the classic executor's. Its ordered results
/// and end time differ from the classic run's: a folded SteM builds every
/// row, while the classic executor's private SteMs take only the rows
/// that pass their own selections.
#[test]
fn shared_scans_clamp_their_chunks_to_the_batch_size() {
    for (chunk, batch_size) in [(8, 1), (256, 64)] {
        let (c, r, s, t) = chunked_family_catalog(chunk);
        let queries: Vec<QuerySpec> = (0..6).map(|i| query_for(&c, r, s, t, i)).collect();
        for config in cells().filter(|cfg| cfg.batch_size == batch_size) {
            let cell = format!("chunk {chunk} {}", cell(&config));
            let (reports, stats) = run_server(&c, &queries, &config, true);
            assert_eq!(stats.scan_streams, 3, "{cell}");
            for (i, sr) in reports.iter().enumerate() {
                let ctx = format!("folded q{i} {cell}");
                let q = std::slice::from_ref(&queries[i]);
                let (mut alone, _) = run_server(&c, q, &config, true);
                assert_reports_identical(&sr.report, &alone.remove(0).report, &ctx);
                let classic = EddyExecutor::build(&c, &queries[i], config.clone())
                    .unwrap()
                    .run();
                let got = &sr.report;
                // Three scans, each at most one batch an instant.
                let widest_step = |r: &Report| {
                    let points = r.metrics.series("scanned").unwrap().points();
                    let steps = points.windows(2).map(|w| w[1].1 - w[0].1);
                    steps.chain(points.first().map(|p| p.1)).fold(0.0, f64::max)
                };
                for report in [got, &classic] {
                    assert!(widest_step(report) <= (3 * batch_size) as f64, "{ctx}");
                }
                assert_eq!(
                    got.canonical(&c, &queries[i]),
                    classic.canonical(&c, &queries[i]),
                    "{ctx}: result multiset"
                );
                assert_matches_reference(&c, &queries[i], got, &ctx);
            }
        }
    }
}

/// Admitting more queries must create no additional shared state: the
/// registry folds every compatible instance onto one entry, and rows are
/// built once per entry no matter how many queries subscribe.
#[test]
fn folding_shares_stems_across_queries() {
    let (c, r, s, t) = family_catalog();
    let six: Vec<QuerySpec> = (0..6).map(|i| query_for(&c, r, s, t, i)).collect();
    let twelve: Vec<QuerySpec> = (0..12).map(|i| query_for(&c, r, s, t, i)).collect();
    for config in cells() {
        let cell = cell(&config);
        let (_, stats6) = run_server(&c, &six, &config, true);
        let (_, stats12) = run_server(&c, &twelve, &config, true);
        // Entries: R[a] (shapes 0+1), S[x,y] (shape 0), S[x] (shape 1),
        // S[y] (shape 2), T[z] (shapes 0+2).
        assert_eq!(stats6.shared_stems, 5, "{cell}: registry entries");
        assert_eq!(stats6.scan_streams, 3, "{cell}: one stream per source");
        assert_eq!(stats6.shared_builds, 60 + 10 + 10 + 10 + 5, "{cell}");
        assert_eq!(
            stats6, stats12,
            "{cell}: doubling queries must add zero build work"
        );
    }
}

/// With folding off the server is a pure merge: every query's report is
/// identical to a classic solo `EddyExecutor::run`, and nothing shares.
#[test]
fn fold_off_is_a_pure_merge_of_classic_executors() {
    let (c, r, s, t) = family_catalog();
    let queries: Vec<QuerySpec> = (0..4).map(|i| query_for(&c, r, s, t, i)).collect();
    for config in cells() {
        let cell = cell(&config);
        let (reports, stats) = run_server(&c, &queries, &config, false);
        assert_eq!(stats.shared_stems, 0);
        assert_eq!(stats.scan_streams, 0);
        for (i, sr) in reports.iter().enumerate() {
            let classic = EddyExecutor::build(&c, &queries[i], config.clone())
                .unwrap()
                .run();
            assert_reports_identical(&sr.report, &classic, &format!("fold-off q{i} {cell}"));
        }
    }
}

/// Interleaved admissions: one query admitted mid-build of every scan,
/// one as EOTs start landing while earlier queries are still probing, and
/// one long after every stream closed (pure catch-up replay). Each must
/// still produce exactly the reference answer, and the whole schedule
/// must be deterministic run-to-run.
#[test]
fn late_admission_catches_up_and_stays_deterministic() {
    let (c, r, s, t) = family_catalog();
    // Scan spans: R 60 rows @2000tps ≈ 30ms, S 10 @1000 ≈ 10ms, T 5 @500 ≈ 10ms.
    let schedule = [(0u64, 0usize), (5_000, 1), (11_000, 2), (60_000, 3)];
    let run = |config: &ExecConfig| {
        let mut srv = QueryServer::builder(&c)
            .config(config.clone())
            .build()
            .unwrap();
        for &(at, i) in &schedule {
            srv.submit(Submission::new(query_for(&c, r, s, t, i)).at(at))
                .unwrap();
        }
        let (handles, stats) = srv.serve();
        let reports: Vec<_> = handles
            .into_iter()
            .map(|h| h.report.expect("completed query has a report"))
            .collect();
        (reports, stats)
    };
    for config in cells() {
        let cell = cell(&config);
        let (a, stats_a) = run(&config);
        let (b, stats_b) = run(&config);
        assert_eq!(stats_a, stats_b, "{cell}: stats must be deterministic");
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(x.admitted_at, schedule[i].0);
            assert_eq!(x.admitted_at, y.admitted_at);
            assert_eq!(x.completed_at, y.completed_at);
            assert_reports_identical(&x.report, &y.report, &format!("rerun q{i} {cell}"));
            let q = query_for(&c, r, s, t, schedule[i].1);
            assert_matches_reference(&c, &q, &x.report, &format!("late-admit q{i} {cell}"));
            assert!(
                x.completed_at >= x.admitted_at,
                "{cell}: q{i} completed before admission"
            );
        }
        // The late queries joined existing streams: still only one stream
        // per source and one registry entry per distinct key.
        assert_eq!(stats_a.scan_streams, 3, "{cell}");
        assert_eq!(stats_a.shared_stems, 5, "{cell}");
    }
}

/// The 1000-query point: every report still bit-identical to its solo
/// run under parallel stepping. Debug builds skip it (the full sweep
/// belongs to the release CI step) unless `STEMS_SMOKE_1000` forces it.
#[test]
// A debug-build test gate, not engine configuration.
#[allow(clippy::disallowed_methods)]
fn thousand_query_smoke_stays_bit_identical_to_solo() {
    if cfg!(debug_assertions) && std::env::var("STEMS_SMOKE_1000").is_err() {
        return;
    }
    let (c, r, s, t) = family_catalog();
    let queries: Vec<QuerySpec> = (0..1000).map(|i| query_for(&c, r, s, t, i)).collect();
    for config in cells() {
        let cell = cell(&config);
        let solo: Vec<Report> = (0..6)
            .map(|i| {
                let q = query_for(&c, r, s, t, i);
                run_server(&c, std::slice::from_ref(&q), &config, true)
                    .0
                    .remove(0)
                    .report
            })
            .collect();
        let (reports, stats) = run_server(&c, &queries, &config, true);
        assert_eq!(reports.len(), 1000);
        assert_eq!(
            stats.shared_stems, 5,
            "{cell}: 1000 queries, still 5 entries"
        );
        assert_eq!(stats.scan_streams, 3);
        for (i, sr) in reports.iter().enumerate() {
            assert_reports_identical(&sr.report, &solo[i % 6], &format!("q{i} of N=1000 {cell}"));
        }
    }
}

/// R filtered by an expensive hash sieve on `a` (10 distinct keys over
/// 60 rows): the canonical testbed for shared verdict memos.
fn udf_query(c: &Catalog, r: SourceId) -> QuerySpec {
    QuerySpec::new(
        c,
        vec![inst(r, "r")],
        vec![Predicate::udf(
            PredId(0),
            ColRef::new(TableIdx(0), 1),
            UdfSpec::hash_sieve(500, 5_000),
        )],
        None,
    )
    .unwrap()
}

/// Memo folding: compatible queries share one verdict cache per predicate
/// identity. A late second query finds every key already cached — it pays
/// zero UDF calls — and `shared_memos` records the subscription. The
/// canonical answer is invariant across fold on/off and worker counts,
/// and the whole schedule is deterministic.
#[test]
fn memo_folding_shares_verdict_caches() {
    let (c, r, _s, _t) = family_catalog();
    let q = udf_query(&c, r);
    let run = |config: &ExecConfig, fold: bool| {
        let mut srv = QueryServer::builder(&c)
            .config(config.clone())
            .fold(fold)
            .build()
            .unwrap();
        srv.submit(Submission::new(q.clone())).unwrap();
        // Late enough that R's scan (60 rows @2000tps ≈ 30ms) is done:
        // the second query replays the raw table against a warm memo.
        srv.submit(Submission::new(q.clone()).at(60_000)).unwrap();
        let (handles, stats) = srv.serve();
        let reports: Vec<Report> = handles
            .into_iter()
            .map(|h| h.report.expect("completed query has a report"))
            .map(|sr| sr.report)
            .collect();
        (reports, stats)
    };
    let expected = reference::canonical(&c, &q, &reference::execute(&c, &q));
    for config in cells() {
        let cell = cell(&config);
        let (folded, stats) = run(&config, true);
        assert_eq!(
            stats.shared_memos, 1,
            "second query must subscribe to the first query's memo"
        );
        let first = &folded[0];
        let second = &folded[1];
        assert_eq!(
            first.counter("udf_calls"),
            10,
            "first query pays once per distinct key"
        );
        assert_eq!(
            second.counter("udf_calls"),
            0,
            "second query must be served entirely from the shared memo"
        );
        assert!(second.counter("memo_hits") >= 10, "warm memo never hit");
        for (i, rep) in folded.iter().enumerate() {
            assert!(rep.violations.is_empty(), "q{i} {cell}");
            assert_eq!(
                rep.canonical(&c, &q),
                expected,
                "memo-folded q{i} {cell}: wrong result set"
            );
        }
        // Unfolded server: private memos, no sharing, same answer.
        let (private, lone_stats) = run(&config, false);
        assert_eq!(lone_stats.shared_memos, 0);
        for (i, rep) in private.iter().enumerate() {
            assert_eq!(rep.counter("udf_calls"), 10, "private memo q{i}");
            assert_eq!(
                rep.canonical(&c, &q),
                expected,
                "fold-off q{i} {cell}: wrong result set"
            );
        }
        // Determinism: the exact same schedule twice, stats and all.
        let (again, stats_again) = run(&config, true);
        assert_eq!(stats, stats_again, "{cell}: stats must be deterministic");
        for (x, y) in folded.iter().zip(&again) {
            assert_reports_identical(x, y, &format!("memo rerun {cell}"));
        }
    }
}

/// Memo folding keys on predicate identity *and* byte budget: a query
/// with a different sieve or a different `memo_bytes` must get its own
/// cell, never a false share.
#[test]
fn memo_folding_respects_predicate_identity_and_budget() {
    let (c, r, _s, _t) = family_catalog();
    let q = udf_query(&c, r);
    let other = QuerySpec::new(
        &c,
        vec![inst(r, "r")],
        vec![Predicate::udf(
            PredId(0),
            ColRef::new(TableIdx(0), 1),
            UdfSpec::hash_sieve(250, 5_000),
        )],
        None,
    )
    .unwrap();
    for config in cells() {
        let cell = cell(&config);
        let mut srv = QueryServer::builder(&c).config(config).build().unwrap();
        srv.submit(Submission::new(q.clone())).unwrap();
        srv.submit(Submission::new(other.clone())).unwrap();
        let (handles, stats) = srv.serve();
        assert_eq!(
            stats.shared_memos, 0,
            "{cell}: different sieves must not share a verdict cache"
        );
        for (spec, h) in [&q, &other].into_iter().zip(&handles) {
            let rep = &h.report.as_ref().expect("completed").report;
            let expected = reference::canonical(&c, spec, &reference::execute(&c, spec));
            assert_eq!(rep.canonical(&c, spec), expected, "{cell}");
        }
    }
}

/// A self-join claims its shared entry once: the first instance folds,
/// the second stays private (two dictionaries), and a second identical
/// query still folds onto the same single entry.
#[test]
fn self_join_keeps_second_instance_private() {
    let (c, r, _s, _t) = family_catalog();
    let q = QuerySpec::new(
        &c,
        vec![inst(r, "r1"), inst(r, "r2")],
        vec![
            Predicate::join(
                PredId(0),
                ColRef::new(TableIdx(0), 1),
                CmpOp::Eq,
                ColRef::new(TableIdx(1), 1),
            ),
            Predicate::selection(
                PredId(1),
                ColRef::new(TableIdx(0), 0),
                CmpOp::Lt,
                Value::Int(5),
            ),
        ],
        None,
    )
    .unwrap();
    for config in cells() {
        let cell = cell(&config);
        let (reports, stats) = run_server(&c, &[q.clone(), q.clone()], &config, true);
        assert_eq!(
            stats.shared_stems, 1,
            "{cell}: self-join must not share both instances"
        );
        let solo = run_server(&c, std::slice::from_ref(&q), &config, true)
            .0
            .remove(0)
            .report;
        for (i, sr) in reports.iter().enumerate() {
            assert_matches_reference(&c, &q, &sr.report, &format!("self-join q{i} {cell}"));
            assert_reports_identical(&sr.report, &solo, &format!("self-join q{i} vs solo {cell}"));
        }
    }
}
