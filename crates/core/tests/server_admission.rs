//! Admission control, deadlines and cancellation for the multi-query
//! server: budget boundaries (inclusive), the queue-vs-shed policy flip,
//! eviction under byte pressure, forced progress when a budget can never
//! free, cancellation racing a late-admission replay, the `max_time`
//! reaper (the PR 7 dead knob), and the typed [`ServerError`] surface.

use stems_catalog::{reference, Catalog, QuerySpec, ScanSpec, SourceId, TableDef, TableInstance};
use stems_core::{
    AdmissionPolicy, EddyExecutor, ExecConfig, QueryServer, QueryStatus, Report, ServerError,
    Submission,
};
use stems_core::{QueryHandle, QueryId, ServerStats};
use stems_types::{CmpOp, ColRef, ColumnType, PredId, Predicate, Schema, TableIdx, Value};

/// R(key, a=key%10) x60 @2000tps, S(x, y=x%5) x10 @1000, T(z, w=z*100)
/// x5 @500 — the `server_folding.rs` family. A shape-0 query (R⋈S⋈T)
/// builds exactly 60 + 10 + 5 = 75 shared rows across 3 registry
/// entries, and its scans span ≈30ms of virtual time.
fn family_catalog() -> (Catalog, SourceId, SourceId, SourceId) {
    family_catalog_with(ScanSpec::with_rate(2000.0))
}

/// [`family_catalog`] with `r_scan` as R's scan.
fn family_catalog_with(r_scan: ScanSpec) -> (Catalog, SourceId, SourceId, SourceId) {
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
    c.add_scan(r, r_scan).unwrap();
    c.add_scan(s, ScanSpec::with_rate(1000.0)).unwrap();
    c.add_scan(t, ScanSpec::with_rate(500.0)).unwrap();
    (c, r, s, t)
}

fn inst(source: SourceId, alias: &str) -> TableInstance {
    TableInstance {
        source,
        alias: alias.into(),
    }
}

/// The shape-0 three-way join: R⋈S on a=x, S⋈T on y=z, R.key < 30.
fn three_way(c: &Catalog, r: SourceId, s: SourceId, t: SourceId) -> QuerySpec {
    QuerySpec::new(
        c,
        vec![inst(r, "r"), inst(s, "s"), inst(t, "t")],
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
            Predicate::selection(
                PredId(2),
                ColRef::new(TableIdx(0), 0),
                CmpOp::Lt,
                Value::Int(30),
            ),
        ],
        None,
    )
    .unwrap()
}

/// Every configuration a test is repeated in: routing batch size 1 (the
/// paper's tuple-at-a-time eddy) and 64 (the batched default), crossed
/// with wave-drain worker budgets 1, 2 and 4.
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

/// Virtual instant comfortably after every scan closed and every build
/// wave was delivered (the `server_folding.rs` late-admission margin).
const AFTER_ALL_STREAMS: u64 = 60_000;

fn assert_reports_identical(got: &Report, want: &Report, ctx: &str) {
    assert_eq!(got.results, want.results, "{ctx}: ordered results differ");
    assert_eq!(got.end_time, want.end_time, "{ctx}: end_time differs");
    assert_eq!(got.events, want.events, "{ctx}: event count differs");
    assert_eq!(got.metrics, want.metrics, "{ctx}: metrics differ");
}

fn assert_matches_reference(c: &Catalog, q: &QuerySpec, report: &Report, ctx: &str) {
    let expected = reference::canonical(c, q, &reference::execute(c, q));
    assert_eq!(report.canonical(c, q), expected, "{ctx}: wrong result set");
}

fn solo_report(c: &Catalog, q: &QuerySpec, config: &ExecConfig) -> Report {
    let mut srv = QueryServer::builder(c)
        .config(config.clone())
        .build()
        .unwrap();
    srv.submit(Submission::new(q.clone())).unwrap();
    let (handles, _) = srv.serve();
    handles
        .into_iter()
        .next()
        .unwrap()
        .report
        .expect("solo query completes")
        .report
}

fn serve_two(
    c: &Catalog,
    q: &QuerySpec,
    config: &ExecConfig,
    build: impl FnOnce(stems_core::ServerBuilder<'_>) -> stems_core::ServerBuilder<'_>,
) -> (Vec<QueryHandle>, ServerStats) {
    let mut srv = build(QueryServer::builder(c).config(config.clone()))
        .build()
        .unwrap();
    srv.submit(Submission::new(q.clone())).unwrap();
    srv.submit(Submission::new(q.clone()).at(AFTER_ALL_STREAMS))
        .unwrap();
    srv.serve()
}

/// The budget boundary is inclusive: a late admission that finds usage
/// *exactly at* the build budget still admits without queueing; one
/// build under the budget queues it.
#[test]
fn builds_budget_boundary_is_inclusive() {
    let (c, r, s, t) = family_catalog();
    let q = three_way(&c, r, s, t);
    for config in cells() {
        let cell = cell(&config);
        // Exactly at: the first query built 75 rows; budget 75 admits.
        let (handles, stats) = serve_two(&c, &q, &config, |b| b.shared_builds_budget(75));
        assert_eq!(stats.shared_builds, 75, "{cell}");
        assert_eq!(stats.queued, 0, "{cell}: usage == budget must not queue");
        for h in &handles {
            assert_eq!(h.status, QueryStatus::Completed, "{cell}");
        }
        assert_matches_reference(
            &c,
            &q,
            &handles[1].report.as_ref().unwrap().report,
            &format!("boundary late admit {cell}"),
        );
        // One under: budget 74 queues the late query. A cumulative build
        // budget can never free, so once the server idles the head is
        // force-admitted (fresh private entries — more builds) rather than
        // stranded.
        let (handles, stats) = serve_two(&c, &q, &config, |b| b.shared_builds_budget(74));
        assert_eq!(stats.queued, 1, "{cell}: usage > budget must queue");
        for h in &handles {
            assert_eq!(h.status, QueryStatus::Completed, "{cell}: forced progress");
        }
        assert_matches_reference(
            &c,
            &q,
            &handles[1].report.as_ref().unwrap().report,
            &format!("queued late admit {cell}"),
        );
    }
}

/// Flipping the policy to shed turns the same over-budget admission into
/// a terminal [`QueryStatus::Shed`] with no execution and no report.
#[test]
fn shed_policy_rejects_what_queue_defers() {
    let (c, r, s, t) = family_catalog();
    let q = three_way(&c, r, s, t);
    for config in cells() {
        let cell = cell(&config);
        let (handles, stats) = serve_two(&c, &q, &config, |b| {
            b.shared_builds_budget(74).admission(AdmissionPolicy::Shed)
        });
        assert_eq!(stats.shed, 1, "{cell}");
        assert_eq!(stats.queued, 0, "{cell}");
        assert_eq!(handles[0].status, QueryStatus::Completed, "{cell}");
        assert_eq!(handles[1].status, QueryStatus::Shed, "{cell}");
        assert!(
            handles[1].report.is_none(),
            "{cell}: shed queries never run"
        );
        // Shedding the newcomer must not perturb the survivor.
        let solo = solo_report(&c, &q, &config);
        assert_reports_identical(
            &handles[0].report.as_ref().unwrap().report,
            &solo,
            &format!("survivor of a shed {cell}"),
        );
    }
}

/// Byte pressure: a zero-byte budget admits the first query (usage is
/// observed, and zero, at its admission instant), queues the second, and
/// frees room by evicting the first query's now-idle entries — the
/// registry shrinks instead of the queue stranding.
#[test]
fn byte_budget_queues_then_evicts_idle_entries() {
    let (c, r, s, t) = family_catalog();
    let q = three_way(&c, r, s, t);
    for config in cells() {
        let cell = cell(&config);
        let (handles, stats) = serve_two(&c, &q, &config, |b| b.stem_bytes_budget(0));
        assert_eq!(stats.queued, 1, "{cell}");
        assert_eq!(
            stats.evicted_stems, 3,
            "{cell}: all three idle entries evicted"
        );
        assert_eq!(
            stats.shared_stems, 6,
            "the late query rebuilt the three evicted entries"
        );
        assert!(stats.stem_bytes_peak > 0, "{cell}");
        for h in &handles {
            assert_eq!(h.status, QueryStatus::Completed, "{cell}");
        }
        assert_matches_reference(
            &c,
            &q,
            &handles[1].report.as_ref().unwrap().report,
            &format!("post-eviction admit {cell}"),
        );
    }
}

/// Cancellation racing a late-admission replay, both orders. A query
/// cancelled at its own admission instant activates (catch-up replay),
/// then retires Cancelled with its partial report; one cancelled before
/// its admission never runs. Either way the cancellation is invisible to
/// the surviving query — bit-identical to its solo run.
#[test]
fn cancellation_races_late_admission_replay() {
    let (c, r, s, t) = family_catalog();
    let q = three_way(&c, r, s, t);
    for config in cells() {
        let cell = cell(&config);
        let mut srv = QueryServer::builder(&c)
            .config(config.clone())
            .build()
            .unwrap();
        srv.submit(Submission::new(q.clone())).unwrap();
        // Admit and Cancel land on the same instant, FIFO: the replay wins
        // the race, the cancellation reaps it one event later.
        srv.submit(Submission::new(q.clone()).at(5_000).cancel_at(5_000))
            .unwrap();
        // Cancel lands first: the admission finds the query already
        // terminal and is a no-op.
        srv.submit(Submission::new(q.clone()).at(5_000).cancel_at(4_000))
            .unwrap();
        let (handles, stats) = srv.serve();
        assert_eq!(stats.cancelled, 2, "{cell}");
        assert_eq!(handles[1].status, QueryStatus::Cancelled, "{cell}");
        assert!(
            handles[1].report.is_some(),
            "cancelled-while-running keeps its partial report"
        );
        assert_eq!(handles[2].status, QueryStatus::Cancelled, "{cell}");
        assert!(
            handles[2].report.is_none(),
            "cancelled-before-admission never ran"
        );
        let solo = solo_report(&c, &q, &config);
        assert_eq!(handles[0].status, QueryStatus::Completed, "{cell}");
        assert_reports_identical(
            &handles[0].report.as_ref().unwrap().report,
            &solo,
            &format!("survivor of two cancellations {cell}"),
        );
    }
}

/// Both deadline surfaces are enforced by the server loop: an
/// executor-level `ExecConfig::max_time` (the PR 7 dead knob) is reaped
/// with a partial report and terminal [`QueryStatus::TimedOut`], and a
/// relative [`Submission::deadline`] resolves against the admission
/// instant.
#[test]
fn max_time_is_reaped_on_both_surfaces() {
    let (c, r, s, t) = family_catalog();
    let q = three_way(&c, r, s, t);
    for config in cells() {
        let cell = cell(&config);
        let solo = solo_report(&c, &q, &config);
        let capped = ExecConfig {
            max_time: Some(10_000),
            ..config.clone()
        };
        let mut srv = QueryServer::builder(&c)
            .config(config.clone())
            .build()
            .unwrap();
        srv.submit(Submission::new(q.clone()).config(capped.clone()))
            .unwrap();
        let (handles, stats) = srv.serve();
        assert_eq!(stats.timed_out, 1, "{cell}");
        assert_eq!(handles[0].status, QueryStatus::TimedOut, "{cell}");
        let reaped = handles[0].report.as_ref().expect("partial report");
        assert!(
            reaped.report.end_time < solo.end_time,
            "deadline must cut the run short ({} vs {})",
            reaped.report.end_time,
            solo.end_time
        );
        // Relative deadline: admitted at 5_000 with a 7_000µs lifetime —
        // reaped around virtual 12_000, long before the solo end.
        let mut srv = QueryServer::builder(&c)
            .config(config.clone())
            .build()
            .unwrap();
        srv.submit(Submission::new(q.clone()).at(5_000).deadline(7_000))
            .unwrap();
        let (handles, stats) = srv.serve();
        assert_eq!(stats.timed_out, 1, "{cell}");
        assert_eq!(handles[0].status, QueryStatus::TimedOut, "{cell}");
        let h = handles[0].report.as_ref().expect("partial report");
        assert_eq!(h.admitted_at, 5_000, "{cell}");
        assert!(
            h.completed_at >= 5_000 && h.completed_at < solo.end_time,
            "{cell}"
        );
    }
}

/// With folding off, a late query's clock starts at its admission: it
/// takes exactly as long as its solo run (as it does folded), and a
/// relative deadline still reaps it.
#[test]
fn fold_off_late_admission_starts_its_clock_at_admission() {
    let (c, r, s, t) = family_catalog();
    let q = three_way(&c, r, s, t);
    for config in cells() {
        let cell = cell(&config);
        let solo = EddyExecutor::build(&c, &q, config.clone()).unwrap().run();
        let late = |fold: bool| {
            let mut srv = QueryServer::builder(&c)
                .config(config.clone())
                .fold(fold)
                .build()
                .unwrap();
            srv.submit(Submission::new(q.clone()).at(50_000)).unwrap();
            srv.submit(Submission::new(q.clone()).at(50_000).deadline(7_000))
                .unwrap();
            srv.serve().0
        };
        for fold in [false, true] {
            let handles = late(fold);
            assert_eq!(
                handles[0].status,
                QueryStatus::Completed,
                "{cell}: fold {fold}"
            );
            let sr = handles[0].report.as_ref().expect("completed");
            assert_eq!(sr.admitted_at, 50_000, "{cell}");
            assert!(sr.completed_at >= sr.admitted_at, "{cell}: fold {fold}");
            assert_eq!(sr.latency(), solo.end_time, "{cell}: fold {fold}");
            assert_eq!(
                handles[1].status,
                QueryStatus::TimedOut,
                "{cell}: fold {fold}"
            );
            let reaped = handles[1].report.as_ref().expect("partial report");
            assert!(reaped.completed_at < sr.completed_at, "{cell}: fold {fold}");
        }
    }
}

/// Stall windows are absolute virtual instants, for a late query's first
/// scan emission as for every later one, folded or not: a window that
/// closed before the admission delays nothing, and one open at the
/// admission holds the first emission back to its end.
#[test]
fn late_admission_meets_stall_windows_at_their_absolute_instants() {
    let rate = || ScanSpec::with_rate(2000.0);
    for config in cells() {
        let cell = cell(&config);
        let solo = |r_scan: ScanSpec| {
            let (c, r, s, t) = family_catalog_with(r_scan);
            EddyExecutor::build(&c, &three_way(&c, r, s, t), config.clone())
                .unwrap()
                .run()
        };
        let latency = |r_scan: ScanSpec, fold: bool| {
            let (c, r, s, t) = family_catalog_with(r_scan);
            let mut srv = QueryServer::builder(&c)
                .config(config.clone())
                .fold(fold)
                .build()
                .unwrap();
            srv.submit(Submission::new(three_way(&c, r, s, t)).at(50_000))
                .unwrap();
            let (handles, _) = srv.serve();
            assert_eq!(
                handles[0].status,
                QueryStatus::Completed,
                "{cell}: fold {fold}"
            );
            let sr = handles[0].report.as_ref().expect("completed");
            assert_eq!(sr.admitted_at, 50_000, "{cell}");
            sr.latency()
        };
        let unstalled = solo(rate()).end_time;
        // The same 20 000 µs window, open from the query's own start.
        let stalled_at_start = solo(rate().stalled_during(0, 20_000)).end_time;
        assert!(stalled_at_start > unstalled, "{cell}");
        for fold in [false, true] {
            let closed = latency(rate().stalled_during(0, 10_000), fold);
            assert_eq!(
                closed, unstalled,
                "fold {fold}: a closed window delayed the query"
            );
            let open = latency(rate().stalled_during(50_000, 70_000), fold);
            assert_eq!(
                open, stalled_at_start,
                "fold {fold}: an open window was skipped"
            );
        }
    }
}

/// Every rejection is a typed [`ServerError`], not a stringly one:
/// zero deadlines (builder and submission), the submission cap, and
/// cancelling an id the server never issued.
#[test]
fn server_errors_are_typed() {
    let (c, r, s, t) = family_catalog();
    let q = three_way(&c, r, s, t);
    let err = QueryServer::builder(&c)
        .config(ExecConfig::default())
        .default_deadline(0)
        .build()
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(err, ServerError::InvalidDeadline { deadline: 0 }));
    let mut srv = QueryServer::builder(&c)
        .config(ExecConfig::default())
        .max_queries(1)
        .build()
        .unwrap();
    let err = srv
        .submit(Submission::new(q.clone()).deadline(0))
        .unwrap_err();
    assert!(matches!(err, ServerError::InvalidDeadline { deadline: 0 }));
    srv.submit(Submission::new(q.clone())).unwrap();
    let err = srv.submit(Submission::new(q.clone())).unwrap_err();
    assert!(matches!(
        err,
        ServerError::BudgetExhausted {
            admitted: 1,
            max_queries: 1
        }
    ));
    let err = srv.cancel(QueryId(7), 0).unwrap_err();
    assert!(matches!(err, ServerError::UnknownQuery { id: 7 }));
    // The messages carry the context (Display is part of the surface).
    assert!(err.to_string().contains("unknown query id 7"));
}

/// The self-join R⋈R on `a`, `r1.key < 5`: its first instance folds onto
/// the shape-0 query's R entry, its second stays private and is fed raw.
fn self_join(c: &Catalog, r: SourceId) -> QuerySpec {
    QuerySpec::new(
        c,
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
    .unwrap()
}

/// FNV-1a, so a pinned digest does not depend on the standard library's
/// hasher.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Ordered results, build timestamps included.
fn results_digest(report: &Report) -> u64 {
    let mut h = Fnv::new();
    for tuple in &report.results {
        for c in tuple.components() {
            h.bytes(format!("{}:{}@{};", c.table, c.row, c.ts).as_bytes());
        }
        h.bytes(b"|");
    }
    h.0
}

/// Every recorded metric: name, counter and series points.
fn metrics_digest(report: &Report) -> u64 {
    let mut h = Fnv::new();
    for name in report.metrics.names() {
        h.bytes(name.as_bytes());
        h.u64(report.metrics.counter(name));
        for &(t, v) in report.metrics.series(name).map_or(&[][..], |s| s.points()) {
            h.u64(t);
            h.u64(v.to_bits());
        }
    }
    h.0
}

/// What a pinned handle must read: status, `admitted_at`,
/// `completed_at`, `events`, result count and the two digests.
type Pinned = (QueryStatus, u64, u64, u64, usize, u64, u64);

/// The late-admission timeline, pinned for both subscription kinds: a
/// shape-0 query at 0; a self-join (first instance folded, second raw) at
/// 5 000, 11 000 and 60 000 — mid-scan, as EOTs land, and after every
/// stream closed; one query cancelled mid-run; one reaped at its
/// deadline. Every handle and the stats must read the same at workers 1,
/// 2 and 4 (the batch size is fixed: a different one is a different
/// timeline).
#[test]
fn late_admission_timeline_is_pinned() {
    let (c, r, s, t) = family_catalog();
    let three = three_way(&c, r, s, t);
    let join = self_join(&c, r);
    let run = |workers: usize| {
        let mut srv = QueryServer::builder(&c)
            .config(ExecConfig {
                check_constraints: true,
                workers,
                batch_size: 64,
                ..ExecConfig::default()
            })
            .build()
            .unwrap();
        srv.submit(Submission::new(three.clone())).unwrap();
        for at in [5_000, 11_000, AFTER_ALL_STREAMS] {
            srv.submit(Submission::new(join.clone()).at(at)).unwrap();
        }
        srv.submit(Submission::new(join.clone()).at(3_000).cancel_at(9_000))
            .unwrap();
        srv.submit(Submission::new(three.clone()).at(8_000).deadline(6_000))
            .unwrap();
        srv.serve()
    };
    use QueryStatus::{Cancelled, Completed, TimedOut};
    let pinned: [Pinned; 6] = [
        (
            Completed,
            0,
            30_520,
            280,
            30,
            1285523276065710944,
            4246236017495101262,
        ),
        (
            Completed,
            5_000,
            30_520,
            317,
            30,
            15125276972447277998,
            9274036932279271147,
        ),
        (
            Completed,
            11_000,
            30_520,
            245,
            30,
            8860039652233999383,
            5891898649908089334,
        ),
        (
            Completed,
            60_000,
            63_170,
            8,
            30,
            2127919492103755437,
            2589627747076088881,
        ),
        (
            Cancelled,
            3_000,
            8_550,
            81,
            10,
            15915527759278874700,
            4835613674176683900,
        ),
        (
            TimedOut,
            8_000,
            14_020,
            106,
            27,
            392123038020587740,
            12952515206032343335,
        ),
    ];
    let want_stats = ServerStats {
        shared_stems: 3,
        scan_streams: 3,
        shared_builds: 75,
        stem_bytes_peak: 11_272,
        evicted_stems: 0,
        shared_memos: 0,
        queued: 0,
        shed: 0,
        timed_out: 1,
        cancelled: 1,
    };
    for workers in [1usize, 2, 4] {
        let (handles, stats) = run(workers);
        let got: Vec<Pinned> = handles
            .iter()
            .map(|h| {
                let sr = h.report.as_ref().expect("every query ran");
                (
                    h.status,
                    sr.admitted_at,
                    sr.completed_at,
                    sr.report.events,
                    sr.report.results.len(),
                    results_digest(&sr.report),
                    metrics_digest(&sr.report),
                )
            })
            .collect();
        for h in &handles {
            let sr = h.report.as_ref().unwrap();
            assert!(
                sr.report.violations.is_empty(),
                "{:?}",
                sr.report.violations
            );
        }
        assert_eq!(got, pinned, "handles at workers {workers}");
        assert_eq!(stats, want_stats, "stats at workers {workers}");
    }
}
