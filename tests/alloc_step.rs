//! A whole-executor allocation gate: what one more routed tuple costs.
//!
//! `tests/alloc_route.rs` and `tests/alloc_probe.rs` pin single layers;
//! this one runs whole queries to completion and pins the eddy around
//! them. The envelope is the unit of memory: wave buffers, group
//! signatures, candidate and hint lists, build results, index-probe
//! outcomes and the Select hop's kernel and UDF scratch (verdicts, fused
//! verdicts, keyed rows, dedup chains) are all recycled, and the
//! per-query predicate tables are built once at plan time — so running a
//! query over 4× the rows may allocate only for the rows themselves. What
//! one more routed tuple may still cost is
//!
//! * one component vector per *concatenation* that survives its probe's
//!   predicates (a singleton — scanned, stamped at its build, bounced,
//!   filtered — carries its component inline, and a candidate the
//!   predicates reject is never concatenated), a lookup key and its
//!   bookkeeping copies at an index probe, and
//! * amortised growth: metric series (one point per instant of each
//!   counter something plots — the rest are counts, with no series), SteM
//!   slabs and indexes, the result vector, the agenda.
//!
//! The test measures the *extra* allocations of the larger run over the
//! smaller one — plan-time tables, warm-up and every per-query constant
//! cancel — divided by its extra routed tuples, and holds that to a
//! ceiling a little above what those two items come to (0.20 on the
//! tuple-at-a-time query, 0.21 on the batched chain, 0.112 on the
//! selective probe, which read 0.123 while each Select envelope allocated
//! its verdicts and working lists, and 0.31 while a probe concatenated
//! every candidate before testing it). An engine that keeps
//! a curve for every counter reads 0.53 on the tuple-at-a-time query; a
//! `Tuple` that heap-allocates its singletons reads 1.20 and 1.06; one
//! buffer allocated per envelope shows as ≥ 1 more on the tuple-at-a-time
//! query; an engine that allocates its deliveries, groups, envelopes and
//! predicate lists per envelope reads 11.25 and 1.47.
//!
//! Counts are per thread (`tests/common/`), so the two tests cannot
//! see each other or the harness, and every `ExecConfig` field is spelled
//! out, so a change to the defaults moves no count.

mod common;

use common::counted;
use stems::catalog::{Catalog, IndexSpec, QuerySpec, ScanSpec, TableDef};
use stems::core::engine::CostModel;
use stems::core::plan::PlanOptions;
use stems::core::{EddyExecutor, ExecConfig, Report, RoutingPolicyKind};
use stems::sql::parse_query;
use stems::types::{ColumnType, Schema, Value};

/// Every field spelled out: a change to `ExecConfig::default()` moves no
/// count.
fn config(policy: RoutingPolicyKind, batch_size: usize) -> ExecConfig {
    ExecConfig {
        policy,
        seed: 2003,
        costs: CostModel::default(),
        plan: PlanOptions::default(),
        probe_edges: None,
        priority_pred: None,
        batch_size,
        num_shards: 1,
        workers: 1,
        parallel_min_rows: 1,
        fuse_selections: true,
        memo: true,
        memo_bytes: 1 << 20,
        udf_dedup: true,
        max_hops: 1_000_000,
        max_events: 200_000_000,
        max_time: None,
        check_constraints: false,
        trace: false,
        trace_limit: 100_000,
    }
}

fn int_table(name: &str, cols: &[&str], rows: Vec<Vec<i64>>) -> TableDef {
    let schema: Vec<(&str, ColumnType)> = cols.iter().map(|c| (*c, ColumnType::Int)).collect();
    let rows = rows
        .into_iter()
        .map(|r| r.into_iter().map(Value::Int).collect())
        .collect();
    TableDef::new(name, Schema::of(&schema)).with_rows(rows)
}

/// Paper Table 3 Q4's shape: R scans in; T arrives by a slower scan *and*
/// answers index lookups on `key`, four R rows per key; tuple at a time.
fn index_hybrid(rows: usize) -> (Catalog, QuerySpec, ExecConfig) {
    let n = rows as i64;
    let mut c = Catalog::new();
    let r_rows = (0..n).map(|i| vec![i, (i * 7) % (n / 4)]).collect();
    let r = c.add_table(int_table("R", &["key", "a"], r_rows)).unwrap();
    let t_rows = (0..n).map(|i| vec![(i * 13) % n]).collect();
    let t = c.add_table(int_table("T", &["key"], t_rows)).unwrap();
    c.add_scan(r, ScanSpec::with_rate(1_700.0)).unwrap();
    c.add_scan(t, ScanSpec::with_rate(700.0)).unwrap();
    c.add_index(t, IndexSpec::new(vec![0], 180_000)).unwrap();
    let q = parse_query(&c, "SELECT * FROM R, T WHERE R.a = T.key").unwrap();
    let policy = RoutingPolicyKind::BenefitCost {
        epsilon: 0.05,
        drop_rate: 1.0,
    };
    (c, q, config(policy, 1))
}

/// A 3-table chain with a selection, scans in chunks of 64, envelopes of
/// up to 64.
fn chain(rows: usize) -> (Catalog, QuerySpec, ExecConfig) {
    let n = rows as i64;
    let mut c = Catalog::new();
    let r_rows = (0..n).map(|i| vec![(i * 7) % n, i % 100]).collect();
    let s_rows = (0..n).map(|i| vec![i, (i * 11) % n]).collect();
    let t_rows = (0..n).map(|i| vec![i]).collect();
    for (name, cols, rows) in [
        ("R", &["a", "c"][..], r_rows),
        ("S", &["x", "y"][..], s_rows),
        ("T", &["b"][..], t_rows),
    ] {
        let id = c.add_table(int_table(name, cols, rows)).unwrap();
        c.add_scan(id, ScanSpec::with_rate(1e6).with_chunk(64))
            .unwrap();
    }
    let sql = "SELECT * FROM R, S, T WHERE R.a = S.x AND S.y = T.b AND R.c < 50";
    let q = parse_query(&c, sql).unwrap();
    let policy = RoutingPolicyKind::Fixed { probe_order: None };
    (c, q, config(policy, 64))
}

/// `select_memo`'s shape: R scans in past a memoized `SIEVE` UDF, a small
/// D builds whole, and every R probe of D's SteM evaluates `D.g < 8` on
/// the built side, which rejects half of the candidates; scans in chunks
/// of 64, envelopes of up to 64.
fn select_memo(rows: usize) -> (Catalog, QuerySpec, ExecConfig) {
    const D_ROWS: i64 = 64;
    let n = rows as i64;
    let mut c = Catalog::new();
    let r_rows = (0..n).map(|i| vec![(i * 7) % 500, i % D_ROWS]).collect();
    let d_rows = (0..D_ROWS).map(|i| vec![i, i % 16]).collect();
    for (name, cols, rows) in [
        ("R", &["a", "k"][..], r_rows),
        ("D", &["key", "g"][..], d_rows),
    ] {
        let id = c.add_table(int_table(name, cols, rows)).unwrap();
        c.add_scan(id, ScanSpec::with_rate(1e6).with_chunk(64))
            .unwrap();
    }
    let sql = "SELECT * FROM R, D WHERE R.k = D.key AND SIEVE(R.a, 500, 200) AND D.g < 8";
    let q = parse_query(&c, sql).unwrap();
    let policy = RoutingPolicyKind::BenefitCost {
        epsilon: 0.05,
        drop_rate: 1.0,
    };
    (c, q, config(policy, 64))
}

/// Tuples that entered routing, from the counters of everything that
/// feeds it: scan emissions and their build bounce-backs, results formed,
/// probes bounced, selection survivors, AM probes, AM builds, unparks.
fn routed_tuples(report: &Report) -> u64 {
    let c = |name: &str| report.counter(name);
    let formed: u64 = report
        .metrics
        .series_names()
        .filter(|n| n.starts_with("span") && n.ends_with("_formed"))
        .map(c)
        .sum();
    2 * c("scanned")
        + formed
        + c("probes_bounced")
        + (c("sm_applied") - c("filtered"))
        + c("am_probe_choices")
        + c("am_fresh_builds")
        + c("am_dup_builds")
        + c("unparked")
}

/// `(allocations, routed tuples)` of one run to completion, the plan
/// included; the report is dropped outside the count.
fn run(setup: fn(usize) -> (Catalog, QuerySpec, ExecConfig), rows: usize) -> (usize, u64) {
    let (catalog, query, config) = setup(rows);
    let ((allocs, _), report) = counted(|| {
        EddyExecutor::build(&catalog, &query, config)
            .expect("plan")
            .run()
    });
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(!report.results.is_empty());
    (allocs, routed_tuples(&report))
}

/// Extra allocations per extra routed tuple when the same query runs over
/// 4× the rows.
fn marginal_allocs(setup: fn(usize) -> (Catalog, QuerySpec, ExecConfig), rows: usize) -> f64 {
    let (small_allocs, small_routed) = run(setup, rows);
    let (large_allocs, large_routed) = run(setup, 4 * rows);
    assert!(large_routed > 3 * small_routed, "the larger run routes ~4×");
    (large_allocs - small_allocs) as f64 / (large_routed - small_routed) as f64
}

#[test]
fn a_tuple_at_a_time_query_allocates_for_its_tuples_only() {
    let per_tuple = marginal_allocs(index_hybrid, 1_000);
    assert!(
        per_tuple <= 0.25,
        "index/hash hybrid at batch 1: {per_tuple:.2} allocations per extra routed tuple"
    );
}

#[test]
fn a_batched_chain_allocates_for_its_tuples_only() {
    let per_tuple = marginal_allocs(chain, 2_000);
    assert!(
        per_tuple <= 0.35,
        "3-table chain at batch 64: {per_tuple:.2} allocations per extra routed tuple"
    );
}

#[test]
fn a_selective_probe_allocates_for_its_survivors_only() {
    let per_tuple = marginal_allocs(select_memo, 2_000);
    assert!(
        per_tuple <= 0.12,
        "select_memo shape at batch 64: {per_tuple:.3} allocations per extra routed tuple"
    );
}
