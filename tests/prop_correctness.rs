//! Property-based verification of the paper's correctness theorems.
//!
//! Theorem 1 (Duplicate Avoidance) and Theorem 2 (Correctness) say that
//! *any* routing policy satisfying the Table 2 constraints produces the
//! exact query result in finitely many steps. The constraint layer is
//! baked into the engine, so the property we can actually test is: for
//! randomized schemas, data, join topologies, access-method mixes, store
//! backends, policies and seeds, the eddy's output equals the reference
//! executor's (`stems_catalog::reference`, which shares no key normal form
//! with the engine) — no duplicates, no misses, and the run
//! terminates (no livelock, checked by the engine's event guard).
//!
//! Cases are generated by the workspace's own seeded [`SimRng`], keeping
//! the suite dependency-free; every assertion names the case seed so a
//! failure is reproducible by construction.

use stems::catalog::{reference, Catalog, IndexSpec, QuerySpec, ScanSpec, TableInstance};
use stems::core::plan::PlanOptions;
use stems::core::StemOptions;
use stems::prelude::*;
use stems::sim::SimRng;
use stems::storage::StoreKind;

#[derive(Debug, Clone)]
struct TableSpec {
    rows: Vec<(i64, i64)>, // (serial key, join value)
    scan_rate: f64,
    /// Index on the join value column (col 1) in addition to the scan.
    extra_index: bool,
}

#[derive(Debug, Clone, Copy)]
enum Topology {
    Chain,
    Star,
    Cycle,
}

#[derive(Debug, Clone)]
struct Case {
    tables: Vec<TableSpec>,
    topology: Topology,
    policy: u8,
    seed: u64,
    store: u8,
    /// Constant for an extra selection on table 0 (None = no selection).
    selection_lt: Option<i64>,
}

fn table_spec(rng: &mut SimRng, max_rows: usize, distinct: i64) -> TableSpec {
    let n = rng.below(max_rows as u64) as usize;
    TableSpec {
        rows: (0..n)
            .map(|i| (i as i64, rng.below(distinct as u64) as i64))
            .collect(),
        scan_rate: 100.0 + rng.unit() * 1900.0,
        extra_index: rng.chance(0.5),
    }
}

fn case(rng: &mut SimRng) -> Case {
    let n_tables = 2 + rng.below(2) as usize;
    Case {
        tables: (0..n_tables).map(|_| table_spec(rng, 18, 6)).collect(),
        topology: match rng.below(3) {
            0 => Topology::Chain,
            1 => Topology::Star,
            _ => Topology::Cycle,
        },
        policy: rng.below(3) as u8,
        seed: rng.next_u64(),
        // Folded onto the three kinds by `store_of`; the width of the
        // draw fixes what every later field of the case is.
        store: rng.below(5) as u8,
        selection_lt: if rng.chance(0.5) {
            Some(rng.range_inclusive(0, 5))
        } else {
            None
        },
    }
}

fn build_case(case: &Case) -> (Catalog, QuerySpec) {
    let mut catalog = Catalog::new();
    let mut sources = Vec::new();
    for (i, t) in case.tables.iter().enumerate() {
        let def = TableDef::new(
            &format!("t{i}"),
            Schema::of(&[("k", ColumnType::Int), ("v", ColumnType::Int)]),
        )
        .with_rows(
            t.rows
                .iter()
                .map(|(k, v)| vec![Value::Int(*k), Value::Int(*v)])
                .collect(),
        );
        let id = catalog.add_table(def).expect("table");
        catalog
            .add_scan(id, ScanSpec::with_rate(t.scan_rate))
            .expect("scan");
        if t.extra_index {
            catalog
                .add_index(id, IndexSpec::new(vec![1], 5_000))
                .expect("index");
        }
        sources.push(id);
    }

    let n = sources.len();
    let mut preds = Vec::new();
    let push_join = |a: usize, b: usize, preds: &mut Vec<Predicate>| {
        preds.push(Predicate::join(
            PredId(preds.len() as u16),
            ColRef::new(TableIdx(a as u8), 1),
            CmpOp::Eq,
            ColRef::new(TableIdx(b as u8), 1),
        ));
    };
    match case.topology {
        Topology::Chain => {
            for i in 0..n - 1 {
                push_join(i, i + 1, &mut preds);
            }
        }
        Topology::Star => {
            for i in 1..n {
                push_join(0, i, &mut preds);
            }
        }
        Topology::Cycle => {
            for i in 0..n - 1 {
                push_join(i, i + 1, &mut preds);
            }
            if n > 2 {
                push_join(0, n - 1, &mut preds);
            }
        }
    }
    if let Some(c) = case.selection_lt {
        preds.push(Predicate::selection(
            PredId(preds.len() as u16),
            ColRef::new(TableIdx(0), 1),
            CmpOp::Lt,
            Value::Int(c),
        ));
    }
    let query = QuerySpec::new(
        &catalog,
        sources
            .iter()
            .enumerate()
            .map(|(i, s)| TableInstance {
                source: *s,
                alias: format!("t{i}"),
            })
            .collect(),
        preds,
        None,
    )
    .expect("query");
    (catalog, query)
}

fn policy_of(case: &Case) -> RoutingPolicyKind {
    match case.policy {
        0 => RoutingPolicyKind::Fixed { probe_order: None },
        1 => RoutingPolicyKind::Lottery,
        _ => RoutingPolicyKind::BenefitCost {
            epsilon: 0.25,
            drop_rate: 1.0,
        },
    }
}

fn store_of(case: &Case) -> StoreKind {
    match case.store % 3 {
        0 => StoreKind::List,
        1 => StoreKind::Hash,
        _ => StoreKind::Adaptive { threshold: 4 },
    }
}

const CASES: u64 = 48;

/// The routing batch sizes every case runs at: 1 is the paper's
/// tuple-at-a-time eddy, 64 the batched default.
const BATCH_SIZES: [usize; 2] = [1, 64];

/// `config` at every batch size in [`BATCH_SIZES`].
fn at_each_batch(config: ExecConfig) -> impl Iterator<Item = ExecConfig> {
    BATCH_SIZES.into_iter().map(move |batch_size| ExecConfig {
        batch_size,
        ..config.clone()
    })
}

/// Theorems 1–2: exact results, any topology × policy × store × seed.
#[test]
fn eddy_matches_reference() {
    for i in 0..CASES {
        let mut rng = SimRng::new(0xC0FFEE ^ i);
        let case = case(&mut rng);
        let (catalog, query) = build_case(&case);
        let config = ExecConfig {
            policy: policy_of(&case),
            seed: case.seed,
            plan: PlanOptions {
                default_stem: StemOptions {
                    store: store_of(&case),
                    ..StemOptions::default()
                },
                ..PlanOptions::default()
            },
            check_constraints: true,
            max_events: 20_000_000,
            ..ExecConfig::default()
        };
        let expected =
            reference::canonical(&catalog, &query, &reference::execute(&catalog, &query));
        for config in at_each_batch(config) {
            let batch = config.batch_size;
            let report = EddyExecutor::build(&catalog, &query, config)
                .expect("plan")
                .run();
            assert!(
                report.violations.is_empty(),
                "case {i} batch {batch}: violations: {:?}",
                report.violations
            );
            let got = report.canonical(&catalog, &query);
            let summary = report.summary();
            assert_eq!(got, expected, "case {i} batch {batch} mismatch: {summary}");
        }
    }
}

/// The §3.5 relaxation preserves exactness whenever it is legal
/// (single-scan table, no self-join).
#[test]
fn relaxed_buildfirst_matches_reference() {
    for i in 0..CASES {
        let mut rng = SimRng::new(0xBEEF ^ i);
        let mut case = case(&mut rng);
        // Make table 0 eligible: single scan AM.
        case.tables[0].extra_index = false;
        let (catalog, query) = build_case(&case);
        let config = ExecConfig {
            policy: policy_of(&case),
            seed: case.seed,
            plan: PlanOptions {
                no_stem: TableSet::single(TableIdx(0)),
                ..PlanOptions::default()
            },
            check_constraints: true,
            max_events: 20_000_000,
            ..ExecConfig::default()
        };
        let expected =
            reference::canonical(&catalog, &query, &reference::execute(&catalog, &query));
        for config in at_each_batch(config) {
            let batch = config.batch_size;
            let report = EddyExecutor::build(&catalog, &query, config)
                .expect("plan")
                .run();
            assert!(
                report.violations.is_empty(),
                "case {i} batch {batch}: violations: {:?}",
                report.violations
            );
            let got = report.canonical(&catalog, &query);
            assert_eq!(got, expected, "case {i} batch {batch}");
        }
    }
}

/// Determinism: identical configuration ⇒ identical execution trace.
#[test]
fn identical_runs_are_identical() {
    for i in 0..CASES {
        let mut rng = SimRng::new(0xD3 ^ i);
        let case = case(&mut rng);
        let (catalog, query) = build_case(&case);
        let config = ExecConfig {
            policy: policy_of(&case),
            seed: case.seed,
            ..ExecConfig::default()
        };
        for config in at_each_batch(config) {
            let batch = config.batch_size;
            let a = EddyExecutor::build(&catalog, &query, config.clone())
                .expect("plan")
                .run();
            let b = EddyExecutor::build(&catalog, &query, config)
                .expect("plan")
                .run();
            assert_eq!(a.end_time, b.end_time, "case {i} batch {batch}");
            assert_eq!(a.events, b.events, "case {i} batch {batch}");
            assert_eq!(a.results.len(), b.results.len(), "case {i} batch {batch}");
        }
    }
}
