//! Cross-crate integration tests: SQL → catalog → eddy → results, checked
//! against the reference executor and the baseline operators.

use stems::baseline::{
    grace_hash_join, index_join, sort_merge_join, symmetric_hash_join, ArrivalStream, GraceParams,
    IndexJoinParams, ShjParams, SortMergeParams,
};
use stems::catalog::reference;
use stems::datagen::{gen::ColGen, Table3, Table3Config, TableBuilder};
use stems::prelude::*;
use stems::sim::secs_f;

fn checked() -> ExecConfig {
    ExecConfig {
        check_constraints: true,
        ..ExecConfig::default()
    }
}

/// The routing batch sizes every run is repeated at: 1 is the paper's
/// tuple-at-a-time eddy, 64 the batched default.
const BATCH_SIZES: [usize; 2] = [1, 64];

/// Run `config` at every batch size in [`BATCH_SIZES`], check each run
/// against the reference executor, and return the reports in that order.
fn run_and_verify(catalog: &Catalog, query: &QuerySpec, config: ExecConfig) -> Vec<Report> {
    let verified = |batch_size| {
        let config = ExecConfig {
            batch_size,
            ..config.clone()
        };
        let report = EddyExecutor::build(catalog, query, config)
            .expect("plan")
            .run();
        assert!(
            report.violations.is_empty(),
            "batch {batch_size}: constraint violations: {:?}",
            report.violations
        );
        let expected = reference::canonical(catalog, query, &reference::execute(catalog, query));
        assert_eq!(
            report.canonical(catalog, query),
            expected,
            "batch {batch_size}: eddy result mismatch ({})",
            report.summary()
        );
        report
    };
    BATCH_SIZES.into_iter().map(verified).collect()
}

#[test]
fn mixed_type_selections_with_in_lists_end_to_end() {
    // Str/Float/NULL-mixed columns + an IN-list + a Str inequality: the
    // typed partial-gather kernels (with exception rows) and conjunction
    // fusion both engage, and the result multiset must still match the
    // scalar reference executor.
    let mut catalog = Catalog::new();
    let r_rows: Vec<Vec<Value>> = (0..60i64)
        .map(|i| {
            let cat = match i % 5 {
                0 => Value::str("a"),
                1 => Value::str("b"),
                2 => Value::str("c"),
                3 => Value::Null,
                _ => Value::str("d"),
            };
            // A Float column carrying Ints and NULLs: the float kernel
            // widens the Ints, the NULLs ride the exception list.
            let score = match i % 7 {
                0 => Value::Null,
                x if x % 2 == 0 => Value::Float(i as f64 / 4.0),
                _ => Value::Int(i / 4),
            };
            vec![Value::Int(i), cat, score]
        })
        .collect();
    let r = catalog
        .add_table(
            TableDef::new(
                "R",
                Schema::of(&[
                    ("key", ColumnType::Int),
                    ("cat", ColumnType::Str),
                    ("score", ColumnType::Float),
                ]),
            )
            .with_rows(r_rows),
        )
        .unwrap();
    let s_rows: Vec<Vec<Value>> = (0..40i64)
        .map(|i| {
            vec![
                Value::Int(i % 20),
                Value::str(["a", "b", "zz"][(i % 3) as usize]),
            ]
        })
        .collect();
    let s = catalog
        .add_table(
            TableDef::new(
                "S",
                Schema::of(&[("k", ColumnType::Int), ("tag", ColumnType::Str)]),
            )
            .with_rows(s_rows),
        )
        .unwrap();
    catalog.add_scan(r, ScanSpec::with_rate(500.0)).unwrap();
    catalog.add_scan(s, ScanSpec::with_rate(400.0)).unwrap();
    let query = parse_query(
        &catalog,
        "SELECT * FROM R, S WHERE R.key = S.k \
         AND R.cat IN ('a', 'b', 'd') AND R.score < 7.5 AND S.tag <> 'zz'",
    )
    .unwrap();
    for report in run_and_verify(&catalog, &query, checked()) {
        assert!(
            !report.results.is_empty(),
            "workload should produce matches"
        );
    }
}

#[test]
fn sql_to_results_three_way_with_selections() {
    let mut catalog = Catalog::new();
    for (name, n, seed) in [("a", 40usize, 1u64), ("b", 30, 2), ("c", 20, 3)] {
        TableBuilder::new(name, n, seed)
            .col("v", ColGen::Mod(8))
            .col("w", ColGen::Mod(5))
            .register(&mut catalog)
            .unwrap();
    }
    for i in 0..3 {
        catalog
            .add_scan(SourceId(i), ScanSpec::with_rate(500.0 + 100.0 * i as f64))
            .unwrap();
    }
    let query = parse_query(
        &catalog,
        "SELECT a.key, c.key FROM a, b, c \
         WHERE a.v = b.v AND b.w = c.w AND a.key > 3 AND c.w < 4",
    )
    .unwrap();
    run_and_verify(&catalog, &query, checked());
}

use stems::catalog::SourceId;

#[test]
fn all_policies_agree_on_cyclic_query() {
    let mut catalog = Catalog::new();
    for (name, seed) in [("x", 4u64), ("y", 5), ("z", 6)] {
        TableBuilder::new(name, 25, seed)
            .col("v", ColGen::Mod(6))
            .register(&mut catalog)
            .unwrap();
        let id = catalog.source_by_name(name).unwrap();
        catalog.add_scan(id, ScanSpec::with_rate(300.0)).unwrap();
    }
    let query = parse_query(
        &catalog,
        "SELECT * FROM x, y, z WHERE x.v = y.v AND y.v = z.v AND x.v = z.v",
    )
    .unwrap();
    let mut canons = Vec::new();
    for (i, policy) in [
        RoutingPolicyKind::Fixed { probe_order: None },
        RoutingPolicyKind::Lottery,
        RoutingPolicyKind::BenefitCost {
            epsilon: 0.2,
            drop_rate: 1.0,
        },
    ]
    .into_iter()
    .enumerate()
    {
        let config = ExecConfig {
            policy,
            seed: 100 + i as u64,
            ..checked()
        };
        for report in run_and_verify(&catalog, &query, config) {
            canons.push(report.canonical(&catalog, &query));
        }
    }
    assert!(canons.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn table3_q1_exactness_and_probe_count() {
    let cfg = Table3Config {
        r_rows: 200,
        r_distinct: 50,
        ..Table3Config::default()
    };
    let (catalog, query, _, _) = Table3::q1(&cfg).unwrap();
    for report in run_and_verify(&catalog, &query, checked()) {
        assert_eq!(report.results.len(), 200);
        assert_eq!(report.counter("index_probes"), 50);
    }
}

#[test]
fn table3_q4_exactness_under_hybrid_policy() {
    let cfg = Table3Config {
        r_rows: 150,
        t_rows: 150,
        ..Table3Config::default()
    };
    let (catalog, query, _, _) = Table3::q4(&cfg).unwrap();
    let config = ExecConfig {
        policy: RoutingPolicyKind::BenefitCost {
            epsilon: 0.1,
            drop_rate: 0.5,
        },
        ..checked()
    };
    for report in run_and_verify(&catalog, &query, config) {
        assert_eq!(report.results.len(), 150);
    }
}

/// The eddy and every baseline operator agree on the result multiset.
#[test]
fn eddy_and_baselines_agree() {
    let mut catalog = Catalog::new();
    let r = TableBuilder::new("R", 60, 7)
        .col("v", ColGen::Mod(15))
        .register(&mut catalog)
        .unwrap();
    let s = TableBuilder::new("S", 45, 8)
        .col("v", ColGen::Mod(15))
        .register(&mut catalog)
        .unwrap();
    catalog.add_scan(r, ScanSpec::with_rate(200.0)).unwrap();
    catalog.add_scan(s, ScanSpec::with_rate(150.0)).unwrap();
    let query = parse_query(&catalog, "SELECT * FROM R, S WHERE R.v = S.v").unwrap();

    let expected = run_and_verify(&catalog, &query, checked())[0].results.len();

    let r_stream = ArrivalStream::from_scan(catalog.table_expect(r), &ScanSpec::with_rate(200.0));
    let s_stream = ArrivalStream::from_scan(catalog.table_expect(s), &ScanSpec::with_rate(150.0));

    let ij = index_join(
        &r_stream,
        catalog.table_expect(s).rows(),
        &IndexJoinParams {
            lookup_latency_us: secs_f(0.05),
            hit_cost_us: 100,
            outer_instance: TableIdx(0),
            inner_instance: TableIdx(1),
            outer_col: 1,
            inner_col: 1,
        },
    );
    assert_eq!(ij.results.len(), expected);

    let shj = symmetric_hash_join(
        &r_stream,
        TableIdx(0),
        1,
        &s_stream,
        TableIdx(1),
        1,
        &ShjParams::default(),
    );
    assert_eq!(shj.results.len(), expected);

    let grace = grace_hash_join(
        &r_stream,
        &s_stream,
        &GraceParams {
            left_col: 1,
            right_col: 1,
            mem_partitions: 2,
            ..GraceParams::default()
        },
    );
    assert_eq!(grace.results.len(), expected);

    let sm = sort_merge_join(
        &r_stream,
        &s_stream,
        &SortMergeParams {
            left_col: 1,
            right_col: 1,
            ..SortMergeParams::default()
        },
    );
    assert_eq!(sm.results.len(), expected);

    // Value-level agreement between the two hash-family baselines.
    assert_eq!(shj.canonical_values(), grace.canonical_values());
    assert_eq!(shj.canonical_values(), sm.canonical_values());
}

#[test]
fn projection_applied_at_output() {
    let mut catalog = Catalog::new();
    let r = TableBuilder::new("R", 10, 9)
        .col("v", ColGen::Serial)
        .register(&mut catalog)
        .unwrap();
    catalog.add_scan(r, ScanSpec::with_rate(100.0)).unwrap();
    let query = parse_query(&catalog, "SELECT R.v FROM R WHERE R.v >= 7").unwrap();
    for report in run_and_verify(&catalog, &query, checked()) {
        assert_eq!(
            report.canonical(&catalog, &query),
            vec![
                vec![Value::Int(7)],
                vec![Value::Int(8)],
                vec![Value::Int(9)]
            ]
        );
    }
}

#[test]
fn four_way_star_join() {
    let mut catalog = Catalog::new();
    let hub = TableBuilder::new("hub", 20, 10)
        .col("a", ColGen::Mod(5))
        .col("b", ColGen::Mod(4))
        .col("c", ColGen::Mod(3))
        .register(&mut catalog)
        .unwrap();
    catalog.add_scan(hub, ScanSpec::with_rate(400.0)).unwrap();
    for (name, distinct, seed) in [("da", 5i64, 11u64), ("db", 4, 12), ("dc", 3, 13)] {
        let id = TableBuilder::new(name, 12, seed)
            .col("v", ColGen::Mod(distinct))
            .register(&mut catalog)
            .unwrap();
        catalog.add_scan(id, ScanSpec::with_rate(350.0)).unwrap();
    }
    let query = parse_query(
        &catalog,
        "SELECT * FROM hub, da, db, dc \
         WHERE hub.a = da.v AND hub.b = db.v AND hub.c = dc.v",
    )
    .unwrap();
    for policy in [
        RoutingPolicyKind::Fixed { probe_order: None },
        RoutingPolicyKind::Lottery,
    ] {
        run_and_verify(
            &catalog,
            &query,
            ExecConfig {
                policy,
                ..checked()
            },
        );
    }
}

#[test]
fn infeasible_query_is_rejected_with_clear_error() {
    let mut catalog = Catalog::new();
    let r = TableBuilder::new("R", 5, 14)
        .col("v", ColGen::Serial)
        .register(&mut catalog)
        .unwrap();
    let s = TableBuilder::new("S", 5, 15)
        .col("v", ColGen::Serial)
        .register(&mut catalog)
        .unwrap();
    catalog.add_scan(r, ScanSpec::default()).unwrap();
    // S only has an index on `key`, but the join binds `v`: infeasible.
    catalog.add_index(s, IndexSpec::new(vec![0], 1000)).unwrap();
    let query = parse_query(&catalog, "SELECT * FROM R, S WHERE R.v = S.v").unwrap();
    let err = match EddyExecutor::build(&catalog, &query, ExecConfig::default()) {
        Err(e) => e,
        Ok(_) => panic!("expected infeasible-query error"),
    };
    let msg = err.to_string();
    assert!(msg.contains("infeasible"), "unexpected error: {msg}");
}

#[test]
fn multi_member_in_list_binds_index_only_table() {
    let mut catalog = Catalog::new();
    let r = TableBuilder::new("R", 40, 21)
        .col("v", ColGen::Mod(6))
        .register(&mut catalog)
        .unwrap();
    let s = TableBuilder::new("S", 30, 22)
        .col("v", ColGen::Mod(6))
        .register(&mut catalog)
        .unwrap();
    catalog.add_scan(r, ScanSpec::with_rate(300.0)).unwrap();
    // S is reachable ONLY through its index on `key`, and no predicate
    // supplies a single key — the multi-member IN list must bind it
    // (feasibility) AND the runtime must fan the probe out across the
    // members and terminate with exact results (runtime == feasibility).
    catalog.add_index(s, IndexSpec::new(vec![0], 1000)).unwrap();
    let query = parse_query(
        &catalog,
        "SELECT * FROM R, S WHERE R.v = S.v AND S.key IN (3, 7, 11)",
    )
    .unwrap();
    for report in run_and_verify(&catalog, &query, checked()) {
        assert!(!report.results.is_empty(), "members should find matches");
        // One index lookup per IN member; every R tuple's fan-out
        // coalesces onto those three in-flight/answered keys.
        assert_eq!(report.counter("index_probes"), 3);
    }
}

#[test]
fn float_and_string_join_keys() {
    let mut catalog = Catalog::new();
    let a = catalog
        .add_table(
            TableDef::new(
                "fa",
                Schema::of(&[("k", ColumnType::Float), ("tag", ColumnType::Str)]),
            )
            .with_rows(vec![
                vec![Value::Float(1.0), "x".into()],
                vec![Value::Float(2.5), "y".into()],
            ]),
        )
        .unwrap();
    let b = catalog
        .add_table(
            TableDef::new("fb", Schema::of(&[("k", ColumnType::Int)]))
                .with_rows(vec![vec![1.into()], vec![2.into()]]),
        )
        .unwrap();
    catalog.add_scan(a, ScanSpec::default()).unwrap();
    catalog.add_scan(b, ScanSpec::default()).unwrap();
    // Float(1.0) must join Int(1) (SQL numeric equality).
    let query = parse_query(&catalog, "SELECT * FROM fa, fb WHERE fa.k = fb.k").unwrap();
    for report in run_and_verify(&catalog, &query, checked()) {
        assert_eq!(report.results.len(), 1);
    }
}
