//! Batch/scalar equivalence: the batched routing pipeline must be
//! observationally equivalent to tuple-at-a-time routing.
//!
//! The batched engine groups same-candidate-set tuples behind one policy
//! decision; the Table 2 constraints are still checked per tuple. For
//! randomized 2–4 table select-project-join queries across topologies,
//! policies and store backends, running the same query at batch sizes
//! {1, 64, 256} must emit exactly the same result multiset, produce zero
//! constraint violations under `check_constraints: true`, and agree with
//! the reference nested-loop executor.
//!
//! Scan ingestion is chunked too (`ScanSpec::chunk`): randomized cases
//! also vary the chunk size over {1, 7, 64, 256}, and a dedicated suite
//! proves chunked ingestion reproduces the scalar engine's result multiset
//! exactly — with chunk = 1 bit-identical (same ordered results, same
//! event count, same virtual end time) to the row-at-a-time engine.

use stems::catalog::{reference, Catalog, IndexSpec, QuerySpec, ScanSpec, TableInstance};
use stems::core::plan::PlanOptions;
use stems::core::StemOptions;
use stems::prelude::*;
use stems::sim::SimRng;
use stems::storage::StoreKind;

/// Scan chunk sizes the suites sweep (1 = the scalar row-at-a-time scan).
const CHUNKS: [usize; 4] = [1, 7, 64, 256];

struct Case {
    rows: Vec<Vec<(i64, i64)>>,
    topology: u8,
    policy: RoutingPolicyKind,
    store: StoreKind,
    seed: u64,
    extra_index: Vec<bool>,
    selection_lt: Option<i64>,
    chunk: usize,
}

fn gen_case(rng: &mut SimRng) -> Case {
    let n_tables = 2 + rng.below(3) as usize; // 2..=4
    Case {
        rows: (0..n_tables)
            .map(|_| {
                let n = rng.below(16) as usize;
                (0..n)
                    .map(|i| (i as i64, rng.range_inclusive(0, 5)))
                    .collect()
            })
            .collect(),
        chunk: CHUNKS[rng.below(CHUNKS.len() as u64) as usize],
        topology: rng.below(3) as u8,
        policy: match rng.below(3) {
            0 => RoutingPolicyKind::Fixed { probe_order: None },
            1 => RoutingPolicyKind::Lottery,
            _ => RoutingPolicyKind::BenefitCost {
                epsilon: 0.25,
                drop_rate: 1.0,
            },
        },
        store: match rng.below(3) {
            0 => StoreKind::List,
            1 => StoreKind::Hash,
            _ => StoreKind::Adaptive { threshold: 4 },
        },
        seed: rng.next_u64(),
        extra_index: (0..n_tables).map(|_| rng.chance(0.4)).collect(),
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
    for (i, rows) in case.rows.iter().enumerate() {
        let def = TableDef::new(
            &format!("t{i}"),
            Schema::of(&[("k", ColumnType::Int), ("v", ColumnType::Int)]),
        )
        .with_rows(
            rows.iter()
                .map(|(k, v)| vec![Value::Int(*k), Value::Int(*v)])
                .collect(),
        );
        let id = catalog.add_table(def).expect("table");
        catalog
            .add_scan(id, ScanSpec::with_rate(500.0).with_chunk(case.chunk))
            .expect("scan");
        if case.extra_index[i] {
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
        0 => {
            for i in 0..n - 1 {
                push_join(i, i + 1, &mut preds);
            }
        }
        1 => {
            for i in 1..n {
                push_join(0, i, &mut preds);
            }
        }
        _ => {
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

fn config_of(case: &Case, batch_size: usize) -> ExecConfig {
    ExecConfig {
        policy: case.policy.clone(),
        seed: case.seed,
        batch_size,
        plan: PlanOptions {
            default_stem: StemOptions {
                store: case.store.clone(),
                ..StemOptions::default()
            },
            ..PlanOptions::default()
        },
        check_constraints: true,
        max_events: 20_000_000,
        ..ExecConfig::default()
    }
}

fn run(catalog: &Catalog, query: &QuerySpec, config: ExecConfig) -> Report {
    EddyExecutor::build(catalog, query, config)
        .expect("plan")
        .run()
}

fn run_at(case: &Case, catalog: &Catalog, query: &QuerySpec, batch_size: usize) -> Report {
    run(catalog, query, config_of(case, batch_size))
}

/// `config` with every retired SteM-lane knob set away from its default:
/// the lane count, the pool dispatch threshold and the busiest-lane cost
/// model on the engine, and the lane count, worker budget and threshold
/// on the SteM options. They are ignored, so a run under them must be
/// bit-identical to one without.
fn with_retired_knobs(config: &ExecConfig) -> ExecConfig {
    let mut config = config.clone();
    config.num_shards = 7;
    config.parallel_min_rows = 1;
    config.costs.shard_parallel_service = true;
    config.plan.default_stem.num_shards = 7;
    config.plan.default_stem.workers = Some(4);
    config.plan.default_stem.parallel_min_rows = Some(1);
    config
}

/// Bit-identity of two runs: the same *ordered* result vector, event
/// count, virtual end time and adaptivity counters, and no violations.
fn assert_bit_identical(got: &Report, want: &Report, cell: &str) {
    const METRICS: [&str; 8] = [
        "results",
        "stem_probes",
        "probes_bounced",
        "probes_consumed",
        "duplicates_absorbed",
        "hints_recosted",
        "route_batches",
        "retired",
    ];
    assert!(got.violations.is_empty(), "{cell}: {:?}", got.violations);
    assert_eq!(
        got.results, want.results,
        "{cell}: ordered results diverged"
    );
    assert_eq!(got.events, want.events, "{cell}: event count diverged");
    assert_eq!(got.end_time, want.end_time, "{cell}: end time diverged");
    for m in METRICS {
        assert_eq!(
            got.counter(m),
            want.counter(m),
            "{cell}: metric {m:?} diverged"
        );
    }
}

/// The batched engine emits exactly the scalar engine's result multiset.
#[test]
fn batched_routing_matches_scalar_multiset() {
    for i in 0..48u64 {
        let mut rng = SimRng::new(0xBA7C4E ^ i);
        let case = gen_case(&mut rng);
        let (catalog, query) = build_case(&case);
        let expected =
            reference::canonical(&catalog, &query, &reference::execute(&catalog, &query));

        let scalar = run_at(&case, &catalog, &query, 1);
        assert!(
            scalar.violations.is_empty(),
            "case {i} scalar violations: {:?}",
            scalar.violations
        );
        let scalar_canon = scalar.canonical(&catalog, &query);
        assert_eq!(scalar_canon, expected, "case {i}: scalar vs reference");

        for batch_size in [64usize, 256] {
            let batched = run_at(&case, &catalog, &query, batch_size);
            assert!(
                batched.violations.is_empty(),
                "case {i} batch {batch_size} violations: {:?}",
                batched.violations
            );
            // Canonical form is the sorted projected multiset: equality
            // means no missing results, no duplicates, no extras.
            assert_eq!(
                batched.canonical(&catalog, &query),
                scalar_canon,
                "case {i}: batch {batch_size} vs scalar ({} vs {} raw results)",
                batched.results.len(),
                scalar.results.len()
            );
        }
    }
}

/// Chunked scan ingestion reproduces the scalar engine's result multiset
/// exactly: the same randomized query, rebuilt with every chunk size in
/// {1, 7, 64, 256}, emits the reference multiset with zero constraint
/// violations — chunking only reshapes arrival timing, never results.
#[test]
fn chunked_ingestion_matches_scalar_multiset() {
    for i in 0..24u64 {
        let mut rng = SimRng::new(0xC4_0C ^ i);
        let mut case = gen_case(&mut rng);
        case.chunk = 1;
        let (catalog, query) = build_case(&case);
        let expected =
            reference::canonical(&catalog, &query, &reference::execute(&catalog, &query));
        let scalar = run_at(&case, &catalog, &query, 1);
        assert!(
            scalar.violations.is_empty(),
            "case {i} scalar violations: {:?}",
            scalar.violations
        );
        assert_eq!(
            scalar.canonical(&catalog, &query),
            expected,
            "case {i}: scalar vs reference"
        );
        for chunk in CHUNKS {
            case.chunk = chunk;
            let (catalog, query) = build_case(&case);
            // batch_size 256 so no chunk in the sweep is clamped.
            let chunked = run_at(&case, &catalog, &query, 256);
            assert!(
                chunked.violations.is_empty(),
                "case {i} chunk {chunk} violations: {:?}",
                chunked.violations
            );
            assert_eq!(
                chunked.canonical(&catalog, &query),
                expected,
                "case {i}: chunk {chunk} vs scalar multiset"
            );
        }
    }
}

/// Chunk = 1 is bit-identical to the row-at-a-time scan. The engine clamps
/// every scan's chunk to `batch_size`, so at `batch_size: 1` a catalog
/// declaring *any* chunk size must reproduce the scalar engine exactly:
/// same *ordered* result vector, same event count, same virtual end time.
/// This pins the chunked emission arithmetic at c = 1 (accumulation gap,
/// tail chunk, EOT cadence) to the scalar engine's, whatever chunk was
/// declared. (The `ScanAm` unit tests additionally pin chunk-1 emission to
/// the exact virtual timestamps of the pre-chunking engine.)
#[test]
fn chunk_one_is_bit_identical_to_row_at_a_time() {
    for i in 0..12u64 {
        let mut rng = SimRng::new(0xB17 ^ i);
        let mut case = gen_case(&mut rng);
        case.chunk = 1;
        let (catalog, query) = build_case(&case);
        let baseline = run_at(&case, &catalog, &query, 1);
        for chunk in [7usize, 64, 256] {
            case.chunk = chunk;
            let (catalog, query) = build_case(&case);
            let clamped = run_at(&case, &catalog, &query, 1);
            assert_eq!(clamped.results, baseline.results, "case {i} chunk {chunk}");
            assert_eq!(clamped.events, baseline.events, "case {i} chunk {chunk}");
            assert_eq!(
                clamped.end_time, baseline.end_time,
                "case {i} chunk {chunk}"
            );
        }
    }
}

/// Batching must actually amortize: under the deterministic fixed policy
/// (where per-tuple routing decisions are identical at every batch size),
/// the batched run may never schedule *more* events than the scalar run —
/// grouped envelopes strictly reduce start/complete pairs.
#[test]
fn batching_never_schedules_more_events_than_scalar() {
    let mut amortized_somewhere = false;
    for i in 0..16u64 {
        let mut rng = SimRng::new(0x0DD ^ i);
        let mut case = gen_case(&mut rng);
        case.policy = RoutingPolicyKind::Fixed { probe_order: None };
        let (catalog, query) = build_case(&case);
        let scalar = run_at(&case, &catalog, &query, 1);
        let batched = run_at(&case, &catalog, &query, 256);
        assert_eq!(
            batched.canonical(&catalog, &query),
            scalar.canonical(&catalog, &query),
            "case {i}"
        );
        assert!(
            batched.events <= scalar.events,
            "case {i}: batched run used {} events vs scalar {}",
            batched.events,
            scalar.events
        );
        amortized_somewhere |= batched.events < scalar.events;
    }
    assert!(
        amortized_somewhere,
        "no case amortized any events — batching is not engaging"
    );
}

/// A SteM has one storage lane, and the knobs that once split it are
/// inert: for randomized SPJ queries at batch 64, the engine agrees with
/// the reference executor, and a run under every retired lane knob
/// (`with_retired_knobs`) is bit-identical to the default run.
#[test]
fn shard_count_is_invariant() {
    for i in 0..24u64 {
        let mut rng = SimRng::new(0x54A2D ^ i);
        let case = gen_case(&mut rng);
        let (catalog, query) = build_case(&case);
        let expected =
            reference::canonical(&catalog, &query, &reference::execute(&catalog, &query));
        let config = config_of(&case, 64);
        let baseline = run(&catalog, &query, config.clone());
        assert!(
            baseline.violations.is_empty(),
            "case {i} violations: {:?}",
            baseline.violations
        );
        assert_eq!(
            baseline.canonical(&catalog, &query),
            expected,
            "case {i}: engine vs reference"
        );
        let retired = run(&catalog, &query, with_retired_knobs(&config));
        assert_bit_identical(&retired, &baseline, &format!("case {i} retired knobs"));
    }
}

/// A single executor runs on its caller's thread: the worker budget only
/// sizes the query server's wave drain. Randomized queries at worker
/// budgets 1 and 8, under the retired lane knobs, are bit-identical to
/// each other and agree with the reference executor.
#[test]
fn worker_count_is_invariant() {
    for i in 0..12u64 {
        let mut rng = SimRng::new(0x33_0CC ^ i);
        let case = gen_case(&mut rng);
        let (catalog, query) = build_case(&case);
        let expected =
            reference::canonical(&catalog, &query, &reference::execute(&catalog, &query));
        let at_workers = |workers: usize| {
            let config = ExecConfig {
                workers,
                ..config_of(&case, 64)
            };
            run(&catalog, &query, with_retired_knobs(&config))
        };
        let baseline = at_workers(1);
        assert!(
            baseline.violations.is_empty(),
            "case {i} violations: {:?}",
            baseline.violations
        );
        assert_eq!(
            baseline.canonical(&catalog, &query),
            expected,
            "case {i}: engine vs reference"
        );
        assert_bit_identical(&at_workers(8), &baseline, &format!("case {i} workers 8"));
    }
}

/// [`shard_count_is_invariant`] on the scalar routing path: at batch 1
/// the retired lane knobs are inert too.
#[test]
fn shard_count_is_invariant_at_batch_one() {
    for i in 0..12u64 {
        let mut rng = SimRng::new(0x54A2D1 ^ i);
        let case = gen_case(&mut rng);
        let (catalog, query) = build_case(&case);
        let config = config_of(&case, 1);
        let baseline = run(&catalog, &query, config.clone());
        let retired = run(&catalog, &query, with_retired_knobs(&config));
        assert_bit_identical(&retired, &baseline, &format!("case {i} retired knobs"));
    }
}
