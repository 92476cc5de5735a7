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
use stems::core::plan::{self, Module, PlanOptions};
use stems::core::StemOptions;
use stems::prelude::*;
use stems::sim::SimRng;
use stems::storage::StoreKind;

/// Scan chunk sizes the suites sweep (1 = the scalar row-at-a-time scan).
const CHUNKS: [usize; 4] = [1, 7, 64, 256];

/// SteM shard fan-outs the shard-invariance suite sweeps (1 = the
/// unsharded engine; 7 exercises uneven key → shard distributions).
const SHARDS: [usize; 4] = [1, 2, 4, 7];

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

/// Run at the ambient shard count (the `STEMS_NUM_SHARDS` CI matrix leg),
/// so every existing suite doubles as sharded-engine coverage.
fn run_at(case: &Case, catalog: &Catalog, query: &QuerySpec, batch_size: usize) -> Report {
    run_at_shards(
        case,
        catalog,
        query,
        batch_size,
        ExecConfig::default().num_shards,
    )
}

fn run_at_shards(
    case: &Case,
    catalog: &Catalog,
    query: &QuerySpec,
    batch_size: usize,
    num_shards: usize,
) -> Report {
    if num_shards > 1 {
        assert!(
            max_lanes(catalog, query, num_shards) > 1,
            "no SteM has lanes at {num_shards} shards: the sweep would not exercise them"
        );
    }
    let config = ExecConfig {
        policy: case.policy.clone(),
        seed: case.seed,
        batch_size,
        num_shards,
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
    };
    EddyExecutor::build(catalog, query, config)
        .expect("plan")
        .run()
}

/// The most storage lanes any SteM of the query's plan has at
/// `num_shards`, read off the SteMs the plan itself builds. A SteM keeps
/// its lanes only on one join column; every case here joins each table
/// on `v` alone, so at more than one shard lanes must exist.
fn max_lanes(catalog: &Catalog, query: &QuerySpec, num_shards: usize) -> usize {
    let opts = PlanOptions {
        default_stem: StemOptions {
            num_shards,
            ..StemOptions::default()
        },
        ..PlanOptions::default()
    };
    let (modules, _) = plan::instantiate(catalog, query, &opts).expect("plan");
    modules
        .iter()
        .filter_map(|m| match m {
            Module::Stem(cell) => Some(cell.lock().shard_lens().len()),
            _ => None,
        })
        .max()
        .unwrap_or(0)
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

/// Sharded SteMs are observationally invisible: for randomized SPJ
/// queries, running the same query at every shard count in {1, 2, 4, 7}
/// must be **bit-identical** to the unsharded engine — the same *ordered*
/// result vector, the same event count and virtual end time, and the same
/// adaptivity metrics (`hints_recosted`, probe/bounce/duplicate counters).
/// Sharding may only change which threads do the dictionary work, never
/// what any module observes. (Every store answers in insertion order, so
/// the timestamp-merge reproduces candidate order exactly.) Every run
/// above one shard first checks that some SteM of the plan really has
/// lanes (`run_at_shards`).
#[test]
fn shard_count_is_invariant() {
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
    for i in 0..24u64 {
        let mut rng = SimRng::new(0x54A2D ^ i);
        let case = gen_case(&mut rng);
        let (catalog, query) = build_case(&case);
        let expected =
            reference::canonical(&catalog, &query, &reference::execute(&catalog, &query));
        let baseline = run_at_shards(&case, &catalog, &query, 64, SHARDS[0]);
        assert!(
            baseline.violations.is_empty(),
            "case {i} unsharded violations: {:?}",
            baseline.violations
        );
        assert_eq!(
            baseline.canonical(&catalog, &query),
            expected,
            "case {i}: unsharded vs reference"
        );
        for shards in &SHARDS[1..] {
            let sharded = run_at_shards(&case, &catalog, &query, 64, *shards);
            assert!(
                sharded.violations.is_empty(),
                "case {i} shards {shards} violations: {:?}",
                sharded.violations
            );
            assert_eq!(
                sharded.results, baseline.results,
                "case {i}: shards {shards} ordered results diverged"
            );
            assert_eq!(
                sharded.events, baseline.events,
                "case {i}: shards {shards} event count diverged"
            );
            assert_eq!(
                sharded.end_time, baseline.end_time,
                "case {i}: shards {shards} virtual end time diverged"
            );
            for m in METRICS {
                assert_eq!(
                    sharded.counter(m),
                    baseline.counter(m),
                    "case {i}: shards {shards} metric {m:?} diverged"
                );
            }
        }
    }
}

/// Worker-count invariance: the persistent worker pool is a pure
/// scheduling device. Running the same randomized query at worker budgets
/// {1, 2, 4, 8} × shard counts {1, 4} — with the dispatch threshold forced
/// to 1 so even tiny envelopes fan out — must be **bit-identical**: the
/// same ordered result vector, event count, virtual end time and
/// adaptivity metrics. (Workers = 1 services every lane serially on the
/// calling thread; larger budgets split lanes into chunks and steal work
/// across queues — none of which any module may observe.)
#[test]
fn worker_count_is_invariant() {
    const METRICS: [&str; 6] = [
        "results",
        "stem_probes",
        "probes_bounced",
        "probes_consumed",
        "duplicates_absorbed",
        "retired",
    ];
    for i in 0..12u64 {
        let mut rng = SimRng::new(0x33_0CC ^ i);
        let case = gen_case(&mut rng);
        let (catalog, query) = build_case(&case);
        for shards in [1usize, 4] {
            let run_at_workers = |workers: usize| {
                let config = ExecConfig {
                    policy: case.policy.clone(),
                    seed: case.seed,
                    batch_size: 64,
                    num_shards: shards,
                    workers,
                    parallel_min_rows: 1,
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
                };
                EddyExecutor::build(&catalog, &query, config)
                    .expect("plan")
                    .run()
            };
            let baseline = run_at_workers(1);
            assert!(
                baseline.violations.is_empty(),
                "case {i} shards {shards} workers 1 violations: {:?}",
                baseline.violations
            );
            for workers in [2usize, 4, 8] {
                let pooled = run_at_workers(workers);
                assert!(
                    pooled.violations.is_empty(),
                    "case {i} shards {shards} workers {workers} violations: {:?}",
                    pooled.violations
                );
                assert_eq!(
                    pooled.results, baseline.results,
                    "case {i} shards {shards}: workers {workers} ordered results diverged"
                );
                assert_eq!(
                    pooled.events, baseline.events,
                    "case {i} shards {shards}: workers {workers} event count diverged"
                );
                assert_eq!(
                    pooled.end_time, baseline.end_time,
                    "case {i} shards {shards}: workers {workers} end time diverged"
                );
                for m in METRICS {
                    assert_eq!(
                        pooled.counter(m),
                        baseline.counter(m),
                        "case {i} shards {shards}: workers {workers} metric {m:?} diverged"
                    );
                }
            }
        }
    }
}

/// The shard sweep crossed with batch sizes: shard-count invariance must
/// hold on the scalar routing path too (batch 1 envelopes take the
/// serial single-tuple build/probe route through the shard layer).
#[test]
fn shard_count_is_invariant_at_batch_one() {
    for i in 0..12u64 {
        let mut rng = SimRng::new(0x54A2D1 ^ i);
        let case = gen_case(&mut rng);
        let (catalog, query) = build_case(&case);
        let baseline = run_at_shards(&case, &catalog, &query, 1, 1);
        for shards in [4usize, 7] {
            let sharded = run_at_shards(&case, &catalog, &query, 1, shards);
            assert!(
                sharded.violations.is_empty(),
                "case {i} shards {shards}: {:?}",
                sharded.violations
            );
            assert_eq!(
                sharded.results, baseline.results,
                "case {i} shards {shards}"
            );
            assert_eq!(sharded.events, baseline.events, "case {i} shards {shards}");
        }
    }
}
