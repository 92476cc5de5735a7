//! Microbenchmarks: engineering costs of the SteM machinery.
//!
//! These are wall-clock benches of the *implementation* (the figures
//! measure virtual time; these measure real CPU), run with a small
//! self-contained harness (`cargo bench` — no external benchmark crate):
//!
//! * `stem_build/*` — dictionary insert throughput per store backend,
//!   scalar and batched;
//! * `stem_probe/*` — equality probe throughput per backend (hash vs the
//!   list fallback — why SteMs index their join columns);
//! * `dedup` — the §3.2 set-semantics duplicate filter;
//! * `policy_choose/*` — per-routing-decision overhead of each policy;
//! * `eddy_end_to_end/*` — full engine throughput on a two-table
//!   symmetric-hash-join workload, scalar (`batch=1`) vs batched routing.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use stems_catalog::{Catalog, ScanSpec, TableDef};
use stems_core::policy::Feedback;
use stems_core::router::Action;
use stems_core::{EddyExecutor, ExecConfig, RoutingPolicyKind};
use stems_datagen::{gen::ColGen, TableBuilder};
use stems_sim::SimRng;
use stems_sql::parse_query;
use stems_storage::{CandidateBuf, RowSet, Slot, StoreKind};
use stems_types::{ColumnType, HashedKey, PredId, Row, Schema, TableIdx, Tuple, Value};

const N_ROWS: usize = 10_000;

/// Time `f` over `iters` iterations (after one warm-up) and print ns/op.
fn bench(name: &str, iters: u64, mut f: impl FnMut() -> u64) {
    black_box(f());
    let start = Instant::now();
    let mut sink = 0u64;
    for _ in 0..iters {
        sink = sink.wrapping_add(f());
    }
    let elapsed = start.elapsed();
    black_box(sink);
    let ns_per_op = elapsed.as_nanos() as f64 / iters as f64;
    println!("{name:<44} {ns_per_op:>14.1} ns/op   ({iters} iters)");
}

fn rows(n: usize) -> Vec<Arc<Row>> {
    (0..n as i64)
        .map(|k| Row::shared(vec![Value::Int(k), Value::Int(k % 250)]))
        .collect()
}

fn bench_stem_build() {
    let data = rows(N_ROWS);
    for (name, kind) in [
        ("list", StoreKind::List),
        ("hash", StoreKind::Hash),
        ("adaptive", StoreKind::Adaptive { threshold: 128 }),
    ] {
        bench(&format!("stem_build/{name}"), 20, || {
            let mut store = kind.build(&[1]);
            for r in &data {
                store.insert(r.clone());
            }
            store.len() as u64
        });
        bench(&format!("stem_build/{name}_batched"), 20, || {
            let mut store = kind.build(&[1]);
            store.insert_batch(data.clone());
            store.len() as u64
        });
    }
}

fn bench_stem_probe() {
    let data = rows(N_ROWS);
    let mut hash = StoreKind::Hash.build(&[1]);
    let mut list = StoreKind::List.build(&[1]);
    for r in &data {
        hash.insert(r.clone());
        list.insert(r.clone());
    }
    let mut k = 0i64;
    bench("stem_probe/hash_indexed", 200_000, || {
        k = (k + 1) % 250;
        hash.lookup_eq(1, &Value::Int(k)).len() as u64
    });
    let keys: Vec<HashedKey> = (0..64i64).map(|k| HashedKey::new(Value::Int(k))).collect();
    let mut buf = CandidateBuf::new();
    bench("stem_probe/hash_indexed_batch64", 4_000, || {
        hash.lookup_eq_flat(1, &keys, &mut buf);
        buf.num_keys() as u64
    });
    // The list store scans: orders of magnitude slower — the reason the
    // paper's SteMs keep "one main-memory index on each [join] column".
    bench("stem_probe/list_scan", 200, || {
        k = (k + 1) % 250;
        list.lookup_eq(1, &Value::Int(k)).len() as u64
    });
}

fn bench_dedup() {
    let data = rows(N_ROWS);
    // The filter holds slots; `data` plays the slab that resolves them.
    let held = |s: Slot| -> &Row { &data[s as usize] };
    bench("dedup_rowset", 20, || {
        let mut set = RowSet::new();
        for (slot, r) in data.iter().enumerate() {
            set.insert(RowSet::hash_of(r), r, slot as Slot, held);
        }
        // Second pass: every row is a duplicate.
        for r in &data {
            black_box(set.insert(RowSet::hash_of(r), r, N_ROWS as Slot, held));
        }
        set.len() as u64
    });
}

fn bench_policy_choose() {
    let actions = vec![
        (
            Action::ProbeStem {
                mid: 3,
                table: TableIdx(1),
            },
            stems_core::policy::Hint { est_cost_us: 50 },
        ),
        (
            Action::ProbeStem {
                mid: 4,
                table: TableIdx(2),
            },
            stems_core::policy::Hint { est_cost_us: 80 },
        ),
        (
            Action::Select {
                mid: 5,
                pred: PredId(1),
            },
            stems_core::policy::Hint { est_cost_us: 10 },
        ),
        (
            Action::ProbeAm {
                mid: 6,
                table: TableIdx(2),
            },
            stems_core::policy::Hint {
                est_cost_us: 200_000,
            },
        ),
    ];
    let tuple = Tuple::singleton_of(TableIdx(0), vec![Value::Int(1)]);
    let state = stems_core::TupleState::new();
    for kind in [
        RoutingPolicyKind::Fixed { probe_order: None },
        RoutingPolicyKind::Lottery,
        RoutingPolicyKind::BenefitCost {
            epsilon: 0.05,
            drop_rate: 1.0,
        },
    ] {
        let mut policy = kind.build();
        // Warm the EWMAs so the benched path is steady-state.
        for i in 0..64 {
            policy.feedback(&Feedback::StemProbe {
                table: TableIdx(1 + (i % 2) as u8),
                emitted: (i % 3) as usize,
            });
        }
        let mut rng = SimRng::new(7);
        let name = format!("policy_choose/{}", policy.name());
        bench(&name, 200_000, || {
            policy.choose(&tuple, &state, &actions, &mut rng) as u64
        });
    }
}

fn bench_eddy_end_to_end() {
    // 2000 × 2000 row symmetric hash join through the full engine, scalar
    // routing vs the batched default.
    let mut catalog = Catalog::new();
    let r = TableBuilder::new("R", 2000, 71)
        .col("a", ColGen::Mod(500))
        .register(&mut catalog)
        .unwrap();
    let s = TableBuilder::new("S", 2000, 72)
        .col("x", ColGen::Mod(500))
        .register(&mut catalog)
        .unwrap();
    catalog.add_scan(r, ScanSpec::with_rate(100_000.0)).unwrap();
    catalog.add_scan(s, ScanSpec::with_rate(100_000.0)).unwrap();
    let query = parse_query(&catalog, "SELECT * FROM R, S WHERE R.a = S.x").unwrap();
    for batch_size in [1usize, 64, 256] {
        bench(
            &format!("eddy_end_to_end/shj_2kx2k_batch{batch_size}"),
            5,
            || {
                let config = ExecConfig {
                    batch_size,
                    ..ExecConfig::default()
                };
                let report = EddyExecutor::build(&catalog, &query, config).unwrap().run();
                report.results.len() as u64
            },
        );
    }

    // Single-table pass-through: pure routing overhead per tuple.
    let mut catalog2 = Catalog::new();
    let t = catalog2
        .add_table(
            TableDef::new("T", Schema::of(&[("k", ColumnType::Int)]))
                .with_rows((0..5000i64).map(|k| vec![Value::Int(k)]).collect()),
        )
        .unwrap();
    catalog2
        .add_scan(t, ScanSpec::with_rate(100_000.0))
        .unwrap();
    let q2 = parse_query(&catalog2, "SELECT * FROM T WHERE T.k >= 0").unwrap();
    bench("eddy_end_to_end/routing_overhead_5k", 5, || {
        let report = EddyExecutor::build(&catalog2, &q2, ExecConfig::default())
            .unwrap()
            .run();
        report.results.len() as u64
    });
}

fn main() {
    println!("stems microbenchmarks (wall-clock)\n");
    bench_stem_build();
    bench_stem_probe();
    bench_dedup();
    bench_policy_choose();
    bench_eddy_end_to_end();
}
