//! Sharded-SteM build+probe throughput, emitted as `BENCH_4.json` — the
//! fourth point of the perf trajectory (`BENCH_1`: batched routing,
//! `BENCH_2`: chunked ingestion + Int kernels, `BENCH_3`: kernel family).
//!
//! Drives the SteM layer directly with the build/probe traffic of the
//! 3-table chain workload (R ⋈ S on `R.a = S.x`, S ⋈ T on `S.y = T.b`):
//! all three relations build into their SteMs in envelope-sized batches
//! (T first, then S, then R, so the TimeStamp rule lets the probe wave
//! generate every result), then the stamped R singletons probe SteM S and
//! the R⋈S concatenations probe SteM T. That is exactly the traffic the
//! eddy routes on this workload, minus the routing machinery — which is
//! the point: the series isolates what hash-partition sharding
//! ([`stems_core::ShardedStem`]) buys on the module hot path itself, at
//! envelope sizes where the scoped-thread fan-out engages.
//!
//! Series: shard fan-outs {1, 2, 4} over identical input (shard 1 is the
//! same SteM code with a single lane). Every series must produce the identical result
//! multiset — asserted via the same `result_hash` the CI bench_check gate
//! consumes.
//!
//! Two speedup measurements per shard count:
//!
//! * **`virtual_speedup_vs_shards1`** — the full eddy runs the chain
//!   query under the parallel-server cost model
//!   (`CostModel::shard_parallel_service`: an envelope's SteM service
//!   time is the *busiest shard's* load, the discrete-event expression of
//!   per-shard servers). Virtual completion time is deterministic —
//!   independent of host core count and CI noise — so this is the
//!   headline scaling series and the ≥ 1.3× at 4 shards the PR claims.
//! * **`wall_speedup_vs_shards1`** — measured wall clock of the direct
//!   build+probe loop. Faithful to the machine it ran on: ≥ 1 only when
//!   the host grants real cores (`cores` records what was available;
//!   on a single-core runner the scoped fan-out stays serial by design
//!   and this ratio just reports the sharding layer's overhead).
//!
//! Quick mode for CI smoke: `STEMS_BENCH_ROWS` (default 60000),
//! `STEMS_BENCH_RUNS` (default 5) and `STEMS_BENCH_ENVELOPE` (default
//! 4096) shrink the workload. Output lands in `$STEMS_BENCH_OUT` or
//! `./BENCH_4.json`.

use std::time::Instant;
use stems_bench::{env_usize, median, result_hash};
use stems_catalog::{Catalog, QuerySpec, ScanSpec};
use stems_core::engine::CostModel;
use stems_core::stem::ProbeReplySet;
use stems_core::{
    EddyExecutor, ExecConfig, RoutingPolicyKind, ShardedStem, StemOptions, TupleState,
};
use stems_datagen::{gen::ColGen, TableBuilder};
use stems_sql::parse_query;
use stems_types::{TableIdx, Timestamp, Tuple, TupleBatch};

/// The 3-table chain, join keys spanning ~`rows` distinct values so the
/// probe side stays selective (≈1 match per probe) and the build side
/// spreads evenly across shards. Scans deliver `chunk`-row bursts at a
/// rate fast enough that SteM service dominates the virtual timeline
/// (only the engine-driven virtual series uses the scans; the direct
/// build+probe loop reads the catalog rows itself).
fn build_workload(rows: usize, chunk: usize) -> (Catalog, QuerySpec) {
    let domain = rows as i64;
    let mut catalog = Catalog::new();
    TableBuilder::new("R", rows, 91)
        .col("a", ColGen::Mod(domain))
        .register(&mut catalog)
        .unwrap();
    TableBuilder::new("S", rows, 92)
        .col("x", ColGen::Mod(domain))
        .col("y", ColGen::Mod(domain))
        .register(&mut catalog)
        .unwrap();
    TableBuilder::new("T", rows, 93)
        .col("b", ColGen::Mod(domain))
        .register(&mut catalog)
        .unwrap();
    for src in (0..3).map(stems_catalog::SourceId) {
        catalog
            .add_scan(src, ScanSpec::with_rate(10_000_000.0).with_chunk(chunk))
            .unwrap();
    }
    let query = parse_query(
        &catalog,
        "SELECT * FROM R, S, T WHERE R.a = S.x AND S.y = T.b",
    )
    .unwrap();
    (catalog, query)
}

struct RunOutcome {
    build_secs: f64,
    probe_secs: f64,
    /// Builds performed + probe tuples issued — the work unit the
    /// throughput metric divides by (identical across shard counts).
    ops: usize,
    results: usize,
    result_hash: String,
}

/// One full build+probe pass of the chain traffic at `num_shards`.
fn run_once(
    catalog: &Catalog,
    query: &QuerySpec,
    envelope: usize,
    num_shards: usize,
) -> RunOutcome {
    let mk = |t: usize| {
        let ti = TableIdx(t as u8);
        ShardedStem::new(
            ti,
            query.tables[t].source,
            &query.join_cols_of(ti),
            true,
            false,
            StemOptions {
                num_shards,
                ..StemOptions::default()
            },
        )
    };
    let (mut stem_r, mut stem_s, mut stem_t) = (mk(0), mk(1), mk(2));
    let singletons = |t: usize| -> Vec<Tuple> {
        catalog
            .table_expect(query.tables[t].source)
            .rows()
            .iter()
            .map(|row| Tuple::singleton(TableIdx(t as u8), row.clone()))
            .collect()
    };
    let (r_rows, s_rows, t_rows) = (singletons(0), singletons(1), singletons(2));
    let mut ops = 0usize;
    let mut ts: Timestamp = 0;

    // Build phase: T, then S, then R — every probe below is by the
    // later-built side, so the TimeStamp rule passes every match.
    let build_start = Instant::now();
    let mut stamped_r: Vec<Tuple> = Vec::with_capacity(r_rows.len());
    for (stem, rows, keep) in [
        (&mut stem_t, &t_rows, false),
        (&mut stem_s, &s_rows, false),
        (&mut stem_r, &r_rows, true),
    ] {
        for chunk in rows.chunks(envelope) {
            let batch: TupleBatch = chunk.iter().cloned().collect();
            let states = vec![TupleState::new(); batch.len()];
            let results = stem.build_batch(&batch, &states, &mut ts);
            ops += batch.len();
            if keep {
                for r in results {
                    if let stems_core::stem::BuildResult::Fresh(t) = r {
                        stamped_r.push(t);
                    }
                }
            }
        }
    }
    let build_secs = build_start.elapsed().as_secs_f64();

    // Probe phase: R probes SteM S; the concatenations probe SteM T. One
    // reply arena serves every envelope — the steady-state reply path.
    let probe_start = Instant::now();
    let fresh_state = TupleState::new();
    let mut final_results: Vec<Tuple> = Vec::new();
    let mut intermediates: Vec<(Tuple, TupleState)> = Vec::new();
    let mut replies = ProbeReplySet::new();
    for chunk in stamped_r.chunks(envelope) {
        let batch: TupleBatch = chunk.iter().cloned().collect();
        let states = vec![fresh_state.clone(); batch.len()];
        ops += batch.len();
        replies.clear();
        stem_s.probe_batch_into(batch.as_slice(), &states, query, &mut replies);
        let (metas, mut results) = replies.metas_and_results();
        for meta in metas {
            for (tuple, done) in results.by_ref().take(meta.len) {
                intermediates.push((tuple, TupleState::for_result(done)));
            }
        }
    }
    for chunk in intermediates.chunks(envelope) {
        let batch: TupleBatch = chunk.iter().map(|(t, _)| t.clone()).collect();
        let states: Vec<TupleState> = chunk.iter().map(|(_, s)| s.clone()).collect();
        ops += batch.len();
        replies.clear();
        stem_t.probe_batch_into(batch.as_slice(), &states, query, &mut replies);
        let (_, results) = replies.metas_and_results();
        for (tuple, _) in results {
            final_results.push(tuple);
        }
    }
    let probe_secs = probe_start.elapsed().as_secs_f64();

    let rendered: Vec<String> = final_results.iter().map(|t| t.to_string()).collect();
    RunOutcome {
        build_secs,
        probe_secs,
        ops,
        results: final_results.len(),
        result_hash: result_hash(rendered),
    }
}

fn main() {
    let rows = env_usize("STEMS_BENCH_ROWS", 60_000);
    let runs = env_usize("STEMS_BENCH_RUNS", 5);
    let envelope = env_usize("STEMS_BENCH_ENVELOPE", 4096);
    // The virtual series runs the full eddy, which is slower per row than
    // the direct loop — a smaller relation keeps the bench snappy without
    // affecting the (deterministic) virtual ratios.
    let vrows = env_usize("STEMS_BENCH_VROWS", 8000);
    let vbatch = envelope.min(1024);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let workers = stems_core::runtime::default_workers();
    let (catalog, query) = build_workload(rows, 1);
    let (vcatalog, vquery) = build_workload(vrows, vbatch);

    struct Entry {
        num_shards: usize,
        ops_per_sec: f64,
        median_secs: f64,
        build_secs: f64,
        probe_secs: f64,
        virtual_end_secs: f64,
        results: usize,
        result_hash: String,
    }
    let mut entries: Vec<Entry> = Vec::new();
    let mut virtual_results: Option<usize> = None;
    for num_shards in [1usize, 2, 4] {
        // Wall-clock series: the direct build+probe loop.
        let mut secs = Vec::new();
        let mut last: Option<RunOutcome> = None;
        for _ in 0..runs {
            let out = run_once(&catalog, &query, envelope, num_shards);
            secs.push(out.build_secs + out.probe_secs);
            last = Some(out);
        }
        let out = last.expect("at least one run");
        if let Some(first) = entries.first() {
            assert_eq!(
                out.result_hash, first.result_hash,
                "shards {num_shards} changed the result multiset"
            );
            assert_eq!(out.results, first.results);
        }
        let med = median(secs);
        let ops_per_sec = out.ops as f64 / med;

        // Virtual series: the full eddy under the parallel-server cost
        // model. Deterministic — one run suffices.
        let config = ExecConfig {
            batch_size: vbatch,
            num_shards,
            costs: CostModel {
                shard_parallel_service: true,
                ..CostModel::default()
            },
            policy: RoutingPolicyKind::BenefitCost {
                epsilon: 0.05,
                drop_rate: 1.0,
            },
            ..ExecConfig::default()
        };
        let report = EddyExecutor::build(&vcatalog, &vquery, config)
            .expect("plan")
            .run();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        match virtual_results {
            None => virtual_results = Some(report.results.len()),
            Some(want) => assert_eq!(
                report.results.len(),
                want,
                "shards {num_shards} changed the engine result count"
            ),
        }
        let virtual_end_secs = stems_sim::to_secs(report.end_time);

        println!(
            "shards {num_shards}: {ops_per_sec:>12.0} ops/s wall (median {med:.4}s over {runs} \
             runs, build {:.4}s + probe {:.4}s, {} results) | virtual chain completion \
             {virtual_end_secs:.4}s",
            out.build_secs, out.probe_secs, out.results
        );
        entries.push(Entry {
            num_shards,
            ops_per_sec,
            median_secs: med,
            build_secs: out.build_secs,
            probe_secs: out.probe_secs,
            virtual_end_secs,
            results: out.results,
            result_hash: out.result_hash,
        });
    }

    let wall_base = entries[0].ops_per_sec;
    let virtual_base = entries[0].virtual_end_secs;
    let json = format!(
        "{{\n  \"benchmark\": \"sharded_stem_chain3_{rows}x{rows}x{rows}\",\n  \
         \"metric\": \"virtual_chain_speedup_and_wall_ops_per_sec\",\n  \"rows\": {rows},\n  \
         \"virtual_rows\": {vrows},\n  \"runs\": {runs},\n  \"envelope\": {envelope},\n  \
         \"cores\": {cores},\n  \"workers\": {workers},\n  \"series\": [\n{}\n  ]\n}}\n",
        entries
            .iter()
            .map(|e| format!(
                "    {{\"label\": \"shards{}\", \"num_shards\": {}, \
                 \"virtual_end_secs\": {:.6}, \"speedup_vs_shards1\": {:.3}, \
                 \"ops_per_sec\": {:.0}, \"median_secs\": {:.6}, \
                 \"build_secs\": {:.6}, \"probe_secs\": {:.6}, \
                 \"wall_speedup_vs_shards1\": {:.3}, \
                 \"results\": {}, \"result_hash\": \"{}\"}}",
                e.num_shards,
                e.num_shards,
                e.virtual_end_secs,
                virtual_base / e.virtual_end_secs,
                e.ops_per_sec,
                e.median_secs,
                e.build_secs,
                e.probe_secs,
                e.ops_per_sec / wall_base,
                e.results,
                e.result_hash,
            ))
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    let path = std::env::var("STEMS_BENCH_OUT").unwrap_or_else(|_| "BENCH_4.json".into());
    std::fs::write(&path, &json).expect("write BENCH_4.json");
    println!("wrote {path}");
}
