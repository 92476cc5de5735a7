//! Worker-pool scaling of the sharded SteM hot path, emitted as
//! `BENCH_6.json` — the sixth point of the perf trajectory (`BENCH_4`:
//! sharded SteMs, `BENCH_5`: flat probe pipeline).
//!
//! Drives the same 3-table chain build+probe traffic as `bench_shards`,
//! but holds the shard fan-out fixed at 8 and sweeps the **worker
//! budget** {1, 2, 4, 8} of the persistent work-stealing pool
//! ([`stems_core::runtime::WorkerPool`]) that services the fan-outs.
//! Workers = 1 is the serial engine: every lane runs on the calling
//! thread. Larger budgets dispatch per-shard build lanes and skew-chunked
//! probe lanes to long-lived pool workers (no per-envelope thread
//! spawn/join, per-shard queue affinity, round-robin stealing).
//!
//! Every series must produce the identical result multiset — asserted
//! internally and gated in CI via `result_hash`, which is the
//! load-bearing claim on a single-core runner: the pool must be a pure
//! scheduling device, bit-invisible at every budget. `speedup_vs_1`
//! reports the wall-clock scaling actually observed; it is ≥ 1.5× at
//! workers = 4 only when the host grants real cores (`cores` records
//! what was available; on a 1-core container the series documents pool
//! overhead, not speedup).
//!
//! Quick mode for CI smoke: `STEMS_BENCH_ROWS` (default 60000),
//! `STEMS_BENCH_RUNS` (default 5) and `STEMS_BENCH_ENVELOPE` (default
//! 4096) shrink the workload. Output lands in `$STEMS_BENCH_OUT` or
//! `./BENCH_6.json`.

use std::time::Instant;
use stems_bench::{env_usize, result_hash};
use stems_catalog::{Catalog, QuerySpec, ScanSpec};
use stems_core::stem::ProbeReplySet;
use stems_core::{ShardedStem, StemOptions, TupleState};
use stems_datagen::{gen::ColGen, TableBuilder};
use stems_sql::parse_query;
use stems_types::{TableIdx, Timestamp, Tuple, TupleBatch};

/// Shard fan-out under test: enough lanes that every worker budget in the
/// sweep has parallel work available.
const NUM_SHARDS: usize = 8;

/// The 3-table chain (R ⋈ S on `R.a = S.x`, S ⋈ T on `S.y = T.b`), keys
/// spanning ~`rows` distinct values — selective probes, even spread.
fn build_workload(rows: usize) -> (Catalog, QuerySpec) {
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
        catalog.add_scan(src, ScanSpec::with_rate(1e7)).unwrap();
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
    ops: usize,
    results: usize,
    result_hash: String,
}

impl RunOutcome {
    fn total_secs(&self) -> f64 {
        self.build_secs + self.probe_secs
    }
}

/// One full build+probe pass of the chain traffic at `workers`.
fn run_once(catalog: &Catalog, query: &QuerySpec, envelope: usize, workers: usize) -> RunOutcome {
    let mk = |t: usize| {
        let ti = TableIdx(t as u8);
        ShardedStem::new(
            ti,
            query.tables[t].source,
            &query.join_cols_of(ti),
            true,
            false,
            StemOptions {
                num_shards: NUM_SHARDS,
                workers: Some(workers),
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

    // Probe phase: R probes SteM S; the concatenations probe SteM T.
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
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let ambient_workers = stems_core::runtime::default_workers();
    let (catalog, query) = build_workload(rows);

    struct Entry {
        workers: usize,
        ops_per_sec: f64,
        median_secs: f64,
        build_secs: f64,
        probe_secs: f64,
        results: usize,
        result_hash: String,
    }
    let mut entries: Vec<Entry> = Vec::new();
    let mut reference: Option<(String, usize)> = None;
    for workers in [1usize, 2, 4, 8] {
        let mut outs: Vec<RunOutcome> = Vec::new();
        for _ in 0..runs {
            let out = run_once(&catalog, &query, envelope, workers);
            // Every run of every series must agree with the very first —
            // the pool is a pure scheduling device on each pass.
            let (hash, results) =
                reference.get_or_insert_with(|| (out.result_hash.clone(), out.results));
            assert_eq!(
                &out.result_hash, hash,
                "workers {workers} changed the result multiset — the pool is not a pure \
                 scheduling device"
            );
            assert_eq!(out.results, *results);
            outs.push(out);
        }
        // Report the phases of the median run (upper median for even
        // counts), so build + probe add up to the median beside them.
        outs.sort_by(|a, b| a.total_secs().total_cmp(&b.total_secs()));
        let out = outs.swap_remove(outs.len() / 2);
        let med = out.total_secs();
        let ops_per_sec = out.ops as f64 / med;
        println!(
            "workers {workers}: {ops_per_sec:>12.0} ops/s wall (median {med:.4}s over {runs} \
             runs, build {:.4}s + probe {:.4}s, {} results)",
            out.build_secs, out.probe_secs, out.results
        );
        entries.push(Entry {
            workers,
            ops_per_sec,
            median_secs: med,
            build_secs: out.build_secs,
            probe_secs: out.probe_secs,
            results: out.results,
            result_hash: out.result_hash,
        });
    }

    let base = entries[0].ops_per_sec;
    let json = format!(
        "{{\n  \"benchmark\": \"worker_pool_chain3_{rows}x{rows}x{rows}_shards{NUM_SHARDS}\",\n  \
         \"metric\": \"wall_ops_per_sec_vs_worker_budget\",\n  \"rows\": {rows},\n  \
         \"runs\": {runs},\n  \"envelope\": {envelope},\n  \"num_shards\": {NUM_SHARDS},\n  \
         \"cores\": {cores},\n  \"workers\": {ambient_workers},\n  \"series\": [\n{}\n  ]\n}}\n",
        entries
            .iter()
            .map(|e| format!(
                "    {{\"label\": \"workers{}\", \"workers\": {}, \"ops_per_sec\": {:.0}, \
                 \"median_secs\": {:.6}, \"build_secs\": {:.6}, \"probe_secs\": {:.6}, \
                 \"speedup_vs_1\": {:.3}, \"results\": {}, \"result_hash\": \"{}\"}}",
                e.workers,
                e.workers,
                e.ops_per_sec,
                e.median_secs,
                e.build_secs,
                e.probe_secs,
                e.ops_per_sec / base,
                e.results,
                e.result_hash,
            ))
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    let path = std::env::var("STEMS_BENCH_OUT").unwrap_or_else(|_| "BENCH_6.json".into());
    std::fs::write(&path, &json).expect("write BENCH_6.json");
    println!("wrote {path}");
}
