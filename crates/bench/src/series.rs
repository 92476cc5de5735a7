//! The series table: one entry per `BENCH_<n>.json`, each declaring only
//! what is particular to it — its workloads, its variants, its field
//! list and its own acceptance bar. Everything else is [`crate::harness`].

use crate::drive::{drive_stems, generate, run_engine, Data, StemDrive, ENVELOPE};
use crate::harness::{assert_same, Outcome, Params, Phases, Run, Series, Variant, Workload};
use crate::json::{Fields, Json};
use crate::{render_canonical, result_hash};
use std::cell::RefCell;
use std::rc::Rc;
use stems_catalog::{QuerySpec, ScanSpec};
use stems_core::engine::CostModel;
use stems_core::{ExecConfig, QueryServer, QueryStatus, RoutingPolicyKind, ServerReport};
use stems_core::{StemOptions, Submission};
use stems_datagen::gen::ColGen::{self, FloatMod, Mod, ModShuffled, Serial, StrMod};
use stems_sql::parse_query;
use stems_types::Value;

pub static SERIES: [Series; 8] = [
    // Scalar-vs-batched routing on the plain chain — the workload where
    // intermediate results dominate routing traffic. Batch 1 is the
    // paper's tuple-at-a-time routing, 64 the engine default.
    Series {
        name: "batch",
        file: "BENCH_1.json",
        benchmark: "eddy_chain3_{r}x{r}x{r}_benefit_cost",
        metric: "input_rows_per_sec_wall",
        rows: 3000,
        runs: 5,
        header: no_header,
        workloads: |p| {
            let build = |rows, chunk| chain(rows, 71, scan(1e5, chunk), (500, 400));
            let variants = [
                ("batch1", 1, 1, true),
                ("batch64", 1, 64, true),
                ("batch256", 1, 256, true),
            ];
            vec![engine_workload("", p.rows, build, &variants)]
        },
        entry: engine_entry,
        check: no_check,
    },
    // Chunked ingestion + Int kernels on the selection-heavy chain: every
    // table carries a column-vs-constant selection, so base-table rows
    // dominate routing traffic and SMs dominate module work.
    Series {
        name: "ingest",
        file: "BENCH_2.json",
        benchmark: "eddy_chain3_sel3_{r}x{r}x{r}_benefit_cost",
        metric: "input_rows_per_sec_wall",
        rows: 3000,
        runs: 5,
        header: no_header,
        workloads: |p| {
            let variants = [
                ("scalar", 1, 1, true),
                ("pr1_batch64", 1, 64, true),
                ("chunked_batch64", 64, 64, true),
                ("chunked_batch256", 256, 256, true),
            ];
            vec![engine_workload("", p.rows, int_chain, &variants)]
        },
        entry: |r, all| {
            let mut fields = engine_entry(r, all);
            fields.push(("speedup_vs_pr1", ratio(r.rate(), all[1].rate())));
            fields
        },
        check: no_check,
    },
    // The kernel family: the pure-Int chain of `ingest` (must not
    // regress) and the same chain with mixed-type, NULL-sprinkled
    // selection columns. The scalar baselines run unfused — the strict
    // one-SM-per-hop cascade; `unfused_batch64` isolates fusion's share.
    Series {
        name: "kernels",
        file: "BENCH_3.json",
        benchmark: "kernel_family_chain3_{r}x{r}x{r}_benefit_cost",
        metric: "input_rows_per_sec_wall",
        rows: 3000,
        runs: 5,
        header: no_header,
        workloads: |p| {
            let int = [("scalar", 1, 1, false), ("chunked_batch64", 64, 64, true)];
            let mixed = [
                ("scalar", 1, 1, false),
                ("unfused_batch64", 64, 64, false),
                ("chunked_batch64", 64, 64, true),
            ];
            vec![
                engine_workload("int_chain", p.rows, int_chain, &int),
                engine_workload("mixed_chain", p.rows, mixed_chain, &mixed),
            ]
        },
        entry: engine_entry,
        check: no_check,
    },
    // Shard fan-outs {1, 2, 4} under the chain's SteM traffic, driven
    // directly. Beside the wall numbers each entry carries the *virtual*
    // completion time of the full eddy under the parallel-server cost
    // model (an envelope's SteM service time is the busiest shard's
    // load) — deterministic, so it is the headline scaling figure; the
    // wall ratio only exceeds 1 when the host grants real cores.
    Series {
        name: "shards",
        file: "BENCH_4.json",
        benchmark: "sharded_stem_chain3_{r}x{r}x{r}",
        metric: "virtual_chain_speedup_and_wall_ops_per_sec",
        rows: 60_000,
        runs: 5,
        header: |p| {
            vec![
                ("virtual_rows", Json::Int(p.vrows as u64)),
                ("envelope", Json::Int(ENVELOPE as u64)),
            ]
        },
        workloads: shards_workloads,
        entry: |r, all| {
            let virtual_secs = |run: &Run| run.extra("virtual_end_secs").num();
            let mut fields = r.head();
            fields.push(("virtual_end_secs", r.extra("virtual_end_secs").clone()));
            fields.push((
                "speedup_vs_shards1",
                ratio(virtual_secs(&all[0]), virtual_secs(r)),
            ));
            fields.extend(stem_timings(r));
            fields.push(("wall_speedup_vs_shards1", ratio(r.rate(), all[0].rate())));
            fields.extend(results_and_hash(r));
            fields
        },
        check: no_check,
    },
    // The flat probe pipeline at envelope 4096 against the same SteM at
    // envelope 1 (the scalar per-tuple probe path), on three workloads
    // that each expose one lever: key-run dedup (`dup_keys`), hash-once
    // string keys (`str_keys`), one scan snapshot per envelope for
    // unbindable probes (`fanout`).
    Series {
        name: "probe",
        file: "BENCH_5.json",
        benchmark: "flat_probe_pipeline_{r}x{r}",
        metric: "probes_per_sec_wall",
        rows: 30_000,
        runs: 3,
        header: |_| vec![("envelope", Json::Int(ENVELOPE as u64))],
        workloads: probe_workloads,
        entry: |r, all| {
            let mut fields = r.head();
            fields.push(("probes_per_sec", Json::Float(r.rate(), 0)));
            fields.push(("median_secs", Json::Float(r.secs(), 6)));
            fields.extend(results_and_hash(r));
            fields.push(("speedup_vs_scalar", ratio(r.rate(), all[0].rate())));
            fields
        },
        check: no_check,
    },
    // The worker budget {1, 2, 4, 8} of the pool that services the
    // fan-outs, at a fixed 8 shards. The pool must be a pure scheduling
    // device — bit-invisible at every budget; the speedup is real only
    // where `cores` says so.
    Series {
        name: "workers",
        file: "BENCH_6.json",
        benchmark: "worker_pool_chain3_{r}x{r}x{r}_shards8",
        metric: "wall_ops_per_sec_vs_worker_budget",
        rows: 60_000,
        runs: 5,
        header: |_| {
            vec![
                ("envelope", Json::Int(ENVELOPE as u64)),
                ("num_shards", Json::Int(8)),
            ]
        },
        workloads: |p| {
            let data = chain(p.rows, 91, scan(1e7, 1), (p.rows as i64, p.rows as i64));
            let variant = |workers: usize| {
                let drive = chain_traffic(StemOptions {
                    num_shards: 8,
                    workers: Some(workers),
                    ..StemOptions::default()
                });
                let label = format!("workers{workers}");
                stem_variant(label, "workers", workers, &data, drive)
            };
            vec![Workload {
                name: String::new(),
                runs: None,
                variants: [1, 2, 4, 8].map(variant).into(),
            }]
        },
        entry: |r, all| {
            let mut fields = r.head();
            fields.extend(stem_timings(r));
            fields.push(("speedup_vs_1", ratio(r.rate(), all[0].rate())));
            fields.extend(results_and_hash(r));
            fields
        },
        check: no_check,
    },
    // The chain as a query stream: N concurrent queries (five selection
    // cuts cycling) submitted at once, folding off (N private executors)
    // against folding on (each row built once, probed by all N). Latency
    // percentiles are virtual, so they reproduce on any host.
    Series {
        name: "server",
        file: "BENCH_8.json",
        benchmark: "query_server_chain3_{r}x{r}x{r}",
        metric: "wall_queries_per_sec_folding_on_vs_off",
        rows: 2000,
        runs: 3,
        header: no_header,
        workloads: server_workloads,
        entry: |r, _| {
            let mut fields = r.head();
            fields.push(("queries_per_sec", Json::Float(r.rate(), 3)));
            fields.push(("median_secs", Json::Float(r.secs(), 6)));
            fields.push(("results_total", Json::Int(r.out.results as u64)));
            fields.extend(r.out.extra.iter().cloned());
            fields.push(("result_hash", Json::str(&r.out.hash)));
            fields
        },
        check: no_check,
    },
    // The two work-avoidance levers of an expensive `SIEVE` selection:
    // per-envelope key dedup and the cross-batch verdict memo. Neither
    // changes a verdict, only how often `cost_us` of virtual latency is
    // paid — so the metric is virtual end time.
    Series {
        name: "pred",
        file: "BENCH_9.json",
        benchmark: "memoized_expensive_predicate_{r}x40",
        metric: "virtual_end_time_us",
        rows: 20_000,
        runs: 3,
        header: |_| {
            vec![
                ("distinct", Json::Int(SIEVE_DISTINCT as u64)),
                ("cost_us", Json::Int(SIEVE_COST_US)),
            ]
        },
        workloads: pred_workloads,
        entry: |r, all| {
            let mut fields = r.head();
            fields.extend(r.out.extra.iter().cloned());
            fields.push(("results", Json::Int(r.out.results as u64)));
            fields.push(("median_secs", Json::Float(r.secs(), 6)));
            fields.push(("result_hash", Json::str(&r.out.hash)));
            fields.push(("speedup_vs_plain", Json::Float(pred_speedup(&all[0], r), 3)));
            fields
        },
        check: |cells| {
            let speedup = pred_speedup(&cells[0], cells.last().expect("four cells"));
            println!("memo+dedup speedup vs plain: {speedup:.1}x virtual time");
            assert!(
                speedup >= 3.0,
                "memo+dedup speedup {speedup:.2}x below the 3x bar"
            );
        },
    },
];

fn no_header(_: &Params) -> Fields {
    Vec::new()
}

fn no_check(_: &[Run]) {}

fn ratio(a: f64, b: f64) -> Json {
    Json::Float(a / b, 3)
}

fn results_and_hash(r: &Run) -> Fields {
    vec![
        ("results", Json::Int(r.out.results as u64)),
        ("result_hash", Json::str(&r.out.hash)),
    ]
}

fn scan(rate: f64, chunk: usize) -> ScanSpec {
    ScanSpec::with_rate(rate).with_chunk(chunk)
}

const CHAIN_SQL: &str = "SELECT * FROM R, S, T WHERE R.a = S.x AND S.y = T.b";

/// The plain 3-table chain: `R.a`/`S.x` over `ax` distinct values,
/// `S.y`/`T.b` over `yb`.
fn chain(rows: usize, seed: u64, scan: ScanSpec, (ax, yb): (i64, i64)) -> Data {
    let tables: [(&str, &[(&str, ColGen)]); 3] = [
        ("R", &[("a", Mod(ax))]),
        ("S", &[("x", Mod(ax)), ("y", Mod(yb))]),
        ("T", &[("b", Mod(yb))]),
    ];
    generate(rows, seed, scan, &tables, CHAIN_SQL)
}

/// The chain with one Int selection per table, each keeping 60%.
fn int_chain(rows: usize, chunk: usize) -> Data {
    let tables: [(&str, &[(&str, ColGen)]); 3] = [
        ("R", &[("a", Mod(500)), ("u", Mod(500))]),
        ("S", &[("x", Mod(500)), ("y", Mod(400)), ("v", Mod(500))]),
        ("T", &[("b", Mod(400)), ("w", Mod(500))]),
    ];
    let sql = format!("{CHAIN_SQL} AND R.u < 300 AND S.v < 300 AND T.w < 300");
    generate(rows, 81, scan(1e5, chunk), &tables, &sql)
}

/// The chain with mixed-type selections of comparable selectivity: a
/// NULL-sprinkled Float column (`FloatMod(500)` spans 0.0..250.0, so
/// `< 150.0` keeps ~60%), a NULL-sprinkled Str column under an IN-list
/// (5 of 8), a second Int selection on the same table (conjunction
/// fusion), and a NULL-sprinkled Int column.
fn mixed_chain(rows: usize, chunk: usize) -> Data {
    let tables: [(&str, &[(&str, ColGen)]); 3] = [
        ("R", &[("a", Mod(500)), ("u", FloatMod(500).with_nulls(11))]),
        (
            "S",
            &[
                ("x", Mod(500)),
                ("y", Mod(400)),
                ("v", StrMod(8).with_nulls(13)),
                ("w", Mod(500)),
            ],
        ),
        ("T", &[("b", Mod(400)), ("w", Mod(500).with_nulls(7))]),
    ];
    let sql = format!(
        "{CHAIN_SQL} AND R.u < 150.0 AND S.v IN ('s0', 's1', 's2', 's3', 's4') \
         AND S.w < 300 AND T.w < 300"
    );
    generate(rows, 81, scan(1e5, chunk), &tables, &sql)
}

fn benefit_cost() -> RoutingPolicyKind {
    // The adaptive policy, so every routing decision scores candidates.
    RoutingPolicyKind::BenefitCost {
        epsilon: 0.05,
        drop_rate: 1.0,
    }
}

/// Full engine runs of one chain: variants are (label, scan chunk,
/// routing batch, fuse_selections).
fn engine_workload(
    name: &str,
    rows: usize,
    build: fn(usize, usize) -> Data,
    variants: &[(&str, usize, usize, bool)],
) -> Workload {
    let variant = |&(label, chunk, batch_size, fuse_selections): &(&str, usize, usize, bool)| {
        let data = build(rows, chunk);
        let run = move |ph: &mut Phases| {
            let config = ExecConfig {
                batch_size,
                fuse_selections,
                policy: benefit_cost(),
                ..ExecConfig::default()
            };
            run_engine(&data, config, render_canonical, ph).1
        };
        Variant {
            label: label.into(),
            params: vec![
                ("chunk", Json::Int(chunk as u64)),
                ("batch_size", Json::Int(batch_size as u64)),
            ],
            run: Box::new(run),
        }
    };
    Workload {
        name: name.into(),
        runs: None,
        variants: variants.iter().map(variant).collect(),
    }
}

fn engine_entry(r: &Run, all: &[Run]) -> Fields {
    let mut fields = r.head();
    fields.push(("rows_per_sec", Json::Float(r.rate(), 0)));
    fields.push(("median_secs", Json::Float(r.secs(), 6)));
    fields.extend(results_and_hash(r));
    fields.push(("speedup_vs_scalar", ratio(r.rate(), all[0].rate())));
    fields
}

/// A direct SteM drive of `data`; `param` names what the variant varies.
fn stem_variant(
    label: String,
    param: &'static str,
    value: usize,
    data: &Data,
    drive: StemDrive,
) -> Variant {
    let data = data.clone();
    Variant {
        label,
        params: vec![(param, Json::Int(value as u64))],
        run: Box::new(move |ph| drive_stems(&data, &drive, ph)),
    }
}

/// The chain's build+probe traffic into SteMs configured by `options`.
fn chain_traffic(options: StemOptions) -> StemDrive {
    StemDrive {
        options,
        envelope: ENVELOPE,
        probe_only: None,
    }
}

fn stem_timings(r: &Run) -> Fields {
    vec![
        ("ops_per_sec", Json::Float(r.rate(), 0)),
        ("median_secs", Json::Float(r.secs(), 6)),
        ("build_secs", Json::Float(r.phase("build"), 6)),
        ("probe_secs", Json::Float(r.phase("probe"), 6)),
    ]
}

fn shards_workloads(p: &Params) -> Vec<Workload> {
    // Join keys span ~`rows` distinct values: selective probes (≈1 match
    // each) and an even spread across shards. The virtual runs take a
    // smaller relation (the full eddy is slower per row than the direct
    // loop; the deterministic ratios do not depend on it), delivered in
    // bursts fast enough that SteM service dominates the timeline.
    let vbatch = ENVELOPE.min(1024);
    let data = chain(p.rows, 91, scan(1e7, 1), (p.rows as i64, p.rows as i64));
    let vdata = chain(
        p.vrows,
        91,
        scan(1e7, vbatch),
        (p.vrows as i64, p.vrows as i64),
    );
    let vreference = Rc::new(RefCell::new(None));
    let variant = |num_shards: usize| {
        let drive = chain_traffic(StemOptions {
            num_shards,
            ..StemOptions::default()
        });
        let label = format!("shards{num_shards}");
        let Variant {
            label,
            params,
            run: mut wall,
        } = stem_variant(label, "num_shards", num_shards, &data, drive);
        let who = format!("{label} (virtual)");
        let (vdata, vreference) = (vdata.clone(), vreference.clone());
        let run = move |ph: &mut Phases| {
            let mut out = wall(ph);
            let config = ExecConfig {
                batch_size: vbatch,
                num_shards,
                costs: CostModel {
                    shard_parallel_service: true,
                    ..CostModel::default()
                },
                policy: benefit_cost(),
                ..ExecConfig::default()
            };
            let (report, vout) =
                run_engine(&vdata, config, render_canonical, &mut Phases::default());
            assert_same(&mut vreference.borrow_mut(), &who, &vout.hash, vout.results);
            let secs = stems_sim::to_secs(report.end_time);
            out.extra.push(("virtual_end_secs", Json::Float(secs, 6)));
            out
        };
        Variant {
            label,
            params,
            run: Box::new(run),
        }
    };
    vec![Workload {
        name: String::new(),
        runs: None,
        variants: [1, 2, 4].map(variant).into(),
    }]
}

fn probe_workloads(p: &Params) -> Vec<Workload> {
    // ~97 distinct keys: a 4096-probe envelope repeats each dozens of
    // times. Most probes are §3.5-style re-probes (stamped older than the
    // store), so fetch cost, not result concatenation, dominates; every
    // 8th is live and forms results.
    const DUP_DOMAIN: i64 = 97;
    let keyed = |r_gen: ColGen, s_gen: ColGen| {
        let tables: [(&str, &[(&str, ColGen)]); 2] =
            [("R", &[("a", r_gen)]), ("S", &[("x", s_gen)])];
        let sql = "SELECT * FROM R, S WHERE R.a = S.x";
        (
            generate(p.rows, 51, scan(1e7, 1), &tables, sql),
            u64::MAX - 1,
            8,
        )
    };
    // Predicate-free R × S: every probe is unbindable and takes the scan
    // path. Probes are stamped just above the first build, so each forms
    // exactly one result and the set stays linear in probes.
    let fanout = {
        let tables: [(&str, &[(&str, ColGen)]); 2] =
            [("R", &[("a", Serial)]), ("S", &[("x", Serial)])];
        let rows = (p.rows / 10).max(200);
        (
            generate(rows, 53, scan(1e7, 1), &tables, "SELECT * FROM R, S"),
            2,
            1,
        )
    };
    let workload = |name: &str, (data, live_ts, stride): (Data, u64, usize)| {
        let variant = |envelope: usize| {
            let drive = StemDrive {
                options: StemOptions::default(),
                envelope,
                probe_only: Some((live_ts, stride)),
            };
            let label = format!("envelope{envelope}");
            stem_variant(label, "envelope", envelope, &data, drive)
        };
        Workload {
            name: name.into(),
            runs: None,
            variants: [1, ENVELOPE].map(variant).into(),
        }
    };
    vec![
        workload("dup_keys", keyed(Mod(DUP_DOMAIN), Serial)),
        workload(
            "str_keys",
            keyed(StrMod(DUP_DOMAIN * 4), StrMod(p.rows as i64)),
        ),
        workload("fanout", fanout),
    ]
}

fn server_workloads(p: &Params) -> Vec<Workload> {
    let rows = p.rows;
    let data = chain(rows, 71, scan(1e6, 1), (rows as i64, rows as i64));
    let workload = |n: usize| {
        // Query `i`: the shared joins plus one of five cuts on R, so
        // result sets differ across the stream while every SteM folds.
        let queries: Rc<Vec<QuerySpec>> = Rc::new(
            (0..n)
                .map(|i| {
                    let cut = rows / 2 + (i % 5) * rows / 20;
                    let sql = format!("{CHAIN_SQL} AND R.key < {cut}");
                    parse_query(&data.0, &sql).expect("stream query")
                })
                .collect(),
        );
        let variant = |fold: bool| {
            let (data, queries) = (data.clone(), queries.clone());
            Variant {
                label: if fold { "fold_on" } else { "fold_off" }.into(),
                params: vec![("queries", Json::Int(n as u64))],
                run: Box::new(move |ph| serve(&data, &queries, fold, ph)),
            }
        };
        Workload {
            name: format!("q{n}"),
            // The 1000-query stream dominates wall time; one run suffices.
            runs: (n >= 1000).then_some(1),
            variants: [false, true].map(variant).into(),
        }
    };
    [1, 10, 100, 1000].map(workload).into()
}

/// Submit every query at once and drain the server (phase `serve`).
fn serve(data: &Data, queries: &[QuerySpec], fold: bool, ph: &mut Phases) -> Outcome {
    let catalog = &data.0;
    let mut server = QueryServer::builder(catalog).fold(fold).build().unwrap();
    for q in queries {
        server.submit(Submission::new(q.clone())).unwrap();
    }
    let (handles, stats) = ph.time("serve", || server.serve());
    let reports: Vec<ServerReport> = handles
        .into_iter()
        .map(|h| {
            assert_eq!(h.status, QueryStatus::Completed);
            h.report.expect("completed query has a report")
        })
        .collect();
    let mut rendered = Vec::new();
    let mut results = 0;
    for (i, (sr, query)) in reports.iter().zip(queries).enumerate() {
        results += sr.report.results.len();
        let rows = render_canonical(&sr.report.canonical(catalog, query));
        rendered.extend(rows.into_iter().map(|line| format!("q{i}|{line}")));
    }
    let mut latencies: Vec<u64> = reports.iter().map(ServerReport::latency).collect();
    latencies.sort_unstable();
    let percentile = |q: f64| {
        let idx = ((latencies.len() - 1) as f64 * q).round() as usize;
        Json::Int(latencies[idx])
    };
    Outcome {
        units: queries.len(),
        results,
        hash: result_hash(rendered),
        extra: vec![
            ("latency_p50_us", percentile(0.50)),
            ("latency_p95_us", percentile(0.95)),
            ("latency_p99_us", percentile(0.99)),
            ("shared_stems", Json::Int(stats.shared_stems as u64)),
            ("shared_builds", Json::Int(stats.shared_builds)),
        ],
    }
}

/// Distinct sieve keys: 20k rows repeat each ~500 times, so the memo
/// pays the virtual cost 40 times instead of 20000.
const SIEVE_DISTINCT: i64 = 40;
/// Virtual µs charged per *computed* sieve verdict.
const SIEVE_COST_US: u64 = 1_000;

fn pred_workloads(p: &Params) -> Vec<Workload> {
    // Rows land 64 at a time, so routing envelopes are real batches and
    // the dedup-only cell has duplicates to share. The sieve passes half
    // the keys.
    let tables: [(&str, &[(&str, ColGen)]); 1] = [("R", &[("a", ModShuffled(SIEVE_DISTINCT))])];
    let sql = format!("SELECT * FROM R WHERE SIEVE(R.a, 500, {SIEVE_COST_US})");
    let data = generate(p.rows, 91, scan(1e6, 64), &tables, &sql);
    let variant = |(memo, udf_dedup): (bool, bool)| {
        let data = data.clone();
        let run = move |ph: &mut Phases| {
            let config = ExecConfig {
                memo,
                udf_dedup,
                ..ExecConfig::default()
            };
            let (report, mut out) = run_engine(&data, config, debug_rows, ph);
            out.extra = vec![
                ("end_time_us", Json::Int(report.end_time)),
                ("udf_calls", Json::Int(report.counter("udf_calls"))),
                ("memo_hits", Json::Int(report.counter("memo_hits"))),
            ];
            out
        };
        Variant {
            label: format!("memo{}_dedup{}", memo as u8, udf_dedup as u8),
            params: vec![("memo", Json::Bool(memo)), ("dedup", Json::Bool(udf_dedup))],
            run: Box::new(run),
        }
    };
    let cells = [(false, false), (false, true), (true, false), (true, true)];
    vec![Workload {
        name: String::new(),
        runs: None,
        variants: cells.map(variant).into(),
    }]
}

/// How `BENCH_9.json`'s committed hashes spell a canonical row.
fn debug_rows(rows: &[Vec<Value>]) -> Vec<String> {
    rows.iter().map(|row| format!("{row:?}")).collect()
}

fn pred_speedup(plain: &Run, cell: &Run) -> f64 {
    plain.extra("end_time_us").num() / cell.extra("end_time_us").num().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name"`/`"label"` string of a committed document, in order,
    /// as (workload, label) pairs — a string scan, not a parser.
    fn committed_labels(text: &str) -> Vec<(String, String)> {
        let mut workload = String::new();
        let mut pairs = Vec::new();
        let mut rest = text;
        while let Some(at) = rest.find("\": \"") {
            let key = rest[..at].rsplit('"').next().unwrap().to_string();
            rest = &rest[at + 4..];
            let value = rest[..rest.find('"').unwrap()].to_string();
            match key.as_str() {
                "name" => workload = value,
                "label" => pairs.push((workload.clone(), value)),
                _ => {}
            }
        }
        pairs
    }

    #[test]
    fn committed_baselines_carry_exactly_the_registered_labels() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let params = Params {
            rows: 20,
            runs: 1,
            vrows: 20,
        };
        for series in &SERIES {
            let path = format!("{root}/{}", series.file);
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
            let registered: Vec<(String, String)> = (series.workloads)(&params)
                .into_iter()
                .flat_map(|w| {
                    let labels = w.variants.into_iter().map(|v| v.label);
                    labels.map(move |label| (w.name.clone(), label))
                })
                .collect();
            assert_eq!(
                committed_labels(&text),
                registered,
                "{} does not carry the labels the `{}` series registers",
                series.file,
                series.name
            );
        }
        // Every committed baseline has a series that regenerates it.
        let mut committed: Vec<String> = std::fs::read_dir(root)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|f| f.starts_with("BENCH_") && f.ends_with(".json"))
            .collect();
        committed.sort();
        let files: Vec<&str> = SERIES.iter().map(|s| s.file).collect();
        assert_eq!(committed, files);
    }
}
