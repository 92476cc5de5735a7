//! Layer replays: push one iteration's actual traffic — sized from the
//! `Report` counters — through each layer's public functions in
//! isolation, so the traced pass can say how much of `engine.run_ms` each
//! layer's own work explains. Inputs are prepared before a replay's span
//! opens; the span covers the layer calls and the little glue that feeds
//! one call's output to the next.

use crate::run::Outcome;
use crate::trace::Tracer;
use crate::workloads::Workload;
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use stems::catalog::{AccessMethodDef, QuerySpec, SourceId};
use stems::core::am::{IndexAm, IndexProbeOutcome, ScanAm};
use stems::core::memo::{MemoCache, DEFAULT_MEMO_SHARDS};
use stems::core::plan::{self, PlanOptions};
use stems::core::policy::Hint;
use stems::core::router;
use stems::core::stem::{BuildResult, ProbeReplySet, StemOptions};
use stems::core::tuple_state::{CompletionNeed, PriorProber};
use stems::core::{ExecConfig, ShardedStem, Sm, TupleState, WorkerPool};
use stems::sim::{EventQueue, Metrics, SimRng};
use stems::sql::parse_query;
use stems::storage::CandidateBuf;
use stems::types::{HashedKey, Row, TableIdx, TableSet, Timestamp, Tuple, TupleBatch, Value};

/// Calls timed when a replay reports a per-call cost instead of a total.
const PER_CALL_SAMPLE: u64 = 200_000;

/// What one iteration pushed through the layers, read off its reports.
#[derive(Debug, Clone, Default)]
pub struct Traffic {
    pub events: u64,
    pub route_batches: u64,
    /// Tuples that entered routing (one `router::candidates` call each):
    /// scan emissions, build bounce-backs, probe results and bounces,
    /// selection survivors, AM replies and unparks. The engine keeps no
    /// counter for it, so it is the sum of the counters of its sources.
    pub route_tuples: u64,
    /// `Metrics::bump`/`observe` calls (every call appends a series point).
    pub metric_updates: u64,
    pub builds: u64,
    pub probes: u64,
    pub matches: u64,
    pub dup_absorbed: u64,
    pub sm_applied: u64,
    pub filtered: u64,
    pub udf_calls: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub memo_evictions: u64,
    pub index_probes: u64,
    pub am_probe_choices: u64,
    pub probes_bounced: u64,
    pub probes_coalesced: u64,
    pub hints_recosted: u64,
    pub policy_drops: u64,
    /// Series names the reports carry, for the metrics replay.
    pub metric_names: Vec<String>,
}

impl Traffic {
    pub fn of(out: &Outcome) -> Traffic {
        let c = |name: &str| out.counter(name);
        let mut names: Vec<String> = Vec::new();
        let mut matches = 0;
        let mut metric_updates = 0;
        for r in &out.reports {
            for name in r.metrics.series_names() {
                metric_updates += r.metrics.series(name).map_or(0, |s| s.len()) as u64;
                if name.starts_with("span") && name.ends_with("_formed") {
                    matches += r.counter(name);
                }
                if !names.iter().any(|n| n == name) {
                    names.push(name.to_string());
                }
            }
        }
        let am_builds = c("am_fresh_builds") + c("am_dup_builds");
        let scanned = c("scanned");
        Traffic {
            events: out.reports.iter().map(|r| r.events).sum(),
            route_batches: c("route_batches"),
            route_tuples: 2 * scanned
                + matches
                + c("probes_bounced")
                + (c("sm_applied") - c("filtered"))
                + c("am_probe_choices")
                + am_builds
                + c("unparked"),
            metric_updates,
            // A folded server builds each row once whoever scans it.
            builds: out
                .stats
                .map_or(scanned + am_builds, |s| s.shared_builds.max(1)),
            probes: c("stem_probes"),
            matches,
            dup_absorbed: c("duplicates_absorbed"),
            sm_applied: c("sm_applied"),
            filtered: c("filtered"),
            udf_calls: c("udf_calls"),
            memo_hits: c("memo_hits"),
            memo_misses: c("memo_misses"),
            memo_evictions: c("memo_evictions"),
            index_probes: c("index_probes"),
            am_probe_choices: c("am_probe_choices"),
            probes_bounced: c("probes_bounced"),
            probes_coalesced: c("probes_coalesced"),
            hints_recosted: c("hints_recosted"),
            policy_drops: c("policy_drops"),
            metric_names: names,
        }
    }
}

/// One replay round's timings. `*_ms` are totals for the iteration's
/// traffic; `*_ns` / `*_us` are per call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replays {
    pub scan_emit_ms: f64,
    pub index_probe_ms: f64,
    pub stem_build_ms: f64,
    pub stem_probe_ms: f64,
    pub storage_insert_ms: f64,
    pub storage_lookup_ms: f64,
    pub sm_apply_ms: f64,
    pub sm_udf_ms: f64,
    pub memo_lookup_ns: f64,
    pub router_candidates_ns: f64,
    pub policy_choose_ns: f64,
    pub metrics_bump_ns: f64,
    pub agenda_ns: f64,
    pub scope_us: f64,
    pub lane_skew: f64,
}

impl Replays {
    /// Field-wise median over the replay rounds of one traced pass.
    pub fn median_of(rounds: &[Replays]) -> Replays {
        let m = |f: fn(&Replays) -> f64| {
            crate::stats::median(&rounds.iter().map(f).collect::<Vec<f64>>())
        };
        Replays {
            scan_emit_ms: m(|r| r.scan_emit_ms),
            index_probe_ms: m(|r| r.index_probe_ms),
            stem_build_ms: m(|r| r.stem_build_ms),
            stem_probe_ms: m(|r| r.stem_probe_ms),
            storage_insert_ms: m(|r| r.storage_insert_ms),
            storage_lookup_ms: m(|r| r.storage_lookup_ms),
            sm_apply_ms: m(|r| r.sm_apply_ms),
            sm_udf_ms: m(|r| r.sm_udf_ms),
            memo_lookup_ns: m(|r| r.memo_lookup_ns),
            router_candidates_ns: m(|r| r.router_candidates_ns),
            policy_choose_ns: m(|r| r.policy_choose_ns),
            metrics_bump_ns: m(|r| r.metrics_bump_ns),
            agenda_ns: m(|r| r.agenda_ns),
            scope_us: m(|r| r.scope_us),
            lane_skew: m(|r| r.lane_skew),
        }
    }

    /// The replays that stand for work done *inside* `EddyExecutor::run`,
    /// each counted once: storage sits inside the SteM replays, the memo
    /// inside `sm.udf`, the pool scope inside the sharded SteM calls.
    pub fn engine_children_ms(&self, t: &Traffic) -> f64 {
        self.scan_emit_ms
            + self.index_probe_ms
            + self.stem_build_ms
            + self.stem_probe_ms
            + self.sm_apply_ms
            + self.sm_udf_ms
            + (self.router_candidates_ns * t.route_tuples as f64
                + self.policy_choose_ns * t.route_batches as f64
                + self.metrics_bump_ns * t.metric_updates as f64
                + self.agenda_ns * t.events as f64)
                / 1e6
    }
}

/// Per-table inputs shared by the replays, prepared outside every span.
struct TableInput {
    source: SourceId,
    rows: Vec<Arc<Row>>,
    /// Unbuilt singletons in envelopes as the engine's scan delivers them:
    /// `min(scan chunk, batch_size)` rows each.
    envelopes: Vec<TupleBatch>,
    join_cols: Vec<usize>,
}

fn table_inputs(w: &Workload, query: &QuerySpec, config: &ExecConfig) -> Vec<TableInput> {
    (0..query.n_tables())
        .map(|i| {
            let t = TableIdx(i as u8);
            let source = query.tables[i].source;
            let rows = w.catalog.table_expect(source).rows().to_vec();
            let chunk = scan_spec(w, source).map_or(1, |s| s.chunk);
            let envelopes = rows
                .chunks(chunk.min(config.batch_size).max(1))
                .map(|c| c.iter().map(|r| Tuple::singleton(t, r.clone())).collect())
                .collect();
            TableInput {
                source,
                rows,
                envelopes,
                join_cols: query.join_cols_of(t),
            }
        })
        .collect()
}

fn scan_spec(w: &Workload, source: SourceId) -> Option<stems::catalog::ScanSpec> {
    w.catalog
        .ams_of(source)
        .into_iter()
        .find_map(|(_, def)| match def {
            AccessMethodDef::Scan(spec) => Some(spec.clone()),
            AccessMethodDef::Index(_) => None,
        })
}

fn stem_options(config: &ExecConfig) -> StemOptions {
    StemOptions {
        num_shards: config.num_shards,
        workers: Some(config.workers),
        parallel_min_rows: Some(config.parallel_min_rows),
        ..config.plan.default_stem.clone()
    }
}

fn per_call_ns(ms: f64, calls: u64) -> f64 {
    crate::stats::ratio(ms * 1e6, calls as f64)
}

/// Run every replay once for the traffic `t` of one iteration of `w`.
pub fn replay_all(w: &Workload, t: &Traffic, tr: &mut Tracer) -> Replays {
    let config = &w.config;
    // Every text of a workload shares FROM list and join shape, so the
    // first text's plan stands for all of them in the SteM/AM replays.
    let query = parse_query(&w.catalog, &w.sql[0]).expect("workload SQL parses");
    let tables = table_inputs(w, &query, config);
    let mut r = Replays {
        lane_skew: 1.0,
        ..Replays::default()
    };
    tr.span("replay", |tr| {
        r.scan_emit_ms = replay_scans(w, &tables, config, tr);
        r.index_probe_ms = replay_index(w, &query, &tables, config, t, tr);
        (r.stem_build_ms, r.stem_probe_ms, r.lane_skew) =
            replay_stems(w, &query, &tables, config, t, tr);
        (r.storage_insert_ms, r.storage_lookup_ms) = replay_storage(w, &tables, config, t, tr);
        (r.sm_apply_ms, r.sm_udf_ms) = replay_selections(w, &tables, config, tr);
        r.memo_lookup_ns = replay_memo(&query, &tables, config, t, tr);
        (r.router_candidates_ns, r.policy_choose_ns) =
            replay_routing(w, &query, &tables, config, t, tr);
        r.metrics_bump_ns = replay_metrics(t, tr);
        r.agenda_ns = replay_agenda(t, tr);
        r.scope_us = replay_pool_scope(config, tr);
    });
    r
}

/// `am.scan_emit`: every source's `ScanAm::emit_next` to exhaustion.
fn replay_scans(w: &Workload, tables: &[TableInput], config: &ExecConfig, tr: &mut Tracer) -> f64 {
    let mut scans: Vec<ScanAm> = tables
        .iter()
        .enumerate()
        .filter_map(|(i, t)| {
            let spec = scan_spec(w, t.source)?;
            let arity = w.catalog.table_expect(t.source).schema.arity();
            let mut scan = ScanAm::new(
                t.source,
                vec![TableIdx(i as u8)],
                t.rows.clone(),
                arity,
                &spec,
            );
            scan.clamp_chunk(config.batch_size);
            Some(scan)
        })
        .collect();
    // One stream per source: a solo request has one text, and a folded
    // server shares each source's scan among its queries.
    tr.timed("am.scan_emit", || {
        for scan in &mut scans {
            let mut now = scan.first_emit_time();
            loop {
                let (batch, next) = scan.emit_next(now);
                black_box(batch.len());
                match next {
                    Some(t) => now = t,
                    None => break,
                }
            }
        }
    })
}

/// `am.index_probe`: `am_probe_choices` probes through `IndexAm::probe`,
/// in envelopes, each drained by `respond` + `dequeue_pending` as the
/// engine's response events do.
fn replay_index(
    w: &Workload,
    query: &QuerySpec,
    tables: &[TableInput],
    config: &ExecConfig,
    t: &Traffic,
    tr: &mut Tracer,
) -> f64 {
    let Some((target, spec)) = tables.iter().enumerate().find_map(|(i, table)| {
        w.catalog
            .ams_of(table.source)
            .into_iter()
            .find_map(|(_, def)| match def {
                AccessMethodDef::Index(spec) => Some((i, spec.clone())),
                AccessMethodDef::Scan(_) => None,
            })
    }) else {
        return 0.0;
    };
    let target_t = TableIdx(target as u8);
    let arity = w.catalog.table_expect(tables[target].source).schema.arity();
    let mut am = IndexAm::new(
        tables[target].source,
        vec![target_t],
        &tables[target].rows,
        arity,
        spec,
    );
    // Probers: built singletons of the first table joined to the index's.
    let prober = (0..tables.len()).find(|i| *i != target).unwrap_or(0);
    let probers: Vec<Tuple> = tables[prober]
        .rows
        .iter()
        .take(t.am_probe_choices as usize)
        .enumerate()
        .map(|(i, r)| {
            Tuple::singleton(TableIdx(prober as u8), r.clone())
                .with_timestamp(TableIdx(prober as u8), i as Timestamp + 1)
        })
        .collect();
    tr.timed("am.index_probe", || {
        let mut now = 0;
        for envelope in probers.chunks(config.batch_size) {
            let mut scheduled = Vec::new();
            for tuple in envelope {
                for (outcome, key) in am.probe(tuple, target_t, query, now, false) {
                    if let (IndexProbeOutcome::Scheduled { complete, .. }, Some(key)) =
                        (outcome, key)
                    {
                        scheduled.push((key, complete));
                    }
                }
            }
            while let Some((key, complete)) = scheduled.pop() {
                now = now.max(complete);
                black_box(am.respond(&key, query).len());
                if let Some((key, _, complete)) = am.dequeue_pending(now) {
                    scheduled.push((key, complete));
                }
            }
        }
    })
}

/// `stem.build` / `stem.probe`: the workload's envelope size and
/// shard/worker settings against `ShardedStem` directly. Tables build last
/// to first so earlier tables' probes see every later table's rows; probes
/// start from each table's stamped singletons against each join
/// neighbour's SteM, results probe on, until `t.probes` probes were made.
fn replay_stems(
    w: &Workload,
    query: &QuerySpec,
    tables: &[TableInput],
    config: &ExecConfig,
    t: &Traffic,
    tr: &mut Tracer,
) -> (f64, f64, f64) {
    let opts = stem_options(config);
    let mut stems: Vec<ShardedStem> = tables
        .iter()
        .enumerate()
        .map(|(i, table)| {
            ShardedStem::new(
                TableIdx(i as u8),
                table.source,
                &table.join_cols,
                w.catalog.has_scan(table.source),
                w.catalog.has_index(table.source),
                opts.clone(),
            )
        })
        .collect();
    let fresh = TupleState::new();
    let mut stamped: Vec<Vec<Tuple>> = vec![Vec::new(); tables.len()];
    let build_ms = tr.timed("stem.build", || {
        let mut ts: Timestamp = 0;
        let mut built = 0;
        // A second pass (rows the index AM delivered before the scan did)
        // is absorbed as duplicates, as in the engine.
        while built < t.builds {
            for i in (0..tables.len()).rev() {
                for envelope in &tables[i].envelopes {
                    if built >= t.builds {
                        break;
                    }
                    let states = vec![fresh.clone(); envelope.len()];
                    for result in stems[i].build_batch(envelope, &states, &mut ts) {
                        if let BuildResult::Fresh(tuple) = result {
                            stamped[i].push(tuple);
                        }
                    }
                    built += envelope.len() as u64;
                }
            }
        }
    });

    let graph = query.join_graph();
    let level0 = |work: &mut VecDeque<(Vec<Tuple>, Vec<TupleState>, usize)>| {
        for (i, tuples) in stamped.iter().enumerate() {
            for j in graph.neighbors(TableIdx(i as u8)).iter() {
                work.push_back((
                    tuples.clone(),
                    vec![fresh.clone(); tuples.len()],
                    j.as_usize(),
                ));
            }
        }
    };
    let mut work = VecDeque::new();
    level0(&mut work);
    let mut replies = ProbeReplySet::new();
    let probe_ms = tr.timed("stem.probe", || {
        let mut probed = 0;
        while probed < t.probes {
            let Some((tuples, states, target)) = work.pop_front() else {
                level0(&mut work);
                if work.is_empty() {
                    break;
                }
                continue;
            };
            let mut out_tuples = Vec::new();
            let mut out_states = Vec::new();
            for (batch, states) in tuples
                .chunks(config.batch_size)
                .zip(states.chunks(config.batch_size))
            {
                if probed >= t.probes {
                    break;
                }
                replies.clear();
                stems[target].probe_batch_into(batch, states, query, &mut replies);
                probed += batch.len() as u64;
                let (_, results) = replies.metas_and_results();
                for (tuple, done) in results {
                    out_tuples.push(tuple);
                    out_states.push(TupleState::for_result(done));
                }
            }
            let next = out_tuples
                .first()
                .and_then(|tuple| graph.frontier(tuple.span()).iter().next());
            if let Some(next) = next {
                work.push_back((out_tuples, out_states, next.as_usize()));
            }
        }
    });

    let lens = stems
        .iter()
        .max_by_key(|s| s.len())
        .map(|s| s.shard_lens())
        .unwrap_or_default();
    let keyed = &lens[..lens.len().min(config.num_shards)];
    let mean = keyed.iter().sum::<usize>() as f64 / keyed.len().max(1) as f64;
    let skew = crate::stats::ratio(keyed.iter().copied().max().unwrap_or(0) as f64, mean);
    (build_ms, probe_ms, if skew == 0.0 { 1.0 } else { skew })
}

/// `storage.insert` / `storage.lookup`: the SteM's dictionary backend on
/// the same rows and keys, without the SteM around it. Lookups follow the
/// joins: each side's join-column values are looked up in the other
/// side's store, first in FROM order, then back.
fn replay_storage(
    w: &Workload,
    tables: &[TableInput],
    config: &ExecConfig,
    t: &Traffic,
    tr: &mut Tracer,
) -> (f64, f64) {
    let kind = &config.plan.default_stem.store;
    let mut stores: Vec<_> = tables.iter().map(|t| kind.build(&t.join_cols)).collect();
    let inserts: Vec<Vec<Vec<Arc<Row>>>> = tables
        .iter()
        .map(|t| {
            t.envelopes
                .iter()
                .map(|e| e.iter().map(|tu| tu.components()[0].row.clone()).collect())
                .collect()
        })
        .collect();
    // (key envelopes, target store, target column), one per join direction.
    let keys_of = |table: usize, col: usize| -> Vec<Vec<HashedKey>> {
        tables[table]
            .rows
            .chunks(config.batch_size)
            .map(|c| {
                c.iter()
                    .map(|r| HashedKey::new(r.get(col).cloned().unwrap_or(Value::Null)))
                    .collect()
            })
            .collect()
    };
    let mut lookups: Vec<(Vec<Vec<HashedKey>>, usize, usize)> = Vec::new();
    for (i, &(left, left_col, right_col)) in w.oracle[0].joins.iter().enumerate() {
        lookups.push((keys_of(left, left_col), i + 1, right_col));
    }
    for (i, &(left, left_col, right_col)) in w.oracle[0].joins.iter().enumerate() {
        lookups.push((keys_of(i + 1, right_col), left, left_col));
    }
    let insert_ms = tr.timed("storage.insert", || {
        let mut inserted = 0;
        for (store, batches) in stores.iter_mut().zip(inserts) {
            for batch in batches {
                if inserted >= t.builds {
                    return;
                }
                inserted += batch.len() as u64;
                store.insert_batch(batch);
            }
        }
    });
    let mut buf = CandidateBuf::new();
    let lookup_ms = tr.timed("storage.lookup", || {
        let mut looked = 0;
        while looked < t.probes {
            for (batches, store, col) in &lookups {
                for batch in batches {
                    if looked >= t.probes {
                        return;
                    }
                    stores[*store].lookup_eq_flat(*col, batch, &mut buf);
                    black_box(buf.rows_stored());
                    looked += batch.len() as u64;
                }
            }
        }
    });
    (insert_ms, lookup_ms)
}

/// `sm.apply` / `sm.udf`: every text's selections over the scanned rows of
/// their table, in scan envelopes — cheap predicates fused per table as
/// the engine fuses them, UDF predicates through dedup and a fresh memo.
fn replay_selections(
    w: &Workload,
    tables: &[TableInput],
    config: &ExecConfig,
    tr: &mut Tracer,
) -> (f64, f64) {
    let queries: Vec<QuerySpec> = w
        .sql
        .iter()
        .map(|sql| parse_query(&w.catalog, sql).expect("workload SQL parses"))
        .collect();
    let sms_on = |q: &QuerySpec, table: usize, udf: bool| -> Vec<Sm> {
        q.selections()
            .filter(|p| p.tables() == TableSet::single(TableIdx(table as u8)))
            .map(|p| Sm::new(p.clone()))
            .filter(|sm| sm.is_udf() == udf)
            .collect()
    };
    let cheap: Vec<(usize, Vec<Sm>)> = queries
        .iter()
        .flat_map(|q| (0..tables.len()).map(|i| (i, sms_on(q, i, false))))
        .filter(|(_, sms)| !sms.is_empty())
        .collect();
    let mut udfs: Vec<(usize, Sm)> = queries
        .iter()
        .flat_map(|q| {
            (0..tables.len()).flat_map(|i| sms_on(q, i, true).into_iter().map(move |s| (i, s)))
        })
        .collect();
    if config.memo {
        for (_, sm) in &mut udfs {
            sm.set_memo(Some(MemoCache::cell(
                DEFAULT_MEMO_SHARDS,
                config.memo_bytes,
            )));
        }
    }
    // Nothing to replay is exactly 0, not the cost of an empty span.
    let timed_if = |tr: &mut Tracer, run: bool, name: &'static str, f: &dyn Fn()| {
        if run {
            tr.timed(name, f)
        } else {
            0.0
        }
    };
    let apply_ms = timed_if(tr, !cheap.is_empty(), "sm.apply", &|| {
        for (table, sms) in &cheap {
            let (lead, rest) = sms.split_first().expect("non-empty by construction");
            let siblings: Vec<&Sm> = rest.iter().collect();
            for envelope in &tables[*table].envelopes {
                if siblings.is_empty() || !config.fuse_selections {
                    for sm in sms {
                        black_box(sm.apply_batch(envelope).len());
                    }
                } else {
                    black_box(lead.apply_batch_fused(envelope, &siblings).len());
                }
            }
        }
    });
    let udf_ms = timed_if(tr, !udfs.is_empty(), "sm.udf", &|| {
        for (table, sm) in &udfs {
            for envelope in &tables[*table].envelopes {
                black_box(sm.apply_batch_udf(envelope, config.udf_dedup).computed);
            }
        }
    });
    (apply_ms, udf_ms)
}

/// `memo.lookup`: the iteration's hit + miss count through
/// `MemoCache::lookup`, inserting on a miss, keyed by the UDF's input column.
fn replay_memo(
    query: &QuerySpec,
    tables: &[TableInput],
    config: &ExecConfig,
    t: &Traffic,
    tr: &mut Tracer,
) -> f64 {
    let lookups = t.memo_hits + t.memo_misses;
    let Some(input) = query.selections().find_map(|p| p.udf_input_col()) else {
        return 0.0;
    };
    if lookups == 0 {
        return 0.0;
    }
    let keys: Vec<HashedKey> = tables[input.table.as_usize()]
        .rows
        .iter()
        .map(|r| HashedKey::new(r.get(input.col).cloned().unwrap_or(Value::Null)))
        .collect();
    let cache = MemoCache::new(DEFAULT_MEMO_SHARDS, config.memo_bytes);
    let ms = tr.timed("memo.lookup", || {
        for key in keys.iter().cycle().take(lookups as usize) {
            if cache.lookup(key).is_none() {
                black_box(cache.insert(key, true));
            }
        }
    });
    per_call_ns(ms, lookups)
}

/// `router.candidates` / `policy.choose`: per-call cost on the plan's own
/// modules, over the three tuple kinds routing sees most — an unbuilt
/// singleton (BuildFirst), a built one (selections + probes), and, where a
/// table has an index, a bounced prior prober (probe the AM or drop).
fn replay_routing(
    w: &Workload,
    query: &QuerySpec,
    tables: &[TableInput],
    config: &ExecConfig,
    t: &Traffic,
    tr: &mut Tracer,
) -> (f64, f64) {
    let plan_opts = PlanOptions {
        default_stem: stem_options(config),
        ..config.plan.clone()
    };
    let (modules, layout) =
        plan::instantiate(&w.catalog, query, &plan_opts).expect("workload query instantiates");
    let unbuilt = Tuple::singleton(TableIdx(0), tables[0].rows[0].clone());
    let built = unbuilt.with_timestamp(TableIdx(0), 1);
    let mut samples = vec![
        (unbuilt, TupleState::new()),
        (built.clone(), TupleState::new()),
    ];
    if let Some(indexed) = (0..tables.len()).find(|i| w.catalog.has_index(tables[*i].source)) {
        let mut state = TupleState::new();
        state.mark_probed(TableIdx(indexed as u8));
        state.prior_prober = Some(PriorProber {
            table: TableIdx(indexed as u8),
            need: CompletionNeed::Optional,
        });
        samples.push((built, state));
    }
    let calls = t.route_tuples.clamp(1, PER_CALL_SAMPLE);
    let ms = tr.timed("router.candidates", || {
        for (tuple, state) in samples.iter().cycle().take(calls as usize) {
            black_box(
                router::candidates(
                    &modules,
                    &layout,
                    query,
                    tuple,
                    state,
                    config.probe_edges.as_deref(),
                )
                .is_ok(),
            );
        }
    });
    let candidates_ns = per_call_ns(ms, calls);

    // The decision the policy actually faces: the widest candidate set
    // among the samples, over a full envelope.
    let (tuple, state, actions) = samples
        .iter()
        .filter_map(|(tuple, state)| {
            router::candidates(&modules, &layout, query, tuple, state, None)
                .ok()
                .map(|a| (tuple, state, a))
        })
        .max_by_key(|(_, _, a)| a.len())
        .expect("a built singleton always has candidates");
    let pairs: Vec<_> = actions
        .into_iter()
        .map(|a| (a, Hint { est_cost_us: 50 }))
        .collect();
    let batch: TupleBatch = std::iter::repeat_n(tuple.clone(), config.batch_size.min(64)).collect();
    let mut policy = config.policy.build();
    let mut rng = SimRng::new(config.seed);
    let calls = t.route_batches.clamp(1, PER_CALL_SAMPLE);
    let ms = tr.timed("policy.choose", || {
        for _ in 0..calls {
            black_box(policy.choose_batch(&batch, state, &pairs, &mut rng));
        }
    });
    (candidates_ns, per_call_ns(ms, calls))
}

/// `sim.metrics_bump`: `Metrics::bump` over the report's own series names.
fn replay_metrics(t: &Traffic, tr: &mut Tracer) -> f64 {
    if t.metric_names.is_empty() {
        return 0.0;
    }
    let calls = t.metric_updates.clamp(1, PER_CALL_SAMPLE);
    let mut metrics = Metrics::new();
    let ms = tr.timed("sim.metrics_bump", || {
        for (now, name) in t
            .metric_names
            .iter()
            .cycle()
            .take(calls as usize)
            .enumerate()
        {
            metrics.bump(name, now as u64, 1);
        }
    });
    black_box(metrics.counter(&t.metric_names[0]));
    per_call_ns(ms, calls)
}

/// `sim.agenda`: one `EventQueue::push` + `pop` per event, at the handful
/// of pending events an executor's agenda holds.
fn replay_agenda(t: &Traffic, tr: &mut Tracer) -> f64 {
    const DEPTH: u64 = 8;
    let calls = t.events.clamp(1, PER_CALL_SAMPLE);
    let mut rng = SimRng::new(t.events);
    let mut queue: EventQueue<u64> = EventQueue::new();
    for i in 0..DEPTH {
        queue.push(i, i);
    }
    let ms = tr.timed("sim.agenda", || {
        for _ in 0..calls {
            let (now, e) = queue.pop().expect("queue holds DEPTH events");
            queue.push(now + 1 + rng.range_inclusive(0, 30) as u64, e);
        }
    });
    per_call_ns(ms, calls)
}

/// `runtime.scope`: one pool scope with a no-op task per shard, as a
/// sharded envelope opens. Zero where the workload never reaches the pool.
fn replay_pool_scope(config: &ExecConfig, tr: &mut Tracer) -> f64 {
    const SCOPES: u64 = 2_000;
    if config.workers < 2 || config.num_shards < 2 {
        return 0.0;
    }
    let pool = WorkerPool::global();
    let ms = tr.timed("runtime.scope", || {
        for _ in 0..SCOPES {
            pool.scope(config.workers, |s| {
                for shard in 0..config.num_shards {
                    s.spawn(shard, || {});
                }
            });
        }
    });
    ms * 1e3 / SCOPES as f64
}
