//! One run of one workload in this process: set-up, then either the
//! untraced measuring loop (end-to-end metrics) or the traced pass
//! (per-layer metrics).

use crate::alloc;
use crate::baseline::run_static;
use crate::json::Json;
use crate::layers::{replay_all, Replays, Traffic};
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::probe::{Probe, REFERENCE_MS};
use crate::run::{self, measure, request, set_up, Ready};
use crate::stats::{mean, median, p10, percentile, ratio};
use crate::trace::Tracer;
use crate::workloads::SERVER_QUERIES;
use std::time::Instant;
use stems::core::ExecConfig;

/// `--quick` divides every row count by this.
pub const QUICK_SCALE: usize = 10;
/// Set-ups per run unless `--setups` says otherwise: `setup_s` is their
/// median, so one slow set-up does not decide it.
pub const DEFAULT_SETUPS: usize = 3;
/// Host-speed probes run after each set-up, to correct `setup_s`.
const PROBES_PER_SETUP: usize = 3;
/// Share of `--seconds` the traced pass spends on untraced iterations
/// (the `e2e.*` noise indicators and the tracing-overhead base).
const TRACED_PASS_UNTRACED_SHARE: f64 = 0.4;
/// Iteration ids of the traced pass: the main iterations count from 0,
/// the side runs start at these offsets.
const UNSHARDED_ITERATIONS: u32 = 100;
const FOLD_OFF_ITERATIONS: u32 = 200;
const SOLO_ITERATIONS: u32 = 300;

pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Full set-ups to run (and take the median time of) before measuring.
    pub setups: usize,
    pub quick: bool,
}

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Values,
    /// Wall ms of every untraced iteration, for the driver to pool: as
    /// measured, and corrected to the reference host speed.
    pub samples_ms: Vec<f64>,
    pub corrected_ms: Vec<f64>,
    pub logical_rows: u64,
    pub sizes: Vec<(&'static str, u64)>,
}

impl RunResult {
    /// The contract's result line.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics.to_json()),
        ])
    }
}

pub fn run(opts: &Options) -> Result<RunResult, String> {
    let scale = if opts.quick { QUICK_SCALE } else { 1 };
    let mut probe = Probe::new();
    let mut setup_s = Vec::new();
    let mut probes_ms = Vec::new();
    let mut ready = None;
    // `setup_s` is not among the traced pass's metrics: one set-up will do.
    let setups = if opts.trace { 1 } else { opts.setups.max(1) };
    for _ in 0..setups {
        let t0 = Instant::now();
        ready = Some(set_up(&opts.workload, opts.seed, scale)?);
        setup_s.push(t0.elapsed().as_secs_f64());
        probes_ms.extend((0..PROBES_PER_SETUP).map(|_| probe.ms()));
    }
    let ready = ready.expect("at least one set-up ran");
    if opts.trace {
        traced(opts, &ready, &mut probe)
    } else {
        let setup_s = median(&setup_s) * REFERENCE_MS / mean(&probes_ms);
        Ok(untraced(opts, &ready, &mut probe, setup_s))
    }
}

fn ms(seconds: &[f64]) -> Vec<f64> {
    seconds.iter().map(|s| s * 1e3).collect()
}

fn untraced(opts: &Options, ready: &Ready, probe: &mut Probe, setup_s: f64) -> RunResult {
    let w = &ready.w;
    let m = measure(ready, opts.seconds, probe);
    let (alloc_bytes, _, _) =
        alloc::during(|| request(w, &w.config, true, &mut Tracer::new(false)));
    let corrected_s = m.corrected_s();
    let mut v = Values::new(&END_TO_END);
    v.set("setup_s", setup_s);
    // The median, not a low percentile: after the pairwise correction a
    // disturbed probe makes its iteration look *fast*, so noise is no
    // longer one-sided.
    v.set("rows_per_s", w.logical_rows as f64 / median(&corrected_s));
    v.set("virt_end_s", m.last.virt_end_s);
    v.set("virt_t50_s", m.last.virt_t50_s);
    v.set("peak_state_bytes", m.last.peak_state_bytes);
    v.set("peak_rss_mb", run::peak_rss_mb());
    v.set(
        "alloc_bytes_per_row",
        alloc_bytes as f64 / w.logical_rows as f64,
    );
    RunResult {
        attempted: m.samples_s.len() as u64,
        failed: m.failed,
        metrics: v,
        samples_ms: ms(&m.samples_s),
        corrected_ms: ms(&corrected_s),
        logical_rows: w.logical_rows,
        sizes: w.sizes.clone(),
    }
}

/// The raw-sample noise indicators, and the price of adaptivity against
/// the already-set `baseline.static_ms`. A single traced run computes them
/// from its own untraced slice; the full run again from the pooled rounds.
pub fn set_sample_stats(layers: &mut Values, logical_rows: u64, raw_ms: &[f64]) {
    let (low, mid) = (p10(raw_ms), median(raw_ms));
    layers.set("e2e.raw_rows_per_s", ratio(logical_rows as f64, low / 1e3));
    layers.set("e2e.iter_ms_p50", mid);
    layers.set("e2e.iter_ms_p90", percentile(raw_ms, 0.9));
    layers.set("e2e.samples", raw_ms.len() as f64);
    layers.set("e2e.spread", ratio(mid - low, low));
    layers.set(
        "baseline.overhead_ratio",
        ratio(low, layers.get("baseline.static_ms")),
    );
}

/// Median over the traced iterations in `iterations` of span `name`.
fn span_ms(tr: &Tracer, name: &str, iterations: std::ops::Range<u32>) -> f64 {
    median(&tr.durations_ms(name, iterations))
}

fn traced(opts: &Options, ready: &Ready, probe: &mut Probe) -> Result<RunResult, String> {
    let w = &ready.w;
    let rows = w.logical_rows as f64;
    let iterations: u32 = if opts.quick { 1 } else { 3 };

    // Untraced slice first: the base the traced numbers are compared to.
    let m = measure(ready, opts.seconds * TRACED_PASS_UNTRACED_SHARE, probe);
    let untraced_ms = ms(&m.samples_s);
    let mut attempted = untraced_ms.len() as u64;
    let mut failed = m.failed;

    // Traced iterations, each followed by the static plan on the same data
    // (interleaved, so host drift hits both alike) and one replay round.
    let mut tr = Tracer::new(true);
    let mut traced_ms = Vec::new();
    let mut static_ms = Vec::new();
    let mut replays: Vec<Replays> = Vec::new();
    let mut traffic = Traffic::default();
    let expected_rows: Vec<u64> = ready.expected.iter().map(|d| d.rows).collect();
    for it in 0..iterations {
        tr.set_iteration(it);
        let t0 = Instant::now();
        let out = request(w, &w.config, true, &mut tr);
        traced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        attempted += 1;
        failed += u64::from(!ready.passes(&out));
        let (ms, static_rows) = run_static(w);
        if static_rows != expected_rows {
            return Err(format!(
                "{}: static plans returned {static_rows:?} rows, oracle expects {expected_rows:?}",
                w.name
            ));
        }
        static_ms.push(ms);
        traffic = Traffic::of(&out);
        replays.push(replay_all(w, &traffic, &mut tr));
    }
    let main = 0..iterations;
    let rep = Replays::median_of(&replays);

    let mut v = Values::new(&PER_LAYER);
    let run_span = if w.server {
        "server.serve"
    } else {
        "engine.run"
    };
    let run_ms = span_ms(&tr, run_span, main.clone());
    v.set("sql.parse_ms", span_ms(&tr, "sql.parse", main.clone()));
    v.set("plan.build_ms", span_ms(&tr, "plan.build", main.clone()));
    v.set(
        "server.submit_ms",
        span_ms(&tr, "server.submit", main.clone()),
    );
    v.set(
        "report.canonical_ms",
        span_ms(&tr, "report.canonical", main.clone()),
    );
    // Under the server the executors run inside `serve`, so that span
    // stands in for `EddyExecutor::run`.
    v.set("engine.run_ms", run_ms);
    v.set("engine.events", traffic.events as f64);
    v.set("engine.route_batches", traffic.route_batches as f64);
    v.set("engine.events_per_row", traffic.events as f64 / rows);
    v.set(
        "engine.rows_per_route_batch",
        ratio(rows, traffic.route_batches as f64),
    );
    let children_ms = rep.engine_children_ms(&traffic);
    v.set("engine.self_ms", run_ms - children_ms);
    v.set("engine.self_share", ratio(run_ms - children_ms, run_ms));

    v.set("am.scan_emit_ms", rep.scan_emit_ms);
    v.set("am.index_probe_ms", rep.index_probe_ms);
    v.set("am.index_probes", traffic.index_probes as f64);
    v.set("am.probes_bounced", traffic.probes_bounced as f64);
    v.set("am.probes_coalesced", traffic.probes_coalesced as f64);
    v.set("stem.build_ms", rep.stem_build_ms);
    v.set("stem.build_rows", traffic.builds as f64);
    v.set("stem.probe_ms", rep.stem_probe_ms);
    v.set("stem.probes", traffic.probes as f64);
    v.set(
        "stem.matches_per_probe",
        ratio(traffic.matches as f64, traffic.probes as f64),
    );
    v.set("stem.dup_absorbed", traffic.dup_absorbed as f64);
    v.set("storage.insert_ms", rep.storage_insert_ms);
    v.set("storage.lookup_ms", rep.storage_lookup_ms);
    v.set(
        "storage.bytes_per_row",
        ratio(m.last.peak_state_bytes, traffic.builds as f64),
    );
    v.set("sharded.lane_skew", rep.lane_skew);
    v.set("runtime.scope_us", rep.scope_us);
    v.set("runtime.cpu_per_wall", m.cpu_per_wall);
    v.set("sm.apply_ms", rep.sm_apply_ms);
    v.set("sm.rows", traffic.sm_applied as f64);
    v.set(
        "sm.pass_ratio",
        ratio(
            (traffic.sm_applied - traffic.filtered) as f64,
            traffic.sm_applied as f64,
        ),
    );
    v.set("sm.udf_ms", rep.sm_udf_ms);
    v.set(
        "memo.hit_ratio",
        ratio(
            traffic.memo_hits as f64,
            (traffic.memo_hits + traffic.memo_misses) as f64,
        ),
    );
    v.set("memo.udf_calls", traffic.udf_calls as f64);
    v.set("memo.evictions", traffic.memo_evictions as f64);
    v.set("memo.lookup_ns", rep.memo_lookup_ns);
    v.set("router.candidates_ns", rep.router_candidates_ns);
    v.set("policy.choose_ns", rep.policy_choose_ns);
    v.set("policy.hints_recosted", traffic.hints_recosted as f64);
    v.set("policy.drops", traffic.policy_drops as f64);
    v.set("sim.metrics_bump_ns", rep.metrics_bump_ns);
    v.set("sim.agenda_ns", rep.agenda_ns);

    // Side runs on the same data under one changed setting.
    let mut side = |config: &ExecConfig, fold: bool, base: u32, span: &str, tr: &mut Tracer| {
        for it in 0..iterations {
            tr.set_iteration(base + it);
            let out = request(w, config, fold, tr);
            attempted += 1;
            failed += u64::from(!ready.passes(&out));
        }
        span_ms(tr, span, base..base + iterations)
    };
    let mut speedup = 1.0;
    if w.config.num_shards > 1 {
        let unsharded = ExecConfig {
            num_shards: 1,
            workers: 1,
            ..w.config.clone()
        };
        let unsharded_ms = side(
            &unsharded,
            true,
            UNSHARDED_ITERATIONS,
            "engine.run",
            &mut tr,
        );
        speedup = ratio(unsharded_ms, run_ms);
    }
    v.set("sharded.speedup_vs_unsharded", speedup);
    if let Some(stats) = m.last.stats {
        let per_query = run_ms / SERVER_QUERIES as f64;
        let fold_off_ms = side(
            &w.config,
            false,
            FOLD_OFF_ITERATIONS,
            "server.serve",
            &mut tr,
        );
        // One of the stream's queries, alone, through `EddyExecutor`.
        for it in 0..iterations {
            tr.set_iteration(SOLO_ITERATIONS + it);
            let out = run::solo_request(w, &w.config, &mut tr);
            attempted += 1;
            failed += u64::from(!(out.clean && out.digests()[0] == ready.expected[0]));
        }
        let solo_ms = span_ms(
            &tr,
            "engine.run",
            SOLO_ITERATIONS..SOLO_ITERATIONS + iterations,
        );
        v.set("server.serve_ms", run_ms);
        v.set("server.ms_per_query", per_query);
        v.set("server.shared_builds", stats.shared_builds as f64);
        v.set("server.shared_stems", stats.shared_stems as f64);
        v.set("server.fold_ratio", ratio(rows, stats.shared_builds as f64));
        v.set("server.fold_gain", ratio(fold_off_ms, run_ms));
        v.set("server.solo_ratio", ratio(per_query, solo_ms));
        v.set(
            "server.virt_latency_p95_s",
            percentile(&m.last.latencies_s, 0.95),
        );
    }

    v.set("baseline.static_ms", p10(&static_ms));
    set_sample_stats(&mut v, w.logical_rows, &untraced_ms);
    v.set("e2e.host_speed", REFERENCE_MS / median(&m.probes_ms));
    v.set(
        "trace.overhead_ratio",
        ratio(median(&traced_ms), p10(&untraced_ms)),
    );
    let (_, alloc_count, _) =
        alloc::during(|| request(w, &w.config, true, &mut Tracer::new(false)));
    v.set("alloc.count_per_row", alloc_count as f64 / rows);

    crate::write_out(
        &format!("trace-{}.json", w.name),
        &tr.to_json().render_pretty(),
    )?;
    Ok(RunResult {
        attempted,
        failed,
        metrics: v,
        samples_ms: untraced_ms,
        corrected_ms: ms(&m.corrected_s()),
        logical_rows: w.logical_rows,
        sizes: w.sizes.clone(),
    })
}
