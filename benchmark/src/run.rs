//! One request (SQL text in → canonical rows out), the set-up that
//! precedes measuring, and the closed measuring loop.

use crate::oracle::{self, Digest};
use crate::probe::{self, Probe};
use crate::trace::Tracer;
use crate::workloads::{self, Workload};
use std::time::Instant;
use stems::catalog::{reference, QuerySpec};
use stems::core::{
    EddyExecutor, ExecConfig, QueryServer, QueryStatus, Report, ServerStats, Submission,
};
use stems::sim::{to_secs, Time};
use stems::sql::parse_query;
use stems::types::Value;

/// The oracle cross-check runs at this fraction of the measured size (the
/// nested-loop reference cannot run at full size).
const CROSS_CHECK_DIVISOR: usize = 20;
/// Untimed iterations before measuring: global `WorkerPool` spawn,
/// allocator warm-up.
const WARM_UP_ITERATIONS: usize = 2;

/// Everything one request produced.
pub struct Outcome {
    /// Canonical result rows of each SQL text.
    pub rows: Vec<Vec<Vec<Value>>>,
    /// The per-query reports (one for a solo request).
    pub reports: Vec<Report>,
    pub stats: Option<ServerStats>,
    /// Every query completed and no constraint violation was recorded.
    pub clean: bool,
    pub virt_end_s: f64,
    /// Virtual time by which half the output was delivered (server:
    /// median admission-to-completion latency).
    pub virt_t50_s: f64,
    pub peak_state_bytes: f64,
    /// Virtual admission-to-completion latency of each server query, sorted.
    pub latencies_s: Vec<f64>,
}

impl Outcome {
    pub fn digests(&self) -> Vec<Digest> {
        self.rows
            .iter()
            .map(|rows| Digest::of(rows.iter().map(Vec::as_slice)))
            .collect()
    }

    /// Sum of a counter over the request's reports.
    pub fn counter(&self, name: &str) -> u64 {
        self.reports.iter().map(|r| r.counter(name)).sum()
    }
}

fn parse(w: &Workload, sql: &str) -> QuerySpec {
    parse_query(&w.catalog, sql).unwrap_or_else(|e| panic!("{}: {sql}: {e}", w.name))
}

/// Issue one complete request. `fold` only matters to the server workload.
pub fn request(w: &Workload, config: &ExecConfig, fold: bool, tr: &mut Tracer) -> Outcome {
    tr.span("request", |tr| {
        if w.server {
            server_request(w, config, fold, tr)
        } else {
            solo_request(w, config, tr)
        }
    })
}

/// The first SQL text of `w` alone through `EddyExecutor` (the whole
/// request of a solo workload).
pub fn solo_request(w: &Workload, config: &ExecConfig, tr: &mut Tracer) -> Outcome {
    let query = tr.span("sql.parse", |_| parse(w, &w.sql[0]));
    let exec = tr
        .span("plan.build", |_| {
            EddyExecutor::build(&w.catalog, &query, config.clone())
        })
        .unwrap_or_else(|e| panic!("{}: plan: {e}", w.name));
    let report = tr.span("engine.run", |_| exec.run());
    let rows = tr.span("report.canonical", |_| report.canonical(&w.catalog, &query));
    let peak_state_bytes = report
        .metrics
        .series("stem_bytes_total")
        .map_or(0.0, |s| s.points().iter().map(|p| p.1).fold(0.0, f64::max));
    Outcome {
        rows: vec![rows],
        clean: report.violations.is_empty(),
        virt_end_s: to_secs(report.end_time),
        virt_t50_s: to_secs(report.time_to_fraction(0.5).unwrap_or(report.end_time)),
        peak_state_bytes,
        reports: vec![report],
        stats: None,
        latencies_s: Vec::new(),
    }
}

fn server_request(w: &Workload, config: &ExecConfig, fold: bool, tr: &mut Tracer) -> Outcome {
    let queries: Vec<QuerySpec> = tr.span("sql.parse", |_| {
        w.sql.iter().map(|sql| parse(w, sql)).collect()
    });
    let mut server = QueryServer::builder(&w.catalog)
        .config(config.clone())
        .fold(fold)
        .build()
        .unwrap_or_else(|e| panic!("{}: server: {e:?}", w.name));
    tr.span("server.submit", |_| {
        for (query, at) in queries.iter().zip(&w.admit_us) {
            server
                .submit(Submission::new(query.clone()).at(*at))
                .unwrap_or_else(|e| panic!("{}: submit: {e:?}", w.name));
        }
    });
    let (handles, stats) = tr.span("server.serve", |_| server.serve());
    let rows = tr.span("report.canonical", |_| {
        handles
            .iter()
            .zip(&queries)
            .map(|(h, q)| {
                h.report
                    .as_ref()
                    .map_or_else(Vec::new, |sr| sr.report.canonical(&w.catalog, q))
            })
            .collect()
    });
    let mut clean = true;
    let mut latencies: Vec<Time> = Vec::new();
    let mut end: Time = 0;
    let mut reports = Vec::new();
    for h in handles {
        clean &= h.status == QueryStatus::Completed;
        if let Some(sr) = h.report {
            clean &= sr.report.violations.is_empty();
            latencies.push(sr.latency());
            end = end.max(sr.completed_at);
            reports.push(sr.report);
        }
    }
    latencies.sort_unstable();
    Outcome {
        rows,
        reports,
        clean,
        virt_end_s: to_secs(end),
        virt_t50_s: to_secs(latencies.get(latencies.len() / 2).copied().unwrap_or(0)),
        peak_state_bytes: stats.stem_bytes_peak as f64,
        stats: Some(stats),
        latencies_s: latencies.into_iter().map(to_secs).collect(),
    }
}

/// A generated workload with the oracle's expected digests.
pub struct Ready {
    pub w: Workload,
    pub expected: Vec<Digest>,
}

impl Ready {
    /// An iteration fails if any query did not complete, a violation was
    /// recorded, or any text's row count or result hash differs from the
    /// oracle's.
    pub fn passes(&self, out: &Outcome) -> bool {
        out.clean && out.digests() == self.expected
    }
}

/// One full set-up: cross-check engine ≡ nested-loop reference ≡ hash-join
/// oracle at 1/20 size with `check_constraints` on, generate the full-size
/// data, compute the expected digests, and warm up.
pub fn set_up(name: &str, seed: u64, scale: usize) -> Result<Ready, String> {
    let small = workloads::generate(name, seed, scale * CROSS_CHECK_DIVISOR)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let checked = ExecConfig {
        check_constraints: true,
        ..small.config.clone()
    };
    let out = request(&small, &checked, true, &mut Tracer::new(false));
    if !out.clean {
        let violations: Vec<&String> = out.reports.iter().flat_map(|r| &r.violations).collect();
        return Err(format!(
            "{name}: cross-check run was not clean: {violations:?}"
        ));
    }
    for (i, sql) in small.sql.iter().enumerate() {
        let query = parse(&small, sql);
        let expect = reference::canonical(
            &small.catalog,
            &query,
            &reference::execute(&small.catalog, &query),
        );
        if out.rows[i] != expect {
            return Err(format!(
                "{name}: engine differs from the reference executor on {sql:?}: \
                 {} rows vs {}",
                out.rows[i].len(),
                expect.len()
            ));
        }
        if oracle::expected(&small, &small.oracle[i]) != out.digests()[i] {
            return Err(format!(
                "{name}: hash-join oracle differs from the reference executor on {sql:?}"
            ));
        }
    }

    let w = workloads::generate(name, seed, scale).expect("name checked above");
    let expected = w.oracle.iter().map(|q| oracle::expected(&w, q)).collect();
    let ready = Ready { w, expected };
    for _ in 0..WARM_UP_ITERATIONS {
        let out = request(&ready.w, &ready.w.config, true, &mut Tracer::new(false));
        if !ready.passes(&out) {
            return Err(format!("{name}: warm-up iteration failed the oracle check"));
        }
    }
    Ok(ready)
}

/// What the closed loop measured.
pub struct Measured {
    /// Wall seconds of each iteration, in order.
    pub samples_s: Vec<f64>,
    /// Wall ms of the host-speed probe run right after each iteration.
    pub probes_ms: Vec<f64>,
    pub failed: u64,
    /// The last iteration's outcome (virtual metrics are deterministic).
    pub last: Outcome,
    /// Process CPU seconds ÷ wall seconds, summed over the requests.
    pub cpu_per_wall: f64,
}

/// Probes on each side of an iteration's own that its correction averages.
const PROBE_WINDOW: usize = 3;

impl Measured {
    /// Each iteration's wall seconds scaled by `REFERENCE_MS ÷ the mean of
    /// the probes around it`: what it would have taken at the reference
    /// host speed. The mean of several, because under time-slicing one
    /// 11 ms probe reads either undisturbed or half as slow again; it is
    /// their average that tracks what a 200 ms iteration saw.
    pub fn corrected_s(&self) -> Vec<f64> {
        let n = self.probes_ms.len();
        self.samples_s
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let near =
                    &self.probes_ms[i.saturating_sub(PROBE_WINDOW)..(i + PROBE_WINDOW + 1).min(n)];
                s * probe::REFERENCE_MS / crate::stats::mean(near)
            })
            .collect()
    }
}

/// Closed loop, one client, one request in flight: issue requests back to
/// back for `seconds`, checking every one against the oracle and running
/// the host-speed probe after it.
pub fn measure(ready: &Ready, seconds: f64, probe: &mut Probe) -> Measured {
    let mut tr = Tracer::new(false);
    let mut samples_s = Vec::new();
    let mut probes_ms = Vec::new();
    let mut failed = 0;
    let mut cpu_s = 0.0;
    let start = Instant::now();
    let last = loop {
        // CPU time is read around the request alone, so the benchmark's
        // own (single-threaded) checking does not dilute the ratio.
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        let out = request(&ready.w, &ready.w.config, true, &mut tr);
        samples_s.push(t0.elapsed().as_secs_f64());
        cpu_s += cpu_seconds() - cpu0;
        if !ready.passes(&out) {
            failed += 1;
        }
        probes_ms.push(probe.ms());
        if start.elapsed().as_secs_f64() >= seconds {
            break out;
        }
    };
    let cpu_per_wall = cpu_s / samples_s.iter().sum::<f64>();
    Measured {
        samples_s,
        probes_ms,
        failed,
        last,
        cpu_per_wall,
    }
}

/// User + system CPU seconds of this process, all threads. `/proc/self/stat`
/// counts in clock ticks; USER_HZ is 100 on every Linux ABI we run on.
pub fn cpu_seconds() -> f64 {
    const USER_HZ: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12 and 13 after the ") " split.
    let Some((_, rest)) = stat.rsplit_once(") ") else {
        return 0.0;
    };
    let field = |i: usize| -> f64 {
        rest.split_ascii_whitespace()
            .nth(i)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    };
    (field(11) + field(12)) / USER_HZ
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correction_scales_by_the_mean_of_nearby_probes() {
        let reference = probe::REFERENCE_MS;
        let mut probes_ms = vec![reference; 9];
        probes_ms[4] = 8.0 * reference;
        let m = Measured {
            samples_s: vec![1.0; 9],
            probes_ms,
            failed: 0,
            last: Outcome {
                rows: Vec::new(),
                reports: Vec::new(),
                stats: None,
                clean: true,
                virt_end_s: 0.0,
                virt_t50_s: 0.0,
                peak_state_bytes: 0.0,
                latencies_s: Vec::new(),
            },
            cpu_per_wall: 1.0,
        };
        let c = m.corrected_s();
        // Iteration 0 averages probes 0..=3: all at reference speed.
        assert_eq!(c[0], 1.0);
        // Iteration 4 averages probes 1..=7: one of seven is 8x slow, so
        // the host looked twice as slow and the iteration counts half.
        assert!((c[4] - 0.5).abs() < 1e-12);
        // One disturbed probe cannot halve an iteration on its own weight
        // alone further out: iteration 8 averages probes 5..=8.
        assert_eq!(c[8], 1.0);
    }
}
