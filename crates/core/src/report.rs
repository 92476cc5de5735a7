//! Execution reports.

use stems_catalog::{reference, Catalog, QuerySpec};
use stems_sim::{Metrics, Time};
use stems_types::{TableIdx, Tuple, Value};

/// What happened to a tuple at one routing step (recorded when
/// `ExecConfig::trace` is on).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceKind {
    /// Routed to a module.
    Route {
        action: &'static str,
        table: Option<TableIdx>,
    },
    /// Emitted as a query result.
    Output,
    /// Left the dataflow with nothing more to do.
    Retire,
    /// Parked awaiting new builds/EOTs on `table`.
    Park { table: TableIdx },
}

/// One routing-trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    pub t: Time,
    pub kind: TraceKind,
    /// Rendered tuple (content at the time of the event).
    pub tuple: String,
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match &self.kind {
            TraceKind::Route { action, table } => match table {
                Some(t) => format!("{action}({t})"),
                None => (*action).to_string(),
            },
            TraceKind::Output => "output".to_string(),
            TraceKind::Retire => "retire".to_string(),
            TraceKind::Park { table } => format!("park({table})"),
        };
        write!(
            f,
            "{:>10.3}s {:<14} {}",
            stems_sim::to_secs(self.t),
            what,
            self.tuple
        )
    }
}

/// Everything a run produces: the result tuples, the metric series the
/// figures are drawn from, and bookkeeping for the test suites.
#[derive(Debug)]
pub struct Report {
    /// Output tuples, in emission order.
    pub results: Vec<Tuple>,
    /// Counters and time series ("results", "index_probes", ...).
    pub metrics: Metrics,
    /// Virtual completion time.
    pub end_time: Time,
    /// Events processed by the simulation loop.
    pub events: u64,
    /// Constraint violations detected (empty unless the checker found a
    /// bug; tests assert emptiness).
    pub violations: Vec<String>,
    /// The policy that ran.
    pub policy_name: &'static str,
    /// Routing trace (empty unless `ExecConfig::trace` was set).
    pub trace: Vec<TraceEvent>,
}

impl Report {
    /// Canonical (sorted, projected) form of the results for comparisons
    /// against the reference executor.
    pub fn canonical(&self, catalog: &Catalog, query: &QuerySpec) -> Vec<Vec<Value>> {
        reference::canonical(catalog, query, &self.results)
    }

    /// Convenience: value of a counter.
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics.counter(name)
    }

    /// Time at which `fraction` (0..=1) of the final result count had been
    /// emitted — the online-metric summary used by the experiments.
    /// `None` if there are no results or the fraction was never reached.
    pub fn time_to_fraction(&self, fraction: f64) -> Option<Time> {
        let series = self.metrics.series("results")?;
        let total = series.last_value();
        if total <= 0.0 {
            return None;
        }
        series.time_reaching(total * fraction.clamp(0.0, 1.0))
    }

    /// Render a short human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "policy={} results={} time={:.2}s events={} probes={} dups_absorbed={}{}",
            self.policy_name,
            self.results.len(),
            stems_sim::to_secs(self.end_time),
            self.events,
            self.counter("index_probes"),
            self.counter("duplicates_absorbed"),
            if self.violations.is_empty() {
                String::new()
            } else {
                format!(" VIOLATIONS={}", self.violations.len())
            }
        )
    }
}

/// One query's report under the multi-query server
/// ([`crate::server::QueryServer`]): the per-query [`Report`] plus its
/// place on the server's shared virtual timeline — the latency
/// bookkeeping `stems-bench server` aggregates into percentiles.
#[derive(Debug)]
pub struct ServerReport {
    /// The query's id: its index in submission order.
    pub query: usize,
    /// Virtual time the query was admitted.
    pub admitted_at: Time,
    /// Virtual time the query finished (its last event *and* its last
    /// scan stream closed).
    pub completed_at: Time,
    /// The per-query report, exactly as a solo run would produce it.
    pub report: Report,
}

impl ServerReport {
    /// Virtual latency from admission to completion.
    pub fn latency(&self) -> Time {
        self.completed_at.saturating_sub(self.admitted_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_mentions_key_counters() {
        let mut m = Metrics::new();
        m.bump("index_probes", 5, 3);
        let r = Report {
            results: vec![],
            metrics: m,
            end_time: 1_500_000,
            events: 42,
            violations: vec![],
            policy_name: "fixed",
            trace: vec![],
        };
        let s = r.summary();
        assert!(s.contains("results=0"));
        assert!(s.contains("probes=3"));
        assert!(s.contains("1.50s"));
        assert!(!s.contains("VIOLATIONS"));
    }

    #[test]
    fn summary_flags_violations() {
        let r = Report {
            results: vec![],
            metrics: Metrics::new(),
            end_time: 0,
            events: 0,
            violations: vec!["dup".into()],
            policy_name: "fixed",
            trace: vec![],
        };
        assert!(r.summary().contains("VIOLATIONS=1"));
    }
}
