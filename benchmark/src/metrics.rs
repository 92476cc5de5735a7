//! Every metric the benchmark prints, by name and unit. `BENCHMARK.json`
//! lists the same names with their direction and bound; a unit test keeps
//! the two in step.

use crate::json::Json;

/// `(name, unit)`.
pub type Def = (&'static str, &'static str);

/// Virtual (simulated) seconds: deterministic, never a wall-clock reading.
const SIM_S: &str = "sim_s";

/// The end-to-end metrics, the same for every workload. Failures are
/// reported through the result line's `attempted` / `failed` rather than
/// as a metric: a rate that is 0 on every healthy run has no spread.
pub const END_TO_END: [Def; 7] = [
    ("setup_s", "s"),
    ("rows_per_s", "1/s"),
    ("virt_end_s", SIM_S),
    ("virt_t50_s", SIM_S),
    ("peak_state_bytes", "bytes"),
    ("peak_rss_mb", "MB"),
    ("alloc_bytes_per_row", "bytes"),
];

/// The per-layer metrics of the traced pass; the prefix is the layer
/// (module or crate) the number belongs to.
pub const PER_LAYER: [Def; 61] = [
    ("sql.parse_ms", "ms"),
    ("plan.build_ms", "ms"),
    ("server.submit_ms", "ms"),
    ("engine.run_ms", "ms"),
    ("engine.events", "count"),
    ("engine.route_batches", "count"),
    ("engine.events_per_row", "ratio"),
    ("engine.rows_per_route_batch", "ratio"),
    ("engine.self_ms", "ms"),
    ("engine.self_share", "ratio"),
    ("am.scan_emit_ms", "ms"),
    ("am.index_probe_ms", "ms"),
    ("am.index_probes", "count"),
    ("am.probes_bounced", "count"),
    ("am.probes_coalesced", "count"),
    ("stem.build_ms", "ms"),
    ("stem.build_rows", "count"),
    ("stem.probe_ms", "ms"),
    ("stem.probes", "count"),
    ("stem.matches_per_probe", "ratio"),
    ("stem.dup_absorbed", "count"),
    ("storage.insert_ms", "ms"),
    ("storage.lookup_ms", "ms"),
    ("storage.bytes_per_row", "bytes"),
    ("sharded.lane_skew", "ratio"),
    ("sharded.speedup_vs_unsharded", "ratio"),
    ("runtime.scope_us", "us"),
    ("runtime.cpu_per_wall", "ratio"),
    ("sm.apply_ms", "ms"),
    ("sm.rows", "count"),
    ("sm.pass_ratio", "ratio"),
    ("sm.udf_ms", "ms"),
    ("memo.hit_ratio", "ratio"),
    ("memo.udf_calls", "count"),
    ("memo.evictions", "count"),
    ("memo.lookup_ns", "ns"),
    ("router.candidates_ns", "ns"),
    ("policy.choose_ns", "ns"),
    ("policy.hints_recosted", "count"),
    ("policy.drops", "count"),
    ("sim.metrics_bump_ns", "ns"),
    ("sim.agenda_ns", "ns"),
    ("server.serve_ms", "ms"),
    ("server.ms_per_query", "ms"),
    ("server.shared_builds", "count"),
    ("server.shared_stems", "count"),
    ("server.fold_ratio", "ratio"),
    ("server.fold_gain", "ratio"),
    ("server.solo_ratio", "ratio"),
    ("server.virt_latency_p95_s", SIM_S),
    ("report.canonical_ms", "ms"),
    ("baseline.static_ms", "ms"),
    ("baseline.overhead_ratio", "ratio"),
    ("alloc.count_per_row", "count"),
    ("e2e.raw_rows_per_s", "1/s"),
    ("e2e.host_speed", "ratio"),
    ("e2e.iter_ms_p50", "ms"),
    ("e2e.iter_ms_p90", "ms"),
    ("e2e.samples", "count"),
    ("e2e.spread", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Metric values in table order, filled by name.
pub struct Values {
    defs: &'static [Def],
    values: Vec<f64>,
}

impl Values {
    pub fn new(defs: &'static [Def]) -> Values {
        Values {
            defs,
            values: vec![0.0; defs.len()],
        }
    }

    /// Set metric `name`. Panics on a name the table does not list: a
    /// metric cannot be printed without being declared.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not declared in metrics.rs"));
        self.values[i] = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |(_, _, v)| v)
    }

    /// `{name: {"value": v, "unit": u}, ...}` in table order — the shape of
    /// the result line's `metrics` and of `results.json`.
    pub fn to_json(&self) -> Json {
        Json::obj(self.iter().map(|(name, unit, value)| {
            (
                name,
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.to_string())),
                ]),
            )
        }))
    }

    /// `(name, unit, value)` in table order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.defs
            .iter()
            .zip(&self.values)
            .map(|((n, u), v)| (*n, *u, *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::NAMES;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
            .expect("BENCHMARK.json parses")
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn listed(section: &Json) -> Vec<(String, String)> {
        section
            .as_arr()
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn every_printed_name_is_listed_in_benchmark_json() {
        let b = benchmark_json();
        let owned = |defs: &[Def]| -> Vec<(String, String)> {
            defs.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(b.get("end_to_end").unwrap()), owned(&END_TO_END));
        assert_eq!(listed(b.get("per_layer").unwrap()), owned(&PER_LAYER));
        let workloads: Vec<String> = listed(b.get("workloads").unwrap())
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, NAMES);
        for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(well_formed(name), "{name}");
        }
        assert!(NAMES.iter().all(|n| well_formed(n)));
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .chain(NAMES)
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), END_TO_END.len() + PER_LAYER.len() + NAMES.len());
    }

    #[test]
    fn bounds_are_present_and_within_the_cap() {
        let b = benchmark_json();
        for m in b.get("end_to_end").unwrap().as_arr() {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!((0.0..=0.25).contains(&bound), "{m:?}");
            let better = m.get("better").and_then(Json::as_str).unwrap();
            assert!(better == "lower" || better == "higher");
        }
    }

    #[test]
    fn values_are_set_and_read_by_name() {
        let mut v = Values::new(&END_TO_END);
        v.set("rows_per_s", 12.5);
        assert_eq!(v.get("rows_per_s"), 12.5);
        assert_eq!(v.get("setup_s"), 0.0);
        assert_eq!(v.iter().count(), END_TO_END.len());
        assert_eq!(v.iter().nth(1), Some(("rows_per_s", "1/s", 12.5)));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metrics_cannot_be_set() {
        Values::new(&END_TO_END).set("made_up", 1.0);
    }
}
