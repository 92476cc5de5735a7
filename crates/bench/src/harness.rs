//! The bench harness: one place that reads the `STEMS_BENCH_*`
//! variables, one loop that times runs and asserts they agree, one
//! document shape. A [`Series`] (see [`crate::series::SERIES`]) declares
//! only its workloads, variants and field list.

use crate::json::{Fields, Json};
use std::time::Instant;

/// What the environment asked for (defaults come from the [`Series`]).
pub struct Params {
    /// `STEMS_BENCH_ROWS`: rows per table.
    pub rows: usize,
    /// `STEMS_BENCH_RUNS`: timed runs per variant.
    pub runs: usize,
    /// `STEMS_BENCH_VROWS`: rows per table of the `shards` series'
    /// engine-driven virtual runs.
    pub vrows: usize,
}

/// One point of the perf trajectory: the workloads that produce one
/// `BENCH_<n>.json`.
pub struct Series {
    /// The command-line name (`stems-bench <name>`).
    pub name: &'static str,
    /// The committed baseline this series regenerates.
    pub file: &'static str,
    /// The `benchmark` header value; `{r}` stands for the row count.
    pub benchmark: &'static str,
    pub metric: &'static str,
    pub rows: usize,
    pub runs: usize,
    /// Header fields particular to the series (between `runs` and `cores`).
    pub header: fn(&Params) -> Fields,
    pub workloads: fn(&Params) -> Vec<Workload>,
    /// The field list of one emitted entry; the second argument is every
    /// run of the same workload (speedup bases).
    pub entry: fn(&Run, &[Run]) -> Fields,
    /// The series' own acceptance bar over a finished workload.
    pub check: fn(&[Run]),
}

/// Variants over identical input: every run of every variant must
/// produce the same result multiset.
pub struct Workload {
    /// Empty for a series with a single workload (a flat `series` list).
    pub name: String,
    /// Overrides [`Params::runs`].
    pub runs: Option<usize>,
    pub variants: Vec<Variant>,
}

pub struct Variant {
    pub label: String,
    /// The configuration that differs, as emitted beside the label.
    pub params: Fields,
    pub run: Box<dyn FnMut(&mut Phases) -> Outcome>,
}

/// What one run produced. Only the time is allowed to differ between
/// runs of a variant.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Work units the rate divides by (input rows, ops, probes, queries).
    pub units: usize,
    pub results: usize,
    pub hash: String,
    /// Deterministic measurements (virtual times, counters).
    pub extra: Fields,
}

/// The wall-clock phases of one run, in order.
#[derive(Debug, Default)]
pub struct Phases(Vec<(&'static str, f64)>);

impl Phases {
    /// Run `f` as the phase `name`. Only what runs inside a phase counts
    /// towards the run's time.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(name, start.elapsed().as_secs_f64());
        out
    }

    pub fn add(&mut self, name: &'static str, secs: f64) {
        self.0.push((name, secs));
    }

    pub fn total(&self) -> f64 {
        self.0.iter().map(|(_, s)| s).sum()
    }
}

/// The median run of one variant.
pub struct Run {
    pub label: String,
    pub params: Fields,
    pub phases: Phases,
    pub out: Outcome,
}

impl Run {
    pub fn secs(&self) -> f64 {
        self.phases.total()
    }

    /// Work units per wall second.
    pub fn rate(&self) -> f64 {
        self.out.units as f64 / self.secs()
    }

    pub fn phase(&self, name: &str) -> f64 {
        let found = self.phases.0.iter().find(|(n, _)| *n == name);
        found.unwrap_or_else(|| panic!("no phase {name}")).1
    }

    pub fn extra(&self, name: &str) -> &Json {
        let found = self.out.extra.iter().find(|(n, _)| *n == name);
        &found.unwrap_or_else(|| panic!("no field {name}")).1
    }

    /// `label` and the variant's parameters — how every entry starts.
    pub fn head(&self) -> Fields {
        let mut fields = vec![("label", Json::str(&self.label))];
        fields.extend(self.params.iter().cloned());
        fields
    }
}

/// The equivalence every series claims: `hash` and `results` equal those
/// of the first run that reported to `reference`.
pub fn assert_same(reference: &mut Option<(String, usize)>, who: &str, hash: &str, results: usize) {
    let (want_hash, want_results) = reference.get_or_insert_with(|| (hash.to_string(), results));
    assert_eq!(hash, want_hash, "{who} changed the result multiset");
    assert_eq!(results, *want_results, "{who} changed the result count");
}

/// Time `runs` runs of `f`, hold every one of them to `reference`, and
/// return the median run (upper median for even counts) — its own phases
/// beside its own total.
pub fn measure(
    runs: usize,
    who: &str,
    reference: &mut Option<(String, usize)>,
    mut f: impl FnMut(&mut Phases) -> Outcome,
) -> (Phases, Outcome) {
    let mut done: Vec<(Phases, Outcome)> = Vec::with_capacity(runs);
    for _ in 0..runs {
        let mut phases = Phases::default();
        let out = f(&mut phases);
        assert_same(reference, who, &out.hash, out.results);
        if let Some((_, first)) = done.first() {
            assert_eq!(out.extra, first.extra, "{who} is not deterministic");
        }
        done.push((phases, out));
    }
    done.sort_by(|a, b| a.0.total().total_cmp(&b.0.total()));
    done.swap_remove(done.len() / 2)
}

impl Series {
    /// Measure every workload and assemble the document.
    pub fn document(&self, p: &Params) -> Json {
        let mut groups = Vec::new();
        for w in (self.workloads)(p) {
            let runs = w.runs.unwrap_or(p.runs);
            let mut reference = None;
            let mut done: Vec<Run> = Vec::new();
            for v in w.variants {
                let who = format!("{} {}/{}", self.name, w.name, v.label);
                let (phases, out) = measure(runs, &who, &mut reference, v.run);
                println!(
                    "{who:<32} {:>12.0} units/s (median {:.4}s over {runs} runs, {} results)",
                    out.units as f64 / phases.total(),
                    phases.total(),
                    out.results
                );
                done.push(Run {
                    label: v.label,
                    params: v.params,
                    phases,
                    out,
                });
            }
            (self.check)(&done);
            let entries = done.iter().map(|r| Json::Obj((self.entry)(r, &done)));
            groups.push((w.name, Json::List(entries.collect())));
        }

        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut doc = vec![
            (
                "benchmark",
                Json::Str(self.benchmark.replace("{r}", &p.rows.to_string())),
            ),
            ("metric", Json::str(self.metric)),
            ("rows", Json::Int(p.rows as u64)),
            ("runs", Json::Int(p.runs as u64)),
        ];
        doc.extend((self.header)(p));
        doc.push(("cores", Json::Int(cores as u64)));
        doc.push((
            "workers",
            Json::Int(stems_core::runtime::default_workers() as u64),
        ));
        if groups.len() == 1 && groups[0].0.is_empty() {
            doc.push(("series", groups.remove(0).1));
        } else {
            let named = groups.into_iter().map(|(name, series)| {
                Json::Obj(vec![("name", Json::Str(name)), ("series", series)])
            });
            doc.push(("workloads", Json::List(named.collect())));
        }
        Json::Obj(doc)
    }
}

/// A positive-integer `STEMS_BENCH_*` variable. A set-but-invalid value
/// panics rather than silently benchmarking the default workload.
fn env_usize(name: &str, default: usize) -> usize {
    match std::env::var(name) {
        Err(std::env::VarError::NotPresent) => default,
        Ok(s) => match s.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => panic!("{name} must be a positive integer, got {s:?}"),
        },
        Err(e) => panic!("{name} is not valid unicode: {e}"),
    }
}

/// Run the selected series, each into its own file — or, for a single
/// series, into `$STEMS_BENCH_OUT`.
pub fn run(selected: &[&Series]) {
    let out = std::env::var("STEMS_BENCH_OUT").ok();
    assert!(
        out.is_none() || selected.len() == 1,
        "STEMS_BENCH_OUT names one file: run one series at a time"
    );
    for series in selected {
        let params = Params {
            rows: env_usize("STEMS_BENCH_ROWS", series.rows),
            runs: env_usize("STEMS_BENCH_RUNS", series.runs),
            vrows: env_usize("STEMS_BENCH_VROWS", 8000),
        };
        let text = series.document(&params).render();
        let path = out.as_deref().unwrap_or(series.file);
        std::fs::write(path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(hash: &str, results: usize) -> Outcome {
        Outcome {
            units: 10,
            results,
            hash: hash.into(),
            extra: Vec::new(),
        }
    }

    /// Three runs with synthetic phase times 0.9 s, 0.1 s, 0.5 s.
    fn three_runs(mut result_of: impl FnMut(usize) -> Outcome) -> (Phases, Outcome) {
        let mut n = 0;
        measure(3, "test", &mut None, |ph| {
            n += 1;
            let (build, probe) = [(0.6, 0.3), (0.05, 0.05), (0.1, 0.4)][n - 1];
            ph.add("build", build);
            ph.add("probe", probe);
            result_of(n)
        })
    }

    #[test]
    fn measure_returns_the_median_runs_own_phases() {
        let (phases, out) = three_runs(|_| outcome("h", 4));
        assert_eq!(phases.0, vec![("build", 0.1), ("probe", 0.4)]);
        assert_eq!(phases.total(), 0.5);
        assert_eq!(out, outcome("h", 4));
    }

    #[test]
    #[should_panic(expected = "changed the result multiset")]
    fn measure_rejects_a_run_whose_hash_drifts() {
        three_runs(|n| outcome(if n == 2 { "drifted" } else { "h" }, 4));
    }

    #[test]
    #[should_panic(expected = "changed the result count")]
    fn measure_rejects_a_run_whose_count_drifts() {
        three_runs(|n| outcome("h", if n == 2 { 5 } else { 4 }));
    }

    #[test]
    #[should_panic(expected = "changed the result multiset")]
    fn the_reference_spans_variants() {
        let mut reference = None;
        measure(1, "first", &mut reference, |_| outcome("h", 4));
        measure(1, "second", &mut reference, |_| outcome("other", 4));
    }

    #[test]
    fn phases_time_only_what_runs_inside_them() {
        let mut phases = Phases::default();
        assert_eq!(phases.time("probe", || 7), 7);
        assert_eq!(phases.0.len(), 1);
        assert!(phases.total() >= 0.0);
    }
}
