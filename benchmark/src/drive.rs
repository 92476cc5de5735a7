//! The whole benchmark: interleaved rounds of child processes, pooled
//! samples, the traced pass, the printed tables and `results.json`.

use crate::json::Json;
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::single::{set_sample_stats, Options, RunResult};
use crate::stats::median;
use crate::workloads::{self, NAMES};
use std::process::Command;

pub const DEFAULT_SEED: u64 = 2003;
/// The sandbox drifts over minutes (an unchanged binary's median moved
/// 0.13 → 0.21 → 0.17 s in twenty), so each workload is measured in
/// `rounds` short slices spread over the whole run, not one long one.
const DEFAULT_ROUNDS: usize = 5;
pub const DEFAULT_SLICE_S: f64 = 4.0;

/// Lines a single run prints for the driver to pool, ahead of the result
/// line: `# <key> <values...>`.
const SAMPLES_KEY: &str = "samples_ms";
const CORRECTED_KEY: &str = "corrected_ms";
const ROWS_KEY: &str = "logical_rows";
const SIZE_KEY: &str = "size";

fn print_values(values: &Values) {
    for (name, unit, value) in values.iter() {
        println!("  {name:<30} {value:>18.6} {unit}");
    }
}

/// Print one run: every metric by name with its unit, the lines the
/// driver pools, and the result object as the last line.
pub fn print_single(opts: &Options, r: &RunResult) {
    println!(
        "# {} seed={} seconds={} trace={} nproc={}{}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        workloads::nproc(),
        if opts.quick { " quick" } else { "" }
    );
    print_values(&r.metrics);
    println!("  failed {} of {} attempted", r.failed, r.attempted);
    println!("# {ROWS_KEY} {}", r.logical_rows);
    for (name, value) in &r.sizes {
        println!("# {SIZE_KEY} {name} {value}");
    }
    for (key, samples) in [
        (SAMPLES_KEY, &r.samples_ms),
        (CORRECTED_KEY, &r.corrected_ms),
    ] {
        let words: Vec<String> = samples.iter().map(f64::to_string).collect();
        println!("# {key} {}", words.join(" "));
    }
    println!("{}", r.to_json().render());
}

/// What the driver reads back from one child.
struct Child {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
    samples_ms: Vec<f64>,
    corrected_ms: Vec<f64>,
    logical_rows: u64,
    sizes: Vec<(String, f64)>,
}

impl Child {
    fn metric(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

fn spawn(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        // One set-up per child: the driver takes the median over rounds.
        .args(["--setups", "1"]);
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} child failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut child = Child {
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        samples_ms: Vec::new(),
        corrected_ms: Vec::new(),
        logical_rows: 0,
        sizes: Vec::new(),
    };
    let mut last = "";
    for line in stdout.lines() {
        last = line;
        let Some(rest) = line.strip_prefix("# ") else {
            continue;
        };
        let mut words = rest.split_ascii_whitespace();
        match words.next() {
            Some(SAMPLES_KEY) => child.samples_ms = words.filter_map(|w| w.parse().ok()).collect(),
            Some(CORRECTED_KEY) => {
                child.corrected_ms = words.filter_map(|w| w.parse().ok()).collect()
            }
            Some(ROWS_KEY) => {
                child.logical_rows = words.next().and_then(|w| w.parse().ok()).unwrap_or(0)
            }
            Some(SIZE_KEY) => {
                if let (Some(name), Some(v)) = (words.next(), words.next()) {
                    child
                        .sizes
                        .push((name.to_string(), v.parse().unwrap_or(0.0)));
                }
            }
            _ => {}
        }
    }
    let result = Json::parse(last).map_err(|e| format!("{workload} child result line: {e}"))?;
    let num = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    child.attempted = num("attempted");
    child.failed = num("failed");
    for (name, m) in result.get("metrics").map_or(&[][..], Json::as_obj) {
        child.metrics.push((
            name.clone(),
            m.get("value").and_then(Json::as_f64).unwrap_or(0.0),
        ));
    }
    Ok(child)
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn run(
    seed: u64,
    rounds: Option<usize>,
    slice: Option<f64>,
    quick: bool,
) -> Result<(), String> {
    let rounds = rounds
        .unwrap_or(if quick { 1 } else { DEFAULT_ROUNDS })
        .max(1);
    let slice_s = slice.unwrap_or(if quick { 1.0 } else { DEFAULT_SLICE_S });
    eprintln!(
        "stems-benchmark: seed {seed}, {rounds} round(s) x {slice_s} s per workload, then a traced pass{}",
        if quick { " (quick: rows / 10)" } else { "" }
    );

    // Untraced rounds, interleaved over the workloads.
    let mut children: Vec<Vec<Child>> = NAMES.iter().map(|_| Vec::new()).collect();
    for round in 0..rounds {
        for (i, name) in NAMES.iter().enumerate() {
            eprintln!("  round {}/{rounds}: {name}", round + 1);
            children[i].push(spawn(name, seed, slice_s, false, quick)?);
        }
    }
    // The traced pass, one child per workload.
    let mut traced = Vec::new();
    for name in NAMES {
        eprintln!("  traced: {name}");
        traced.push(spawn(name, seed, slice_s, true, quick)?);
    }

    let mut workloads_json = Vec::new();
    let mut any_failed = false;
    for ((name, runs), traced) in NAMES.iter().zip(&children).zip(&traced) {
        let pooled: Vec<f64> = runs
            .iter()
            .flat_map(|c| c.samples_ms.iter().copied())
            .collect();
        let corrected: Vec<f64> = runs
            .iter()
            .flat_map(|c| c.corrected_ms.iter().copied())
            .collect();
        let logical_rows = runs[0].logical_rows;
        let attempted: u64 = runs.iter().map(|c| c.attempted).sum();
        let failed: u64 = runs.iter().map(|c| c.failed).sum::<u64>() + traced.failed;
        any_failed |= failed > 0;

        let mut e2e = Values::new(&END_TO_END);
        let over_rounds =
            |name: &str| -> Vec<f64> { runs.iter().map(|c| c.metric(name)).collect() };
        e2e.set("setup_s", median(&over_rounds("setup_s")));
        e2e.set(
            "rows_per_s",
            logical_rows as f64 / (median(&corrected) / 1e3),
        );
        e2e.set(
            "peak_rss_mb",
            over_rounds("peak_rss_mb").into_iter().fold(0.0, f64::max),
        );
        // The engine's determinism contract: one seed, one virtual timeline.
        for deterministic in ["virt_end_s", "virt_t50_s", "peak_state_bytes"] {
            let values = over_rounds(deterministic);
            if values.iter().any(|v| *v != values[0]) {
                return Err(format!(
                    "{name}: {deterministic} differs between rounds of the same seed: {values:?}"
                ));
            }
            e2e.set(deterministic, values[0]);
        }
        e2e.set(
            "alloc_bytes_per_row",
            median(&over_rounds("alloc_bytes_per_row")),
        );

        let mut layers = Values::new(&PER_LAYER);
        for (metric, value) in &traced.metrics {
            layers.set(metric, *value);
        }
        // The pooled untraced rounds know the iteration spread better than
        // the traced child's short slice.
        set_sample_stats(&mut layers, logical_rows, &pooled);

        println!(
            "\n== {name}: {logical_rows} logical rows, {} samples over {rounds} round(s) x {slice_s} s ==",
            pooled.len()
        );
        print_values(&e2e);
        println!(
            "  failed {failed} of {} attempted",
            attempted + traced.attempted
        );
        println!("  -- per layer (traced pass) --");
        print_values(&layers);

        workloads_json.push((
            name.to_string(),
            Json::obj([
                ("logical_rows", Json::Num(logical_rows as f64)),
                (
                    "sizes",
                    Json::obj(
                        runs[0]
                            .sizes
                            .iter()
                            .map(|(n, v)| (n.clone(), Json::Num(*v))),
                    ),
                ),
                (
                    "attempted",
                    Json::Num((attempted + traced.attempted) as f64),
                ),
                ("failed", Json::Num(failed as f64)),
                ("end_to_end", e2e.to_json()),
                ("per_layer", layers.to_json()),
                (
                    "samples_ms",
                    Json::Arr(pooled.iter().map(|s| Json::Num(*s)).collect()),
                ),
            ]),
        ));
    }

    let results = Json::obj([
        (
            "meta",
            Json::obj([
                ("seed", Json::Num(seed as f64)),
                ("rounds", Json::Num(rounds as f64)),
                ("slice_s", Json::Num(slice_s)),
                ("quick", Json::Bool(quick)),
                ("nproc", Json::Num(workloads::nproc() as f64)),
                (
                    "sharded_workers",
                    Json::Num(workloads::sharded_workers() as f64),
                ),
                ("rustc", Json::Str(tool_line("rustc", &["-V"]))),
                (
                    "commit",
                    Json::Str(tool_line("git", &["rev-parse", "HEAD"])),
                ),
            ]),
        ),
        ("workloads", Json::Obj(workloads_json)),
    ]);
    let path = crate::write_out("results.json", &results.render_pretty())?;
    println!("\nwrote {}", path.display());
    if any_failed {
        return Err("at least one iteration failed its oracle check".into());
    }
    Ok(())
}
