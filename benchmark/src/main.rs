//! The repo's benchmark. Three ways in:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload in this process; the last stdout line is the result object
//!   (`--trace 0`: the end-to-end metrics, `--trace 1`: the per-layer ones).
//! * no `--workload` — the whole benchmark: `--rounds` interleaved passes
//!   over the five workloads, one fresh child process per (round,
//!   workload), samples pooled per workload, then a traced pass; prints
//!   every metric and writes `benchmark/out/results.json`.
//! * `--compare A.json B.json` — judge B against A by the bounds in
//!   `BENCHMARK.json`.
//!
//! See `benchmark/README.md` for the metric glossary and how to read it.

mod alloc;
mod baseline;
mod compare;
mod drive;
mod json;
mod layers;
mod metrics;
mod oracle;
mod probe;
mod run;
mod single;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// `benchmark/out`, next to this package's manifest.
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Write `text` to `benchmark/out/<file_name>`; returns the path.
fn write_out(file_name: &str, text: &str) -> Result<PathBuf, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(file_name);
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// `BENCHMARK.json` at the repo root.
fn benchmark_json_path() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
}

const USAGE: &str = "usage:
  run.sh [--seed N] [--rounds R] [--slice S] [--quick]      whole benchmark
  run.sh --workload W --seed N --seconds S --trace 0|1      one run, one workload
         [--setups K] [--quick]
  run.sh --compare A.json B.json                            judge B against A";

/// Command-line options; every flag of every mode, unset ones `None`.
#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    setups: Option<usize>,
    rounds: Option<usize>,
    slice: Option<f64>,
    quick: bool,
    compare: Option<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    fn value<T: std::str::FromStr>(
        flag: &str,
        it: &mut std::slice::Iter<'_, String>,
    ) -> Result<T, String> {
        let raw = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        raw.parse()
            .map_err(|_| format!("{flag}: cannot read {raw:?}"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(flag, &mut it)?),
            "--seed" => args.seed = Some(value(flag, &mut it)?),
            "--seconds" => args.seconds = Some(value(flag, &mut it)?),
            "--trace" => {
                args.trace = Some(match value::<u8>(flag, &mut it)? {
                    0 => false,
                    1 => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            "--setups" => args.setups = Some(value(flag, &mut it)?),
            "--rounds" => args.rounds = Some(value(flag, &mut it)?),
            "--slice" => args.slice = Some(value(flag, &mut it)?),
            "--quick" => args.quick = true,
            "--compare" => {
                args.compare = Some((value(flag, &mut it)?, value(flag, &mut it)?));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// `ExecConfig::default()` and the server builder read `STEMS_*` (the CI
/// matrix exports them). Every workload sets its configuration field by
/// field, and a stray variable must not be able to change what is measured.
fn refuse_stems_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("STEMS_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "unset {} first: the benchmark fixes every engine setting itself",
            set.join(", ")
        ))
    }
}

fn real_main() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).map_err(|e| format!("{e}\n{USAGE}"))?;
    if let Some((a, b)) = &args.compare {
        return compare::run(a, b);
    }
    refuse_stems_env()?;
    let seed = args.seed.unwrap_or(drive::DEFAULT_SEED);
    match args.workload {
        Some(workload) => {
            if !workloads::NAMES.contains(&workload.as_str()) {
                return Err(format!(
                    "unknown workload {workload:?}; known: {}",
                    workloads::NAMES.join(", ")
                ));
            }
            let opts = single::Options {
                workload,
                seed,
                seconds: args.seconds.unwrap_or(drive::DEFAULT_SLICE_S),
                trace: args.trace.unwrap_or(false),
                setups: args.setups.unwrap_or(single::DEFAULT_SETUPS),
                quick: args.quick,
            };
            let result = single::run(&opts)?;
            drive::print_single(&opts, &result);
            Ok(())
        }
        None => drive::run(seed, args.rounds, args.slice, args.quick),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("stems-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
