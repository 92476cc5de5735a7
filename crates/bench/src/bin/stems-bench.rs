//! `stems-bench paper <name|all>`: reproduce one figure or experiment of
//! the paper (or all of them, writing `PAPER_RESULTS.json`); exit 1 if a
//! shape check fails. `STEMS_RESULTS_DIR` redirects the CSVs.
//!
//! `stems-bench <series|all>`: regenerate one point of the perf
//! trajectory (`BENCH_<n>.json`), or all of them. `STEMS_BENCH_ROWS` /
//! `STEMS_BENCH_RUNS` shrink the workload.
//!
//! `STEMS_BENCH_OUT` redirects the document of a single series, or of a
//! `paper` run.

use stems_bench::harness::{run, Series};
use stems_bench::paper::{self, Experiment, PAPER};
use stems_bench::series::SERIES;

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_default();
    if name == "paper" {
        let name = args.next().unwrap_or_default();
        let selected: Vec<&Experiment> = PAPER
            .iter()
            .filter(|e| name == "all" || name == e.name)
            .collect();
        if selected.is_empty() {
            let names: Vec<&str> = PAPER.iter().map(|e| e.name).collect();
            eprintln!("usage: stems-bench paper <{}|all>", names.join("|"));
            std::process::exit(2);
        }
        std::process::exit(if paper::run(&selected) { 0 } else { 1 });
    }
    let selected: Vec<&Series> = SERIES
        .iter()
        .filter(|s| name == "all" || name == s.name)
        .collect();
    if selected.is_empty() {
        let names: Vec<&str> = SERIES.iter().map(|s| s.name).collect();
        eprintln!(
            "usage: stems-bench <{}|all> | stems-bench paper <name|all>",
            names.join("|")
        );
        std::process::exit(2);
    }
    run(&selected);
}
