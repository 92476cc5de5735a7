//! `stems-bench <series>`: regenerate one point of the perf trajectory
//! (`BENCH_<n>.json`), or `all` of them. `STEMS_BENCH_ROWS` /
//! `STEMS_BENCH_RUNS` shrink the workload, `STEMS_BENCH_OUT` redirects a
//! single series' document.

use stems_bench::harness::{run, Series};
use stems_bench::series::SERIES;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_default();
    let selected: Vec<&Series> = SERIES
        .iter()
        .filter(|s| name == "all" || name == s.name)
        .collect();
    if selected.is_empty() {
        let names: Vec<&str> = SERIES.iter().map(|s| s.name).collect();
        eprintln!("usage: stems-bench <{}|all>", names.join("|"));
        std::process::exit(2);
    }
    run(&selected);
}
