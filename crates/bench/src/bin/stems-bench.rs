//! `stems-bench paper <name|all>`: reproduce one figure or experiment of
//! the paper (or all of them, writing `PAPER_RESULTS.json`); exit 1 if a
//! shape check fails. `STEMS_RESULTS_DIR` redirects the CSVs and
//! `STEMS_BENCH_OUT` the results document.
//!
//! `stems-bench server`: the folding sweep — a 100- and a 1000-query
//! stream, folding off against on, at a worker budget of 1 and of the
//! host's cores, in wall seconds.

use stems_bench::paper::{self, Experiment, PAPER};

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("paper") => {
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
        Some("server") => stems_bench::server::run(),
        _ => {
            eprintln!("usage: stems-bench paper <name|all> | stems-bench server");
            std::process::exit(2);
        }
    }
}
