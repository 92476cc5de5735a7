//! `stems-bench server`: where SteM folding stands on a query stream, in
//! wall clock.
//!
//! The 3-table chain (2000 rows a table, join keys over 2000 values) as a
//! stream of N queries submitted at once: the shared joins plus one of
//! five cuts on `R.key`, so result sets differ across the stream while
//! every SteM folds. For N in {100, 1000}, at a worker budget of 1 and of
//! the host's cores (one pass when they are equal), one `QueryServer`
//! drains the stream with folding off (N private executors) and one with
//! folding on (each row built once, probed by all N); the sweep prints
//! both wall times and asserts that every query got the same canonical
//! rows from both. It writes no file and gates nothing —
//! `tests/server_folding.rs` holds fold on ≡ off at every batch size and
//! worker budget it sweeps.

use std::time::Instant;
use stems_catalog::{Catalog, QuerySpec, ScanSpec};
use stems_core::{ExecConfig, QueryServer, QueryStatus, ServerReport, Submission};
use stems_datagen::{gen::ColGen::Mod, TableBuilder};
use stems_sql::parse_query;

const ROWS: usize = 2000;
const QUERIES: [usize; 2] = [100, 1000];
const CHAIN_SQL: &str = "SELECT * FROM R, S, T WHERE R.a = S.x AND S.y = T.b";

/// Run the sweep and print one line per stream size and worker budget.
pub fn run() {
    let catalog = chain();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut budgets = vec![1, cores];
    budgets.dedup();
    for n in QUERIES {
        let queries: Vec<QuerySpec> = (0..n)
            .map(|i| {
                let cut = ROWS / 2 + (i % 5) * ROWS / 20;
                let sql = format!("{CHAIN_SQL} AND R.key < {cut}");
                parse_query(&catalog, &sql).expect("stream query")
            })
            .collect();
        for &workers in &budgets {
            let config = ExecConfig {
                workers,
                ..ExecConfig::default()
            };
            let (off_secs, off) = serve(&catalog, &queries, &config, false);
            let (on_secs, on) = serve(&catalog, &queries, &config, true);
            for (i, ((a, b), q)) in off.iter().zip(&on).zip(&queries).enumerate() {
                assert!(
                    a.report.canonical(&catalog, q) == b.report.canonical(&catalog, q),
                    "query {i} of {n}: folding changed its rows"
                );
            }
            println!(
                "{n:>5} queries, workers {workers}: fold off {off_secs:.2} s, \
                 fold on {on_secs:.2} s, off/on {:.2}x (cores {cores}); rows equal",
                off_secs / on_secs
            );
        }
    }
}

/// R(a), S(x, y), T(b), every join column over `ROWS` values.
fn chain() -> Catalog {
    let mut catalog = Catalog::new();
    let tables: [(&str, &[&str]); 3] = [("R", &["a"]), ("S", &["x", "y"]), ("T", &["b"])];
    for (i, (name, cols)) in tables.into_iter().enumerate() {
        let mut table = TableBuilder::new(name, ROWS, 71 + i as u64);
        for col in cols {
            table = table.col(col, Mod(ROWS as i64));
        }
        let source = table.register(&mut catalog).expect("generated table");
        let scan = ScanSpec::with_rate(1e6);
        catalog.add_scan(source, scan).expect("scan spec");
    }
    catalog
}

/// Submit every query at once and drain the server; the wall seconds of
/// the drain and each query's report, in submission order.
fn serve(
    catalog: &Catalog,
    queries: &[QuerySpec],
    config: &ExecConfig,
    fold: bool,
) -> (f64, Vec<ServerReport>) {
    let mut server = QueryServer::builder(catalog)
        .config(config.clone())
        .fold(fold)
        .build()
        .expect("a server without budgets builds");
    for q in queries {
        let submitted = server.submit(Submission::new(q.clone()));
        submitted.expect("a server without budgets admits every query");
    }
    let start = Instant::now();
    let (handles, _) = server.serve();
    let secs = start.elapsed().as_secs_f64();
    let reports = handles.into_iter().map(|h| {
        assert_eq!(h.status, QueryStatus::Completed);
        h.report.expect("completed query has a report")
    });
    (secs, reports.collect())
}
