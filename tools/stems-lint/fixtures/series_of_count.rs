//~ rule: series-of-count
//~ path: crates/bench/src/paper.rs
// Reading a count as a curve: `route_batches` and `stem_probes` sit in the
// engine's `counts` list, so no series is ever recorded under them and
// both calls find nothing. (Curves, by-variable names, and a mention in
// a comment such as .series("route_batches") stay silent.)

fn panels(report: &Report, name: &str) -> Outcome {
    let batches = report.metrics.series("route_batches");
    let probes = curve(&report.metrics, "stem_probes")?;
    let results = curve(&report.metrics, "results")?;
    let any = report.metrics.series(name);
    let total = report.counter("route_batches");
    Ok(())
}
