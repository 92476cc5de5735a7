//! Online reordering under user interest (paper §4.1).
//!
//! The FFF motivation: "as the user sees these partial results, their
//! interests in different parts of the result may change." Here the user
//! cares about recent years first. With a priority predicate, matching
//! tuples jump module queues and their index lookups are served first —
//! interesting results surface immediately, total work unchanged.
//!
//! ```sh
//! cargo run --example interactive_priorities
//! ```

use stems::prelude::*;
use stems::sim::{secs_f, to_secs};

fn setup() -> Result<(Catalog, QuerySpec), Box<dyn std::error::Error>> {
    let n: i64 = 300;
    let mut catalog = Catalog::new();
    let papers = catalog.add_table(
        TableDef::new(
            "papers",
            Schema::of(&[("id", ColumnType::Int), ("year", ColumnType::Int)]),
        )
        .with_rows(
            (0..n)
                .map(|i| vec![i.into(), (1980 + (i * 13) % 45).into()])
                .collect(),
        ),
    )?;
    let citations = catalog.add_table(
        TableDef::new(
            "citations",
            Schema::of(&[("paper_id", ColumnType::Int), ("count", ColumnType::Int)]),
        )
        .with_rows(
            (0..n)
                .map(|i| vec![i.into(), ((i * 7) % 1000).into()])
                .collect(),
        ),
    )?;
    catalog.add_scan(papers, ScanSpec::with_rate(150.0))?;
    // citations only answer keyed lookups, 250 ms each.
    catalog.add_index(citations, IndexSpec::new(vec![0], secs_f(0.25)))?;
    let query = parse_query(
        &catalog,
        "SELECT p.id, p.year, c.count FROM papers p, citations c \
         WHERE p.id = c.paper_id",
    )?;
    Ok((catalog, query))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (catalog, query) = setup()?;
    let interest = Predicate::selection(
        PredId(0),
        ColRef::new(TableIdx(0), 1),
        CmpOp::Ge,
        Value::Int(2015),
    );

    let plain = EddyExecutor::build(&catalog, &query, ExecConfig::default())?.run();
    let boosted = EddyExecutor::build(
        &catalog,
        &query,
        ExecConfig {
            priority_pred: Some(interest.clone()),
            ..ExecConfig::default()
        },
    )?
    .run();
    assert_eq!(plain.results.len(), boosted.results.len());

    // Result `i` (from 1) was emitted when the results counter reached `i`.
    let timeline = |r: &Report| -> Vec<(f64, bool)> {
        let series = r.metrics.series("results").expect("series");
        (1..)
            .zip(&r.results)
            .map(|(i, tuple)| {
                let t = series.time_reaching(i as f64).expect("result counted");
                (to_secs(t), interest.eval(tuple) == Some(true))
            })
            .collect()
    };
    let kth_interesting = |tl: &[(f64, bool)], k: usize| {
        tl.iter()
            .filter(|(_, hot)| *hot)
            .nth(k - 1)
            .map(|(t, _)| *t)
            .unwrap_or(f64::NAN)
    };

    let tl_plain = timeline(&plain);
    let tl_boost = timeline(&boosted);
    let hot_total = tl_plain.iter().filter(|(_, h)| *h).count();

    println!("-- interactive priorities: user cares about papers from ≥ 2015");
    println!(
        "   {} of {} results are interesting",
        hot_total,
        plain.results.len()
    );
    println!("   time to k-th interesting result (seconds):");
    println!(
        "   {:>6} {:>12} {:>12}",
        "k", "unprioritized", "prioritized"
    );
    for k in [1, hot_total / 4, hot_total / 2, hot_total] {
        let k = k.max(1);
        println!(
            "   {:>6} {:>12.1} {:>12.1}",
            k,
            kth_interesting(&tl_plain, k),
            kth_interesting(&tl_boost, k)
        );
    }
    println!(
        "   completion unchanged: {:.1}s vs {:.1}s",
        to_secs(plain.end_time),
        to_secs(boosted.end_time)
    );
    Ok(())
}
