//! What the bench series drive: one generated-catalog builder, one
//! engine run, one direct SteM build-then-probe loop.

use crate::harness::{Outcome, Phases};
use crate::result_hash;
use std::rc::Rc;
use stems_catalog::{Catalog, QuerySpec, ScanSpec};
use stems_core::stem::{BuildResult, ProbeReplySet};
use stems_core::{EddyExecutor, ExecConfig, Report, ShardedStem, StemOptions, TupleState};
use stems_datagen::{gen::ColGen, TableBuilder};
use stems_sql::parse_query;
use stems_types::{TableIdx, Timestamp, Tuple, TupleBatch, Value};

/// Envelope of the direct SteM drives — large enough that the sharded
/// fan-out and the flat probe pipeline engage.
pub const ENVELOPE: usize = 4096;

/// A generated catalog and the query a series runs on it.
pub type Data = Rc<(Catalog, QuerySpec)>;

/// Build `tables` (name + generated columns; `rows` rows each, table `i`
/// seeded `seed + i`), give every table the scan `scan`, and parse `sql`
/// against the result. Seeds are fixed, so every variant of a series
/// sees the same rows whatever its scan chunk.
pub fn generate(
    rows: usize,
    seed: u64,
    scan: ScanSpec,
    tables: &[(&str, &[(&str, ColGen)])],
    sql: &str,
) -> Data {
    let mut catalog = Catalog::new();
    for (i, (name, cols)) in tables.iter().enumerate() {
        let mut table = TableBuilder::new(name, rows, seed + i as u64);
        for (col, gen) in cols.iter() {
            table = table.col(col, gen.clone());
        }
        let source = table.register(&mut catalog).expect("generated table");
        catalog.add_scan(source, scan.clone()).expect("scan spec");
    }
    let query = parse_query(&catalog, sql).expect("bench query");
    Rc::new((catalog, query))
}

/// One full engine run of `data`'s query, planning included, as the
/// phase `run`; the outcome hashes the canonical results as `render`
/// spells them.
pub fn run_engine(
    data: &Data,
    config: ExecConfig,
    render: fn(&[Vec<Value>]) -> Vec<String>,
    ph: &mut Phases,
) -> (Report, Outcome) {
    let (catalog, query) = &**data;
    let report = ph.time("run", || {
        EddyExecutor::build(catalog, query, config)
            .expect("plan")
            .run()
    });
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    let rows_of = |source| catalog.table_expect(source).rows().len();
    let outcome = Outcome {
        units: query.tables.iter().map(|t| rows_of(t.source)).sum(),
        results: report.results.len(),
        hash: result_hash(render(&report.canonical(catalog, query))),
        extra: Vec::new(),
    };
    (report, outcome)
}

/// How [`drive_stems`] drives the SteMs of a query's tables.
pub struct StemDrive {
    pub options: StemOptions,
    /// Probe envelope (builds always arrive [`ENVELOPE`] rows at a time).
    pub envelope: usize,
    /// `None`: the join traffic the eddy routes — every table builds
    /// (phase `build`) and table 0's stamped rows probe. `Some((ts,
    /// stride))`: the probe pipeline alone — table 0 is not built, the
    /// build is not timed, every `stride`-th row probes stamped `ts` and
    /// the rest stamped 1 (re-probe traffic the TimeStamp rule filters),
    /// and the hash also covers every probe's `raw_matches`, so a
    /// candidate-fetch bug shows even where no result forms.
    pub probe_only: Option<(Timestamp, usize)>,
}

/// Drive the SteM layer directly, minus the routing machinery: build
/// the tables last to first (so every probe is by the later-built side
/// and the TimeStamp rule passes every match), then cascade table 0's
/// rows through SteM 1, their matches through SteM 2, and so on. Phase
/// `probe` covers the cascade; units are builds plus probes issued.
pub fn drive_stems(data: &Data, drive: &StemDrive, ph: &mut Phases) -> Outcome {
    let (catalog, query) = &**data;
    let table = |t: usize| TableIdx(t as u8);
    let n = query.tables.len();
    let singletons: Vec<Vec<Tuple>> = (0..n)
        .map(|t| {
            let rows = catalog.table_expect(query.tables[t].source).rows();
            let tuples = rows
                .iter()
                .map(|row| Tuple::singleton(table(t), row.clone()));
            tuples.collect()
        })
        .collect();
    let mut stems: Vec<ShardedStem> = (0..n)
        .map(|t| {
            let source = query.tables[t].source;
            let join_cols = query.join_cols_of(table(t));
            ShardedStem::new(
                table(t),
                source,
                &join_cols,
                true,
                false,
                drive.options.clone(),
            )
        })
        .collect();

    let mut ts: Timestamp = 0;
    // Builds tables `from..n`, last first; returns the rows built and
    // table 0's stamped tuples (empty when it is not built).
    let mut build = |from: usize| -> (usize, Vec<Tuple>) {
        let (mut built, mut stamped) = (0, Vec::new());
        for t in (from..n).rev() {
            for chunk in singletons[t].chunks(ENVELOPE) {
                let batch: TupleBatch = chunk.iter().cloned().collect();
                let states = vec![TupleState::new(); batch.len()];
                built += batch.len();
                for result in stems[t].build_batch(&batch, &states, &mut ts) {
                    if let (0, BuildResult::Fresh(tuple)) = (t, result) {
                        stamped.push(tuple);
                    }
                }
            }
        }
        (built, stamped)
    };
    let (mut units, probers) = match drive.probe_only {
        None => ph.time("build", || build(0)),
        Some((live_ts, stride)) => {
            build(1);
            let stamp = |(k, tuple): (usize, &Tuple)| {
                let ts = if k % stride == 0 { live_ts } else { 1 };
                tuple.clone().with_timestamp(table(0), ts)
            };
            (0, singletons[0].iter().enumerate().map(stamp).collect())
        }
    };

    // One reply arena serves every envelope — the steady-state reply path.
    let mut replies = ProbeReplySet::new();
    let mut raw_matches = Vec::new();
    let mut wave: Vec<(Tuple, TupleState)> = probers
        .into_iter()
        .map(|t| (t, TupleState::new()))
        .collect();
    ph.time("probe", || {
        for stem in &mut stems[1..] {
            let mut matches = Vec::new();
            for chunk in wave.chunks(drive.envelope) {
                let (batch, states): (Vec<Tuple>, Vec<TupleState>) = chunk.iter().cloned().unzip();
                units += batch.len();
                replies.clear();
                stem.probe_batch_into(&batch, &states, query, &mut replies);
                let (metas, mut results) = replies.metas_and_results();
                for meta in metas {
                    raw_matches.push(meta.raw_matches);
                    let joined = results.by_ref().take(meta.len);
                    matches.extend(joined.map(|(t, done)| (t, TupleState::for_result(done))));
                }
            }
            wave = matches;
        }
    });

    let mut rendered: Vec<String> = wave.iter().map(|(t, _)| t.to_string()).collect();
    if drive.probe_only.is_some() {
        let raw = raw_matches.iter().enumerate();
        rendered.extend(raw.map(|(probe, n)| format!("raw:{probe}:{n}")));
    }
    Outcome {
        units,
        results: wave.len(),
        hash: result_hash(rendered),
        extra: Vec::new(),
    }
}
