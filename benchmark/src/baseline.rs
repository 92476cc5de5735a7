//! The static comparator: the same request answered by a fixed plan from
//! `stems_baseline` on the same data — selections applied up front, then a
//! left-deep pipeline of symmetric hash joins, or the index join where a
//! table has an index. Its time is the price-of-adaptivity denominator
//! and, being independent of the engine, the host-drift anchor `--compare`
//! checks before it calls a wall-clock change a regression.

use crate::workloads::{OracleQuery, Workload};
use std::time::Instant;
use stems::baseline::{
    index_join, pipelined_shj, ArrivalStream, IndexJoinParams, PipelineStage, ShjParams,
};
use stems::catalog::{AccessMethodDef, TableDef};
use stems::types::TableIdx;

/// Answer the whole request of `w` with static plans, one per SQL text;
/// returns wall ms and the result rows of each text.
pub fn run_static(w: &Workload) -> (f64, Vec<u64>) {
    let t0 = Instant::now();
    let rows = w.oracle.iter().map(|q| static_plan(w, q)).collect();
    (t0.elapsed().as_secs_f64() * 1e3, rows)
}

fn static_plan(w: &Workload, q: &OracleQuery) -> u64 {
    // Each table filtered by its selections, as an arrival stream on the
    // table's own scan spec.
    let filtered: Vec<TableDef> = w
        .sources
        .iter()
        .enumerate()
        .map(|(t, src)| {
            let table = w.catalog.table_expect(*src);
            TableDef::new(&table.name, table.schema.clone()).with_shared_rows(
                table
                    .rows()
                    .iter()
                    .filter(|r| (q.filter)(t, r.values()))
                    .cloned()
                    .collect(),
            )
        })
        .collect();
    let mut index_latency = None;
    let streams: Vec<ArrivalStream> = w
        .sources
        .iter()
        .zip(&filtered)
        .map(|(src, table)| {
            let mut scan = None;
            for (_, def) in w.catalog.ams_of(*src) {
                match def {
                    AccessMethodDef::Scan(spec) => scan = Some(spec.clone()),
                    AccessMethodDef::Index(spec) => index_latency = Some(spec.latency_us),
                }
            }
            ArrivalStream::from_scan(table, &scan.expect("every workload table has a scan"))
        })
        .collect();
    let run = match index_latency {
        Some(lookup_latency_us) => {
            let (left, left_col, right_col) = q.joins[0];
            index_join(
                &streams[left],
                filtered[1].rows(),
                &IndexJoinParams {
                    lookup_latency_us,
                    hit_cost_us: 10,
                    outer_instance: TableIdx(left as u8),
                    inner_instance: TableIdx(1),
                    outer_col: left_col,
                    inner_col: right_col,
                },
            )
        }
        None => {
            let stages: Vec<PipelineStage> = q
                .joins
                .iter()
                .enumerate()
                .map(|(i, &(left, left_col, right_col))| PipelineStage {
                    stream: streams[i + 1].clone(),
                    instance: TableIdx(i as u8 + 1),
                    col: right_col,
                    prev_instance: TableIdx(left as u8),
                    prev_col: left_col,
                })
                .collect();
            pipelined_shj(
                (&streams[0], TableIdx(0)),
                &stages,
                &ShjParams { op_cost_us: 50 },
            )
        }
    };
    run.canonical_values().len() as u64
}
