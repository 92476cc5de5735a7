//! Symmetric hash joins: the pipelining binary operator \[WA91\] and the
//! fig 2(i) pipeline of binary SHJs with intermediate-result
//! materialization.

use crate::{ArrivalStream, BaselineRun};
use std::sync::Arc;
use stems_sim::Time;
use stems_storage::fxhash::FxHashMap;
use stems_storage::index_key;
use stems_types::{Row, TableIdx, Tuple, Value};

/// SHJ timing parameters.
#[derive(Debug, Clone)]
pub struct ShjParams {
    /// Local cost of one build+probe step, µs. SHJ is CPU-light; arrival
    /// rates dominate, as in the paper's fig 8.
    pub op_cost_us: u64,
}

impl Default for ShjParams {
    fn default() -> Self {
        ShjParams { op_cost_us: 50 }
    }
}

/// Binary symmetric hash join of two scanned inputs on
/// `left.col = right.col`. Emits each result when its later side arrives.
pub fn symmetric_hash_join(
    left: &ArrivalStream,
    left_instance: TableIdx,
    left_col: usize,
    right: &ArrivalStream,
    right_instance: TableIdx,
    right_col: usize,
    params: &ShjParams,
) -> BaselineRun {
    let mut run = BaselineRun::new();
    let mut left_ht: FxHashMap<Value, Vec<Arc<Row>>> = FxHashMap::default();
    let mut right_ht: FxHashMap<Value, Vec<Arc<Row>>> = FxHashMap::default();
    let mut mem_bytes = 0usize;
    let mut builds = 0u64;

    for (t, is_left, row) in ArrivalStream::merge(left, right) {
        let emit_at = t + params.op_cost_us;
        mem_bytes += row.approx_bytes();
        builds += 1;
        if builds.is_multiple_of(64) {
            run.observe("mem_bytes", t, mem_bytes as f64);
        }
        let (own_ht, other_ht, own_col, other_is) = if is_left {
            (&mut left_ht, &right_ht, left_col, right_instance)
        } else {
            (&mut right_ht, &left_ht, right_col, left_instance)
        };
        let Some(key) = row.get(own_col).and_then(index_key) else {
            continue; // NULL join keys build nowhere and match nothing
        };
        own_ht.entry(key.clone()).or_default().push(row.clone());
        if let Some(matches) = other_ht.get(&key) {
            for m in matches {
                let own_inst = if is_left {
                    left_instance
                } else {
                    right_instance
                };
                let result = Tuple::singleton(own_inst, row.clone())
                    .concat(&Tuple::singleton(other_is, m.clone()));
                run.emit(emit_at, result);
            }
        }
        run.end_time = run.end_time.max(emit_at);
    }
    run.observe("mem_bytes", run.end_time, mem_bytes as f64);
    run
}

/// One stage of a left-deep SHJ pipeline: joins the accumulated prefix
/// against a new scanned input on `prefix (prev_instance, prev_col) =
/// (instance, col)`.
#[derive(Debug, Clone)]
pub struct PipelineStage {
    pub stream: ArrivalStream,
    pub instance: TableIdx,
    /// Column on this stage's table.
    pub col: usize,
    /// The join partner within the prefix.
    pub prev_instance: TableIdx,
    pub prev_col: usize,
}

/// Fig 2(i): a left-deep pipeline of binary SHJs.
///
/// Every stage materializes **both** its inputs, so stages above the first
/// store intermediate (composite) tuples — the memory cost the n-ary SHJ
/// through SteMs avoids by storing singletons only (paper §2.3). The
/// `"mem_bytes"` series records the total hash-table footprint.
pub fn pipelined_shj(
    first: (&ArrivalStream, TableIdx),
    stages: &[PipelineStage],
    params: &ShjParams,
) -> BaselineRun {
    assert!(!stages.is_empty(), "pipeline needs at least one join");
    let mut run = BaselineRun::new();

    // Per stage: left hash table (prefix composites keyed by the stage's
    // prefix column) and right hash table (the stage's own singletons).
    struct Stage {
        left_ht: FxHashMap<Value, Vec<Tuple>>,
        right_ht: FxHashMap<Value, Vec<Arc<Row>>>,
        meta: PipelineStage,
    }
    let mut built: Vec<Stage> = stages
        .iter()
        .map(|m| Stage {
            left_ht: FxHashMap::default(),
            right_ht: FxHashMap::default(),
            meta: m.clone(),
        })
        .collect();

    // Global arrival agenda: (time, source index) with 0 = the first
    // (leftmost) input, i+1 = stage i's own input.
    let mut events: Vec<(Time, usize, Arc<Row>)> = Vec::new();
    for (t, r) in first.0.items() {
        events.push((*t, 0, r.clone()));
    }
    for (i, st) in stages.iter().enumerate() {
        for (t, r) in st.stream.items() {
            events.push((*t, i + 1, r.clone()));
        }
    }
    events.sort_by_key(|a| (a.0, a.1));

    let mut mem_bytes = 0usize;
    let mut builds = 0u64;

    // Insert a composite into stage `si`'s left side and cascade matches.
    fn cascade(
        stages: &mut [Stage],
        si: usize,
        tuple: Tuple,
        t: Time,
        op_cost: u64,
        run: &mut BaselineRun,
        mem: &mut usize,
    ) {
        if si >= stages.len() {
            // The root's output queue is FIFO: a shallow result cannot
            // leave before the deeper one an earlier arrival queued ahead
            // of it. `end_time` is the latest result so far (every other
            // contribution to it is no later than this arrival's own
            // emission time), so the `results` series stays time-sorted.
            run.emit(t.max(run.end_time), tuple);
            return;
        }
        let key = tuple
            .value(stages[si].meta.prev_instance, stages[si].meta.prev_col)
            .and_then(index_key);
        let Some(key) = key else { return };
        *mem += tuple.approx_bytes();
        stages[si]
            .left_ht
            .entry(key.clone())
            .or_default()
            .push(tuple.clone());
        let matches: Vec<Arc<Row>> = stages[si].right_ht.get(&key).cloned().unwrap_or_default();
        let inst = stages[si].meta.instance;
        for m in matches {
            let joined = tuple.concat(&Tuple::singleton(inst, m));
            cascade(stages, si + 1, joined, t + op_cost, op_cost, run, mem);
        }
    }

    for (t, src, row) in events {
        builds += 1;
        if builds.is_multiple_of(64) {
            run.observe("mem_bytes", t, mem_bytes as f64);
        }
        let emit_at = t + params.op_cost_us;
        if src == 0 {
            let tuple = Tuple::singleton(first.1, row);
            cascade(
                &mut built,
                0,
                tuple,
                emit_at,
                params.op_cost_us,
                &mut run,
                &mut mem_bytes,
            );
        } else {
            let si = src - 1;
            let inst = built[si].meta.instance;
            let Some(key) = row.get(built[si].meta.col).and_then(index_key) else {
                continue;
            };
            mem_bytes += row.approx_bytes();
            built[si]
                .right_ht
                .entry(key.clone())
                .or_default()
                .push(row.clone());
            let matches: Vec<Tuple> = built[si].left_ht.get(&key).cloned().unwrap_or_default();
            for m in matches {
                let joined = m.concat(&Tuple::singleton(inst, row.clone()));
                cascade(
                    &mut built,
                    si + 1,
                    joined,
                    emit_at,
                    params.op_cost_us,
                    &mut run,
                    &mut mem_bytes,
                );
            }
        }
        run.end_time = run.end_time.max(emit_at);
    }
    run.observe("mem_bytes", run.end_time, mem_bytes as f64);
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use stems_catalog::{ScanSpec, TableDef};
    use stems_types::{ColumnType, Schema};

    fn stream(vals: &[(i64, i64)], rate: f64) -> ArrivalStream {
        let t = TableDef::new(
            "t",
            Schema::of(&[("k", ColumnType::Int), ("v", ColumnType::Int)]),
        )
        .with_rows(
            vals.iter()
                .map(|(k, v)| vec![Value::Int(*k), Value::Int(*v)])
                .collect(),
        );
        ArrivalStream::from_scan(&t, &ScanSpec::with_rate(rate))
    }

    #[test]
    fn binary_shj_joins_exactly() {
        // left.v = right.v
        let left = stream(&[(0, 1), (1, 2), (2, 1)], 100.0);
        let right = stream(&[(0, 1), (1, 3)], 80.0);
        let run = symmetric_hash_join(
            &left,
            TableIdx(0),
            1,
            &right,
            TableIdx(1),
            1,
            &ShjParams::default(),
        );
        // v=1: 2 left × 1 right = 2 results.
        assert_eq!(run.results.len(), 2);
        for r in &run.results {
            assert_eq!(r.value(TableIdx(0), 1), r.value(TableIdx(1), 1));
        }
    }

    #[test]
    fn results_emitted_at_later_arrival() {
        let left = stream(&[(0, 1)], 100.0); // arrives at 10ms
        let right = stream(&[(0, 1)], 10.0); // arrives at 100ms
        let run = symmetric_hash_join(
            &left,
            TableIdx(0),
            1,
            &right,
            TableIdx(1),
            1,
            &ShjParams::default(),
        );
        assert_eq!(run.results.len(), 1);
        let s = run.metrics.series("results").unwrap();
        assert_eq!(s.value_at(99_999), 0.0);
        assert_eq!(s.value_at(100_050 + 10), 1.0);
    }

    #[test]
    fn pipeline_three_way_chain() {
        // A.v = B.v, B.k = C.k
        let a = stream(&[(0, 1), (1, 2)], 100.0);
        let b = stream(&[(0, 1), (1, 2)], 90.0);
        let c = stream(&[(0, 9), (1, 9)], 80.0);
        let run = pipelined_shj(
            (&a, TableIdx(0)),
            &[
                PipelineStage {
                    stream: b.clone(),
                    instance: TableIdx(1),
                    col: 1,
                    prev_instance: TableIdx(0),
                    prev_col: 1,
                },
                PipelineStage {
                    stream: c.clone(),
                    instance: TableIdx(2),
                    col: 0,
                    prev_instance: TableIdx(1),
                    prev_col: 0,
                },
            ],
            &ShjParams::default(),
        );
        // A⋈B on v: (0,1)-(0,1), (1,2)-(1,2). Then AB.k(B) = C.k: both.
        assert_eq!(run.results.len(), 2);
        for r in &run.results {
            assert_eq!(r.span().len(), 3);
        }
    }

    #[test]
    fn pipeline_records_results_in_time_order() {
        // A ⋈ B ⋈ C ⋈ D on v (two values: every arrival fans out), rows
        // 10–14 µs apart against a 50 µs operator: an A arrival cascades
        // three stages deep and its results carry t + 4·op, then the next
        // D arrival emits from the root at t' + op — earlier.
        let inputs: Vec<Vec<(i64, i64)>> = [6, 5, 4, 3]
            .iter()
            .map(|n| (0..*n).map(|k| (k, k % 2)).collect())
            .collect();
        let rates = [100_000.0, 90_000.0, 80_000.0, 70_000.0];
        let streams: Vec<ArrivalStream> = inputs
            .iter()
            .zip(rates)
            .map(|(vals, rate)| stream(vals, rate))
            .collect();
        let stages: Vec<PipelineStage> = (1..4)
            .map(|i| PipelineStage {
                stream: streams[i].clone(),
                instance: TableIdx(i as u8),
                col: 1,
                prev_instance: TableIdx(i as u8 - 1),
                prev_col: 1,
            })
            .collect();
        let run = pipelined_shj((&streams[0], TableIdx(0)), &stages, &ShjParams::default());

        let points = run.metrics.series("results").unwrap().points();
        assert!(
            points.windows(2).all(|w| w[0].0 <= w[1].0),
            "results series is not time-sorted: {points:?}"
        );
        assert_eq!(run.end_time, points.last().unwrap().0);

        // Nested loops in key order enumerate the canonical (sorted) form.
        let mut want: Vec<Vec<Value>> = Vec::new();
        for a in &inputs[0] {
            for b in inputs[1].iter().filter(|b| b.1 == a.1) {
                for c in inputs[2].iter().filter(|c| c.1 == a.1) {
                    for d in inputs[3].iter().filter(|d| d.1 == a.1) {
                        let row = [a, b, c, d].map(|r| [r.0, r.1]);
                        want.push(row.concat().into_iter().map(Value::Int).collect());
                    }
                }
            }
        }
        assert_eq!(run.canonical_values(), want);
    }

    #[test]
    fn pipeline_materializes_intermediates() {
        // Many A-B pairs: intermediate storage should dominate memory.
        let pairs: Vec<(i64, i64)> = (0..20).map(|k| (k, 0)).collect();
        let a = stream(&pairs, 1000.0);
        let b = stream(&pairs, 900.0);
        let c = stream(&[(0, 0)], 800.0);
        let run = pipelined_shj(
            (&a, TableIdx(0)),
            &[
                PipelineStage {
                    stream: b,
                    instance: TableIdx(1),
                    col: 1,
                    prev_instance: TableIdx(0),
                    prev_col: 1,
                },
                PipelineStage {
                    stream: c,
                    instance: TableIdx(2),
                    col: 0,
                    prev_instance: TableIdx(1),
                    prev_col: 0,
                },
            ],
            &ShjParams::default(),
        );
        // 20×20 AB pairs materialized in stage 2's left table.
        let mem = run.metrics.series("mem_bytes").unwrap().last_value();
        // Singleton-only storage would be ~41 rows; composites make it
        // hundreds of tuple records.
        assert!(mem > 400.0 * 20.0, "mem={mem}");
        // Join on B.k = C.k with only k=0 in C: 20 results (A×{b0}×{c0})…
        // A.v=0 all, B.v=0 all ⇒ AB = 400 pairs; C.k=0 matches b with k=0
        // ⇒ 20 results.
        assert_eq!(run.results.len(), 20);
    }
}
