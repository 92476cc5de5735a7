//! Oracle executor: exact expected results by brute force.
//!
//! The paper's Theorems 1–2 say constraint-respecting routing produces the
//! query result exactly — no duplicates, no misses. Our test suites verify
//! the engine against this module: a naive nested-loop join over the
//! materialized catalog data. It is deliberately the dumbest correct
//! implementation we can write.

use crate::{Catalog, QuerySpec};
use std::cmp::Ordering;
use stems_types::{TableIdx, Tuple, Value};

/// Compute the full result set of `q` by nested loops.
///
/// Every candidate is pruned as it is formed, with every predicate
/// evaluable on the span it has reached: the loops enumerate the cross
/// product, they never hold it. Filtering a finished step instead would
/// keep |R|·|S| tuples alive before the first join predicate is looked
/// at, and make this oracle the peak resident size of any process that
/// calls it — the benchmark's set-up does.
pub fn execute(catalog: &Catalog, q: &QuerySpec) -> Vec<Tuple> {
    let keep = |tpl: &Tuple| q.predicates.iter().all(|p| p.eval(tpl).unwrap_or(true));
    let mut acc: Vec<Tuple> = Vec::new();
    for (i, ti) in q.tables.iter().enumerate() {
        let t = TableIdx(i as u8);
        let rows = catalog.table_expect(ti.source).rows();
        let singles = rows.iter().map(|r| Tuple::singleton(t, r.clone()));
        let mut next = Vec::new();
        if i == 0 {
            next.extend(singles.filter(keep));
        } else {
            let singles: Vec<Tuple> = singles.collect();
            for partial in &acc {
                for single in &singles {
                    let candidate = partial.concat(single);
                    if keep(&candidate) {
                        next.push(candidate);
                    }
                }
            }
        }
        acc = next;
    }
    acc
}

/// The columns a result row holds, in order: the query's SELECT list, or
/// (`None`) every column of every instance, in instance order.
fn projection(catalog: &Catalog, q: &QuerySpec) -> Vec<(TableIdx, usize)> {
    match &q.projection {
        Some(cols) => cols.iter().map(|c| (c.table, c.col)).collect(),
        None => q
            .tables
            .iter()
            .enumerate()
            .flat_map(|(i, ti)| {
                let arity = catalog.table_expect(ti.source).schema.arity();
                (0..arity).map(move |col| (TableIdx(i as u8), col))
            })
            .collect(),
    }
}

/// `tuple`'s values at `cols`, in a row sized exactly (`NULL` where the
/// tuple lacks one).
fn project_cols(cols: &[(TableIdx, usize)], tuple: &Tuple) -> Vec<Value> {
    cols.iter()
        .map(|&(t, col)| tuple.value(t, col).cloned().unwrap_or(Value::Null))
        .collect()
}

/// Canonical, order-insensitive form of a result multiset: each tuple
/// flattened to its projected values, the whole list sorted. Two executors
/// agree iff their canonical forms are equal. The projection is resolved
/// once per call, not per tuple.
///
/// Only identical rows tie under the sort's order, so an unstable sort in
/// place gives the one answer a stable sort would, whatever order the
/// tuples came in.
pub fn canonical(catalog: &Catalog, q: &QuerySpec, tuples: &[Tuple]) -> Vec<Vec<Value>> {
    let cols = projection(catalog, q);
    let mut rows: Vec<Vec<Value>> = tuples.iter().map(|t| project_cols(&cols, t)).collect();
    rows.sort_unstable_by(|a, b| {
        for (x, y) in a.iter().zip(b.iter()) {
            let ord = canonical_cmp(x, y);
            if ord != Ordering::Equal {
                return ord;
            }
        }
        a.len().cmp(&b.len())
    });
    rows
}

/// [`Value::total_cmp`], refined so that only identical values tie: it
/// ranks `Int(5)` and `Float(5.0)` equal, and a `Float` column admits
/// both. The `Int` sorts first.
fn canonical_cmp(x: &Value, y: &Value) -> Ordering {
    let is_int = |v: &Value| matches!(v, Value::Int(_));
    x.total_cmp(y).then_with(|| is_int(y).cmp(&is_int(x)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ScanSpec, TableDef, TableInstance};
    use stems_types::{CmpOp, ColRef, ColumnType, PredId, Predicate, Schema};

    fn setup() -> (Catalog, QuerySpec) {
        let mut c = Catalog::new();
        let r = c
            .add_table(
                TableDef::new(
                    "R",
                    Schema::of(&[("key", ColumnType::Int), ("a", ColumnType::Int)]),
                )
                .with_rows(vec![
                    vec![1.into(), 10.into()],
                    vec![2.into(), 20.into()],
                    vec![3.into(), 10.into()],
                ]),
            )
            .unwrap();
        let s = c
            .add_table(
                TableDef::new("S", Schema::of(&[("x", ColumnType::Int)]))
                    .with_rows(vec![vec![10.into()], vec![30.into()]]),
            )
            .unwrap();
        c.add_scan(r, ScanSpec::default()).unwrap();
        c.add_scan(s, ScanSpec::default()).unwrap();
        let q = QuerySpec::new(
            &c,
            vec![
                TableInstance {
                    source: r,
                    alias: "r".into(),
                },
                TableInstance {
                    source: s,
                    alias: "s".into(),
                },
            ],
            vec![Predicate::join(
                PredId(0),
                ColRef::new(TableIdx(0), 1),
                CmpOp::Eq,
                ColRef::new(TableIdx(1), 0),
            )],
            None,
        )
        .unwrap();
        (c, q)
    }

    #[test]
    fn equijoin_results() {
        let (c, q) = setup();
        let res = execute(&c, &q);
        // R rows with a=10 are keys 1 and 3; each joins S.x=10.
        assert_eq!(res.len(), 2);
        let canon = canonical(&c, &q, &res);
        assert_eq!(
            canon,
            vec![
                vec![Value::Int(1), Value::Int(10), Value::Int(10)],
                vec![Value::Int(3), Value::Int(10), Value::Int(10)],
            ]
        );
    }

    #[test]
    fn selection_prunes() {
        let (c, mut q) = setup();
        q.predicates.push(Predicate::selection(
            PredId(1),
            ColRef::new(TableIdx(0), 0),
            CmpOp::Gt,
            Value::Int(1),
        ));
        let res = execute(&c, &q);
        assert_eq!(res.len(), 1); // only key=3 survives
    }

    #[test]
    fn projection_subset() {
        let (c, mut q) = setup();
        q.projection = Some(vec![ColRef::new(TableIdx(0), 0)]);
        let res = execute(&c, &q);
        let canon = canonical(&c, &q, &res);
        assert_eq!(canon, vec![vec![Value::Int(1)], vec![Value::Int(3)]]);
    }

    #[test]
    fn cartesian_product_when_no_preds() {
        let (c, mut q) = setup();
        q.predicates.clear();
        let res = execute(&c, &q);
        assert_eq!(res.len(), 3 * 2);
    }

    #[test]
    fn canonical_is_order_insensitive() {
        let (c, q) = setup();
        let mut res = execute(&c, &q);
        let canon1 = canonical(&c, &q, &res);
        res.reverse();
        let canon2 = canonical(&c, &q, &res);
        assert_eq!(canon1, canon2);
    }

    /// Values `total_cmp` ties but that differ — an `Int` and an equal
    /// `Float` in a `Float` column — still sort one way only, so the form
    /// does not depend on the order the executor produced them in.
    #[test]
    fn canonical_cmp_ties_only_identical_values() {
        let (int, float) = (Value::Int(5), Value::Float(5.0));
        assert_eq!(int.total_cmp(&float), Ordering::Equal);
        assert_eq!(canonical_cmp(&int, &float), Ordering::Less);
        assert_eq!(canonical_cmp(&float, &int), Ordering::Greater);
        for v in [int, float, Value::Null, Value::str("a"), Value::Eot] {
            assert_eq!(canonical_cmp(&v, &v.clone()), Ordering::Equal);
        }
        assert_eq!(
            canonical_cmp(&Value::Int(4), &Value::Float(5.0)),
            Ordering::Less
        );
    }

    #[test]
    fn cyclic_three_way_join() {
        // Triangle query where all three predicates must hold.
        let mut c = Catalog::new();
        let schema = Schema::of(&[("k", ColumnType::Int)]);
        let ids: Vec<_> = ["A", "B", "C"]
            .iter()
            .map(|n| {
                let id = c
                    .add_table(
                        TableDef::new(n, schema.clone())
                            .with_rows(vec![vec![1.into()], vec![2.into()]]),
                    )
                    .unwrap();
                c.add_scan(id, ScanSpec::default()).unwrap();
                id
            })
            .collect();
        let q = QuerySpec::new(
            &c,
            ids.iter()
                .zip(["a", "b", "cc"])
                .map(|(s, a)| TableInstance {
                    source: *s,
                    alias: a.into(),
                })
                .collect(),
            vec![
                Predicate::join(
                    PredId(0),
                    ColRef::new(TableIdx(0), 0),
                    CmpOp::Eq,
                    ColRef::new(TableIdx(1), 0),
                ),
                Predicate::join(
                    PredId(1),
                    ColRef::new(TableIdx(1), 0),
                    CmpOp::Eq,
                    ColRef::new(TableIdx(2), 0),
                ),
                Predicate::join(
                    PredId(2),
                    ColRef::new(TableIdx(0), 0),
                    CmpOp::Eq,
                    ColRef::new(TableIdx(2), 0),
                ),
            ],
            None,
        )
        .unwrap();
        let res = execute(&c, &q);
        // k must agree across all three: (1,1,1) and (2,2,2).
        assert_eq!(res.len(), 2);
    }

    /// The formulation `execute` replaced: hold the whole cross product
    /// of each step, then filter it.
    fn materialize_then_filter(catalog: &Catalog, q: &QuerySpec) -> Vec<Tuple> {
        let mut acc: Vec<Tuple> = vec![];
        for (i, ti) in q.tables.iter().enumerate() {
            let rows = catalog.table_expect(ti.source).rows().iter();
            let singles = rows.map(|r| Tuple::singleton(TableIdx(i as u8), r.clone()));
            let mut next: Vec<Tuple> = singles.collect();
            if i > 0 {
                let singles = std::mem::take(&mut next);
                for partial in &acc {
                    next.extend(singles.iter().map(|s| partial.concat(s)));
                }
            }
            next.retain(|tpl| q.predicates.iter().all(|p| p.eval(tpl).unwrap_or(true)));
            acc = next;
        }
        acc
    }

    #[test]
    fn pruning_while_enumerating_keeps_rows_and_their_order() {
        let (c, mut q) = setup();
        assert_eq!(execute(&c, &q), materialize_then_filter(&c, &q));
        q.predicates.push(Predicate::selection(
            PredId(1),
            ColRef::new(TableIdx(0), 0),
            CmpOp::Gt,
            Value::Int(1),
        ));
        assert_eq!(execute(&c, &q), materialize_then_filter(&c, &q));
        q.predicates.clear();
        let product = execute(&c, &q);
        assert_eq!(product.len(), 6);
        assert_eq!(product, materialize_then_filter(&c, &q));
    }
}
