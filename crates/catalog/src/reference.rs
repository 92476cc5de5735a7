//! Oracle executor: exact expected results by nested loops.
//!
//! The paper's Theorems 1–2 say constraint-respecting routing produces the
//! query result exactly — no duplicates, no misses. Our test suites verify
//! the engine against this module: a nested-loop join over the
//! materialized catalog data. Its contract is what makes it a judge:
//!
//! * it shares no normal form with the engine: the SteM and index AM key
//!   normalization and hashing are not called here, so a key the engine's
//!   indexes lose is not lost here too. Its one shortcut, an equality
//!   bucket, is a transcription of [`Value::sql_eq`];
//! * every predicate is tested, through [`Predicate::eval`], on every
//!   returned tuple. The shortcuts only skip candidates some predicate
//!   rejects.

use crate::{Catalog, QuerySpec};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use stems_types::{
    ColRef, ColumnSource, ExprKind, Predicate, Row, TableIdx, TableSet, Tuple, Value, UNBUILT_TS,
};

/// Compute the full result set of `q` by nested loops: for each instance
/// in turn, every partial result so far (in order) joined with every row of
/// the instance (in catalog order).
///
/// Nothing is built before it is tested. Each instance's rows are filtered
/// once by the predicates on that instance alone; a (partial, row) pair is
/// tested, borrowed, by the predicates that link the instance to earlier
/// ones, and only a survivor is concatenated. When an `=` between two
/// columns links the instance to an earlier one, a partial enumerates only
/// the rows whose value there can equal its own.
pub fn execute(catalog: &Catalog, q: &QuerySpec) -> Vec<Tuple> {
    let mut acc = vec![Tuple::empty()];
    for (i, ti) in q.tables.iter().enumerate() {
        let step = Step::new(q, i, catalog.table_expect(ti.source).rows());
        let mut next = Vec::new();
        for partial in &acc {
            for &row in step.candidates(partial) {
                if step.admits(partial, row) {
                    next.push(partial.concat_row(step.table, Arc::clone(row), UNBUILT_TS));
                }
            }
        }
        acc = next;
    }
    acc
}

/// A partial result and one row of the next instance, read as their
/// concatenation would be: what a predicate tests before the pair pays for
/// a composite. Over [`Tuple::empty`], the row alone.
struct Candidate<'a> {
    partial: &'a Tuple,
    table: TableIdx,
    row: &'a Row,
}

impl ColumnSource for Candidate<'_> {
    fn value(&self, table: TableIdx, col: usize) -> Option<&Value> {
        if table == self.table {
            self.row.get(col)
        } else {
            self.partial.value(table, col)
        }
    }
}

/// A value's class under [`Value::sql_eq`], which two values share if they
/// can be equal: numbers by their `f64` image (as `sql_eq` compares an
/// `Int` with a `Float`), −0.0 as 0.0, strings by content, bools by value.
/// Two distinct `Int`s past 2^53 can share a class; the predicate itself
/// tells them apart.
#[derive(Debug, PartialEq, Eq, Hash)]
enum Bucket {
    Number(u64),
    Str(Arc<str>),
    Bool(bool),
}

/// The [`Bucket`] of `v`; `None` for NULL, EOT and NaN, which equal
/// nothing.
fn bucket(v: &Value) -> Option<Bucket> {
    // `==` on `f64`: NaN equals nothing, and −0.0 equals 0.0.
    let number = |f: f64| match () {
        _ if f.is_nan() => None,
        _ if f == 0.0 => Some(Bucket::Number(0)),
        _ => Some(Bucket::Number(f.to_bits())),
    };
    match v {
        Value::Int(i) => number(*i as f64),
        Value::Float(f) => number(*f),
        Value::Str(s) => Some(Bucket::Str(Arc::clone(s))),
        Value::Bool(b) => Some(Bucket::Bool(*b)),
        Value::Null | Value::Eot => None,
    }
}

/// Rows grouped by the [`Bucket`] of one column, each group in catalog
/// order.
type Buckets<'a> = HashMap<Bucket, Vec<&'a Arc<Row>>>;

/// Joining one more instance: what [`execute`] needs of it, derived once.
struct Step<'a> {
    table: TableIdx,
    /// The instance's rows that pass every predicate on it alone, in
    /// catalog order.
    rows: Vec<&'a Arc<Row>>,
    /// The predicates that become evaluable with this instance and read an
    /// earlier one.
    links: Vec<&'a Predicate>,
    /// For the first `=` between columns in `links`: its earlier column,
    /// and `rows` grouped by the [`Bucket`] of its column here, each group
    /// in catalog order.
    buckets: Option<(ColRef, Buckets<'a>)>,
}

impl<'a> Step<'a> {
    fn new(q: &'a QuerySpec, i: usize, rows: &'a [Arc<Row>]) -> Step<'a> {
        let table = TableIdx(i as u8);
        let (before, after) = (TableSet::all(i), TableSet::all(i + 1));
        // A predicate on no instance becomes evaluable with the first.
        let new = q
            .predicates
            .iter()
            .filter(|p| p.evaluable_on(after) && (i == 0 || !p.evaluable_on(before)));
        let (local, links): (Vec<_>, Vec<_>) =
            new.partition(|p| p.evaluable_on(TableSet::single(table)));
        let empty = Tuple::empty();
        let rows: Vec<_> = rows
            .iter()
            .filter(|row| {
                let alone = Candidate {
                    partial: &empty,
                    table,
                    row,
                };
                local.iter().all(|p| p.eval(&alone).unwrap_or(true))
            })
            .collect();
        let buckets = links
            .iter()
            .filter(|p| p.kind == ExprKind::Cmp)
            .find_map(|p| p.equi_join_cols())
            .map(|(l, r)| if l.table == table { (r, l) } else { (l, r) })
            // A row without the column passes the link: it is in no bucket.
            .filter(|(_, own)| rows.iter().all(|row| row.get(own.col).is_some()))
            .map(|(earlier, own)| {
                let mut buckets = Buckets::new();
                for &row in &rows {
                    if let Some(b) = row.get(own.col).and_then(bucket) {
                        buckets.entry(b).or_default().push(row);
                    }
                }
                (earlier, buckets)
            });
        Step {
            table,
            rows,
            links,
            buckets,
        }
    }

    /// The rows `partial` can join: all of [`Step::rows`], or only those
    /// in the bucket of its value in the `=` link's earlier column.
    fn candidates(&self, partial: &Tuple) -> &[&'a Arc<Row>] {
        let Some((earlier, buckets)) = &self.buckets else {
            return &self.rows;
        };
        match partial.value(earlier.table, earlier.col) {
            // The link is not evaluable, so it passes every row.
            None => &self.rows,
            Some(v) => bucket(v)
                .and_then(|b| buckets.get(&b))
                .map_or(&[], Vec::as_slice),
        }
    }

    /// Does `partial` joined with `row` pass every link?
    fn admits(&self, partial: &Tuple, row: &Row) -> bool {
        let table = self.table;
        let pair = Candidate {
            partial,
            table,
            row,
        };
        self.links.iter().all(|p| p.eval(&pair).unwrap_or(true))
    }
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

/// Tuples [`canonical`] projects per chunk: enough independent loads in
/// flight at each level, few enough that what one level brought into
/// cache is still there for the next.
const CHUNK: usize = 32;

/// Canonical, order-insensitive form of a result multiset: each tuple
/// flattened to its projected values, the whole list sorted. Two executors
/// agree iff their canonical forms are equal. The projection is resolved
/// once per call, not per tuple.
///
/// A projected value sits three dependent loads deep — the tuple's
/// component array, the component's row header, the value cell — so the
/// tuples are projected in chunks, one level at a time across a chunk:
/// the loads of one level depend only on the level before, so the misses
/// of different tuples overlap instead of following one another. The
/// level passes fold what they read into a [`black_box`], so the compiler
/// keeps them.
///
/// Only identical rows tie under the sort's order, so an unstable sort in
/// place gives the one answer a stable sort would, whatever order the
/// tuples came in.
pub fn canonical(catalog: &Catalog, q: &QuerySpec, tuples: &[Tuple]) -> Vec<Vec<Value>> {
    let cols = projection(catalog, q);
    let mut rows: Vec<Vec<Value>> = Vec::with_capacity(tuples.len());
    for chunk in tuples.chunks(CHUNK) {
        let comps = || chunk.iter().flat_map(Tuple::components);
        black_box(comps().map(|c| usize::from(c.table.0)).sum::<usize>());
        black_box(comps().map(|c| c.row.values().len()).sum::<usize>());
        let cells = chunk.iter().flat_map(|t| {
            let held = cols.iter().filter_map(|&(table, col)| t.value(table, col));
            held.map(Value::approx_bytes)
        });
        black_box(cells.sum::<usize>());
        rows.extend(chunk.iter().map(|t| project_cols(&cols, t)));
    }
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

    /// The model `execute` must equal, order included: the plain nested
    /// loop, which concatenates every candidate and then tests every
    /// predicate on it.
    fn nested_loop(catalog: &Catalog, q: &QuerySpec) -> Vec<Tuple> {
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

    /// A splitmix64 stream: the generator of the property test below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<T: Clone>(&mut self, pool: &[T]) -> T {
            pool[self.below(pool.len())].clone()
        }
    }

    /// The numbers a generated `Float` column holds: `Int` and `Float`
    /// spellings of one value, ±0.0, NaN, and the neighbours of 2^53 and
    /// 1e16, where an `Int` and its `f64` image part ways.
    fn numbers() -> Vec<Value> {
        let p53 = 1i64 << 53;
        let mut pool = vec![Value::Null, Value::Float(0.0), Value::Float(-0.0)];
        pool.extend([
            Value::Float(f64::NAN),
            Value::Float(0.5),
            Value::Float(1e16),
        ]);
        for i in [0, 1, -1, 10_000_000_000_000_000] {
            pool.extend([Value::Int(i), Value::Float(i as f64)]);
        }
        for i in [p53 - 1, p53, p53 + 1, -p53 - 1] {
            pool.extend([Value::Int(i), Value::Float(i as f64)]);
        }
        pool
    }

    /// The column types of every generated table, and each one's pool.
    fn columns() -> [(ColumnType, Vec<Value>); 3] {
        let strs = vec![
            Value::Null,
            Value::str(""),
            Value::str("a"),
            Value::str("b"),
        ];
        let bools = vec![Value::Null, Value::Bool(false), Value::Bool(true)];
        [
            (ColumnType::Float, numbers()),
            (ColumnType::Str, strs),
            (ColumnType::Bool, bools),
        ]
    }

    /// A random catalog of one or two sources and a query of 2–4
    /// instances over them (so self-joins are common), with 0–4
    /// predicates: comparisons between columns, against constants, `IN`
    /// lists and `SIEVE` UDFs.
    fn generate(rng: &mut Rng) -> (Catalog, QuerySpec) {
        use stems_types::{Operand, UdfSpec};
        let cols = columns();
        let schema = Schema::of(&[
            ("n", ColumnType::Float),
            ("s", ColumnType::Str),
            ("b", ColumnType::Bool),
        ]);
        let mut c = Catalog::new();
        let sources: Vec<_> = (0..1 + rng.below(2))
            .map(|k| {
                let rows = (0..rng.below(7))
                    .map(|_| cols.iter().map(|(_, pool)| rng.pick(pool)).collect())
                    .collect();
                let def = TableDef::new(&format!("T{k}"), schema.clone()).with_rows(rows);
                c.add_table(def).unwrap()
            })
            .collect();
        let n = 2 + rng.below(3);
        let tables = (0..n)
            .map(|i| TableInstance {
                source: rng.pick(&sources),
                alias: format!("t{i}"),
            })
            .collect();
        let ops = [CmpOp::Eq, CmpOp::Eq, CmpOp::Ne, CmpOp::Lt];
        let mut preds = Vec::new();
        for id in 0..rng.below(5) {
            let id = PredId(id as u16);
            let col = |rng: &mut Rng| ColRef::new(TableIdx(rng.below(n) as u8), rng.below(3));
            let left = col(rng);
            let constant = |rng: &mut Rng| rng.pick(&cols[left.col].1);
            preds.push(match rng.below(6) {
                0 | 1 => {
                    // Mostly a column of the same type: `=` between
                    // columns is what the buckets shortcut.
                    let mut right = col(rng);
                    if rng.below(4) > 0 {
                        right.col = left.col;
                    }
                    Predicate::join(id, left, rng.pick(&ops), right)
                }
                2 => Predicate::selection(id, left, rng.pick(&ops), constant(rng)),
                3 => {
                    let items = (0..rng.below(4)).map(|_| constant(rng)).collect();
                    Predicate::in_list(id, left, items)
                }
                4 => Predicate::udf(id, left, UdfSpec::hash_sieve(500, 1)),
                _ => Predicate::new(id, Operand::Col(left), CmpOp::Eq, Operand::Col(col(rng))),
            });
        }
        let q = QuerySpec::new(&c, tables, preds, None).unwrap();
        (c, q)
    }

    /// `execute` equals the plain nested loop, order included, on `cases`
    /// generated catalogs from `seed`.
    fn matches_the_nested_loop(seed: u64, cases: usize) {
        let mut rng = Rng(seed);
        let mut nonempty = 0;
        for case in 0..cases {
            let (c, q) = generate(&mut rng);
            let want = nested_loop(&c, &q);
            assert_eq!(execute(&c, &q), want, "case {case}: {:?}", q.predicates);
            nonempty += usize::from(!want.is_empty());
        }
        assert!(
            nonempty * 4 > cases,
            "{nonempty} of {cases} results non-empty"
        );
    }

    #[test]
    fn execute_equals_the_nested_loop() {
        matches_the_nested_loop(0x5eed, 400);
    }

    /// The long mode of [`execute_equals_the_nested_loop`], run by the
    /// scheduled CI leg.
    #[test]
    #[ignore = "long mode: cargo test --release -p stems-catalog --lib -- --ignored"]
    fn execute_equals_the_nested_loop_long_mode() {
        matches_the_nested_loop(0x10_5eed, 40_000);
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
