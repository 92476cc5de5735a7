//! Select-project-join query specification.

use crate::{Catalog, JoinGraph, SourceId};
use stems_types::{
    CmpOp, ColRef, Operand, PredId, PredSet, Predicate, Result, StemsError, TableIdx, TableSet,
    MAX_PREDS, MAX_TABLES,
};

/// One FROM-clause occurrence of a source table. Self-joins produce several
/// instances of the same source; the engine still creates just one SteM per
/// *source* (paper §2.2: the SteM "is shared ... among multiple instances
/// of the source in the FROM clause").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableInstance {
    pub source: SourceId,
    pub alias: String,
}

/// A select-project-join query.
///
/// `tables[i]` is the instance with `TableIdx(i)`; `predicates[j]` has
/// `PredId(j)`. Projection is applied above the eddy at the output sink
/// (the paper assumes projection/aggregation happen outside the dataflow,
/// §2.1 footnote 1).
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    pub tables: Vec<TableInstance>,
    pub predicates: Vec<Predicate>,
    /// `None` ⇒ `SELECT *` (all columns of all instances in order).
    pub projection: Option<Vec<ColRef>>,
}

impl QuerySpec {
    /// Build and validate a query against a catalog.
    pub fn new(
        catalog: &Catalog,
        tables: Vec<TableInstance>,
        predicates: Vec<Predicate>,
        projection: Option<Vec<ColRef>>,
    ) -> Result<QuerySpec> {
        let q = QuerySpec {
            tables,
            predicates,
            projection,
        };
        q.validate(catalog)?;
        Ok(q)
    }

    /// Number of table instances.
    pub fn n_tables(&self) -> usize {
        self.tables.len()
    }

    /// The span of a complete result tuple.
    pub fn full_span(&self) -> TableSet {
        TableSet::all(self.n_tables())
    }

    /// The set of all predicate ids.
    pub fn all_preds(&self) -> PredSet {
        PredSet::all(self.predicates.len())
    }

    /// Predicate by id.
    pub fn predicate(&self, id: PredId) -> &Predicate {
        &self.predicates[id.as_usize()]
    }

    /// Table instance by index.
    pub fn instance(&self, t: TableIdx) -> &TableInstance {
        &self.tables[t.as_usize()]
    }

    /// All instances of `source` (≥2 for self-joins).
    pub fn instances_of(&self, source: SourceId) -> Vec<TableIdx> {
        self.tables
            .iter()
            .enumerate()
            .filter(|(_, ti)| ti.source == source)
            .map(|(i, _)| TableIdx(i as u8))
            .collect()
    }

    /// Selection predicates (≤ 1 table), which become Selection Modules.
    pub fn selections(&self) -> impl Iterator<Item = &Predicate> {
        self.predicates.iter().filter(|p| p.is_selection())
    }

    /// Join predicates (2 tables), enforced at SteMs and index AMs.
    pub(crate) fn joins(&self) -> impl Iterator<Item = &Predicate> {
        self.predicates.iter().filter(|p| p.is_join())
    }

    /// The join graph over table instances.
    pub fn join_graph(&self) -> JoinGraph {
        JoinGraph::of(self)
    }

    /// Join predicates between a tuple spanning `span` and table `t`
    /// (these are what a probe into `t`'s SteM can evaluate).
    pub fn preds_linking(&self, span: TableSet, t: TableIdx) -> Vec<PredId> {
        self.predicates
            .iter()
            .filter(|p| {
                p.is_join()
                    && p.tables().contains(t)
                    && p.tables().minus(TableSet::single(t)).is_subset_of(span)
            })
            .map(|p| p.id)
            .collect()
    }

    /// The columns of instance `t` involved in equi-join predicates — the
    /// columns a SteM indexes (paper §2.1.4).
    pub fn join_cols_of(&self, t: TableIdx) -> Vec<usize> {
        let mut cols: Vec<usize> = self
            .predicates
            .iter()
            .filter_map(|p| p.equi_join_cols())
            .flat_map(|(l, r)| [l, r])
            .filter(|c| c.table == t)
            .map(|c| c.col)
            .collect();
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    fn validate(&self, catalog: &Catalog) -> Result<()> {
        if self.tables.is_empty() {
            return Err(StemsError::Schema("query has no tables".into()));
        }
        if self.tables.len() > MAX_TABLES {
            return Err(StemsError::Schema(format!(
                "too many table instances ({} > {MAX_TABLES})",
                self.tables.len()
            )));
        }
        if self.predicates.len() > MAX_PREDS {
            return Err(StemsError::Schema(format!(
                "too many predicates ({} > {MAX_PREDS})",
                self.predicates.len()
            )));
        }
        for (i, ti) in self.tables.iter().enumerate() {
            if catalog.table(ti.source).is_none() {
                return Err(StemsError::UnknownName(format!(
                    "source #{} (instance {i})",
                    ti.source.0
                )));
            }
            for other in &self.tables[..i] {
                if other.alias.eq_ignore_ascii_case(&ti.alias) {
                    return Err(StemsError::Schema(format!(
                        "duplicate alias `{}`",
                        ti.alias
                    )));
                }
            }
        }
        let check_col = |c: &ColRef| -> Result<()> {
            let ti = self.tables.get(c.table.as_usize()).ok_or_else(|| {
                StemsError::Schema(format!("predicate references unknown instance {}", c.table))
            })?;
            let schema = &catalog.table_expect(ti.source).schema;
            if c.col >= schema.arity() {
                return Err(StemsError::Schema(format!(
                    "column {} out of range for `{}` (arity {})",
                    c.col,
                    ti.alias,
                    schema.arity()
                )));
            }
            Ok(())
        };
        for (j, p) in self.predicates.iter().enumerate() {
            if p.id != PredId(j as u16) {
                return Err(StemsError::Schema(format!(
                    "predicate at position {j} has id {}",
                    p.id.0
                )));
            }
            for side in [&p.left, &p.right] {
                if let Operand::Col(c) = side {
                    check_col(c)?;
                }
            }
            if p.tables().is_empty() {
                return Err(StemsError::Schema(format!(
                    "predicate {} references no table",
                    p.id.0
                )));
            }
            // UDF shape: a UDF-style predicate is a single-column
            // selection (the verdict function reads exactly one value);
            // the comparison fields are constructor-made placeholders.
            if let stems_types::ExprKind::Udf(spec) = &p.kind {
                if p.udf_input_col().is_none() || !p.is_selection() {
                    return Err(StemsError::Schema(format!(
                        "predicate {}: a UDF predicate takes a single column input",
                        p.id.0
                    )));
                }
                let stems_types::UdfKind::HashSieve { pass_per_mille } = spec.udf;
                if pass_per_mille > 1000 {
                    return Err(StemsError::Schema(format!(
                        "predicate {}: sieve selectivity {pass_per_mille} exceeds 1000 per mille",
                        p.id.0
                    )));
                }
                continue;
            }
            // IN-list shape: a constant list is only valid as the right
            // side of `col IN (...)`; IN itself also accepts a single
            // scalar constant (degenerate equality).
            if matches!(p.left, Operand::List(_)) {
                return Err(StemsError::Schema(format!(
                    "predicate {}: constant list must be the right operand of IN",
                    p.id.0
                )));
            }
            match (p.op, &p.left, &p.right) {
                // IN takes a column on the left and a list (or a single
                // scalar, the degenerate equality) on the right.
                (CmpOp::In, Operand::Col(_), Operand::List(_) | Operand::Const(_)) => {}
                (CmpOp::In, _, _) => {
                    return Err(StemsError::Schema(format!(
                        "predicate {}: IN requires a column on the left and a constant list on the right",
                        p.id.0
                    )));
                }
                (op, _, Operand::List(_)) => {
                    return Err(StemsError::Schema(format!(
                        "predicate {}: operator {op} cannot take a constant list",
                        p.id.0
                    )));
                }
                _ => {}
            }
        }
        if let Some(proj) = &self.projection {
            for c in proj {
                check_col(c)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ScanSpec, TableDef};
    use stems_types::{CmpOp, ColumnType, Schema, Value};

    fn setup() -> (Catalog, SourceId, SourceId) {
        let mut c = Catalog::new();
        let r = c
            .add_table(TableDef::new(
                "R",
                Schema::of(&[("key", ColumnType::Int), ("a", ColumnType::Int)]),
            ))
            .unwrap();
        let s = c
            .add_table(TableDef::new(
                "S",
                Schema::of(&[("x", ColumnType::Int), ("y", ColumnType::Int)]),
            ))
            .unwrap();
        c.add_scan(r, ScanSpec::default()).unwrap();
        c.add_scan(s, ScanSpec::default()).unwrap();
        (c, r, s)
    }

    fn rs_query(c: &Catalog, r: SourceId, s: SourceId) -> QuerySpec {
        QuerySpec::new(
            c,
            vec![
                TableInstance {
                    source: r,
                    alias: "R".into(),
                },
                TableInstance {
                    source: s,
                    alias: "S".into(),
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
        .unwrap()
    }

    #[test]
    fn in_list_shapes_validated() {
        let (c, r, _s) = setup();
        let inst = |src| {
            vec![TableInstance {
                source: src,
                alias: "R".into(),
            }]
        };
        let col = ColRef::new(TableIdx(0), 1);
        // Well-formed: col IN (list), col IN const.
        assert!(QuerySpec::new(
            &c,
            inst(r),
            vec![Predicate::in_list(PredId(0), col, vec![Value::Int(1)])],
            None
        )
        .is_ok());
        assert!(QuerySpec::new(
            &c,
            inst(r),
            vec![Predicate::selection(
                PredId(0),
                col,
                CmpOp::In,
                Value::Int(1)
            )],
            None
        )
        .is_ok());
        // Malformed: list on the left, non-column left, column right,
        // list with a non-IN operator.
        assert!(QuerySpec::new(
            &c,
            inst(r),
            vec![Predicate::new(
                PredId(0),
                Operand::List(vec![Value::Int(1)]),
                CmpOp::In,
                Operand::Col(col),
            )],
            None
        )
        .is_err());
        assert!(QuerySpec::new(
            &c,
            inst(r),
            vec![Predicate::new(
                PredId(0),
                Operand::Const(Value::Int(5)),
                CmpOp::In,
                Operand::Col(col),
            )],
            None
        )
        .is_err());
        assert!(QuerySpec::new(
            &c,
            inst(r),
            vec![Predicate::new(
                PredId(0),
                Operand::Col(col),
                CmpOp::In,
                Operand::Col(ColRef::new(TableIdx(0), 0)),
            )],
            None
        )
        .is_err());
        assert!(QuerySpec::new(
            &c,
            inst(r),
            vec![Predicate::new(
                PredId(0),
                Operand::Col(col),
                CmpOp::Lt,
                Operand::List(vec![Value::Int(1)]),
            )],
            None
        )
        .is_err());
    }

    #[test]
    fn udf_shapes_validated() {
        use stems_types::UdfSpec;
        let (c, r, _s) = setup();
        let inst = |src| {
            vec![TableInstance {
                source: src,
                alias: "R".into(),
            }]
        };
        let col = ColRef::new(TableIdx(0), 1);
        // Well-formed single-column UDF selection.
        let q = QuerySpec::new(
            &c,
            inst(r),
            vec![Predicate::udf(
                PredId(0),
                col,
                UdfSpec::hash_sieve(250, 500),
            )],
            None,
        )
        .unwrap();
        assert_eq!(q.selections().count(), 1);
        // Selectivity out of range.
        assert!(QuerySpec::new(
            &c,
            inst(r),
            vec![Predicate::udf(
                PredId(0),
                col,
                UdfSpec::hash_sieve(1001, 500)
            )],
            None
        )
        .is_err());
        // Column out of range still caught for UDF predicates.
        assert!(QuerySpec::new(
            &c,
            inst(r),
            vec![Predicate::udf(
                PredId(0),
                ColRef::new(TableIdx(0), 9),
                UdfSpec::hash_sieve(250, 500)
            )],
            None
        )
        .is_err());
        // A hand-built UDF predicate over a non-column input is rejected.
        let mut bad = Predicate::selection(PredId(0), col, CmpOp::Eq, Value::Int(1));
        bad.left = Operand::Const(Value::Int(1));
        bad.kind = stems_types::ExprKind::Udf(UdfSpec::hash_sieve(250, 500));
        assert!(QuerySpec::new(&c, inst(r), vec![bad], None).is_err());
    }

    #[test]
    fn basic_accessors() {
        let (c, r, s) = setup();
        let q = rs_query(&c, r, s);
        assert_eq!(q.n_tables(), 2);
        assert_eq!(q.full_span(), TableSet::all(2));
        assert_eq!(q.all_preds().len(), 1);
        assert_eq!(q.joins().count(), 1);
        assert_eq!(q.selections().count(), 0);
    }

    #[test]
    fn join_cols_and_linking() {
        let (c, r, s) = setup();
        let q = rs_query(&c, r, s);
        assert_eq!(q.join_cols_of(TableIdx(0)), vec![1]);
        assert_eq!(q.join_cols_of(TableIdx(1)), vec![0]);
        let linking = q.preds_linking(TableSet::single(TableIdx(0)), TableIdx(1));
        assert_eq!(linking, vec![PredId(0)]);
        // Nothing links an empty span to S.
        assert!(q.preds_linking(TableSet::EMPTY, TableIdx(1)).is_empty());
    }

    #[test]
    fn self_join_instances_share_source() {
        let (c, r, _) = setup();
        let q = QuerySpec::new(
            &c,
            vec![
                TableInstance {
                    source: r,
                    alias: "r1".into(),
                },
                TableInstance {
                    source: r,
                    alias: "r2".into(),
                },
            ],
            vec![Predicate::join(
                PredId(0),
                ColRef::new(TableIdx(0), 1),
                CmpOp::Eq,
                ColRef::new(TableIdx(1), 1),
            )],
            None,
        )
        .unwrap();
        assert_eq!(q.instances_of(r), vec![TableIdx(0), TableIdx(1)]);
    }

    #[test]
    fn validation_rejects_bad_queries() {
        let (c, r, s) = setup();
        // duplicate alias
        assert!(QuerySpec::new(
            &c,
            vec![
                TableInstance {
                    source: r,
                    alias: "t".into()
                },
                TableInstance {
                    source: s,
                    alias: "T".into()
                },
            ],
            vec![],
            None,
        )
        .is_err());
        // column out of range
        assert!(QuerySpec::new(
            &c,
            vec![TableInstance {
                source: r,
                alias: "r".into()
            }],
            vec![Predicate::selection(
                PredId(0),
                ColRef::new(TableIdx(0), 9),
                CmpOp::Eq,
                Value::Int(1),
            )],
            None,
        )
        .is_err());
        // predicate id mismatch
        assert!(QuerySpec::new(
            &c,
            vec![TableInstance {
                source: r,
                alias: "r".into()
            }],
            vec![Predicate::selection(
                PredId(3),
                ColRef::new(TableIdx(0), 0),
                CmpOp::Eq,
                Value::Int(1),
            )],
            None,
        )
        .is_err());
        // unknown instance in predicate
        assert!(QuerySpec::new(
            &c,
            vec![TableInstance {
                source: r,
                alias: "r".into()
            }],
            vec![Predicate::selection(
                PredId(0),
                ColRef::new(TableIdx(4), 0),
                CmpOp::Eq,
                Value::Int(1),
            )],
            None,
        )
        .is_err());
        // empty FROM
        assert!(QuerySpec::new(&c, vec![], vec![], None).is_err());
    }
}
