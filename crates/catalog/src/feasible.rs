//! Bind-field feasibility: can every table in the query be accessed?
//!
//! Paper §2.2, step 1: "Check that the query is valid, i.e., it can be
//! executed given the bind-field constraints on the data sources (we use
//! the algorithm from Nail!)." A source with only index access methods can
//! be read only by *probing* — so some other table must be able to supply
//! values for every bind column, transitively. This module runs the
//! standard binding-pattern fixpoint:
//!
//! * an instance is accessible if its source has a scan AM, or
//! * it has an index AM each of whose bind columns is *boundable*: covered
//!   by an equality selection against a constant, or by an equi-join
//!   predicate with an already-accessible instance.
//!
//! The query is feasible iff the fixpoint reaches every instance.

use crate::{Catalog, QuerySpec};
use stems_types::{CmpOp, Operand, Result, StemsError, TableIdx, TableSet};

/// The result of the feasibility analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Feasibility {
    /// Instances reachable at fixpoint.
    pub(crate) accessible: TableSet,
    /// One possible access order (instances in the order they became
    /// accessible — a witness, not a plan; the eddy orders dynamically).
    pub(crate) witness_order: Vec<TableIdx>,
}

/// Is bind column `col` of instance `t` boundable given `accessible`?
fn col_boundable(q: &QuerySpec, t: TableIdx, col: usize, accessible: TableSet) -> bool {
    q.predicates.iter().any(|p| {
        // An IN-list binds its column: a single member (or scalar IN) is
        // a degenerate equality, and a multi-member list fans the index
        // probe out across its members (one lookup per member, answered
        // through the multi-key flat path). The runtime binding side
        // (`TableLinks::supplies` behind `IndexAm::can_bind_linked`, and
        // the key product `IndexAm::probe_linked_into` looks up, in
        // stems-core) applies the same rules, so feasibility and
        // probe-time bindability agree. At least one member must be equality-indexable
        // (non-NULL/EOT) — the others can never match a row and supply
        // no lookup key.
        if p.op == CmpOp::In {
            return match (&p.left, &p.right) {
                (Operand::Col(c), Operand::List(items)) => {
                    c.table == t && c.col == col && items.iter().any(|v| v.equality_key().is_some())
                }
                (Operand::Col(c), Operand::Const(_)) => c.table == t && c.col == col,
                _ => false,
            };
        }
        if p.op != CmpOp::Eq {
            return false;
        }
        match p.oriented_for(t) {
            Some((c, CmpOp::Eq, other)) if c.col == col => match other {
                // Constant selections bind the column directly.
                Operand::Const(_) => true,
                // Join predicates bind it from an accessible instance.
                Operand::Col(o) => accessible.contains(o.table),
                // Unreachable for Eq predicates; lists never bind here.
                Operand::List(_) => false,
            },
            _ => false,
        }
    })
}

/// Run the fixpoint and return the accessible set.
pub(crate) fn analyze(catalog: &Catalog, q: &QuerySpec) -> Feasibility {
    let n = q.n_tables();
    let mut accessible = TableSet::EMPTY;
    let mut order = Vec::new();
    loop {
        let mut changed = false;
        for i in 0..n {
            let t = TableIdx(i as u8);
            if accessible.contains(t) {
                continue;
            }
            let source = q.instance(t).source;
            let reachable = catalog.has_scan(source)
                || catalog.ams_of(source).iter().any(|(_, am)| {
                    am.is_index()
                        && am
                            .bind_cols()
                            .iter()
                            .all(|&c| col_boundable(q, t, c, accessible))
                });
            if reachable {
                accessible.insert(t);
                order.push(t);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    Feasibility {
        accessible,
        witness_order: order,
    }
}

/// Check feasibility, returning `Err(Infeasible)` naming a stuck instance.
pub fn check(catalog: &Catalog, q: &QuerySpec) -> Result<Feasibility> {
    let f = analyze(catalog, q);
    if f.accessible.len() == q.n_tables() {
        Ok(f)
    } else {
        let stuck: Vec<String> = q
            .full_span()
            .minus(f.accessible)
            .iter()
            .map(|t| q.instance(t).alias.clone())
            .collect();
        Err(StemsError::Infeasible(format!(
            "no access path for table instance(s): {}",
            stuck.join(", ")
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IndexSpec, ScanSpec, TableDef, TableInstance};
    use stems_types::{ColRef, ColumnType, PredId, Predicate, Schema, Value};

    struct Setup {
        catalog: Catalog,
        sources: Vec<crate::SourceId>,
    }

    /// Three tables; R gets a scan; S and T get whatever `s_ams`/`t_ams` say.
    fn setup(
        s_scan: bool,
        s_index_on: Option<usize>,
        t_scan: bool,
        t_index_on: Option<usize>,
    ) -> Setup {
        let mut c = Catalog::new();
        let schema = Schema::of(&[("k", ColumnType::Int), ("v", ColumnType::Int)]);
        let r = c.add_table(TableDef::new("R", schema.clone())).unwrap();
        let s = c.add_table(TableDef::new("S", schema.clone())).unwrap();
        let t = c.add_table(TableDef::new("T", schema)).unwrap();
        c.add_scan(r, ScanSpec::default()).unwrap();
        if s_scan {
            c.add_scan(s, ScanSpec::default()).unwrap();
        }
        if let Some(col) = s_index_on {
            c.add_index(s, IndexSpec::new(vec![col], 100)).unwrap();
        }
        if t_scan {
            c.add_scan(t, ScanSpec::default()).unwrap();
        }
        if let Some(col) = t_index_on {
            c.add_index(t, IndexSpec::new(vec![col], 100)).unwrap();
        }
        Setup {
            catalog: c,
            sources: vec![r, s, t],
        }
    }

    /// Chain query R ⋈ S ⋈ T on k columns.
    fn chain(setup: &Setup, preds: Vec<Predicate>) -> QuerySpec {
        QuerySpec::new(
            &setup.catalog,
            setup
                .sources
                .iter()
                .zip(["r", "s", "t"])
                .map(|(src, a)| TableInstance {
                    source: *src,
                    alias: a.into(),
                })
                .collect(),
            preds,
            None,
        )
        .unwrap()
    }

    fn chain_preds() -> Vec<Predicate> {
        vec![
            Predicate::join(
                PredId(0),
                ColRef::new(TableIdx(0), 0),
                CmpOp::Eq,
                ColRef::new(TableIdx(1), 0),
            ),
            Predicate::join(
                PredId(1),
                ColRef::new(TableIdx(1), 1),
                CmpOp::Eq,
                ColRef::new(TableIdx(2), 0),
            ),
        ]
    }

    #[test]
    fn all_scans_trivially_feasible() {
        let s = setup(true, None, true, None);
        let q = chain(&s, chain_preds());
        let f = check(&s.catalog, &q).unwrap();
        assert_eq!(f.accessible.len(), 3);
    }

    #[test]
    fn index_chain_feasible_transitively() {
        // R scan → binds S.k via index → S binds T.k via index.
        let s = setup(false, Some(0), false, Some(0));
        let q = chain(&s, chain_preds());
        let f = check(&s.catalog, &q).unwrap();
        // R must come before S before T in the witness.
        let pos = |t: u8| {
            f.witness_order
                .iter()
                .position(|x| *x == TableIdx(t))
                .unwrap()
        };
        assert!(pos(0) < pos(1));
        assert!(pos(1) < pos(2));
    }

    #[test]
    fn unbound_index_is_infeasible() {
        // T's index binds column 1 (v) but the join reaches T on column 0.
        let s = setup(true, None, false, Some(1));
        let q = chain(&s, chain_preds());
        let err = check(&s.catalog, &q).unwrap_err();
        match err {
            StemsError::Infeasible(msg) => assert!(msg.contains('t'), "{msg}"),
            other => panic!("expected Infeasible, got {other}"),
        }
    }

    #[test]
    fn constant_selection_binds_index() {
        // S reachable only via index on k, bound by the constant predicate
        // `s.k = 7` — no join needed.
        let s = setup(false, Some(0), true, None);
        let mut preds = chain_preds();
        preds.push(Predicate::selection(
            PredId(2),
            ColRef::new(TableIdx(1), 0),
            CmpOp::Eq,
            Value::Int(7),
        ));
        let q = chain(&s, preds);
        assert!(check(&s.catalog, &q).is_ok());
    }

    /// Predicates that reach S only through its `v` column join, leaving
    /// the index bind column `k` to be bound (or not) by `in_items`.
    fn in_list_preds(in_items: Vec<Value>) -> Vec<Predicate> {
        vec![
            Predicate::join(
                PredId(0),
                ColRef::new(TableIdx(1), 1),
                CmpOp::Eq,
                ColRef::new(TableIdx(2), 0),
            ),
            Predicate::in_list(PredId(1), ColRef::new(TableIdx(1), 0), in_items),
        ]
    }

    #[test]
    fn single_member_in_list_binds_index() {
        // S reachable only via its index on k, and no join reaches k:
        // `s.k IN (7)` is a degenerate equality and binds it.
        let s = setup(false, Some(0), true, None);
        let q = chain(&s, in_list_preds(vec![Value::Int(7)]));
        assert!(check(&s.catalog, &q).is_ok());
    }

    #[test]
    fn scalar_in_binds_like_single_member_list() {
        // `s.k IN 7` (the degenerate scalar form QuerySpec admits) must
        // plan exactly like `s.k IN (7)`.
        let s = setup(false, Some(0), true, None);
        let preds = vec![
            Predicate::join(
                PredId(0),
                ColRef::new(TableIdx(1), 1),
                CmpOp::Eq,
                ColRef::new(TableIdx(2), 0),
            ),
            Predicate::selection(
                PredId(1),
                ColRef::new(TableIdx(1), 0),
                CmpOp::In,
                Value::Int(7),
            ),
        ];
        let q = chain(&s, preds);
        assert!(check(&s.catalog, &q).is_ok());
    }

    #[test]
    fn multi_member_in_list_binds_by_fanning_out() {
        // `s.k IN (7, 8)` binds S's index on k: the probe fans out to one
        // lookup per member. NULL members contribute no lookup key but do
        // not break the binding either.
        let s = setup(false, Some(0), true, None);
        let q = chain(&s, in_list_preds(vec![Value::Int(7), Value::Int(8)]));
        assert!(check(&s.catalog, &q).is_ok());
        let s = setup(false, Some(0), true, None);
        let q = chain(
            &s,
            in_list_preds(vec![Value::Int(7), Value::Null, Value::Int(8)]),
        );
        assert!(check(&s.catalog, &q).is_ok());
    }

    #[test]
    fn unindexable_only_in_list_does_not_bind() {
        // No member of `s.k IN (NULL)` can ever satisfy equality, so the
        // index probe has no key to supply: infeasible.
        let s = setup(false, Some(0), true, None);
        let q = chain(&s, in_list_preds(vec![Value::Null]));
        assert!(check(&s.catalog, &q).is_err());
        let s = setup(false, Some(0), true, None);
        let q = chain(&s, in_list_preds(vec![Value::Null, Value::Eot]));
        assert!(check(&s.catalog, &q).is_err());
    }

    #[test]
    fn inequality_does_not_bind() {
        // Only a `<` predicate reaches S's bind column: infeasible.
        let s = setup(false, Some(0), true, None);
        let preds = vec![
            Predicate::join(
                PredId(0),
                ColRef::new(TableIdx(0), 0),
                CmpOp::Lt,
                ColRef::new(TableIdx(1), 0),
            ),
            Predicate::join(
                PredId(1),
                ColRef::new(TableIdx(1), 1),
                CmpOp::Eq,
                ColRef::new(TableIdx(2), 0),
            ),
        ];
        let q = chain(&s, preds);
        assert!(check(&s.catalog, &q).is_err());
    }

    #[test]
    fn multi_bind_column_index_needs_all_columns() {
        let mut c = Catalog::new();
        let schema = Schema::of(&[("k", ColumnType::Int), ("v", ColumnType::Int)]);
        let r = c.add_table(TableDef::new("R", schema.clone())).unwrap();
        let s = c.add_table(TableDef::new("S", schema)).unwrap();
        c.add_scan(r, ScanSpec::default()).unwrap();
        c.add_index(s, IndexSpec::new(vec![0, 1], 100)).unwrap();
        let make = |preds: Vec<Predicate>| {
            QuerySpec::new(
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
                preds,
                None,
            )
            .unwrap()
        };
        // Only one of the two bind columns covered: infeasible.
        let q1 = make(vec![Predicate::join(
            PredId(0),
            ColRef::new(TableIdx(0), 0),
            CmpOp::Eq,
            ColRef::new(TableIdx(1), 0),
        )]);
        assert!(check(&c, &q1).is_err());
        // Both covered: feasible.
        let q2 = make(vec![
            Predicate::join(
                PredId(0),
                ColRef::new(TableIdx(0), 0),
                CmpOp::Eq,
                ColRef::new(TableIdx(1), 0),
            ),
            Predicate::join(
                PredId(1),
                ColRef::new(TableIdx(0), 1),
                CmpOp::Eq,
                ColRef::new(TableIdx(1), 1),
            ),
        ]);
        assert!(check(&c, &q2).is_ok());
    }
}
