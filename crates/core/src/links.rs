//! Plan-time probe tables: what probing one table instance needs to know
//! about the query, derived **once**.
//!
//! Every probe of a SteM or an index AM on table `t` asks the same
//! questions of the query: which equi-joins link a tuple of this span to
//! `t` and which column of `t` each binds (the hash-lookup and
//! shard-routing opportunity), which columns constant selections pin, and
//! which `IN` lists fan a lookup out. The answers are pure functions of
//! the query, so [`crate::plan::instantiate`] computes one [`TableLinks`]
//! per table instance into [`crate::plan::PlanLayout::links`] and the
//! per-tuple path only filters the short link list by the tuple's span —
//! bit operations, no predicate list rebuilt, nothing allocated.
//!
//! The entry points that take a bare `&QuerySpec`
//! ([`crate::sharded::ShardedStem::probe_batch_into`],
//! [`crate::am::IndexAm::probe`]) derive the table for their call; the
//! eddy never goes through them.

use stems_catalog::QuerySpec;
use stems_storage::index_key;
use stems_types::{CmpOp, ColRef, Operand, TableIdx, Tuple, Value};

/// One equi-join mentioning the table: `table.col = other`. It links — a
/// probe can bind `col` from it — every tuple that spans `other.table`.
#[derive(Debug, Clone, PartialEq)]
struct EquiLink {
    col: usize,
    other: ColRef,
}

/// The probe table of one table instance `t` (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct TableLinks {
    table: TableIdx,
    /// Equi-joins mentioning `t`, in predicate order.
    links: Vec<EquiLink>,
    /// `(col, value)` pairs that constant equalities pin on `t` — `col =
    /// c`, `c = col`, `col IN (c)` — equality-normalized, in predicate
    /// order.
    consts: Vec<(usize, Value)>,
    /// Multi-member `col IN (..)` lists on `t`: the equality-normalized,
    /// deduplicated members per column.
    in_options: Vec<(usize, Vec<Value>)>,
}

impl TableLinks {
    /// Derive the table of instance `t` from the query.
    pub fn of(query: &QuerySpec, t: TableIdx) -> TableLinks {
        let mut links = Vec::new();
        let mut consts = Vec::new();
        let mut in_options: Vec<(usize, Vec<Value>)> = Vec::new();
        let mut pin = |c: &ColRef, v: &Value| {
            if c.table == t {
                if let Some(v) = index_key(v) {
                    consts.push((c.col, v));
                }
            }
        };
        for p in &query.predicates {
            if let Some((l, r)) = p.equi_join_cols() {
                if l.table == t {
                    links.push(EquiLink {
                        col: l.col,
                        other: r,
                    });
                } else if r.table == t {
                    links.push(EquiLink {
                        col: r.col,
                        other: l,
                    });
                }
            }
            match (&p.left, p.op, &p.right) {
                (Operand::Col(c), CmpOp::Eq, Operand::Const(v))
                | (Operand::Const(v), CmpOp::Eq, Operand::Col(c)) => pin(c, v),
                // A single-member IN-list (or scalar IN) is a degenerate
                // equality and binds like one — the same rule the
                // feasibility fixpoint applies (`stems_catalog::feasible`),
                // so a query admitted through an `IN (v)` binding is
                // actually probeable at runtime.
                (Operand::Col(c), CmpOp::In, Operand::Const(v)) => pin(c, v),
                (Operand::Col(c), CmpOp::In, Operand::List(items)) if items.len() == 1 => {
                    pin(c, &items[0]);
                }
                // Members that can never satisfy SQL equality (NULL/EOT)
                // match no row and are dropped.
                (Operand::Col(c), CmpOp::In, Operand::List(items)) if c.table == t => {
                    let mut vals: Vec<Value> = Vec::with_capacity(items.len());
                    for v in items.iter().filter_map(index_key) {
                        if !vals.contains(&v) {
                            vals.push(v);
                        }
                    }
                    if !vals.is_empty() {
                        in_options.push((c.col, vals));
                    }
                }
                _ => {}
            }
        }
        TableLinks {
            table: t,
            links,
            consts,
            in_options,
        }
    }

    /// The table instance these links lead to.
    pub fn table(&self) -> TableIdx {
        self.table
    }

    /// `(column of this table, value the tuple supplies for it)` for every
    /// equi-join whose other side the tuple spans, in predicate order —
    /// the equi-joins among [`QuerySpec::preds_linking`] of the tuple's
    /// span.
    fn equi_values<'a>(&'a self, tuple: &'a Tuple) -> impl Iterator<Item = (usize, &'a Value)> {
        self.links
            .iter()
            .filter_map(|l| Some((l.col, tuple.value(l.other.table, l.other.col)?)))
    }

    /// First equi-join that binds a column of this table from the probe
    /// tuple — the hash-lookup opportunity, and for a SteM with lanes the
    /// lane: such a SteM has one join column, so every binding is on it.
    pub(crate) fn equi_binding<'a>(&'a self, tuple: &'a Tuple) -> Option<(usize, &'a Value)> {
        self.equi_values(tuple).next()
    }

    /// The `(col, value)` pairs a probe binds on this table — equi-join
    /// columns fed from the probe tuple, plus constant equality selections
    /// — into `out`, sorted by column, duplicates dropped. Values are
    /// normalized through [`index_key`] so coverage matching agrees with
    /// what index AMs put into their EOT tuples; un-indexable values
    /// (NULL/EOT) bind nothing.
    pub(crate) fn probe_bindings_into(&self, tuple: &Tuple, out: &mut Vec<(usize, Value)>) {
        out.clear();
        out.extend(
            self.equi_values(tuple)
                .filter_map(|(col, v)| Some((col, index_key(v)?))),
        );
        out.extend(self.consts.iter().cloned());
        out.sort_by_key(|b| b.0);
        out.dedup();
    }

    /// Does something supply a lookup value for column `col` of this
    /// table when `tuple` probes it: a linking equi-join fed an indexable
    /// value, a constant equality, or an `IN` list? The allocation-free
    /// core of [`crate::am::IndexAm::can_bind_linked`].
    pub(crate) fn supplies(&self, tuple: &Tuple, col: usize) -> bool {
        self.equi_values(tuple)
            .any(|(c, v)| c == col && !v.is_null() && !v.is_eot())
            || self.consts.iter().any(|(c, _)| *c == col)
            || self.in_options.iter().any(|(c, _)| *c == col)
    }

    /// The multi-member IN-list binding *options* on this table: for each
    /// `col IN (v1, ..., vk)` predicate with more than one member, the
    /// member values. Single-member lists are degenerate equalities and
    /// live in [`TableLinks::probe_bindings_into`] instead. Index AMs fan
    /// a probe out across these members (one lookup key per member), and
    /// the SteM's EOT index requires every member's EOT before declaring
    /// the probe complete — the same rule `stems_catalog::feasible`
    /// applies, so a query admitted through a multi-member IN binding is
    /// actually probeable at runtime.
    pub(crate) fn in_options(&self) -> &[(usize, Vec<Value>)] {
        &self.in_options
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::testkit::{r_tuple, s_tuple, setup};
    use stems_types::{PredId, Predicate, TableIdx};

    /// The equi-joins a tuple is offered are the equi-joins among
    /// `QuerySpec::preds_linking` of its span — on a query with an equi
    /// and a non-equi join between the tables and a selection.
    #[test]
    fn equi_links_agree_with_the_querys_linking_predicates() {
        let (c, q) = setup();
        let mut preds = q.predicates.clone();
        preds.push(Predicate::join(
            PredId(1),
            ColRef::new(TableIdx(1), 1),
            CmpOp::Lt,
            ColRef::new(TableIdx(0), 0),
        ));
        preds.push(Predicate::selection(
            PredId(2),
            ColRef::new(TableIdx(1), 1),
            CmpOp::Eq,
            Value::Int(7),
        ));
        let q = QuerySpec::new(&c, q.tables, preds, None).unwrap();
        let (r, s) = (r_tuple(1, 10), s_tuple(10, 7));
        for (t, probers) in [(TableIdx(1), [&r, &s]), (TableIdx(0), [&s, &r])] {
            let links = TableLinks::of(&q, t);
            assert_eq!(links.table(), t);
            for tuple in probers {
                let got: Vec<usize> = links.equi_values(tuple).map(|(col, _)| col).collect();
                let want: Vec<usize> = q
                    .preds_linking(tuple.span(), t)
                    .into_iter()
                    .filter_map(|id| q.predicate(id).equi_join_cols())
                    .map(|(l, r)| if l.table == t { l.col } else { r.col })
                    .collect();
                assert_eq!(got, want, "{t} probed by {tuple}");
            }
        }
    }

    #[test]
    fn bindings_merge_equi_values_and_constants() {
        let (c, q) = setup();
        let mut preds = q.predicates.clone();
        preds.push(Predicate::selection(
            PredId(1),
            ColRef::new(TableIdx(1), 1),
            CmpOp::Eq,
            Value::Int(7),
        ));
        let q = QuerySpec::new(&c, q.tables, preds, None).unwrap();
        let links = TableLinks::of(&q, TableIdx(1));
        let r = r_tuple(1, 10);
        assert_eq!(links.equi_binding(&r), Some((0, &Value::Int(10))));
        let mut b = vec![(9, Value::Null)];
        links.probe_bindings_into(&r, &mut b);
        assert_eq!(b, vec![(0, Value::Int(10)), (1, Value::Int(7))]);
        assert!(links.supplies(&r, 0) && links.supplies(&r, 1));
        assert!(!links.supplies(&r, 2));
        // A NULL join value binds nothing.
        let null = Tuple::singleton_of(TableIdx(0), vec![Value::Int(1), Value::Null]);
        links.probe_bindings_into(&null, &mut b);
        assert_eq!(b, vec![(1, Value::Int(7))]);
        assert!(!links.supplies(&null, 0));
        // Nothing of the other table links to R through its own span.
        assert_eq!(TableLinks::of(&q, TableIdx(0)).equi_binding(&r), None);
    }
}
