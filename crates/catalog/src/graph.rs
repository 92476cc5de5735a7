//! The query join graph.

use crate::QuerySpec;
use stems_types::{PredId, TableIdx, TableSet};

/// Undirected multigraph whose vertices are table instances and whose edges
/// are join predicates.
///
/// Cyclicity matters to the paper (§3.4): traditional optimizers (and the
/// original eddies work) fix a *spanning tree* of this graph before
/// execution; SteM routing explores spanning trees dynamically, at the cost
/// of the ProbeCompletion constraint.
#[derive(Debug, Clone, Default)]
pub struct JoinGraph {
    n: usize,
    /// `(endpoints, predicate)` per join predicate.
    edges: Vec<(TableIdx, TableIdx, PredId)>,
}

impl JoinGraph {
    /// Build the graph of a query.
    pub(crate) fn of(q: &QuerySpec) -> JoinGraph {
        let edges = q
            .joins()
            .map(|p| {
                let ts: Vec<TableIdx> = p.tables().iter().collect();
                debug_assert_eq!(ts.len(), 2);
                (ts[0], ts[1], p.id)
            })
            .collect();
        JoinGraph {
            n: q.n_tables(),
            edges,
        }
    }

    pub fn n_vertices(&self) -> usize {
        self.n
    }

    pub fn edges(&self) -> &[(TableIdx, TableIdx, PredId)] {
        &self.edges
    }

    /// Tables adjacent to `t` via at least one join predicate.
    pub fn neighbors(&self, t: TableIdx) -> TableSet {
        let mut s = TableSet::EMPTY;
        for (a, b, _) in &self.edges {
            if *a == t {
                s.insert(*b);
            } else if *b == t {
                s.insert(*a);
            }
        }
        s
    }

    /// Tables adjacent to any member of `span`, excluding the span itself.
    pub fn frontier(&self, span: TableSet) -> TableSet {
        let mut s = TableSet::EMPTY;
        for t in span.iter() {
            s = s.union(self.neighbors(t));
        }
        s.minus(span)
    }

    /// Is the graph connected? (A disconnected query is legal: the router
    /// treats every table as adjacent when no predicate path links them.)
    #[cfg(test)]
    fn is_connected(&self) -> bool {
        if self.n == 0 {
            return true;
        }
        let mut reach = TableSet::single(TableIdx(0));
        loop {
            let f = self.frontier(reach);
            if f.is_empty() {
                break;
            }
            reach = reach.union(f);
        }
        reach.len() == self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Catalog, ScanSpec, TableDef, TableInstance};
    use stems_types::{CmpOp, ColRef, ColumnType, Predicate, Schema};

    fn chain_query(n: usize, extra_cycle: bool) -> QuerySpec {
        let mut c = Catalog::new();
        let mut tables = Vec::new();
        for i in 0..n {
            let id = c
                .add_table(TableDef::new(
                    &format!("T{i}"),
                    Schema::of(&[("k", ColumnType::Int)]),
                ))
                .unwrap();
            c.add_scan(id, ScanSpec::default()).unwrap();
            tables.push(TableInstance {
                source: id,
                alias: format!("t{i}"),
            });
        }
        let mut preds = Vec::new();
        for i in 0..n - 1 {
            preds.push(Predicate::join(
                stems_types::PredId(preds.len() as u16),
                ColRef::new(TableIdx(i as u8), 0),
                CmpOp::Eq,
                ColRef::new(TableIdx(i as u8 + 1), 0),
            ));
        }
        if extra_cycle {
            preds.push(Predicate::join(
                stems_types::PredId(preds.len() as u16),
                ColRef::new(TableIdx(0), 0),
                CmpOp::Eq,
                ColRef::new(TableIdx(n as u8 - 1), 0),
            ));
        }
        QuerySpec::new(&c, tables, preds, None).unwrap()
    }

    #[test]
    fn chain_is_connected_acyclic() {
        let g = chain_query(4, false).join_graph();
        assert!(g.is_connected());
        assert_eq!(g.neighbors(TableIdx(1)), {
            let mut s = TableSet::single(TableIdx(0));
            s.insert(TableIdx(2));
            s
        });
    }

    #[test]
    fn frontier_expands_from_span() {
        let g = chain_query(4, false).join_graph();
        let f = g.frontier(TableSet::single(TableIdx(0)));
        assert_eq!(f, TableSet::single(TableIdx(1)));
        let f2 = g.frontier(TableSet::all(2));
        assert_eq!(f2, TableSet::single(TableIdx(2)));
    }

    #[test]
    fn disconnected_graph_detected() {
        // Single predicate over 3 tables: t2 is isolated.
        let mut c = Catalog::new();
        let mut tabs = Vec::new();
        for name in ["A", "B", "C"] {
            let id = c
                .add_table(TableDef::new(name, Schema::of(&[("x", ColumnType::Int)])))
                .unwrap();
            c.add_scan(id, ScanSpec::default()).unwrap();
            tabs.push(TableInstance {
                source: id,
                alias: name.to_lowercase(),
            });
        }
        let q = QuerySpec::new(
            &c,
            tabs,
            vec![Predicate::join(
                stems_types::PredId(0),
                ColRef::new(TableIdx(0), 0),
                CmpOp::Eq,
                ColRef::new(TableIdx(1), 0),
            )],
            None,
        )
        .unwrap();
        assert!(!q.join_graph().is_connected());
    }
}
