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
    pub fn of(q: &QuerySpec) -> JoinGraph {
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

    /// Is the graph connected? (Cartesian-product queries are legal but the
    /// engine treats every table as adjacent when there is no predicate
    /// path; disconnected graphs are reported so the planner can insert
    /// cross-join edges explicitly.)
    pub fn is_connected(&self) -> bool {
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

    /// Is the *simple* graph (parallel predicate edges collapsed) cyclic?
    /// Cyclic queries trigger the ProbeCompletion constraint (paper §3.4).
    pub fn is_cyclic(&self) -> bool {
        // Union-find over ≤32 vertices.
        let mut parent: Vec<usize> = (0..self.n).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        let mut simple: Vec<(usize, usize)> = self
            .edges
            .iter()
            .map(|(a, b, _)| {
                let (a, b) = (a.as_usize(), b.as_usize());
                (a.min(b), a.max(b))
            })
            .collect();
        simple.sort_unstable();
        simple.dedup();
        for (a, b) in simple {
            let ra = find(&mut parent, a);
            let rb = find(&mut parent, b);
            if ra == rb {
                return true;
            }
            parent[ra] = rb;
        }
        false
    }

    /// Predicate ids on the edge between `a` and `b` (may be several).
    pub fn preds_between(&self, a: TableIdx, b: TableIdx) -> Vec<PredId> {
        self.edges
            .iter()
            .filter(|(x, y, _)| (*x == a && *y == b) || (*x == b && *y == a))
            .map(|(_, _, p)| *p)
            .collect()
    }

    /// Enumerate all spanning trees as edge-index sets (small queries only —
    /// used by the spanning-tree experiment and tests). Each tree is a set
    /// of indices into `edges()` covering all vertices without cycles.
    pub fn spanning_trees(&self) -> Vec<Vec<usize>> {
        let need = self.n.saturating_sub(1);
        let mut out = Vec::new();
        if self.edges.len() < need {
            return out;
        }
        let idxs: Vec<usize> = (0..self.edges.len()).collect();
        let mut chosen = Vec::with_capacity(need);
        self.enumerate_trees(&idxs, 0, need, &mut chosen, &mut out);
        out
    }

    fn enumerate_trees(
        &self,
        idxs: &[usize],
        start: usize,
        need: usize,
        chosen: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if chosen.len() == need {
            if self.is_tree(chosen) {
                out.push(chosen.clone());
            }
            return;
        }
        for i in start..idxs.len() {
            chosen.push(idxs[i]);
            self.enumerate_trees(idxs, i + 1, need, chosen, out);
            chosen.pop();
        }
    }

    fn is_tree(&self, edge_idxs: &[usize]) -> bool {
        let mut parent: Vec<usize> = (0..self.n).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        for &i in edge_idxs {
            let (a, b, _) = self.edges[i];
            let ra = find(&mut parent, a.as_usize());
            let rb = find(&mut parent, b.as_usize());
            if ra == rb {
                return false;
            }
            parent[ra] = rb;
        }
        // Connected iff exactly n-1 merges happened over n vertices.
        let root0 = find(&mut parent, 0);
        edge_idxs.len() == self.n - 1 && (0..self.n).all(|v| find(&mut parent, v) == root0)
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
        assert!(!g.is_cyclic());
        assert_eq!(g.neighbors(TableIdx(1)), {
            let mut s = TableSet::single(TableIdx(0));
            s.insert(TableIdx(2));
            s
        });
    }

    #[test]
    fn triangle_is_cyclic() {
        let g = chain_query(3, true).join_graph();
        assert!(g.is_connected());
        assert!(g.is_cyclic());
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
    fn parallel_edges_not_a_cycle() {
        // Two predicates between the same pair of tables — still a tree.
        let mut c = Catalog::new();
        let mut tabs = Vec::new();
        for name in ["A", "B"] {
            let id = c
                .add_table(TableDef::new(
                    name,
                    Schema::of(&[("x", ColumnType::Int), ("y", ColumnType::Int)]),
                ))
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
            vec![
                Predicate::join(
                    stems_types::PredId(0),
                    ColRef::new(TableIdx(0), 0),
                    CmpOp::Eq,
                    ColRef::new(TableIdx(1), 0),
                ),
                Predicate::join(
                    stems_types::PredId(1),
                    ColRef::new(TableIdx(0), 1),
                    CmpOp::Lt,
                    ColRef::new(TableIdx(1), 1),
                ),
            ],
            None,
        )
        .unwrap();
        let g = q.join_graph();
        assert!(!g.is_cyclic());
        assert_eq!(g.preds_between(TableIdx(0), TableIdx(1)).len(), 2);
    }

    #[test]
    fn spanning_trees_of_triangle() {
        let g = chain_query(3, true).join_graph();
        // Triangle has exactly 3 spanning trees.
        assert_eq!(g.spanning_trees().len(), 3);
    }

    #[test]
    fn spanning_trees_of_chain_is_unique() {
        let g = chain_query(4, false).join_graph();
        assert_eq!(g.spanning_trees().len(), 1);
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
