//! The catalog: named tables, their simulated contents, and access methods.

use crate::{AccessMethodDef, AmId, IndexTable};
use std::collections::HashSet;
use std::sync::Arc;
use stems_types::{Result, Row, Schema, StemsError, Value};

/// Identifier of a source table in the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SourceId(pub u32);

/// A base table: name, schema, and (for the simulation) its full contents.
///
/// In the paper the contents live behind remote sources; here the rows are
/// materialized so access methods can serve them with simulated latencies
/// and the reference executor can compute exact expected results.
///
/// The row list itself is shared: cloning the definition (or the catalog)
/// and handing the list to an access method ([`TableDef::row_list`]) copy
/// a pointer, not the rows' handles.
#[derive(Debug, Clone)]
pub struct TableDef {
    pub name: String,
    pub schema: Schema,
    rows: Arc<[Arc<Row>]>,
}

impl TableDef {
    pub fn new(name: &str, schema: Schema) -> TableDef {
        TableDef {
            name: name.to_string(),
            schema,
            rows: Arc::new([]),
        }
    }

    /// Attach row data (validated lazily by [`Catalog::add_table`]).
    pub fn with_rows(mut self, rows: Vec<Vec<Value>>) -> TableDef {
        self.rows = rows.into_iter().map(Row::shared).collect();
        self
    }

    /// Attach pre-shared rows (used by the data generators).
    pub fn with_shared_rows(mut self, rows: Vec<Arc<Row>>) -> TableDef {
        self.rows = rows.into();
        self
    }

    pub fn rows(&self) -> &[Arc<Row>] {
        &self.rows
    }

    /// A second handle on the row list — what a scan access method
    /// serves, shared with the catalog rather than copied.
    pub fn row_list(&self) -> Arc<[Arc<Row>]> {
        Arc::clone(&self.rows)
    }

    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }
}

/// The catalog maps source names to table definitions and access methods.
///
/// Cloning a catalog shares its row lists and index tables.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: Vec<TableDef>,
    /// `(owning source, descriptor)` — AmId indexes this vector.
    ams: Vec<(SourceId, AccessMethodDef)>,
    /// Per access method, in `ams` order: an index's lookup table (`None`
    /// for a scan).
    index_tables: Vec<Option<Arc<IndexTable>>>,
    /// Per table, in `tables` order: are its rows pairwise distinct?
    distinct: Vec<bool>,
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register a table. Validates rows against the schema and name
    /// uniqueness (case-insensitive), and records whether the rows are
    /// pairwise distinct ([`Self::rows_distinct`]).
    pub fn add_table(&mut self, def: TableDef) -> Result<SourceId> {
        if self
            .tables
            .iter()
            .any(|t| t.name.eq_ignore_ascii_case(&def.name))
        {
            return Err(StemsError::Schema(format!(
                "table `{}` already exists",
                def.name
            )));
        }
        let mut seen = HashSet::with_capacity(def.num_rows());
        let mut distinct = true;
        for r in def.rows() {
            def.schema.check_row(r.values())?;
            distinct = distinct && seen.insert(&**r);
        }
        let id = SourceId(self.tables.len() as u32);
        self.distinct.push(distinct);
        self.tables.push(def);
        Ok(id)
    }

    /// Are the rows of `source` pairwise distinct under row equality —
    /// the equality a SteM's set-semantics duplicate filter (§3.2)
    /// applies? Then one scan can never deliver a row twice, and a SteM
    /// fed by nothing else needs no filter. `false` for an unknown source.
    pub fn rows_distinct(&self, source: SourceId) -> bool {
        self.distinct
            .get(source.0 as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Register a scan access method on `source`.
    pub fn add_scan(&mut self, source: SourceId, spec: crate::ScanSpec) -> Result<AmId> {
        self.add_am(source, AccessMethodDef::Scan(spec))
    }

    /// Register an index access method on `source`, and build its lookup
    /// table — once: every plan over this catalog, and over its clones,
    /// serves lookups from it ([`Self::index_table`]).
    pub fn add_index(&mut self, source: SourceId, spec: crate::IndexSpec) -> Result<AmId> {
        self.add_am(source, AccessMethodDef::Index(spec))
    }

    fn add_am(&mut self, source: SourceId, def: AccessMethodDef) -> Result<AmId> {
        let table = self
            .table(source)
            .ok_or_else(|| StemsError::UnknownName(format!("source #{}", source.0)))?;
        def.validate(&table.schema)?;
        let index_table = match &def {
            AccessMethodDef::Index(spec) => {
                Some(Arc::new(IndexTable::build(table.rows(), &spec.bind_cols)))
            }
            AccessMethodDef::Scan(_) => None,
        };
        let id = AmId(self.ams.len() as u32);
        self.ams.push((source, def));
        self.index_tables.push(index_table);
        Ok(id)
    }

    pub fn table(&self, id: SourceId) -> Option<&TableDef> {
        self.tables.get(id.0 as usize)
    }

    /// Table definition by id, panicking variant for internal use after
    /// validation.
    pub fn table_expect(&self, id: SourceId) -> &TableDef {
        self.table(id).expect("validated source id")
    }

    pub fn source_by_name(&self, name: &str) -> Option<SourceId> {
        self.tables
            .iter()
            .position(|t| t.name.eq_ignore_ascii_case(name))
            .map(|i| SourceId(i as u32))
    }

    /// The lookup table of index access method `id`, shared (`None` if
    /// `id` is unknown or a scan).
    pub fn index_table(&self, id: AmId) -> Option<Arc<IndexTable>> {
        self.index_tables.get(id.0 as usize)?.clone()
    }

    /// All access methods on a source.
    pub fn ams_of(&self, source: SourceId) -> Vec<(AmId, &AccessMethodDef)> {
        self.ams
            .iter()
            .enumerate()
            .filter(|(_, (s, _))| *s == source)
            .map(|(i, (_, d))| (AmId(i as u32), d))
            .collect()
    }

    /// Does the source expose at least one scan AM?
    pub fn has_scan(&self, source: SourceId) -> bool {
        self.ams_of(source).iter().any(|(_, d)| d.is_scan())
    }

    /// Does the source expose at least one index AM?
    pub fn has_index(&self, source: SourceId) -> bool {
        self.ams_of(source).iter().any(|(_, d)| d.is_index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IndexSpec, ScanSpec};
    use stems_types::ColumnType;

    /// Catalog rows decide their EOT flag as they are made, and it agrees
    /// with a scan of their values (EOT is admitted in any column).
    #[test]
    fn table_rows_carry_the_eot_flag_a_scan_would_find() {
        let t = TableDef::new("T", Schema::of(&[("a", ColumnType::Int)])).with_rows(vec![
            vec![Value::Int(1)],
            vec![Value::Null],
            vec![Value::Eot],
        ]);
        let flags: Vec<bool> = t.rows().iter().map(|r| r.is_eot()).collect();
        let scanned: Vec<bool> = t
            .rows()
            .iter()
            .map(|r| r.values().iter().any(Value::is_eot))
            .collect();
        assert_eq!(flags, scanned);
        assert_eq!(flags, vec![false, false, true]);
    }

    fn catalog_with_r() -> (Catalog, SourceId) {
        let mut c = Catalog::new();
        let id = c
            .add_table(
                TableDef::new(
                    "R",
                    Schema::of(&[("key", ColumnType::Int), ("a", ColumnType::Int)]),
                )
                .with_rows(vec![vec![1.into(), 10.into()], vec![2.into(), 20.into()]]),
            )
            .unwrap();
        (c, id)
    }

    #[test]
    fn add_and_resolve_table() {
        let (c, id) = catalog_with_r();
        assert_eq!(c.source_by_name("r"), Some(id));
        assert_eq!(c.source_by_name("R"), Some(id));
        assert_eq!(c.source_by_name("missing"), None);
        assert_eq!(c.table(id).unwrap().num_rows(), 2);
    }

    #[test]
    fn duplicate_table_name_rejected() {
        let (mut c, _) = catalog_with_r();
        let err = c
            .add_table(TableDef::new("r", Schema::of(&[("z", ColumnType::Int)])))
            .unwrap_err();
        assert!(matches!(err, StemsError::Schema(_)));
    }

    #[test]
    fn row_validation_on_add() {
        let mut c = Catalog::new();
        let err = c
            .add_table(
                TableDef::new("bad", Schema::of(&[("k", ColumnType::Int)]))
                    .with_rows(vec![vec!["oops".into()]]),
            )
            .unwrap_err();
        assert!(matches!(err, StemsError::Schema(_)));
    }

    #[test]
    fn access_method_registry() {
        let (mut c, r) = catalog_with_r();
        assert!(!c.has_scan(r) && !c.has_index(r));
        let scan = c.add_scan(r, ScanSpec::default()).unwrap();
        let idx = c.add_index(r, IndexSpec::new(vec![0], 100)).unwrap();
        assert_ne!(scan, idx);
        assert!(c.has_scan(r) && c.has_index(r));
        let kinds: Vec<_> = c
            .ams_of(r)
            .into_iter()
            .map(|(id, def)| (id, def.is_scan(), def.is_index()))
            .collect();
        assert_eq!(kinds, [(scan, true, false), (idx, false, true)]);
    }

    #[test]
    fn am_on_unknown_source_rejected() {
        let mut c = Catalog::new();
        let err = c.add_scan(SourceId(9), ScanSpec::default()).unwrap_err();
        assert!(matches!(err, StemsError::UnknownName(_)));
    }

    #[test]
    fn an_index_table_is_built_once_and_shared_by_clones() {
        let (mut c, r) = catalog_with_r();
        let scan = c.add_scan(r, ScanSpec::default()).unwrap();
        let idx = c.add_index(r, IndexSpec::new(vec![0], 100)).unwrap();
        assert!(c.index_table(scan).is_none());
        assert!(c.index_table(AmId(9)).is_none());
        let table = c.index_table(idx).unwrap();
        assert_eq!(table.len(), 2);
        assert!(Arc::ptr_eq(
            &table.get(&[Value::Int(2)])[0],
            &c.table(r).unwrap().rows()[1]
        ));
        let clone = c.clone();
        assert!(Arc::ptr_eq(&table, &clone.index_table(idx).unwrap()));
        assert!(Arc::ptr_eq(
            &c.table(r).unwrap().row_list(),
            &clone.table(r).unwrap().row_list()
        ));
    }

    /// Catalogs built and dropped in turn reuse freed memory; each still
    /// answers from its own rows only.
    #[test]
    fn catalogs_built_in_turn_never_answer_from_each_others_rows() {
        for round in 0..50i64 {
            let mut c = Catalog::new();
            let rows = (0..8).map(|i| vec![Value::Int(i % 3), Value::Int(round)]);
            let r = c
                .add_table(
                    TableDef::new(
                        "R",
                        Schema::of(&[("key", ColumnType::Int), ("a", ColumnType::Int)]),
                    )
                    .with_rows(rows.collect()),
                )
                .unwrap();
            let idx = c.add_index(r, IndexSpec::new(vec![0], 100)).unwrap();
            let table = c.index_table(idx).unwrap();
            for key in 0..3 {
                let hits = table.get(&[Value::Int(key)]);
                assert!(!hits.is_empty());
                assert!(
                    hits.iter()
                        .all(|row| row.get(1) == Some(&Value::Int(round))),
                    "round {round}: a row of another catalog"
                );
            }
        }
    }

    #[test]
    fn distinctness_is_recorded_per_table() {
        let (mut c, r) = catalog_with_r();
        assert!(c.rows_distinct(r));
        let schema = Schema::of(&[("k", ColumnType::Int), ("f", ColumnType::Float)]);
        let twice = c
            .add_table(TableDef::new("twice", schema.clone()).with_rows(vec![
                vec![1.into(), Value::Float(0.5)],
                vec![2.into(), Value::Float(0.5)],
                vec![1.into(), Value::Float(0.5)],
            ]))
            .unwrap();
        assert!(!c.rows_distinct(twice), "a repeated row");
        // The filter's equality: values by type and bits, so a float and
        // the int it equals in SQL are distinct rows, and so are -0.0
        // and 0.0.
        let near = c
            .add_table(TableDef::new("near", schema).with_rows(vec![
                vec![1.into(), Value::Float(0.0)],
                vec![1.into(), Value::Float(-0.0)],
                vec![1.into(), Value::Null],
                vec![1.into(), Value::Int(1)],
                vec![1.into(), Value::Float(1.0)],
            ]))
            .unwrap();
        assert!(c.rows_distinct(near));
        let empty = c
            .add_table(TableDef::new(
                "empty",
                Schema::of(&[("k", ColumnType::Int)]),
            ))
            .unwrap();
        assert!(c.rows_distinct(empty));
        assert!(!c.rows_distinct(SourceId(99)), "unknown source");
        // A rejected table records nothing.
        let bad = TableDef::new("bad", Schema::of(&[("k", ColumnType::Int)]))
            .with_rows(vec![vec!["oops".into()]]);
        assert!(c.add_table(bad).is_err());
        assert!(!c.rows_distinct(SourceId(empty.0 + 1)));
    }

    #[test]
    fn am_validation_runs() {
        let (mut c, r) = catalog_with_r();
        assert!(c.add_index(r, IndexSpec::new(vec![7], 100)).is_err());
    }
}
