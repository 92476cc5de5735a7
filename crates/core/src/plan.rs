//! Query instantiation (paper §2.2).
//!
//! "The use of an eddy and SteMs obviates the need for query optimization
//! because there are no a priori decisions to be made." Instantiation is:
//!
//! 1. check bind-field feasibility (Nail!-style fixpoint);
//! 2. create an AM on *each* access method that could be used;
//! 3. create an SM on each selection predicate;
//! 4. create a SteM on each table;
//! 5. seed the scans.
//!
//! This module performs steps 1–4, producing the module vector and a
//! [`PlanLayout`] index the router uses; the engine performs step 5.

use crate::am::{IndexAm, ScanAm};
use crate::links::TableLinks;
use crate::server::Registry;
use crate::sm::Sm;
use crate::stem::Stem;
pub use crate::stem::StemOptions;
use stems_catalog::{feasible, AccessMethodDef, Catalog, JoinGraph, QuerySpec};
use stems_types::{PredId, Result, TableIdx, TableSet};

/// One instantiated module. Each module is boxed, so a `Module` is two
/// words: the engine moves a module out of its slot and back for every
/// envelope it serves, and a SteM by value is hundreds of bytes.
pub enum Module {
    /// A State Module, owned by the plan.
    Stem(Box<Stem>),
    /// A State Module the query server shares across queries: the index of
    /// its entry in the server's registry, which the server lends
    /// read-only to the executor while it steps.
    Folded(usize),
    ScanAm(Box<ScanAm>),
    IndexAm(Box<IndexAm>),
    Sm(Box<Sm>),
    /// Placeholder left behind while the engine temporarily moves a module
    /// out of the vector to process an envelope (never routed to).
    Hole,
}

impl Module {
    /// The SteM this module is, or the one it names in `shared`, the
    /// registry its executor was lent; `None` for any other module.
    pub(crate) fn stem<'a>(&'a self, shared: &'a Registry) -> Option<&'a Stem> {
        match self {
            Module::Stem(stem) => Some(stem),
            Module::Folded(entry) => shared.get(*entry)?.as_ref().map(|e| &e.stem),
            _ => None,
        }
    }

    /// The SM this module is; `None` for any other module.
    pub(crate) fn sm(&self) -> Option<&Sm> {
        match self {
            Module::Sm(sm) => Some(sm),
            _ => None,
        }
    }
}

/// Index over the instantiated modules, consulted by the router on every
/// routing decision.
#[derive(Debug, Clone, Default)]
pub struct PlanLayout {
    pub(crate) n_tables: usize,
    /// Module id of the SteM on each table instance (`None` under the §3.5
    /// relaxation).
    pub(crate) stem_mid: Vec<Option<usize>>,
    /// `(selection predicate, module id)` pairs.
    pub(crate) sm_mids: Vec<(PredId, usize)>,
    /// Scan AM module ids.
    pub(crate) scan_mids: Vec<usize>,
    /// Index AM module ids per table instance.
    pub(crate) index_mids: Vec<Vec<usize>>,
    /// BuildFirst requirement per instance: true whenever the instance has
    /// a SteM (see [`PlanOptions`] for how this maps onto paper Table 2).
    pub(crate) build_required: Vec<bool>,
    /// Whether each instance's source has a scan AM.
    pub(crate) has_scan: Vec<bool>,
    /// The query's join graph, built once here: the router walks it for
    /// every tuple and must not rebuild it.
    pub(crate) graph: JoinGraph,
    /// The probe table of each table instance — linking predicates,
    /// equi-binding columns, constant bindings and IN options — built once
    /// here; SteM probes, index-AM probes, the router's bindability check
    /// and parking all read it instead of re-deriving it from the
    /// predicate list.
    pub(crate) links: Vec<TableLinks>,
}

/// Configuration used at instantiation time.
///
/// BuildFirst note: paper Table 2 *requires* building first only for
/// tables with multiple AMs or an index AM; §3.5 then relaxes further by
/// dropping the SteM on single-scan tables altogether. Like the paper's
/// own implementation (§4.1: "singleton tuples are always first built into
/// their corresponding SteMs ... this simplifies our implementation"),
/// every instance that *has* a SteM builds before it probes (after its
/// own selections without a UDF, where [`crate::router`] allows them);
/// `no_stem` realizes the §3.5 relaxation, and its validity condition is
/// exactly the complement of Table 2's BuildFirst condition.
#[derive(Debug, Clone, Default)]
pub struct PlanOptions {
    /// The options every SteM of the plan is created with.
    pub default_stem: StemOptions,
    /// Instances exempt from SteM creation and building (§3.5 relaxation).
    /// Only legal for instances whose source has exactly one scan AM.
    pub no_stem: TableSet,
}

/// Instantiate the modules for a query (§2.2 steps 1–4).
pub fn instantiate(
    catalog: &Catalog,
    query: &QuerySpec,
    opts: &PlanOptions,
) -> Result<(Vec<Module>, PlanLayout)> {
    feasible::check(catalog, query)?;
    let n = query.n_tables();
    let mut modules: Vec<Module> = Vec::new();
    let mut layout = PlanLayout {
        n_tables: n,
        stem_mid: vec![None; n],
        sm_mids: Vec::new(),
        scan_mids: Vec::new(),
        index_mids: vec![Vec::new(); n],
        build_required: vec![false; n],
        has_scan: vec![false; n],
        graph: query.join_graph(),
        links: (0..n)
            .map(|i| TableLinks::of(query, TableIdx(i as u8)))
            .collect(),
    };

    // Step 2: one AM module per catalog access method that the query uses.
    let mut seen_sources = Vec::new();
    for (i, ti) in query.tables.iter().enumerate() {
        let t = TableIdx(i as u8);
        let table = catalog.table_expect(ti.source);
        let instances = query.instances_of(ti.source);
        layout.has_scan[i] = catalog.has_scan(ti.source);

        layout.build_required[i] = if opts.no_stem.contains(t) {
            validate_no_stem(catalog, query, t)?;
            false
        } else {
            true
        };

        // AMs are created once per source (they serve every instance; the
        // creation loop below links them to all instances at once).
        if seen_sources.contains(&ti.source) {
            continue;
        }
        seen_sources.push(ti.source);

        // Both AM kinds serve what the catalog already holds: the scan
        // its row list, the index its lookup table — shared, not rebuilt.
        for (am_id, def) in catalog.ams_of(ti.source) {
            match def {
                AccessMethodDef::Scan(spec) => {
                    let mid = modules.len();
                    modules.push(Module::ScanAm(Box::new(ScanAm::over(
                        ti.source,
                        instances.clone(),
                        table.row_list(),
                        table.schema.arity(),
                        spec,
                    ))));
                    layout.scan_mids.push(mid);
                }
                AccessMethodDef::Index(spec) => {
                    let mid = modules.len();
                    // A tuple an index AM answered records the AM's id in
                    // 16 bits (`TupleState::origin_am`).
                    if u16::try_from(mid).is_err() {
                        return Err(stems_types::StemsError::Schema(format!(
                            "index access method {am_id:?} would be module {mid}; \
                             index AM module ids must fit in 16 bits"
                        )));
                    }
                    modules.push(Module::IndexAm(Box::new(IndexAm::with_table(
                        instances.clone(),
                        catalog.index_table(am_id).expect("an index AM has a table"),
                        table.schema.arity(),
                        spec.clone(),
                    ))));
                    for inst in &instances {
                        let mids = &mut layout.index_mids[inst.as_usize()];
                        if mids.len() == crate::router::MAX_INDEX_AMS {
                            return Err(stems_types::StemsError::Schema(format!(
                                "table instance {inst} has more than {} index access methods",
                                crate::router::MAX_INDEX_AMS
                            )));
                        }
                        mids.push(mid);
                    }
                }
            }
        }
    }

    // Step 3: SMs on selection predicates.
    for p in query.selections() {
        let mid = modules.len();
        modules.push(Module::Sm(Box::new(Sm::new(p.clone()))));
        layout.sm_mids.push((p.id, mid));
    }

    // Step 4: SteMs on each instance (unless §3.5-relaxed).
    for (i, ti) in query.tables.iter().enumerate() {
        let t = TableIdx(i as u8);
        if opts.no_stem.contains(t) {
            continue;
        }
        let ams = catalog.ams_of(ti.source);
        let has_scan = ams.iter().any(|(_, def)| def.is_scan());
        let mut stem = Stem::new(
            t,
            ti.source,
            &query.join_cols_of(t),
            has_scan,
            ams.iter().any(|(_, def)| def.is_index()),
            opts.default_stem.clone(),
        );
        // A scan delivers the whole table, so a scan-fed SteM is sized for
        // its rows and its join columns' keys (an index-only source
        // delivers an unknown subset). When that scan is the source's
        // only access method and its rows are pairwise distinct, no row
        // can arrive twice: the SteM skips the §3.2 duplicate filter,
        // which the paper keeps because "the same tuple can be generated
        // by different AMs". Two scans, or a scan beside an index, keep
        // it.
        if has_scan {
            let rows = catalog.table_expect(ti.source).num_rows();
            stem.expect_scan_rows(rows, |col| catalog.distinct_keys(ti.source, col));
            if ams.len() == 1 && catalog.rows_distinct(ti.source) {
                stem.trust_distinct();
            }
        }
        let mid = modules.len();
        modules.push(Module::Stem(Box::new(stem)));
        layout.stem_mid[i] = Some(mid);
    }
    Ok((modules, layout))
}

/// The §3.5 relaxation is sound only for tables with a single scan AM
/// ("as long as there is only one access method on R and that access
/// method is scan").
fn validate_no_stem(catalog: &Catalog, query: &QuerySpec, t: TableIdx) -> Result<()> {
    let source = query.instance(t).source;
    let ams = catalog.ams_of(source);
    let ok = ams.len() == 1 && ams[0].1.is_scan() && query.instances_of(source).len() == 1;
    if ok {
        Ok(())
    } else {
        Err(stems_types::StemsError::Schema(format!(
            "table instance {t} cannot skip its SteM: the §3.5 relaxation \
             requires exactly one scan access method and no self-join",
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stems_catalog::{IndexSpec, ScanSpec, SourceId, TableDef, TableInstance};
    use stems_types::{CmpOp, ColRef, ColumnType, Predicate, Schema, Value};

    fn setup(index_on_s: bool) -> (Catalog, QuerySpec) {
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
        if index_on_s {
            c.add_index(s, IndexSpec::new(vec![0], 1000)).unwrap();
        }
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
            vec![
                Predicate::join(
                    PredId(0),
                    ColRef::new(TableIdx(0), 1),
                    CmpOp::Eq,
                    ColRef::new(TableIdx(1), 0),
                ),
                Predicate::selection(
                    PredId(1),
                    ColRef::new(TableIdx(0), 0),
                    CmpOp::Gt,
                    Value::Int(0),
                ),
            ],
            None,
        )
        .unwrap();
        (c, q)
    }

    /// A routing key holds one bit per index AM of a table instance, so a
    /// plan with more is refused, not routed wrongly.
    #[test]
    fn more_index_ams_than_a_route_key_holds_is_a_plan_error() {
        let (mut c, q) = setup(true);
        let s = q.instance(TableIdx(1)).source;
        for _ in 1..crate::router::MAX_INDEX_AMS {
            c.add_index(s, IndexSpec::new(vec![0], 1000)).unwrap();
        }
        assert!(instantiate(&c, &q, &PlanOptions::default()).is_ok());
        c.add_index(s, IndexSpec::new(vec![0], 1000)).unwrap();
        match instantiate(&c, &q, &PlanOptions::default()) {
            Err(e) => assert!(e.to_string().contains("index access methods"), "{e}"),
            Ok(_) => panic!("a plan with {} index AMs", crate::router::MAX_INDEX_AMS + 1),
        }
    }

    /// A tuple records the index AM that answered it in 16 bits, so a
    /// plan whose index AM would get a wider module id is refused.
    #[test]
    fn an_index_am_id_past_16_bits_is_a_plan_error() {
        let (mut c, q) = setup(true);
        let r = q.instance(TableIdx(0)).source;
        // R's scans come first, then S's scan, then S's index: 65 533 more
        // scans on R put the index at module 65 535, the last id that fits.
        for _ in 0..65_533 {
            c.add_scan(r, ScanSpec::default()).unwrap();
        }
        let (_, layout) = instantiate(&c, &q, &PlanOptions::default()).unwrap();
        assert_eq!(layout.index_mids[1], vec![usize::from(u16::MAX)]);
        c.add_scan(r, ScanSpec::default()).unwrap();
        match instantiate(&c, &q, &PlanOptions::default()) {
            Err(e) => assert!(e.to_string().contains("16 bits"), "{e}"),
            Ok(_) => panic!("an index AM at module 65 536"),
        }
    }

    #[test]
    fn module_census_matches_paper_recipe() {
        let (c, q) = setup(true);
        let opts = PlanOptions::default();
        let (modules, layout) = instantiate(&c, &q, &opts).unwrap();
        // 2 scans + 1 index + 1 SM + 2 SteMs.
        assert_eq!(modules.len(), 6);
        assert_eq!(layout.scan_mids.len(), 2);
        assert_eq!(layout.index_mids[1].len(), 1);
        assert_eq!(layout.index_mids[0].len(), 0);
        assert_eq!(layout.sm_mids.len(), 1);
        assert!(layout.stem_mid[0].is_some() && layout.stem_mid[1].is_some());
        assert!(layout.build_required[0] && layout.build_required[1]);
        assert!(layout.has_scan[0] && layout.has_scan[1]);
        // The plan-time probe tables: one per instance.
        assert_eq!(layout.links.len(), 2);
        assert!(layout
            .links
            .iter()
            .zip(0..)
            .all(|(l, i)| l.table() == TableIdx(i)));
    }

    #[test]
    fn build_required_unless_relaxed() {
        let (c, q) = setup(true);
        // Default: every SteM'd instance builds first (paper §4.1).
        let (_m, layout) = instantiate(&c, &q, &PlanOptions::default()).unwrap();
        assert!(layout.build_required[0] && layout.build_required[1]);
        // §3.5 relaxation: exempted instance neither builds nor has a SteM.
        let opts = PlanOptions {
            no_stem: TableSet::single(TableIdx(0)),
            ..Default::default()
        };
        let (_m, layout) = instantiate(&c, &q, &opts).unwrap();
        assert!(!layout.build_required[0]);
        assert!(layout.build_required[1]);
    }

    #[test]
    fn no_stem_relaxation_validated() {
        let (c, q) = setup(true);
        // Relaxing R (single scan AM) is fine.
        let opts = PlanOptions {
            no_stem: TableSet::single(TableIdx(0)),
            ..Default::default()
        };
        let (_m, layout) = instantiate(&c, &q, &opts).unwrap();
        assert!(layout.stem_mid[0].is_none());
        assert!(layout.stem_mid[1].is_some());
        // Relaxing S (scan + index) must fail.
        let opts = PlanOptions {
            no_stem: TableSet::single(TableIdx(1)),
            ..Default::default()
        };
        assert!(instantiate(&c, &q, &opts).is_err());
    }

    /// Five sources joined in a star on the first one's key, each with
    /// whether its SteM must filter duplicates: one scan over distinct
    /// rows, a repeated row, a scan beside an index, two scans, and an
    /// index alone.
    fn five_feeds() -> (Catalog, QuerySpec, [(SourceId, bool); 5]) {
        let mut c = Catalog::new();
        let schema = Schema::of(&[("k", ColumnType::Int), ("v", ColumnType::Int)]);
        let distinct = || (0..6i64).map(|i| vec![i.into(), (i % 2).into()]).collect();
        let mut add = |name: &str, rows: Vec<Vec<Value>>, scans: usize, index: bool| {
            let id = c
                .add_table(TableDef::new(name, schema.clone()).with_rows(rows))
                .unwrap();
            for _ in 0..scans {
                c.add_scan(id, ScanSpec::default()).unwrap();
            }
            if index {
                c.add_index(id, IndexSpec::new(vec![0], 1000)).unwrap();
            }
            id
        };
        let mut repeated: Vec<Vec<Value>> = distinct();
        repeated.push(repeated[0].clone());
        let sources = [
            (add("one_scan", distinct(), 1, false), false),
            (add("repeated_row", repeated, 1, false), true),
            (add("scan_and_index", distinct(), 1, true), true),
            (add("two_scans", distinct(), 2, false), true),
            (add("index_only", distinct(), 0, true), true),
        ];
        // A star on the first table's key binds the index-only source.
        let q = QuerySpec::new(
            &c,
            sources
                .iter()
                .enumerate()
                .map(|(i, (source, _))| TableInstance {
                    source: *source,
                    alias: format!("t{i}"),
                })
                .collect(),
            (1..sources.len())
                .map(|i| {
                    Predicate::join(
                        PredId(i as u16 - 1),
                        ColRef::new(TableIdx(0), 0),
                        CmpOp::Eq,
                        ColRef::new(TableIdx(i as u8), 0),
                    )
                })
                .collect(),
            None,
        )
        .unwrap();
        (c, q, sources)
    }

    /// A SteM skips the duplicate filter exactly when one scan over rows
    /// the catalog found distinct feeds it; a repeated row, a second scan,
    /// an index beside the scan, or an index alone keep it.
    #[test]
    fn the_duplicate_filter_is_dropped_only_where_no_duplicate_can_arrive() {
        let (c, q, sources) = five_feeds();
        let (modules, layout) = instantiate(&c, &q, &PlanOptions::default()).unwrap();
        for (i, (source, filters)) in sources.iter().enumerate() {
            let Module::Stem(stem) = &modules[layout.stem_mid[i].unwrap()] else {
                panic!("t{i} has a SteM");
            };
            let name = &c.table_expect(*source).name;
            assert_eq!(stem.filters_duplicates(), *filters, "{name}");
        }
        // A SteM made directly always filters.
        let stem = Stem::new(
            TableIdx(0),
            sources[0].0,
            &[0],
            true,
            false,
            StemOptions::default(),
        );
        assert!(stem.filters_duplicates());
    }

    /// A scan-fed SteM is sized from the catalog — the table's rows, and
    /// each join column's distinct keys — and one fed by an index alone,
    /// which delivers an unknown subset, reserves nothing.
    #[test]
    fn scan_fed_stems_are_sized_from_the_catalog() {
        let (c, q, sources) = five_feeds();
        let (modules, layout) = instantiate(&c, &q, &PlanOptions::default()).unwrap();
        for (i, (source, _)) in sources.iter().enumerate() {
            let Module::Stem(stem) = &modules[layout.stem_mid[i].unwrap()] else {
                panic!("t{i} has a SteM");
            };
            let name = &c.table_expect(*source).name;
            let want = if c.has_scan(*source) {
                let rows = c.table_expect(*source).num_rows();
                (rows, vec![(0, c.distinct_keys(*source, 0))])
            } else {
                (0, vec![])
            };
            let (rows, keys) = stem.reservation();
            assert_eq!((rows, keys.to_vec()), want, "{name}");
        }
        // Six keys in seven rows: an index holds keys, not rows.
        let repeated = sources[1].0;
        assert_eq!(c.distinct_keys(repeated, 0), 6);
        assert_eq!(c.table_expect(repeated).num_rows(), 7);
    }

    #[test]
    fn infeasible_query_rejected_at_instantiation() {
        let mut c = Catalog::new();
        let r = c
            .add_table(TableDef::new("R", Schema::of(&[("k", ColumnType::Int)])))
            .unwrap();
        // R has NO access method at all.
        let q = QuerySpec::new(
            &c,
            vec![TableInstance {
                source: r,
                alias: "r".into(),
            }],
            vec![],
            None,
        )
        .unwrap();
        assert!(instantiate(&c, &q, &PlanOptions::default()).is_err());
        let _ = SourceId(0);
    }

    #[test]
    fn self_join_shares_ams_not_stems() {
        let mut c = Catalog::new();
        let r = c
            .add_table(TableDef::new(
                "R",
                Schema::of(&[("k", ColumnType::Int), ("v", ColumnType::Int)]),
            ))
            .unwrap();
        c.add_scan(r, ScanSpec::default()).unwrap();
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
        let (modules, layout) = instantiate(&c, &q, &PlanOptions::default()).unwrap();
        // One scan AM serving both instances + two SteMs.
        assert_eq!(layout.scan_mids.len(), 1);
        match &modules[layout.scan_mids[0]] {
            Module::ScanAm(s) => assert_eq!(s.instances.len(), 2),
            _ => panic!("expected scan"),
        }
        assert!(layout.stem_mid[0].is_some() && layout.stem_mid[1].is_some());
        assert_ne!(layout.stem_mid[0], layout.stem_mid[1]);
    }
}
