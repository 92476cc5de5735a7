//! The constraint layer: which modules may a tuple be routed to *right
//! now*? (paper Table 2, routing-policy side.)
//!
//! The router computes the legal candidate set; the
//! [`crate::policy::RoutingPolicy`] picks among candidates. This split is
//! the paper's central separation of concerns: "the SteM BounceBack and
//! Timestamp rules are implemented internally to the AMs and SteMs, and the
//! routing policy implementor need not be aware of them at all" — while
//! BuildFirst / BoundedRepetition / ProbeCompletion live here, so *no*
//! policy can produce wrong answers.
//!
//! BuildFirst is read as "build before any probe": Theorems 1–2 need a
//! singleton's build to precede its first probe (the TimeStamp rule then
//! makes the later-built side generate each result), not every other
//! hop. So an unbuilt singleton is first offered the selections without
//! a UDF that its own instance can evaluate (`pre_build_selects`), and a
//! row that fails one dies before it costs a build, a slot or a
//! timestamp; Build is offered once none is pending. UDF selections keep
//! their adaptive place after the build. Where a row built after its
//! table's EOT would be lost or change what a SteM holds (a SteM-less
//! instance in the plan, Grace deferral, an eviction window), every row
//! builds first. A folded SteM keeps every row: the server builds each
//! scanned row into it once, for queries that select differently, and
//! hands its subscribers the row already built.

use crate::plan::{Module, PlanLayout};
use crate::server::Registry;
use crate::tuple_state::{CompletionNeed, PriorProber, TupleState};
use stems_catalog::QuerySpec;
use stems_types::{PredId, PredSet, TableIdx, TableSet, Tuple, UNBUILT_TS};

/// One legal routing destination for a tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Build into the SteM on the tuple's own table (BuildFirst): before
    /// any probe; only the instance's own selections without a UDF may
    /// come first. A folded SteM's rows arrive built.
    Build { mid: usize, table: TableIdx },
    /// Probe the SteM on `table`.
    ProbeStem { mid: usize, table: TableIdx },
    /// Apply the selection module for `pred`.
    Select { mid: usize, pred: PredId },
    /// Probe an index AM on `table` (prior probers only, §3.3).
    ProbeAm { mid: usize, table: TableIdx },
    /// Leave the dataflow. Offered only when correctness permits it
    /// (optional-completion prior probers, §4.1) — this is the "wait for
    /// the scan instead" arm of index/hash hybridization.
    Drop,
}

impl Action {
    /// The destination module id; `None` for [`Action::Drop`].
    pub(crate) fn mid(&self) -> Option<usize> {
        match self {
            Action::Build { mid, .. }
            | Action::ProbeStem { mid, .. }
            | Action::Select { mid, .. }
            | Action::ProbeAm { mid, .. } => Some(*mid),
            Action::Drop => None,
        }
    }

    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Action::Build { .. } => "build",
            Action::ProbeStem { .. } => "probe_stem",
            Action::Select { .. } => "select",
            Action::ProbeAm { .. } => "probe_am",
            Action::Drop => "drop",
        }
    }
}

/// Why `candidates` returned an empty set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NoCandidates {
    /// The tuple's useful life is over (it has done everything it may do);
    /// remove it from the dataflow. This is the normal fate of most
    /// tuples — results are carried forward by their concatenations.
    Retire,
    /// A prior prober whose completion is still pending: park it until the
    /// completion table's SteM changes (new builds or EOTs).
    Park { table: TableIdx },
}

/// Most index AMs one table instance may have: [`RouteKey`] holds one bit
/// per index AM of the completion table. Checked at plan time.
pub(crate) const MAX_INDEX_AMS: usize = 64;

/// Everything the router reads of one member: the router is a function of
/// this key (and of the plan and the SteMs' versions, which no routing
/// step changes), so members with equal keys get equal decisions. Small
/// and `Copy`: the eddy derives the key of every member it routes and
/// re-derives a decision only when the key differs from the previous
/// member's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RouteKey {
    /// The tables the tuple spans.
    pub(crate) span: TableSet,
    /// An unbuilt singleton: BuildFirst applies.
    unbuilt_singleton: bool,
    /// The predicates the tuple has passed.
    pub(crate) done: PredSet,
    prior_prober: Option<PriorProber>,
    last_probe_version: u64,
    probed_stems: TableSet,
    probed_ams: TableSet,
    /// For a prior prober that has not probed its completion table's AMs:
    /// bit `i` is set iff the tuple can bind the `i`-th index AM of that
    /// table (`PlanLayout::index_mids`). Zero otherwise.
    bindable: u64,
}

impl RouteKey {
    /// The key of one member.
    pub(crate) fn of(
        modules: &[Module],
        layout: &PlanLayout,
        tuple: &Tuple,
        state: &TupleState,
    ) -> RouteKey {
        let mut bindable = 0;
        if let Some(pp) = state.prior_prober {
            let ct = pp.table.as_usize();
            if !state.probed_ams.contains(pp.table) {
                for (i, &mid) in layout.index_mids[ct].iter().enumerate() {
                    if let Module::IndexAm(am) = &modules[mid] {
                        if am.can_bind_linked(&layout.links[ct], tuple) {
                            bindable |= 1 << i;
                        }
                    }
                }
            }
        }
        RouteKey {
            span: tuple.span(),
            unbuilt_singleton: tuple.is_singleton() && tuple.components()[0].ts == UNBUILT_TS,
            done: state.done,
            prior_prober: state.prior_prober,
            last_probe_version: state.last_probe_version,
            probed_stems: state.probed_stems,
            probed_ams: state.probed_ams,
            bindable,
        }
    }
}

/// The SteM an unbuilt singleton of instance `t` must build into before
/// it probes anything (BuildFirst); `None` when `t` has none.
pub(crate) fn build_first(layout: &PlanLayout, t: TableIdx) -> Option<usize> {
    layout.stem_mid[t.as_usize()].filter(|_| layout.build_required[t.as_usize()])
}

/// The `(selection, SM)` pairs an unbuilt singleton of instance `t` may
/// pass before it builds: the selections without a UDF that `t` alone can
/// evaluate, where a row may build after its table's EOT and lose
/// nothing. That takes a private SteM that serves late builds
/// ([`crate::stem::Stem::admits_late_builds`]), and no SteM-less
/// instance in the plan: its unbuilt probers take an EOT as coverage.
pub(crate) fn pre_build_selects<'a>(
    modules: &[Module],
    layout: &'a PlanLayout,
    query: &'a QuerySpec,
    t: TableIdx,
) -> impl Iterator<Item = (PredId, usize)> + 'a {
    let stemless = layout.build_required.iter().any(|&b| !b);
    let own = layout.stem_mid[t.as_usize()].map(|mid| &modules[mid]);
    let late_builds = matches!(own, Some(Module::Stem(stem)) if stem.admits_late_builds());
    let sms = if late_builds && !stemless {
        &layout.sm_mids[..]
    } else {
        &[]
    };
    sms.iter().copied().filter(move |&(pred, _)| {
        let p = query.predicate(pred);
        p.udf_spec().is_none() && p.evaluable_on(TableSet::single(t))
    })
}

/// Compute the candidate actions for a tuple, or the reason there are none.
///
/// `edges`: optional restriction of SteM probes to a fixed set of
/// join-graph edges — used to emulate a *static spanning tree* for the
/// §3.4 experiments. `None` = all edges (dynamic spanning trees).
pub fn candidates(
    modules: &[Module],
    layout: &PlanLayout,
    query: &QuerySpec,
    tuple: &Tuple,
    state: &TupleState,
    edges: Option<&[(TableIdx, TableIdx)]>,
) -> Result<Vec<Action>, NoCandidates> {
    let mut acts = Vec::new();
    let key = RouteKey::of(modules, layout, tuple, state);
    route(modules, &[], layout, query, &key, edges, &mut acts)?;
    Ok(acts)
}

/// The router proper: the candidate list of a member with key `key` into
/// `acts` (cleared first), or the reason there is none.
pub(crate) fn route(
    modules: &[Module],
    shared: &Registry,
    layout: &PlanLayout,
    query: &QuerySpec,
    key: &RouteKey,
    probe_edges: Option<&[(TableIdx, TableIdx)]>,
    acts: &mut Vec<Action>,
) -> Result<(), NoCandidates> {
    acts.clear();
    let span = key.span;

    // BuildFirst (Table 2): an unbuilt singleton from a build-required
    // table builds before anything else — but for its pending pre-build
    // selections, which it is offered instead while any remain.
    if let (true, Some(t)) = (key.unbuilt_singleton, span.iter().next()) {
        if let Some(mid) = build_first(layout, t) {
            for (pred, mid) in pre_build_selects(modules, layout, query, t) {
                if !key.done.contains(pred) {
                    acts.push(Action::Select { mid, pred });
                }
            }
            if acts.is_empty() {
                acts.push(Action::Build { mid, table: t });
            }
            return Ok(());
        }
    }

    // Selections not yet passed and evaluable on the current span.
    for (pred, mid) in &layout.sm_mids {
        if !key.done.contains(*pred) && query.predicate(*pred).evaluable_on(span) {
            acts.push(Action::Select {
                mid: *mid,
                pred: *pred,
            });
        }
    }

    if let Some(pp) = key.prior_prober {
        // ProbeCompletion (Table 2): only the completion table's SteM and
        // AMs are reachable.
        let ct = pp.table;
        // Re-probe the completion SteM, but only if it changed since our
        // last probe (BoundedRepetition).
        if let Some(mid) = layout.stem_mid[ct.as_usize()] {
            if let Some(stem) = modules[mid].stem(shared) {
                if stem.version() > key.last_probe_version {
                    acts.push(Action::ProbeStem { mid, table: ct });
                }
            }
        }
        // Index AMs on the completion table, each at most once, and only
        // if this tuple can bind their lookup columns.
        for (i, &mid) in layout.index_mids[ct.as_usize()].iter().enumerate() {
            if key.bindable & (1 << i) != 0 {
                acts.push(Action::ProbeAm { mid, table: ct });
            }
        }
        match pp.need {
            CompletionNeed::Optional => acts.push(Action::Drop),
            CompletionNeed::Required => {
                if acts.is_empty() {
                    return Err(NoCandidates::Park { table: ct });
                }
            }
        }
        if acts.is_empty() {
            return Err(NoCandidates::Retire);
        }
        return Ok(());
    }

    // SteM probes: adjacent (predicate-linked) tables outside the span;
    // if no predicate links anything (cross product), every remaining
    // table is a candidate.
    let mut frontier = layout.graph.frontier(span);
    if frontier.is_empty() {
        frontier = query.full_span().minus(span);
    }
    for t in frontier.iter() {
        if key.probed_stems.contains(t) {
            continue; // BoundedRepetition: one probe per SteM per tuple.
        }
        if let Some(edges) = probe_edges {
            let allowed = span.iter().any(|s| {
                edges
                    .iter()
                    .any(|(a, b)| (*a == s && *b == t) || (*a == t && *b == s))
            });
            if !allowed {
                continue;
            }
        }
        if let Some(mid) = layout.stem_mid[t.as_usize()] {
            acts.push(Action::ProbeStem { mid, table: t });
        }
    }

    if acts.is_empty() {
        Err(NoCandidates::Retire)
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{instantiate, PlanOptions};
    use crate::stem::{make_scan_eot_row, BuildResult};
    use crate::tuple_state::{CompletionNeed, PriorProber};
    use stems_catalog::{Catalog, IndexSpec, ScanSpec, TableDef, TableInstance};
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
            .add_table(
                TableDef::new(
                    "S",
                    Schema::of(&[("x", ColumnType::Int), ("y", ColumnType::Int)]),
                )
                .with_rows(vec![vec![10.into(), 1.into()]]),
            )
            .unwrap();
        c.add_scan(r, ScanSpec::default()).unwrap();
        if index_on_s {
            c.add_index(s, IndexSpec::new(vec![0], 1000)).unwrap();
        } else {
            c.add_scan(s, ScanSpec::default()).unwrap();
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

    fn plan(c: &Catalog, q: &QuerySpec) -> (Vec<Module>, PlanLayout) {
        instantiate(c, q, &PlanOptions::default()).unwrap()
    }

    /// Shadows [`super::candidates`] for every test below: each tuple ×
    /// state they build is also routed into a dirty buffer, under the
    /// edges asked for, under no restriction, under every graph edge and
    /// under none — and the buffer must agree with the owned list (or the
    /// `NoCandidates` reason) each time.
    fn candidates(
        modules: &[Module],
        layout: &PlanLayout,
        query: &QuerySpec,
        tuple: &Tuple,
        state: &TupleState,
        probe_edges: Option<&[(TableIdx, TableIdx)]>,
    ) -> Result<Vec<Action>, NoCandidates> {
        let every: Vec<(TableIdx, TableIdx)> =
            layout.graph.edges().iter().map(|e| (e.0, e.1)).collect();
        let mut buf = vec![Action::Drop; 3];
        for edges in [probe_edges, None, Some(&every[..]), Some(&[][..])] {
            let owned = super::candidates(modules, layout, query, tuple, state, edges);
            let key = RouteKey::of(modules, layout, tuple, state);
            let filled =
                route(modules, &[], layout, query, &key, edges, &mut buf).map(|()| buf.clone());
            assert_eq!(owned, filled, "probe_edges {edges:?}");
        }
        super::candidates(modules, layout, query, tuple, state, probe_edges)
    }

    /// Triangle query A–B–C–A on column `k`.
    fn triangle() -> (Catalog, QuerySpec) {
        let mut c = Catalog::new();
        let schema = Schema::of(&[("k", ColumnType::Int)]);
        let ids: Vec<_> = ["A", "B", "C"]
            .iter()
            .map(|n| {
                let id = c.add_table(TableDef::new(n, schema.clone())).unwrap();
                c.add_scan(id, ScanSpec::default()).unwrap();
                id
            })
            .collect();
        let q = QuerySpec::new(
            &c,
            ids.iter()
                .zip(["a", "b", "cc"])
                .map(|(s, al)| TableInstance {
                    source: *s,
                    alias: al.into(),
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
        (c, q)
    }

    /// The router walks the graph the plan built; it must be the query's.
    #[test]
    fn layout_carries_the_querys_join_graph() {
        let cross = {
            let (c, q) = setup(false);
            let q = QuerySpec::new(&c, q.tables, vec![], None).unwrap();
            (c, q)
        };
        for (c, q) in [setup(true), setup(false), triangle(), cross] {
            let (_m, l) = plan(&c, &q);
            assert_eq!(l.graph.edges(), q.join_graph().edges());
            assert_eq!(l.graph.n_vertices(), q.n_tables());
        }
    }

    fn r_tuple(key: i64, a: i64) -> Tuple {
        Tuple::singleton_of(TableIdx(0), vec![Value::Int(key), Value::Int(a)])
    }

    /// An unbuilt singleton builds before it probes anything: first its
    /// own instance's pending selections without a UDF, then Build, and
    /// nothing else.
    #[test]
    fn unbuilt_singleton_must_build_first() {
        let (c, q) = setup(true);
        let sieve = stems_types::UdfSpec::hash_sieve(500, 10);
        let mut preds = q.predicates.clone();
        preds.push(Predicate::udf(
            PredId(2),
            ColRef::new(TableIdx(0), 1),
            sieve,
        ));
        let q = QuerySpec::new(&c, q.tables, preds, None).unwrap();
        let (m, l) = plan(&c, &q);
        let (r_stem, s_stem) = (l.stem_mid[0].unwrap(), l.stem_mid[1].unwrap());
        let sm = l.sm_mids[0].1;
        let r = r_tuple(1, 10);
        let build = |mid, t| Ok(vec![Action::Build { mid, table: t }]);
        let select = Ok(vec![Action::Select {
            mid: sm,
            pred: PredId(1),
        }]);
        assert_eq!(candidates(&m, &l, &q, &r, &TupleState::new(), None), select);
        let mut passed = TupleState::new();
        passed.done.insert(PredId(1));
        assert_eq!(
            candidates(&m, &l, &q, &r, &passed, None),
            build(r_stem, TableIdx(0))
        );
        // S has no selection of its own: it builds at once.
        let s = Tuple::singleton_of(TableIdx(1), vec![Value::Int(10), Value::Int(1)]);
        assert_eq!(
            candidates(&m, &l, &q, &s, &TupleState::new(), None),
            build(s_stem, TableIdx(1))
        );
    }

    /// Where a row built after its table's EOT would be lost, every row
    /// builds first: beside a SteM-less instance, under Grace deferral
    /// and under an eviction window.
    #[test]
    fn every_row_builds_first_where_a_late_build_is_unsafe() {
        let (c, q) = setup(true);
        let mut preds = q.predicates.clone();
        preds.push(Predicate::selection(
            PredId(2),
            ColRef::new(TableIdx(1), 1),
            CmpOp::Gt,
            Value::Int(0),
        ));
        let q = QuerySpec::new(&c, q.tables, preds, None).unwrap();
        let s = Tuple::singleton_of(TableIdx(1), vec![Value::Int(10), Value::Int(1)]);
        let kinds = |opts: &PlanOptions, t: &Tuple| {
            let (m, l) = instantiate(&c, &q, opts).unwrap();
            let acts = candidates(&m, &l, &q, t, &TupleState::new(), None).unwrap();
            acts.iter().map(Action::kind).collect::<Vec<_>>()
        };
        let stems = |default_stem| PlanOptions {
            default_stem,
            ..PlanOptions::default()
        };
        let grace = stems(crate::stem::StemOptions {
            deferred_bounce: true,
            ..Default::default()
        });
        let window = stems(crate::stem::StemOptions {
            eviction_window: Some(4),
            ..Default::default()
        });
        let stemless_r = PlanOptions {
            no_stem: TableSet::single(TableIdx(0)),
            ..PlanOptions::default()
        };
        assert_eq!(kinds(&PlanOptions::default(), &s), ["select"]);
        assert_eq!(kinds(&PlanOptions::default(), &r_tuple(1, 10)), ["select"]);
        for opts in [&grace, &window] {
            assert_eq!(kinds(opts, &s), ["build"], "{opts:?}");
            assert_eq!(kinds(opts, &r_tuple(1, 10)), ["build"], "{opts:?}");
        }
        assert_eq!(kinds(&stemless_r, &s), ["build"]);
    }

    #[test]
    fn built_singleton_gets_selects_and_probes() {
        let (c, q) = setup(true);
        let (m, l) = plan(&c, &q);
        let r = r_tuple(1, 10).with_timestamp(TableIdx(0), 1);
        let acts = candidates(&m, &l, &q, &r, &TupleState::new(), None).unwrap();
        let kinds: Vec<_> = acts.iter().map(Action::kind).collect();
        assert!(kinds.contains(&"select"));
        assert!(kinds.contains(&"probe_stem"));
        assert!(!kinds.contains(&"probe_am"), "AMs only after a SteM bounce");
    }

    #[test]
    fn probed_stem_not_offered_again() {
        let (c, q) = setup(true);
        let (m, l) = plan(&c, &q);
        let r = r_tuple(1, 10).with_timestamp(TableIdx(0), 1);
        let mut st = TupleState::new();
        st.done.insert(PredId(1));
        st.mark_probed(TableIdx(1));
        match candidates(&m, &l, &q, &r, &st, None) {
            Err(NoCandidates::Retire) => {}
            other => panic!("expected retire, got {other:?}"),
        }
    }

    #[test]
    fn required_prior_prober_goes_to_am_then_parks() {
        let (c, q) = setup(true);
        let (m, l) = plan(&c, &q);
        let r = r_tuple(1, 10).with_timestamp(TableIdx(0), 1);
        let mut st = TupleState::new();
        st.done.insert(PredId(1));
        st.mark_probed(TableIdx(1));
        st.prior_prober = Some(PriorProber {
            table: TableIdx(1),
            need: CompletionNeed::Required,
        });
        let acts = candidates(&m, &l, &q, &r, &st, None).unwrap();
        assert_eq!(acts.len(), 1);
        assert!(matches!(
            acts[0],
            Action::ProbeAm {
                table: TableIdx(1),
                ..
            }
        ));
        assert!(!acts.contains(&Action::Drop));
        // After probing the AM (and with the stem unchanged): park.
        st.mark_am_probed(TableIdx(1));
        match candidates(&m, &l, &q, &r, &st, None) {
            Err(NoCandidates::Park { table: TableIdx(1) }) => {}
            other => panic!("expected park, got {other:?}"),
        }
    }

    #[test]
    fn optional_prior_prober_may_drop() {
        let (c, q) = setup(true);
        let (m, l) = plan(&c, &q);
        let r = r_tuple(1, 10).with_timestamp(TableIdx(0), 1);
        let mut st = TupleState::new();
        st.done.insert(PredId(1));
        st.mark_probed(TableIdx(1));
        st.prior_prober = Some(PriorProber {
            table: TableIdx(1),
            need: CompletionNeed::Optional,
        });
        let acts = candidates(&m, &l, &q, &r, &st, None).unwrap();
        assert!(acts.contains(&Action::Drop));
        assert!(acts.iter().any(|a| matches!(a, Action::ProbeAm { .. })));
        // ProbeCompletion: no other SteM may be probed.
        assert!(!acts.iter().any(|a| matches!(
            a,
            Action::ProbeStem {
                table: TableIdx(0),
                ..
            }
        )));
    }

    #[test]
    fn reprobe_offered_only_after_stem_change() {
        let (c, q) = setup(true);
        let (mut m, l) = plan(&c, &q);
        let r = r_tuple(1, 10).with_timestamp(TableIdx(0), 1);
        let mut st = TupleState::new();
        st.done.insert(PredId(1));
        st.mark_probed(TableIdx(1));
        st.mark_am_probed(TableIdx(1));
        st.prior_prober = Some(PriorProber {
            table: TableIdx(1),
            need: CompletionNeed::Required,
        });
        st.last_probe_version = 0;
        // Unchanged stem: park.
        assert!(matches!(
            candidates(&m, &l, &q, &r, &st, None),
            Err(NoCandidates::Park { .. })
        ));
        // Build an EOT into SteM_S: version bumps, re-probe offered.
        let smid = l.stem_mid[1].unwrap();
        if let Module::Stem(stem) = &mut m[smid] {
            let eot = Tuple::singleton(TableIdx(1), make_scan_eot_row(2));
            assert_eq!(
                crate::stem::testkit::build_one(stem, &eot, &TupleState::new(), 1),
                BuildResult::Eot
            );
        }
        let acts = candidates(&m, &l, &q, &r, &st, None).unwrap();
        assert!(matches!(
            acts[0],
            Action::ProbeStem {
                table: TableIdx(1),
                ..
            }
        ));
    }

    /// The router is a function of the member's key: members with equal
    /// keys get equal outcomes whatever their values. What the router does
    /// read of a value is in the key: a ProbeCompletion member with a NULL
    /// join key cannot bind the completion table's index AM, so its key
    /// differs from a bound member's, and it parks where that one probes
    /// the AM.
    #[test]
    fn members_with_equal_keys_get_equal_outcomes() {
        let (c, q) = setup(true);
        let (m, l) = plan(&c, &q);
        let built = |key: i64, a: Value| {
            Tuple::singleton_of(TableIdx(0), vec![Value::Int(key), a])
                .with_timestamp(TableIdx(0), key as u64)
        };
        let prober = |need| {
            let mut st = TupleState::new();
            st.done.insert(PredId(1));
            st.mark_probed(TableIdx(1));
            st.prior_prober = Some(PriorProber {
                table: TableIdx(1),
                need,
            });
            st
        };
        let (required, optional) = (
            prober(CompletionNeed::Required),
            prober(CompletionNeed::Optional),
        );
        let members = [
            (r_tuple(1, 10), TupleState::new()),
            (r_tuple(2, 11), TupleState::new()),
            (built(3, Value::Int(10)), TupleState::new()),
            (built(4, Value::Int(12)), TupleState::new()),
            (built(5, Value::Int(10)), required.clone()),
            (built(6, Value::Int(13)), required.clone()),
            (built(7, Value::Null), required.clone()),
            (built(8, Value::Null), required),
            (built(9, Value::Int(14)), optional.clone()),
            (built(10, Value::Null), optional.clone()),
            (built(11, Value::Null), optional),
        ];
        let outcome = |(t, st): &(Tuple, TupleState)| candidates(&m, &l, &q, t, st, None);
        let key = |(t, st): &(Tuple, TupleState)| RouteKey::of(&m, &l, t, st);
        let mut equal_pairs = 0;
        for (i, a) in members.iter().enumerate() {
            for b in &members[i + 1..] {
                if key(a) == key(b) {
                    assert_eq!(outcome(a), outcome(b), "{} and {}", a.0, b.0);
                    equal_pairs += 1;
                }
            }
        }
        assert_eq!(equal_pairs, 5);
        let am = |acts: &[Action]| acts.iter().any(|a| matches!(a, Action::ProbeAm { .. }));
        assert_ne!(key(&members[5]), key(&members[6]));
        assert!(am(&outcome(&members[5]).unwrap()));
        assert_eq!(
            outcome(&members[6]),
            Err(NoCandidates::Park { table: TableIdx(1) })
        );
        assert_ne!(key(&members[8]), key(&members[9]));
        assert!(am(&outcome(&members[8]).unwrap()));
        assert_eq!(outcome(&members[9]), Ok(vec![Action::Drop]));
    }

    #[test]
    fn probe_edges_restrict_spanning_tree() {
        // Restricting the triangle to edges (0,1),(1,2) forbids 0–2.
        let (c, q) = triangle();
        let (m, l) = plan(&c, &q);
        let a =
            Tuple::singleton_of(TableIdx(0), vec![Value::Int(1)]).with_timestamp(TableIdx(0), 1);
        // Unrestricted: both SteM_B and SteM_C are candidates.
        let acts = candidates(&m, &l, &q, &a, &TupleState::new(), None).unwrap();
        assert_eq!(acts.len(), 2);
        // Restricted to the chain tree: only SteM_B.
        let tree = vec![(TableIdx(0), TableIdx(1)), (TableIdx(1), TableIdx(2))];
        let acts = candidates(&m, &l, &q, &a, &TupleState::new(), Some(&tree)).unwrap();
        assert_eq!(acts.len(), 1);
        assert!(matches!(
            acts[0],
            Action::ProbeStem {
                table: TableIdx(1),
                ..
            }
        ));
    }

    #[test]
    fn cross_product_probes_offered_without_predicates() {
        let (c, q) = setup(false);
        let q = QuerySpec::new(&c, q.tables, vec![], None).unwrap();
        let (m, l) = plan(&c, &q);
        let r = r_tuple(1, 10).with_timestamp(TableIdx(0), 1);
        let acts = candidates(&m, &l, &q, &r, &TupleState::new(), None).unwrap();
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::ProbeStem {
                table: TableIdx(1),
                ..
            }
        )));
    }

    /// The eddy keeps one candidate buffer for all its members: routing
    /// into a warm buffer allocates nothing, on every branch of the router
    /// — the one that asks an index AM whether a prior prober can bind its
    /// lookup columns included (the answer is read off the plan-time probe
    /// table in `PlanLayout::links`).
    #[test]
    fn route_into_a_warm_buffer_never_allocates() {
        use crate::test_alloc::allocs_during;

        /// One routing question and the answer it must get.
        struct Case<'a> {
            name: &'static str,
            plan: &'a (Vec<Module>, PlanLayout),
            query: &'a QuerySpec,
            tuple: Tuple,
            state: TupleState,
            probe_edges: Option<&'a [(TableIdx, TableIdx)]>,
            expect: Result<Vec<&'static str>, NoCandidates>,
        }

        let built = |t: Tuple| t.with_timestamp(TableIdx(0), 1);
        let r_tuple = || r_tuple(1, 10);
        // A prior prober bounced by S's SteM and not yet sent to S's index:
        // the router asks the index AM whether the tuple can bind it.
        let bounced = |need| {
            let mut st = TupleState::new();
            st.done.insert(PredId(1));
            st.mark_probed(TableIdx(1));
            st.prior_prober = Some(PriorProber {
                table: TableIdx(1),
                need,
            });
            st
        };
        // The same once it has probed the index.
        let prior_prober = |need| {
            let mut st = bounced(need);
            st.mark_am_probed(TableIdx(1));
            st
        };
        let selected = {
            let mut st = TupleState::new();
            st.done.insert(PredId(1));
            st
        };
        let retired = {
            let mut st = TupleState::new();
            st.done.insert(PredId(1));
            st.mark_probed(TableIdx(1));
            st
        };

        let (c, indexed_q) = setup(true);
        let indexed = plan(&c, &indexed_q);
        // The same plan after a build into SteM_S: its version moved, so a
        // parked prior prober is offered the re-probe.
        let mut rebuilt = plan(&c, &indexed_q);
        let Module::Stem(stem) = &mut rebuilt.0[rebuilt.1.stem_mid[1].unwrap()] else {
            panic!("S has a SteM");
        };
        let row = Tuple::singleton_of(TableIdx(1), vec![Value::Int(10), Value::Int(1)]);
        crate::stem::testkit::build_one(stem, &row, &TupleState::new(), 1);
        let (c, cross_q) = setup(false);
        let cross_q = QuerySpec::new(&c, cross_q.tables, vec![], None).unwrap();
        let cross = plan(&c, &cross_q);
        let (c, tri_q) = triangle();
        let tri = plan(&c, &tri_q);
        let chain_tree = [(TableIdx(0), TableIdx(1)), (TableIdx(1), TableIdx(2))];
        let a_tuple = || built(Tuple::singleton_of(TableIdx(0), vec![Value::Int(1)]));

        let cases = [
            Case {
                name: "unbuilt singleton selects first",
                plan: &indexed,
                query: &indexed_q,
                tuple: r_tuple(),
                state: TupleState::new(),
                probe_edges: None,
                expect: Ok(vec!["select"]),
            },
            Case {
                name: "unbuilt singleton past its selections builds",
                plan: &indexed,
                query: &indexed_q,
                tuple: r_tuple(),
                state: selected.clone(),
                probe_edges: None,
                expect: Ok(vec!["build"]),
            },
            Case {
                name: "built singleton gets selects and probes",
                plan: &indexed,
                query: &indexed_q,
                tuple: built(r_tuple()),
                state: TupleState::new(),
                probe_edges: None,
                expect: Ok(vec!["select", "probe_stem"]),
            },
            Case {
                name: "everything done retires",
                plan: &indexed,
                query: &indexed_q,
                tuple: built(r_tuple()),
                state: retired,
                probe_edges: None,
                expect: Err(NoCandidates::Retire),
            },
            Case {
                name: "required prior prober that can bind the index probes it",
                plan: &indexed,
                query: &indexed_q,
                tuple: built(r_tuple()),
                state: bounced(CompletionNeed::Required),
                probe_edges: None,
                expect: Ok(vec!["probe_am"]),
            },
            Case {
                name: "optional prior prober may probe the index or drop",
                plan: &indexed,
                query: &indexed_q,
                tuple: built(r_tuple()),
                state: bounced(CompletionNeed::Optional),
                probe_edges: None,
                expect: Ok(vec!["probe_am", "drop"]),
            },
            Case {
                name: "required prior prober, AM probed, SteM unchanged, parks",
                plan: &indexed,
                query: &indexed_q,
                tuple: built(r_tuple()),
                state: prior_prober(CompletionNeed::Required),
                probe_edges: None,
                expect: Err(NoCandidates::Park { table: TableIdx(1) }),
            },
            Case {
                name: "required prior prober re-probes a changed SteM",
                plan: &rebuilt,
                query: &indexed_q,
                tuple: built(r_tuple()),
                state: prior_prober(CompletionNeed::Required),
                probe_edges: None,
                expect: Ok(vec!["probe_stem"]),
            },
            Case {
                name: "optional prior prober may drop",
                plan: &indexed,
                query: &indexed_q,
                tuple: built(r_tuple()),
                state: prior_prober(CompletionNeed::Optional),
                probe_edges: None,
                expect: Ok(vec!["drop"]),
            },
            Case {
                name: "cross product probes every other table",
                plan: &cross,
                query: &cross_q,
                tuple: built(r_tuple()),
                state: TupleState::new(),
                probe_edges: None,
                expect: Ok(vec!["probe_stem"]),
            },
            Case {
                name: "triangle, dynamic spanning trees",
                plan: &tri,
                query: &tri_q,
                tuple: a_tuple(),
                state: TupleState::new(),
                probe_edges: None,
                expect: Ok(vec!["probe_stem", "probe_stem"]),
            },
            Case {
                name: "triangle, static chain tree",
                plan: &tri,
                query: &tri_q,
                tuple: a_tuple(),
                state: TupleState::new(),
                probe_edges: Some(&chain_tree),
                expect: Ok(vec!["probe_stem"]),
            },
        ];

        // One buffer for all cases, as the executor keeps one for all
        // members; a first pass sizes it for the widest candidate list.
        // Each call derives the member's key, as the eddy does.
        let mut buf: Vec<Action> = Vec::new();
        let ask = |case: &Case, buf: &mut Vec<Action>| {
            let (modules, layout) = case.plan;
            let key = RouteKey::of(modules, layout, &case.tuple, &case.state);
            route(
                modules,
                &[],
                layout,
                case.query,
                &key,
                case.probe_edges,
                buf,
            )
        };
        for case in &cases {
            let got =
                ask(case, &mut buf).map(|()| buf.iter().map(Action::kind).collect::<Vec<_>>());
            assert_eq!(got, case.expect, "{}", case.name);
        }
        for case in &cases {
            let (allocs, oks) =
                allocs_during(|| (0..100).filter(|_| ask(case, &mut buf).is_ok()).count());
            assert_eq!(
                oks,
                if case.expect.is_ok() { 100 } else { 0 },
                "{}",
                case.name
            );
            assert_eq!(allocs, 0, "{}: 100 calls into a warm buffer", case.name);
        }
    }
}
