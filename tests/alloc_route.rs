//! Allocation accounting for the eddy's per-tuple bookkeeping.
//!
//! The routing path promises that nothing it does *per tuple besides the
//! join work* allocates: a metric update by [`MetricId`] is an indexed
//! write plus a series push, and [`router::candidates_into`] fills a
//! buffer the executor owns. A counting global allocator (as in
//! `tests/alloc_probe.rs`) turns both promises into assertions.
//!
//! Counts are per thread, so the two tests cannot see each other or the
//! test harness, and nothing here reads `ExecConfig::default()`, so the
//! result is the same in every `STEMS_*` environment cell.
//!
//! Every branch of the router is exercised, the one that asks an index AM
//! whether a prior prober can bind its lookup columns included: the answer
//! is read off the plan-time probe table in `PlanLayout::links`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // `const` and without a destructor: touching it never allocates.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; `count` only
// updates a thread-local integer and cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract is passed through to `System`.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use stems::catalog::{Catalog, IndexSpec, QuerySpec, ScanSpec, TableDef, TableInstance};
use stems::core::plan::{instantiate, Module, PlanLayout, PlanOptions};
use stems::core::router::{self, Action, NoCandidates};
use stems::core::tuple_state::{CompletionNeed, PriorProber};
use stems::core::TupleState;
use stems::sim::Metrics;
use stems::types::{
    CmpOp, ColRef, ColumnType, PredId, Predicate, Schema, TableIdx, Tuple, TupleBatch, Value,
};

/// Allocations (and reallocations) this thread makes across `f`.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

#[test]
fn bumps_by_id_cost_only_the_series_growth() {
    const N: u64 = 1 << 16;
    let mut m = Metrics::new();
    m.id("before");
    let id = m.id("results");
    m.id("after");
    let (allocs, ()) = allocs_during(|| {
        for t in 0..N {
            m.bump_id(id, t, 1);
        }
    });
    assert_eq!(m.counter("results"), N);
    assert_eq!(m.series("results").map(|s| s.len()), Some(N as usize));
    // The series doubles its buffer as it grows; nothing else may allocate.
    let doublings = N.ilog2() as usize + 1;
    assert!(
        allocs <= doublings,
        "{N} bumps by id cost {allocs} allocations (series growth alone is at most {doublings})"
    );
    // A name is paid for once, at registration: resolving it again and
    // observing through the id are free while the series has room.
    let end = m.id("end");
    m.observe_id(end, N, 1.0);
    let (allocs, ()) = allocs_during(|| {
        assert_eq!(m.id("end"), end);
        m.observe_id(end, N, 2.0);
        m.observe("end", N, 3.0);
    });
    assert_eq!(allocs, 0, "resolving a known name or observing by id");
}

/// `R(key, a) ⋈ S(x, y)` on `R.a = S.x` with a selection on `R.key`; S is
/// reached by an index (`index_on_s`) or a scan, or — with no predicates
/// at all — as a cross product.
fn two_tables(index_on_s: bool, predicates: bool) -> (Catalog, QuerySpec) {
    let mut c = Catalog::new();
    let cols = |a, b| Schema::of(&[(a, ColumnType::Int), (b, ColumnType::Int)]);
    let r = c.add_table(TableDef::new("R", cols("key", "a"))).unwrap();
    let s = c
        .add_table(TableDef::new("S", cols("x", "y")).with_rows(vec![vec![10.into(), 1.into()]]))
        .unwrap();
    c.add_scan(r, ScanSpec::default()).unwrap();
    if index_on_s {
        c.add_index(s, IndexSpec::new(vec![0], 1000)).unwrap();
    } else {
        c.add_scan(s, ScanSpec::default()).unwrap();
    }
    let preds = if predicates {
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
        ]
    } else {
        Vec::new()
    };
    let tables = [(r, "r"), (s, "s")]
        .map(|(source, alias)| TableInstance {
            source,
            alias: alias.into(),
        })
        .to_vec();
    let q = QuerySpec::new(&c, tables, preds, None).unwrap();
    (c, q)
}

/// Triangle query A–B–C–A on column `k`.
fn triangle() -> (Catalog, QuerySpec) {
    let mut c = Catalog::new();
    let tables: Vec<TableInstance> = ["a", "b", "cc"]
        .iter()
        .map(|alias| {
            let def = TableDef::new(&alias.to_uppercase(), Schema::of(&[("k", ColumnType::Int)]));
            let source = c.add_table(def).unwrap();
            c.add_scan(source, ScanSpec::default()).unwrap();
            TableInstance {
                source,
                alias: alias.to_string(),
            }
        })
        .collect();
    let edge = |id, a, b| {
        Predicate::join(
            PredId(id),
            ColRef::new(TableIdx(a), 0),
            CmpOp::Eq,
            ColRef::new(TableIdx(b), 0),
        )
    };
    let preds = vec![edge(0, 0, 1), edge(1, 1, 2), edge(2, 0, 2)];
    let q = QuerySpec::new(&c, tables, preds, None).unwrap();
    (c, q)
}

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

#[test]
fn candidates_into_a_warm_buffer_never_allocates() {
    let built = |t: Tuple| t.with_timestamp(TableIdx(0), 1);
    let r_tuple = || Tuple::singleton_of(TableIdx(0), vec![Value::Int(1), Value::Int(10)]);
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
    let retired = {
        let mut st = TupleState::new();
        st.done.insert(PredId(1));
        st.mark_probed(TableIdx(1));
        st
    };

    let (c, indexed_q) = two_tables(true, true);
    let indexed = instantiate(&c, &indexed_q, &PlanOptions::default()).unwrap();
    // The same plan after a build into SteM_S: its version moved, so a
    // parked prior prober is offered the re-probe.
    let mut rebuilt = instantiate(&c, &indexed_q, &PlanOptions::default()).unwrap();
    let Module::Stem(stem) = &mut rebuilt.0[rebuilt.1.stem_mid[1].unwrap()] else {
        panic!("S has a SteM");
    };
    let row = Tuple::singleton_of(TableIdx(1), vec![Value::Int(10), Value::Int(1)]);
    stem.build_batch(&TupleBatch::single(row), &[TupleState::new()], &mut 0);
    let (c, cross_q) = two_tables(false, false);
    let cross = instantiate(&c, &cross_q, &PlanOptions::default()).unwrap();
    let (c, tri_q) = triangle();
    let tri = instantiate(&c, &tri_q, &PlanOptions::default()).unwrap();
    let chain_tree = [(TableIdx(0), TableIdx(1)), (TableIdx(1), TableIdx(2))];
    let a_tuple = || built(Tuple::singleton_of(TableIdx(0), vec![Value::Int(1)]));

    let cases = [
        Case {
            name: "unbuilt singleton must build first",
            plan: &indexed,
            query: &indexed_q,
            tuple: r_tuple(),
            state: TupleState::new(),
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

    // One buffer for all cases, as the executor keeps one for all tuples;
    // a first pass sizes it for the widest candidate list.
    let mut buf: Vec<Action> = Vec::new();
    let ask = |case: &Case, buf: &mut Vec<Action>| {
        let (modules, layout) = case.plan;
        router::candidates_into(
            modules,
            &[],
            layout,
            case.query,
            &case.tuple,
            &case.state,
            case.probe_edges,
            buf,
        )
    };
    for case in &cases {
        let got = ask(case, &mut buf).map(|()| buf.iter().map(Action::kind).collect::<Vec<_>>());
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
