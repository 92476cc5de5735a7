//! Allocation accounting for the steady-state probe reply path.
//!
//! The probe pipeline promises **zero per-tuple heap allocations** once
//! its pooled buffers are warm: replies land in a caller-owned
//! [`ProbeReplySet`] arena, candidate fetch runs through the reply set's
//! pooled envelope buffers, the newly-evaluable predicates are a bitset, and
//! bounce decisions work on pooled binding lists. What remains is a small
//! *per-envelope* constant: the query-only entry point used here derives
//! the query's probe table per call (the eddy passes the plan's).
//!
//! A counting global allocator turns that promise into an assertion: with
//! everything warmed up, probing an envelope of 4N tuples must cost
//! (almost) exactly the same number of allocations as an envelope of N —
//! any per-tuple allocation would scale the count ~4×. Every probe fetches
//! its candidate, and none forms a result (a result inherently allocates
//! its concatenated tuple):
//!
//! * stale probes (stamped at-or-before every build) lose their candidate
//!   to the TimeStamp rule;
//! * fresh probes keep it past both timestamp rules, and a newly-evaluable
//!   selection on the SteM's table rejects it — tested on the (probe
//!   tuple, row) pair, so the rejected candidate is never concatenated.

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

use stems::catalog::{Catalog, QuerySpec, ScanSpec, SourceId, TableDef, TableInstance};
use stems::core::stem::{ProbeReplySet, StemOptions};
use stems::core::{Stem, TupleState};
use stems::types::{
    CmpOp, ColRef, ColumnType, PredId, Predicate, Schema, TableIdx, Timestamp, Tuple, TupleBatch,
    Value,
};

/// R(key, a) ⋈ S(x, y) on R.a = S.x.
fn setup() -> (Catalog, QuerySpec) {
    setup_with(vec![])
}

/// [`setup`] plus `extra` predicates (ids from 1).
fn setup_with(extra: Vec<Predicate>) -> (Catalog, QuerySpec) {
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
        [Predicate::join(
            PredId(0),
            ColRef::new(TableIdx(0), 1),
            CmpOp::Eq,
            ColRef::new(TableIdx(1), 0),
        )]
        .into_iter()
        .chain(extra)
        .collect(),
        None,
    )
    .unwrap();
    (c, q)
}

/// S's SteM (key column 0) over `ROWS` distinct keys `(i, i)`, stamped
/// 1..=ROWS.
fn built_s_stem(rows: usize) -> Stem {
    let mut stem = Stem::new(
        TableIdx(1),
        SourceId(1),
        &[0],
        true,
        false,
        StemOptions::default(),
    );
    let mut ts: Timestamp = 0;
    let batch: TupleBatch = (0..rows as i64)
        .map(|i| Tuple::singleton_of(TableIdx(1), vec![Value::Int(i), Value::Int(i)]))
        .collect();
    let states = vec![TupleState::new(); batch.len()];
    stem.build_batch(&batch, &states, &mut ts);
    stem
}

/// Count allocations across `f`. Deallocations are free by design: the
/// reply path may *return* pooled memory, it just may never take more.
/// Counts are per thread, so the tests of this file cannot see each other
/// or the harness.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

#[test]
fn steady_state_probe_reply_path_is_allocation_free_per_tuple() {
    const ROWS: usize = 4096;
    const SMALL: usize = ROWS / 4;
    let (_c, q) = setup();
    // Int-keyed builds, one distinct key per row, stamped 1..=ROWS.
    let stem = built_s_stem(ROWS);

    // Stale keyed probes: stamped 1, so every probe fetches its one
    // candidate and the TimeStamp rule filters it (ts(probe) > ts(match)
    // fails) — raw_matches > 0, zero results, zero concatenations.
    let mk_probes = |n: usize| -> Vec<Tuple> {
        (0..n as i64)
            .map(|i| {
                Tuple::singleton_of(
                    TableIdx(0),
                    vec![Value::Int(i), Value::Int(i % ROWS as i64)],
                )
                .with_timestamp(TableIdx(0), 1)
            })
            .collect()
    };
    let small = mk_probes(SMALL);
    let small_states = vec![TupleState::new(); SMALL];
    let big = mk_probes(ROWS);
    let big_states = vec![TupleState::new(); ROWS];
    let mut replies = ProbeReplySet::new();

    // Warm-up: size every pooled buffer (scratch, arena) for the largest
    // envelope.
    replies.clear();
    stem.probe_batch_into(&big, &big_states, &q, &mut replies);
    assert_eq!(replies.len(), ROWS);
    assert_eq!(replies.total_results(), 0, "stale probes must form nothing");
    let fetched: usize = replies.iter().map(|(m, _)| m.raw_matches).sum();
    assert_eq!(fetched, ROWS, "every probe must fetch its candidate");

    let (small_allocs, ()) = allocs_during(|| {
        replies.clear();
        stem.probe_batch_into(&small, &small_states, &q, &mut replies);
    });
    assert_eq!(replies.len(), SMALL);
    let (big_allocs, ()) = allocs_during(|| {
        replies.clear();
        stem.probe_batch_into(&big, &big_states, &q, &mut replies);
    });
    assert_eq!(replies.len(), ROWS);

    // Per-envelope constants cancel; a single per-tuple allocation would
    // show up as ≈ 3 × SMALL extra counts on the big envelope.
    assert!(
        big_allocs <= small_allocs + 8,
        "probe reply path allocates per tuple: {SMALL} probes cost \
         {small_allocs} allocations, {ROWS} probes cost {big_allocs}"
    );
}

/// Probes that pass both timestamp rules but whose every candidate fails a
/// newly-evaluable selection on the SteM's own table (`S.y < 0`): the
/// predicates are tested on the (probe tuple, row) pair, so a rejected
/// candidate is never concatenated and costs no allocation.
#[test]
fn candidates_a_selection_rejects_allocate_nothing_per_tuple() {
    const ROWS: usize = 4096;
    const SMALL: usize = ROWS / 4;
    let (_c, q) = setup_with(vec![Predicate::selection(
        PredId(1),
        ColRef::new(TableIdx(1), 1),
        CmpOp::Lt,
        Value::Int(0),
    )]);
    let stem = built_s_stem(ROWS);
    // Stamped after every build: the TimeStamp rule lets each probe's one
    // candidate through, and the selection rejects it.
    let mk_probes = |n: usize| -> Vec<Tuple> {
        (0..n as i64)
            .map(|i| {
                Tuple::singleton_of(TableIdx(0), vec![Value::Int(i), Value::Int(i)])
                    .with_timestamp(TableIdx(0), ROWS as Timestamp + 1)
            })
            .collect()
    };
    let (small, big) = (mk_probes(SMALL), mk_probes(ROWS));
    let (small_states, big_states) = (
        vec![TupleState::new(); SMALL],
        vec![TupleState::new(); ROWS],
    );
    let mut replies = ProbeReplySet::new();

    // Warm-up at the largest envelope; without the selection every probe
    // would join its candidate.
    let (_c, join_only) = setup();
    stem.probe_batch_into(&big, &big_states, &join_only, &mut replies);
    assert_eq!(
        replies.total_results(),
        ROWS,
        "the candidates pass both timestamp rules"
    );
    replies.clear();
    stem.probe_batch_into(&big, &big_states, &q, &mut replies);
    assert_eq!(
        replies.total_results(),
        0,
        "the selection rejects every candidate"
    );
    let fetched: usize = replies.iter().map(|(m, _)| m.raw_matches).sum();
    assert_eq!(fetched, ROWS, "every probe must fetch its candidate");

    let (small_allocs, ()) = allocs_during(|| {
        replies.clear();
        stem.probe_batch_into(&small, &small_states, &q, &mut replies);
    });
    let (big_allocs, ()) = allocs_during(|| {
        replies.clear();
        stem.probe_batch_into(&big, &big_states, &q, &mut replies);
    });
    assert_eq!((replies.len(), replies.total_results()), (ROWS, 0));
    assert!(
        big_allocs <= small_allocs + 8,
        "rejected candidates allocate per tuple: {SMALL} probes cost \
         {small_allocs} allocations, {ROWS} probes cost {big_allocs}"
    );
}
