//! Allocation accounting for the steady-state probe reply path.
//!
//! The probe pipeline promises **zero per-tuple heap allocations** once
//! its pooled buffers are warm: replies land in a caller-owned
//! [`ProbeReplySet`] arena, candidate fetch runs through the pooled
//! `ProbeScratch`, the newly-evaluable predicates are a bitset, and
//! bounce decisions work on pooled binding lists. What remains is a small
//! *per-envelope* constant: the query-only entry point used here derives
//! the query's probe table per call (the eddy passes the plan's).
//!
//! A counting global allocator turns that promise into an assertion: with
//! everything warmed up, probing an envelope of 4N stale tuples must cost
//! (almost) exactly the same number of allocations as an envelope of N —
//! any per-tuple allocation would scale the count ~4×. Probes are stale
//! (stamped at-or-before every build) so every candidate is fetched and
//! then timestamp-filtered: the fetch/reply plumbing is exercised, while
//! result formation — which inherently allocates the concatenated tuple —
//! stays out of the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use stems::catalog::{Catalog, QuerySpec, ScanSpec, SourceId, TableDef, TableInstance};
use stems::core::stem::{ProbeReplySet, StemOptions};
use stems::core::{ShardedStem, TupleState};
use stems::types::{
    CmpOp, ColRef, ColumnType, PredId, Predicate, Schema, TableIdx, Timestamp, Tuple, TupleBatch,
    Value,
};

fn setup() -> (Catalog, QuerySpec) {
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
        vec![Predicate::join(
            PredId(0),
            ColRef::new(TableIdx(0), 1),
            CmpOp::Eq,
            ColRef::new(TableIdx(1), 0),
        )],
        None,
    )
    .unwrap();
    (c, q)
}

/// Count allocations across `f`. Deallocations are free by design: the
/// reply path may *return* pooled memory, it just may never take more.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

#[test]
fn steady_state_probe_reply_path_is_allocation_free_per_tuple() {
    const ROWS: usize = 4096;
    const SMALL: usize = ROWS / 4;
    let (_c, q) = setup();
    let mut stem = ShardedStem::new(
        TableIdx(1),
        SourceId(1),
        &[0],
        true,
        false,
        StemOptions::default(),
    );
    // Int-keyed builds, one distinct key per row, stamped 1..=ROWS.
    let mut ts: Timestamp = 0;
    let batch: TupleBatch = (0..ROWS as i64)
        .map(|i| Tuple::singleton_of(TableIdx(1), vec![Value::Int(i), Value::Int(i)]))
        .collect();
    let states = vec![TupleState::new(); batch.len()];
    stem.build_batch(&batch, &states, &mut ts);

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
