//! Allocation accounting for the build path and for teardown.
//!
//! A store addresses its rows by slot: an index entry is an integer in a
//! flat per-slot column, not a heap block per key, and the dedup filter
//! and the build-timestamp column are more such columns. So building N
//! rows may allocate only for *growth* — a logarithmic number of
//! reallocations of a few vectors and tables — and dropping what was
//! built frees only those, however many distinct keys it indexed. A
//! counting global allocator (as in `tests/alloc_probe.rs`) turns that
//! into assertions; a per-key bucket or position list anywhere on the
//! path shows as thousands of counts against a bound of 128.
//!
//! One `#[test]` on purpose: the counters are process-wide, and a second
//! test running beside this one would be counted into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static FREES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` unchanged; the counters are
// plain atomics and cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract is passed through to `System`.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use std::sync::Arc;
use stems::catalog::SourceId;
use stems::core::stem::{BuildResult, StemOptions};
use stems::core::{ShardedStem, TupleState};
use stems::storage::StoreKind;
use stems::types::{Row, TableIdx, Timestamp, Tuple, TupleBatch, Value};

/// `(allocations, frees)` across `f`.
fn counted<R>(f: impl FnOnce() -> R) -> ((usize, usize), R) {
    let before = (
        ALLOCS.load(Ordering::Relaxed),
        FREES.load(Ordering::Relaxed),
    );
    let out = f();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before.0;
    let frees = FREES.load(Ordering::Relaxed) - before.1;
    ((allocs, frees), out)
}

const ROWS: usize = 4096;
/// Growth only: a few vectors and tables, each doubling ~12 times.
const GROWTH: usize = 128;

#[test]
fn building_and_dropping_allocate_for_growth_not_per_key() {
    // Distinct keys in both indexed columns: the worst case for anything
    // that keeps a block per key.
    let rows: Vec<Arc<Row>> = (0..ROWS as i64)
        .map(|i| Row::shared(vec![Value::Int(i), Value::Int(-i)]))
        .collect();
    let kinds = [
        StoreKind::List,
        StoreKind::Hash,
        StoreKind::Adaptive { threshold: 128 },
    ];
    let [_, hash, adaptive] = kinds.map(|kind| {
        let mut store = kind.build(&[0, 1]);
        // The test co-owns the rows, so neither the batch handed over nor
        // the rows themselves are the store's to allocate or free.
        let batch = rows.clone();
        let ((allocs, _), ()) = counted(|| store.insert_batch(batch));
        assert_eq!(store.len(), ROWS);
        assert!(
            allocs <= GROWTH,
            "{kind:?}: inserting {ROWS} rows took {allocs} allocations"
        );
        let ((_, frees), ()) = counted(|| drop(store));
        assert!(
            frees <= GROWTH,
            "{kind:?}: dropping a store of {ROWS} rows took {frees} frees"
        );
        allocs
    });
    // One batch path, and indexing the slab in place grows the same tables
    // through the same sizes as indexing from row 0.
    assert!(
        adaptive <= hash,
        "Adaptive took {adaptive} allocations, Hash {hash}"
    );

    // The SteM around the store adds the dedup filter and the timestamp
    // column — more per-slot columns, so more growth, not more per-row
    // blocks. What a build must allocate per row is its bounce-back: the
    // stamped copy of the tuple (one component vector).
    let mut stem = ShardedStem::new(
        TableIdx(0),
        SourceId(0),
        &[0, 1],
        true,
        false,
        StemOptions::default(),
    );
    let batch: TupleBatch = rows
        .iter()
        .map(|r| Tuple::singleton(TableIdx(0), r.clone()))
        .collect();
    let states = vec![TupleState::new(); ROWS];
    let mut ts: Timestamp = 0;
    let ((allocs, _), results) = counted(|| stem.build_batch(&batch, &states, &mut ts));
    assert!(results.iter().all(|r| matches!(r, BuildResult::Fresh(_))));
    assert_eq!((stem.len(), ts), (ROWS, ROWS as Timestamp));
    assert!(
        allocs <= ROWS + 2 * GROWTH,
        "building one envelope of {ROWS} fresh rows took {allocs} allocations"
    );
}
