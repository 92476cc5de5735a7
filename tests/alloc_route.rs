//! Allocation accounting for the eddy's per-tuple bookkeeping.
//!
//! The routing path promises that nothing it does *per tuple besides the
//! join work* allocates: a metric update by [`MetricId`] is an indexed
//! write plus a series push. A counting global allocator (as in
//! `tests/alloc_probe.rs`) turns that promise into an assertion; the
//! router's own half (routing into a warm buffer allocates nothing) is a
//! unit test beside it, `router::tests::route_into_a_warm_buffer_never_allocates`.
//!
//! Counts are per thread, so the test cannot see the test harness, and it
//! builds no executor, so no engine configuration moves its counts.

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

use stems::sim::Metrics;

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
