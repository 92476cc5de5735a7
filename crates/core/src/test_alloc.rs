//! Test-only: a counting global allocator for this crate's unit-test
//! binary, so in-crate tests can hold private paths (the eddy's unpark
//! partition, its wave pool) to "this allocates nothing". Counts are per
//! thread: tests running beside the measuring one are not counted into it.

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
    // SAFETY: the caller's contract is passed through to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: the caller's contract is passed through to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
    // SAFETY: the caller's contract is passed through to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    // SAFETY: the caller's contract is passed through to `System`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations (and reallocations) this thread makes across `f`.
pub(crate) fn allocs_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}
