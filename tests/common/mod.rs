//! A counting global allocator for the allocation suites
//! (`tests/alloc_*.rs`), each of which declares `mod common;`.
//!
//! Counts are per thread: tests running beside the measuring one, and
//! the test harness, are not counted into it.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // `const` and without a destructor: touching them never allocates.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static FREES: Cell<usize> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<usize>>) {
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; `bump` only
// updates a thread-local integer and cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        // SAFETY: the caller's contract is passed through to `System`.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES);
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCS);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(allocations, frees)` this thread makes across `f`; a reallocation
/// counts as an allocation.
pub fn counted<R>(f: impl FnOnce() -> R) -> ((usize, usize), R) {
    let before = (ALLOCS.with(Cell::get), FREES.with(Cell::get));
    let out = f();
    let allocs = ALLOCS.with(Cell::get) - before.0;
    let frees = FREES.with(Cell::get) - before.1;
    ((allocs, frees), out)
}
