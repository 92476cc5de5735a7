//! A counting global allocator (as `tests/alloc_probe.rs` uses): two
//! relaxed adds per allocation, installed in every run, so it costs both
//! sides of a comparison the same.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

pub struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);
static COUNT: AtomicU64 = AtomicU64::new(0);

fn note(size: usize) {
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    COUNT.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }
}

/// `(bytes requested, allocation calls)` since process start.
pub fn totals() -> (u64, u64) {
    (BYTES.load(Ordering::Relaxed), COUNT.load(Ordering::Relaxed))
}

/// Bytes requested and allocation calls made while `f` ran (all threads).
pub fn during<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    let (b0, c0) = totals();
    let out = f();
    let (b1, c1) = totals();
    (b1 - b0, c1 - c0, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_bytes_and_calls_of_the_measured_closure() {
        // Other test threads may allocate concurrently, so assert floors.
        let (bytes, calls, v) = during(|| Vec::<u8>::with_capacity(4096));
        assert!(bytes >= 4096, "4096-byte allocation counted as {bytes}");
        assert!(calls >= 1);
        drop(v);
        let (bytes, _, ()) = during(|| {
            let mut v = Vec::<u64>::with_capacity(8);
            v.extend(0..8);
            v.reserve(1024);
            std::hint::black_box(&v);
        });
        assert!(bytes >= 64 + 8 * 1032, "realloc growth counted as {bytes}");
    }
}
