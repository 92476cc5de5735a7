//! The crate's single doorway to synchronization primitives: a
//! zero-cost re-export of `std::sync`, plus the crate's poison policy.
//!
//! `stems-lint` enforces the funnel: no `std::sync` primitive imports
//! outside this module, and no `.lock().unwrap()` outside the poison
//! helpers below. The poison policy is uniform across the crate:
//!
//! * [`lock_ok`] — shrug the poison off and keep the data. For state
//!   that is updated atomically with respect to panics — today the
//!   runtime's executor lanes, each holding only a `&mut` to its item:
//!   the value behind the lock is still structurally valid, and
//!   propagating poison would only turn one panic into a cascade.
//! * [`lock_recover`] — clear the poison mark and run a caller-supplied
//!   repair first. For state that may be mid-mutation when its holder
//!   dies — today the verdict memo's shards ([`crate::memo`]): the repair
//!   discards the half-written cache, which is pure performance state.

pub use std::sync::atomic;
pub use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Lock `mutex`, shrugging off poison and keeping the data as-is. See
/// the module docs for when this is the right recovery.
pub fn lock_ok<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Lock `mutex`; on poison, clear the mark, run `repair` on the data,
/// and hand back the repaired guard. `repair` is not called on the
/// clean path.
pub fn lock_recover<'a, T: ?Sized>(
    mutex: &'a Mutex<T>,
    repair: impl FnOnce(&mut T),
) -> MutexGuard<'a, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => {
            mutex.clear_poison();
            let mut guard = poisoned.into_inner();
            repair(&mut guard);
            guard
        }
    }
}
