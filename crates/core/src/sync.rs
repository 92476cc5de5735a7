//! The crate's one lock: the only code that names a `std::sync` lock or
//! guard.
//!
//! `clippy.toml` bans those types everywhere else, and [`Lock`] has no
//! `lock()`: its only accessors carry the crate's poison policy, so a
//! poison-blind `.lock().unwrap()` cannot be written outside this file.
//!
//! * [`Lock::lock_ok`] — shrug the poison off and keep the data. For
//!   state that is updated atomically with respect to panics — today the
//!   runtime's executor lanes, each holding only a `&mut` to its item:
//!   the value behind the lock is still structurally valid, and
//!   propagating poison would only turn one panic into a cascade.
//! * [`Lock::lock_recover`] — clear the poison mark and run a
//!   caller-supplied repair first. For state that may be mid-mutation
//!   when its holder dies — today the verdict memo ([`crate::memo`]): the
//!   repair discards the half-written cache, which is pure performance
//!   state.
#![allow(clippy::disallowed_types)]

use std::sync::{Mutex, MutexGuard, PoisonError};

/// A mutex reachable only through the poison policy above.
#[derive(Default)]
pub(crate) struct Lock<T: ?Sized>(Mutex<T>);

impl<T> Lock<T> {
    pub(crate) fn new(value: T) -> Lock<T> {
        Lock(Mutex::new(value))
    }
}

impl<T: ?Sized> Lock<T> {
    /// Lock, shrugging off poison and keeping the data as-is.
    pub(crate) fn lock_ok(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Lock; on poison, clear the mark, run `repair` on the data, and
    /// hand back the repaired guard. `repair` is not called on the clean
    /// path.
    pub(crate) fn lock_recover(&self, repair: impl FnOnce(&mut T)) -> MutexGuard<'_, T> {
        match self.0.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.0.clear_poison();
                let mut guard = poisoned.into_inner();
                repair(&mut guard);
                guard
            }
        }
    }

    #[cfg(test)]
    pub(crate) fn is_poisoned(&self) -> bool {
        self.0.is_poisoned()
    }
}
