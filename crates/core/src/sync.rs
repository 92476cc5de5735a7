//! The crate's single doorway to synchronization primitives.
//!
//! Normally this module is a zero-cost re-export of `std::sync`. Under
//! the `model` cargo feature the same names resolve to `stems_check`'s
//! model-aware wrappers instead, so the very protocol types the runtime
//! ships ([`crate::runtime::SleepGate`], [`crate::runtime::CompletionLatch`],
//! [`WaveBarrier`]) can be driven through the deterministic model checker
//! (`tests/model.rs`) — every interleaving within a preemption bound,
//! not just the ones the OS scheduler happens to produce.
//!
//! `stems-lint` enforces the funnel: no `std::sync` primitive imports
//! outside this module, and no `.lock().unwrap()` outside the poison
//! helpers below. The poison policy is uniform across the crate:
//!
//! * [`lock_ok`] — shrug the poison off and keep the data. For state
//!   that is updated atomically with respect to panics (queue/counter
//!   updates, envelope-atomic SteM state): the value behind the lock is
//!   still structurally valid, and propagating poison would take down
//!   every later query sharing the process-global runtime for no safety
//!   gain.
//! * [`lock_recover`] — clear the poison mark and run a caller-supplied
//!   repair first. For state that may be mid-mutation when its holder
//!   dies — today the verdict memo's shards ([`crate::memo`]): the repair
//!   discards the half-written cache, which is pure performance state.

#[cfg(not(feature = "model"))]
pub use std::sync::atomic;
#[cfg(not(feature = "model"))]
pub use std::sync::{Condvar, Mutex, MutexGuard};

#[cfg(feature = "model")]
pub use stems_check::sync::atomic;
#[cfg(feature = "model")]
pub use stems_check::sync::{Condvar, Mutex, MutexGuard};

// Pure data-sharing / one-shot types with no scheduling behaviour worth
// modelling; always `std`.
pub use std::sync::{Arc, LockResult, OnceLock, PoisonError};

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

/// Wait on `cv`, shrugging off poison on re-acquisition (the poison was
/// already handled — or deliberately shrugged — by whoever held the
/// lock last).
pub fn wait_ok<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// The parallel step barrier for one wave of independent work items —
/// the cross-thread protocol under the query server's parallel executor
/// stepping ([`crate::server::QueryServer`]).
///
/// Between two shared-scan waves the server has `total` executors that
/// may each be stepped by *any* thread, but each by **exactly one**
/// thread, and the wave may not merge back into the serial timeline
/// until **every** executor finished stepping. Rather than queueing one
/// pool job per executor (1000 queue pushes per wave at the 1000-query
/// point), a handful of runner jobs each drain a shared claim cursor:
///
/// * [`claim`](WaveBarrier::claim) hands out item indices exactly once
///   (an atomic fetch-add — two runners can never claim the same
///   executor, so disjoint `&mut` access per item is data-race free);
/// * [`finish_one`](WaveBarrier::finish_one) is called strictly *after*
///   the item's effects (the decrement shares a critical section with
///   the completion count, so a waiter that observes `done == total`
///   also observes every item's writes via the mutex);
/// * [`wait`](WaveBarrier::wait) blocks — helping with other work while
///   it can — until every claimed item has finished.
///
/// The protocol is model-checked in `stems-core/tests/model.rs` across
/// every bounded schedule (exactly-once claims, no early release), and
/// the seeded mutant with a torn load/store claim cursor is provably
/// caught there.
#[derive(Debug)]
pub struct WaveBarrier {
    cursor: atomic::AtomicUsize,
    total: usize,
    done: Mutex<usize>,
    cv: Condvar,
}

impl WaveBarrier {
    /// A barrier over `total` work items, none yet claimed.
    pub fn new(total: usize) -> WaveBarrier {
        WaveBarrier {
            cursor: atomic::AtomicUsize::new(0),
            total,
            done: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    /// Claim the next unclaimed item index; `None` once all `total`
    /// items are claimed. Each index is returned exactly once across
    /// all claiming threads.
    pub fn claim(&self) -> Option<usize> {
        let i = self.cursor.fetch_add(1, atomic::Ordering::Relaxed);
        (i < self.total).then_some(i)
    }

    /// Mark one claimed item finished. Must be called strictly after the
    /// item's effects, exactly once per claimed index.
    pub fn finish_one(&self) {
        let mut done = lock_ok(&self.done);
        *done += 1;
        if *done == self.total {
            self.cv.notify_all();
        }
    }

    /// Block until every item finished. While items are outstanding,
    /// `help` is invited to make progress (run a queued job); it returns
    /// whether it did. Only when it cannot does the caller park —
    /// re-checking the count under the mutex first, so a completion
    /// between the check and the wait cannot be lost (the
    /// [`crate::runtime::CompletionLatch`] wait shape).
    pub fn wait(&self, mut help: impl FnMut() -> bool) {
        loop {
            if *lock_ok(&self.done) == self.total {
                return;
            }
            if help() {
                continue;
            }
            let done = lock_ok(&self.done);
            if *done != self.total {
                drop(wait_ok(&self.cv, done));
            }
        }
    }
}
