//! A bounded-exhaustive model checker for small closed concurrency
//! protocols — the correctness tool under `stems_core::sync`.
//!
//! The parallel runtime's safety net so far is output bit-equality
//! (`worker_count_is_invariant` and friends), which cannot see a lost
//! wakeup, a barrier race, or UB that happens to produce the right
//! answer. This crate closes that gap in-tree, with no external
//! dependencies: a test writes its protocol against [`sync`] and
//! [`thread`] (API-compatible subsets of `std::sync` / `std::thread`),
//! wraps it in [`model`], and the checker runs the closed program under
//! **every schedule** reachable within a preemption bound, reporting the
//! first assertion failure or deadlock together with the interleaving
//! that produced it.
//!
//! # How it works
//!
//! Execution is *stateless model checking* in the CHESS style:
//!
//! * Model threads are real OS threads, but a central scheduler lets
//!   exactly one run at a time. Every visible operation — mutex lock,
//!   condvar wait/notify, atomic access, join — is a **yield point**: the
//!   thread parks, hands control back, and continues only when the
//!   scheduler picks it again.
//! * The scheduler explores schedules by **depth-first search over the
//!   choice points**, replaying the program from the start with a
//!   recorded decision prefix and diverging at the last unexplored
//!   branch. Programs must therefore be deterministic apart from
//!   scheduling (no wall clocks, no ambient randomness) — which the
//!   virtual-time discipline of this workspace already guarantees.
//! * A **preemption bound** (default [`DEFAULT_PREEMPTION_BOUND`]) keeps
//!   the search tractable: schedules are explored exhaustively up to that
//!   many *involuntary* context switches (switching away from a thread
//!   that could have continued). Empirically — and in this repo's seeded
//!   mutation tests — real synchronization bugs need only one or two.
//!
//! # Memory model
//!
//! The checker explores **sequentially consistent** interleavings only:
//! atomics take their `Ordering` argument for API compatibility but are
//! modelled as SC, and non-atomic data is expected to be protected by the
//! model [`sync::Mutex`]. Weak-memory reorderings are out of scope — the
//! nightly ThreadSanitizer CI leg covers data races at that level, while
//! this checker covers the *protocol* level (lost wakeups, barrier
//! misorder, deadlock, poison recovery), which sanitizers can only hit by
//! luck.
//!
//! # Poison
//!
//! [`sync::Mutex`] models poisoning faithfully: a model thread that
//! panics while holding a guard poisons the mutex, and `lock` returns
//! `Err(PoisonError)` exactly like `std`. A test may wrap the panicking
//! region in [`std::panic::catch_unwind`] to model *recovery* protocols
//! (a cache that is discarded on poison, say) without the panic counting as
//! a checker failure; an *uncaught* panic on any model thread fails the
//! schedule and is reported with its trace.
//!
//! # Outside a model
//!
//! Every primitive in [`sync`] and [`thread`] degrades to a thin wrapper
//! over its `std` counterpart when used outside [`model`]. That is what
//! lets `stems-core` compile against them unconditionally under its
//! `model` feature: ordinary tests keep running on real `std`
//! synchronization, while model tests drive the very same protocol types
//! through the checker.

pub mod sched;
pub mod sync;
pub mod thread;

use sched::Explorer;
use std::sync::Arc;

/// Default bound on involuntary context switches per schedule.
pub const DEFAULT_PREEMPTION_BOUND: usize = 3;
/// Default cap on explored schedules before the checker gives up.
pub const DEFAULT_MAX_EXECUTIONS: usize = 200_000;
/// Default cap on scheduling steps within one schedule (livelock guard).
pub const DEFAULT_MAX_STEPS: usize = 10_000;
/// Hard cap on live model threads in one schedule.
pub const MAX_MODEL_THREADS: usize = 8;

/// What went wrong on the failing schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// A model thread panicked (assertion failure, explicit panic, ...).
    Panic(String),
    /// No runnable thread, but not every thread finished — a deadlock or
    /// a lost wakeup. The string lists each stuck thread and what it was
    /// blocked on.
    Deadlock(String),
    /// One schedule exceeded the step budget — a livelock or an unbounded
    /// loop in the protocol under test.
    StepBudget,
    /// Replay diverged: the program is not deterministic under identical
    /// scheduling, so exploration is unsound for it.
    Nondeterminism(String),
}

/// A failing schedule: the kind of failure plus the full interleaving
/// (one line per scheduling decision) that reaches it.
#[derive(Debug, Clone)]
pub struct Failure {
    pub kind: FailureKind,
    pub trace: Vec<String>,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            FailureKind::Panic(msg) => writeln!(f, "model thread panicked: {msg}")?,
            FailureKind::Deadlock(what) => writeln!(f, "deadlock: {what}")?,
            FailureKind::StepBudget => writeln!(f, "step budget exceeded (livelock?)")?,
            FailureKind::Nondeterminism(what) => writeln!(f, "nondeterministic replay: {what}")?,
        }
        writeln!(f, "failing schedule ({} steps):", self.trace.len())?;
        for line in &self.trace {
            writeln!(f, "  {line}")?;
        }
        Ok(())
    }
}

/// The result of a model run.
#[derive(Debug)]
pub struct Report {
    /// Schedules explored (including the failing one, if any).
    pub executions: usize,
    /// True when every schedule within the preemption bound was explored.
    /// False when a failure stopped the search early or the execution cap
    /// was hit.
    pub complete: bool,
    /// The first failing schedule found, if any.
    pub failure: Option<Failure>,
}

impl Report {
    /// Assert the protocol passed *and* the state space was fully
    /// explored within the bound — the green-path contract model tests
    /// should hold the checker to.
    #[track_caller]
    pub fn assert_ok(&self) {
        if let Some(failure) = &self.failure {
            panic!(
                "model check failed on schedule {} of {}:\n{failure}",
                self.executions, self.executions
            );
        }
        assert!(
            self.complete,
            "model check passed {} schedules but did not exhaust the bounded state space; \
             raise max_executions or lower the protocol size",
            self.executions
        );
    }

    /// Assert the checker *did* find a failing schedule — the contract of
    /// the seeded-mutation tests that prove the checker has teeth.
    #[track_caller]
    pub fn expect_failure(&self) -> &Failure {
        self.failure.as_ref().unwrap_or_else(|| {
            panic!(
                "expected the checker to find a failure, but {} schedules passed (complete: {})",
                self.executions, self.complete
            )
        })
    }
}

/// Configurable checker. [`model`] is the default-configured shorthand.
#[derive(Debug, Clone)]
pub struct Checker {
    preemption_bound: usize,
    max_executions: usize,
    max_steps: usize,
}

impl Default for Checker {
    fn default() -> Checker {
        Checker {
            preemption_bound: DEFAULT_PREEMPTION_BOUND,
            max_executions: DEFAULT_MAX_EXECUTIONS,
            max_steps: DEFAULT_MAX_STEPS,
        }
    }
}

impl Checker {
    pub fn new() -> Checker {
        Checker::default()
    }

    /// Explore schedules with up to `n` involuntary context switches.
    pub fn preemption_bound(mut self, n: usize) -> Checker {
        self.preemption_bound = n;
        self
    }

    /// Stop after `n` schedules even if the space is not exhausted.
    pub fn max_executions(mut self, n: usize) -> Checker {
        self.max_executions = n;
        self
    }

    /// Per-schedule scheduling-step budget (livelock guard).
    pub fn max_steps(mut self, n: usize) -> Checker {
        self.max_steps = n;
        self
    }

    /// Run `f` under every schedule reachable within the preemption
    /// bound. `f` is re-invoked once per schedule and must construct its
    /// whole protocol (mutexes, condvars, threads) freshly inside.
    pub fn check<F>(&self, f: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        sched::install_quiet_panic_hook();
        let f = Arc::new(f);
        let mut explorer = Explorer::new(self.preemption_bound);
        let mut executions = 0;
        loop {
            executions += 1;
            if let Some(failure) = sched::run_one(Arc::clone(&f), &mut explorer, self.max_steps) {
                return Report {
                    executions,
                    complete: false,
                    failure: Some(failure),
                };
            }
            if !explorer.advance() {
                return Report {
                    executions,
                    complete: true,
                    failure: None,
                };
            }
            if executions >= self.max_executions {
                return Report {
                    executions,
                    complete: false,
                    failure: None,
                };
            }
        }
    }
}

/// Model-check `f` with the default [`Checker`] configuration.
pub fn model<F>(f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    Checker::default().check(f)
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicUsize, Ordering};
    use super::sync::{Condvar, Mutex};
    use super::*;

    #[test]
    fn finds_lost_update_between_load_and_store() {
        // Classic racy increment: load, then store(load + 1). Two threads
        // can interleave between the load and the store and lose one
        // update — the checker must find the schedule where the final
        // value is 1, not 2.
        let report = model(|| {
            let n = Arc::new(AtomicUsize::new(0));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let n = Arc::clone(&n);
                    thread::spawn(move || {
                        let v = n.load(Ordering::SeqCst);
                        n.store(v + 1, Ordering::SeqCst);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(n.load(Ordering::SeqCst), 2, "lost update");
        });
        let failure = report.expect_failure();
        assert!(
            matches!(&failure.kind, FailureKind::Panic(msg) if msg.contains("lost update")),
            "wrong failure kind: {failure}"
        );
        assert!(!failure.trace.is_empty(), "failure must carry its schedule");
    }

    #[test]
    fn mutex_protected_increment_passes_every_schedule() {
        let report = model(|| {
            let n = Arc::new(Mutex::new(0usize));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let n = Arc::clone(&n);
                    thread::spawn(move || {
                        let mut g = n.lock().unwrap();
                        *g += 1;
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(*n.lock().unwrap(), 2);
        });
        report.assert_ok();
        assert!(
            report.executions > 1,
            "two racing threads must yield more than one schedule"
        );
    }

    #[test]
    fn finds_ab_ba_deadlock() {
        let report = model(|| {
            let a = Arc::new(Mutex::new(()));
            let b = Arc::new(Mutex::new(()));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let t = thread::spawn(move || {
                let _ga = a2.lock().unwrap();
                let _gb = b2.lock().unwrap();
            });
            {
                let _gb = b.lock().unwrap();
                let _ga = a.lock().unwrap();
            }
            t.join().unwrap();
        });
        let failure = report.expect_failure();
        assert!(
            matches!(failure.kind, FailureKind::Deadlock(_)),
            "wrong failure kind: {failure}"
        );
    }

    #[test]
    fn finds_lost_wakeup_when_notify_races_the_wait() {
        // The waiter checks readiness that lives OUTSIDE the gate mutex
        // (an atomic), and the signaller notifies without holding the
        // gate — so the notify can fire inside the waiter's check-to-wait
        // window and the waiter sleeps forever. This is the exact bug
        // class the gate protocol in `stems_core::runtime` is shaped to
        // exclude (its `looks_empty` scan reads other mutexes' state, and
        // submitters notify only while holding the gate).
        use super::sync::atomic::AtomicBool;
        let report = model(|| {
            let gate = Arc::new(Mutex::new(()));
            let cv = Arc::new(Condvar::new());
            let ready = Arc::new(AtomicBool::new(false));
            let (cv2, ready2) = (Arc::clone(&cv), Arc::clone(&ready));
            let t = thread::spawn(move || {
                ready2.store(true, Ordering::SeqCst);
                // BUG (deliberate): notify without holding the gate.
                cv2.notify_one();
            });
            let g = gate.lock().unwrap();
            // Single non-looping check models "wait exactly once" so the
            // lost wakeup is a hard deadlock rather than a retry.
            if !ready.load(Ordering::SeqCst) {
                drop(cv.wait(g).unwrap());
            } else {
                drop(g);
            }
            t.join().unwrap();
        });
        let failure = report.expect_failure();
        assert!(
            matches!(failure.kind, FailureKind::Deadlock(_)),
            "lost wakeup must surface as a deadlock: {failure}"
        );
    }

    #[test]
    fn condvar_handshake_under_the_lock_passes() {
        // The correct version of the protocol above: the notify happens
        // while holding the mutex, so it cannot fall into the waiter's
        // check-to-wait window.
        let report = model(|| {
            let m = Arc::new(Mutex::new(false));
            let cv = Arc::new(Condvar::new());
            let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
            let t = thread::spawn(move || {
                let mut g = m2.lock().unwrap();
                *g = true;
                cv2.notify_one();
                drop(g);
            });
            let mut g = m.lock().unwrap();
            while !*g {
                g = cv.wait(g).unwrap();
            }
            drop(g);
            t.join().unwrap();
        });
        report.assert_ok();
    }

    #[test]
    fn poisoned_mutex_recovery_is_modelled() {
        // A thread panics while holding the guard; a catch_unwind keeps
        // the panic from failing the schedule, and the other thread must
        // observe Err(PoisonError) and recover — on every schedule.
        let report = model(|| {
            let m = Arc::new(Mutex::new(7usize));
            let m2 = Arc::clone(&m);
            let t = thread::spawn(move || {
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _g = m2.lock().unwrap();
                    panic!("die holding the lock");
                }));
                assert!(caught.is_err());
            });
            t.join().unwrap();
            // After the panicking thread is joined, the mutex MUST be
            // poisoned; recovery hands back the intact value.
            let v = match m.lock() {
                Ok(_) => panic!("join ordered the panic before this lock; must be poisoned"),
                Err(poisoned) => *poisoned.into_inner(),
            };
            assert_eq!(v, 7);
        });
        report.assert_ok();
    }

    #[test]
    fn join_returns_the_thread_value() {
        let report = model(|| {
            let t = thread::spawn(|| 41 + 1);
            assert_eq!(t.join().unwrap(), 42);
        });
        report.assert_ok();
    }

    #[test]
    fn primitives_pass_through_outside_a_model() {
        // No model() wrapper: everything must behave like plain std.
        let m = Mutex::new(3usize);
        *m.lock().unwrap() += 1;
        assert_eq!(*m.lock().unwrap(), 4);
        assert!(!m.is_poisoned());
        let n = AtomicUsize::new(0);
        n.fetch_add(5, Ordering::SeqCst);
        assert_eq!(n.load(Ordering::SeqCst), 5);
        let t = thread::spawn(|| 9usize);
        assert_eq!(t.join().unwrap(), 9);
        let cv = Condvar::new();
        cv.notify_all(); // no waiters; must not panic
    }

    #[test]
    fn step_budget_catches_livelock() {
        let report = Checker::new().max_steps(64).check(|| {
            let n = AtomicUsize::new(0);
            // Unbounded spin on a flag nobody sets.
            while n.load(Ordering::SeqCst) == 0 {
                std::hint::spin_loop();
            }
        });
        let failure = report.expect_failure();
        assert!(matches!(failure.kind, FailureKind::StepBudget));
    }
}
