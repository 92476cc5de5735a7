//! Model-checked protocol tests for the parallel runtime.
//!
//! Compiled only under the `model` feature, where `stems_core::sync`
//! routes through the `stems-check` deterministic model checker — so the
//! types under test here are the *exact shipped protocol types*
//! ([`SleepGate`], [`CompletionLatch`], [`WaveBarrier`]), not rewrites,
//! driven through every interleaving within a preemption bound:
//!
//! ```text
//! cargo test -p stems-core --features model --test model
//! ```
//!
//! Two kinds of test:
//!
//! * **Green**: the shipped protocol holds its invariant on *every*
//!   schedule ([`stems_check::Report::assert_ok`] also asserts the
//!   bounded state space was exhausted).
//! * **Seeded mutants**: a copy of the protocol with one realistic bug
//!   (the lost-wakeup and barrier-misorder classes from ISSUE 8) that
//!   the checker must *catch* — proving the green results mean
//!   something.

#![cfg(feature = "model")]

use std::collections::VecDeque;
use stems_check::{model, FailureKind};
use stems_core::runtime::{CompletionLatch, SleepGate};
use stems_core::sync::atomic::{AtomicUsize, Ordering};
use stems_core::sync::{lock_ok, wait_ok, Arc, Condvar, Mutex, WaveBarrier};

// ---------------------------------------------------------------------
// WorkerPool gate sleep/wake
// ---------------------------------------------------------------------

/// The worker_loop/push_job shape: a consumer that parks via the gate
/// when its queue scan comes up empty, and a producer that pushes and
/// wakes. The queue lives *outside* the gate (like the pool's per-worker
/// queue mutexes), which is exactly the shape where a carelessly placed
/// notify loses the wakeup.
#[test]
fn sleep_gate_never_loses_a_wakeup() {
    let report = model(|| {
        let gate = Arc::new(SleepGate::new());
        let queue = Arc::new(Mutex::new(VecDeque::new()));
        let (gate2, queue2) = (Arc::clone(&gate), Arc::clone(&queue));
        let producer = stems_check::thread::spawn(move || {
            lock_ok(&queue2).push_back(7u32);
            gate2.wake_one();
        });
        // Worker: scan, park-if-idle, rescan — must terminate with the
        // item on every schedule.
        let got = loop {
            if let Some(v) = lock_ok(&queue).pop_front() {
                break v;
            }
            gate.sleep_if(|| lock_ok(&queue).is_empty());
        };
        assert_eq!(got, 7);
        producer.join().unwrap();
    });
    report.assert_ok();
    assert!(
        report.executions > 1,
        "the race must have schedules to explore"
    );
}

/// SEEDED MUTANT: identical protocol, but the producer's wake is not
/// performed under the gate — the notify can land in the window between
/// the worker's empty-scan and its park, and the worker sleeps forever.
/// The checker must find that schedule (as a deadlock).
#[test]
fn mutant_gate_notify_outside_gate_is_caught() {
    struct MutantGate {
        gate: Mutex<()>,
        signal: Condvar,
    }
    impl MutantGate {
        // BUG (deliberate): no gate lock around the notify.
        fn wake_one(&self) {
            self.signal.notify_one();
        }
        // Sleep path identical to the real SleepGate.
        fn sleep_if(&self, idle: impl FnOnce() -> bool) {
            let gate = lock_ok(&self.gate);
            if idle() {
                drop(wait_ok(&self.signal, gate));
            }
        }
    }
    let report = model(|| {
        let gate = Arc::new(MutantGate {
            gate: Mutex::new(()),
            signal: Condvar::new(),
        });
        let queue = Arc::new(Mutex::new(VecDeque::new()));
        let (gate2, queue2) = (Arc::clone(&gate), Arc::clone(&queue));
        let producer = stems_check::thread::spawn(move || {
            lock_ok(&queue2).push_back(7u32);
            gate2.wake_one();
        });
        let got = loop {
            if let Some(v) = lock_ok(&queue).pop_front() {
                break v;
            }
            gate.sleep_if(|| lock_ok(&queue).is_empty());
        };
        assert_eq!(got, 7);
        producer.join().unwrap();
    });
    let failure = report.expect_failure();
    assert!(
        matches!(failure.kind, FailureKind::Deadlock(_)),
        "a lost wakeup must surface as a deadlock: {failure}"
    );
}

// ---------------------------------------------------------------------
// ScopeBarrier / CompletionLatch
// ---------------------------------------------------------------------

/// The invariant the runtime.rs scoped-job transmute rests on (see the
/// SAFETY comment at `PoolScope::spawn`): `wait` returns only after
/// every registered task ran to completion — so on every schedule, the
/// waiter must observe both workers' effects once `wait` returns.
#[test]
fn latch_barrier_is_sound_under_every_schedule() {
    let report = model(|| {
        let latch = Arc::new(CompletionLatch::new());
        let a = Arc::new(AtomicUsize::new(0));
        let b = Arc::new(AtomicUsize::new(0));
        // register happens-before the task is visible to any worker —
        // same order as PoolScope::spawn.
        latch.register();
        latch.register();
        let (l1, a1) = (Arc::clone(&latch), Arc::clone(&a));
        let t1 = stems_check::thread::spawn(move || {
            a1.store(1, Ordering::SeqCst);
            l1.complete(None);
        });
        let (l2, b1) = (Arc::clone(&latch), Arc::clone(&b));
        let t2 = stems_check::thread::spawn(move || {
            b1.store(1, Ordering::SeqCst);
            l2.complete(None);
        });
        // Non-helping waiter: pure barrier.
        latch.wait(|| false);
        // Barrier soundness: every task's effects are complete.
        assert_eq!(a.load(Ordering::SeqCst), 1, "task 1 effect lost");
        assert_eq!(b.load(Ordering::SeqCst), 1, "task 2 effect lost");
        assert!(latch.take_panic().is_none());
        t1.join().unwrap();
        t2.join().unwrap();
    });
    report.assert_ok();
}

/// Panic path: a task that completes with a payload must hand it to the
/// waiter on every schedule (the payload store and the decrement share
/// one critical section).
#[test]
fn latch_replays_task_panic_to_the_waiter() {
    let report = model(|| {
        let latch = Arc::new(CompletionLatch::new());
        latch.register();
        let l1 = Arc::clone(&latch);
        let t = stems_check::thread::spawn(move || {
            l1.complete(Some(Box::new("task boom")));
        });
        latch.wait(|| false);
        let payload = latch
            .take_panic()
            .expect("panic payload must survive the barrier");
        assert_eq!(*payload.downcast_ref::<&str>().unwrap(), "task boom");
        t.join().unwrap();
    });
    report.assert_ok();
}

/// SEEDED MUTANT: `complete` without the wake — the classic removed
/// `notify_all`. A waiter that parked before the last completion sleeps
/// forever; the checker must find that schedule.
#[test]
fn mutant_latch_removed_notify_is_caught() {
    struct MutantLatch {
        sync: Mutex<usize>,
        cv: Condvar,
    }
    impl MutantLatch {
        fn register(&self) {
            *lock_ok(&self.sync) += 1;
        }
        // BUG (deliberate): decrements but never notifies.
        fn complete(&self) {
            let mut remaining = lock_ok(&self.sync);
            *remaining -= 1;
        }
        // Wait path identical to the real CompletionLatch.
        fn wait(&self) {
            loop {
                let remaining = lock_ok(&self.sync);
                if *remaining == 0 {
                    return;
                }
                drop(wait_ok(&self.cv, remaining));
            }
        }
    }
    let report = model(|| {
        let latch = Arc::new(MutantLatch {
            sync: Mutex::new(0),
            cv: Condvar::new(),
        });
        latch.register();
        let l1 = Arc::clone(&latch);
        let t = stems_check::thread::spawn(move || l1.complete());
        latch.wait();
        t.join().unwrap();
    });
    let failure = report.expect_failure();
    assert!(
        matches!(failure.kind, FailureKind::Deadlock(_)),
        "a removed notify must surface as a deadlock: {failure}"
    );
}

/// SEEDED MUTANT: the barrier decrement reordered before the task's
/// effect — the worker marks itself complete and *then* writes its
/// output slot. A waiter released by the early decrement reads the
/// unwritten slot; the checker must find that schedule (as the waiter's
/// assertion failure).
#[test]
fn mutant_latch_early_decrement_is_caught() {
    let report = model(|| {
        let latch = Arc::new(CompletionLatch::new());
        let out = Arc::new(AtomicUsize::new(0));
        latch.register();
        let (l1, out1) = (Arc::clone(&latch), Arc::clone(&out));
        let t = stems_check::thread::spawn(move || {
            // BUG (deliberate): completion before the task body's write —
            // the real PoolScope wrapper completes strictly after.
            l1.complete(None);
            out1.store(1, Ordering::SeqCst);
        });
        latch.wait(|| false);
        assert_eq!(
            out.load(Ordering::SeqCst),
            1,
            "barrier released before task effect"
        );
        t.join().unwrap();
    });
    let failure = report.expect_failure();
    assert!(
        matches!(&failure.kind, FailureKind::Panic(msg) if msg.contains("barrier released")),
        "early decrement must surface as the waiter's assertion: {failure}"
    );
}

// ---------------------------------------------------------------------
// WaveBarrier parallel step claims
// ---------------------------------------------------------------------

/// The server's parallel-step protocol ([`WaveBarrier`], the shipped
/// type): several runners drain one claim cursor over a wave of
/// executors, and the coordinator's wait releases only when every
/// claimed item finished. Two invariants on every schedule:
///
/// * **exactly-once** — no item is ever claimed by two runners (this is
///   what makes the per-item `&mut` executor access data-race free);
/// * **barrier soundness** — once `wait` returns, every item's effects
///   are visible to the coordinator.
#[test]
fn wave_barrier_claims_each_item_exactly_once_and_waits_for_all() {
    const ITEMS: usize = 3;
    let report = model(|| {
        let barrier = Arc::new(WaveBarrier::new(ITEMS));
        let slots: Arc<Vec<AtomicUsize>> =
            Arc::new((0..ITEMS).map(|_| AtomicUsize::new(0)).collect());
        let (b2, s2) = (Arc::clone(&barrier), Arc::clone(&slots));
        // One pool runner and the coordinator race over the cursor —
        // the server's `drain` shape, finish strictly after the effect.
        let runner = stems_check::thread::spawn(move || {
            while let Some(i) = b2.claim() {
                let prev = s2[i].fetch_add(1, Ordering::SeqCst);
                assert_eq!(prev, 0, "item {i} claimed twice");
                b2.finish_one();
            }
        });
        while let Some(i) = barrier.claim() {
            let prev = slots[i].fetch_add(1, Ordering::SeqCst);
            assert_eq!(prev, 0, "item {i} claimed twice");
            barrier.finish_one();
        }
        barrier.wait(|| false);
        // Barrier soundness: every item stepped exactly once, and the
        // coordinator observes it.
        for (i, slot) in slots.iter().enumerate() {
            assert_eq!(slot.load(Ordering::SeqCst), 1, "item {i} not finished");
        }
        runner.join().unwrap();
    });
    report.assert_ok();
    assert!(
        report.executions > 1,
        "the claim race must have schedules to explore"
    );
}

/// SEEDED MUTANT: the claim cursor advanced with a torn load/store
/// instead of one atomic fetch-add. Two runners can read the same index
/// before either stores the increment — both "claim" the same executor,
/// which in the real server would be two threads holding `&mut` to one
/// `EddyExecutor`. The checker must find that schedule (as the
/// exactly-once assertion's panic).
#[test]
fn mutant_wave_barrier_torn_claim_cursor_is_caught() {
    struct MutantBarrier {
        cursor: AtomicUsize,
        total: usize,
        done: Mutex<usize>,
        cv: Condvar,
    }
    impl MutantBarrier {
        // BUG (deliberate): load-then-store instead of fetch_add.
        fn claim(&self) -> Option<usize> {
            let i = self.cursor.load(Ordering::SeqCst);
            self.cursor.store(i + 1, Ordering::SeqCst);
            (i < self.total).then_some(i)
        }
        // Finish/wait paths identical to the real WaveBarrier.
        fn finish_one(&self) {
            let mut done = lock_ok(&self.done);
            *done += 1;
            if *done >= self.total {
                self.cv.notify_all();
            }
        }
        fn wait(&self) {
            loop {
                let done = lock_ok(&self.done);
                if *done >= self.total {
                    return;
                }
                drop(wait_ok(&self.cv, done));
            }
        }
    }
    const ITEMS: usize = 2;
    let report = model(|| {
        let barrier = Arc::new(MutantBarrier {
            cursor: AtomicUsize::new(0),
            total: ITEMS,
            done: Mutex::new(0),
            cv: Condvar::new(),
        });
        let slots: Arc<Vec<AtomicUsize>> =
            Arc::new((0..ITEMS).map(|_| AtomicUsize::new(0)).collect());
        let (b2, s2) = (Arc::clone(&barrier), Arc::clone(&slots));
        let runner = stems_check::thread::spawn(move || {
            while let Some(i) = b2.claim() {
                let prev = s2[i].fetch_add(1, Ordering::SeqCst);
                assert_eq!(prev, 0, "item {i} claimed twice");
                b2.finish_one();
            }
        });
        while let Some(i) = barrier.claim() {
            let prev = slots[i].fetch_add(1, Ordering::SeqCst);
            assert_eq!(prev, 0, "item {i} claimed twice");
            barrier.finish_one();
        }
        barrier.wait();
        runner.join().unwrap();
    });
    let failure = report.expect_failure();
    assert!(
        matches!(&failure.kind, FailureKind::Panic(msg) if msg.contains("claimed twice")),
        "a torn claim must surface as a duplicate-claim panic: {failure}"
    );
}

// ---------------------------------------------------------------------
// Server registry build-log replay handoff
// ---------------------------------------------------------------------

/// A closed-port of `server.rs`'s `SharedEntry` handoff: a building
/// query appends to the shared build log and releases prefixes in
/// delivery waves; a query folded onto the entry mid-build first replays
/// `log[..released]` (catch-up) and then rides subsequent waves from its
/// cursor. The invariant — every subscriber sees every released row
/// exactly once, in log order — must hold on every interleaving of the
/// builder and a late subscriber.
#[test]
fn registry_replay_handoff_delivers_exactly_once() {
    struct Entry {
        log: Vec<u32>,
        released: usize,
        done: bool,
    }
    let report = model(|| {
        let entry = Arc::new(Mutex::new(Entry {
            log: Vec::new(),
            released: 0,
            done: false,
        }));
        let cv = Arc::new(Condvar::new());
        let (e2, cv2) = (Arc::clone(&entry), Arc::clone(&cv));
        let builder = stems_check::thread::spawn(move || {
            // Wave 1: one row built and released.
            {
                let mut e = lock_ok(&e2);
                e.log.push(10);
                e.released = e.log.len();
                cv2.notify_all();
            }
            // Wave 2: two more rows, released together (the folded
            // delivery pattern of on_deliver_built).
            {
                let mut e = lock_ok(&e2);
                e.log.push(20);
                e.log.push(30);
                e.released = e.log.len();
                cv2.notify_all();
            }
            let mut e = lock_ok(&e2);
            e.done = true;
            cv2.notify_all();
        });
        // Late subscriber: replay the released prefix, then ride waves.
        let mut delivered = Vec::new();
        let mut cursor = {
            let e = lock_ok(&entry);
            delivered.extend_from_slice(&e.log[..e.released]);
            e.released
        };
        loop {
            let mut e = lock_ok(&entry);
            while e.released == cursor && !e.done {
                e = wait_ok(&cv, e);
            }
            delivered.extend_from_slice(&e.log[cursor..e.released]);
            cursor = e.released;
            if e.done && cursor == e.released {
                break;
            }
        }
        // Exactly-once, in order, no duplicate replay of the caught-up
        // prefix — regardless of where the subscription landed.
        assert_eq!(
            delivered,
            vec![10, 20, 30],
            "replay handoff broke exactly-once"
        );
        builder.join().unwrap();
    });
    report.assert_ok();
}
