//! The persistent worker pool under the query server's wave drain.
//!
//! Between two server waves, [`crate::server::QueryServer`] steps the
//! independent executors of the wave on several threads: runner jobs
//! claim executors off a [`crate::sync::WaveBarrier`] until none is left.
//! This module is the pool those runners run on — a process-wide set of
//! long-lived workers, so a wave does not spawn and join OS threads:
//!
//! * **One FIFO job queue** — every job goes to the back of one queue and
//!   any idle worker takes the front one. The barrier's claim cursor
//!   balances the work, so the pool needs no per-worker queues, affinity
//!   or stealing.
//! * **Caller participation** — the thread that opened a scope runs
//!   queued jobs while it waits, so a `workers = n` scope really has `n`
//!   active execution streams without over-subscribing the host.
//! * **Scoped, borrow-friendly tasks** — [`WorkerPool::scope`] mirrors
//!   `std::thread::scope`: tasks may borrow from the caller's stack, and
//!   the scope does not return until every task it spawned has finished —
//!   even when a task or the scope body panics (the panic is re-raised
//!   after the barrier, never lost).
//! * **No job opens a scope.** So a thread helping out while it waits can
//!   run any queued job: the waiting thread is never inside a job that
//!   holds a lock another job could take. A debug build asserts it.
//!
//! The pool is *schedule-only*: which worker runs which job is
//! nondeterministic, but every executor is stepped by exactly one thread
//! and the wave is merged back in a fixed order, so server reports are
//! bit-identical at every worker budget (`tests/server_folding.rs`).
//!
//! Workers are spawned lazily up to the largest budget any scope has
//! requested (capped at [`MAX_POOL_WORKERS`]) and parked on the
//! [`SleepGate`] when idle; the pool lives for the process (workers die
//! with it).

use crate::sync::{lock_ok, wait_ok, Arc, Condvar, Mutex, OnceLock};
use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Hard cap on pool size. Scopes asking for more workers than this are
/// clamped.
pub const MAX_POOL_WORKERS: usize = 32;

/// Worker threads the host can actually run in parallel (affinity/cgroup
/// aware), cached once per process.
pub fn host_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The default worker budget of the server's wave drain
/// (`ExecConfig::workers`): [`host_parallelism`] unless overridden by the
/// `STEMS_WORKERS` environment variable (the CI matrix crosses it with
/// batch size; tests force counts programmatically through
/// `ExecConfig::workers` instead). A set-but-invalid value errors — a
/// misconfigured CI leg or server deployment must fail loudly rather than
/// silently re-test the default parallelism.
pub fn try_default_workers() -> Result<usize, crate::engine::ConfigError> {
    crate::engine::env_knob("STEMS_WORKERS", host_parallelism())
}

/// Panicking shim over [`try_default_workers`] for one-shot binaries.
pub fn default_workers() -> usize {
    try_default_workers().unwrap_or_else(|e| panic!("{e}"))
}

/// A queued task. Tasks are created with a scope-bound lifetime and
/// transmuted to `'static` for storage; [`PoolScope`]'s completion
/// barrier is what makes that sound (see `PoolScope::spawn`'s safety
/// note).
type Job = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// Is this thread running a pool job? Read by [`WorkerPool::scope`]'s
    /// debug assertion.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

/// Run one queued job, marking the thread as inside a job meanwhile.
/// Task panics are captured by the scope wrapper, so the mark is always
/// cleared.
fn run_job(job: Job) {
    IN_JOB.with(|flag| flag.set(true));
    job();
    IN_JOB.with(|flag| flag.set(false));
}

/// The pool's sleep/wake protocol, factored out so `tests/model.rs` can
/// drive the exact shipped type through the model checker.
///
/// The invariant it exists to uphold: a sleeper that observed "nothing
/// to do" cannot miss a wake-up for work submitted after its scan. The
/// scan result lives *outside* this gate (the queue mutex), which is
/// precisely the lost-wakeup shape — so wakers notify **while holding
/// the gate**. Either the waker's notify happens before the sleeper
/// locks the gate (then the sleeper's scan, which happens after, sees
/// the submitted work and skips the wait), or after the sleeper is
/// already parked in `wait` (then the notify lands). The model checker
/// proves the window is closed within the preemption bound, and the
/// seeded mutant that notifies without the gate deadlocks.
pub struct SleepGate {
    gate: Mutex<()>,
    signal: Condvar,
}

impl SleepGate {
    pub fn new() -> SleepGate {
        SleepGate {
            gate: Mutex::new(()),
            signal: Condvar::new(),
        }
    }

    /// Wake one sleeper. Notifies under the gate — see the type docs.
    pub fn wake_one(&self) {
        let _gate = lock_ok(&self.gate);
        self.signal.notify_one();
    }

    /// Park the caller iff `idle()` still holds under the gate. `idle`
    /// must read its state through its own synchronization (the queue
    /// mutex); the gate only orders the scan against wakers.
    pub fn sleep_if(&self, idle: impl FnOnce() -> bool) {
        let gate = lock_ok(&self.gate);
        if idle() {
            drop(wait_ok(&self.signal, gate));
        }
    }
}

impl Default for SleepGate {
    fn default() -> SleepGate {
        SleepGate::new()
    }
}

struct Shared {
    /// The one job queue, in submission order.
    queue: Mutex<VecDeque<Job>>,
    /// Sleep/wake for idle workers; see [`SleepGate`].
    gate: SleepGate,
}

impl Shared {
    fn pop(&self) -> Option<Job> {
        lock_ok(&self.queue).pop_front()
    }

    fn looks_empty(&self) -> bool {
        lock_ok(&self.queue).is_empty()
    }
}

/// The process-wide worker pool. Obtain it with [`WorkerPool::global`];
/// worker budgets are passed per scope, so one pool serves every server
/// of the process.
pub struct WorkerPool {
    shared: Arc<Shared>,
    spawned: Mutex<usize>,
}

impl WorkerPool {
    /// The process-global pool (created on first use, workers spawned
    /// lazily as scopes request them).
    pub fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(WorkerPool::new)
    }

    fn new() -> WorkerPool {
        WorkerPool {
            shared: Arc::new(Shared {
                queue: Mutex::new(VecDeque::new()),
                gate: SleepGate::new(),
            }),
            spawned: Mutex::new(0),
        }
    }

    /// How many workers have been spawned so far (diagnostics).
    pub fn workers_spawned(&self) -> usize {
        *lock_ok(&self.spawned)
    }

    /// Make sure at least `n` (≤ [`MAX_POOL_WORKERS`]) workers exist.
    fn ensure_workers(&self, n: usize) {
        let n = n.min(MAX_POOL_WORKERS);
        let mut spawned = lock_ok(&self.spawned);
        while *spawned < n {
            let id = *spawned;
            let shared = Arc::clone(&self.shared);
            std::thread::Builder::new()
                .name(format!("stems-worker-{id}"))
                .spawn(move || worker_loop(shared))
                .expect("spawn pool worker");
            *spawned += 1;
        }
    }

    fn push_job(&self, job: Job) {
        lock_ok(&self.shared.queue).push_back(job);
        // Gate-held notify: a worker that just found the queue empty and
        // is about to park cannot miss this submission.
        self.shared.gate.wake_one();
    }

    /// Run `f` with a scope that can spawn borrow-carrying tasks onto the
    /// pool. `workers` is the parallelism budget: at least
    /// `min(workers, MAX_POOL_WORKERS)` pool threads exist by the time
    /// tasks run. Does not return until every spawned task completed; a
    /// panicking task panics the caller here, after the barrier. Never
    /// called from inside a pool job (see the module docs).
    pub fn scope<'env, R>(&self, workers: usize, f: impl FnOnce(&PoolScope<'_, 'env>) -> R) -> R {
        debug_assert!(!IN_JOB.with(Cell::get), "a pool job opened a pool scope");
        self.ensure_workers(workers.clamp(1, MAX_POOL_WORKERS));
        let scope = PoolScope {
            pool: self,
            latch: Arc::new(CompletionLatch::new()),
            _env: PhantomData,
        };
        let result = {
            // The guard waits for task completion even if `f` unwinds
            // mid-spawn — queued tasks borrow `'env` data that must
            // outlive them, so the barrier is unconditional.
            let _barrier = ScopeBarrier(&scope);
            f(&scope)
        };
        scope.check_panic();
        result
    }
}

/// The scope completion barrier, factored out so `tests/model.rs` can
/// drive the exact shipped type through the model checker.
///
/// The protocol: [`register`](CompletionLatch::register) before a task
/// is queued, [`complete`](CompletionLatch::complete) exactly once when
/// it finishes (recording the first panic payload *and* decrementing the
/// count in one critical section, so a waiter that observes zero also
/// observes every payload), [`wait`](CompletionLatch::wait) blocks —
/// helping with other work while it can — until the count is zero.
///
/// The invariant [`WorkerPool::scope`]'s `unsafe` transmute rests on:
/// **`wait` returns only after every registered task has completed**.
/// The count is incremented before a job is ever visible to a worker and
/// decremented only after the task body returned (or unwound), so
/// `remaining == 0` under the latch mutex means no task body can run
/// again. The model checker explores every bounded interleaving of
/// register/complete/wait; the seeded mutants (a `complete` that skips
/// `notify_all`, and one that decrements before the task's effects)
/// deadlock or fail an assertion under the checker.
#[derive(Default)]
pub struct CompletionLatch {
    sync: Mutex<LatchSync>,
    cv: Condvar,
}

#[derive(Default)]
struct LatchSync {
    remaining: usize,
    panic: Option<Box<dyn Any + Send>>,
}

impl CompletionLatch {
    pub fn new() -> CompletionLatch {
        CompletionLatch::default()
    }

    /// Account one more outstanding task. Must happen before the task
    /// can possibly run.
    pub fn register(&self) {
        lock_ok(&self.sync).remaining += 1;
    }

    /// Mark one task done, recording the first panic payload. Payload
    /// store and decrement share one critical section: a waiter that
    /// sees the count hit zero is guaranteed to also see the payload.
    pub fn complete(&self, panic: Option<Box<dyn Any + Send>>) {
        let mut sync = lock_ok(&self.sync);
        if let Some(payload) = panic {
            sync.panic.get_or_insert(payload);
        }
        sync.remaining -= 1;
        if sync.remaining == 0 {
            self.cv.notify_all();
        }
    }

    /// Block until every registered task completed. While the count is
    /// nonzero, `help` is invited to make progress (run a queued job);
    /// it returns whether it did. Only when it cannot does the caller
    /// park — re-checking the count under the latch mutex first, so a
    /// completion between the check and the wait cannot be lost.
    pub fn wait(&self, mut help: impl FnMut() -> bool) {
        loop {
            if lock_ok(&self.sync).remaining == 0 {
                return;
            }
            if help() {
                continue;
            }
            let sync = lock_ok(&self.sync);
            if sync.remaining != 0 {
                // Every outstanding task is in flight on a worker; its
                // `complete` notifies this condvar.
                drop(wait_ok(&self.cv, sync));
            }
        }
    }

    /// Take the first recorded panic payload, if any. Meaningful after
    /// [`wait`](CompletionLatch::wait) returned.
    pub fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        lock_ok(&self.sync).panic.take()
    }
}

/// Spawn handle passed to the closure of [`WorkerPool::scope`].
pub struct PoolScope<'pool, 'env> {
    pool: &'pool WorkerPool,
    latch: Arc<CompletionLatch>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'pool, 'env> PoolScope<'pool, 'env> {
    /// Queue `task` at the back of the pool's queue. The task may borrow
    /// anything outliving the scope (`'env`); it runs on a pool worker (or
    /// on the caller while it waits) before `scope` returns. The first
    /// argument is ignored; removed when `benchmark/` stops passing it.
    pub fn spawn(&self, _affinity: usize, task: impl FnOnce() + Send + 'env) {
        self.latch.register();
        let latch = Arc::clone(&self.latch);
        let wrapped = move || {
            let result = catch_unwind(AssertUnwindSafe(task));
            latch.complete(result.err());
        };
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(wrapped);
        // SAFETY: erasing 'env to 'static for queue storage is sound
        // because no erased job can run — or even be dropped by the
        // queue, which lives on past the scope — after 'env ends. The
        // argument, step by step:
        //
        // 1. `task` only captures borrows outliving 'env (enforced by
        //    this signature), so the job is safe to run at any point
        //    *within* 'env; the hazard is exactly a run or drop after
        //    the borrowed frames are popped.
        // 2. `latch.register()` happens-before the job becomes visible
        //    to any worker (`push_job` below), so at every moment a job
        //    exists in the queue, the latch's `remaining` accounts for it.
        // 3. The job's only exit paths — normal return or unwind out of
        //    `task` — funnel through `catch_unwind` into
        //    `latch.complete(..)`, which decrements `remaining` strictly
        //    after the task body finished. Workers run jobs to
        //    completion and never drop one unexecuted; the queue only pops.
        // 4. `ScopeBarrier` is constructed before the scope closure can
        //    spawn, and its `Drop` runs `latch.wait(..)` on every exit
        //    path from `WorkerPool::scope` — normal return *and* unwind
        //    of the scope body (a `Drop` guard, not ordinary code after
        //    the call, precisely so that panics cannot skip it).
        // 5. `CompletionLatch::wait` returns only upon observing
        //    `remaining == 0` under the latch mutex, which by (2)+(3)
        //    means every spawned job has fully finished and the queue
        //    holds none of them. That protocol — including the wait/notify
        //    handshake and its panic paths — is model-checked in
        //    `tests/model.rs` (`latch_barrier_is_sound_under_every_
        //    schedule`), and the seeded mutants that would break this
        //    step (skipped notify, early decrement) are caught there.
        //
        // Hence every job's run and destruction are sequenced before
        // `scope` returns or unwinds past the barrier — the
        // `std::thread::scope` argument, with the latch in the role of
        // the thread-join barrier.
        let run = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) };
        self.pool.push_job(run);
    }

    /// Block until every spawned task finished, running queued pool jobs
    /// while waiting (caller participation). Any job will do: no job
    /// opens a scope, so this thread is not inside a job, and a job it
    /// runs cannot re-enter a lock an outer job on its stack holds.
    fn wait(&self) {
        self.latch.wait(|| match self.pool.shared.pop() {
            Some(job) => {
                run_job(job);
                true
            }
            None => false,
        });
    }

    fn check_panic(&self) {
        if let Some(payload) = self.latch.take_panic() {
            resume_unwind(payload);
        }
    }
}

/// Drop guard running the completion barrier even when the scope body
/// unwinds.
struct ScopeBarrier<'a, 'pool, 'env>(&'a PoolScope<'pool, 'env>);

impl Drop for ScopeBarrier<'_, '_, '_> {
    fn drop(&mut self) {
        self.0.wait();
    }
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        if let Some(job) = shared.pop() {
            run_job(job);
            continue;
        }
        // Submissions notify under the gate, so nothing pushed between
        // our scan and the wait can be missed.
        shared.gate.sleep_if(|| shared.looks_empty());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scope_runs_every_task_and_blocks_until_done() {
        let pool = WorkerPool::global();
        let mut outs = vec![0usize; 100];
        pool.scope(4, |scope| {
            for (i, out) in outs.iter_mut().enumerate() {
                scope.spawn(i, move || *out = i + 1);
            }
        });
        // The scope returned ⇒ every borrow ended and every slot is set.
        assert!(outs.iter().enumerate().all(|(i, v)| *v == i + 1));
    }

    #[test]
    fn tasks_can_borrow_disjoint_mutable_slices() {
        let pool = WorkerPool::global();
        let mut lanes: Vec<Vec<u64>> = (0..8).map(|i| vec![i as u64; 64]).collect();
        pool.scope(8, |scope| {
            for (i, lane) in lanes.iter_mut().enumerate() {
                scope.spawn(i, move || {
                    for v in lane.iter_mut() {
                        *v *= 2;
                    }
                });
            }
        });
        for (i, lane) in lanes.iter().enumerate() {
            assert!(lane.iter().all(|v| *v == 2 * i as u64), "lane {i}");
        }
    }

    #[test]
    fn worker_budget_one_still_completes() {
        let pool = WorkerPool::global();
        let counter = AtomicUsize::new(0);
        pool.scope(1, |scope| {
            for _ in 0..32 {
                scope.spawn(0, || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn nested_sequential_scopes_reuse_workers() {
        let pool = WorkerPool::global();
        let before = pool.workers_spawned();
        for round in 0..10usize {
            let mut outs = [0usize; 16];
            pool.scope(4, |scope| {
                for (i, out) in outs.iter_mut().enumerate() {
                    scope.spawn(i, move || *out = round);
                }
            });
            assert!(outs.iter().all(|v| *v == round));
        }
        // Persistent runtime: repeated scopes never spawn beyond the
        // requested budget (no per-envelope thread churn).
        assert!(pool.workers_spawned() >= before.max(4));
        assert!(pool.workers_spawned() <= MAX_POOL_WORKERS);
    }

    #[test]
    fn task_panic_propagates_after_barrier() {
        let pool = WorkerPool::global();
        let flag = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(2, |scope| {
                scope.spawn(0, || panic!("task boom"));
                scope.spawn(1, || {
                    flag.fetch_add(1, Ordering::Relaxed);
                });
            });
        }));
        assert!(result.is_err(), "task panic must reach the scope caller");
        // The barrier ran the healthy sibling to completion first.
        assert_eq!(flag.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn env_default_workers_validation() {
        // Not present: falls back to host parallelism (≥ 1).
        assert!(default_workers() >= 1);
    }
}
