//! Worker budgets and the one parallel loop under the query server's
//! wave drain.
//!
//! Between two server waves, [`crate::server::QueryServer`] steps the
//! wave's independent executors with `for_each_parallel`: the caller
//! and up to `workers − 1` scoped threads (`std::thread::scope`) claim
//! executors off one atomic cursor until none is left, and the scope's
//! join is the barrier. Which thread steps which executor is
//! nondeterministic, but each is stepped by exactly one thread and the
//! wave is merged back in a fixed order, so server reports are
//! bit-identical at every worker budget (`tests/server_folding.rs`).

use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::{lock_ok, Mutex, OnceLock};

/// Worker threads the host can actually run in parallel (affinity/cgroup
/// aware), cached once per process: the default worker budget of the
/// server's wave drain (`ExecConfig::workers`).
pub(crate) fn host_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Apply `step` to every item exactly once, on the caller and up to
/// `min(workers, items.len()) − 1` scoped threads. Each item sits in an
/// uncontended `Mutex` lane — the cursor hands a lane to exactly one
/// thread — which moves the `&mut` access across threads. Returns once
/// every item was stepped; a panicking step is re-raised here after the
/// other threads have drained the remaining items.
pub(crate) fn for_each_parallel<T: Send>(
    items: &mut [T],
    workers: usize,
    step: impl Fn(&mut T) + Sync,
) {
    let runners = workers.min(items.len());
    if runners < 2 {
        items.iter_mut().for_each(step);
        return;
    }
    let lanes: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
    let cursor = AtomicUsize::new(0);
    let drain = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(lane) = lanes.get(i) else { break };
        step(&mut lock_ok(lane));
    };
    std::thread::scope(|scope| {
        for _ in 1..runners {
            scope.spawn(drain);
        }
        drain();
    });
}

/// `std::thread::scope` under the names `benchmark/` builds against;
/// removed when `benchmark/` stops naming it. Budgets and affinities
/// are ignored: every task is a thread.
pub struct WorkerPool;

impl WorkerPool {
    pub fn global() -> &'static WorkerPool {
        &WorkerPool
    }

    pub fn scope<'env, R>(
        &self,
        _workers: usize,
        f: impl for<'scope> FnOnce(&PoolScope<'scope, 'env>) -> R,
    ) -> R {
        std::thread::scope(|scope| f(&PoolScope(scope)))
    }
}

/// Spawn handle of [`WorkerPool::scope`]; removed with it.
pub struct PoolScope<'scope, 'env: 'scope>(&'scope std::thread::Scope<'scope, 'env>);

impl<'scope> PoolScope<'scope, '_> {
    pub fn spawn(&self, _affinity: usize, task: impl FnOnce() + Send + 'scope) {
        self.0.spawn(task);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn for_each_parallel_steps_every_item_exactly_once() {
        for workers in [1, 2, 4, 8] {
            for len in [0, 1, 3, 100] {
                let mut items: Vec<(usize, usize)> = (0..len).map(|i| (i, 0)).collect();
                for_each_parallel(&mut items, workers, |(i, hits)| {
                    *hits += 1;
                    *i *= 2;
                });
                for (k, (i, hits)) in items.iter().enumerate() {
                    assert_eq!(*hits, 1, "workers {workers}, len {len}, item {k}");
                    assert_eq!(*i, 2 * k, "workers {workers}, len {len}, item {k}");
                }
            }
        }
    }

    #[test]
    fn for_each_parallel_reraises_a_panic_after_every_other_item() {
        for workers in [2, 4] {
            let mut items: Vec<(usize, bool)> = (0..50).map(|i| (i, false)).collect();
            let result = catch_unwind(AssertUnwindSafe(|| {
                for_each_parallel(&mut items, workers, |(i, stepped)| {
                    if *i == 0 {
                        panic!("step boom");
                    }
                    *stepped = true;
                });
            }));
            assert!(result.is_err(), "the step's panic must reach the caller");
            assert!(
                items[1..].iter().all(|(_, stepped)| *stepped),
                "workers {workers}"
            );
        }
    }

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
    fn task_panic_propagates_after_barrier() {
        let pool = WorkerPool::global();
        let flag = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(2, |scope| {
                scope.spawn(0, || panic!("task boom"));
                scope.spawn(1, || {
                    flag.fetch_add(1, Ordering::Relaxed);
                });
            });
        }));
        assert!(result.is_err(), "task panic must reach the scope caller");
        // The scope joined the healthy sibling before re-raising.
        assert_eq!(flag.load(Ordering::Relaxed), 1);
    }
}
