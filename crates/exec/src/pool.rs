use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Name of the environment variable overriding the default worker count.
pub(crate) const POOL_ENV: &str = "TRIEJAX_POOL";

/// A reusable scoped worker pool with work-stealing shard queues.
///
/// Tasks are distributed round-robin across per-worker queues; a worker
/// pops from the front of its own queue and, once empty, steals from the
/// *back* of a sibling's queue. Because the parallel join engines submit
/// many more root-range shards than workers, stealing rebalances skewed
/// root domains dynamically — the software analogue of the paper's §3.4
/// spawn-on-match scheduling — instead of letting one statically assigned
/// thread straggle.
///
/// Threads are spawned inside [`std::thread::scope`], so task closures may
/// borrow from the caller's stack (plans, tries, merge state) without any
/// `'static` bound.
///
/// # Example
///
/// ```
/// use triejax_exec::WorkerPool;
///
/// let pool = WorkerPool::with_workers(2);
/// let tasks: Vec<u32> = (0..10).collect();
/// let (doubled, stats) = pool.run(&tasks, |_ctx, _lane, &t| t * 2);
/// assert_eq!(doubled[7], 14); // results come back in task order
/// assert_eq!(stats.tasks, 10);
/// assert!(stats.workers <= 2);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct WorkerPool {
    workers: NonZeroUsize,
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkerPool {
    /// Pool with the default worker count: the `TRIEJAX_POOL` environment
    /// variable if set to a positive integer, otherwise
    /// [`std::thread::available_parallelism`].
    pub fn new() -> Self {
        WorkerPool {
            workers: default_workers(),
        }
    }

    /// Pool with an explicit worker count.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn with_workers(workers: usize) -> Self {
        WorkerPool {
            workers: NonZeroUsize::new(workers).expect("workers must be positive"),
        }
    }

    /// The configured worker count (an upper bound: a run never spawns
    /// more workers than it has tasks).
    pub fn workers(&self) -> usize {
        self.workers.get()
    }

    /// Runs every task across the pool; returns the task results in
    /// submission order plus scheduling statistics.
    ///
    /// `work` receives the worker's [`WorkerCtx`], the task's submission
    /// index (its *lane* for order-preserving merges) and the task itself.
    pub fn run<T, R, F>(&self, tasks: &[T], work: F) -> (Vec<R>, PoolStats)
    where
        T: Sync,
        R: Send,
        F: Fn(WorkerCtx, usize, &T) -> R + Sync,
    {
        let (out, ()) = self.run_with_foreground(tasks, work, || ());
        out
    }

    /// Like [`run`](Self::run), but additionally executes `foreground` on
    /// the *calling* thread while the workers run.
    ///
    /// This is how the join engines stream results without requiring
    /// `Send` sinks: workers push batches into an [`crate::OrderedMerge`]
    /// while the foreground closure drains it into the caller's sink.
    ///
    /// A panicking task does not kill its worker: the panic is caught,
    /// the remaining tasks still run (so RAII cleanup in every task —
    /// e.g. closing a merge lane — happens and a blocking foreground
    /// drainer can finish), and the first panic payload is re-thrown
    /// once workers and foreground have completed.
    pub fn run_with_foreground<T, R, F, M, O>(
        &self,
        tasks: &[T],
        work: F,
        foreground: M,
    ) -> ((Vec<R>, PoolStats), O)
    where
        T: Sync,
        R: Send,
        F: Fn(WorkerCtx, usize, &T) -> R + Sync,
        M: FnOnce() -> O,
    {
        let n = self.workers.get().min(tasks.len());
        if n == 0 {
            let o = foreground();
            return ((Vec::new(), PoolStats::default()), o);
        }

        // Round-robin seeding keeps early lanes spread across workers, so
        // an order-preserving drain rarely waits on one overloaded queue.
        let queues: Vec<Mutex<VecDeque<usize>>> =
            (0..n).map(|_| Mutex::new(VecDeque::new())).collect();
        for i in 0..tasks.len() {
            queues[i % n].lock().expect("queue poisoned").push_back(i);
        }
        let steals = AtomicU64::new(0);
        // First panic payload from any task; re-thrown after the scope so
        // a panicking task neither kills its worker (stranding queued
        // tasks and hanging a foreground drainer waiting on their lanes)
        // nor gets swallowed.
        let panicked: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

        let (mut slots, o): (Vec<Option<R>>, O) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|id| {
                    let queues = &queues;
                    let steals = &steals;
                    let work = &work;
                    let panicked = &panicked;
                    scope.spawn(move || {
                        #[cfg(any(test, feature = "faults"))]
                        crate::faults::set_worker(id);
                        let ctx = WorkerCtx {
                            worker: id,
                            workers: n,
                        };
                        let mut local: Vec<(usize, R)> = Vec::new();
                        loop {
                            // Own queue first (front), then sweep siblings
                            // (back) — the classic stealing discipline.
                            let mut task = queues[id].lock().expect("queue poisoned").pop_front();
                            if task.is_none() {
                                // Fault hook *before* any victim pop: a
                                // worker injected to die here has claimed
                                // nothing, so its siblings still complete
                                // every task and no merge lane is lost.
                                // Caught here so the dying worker retires
                                // with its finished results instead of
                                // taking the whole thread (and the real
                                // payload) down with it.
                                #[cfg(any(test, feature = "faults"))]
                                if let Err(payload) = std::panic::catch_unwind(|| {
                                    crate::faults::fire(crate::faults::FaultEvent::Steal);
                                }) {
                                    let mut first = panicked.lock().expect("panic slot poisoned");
                                    first.get_or_insert(payload);
                                    break;
                                }
                                for k in 1..n {
                                    let victim = (id + k) % n;
                                    let stolen =
                                        queues[victim].lock().expect("queue poisoned").pop_back();
                                    if stolen.is_some() {
                                        steals.fetch_add(1, Ordering::Relaxed);
                                        task = stolen;
                                        break;
                                    }
                                }
                            }
                            // No task anywhere: the run is complete (tasks
                            // are only enqueued before the scope starts).
                            let Some(i) = task else { break };
                            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                work(ctx, i, &tasks[i])
                            })) {
                                Ok(r) => local.push((i, r)),
                                Err(payload) => {
                                    let mut first = panicked.lock().expect("panic slot poisoned");
                                    first.get_or_insert(payload);
                                }
                            }
                        }
                        local
                    })
                })
                .collect();

            let o = foreground();

            let mut slots: Vec<Option<R>> = (0..tasks.len()).map(|_| None).collect();
            for h in handles {
                for (i, r) in h.join().expect("pool worker panicked") {
                    slots[i] = Some(r);
                }
            }
            (slots, o)
        });

        if let Some(payload) = panicked.into_inner().expect("panic slot poisoned") {
            std::panic::resume_unwind(payload);
        }
        let results: Vec<R> = slots
            .iter_mut()
            .map(|s| s.take().expect("every task produces a result"))
            .collect();
        (
            (
                results,
                PoolStats {
                    workers: n,
                    tasks: tasks.len(),
                    steals: steals.into_inner(),
                },
            ),
            o,
        )
    }
}

/// Per-worker context handed to every task invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerCtx {
    /// This worker's index in `0..workers`. Engines use it to address
    /// per-worker state (e.g. the per-worker PJR cache of `ParCtj`).
    pub worker: usize,
    /// Number of workers participating in this run.
    pub workers: usize,
}

/// Scheduling statistics of one pool run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Workers actually spawned (`min(configured, tasks)`).
    pub workers: usize,
    /// Tasks executed.
    pub tasks: usize,
    /// Tasks obtained by stealing from a sibling's queue rather than from
    /// the worker's own.
    pub steals: u64,
}

/// Resolves the default worker count (see [`WorkerPool::new`]).
///
/// # Panics
///
/// Panics when `TRIEJAX_POOL` is set to anything but a positive integer:
/// an explicitly configured pool size that silently fell back to the core
/// count would defeat the configuration's purpose (e.g. CI pinning the
/// pool to 2 to force the parallel code paths on a single-core runner).
fn default_workers() -> NonZeroUsize {
    if let Ok(v) = std::env::var(POOL_ENV) {
        return v
            .trim()
            .parse::<usize>()
            .ok()
            .and_then(NonZeroUsize::new)
            .unwrap_or_else(|| panic!("{POOL_ENV} must be a positive integer, got {v:?}"));
    }
    std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn results_come_back_in_task_order() {
        let pool = WorkerPool::with_workers(4);
        let tasks: Vec<usize> = (0..100).collect();
        let (results, stats) = pool.run(&tasks, |_ctx, lane, &t| {
            assert_eq!(lane, t);
            t * 3
        });
        assert_eq!(results, (0..100).map(|t| t * 3).collect::<Vec<_>>());
        assert_eq!(stats.tasks, 100);
        assert_eq!(stats.workers, 4);
    }

    #[test]
    fn no_tasks_is_fine() {
        let pool = WorkerPool::with_workers(3);
        let tasks: Vec<u32> = Vec::new();
        let (results, stats) = pool.run(&tasks, |_ctx, _lane, &t| t);
        assert!(results.is_empty());
        assert_eq!(stats.workers, 0);
    }

    #[test]
    fn never_spawns_more_workers_than_tasks() {
        let pool = WorkerPool::with_workers(16);
        let tasks = vec![1u32, 2];
        let (results, stats) = pool.run(&tasks, |ctx, _lane, &t| {
            assert!(ctx.worker < ctx.workers);
            t
        });
        assert_eq!(results, vec![1, 2]);
        assert_eq!(stats.workers, 2);
    }

    #[test]
    fn single_worker_pool_runs_everything() {
        let pool = WorkerPool::with_workers(1);
        let tasks: Vec<u64> = (0..10).collect();
        let (results, stats) = pool.run(&tasks, |ctx, _lane, &t| {
            assert_eq!(ctx.worker, 0);
            t + 1
        });
        assert_eq!(results, (1..=10).collect::<Vec<_>>());
        assert_eq!(stats.steals, 0);
    }

    /// A blocked worker's remaining queue is drained by its sibling: with
    /// two workers, task 0 (worker 0's queue) blocks until task 2 (also
    /// worker 0's queue) has run — which can only happen via a steal.
    #[test]
    fn blocked_queue_is_stolen_from() {
        let pool = WorkerPool::with_workers(2);
        let (tx, rx) = mpsc::channel::<()>();
        let tx = Mutex::new(tx);
        let rx = Mutex::new(rx);
        let tasks = vec![0usize, 1, 2];
        let (results, stats) = pool.run(&tasks, |_ctx, _lane, &t| {
            match t {
                0 => rx
                    .lock()
                    .expect("rx")
                    .recv()
                    .expect("task 2 signals before the run ends"),
                2 => tx.lock().expect("tx").send(()).expect("receiver alive"),
                _ => {}
            }
            t
        });
        assert_eq!(results, vec![0, 1, 2]);
        assert!(stats.steals >= 1, "task 2 must have been stolen");
    }

    #[test]
    fn foreground_runs_and_returns_a_value() {
        let pool = WorkerPool::with_workers(2);
        let tasks = vec![1u32, 2, 3];
        let ((results, _), fg) =
            pool.run_with_foreground(&tasks, |_ctx, _lane, &t| t, || "drained");
        assert_eq!(results, vec![1, 2, 3]);
        assert_eq!(fg, "drained");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_workers_panics() {
        let _ = WorkerPool::with_workers(0);
    }

    /// A panicking task must not strand the tasks queued behind it (which
    /// would hang a foreground drainer waiting on their lanes): the other
    /// tasks run to completion and the panic is re-thrown afterwards.
    #[test]
    fn task_panic_runs_remaining_tasks_then_propagates() {
        use crate::OrderedMerge;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::AtomicUsize;

        let pool = WorkerPool::with_workers(1); // worst case: no sibling to recover
        let merge: OrderedMerge<usize> = OrderedMerge::new(6);
        let ran = AtomicUsize::new(0);
        let mut drained = Vec::new();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<usize> = (0..6).collect();
            pool.run_with_foreground(
                &tasks,
                |_ctx, lane, &t| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    struct CloseLane<'m>(&'m OrderedMerge<usize>, usize);
                    impl Drop for CloseLane<'_> {
                        fn drop(&mut self) {
                            self.0.finish(self.1);
                        }
                    }
                    let guard = CloseLane(&merge, lane);
                    assert!(t != 2, "task 2 exploded");
                    merge.push(lane, t);
                    drop(guard);
                },
                || merge.drain(|t| drained.push(t)),
            )
        }));
        let payload = result.expect_err("the task panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("task 2 exploded"), "got: {msg}");
        assert_eq!(ran.load(Ordering::Relaxed), 6, "all tasks still ran");
        assert_eq!(drained, vec![0, 1, 3, 4, 5], "drain completed in order");
    }
}
