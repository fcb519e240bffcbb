//! A small self-scheduling thread pool for parallel batch work.
//!
//! Callers hand [`ThreadPool::map`] one task per independent unit — the
//! surfacing pipeline one per host, the index builder one per doc range,
//! batch serving (`ClusterServer::search_batch` in `deepweb-index`) one per
//! query. Every worker takes the next task from one shared queue when it
//! finishes the last (self-scheduling), so uneven tasks (one giant site,
//! many tiny ones) still saturate every core. The calling thread is one of
//! the workers: a call spawns one thread fewer than it runs on. Results are
//! reassembled **in input order**, which is what lets callers guarantee
//! parallel output is byte-identical to the sequential path (see DESIGN.md
//! §8) without tagging or reordering anything themselves.
//!
//! The pool is scope-based: [`ThreadPool::map`] spawns its helpers inside
//! `std::thread::scope`, so tasks may borrow caller state (`&dyn Fetcher`,
//! value libraries, background statistics) without `'static` bounds or
//! reference counting.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of workers worth spawning on this machine.
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// [`default_parallelism`], probed once and cached — `map` consults it on
/// every call to decide whether spawning is worth it, and batch serving calls
/// `map` per batch.
fn cached_parallelism() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(default_parallelism)
}

/// A fixed-width self-scheduling executor.
///
/// `workers == 1` (the default) never spawns a thread: `map` degenerates to a
/// plain in-order loop, so the sequential path stays the reference
/// implementation the parallel path is tested against. `workers == 0` at
/// construction means "auto": size the pool to the machine.
///
/// A `map` call runs `min(workers, items, cores)` workers, the calling
/// thread among them, so it spawns one thread fewer than that. On a
/// single-core host a `workers = 4` pool therefore runs inline instead of
/// paying spawn overhead for zero concurrency. Results are worker-count
/// independent by contract, so the clamp can never change output.
/// Corollary: on a 1-core host every `workers > 1` test/bench exercises the
/// inline path only — the spawning path gets its coverage from multi-core
/// CI runners.
#[derive(Clone, Copy, Debug)]
pub struct ThreadPool {
    workers: usize,
}

impl Default for ThreadPool {
    fn default() -> Self {
        ThreadPool { workers: 1 }
    }
}

impl ThreadPool {
    /// A pool with `workers` threads. `0` means auto: use the machine's
    /// available parallelism (probed once per process, so an owner may
    /// construct a pool per call without a syscall each time).
    pub fn new(workers: usize) -> Self {
        ThreadPool {
            workers: if workers == 0 {
                cached_parallelism()
            } else {
                workers
            },
        }
    }

    /// Worker count (resolved: never 0).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Apply `f` to every item, in parallel, returning results **in input
    /// order**. `f` receives `(input index, item)`.
    ///
    /// Workers, the calling thread among them, take items one at a time
    /// from a shared queue in input order, so a worker stuck on a slow item
    /// never holds back the others. A panicking task propagates out of
    /// `map` once every worker has stopped.
    pub fn map<T, U, F>(&self, items: Vec<T>, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(usize, T) -> U + Sync,
    {
        self.map_init(items, || (), |_, i, t| f(i, t))
    }

    /// [`ThreadPool::map`] with reusable per-worker state: `init` runs once
    /// per worker (once total on the inline fast path) and `f` receives
    /// `&mut` access to its worker's state for every task it executes.
    ///
    /// This is how batch serving (`ClusterServer::search_batch`, through
    /// [`ThreadPool::map_indices_init`]) gives each worker one `QueryScratch`
    /// for a whole batch: scratch allocation is per *worker*, not per query,
    /// and the single-worker path reuses one scratch across the entire batch
    /// with no thread scope at all.
    pub fn map_init<T, U, S, I, F>(&self, items: Vec<T>, init: I, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, T) -> U + Sync,
    {
        let n = items.len();
        let workers = self.running(n);
        if workers <= 1 {
            // Inline fast path: no thread scope, no queue, no locks.
            let mut state = init();
            return items
                .into_iter()
                .enumerate()
                .map(|(i, t)| f(&mut state, i, t))
                .collect();
        }
        let queue = Mutex::new(items.into_iter().enumerate());
        fan_out(workers, n, init, |state| {
            // Its own statement, so the lock is released before `f` runs.
            let next = queue.lock().next();
            let (i, t) = next?;
            Some((i, f(state, i, t)))
        })
    }

    /// Apply `f` to every index in `0..n`, in parallel, with reusable
    /// per-worker state, returning results in index order —
    /// [`ThreadPool::map_init`] without materialising the inputs. This is
    /// what batch serving uses to fan out over a borrowed slice of queries
    /// without cloning them into the task queue, one scratch per worker.
    /// Workers claim the next index from one atomic cursor, so a claim
    /// takes no lock.
    pub fn map_indices_init<U, S, I, F>(&self, n: usize, init: I, f: F) -> Vec<U>
    where
        U: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> U + Sync,
    {
        let workers = self.running(n);
        if workers <= 1 {
            let mut state = init();
            return (0..n).map(|i| f(&mut state, i)).collect();
        }
        let cursor = AtomicUsize::new(0);
        fan_out(workers, n, init, |state| {
            // Relaxed: the cursor publishes no data; results come back
            // through `fan_out`'s lock and the scope's join.
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            (i < n).then(|| (i, f(state, i)))
        })
    }

    /// Workers a call over `n` items runs: running more than cores (or
    /// items) only adds overhead.
    fn running(&self, n: usize) -> usize {
        self.workers.min(n).min(cached_parallelism())
    }
}

/// Run `workers` workers, the calling thread among them, each with its own
/// `init` state, until `next` (which claims and runs one task) returns
/// `None`; the `n` results come back in task order.
fn fan_out<U, S>(
    workers: usize,
    n: usize,
    init: impl Fn() -> S + Sync,
    next: impl Fn(&mut S) -> Option<(usize, U)> + Sync,
) -> Vec<U>
where
    U: Send,
{
    let finished: Mutex<Vec<(usize, U)>> = Mutex::new(Vec::with_capacity(n));
    let work = || {
        let mut state = init();
        let mut local: Vec<(usize, U)> = Vec::new();
        while let Some(done) = next(&mut state) {
            local.push(done);
        }
        finished.lock().extend(local);
    };
    std::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(work);
        }
        work();
    });
    let mut out = finished.into_inner();
    debug_assert_eq!(out.len(), n, "every task must be executed exactly once");
    out.sort_unstable_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, u)| u).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        for workers in [1, 2, 4, 9] {
            let pool = ThreadPool::new(workers);
            let out = pool.map((0..100).collect(), |i, x: usize| {
                assert_eq!(i, x);
                x * 2
            });
            assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_handles_edge_sizes() {
        let pool = ThreadPool::new(4);
        assert_eq!(pool.map(Vec::<usize>::new(), |_, x| x), Vec::<usize>::new());
        assert_eq!(pool.map(vec![7], |_, x| x + 1), vec![8]);
        // More workers than items.
        assert_eq!(pool.map(vec![1, 2], |_, x| x), vec![1, 2]);
    }

    #[test]
    fn a_slow_task_holds_back_no_other_task() {
        // While one worker sits on the slow first task, the others must
        // drain the rest of the queue: every task runs once, output in order.
        let ran = AtomicUsize::new(0);
        let pool = ThreadPool::new(4);
        let out = pool.map((0..40).collect(), |_, x: usize| {
            ran.fetch_add(1, Ordering::SeqCst);
            if x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            x
        });
        assert_eq!(ran.load(Ordering::SeqCst), 40);
        assert_eq!(out, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn the_calling_thread_is_a_worker() {
        if cached_parallelism() < 2 {
            return; // the inline path runs: no helper to meet at the barrier
        }
        // Both tasks wait at one barrier, so two threads must run them, one
        // each; a call that spawns `workers - 1` helpers can only get there
        // if the caller is the other.
        let caller = std::thread::current().id();
        let barrier = std::sync::Barrier::new(2);
        let ids = ThreadPool::new(2).map(vec![0, 1], |_, _: usize| {
            barrier.wait();
            std::thread::current().id()
        });
        assert_ne!(ids[0], ids[1], "exactly two threads ran the two tasks");
        assert!(ids.contains(&caller), "the caller ran one of them");
    }

    #[test]
    fn a_panicking_task_propagates_out_of_map() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let caller = std::thread::current().id();
        for workers in [1, 2] {
            let pool = ThreadPool::new(workers);
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.map((0..4).collect(), |_, x: usize| {
                    assert_ne!(x, 2, "task 2 panics");
                    x
                })
            }));
            assert!(result.is_err(), "{workers} worker(s)");
            if workers == 2 && cached_parallelism() >= 2 {
                // Two tasks meet at a barrier, so one runs on the caller and
                // one on the helper; each side panics in turn.
                for panic_on_caller in [true, false] {
                    let barrier = std::sync::Barrier::new(2);
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        pool.map(vec![0, 1], |_, x: usize| {
                            barrier.wait();
                            let on_caller = std::thread::current().id() == caller;
                            assert_ne!(on_caller, panic_on_caller, "this side panics");
                            x
                        })
                    }));
                    assert!(result.is_err(), "panic on caller: {panic_on_caller}");
                }
            }
            // The pool holds no state a panic could leave behind.
            let out = pool.map((0..10).collect(), |_, x: usize| x * 3);
            assert_eq!(out, (0..10).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_indices_covers_range_in_order() {
        let data = [3usize, 1, 4, 1, 5, 9, 2, 6];
        for workers in [1, 3, 8] {
            let pool = ThreadPool::new(workers);
            let out = pool.map_indices_init(data.len(), || (), |_, i| data[i] * 10);
            assert_eq!(out, data.iter().map(|x| x * 10).collect::<Vec<_>>());
        }
        assert!(ThreadPool::new(4)
            .map_indices_init(0, || (), |_, i| i)
            .is_empty());
    }

    /// The atomic cursor hands out every index once, and results come back
    /// in index order, while one slow index holds its worker.
    #[test]
    fn map_indices_runs_each_index_once_in_order() {
        let n = 300;
        for workers in [1, 2, 4] {
            let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let out = ThreadPool::new(workers).map_indices_init(
                n,
                || (),
                |_, i| {
                    runs[i].fetch_add(1, Ordering::SeqCst);
                    if i == 1 {
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    }
                    i * 3
                },
            );
            assert_eq!(
                out,
                (0..n).map(|i| i * 3).collect::<Vec<_>>(),
                "{workers} workers"
            );
            assert!(
                runs.iter().all(|r| r.load(Ordering::SeqCst) == 1),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn map_allows_borrowed_captures() {
        let base = vec![10usize, 20, 30];
        let pool = ThreadPool::new(2);
        let out = pool.map(vec![0usize, 1, 2], |_, i| base[i]);
        assert_eq!(out, base);
    }

    #[test]
    fn default_parallelism_is_positive() {
        assert!(default_parallelism() >= 1);
        assert_eq!(ThreadPool::default().workers(), 1);
    }

    #[test]
    fn zero_workers_means_auto() {
        let auto = ThreadPool::new(0);
        assert_eq!(auto.workers(), default_parallelism());
        assert!(auto.workers() >= 1);
        // Auto pools still map correctly.
        let out = auto.map((0..10).collect(), |_, x: usize| x + 1);
        assert_eq!(out, (1..11).collect::<Vec<_>>());
    }

    #[test]
    fn map_init_reuses_per_worker_state() {
        // Each worker's state counts the tasks it executed; the total over
        // all states must equal the item count, and results stay in order.
        for workers in [1, 4] {
            let pool = ThreadPool::new(workers);
            let out = pool.map_init(
                (0..50).collect(),
                || 0usize,
                |seen, i, x: usize| {
                    *seen += 1;
                    (x * 2, i, *seen)
                },
            );
            assert_eq!(out.len(), 50);
            for (i, &(doubled, idx, seen)) in out.iter().enumerate() {
                assert_eq!(doubled, i * 2);
                assert_eq!(idx, i);
                // State is reused: at least one task per worker sees a
                // counter > 0, and on the inline path it counts all tasks.
                assert!(seen >= 1);
            }
            if pool.workers().min(cached_parallelism()) <= 1 {
                assert_eq!(out.last().unwrap().2, 50, "inline path reuses one state");
            }
        }
    }
}
