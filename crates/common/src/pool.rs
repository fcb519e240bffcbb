//! A small work-stealing thread pool for parallel batch work.
//!
//! Callers hand [`ThreadPool::map`] one task per independent unit — the
//! surfacing pipeline one per host, the index builder one per doc range,
//! batch serving (`ClusterServer::search_batch` in `deepweb-index`) one per
//! query. Workers drain their own queue first and steal from the back of
//! their neighbours' queues when idle, so uneven tasks (one giant site, many
//! tiny ones) still saturate every core. Results are reassembled
//! **in input order**, which is what lets callers guarantee parallel output
//! is byte-identical to the sequential path (see DESIGN.md §8) without
//! tagging or reordering anything themselves.
//!
//! The pool is scope-based: [`ThreadPool::map`] spawns its workers inside
//! `std::thread::scope`, so tasks may borrow caller state (`&dyn Fetcher`,
//! value libraries, background statistics) without `'static` bounds or
//! reference counting.

use parking_lot::Mutex;
use std::collections::VecDeque;

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

/// A fixed-width work-stealing executor.
///
/// `workers == 1` (the default) never spawns a thread: `map` degenerates to a
/// plain in-order loop, so the sequential path stays the reference
/// implementation the parallel path is tested against. `workers == 0` at
/// construction means "auto": size the pool to the machine.
///
/// `map` additionally clamps the number of threads it *spawns* to the
/// machine's available parallelism: on a single-core host a `workers = 4`
/// pool runs inline instead of paying spawn/steal overhead for zero
/// concurrency. Results are worker-count independent by contract, so
/// the clamp can never change output. Corollary: on a 1-core host every
/// `workers > 1` test/bench exercises the inline path only — the spawn/steal
/// machinery gets its coverage from multi-core CI runners.
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
    /// available parallelism (probed once per process — the segmented tier
    /// constructs a pool per batch, so this must not syscall every time).
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
    /// Items are dealt round-robin onto per-worker deques; an idle worker
    /// steals from the *back* of its neighbours' queues (classic
    /// work-stealing: owners pop oldest-first, thieves take the newest
    /// assignment, minimising contention on the same end).
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
        // Spawning more threads than cores (or items) only adds overhead.
        let workers = self.workers.min(n).min(cached_parallelism());
        if workers <= 1 {
            // Inline fast path: no thread scope, no queues, no locks.
            let mut state = init();
            return items
                .into_iter()
                .enumerate()
                .map(|(i, t)| f(&mut state, i, t))
                .collect();
        }
        let queues: Vec<Mutex<VecDeque<(usize, T)>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for (i, t) in items.into_iter().enumerate() {
            queues[i % workers].lock().push_back((i, t));
        }
        let finished: Mutex<Vec<(usize, U)>> = Mutex::new(Vec::with_capacity(n));
        std::thread::scope(|s| {
            for w in 0..workers {
                let queues = &queues;
                let finished = &finished;
                let init = &init;
                let f = &f;
                s.spawn(move || {
                    let mut state = init();
                    let mut local: Vec<(usize, U)> = Vec::new();
                    while let Some((i, t)) = pop_or_steal(queues, w) {
                        local.push((i, f(&mut state, i, t)));
                    }
                    finished.lock().extend(local);
                });
            }
        });
        let mut out = finished.into_inner();
        debug_assert_eq!(out.len(), n, "every task must be executed exactly once");
        out.sort_unstable_by_key(|&(i, _)| i);
        out.into_iter().map(|(_, u)| u).collect()
    }

    /// Apply `f` to every index in `0..n`, in parallel, with reusable
    /// per-worker state, returning results in index order —
    /// [`ThreadPool::map_init`] without materialising the inputs. This is
    /// what batch serving uses to fan out over a borrowed slice of queries
    /// without cloning them into the task queue, one scratch per worker.
    pub fn map_indices_init<U, S, I, F>(&self, n: usize, init: I, f: F) -> Vec<U>
    where
        U: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> U + Sync,
    {
        self.map_init((0..n).collect(), init, |state, _, i| f(state, i))
    }
}

/// Pop from the worker's own queue, else steal from a neighbour. `None` only
/// when every queue is empty — tasks never respawn, so that state is final.
fn pop_or_steal<T>(queues: &[Mutex<VecDeque<(usize, T)>>], worker: usize) -> Option<(usize, T)> {
    if let Some(task) = queues[worker].lock().pop_front() {
        return Some(task);
    }
    for offset in 1..queues.len() {
        let victim = (worker + offset) % queues.len();
        if let Some(task) = queues[victim].lock().pop_back() {
            return Some(task);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
    fn every_task_runs_exactly_once_under_stealing() {
        // One giant task on worker 0's queue forces the other workers to
        // steal the rest of worker 0's round-robin share.
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
