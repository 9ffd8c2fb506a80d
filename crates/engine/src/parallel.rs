//! Minimal parallel primitives: a data-parallel map over scoped threads and
//! a fixed worker pool for serving-style workloads.
//!
//! The build environment is offline, so `rayon` is unavailable; this module
//! provides the two primitives the workspace needs.  [`par_map`] maps over a
//! slice with dynamic (work-stealing-style) scheduling on top of
//! `std::thread::scope` — jobs are handed out through a shared atomic
//! counter, so uneven per-item cost (small trees next to big ones) balances
//! automatically, and results come back in input order.  [`WorkerPool`] is
//! the open-ended variant for jobs that arrive over time instead of as a
//! slice: a fixed set of threads draining a shared queue, used by
//! `crates/server` to execute HTTP requests.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Number of worker threads to use by default: the available parallelism,
/// capped so tiny inputs do not spawn idle threads.
pub fn default_threads(jobs: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    cores.min(jobs).max(1)
}

/// Apply `f` to every item of `items` on `threads` worker threads and return
/// the results in input order.
///
/// `f` receives the item index and a reference to the item.  Panics in a
/// worker propagate to the caller after all workers have stopped.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.min(items.len()).max(1);
    if threads <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(idx, item)| f(idx, item))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let mut per_worker: Vec<Vec<(usize, R)>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= items.len() {
                            break;
                        }
                        done.push((idx, f(idx, &items[idx])));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            per_worker.push(handle.join().expect("parallel worker panicked"));
        }
    });
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (idx, result) in per_worker.into_iter().flatten() {
        slots[idx] = Some(result);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every job produced a result"))
        .collect()
}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: Mutex<PoolQueue>,
    wake: Condvar,
}

struct PoolQueue {
    jobs: VecDeque<Job>,
    shutting_down: bool,
}

/// A fixed pool of worker threads draining a shared job queue.
///
/// Unlike [`par_map`], which needs the whole work list up front, jobs can be
/// [`submit`](WorkerPool::submit)ted at any time from any thread; each runs
/// exactly once on some worker.  [`shutdown`](WorkerPool::shutdown) drains
/// the queue before joining the workers, so no accepted job is lost.
///
/// ```
/// use engine::parallel::WorkerPool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
///
/// let pool = WorkerPool::new(4);
/// let counter = Arc::new(AtomicUsize::new(0));
/// for _ in 0..100 {
///     let counter = counter.clone();
///     pool.submit(move || {
///         counter.fetch_add(1, Ordering::Relaxed);
///     });
/// }
/// pool.shutdown();
/// assert_eq!(counter.load(Ordering::Relaxed), 100);
/// ```
pub struct WorkerPool {
    state: Arc<PoolState>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn a pool of `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let state = Arc::new(PoolState {
            queue: Mutex::new(PoolQueue {
                jobs: VecDeque::new(),
                shutting_down: false,
            }),
            wake: Condvar::new(),
        });
        let workers = (0..threads.max(1))
            .map(|index| {
                let state = state.clone();
                std::thread::Builder::new()
                    .name(format!("worker-{index}"))
                    .spawn(move || worker_loop(&state))
                    .expect("spawning a pool worker failed")
            })
            .collect();
        WorkerPool { state, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Queue `job` for execution on some worker.  Jobs submitted after
    /// [`shutdown`](WorkerPool::shutdown) began are dropped.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        let mut queue = self.state.queue.lock().expect("worker pool poisoned");
        if queue.shutting_down {
            return;
        }
        queue.jobs.push_back(Box::new(job));
        drop(queue);
        self.state.wake.notify_one();
    }

    /// Pending (not yet started) jobs.
    pub fn backlog(&self) -> usize {
        self.state
            .queue
            .lock()
            .expect("worker pool poisoned")
            .jobs
            .len()
    }

    /// Finish every queued job, then stop and join the workers.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        for worker in self.workers.drain(..) {
            worker.join().expect("pool worker panicked");
        }
    }

    fn begin_shutdown(&self) {
        let mut queue = self.state.queue.lock().expect("worker pool poisoned");
        queue.shutting_down = true;
        drop(queue);
        self.state.wake.notify_all();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // `shutdown` already drained `workers`; a pool dropped without an
        // explicit shutdown still stops and joins cleanly.
        self.begin_shutdown();
        for worker in self.workers.drain(..) {
            worker.join().expect("pool worker panicked");
        }
    }
}

fn worker_loop(state: &PoolState) {
    loop {
        let job = {
            let mut queue = state.queue.lock().expect("worker pool poisoned");
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                if queue.shutting_down {
                    return;
                }
                queue = state.wake.wait(queue).expect("worker pool poisoned");
            }
        };
        // Contain job panics: a failing job must not retire its worker (the
        // pool would silently lose capacity) nor poison the later
        // `shutdown`/`Drop` join.  The pool is fire-and-forget, so the
        // panic payload has nowhere better to go than being swallowed;
        // callers that care wrap their own `catch_unwind` first.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_order() {
        let items: Vec<usize> = (0..100).collect();
        let doubled = par_map(&items, 8, |_, &x| 2 * x);
        assert_eq!(doubled, (0..100).map(|x| 2 * x).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_and_empty_inputs_work() {
        let items: Vec<usize> = vec![7];
        assert_eq!(par_map(&items, 1, |idx, &x| idx + x), vec![7]);
        let empty: Vec<usize> = Vec::new();
        assert!(par_map(&empty, 4, |_, &x| x).is_empty());
    }

    #[test]
    fn uneven_workloads_are_balanced() {
        // Items with wildly different costs still all complete.
        let items: Vec<u64> = (0..32)
            .map(|i| if i % 7 == 0 { 200_000 } else { 10 })
            .collect();
        let sums = par_map(&items, 4, |_, &n| (0..n).sum::<u64>());
        assert_eq!(sums.len(), 32);
        assert_eq!(sums[1], 45);
    }

    #[test]
    fn default_threads_is_positive_and_bounded() {
        assert!(default_threads(0) >= 1);
        assert!(default_threads(2) >= 1);
        assert!(default_threads(1_000) >= 1);
    }

    #[test]
    fn pool_runs_every_submitted_job() {
        use std::sync::atomic::AtomicUsize;

        let pool = WorkerPool::new(4);
        assert_eq!(pool.threads(), 4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..250 {
            let counter = counter.clone();
            pool.submit(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 250);
    }

    #[test]
    fn dropping_a_pool_joins_cleanly() {
        use std::sync::atomic::AtomicUsize;

        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(2);
            for _ in 0..10 {
                let counter = counter.clone();
                pool.submit(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        }
        // Drop drains the queue before joining.
        assert_eq!(counter.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn a_panicking_job_does_not_retire_its_worker() {
        use std::sync::atomic::AtomicUsize;

        let pool = WorkerPool::new(1);
        pool.submit(|| panic!("job blew up"));
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..5 {
            let counter = counter.clone();
            pool.submit(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        // The single worker survived the panic, ran the rest, and the join
        // in shutdown() does not propagate the contained panic.
        pool.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn submissions_after_shutdown_are_dropped() {
        use std::sync::atomic::AtomicUsize;

        let pool = WorkerPool::new(1);
        pool.begin_shutdown();
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let counter = counter.clone();
            pool.submit(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 0);
    }
}
