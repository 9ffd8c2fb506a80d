//! A minimal data-parallel primitive: a map over scoped threads.
//!
//! The build environment is offline, so `rayon` is unavailable; this module
//! provides the one primitive the workspace needs.  [`par_map`] maps over a
//! slice with dynamic (work-stealing-style) scheduling on top of
//! `std::thread::scope` — jobs are handed out through a shared atomic
//! counter, so uneven per-item cost (small trees next to big ones) balances
//! automatically, and results come back in input order.  [`default_threads`]
//! sizes it.

use std::sync::atomic::{AtomicUsize, Ordering};

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
}
