//! Poison-tolerant, lock-order-checked mutexes for the shared structures.
//!
//! Every long-lived shared structure in the workspace (`BudgetLedger`,
//! `CacheCore` under the plan and factor caches, `JobRegistry`, the server's
//! request queue and stats recorders) guards its state with a
//! [`TrackedMutex`] instead of a bare [`std::sync::Mutex`]. The wrapper
//! changes two things:
//!
//! 1. **Poison tolerance.** [`TrackedMutex::lock`] never panics on a
//!    poisoned mutex: it recovers the guard with
//!    `unwrap_or_else(PoisonError::into_inner)`. All of these structures
//!    maintain their invariants *before* releasing the guard (counters are
//!    updated with saturating arithmetic, entries are inserted whole), so a
//!    panic that unwound through a critical section leaves valid — merely
//!    possibly stale — state. Propagating the poison would instead convert
//!    one contained panic into a process-wide denial of service, which is
//!    exactly what the serving path's "zero non-injected 5xx" invariant
//!    forbids.
//!
//! 2. **Lock-order checking** (debug builds only). Each mutex carries a
//!    static *class* name. Under `debug_assertions`, every acquisition
//!    records the edge `held-class -> acquired-class` into a process-wide
//!    acquisition-order graph and panics immediately if the new edge closes
//!    a cycle — the canonical AB/BA deadlock — naming both lock classes and
//!    the path between them. The existing unit and stress tests thereby
//!    double as lock-order model checks: any test that merely *executes* an
//!    inconsistent nesting fails deterministically, even if the interleaving
//!    needed for the real deadlock never happens on that run. Release builds
//!    compile the tracking away entirely.
//!
//! Condvar integration: blocking on a [`std::sync::Condvar`] releases the
//! OS mutex, but [`TrackedCondvar::wait`] deliberately keeps the class in
//! the thread's held set — the blocked thread cannot acquire anything else
//! while parked, and on wakeup it holds the lock again without re-running
//! the order check (the wakeup re-acquisition order is dictated by the OS,
//! not by the code under test).

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// A mutex with a named lock class, poison tolerance, and (in debug builds)
/// global acquisition-order cycle detection.
pub struct TrackedMutex<T> {
    inner: Mutex<T>,
    class: &'static str,
}

impl<T: std::fmt::Debug> std::fmt::Debug for TrackedMutex<T> {
    fn fmt(&self, fmt: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fmt.debug_struct("TrackedMutex")
            .field("class", &self.class)
            .field("inner", &self.inner)
            .finish()
    }
}

/// RAII guard for a [`TrackedMutex`]; releases the class from the thread's
/// held set on drop.
pub struct TrackedGuard<'a, T> {
    guard: Option<MutexGuard<'a, T>>,
    class: &'static str,
}

impl<T> TrackedMutex<T> {
    /// Create a mutex belonging to lock class `class`. Every instance
    /// guarding the same kind of structure should share one class name
    /// (e.g. `"plan-cache.entries"`), because the order graph is built over
    /// classes, not instances.
    pub fn new(value: T, class: &'static str) -> Self {
        TrackedMutex {
            inner: Mutex::new(value),
            class,
        }
    }

    /// Acquire the lock, recovering from poison, and (debug builds) check
    /// the acquisition against the global lock-order graph.
    ///
    /// # Panics
    /// In debug builds, panics if acquiring this class while holding the
    /// locks this thread currently holds closes a cycle in the
    /// acquisition-order graph.
    pub fn lock(&self) -> TrackedGuard<'_, T> {
        order::on_acquire(self.class);
        let guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        TrackedGuard {
            guard: Some(guard),
            class: self.class,
        }
    }

    /// The lock-class name this mutex was created with.
    pub fn class(&self) -> &'static str {
        self.class
    }
}

impl<T> std::ops::Deref for TrackedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard
            .as_ref()
            .unwrap_or_else(|| unreachable!("guard present until drop"))
    }
}

impl<T> std::ops::DerefMut for TrackedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard
            .as_mut()
            .unwrap_or_else(|| unreachable!("guard present until drop"))
    }
}

impl<T> Drop for TrackedGuard<'_, T> {
    fn drop(&mut self) {
        if self.guard.take().is_some() {
            order::on_release(self.class);
        }
    }
}

/// Condvar companion to [`TrackedMutex`]: same API shape as
/// [`std::sync::Condvar`] but consumes and returns [`TrackedGuard`]s and is
/// poison-tolerant.
pub struct TrackedCondvar {
    inner: Condvar,
}

impl std::fmt::Debug for TrackedCondvar {
    fn fmt(&self, fmt: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fmt.debug_struct("TrackedCondvar").finish_non_exhaustive()
    }
}

impl TrackedCondvar {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        TrackedCondvar {
            inner: Condvar::new(),
        }
    }

    /// Block until notified. The guard's lock class stays in the thread's
    /// held set for the duration of the wait (see module docs).
    pub fn wait<'a, T>(&self, mut guard: TrackedGuard<'a, T>) -> TrackedGuard<'a, T> {
        let class = guard.class;
        let inner = guard
            .guard
            .take()
            .unwrap_or_else(|| unreachable!("guard present until drop"));
        // `guard` now drops without releasing the class: the wait re-acquires
        // the same lock before returning.
        drop(guard);
        let inner = self
            .inner
            .wait(inner)
            .unwrap_or_else(PoisonError::into_inner);
        TrackedGuard {
            guard: Some(inner),
            class,
        }
    }

    /// Block until notified or `timeout` elapses. The boolean is true when
    /// the wait timed out.
    pub fn wait_timeout<'a, T>(
        &self,
        mut guard: TrackedGuard<'a, T>,
        timeout: Duration,
    ) -> (TrackedGuard<'a, T>, bool) {
        let class = guard.class;
        let inner = guard
            .guard
            .take()
            .unwrap_or_else(|| unreachable!("guard present until drop"));
        drop(guard);
        let (inner, result) = self
            .inner
            .wait_timeout(inner, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        (
            TrackedGuard {
                guard: Some(inner),
                class,
            },
            result.timed_out(),
        )
    }

    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

#[cfg(debug_assertions)]
mod order {
    //! The global acquisition-order graph, compiled only into debug builds.

    use std::cell::RefCell;
    use std::sync::{Mutex, OnceLock, PoisonError};

    struct Graph {
        /// Registered class names; index is the class id.
        classes: Vec<&'static str>,
        /// `edges[a]` holds every class id acquired while `a` was held.
        edges: Vec<Vec<usize>>,
    }

    fn graph() -> &'static Mutex<Graph> {
        static GRAPH: OnceLock<Mutex<Graph>> = OnceLock::new();
        GRAPH.get_or_init(|| {
            Mutex::new(Graph {
                classes: Vec::new(),
                edges: Vec::new(),
            })
        })
    }

    thread_local! {
        /// Class ids of the locks this thread currently holds, in
        /// acquisition order.
        static HELD: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    }

    fn class_id(graph: &mut Graph, class: &'static str) -> usize {
        if let Some(id) = graph.classes.iter().position(|c| *c == class) {
            return id;
        }
        graph.classes.push(class);
        graph.edges.push(Vec::new());
        graph.classes.len() - 1
    }

    /// Is `to` reachable from `from` over recorded acquisition edges?
    /// Returns the path when it is.
    fn path(graph: &Graph, from: usize, to: usize) -> Option<Vec<usize>> {
        let mut prev: Vec<Option<usize>> = vec![None; graph.classes.len()];
        let mut queue = std::collections::VecDeque::from([from]);
        let mut seen = vec![false; graph.classes.len()];
        seen[from] = true;
        while let Some(node) = queue.pop_front() {
            if node == to {
                let mut p = vec![to];
                let mut cur = to;
                while let Some(parent) = prev[cur] {
                    p.push(parent);
                    if parent == from {
                        break;
                    }
                    cur = parent;
                }
                p.reverse();
                return Some(p);
            }
            for &next in &graph.edges[node] {
                if !seen[next] {
                    seen[next] = true;
                    prev[next] = Some(node);
                    queue.push_back(next);
                }
            }
        }
        None
    }

    pub fn on_acquire(class: &'static str) {
        let held: Vec<usize> = HELD.with(|h| h.borrow().clone());
        // Record edges and detect cycles outside the thread-local borrow so a
        // panic here cannot double-borrow.
        let mut cycle: Option<String> = None;
        {
            let mut g = graph().lock().unwrap_or_else(PoisonError::into_inner);
            let id = class_id(&mut g, class);
            if held.contains(&id) {
                cycle = Some(format!(
                    "lock-order violation: thread already holds `{class}` and is \
                     acquiring it again (same-class nesting deadlocks against a \
                     second thread)"
                ));
            } else {
                // Check for a cycle BEFORE recording the new edges: a failed
                // acquisition must not contaminate the graph, otherwise the
                // consistent order becomes unusable after one violation.
                for &h in &held {
                    if let Some(p) = path(&g, id, h) {
                        let names: Vec<&str> = p.iter().map(|&i| g.classes[i]).collect();
                        cycle = Some(format!(
                            "lock-order violation: acquiring `{class}` while holding \
                             `{}` closes the cycle {} -> {}",
                            g.classes[h],
                            names.join(" -> "),
                            class
                        ));
                        break;
                    }
                }
                if cycle.is_none() {
                    for &h in &held {
                        if !g.edges[h].contains(&id) {
                            g.edges[h].push(id);
                        }
                    }
                }
            }
            if cycle.is_none() {
                HELD.with(|held| held.borrow_mut().push(id));
            }
        }
        if let Some(message) = cycle {
            panic!("{message}");
        }
    }

    pub fn on_release(class: &'static str) {
        let id = {
            let mut g = graph().lock().unwrap_or_else(PoisonError::into_inner);
            class_id(&mut g, class)
        };
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&h| h == id) {
                held.remove(pos);
            }
        });
    }
}

#[cfg(not(debug_assertions))]
mod order {
    //! Release builds: lock tracking compiles to nothing.

    #[inline(always)]
    pub fn on_acquire(_class: &'static str) {}

    #[inline(always)]
    pub fn on_release(_class: &'static str) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_and_mutate() {
        let m = TrackedMutex::new(0u64, "test.basic");
        *m.lock() += 41;
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn poison_is_tolerated() {
        let m = Arc::new(TrackedMutex::new(7u64, "test.poison"));
        let m2 = Arc::clone(&m);
        let result = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison the mutex");
        })
        .join();
        assert!(result.is_err());
        // A bare std Mutex would now panic on .lock().unwrap(); the tracked
        // one recovers the value.
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn condvar_roundtrip() {
        let m = Arc::new(TrackedMutex::new(false, "test.condvar"));
        let cv = Arc::new(TrackedCondvar::new());
        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let waiter = std::thread::spawn(move || {
            let mut guard = m2.lock();
            while !*guard {
                guard = cv2.wait(guard);
            }
            true
        });
        std::thread::sleep(Duration::from_millis(10));
        *m.lock() = true;
        cv.notify_all();
        assert!(waiter.join().expect("waiter thread panicked"));
    }

    #[test]
    fn condvar_wait_timeout_reports_timeout() {
        let m = TrackedMutex::new((), "test.condvar-timeout");
        let cv = TrackedCondvar::new();
        let guard = m.lock();
        let (_guard, timed_out) = cv.wait_timeout(guard, Duration::from_millis(5));
        assert!(timed_out);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn ab_ba_cycle_panics() {
        // The graph is global and keyed by class name, so this test uses
        // names no other test (or production code) uses.
        let a = Arc::new(TrackedMutex::new((), "test.cycle-a"));
        let b = Arc::new(TrackedMutex::new((), "test.cycle-b"));
        {
            let _ga = a.lock();
            let _gb = b.lock(); // records a -> b
        }
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let result = std::thread::spawn(move || {
            let _gb = b2.lock();
            let _ga = a2.lock(); // b -> a closes the cycle
        })
        .join();
        let err = result.expect_err("reversed acquisition order must panic");
        let message = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            message.contains("lock-order violation"),
            "unexpected panic: {message}"
        );
        // The failed acquisition must not leak into the held set: the same
        // thread can still use consistent order afterwards.
        let _ga = a.lock();
        let _gb = b.lock();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn same_class_nesting_panics() {
        let m = Arc::new(TrackedMutex::new((), "test.self-nest"));
        let m2 = Arc::clone(&m);
        let result = std::thread::spawn(move || {
            let _g1 = m2.lock();
            let _g2 = m2.lock();
        })
        .join();
        assert!(result.is_err());
    }

    #[test]
    fn consistent_order_across_threads_is_fine() {
        let a = Arc::new(TrackedMutex::new(0u64, "test.order-a"));
        let b = Arc::new(TrackedMutex::new(0u64, "test.order-b"));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let (a, b) = (Arc::clone(&a), Arc::clone(&b));
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    let mut ga = a.lock();
                    let mut gb = b.lock();
                    *ga += 1;
                    *gb += 1;
                }
            }));
        }
        for h in handles {
            h.join().expect("worker panicked");
        }
        assert_eq!(*a.lock(), 400);
        assert_eq!(*b.lock(), 400);
    }
}
