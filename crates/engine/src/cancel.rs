//! Cooperative cancellation: a shareable flag + optional deadline that the
//! long-running pipeline stages poll.
//!
//! A [`CancelToken`] is cheap to clone (one `Arc`) and carries two ways to
//! fire: an explicit [`CancelToken::cancel`] call (a client hung up, the
//! server is shutting down) and an optional deadline set at construction
//! (per-request time budgets).  Either one makes [`CancelToken::is_cancelled`]
//! return `true`; the stages check it at bounded intervals — every few
//! hundred eliminations in the ordering, at the boundaries of every solver
//! run (the schedule's and the per-column model's), every few thousand
//! simulation steps in the out-of-core scheduler, every few dozen columns
//! in the numeric factorization — so a fired token unwinds the whole
//! plan → schedule → execute flow within a few milliseconds of real work,
//! surfacing as [`EngineError::Cancelled`](crate::EngineError::Cancelled)
//! with the stage that noticed and the elapsed wall-clock time.
//!
//! The token rides on the engine handle
//! ([`Engine::with_cancel`](crate::Engine::with_cancel)); only the subtree
//! factors a distributed worker runs —
//! [`TaskSlice::factor`](crate::TaskSlice::factor) and
//! [`Plan::factor_subtree`](crate::Plan::factor_subtree) — take one
//! directly.
//!
//! The lower crates stay dependency-free: they take a plain
//! `Option<&dyn Fn() -> bool>` stop probe — `+ Sync` for the ordering,
//! whose nested dissection polls it from a helper thread too — and the
//! engine supplies a closure that polls the token.
//!
//! ```
//! use engine::cancel::CancelToken;
//! use std::time::Duration;
//!
//! let token = CancelToken::with_deadline(Duration::from_millis(50));
//! assert!(!token.is_cancelled());
//! token.cancel();
//! assert!(token.is_cancelled());
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// The process-wide monotonic anchor behind [`monotonic_millis`], pinned on
/// first use.
static MONOTONIC_ANCHOR: OnceLock<Instant> = OnceLock::new();

/// Milliseconds elapsed since a process-wide monotonic anchor (the first
/// call in this process).
///
/// This is the clock the distributed coordinator stamps task leases with.
/// Leases must never use wall time (`SystemTime`): an NTP step or a
/// suspended laptop would expire every outstanding lease at once — or worse,
/// push expiries into the future so a dead worker's task is never re-issued.
/// `Instant` is monotonic by contract, and anchoring once per process makes
/// the values cheap to store, compare, and subtract as plain `u64`s.
pub fn monotonic_millis() -> u64 {
    let anchor = *MONOTONIC_ANCHOR.get_or_init(Instant::now);
    Instant::now().duration_since(anchor).as_millis() as u64
}

struct Inner {
    flag: AtomicBool,
    deadline: Option<Instant>,
    started: Instant,
}

/// A shareable cancellation flag with an optional deadline; see the module
/// docs.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token with no deadline: it only fires via [`CancelToken::cancel`].
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                flag: AtomicBool::new(false),
                deadline: None,
                started: Instant::now(),
            }),
        }
    }

    /// A token that fires automatically once `budget` has elapsed (and can
    /// still be fired earlier via [`CancelToken::cancel`]).
    pub fn with_deadline(budget: Duration) -> Self {
        let now = Instant::now();
        CancelToken {
            inner: Arc::new(Inner {
                flag: AtomicBool::new(false),
                deadline: Some(now.checked_add(budget).unwrap_or_else(|| {
                    // A budget beyond the representable range is "no
                    // practical deadline"; saturate far in the future.
                    now + Duration::from_secs(60 * 60 * 24 * 365)
                })),
                started: now,
            }),
        }
    }

    /// Fire the token explicitly.  Idempotent; never blocks.
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::Release);
    }

    /// Has the token fired (explicitly or by deadline)?
    pub fn is_cancelled(&self) -> bool {
        self.inner.flag.load(Ordering::Acquire)
            || self
                .inner
                .deadline
                .is_some_and(|deadline| Instant::now() >= deadline)
    }

    /// Wall-clock time since the token was created (what
    /// [`EngineError::Cancelled`](crate::EngineError::Cancelled) reports).
    pub fn elapsed(&self) -> Duration {
        self.inner.started.elapsed()
    }

    /// Run `body` with the stop probe the lower crates take — a closure
    /// polling `cancel`, or `None` without a token.  The one place the
    /// engine turns a token into a probe.  The probe is `Sync`, as the
    /// ordering's helper thread polls it too; it coerces to the plain
    /// `&dyn Fn() -> bool` the other crates take.
    pub(crate) fn with_stop<T>(
        cancel: Option<&CancelToken>,
        body: impl FnOnce(Option<&(dyn Fn() -> bool + Sync)>) -> T,
    ) -> T {
        match cancel {
            Some(token) => body(Some(&|| token.is_cancelled())),
            None => body(None),
        }
    }

    /// Time left until the deadline (`None` when the token has no deadline;
    /// zero once it has passed).
    pub fn remaining(&self) -> Option<Duration> {
        self.inner
            .deadline
            .map(|deadline| deadline.saturating_duration_since(Instant::now()))
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, fmt: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fmt.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .field("deadline", &self.inner.deadline)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_cancellation_fires_for_every_clone() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn deadlines_fire_on_their_own() {
        let token = CancelToken::with_deadline(Duration::ZERO);
        assert!(token.is_cancelled());
        let token = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!token.is_cancelled());
        assert!(token.remaining().unwrap() > Duration::from_secs(3000));
        assert!(CancelToken::new().remaining().is_none());
    }

    #[test]
    fn huge_budgets_saturate_instead_of_panicking() {
        let token = CancelToken::with_deadline(Duration::MAX);
        assert!(!token.is_cancelled());
    }

    #[test]
    fn monotonic_millis_never_goes_backwards() {
        let a = monotonic_millis();
        let b = monotonic_millis();
        std::thread::sleep(Duration::from_millis(5));
        let c = monotonic_millis();
        assert!(b >= a);
        assert!(c >= b + 4, "slept 5ms but clock advanced {}ms", c - b);
    }
}
