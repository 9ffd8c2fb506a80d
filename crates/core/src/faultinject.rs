//! Process-wide fault injection for the chaos harness.
//!
//! A *fault plan* is a small list of rules, each naming an instrumented
//! [`FaultPoint`] (spelt `plan:ordering`, `arena:alloc`, ... in a plan spec),
//! the 1-based hit count at which it fires, and an action:
//!
//! * `panic` — panic at the fault point (exercises unwind paths: the
//!   single-flight plan cache, the worker-pool `catch_unwind`, the server's
//!   per-request panic fence);
//! * `sleep:MS` — stall the fault point for `MS` milliseconds (exercises
//!   deadlines and cancellation);
//! * `drop` — ask the call site to drop the unit of work it was about to
//!   perform (a subtree task, an arena allocation); each site documents how
//!   it interprets the signal.
//!
//! The plan lives in a process-global registry so the serving stack needs no
//! plumbing: production code calls [`fire`] at its fault points, and the
//! disarmed fast path is a single relaxed atomic load.  Plans are installed
//! programmatically ([`install`]) by the in-process chaos harness, or parsed
//! from a spec string ([`parse_plan`], format
//! `action@point#nth[,action@point#nth...]`) handed to `serve` via the
//! `TREEMEM_FAULT_PLAN` environment variable.
//!
//! This module is a *testing* facility: nothing in the repo installs a plan
//! outside the chaos scenario and the regression tests, and an empty plan
//! costs one atomic load per fault point.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Every instrumented fault point.  A call site names a variant, so a
/// misspelt point does not compile; [`parse_plan`] accepts only the
/// [`FaultPoint::name`]s, so a misspelt spec is an error instead of a plan
/// that never fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// Before the fill-reducing ordering (`Engine::plan`).
    PlanOrdering,
    /// Before the amalgamation (`Engine::plan`).
    PlanSymbolic,
    /// Before a MinMemory solver runs (`Plan::schedule`).
    ScheduleSolver,
    /// Before the MinIO walk (`Plan::schedule`).
    ScheduleIo,
    /// Before the numeric factorization (`Schedule::execute`).
    ExecuteNumeric,
    /// Before one subtree task, on a pool thread or a worker process.
    ParexecTask,
    /// At every frontal-matrix allocation of the numeric column loop.
    ArenaAlloc,
}

impl FaultPoint {
    /// Every fault point, in pipeline order.
    pub const ALL: [FaultPoint; 7] = [
        FaultPoint::PlanOrdering,
        FaultPoint::PlanSymbolic,
        FaultPoint::ScheduleSolver,
        FaultPoint::ScheduleIo,
        FaultPoint::ExecuteNumeric,
        FaultPoint::ParexecTask,
        FaultPoint::ArenaAlloc,
    ];

    /// The point's name in a plan spec.
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::PlanOrdering => "plan:ordering",
            FaultPoint::PlanSymbolic => "plan:symbolic",
            FaultPoint::ScheduleSolver => "schedule:solver",
            FaultPoint::ScheduleIo => "schedule:io",
            FaultPoint::ExecuteNumeric => "execute:numeric",
            FaultPoint::ParexecTask => "parexec:task",
            FaultPoint::ArenaAlloc => "arena:alloc",
        }
    }
}

/// What an armed rule does when its hit count is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with a recognisable `faultinject:` message.
    Panic,
    /// Sleep for this many milliseconds, then continue.
    SleepMs(u64),
    /// Tell the call site to drop the unit of work (site-defined meaning).
    Drop,
}

/// One rule of a fault plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRule {
    /// The instrumented fault point this rule arms.
    pub point: FaultPoint,
    /// Fire on the `nth` hit of the point (1-based; 1 = first hit).
    pub nth: u64,
    /// What to do when it fires.
    pub action: FaultAction,
}

struct RuleState {
    rule: FaultRule,
    hits: u64,
    fired: bool,
}

/// What [`fire`] tells the call site to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSignal {
    /// No armed rule fired: proceed normally.
    Continue,
    /// A `drop` rule fired: drop the unit of work.
    Drop,
}

/// Fast-path guard: `false` means no plan is installed and [`fire`] is one
/// relaxed load.
static ARMED: AtomicBool = AtomicBool::new(false);
/// Total faults injected (panics, sleeps, and drops) since the last
/// [`install`].
static INJECTED: AtomicU64 = AtomicU64::new(0);
static PLAN: Mutex<Vec<RuleState>> = Mutex::new(Vec::new());

/// Install `rules` as the process-wide fault plan, replacing any previous
/// plan and resetting hit counters and the injected-fault count.
pub fn install(rules: Vec<FaultRule>) {
    let mut plan = PLAN.lock().expect("fault plan poisoned");
    *plan = rules
        .into_iter()
        .map(|rule| RuleState {
            rule,
            hits: 0,
            fired: false,
        })
        .collect();
    INJECTED.store(0, Ordering::Relaxed);
    ARMED.store(!plan.is_empty(), Ordering::Release);
}

/// Remove the fault plan; every [`fire`] reverts to the one-load fast path.
pub fn clear() {
    install(Vec::new());
}

/// Number of faults injected since the current plan was installed.
pub fn injected() -> u64 {
    INJECTED.load(Ordering::Relaxed)
}

/// Hit `point`.  Returns immediately when no plan is armed;
/// otherwise counts the hit against every rule naming this point and
/// performs the first action whose `nth` is reached.  Call sites must honor
/// [`FaultSignal::Drop`]; `panic` and `sleep` happen right here.
///
/// # Panics
/// Panics (deliberately) when a `panic` rule fires.
pub fn fire(point: FaultPoint) -> FaultSignal {
    if !ARMED.load(Ordering::Acquire) {
        return FaultSignal::Continue;
    }
    let action = {
        let mut plan = PLAN.lock().expect("fault plan poisoned");
        let mut action = None;
        for state in plan.iter_mut() {
            if state.rule.point != point {
                continue;
            }
            state.hits += 1;
            if !state.fired && state.hits >= state.rule.nth {
                state.fired = true;
                action = Some(state.rule.action);
                break;
            }
        }
        action
    };
    match action {
        None => FaultSignal::Continue,
        Some(FaultAction::Panic) => {
            INJECTED.fetch_add(1, Ordering::Relaxed);
            panic!("faultinject: injected panic at {}", point.name());
        }
        Some(FaultAction::SleepMs(ms)) => {
            INJECTED.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(ms));
            FaultSignal::Continue
        }
        Some(FaultAction::Drop) => {
            INJECTED.fetch_add(1, Ordering::Relaxed);
            FaultSignal::Drop
        }
    }
}

/// Parse a plan spec: comma-separated rules of the form `action@point#nth`,
/// where `action` is `panic`, `sleep:MS`, or `drop`, `point` is the
/// [`FaultPoint::name`] of one of [`FaultPoint::ALL`], and `#nth` is
/// optional (default 1).  Example:
/// `sleep:40@plan:ordering,panic@execute:numeric#2,drop@arena:alloc#3`.
pub fn parse_plan(spec: &str) -> Result<Vec<FaultRule>, String> {
    let mut rules = Vec::new();
    for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
        let part = part.trim();
        let (action_text, rest) = part
            .split_once('@')
            .ok_or_else(|| format!("rule `{part}` has no `@point`"))?;
        let (point, nth) = match rest.rsplit_once('#') {
            Some((point, nth)) => (
                point,
                nth.parse::<u64>()
                    .map_err(|_| format!("rule `{part}` has a bad hit count `{nth}`"))?,
            ),
            None => (rest, 1),
        };
        if point.is_empty() || nth == 0 {
            return Err(format!("rule `{part}` needs a point and a 1-based count"));
        }
        let Some(point) = FaultPoint::ALL.into_iter().find(|p| p.name() == point) else {
            return Err(format!(
                "rule `{part}` names unknown fault point `{point}` (expected one of {})",
                FaultPoint::ALL.map(FaultPoint::name).join(", ")
            ));
        };
        let action = if action_text == "panic" {
            FaultAction::Panic
        } else if action_text == "drop" {
            FaultAction::Drop
        } else if let Some(ms) = action_text.strip_prefix("sleep:") {
            FaultAction::SleepMs(
                ms.parse()
                    .map_err(|_| format!("rule `{part}` has a bad sleep duration `{ms}`"))?,
            )
        } else {
            return Err(format!(
                "rule `{part}` has unknown action `{action_text}` \
                 (expected panic, sleep:MS, or drop)"
            ));
        };
        rules.push(FaultRule { point, nth, action });
    }
    Ok(rules)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global, so these tests serialise on a lock.
    // Nothing else in this crate's tests fires a point.
    static TEST_GUARD: Mutex<()> = Mutex::new(());

    #[test]
    fn parses_a_full_plan() {
        let rules = parse_plan("sleep:40@plan:ordering,panic@execute:numeric#2,drop@arena:alloc#3")
            .unwrap();
        assert_eq!(rules.len(), 3);
        assert_eq!(rules[0].action, FaultAction::SleepMs(40));
        assert_eq!(rules[0].nth, 1);
        assert_eq!(rules[1].point, FaultPoint::ExecuteNumeric);
        assert_eq!(rules[1].nth, 2);
        assert_eq!(rules[2].action, FaultAction::Drop);
        assert!(parse_plan("boom@plan:ordering").is_err());
        assert!(parse_plan("panic").is_err());
        assert!(parse_plan("panic@plan:ordering#0").is_err());
        assert!(parse_plan("").unwrap().is_empty());
        // A point no call site fires would arm a plan that never injects.
        let error = parse_plan("panic@plan:orderng").unwrap_err();
        assert!(
            error.contains("unknown fault point `plan:orderng`"),
            "{error}"
        );
        for point in FaultPoint::ALL {
            assert!(error.contains(point.name()), "{error}");
            let rules = parse_plan(&format!("drop@{}", point.name())).unwrap();
            assert_eq!(rules[0].point, point);
        }
    }

    #[test]
    fn drop_fires_on_the_nth_hit_once() {
        let _guard = TEST_GUARD.lock().unwrap();
        install(vec![FaultRule {
            point: FaultPoint::ArenaAlloc,
            nth: 3,
            action: FaultAction::Drop,
        }]);
        assert_eq!(fire(FaultPoint::ArenaAlloc), FaultSignal::Continue);
        assert_eq!(fire(FaultPoint::ParexecTask), FaultSignal::Continue);
        assert_eq!(fire(FaultPoint::ArenaAlloc), FaultSignal::Continue);
        assert_eq!(fire(FaultPoint::ArenaAlloc), FaultSignal::Drop);
        // A rule fires once, not on every later hit.
        assert_eq!(fire(FaultPoint::ArenaAlloc), FaultSignal::Continue);
        assert_eq!(injected(), 1);
        clear();
        assert_eq!(fire(FaultPoint::ArenaAlloc), FaultSignal::Continue);
    }

    #[test]
    fn panic_rule_panics_with_a_marker() {
        let _guard = TEST_GUARD.lock().unwrap();
        install(vec![FaultRule {
            point: FaultPoint::ScheduleIo,
            nth: 1,
            action: FaultAction::Panic,
        }]);
        let result = std::panic::catch_unwind(|| fire(FaultPoint::ScheduleIo));
        clear();
        let message = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(message.contains("faultinject: injected panic at schedule:io"));
    }
}
