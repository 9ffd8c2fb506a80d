//! A single-flight, TTL-aware cache of [`Plan`]s keyed by effective-config
//! hash, built on [`CacheCore`].
//!
//! Planning — problem acquisition, fill-reducing ordering, elimination tree,
//! column counts, amalgamation — dominates the cost of a request, while a
//! [`Plan`] is immutable-after-build and internally caches its solver
//! traversals and divisible bounds.  A server handling repeated
//! configurations therefore wants exactly one `Plan` per distinct effective
//! configuration, shared via [`Arc`] across worker threads; this module
//! provides that cache plus the counters the `/stats` endpoint reports.
//!
//! Two constructors over one [`CacheConfig`]:
//!
//! * [`PlanCache::new`] — the count-bounded LRU (capacity in entries,
//!   optional TTL);
//! * [`PlanCache::with_config`] — everything else: a byte budget, any
//!   [`CachePolicy`](super::CachePolicy), per-tenant quotas and a
//!   fair-share floor.  Entry footprints come from
//!   [`Plan::approx_heap_bytes`] at insert time; a plan that grows afterwards
//!   (the first numeric run attaches its substrate) is charged again by
//!   re-inserting it, which the server does after every numeric `/report`
//!   that moved the footprint.
//!
//! Misses are *single-flight* either way: concurrent callers with the
//! same key wait for the one planner instead of re-running the expensive
//! symbolic stages.  A waiter polls its own engine's token
//! ([`Engine::with_cancel`]), so its deadline fires even while someone else
//! plans.  Each flight carries its own result, so when admission control
//! leaves a plan uncacheable (over quota, contended, too large) the waiters
//! of that very flight still share the plan instead of stampeding into N
//! repeated plans — and no later flight for the key can see it, so it never
//! serves stale data to fresh lookups.
//!
//! ```
//! use engine::{Engine, EngineConfig, PlanCache, DEFAULT_TENANT};
//! use treemem::gadgets::harpoon;
//!
//! let engine = Engine::new();
//! let cache = PlanCache::new(8, None);
//! let config = EngineConfig::prebuilt(harpoon(3, 300, 1));
//! let (_, hit) = cache.get_or_plan(&engine, &config, DEFAULT_TENANT).unwrap();
//! assert!(!hit);
//! let (_, hit) = cache.get_or_plan(&engine, &config, DEFAULT_TENANT).unwrap();
//! assert!(hit);
//! assert_eq!(cache.stats().hits, 1);
//! ```

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use treemem::sync::{TrackedCondvar, TrackedMutex};

use super::core::{Admission, CacheConfig, CacheCore};
use super::CacheStats;
use crate::cancel::CancelToken;
use crate::config::EngineConfig;
use crate::run::{Engine, EngineError, Plan};

/// The tenant requests fall under when no `X-Tenant` header names one.
pub const DEFAULT_TENANT: &str = "public";

/// The result slot of one flight: set exactly once when the flight settles,
/// to its plan (cached or not) or to `None` when the planner failed.
type Flight = Arc<OnceLock<Option<Arc<Plan>>>>;

/// The shared plan cache; see the module docs.
pub struct PlanCache {
    core: CacheCore<Plan>,
    /// Keys currently being planned by some caller (single-flight), each
    /// with its flight's result slot: other callers of
    /// [`PlanCache::get_or_plan`] wait on [`PlanCache::settled`] for the slot
    /// instead of planning the same configuration concurrently.
    in_flight: TrackedMutex<Vec<(String, Flight)>>,
    /// Notified whenever a key leaves `in_flight`.
    settled: TrackedCondvar,
    /// Callers that reached the in-flight wait, so a test can hold a planner
    /// open until its waiter is provably parked.
    #[cfg(test)]
    parked: std::sync::atomic::AtomicUsize,
    /// Run once by the next caller whose lookup misses, before it takes the
    /// in-flight lock, so a test can interleave a whole flight there.
    #[cfg(test)]
    after_miss: std::sync::Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

impl PlanCache {
    /// A count-bounded LRU: at most `capacity` plans (at least 1), each
    /// living at most `ttl` (no expiry when `None`).
    pub fn new(capacity: usize, ttl: Option<Duration>) -> Self {
        Self::with_config(CacheConfig {
            max_entries: Some(capacity.max(1)),
            ttl,
            ..CacheConfig::default()
        })
    }

    /// A cache sized and evicted as `config` says.
    pub fn with_config(config: CacheConfig) -> Self {
        PlanCache {
            core: CacheCore::new(config, "plan-cache.entries"),
            in_flight: TrackedMutex::new(Vec::new(), "plan-cache.in-flight"),
            settled: TrackedCondvar::new(),
            #[cfg(test)]
            parked: std::sync::atomic::AtomicUsize::new(0),
            #[cfg(test)]
            after_miss: std::sync::Mutex::new(None),
        }
    }

    /// Look up the plan cached under `key` on behalf of `tenant`,
    /// refreshing recency.  An expired entry drops and reports as a miss.
    pub fn get(&self, key: &str, tenant: &str) -> Option<Arc<Plan>> {
        self.core.get(key, tenant)
    }

    /// Insert `plan` under `key`, charged to `tenant`; the footprint is
    /// estimated from the plan.  Returns the admission verdict.
    pub fn insert(&self, key: &str, tenant: &str, plan: Arc<Plan>) -> Admission {
        let bytes = plan.approx_heap_bytes();
        self.core.insert(key, tenant, plan, bytes)
    }

    /// The cached plan for `config`'s effective-config hash, planned by
    /// `engine` (and inserted) on a miss; hits, misses and the inserted
    /// bytes are charged to `tenant`.  Returns the shared plan and whether
    /// the lookup hit.
    ///
    /// Misses are *single-flight*: concurrent callers with the same key
    /// wait for the one planner instead of each re-running the expensive
    /// ordering/symbolic stages, and then share its plan (reported as a
    /// hit).  Planning happens outside every lock, so a slow plan never
    /// blocks hits — or other misses — on different keys.
    pub fn get_or_plan(
        &self,
        engine: &Engine,
        config: &EngineConfig,
        tenant: &str,
    ) -> Result<(Arc<Plan>, bool), EngineError> {
        let key = config.hash();
        self.single_flight(&key, tenant, engine.cancel(), || engine.plan(config))
    }

    /// The single-flight core: at most one caller plans `key` at a time;
    /// the others wait for it to settle and then share its entry.  The key
    /// settles on *every* exit from the planner — success, typed error, or
    /// panic (via [`SettleGuard`]) — so no outcome can wedge later callers.
    ///
    /// Every call counts exactly one lookup: a hit when it returns a shared
    /// plan (cached or from its flight), a miss when it plans or gives up
    /// waiting.  A waiter looks the key up before and after its wait, so
    /// the lookups here leave a miss uncounted and each exit reports it.
    fn single_flight(
        &self,
        key: &str,
        tenant: &str,
        cancel: Option<&CancelToken>,
        plan: impl FnOnce() -> Result<Plan, EngineError>,
    ) -> Result<(Arc<Plan>, bool), EngineError> {
        let flight = loop {
            if let Some(plan) = self.core.lookup(key, tenant, false) {
                return Ok((plan, true));
            }
            #[cfg(test)]
            {
                let hook = self.after_miss.lock().expect("hook poisoned").take();
                if let Some(hook) = hook {
                    hook();
                }
            }
            let mut in_flight = self.in_flight.lock();
            let Some(flight) = in_flight
                .iter()
                .find(|(flying, _)| flying == key)
                .map(|(_, flight)| flight.clone())
            else {
                // A flight for the key may have inserted and settled since
                // the lookup above: look again before planning.
                if let Some(plan) = self.core.lookup(key, tenant, false) {
                    return Ok((plan, true));
                }
                // This caller becomes the planner for the key.
                let flight = Flight::default();
                in_flight.push((key.to_string(), flight.clone()));
                break flight;
            };
            // Someone else is planning this key: wait until its flight
            // settles, then share the plan it carries (or, if the planner
            // failed, retry from the lookup).  With a token, wait in slices
            // so this caller's own deadline fires even though someone else
            // does the work.
            while flight.get().is_none() {
                #[cfg(test)]
                self.parked
                    .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                match cancel {
                    Some(token) => {
                        if token.is_cancelled() {
                            drop(in_flight);
                            self.core.count_lookup(tenant, false);
                            return Err(EngineError::Cancelled {
                                stage: "plan",
                                elapsed: token.elapsed(),
                            });
                        }
                        let (guard, _) = self
                            .settled
                            .wait_timeout(in_flight, Duration::from_millis(25));
                        in_flight = guard;
                    }
                    None => {
                        in_flight = self.settled.wait(in_flight);
                    }
                }
            }
            drop(in_flight);
            if let Some(Some(plan)) = flight.get() {
                // A cached plan is looked up as any hit is (refreshing its
                // recency); one admission control left uncached is shared
                // from the flight instead of re-planned.
                let plan = self.core.lookup(key, tenant, false).unwrap_or_else(|| {
                    self.core.count_lookup(tenant, true);
                    plan.clone()
                });
                return Ok((plan, true));
            }
        };
        self.core.count_lookup(tenant, false);
        // From here on the key MUST settle no matter how the planner exits;
        // the guard handles the panic path (a planner that unwinds must not
        // leave its waiters blocked forever).
        let guard = SettleGuard {
            cache: self,
            key,
            flight,
        };
        let result = plan().map(|plan| {
            let plan = Arc::new(plan);
            self.insert(key, tenant, plan.clone());
            let _ = guard.flight.set(Some(plan.clone()));
            (plan, false)
        });
        drop(guard);
        result
    }

    /// Current counters (a consistent snapshot for reporting).
    pub fn stats(&self) -> CacheStats {
        self.core.stats()
    }

    /// Audit the byte/tenant accounting; see
    /// [`CacheCore::validate_accounting`].
    pub fn validate_accounting(&self) -> Result<(), String> {
        self.core.validate_accounting()
    }

    /// Drop every entry (counters are kept).
    pub fn clear(&self) {
        self.core.clear();
    }
}

/// Settles the flight on drop — fills its slot with `None` unless the
/// planner already filled it, removes `key` from the in-flight set and wakes
/// the waiters — so the key settles even when the planner panics.  [`TrackedMutex::lock`] is
/// poison-tolerant: this drop runs *during* that very unwind, and panicking
/// again would abort the process.
struct SettleGuard<'c> {
    cache: &'c PlanCache,
    key: &'c str,
    flight: Flight,
}

impl Drop for SettleGuard<'_> {
    fn drop(&mut self) {
        let _ = self.flight.set(None);
        let mut in_flight = self.cache.in_flight.lock();
        in_flight.retain(|(flying, _)| flying != self.key);
        drop(in_flight);
        self.cache.settled.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CachePolicy;
    use treemem::gadgets::harpoon;

    fn config(seed: u64) -> EngineConfig {
        EngineConfig::prebuilt(harpoon(3, 300, seed as treemem::tree::Size))
    }

    #[test]
    fn plans_are_shared_on_hits() {
        let engine = Engine::new();
        let cache = PlanCache::new(4, None);
        let (first, hit_a) = cache
            .get_or_plan(&engine, &config(1), DEFAULT_TENANT)
            .unwrap();
        let (second, hit_b) = cache
            .get_or_plan(&engine, &config(1), DEFAULT_TENANT)
            .unwrap();
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&first, &second));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(stats.policy, CachePolicy::Lru);
        assert!(stats.bytes_used > 0, "plans carry a byte footprint");
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let engine = Engine::new();
        let cache = PlanCache::new(2, None);
        let configs: Vec<EngineConfig> = (1..=3).map(config).collect();
        for index in [0, 1, 0, 2] {
            // Touching 0 again makes 1 the LRU victim.
            cache
                .get_or_plan(&engine, &configs[index], DEFAULT_TENANT)
                .unwrap();
        }
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get(&configs[0].hash(), DEFAULT_TENANT).is_some());
        assert!(cache.get(&configs[1].hash(), DEFAULT_TENANT).is_none());
        assert!(cache.get(&configs[2].hash(), DEFAULT_TENANT).is_some());
    }

    #[test]
    fn ttl_expires_entries() {
        let engine = Engine::new();
        let cache = PlanCache::new(4, Some(Duration::from_millis(20)));
        cache
            .get_or_plan(&engine, &config(1), DEFAULT_TENANT)
            .unwrap();
        assert!(cache.get(&config(1).hash(), DEFAULT_TENANT).is_some());
        std::thread::sleep(Duration::from_millis(40));
        assert!(cache.get(&config(1).hash(), DEFAULT_TENANT).is_none());
        let stats = cache.stats();
        assert_eq!(stats.expirations, 1);
        assert_eq!(stats.entries, 0);
    }

    #[test]
    fn clear_keeps_counters() {
        let engine = Engine::new();
        let cache = PlanCache::new(4, None);
        cache
            .get_or_plan(&engine, &config(1), DEFAULT_TENANT)
            .unwrap();
        cache.clear();
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn planning_errors_pass_through() {
        let engine = Engine::new();
        let cache = PlanCache::new(4, None);
        let bad = config(1).with_solver("nope");
        assert!(cache.get_or_plan(&engine, &bad, DEFAULT_TENANT).is_err());
        assert_eq!(cache.stats().entries, 0);
        // The failed key settled: a later attempt plans again (and a valid
        // config on the same cache is unaffected).
        assert!(cache.get_or_plan(&engine, &bad, DEFAULT_TENANT).is_err());
        assert!(cache
            .get_or_plan(&engine, &config(1), DEFAULT_TENANT)
            .is_ok());
    }

    #[test]
    fn a_panicking_planner_settles_the_key_and_unblocks_waiters() {
        let engine = Engine::new();
        let cache = PlanCache::new(4, None);
        let config = config(5);
        let key = config.hash();
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            // Thread A becomes the planner, proves a second caller is on its
            // way in, then dies mid-plan.
            let panicker = scope.spawn(|| {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache.single_flight(&key, DEFAULT_TENANT, None, || {
                        barrier.wait();
                        std::thread::sleep(Duration::from_millis(30));
                        panic!("injected planner panic");
                    })
                }));
                assert!(outcome.is_err(), "the planner panic must propagate");
            });
            barrier.wait();
            // Thread B (this one): before the fix, A's unwind left the key
            // in `in_flight` forever and this call never returned.
            let (plan, hit) = cache
                .single_flight(&key, DEFAULT_TENANT, None, || engine.plan(&config))
                .expect("the second caller plans after the panic settles");
            assert!(!hit, "the panicked attempt cached nothing");
            assert_eq!(plan.config_hash(), key);
            panicker.join().expect("panic was caught inside the thread");
        });
        assert_eq!(cache.stats().entries, 1);
        // The in-flight set is empty again: a third caller hits the cache.
        let (_, hit) = cache.get_or_plan(&engine, &config, DEFAULT_TENANT).unwrap();
        assert!(hit);
    }

    #[test]
    fn waiters_honor_their_own_deadline_while_another_caller_plans() {
        let engine = Engine::new();
        let cache = PlanCache::new(4, None);
        let config = config(6);
        let key = config.hash();
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let slow = scope.spawn(|| {
                cache
                    .single_flight(&key, DEFAULT_TENANT, None, || {
                        barrier.wait();
                        std::thread::sleep(Duration::from_millis(200));
                        engine.plan(&config)
                    })
                    .unwrap()
            });
            barrier.wait();
            // An already-expired token: the waiter must give up long before
            // the slow planner finishes.
            let token = crate::cancel::CancelToken::with_deadline(Duration::ZERO);
            let started = std::time::Instant::now();
            let result = cache.get_or_plan(&engine.with_cancel(token), &config, DEFAULT_TENANT);
            assert!(
                matches!(result, Err(EngineError::Cancelled { stage: "plan", .. })),
                "the waiter's own deadline fires while someone else plans"
            );
            assert!(started.elapsed() < Duration::from_millis(150));
            slow.join().expect("the slow planner finishes normally");
        });
    }

    #[test]
    fn concurrent_misses_are_single_flight() {
        let engine = Engine::new();
        let cache = PlanCache::new(4, None);
        let config = config(2);
        // Every concurrent caller gets the *same* Arc: exactly one of them
        // planned, the rest waited for it (or hit the cache afterwards).
        let plans: Vec<Arc<Plan>> = std::thread::scope(|scope| {
            let tasks: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        cache
                            .get_or_plan(&engine, &config, DEFAULT_TENANT)
                            .unwrap()
                            .0
                    })
                })
                .collect();
            tasks
                .into_iter()
                .map(|task| task.join().expect("worker"))
                .collect()
        });
        for plan in &plans {
            assert!(Arc::ptr_eq(plan, &plans[0]));
        }
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn a_flight_that_settles_between_lookup_and_lock_is_shared() {
        use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
        use std::sync::Mutex;
        // The caller below misses the cache; before it reaches the in-flight
        // set, a whole flight for the same key plans, inserts and settles.
        // The caller must share that entry, not plan the key a second time.
        let cache = Arc::new(PlanCache::new(4, None));
        let config = config(7);
        let key = config.hash();
        let planner_runs = Arc::new(AtomicUsize::new(0));
        let interleaved = Arc::new(Mutex::new(None));
        let hook = {
            let (cache, config, key) = (cache.clone(), config.clone(), key.clone());
            let (runs, interleaved) = (planner_runs.clone(), interleaved.clone());
            move || {
                let engine = Engine::new();
                let (plan, hit) = cache
                    .single_flight(&key, DEFAULT_TENANT, None, || {
                        runs.fetch_add(1, SeqCst);
                        engine.plan(&config)
                    })
                    .unwrap();
                assert!(!hit);
                *interleaved.lock().unwrap() = Some(plan);
            }
        };
        *cache.after_miss.lock().unwrap() = Some(Box::new(hook));
        let engine = Engine::new();
        let (plan, hit) = cache
            .single_flight(&key, DEFAULT_TENANT, None, || {
                planner_runs.fetch_add(1, SeqCst);
                engine.plan(&config)
            })
            .unwrap();
        let interleaved = interleaved.lock().unwrap().take();
        let interleaved = interleaved.expect("the interleaved flight ran");
        assert_eq!(planner_runs.load(SeqCst), 1, "the key was planned once");
        assert!(hit, "the late caller shares the settled entry");
        assert!(Arc::ptr_eq(&plan, &interleaved));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn a_single_flight_waiter_counts_one_lookup_not_two() {
        let engine = Engine::new();
        let cache = PlanCache::new(4, None);
        let config = config(4);
        let key = config.hash();
        let flying = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let planner = scope.spawn(|| {
                cache
                    .single_flight(&key, "planner", None, || {
                        flying.wait();
                        // Stay in flight until the waiter has looked the key
                        // up, found it flying and reached the wait (it bumps
                        // `parked` under the in-flight lock, which settling
                        // needs, so it is parked before the key can settle).
                        while cache.parked.load(std::sync::atomic::Ordering::SeqCst) == 0 {
                            std::thread::yield_now();
                        }
                        engine.plan(&config)
                    })
                    .unwrap()
            });
            flying.wait();
            let (shared, hit) = cache.get_or_plan(&engine, &config, "waiter").unwrap();
            let (planned, planner_hit) = planner.join().expect("planner");
            assert!(hit && !planner_hit);
            assert!(Arc::ptr_eq(&shared, &planned));
        });
        // Two calls, two counted lookups: the planner's miss and the
        // waiter's hit — the waiter's pre-wait lookup is not a second miss.
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        let waiter = stats.per_tenant.iter().find(|t| t.tenant == "waiter");
        assert_eq!(waiter.map(|t| (t.hits, t.misses)), Some((1, 0)));
    }

    #[test]
    fn uncacheable_plans_are_still_shared_within_their_flight() {
        let engine = Engine::new();
        // A one-byte budget: every plan is too large to cache.
        let cache = PlanCache::with_config(CacheConfig {
            policy: CachePolicy::Gdsf,
            bytes_capacity: 1,
            ..CacheConfig::default()
        });
        let config = config(3);
        let barrier = std::sync::Barrier::new(2);
        let plans: Vec<Arc<Plan>> = std::thread::scope(|scope| {
            let a = scope.spawn(|| {
                cache
                    .single_flight(&config.hash(), DEFAULT_TENANT, None, || {
                        barrier.wait();
                        // Give the waiter time to join the flight.
                        std::thread::sleep(Duration::from_millis(50));
                        engine.plan(&config)
                    })
                    .unwrap()
                    .0
            });
            let b = scope.spawn(|| {
                barrier.wait();
                std::thread::sleep(Duration::from_millis(5));
                cache
                    .get_or_plan(&engine, &config, DEFAULT_TENANT)
                    .unwrap()
                    .0
            });
            vec![a.join().expect("planner"), b.join().expect("waiter")]
        });
        // The waiter shared the Arc its flight carried: no second plan.
        assert!(Arc::ptr_eq(&plans[0], &plans[1]));
        assert_eq!(cache.stats().entries, 0, "nothing was cached");
        assert!(cache.stats().uncacheable >= 1);
    }

    #[test]
    fn byte_mode_charges_tenants_and_reports_them() {
        let engine = Engine::new();
        let cache = PlanCache::with_config(CacheConfig {
            policy: CachePolicy::Gdsf,
            bytes_capacity: 1 << 30,
            ..CacheConfig::default()
        });
        cache.get_or_plan(&engine, &config(1), "alice").unwrap();
        cache.get_or_plan(&engine, &config(1), "bob").unwrap();
        let stats = cache.stats();
        assert_eq!(stats.policy, CachePolicy::Gdsf);
        assert_eq!(stats.per_tenant.len(), 2);
        let alice = &stats.per_tenant[0];
        assert_eq!(alice.tenant, "alice");
        assert_eq!(alice.entries, 1, "the plan is charged to its inserter");
        assert!(alice.bytes > 0);
        let bob = &stats.per_tenant[1];
        assert_eq!((bob.entries, bob.hits), (0, 1), "bob shares alice's plan");
        cache.validate_accounting().unwrap();
    }

    #[test]
    fn byte_mode_charges_what_the_retained_configuration_owns() {
        use crate::config::SolveConfig;
        use sparsemat::gen::ProblemKind;
        let engine = Engine::new();
        let cache = PlanCache::with_config(CacheConfig {
            policy: CachePolicy::Gdsf,
            bytes_capacity: 1 << 30,
            ..CacheConfig::default()
        });
        // Explicit right-hand sides live in the plan's configuration: over a
        // megabyte of them must show in the charge, or the byte budget
        // admits plans far beyond what it was given.
        let rhs = vec![vec![1.0; 144]; 1_000];
        let rhs_bytes = (144 * 1_000 * std::mem::size_of::<f64>()) as u64;
        let config = EngineConfig::generated(ProblemKind::Grid2d, 144, 1)
            .with_numeric(true)
            .with_solve(SolveConfig::vectors(rhs));
        cache.get_or_plan(&engine, &config, DEFAULT_TENANT).unwrap();
        assert!(rhs_bytes >= 1_000_000);
        assert!(cache.stats().bytes_used >= rhs_bytes);
        cache.validate_accounting().unwrap();
        // A prebuilt tree is one allocation shared by the configuration and
        // the plan: charged, and charged once.
        let tree = harpoon(100, 300, 1);
        let tree_bytes = tree.heap_bytes();
        let plan = engine.plan(&EngineConfig::prebuilt(tree)).unwrap();
        let charge = plan.approx_heap_bytes();
        assert!(
            (tree_bytes..2 * tree_bytes).contains(&charge),
            "{charge} for a {tree_bytes}-byte tree"
        );
    }
}
