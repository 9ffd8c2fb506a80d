//! A byte-sized cache of computed Cholesky factors, keyed by
//! effective-config hash: the substrate of `POST /solve`.
//!
//! Every `/report` run with the numeric stage enabled deposits its
//! [`engine::FactorHandle`] here, and a later `/solve` — or a hot
//! sequential `/report` of the same configuration — resolves the hash to
//! the cached factor without re-running the factorization: the expensive
//! part (ordering, symbolic analysis, numeric factorization) happens once,
//! the cheap part (two triangular sweeps over the factor per batch) happens
//! per request.
//!
//! The cache is a thin wrapper over [`engine::CacheCore`]: capacity is a
//! **byte budget** sized from [`engine::FactorHandle::approx_heap_bytes`]
//! (a single 10⁶-node factor can dwarf hundreds of small ones, so counting
//! entries misrepresents pressure by orders of magnitude), eviction runs
//! through any [`engine::CachePolicy`], and deposits are charged to the
//! tenant that reported them.  [`FactorCache::new`] is the count-bounded
//! LRU the server runs when no byte budget is configured.  The server sets
//! no TTL: a factor never goes stale (the configuration hash pins problem,
//! ordering, and kernel bit-for-bit).

use std::sync::Arc;

use engine::cache::{Admission, CacheConfig, CacheCore};
use engine::{CacheStats, FactorHandle};

/// The factor cache; see the module docs.
pub struct FactorCache {
    core: CacheCore<FactorHandle>,
}

impl FactorCache {
    /// A count-bounded LRU: at most `capacity` factors (at least 1),
    /// unlimited bytes.
    pub fn new(capacity: usize) -> Self {
        Self::with_config(CacheConfig {
            max_entries: Some(capacity.max(1)),
            ..CacheConfig::default()
        })
    }

    /// A cache sized and evicted as `config` says.
    pub fn with_config(config: CacheConfig) -> Self {
        FactorCache {
            core: CacheCore::new(config, "factor-cache.inner"),
        }
    }

    /// Look up the factor of `config_hash` on behalf of `tenant`, marking it
    /// most recently used.
    pub fn get(&self, config_hash: &str, tenant: &str) -> Option<Arc<FactorHandle>> {
        self.core.get(config_hash, tenant)
    }

    /// Cache `handle` under `config_hash` (replacing any previous factor of
    /// the same hash), charged to `tenant` and evicting through the
    /// configured policy when space is needed.  The footprint comes from
    /// [`engine::FactorHandle::approx_heap_bytes`].  Returns the admission
    /// verdict (an over-quota deposit is served-but-uncached).
    pub fn insert(&self, config_hash: &str, tenant: &str, handle: Arc<FactorHandle>) -> Admission {
        let bytes = handle.approx_heap_bytes();
        self.core.insert(config_hash, tenant, handle, bytes)
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.core.stats()
    }

    /// Audit the byte/tenant accounting; see
    /// [`engine::CacheCore::validate_accounting`].
    pub fn validate_accounting(&self) -> Result<(), String> {
        self.core.validate_accounting()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::prelude::*;
    use engine::DEFAULT_TENANT;

    fn sized_handle(seed: u64, n: usize) -> Arc<FactorHandle> {
        let engine = Engine::new();
        let config = EngineConfig::generated(sparsemat::gen::ProblemKind::Banded, n, seed)
            .with_numeric(true);
        let plan = engine.plan(&config).unwrap();
        let (_, handle) = plan
            .schedule(&engine)
            .unwrap()
            .execute_with_factor(&engine)
            .unwrap();
        Arc::new(handle.unwrap())
    }

    fn handle(seed: u64) -> Arc<FactorHandle> {
        sized_handle(seed, 12)
    }

    #[test]
    fn lru_evicts_the_coldest_factor() {
        let cache = FactorCache::new(2);
        cache.insert("a", DEFAULT_TENANT, handle(1));
        cache.insert("b", DEFAULT_TENANT, handle(2));
        assert!(cache.get("a", DEFAULT_TENANT).is_some()); // "b" is now coldest
        cache.insert("c", DEFAULT_TENANT, handle(3));
        assert!(cache.get("b", DEFAULT_TENANT).is_none());
        assert!(cache.get("a", DEFAULT_TENANT).is_some());
        assert!(cache.get("c", DEFAULT_TENANT).is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 2);
        assert!(stats.bytes_used > 0, "factors carry byte footprints");
    }

    #[test]
    fn reinsertion_replaces_without_eviction() {
        let cache = FactorCache::new(2);
        cache.insert("a", DEFAULT_TENANT, handle(1));
        cache.insert("a", DEFAULT_TENANT, handle(4));
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn byte_budget_accounts_lopsided_factor_sizes() {
        // Regression for the count-based accounting: a 10× larger problem
        // yields a far heavier factor, and a byte-bounded cache must make
        // it displace several small ones — not count it as "one entry".
        let small: Vec<Arc<FactorHandle>> = (0..4).map(|s| sized_handle(s, 12)).collect();
        let big = sized_handle(9, 400);
        let small_bytes = small[0].approx_heap_bytes();
        let big_bytes = big.approx_heap_bytes();
        assert!(
            big_bytes > 4 * small_bytes,
            "a 400-unknown factor ({big_bytes}B) must dwarf a 12-unknown one ({small_bytes}B)"
        );
        // Budget: all four small factors fit; the big one fits only after
        // evicting more than one of them.
        let budget = 4 * small_bytes + big_bytes - 1;
        let cache = FactorCache::with_config(CacheConfig {
            bytes_capacity: budget,
            ..CacheConfig::default()
        });
        for (i, h) in small.iter().enumerate() {
            cache.insert(&format!("small-{i}"), DEFAULT_TENANT, Arc::clone(h));
        }
        assert_eq!(cache.stats().entries, 4);
        cache.insert("big", DEFAULT_TENANT, Arc::clone(&big));
        let stats = cache.stats();
        assert!(cache.get("big", DEFAULT_TENANT).is_some());
        assert!(
            stats.evictions >= 1,
            "the big factor must evict by bytes, not slots"
        );
        assert!(stats.bytes_used <= budget, "byte budget respected");
        cache.validate_accounting().unwrap();
    }

    #[test]
    fn oversized_factor_is_served_but_not_cached() {
        let big = sized_handle(3, 400);
        let cache = FactorCache::with_config(CacheConfig {
            policy: engine::CachePolicy::Gdsf,
            bytes_capacity: big.approx_heap_bytes() / 2,
            ..CacheConfig::default()
        });
        assert!(!cache.insert("big", DEFAULT_TENANT, big).is_cached());
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().uncacheable, 1);
    }

    #[test]
    fn concurrent_deposits_lookups_and_evictions_stay_consistent() {
        // The serving pattern under load: `/report` handlers depositing,
        // `/solve` handlers looking up, all racing the LRU eviction of a
        // deliberately tiny cache.  Every resolved factor must be usable
        // (solvable with a small residual), and the counters must balance.
        let cache = Arc::new(FactorCache::new(3));
        let handles: Vec<Arc<FactorHandle>> = (0..6).map(|seed| handle(seed as u64)).collect();
        std::thread::scope(|scope| {
            for worker in 0..4 {
                let cache = Arc::clone(&cache);
                let handles = &handles;
                scope.spawn(move || {
                    for round in 0..200 {
                        let pick = (worker * 7 + round * 3) % handles.len();
                        let key = format!("factor-{pick}");
                        if (worker + round) % 3 == 0 {
                            cache.insert(&key, DEFAULT_TENANT, Arc::clone(&handles[pick]));
                        } else if let Some(factor) = cache.get(&key, DEFAULT_TENANT) {
                            let rhs = SolveRhs::Generated {
                                count: 1,
                                seed: round as u64 + 1,
                            };
                            factor
                                .solve_batch(&rhs, false)
                                .expect("cached factor solves");
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert!(stats.entries <= 3, "over capacity: {}", stats.entries);
        assert!(stats.hits + stats.misses > 0);
        cache.validate_accounting().unwrap();
        // Every key that is still resident resolves to a working factor.
        for pick in 0..handles.len() {
            if let Some(factor) = cache.get(&format!("factor-{pick}"), DEFAULT_TENANT) {
                let rhs = SolveRhs::Generated { count: 1, seed: 5 };
                let (report, _) = factor
                    .solve_batch(&rhs, true)
                    .expect("resident factor solves");
                assert!(report.max_residual.unwrap() < 1e-8);
            }
        }
    }
}
