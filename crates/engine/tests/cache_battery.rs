//! Seeded property battery for the shared serving-cache core.
//!
//! Every [`CachePolicy`] is driven through the same churn workloads, and the
//! properties the serving layer depends on are asserted the same way for all
//! of them:
//!
//! * byte accounting never drifts (the internal audit passes at every
//!   sampled point, under churn and after TTL expiry);
//! * the byte capacity is never exceeded, no matter what the policy picks;
//! * per-tenant quotas confine each tenant's resident bytes;
//! * the fair-share floor keeps a well-behaved tenant's working set
//!   resident through another tenant's scan flood.
//!
//! Workloads are seeded (`prng::StdRng`), so a failure here reproduces
//! bit-for-bit with the printed policy name and seed.
//!
//! The last section drives the server's factor cache, a
//! `CacheCore<FactorHandle>` charged each factor's heap footprint: LRU
//! order, replacement, and byte budgets over factors of lopsided sizes.

use std::sync::Arc;
use std::time::Duration;

use engine::cache::{CacheConfig, CacheCore, CachePolicy};
use prng::{Rng, StdRng};

const KIB: u64 = 1024;

fn core_with(policy: CachePolicy, config: CacheConfig) -> CacheCore<u64> {
    CacheCore::new(CacheConfig { policy, ..config }, "cache-battery.inner")
}

/// The audit that every sampled point of every workload must pass.
fn audit(core: &CacheCore<u64>, policy: CachePolicy, capacity: u64, quota: Option<u64>) {
    core.validate_accounting()
        .unwrap_or_else(|e| panic!("policy '{policy}': accounting drifted: {e}"));
    let stats = core.stats();
    assert!(
        stats.bytes_used <= capacity,
        "policy '{policy}': {} bytes resident exceeds the {capacity}-byte capacity",
        stats.bytes_used
    );
    if let Some(quota) = quota {
        for tenant in &stats.per_tenant {
            assert!(
                tenant.bytes <= quota,
                "policy '{policy}': tenant '{}' holds {} bytes over its {quota}-byte quota",
                tenant.tenant,
                tenant.bytes
            );
        }
    }
}

#[test]
fn every_policy_keeps_accounting_and_capacity_under_churn() {
    let capacity = 256 * KIB;
    for policy in CachePolicy::ALL {
        let core = core_with(
            policy,
            CacheConfig {
                bytes_capacity: capacity,
                ..CacheConfig::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(0xBA77E2);
        for round in 0..4_000u64 {
            let key = format!("k{}", rng.gen_range(0..600));
            if core.get(&key, "public").is_none() {
                // 1–24 KiB entries: far smaller than capacity, so the cache
                // churns through many evictions without ever being trivially
                // empty or trivially full.
                let bytes = rng.gen_range(KIB..24 * KIB);
                core.insert(&key, "public", Arc::new(round), bytes);
            }
            if round % 251 == 0 {
                audit(&core, policy, capacity, None);
            }
        }
        audit(&core, policy, capacity, None);
        let stats = core.stats();
        assert!(
            stats.evictions > 0,
            "policy '{policy}': churn produced no evictions (capacity never exercised)"
        );
        assert!(
            stats.hits > 0,
            "policy '{policy}': churn produced no hits (working set never resident)"
        );
    }
}

#[test]
fn every_policy_confines_tenants_to_their_quota() {
    let capacity = 256 * KIB;
    let quota = capacity / 4;
    for policy in CachePolicy::ALL {
        let core = core_with(
            policy,
            CacheConfig {
                bytes_capacity: capacity,
                tenant_quota_bytes: Some(quota),
                ..CacheConfig::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(0x900DA);
        let tenants = ["alpha", "beta", "gamma"];
        for round in 0..3_000u64 {
            let tenant = tenants[rng.gen_range(0..tenants.len())];
            let key = format!("{tenant}:{}", rng.gen_range(0..200));
            if core.get(&key, tenant).is_none() {
                let bytes = rng.gen_range(KIB..16 * KIB);
                core.insert(&key, tenant, Arc::new(round), bytes);
            }
            if round % 199 == 0 {
                audit(&core, policy, capacity, Some(quota));
            }
        }
        audit(&core, policy, capacity, Some(quota));
    }
}

#[test]
fn every_policy_expires_ttl_entries_without_accounting_drift() {
    let capacity = 256 * KIB;
    for policy in CachePolicy::ALL {
        let core = core_with(
            policy,
            CacheConfig {
                bytes_capacity: capacity,
                ttl: Some(Duration::from_millis(25)),
                ..CacheConfig::default()
            },
        );
        for index in 0..8u64 {
            let key = format!("t{index}");
            core.insert(&key, "public", Arc::new(index), 4 * KIB);
        }
        std::thread::sleep(Duration::from_millis(60));
        for index in 0..8u64 {
            let key = format!("t{index}");
            assert!(
                core.get(&key, "public").is_none(),
                "policy '{policy}': '{key}' survived past its TTL"
            );
        }
        audit(&core, policy, capacity, None);
        let stats = core.stats();
        assert!(
            stats.expirations >= 8,
            "policy '{policy}': only {} expirations recorded for 8 dead entries",
            stats.expirations
        );
        assert_eq!(
            stats.entries, 0,
            "policy '{policy}': expired entries still resident"
        );
    }
}

/// The tenant-isolation property the serving layer advertises: with the
/// fair-share floor armed, one tenant's scan flood cannot evict another
/// tenant's working set below its floor share.  Asserted for every policy —
/// the floor is enforced by the core's candidate filter, upstream of
/// whatever the policy would pick.
#[test]
fn scan_flood_cannot_push_another_tenant_below_the_floor() {
    let capacity = 1024 * KIB;
    let floor = 0.8;
    for policy in CachePolicy::ALL {
        let core = core_with(
            policy,
            CacheConfig {
                bytes_capacity: capacity,
                tenant_floor: floor,
                ..CacheConfig::default()
            },
        );
        // Tenant beta parks a working set of 40 × 10 KiB = 400 KiB, right at
        // its two-tenant floor share (0.8 × 1 MiB / 2 = 409.6 KiB).
        let hot: Vec<String> = (0..40).map(|i| format!("hot{i}")).collect();
        for (index, key) in hot.iter().enumerate() {
            let admission = core.insert(key, "beta", Arc::new(index as u64), 10 * KIB);
            assert!(
                admission.is_cached(),
                "policy '{policy}': beta's working set did not fit an empty cache"
            );
        }
        // Tenant alpha floods 300 one-shot 50 KiB entries — 15 MiB through a
        // 1 MiB cache.  Without the floor this wipes beta out completely.
        let mut rng = StdRng::seed_from_u64(0xF100D);
        for index in 0..300u64 {
            let bytes = rng.gen_range(40 * KIB..60 * KIB);
            core.insert(&format!("scan{index}"), "alpha", Arc::new(index), bytes);
        }
        audit(&core, policy, capacity, None);
        let stats = core.stats();
        let beta_bytes = stats
            .per_tenant
            .iter()
            .find(|t| t.tenant == "beta")
            .map(|t| t.bytes)
            .unwrap_or(0);
        let floor_bytes = (floor * capacity as f64 / 2.0) as u64;
        assert!(
            beta_bytes >= floor_bytes.saturating_sub(10 * KIB),
            "policy '{policy}': alpha's flood pushed beta to {beta_bytes} bytes, \
             below the {floor_bytes}-byte fair-share floor"
        );
        // And the survivors actually serve: replaying the hot set hits for
        // at least the floor's worth of entries.
        let hits = hot
            .iter()
            .filter(|key| core.get(key, "beta").is_some())
            .count();
        assert!(
            hits * 10 * KIB as usize >= floor_bytes.saturating_sub(10 * KIB) as usize,
            "policy '{policy}': only {hits}/40 of beta's hot set survived the flood"
        );
    }
}

// --- The factor cache: `CacheCore<FactorHandle>` charged by factor size -----

/// A factor cache the way the server builds it, under `config`.
fn factor_cache(config: CacheConfig) -> CacheCore<engine::FactorHandle> {
    CacheCore::new(config, "factor-cache.inner")
}

/// The count-bounded LRU the server runs when no byte budget is set.
fn factor_lru(capacity: usize) -> CacheCore<engine::FactorHandle> {
    factor_cache(CacheConfig {
        max_entries: Some(capacity),
        ..CacheConfig::default()
    })
}

/// Deposit `handle` the way the server does: charged its heap footprint.
fn deposit(
    cache: &CacheCore<engine::FactorHandle>,
    key: &str,
    handle: &Arc<engine::FactorHandle>,
) -> engine::cache::Admission {
    let bytes = handle.approx_heap_bytes();
    cache.insert(key, engine::DEFAULT_TENANT, Arc::clone(handle), bytes)
}

fn sized_factor(seed: u64, n: usize) -> Arc<engine::FactorHandle> {
    let engine = engine::Engine::new();
    let config = engine::EngineConfig::generated(sparsemat::gen::ProblemKind::Banded, n, seed)
        .with_numeric(true);
    let plan = engine.plan(&config).unwrap();
    let (_, handle) = plan
        .schedule(&engine)
        .unwrap()
        .execute_with_factor(&engine)
        .unwrap();
    Arc::new(handle.unwrap())
}

fn factor(seed: u64) -> Arc<engine::FactorHandle> {
    sized_factor(seed, 12)
}

#[test]
fn lru_evicts_the_coldest_factor() {
    let cache = factor_lru(2);
    deposit(&cache, "a", &factor(1));
    deposit(&cache, "b", &factor(2));
    assert!(cache.get("a", engine::DEFAULT_TENANT).is_some()); // "b" is now coldest
    deposit(&cache, "c", &factor(3));
    assert!(cache.get("b", engine::DEFAULT_TENANT).is_none());
    assert!(cache.get("a", engine::DEFAULT_TENANT).is_some());
    assert!(cache.get("c", engine::DEFAULT_TENANT).is_some());
    let stats = cache.stats();
    assert_eq!(stats.evictions, 1);
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.entries, 2);
    assert!(stats.bytes_used > 0, "factors carry byte footprints");
}

#[test]
fn reinsertion_replaces_without_eviction() {
    let cache = factor_lru(2);
    deposit(&cache, "a", &factor(1));
    deposit(&cache, "a", &factor(4));
    assert_eq!(cache.stats().entries, 1);
    assert_eq!(cache.stats().evictions, 0);
}

#[test]
fn byte_budget_accounts_lopsided_factor_sizes() {
    // Regression for the count-based accounting: a 10× larger problem
    // yields a far heavier factor, and a byte-bounded cache must make
    // it displace several small ones — not count it as "one entry".
    let small: Vec<_> = (0..4).map(|s| sized_factor(s, 12)).collect();
    let big = sized_factor(9, 400);
    let small_bytes = small[0].approx_heap_bytes();
    let big_bytes = big.approx_heap_bytes();
    assert!(
        big_bytes > 4 * small_bytes,
        "a 400-unknown factor ({big_bytes}B) must dwarf a 12-unknown one ({small_bytes}B)"
    );
    // Budget: all four small factors fit; the big one fits only after
    // evicting more than one of them.
    let budget = 4 * small_bytes + big_bytes - 1;
    let cache = factor_cache(CacheConfig {
        bytes_capacity: budget,
        ..CacheConfig::default()
    });
    for (i, handle) in small.iter().enumerate() {
        deposit(&cache, &format!("small-{i}"), handle);
    }
    assert_eq!(cache.stats().entries, 4);
    deposit(&cache, "big", &big);
    let stats = cache.stats();
    assert!(cache.get("big", engine::DEFAULT_TENANT).is_some());
    assert!(
        stats.evictions >= 1,
        "the big factor must evict by bytes, not slots"
    );
    assert!(stats.bytes_used <= budget, "byte budget respected");
    cache.validate_accounting().unwrap();
}

#[test]
fn oversized_factor_is_served_but_not_cached() {
    let big = sized_factor(3, 400);
    let cache = factor_cache(CacheConfig {
        policy: CachePolicy::Gdsf,
        bytes_capacity: big.approx_heap_bytes() / 2,
        ..CacheConfig::default()
    });
    assert!(!deposit(&cache, "big", &big).is_cached());
    assert_eq!(cache.stats().entries, 0);
    assert_eq!(cache.stats().uncacheable, 1);
}
