//! Seeded property battery for the shared serving-cache core.
//!
//! The core's one eviction order (least recently used first) is driven
//! through churn workloads, and the properties the serving layer depends on
//! are asserted on them:
//!
//! * byte accounting never drifts (the internal audit passes at every
//!   sampled point under churn);
//! * the byte capacity is never exceeded;
//! * every eviction decision is pinned: the seeded churn ends on literal
//!   hit, miss, eviction and byte counts.
//!
//! Workloads are seeded (`prng::StdRng`), so a failure here reproduces
//! bit-for-bit with the printed seed.
//!
//! The last section drives the server's factor cache, a
//! `CacheCore<FactorHandle>` charged each factor's heap footprint: LRU
//! order, replacement, and byte budgets over factors of lopsided sizes.

use std::sync::Arc;

use engine::cache::{CacheConfig, CacheCore};
use prng::{Rng, StdRng};

const KIB: u64 = 1024;

fn core_with(config: CacheConfig) -> CacheCore<u64> {
    CacheCore::new(config, "cache-battery.inner")
}

/// The audit that every sampled point of every workload must pass.
fn audit(core: &CacheCore<u64>, capacity: u64) {
    core.validate_accounting()
        .unwrap_or_else(|e| panic!("accounting drifted: {e}"));
    let stats = core.stats();
    assert!(
        stats.bytes_used <= capacity,
        "{} bytes resident exceeds the {capacity}-byte capacity",
        stats.bytes_used
    );
}

/// The battery's churn: 4 000 seeded lookups over 600 keys into a 256 KiB
/// cache, each miss inserting a 1–24 KiB entry — far smaller than capacity,
/// so the cache churns through many evictions without ever being trivially
/// empty or trivially full.  Audits every 251 rounds.
fn seeded_churn(capacity: u64) -> CacheCore<u64> {
    let core = core_with(CacheConfig {
        bytes_capacity: capacity,
        ..CacheConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(0xBA77E2);
    for round in 0..4_000u64 {
        let key = format!("k{}", rng.gen_range(0..600));
        if core.get(&key).is_none() {
            let bytes = rng.gen_range(KIB..24 * KIB);
            core.insert(&key, Arc::new(round), bytes);
        }
        if round % 251 == 0 {
            audit(&core, capacity);
        }
    }
    audit(&core, capacity);
    core
}

#[test]
fn churn_keeps_accounting_and_capacity() {
    let stats = seeded_churn(256 * KIB).stats();
    assert!(
        stats.evictions > 0,
        "churn produced no evictions (capacity never exercised)"
    );
    assert!(
        stats.hits > 0,
        "churn produced no hits (working set never resident)"
    );
}

/// Every eviction decision of the seeded churn, pinned: the literals are
/// the counts the cache produced while it still selected victims through
/// pluggable policy sessions (its LRU session), so a change to the order
/// or the deficit loop moves at least one of them.
#[test]
fn seeded_churn_evicts_exactly_as_pinned() {
    let stats = seeded_churn(256 * KIB).stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.evictions, stats.bytes_used),
        (129, 3_871, 3_852, 259_470)
    );
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
    cache.insert(key, Arc::clone(handle), bytes)
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
    assert!(cache.get("a").is_some()); // "b" is now coldest
    deposit(&cache, "c", &factor(3));
    assert!(cache.get("b").is_none());
    assert!(cache.get("a").is_some());
    assert!(cache.get("c").is_some());
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
    assert!(cache.get("big").is_some());
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
        bytes_capacity: big.approx_heap_bytes() / 2,
        ..CacheConfig::default()
    });
    assert!(!deposit(&cache, "big", &big).is_cached());
    assert_eq!(cache.stats().entries, 0);
    assert_eq!(cache.stats().uncacheable, 1);
}
