//! The serving cache layer: a byte-sized core shared by the plan cache and
//! the server's factor cache, evicting least recently used first.
//!
//! * [`core`] — [`CacheCore`], a keyed cache of [`Arc`](std::sync::Arc)ed
//!   values with byte-accurate accounting, LRU eviction, TTL expiry,
//!   per-tenant quotas and a fair-share floor.  One [`CacheConfig`]
//!   describes a cache, whichever wrapper builds it.  The out-of-core
//!   simulator's eviction heuristics (`minio::Policy`) are a separate world
//!   (they select victims knowing a traversal's whole future) and are not
//!   reachable from here.
//! * [`plan`] — [`PlanCache`], the single-flight, TTL-aware plan cache built
//!   on the core.
//!
//! Capacity is a **byte** budget (entry footprints are estimated at insert
//! time via `Plan::approx_heap_bytes` and friends), an entry count, or both.
//! Tenancy is cooperative: every operation names a tenant (default
//! `"public"`), a tenant over its byte quota makes room among its *own*
//! entries, and the fair-share floor keeps one tenant's cold scan from
//! evicting another tenant's hot working set — over-quota inserts are
//! *admitted but uncacheable* ([`Admission`]), never rejected.

pub mod core;
pub mod plan;

use crate::json::{Fields, Fixed, Object, Writer};

pub use self::core::{Admission, CacheConfig, CacheCore};
pub use plan::{PlanCache, DEFAULT_TENANT};

/// Point-in-time counters of a serving cache; see the field docs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing (or only an expired entry).
    pub misses: u64,
    /// Entries dropped to keep the cache within its capacity or a quota.
    pub evictions: u64,
    /// Entries dropped because they outlived the TTL.
    pub expirations: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum number of resident entries (0 when bounded by bytes only).
    pub capacity: usize,
    /// Bytes currently resident.
    pub bytes_used: u64,
    /// Byte capacity (`u64::MAX` when bounded by entry count only).
    pub bytes_capacity: u64,
    /// Inserts admitted but not cached (too large, over quota, contended).
    pub uncacheable: u64,
    /// Per-tenant usage, sorted by tenant name.
    pub per_tenant: Vec<TenantUsage>,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0.0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A cache's `/stats` section; unbounded capacities (`u64::MAX` bytes, 0
/// entries) are `null`, and each tenant's usage sits under its name.
impl Fields for CacheStats {
    fn fields(&self, cache: &mut Writer<'_>) {
        let bounded = self.bytes_capacity != u64::MAX;
        let tenants = Object(|tenants| {
            for usage in &self.per_tenant {
                let fields = Object(|tenant| {
                    tenant
                        .field("bytes", usage.bytes)
                        .field("entries", usage.entries)
                        .field("hits", usage.hits)
                        .field("misses", usage.misses)
                        .field("uncacheable", usage.uncacheable);
                });
                tenants.field(&usage.tenant, fields);
            }
        });
        cache
            .field("bytes_capacity", bounded.then_some(self.bytes_capacity))
            .field("bytes_used", self.bytes_used)
            .field("max_entries", (self.capacity != 0).then_some(self.capacity))
            .field("entries", self.entries)
            .field("hits", self.hits)
            .field("misses", self.misses)
            .field("hit_rate", Fixed(self.hit_rate(), 6))
            .field("evictions", self.evictions)
            .field("expirations", self.expirations)
            .field("uncacheable", self.uncacheable)
            .field("tenants", tenants);
    }
}

/// One tenant's slice of a cache, reported inside [`CacheStats`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TenantUsage {
    /// Tenant name (the `X-Tenant` header value; `"public"` by default).
    pub tenant: String,
    /// Bytes this tenant's entries occupy.
    pub bytes: u64,
    /// Number of resident entries charged to this tenant.
    pub entries: usize,
    /// Lookups by this tenant that hit.
    pub hits: u64,
    /// Lookups by this tenant that missed.
    pub misses: u64,
    /// This tenant's inserts that were admitted but not cached.
    pub uncacheable: u64,
}
