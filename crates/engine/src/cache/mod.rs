//! The serving cache layer: a byte-sized core shared by the plan cache and
//! the server's factor cache, evicting least recently used first.
//!
//! * [`core`] — [`CacheCore`], a keyed cache of [`Arc`](std::sync::Arc)ed
//!   values with byte-accurate accounting and LRU eviction, all entries in
//!   one pool.  One [`CacheConfig`] describes a cache, whichever wrapper
//!   builds it.  The out-of-core simulator's eviction heuristics
//!   (`minio::Policy`) are a separate world (they select victims knowing a
//!   traversal's whole future) and are not reachable from here.
//! * [`plan`] — [`PlanCache`], the single-flight plan cache built on the
//!   core.
//!
//! Capacity is a **byte** budget (entry footprints are estimated at insert
//! time via `Plan::approx_heap_bytes` and friends), an entry count, or both.
//! An entry larger than the byte budget is *admitted but uncacheable*
//! ([`Admission::TooLarge`]), never rejected.

pub mod core;
pub mod plan;

use crate::json::{Fields, Fixed, Writer};

pub use self::core::{Admission, CacheConfig, CacheCore};
pub use plan::PlanCache;

/// Point-in-time counters of a serving cache; see the field docs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries dropped to keep the cache within its capacity.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum number of resident entries (0 when bounded by bytes only).
    pub capacity: usize,
    /// Bytes currently resident.
    pub bytes_used: u64,
    /// Byte capacity (`u64::MAX` when bounded by entry count only).
    pub bytes_capacity: u64,
    /// Inserts admitted but not cached (too large for the cache).
    pub uncacheable: u64,
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
/// entries) are `null`.
impl Fields for CacheStats {
    fn fields(&self, cache: &mut Writer<'_>) {
        let bounded = self.bytes_capacity != u64::MAX;
        cache
            .field("bytes_capacity", bounded.then_some(self.bytes_capacity))
            .field("bytes_used", self.bytes_used)
            .field("max_entries", (self.capacity != 0).then_some(self.capacity))
            .field("entries", self.entries)
            .field("hits", self.hits)
            .field("misses", self.misses)
            .field("hit_rate", Fixed(self.hit_rate(), 6))
            .field("evictions", self.evictions)
            .field("uncacheable", self.uncacheable);
    }
}
