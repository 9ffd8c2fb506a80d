//! [`CacheCore`]: the shared serving-cache engine.
//!
//! A keyed map of [`Arc`]ed values with byte-accurate accounting, evicting
//! least recently used first.  Both the plan cache and the server's factor
//! cache are thin wrappers around this core, so admission control, tenancy,
//! eviction order and statistics behave identically everywhere.
//!
//! Capacity has two axes, enforceable together or alone:
//!
//! * a **byte budget** (`bytes_capacity`) — the production mode, sized from
//!   per-entry footprints estimated at insert time;
//! * an **entry bound** (`max_entries`) — the mode the server's caches run
//!   in unless a byte budget is configured.
//!
//! Tenancy is cooperative admission control, not isolation of values: every
//! operation names a tenant, an entry is charged to the tenant whose miss
//! inserted it, and two rules keep tenants from starving each other:
//!
//! 1. **Quota** — a tenant over its per-tenant byte budget makes room among
//!    its *own* entries first; an entry larger than the quota (or the whole
//!    cache) is *admitted but uncacheable*: the caller still gets its value,
//!    nothing is evicted for it.
//! 2. **Fair-share floor** — when evicting for capacity, entries of *other*
//!    tenants are protected once that tenant's usage would fall below
//!    `floor_fraction × bytes_capacity / active_tenants`.  A cold scan by
//!    one tenant therefore cannot evict another tenant's (floor-sized) hot
//!    set; if every candidate is protected the insert becomes uncacheable
//!    instead ([`Admission::Contended`]).
//!
//! Recency is a logical tick: every lookup and insert advances it and stamps
//! at most one entry, so no two entries share a tick and the eviction order
//! is total and deterministic.  All mutable state lives under one
//! [`TrackedMutex`] (lock-order tracked, poison-tolerant).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use treemem::sync::TrackedMutex;

use super::{CacheStats, TenantUsage};

/// Construction parameters of a [`CacheCore`] and of the caches built on
/// it ([`PlanCache`](super::PlanCache), the server's factor cache); see the
/// module docs.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Byte budget (`u64::MAX` = unbounded by bytes).
    pub bytes_capacity: u64,
    /// Optional entry bound.
    pub max_entries: Option<usize>,
    /// Optional time-to-live; expired entries drop on access.
    pub ttl: Option<Duration>,
    /// Per-tenant byte quota (`None` = unlimited per tenant).
    pub tenant_quota_bytes: Option<u64>,
    /// Fair-share floor fraction in `[0, 1]` (0 disables floor protection).
    pub tenant_floor: f64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            bytes_capacity: u64::MAX,
            max_entries: None,
            ttl: None,
            tenant_quota_bytes: None,
            tenant_floor: 0.0,
        }
    }
}

/// How an insert was admitted; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The entry is resident.
    Cached,
    /// Larger than the cache's byte budget: served, never cached.
    TooLarge,
    /// Larger than the tenant's quota: served, never cached.
    OverQuota,
    /// Every eviction candidate is protected by another tenant's floor.
    Contended,
}

impl Admission {
    /// Whether the entry ended up resident.
    pub fn is_cached(&self) -> bool {
        matches!(self, Admission::Cached)
    }
}

struct Slot<V> {
    key: String,
    tenant: usize,
    value: Arc<V>,
    bytes: u64,
    inserted: Instant,
    last_access_tick: u64,
}

#[derive(Default)]
struct Tenant {
    name: String,
    bytes: u64,
    entries: usize,
    hits: u64,
    misses: u64,
    uncacheable: u64,
}

struct Inner<V> {
    slots: Vec<Slot<V>>,
    /// key → index into `slots` (`slots` itself is unordered; recency lives
    /// in the per-slot ticks).
    index: HashMap<String, usize>,
    tenants: Vec<Tenant>,
    tenant_index: HashMap<String, usize>,
    bytes_used: u64,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    expirations: u64,
    uncacheable: u64,
}

impl<V> Inner<V> {
    fn tenant_id(&mut self, name: &str) -> usize {
        if let Some(&id) = self.tenant_index.get(name) {
            return id;
        }
        let id = self.tenants.len();
        self.tenants.push(Tenant {
            name: name.to_string(),
            ..Tenant::default()
        });
        self.tenant_index.insert(name.to_string(), id);
        id
    }

    /// Take the slot at `pos` out of the map and its bytes off the tallies
    /// (swap-remove, fixing the displaced index entry).
    fn remove_at(&mut self, pos: usize) {
        let slot = self.slots.swap_remove(pos);
        self.index.remove(&slot.key);
        if let Some(moved) = self.slots.get(pos) {
            self.index.insert(moved.key.clone(), pos);
        }
        self.bytes_used = self.bytes_used.saturating_sub(slot.bytes);
        if let Some(tenant) = self.tenants.get_mut(slot.tenant) {
            tenant.bytes = tenant.bytes.saturating_sub(slot.bytes);
            tenant.entries = tenant.entries.saturating_sub(1);
        }
    }

    /// Evict `candidates` — `(last_access_tick, position, bytes)` of
    /// resident slots — least recently used first until `deficit` bytes are
    /// freed.  Returns whether anything was evicted (the caller's loop
    /// re-checks the budget).
    fn evict_lru(&mut self, mut candidates: Vec<(u64, usize, u64)>, deficit: u64) -> bool {
        candidates.sort_unstable();
        let mut freed = 0u64;
        let mut victims: Vec<usize> = Vec::new();
        for (_, pos, bytes) in candidates {
            if freed >= deficit {
                break;
            }
            freed = freed.saturating_add(bytes);
            victims.push(pos);
        }
        // Highest position first: a swap-remove moves only the last slot,
        // which is then never a victim still waiting to be removed.
        victims.sort_unstable_by(|a, b| b.cmp(a));
        for &pos in &victims {
            self.remove_at(pos);
            self.evictions += 1;
        }
        !victims.is_empty()
    }

    /// Count one lookup outcome, globally and for the tenant.
    fn count_lookup(&mut self, tenant_id: usize, hit: bool) {
        let tenant = self.tenants.get_mut(tenant_id);
        if hit {
            self.hits += 1;
            if let Some(t) = tenant {
                t.hits += 1;
            }
        } else {
            self.misses += 1;
            if let Some(t) = tenant {
                t.misses += 1;
            }
        }
    }
}

/// The shared serving-cache engine; see the module docs.
pub struct CacheCore<V> {
    bytes_capacity: u64,
    max_entries: Option<usize>,
    ttl: Option<Duration>,
    quota: Option<u64>,
    floor: f64,
    inner: TrackedMutex<Inner<V>>,
}

impl<V> CacheCore<V> {
    /// Build a core with `config`; `lock_class` names its tracked mutex in
    /// the lock-order diagnostics.
    pub fn new(config: CacheConfig, lock_class: &'static str) -> Self {
        CacheCore {
            bytes_capacity: config.bytes_capacity.max(1),
            max_entries: config.max_entries,
            ttl: config.ttl,
            quota: config.tenant_quota_bytes,
            floor: config.tenant_floor.clamp(0.0, 1.0),
            inner: TrackedMutex::new(
                Inner {
                    slots: Vec::new(),
                    index: HashMap::new(),
                    tenants: Vec::new(),
                    tenant_index: HashMap::new(),
                    bytes_used: 0,
                    tick: 0,
                    hits: 0,
                    misses: 0,
                    evictions: 0,
                    expirations: 0,
                    uncacheable: 0,
                },
                lock_class,
            ),
        }
    }

    /// The byte budget (`u64::MAX` when bounded by entries only).
    pub fn bytes_capacity(&self) -> u64 {
        self.bytes_capacity
    }

    /// The entry bound, if one is configured.
    pub fn max_entries(&self) -> Option<usize> {
        self.max_entries
    }

    /// Look up `key` for `tenant`, refreshing recency.  An expired entry is
    /// dropped and reported as a miss.
    pub fn get(&self, key: &str, tenant: &str) -> Option<Arc<V>> {
        self.lookup(key, tenant, true)
    }

    /// [`CacheCore::get`] that counts a hit but counts a miss only when
    /// `count_miss`: a single-flight waiter looks the same key up again
    /// after its wait, and reports the one outcome of its call itself
    /// through [`CacheCore::count_lookup`].
    pub(crate) fn lookup(&self, key: &str, tenant: &str, count_miss: bool) -> Option<Arc<V>> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        inner.tick += 1;
        let now = inner.tick;
        let tenant_id = inner.tenant_id(tenant);
        let mut pos = inner.index.get(key).copied();
        if let (Some(at), Some(ttl)) = (pos, self.ttl) {
            let expired = inner
                .slots
                .get(at)
                .is_some_and(|slot| slot.inserted.elapsed() > ttl);
            if expired {
                inner.remove_at(at);
                inner.expirations += 1;
                pos = None;
            }
        }
        let value = pos.and_then(|at| inner.slots.get_mut(at)).map(|slot| {
            slot.last_access_tick = now;
            slot.value.clone()
        });
        if value.is_some() || count_miss {
            inner.count_lookup(tenant_id, value.is_some());
        }
        value
    }

    /// Count a lookup outcome for `tenant` without touching any entry (the
    /// deferred half of [`CacheCore::lookup`]).
    pub(crate) fn count_lookup(&self, tenant: &str, hit: bool) {
        let mut inner = self.inner.lock();
        let tenant_id = inner.tenant_id(tenant);
        inner.count_lookup(tenant_id, hit);
    }

    /// Insert `value` under `key`, charged to `tenant` with footprint
    /// `bytes` (at least 1 is accounted).  Returns how the insert was
    /// admitted; on anything but [`Admission::Cached`] the cache is left
    /// without the entry and the caller simply keeps using its value.
    ///
    /// Replacing a resident key counts as an access.  The old slot sits
    /// outside the cache while admission runs for the new footprint: it is
    /// never its own eviction victim, and only the byte delta is charged.
    pub fn insert(&self, key: &str, tenant: &str, value: Arc<V>, bytes: u64) -> Admission {
        let bytes = bytes.max(1);
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        inner.tick += 1;
        let now = inner.tick;
        let tenant_id = inner.tenant_id(tenant);
        if let Some(pos) = inner.index.get(key).copied() {
            inner.remove_at(pos);
        }

        let mut verdict = Admission::Cached;
        if bytes > self.bytes_capacity {
            verdict = Admission::TooLarge;
        } else if self.quota.map(|q| bytes > q).unwrap_or(false) {
            verdict = Admission::OverQuota;
        } else {
            // Quota pass: a tenant over budget makes room among its own
            // entries (self-eviction keeps its working set fresh without
            // touching anyone else's).
            if let Some(quota) = self.quota {
                verdict = self.evict_for_quota(inner, tenant_id, bytes, quota);
            }
            if verdict.is_cached() {
                verdict = self.evict_for_capacity(inner, tenant_id, bytes);
            }
        }

        if !verdict.is_cached() {
            inner.uncacheable += 1;
            if let Some(t) = inner.tenants.get_mut(tenant_id) {
                t.uncacheable += 1;
            }
            return verdict;
        }

        let slot = Slot {
            key: key.to_string(),
            tenant: tenant_id,
            value,
            bytes,
            inserted: Instant::now(),
            last_access_tick: now,
        };
        inner.index.insert(key.to_string(), inner.slots.len());
        inner.slots.push(slot);
        inner.bytes_used = inner.bytes_used.saturating_add(bytes);
        if let Some(t) = inner.tenants.get_mut(tenant_id) {
            t.bytes = t.bytes.saturating_add(bytes);
            t.entries += 1;
        }
        Admission::Cached
    }

    /// Free the inserting tenant's own space down to its quota.
    fn evict_for_quota(
        &self,
        inner: &mut Inner<V>,
        tenant_id: usize,
        incoming_bytes: u64,
        quota: u64,
    ) -> Admission {
        loop {
            let used = inner.tenants.get(tenant_id).map(|t| t.bytes).unwrap_or(0);
            let need = used.saturating_add(incoming_bytes).saturating_sub(quota);
            if need == 0 {
                return Admission::Cached;
            }
            let candidates: Vec<(u64, usize, u64)> = inner
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.tenant == tenant_id)
                .map(|(pos, s)| (s.last_access_tick, pos, s.bytes))
                .collect();
            // A tenant over quota with nothing evictable (unreachable, as
            // bytes ≤ quota was checked, but never loop) is uncacheable.
            if !inner.evict_lru(candidates, need) {
                return Admission::OverQuota;
            }
        }
    }

    /// Free global space down to the byte budget and the entry bound,
    /// respecting other tenants' fair-share floors.
    fn evict_for_capacity(
        &self,
        inner: &mut Inner<V>,
        tenant_id: usize,
        incoming_bytes: u64,
    ) -> Admission {
        loop {
            let over_bytes = inner
                .bytes_used
                .saturating_add(incoming_bytes)
                .saturating_sub(self.bytes_capacity);
            let over_entries = self
                .max_entries
                .map(|m| inner.slots.len() + 1 > m)
                .unwrap_or(false);
            if over_bytes == 0 && !over_entries {
                return Admission::Cached;
            }
            let floor_bytes = self.floor_bytes(inner, tenant_id);
            let candidates: Vec<(u64, usize, u64)> = inner
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| {
                    if s.tenant == tenant_id || floor_bytes == 0 {
                        return true;
                    }
                    // Another tenant's entry is evictable only while its
                    // owner stays at or above the floor afterwards.
                    let owner_bytes = inner.tenants.get(s.tenant).map(|t| t.bytes).unwrap_or(0);
                    owner_bytes.saturating_sub(s.bytes) >= floor_bytes
                })
                .map(|(pos, s)| (s.last_access_tick, pos, s.bytes))
                .collect();
            let available: u64 = candidates.iter().map(|&(_, _, bytes)| bytes).sum();
            // Evicting every unprotected entry still would not fit the
            // newcomer: bail out before destroying the cache for an entry
            // that cannot be admitted.
            if available < over_bytes || !inner.evict_lru(candidates, over_bytes.max(1)) {
                return Admission::Contended;
            }
        }
    }

    /// The byte floor below which another tenant's entries are protected:
    /// `floor_fraction × bytes_capacity / active_tenants` (0 when the floor
    /// is disabled or the cache has no byte budget).
    fn floor_bytes(&self, inner: &Inner<V>, inserting_tenant: usize) -> u64 {
        if self.floor <= 0.0 || self.bytes_capacity == u64::MAX {
            return 0;
        }
        let mut active = inner
            .tenants
            .iter()
            .enumerate()
            .filter(|(id, t)| t.bytes > 0 || *id == inserting_tenant)
            .count();
        active = active.max(1);
        (self.floor * self.bytes_capacity as f64 / active as f64) as u64
    }

    /// Current counters (a consistent snapshot: one lock, one read).
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        let mut per_tenant: Vec<TenantUsage> = inner
            .tenants
            .iter()
            .map(|t| TenantUsage {
                tenant: t.name.clone(),
                bytes: t.bytes,
                entries: t.entries,
                hits: t.hits,
                misses: t.misses,
                uncacheable: t.uncacheable,
            })
            .collect();
        per_tenant.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            expirations: inner.expirations,
            entries: inner.slots.len(),
            capacity: self.max_entries.unwrap_or(0),
            bytes_used: inner.bytes_used,
            bytes_capacity: self.bytes_capacity,
            uncacheable: inner.uncacheable,
            per_tenant,
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.inner.lock().slots.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently resident.
    pub fn bytes_used(&self) -> u64 {
        self.inner.lock().bytes_used
    }

    /// Whether `key` is resident, without touching recency or counters.
    pub fn contains(&self, key: &str) -> bool {
        self.inner.lock().index.contains_key(key)
    }

    /// Drop every entry (counters and tenant tallies for bytes reset;
    /// hit/miss history is kept).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        inner.slots.clear();
        inner.index.clear();
        inner.bytes_used = 0;
        for tenant in &mut inner.tenants {
            tenant.bytes = 0;
            tenant.entries = 0;
        }
    }

    /// Audit the internal accounting: recompute every tally from the slots
    /// and compare.  Returns a description of the first drift found, if
    /// any — the property battery calls this after every churn phase.
    pub fn validate_accounting(&self) -> Result<(), String> {
        let inner = self.inner.lock();
        let mut bytes = 0u64;
        let mut tenant_bytes = vec![0u64; inner.tenants.len()];
        let mut tenant_entries = vec![0usize; inner.tenants.len()];
        for (pos, slot) in inner.slots.iter().enumerate() {
            bytes = bytes.saturating_add(slot.bytes);
            match inner.index.get(&slot.key) {
                Some(&idx) if idx == pos => {}
                other => {
                    return Err(format!(
                        "index drift: slot {} at {} indexed as {:?}",
                        slot.key, pos, other
                    ))
                }
            }
            if let Some(b) = tenant_bytes.get_mut(slot.tenant) {
                *b += slot.bytes;
            }
            if let Some(e) = tenant_entries.get_mut(slot.tenant) {
                *e += 1;
            }
        }
        if inner.index.len() != inner.slots.len() {
            return Err(format!(
                "index size {} != slots {}",
                inner.index.len(),
                inner.slots.len()
            ));
        }
        if bytes != inner.bytes_used {
            return Err(format!(
                "bytes_used drift: recomputed {bytes}, recorded {}",
                inner.bytes_used
            ));
        }
        if inner.bytes_used > self.bytes_capacity {
            return Err(format!(
                "over byte capacity: {} > {}",
                inner.bytes_used, self.bytes_capacity
            ));
        }
        if let Some(max) = self.max_entries {
            if inner.slots.len() > max {
                return Err(format!("over entry bound: {} > {max}", inner.slots.len()));
            }
        }
        for (id, tenant) in inner.tenants.iter().enumerate() {
            if tenant.bytes != tenant_bytes.get(id).copied().unwrap_or(0)
                || tenant.entries != tenant_entries.get(id).copied().unwrap_or(0)
            {
                return Err(format!(
                    "tenant {} drift: recorded {}B/{}e, recomputed {}B/{}e",
                    tenant.name,
                    tenant.bytes,
                    tenant.entries,
                    tenant_bytes.get(id).copied().unwrap_or(0),
                    tenant_entries.get(id).copied().unwrap_or(0)
                ));
            }
            if let Some(quota) = self.quota {
                if tenant.bytes > quota {
                    return Err(format!(
                        "tenant {} over quota: {} > {quota}",
                        tenant.name, tenant.bytes
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core(config: CacheConfig) -> CacheCore<String> {
        CacheCore::new(config, "cache-core.test")
    }

    fn value(s: &str) -> Arc<String> {
        Arc::new(s.to_string())
    }

    #[test]
    fn byte_budget_evicts_to_fit() {
        let cache = core(CacheConfig {
            bytes_capacity: 100,
            ..CacheConfig::default()
        });
        assert!(cache.insert("a", "public", value("a"), 40).is_cached());
        assert!(cache.insert("b", "public", value("b"), 40).is_cached());
        // 40+40+40 > 100: the LRU entry (a) must go.
        assert!(cache.insert("c", "public", value("c"), 40).is_cached());
        assert!(!cache.contains("a"));
        assert!(cache.contains("b") && cache.contains("c"));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.bytes_used, 80);
        cache.validate_accounting().unwrap();
    }

    #[test]
    fn recency_on_get_protects_hot_entries() {
        let cache = core(CacheConfig {
            bytes_capacity: 100,
            ..CacheConfig::default()
        });
        cache.insert("a", "public", value("a"), 40);
        cache.insert("b", "public", value("b"), 40);
        assert!(cache.get("a", "public").is_some());
        cache.insert("c", "public", value("c"), 40);
        assert!(cache.contains("a"));
        assert!(!cache.contains("b"));
    }

    #[test]
    fn a_byte_deficit_evicts_least_recently_used_first() {
        let cache = core(CacheConfig {
            bytes_capacity: 300,
            ..CacheConfig::default()
        });
        for key in ["a", "b", "c"] {
            cache.insert(key, "public", value(key), 100);
        }
        cache.get("c", "public");
        cache.get("a", "public");
        // Recency is now b < c < a; 150 bytes must go: b, then c.
        assert!(cache.insert("d", "public", value("d"), 150).is_cached());
        assert!(!cache.contains("b") && !cache.contains("c"));
        assert!(cache.contains("a") && cache.contains("d"));
        assert_eq!(cache.stats().evictions, 2);
        cache.validate_accounting().unwrap();
    }

    #[test]
    fn an_entry_larger_than_the_cache_is_uncacheable() {
        let cache = core(CacheConfig {
            bytes_capacity: 100,
            ..CacheConfig::default()
        });
        cache.insert("small", "public", value("s"), 60);
        assert_eq!(
            cache.insert("huge", "public", value("h"), 200),
            Admission::TooLarge
        );
        // Nothing was evicted for the rejected giant.
        assert!(cache.contains("small"));
        assert_eq!(cache.stats().uncacheable, 1);
        cache.validate_accounting().unwrap();
    }

    #[test]
    fn quota_makes_room_among_own_entries_only() {
        let cache = core(CacheConfig {
            bytes_capacity: 1000,
            tenant_quota_bytes: Some(100),
            ..CacheConfig::default()
        });
        cache.insert("a1", "a", value("x"), 60);
        cache.insert("b1", "b", value("x"), 60);
        // Tenant a is at 60/100; inserting 60 more must evict a1, not b1.
        assert!(cache.insert("a2", "a", value("x"), 60).is_cached());
        assert!(!cache.contains("a1"));
        assert!(cache.contains("b1"));
        // An entry larger than the quota is admitted-but-uncacheable.
        assert_eq!(
            cache.insert("a3", "a", value("x"), 150),
            Admission::OverQuota
        );
        cache.validate_accounting().unwrap();
    }

    #[test]
    fn fair_share_floor_shields_other_tenants() {
        // Floor 0.5 over 200 bytes and 2 active tenants → 50 bytes
        // protected per tenant.
        let cache = core(CacheConfig {
            bytes_capacity: 200,
            tenant_floor: 0.5,
            ..CacheConfig::default()
        });
        cache.insert("hot1", "b", value("x"), 25);
        cache.insert("hot2", "b", value("x"), 25);
        // Tenant a floods: b sits exactly at the 50-byte floor, so every
        // eviction must come from a's own scan entries.
        for i in 0..20 {
            let key = format!("scan{i}");
            cache.insert(&key, "a", value("x"), 50);
        }
        assert!(cache.contains("hot1"), "floor must protect tenant b");
        assert!(cache.contains("hot2"), "floor must protect tenant b");
        cache.validate_accounting().unwrap();
    }

    #[test]
    fn contended_when_everything_else_is_protected() {
        let cache = core(CacheConfig {
            bytes_capacity: 100,
            tenant_floor: 1.0,
            ..CacheConfig::default()
        });
        cache.insert("b1", "b", value("x"), 90);
        // Tenant a wants 90 bytes; b's only entry is floor-protected and a
        // owns nothing, so the insert is admitted-but-uncacheable.
        assert_eq!(
            cache.insert("a1", "a", value("x"), 90),
            Admission::Contended
        );
        assert!(cache.contains("b1"));
        cache.validate_accounting().unwrap();
    }

    #[test]
    fn legacy_entry_bound_still_works() {
        let cache = core(CacheConfig {
            max_entries: Some(2),
            ..CacheConfig::default()
        });
        cache.insert("a", "public", value("a"), 1);
        cache.insert("b", "public", value("b"), 1);
        cache.get("a", "public");
        cache.insert("c", "public", value("c"), 1);
        assert!(cache.contains("a") && cache.contains("c"));
        assert!(!cache.contains("b"));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn a_replacement_is_charged_only_its_byte_delta() {
        let cache = core(CacheConfig {
            bytes_capacity: 300,
            ..CacheConfig::default()
        });
        cache.insert("a", "public", value("a"), 100);
        cache.insert("b", "public", value("b"), 100);
        // 100 + 200 fits exactly: growing `b` in place evicts nothing.
        assert!(cache.insert("b", "public", value("b2"), 200).is_cached());
        assert!(cache.contains("a"));
        assert_eq!(cache.bytes_used(), 300);
        assert_eq!(cache.stats().evictions, 0);
        // Too large to cache at all: the stale entry leaves too.
        assert_eq!(
            cache.insert("b", "public", value("b3"), 400),
            Admission::TooLarge
        );
        assert!(!cache.contains("b"));
        cache.validate_accounting().unwrap();
    }

    #[test]
    fn churn_keeps_the_accounting_clean() {
        let cache = core(CacheConfig {
            bytes_capacity: 1000,
            ..CacheConfig::default()
        });
        for i in 0..200u32 {
            let key = format!("k{}", i % 37);
            if i % 3 == 0 {
                cache.get(&key, "public");
            } else {
                let bytes = 16 + (u64::from(i) * 37) % 400;
                cache.insert(&key, "public", value("x"), bytes);
            }
        }
        cache.validate_accounting().unwrap();
        assert!(cache.bytes_used() <= 1000);
    }
}
