//! [`CacheCore`]: the shared serving-cache engine.
//!
//! A keyed map of [`Arc`]ed values with byte-accurate accounting, evicting
//! least recently used first.  Both the plan cache and the server's factor
//! cache are thin wrappers around this core, so admission, eviction order
//! and statistics behave identically everywhere.  All entries share one
//! pool: a lookup finds whatever any caller inserted.
//!
//! Capacity has two axes, enforceable together or alone:
//!
//! * a **byte budget** (`bytes_capacity`) — the production mode, sized from
//!   per-entry footprints estimated at insert time;
//! * an **entry bound** (`max_entries`) — the mode the server's caches run
//!   in, under a default byte ceiling, unless a byte budget is configured.
//!
//! An entry larger than the whole byte budget is *admitted but uncacheable*
//! ([`Admission::TooLarge`]): the caller still gets its value, nothing is
//! evicted for it.
//!
//! Recency is a logical tick: every lookup and insert advances it and stamps
//! at most one entry, so no two entries share a tick and the eviction order
//! is total and deterministic.  All mutable state lives under one
//! [`TrackedMutex`] (lock-order tracked, poison-tolerant).

use std::collections::HashMap;
use std::sync::Arc;

use treemem::sync::TrackedMutex;

use super::CacheStats;

/// Construction parameters of a [`CacheCore`] and of the caches built on
/// it ([`PlanCache`](super::PlanCache), the server's factor cache); see the
/// module docs.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Byte budget (`u64::MAX` = unbounded by bytes).
    pub bytes_capacity: u64,
    /// Optional entry bound.
    pub max_entries: Option<usize>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            bytes_capacity: u64::MAX,
            max_entries: None,
        }
    }
}

/// How an insert was admitted; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The entry is resident.
    Cached,
    /// Larger than the cache's byte budget (or the cache holds no entries
    /// at all): served, never cached.
    TooLarge,
}

impl Admission {
    /// Whether the entry ended up resident.
    pub fn is_cached(&self) -> bool {
        matches!(self, Admission::Cached)
    }
}

struct Slot<V> {
    key: String,
    value: Arc<V>,
    bytes: u64,
    last_access_tick: u64,
}

struct Inner<V> {
    slots: Vec<Slot<V>>,
    /// key → index into `slots` (`slots` itself is unordered; recency lives
    /// in the per-slot ticks).
    index: HashMap<String, usize>,
    bytes_used: u64,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    uncacheable: u64,
}

impl<V> Inner<V> {
    /// Take the slot at `pos` out of the map and its bytes off the tally
    /// (swap-remove, fixing the displaced index entry).
    fn remove_at(&mut self, pos: usize) {
        let slot = self.slots.swap_remove(pos);
        self.index.remove(&slot.key);
        if let Some(moved) = self.slots.get(pos) {
            self.index.insert(moved.key.clone(), pos);
        }
        self.bytes_used = self.bytes_used.saturating_sub(slot.bytes);
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

    /// Count one lookup outcome.
    fn count_lookup(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }
}

/// The shared serving-cache engine; see the module docs.
pub struct CacheCore<V> {
    bytes_capacity: u64,
    max_entries: Option<usize>,
    inner: TrackedMutex<Inner<V>>,
}

impl<V> CacheCore<V> {
    /// Build a core with `config`; `lock_class` names its tracked mutex in
    /// the lock-order diagnostics.
    pub fn new(config: CacheConfig, lock_class: &'static str) -> Self {
        CacheCore {
            bytes_capacity: config.bytes_capacity.max(1),
            max_entries: config.max_entries,
            inner: TrackedMutex::new(
                Inner {
                    slots: Vec::new(),
                    index: HashMap::new(),
                    bytes_used: 0,
                    tick: 0,
                    hits: 0,
                    misses: 0,
                    evictions: 0,
                    uncacheable: 0,
                },
                lock_class,
            ),
        }
    }

    /// Look up `key`, refreshing recency.
    pub fn get(&self, key: &str) -> Option<Arc<V>> {
        self.lookup(key, true)
    }

    /// [`CacheCore::get`] that counts a hit but counts a miss only when
    /// `count_miss`: a single-flight waiter looks the same key up again
    /// after its wait, and reports the one outcome of its call itself
    /// through [`CacheCore::count_lookup`].
    pub(crate) fn lookup(&self, key: &str, count_miss: bool) -> Option<Arc<V>> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        inner.tick += 1;
        let now = inner.tick;
        let value = inner
            .index
            .get(key)
            .copied()
            .and_then(|at| inner.slots.get_mut(at))
            .map(|slot| {
                slot.last_access_tick = now;
                slot.value.clone()
            });
        if value.is_some() || count_miss {
            inner.count_lookup(value.is_some());
        }
        value
    }

    /// Count a lookup outcome without touching any entry (the deferred half
    /// of [`CacheCore::lookup`]).
    pub(crate) fn count_lookup(&self, hit: bool) {
        self.inner.lock().count_lookup(hit);
    }

    /// Insert `value` under `key` with footprint `bytes` (at least 1 is
    /// accounted).  Returns how the insert was admitted; on anything but
    /// [`Admission::Cached`] the cache is left without the entry and the
    /// caller simply keeps using its value.
    ///
    /// Replacing a resident key counts as an access.  The old slot sits
    /// outside the cache while admission runs for the new footprint: it is
    /// never its own eviction victim, and only the byte delta is charged.
    pub fn insert(&self, key: &str, value: Arc<V>, bytes: u64) -> Admission {
        let bytes = bytes.max(1);
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        inner.tick += 1;
        let now = inner.tick;
        if let Some(pos) = inner.index.get(key).copied() {
            inner.remove_at(pos);
        }

        let verdict = if bytes > self.bytes_capacity {
            Admission::TooLarge
        } else {
            self.evict_for_capacity(inner, bytes)
        };
        if !verdict.is_cached() {
            inner.uncacheable += 1;
            return verdict;
        }

        let slot = Slot {
            key: key.to_string(),
            value,
            bytes,
            last_access_tick: now,
        };
        inner.index.insert(key.to_string(), inner.slots.len());
        inner.slots.push(slot);
        inner.bytes_used = inner.bytes_used.saturating_add(bytes);
        Admission::Cached
    }

    /// Free space down to the byte budget and the entry bound, least
    /// recently used first.  An entry bound of 0 leaves nothing to evict
    /// and no room: the entry is too large for the cache.
    fn evict_for_capacity(&self, inner: &mut Inner<V>, incoming_bytes: u64) -> Admission {
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
            let candidates: Vec<(u64, usize, u64)> = inner
                .slots
                .iter()
                .enumerate()
                .map(|(pos, s)| (s.last_access_tick, pos, s.bytes))
                .collect();
            if !inner.evict_lru(candidates, over_bytes.max(1)) {
                return Admission::TooLarge;
            }
        }
    }

    /// Current counters (a consistent snapshot: one lock, one read).
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.slots.len(),
            capacity: self.max_entries.unwrap_or(0),
            bytes_used: inner.bytes_used,
            bytes_capacity: self.bytes_capacity,
            uncacheable: inner.uncacheable,
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

    /// Audit the internal accounting: recompute the tallies from the slots
    /// and compare.  Returns a description of the first drift found, if
    /// any — the property battery calls this after every churn phase.
    pub fn validate_accounting(&self) -> Result<(), String> {
        let inner = self.inner.lock();
        let mut bytes = 0u64;
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
        assert!(cache.insert("a", value("a"), 40).is_cached());
        assert!(cache.insert("b", value("b"), 40).is_cached());
        // 40+40+40 > 100: the LRU entry (a) must go.
        assert!(cache.insert("c", value("c"), 40).is_cached());
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
        cache.insert("a", value("a"), 40);
        cache.insert("b", value("b"), 40);
        assert!(cache.get("a").is_some());
        cache.insert("c", value("c"), 40);
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
            cache.insert(key, value(key), 100);
        }
        cache.get("c");
        cache.get("a");
        // Recency is now b < c < a; 150 bytes must go: b, then c.
        assert!(cache.insert("d", value("d"), 150).is_cached());
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
        cache.insert("small", value("s"), 60);
        assert_eq!(cache.insert("huge", value("h"), 200), Admission::TooLarge);
        // Nothing was evicted for the rejected giant.
        assert!(cache.contains("small"));
        assert_eq!(cache.stats().uncacheable, 1);
        cache.validate_accounting().unwrap();
    }

    #[test]
    fn legacy_entry_bound_still_works() {
        let cache = core(CacheConfig {
            max_entries: Some(2),
            ..CacheConfig::default()
        });
        cache.insert("a", value("a"), 1);
        cache.insert("b", value("b"), 1);
        cache.get("a");
        cache.insert("c", value("c"), 1);
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
        cache.insert("a", value("a"), 100);
        cache.insert("b", value("b"), 100);
        // 100 + 200 fits exactly: growing `b` in place evicts nothing.
        assert!(cache.insert("b", value("b2"), 200).is_cached());
        assert!(cache.contains("a"));
        assert_eq!(cache.bytes_used(), 300);
        assert_eq!(cache.stats().evictions, 0);
        // Too large to cache at all: the stale entry leaves too.
        assert_eq!(cache.insert("b", value("b3"), 400), Admission::TooLarge);
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
                cache.get(&key);
            } else {
                let bytes = 16 + (u64::from(i) * 37) % 400;
                cache.insert(&key, value("x"), bytes);
            }
        }
        cache.validate_accounting().unwrap();
        assert!(cache.bytes_used() <= 1000);
    }
}
