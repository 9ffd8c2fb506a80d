//! The serving cache's eviction policies.
//!
//! A serving cache sees only the past — insertions, accesses and removals
//! streamed to its per-cache session — and must pick victims when the core
//! needs room.  Three policies exist because `BENCH_cache.json` separates
//! exactly three behaviours: [`CachePolicy::Lru`] (recency, the
//! entry-count default), [`CachePolicy::Gdsf`] (size-aware, the byte-mode
//! default) and [`CachePolicy::S3Fifo`] (scan-resistant).  The set is
//! closed: a cache is configured with a [`CachePolicy`] value, so no name is
//! left to resolve at construction time; names exist only at the edges
//! (`--cache-policy`, `/stats`, the trace matrix) through
//! [`FromStr`](std::str::FromStr) and [`Display`](std::fmt::Display).
//!
//! Contract notes:
//!
//! * `select` returns slot ids; the core drops duplicates, ignores ids
//!   outside the offered candidate list, and completes any shortfall in
//!   least-recently-used order.
//! * Sessions are long-lived (one per cache, not per decision) and always
//!   called under the cache lock, in a deterministic order — every policy
//!   uses only the streamed events and the prompt, so replay is fully
//!   deterministic.

use std::collections::{HashMap, HashSet, VecDeque};

use treemem::registry::UnknownName;

/// Which eviction policy a serving cache runs; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePolicy {
    /// Recency LRU: evict the least-recently-accessed candidates until the
    /// deficit is covered — the entry-count cache order, generalised to
    /// byte deficits.
    #[default]
    Lru,
    /// GreedyDual-Size-Frequency: every entry carries a priority
    /// `H = L + frequency / size`; evictions take the lowest `H` and raise
    /// the inflation `L` to it, so long-unused entries age out while small,
    /// frequently-hit entries survive large cold ones.
    Gdsf,
    /// S3-FIFO: a small probationary FIFO absorbs one-hit wonders,
    /// survivors promote into a main FIFO with lazy second chances, and a
    /// ghost queue of evicted fingerprints routes quickly-returning keys
    /// straight into main.
    S3Fifo,
}

impl CachePolicy {
    /// Every policy, in the order reports and matrices list them.
    pub const ALL: [CachePolicy; 3] = [CachePolicy::Lru, CachePolicy::Gdsf, CachePolicy::S3Fifo];

    /// Short stable identifier (CLI flag value, `/stats`, bench matrices).
    pub fn name(self) -> &'static str {
        match self {
            CachePolicy::Lru => "LRU",
            CachePolicy::Gdsf => "GDSF",
            CachePolicy::S3Fifo => "S3FIFO",
        }
    }

    /// Start the per-cache state of this policy.
    pub(super) fn session(self) -> Session {
        match self {
            CachePolicy::Lru => Session::Lru,
            CachePolicy::Gdsf => Session::Gdsf(GdsfSession::default()),
            CachePolicy::S3Fifo => Session::S3Fifo(S3FifoSession::default()),
        }
    }
}

impl std::fmt::Display for CachePolicy {
    fn fmt(&self, fmt: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fmt.pad(self.name())
    }
}

impl std::str::FromStr for CachePolicy {
    type Err = UnknownName;

    fn from_str(name: &str) -> Result<Self, UnknownName> {
        CachePolicy::ALL
            .into_iter()
            .find(|policy| policy.name() == name)
            .ok_or_else(|| UnknownName {
                kind: "cache policy",
                name: name.to_string(),
                known: CachePolicy::ALL.map(|p| p.name().to_string()).to_vec(),
            })
    }
}

/// Everything a policy may know about one resident entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct EntryMeta {
    /// Stable id of the entry (unique for the cache's lifetime).
    pub slot: u64,
    /// FNV-1a fingerprint of the entry's key (stable across re-insertions —
    /// this is what ghost queues recognise returning keys by).
    pub fingerprint: u64,
    /// Byte footprint (at least 1).
    pub bytes: u64,
    /// Logical tick of the most recent access.
    pub last_access_tick: u64,
}

/// One eviction decision offered to a session.
pub(super) struct EvictionPrompt<'a> {
    /// The evictable entries (entries protected by another tenant's
    /// fair-share floor are already filtered out).
    pub candidates: &'a [EntryMeta],
    /// Bytes that must be freed.
    pub deficit_bytes: u64,
    /// The cache's byte capacity (`u64::MAX` when bounded by entries only).
    pub bytes_capacity: u64,
}

/// Per-cache state of a policy: observes the stream and selects victims.
pub(super) enum Session {
    Lru,
    Gdsf(GdsfSession),
    S3Fifo(S3FifoSession),
}

impl Session {
    /// A new entry became resident.
    pub fn on_insert(&mut self, meta: &EntryMeta) {
        match self {
            Session::Lru => {}
            Session::Gdsf(session) => session.on_insert(meta),
            Session::S3Fifo(session) => session.on_insert(meta),
        }
    }

    /// An entry served a hit or took a replacement value; `meta` carries
    /// its current footprint.
    pub fn on_access(&mut self, meta: &EntryMeta) {
        match self {
            Session::Lru => {}
            Session::Gdsf(session) => session.on_access(meta),
            Session::S3Fifo(session) => session.on_access(meta),
        }
    }

    /// An entry left the cache (eviction, expiry, uncacheable replacement
    /// or clear).
    pub fn on_remove(&mut self, slot: u64) {
        match self {
            Session::Lru => {}
            Session::Gdsf(session) => session.on_remove(slot),
            Session::S3Fifo(session) => session.on_remove(slot),
        }
    }

    /// Select victims (slot ids) freeing at least `prompt.deficit_bytes`.
    pub fn select(&mut self, prompt: &EvictionPrompt<'_>) -> Vec<u64> {
        match self {
            Session::Lru => select_lru(prompt),
            Session::Gdsf(session) => session.select(prompt),
            Session::S3Fifo(session) => session.select(prompt),
        }
    }
}

/// [`CachePolicy::Lru`] needs no state: recency lives in the entries.
fn select_lru(prompt: &EvictionPrompt<'_>) -> Vec<u64> {
    let mut ordered: Vec<&EntryMeta> = prompt.candidates.iter().collect();
    ordered.sort_by_key(|m| (m.last_access_tick, m.slot));
    let mut freed = 0u64;
    let mut victims = Vec::new();
    for meta in ordered {
        if freed >= prompt.deficit_bytes {
            break;
        }
        freed = freed.saturating_add(meta.bytes);
        victims.push(meta.slot);
    }
    victims
}

/// Numerator scale for `frequency / size`: keeps priorities of byte-sized
/// entries in a comfortable float range.
const GDSF_SCALE: f64 = 1.0e6;

/// State of [`CachePolicy::Gdsf`].
#[derive(Default)]
pub(super) struct GdsfSession {
    /// The inflation value `L`: the priority of the last eviction.
    inflation: f64,
    /// Per-slot (bytes, frequency, priority).
    entries: HashMap<u64, (u64, u64, f64)>,
}

impl GdsfSession {
    fn priority(inflation: f64, bytes: u64, frequency: u64) -> f64 {
        inflation + GDSF_SCALE * frequency as f64 / bytes.max(1) as f64
    }

    fn on_insert(&mut self, meta: &EntryMeta) {
        let h = Self::priority(self.inflation, meta.bytes, 1);
        self.entries.insert(meta.slot, (meta.bytes, 1, h));
    }

    fn on_access(&mut self, meta: &EntryMeta) {
        if let Some((bytes, freq, h)) = self.entries.get_mut(&meta.slot) {
            *bytes = meta.bytes;
            *freq += 1;
            *h = Self::priority(self.inflation, *bytes, *freq);
        }
    }

    fn on_remove(&mut self, slot: u64) {
        self.entries.remove(&slot);
    }

    fn select(&mut self, prompt: &EvictionPrompt<'_>) -> Vec<u64> {
        let mut ordered: Vec<(f64, &EntryMeta)> = prompt
            .candidates
            .iter()
            .map(|m| {
                let h = self
                    .entries
                    .get(&m.slot)
                    .map(|&(_, _, h)| h)
                    // An entry the session never saw (shouldn't happen):
                    // treat as freshly inserted.
                    .unwrap_or_else(|| Self::priority(self.inflation, m.bytes, 1));
                (h, m)
            })
            .collect();
        ordered.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.1.slot.cmp(&b.1.slot))
        });
        let mut freed = 0u64;
        let mut victims = Vec::new();
        for (h, meta) in ordered {
            if freed >= prompt.deficit_bytes {
                break;
            }
            freed = freed.saturating_add(meta.bytes);
            victims.push(meta.slot);
            // Classic GreedyDual ageing: L becomes the evicted priority.
            if h > self.inflation {
                self.inflation = h;
            }
        }
        victims
    }
}

/// Fraction of the byte capacity reserved for the small queue (the paper's
/// 10%).
const S3_SMALL_FRACTION: u64 = 10;
/// Ghost queue length (evicted-key fingerprints remembered).
const S3_GHOST_LEN: usize = 4096;

/// State of [`CachePolicy::S3Fifo`].
#[derive(Default)]
pub(super) struct S3FifoSession {
    small: VecDeque<u64>,
    main: VecDeque<u64>,
    /// Per-slot (bytes, frequency 0..=3, fingerprint, in_main).
    entries: HashMap<u64, (u64, u8, u64, bool)>,
    small_bytes: u64,
    ghost: VecDeque<u64>,
    ghost_set: HashSet<u64>,
}

impl S3FifoSession {
    fn remember_ghost(&mut self, fingerprint: u64) {
        if self.ghost_set.insert(fingerprint) {
            self.ghost.push_back(fingerprint);
            while self.ghost.len() > S3_GHOST_LEN {
                if let Some(old) = self.ghost.pop_front() {
                    self.ghost_set.remove(&old);
                }
            }
        }
    }

    fn on_insert(&mut self, meta: &EntryMeta) {
        let returning = self.ghost_set.contains(&meta.fingerprint);
        self.entries
            .insert(meta.slot, (meta.bytes, 0, meta.fingerprint, returning));
        if returning {
            self.main.push_back(meta.slot);
        } else {
            self.small.push_back(meta.slot);
            self.small_bytes = self.small_bytes.saturating_add(meta.bytes);
        }
    }

    fn on_access(&mut self, meta: &EntryMeta) {
        if let Some((bytes, freq, _, in_main)) = self.entries.get_mut(&meta.slot) {
            if !*in_main {
                self.small_bytes = self.small_bytes.saturating_sub(*bytes) + meta.bytes;
            }
            *bytes = meta.bytes;
            *freq = (*freq + 1).min(3);
        }
    }

    fn on_remove(&mut self, slot: u64) {
        let Some((bytes, _, _, in_main)) = self.entries.remove(&slot) else {
            return; // evicted by `select`, which already dropped the row
        };
        if !in_main {
            self.small_bytes = self.small_bytes.saturating_sub(bytes);
        }
        // The id stays queued (VecDeque removal is O(n)) and `select` skips
        // it when it surfaces.  A cache that never evicts never runs
        // `select`, so sweep the stale ids once they outnumber the live
        // ones: the queues stay within twice the entry count at amortised
        // O(1) per removal.
        if self.small.len() + self.main.len() > 2 * self.entries.len() {
            let entries = &self.entries;
            self.small
                .retain(|id| entries.get(id).is_some_and(|entry| !entry.3));
            self.main
                .retain(|id| entries.get(id).is_some_and(|entry| entry.3));
        }
    }
    fn select(&mut self, prompt: &EvictionPrompt<'_>) -> Vec<u64> {
        let evictable: HashSet<u64> = prompt.candidates.iter().map(|m| m.slot).collect();
        let small_target = if prompt.bytes_capacity == u64::MAX {
            0
        } else {
            prompt.bytes_capacity / S3_SMALL_FRACTION
        };
        let mut victims = Vec::new();
        let mut freed = 0u64;
        // Lazy queue cleanup makes single passes non-constant; bound the
        // total work and let the core's LRU completion cover any shortfall.
        let mut fuel = 4 * (self.small.len() + self.main.len()) + 8;
        while freed < prompt.deficit_bytes && fuel > 0 {
            fuel -= 1;
            let from_small = (self.small_bytes >= small_target && !self.small.is_empty())
                || self.main.is_empty();
            if from_small {
                let Some(slot) = self.small.pop_front() else {
                    if self.main.is_empty() {
                        break;
                    }
                    continue;
                };
                let Some(&(bytes, freq, fingerprint, in_main)) = self.entries.get(&slot) else {
                    continue; // removed earlier, lazily dropped now
                };
                if in_main {
                    continue; // promoted earlier, stale small entry
                }
                if freq > 1 {
                    // Survivor: promote into main.
                    if let Some(entry) = self.entries.get_mut(&slot) {
                        entry.1 = 0;
                        entry.3 = true;
                    }
                    self.small_bytes = self.small_bytes.saturating_sub(bytes);
                    self.main.push_back(slot);
                    continue;
                }
                if !evictable.contains(&slot) {
                    // Protected by a tenant floor: rotate, do not evict.
                    self.small.push_back(slot);
                    continue;
                }
                self.entries.remove(&slot);
                self.small_bytes = self.small_bytes.saturating_sub(bytes);
                self.remember_ghost(fingerprint);
                freed = freed.saturating_add(bytes);
                victims.push(slot);
            } else {
                let Some(slot) = self.main.pop_front() else {
                    continue;
                };
                let Some(&(bytes, freq, _, in_main)) = self.entries.get(&slot) else {
                    continue;
                };
                if !in_main {
                    continue;
                }
                if freq > 0 {
                    // Second chance.
                    if let Some(entry) = self.entries.get_mut(&slot) {
                        entry.1 = freq - 1;
                    }
                    self.main.push_back(slot);
                    continue;
                }
                if !evictable.contains(&slot) {
                    self.main.push_back(slot);
                    continue;
                }
                self.entries.remove(&slot);
                freed = freed.saturating_add(bytes);
                victims.push(slot);
            }
        }
        victims
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(slot: u64, bytes: u64, last_access: u64) -> EntryMeta {
        EntryMeta {
            slot,
            fingerprint: slot.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            bytes,
            last_access_tick: last_access,
        }
    }

    #[test]
    fn names_round_trip_and_unknown_names_list_the_three() {
        let names: Vec<String> = CachePolicy::ALL.iter().map(|p| p.to_string()).collect();
        assert_eq!(names, vec!["LRU", "GDSF", "S3FIFO"]);
        for policy in CachePolicy::ALL {
            assert_eq!(policy.name().parse::<CachePolicy>(), Ok(policy));
        }
        // A simulator heuristic is no longer a serving policy, and neither
        // is a typo; both errors name what is.
        for bad in ["LSNF", "nope"] {
            let error = bad.parse::<CachePolicy>().unwrap_err();
            assert_eq!(error.kind, "cache policy");
            assert!(
                error.to_string().contains("LRU, GDSF, S3FIFO"),
                "'{bad}': {error}"
            );
        }
    }

    #[test]
    fn lru_evicts_least_recently_accessed() {
        let mut session = CachePolicy::Lru.session();
        let candidates = vec![meta(1, 100, 30), meta(2, 100, 10), meta(3, 100, 20)];
        let prompt = EvictionPrompt {
            candidates: &candidates,
            deficit_bytes: 150,
            bytes_capacity: 1000,
        };
        assert_eq!(session.select(&prompt), vec![2, 3]);
    }

    #[test]
    fn gdsf_prefers_large_cold_victims_over_small_hot_ones() {
        let mut session = CachePolicy::Gdsf.session();
        // A big entry and a small entry, same frequency: the big one has the
        // lower H and goes first even though it was accessed more recently.
        let big = meta(1, 100_000, 50);
        let small = meta(2, 100, 10);
        session.on_insert(&big);
        session.on_insert(&small);
        let candidates = vec![big, small];
        let prompt = EvictionPrompt {
            candidates: &candidates,
            deficit_bytes: 1,
            bytes_capacity: 1_000_000,
        };
        assert_eq!(session.select(&prompt), vec![1]);
    }

    #[test]
    fn s3fifo_ghost_promotes_returning_keys_to_main() {
        let mut session = CachePolicy::S3Fifo.session();
        let first = meta(1, 100, 1);
        session.on_insert(&first);
        let candidates = vec![first];
        let prompt = EvictionPrompt {
            candidates: &candidates,
            deficit_bytes: 50,
            bytes_capacity: 1000,
        };
        assert_eq!(session.select(&prompt), vec![1]);
        // The same key returns (same fingerprint, new slot): it must go to
        // main and survive a scan of one-hit wonders through small.
        let back = EntryMeta { slot: 2, ..first };
        session.on_insert(&back);
        let scan = meta(3, 100, 3);
        session.on_insert(&scan);
        let candidates = vec![back, scan];
        let prompt = EvictionPrompt {
            candidates: &candidates,
            deficit_bytes: 50,
            bytes_capacity: 1000,
        };
        assert_eq!(session.select(&prompt), vec![3]);
    }

    #[test]
    fn s3fifo_queues_stay_bounded_when_nothing_is_ever_evicted() {
        // One hot key expiring and re-deposited 100 000 times into a cache
        // whose byte budget is never reached: each round removes the old
        // slot and inserts a fresh one, and `select`, the only other place
        // stale ids are dropped, never runs.
        let mut session = S3FifoSession::default();
        session.on_insert(&meta(0, 64, 0));
        for slot in 1..=100_000u64 {
            session.on_remove(slot - 1);
            session.on_insert(&EntryMeta {
                slot,
                ..meta(0, 64, slot)
            });
            assert!(session.small.len() + session.main.len() <= 2);
        }
        assert_eq!(session.entries.len(), 1);
        assert_eq!(session.small_bytes, 64);
        // The survivor is still evictable through the normal path.
        let candidates = vec![meta(100_000, 64, 100_000)];
        let prompt = EvictionPrompt {
            candidates: &candidates,
            deficit_bytes: 1,
            bytes_capacity: 1000,
        };
        assert_eq!(session.select(&prompt), vec![100_000]);
    }
}
