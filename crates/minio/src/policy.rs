//! Pluggable eviction policies for the out-of-core simulator.
//!
//! The paper evaluates six fixed greedy heuristics; the cache-eviction
//! literature (LRU and its descendants, GreedyDual-Size-Frequency, S3-FIFO)
//! shows that eviction policy choice is workload-dependent and best explored
//! through a common interface plus systematic sweeps.  This module provides
//! that interface:
//!
//! * [`Policy`] — a named, registrable eviction policy.  A policy is a
//!   stateless factory; each simulated run asks it for an
//!   [`EvictionSession`], which may carry per-run state (queues, clocks,
//!   frequency counters).
//! * [`EvictionSession`] — the per-run half of a policy: it observes every
//!   executed step and, when the next node does not fit, selects which
//!   resident files to evict from an [`EvictionContext`].
//! * [`PolicyRegistry`] — a name-indexed catalogue.  The six paper
//!   heuristics live in [`paper`], three cache-inspired policies in
//!   [`cache`]; [`PolicyRegistry::with_builtin`] registers all nine.
//!
//! A selection never needs to cover the deficit exactly: the simulator
//! completes any shortfall with the latest-scheduled-node-first rule (see
//! [`lsnf_fill`]), so custom policies are always safe to run.  The six paper
//! heuristics implement their historical fallbacks internally and never rely
//! on the engine-side completion, which keeps their I/O volumes bit-identical
//! to the original fixed dispatch (see the golden parity test).

use treemem::traversal::Traversal;
use treemem::tree::{NodeId, Size, Tree};

/// One resident, already-produced file that may be evicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The node whose input file this is.
    pub node: NodeId,
    /// Size of the file (`f(node)`).
    pub size: Size,
    /// Step at which the file appeared in memory (0 for the root input file,
    /// `σ(parent) + 1` otherwise).  This is the file's last "use" until its
    /// owner executes, so it is what an LRU-style policy ages by.
    pub produced_at: usize,
}

/// Everything a policy may inspect when an eviction decision is needed.
#[derive(Debug)]
pub struct EvictionContext<'a> {
    /// The tree being traversed.
    pub tree: &'a Tree,
    /// Position of every node in the traversal (`positions[i] = σ(i) − 1`).
    pub positions: &'a [usize],
    /// The step about to execute (0-based index into the traversal).
    pub step: usize,
    /// The node about to execute.
    pub node: NodeId,
    /// Memory that must be freed before `node` can execute.
    pub deficit: Size,
    /// The evictable files, ordered **latest use first**: the candidate whose
    /// owner is scheduled last in the traversal comes first.
    pub candidates: &'a [Candidate],
}

impl EvictionContext<'_> {
    /// Steps until candidate `idx`'s file is consumed by its owner.
    pub fn distance_to_use(&self, idx: usize) -> usize {
        self.positions[self.candidates[idx].node] - self.step
    }
}

/// Per-run state of a policy: observes the execution and selects evictions.
pub trait EvictionSession {
    /// Select the candidates to evict (indices into `ctx.candidates`) so that
    /// at least `ctx.deficit` units are freed.  Shortfalls are completed by
    /// the engine with [`lsnf_fill`]; duplicate or out-of-range indices are
    /// ignored.
    fn select(&mut self, ctx: &EvictionContext<'_>) -> Vec<usize>;

    /// Called after every node execution (stateful policies track residency
    /// changes here; the executed node's file is consumed, its children's
    /// files are produced).
    fn observe_execution(&mut self, _step: usize, _node: NodeId, _tree: &Tree) {}
}

/// An eviction policy: a named factory of per-run [`EvictionSession`]s.
pub trait Policy: Send + Sync {
    /// Short stable identifier (used in registries, reports and JSON output).
    ///
    /// Returns an owned `String` — unlike `MinMemSolver::name` — because a
    /// policy may be parameterised (a custom `BestKCombination { k }` wrapper
    /// can legitimately call itself `"BestKComb(7)"`); resolve names once
    /// outside hot loops rather than calling this per decision.
    fn name(&self) -> String;

    /// One-line human description for reports.
    fn description(&self) -> &'static str;

    /// Start a session for one simulated run of `traversal` on `tree`.
    fn session(&self, tree: &Tree, traversal: &Traversal) -> Box<dyn EvictionSession>;
}

/// Latest-scheduled-node-first selection over the candidates not already in
/// `skip`, freeing at least `deficit`.  This is both the paper's LSNF
/// heuristic and the universal fallback: candidates are ordered latest use
/// first, so walking them in order evicts the files needed furthest in the
/// future (optimal for the divisible relaxation by an exchange argument).
pub fn lsnf_fill(candidates: &[Candidate], deficit: Size, skip: &[usize]) -> Vec<usize> {
    // Mark the skipped indices once instead of a linear `skip.contains` scan
    // per candidate, which made a fill over k candidates O(k²).
    let mut skipped = vec![false; candidates.len()];
    for &idx in skip {
        if idx < candidates.len() {
            skipped[idx] = true;
        }
    }
    let mut selected = Vec::new();
    let mut remaining = deficit;
    for (idx, candidate) in candidates.iter().enumerate() {
        if remaining <= 0 {
            break;
        }
        if skipped[idx] {
            continue;
        }
        selected.push(idx);
        remaining -= candidate.size;
    }
    selected
}

/// A session with no per-run state, driven by a plain selection function.
struct StatelessSession<F: FnMut(&EvictionContext<'_>) -> Vec<usize>> {
    select: F,
}

impl<F: FnMut(&EvictionContext<'_>) -> Vec<usize>> EvictionSession for StatelessSession<F> {
    fn select(&mut self, ctx: &EvictionContext<'_>) -> Vec<usize> {
        (self.select)(ctx)
    }
}

/// The six greedy heuristics of the paper (Section V-B), ported onto the
/// [`Policy`] trait.  Their selection logic is byte-for-byte the historical
/// one, so the I/O volumes they produce are identical to the original
/// fixed enum dispatch (frozen in the golden parity test).
pub mod paper {
    use super::*;

    /// Evict the files used latest in the traversal until the deficit is
    /// covered.  Optimal for the divisible relaxation of MinIO.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Lsnf;

    impl Policy for Lsnf {
        fn name(&self) -> String {
            "LSNF".to_string()
        }
        fn description(&self) -> &'static str {
            "last scheduled node first (divisible-optimal)"
        }
        fn session(&self, _tree: &Tree, _traversal: &Traversal) -> Box<dyn EvictionSession> {
            Box::new(StatelessSession {
                select: |ctx: &EvictionContext<'_>| lsnf_fill(ctx.candidates, ctx.deficit, &[]),
            })
        }
    }

    /// Evict the first (latest-used) file at least as large as the deficit;
    /// fall back to LSNF when no single file is large enough.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct FirstFit;

    impl Policy for FirstFit {
        fn name(&self) -> String {
            "FirstFit".to_string()
        }
        fn description(&self) -> &'static str {
            "first latest-used file covering the whole deficit"
        }
        fn session(&self, _tree: &Tree, _traversal: &Traversal) -> Box<dyn EvictionSession> {
            Box::new(StatelessSession {
                select: |ctx: &EvictionContext<'_>| match ctx
                    .candidates
                    .iter()
                    .position(|c| c.size >= ctx.deficit)
                {
                    Some(idx) => vec![idx],
                    None => lsnf_fill(ctx.candidates, ctx.deficit, &[]),
                },
            })
        }
    }

    /// Repeatedly evict the file whose size is closest to the remaining
    /// deficit (in absolute value).
    #[derive(Debug, Clone, Copy, Default)]
    pub struct BestFit;

    impl Policy for BestFit {
        fn name(&self) -> String {
            "BestFit".to_string()
        }
        fn description(&self) -> &'static str {
            "file size closest to the remaining deficit, repeatedly"
        }
        fn session(&self, _tree: &Tree, _traversal: &Traversal) -> Box<dyn EvictionSession> {
            Box::new(StatelessSession {
                select: |ctx: &EvictionContext<'_>| {
                    let mut selected = Vec::new();
                    let mut remaining = ctx.deficit;
                    while remaining > 0 {
                        let next = ctx
                            .candidates
                            .iter()
                            .enumerate()
                            .filter(|(idx, _)| !selected.contains(idx))
                            .min_by_key(|(idx, c)| ((c.size - remaining).abs(), *idx));
                        match next {
                            Some((idx, c)) => {
                                selected.push(idx);
                                remaining -= c.size;
                            }
                            None => break,
                        }
                    }
                    selected
                },
            })
        }
    }

    /// Repeatedly evict the first (latest-used) file strictly smaller than
    /// the remaining deficit; fall back to LSNF when no such file exists.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct FirstFill;

    impl Policy for FirstFill {
        fn name(&self) -> String {
            "FirstFill".to_string()
        }
        fn description(&self) -> &'static str {
            "first file strictly below the remaining deficit, repeatedly"
        }
        fn session(&self, _tree: &Tree, _traversal: &Traversal) -> Box<dyn EvictionSession> {
            Box::new(StatelessSession {
                select: |ctx: &EvictionContext<'_>| {
                    let mut selected = Vec::new();
                    let mut remaining = ctx.deficit;
                    loop {
                        let next = ctx
                            .candidates
                            .iter()
                            .enumerate()
                            .find(|(idx, c)| !selected.contains(idx) && c.size < remaining);
                        match next {
                            Some((idx, c)) => {
                                selected.push(idx);
                                remaining -= c.size;
                                if remaining <= 0 {
                                    break;
                                }
                            }
                            None => {
                                if remaining > 0 {
                                    let rest = lsnf_fill(ctx.candidates, remaining, &selected);
                                    selected.extend(rest);
                                }
                                break;
                            }
                        }
                    }
                    selected
                },
            })
        }
    }

    /// Repeatedly evict the file closest to the remaining deficit among those
    /// strictly smaller than it; fall back to LSNF when no such file exists.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct BestFill;

    impl Policy for BestFill {
        fn name(&self) -> String {
            "BestFill".to_string()
        }
        fn description(&self) -> &'static str {
            "closest file strictly below the remaining deficit, repeatedly"
        }
        fn session(&self, _tree: &Tree, _traversal: &Traversal) -> Box<dyn EvictionSession> {
            Box::new(StatelessSession {
                select: |ctx: &EvictionContext<'_>| {
                    let mut selected = Vec::new();
                    let mut remaining = ctx.deficit;
                    loop {
                        let next = ctx
                            .candidates
                            .iter()
                            .enumerate()
                            .filter(|(idx, c)| !selected.contains(idx) && c.size < remaining)
                            .min_by_key(|(idx, c)| (remaining - c.size, *idx));
                        match next {
                            Some((idx, c)) => {
                                selected.push(idx);
                                remaining -= c.size;
                                if remaining <= 0 {
                                    break;
                                }
                            }
                            None => {
                                if remaining > 0 {
                                    let rest = lsnf_fill(ctx.candidates, remaining, &selected);
                                    selected.extend(rest);
                                }
                                break;
                            }
                        }
                    }
                    selected
                },
            })
        }
    }

    /// Consider the `k` latest-used candidates and evict the subset whose
    /// total size is closest to the deficit; repeat until the deficit is
    /// covered.  The paper uses `k = 5`.
    #[derive(Debug, Clone, Copy)]
    pub struct BestKCombination {
        /// Number of candidate files examined at each round.
        pub k: usize,
    }

    impl Default for BestKCombination {
        fn default() -> Self {
            BestKCombination { k: 5 }
        }
    }

    impl Policy for BestKCombination {
        fn name(&self) -> String {
            "BestKComb".to_string()
        }
        fn description(&self) -> &'static str {
            "best subset of the first K latest-used files"
        }
        fn session(&self, _tree: &Tree, _traversal: &Traversal) -> Box<dyn EvictionSession> {
            // The subset enumeration below uses a u32 bitmask, so the window
            // must stay below 32 candidates (2^31 subsets is far past any
            // practical budget anyway).
            let k = self.k.clamp(1, 31);
            Box::new(StatelessSession {
                select: move |ctx: &EvictionContext<'_>| {
                    let candidates = ctx.candidates;
                    let mut selected: Vec<usize> = Vec::new();
                    let mut remaining = ctx.deficit;
                    while remaining > 0 {
                        // The first k not-yet-selected candidates (latest use
                        // first).
                        let window: Vec<usize> = (0..candidates.len())
                            .filter(|idx| !selected.contains(idx))
                            .take(k)
                            .collect();
                        if window.is_empty() {
                            break;
                        }
                        // Enumerate all non-empty subsets of the window and
                        // keep the one whose total size is closest (in
                        // absolute distance) to the remaining deficit; ties
                        // prefer the larger total, so covering subsets win
                        // over equally-distant under-covering ones.
                        let mut best: Option<(Size, Vec<usize>)> = None;
                        for mask in 1u32..(1u32 << window.len()) {
                            let subset: Vec<usize> = window
                                .iter()
                                .enumerate()
                                .filter(|(bit, _)| mask & (1 << bit) != 0)
                                .map(|(_, &idx)| idx)
                                .collect();
                            let total: Size = subset.iter().map(|&idx| candidates[idx].size).sum();
                            let better = match &best {
                                None => true,
                                Some((best_total, _)) => {
                                    let dist = (total - remaining).abs();
                                    let best_dist = (*best_total - remaining).abs();
                                    dist < best_dist || (dist == best_dist && total > *best_total)
                                }
                            };
                            if better {
                                best = Some((total, subset));
                            }
                        }
                        let (total, subset) = best.expect("window is non-empty");
                        selected.extend(subset);
                        remaining -= total;
                    }
                    selected
                },
            })
        }
    }
}

/// Cache-inspired eviction policies, adapted from the web- and block-cache
/// literature to the file-residency workload of the out-of-core simulator.
/// Unlike a cache, every file here is reused exactly once (when its owner
/// executes) and that instant is known in advance, so "recency of access"
/// becomes *production time* and "frequency" becomes *proximity of the
/// scheduled use*.
pub mod cache {
    use super::*;
    use std::collections::VecDeque;

    /// LRU by traversal distance: evict the files that have been resident
    /// longest (earliest `produced_at`), i.e. classical least-recently-used
    /// ageing, where a file's only "use" before consumption is its
    /// production.  On postorder-like traversals old files are exactly the
    /// ones needed furthest in the future, so this tracks LSNF; on
    /// interleaved traversals the two diverge.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct LruDistance;

    impl Policy for LruDistance {
        fn name(&self) -> String {
            "LruDist".to_string()
        }
        fn description(&self) -> &'static str {
            "least recently produced file first (LRU ageing)"
        }
        fn session(&self, _tree: &Tree, _traversal: &Traversal) -> Box<dyn EvictionSession> {
            Box::new(StatelessSession {
                select: |ctx: &EvictionContext<'_>| {
                    let mut order: Vec<usize> = (0..ctx.candidates.len()).collect();
                    // Oldest resident file first; ties broken latest use
                    // first (the candidate order) for determinism.
                    order.sort_by_key(|&idx| (ctx.candidates[idx].produced_at, idx));
                    let mut selected = Vec::new();
                    let mut remaining = ctx.deficit;
                    for idx in order {
                        if remaining <= 0 {
                            break;
                        }
                        selected.push(idx);
                        remaining -= ctx.candidates[idx].size;
                    }
                    selected
                },
            })
        }
    }

    /// GreedyDual-Size-Frequency adapted to file residency.  GDSF evicts the
    /// object with the lowest `frequency × cost / size`; here the cost of an
    /// eviction is the write+read volume (proportional to size) and the
    /// benefit of keeping a file decays with how far away its single use is,
    /// so the value density of candidate `i` is `1 / (size(i) ×
    /// distance(i))`.  Evicting the lowest-density files first removes the
    /// large, long-idle files a size-aware cache would drop.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct SizeAwareGdsf;

    impl Policy for SizeAwareGdsf {
        fn name(&self) -> String {
            "GDSF".to_string()
        }
        fn description(&self) -> &'static str {
            "size-aware greedy-dual: evict max size x distance-to-use first"
        }
        fn session(&self, _tree: &Tree, _traversal: &Traversal) -> Box<dyn EvictionSession> {
            Box::new(StatelessSession {
                select: |ctx: &EvictionContext<'_>| {
                    let mut order: Vec<usize> = (0..ctx.candidates.len()).collect();
                    // Highest size × distance first; ties latest use first.
                    order.sort_by_key(|&idx| {
                        let distance = ctx.distance_to_use(idx) as Size;
                        (
                            -(ctx.candidates[idx].size.saturating_mul(distance.max(1))),
                            idx,
                        )
                    });
                    let mut selected = Vec::new();
                    let mut remaining = ctx.deficit;
                    for idx in order {
                        if remaining <= 0 {
                            break;
                        }
                        selected.push(idx);
                        remaining -= ctx.candidates[idx].size;
                    }
                    selected
                },
            })
        }
    }

    /// S3-FIFO (SOSP'23) adapted to file residency.  The cache version keeps
    /// a small probationary FIFO, a main FIFO and a ghost queue: one-hit
    /// wonders die young in the small queue, reaccessed objects are promoted
    /// to main, and main evicts with a second chance.  Files here have no
    /// reaccess, so *imminence of the scheduled use* plays the role of a
    /// second hit: freshly produced files enter the small queue; on memory
    /// pressure the small queue is drained FIFO-first, promoting files whose
    /// use is nearer than the median candidate to the main queue, and the
    /// main queue evicts FIFO with one second chance for near-use files.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct S3FifoResidency;

    struct S3FifoSession {
        /// Probationary queue (front = oldest), freshly produced files.
        small: VecDeque<NodeId>,
        /// Protected queue (front = oldest), files promoted from `small`.
        main: VecDeque<NodeId>,
        /// Second-chance bit for entries of `main`.
        second_chance: Vec<bool>,
        /// Candidate index of each node during one `select`, `usize::MAX`
        /// outside it; kept across calls so a deficit costs O(candidates),
        /// not O(p).
        index_of: Vec<usize>,
    }

    impl S3FifoSession {
        fn new(tree: &Tree) -> Self {
            let mut small = VecDeque::new();
            // The root input file is resident from the start.
            small.push_back(tree.root());
            S3FifoSession {
                small,
                main: VecDeque::new(),
                second_chance: vec![false; tree.len()],
                index_of: vec![usize::MAX; tree.len()],
            }
        }
    }

    impl EvictionSession for S3FifoSession {
        fn observe_execution(&mut self, _step: usize, node: NodeId, tree: &Tree) {
            for &child in tree.children(node) {
                self.small.push_back(child);
            }
        }

        fn select(&mut self, ctx: &EvictionContext<'_>) -> Vec<usize> {
            // Index of each candidate node; queue entries not present here
            // are stale (consumed or already evicted) and get dropped.
            for (idx, candidate) in ctx.candidates.iter().enumerate() {
                self.index_of[candidate.node] = idx;
            }
            // "Near" = use-distance strictly below the median candidate's;
            // this stands in for the second access that promotes an object
            // in the cache setting.
            let mut distances: Vec<usize> = (0..ctx.candidates.len())
                .map(|idx| ctx.distance_to_use(idx))
                .collect();
            distances.sort_unstable();
            let near = distances[distances.len() / 2];

            let mut selected = Vec::new();
            let mut remaining = ctx.deficit;
            // Drain the probationary queue first.
            while remaining > 0 {
                let Some(node) = self.small.pop_front() else {
                    break;
                };
                let idx = self.index_of[node];
                if idx == usize::MAX {
                    continue; // stale entry
                }
                if ctx.distance_to_use(idx) < near {
                    self.main.push_back(node); // promote: needed soon
                } else {
                    selected.push(idx);
                    remaining -= ctx.candidates[idx].size;
                }
            }
            // Then the main queue, FIFO with one second chance.
            let mut rotations = self.main.len();
            while remaining > 0 {
                let Some(node) = self.main.pop_front() else {
                    break;
                };
                let idx = self.index_of[node];
                if idx == usize::MAX {
                    continue; // stale entry
                }
                if rotations > 0 && ctx.distance_to_use(idx) < near && !self.second_chance[node] {
                    self.second_chance[node] = true;
                    self.main.push_back(node);
                    rotations -= 1;
                    continue;
                }
                selected.push(idx);
                remaining -= ctx.candidates[idx].size;
            }
            for candidate in ctx.candidates {
                self.index_of[candidate.node] = usize::MAX;
            }
            // Anything still missing (both queues dry) is completed by the
            // engine's LSNF fallback.
            selected
        }
    }

    impl Policy for S3FifoResidency {
        fn name(&self) -> String {
            "S3FIFO".to_string()
        }
        fn description(&self) -> &'static str {
            "segmented probationary/protected FIFO with second chance"
        }
        fn session(&self, tree: &Tree, _traversal: &Traversal) -> Box<dyn EvictionSession> {
            Box::new(S3FifoSession::new(tree))
        }
    }
}

/// Name-indexed catalogue of eviction policies.
pub struct PolicyRegistry {
    policies: Vec<Box<dyn Policy>>,
}

impl PolicyRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        PolicyRegistry {
            policies: Vec::new(),
        }
    }

    /// The registry of all built-in policies: the six paper heuristics in
    /// their Section V-B order, then the three cache-inspired policies.
    pub fn with_builtin() -> Self {
        let mut registry = PolicyRegistry::empty();
        registry.register(Box::new(paper::Lsnf));
        registry.register(Box::new(paper::FirstFit));
        registry.register(Box::new(paper::BestFit));
        registry.register(Box::new(paper::FirstFill));
        registry.register(Box::new(paper::BestFill));
        registry.register(Box::new(paper::BestKCombination::default()));
        registry.register(Box::new(cache::LruDistance));
        registry.register(Box::new(cache::SizeAwareGdsf));
        registry.register(Box::new(cache::S3FifoResidency));
        registry
    }

    /// Add a policy.  A policy with the same name replaces the old entry, so
    /// downstream crates can override built-ins.
    pub fn register(&mut self, policy: Box<dyn Policy>) {
        let name = policy.name();
        if let Some(existing) = self.policies.iter_mut().find(|p| p.name() == name) {
            *existing = policy;
        } else {
            self.policies.push(policy);
        }
    }

    /// Look a policy up by name.
    pub fn get(&self, name: &str) -> Option<&dyn Policy> {
        self.policies
            .iter()
            .find(|p| p.name() == name)
            .map(|p| p.as_ref())
    }

    /// Look a policy up by name, with a typed
    /// [`UnknownName`](treemem::registry::UnknownName) error listing the
    /// registered names on a miss — the same shape as
    /// `treemem::SolverRegistry::get_or_err`.
    pub fn get_or_err(&self, name: &str) -> Result<&dyn Policy, treemem::registry::UnknownName> {
        treemem::registry::get_or_unknown("policy", name, self.get(name), || self.names())
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<String> {
        self.policies.iter().map(|p| p.name()).collect()
    }

    /// Iterate over the policies in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Policy> {
        self.policies.iter().map(|p| p.as_ref())
    }

    /// Number of registered policies.
    pub fn len(&self) -> usize {
        self.policies.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.policies.is_empty()
    }
}

impl Default for PolicyRegistry {
    fn default() -> Self {
        PolicyRegistry::with_builtin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::schedule_io_with;
    use crate::schedule::check_out_of_core;
    use treemem::gadgets::harpoon;
    use treemem::postorder::best_postorder;

    #[test]
    fn builtin_registry_has_nine_policies() {
        let registry = PolicyRegistry::with_builtin();
        assert_eq!(
            registry.names(),
            vec![
                "LSNF",
                "FirstFit",
                "BestFit",
                "FirstFill",
                "BestFill",
                "BestKComb",
                "LruDist",
                "GDSF",
                "S3FIFO"
            ]
        );
        assert_eq!(registry.len(), 9);
        assert!(registry.get("GDSF").is_some());
        assert!(registry.get("ARC").is_none());
        assert!(registry.get_or_err("GDSF").is_ok());
        let err = registry.get_or_err("ARC").map(|_| ()).unwrap_err();
        assert_eq!(err.kind, "policy");
        assert_eq!(err.known, registry.names());
    }

    #[test]
    fn registration_replaces_by_name() {
        let mut registry = PolicyRegistry::empty();
        registry.register(Box::new(paper::Lsnf));
        registry.register(Box::new(paper::Lsnf));
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn every_builtin_policy_produces_valid_schedules() {
        let tree = harpoon(4, 400, 1);
        let po = best_postorder(&tree);
        let memory = tree.max_mem_req();
        for policy in PolicyRegistry::with_builtin().iter() {
            let run = schedule_io_with(&tree, &po.traversal, memory, policy).unwrap();
            let check = check_out_of_core(&tree, &po.traversal, &run.schedule, memory).unwrap();
            assert_eq!(check.io_volume, run.io_volume, "{}", policy.name());
            assert!(run.peak_memory <= memory, "{}", policy.name());
        }
    }

    #[test]
    fn lsnf_fill_respects_skips() {
        let candidates = vec![
            Candidate {
                node: 0,
                size: 5,
                produced_at: 0,
            },
            Candidate {
                node: 1,
                size: 5,
                produced_at: 1,
            },
            Candidate {
                node: 2,
                size: 5,
                produced_at: 2,
            },
        ];
        assert_eq!(lsnf_fill(&candidates, 8, &[]), vec![0, 1]);
        assert_eq!(lsnf_fill(&candidates, 8, &[0]), vec![1, 2]);
    }

    #[test]
    fn engine_fallback_completes_short_selections() {
        /// A deliberately broken policy that never selects anything.
        struct Lazy;
        impl Policy for Lazy {
            fn name(&self) -> String {
                "Lazy".to_string()
            }
            fn description(&self) -> &'static str {
                "never evicts on its own"
            }
            fn session(&self, _: &Tree, _: &Traversal) -> Box<dyn EvictionSession> {
                struct Session;
                impl EvictionSession for Session {
                    fn select(&mut self, _: &EvictionContext<'_>) -> Vec<usize> {
                        Vec::new()
                    }
                }
                Box::new(Session)
            }
        }
        let tree = harpoon(4, 400, 1);
        let po = best_postorder(&tree);
        let memory = tree.max_mem_req();
        let run = schedule_io_with(&tree, &po.traversal, memory, &Lazy).unwrap();
        // The fallback is LSNF, so the lazy policy degenerates to it.
        let lsnf = schedule_io_with(&tree, &po.traversal, memory, &paper::Lsnf).unwrap();
        assert_eq!(run.io_volume, lsnf.io_volume);
    }
}
