//! The eviction policies of the out-of-core simulator, as one closed set.
//!
//! The paper evaluates six greedy heuristics (Section V-B); this crate adds
//! three policies adapted from the cache-eviction literature (LRU ageing,
//! GreedyDual-Size-Frequency, S3-FIFO).  [`Policy`] names all nine and
//! [`Policy::ALL`] lists them; names exist only at the edges
//! (configurations, reports, sweeps) through [`FromStr`].
//!
//! * [`Policy`] — which rule picks the files to evict.
//! * [`Session`] — the per-run half of a policy, started by
//!   [`Policy::session`] for one simulated walk: it observes every executed
//!   step and, when the next node does not fit, selects which resident
//!   files to evict from an [`EvictionContext`].  Eight policies select from
//!   the context alone; S3-FIFO keeps its queues in the session.
//!
//! A selection never needs to cover the deficit exactly: the simulator
//! drops duplicate and out-of-range indices and completes any shortfall
//! with the latest-scheduled-node-first rule (see [`lsnf_fill`]).  The six
//! paper heuristics implement their historical fallbacks internally and
//! never rely on that completion, which keeps their I/O volumes
//! bit-identical to the original fixed dispatch (see the golden parity
//! test).

use std::collections::VecDeque;
use std::str::FromStr;

use treemem::registry::UnknownName;
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

/// An eviction policy: the rule a [`Session`] uses to pick the files to
/// write out when the next node does not fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Last scheduled node first: evict the files used latest in the
    /// traversal until the deficit is covered ([`lsnf_fill`]).  Optimal for
    /// the divisible relaxation of MinIO.
    Lsnf,
    /// Evict the first (latest-used) file at least as large as the deficit;
    /// fall back to LSNF when no single file is large enough.
    FirstFit,
    /// Repeatedly evict the file whose size is closest to the remaining
    /// deficit (in absolute value).
    BestFit,
    /// Repeatedly evict the first (latest-used) file strictly smaller than
    /// the remaining deficit; fall back to LSNF when no such file exists.
    FirstFill,
    /// Repeatedly evict the file closest to the remaining deficit among
    /// those strictly smaller than it; fall back to LSNF when no such file
    /// exists.
    BestFill,
    /// Consider the `k` latest-used candidates and evict the subset whose
    /// total size is closest to the deficit; repeat until the deficit is
    /// covered.  The paper uses `k = 5`, the value in [`Policy::ALL`] and
    /// the one its name parses to.
    BestKComb {
        /// Number of candidate files examined at each round (clamped to
        /// `1..=31`: subsets are enumerated as a `u32` bitmask).
        k: usize,
    },
    /// LRU by traversal distance: evict the files that have been resident
    /// longest (earliest `produced_at`), i.e. classical least-recently-used
    /// ageing, where a file's only "use" before consumption is its
    /// production.  On postorder-like traversals old files are exactly the
    /// ones needed furthest in the future, so this tracks LSNF; on
    /// interleaved traversals the two diverge.
    LruDist,
    /// GreedyDual-Size-Frequency adapted to file residency.  GDSF evicts
    /// the object with the lowest `frequency × cost / size`; here the cost
    /// of an eviction is the write+read volume (proportional to size) and
    /// the benefit of keeping a file decays with how far away its single use
    /// is, so the value density of candidate `i` is `1 / (size(i) ×
    /// distance(i))`.  Evicting the lowest-density files first removes the
    /// large, long-idle files a size-aware cache would drop.
    Gdsf,
    /// S3-FIFO (SOSP'23) adapted to file residency.  The cache version
    /// keeps a small probationary FIFO, a main FIFO and a ghost queue:
    /// one-hit wonders die young in the small queue, reaccessed objects are
    /// promoted to main, and main evicts with a second chance.  Files here
    /// have no reaccess, so *imminence of the scheduled use* plays the role
    /// of a second hit: freshly produced files enter the small queue; on
    /// memory pressure the small queue is drained FIFO-first, promoting
    /// files whose use is nearer than the median candidate to the main
    /// queue, and the main queue evicts FIFO with one second chance for
    /// near-use files.
    S3Fifo,
}

impl Policy {
    /// Every policy: the six paper heuristics in their Section V-B order,
    /// then the three cache-inspired ones.
    pub const ALL: [Policy; 9] = [
        Policy::Lsnf,
        Policy::FirstFit,
        Policy::BestFit,
        Policy::FirstFill,
        Policy::BestFill,
        Policy::BestKComb { k: 5 },
        Policy::LruDist,
        Policy::Gdsf,
        Policy::S3Fifo,
    ];

    /// Short stable identifier (configurations, reports and JSON output);
    /// every `k` of [`Policy::BestKComb`] shares one name.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Lsnf => "LSNF",
            Policy::FirstFit => "FirstFit",
            Policy::BestFit => "BestFit",
            Policy::FirstFill => "FirstFill",
            Policy::BestFill => "BestFill",
            Policy::BestKComb { .. } => "BestKComb",
            Policy::LruDist => "LruDist",
            Policy::Gdsf => "GDSF",
            Policy::S3Fifo => "S3FIFO",
        }
    }

    /// Start a session for one simulated run on `tree`.
    pub fn session(self, tree: &Tree) -> Session {
        match self {
            Policy::S3Fifo => Session::S3Fifo(s3fifo::Queues::new(tree)),
            policy => Session::Stateless(policy),
        }
    }
}

impl FromStr for Policy {
    type Err = UnknownName;

    fn from_str(name: &str) -> Result<Self, UnknownName> {
        Policy::ALL
            .into_iter()
            .find(|policy| policy.name() == name)
            .ok_or_else(|| UnknownName {
                kind: "policy",
                name: name.to_string(),
                known: Policy::ALL.map(|p| p.name().to_string()).to_vec(),
            })
    }
}

/// Name lookup kept for the `benchmark/` package, which resolves policies
/// through it; it goes once the benchmark parses names with
/// [`str::parse`] (ROADMAP item 5).
pub struct PolicyRegistry;

impl PolicyRegistry {
    /// The lookup over [`Policy::ALL`].
    pub fn with_builtin() -> Self {
        PolicyRegistry
    }

    /// `name.parse()`: the policy, or an [`UnknownName`] listing them all.
    pub fn get_or_err(&self, name: &str) -> Result<Policy, UnknownName> {
        name.parse()
    }
}

/// Per-run state of a policy: observes the execution and selects evictions.
#[derive(Debug, Clone)]
pub enum Session {
    /// A policy that selects from the [`EvictionContext`] alone.  Built for
    /// every policy but S3-FIFO, which selects nothing here (the
    /// simulator's LSNF completion then covers the deficit).
    Stateless(Policy),
    /// S3-FIFO's probationary and protected queues, started by
    /// [`Policy::session`] for one tree.
    S3Fifo(s3fifo::Queues),
}

impl Session {
    /// Select the candidates to evict (indices into `ctx.candidates`) so
    /// that at least `ctx.deficit` units are freed.  The simulator completes
    /// shortfalls with [`lsnf_fill`] and ignores duplicate or out-of-range
    /// indices.
    pub fn select(&mut self, ctx: &EvictionContext<'_>) -> Vec<usize> {
        match self {
            Session::Stateless(policy) => match *policy {
                Policy::Lsnf => lsnf_fill(ctx.candidates, ctx.deficit, &[]),
                Policy::FirstFit => first_fit(ctx),
                Policy::BestFit => best_fit(ctx),
                Policy::FirstFill => first_fill(ctx),
                Policy::BestFill => best_fill(ctx),
                Policy::BestKComb { k } => best_k_comb(ctx, k),
                Policy::LruDist => lru_dist(ctx),
                Policy::Gdsf => gdsf(ctx),
                Policy::S3Fifo => Vec::new(),
            },
            Session::S3Fifo(queues) => queues.select(ctx),
        }
    }

    /// Called after every node execution: the executed node's file is
    /// consumed and its children's files are produced.
    pub fn observe_execution(&mut self, node: NodeId, tree: &Tree) {
        if let Session::S3Fifo(queues) = self {
            queues.small.extend(tree.children(node));
        }
    }
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

fn first_fit(ctx: &EvictionContext<'_>) -> Vec<usize> {
    match ctx.candidates.iter().position(|c| c.size >= ctx.deficit) {
        Some(idx) => vec![idx],
        None => lsnf_fill(ctx.candidates, ctx.deficit, &[]),
    }
}

fn best_fit(ctx: &EvictionContext<'_>) -> Vec<usize> {
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
}

fn first_fill(ctx: &EvictionContext<'_>) -> Vec<usize> {
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
}

fn best_fill(ctx: &EvictionContext<'_>) -> Vec<usize> {
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
}

fn best_k_comb(ctx: &EvictionContext<'_>, k: usize) -> Vec<usize> {
    // The subset enumeration below uses a u32 bitmask, so the window must
    // stay below 32 candidates (2^31 subsets is far past any practical
    // budget anyway).
    let k = k.clamp(1, 31);
    let candidates = ctx.candidates;
    let mut selected: Vec<usize> = Vec::new();
    let mut remaining = ctx.deficit;
    while remaining > 0 {
        // The first k not-yet-selected candidates (latest use first).
        let window: Vec<usize> = (0..candidates.len())
            .filter(|idx| !selected.contains(idx))
            .take(k)
            .collect();
        if window.is_empty() {
            break;
        }
        // Enumerate all non-empty subsets of the window and keep the one
        // whose total size is closest (in absolute distance) to the
        // remaining deficit; ties prefer the larger total, so covering
        // subsets win over equally-distant under-covering ones.
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
}

fn lru_dist(ctx: &EvictionContext<'_>) -> Vec<usize> {
    let mut order: Vec<usize> = (0..ctx.candidates.len()).collect();
    // Oldest resident file first; ties broken latest use first (the
    // candidate order) for determinism.
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
}

fn gdsf(ctx: &EvictionContext<'_>) -> Vec<usize> {
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
}

/// S3-FIFO's per-run state, private so that its vectors keep the length
/// of the tree they were built for.
mod s3fifo {
    use super::*;

    #[derive(Debug, Clone)]
    pub struct Queues {
        /// Probationary queue (front = oldest), freshly produced files.
        pub(super) small: VecDeque<NodeId>,
        /// Protected queue (front = oldest), files promoted from `small`.
        main: VecDeque<NodeId>,
        /// Second-chance bit for entries of `main`.
        second_chance: Vec<bool>,
        /// Candidate index of each node during one `select`, `usize::MAX`
        /// outside it; kept across calls so a deficit costs
        /// O(candidates), not O(p).
        index_of: Vec<usize>,
    }

    impl Queues {
        pub(super) fn new(tree: &Tree) -> Self {
            let mut small = VecDeque::new();
            // The root input file is resident from the start.
            small.push_back(tree.root());
            Queues {
                small,
                main: VecDeque::new(),
                second_chance: vec![false; tree.len()],
                index_of: vec![usize::MAX; tree.len()],
            }
        }

        pub(super) fn select(&mut self, ctx: &EvictionContext<'_>) -> Vec<usize> {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::schedule_io_with;
    use crate::schedule::check_out_of_core;
    use treemem::gadgets::harpoon;
    use treemem::postorder::best_postorder;

    #[test]
    fn names_round_trip_and_unknown_names_list_every_policy() {
        let names = [
            "LSNF",
            "FirstFit",
            "BestFit",
            "FirstFill",
            "BestFill",
            "BestKComb",
            "LruDist",
            "GDSF",
            "S3FIFO",
        ];
        assert_eq!(Policy::ALL.map(Policy::name), names);
        for policy in Policy::ALL {
            assert_eq!(policy.name().parse(), Ok(policy));
            assert_eq!(
                PolicyRegistry::with_builtin().get_or_err(policy.name()),
                Ok(policy)
            );
        }
        assert_eq!("BestKComb".parse(), Ok(Policy::BestKComb { k: 5 }));
        assert_eq!(Policy::BestKComb { k: 3 }.name(), "BestKComb");
        let err = "ARC".parse::<Policy>().unwrap_err();
        assert_eq!(
            err,
            UnknownName {
                kind: "policy",
                name: "ARC".to_string(),
                known: names.map(String::from).to_vec(),
            }
        );
        assert!(err
            .to_string()
            .starts_with("unknown policy 'ARC' (registered: LSNF, "));
    }

    #[test]
    fn every_builtin_policy_produces_valid_schedules() {
        let tree = harpoon(4, 400, 1);
        let po = best_postorder(&tree);
        let memory = tree.max_mem_req();
        for policy in Policy::ALL {
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
}
