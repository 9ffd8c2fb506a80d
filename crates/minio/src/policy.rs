//! The eviction policies of the out-of-core simulator: the paper's six
//! greedy heuristics (Section V-B), as one closed set.
//!
//! [`Policy`] names them and [`Policy::ALL`] lists them in the paper's
//! order; names exist only at the edges (configurations, reports, sweeps)
//! through [`FromStr`].
//!
//! A policy is a pure function of the eviction candidates — the resident,
//! already-produced files, ordered latest use first — and the deficit:
//! [`Policy::select`] returns distinct candidate indices whose sizes cover
//! the deficit whenever the candidates together can.  Each heuristic runs
//! its historical fallback to the latest-scheduled-node-first rule
//! ([`lsnf_fill`]) itself, which keeps its I/O volumes bit-identical to the
//! original fixed dispatch (see the golden parity test).

use std::str::FromStr;

use treemem::registry::UnknownName;
use treemem::tree::{NodeId, Size};

/// One resident, already-produced file that may be evicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The node whose input file this is.
    pub node: NodeId,
    /// Size of the file (`f(node)`).
    pub size: Size,
}

/// An eviction policy: the rule that picks the files to write out when the
/// next node does not fit.
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
}

impl Policy {
    /// The six paper heuristics, in their Section V-B order.
    pub const ALL: [Policy; 6] = [
        Policy::Lsnf,
        Policy::FirstFit,
        Policy::BestFit,
        Policy::FirstFill,
        Policy::BestFill,
        Policy::BestKComb { k: 5 },
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
        }
    }

    /// The candidates to evict (distinct indices into `candidates`, which
    /// are ordered latest use first) so that at least `deficit` units are
    /// freed; every candidate when even all of them fall short.
    pub fn select(self, candidates: &[Candidate], deficit: Size) -> Vec<usize> {
        match self {
            Policy::Lsnf => lsnf_fill(candidates, deficit, &[]),
            Policy::FirstFit => first_fit(candidates, deficit),
            Policy::BestFit => best_fit(candidates, deficit),
            Policy::FirstFill => first_fill(candidates, deficit),
            Policy::BestFill => best_fill(candidates, deficit),
            Policy::BestKComb { k } => best_k_comb(candidates, deficit, k),
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

/// Latest-scheduled-node-first selection over the candidates not already in
/// `skip`, freeing at least `deficit`.  This is both the paper's LSNF
/// heuristic and the fallback of First Fit, First Fill and Best Fill:
/// candidates are ordered latest use first, so walking them in order evicts
/// the files needed furthest in the future (optimal for the divisible
/// relaxation by an exchange argument).
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

fn first_fit(candidates: &[Candidate], deficit: Size) -> Vec<usize> {
    match candidates.iter().position(|c| c.size >= deficit) {
        Some(idx) => vec![idx],
        None => lsnf_fill(candidates, deficit, &[]),
    }
}

fn best_fit(candidates: &[Candidate], deficit: Size) -> Vec<usize> {
    let mut selected = Vec::new();
    let mut taken = vec![false; candidates.len()];
    let mut remaining = deficit;
    while remaining > 0 {
        let next = candidates
            .iter()
            .enumerate()
            .filter(|(idx, _)| !taken[*idx])
            .min_by_key(|(idx, c)| ((c.size - remaining).abs(), *idx));
        match next {
            Some((idx, c)) => {
                taken[idx] = true;
                selected.push(idx);
                remaining -= c.size;
            }
            None => break,
        }
    }
    selected
}

fn first_fill(candidates: &[Candidate], deficit: Size) -> Vec<usize> {
    let mut selected = Vec::new();
    let mut taken = vec![false; candidates.len()];
    let mut remaining = deficit;
    loop {
        let next = candidates
            .iter()
            .enumerate()
            .find(|(idx, c)| !taken[*idx] && c.size < remaining);
        match next {
            Some((idx, c)) => {
                taken[idx] = true;
                selected.push(idx);
                remaining -= c.size;
                if remaining <= 0 {
                    break;
                }
            }
            None => {
                if remaining > 0 {
                    let rest = lsnf_fill(candidates, remaining, &selected);
                    selected.extend(rest);
                }
                break;
            }
        }
    }
    selected
}

fn best_fill(candidates: &[Candidate], deficit: Size) -> Vec<usize> {
    let mut selected = Vec::new();
    let mut taken = vec![false; candidates.len()];
    let mut remaining = deficit;
    loop {
        let next = candidates
            .iter()
            .enumerate()
            .filter(|(idx, c)| !taken[*idx] && c.size < remaining)
            .min_by_key(|(idx, c)| (remaining - c.size, *idx));
        match next {
            Some((idx, c)) => {
                taken[idx] = true;
                selected.push(idx);
                remaining -= c.size;
                if remaining <= 0 {
                    break;
                }
            }
            None => {
                if remaining > 0 {
                    let rest = lsnf_fill(candidates, remaining, &selected);
                    selected.extend(rest);
                }
                break;
            }
        }
    }
    selected
}

fn best_k_comb(candidates: &[Candidate], deficit: Size, k: usize) -> Vec<usize> {
    // The subset enumeration below uses a u32 bitmask, so the window must
    // stay below 32 candidates (2^31 subsets is far past any practical
    // budget anyway).
    let k = k.clamp(1, 31);
    let mut selected: Vec<usize> = Vec::new();
    let mut taken = vec![false; candidates.len()];
    let mut remaining = deficit;
    while remaining > 0 {
        // The first k not-yet-selected candidates (latest use first).
        let window: Vec<usize> = (0..candidates.len())
            .filter(|&idx| !taken[idx])
            .take(k)
            .collect();
        if window.is_empty() {
            break;
        }
        // Enumerate all non-empty subsets of the window and keep the one
        // whose total size is closest (in absolute distance) to the
        // remaining deficit; ties prefer the larger total, so covering
        // subsets win over equally-distant under-covering ones.
        let subset = |mask: u32| {
            let bits = window.iter().enumerate();
            bits.filter(move |(bit, _)| mask & (1 << bit) != 0)
                .map(|(_, &idx)| idx)
        };
        let mut best: Option<(Size, u32)> = None;
        for mask in 1u32..(1u32 << window.len()) {
            let total: Size = subset(mask).map(|idx| candidates[idx].size).sum();
            let better = match best {
                None => true,
                Some((best_total, _)) => {
                    let dist = (total - remaining).abs();
                    let best_dist = (best_total - remaining).abs();
                    dist < best_dist || (dist == best_dist && total > best_total)
                }
            };
            if better {
                best = Some((total, mask));
            }
        }
        let (total, mask) = best.expect("window is non-empty");
        for idx in subset(mask) {
            taken[idx] = true;
            selected.push(idx);
        }
        remaining -= total;
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::schedule_io_with;
    use crate::schedule::check_out_of_core;
    use prng::{Rng, StdRng};
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
        for unknown in ["ARC", "LruDist", "GDSF", "S3FIFO"] {
            let err = unknown.parse::<Policy>().unwrap_err();
            assert_eq!(
                err,
                UnknownName {
                    kind: "policy",
                    name: unknown.to_string(),
                    known: names.map(String::from).to_vec(),
                }
            );
            assert!(err
                .to_string()
                .starts_with(&format!("unknown policy '{unknown}' (registered: LSNF, ")));
        }
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
        let candidates = [0, 1, 2].map(|node| Candidate { node, size: 5 });
        assert_eq!(lsnf_fill(&candidates, 8, &[]), vec![0, 1]);
        assert_eq!(lsnf_fill(&candidates, 8, &[0]), vec![1, 2]);
    }

    /// The invariant the simulator evicts on without checking: every
    /// selection is distinct in-range indices whose sizes cover any deficit
    /// the candidates together can, zero-size files included.  Checked on
    /// the seeded lists `0..lists` (1–40 files of sizes 0–50), at every
    /// deficit from 1 to the list's total.
    ///
    /// `BestKComb { k: 31 }` enumerates 2^min(len, 31) subsets a round, so
    /// it runs on the lists of at most 8 files, where its window is the
    /// whole list.
    fn assert_selections_cover_their_deficit(lists: u64) {
        for case in 0..lists {
            let mut rng = StdRng::seed_from_u64(case);
            let len = rng.gen_range(1..=40usize);
            let candidates: Vec<Candidate> = (0..len)
                .map(|node| Candidate {
                    node,
                    size: rng.gen_range(0..=50 as Size),
                })
                .collect();
            let wide = (len <= 8).then_some(Policy::BestKComb { k: 31 });
            let policies = Policy::ALL
                .into_iter()
                .chain([1, 3].map(|k| Policy::BestKComb { k }))
                .chain(wide);
            let policies: Vec<Policy> = policies.collect();
            let total: Size = candidates.iter().map(|c| c.size).sum();
            for deficit in 1..=total {
                for &policy in &policies {
                    let selected = policy.select(&candidates, deficit);
                    let mut seen = vec![false; len];
                    let mut freed: Size = 0;
                    for &idx in &selected {
                        assert!(
                            idx < len && !seen[idx],
                            "case {case}: {policy:?} {selected:?}"
                        );
                        seen[idx] = true;
                        freed += candidates[idx].size;
                    }
                    assert!(
                        freed >= deficit,
                        "case {case}: {policy:?} frees {freed} of {deficit}"
                    );
                }
            }
        }
    }

    #[test]
    fn selections_are_distinct_and_cover_their_deficit() {
        assert_selections_cover_their_deficit(100);
    }

    /// About 10⁷ selections: CI runs it in release with the walk scale
    /// tests.
    #[test]
    #[ignore = "2 000 lists: run with --release -- --ignored"]
    fn selections_cover_their_deficit_on_2000_lists() {
        assert_selections_cover_their_deficit(2_000);
    }
}
