//! Golden parity test: the six paper heuristics must produce **identical**
//! I/O volumes (and eviction schedules) through `Policy::select` as through
//! the original fixed enum dispatch.
//!
//! The `legacy` module below is a frozen, self-contained copy of the
//! pre-refactor implementation — the `match`-based `select_evictions` and the
//! simulation loop exactly as they shipped before the trait was introduced.
//! It is the golden reference: if a port of a heuristic drifts by even one
//! eviction, the volumes diverge and this test pinpoints the policy, tree
//! and memory budget.

mod common;

use common::schedule_io_naive;
use minio::{schedule_io_with, Policy};
use prng::{Rng, StdRng};
use treemem::gadgets::{harpoon, harpoon_tower, two_partition_gadget};
use treemem::minmem::min_mem;
use treemem::postorder::best_postorder;
use treemem::traversal::Traversal;
use treemem::tree::{NodeId, Size, Tree};

/// Frozen pre-refactor implementation (enum dispatch).  Do not modernise:
/// byte-for-byte behaviour is the point.
mod legacy {
    use super::*;

    /// The original enum naming the six heuristics.
    #[derive(Debug, Clone, Copy)]
    pub enum Heuristic {
        LastScheduledNodeFirst,
        FirstFit,
        BestFit,
        FirstFill,
        BestFill,
        BestKCombination { k: usize },
    }

    #[derive(Debug, Clone, Copy)]
    struct Candidate {
        node: NodeId,
        size: Size,
    }

    fn select_evictions(candidates: &[Candidate], deficit: Size, policy: Heuristic) -> Vec<usize> {
        debug_assert!(deficit > 0);
        match policy {
            Heuristic::LastScheduledNodeFirst => lsnf(candidates, deficit, &[]),
            Heuristic::FirstFit => match candidates.iter().position(|c| c.size >= deficit) {
                Some(idx) => vec![idx],
                None => lsnf(candidates, deficit, &[]),
            },
            Heuristic::BestFit => {
                let mut selected = Vec::new();
                let mut remaining = deficit;
                while remaining > 0 {
                    let next = candidates
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
            Heuristic::FirstFill => {
                let mut selected = Vec::new();
                let mut remaining = deficit;
                loop {
                    let next = candidates
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
                                let rest = lsnf(candidates, remaining, &selected);
                                selected.extend(rest);
                            }
                            break;
                        }
                    }
                }
                selected
            }
            Heuristic::BestFill => {
                let mut selected = Vec::new();
                let mut remaining = deficit;
                loop {
                    let next = candidates
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
                                let rest = lsnf(candidates, remaining, &selected);
                                selected.extend(rest);
                            }
                            break;
                        }
                    }
                }
                selected
            }
            Heuristic::BestKCombination { k } => {
                let k = k.max(1);
                let mut selected: Vec<usize> = Vec::new();
                let mut remaining = deficit;
                while remaining > 0 {
                    let window: Vec<usize> = (0..candidates.len())
                        .filter(|idx| !selected.contains(idx))
                        .take(k)
                        .collect();
                    if window.is_empty() {
                        break;
                    }
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
        }
    }

    fn lsnf(candidates: &[Candidate], deficit: Size, skip: &[usize]) -> Vec<usize> {
        let mut selected = Vec::new();
        let mut remaining = deficit;
        for (idx, candidate) in candidates.iter().enumerate() {
            if remaining <= 0 {
                break;
            }
            if skip.contains(&idx) {
                continue;
            }
            selected.push(idx);
            remaining -= candidate.size;
        }
        selected
    }

    /// The pre-refactor simulation loop; returns the I/O volume and the
    /// eviction steps `(node, step)` in eviction order.
    pub fn schedule_io(
        tree: &Tree,
        traversal: &Traversal,
        memory: Size,
        policy: Heuristic,
    ) -> (Size, Vec<(NodeId, usize)>) {
        traversal.check_precedence(tree).expect("valid traversal");
        let positions = traversal.positions(tree.len()).expect("valid permutation");

        let root = tree.root();
        let mut resident = vec![false; tree.len()];
        resident[root] = true;
        let mut evicted = vec![false; tree.len()];
        let mut resident_total = tree.f(root);
        let mut io_volume: Size = 0;
        let mut evictions = Vec::new();

        for (step, &node) in traversal.order().iter().enumerate() {
            if evicted[node] && !resident[node] {
                resident[node] = true;
                resident_total += tree.f(node);
            }
            assert!(
                tree.mem_req(node) <= memory,
                "legacy runner assumes feasible budgets"
            );
            let during = resident_total + tree.n(node) + tree.children_file_sum(node);
            if during > memory {
                let deficit = during - memory;
                let mut candidates: Vec<Candidate> = tree
                    .nodes()
                    .filter(|&i| i != node && resident[i])
                    .map(|i| Candidate {
                        node: i,
                        size: tree.f(i),
                    })
                    .collect();
                candidates.sort_by(|a, b| positions[b.node].cmp(&positions[a.node]));
                let chosen = select_evictions(&candidates, deficit, policy);
                for &idx in &chosen {
                    let candidate = candidates[idx];
                    resident[candidate.node] = false;
                    evicted[candidate.node] = true;
                    resident_total -= candidate.size;
                    io_volume += candidate.size;
                    evictions.push((candidate.node, step));
                }
            }
            resident[node] = false;
            resident_total -= tree.f(node);
            for child in tree.children(node).iter().map(|&c| c as usize) {
                resident[child] = true;
                resident_total += tree.f(child);
            }
        }
        (io_volume, evictions)
    }
}

/// A random tree with random parent links and weights, reproducible from the
/// seed.
fn arbitrary_tree(seed: u64, max_nodes: usize, max_file: Size, max_exec: Size) -> Tree {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2..=max_nodes);
    let mut parents: Vec<Option<usize>> = vec![None; n];
    for (i, parent) in parents.iter_mut().enumerate().skip(1) {
        *parent = Some(rng.gen_range(0..i));
    }
    let files: Vec<Size> = (0..n).map(|_| rng.gen_range(0..=max_file)).collect();
    let execs: Vec<Size> = (0..n).map(|_| rng.gen_range(0..=max_exec)).collect();
    Tree::from_parents(&parents, &files, &execs).expect("construction is valid")
}

/// All six paper heuristics plus a non-default Best-K parameter: the frozen
/// enum value next to the policy that must reproduce it.
fn policies_under_test() -> [(legacy::Heuristic, Policy); 7] {
    use legacy::Heuristic;
    [
        (Heuristic::LastScheduledNodeFirst, Policy::Lsnf),
        (Heuristic::FirstFit, Policy::FirstFit),
        (Heuristic::BestFit, Policy::BestFit),
        (Heuristic::FirstFill, Policy::FirstFill),
        (Heuristic::BestFill, Policy::BestFill),
        (
            Heuristic::BestKCombination { k: 5 },
            Policy::BestKComb { k: 5 },
        ),
        (
            Heuristic::BestKCombination { k: 3 },
            Policy::BestKComb { k: 3 },
        ),
    ]
}

fn assert_parity(tree: &Tree, traversal: &Traversal, memory: Size, context: &str) {
    for (heuristic, policy) in policies_under_test() {
        let (legacy_io, legacy_evictions) = legacy::schedule_io(tree, traversal, memory, heuristic);
        let run = schedule_io_with(tree, traversal, memory, policy).unwrap();
        assert_eq!(
            run.io_volume, legacy_io,
            "{context}, {heuristic:?}: Policy::select diverged from the legacy enum dispatch"
        );
        let mut evictions: Vec<(NodeId, usize)> = run.schedule.evictions().collect();
        let mut legacy_sorted = legacy_evictions;
        evictions.sort_unstable();
        legacy_sorted.sort_unstable();
        assert_eq!(
            evictions, legacy_sorted,
            "{context}, {heuristic:?}: eviction schedules differ"
        );
        // The incremental simulator must match the retained naive path (full
        // candidate rescan per deficit step) bit for bit.
        let naive = schedule_io_naive(tree, traversal, memory, policy)
            .expect("naive simulation succeeds whenever the incremental one does");
        assert_eq!(
            run.io_volume, naive.io_volume,
            "{context}, {heuristic:?}: incremental simulator diverged from the naive scan"
        );
        assert_eq!(
            run.schedule, naive.schedule,
            "{context}, {heuristic:?}: incremental eviction schedule differs from the naive scan"
        );
        assert_eq!(
            run.peak_memory, naive.peak_memory,
            "{context}, {heuristic:?}"
        );
        assert_eq!(
            run.files_written, naive.files_written,
            "{context}, {heuristic:?}"
        );
    }
}

#[test]
fn parity_on_the_gadget_trees() {
    for (label, tree) in [
        ("harpoon(4,400,1)", harpoon(4, 400, 1)),
        ("harpoon(6,120,3)", harpoon(6, 120, 3)),
        ("harpoon_tower(3,300,2,2)", harpoon_tower(3, 300, 2, 2)),
        (
            "two_partition",
            two_partition_gadget(&[3, 5, 2, 4, 6, 4]).tree,
        ),
    ] {
        let po = best_postorder(&tree);
        let lower = tree.max_mem_req();
        for memory in [lower, (lower + po.peak) / 2, po.peak] {
            assert_parity(&tree, &po.traversal, memory, &format!("{label} @ {memory}"));
        }
    }
}

#[test]
fn parity_on_random_trees_and_traversals() {
    for seed in 0..48 {
        let tree = arbitrary_tree(seed, 36, 100, 10);
        let po = best_postorder(&tree);
        let opt = min_mem(&tree);
        let lower = tree.max_mem_req();
        for (traversal, peak, label) in [
            (&po.traversal, po.peak, "postorder"),
            (&opt.traversal, opt.peak, "minmem"),
        ] {
            for fraction in [0, 1, 2, 3] {
                let memory = lower + (peak - lower) * fraction / 4;
                assert_parity(
                    &tree,
                    traversal,
                    memory,
                    &format!("seed {seed}, {label} @ {memory}"),
                );
            }
        }
    }
}
