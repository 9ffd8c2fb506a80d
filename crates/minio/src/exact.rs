//! Exact MinIO for a *fixed* traversal, by branch and bound over the
//! eviction choices.
//!
//! Theorem 2(i) of the paper shows that even with the traversal fixed,
//! choosing which files to evict so as to minimise the I/O volume is
//! NP-complete (it embeds 2-Partition).  The heuristics of
//! [`crate::heuristics`] are therefore not optimal in general; this module
//! provides an exponential-time exact solver for *small* instances so that
//! tests and experiments can measure how far the heuristics are from the true
//! optimum (the paper lists such an absolute-quality assessment as future
//! work).
//!
//! The search enumerates, at every step where the resident files do not fit,
//! the subsets of evictable files that cover the deficit (pruned to subsets
//! that are minimal with respect to removal of any single file), and explores
//! them in a best-first manner with the divisible-relaxation lower bound for
//! pruning.

use treemem::tree::{NodeId, Size, Tree};
use treemem::Traversal;

use crate::heuristics::{MinIoError, Walk};
use crate::policy::Policy;

/// Hard cap on the number of evictable candidates per step accepted by the
/// exact solver; beyond this the enumeration would be hopeless anyway.
pub const MAX_EXACT_CANDIDATES: usize = 20;

/// Result of the exact search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactMinIo {
    /// The minimum I/O volume achievable for the given traversal and memory.
    pub io_volume: Size,
    /// Number of branch-and-bound nodes explored (a measure of difficulty).
    pub explored: usize,
}

/// State of the simulation at a given step of the traversal.
#[derive(Debug, Clone)]
struct SearchState {
    step: usize,
    /// For every node: is its (produced) input file currently resident?
    resident: Vec<bool>,
    resident_total: Size,
    io_so_far: Size,
}

/// Exact minimum I/O volume of `traversal` on `tree` with main memory
/// `memory`, by branch and bound.  Only meant for small trees (the search is
/// exponential in the worst case).
///
/// Returns [`MinIoError::InsufficientMemory`] when some node cannot be
/// executed even alone, and [`MinIoError::InvalidTraversal`] when the
/// traversal is not a valid ordering of the tree.
pub fn exact_min_io(
    tree: &Tree,
    traversal: &Traversal,
    memory: Size,
) -> Result<ExactMinIo, MinIoError> {
    let walk = Walk::new(tree, traversal)?;
    for i in tree.nodes() {
        if tree.mem_req(i) > memory {
            return Err(MinIoError::InsufficientMemory {
                node: i,
                required: tree.mem_req(i),
                memory,
            });
        }
    }
    // Upper bound from the best heuristic (the search never needs to do
    // worse, and a good incumbent makes the pruning effective).
    let mut incumbent = Size::MAX;
    let heuristics = [Policy::FirstFit, Policy::BestKComb { k: 6 }, Policy::Lsnf];
    const UNSTOPPABLE: &str = "no stop probe, cannot be cancelled";
    for policy in heuristics {
        let run = walk.schedule_io(tree, traversal, memory, policy, None)?;
        incumbent = incumbent.min(run.expect(UNSTOPPABLE).io_volume);
    }
    let lower = walk
        .divisible_bound(tree, traversal, memory, None)?
        .expect(UNSTOPPABLE);
    if incumbent == lower {
        // The heuristic already matches the divisible bound: it is optimal.
        return Ok(ExactMinIo {
            io_volume: incumbent,
            explored: 0,
        });
    }

    let positions = walk.positions();
    let order = traversal.order();
    let root = tree.root();
    let mut initial_resident = vec![false; tree.len()];
    initial_resident[root] = true;
    let initial = SearchState {
        step: 0,
        resident: initial_resident,
        resident_total: tree.f(root),
        io_so_far: 0,
    };

    let mut explored = 0usize;
    let mut best = incumbent;
    let mut stack = vec![initial];
    while let Some(state) = stack.pop() {
        explored += 1;
        if state.io_so_far >= best {
            continue;
        }
        // Advance through steps that need no eviction decision.
        let mut state = state;
        let mut needs_decision = false;
        while state.step < order.len() {
            let node = order[state.step];
            // Read the input file back if it was evicted earlier (it is not
            // resident but its parent has executed).
            if !state.resident[node] {
                state.resident[node] = true;
                state.resident_total += tree.f(node);
            }
            let during = state.resident_total + tree.n(node) + tree.children_file_sum(node);
            if during > memory {
                needs_decision = true;
                break;
            }
            // Execute the node.
            state.resident[node] = false;
            state.resident_total -= tree.f(node);
            for child in tree.children(node).iter().map(|&c| c as NodeId) {
                state.resident[child] = true;
                state.resident_total += tree.f(child);
            }
            state.step += 1;
        }
        if !needs_decision {
            best = best.min(state.io_so_far);
            continue;
        }

        // An eviction decision is needed before executing `order[state.step]`.
        let node = order[state.step];
        let during = state.resident_total + tree.n(node) + tree.children_file_sum(node);
        let deficit = during - memory;
        let mut candidates: Vec<NodeId> = tree
            .nodes()
            .filter(|&i| i != node && state.resident[i] && tree.f(i) > 0)
            .collect();
        // Latest-used first, as in the heuristics (the order only matters for
        // the enumeration, not for correctness).
        candidates.sort_by(|&a, &b| positions[b].cmp(&positions[a]));
        if candidates.len() > MAX_EXACT_CANDIDATES {
            return Err(MinIoError::InstanceTooLarge {
                candidates: candidates.len(),
                limit: MAX_EXACT_CANDIDATES,
            });
        }
        // Enumerate minimal covering subsets: a subset is only kept if
        // removing any single element makes it insufficient.
        let total_candidates: Size = candidates.iter().map(|&i| tree.f(i)).sum();
        debug_assert!(total_candidates >= deficit);
        let count = candidates.len();
        for mask in 1u32..(1u32 << count) {
            let mut freed: Size = 0;
            for (bit, &i) in candidates.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    freed += tree.f(i);
                }
            }
            if freed < deficit {
                continue;
            }
            // Minimality: dropping any selected file must violate the deficit.
            let minimal = (0..count)
                .all(|bit| mask & (1 << bit) == 0 || freed - tree.f(candidates[bit]) < deficit);
            if !minimal {
                continue;
            }
            let io = state.io_so_far + freed;
            if io >= best {
                continue;
            }
            let mut next = state.clone();
            next.io_so_far = io;
            for (bit, &i) in candidates.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    next.resident[i] = false;
                    next.resident_total -= tree.f(i);
                }
            }
            stack.push(next);
        }
    }

    Ok(ExactMinIo {
        io_volume: best,
        explored,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::{divisible_lower_bound, schedule_io_with};
    use treemem::gadgets::{harpoon, two_partition_gadget};
    use treemem::minmem::min_mem;
    use treemem::postorder::best_postorder;
    use treemem::random::random_attachment_tree;

    #[test]
    fn exact_matches_divisible_bound_when_heuristics_do() {
        let tree = harpoon(4, 400, 1);
        let po = best_postorder(&tree);
        let memory = tree.max_mem_req();
        let exact = exact_min_io(&tree, &po.traversal, memory).unwrap();
        let bound = divisible_lower_bound(&tree, &po.traversal, memory).unwrap();
        assert!(exact.io_volume >= bound);
        for policy in Policy::ALL {
            let run = schedule_io_with(&tree, &po.traversal, memory, policy).unwrap();
            assert!(run.io_volume >= exact.io_volume, "{}", policy.name());
        }
    }

    #[test]
    fn exact_finds_the_two_partition_split() {
        let gadget = two_partition_gadget(&[3, 5, 2, 4, 6, 4]);
        let tree = &gadget.tree;
        let mut order = vec![
            tree.root(),
            gadget.big_node,
            tree.children(gadget.big_node)[0] as NodeId,
        ];
        for &item in &gadget.item_nodes {
            order.push(item);
            order.push(tree.children(item)[0] as NodeId);
        }
        let traversal = Traversal::new(order);
        let exact = exact_min_io(tree, &traversal, gadget.memory).unwrap();
        assert_eq!(
            exact.io_volume, gadget.io_bound,
            "the optimum is exactly S/2"
        );
    }

    #[test]
    fn exact_detects_unsolvable_partitions() {
        let gadget = two_partition_gadget(&[1, 1, 4]);
        let tree = &gadget.tree;
        let mut order = vec![
            tree.root(),
            gadget.big_node,
            tree.children(gadget.big_node)[0] as NodeId,
        ];
        for &item in &gadget.item_nodes {
            order.push(item);
            order.push(tree.children(item)[0] as NodeId);
        }
        let traversal = Traversal::new(order);
        let exact = exact_min_io(tree, &traversal, gadget.memory).unwrap();
        assert!(exact.io_volume > gadget.io_bound, "no perfect split exists");
    }

    #[test]
    fn heuristics_are_never_better_than_exact_on_random_trees() {
        for seed in 0..8 {
            let tree = random_attachment_tree(14, 30, 4, seed);
            let opt = min_mem(&tree);
            let lower = tree.max_mem_req();
            if lower >= opt.peak {
                continue;
            }
            let memory = lower + (opt.peak - lower) / 3;
            let exact = match exact_min_io(&tree, &opt.traversal, memory) {
                Ok(exact) => exact,
                Err(_) => continue,
            };
            let bound = divisible_lower_bound(&tree, &opt.traversal, memory).unwrap();
            assert!(exact.io_volume >= bound, "seed {seed}");
            for policy in Policy::ALL {
                let run = schedule_io_with(&tree, &opt.traversal, memory, policy).unwrap();
                assert!(
                    run.io_volume >= exact.io_volume,
                    "seed {seed} policy {}",
                    policy.name()
                );
            }
        }
    }

    #[test]
    fn infeasible_memory_is_rejected() {
        let tree = harpoon(3, 300, 1);
        let po = best_postorder(&tree);
        assert!(matches!(
            exact_min_io(&tree, &po.traversal, tree.max_mem_req() - 1),
            Err(MinIoError::InsufficientMemory { .. })
        ));
    }
}
