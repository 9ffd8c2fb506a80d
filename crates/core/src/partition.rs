//! Proportional-mapping-style subtree partitioning for parallel execution.
//!
//! Parallel multifrontal codes exploit *subtree parallelism*: a cut through
//! the assembly tree yields a frontier of disjoint subtrees that touch
//! disjoint sets of contribution blocks and can therefore be factored
//! concurrently, while the nodes above the cut form a sequential *merge*
//! phase that consumes the subtree roots' contribution blocks.
//!
//! [`proportional_cut`] computes such a cut with the classic
//! proportional-mapping refinement loop: starting from the root, the subtree
//! with the largest remaining work estimate is repeatedly replaced by its
//! children until either the frontier is large enough (`max_tasks` subtrees)
//! or the largest subtree is already balanced (no more than
//! `total_work / max_tasks`).  Chains — separator columns in a per-column
//! elimination tree — are popped wholesale, because splitting a chain node
//! keeps the frontier size unchanged, which is exactly the behaviour
//! proportional mapping exhibits on nested-dissection trees.
//!
//! The cut deliberately depends only on the tree, the per-node work
//! estimates and `max_tasks` — *not* on the number of workers — so every
//! worker count schedules the same tasks and a run's partition-derived
//! outputs are bit-identical across worker counts.

use std::collections::BinaryHeap;

use crate::tree::{NodeId, Tree};

/// A cut of a [`Tree`] into parallel subtree tasks plus a sequential merge
/// set; see the module docs and [`proportional_cut`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// The subtree roots (one per task), sorted by decreasing subtree work
    /// (ties broken by node id), so task 0 is always the heaviest.
    pub roots: Vec<NodeId>,
    /// For every node, the task that owns it (`None` for above-cut nodes).
    pub task_of: Vec<Option<usize>>,
    /// Work estimate of each task (sum of the per-node work over its
    /// subtree), parallel to `roots`.
    pub task_work: Vec<u64>,
    /// The nodes above the cut (the sequential merge phase), in ascending
    /// node-id order.
    pub above_cut: Vec<NodeId>,
}

impl Partition {
    /// Number of subtree tasks.
    pub fn task_count(&self) -> usize {
        self.roots.len()
    }

    /// Split a bottom-up node `order` into one per-task sub-order plus the
    /// above-cut merge order, preserving `order`'s relative sequence inside
    /// every piece.  Because each task owns a whole subtree and `order` is
    /// bottom-up, every piece is itself a valid bottom-up traversal of its
    /// node subset — this is the splitter both the in-process parallel
    /// executor and the distributed coordinator use, so the two schedule the
    /// exact same column sequences.
    ///
    /// # Panics
    /// Panics if `order.len() != self.task_of.len()`.
    pub fn split_order(&self, order: &[usize]) -> (Vec<Vec<usize>>, Vec<usize>) {
        assert_eq!(
            order.len(),
            self.task_of.len(),
            "one order entry per partitioned node"
        );
        let mut task_orders: Vec<Vec<usize>> = vec![Vec::new(); self.task_count()];
        let mut merge_order: Vec<usize> = Vec::with_capacity(self.above_cut.len());
        for &node in order {
            match self.task_of[node] {
                Some(task) => task_orders[task].push(node),
                None => merge_order.push(node),
            }
        }
        (task_orders, merge_order)
    }
}

/// A default per-node work estimate: `max(f(i) + n(i), 1)`.  For the
/// numeric per-column model, where `f + n = µ²`, this is proportional to the
/// flop count of eliminating the column.
pub fn default_node_work(tree: &Tree) -> Vec<u64> {
    tree.nodes()
        .map(|i| (tree.f(i) + tree.n(i)).max(1) as u64)
        .collect()
}

/// Heap entry ordered by subtree work, ties broken towards the *smaller*
/// node id (so the pop order, and hence the cut, is deterministic).
#[derive(PartialEq, Eq)]
struct Candidate {
    work: u64,
    node: NodeId,
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.work
            .cmp(&other.work)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Cut `tree` into at most `max_tasks` subtree tasks balanced by `work`
/// (one estimate per node); see the module docs.
///
/// # Panics
/// Panics if `work.len() != tree.len()`.
pub fn proportional_cut(tree: &Tree, max_tasks: usize, work: &[u64]) -> Partition {
    assert_eq!(work.len(), tree.len(), "one work estimate per node");
    let max_tasks = max_tasks.max(1);

    // Subtree work, bottom-up.
    let mut subtree_work: Vec<u64> = work.to_vec();
    for &i in &tree.dfs_bottomup() {
        if let Some(parent) = tree.parent(i) {
            subtree_work[parent] = subtree_work[parent].saturating_add(subtree_work[i]);
        }
    }
    let total: u64 = subtree_work[tree.root()];
    let balanced = total / max_tasks as u64;

    let mut frontier = BinaryHeap::new();
    frontier.push(Candidate {
        work: subtree_work[tree.root()],
        node: tree.root(),
    });
    let mut above_cut: Vec<NodeId> = Vec::new();
    while frontier.len() < max_tasks {
        let Some(top) = frontier.peek() else { break };
        // The largest subtree is already balanced (or unsplittable): every
        // other frontier subtree is at most as large, so the cut is done.
        if top.work <= balanced || tree.is_leaf(top.node) {
            break;
        }
        let top = frontier.pop().expect("peeked entry exists");
        above_cut.push(top.node);
        for &child in tree.children(top.node) {
            frontier.push(Candidate {
                work: subtree_work[child],
                node: child,
            });
        }
    }

    // Largest-first task order, deterministic by (work desc, id asc).
    let mut roots: Vec<NodeId> = frontier.into_iter().map(|c| c.node).collect();
    roots.sort_unstable_by(|&a, &b| {
        subtree_work[b]
            .cmp(&subtree_work[a])
            .then_with(|| a.cmp(&b))
    });
    let task_work: Vec<u64> = roots.iter().map(|&r| subtree_work[r]).collect();

    // Ownership: depth-first from each root.
    let mut task_of: Vec<Option<usize>> = vec![None; tree.len()];
    let mut stack: Vec<NodeId> = Vec::new();
    for (task, &root) in roots.iter().enumerate() {
        stack.push(root);
        while let Some(i) = stack.pop() {
            task_of[i] = Some(task);
            stack.extend_from_slice(tree.children(i));
        }
    }
    above_cut.sort_unstable();

    debug_assert_eq!(
        task_of.iter().filter(|t| t.is_none()).count(),
        above_cut.len()
    );
    Partition {
        roots,
        task_of,
        task_work,
        above_cut,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::nested_dissection_etree;
    use crate::tree::TreeBuilder;

    fn balanced_binary(levels: usize) -> Tree {
        let mut b = TreeBuilder::new();
        let root = b.add_root(1, 1);
        let mut frontier = vec![root];
        for _ in 0..levels {
            let mut next = Vec::new();
            for parent in frontier {
                next.push(b.add_child(parent, 1, 1));
                next.push(b.add_child(parent, 1, 1));
            }
            frontier = next;
        }
        b.build().unwrap()
    }

    #[test]
    fn single_task_is_the_whole_tree() {
        let tree = balanced_binary(3);
        let partition = proportional_cut(&tree, 1, &default_node_work(&tree));
        assert_eq!(partition.roots, vec![tree.root()]);
        assert!(partition.above_cut.is_empty());
        assert!(partition.task_of.iter().all(|t| *t == Some(0)));
    }

    #[test]
    fn every_node_is_owned_exactly_once() {
        let tree = nested_dissection_etree(5_000, 7);
        let work = default_node_work(&tree);
        for max_tasks in [1, 2, 4, 8, 64] {
            let partition = proportional_cut(&tree, max_tasks, &work);
            assert!(partition.task_count() >= 1);
            assert!(partition.task_count() <= max_tasks.max(1));
            let owned: usize = partition
                .task_of
                .iter()
                .filter(|task| task.is_some())
                .count();
            assert_eq!(owned + partition.above_cut.len(), tree.len());
            // Tasks cover full subtrees: a node's task equals its parent's
            // unless the parent is above the cut.
            for i in tree.nodes() {
                if let (Some(task), Some(parent)) = (partition.task_of[i], tree.parent(i)) {
                    if let Some(parent_task) = partition.task_of[parent] {
                        assert_eq!(task, parent_task);
                    } else {
                        assert!(partition.roots.contains(&i));
                    }
                }
            }
            // Above-cut nodes are ancestors of every task root below them.
            for &above in &partition.above_cut {
                assert_eq!(partition.task_of[above], None);
            }
            // Task work plus merge work covers the whole tree.
            let task_sum: u64 = partition.task_work.iter().sum();
            let total: u64 = work.iter().sum();
            let merge_work: u64 = partition.above_cut.iter().map(|&i| work[i]).sum();
            assert_eq!(task_sum + merge_work, total);
        }
    }

    #[test]
    fn tasks_come_out_largest_first_and_balanced() {
        let tree = balanced_binary(6); // 127 nodes, uniform work
        let work = default_node_work(&tree);
        let partition = proportional_cut(&tree, 8, &work);
        assert_eq!(partition.task_count(), 8);
        for pair in partition.task_work.windows(2) {
            assert!(pair[0] >= pair[1]);
        }
        // A uniform balanced binary tree splits into the 8 depth-3 subtrees.
        let total: u64 = work.iter().sum();
        assert!(partition.task_work[0] <= total / 8 + 1);
        assert_eq!(partition.above_cut.len(), 7);
    }

    #[test]
    fn chains_are_popped_wholesale() {
        // A chain of 10 over a 4-leaf star: the cut must pop the whole chain
        // to reach the branching point.
        let mut b = TreeBuilder::new();
        let mut node = b.add_root(1, 1);
        for _ in 0..9 {
            node = b.add_child(node, 1, 1);
        }
        for _ in 0..4 {
            let child = b.add_child(node, 1, 100);
            b.add_child(child, 1, 100);
        }
        let tree = b.build().unwrap();
        let partition = proportional_cut(&tree, 4, &default_node_work(&tree));
        assert_eq!(partition.task_count(), 4);
        assert_eq!(partition.above_cut.len(), 10);
    }

    #[test]
    fn cut_is_deterministic_and_worker_independent() {
        let tree = nested_dissection_etree(2_000, 3);
        let work = default_node_work(&tree);
        let a = proportional_cut(&tree, 16, &work);
        let b = proportional_cut(&tree, 16, &work);
        assert_eq!(a, b);
    }

    #[test]
    fn split_order_partitions_a_bottom_up_order_without_reordering() {
        let tree = nested_dissection_etree(2_000, 11);
        let work = default_node_work(&tree);
        let partition = proportional_cut(&tree, 8, &work);
        let order = tree.dfs_bottomup();
        let (task_orders, merge_order) = partition.split_order(&order);
        assert_eq!(task_orders.len(), partition.task_count());
        // The merge order is the above-cut set in source-order sequence.
        let expected_merge: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&node| partition.task_of[node].is_none())
            .collect();
        assert_eq!(merge_order, expected_merge);
        {
            let mut sorted = merge_order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, partition.above_cut);
        }
        // Every node appears exactly once across the pieces.
        let mut seen = vec![false; tree.len()];
        for piece in task_orders.iter().chain(std::iter::once(&merge_order)) {
            for &node in piece {
                assert!(!seen[node], "node {node} split into two pieces");
                seen[node] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        // Each piece preserves the relative sequence of the source order.
        let position: Vec<usize> = {
            let mut p = vec![0usize; tree.len()];
            for (at, &node) in order.iter().enumerate() {
                p[node] = at;
            }
            p
        };
        for piece in task_orders.iter().chain(std::iter::once(&merge_order)) {
            for pair in piece.windows(2) {
                assert!(position[pair[0]] < position[pair[1]]);
            }
        }
        // And each task piece covers exactly its owned nodes.
        for (task, piece) in task_orders.iter().enumerate() {
            let owned = partition
                .task_of
                .iter()
                .filter(|&&t| t == Some(task))
                .count();
            assert_eq!(piece.len(), owned);
        }
    }

    #[test]
    fn leaf_frontier_stops_splitting() {
        // A star: the root's children are all leaves; asking for more tasks
        // than leaves must not loop or panic.
        let mut b = TreeBuilder::new();
        let root = b.add_root(1, 1);
        for _ in 0..3 {
            b.add_child(root, 1, 1);
        }
        let tree = b.build().unwrap();
        let partition = proportional_cut(&tree, 64, &default_node_work(&tree));
        assert_eq!(partition.task_count(), 3);
        assert_eq!(partition.above_cut, vec![tree.root()]);
    }
}
