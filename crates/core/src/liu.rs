//! Liu's exact algorithm for MinMemory (Liu, 1987: *An application of
//! generalized tree pebbling to sparse matrix factorization*), used by the
//! paper as the reference exact algorithm.
//!
//! The algorithm works bottom-up on the in-tree orientation, which is the
//! natural orientation of assembly trees.  The optimal traversal of every
//! subtree is summarised by its *hill–valley cost sequence*: a list of
//! segments `(h₁, v₁), (h₂, v₂), …` where `hₜ` is the memory peak while the
//! segment runs and `vₜ` the resident memory when it ends (a point where the
//! traversal may be interrupted to switch to a sibling subtree).  The
//! sequences are kept in *normal form*:
//!
//! * valleys are non-decreasing (`v₁ ≤ v₂ ≤ …`), and
//! * the differences `hₜ − vₜ` are non-increasing.
//!
//! Liu's combination theorem states that, given the normal-form sequences of
//! the children of a node, an optimal traversal of the node's subtree is
//! obtained by merging all child segments in non-increasing order of
//! `h − v` (which respects each child's internal order), appending the
//! node's own execution, and re-normalising.
//!
//! The top-down traversal returned by [`liu_exact`] is the reverse of the
//! bottom-up traversal, by the in-tree ↔ out-tree equivalence of
//! Section III-C of the paper; its peak memory is identical.
//!
//! **One segment stack.**  Nodes are processed in a reversed preorder, so
//! the subtrees of a node's children finish one after the other, just
//! before the node, and every finished subtree's sequence can sit as one
//! range of a single `Vec` of segments, the first child's lowest:
//!
//! * a leaf pushes its one segment;
//! * a node with one child (every node of a chain) appends its own segment
//!   to the child's range in place;
//! * a branching node k-way merges its children's ranges — a max-heap over
//!   per-child cursors, each sequence being sorted by non-increasing
//!   `h − v` already, ties to the lower child index — into one reused
//!   scratch buffer, then writes the merge back, normalised, over the
//!   children's ranges.  When the longest child's keys dominate every
//!   other child's (a comb's spine), its range stays where it is as the
//!   prefix of the merge and only the others are merged onto it; a
//!   sibling range below it is then left as dead space, reclaimed by the
//!   next ancestor that merges without a prefix.  This keeps chains and
//!   combs linear.
//!
//! A segment's nodes are a chain linked through one `next` array indexed by
//! node, so merging two segments is O(1), and the root's chains are
//! flattened once, into the traversal.  The heap, the cursors and the
//! residuals are reused across nodes: a call allocates O(log p) times, not
//! per node.  The per-subtree `Vec` code this replaced is kept as the test
//! oracle in `naive`.  Overall `O(Σ segments · log degree + p)`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[cfg(test)]
use crate::solver::growth;
use crate::solver::Probe;
use crate::traversal::Traversal;
use crate::tree::{NodeId, Size, Tree};
use crate::TraversalResult;

/// One hill–valley segment of the root's sequence (bottom-up orientation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Memory peak while the segment runs (absolute, within the tree).
    pub hill: Size,
    /// Resident memory when the segment ends.
    pub valley: Size,
    /// Number of nodes the segment executes.  The segments run one after
    /// the other, so they cut the reversed traversal into consecutive runs
    /// of these lengths.
    pub len: usize,
}

/// End of a node chain in [`Stack::next`].
const NIL: NodeId = NodeId::MAX;

/// A working segment: its nodes are the chain `head → … → tail` in
/// [`Stack::next`], in bottom-up execution order.
#[derive(Debug, Clone, Copy)]
struct Seg {
    hill: Size,
    valley: Size,
    head: NodeId,
    tail: NodeId,
}

impl Seg {
    fn key(&self) -> Size {
        self.hill - self.valley
    }
}

/// A finished subtree on the stack: its sequence starts at `start` and ends
/// where the next entry's `extent` begins (the stack's top for the last
/// entry); `extent..start` is dead space a prefix merge left below it.
#[derive(Debug, Clone, Copy)]
struct Pending {
    extent: usize,
    start: usize,
}

/// The per-call buffers of [`liu_exact`].
#[derive(Debug)]
struct Stack {
    /// Every unfinished sequence, one range per finished subtree.
    segs: Vec<Seg>,
    /// The finished subtrees whose parent has not run yet, lowest first.
    pending: Vec<Pending>,
    /// `next[i]`: the node after `i` in its segment's chain.
    next: Vec<NodeId>,
    /// A branching node's merge, before it is written back normalised.
    merged: Vec<Seg>,
    heap: BinaryHeap<(Size, Reverse<usize>)>,
    /// Per child of the merging node: next and end position on `segs`.
    cursors: Vec<(usize, usize)>,
    /// Per child of the merging node: valley of its last merged segment.
    residual: Vec<Size>,
}

impl Stack {
    /// Append `segment` to the sequence that starts at `floor` (the top of
    /// the stack), merging segments as needed to restore the normal form
    /// (valleys non-decreasing, `h − v` non-increasing).
    fn push_normalized(&mut self, floor: usize, segment: Seg) {
        let segs = &mut self.segs;
        segs.push(segment);
        while segs.len() - floor >= 2 {
            let last = segs[segs.len() - 1];
            let prev = segs[segs.len() - 2];
            if last.valley >= prev.valley && last.key() <= prev.key() {
                break;
            }
            segs.pop();
            let prev = segs.last_mut().expect("length checked");
            prev.hill = prev.hill.max(last.hill);
            prev.valley = last.valley;
            self.next[prev.tail] = last.head;
            prev.tail = last.tail;
        }
    }

    /// Replace the `k` topmost finished subtrees, the children of a
    /// branching node in stored order, by their merged sequence followed
    /// by `own`.
    fn combine(&mut self, k: usize, own: Seg) {
        let base = self.pending.len() - k;
        let children = &self.pending[base..];
        let top = self.segs.len();
        let end = |j: usize| children.get(j + 1).map_or(top, |next| next.extent);
        // The longest child, the last one on ties.
        let mut longest = 0;
        for j in 1..k {
            if end(j) - children[j].start >= end(longest) - children[longest].start {
                longest = j;
            }
        }
        // Reusable-prefix fast path: if the longest child's minimum key
        // dominates every other child's maximum key, all of its segments
        // form a prefix of the merge with zero offset (no other child has
        // deposited residual memory yet), so they stay in place and only
        // the other children's segments are merged onto them.  Key ties go
        // to the lower child index, so a lower child needs *strictly*
        // smaller keys to merge after the prefix, while a higher one may
        // tie.
        let segs = &self.segs;
        let min_key = segs[end(longest) - 1].key();
        let prefix = (0..k).all(|j| {
            let first = segs[children[j].start].key();
            j == longest || first < min_key || (j > longest && first == min_key)
        });

        self.residual.clear();
        self.residual.resize(k, 0);
        self.cursors.clear();
        self.heap.clear();
        let mut total_residual: Size = 0;
        for (j, child) in children.iter().enumerate() {
            if prefix && j == longest {
                total_residual = segs[end(j) - 1].valley;
                self.residual[j] = total_residual;
                self.cursors.push((end(j), end(j)));
            } else {
                self.cursors.push((child.start, end(j)));
                self.heap.push((segs[child.start].key(), Reverse(j)));
            }
        }
        self.merged.clear();
        while let Some((_, Reverse(j))) = self.heap.pop() {
            let (position, end) = &mut self.cursors[j];
            let segment = segs[*position];
            *position += 1;
            if *position < *end {
                self.heap.push((segs[*position].key(), Reverse(j)));
            }
            let others = total_residual - self.residual[j];
            self.merged.push(Seg {
                hill: segment.hill + others,
                valley: segment.valley + others,
                ..segment
            });
            total_residual = others + segment.valley;
            self.residual[j] = segment.valley;
        }

        let extent = children[0].extent;
        let floor = if prefix {
            let floor = children[longest].start;
            self.segs.truncate(end(longest));
            floor
        } else {
            self.segs.truncate(extent);
            extent
        };
        self.pending.truncate(base);
        for index in 0..self.merged.len() {
            self.push_normalized(floor, self.merged[index]);
        }
        // The node itself executes last (bottom-up orientation): all child
        // files are resident, it adds its execution file and produces its
        // output file.
        self.push_normalized(floor, own);
        self.pending.push(Pending {
            extent,
            start: floor,
        });
    }

    /// Test builds: the capacities of the buffers that grow during a call.
    #[cfg(test)]
    fn capacities(&self) -> [usize; 6] {
        [
            self.segs.capacity(),
            self.pending.capacity(),
            self.merged.capacity(),
            self.heap.capacity(),
            self.cursors.capacity(),
            self.residual.capacity(),
        ]
    }
}

/// Result of [`liu_exact`].
#[derive(Debug, Clone)]
pub struct LiuResult {
    /// An optimal traversal (top-down order, root first).
    pub traversal: Traversal,
    /// The minimum memory for an in-core traversal of the tree.
    pub peak: Size,
    /// The normal-form hill–valley sequence of the whole tree (bottom-up
    /// orientation), useful for diagnostics and for the experiments.
    pub segments: Vec<Segment>,
}

impl From<LiuResult> for TraversalResult {
    fn from(value: LiuResult) -> Self {
        TraversalResult {
            traversal: value.traversal,
            peak: value.peak,
        }
    }
}

/// Compute the minimum in-core memory of `tree` and an optimal traversal
/// using Liu's exact algorithm.
///
/// ```
/// use treemem::{gadgets::harpoon, liu::liu_exact, minmem::min_mem};
/// let tree = harpoon(3, 300, 1);
/// assert_eq!(liu_exact(&tree).peak, min_mem(&tree).peak);
/// ```
pub fn liu_exact(tree: &Tree) -> LiuResult {
    liu_exact_until(tree, &mut Probe::new(None)).expect("no stop probe, cannot be cancelled")
}

/// [`liu_exact`], polling `probe` once per
/// [`STOP_CHECK_INTERVAL`](crate::solver::STOP_CHECK_INTERVAL) nodes;
/// `None` when it fired.
pub(crate) fn liu_exact_until(tree: &Tree, probe: &mut Probe<'_>) -> Option<LiuResult> {
    // A preorder that pushes the children in stored order pops the last one
    // first; reversed, it finishes the first child's subtree first.
    let mut order = Vec::with_capacity(tree.len());
    let mut dfs = vec![tree.root()];
    while let Some(i) = dfs.pop() {
        order.push(i);
        dfs.extend_from_slice(tree.children(i));
    }
    let mut stack = Stack {
        segs: Vec::new(),
        pending: Vec::new(),
        next: vec![NIL; tree.len()],
        merged: Vec::new(),
        heap: BinaryHeap::new(),
        cursors: Vec::new(),
        residual: Vec::new(),
    };
    #[cfg(test)]
    let mut capacities = stack.capacities();
    for &i in order.iter().rev() {
        if probe.stopped() {
            return None;
        }
        let own = Seg {
            hill: tree.mem_req(i),
            valley: tree.f(i),
            head: i,
            tail: i,
        };
        match tree.child_count(i) {
            // Leaf: the sequence is the node's own segment.
            0 => {
                let top = stack.segs.len();
                stack.pending.push(Pending {
                    extent: top,
                    start: top,
                });
                stack.segs.push(own);
            }
            // Single child (every node of a chain, the spine of amalgamated
            // assembly trees): the merge offsets are identically zero, so
            // the child's sequence, the top of the stack, is extended in
            // place.
            1 => {
                debug_assert_eq!(
                    stack.segs.last().map(|s| s.valley),
                    Some(tree.children_file_sum(i))
                );
                let floor = stack.pending.last().expect("child finished").start;
                stack.push_normalized(floor, own);
            }
            k => stack.combine(k, own),
        }
        #[cfg(test)]
        growth::track(&mut capacities, stack.capacities());
    }
    debug_assert_eq!(stack.pending.len(), 1);
    // Flatten the root's chains once, into the bottom-up execution order,
    // reusing the preorder's buffer.
    let root_sequence = &stack.segs[stack.pending[0].start..];
    let mut segments = Vec::with_capacity(root_sequence.len());
    order.clear();
    for seg in root_sequence {
        let first = order.len();
        let mut cursor = seg.head;
        while cursor != NIL {
            order.push(cursor);
            cursor = stack.next[cursor];
        }
        segments.push(Segment {
            hill: seg.hill,
            valley: seg.valley,
            len: order.len() - first,
        });
    }
    let peak = segments.iter().map(|s| s.hill).max().unwrap_or(0);
    debug_assert_eq!(order.len(), tree.len());
    order.reverse();
    let traversal = Traversal::new(order);
    debug_assert_eq!(
        traversal
            .peak_memory(tree)
            .expect("Liu produced an invalid traversal"),
        peak,
        "hill-valley peak must match the direct evaluation of the traversal"
    );
    Some(LiuResult {
        traversal,
        peak,
        segments,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_peak;
    use crate::gadgets::{harpoon, harpoon_tower};
    use crate::minmem::min_mem;
    use crate::postorder::best_postorder;
    use crate::tree::TreeBuilder;

    #[test]
    fn single_node_sequence() {
        let mut b = TreeBuilder::new();
        b.add_root(3, 4);
        let tree = b.build().unwrap();
        let result = liu_exact(&tree);
        assert_eq!(result.peak, 7);
        assert_eq!(result.segments.len(), 1);
        assert_eq!(result.segments[0].hill, 7);
        assert_eq!(result.segments[0].valley, 3);
    }

    #[test]
    fn chain_peak_is_max_mem_req() {
        let mut b = TreeBuilder::new();
        let mut prev = b.add_root(1, 0);
        for f in [5, 2, 9, 3] {
            prev = b.add_child(prev, f, 0);
        }
        let tree = b.build().unwrap();
        assert_eq!(liu_exact(&tree).peak, tree.max_mem_req());
    }

    #[test]
    fn normal_form_invariants_hold_at_the_root() {
        let tree = harpoon_tower(3, 300, 2, 2);
        let result = liu_exact(&tree);
        for pair in result.segments.windows(2) {
            assert!(
                pair[0].valley <= pair[1].valley,
                "valleys must be non-decreasing"
            );
            assert!(
                pair[0].hill - pair[0].valley >= pair[1].hill - pair[1].valley,
                "h - v must be non-increasing"
            );
        }
    }

    #[test]
    fn agrees_with_min_mem_and_brute_force() {
        let trees = [
            harpoon(2, 20, 1),
            harpoon(4, 40, 3),
            harpoon_tower(2, 16, 1, 2),
            {
                let mut b = TreeBuilder::new();
                let r = b.add_root(2, 1);
                let a = b.add_child(r, 3, 2);
                b.add_child(a, 7, 1);
                b.add_child(a, 5, 0);
                let c = b.add_child(r, 4, 0);
                let d = b.add_child(c, 6, 3);
                b.add_child(d, 2, 2);
                b.build().unwrap()
            },
        ];
        for (idx, tree) in trees.iter().enumerate() {
            let liu = liu_exact(tree);
            let mm = min_mem(tree);
            let brute = brute_force_peak(tree);
            assert_eq!(liu.peak, brute, "tree #{idx}: Liu vs brute force");
            assert_eq!(mm.peak, brute, "tree #{idx}: MinMem vs brute force");
        }
    }

    #[test]
    fn never_worse_than_the_best_postorder() {
        for branches in 2..6 {
            let tree = harpoon(branches, 120, 2);
            assert!(liu_exact(&tree).peak <= best_postorder(&tree).peak);
        }
    }

    /// The segments cut the bottom-up order (the reversed traversal) into
    /// runs whose replayed peak and final residency are their hill and
    /// valley.
    #[test]
    fn segments_replay_over_the_reversed_traversal() {
        for tree in [harpoon_tower(3, 30, 1, 2), harpoon(4, 40, 3)] {
            let result = liu_exact(&tree);
            let bottom_up: Vec<NodeId> = result.traversal.order().iter().rev().copied().collect();
            let lens: usize = result.segments.iter().map(|s| s.len).sum();
            assert_eq!(lens, tree.len());
            let (mut resident, mut next) = (0 as Size, 0);
            for segment in &result.segments {
                let mut hill = Size::MIN;
                for &node in &bottom_up[next..next + segment.len] {
                    hill = hill.max(resident + tree.n(node) + tree.f(node));
                    resident += tree.f(node) - tree.children_file_sum(node);
                }
                next += segment.len;
                assert_eq!((hill, resident), (segment.hill, segment.valley));
            }
        }
    }
}
