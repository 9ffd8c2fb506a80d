//! Best postorder traversal (Liu 1986), Section IV-A of the paper.
//!
//! A *postorder* traversal processes, after each node, one entire child
//! subtree at a time.  Postorders are the orderings used in practice by
//! multifrontal solvers (e.g. MUMPS), because the frontier files can then be
//! managed as a stack.  Liu showed that the best postorder of an in-tree is
//! obtained by visiting the children of every node in decreasing order of
//! `peak(child) − f(child)`, where `peak(child)` is the (postorder) peak
//! memory of the child subtree.  In the top-down (out-tree) orientation used
//! by this crate the rule is mirrored: while a child subtree is traversed the
//! files of the *not yet processed* siblings are resident, so children must
//! be visited in **increasing** order of `peak(child) − f(child)` (the
//! reverse of the bottom-up order, consistently with the in-tree ↔ out-tree
//! reversal of Section III-C).
//!
//! The best postorder is optimal for many practical assembly trees (see the
//! experiments of the paper and of `crates/bench`), but Theorem 1 shows that
//! it can be arbitrarily worse than the optimal traversal on adversarial
//! trees such as [`crate::gadgets::harpoon_tower`].
//!
//! Both postorders run on flat per-call arrays: one bottom-up pass over a
//! reversed preorder computes every subtree peak and, for the best
//! postorder, sorts each node's children in place inside one copy of the
//! tree's child lists, laid out like [`Tree`]'s own CSR; the traversal is
//! then emitted from those lists.  Nothing is allocated per node.  The
//! code they replaced, a `Vec` of child ids per node, is kept as the test
//! oracle in `naive`.

#[cfg(test)]
use crate::solver::growth;
use crate::solver::Probe;
use crate::traversal::Traversal;
use crate::tree::{NodeId, Size, Tree};
use crate::TraversalResult;

/// Result of a postorder computation: the traversal, its peak, and the
/// per-subtree peaks (useful for diagnostics and for the experiments).
#[derive(Debug, Clone)]
pub struct PostOrderResult {
    /// The postorder traversal (top-down, root first).
    pub traversal: Traversal,
    /// Peak memory of the traversal.
    pub peak: Size,
    /// Peak memory of the postorder traversal of every subtree.
    pub subtree_peaks: Vec<Size>,
}

impl From<PostOrderResult> for TraversalResult {
    fn from(value: PostOrderResult) -> Self {
        TraversalResult {
            traversal: value.traversal,
            peak: value.peak,
        }
    }
}

/// Peak of the postorder of `i`'s subtree that runs its children in
/// `children` order, from the children's own subtree peaks.  While a child
/// subtree is traversed, the files of the siblings not yet processed stay
/// resident.
#[inline]
fn fold_peak(tree: &Tree, i: NodeId, children: &[NodeId], peak: &[Size]) -> Size {
    let mut best = tree.mem_req(i);
    let mut remaining = tree.children_file_sum(i);
    for &c in children {
        remaining -= tree.f(c);
        best = best.max(peak[c] + remaining);
    }
    best
}

/// Compute Liu's **best postorder** traversal of `tree` and its peak memory.
///
/// Children of every node are visited in increasing order of
/// `peak(subtree) − f(child)` (the top-down mirror of Liu's rule); ties are
/// broken by increasing subtree peak and then by node id, which makes the
/// result deterministic.
///
/// Runs in `O(p log p)` time.
///
/// ```
/// use treemem::{TreeBuilder, postorder::best_postorder};
/// let mut b = TreeBuilder::new();
/// let root = b.add_root(0, 0);
/// let a = b.add_child(root, 2, 0);
/// b.add_child(a, 10, 0);
/// let c = b.add_child(root, 3, 0);
/// b.add_child(c, 4, 0);
/// let tree = b.build().unwrap();
/// let result = best_postorder(&tree);
/// assert_eq!(result.peak, result.traversal.peak_memory(&tree).unwrap());
/// ```
pub fn best_postorder(tree: &Tree) -> PostOrderResult {
    best_postorder_until(tree, &mut Probe::new(None)).expect("no stop probe, cannot be cancelled")
}

/// [`best_postorder`], polling `probe` once per
/// [`STOP_CHECK_INTERVAL`](crate::solver::STOP_CHECK_INTERVAL) nodes of
/// each pass; `None` when it fired.
pub(crate) fn best_postorder_until(tree: &Tree, probe: &mut Probe<'_>) -> Option<PostOrderResult> {
    // `order[starts[i]..starts[i + 1]]` holds the children of `i`, sorted in
    // place once their subtree peaks are known.  A node's sort key only
    // depends on its own subtree, so one bottom-up pass both orders the
    // children and computes the peaks.
    let mut starts = Vec::with_capacity(tree.len() + 1);
    let mut order = Vec::with_capacity(tree.len());
    for i in tree.nodes() {
        starts.push(order.len());
        order.extend_from_slice(tree.children(i));
    }
    starts.push(order.len());
    let mut peak = vec![0 as Size; tree.len()];
    for &i in tree.dfs_bottomup().iter() {
        if probe.stopped() {
            return None;
        }
        let children = &mut order[starts[i]..starts[i + 1]];
        // The key ends in the node id, so the order is total and the
        // unstable sort returns what a stable one would.
        children.sort_unstable_by(|&a, &b| {
            let ka = peak[a] - tree.f(a);
            let kb = peak[b] - tree.f(b);
            ka.cmp(&kb)
                .then_with(|| peak[a].cmp(&peak[b]))
                .then_with(|| a.cmp(&b))
        });
        peak[i] = fold_peak(tree, i, children, &peak);
    }
    let traversal = emit(tree, probe, |i| &order[starts[i]..starts[i + 1]])?;
    Some(PostOrderResult {
        traversal,
        peak: peak[tree.root()],
        subtree_peaks: peak,
    })
}

/// The postorder that runs every node's children in `children(i)` order,
/// root first.
fn emit<'o>(
    tree: &Tree,
    probe: &mut Probe<'_>,
    children: impl Fn(NodeId) -> &'o [NodeId],
) -> Option<Traversal> {
    let mut order = Vec::with_capacity(tree.len());
    let mut stack = vec![tree.root()];
    #[cfg(test)]
    let mut capacities = [order.capacity(), stack.capacity()];
    while let Some(i) = stack.pop() {
        if probe.stopped() {
            return None;
        }
        order.push(i);
        stack.extend(children(i).iter().rev());
        #[cfg(test)]
        growth::track(&mut capacities, [order.capacity(), stack.capacity()]);
    }
    Some(Traversal::new(order))
}

/// Compute the postorder traversal that follows the *stored* child order of
/// the tree (the "natural" postorder), without Liu's reordering.
///
/// This is the ordering a solver would use if it did not sort the children;
/// it is never better than [`best_postorder`] and is used as a baseline in
/// the experiments.
pub fn natural_postorder(tree: &Tree) -> PostOrderResult {
    natural_postorder_until(tree, &mut Probe::new(None))
        .expect("no stop probe, cannot be cancelled")
}

/// [`natural_postorder`], polling `probe` as [`best_postorder_until`] does.
pub(crate) fn natural_postorder_until(
    tree: &Tree,
    probe: &mut Probe<'_>,
) -> Option<PostOrderResult> {
    // The natural postorder is the tree's own preorder; its reverse visits
    // every node after its children, which is all the peak pass needs.
    let traversal = emit(tree, probe, |i| tree.children(i))?;
    let mut peak = vec![0 as Size; tree.len()];
    for &i in traversal.order().iter().rev() {
        if probe.stopped() {
            return None;
        }
        peak[i] = fold_peak(tree, i, tree.children(i), &peak);
    }
    Some(PostOrderResult {
        traversal,
        peak: peak[tree.root()],
        subtree_peaks: peak,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeBuilder;

    #[test]
    fn single_node() {
        let mut b = TreeBuilder::new();
        b.add_root(3, 4);
        let tree = b.build().unwrap();
        let result = best_postorder(&tree);
        assert_eq!(result.peak, 7);
        assert_eq!(result.traversal.order(), &[0]);
    }

    #[test]
    fn chain_peak_is_max_mem_req() {
        let mut b = TreeBuilder::new();
        let mut prev = b.add_root(1, 0);
        for f in [5, 2, 9, 3] {
            prev = b.add_child(prev, f, 0);
        }
        let tree = b.build().unwrap();
        let result = best_postorder(&tree);
        // A chain has a unique traversal; its peak is the max MemReq.
        assert_eq!(result.peak, tree.max_mem_req());
        assert_eq!(result.peak, result.traversal.peak_memory(&tree).unwrap());
    }

    #[test]
    fn children_are_reordered_to_reduce_the_peak() {
        // Two branches under the root:
        //   branch A: file 1, subtree peak 1 + 100 = 101 (leaf child of size 100)
        //   branch B: file 50, subtree peak 50 (leaf)
        // Processing A first: max(101 + 50, 50) = 151? No: while A is
        // traversed, B's file (50) is resident -> 151; B first: while B is
        // traversed (peak 50) A's file 1 is resident -> max(51, 101) = 101.
        let mut b = TreeBuilder::new();
        let r = b.add_root(0, 0);
        let a = b.add_child(r, 1, 0);
        b.add_child(a, 100, 0);
        b.add_child(r, 50, 0);
        let tree = b.build().unwrap();
        let best = best_postorder(&tree);
        assert_eq!(best.peak, 101);
        // The natural order (A first) is worse.
        let natural = natural_postorder(&tree);
        assert_eq!(natural.peak, 151);
        assert!(natural.peak >= best.peak);
        // Peaks match a direct evaluation of the produced traversals.
        assert_eq!(best.peak, best.traversal.peak_memory(&tree).unwrap());
        assert_eq!(natural.peak, natural.traversal.peak_memory(&tree).unwrap());
    }

    #[test]
    fn traversal_is_a_genuine_postorder() {
        // Every subtree must occupy a contiguous range of the traversal.
        let mut b = TreeBuilder::new();
        let r = b.add_root(0, 0);
        for _ in 0..3 {
            let c = b.add_child(r, 2, 1);
            for _ in 0..2 {
                let d = b.add_child(c, 3, 1);
                b.add_child(d, 1, 0);
            }
        }
        let tree = b.build().unwrap();
        let result = best_postorder(&tree);
        let pos = result.traversal.positions(tree.len()).unwrap();
        let sizes = tree.subtree_sizes();
        for i in tree.nodes() {
            // All descendants must be within [pos[i], pos[i] + size - 1].
            let lo = pos[i];
            let hi = lo + sizes[i] - 1;
            let mut stack = vec![i];
            while let Some(v) = stack.pop() {
                assert!(pos[v] >= lo && pos[v] <= hi);
                stack.extend_from_slice(tree.children(v));
            }
        }
    }

    #[test]
    fn best_postorder_is_never_worse_than_natural() {
        // A couple of handcrafted shapes.
        for branches in 2..6 {
            let mut b = TreeBuilder::new();
            let r = b.add_root(0, 0);
            for k in 0..branches {
                let c = b.add_child(r, (k as Size) + 1, 0);
                b.add_child(c, 10 * ((branches - k) as Size), 0);
            }
            let tree = b.build().unwrap();
            let best = best_postorder(&tree);
            let natural = natural_postorder(&tree);
            assert!(best.peak <= natural.peak);
        }
    }
}
