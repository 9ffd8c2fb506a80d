//! Model variants of Section III-C of the paper and the transformations that
//! reduce them to the canonical model.
//!
//! * **Bottom-up traversals of in-trees** — assembly trees are processed from
//!   the leaves to the root.  A bottom-up traversal of the tree seen as an
//!   in-tree is valid iff its reverse is a valid top-down traversal of the
//!   same tree seen as an out-tree, and both have the same peak memory
//!   ([`bottom_up_memory_profile`], [`bottom_up_peak`]).
//! * **Model with replacement** (pebble-game style, Figure 1) — processing a
//!   node needs `max(f(i), Σ f(children))`; it is simulated by the canonical
//!   model with `n(i) = −min(f(i), Σ f(children))`
//!   ([`from_replacement_model`]).
//! * **Liu's model** (Figure 2) — every node `x` carries a processing peak
//!   `n(x⁺)` and a storage requirement `n(x⁻)`; it is simulated with
//!   `f(x) = n(x⁻)` and `n(x) = n(x⁺) − n(x⁻) − Σ_{child c} n(c⁻)`
//!   ([`from_liu_model`]).

use crate::error::{TraversalError, TreeError};
use crate::traversal::{MemoryProfile, MemoryStep, Traversal};
use crate::tree::{NodeId, Size, Tree};

/// Memory requirement of node `i` in the *replacement* model:
/// `max(f(i), Σ f(children))`.
pub fn replacement_mem_req(tree: &Tree, i: NodeId) -> Size {
    tree.f(i).max(tree.children_file_sum(i))
}

/// Convert a tree whose nodes follow the replacement model (the execution
/// files of the input tree are ignored) into an equivalent tree in the
/// canonical model, by giving every node the execution weight
/// `n(i) = −min(f(i), Σ f(children))` as in Figure 1 of the paper.
///
/// The peak memory of any traversal of the returned tree equals the peak of
/// the same traversal of the input under replacement semantics.
pub fn from_replacement_model(tree: &Tree) -> Tree {
    let weights: Vec<Size> = tree
        .nodes()
        .map(|i| -tree.f(i).min(tree.children_file_sum(i)))
        .collect();
    tree.with_weights(tree.files().to_vec(), weights)
}

/// Build a tree in the canonical model from an instance of Liu's model
/// (Figure 2 of the paper).
///
/// `parents` describes the topology (as in [`Tree::from_parents`]),
/// `peaks[x]` is `n(x⁺)` (memory needed while the column of `x` is
/// processed) and `residuals[x]` is `n(x⁻)` (memory retained by the subtree
/// of `x` after it has been processed).
///
/// In the returned tree, the bottom-up processing of node `x` uses exactly
/// `n(x⁺)` memory within its subtree and leaves exactly `n(x⁻)` resident,
/// so MinMemory on the returned tree solves Liu's original problem.
pub fn from_liu_model(
    parents: &[Option<NodeId>],
    peaks: &[Size],
    residuals: &[Size],
) -> Result<Tree, TreeError> {
    if parents.len() != peaks.len() || parents.len() != residuals.len() {
        return Err(TreeError::LengthMismatch {
            parents: parents.len(),
            files: residuals.len(),
            weights: peaks.len(),
        });
    }
    let files: Vec<Size> = residuals.to_vec();
    // n(x) = n(x+) - n(x-) - sum over children of n(c-).
    let mut children_residual = vec![0 as Size; parents.len()];
    for (i, &par) in parents.iter().enumerate() {
        if let Some(par) = par {
            if par < parents.len() {
                children_residual[par] += residuals[i];
            }
        }
    }
    let weights: Vec<Size> = (0..parents.len())
        .map(|i| peaks[i] - residuals[i] - children_residual[i])
        .collect();
    Tree::from_parents(parents, &files, &weights)
}

/// Check a **bottom-up** traversal (children before parents, the natural
/// order of an assembly tree) and compute its step-by-step memory usage.
///
/// Resident memory between steps is the total size of the output files of
/// completed subtrees whose parent has not been processed yet; while node `i`
/// executes, its execution file and its own output file are resident as well.
pub fn bottom_up_memory_profile(
    tree: &Tree,
    traversal: &Traversal,
) -> Result<MemoryProfile, TraversalError> {
    let pos = traversal.positions(tree.len())?;
    for i in tree.nodes() {
        for c in tree.children(i).iter().map(|&c| c as NodeId) {
            if pos[c] >= pos[i] {
                return Err(TraversalError::PrecedenceViolation { node: i, parent: c });
            }
        }
    }
    let mut resident: Size = 0;
    let mut steps = Vec::with_capacity(tree.len());
    for &i in traversal.order() {
        let during = resident + tree.n(i) + tree.f(i);
        let after = resident - tree.children_file_sum(i) + tree.f(i);
        steps.push(MemoryStep {
            node: i,
            during,
            after,
        });
        resident = after;
    }
    Ok(MemoryProfile { steps })
}

/// Peak memory of a bottom-up traversal; see [`bottom_up_memory_profile`].
pub fn bottom_up_peak(tree: &Tree, traversal: &Traversal) -> Result<Size, TraversalError> {
    Ok(bottom_up_memory_profile(tree, traversal)?.peak())
}

/// Convert a valid top-down traversal into the equivalent bottom-up
/// traversal (and vice versa): simply reverse the order.  Provided for
/// readability at call sites.
pub fn reverse_orientation(traversal: &Traversal) -> Traversal {
    traversal.reversed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minmem::min_mem;
    use crate::postorder::best_postorder;
    use crate::tree::TreeBuilder;

    fn sample_tree() -> Tree {
        let mut b = TreeBuilder::new();
        let r = b.add_root(2, 1);
        let a = b.add_child(r, 3, 2);
        b.add_child(a, 7, 1);
        b.add_child(a, 5, 0);
        let c = b.add_child(r, 4, 0);
        let d = b.add_child(c, 6, 3);
        b.add_child(d, 2, 2);
        b.build().unwrap()
    }

    #[test]
    fn replacement_model_semantics() {
        let tree = sample_tree();
        let converted = from_replacement_model(&tree);
        for i in converted.nodes() {
            assert_eq!(converted.mem_req(i), replacement_mem_req(&tree, i));
        }
        // The transformation never produces a positive execution file.
        assert!(converted.weights().iter().all(|&n| n <= 0));
    }

    #[test]
    fn replacement_transformation_matches_figure_1() {
        // Figure 1: a root with children of sizes 1 and 2, the child of size 1
        // having children of sizes 1 and 3, etc.  We only check the generic
        // property: MemReq becomes max(f, sum of children).
        let mut b = TreeBuilder::new();
        let a = b.add_root(1, 0);
        let bn = b.add_child(a, 1, 0);
        b.add_child(a, 2, 0);
        b.add_child(bn, 1, 0);
        b.add_child(bn, 3, 0);
        let tree = b.build().unwrap();
        let converted = from_replacement_model(&tree);
        assert_eq!(converted.n(a), -1); // min(1, 1 + 2)
        assert_eq!(converted.n(bn), -1); // min(1, 1 + 3)
        assert_eq!(converted.mem_req(a), 3);
        assert_eq!(converted.mem_req(bn), 4);
    }

    #[test]
    fn liu_model_round_trip_semantics() {
        // Chain c -> b -> a (a is the leaf; bottom-up processes a, b, c).
        let parents = [None, Some(0), Some(1)];
        // peaks (n+) and residuals (n-) chosen arbitrarily but consistent
        // (peak >= residual, peak >= sum of children residuals).
        let peaks = [9, 7, 4];
        let residuals = [1, 3, 2];
        let tree = from_liu_model(&parents, &peaks, &residuals).unwrap();
        // Bottom-up traversal: leaf (2), then 1, then the root 0.
        let bottom_up = Traversal::new(vec![2, 1, 0]);
        let profile = bottom_up_memory_profile(&tree, &bottom_up).unwrap();
        // During each node, memory within the subtree is exactly the peak n+;
        // after each node, exactly the residual n-.
        assert_eq!(profile.steps[0].during, peaks[2]);
        assert_eq!(profile.steps[0].after, residuals[2]);
        assert_eq!(profile.steps[1].during, peaks[1]);
        assert_eq!(profile.steps[1].after, residuals[1]);
        assert_eq!(profile.steps[2].during, peaks[0]);
        assert_eq!(profile.steps[2].after, residuals[0]);
    }

    #[test]
    fn liu_model_rejects_mismatched_lengths() {
        assert!(from_liu_model(&[None], &[1, 2], &[1]).is_err());
    }

    #[test]
    fn bottom_up_and_top_down_peaks_agree() {
        let tree = sample_tree();
        for result in [min_mem(&tree).traversal, best_postorder(&tree).traversal] {
            let top_down_peak = result.peak_memory(&tree).unwrap();
            let bottom_up = reverse_orientation(&result);
            let bottom_up_peak = bottom_up_peak(&tree, &bottom_up).unwrap();
            assert_eq!(top_down_peak, bottom_up_peak);
        }
    }

    #[test]
    fn bottom_up_checker_rejects_wrong_orders() {
        let tree = sample_tree();
        let top_down = min_mem(&tree).traversal;
        // A top-down order is not a valid bottom-up order (root first).
        assert!(bottom_up_memory_profile(&tree, &top_down).is_err());
    }
}
