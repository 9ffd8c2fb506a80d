//! Adversarial tree families used in the proofs of the paper.
//!
//! * [`harpoon`] and [`harpoon_tower`] — the family of Theorem 1, on which
//!   the best postorder traversal needs arbitrarily more memory than the
//!   optimal traversal;
//! * [`two_partition_gadget`] — the reduction of Theorem 2, which shows that
//!   the MinIO problem is NP-complete (the minimum I/O volume of the gadget
//!   is `S/2` exactly when the embedded 2-Partition instance has a solution).

use crate::tree::{NodeId, Size, Tree, TreeBuilder};

/// Build the one-level *harpoon* tree of Theorem 1 (Figure 3(a)).
///
/// The root (with an empty input file) has `branches` identical branches.
/// Each branch is a chain of three nodes with input files `big / branches`,
/// `eps` and `big`; all execution files are zero.
///
/// * The best postorder must keep the `big / branches` files of the pending
///   branches while it descends into the first one, so it needs
///   `big + eps + (branches − 1) · big / branches` memory.
/// * The optimal traversal first turns every `big / branches` file into an
///   `eps` file (processing all first-level nodes), and only then descends
///   one branch at a time: it needs `big + branches · eps` memory.
///
/// # Panics
/// Panics if `branches == 0`, if `big` is not a positive multiple of
/// `branches`, or if `eps <= 0`.
pub fn harpoon(branches: usize, big: Size, eps: Size) -> Tree {
    harpoon_tower(branches, big, eps, 1)
}

/// Build the nested harpoon ("tower") of Theorem 1 (Figure 3(b)): the
/// one-level harpoon in which every large leaf is recursively replaced by
/// another harpoon, `levels` times.
///
/// As the number of levels grows, the best postorder keeps
/// `(branches − 1) · big / branches` pending memory **per level**, while the
/// optimal traversal only accumulates `(branches − 1) · eps` per level; the
/// ratio between the two therefore grows without bound, which is the
/// statement of Theorem 1.  (`exp theorem1` in `crates/bench` measures the
/// ratio with the exact algorithms.)
///
/// # Panics
/// Panics if `branches == 0`, `levels == 0`, if `big` is not a positive
/// multiple of `branches`, or if `eps <= 0`.
pub fn harpoon_tower(branches: usize, big: Size, eps: Size, levels: usize) -> Tree {
    assert!(branches > 0, "harpoon needs at least one branch");
    assert!(levels > 0, "harpoon tower needs at least one level");
    assert!(
        big > 0 && big % branches as Size == 0,
        "`big` must be a positive multiple of `branches`"
    );
    assert!(eps > 0, "`eps` must be positive");
    let prong = big / branches as Size;
    let mut builder = TreeBuilder::new();
    let root = builder.add_root(0, 0);
    // Frontier of "large" nodes to expand into one more harpoon level. The
    // root plays that role for the first level (its input file is 0 instead
    // of `big`, which only lowers every bound by the same constant).
    let mut expand: Vec<NodeId> = vec![root];
    for _ in 0..levels {
        let mut next = Vec::with_capacity(expand.len() * branches);
        for &top in &expand {
            for _ in 0..branches {
                let u = builder.add_child(top, prong, 0);
                let v = builder.add_child(u, eps, 0);
                let w = builder.add_child(v, big, 0);
                next.push(w);
            }
        }
        expand = next;
    }
    builder
        .build()
        .expect("harpoon construction is always a valid tree")
}

/// Peak memory of the best postorder on [`harpoon`], in closed form:
/// `big + eps + (branches − 1) · big / branches`.
pub fn harpoon_postorder_peak(branches: usize, big: Size, eps: Size) -> Size {
    big + eps + (branches as Size - 1) * (big / branches as Size)
}

/// Peak memory of the optimal traversal on [`harpoon`], in closed form:
/// `big + branches · eps`.
pub fn harpoon_optimal_peak(branches: usize, big: Size, eps: Size) -> Size {
    big + branches as Size * eps
}

/// Peak memory of the best postorder on [`harpoon_tower`], in closed form.
///
/// For a single level this is [`harpoon_postorder_peak`].  For deeper towers
/// the postorder peak is reached while an internal `big` node (the root of a
/// nested harpoon, whose memory requirement is `2·big`) is processed with the
/// `(branches − 1)` pending `big / branches` files of every level above it:
/// `2·big + (levels − 1)·(branches − 1)·big / branches`.  The optimal
/// traversal stays close to `2·big`, so the ratio between the two grows
/// without bound with the number of levels, which is the statement of
/// Theorem 1.
pub fn harpoon_tower_postorder_peak(branches: usize, big: Size, eps: Size, levels: usize) -> Size {
    assert!(levels >= 1);
    if levels == 1 {
        harpoon_postorder_peak(branches, big, eps)
    } else {
        let prong = big / branches as Size;
        2 * big + (levels as Size - 1) * (branches as Size - 1) * prong
    }
}

/// The NP-completeness gadget of Theorem 2 (Figure 4), parameterised by a
/// 2-Partition instance.
#[derive(Debug, Clone)]
pub struct TwoPartitionGadget {
    /// The tree of Figure 4 (2·n + 3 nodes).
    pub tree: Tree,
    /// Main-memory size of the reduction: `M = 2·S` where `S = Σ aᵢ`.
    pub memory: Size,
    /// Target I/O volume: `S / 2`.  The MinIO instance `(tree, memory)` has a
    /// solution with I/O volume `≤ io_bound` iff the 2-Partition instance has
    /// a solution.
    pub io_bound: Size,
    /// Node ids of the first-level nodes `T₁…Tₙ` carrying the `aᵢ` files.
    pub item_nodes: Vec<NodeId>,
    /// Node id of `T_big` (input file of size `S`).
    pub big_node: NodeId,
}

/// Build the 2-Partition gadget of Theorem 2.
///
/// The root `T_in` produces one file of size `aᵢ` per item plus one file of
/// size `S` for `T_big`; every first-level node has a single leaf child whose
/// file has size `S` (for the items) or `S/2` (for `T_big`).  With
/// `M = 2S`, processing `T_big` first requires evicting exactly `S/2` worth
/// of `aᵢ` files, which is possible with I/O volume `S/2` iff the `aᵢ` can be
/// split into two halves of equal size.
///
/// # Panics
/// Panics if `values` is empty, contains a non-positive value, or if the sum
/// of the values is odd (2-Partition instances are normalised to even sums).
pub fn two_partition_gadget(values: &[Size]) -> TwoPartitionGadget {
    assert!(!values.is_empty(), "2-Partition instance must not be empty");
    assert!(
        values.iter().all(|&a| a > 0),
        "2-Partition values must be positive"
    );
    let total: Size = values.iter().sum();
    assert!(total % 2 == 0, "2-Partition instance must have an even sum");
    let mut builder = TreeBuilder::new();
    let root = builder.add_root(0, 0);
    let mut item_nodes = Vec::with_capacity(values.len());
    for &a in values {
        let t = builder.add_child(root, a, 0);
        builder.add_child(t, total, 0);
        item_nodes.push(t);
    }
    let big_node = builder.add_child(root, total, 0);
    builder.add_child(big_node, total / 2, 0);
    let tree = builder
        .build()
        .expect("gadget construction is always a valid tree");
    TwoPartitionGadget {
        tree,
        memory: 2 * total,
        io_bound: total / 2,
        item_nodes,
        big_node,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minmem::min_mem;
    use crate::postorder::best_postorder;

    #[test]
    fn harpoon_has_expected_size_and_weights() {
        let tree = harpoon(4, 400, 1);
        assert_eq!(tree.len(), 1 + 4 * 3);
        assert_eq!(tree.children(tree.root()).len(), 4);
        let mut prong = 0;
        let mut eps = 0;
        let mut big = 0;
        for i in tree.nodes() {
            match tree.f(i) {
                100 => prong += 1,
                1 => eps += 1,
                400 => big += 1,
                0 => assert_eq!(i, tree.root()),
                other => panic!("unexpected file size {other}"),
            }
        }
        assert_eq!((prong, eps, big), (4, 4, 4));
    }

    #[test]
    fn harpoon_closed_forms_match_the_algorithms() {
        for branches in [2usize, 3, 5] {
            let big = 60;
            let eps = 1;
            let tree = harpoon(branches, big, eps);
            let po = best_postorder(&tree);
            let opt = min_mem(&tree);
            assert_eq!(
                po.peak,
                harpoon_postorder_peak(branches, big, eps),
                "branches={branches}"
            );
            assert_eq!(
                opt.peak,
                harpoon_optimal_peak(branches, big, eps),
                "branches={branches}"
            );
        }
    }

    #[test]
    fn tower_postorder_closed_form_matches_the_algorithm() {
        for branches in [2usize, 3, 4] {
            for levels in 1..=3 {
                let big = 1200;
                let eps = 1;
                let tree = harpoon_tower(branches, big, eps, levels);
                let po = best_postorder(&tree);
                assert_eq!(
                    po.peak,
                    harpoon_tower_postorder_peak(branches, big, eps, levels),
                    "branches={branches} levels={levels}"
                );
            }
        }
    }

    #[test]
    fn tower_ratio_grows_with_the_number_of_levels() {
        // From two levels onwards the optimal peak stays close to
        // 2 * big (dominated by the largest MemReq) while the postorder peak
        // keeps accumulating (branches - 1) * big / branches per level, so
        // the ratio grows without bound (Theorem 1).
        let branches = 4;
        let big = 4000;
        let eps = 1;
        let mut previous_ratio = 0.0;
        for levels in 2..5 {
            let tree = harpoon_tower(branches, big, eps, levels);
            let po = best_postorder(&tree);
            let opt = min_mem(&tree);
            let ratio = po.peak as f64 / opt.peak as f64;
            assert!(
                ratio > previous_ratio,
                "levels={levels}: ratio {ratio} should grow"
            );
            previous_ratio = ratio;
        }
        assert!(previous_ratio > 1.9);
    }

    #[test]
    fn tower_size_grows_geometrically() {
        let t1 = harpoon_tower(3, 300, 1, 1);
        let t2 = harpoon_tower(3, 300, 1, 2);
        assert_eq!(t1.len(), 1 + 3 * 3);
        assert_eq!(t2.len(), 1 + 3 * 3 + 9 * 3);
    }

    #[test]
    fn gadget_structure_matches_figure_4() {
        let gadget = two_partition_gadget(&[3, 5, 2, 4, 6, 4]);
        let tree = &gadget.tree;
        let total = 24;
        assert_eq!(tree.len(), 2 * 6 + 3);
        assert_eq!(gadget.memory, 2 * total);
        assert_eq!(gadget.io_bound, total / 2);
        assert_eq!(tree.mem_req(tree.root()), total + total); // the aᵢ plus T_big
        assert_eq!(tree.max_mem_req(), 2 * total);
        // Item nodes carry the aᵢ and have a single child of size S.
        for (&node, &a) in gadget.item_nodes.iter().zip([3, 5, 2, 4, 6, 4].iter()) {
            assert_eq!(tree.f(node), a);
            assert_eq!(tree.children(node).len(), 1);
            assert_eq!(tree.f(tree.children(node)[0] as NodeId), total);
        }
        assert_eq!(tree.f(gadget.big_node), total);
        assert_eq!(
            tree.f(tree.children(gadget.big_node)[0] as NodeId),
            total / 2
        );
    }

    #[test]
    #[should_panic(expected = "even sum")]
    fn gadget_rejects_odd_sums() {
        two_partition_gadget(&[1, 2]);
    }

    #[test]
    #[should_panic(expected = "positive multiple")]
    fn harpoon_rejects_indivisible_big_files() {
        harpoon(3, 100, 1);
    }
}
