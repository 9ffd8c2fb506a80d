//! Node amalgamation and assembly-tree construction (Section VI-B of the
//! paper).
//!
//! The elimination tree has one node per column, which makes frontal
//! matrices too small for efficient dense kernels; real multifrontal codes
//! therefore *amalgamate* columns into supernode-like groups.  Following the
//! paper:
//!
//! * **perfect amalgamations** are always applied: a column that is the only
//!   child of its parent and whose column count exceeds the parent's by
//!   exactly one is merged into it (the two columns have the same structure
//!   below the diagonal);
//! * **relaxed amalgamations** are bounded by a parameter (1, 2, 4 or 16 in
//!   the paper): a node may absorb its *densest* child group as long as the
//!   resulting group does not exceed the allowance.
//!
//! Every assembly node carries the weights used in the paper's experiments:
//! the execution weight `η² + 2η(µ − 1)` (the frontal matrix minus the
//! contribution block) and the input-file weight `(µ − 1)²` (the contribution
//! block sent to the parent), where `η` is the number of amalgamated columns
//! and `µ` the column count of the highest column of the group.
//!
//! The groups are stored in the supernodal layout: one offset array
//! (`super_ptr`) over one array of `u32` columns, each group's columns
//! decreasing from its representative ([`AssemblyTree::group`]), built by a
//! counting sort — no `Vec` per supernode.

use treemem::tree::Size;
use treemem::Tree;

use crate::etree::EliminationTree;

/// An assembly tree: the amalgamated elimination tree together with the
/// weighted [`treemem::Tree`] used by the traversal algorithms.
#[derive(Debug, Clone)]
pub struct AssemblyTree {
    /// The weighted tree (in the out-tree orientation used by `treemem`;
    /// the input file of a node is the contribution block it exchanges with
    /// its parent, and the root has an empty input file).
    pub tree: Tree,
    /// Supernode `g`'s columns are `columns[super_ptr[g]..super_ptr[g + 1]]`
    /// (see [`AssemblyTree::group`]): the supernodal layout, one offset
    /// array and one column array for every group.
    super_ptr: Vec<usize>,
    /// The columns of every group, group after group, each group's highest
    /// column first.
    columns: Vec<u32>,
    /// `η` of every assembly node (number of amalgamated columns).
    pub eta: Vec<usize>,
    /// `µ` of every assembly node (column count of the highest column).
    pub mu: Vec<usize>,
}

impl AssemblyTree {
    /// Number of assembly nodes.
    pub fn len(&self) -> usize {
        self.super_ptr.len() - 1
    }

    /// Whether the assembly tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The columns of the original (permuted) matrix amalgamated into
    /// assembly node `g`, decreasing: the first is the group's
    /// representative, closest to the root of the elimination tree.  Empty
    /// for the virtual root of a forest.
    pub fn group(&self, g: usize) -> &[u32] {
        &self.columns[self.super_ptr[g]..self.super_ptr[g + 1]]
    }

    /// Heap footprint in bytes of the groups and their `η` and `µ` (the
    /// weighted tree reports its own, 36 bytes a node): 24 bytes a node —
    /// its `super_ptr` offset, `η` and `µ` — plus one more offset and 4
    /// bytes a column.
    pub fn groups_heap_bytes(&self) -> u64 {
        use std::mem::size_of;
        ((self.super_ptr.len() + self.eta.len() + self.mu.len()) * size_of::<usize>()
            + self.columns.len() * size_of::<u32>()) as u64
    }

    /// Ratio of assembly nodes to original columns (1.0 means no
    /// amalgamation happened).
    pub fn compression(&self) -> f64 {
        let columns: usize = self.eta.iter().sum();
        self.len() as f64 / columns as f64
    }
}

/// Build the assembly tree of an elimination forest with the given column
/// counts and relaxed-amalgamation allowance (`max_amalgamation` is the
/// maximum number of columns per assembly node for *relaxed* merges; perfect
/// merges ignore the allowance, as in the paper).
///
/// When the elimination structure is a forest (reducible matrix), a virtual
/// root with empty files ties the trees together so the result is a single
/// tree, which is what the traversal algorithms expect.
///
/// # Panics
/// Panics if `counts` does not have one entry per column or if
/// `max_amalgamation` is zero.
pub fn amalgamate(
    etree: &EliminationTree,
    counts: &[usize],
    max_amalgamation: usize,
) -> AssemblyTree {
    let n = etree.len();
    assert_eq!(counts.len(), n, "one column count per column expected");
    assert!(
        max_amalgamation >= 1,
        "the amalgamation allowance must be at least 1"
    );

    // Union-find: every column points to the representative (highest column)
    // of its group.  Columns are `u32`s, as the elimination tree's are.
    let mut representative: Vec<u32> = (0..n as u32).collect();
    let mut group_size: Vec<u32> = vec![1; n];
    let children = etree.children();

    fn find(representative: &mut [u32], mut x: u32) -> u32 {
        while representative[x as usize] != x {
            representative[x as usize] = representative[representative[x as usize] as usize];
            x = representative[x as usize];
        }
        x
    }

    // Process columns bottom-up (children have smaller indices than their
    // parent in an elimination tree).
    for p in 0..n {
        let p_children = children.of(p);
        if p_children.is_empty() {
            continue;
        }
        // Perfect amalgamation: single child with identical structure below
        // the diagonal.
        if let &[c] = p_children {
            if counts[c as usize] == counts[p] + 1 {
                let child_group = find(&mut representative, c) as usize;
                representative[child_group] = p as u32;
                group_size[p] += group_size[child_group];
                continue;
            }
        }
        // Relaxed amalgamation: absorb the densest child group while the
        // allowance permits.
        loop {
            let p_group = find(&mut representative, p as u32) as usize;
            if group_size[p_group] as usize >= max_amalgamation {
                break;
            }
            // Child groups not yet merged into p, pick the densest (largest
            // column count of its representative column; a group reached
            // through two children is the same candidate twice).
            let candidate = p_children
                .iter()
                .map(|&c| find(&mut representative, c) as usize)
                .filter(|&g| g != p_group)
                .max_by_key(|&g| (counts[g], g));
            let Some(candidate) = candidate else { break };
            if (group_size[p_group] + group_size[candidate]) as usize > max_amalgamation {
                break;
            }
            representative[candidate] = p_group as u32;
            group_size[p_group] += group_size[candidate];
        }
    }

    // Scratch is dropped as soon as it is spent: on a 10⁶-column tree it is
    // most of what this function holds at its peak.
    drop((children, group_size));

    // Number the groups in decreasing order of their representative, the
    // highest column, and count their columns.
    const UNNUMBERED: u32 = u32::MAX;
    let mut group_of_column = vec![UNNUMBERED; n];
    let mut group_index_of_rep = vec![UNNUMBERED; n];
    let mut eta: Vec<usize> = Vec::new();
    for column in (0..n).rev() {
        let rep = find(&mut representative, column as u32) as usize;
        if group_index_of_rep[rep] == UNNUMBERED {
            group_index_of_rep[rep] = eta.len() as u32;
            eta.push(0);
        }
        let g = group_index_of_rep[rep];
        eta[g as usize] += 1;
        group_of_column[column] = g;
    }
    drop((representative, group_index_of_rep));
    let num_groups = eta.len();
    // A counting sort into one column array: `super_ptr[g]` starts as the
    // end of group `g`, and scattering the columns in increasing order
    // moves it down to the group's start, so each group's columns land in
    // decreasing order, its representative first.  A forest's virtual root
    // gets the empty group at the end.
    let mut super_ptr = Vec::with_capacity(num_groups + 2);
    let mut end = 0;
    for &count in &eta {
        end += count;
        super_ptr.push(end);
    }
    super_ptr.push(n);
    let mut columns = vec![0u32; n];
    for (column, &g) in group_of_column.iter().enumerate() {
        let slot = &mut super_ptr[g as usize];
        *slot -= 1;
        columns[*slot] = column as u32;
    }

    // Assembly-tree parents: the group of the elimination-tree parent of the
    // group's representative, built once; a forest's roots are tied under a
    // virtual root appended in place.
    let mut parents: Vec<Option<usize>> = Vec::with_capacity(num_groups + 1);
    for (g, &start) in super_ptr[..num_groups].iter().enumerate() {
        let representative_column = columns[start] as usize;
        let mut up = etree.parent(representative_column);
        // Skip ancestors that landed in the same group (cannot happen for the
        // representative, which is the highest column of its group, but stay
        // defensive).
        while let Some(candidate) = up {
            if group_of_column[candidate] as usize != g {
                break;
            }
            up = etree.parent(candidate);
        }
        parents.push(up.map(|column| group_of_column[column] as usize));
    }
    drop(group_of_column);
    let forest = parents.iter().filter(|p| p.is_none()).count() > 1;
    if forest {
        for parent in &mut parents {
            parent.get_or_insert(num_groups);
        }
        parents.push(None);
    }

    // Weights; the virtual root's are empty, with `µ = 1`.
    let mut mu: Vec<usize> = super_ptr[..num_groups]
        .iter()
        .map(|&start| counts[columns[start] as usize])
        .collect();
    let node_weight = |g: usize| -> Size {
        let eta = eta[g] as Size;
        let mu = mu[g] as Size;
        eta * eta + 2 * eta * (mu - 1)
    };
    let edge_weight = |g: usize| -> Size {
        let mu = mu[g] as Size;
        (mu - 1) * (mu - 1)
    };
    let virtual_root_weight = forest.then_some(0);
    let mut files: Vec<Size> = (0..num_groups)
        .map(edge_weight)
        .chain(virtual_root_weight)
        .collect();
    let mut weights: Vec<Size> = (0..num_groups)
        .map(node_weight)
        .chain(virtual_root_weight)
        .collect();
    if forest {
        super_ptr.push(n);
        eta.push(0);
        mu.push(1);
    }

    // The root exchanges no contribution block with a parent.
    for (g, parent) in parents.iter().enumerate() {
        if parent.is_none() {
            files[g] = 0;
        }
    }
    // Guard against degenerate zero-weight nodes produced by empty matrices.
    for w in weights.iter_mut() {
        if *w < 0 {
            *w = 0;
        }
    }

    let tree = Tree::from_parents(&parents, &files, &weights)
        .expect("amalgamation always produces a valid tree");
    AssemblyTree {
        tree,
        super_ptr,
        columns,
        eta,
        mu,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::colcount::column_counts;
    use crate::etree::elimination_tree;
    use ordering::minimum_degree;
    use sparsemat::gen::{banded, grid2d_5pt};
    use sparsemat::SparsePattern;

    fn assembly_for(pattern: &SparsePattern, allowance: usize) -> AssemblyTree {
        let etree = elimination_tree(pattern);
        let counts = column_counts(pattern, &etree);
        amalgamate(&etree, &counts, allowance)
    }

    #[test]
    fn tridiagonal_collapses_under_perfect_amalgamation() {
        // Tridiagonal: every column has count 2 except the last (1); no
        // perfect merge is possible (counts[c] must equal counts[p] + 1),
        // except for the last pair (2 = 1 + 1).
        let tree = assembly_for(&banded(6, 1), 1);
        assert_eq!(tree.len(), 5);
        assert!(tree.eta.contains(&2));
        // Every node weight follows the formula.
        for g in 0..tree.len() {
            let eta = tree.eta[g] as Size;
            let mu = tree.mu[g] as Size;
            assert_eq!(tree.tree.n(g), eta * eta + 2 * eta * (mu - 1));
        }
    }

    #[test]
    fn dense_matrix_collapses_to_one_node() {
        // A dense matrix's elimination tree is a chain with counts n, n-1, ...;
        // every merge is perfect, so everything amalgamates into one node.
        let mut edges = Vec::new();
        for i in 0..6 {
            for j in 0..i {
                edges.push((i, j));
            }
        }
        let tree = assembly_for(&SparsePattern::from_edges(6, &edges).unwrap(), 1);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.eta[0], 6);
        // µ is the column count of the *highest* column of the group (the
        // root column has only its diagonal), so the contribution block is
        // empty and the execution weight is the full 6 × 6 frontal matrix.
        assert_eq!(tree.mu[0], 1);
        assert_eq!(tree.tree.n(0), 36);
        assert_eq!(tree.tree.f(0), 0, "the root has no contribution block");
    }

    #[test]
    fn larger_allowance_gives_smaller_trees() {
        let pattern = grid2d_5pt(9, 9);
        let perm = minimum_degree(&pattern);
        let permuted = perm.apply(&pattern);
        let sizes: Vec<usize> = [1usize, 2, 4, 16]
            .iter()
            .map(|&allowance| {
                let etree = elimination_tree(&permuted);
                let counts = column_counts(&permuted, &etree);
                amalgamate(&etree, &counts, allowance).len()
            })
            .collect();
        for pair in sizes.windows(2) {
            assert!(
                pair[1] <= pair[0],
                "a larger allowance cannot give a larger tree: {sizes:?}"
            );
        }
        assert!(
            sizes[3] < sizes[0],
            "allowance 16 must amalgamate something: {sizes:?}"
        );
    }

    #[test]
    fn groups_partition_the_columns() {
        let pattern = grid2d_5pt(8, 6);
        let assembly = assembly_for(&pattern, 4);
        let mut seen = vec![false; pattern.n()];
        for g in 0..assembly.len() {
            for &column in assembly.group(g) {
                let column = column as usize;
                assert!(!seen[column], "column {column} in two groups");
                seen[column] = true;
            }
        }
        assert!(
            seen.into_iter().all(|s| s),
            "every column must appear in a group"
        );
        // Representative is the highest column of its group.
        for g in 0..assembly.len() {
            let group = assembly.group(g);
            assert!(group.windows(2).all(|pair| pair[0] > pair[1]));
        }
        assert!(assembly.compression() <= 1.0);
    }

    #[test]
    fn weights_match_the_paper_formulas() {
        let pattern = grid2d_5pt(7, 7);
        let assembly = assembly_for(&pattern, 2);
        let tree = &assembly.tree;
        for g in 0..assembly.len() {
            let eta = assembly.eta[g] as Size;
            let mu = assembly.mu[g] as Size;
            if assembly.group(g).is_empty() {
                continue; // virtual root
            }
            assert_eq!(tree.n(g), eta * eta + 2 * eta * (mu - 1));
            if tree.parent(g).is_some() {
                assert_eq!(tree.f(g), (mu - 1) * (mu - 1));
            } else {
                assert_eq!(tree.f(g), 0);
            }
        }
    }

    /// FNV-1a of every field of `assembly`, through its public accessors.
    fn mix_assembly(hash: &mut u64, assembly: &AssemblyTree) {
        let mut mix = |value: u64| {
            for byte in value.to_le_bytes() {
                *hash ^= u64::from(byte);
                *hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        };
        let tree = &assembly.tree;
        mix(assembly.len() as u64);
        for g in 0..assembly.len() {
            mix(assembly.group(g).len() as u64);
            assembly.group(g).iter().for_each(|&c| mix(u64::from(c)));
            mix(assembly.eta[g] as u64);
            mix(assembly.mu[g] as u64);
            mix(tree.parent(g).map_or(u64::MAX, |p| p as u64));
            mix(tree.f(g) as u64);
            mix(tree.n(g) as u64);
        }
    }

    /// Every kind × {nd, amd} × allowance {1, 4, 16}: the assembly tree is
    /// the `Tree` its own parents and weights rebuild, its bytes follow the
    /// documented layouts, and every field hashes to the literal the
    /// `usize`-scratch `amalgamate` (twice-built parents, cloned cursors)
    /// produced.
    #[test]
    fn every_field_is_unchanged_and_the_tree_rebuilds_from_its_parents() {
        use ordering::OrderingMethod;
        use sparsemat::gen::ProblemKind;
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for kind in ProblemKind::ALL {
            let pattern = kind.generate(600, 3);
            for method in [
                OrderingMethod::NestedDissection,
                OrderingMethod::MinimumDegree,
            ] {
                let permuted = method.order(&pattern).apply(&pattern);
                for allowance in [1, 4, 16] {
                    let assembly = assembly_for(&permuted, allowance);
                    let tree = &assembly.tree;
                    let parents: Vec<_> = tree.parents().collect();
                    let rebuilt = Tree::from_parents(&parents, tree.files(), tree.weights());
                    assert_eq!(
                        rebuilt.as_ref(),
                        Ok(tree),
                        "{kind:?} {method:?} {allowance}"
                    );
                    let p = assembly.len() as u64;
                    assert_eq!(tree.heap_bytes(), 36 * p);
                    let columns = pattern.n() as u64;
                    assert_eq!(assembly.groups_heap_bytes(), 24 * p + 8 + 4 * columns);
                    mix_assembly(&mut hash, &assembly);
                }
            }
        }
        assert_eq!(hash, 0xa822_407f_4e81_a861);
    }

    /// Scale gate, run by CI in release: the `nd` elimination tree of a
    /// 10⁶-vertex grid amalgamated at allowance 4, every assembly-tree
    /// invariant checked and its bytes equal to the documented layout.
    #[test]
    #[ignore]
    fn amalgamates_a_million_column_grid_within_its_layout() {
        use ordering::OrderingMethod;
        let pattern = grid2d_5pt(1000, 1000);
        let permuted = OrderingMethod::NestedDissection
            .order(&pattern)
            .apply(&pattern);
        let etree = elimination_tree(&permuted);
        let counts = column_counts(&permuted, &etree);
        let assembly = amalgamate(&etree, &counts, 4);
        let tree = &assembly.tree;
        let n = pattern.n();
        let mut group_of = vec![usize::MAX; n];
        for g in 0..assembly.len() {
            let group = assembly.group(g);
            assert_eq!(group.len(), assembly.eta[g]);
            assert!(group.windows(2).all(|pair| pair[0] > pair[1]));
            for &column in group {
                assert_eq!(
                    group_of[column as usize],
                    usize::MAX,
                    "column {column} twice"
                );
                group_of[column as usize] = g;
            }
        }
        assert!(group_of.iter().all(|&g| g != usize::MAX));
        let mut roots = 0;
        for g in 0..assembly.len() {
            let representative = assembly.group(g)[0] as usize;
            assert_eq!(assembly.mu[g], counts[representative]);
            let (eta, mu) = (assembly.eta[g] as Size, assembly.mu[g] as Size);
            assert_eq!(tree.n(g), eta * eta + 2 * eta * (mu - 1));
            let expected = etree.parent(representative).map(|column| group_of[column]);
            assert_eq!(tree.parent(g), expected);
            match expected {
                Some(_) => assert_eq!(tree.f(g), (mu - 1) * (mu - 1)),
                None => roots += 1,
            }
        }
        assert_eq!(roots, 1, "a connected grid has one root");
        let p = assembly.len() as u64;
        assert!(p < n as u64 / 2, "allowance 4 amalgamates the grid");
        assert_eq!(tree.heap_bytes(), 36 * p);
        assert_eq!(assembly.groups_heap_bytes(), 24 * p + 8 + 4 * n as u64);
    }

    #[test]
    fn forest_inputs_get_a_virtual_root() {
        let pattern = SparsePattern::from_edges(7, &[(0, 1), (3, 4), (5, 6)]).unwrap();
        let assembly = assembly_for(&pattern, 1);
        // Still a single tree for the traversal algorithms.
        assert!(assembly.tree.len() >= 3);
        assert_eq!(
            assembly
                .tree
                .nodes()
                .filter(|&i| assembly.tree.parent(i).is_none())
                .count(),
            1
        );
    }
}
