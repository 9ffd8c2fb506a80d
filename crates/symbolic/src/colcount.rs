//! Column counts of the Cholesky factor.
//!
//! `count[j]` is the number of structural nonzeros of column `j` of `L`,
//! including the diagonal — the `µ` quantity used by the assembly-tree
//! weights of the paper.  Column `j` of `L` has a nonzero in row `i > j` iff
//! `j` belongs to the *row subtree* of `i`: the union of the elimination-tree
//! paths from every `k < i` with `a_{ik} ≠ 0` up to `i`.  Walking those
//! paths visits every nonzero of `L` once, `O(nnz(L))`; the test oracle
//! does that.
//!
//! The counts here come from Gilbert, Ng and Peyton's scheme instead, as in
//! `cs_counts` (Davis, *Direct Methods for Sparse Linear Systems*, §4.5), in
//! near `O(nnz(A))`: `count[j]` is the sum over `j`'s subtree of a
//! difference `delta`.  A leaf adds its diagonal, each node takes one off
//! its parent, and for every row `i` each leaf `j` of `i`'s row subtree
//! adds one at `j` and takes one off the least common ancestor of `j` and
//! the previous leaf of the same row subtree.  The leaves are the columns
//! `j` with `a_{ij} ≠ 0` whose subtree starts (in postorder) after that of
//! the previous such column; the least common ancestors come from a
//! path-compressed ancestor forest built as the postorder goes.  Over an
//! elimination forest a row's leaves all lie in one tree, so each one after
//! the first has a common ancestor with the previous.

use sparsemat::SparsePattern;

use crate::etree::{etree_postorder, EliminationTree};

/// No postorder index yet, or no previous leaf.
const NONE: usize = usize::MAX;

/// Compute the column counts of the Cholesky factor of a permuted pattern,
/// given its elimination tree.
///
/// # Panics
/// Panics if the elimination tree does not match the pattern size, or is
/// not the pattern's.
pub fn column_counts(pattern: &SparsePattern, etree: &EliminationTree) -> Vec<usize> {
    assert_eq!(etree.len(), pattern.n(), "elimination tree size mismatch");
    let n = etree.len();
    let post = etree_postorder(etree);
    // `first[j]`: the postorder index of the first node of `j`'s subtree.
    // A node whose subtree has not started when it is reached is a leaf.
    let mut first = vec![NONE; n];
    let mut delta = vec![0isize; n];
    for (k, &leaf) in post.iter().enumerate() {
        if first[leaf] == NONE {
            delta[leaf] = 1;
        }
        let mut node = Some(leaf);
        while let Some(j) = node.filter(|&j| first[j] == NONE) {
            first[j] = k;
            node = etree.parent(j);
        }
    }
    // Per row `i`: the largest `first` of its row subtree's leaves so far,
    // and the last of those leaves.
    let mut max_first = vec![NONE; n];
    let mut previous_leaf = vec![NONE; n];
    let mut ancestor: Vec<usize> = (0..n).collect();
    for &j in &post {
        let parent = etree.parent(j);
        if let Some(p) = parent {
            delta[p] -= 1;
        }
        for &i in pattern.neighbors(j) {
            let i = i as usize;
            // `j` is a leaf of row `i`'s subtree iff no earlier column of
            // the row lies in `j`'s subtree.
            if i <= j || (max_first[i] != NONE && first[j] <= max_first[i]) {
                continue;
            }
            max_first[i] = first[j];
            let previous = std::mem::replace(&mut previous_leaf[i], j);
            delta[j] += 1;
            if previous != NONE {
                // The least common ancestor of the two leaves is the root
                // of `previous`' set; compress the path to it.
                let mut root = previous;
                while ancestor[root] != root {
                    root = ancestor[root];
                }
                let mut node = previous;
                while node != root {
                    node = std::mem::replace(&mut ancestor[node], root);
                }
                delta[root] -= 1;
            }
        }
        if let Some(p) = parent {
            ancestor[j] = p;
        }
    }
    // Children before parents: every parent lies above its child.
    for j in 0..n {
        if let Some(p) = etree.parent(j) {
            delta[p] += delta[j];
        }
    }
    delta
        .into_iter()
        .map(|count| usize::try_from(count).expect("a column count is positive"))
        .collect()
}

/// Total number of nonzeros of `L` (including the diagonal): the sum of the
/// column counts.
pub fn factor_nnz(counts: &[usize]) -> usize {
    counts.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::etree::elimination_tree;
    use ordering::mindeg::fill_in;
    use ordering::{minimum_degree, nested_dissection, rcm, OrderingMethod, Permutation};
    use prng::{Rng, StdRng};
    use sparsemat::gen::{banded, grid2d_5pt, random_spd_pattern, ProblemKind};
    use sparsemat::SparsePattern;

    /// The row-subtree walk the counts were computed with before: each
    /// row's nonzeros walked up the tree with per-row marks, visiting every
    /// nonzero of `L` once.  The definition the fast counts must equal.
    fn row_subtree_counts(pattern: &SparsePattern, etree: &EliminationTree) -> Vec<usize> {
        let n = pattern.n();
        let mut count = vec![1usize; n]; // diagonal entries
        let mut mark = vec![usize::MAX; n];
        for i in 0..n {
            mark[i] = i;
            for &k in pattern.neighbors(i) {
                let k = k as usize;
                if k >= i {
                    continue;
                }
                // Walk from k towards the root, stopping at the first column
                // already marked for row i (or at i itself).
                let mut j = k;
                while mark[j] != i {
                    mark[j] = i;
                    count[j] += 1;
                    match etree.parent(j) {
                        Some(p) if p < i => j = p,
                        _ => break,
                    }
                }
            }
        }
        count
    }

    /// `n` vertices with `edges` random edges among the first `2n / 3`: a
    /// forest of small trees and isolated vertices once ordered.
    fn scattered(n: usize, edges: usize, seed: u64) -> SparsePattern {
        let mut rng = StdRng::seed_from_u64(seed);
        let covered = (2 * n / 3).max(1);
        let edges: Vec<(usize, usize)> = (0..edges)
            .map(|_| (rng.gen_range(0..covered), rng.gen_range(0..covered)))
            .collect();
        SparsePattern::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn gilbert_ng_peyton_counts_equal_the_row_subtree_walk() {
        for nodes in [0, 1, 2, 30, 300, 3_000] {
            for seed in 0..3 {
                let mut patterns: Vec<(String, SparsePattern)> = ProblemKind::ALL
                    .iter()
                    .map(|kind| (kind.name().to_string(), kind.generate(nodes, seed)))
                    .collect();
                patterns.push(("scattered".into(), scattered(nodes, nodes / 2, seed)));
                patterns.push((
                    "empty".into(),
                    SparsePattern::from_edges(nodes, &[]).unwrap(),
                ));
                for (name, pattern) in patterns {
                    for method in OrderingMethod::ALL {
                        let permuted = method.order(&pattern).apply(&pattern);
                        let etree = elimination_tree(&permuted);
                        assert_eq!(
                            column_counts(&permuted, &etree),
                            row_subtree_counts(&permuted, &etree),
                            "{name} n = {} seed {seed} under {}",
                            pattern.n(),
                            method.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tridiagonal_counts_are_two() {
        let pattern = banded(6, 1);
        let etree = elimination_tree(&pattern);
        let counts = column_counts(&pattern, &etree);
        assert_eq!(counts, vec![2, 2, 2, 2, 2, 1]);
    }

    #[test]
    fn dense_matrix_counts_decrease() {
        // Fully dense 5x5 matrix: column j of L has 5 - j nonzeros.
        let mut edges = Vec::new();
        for i in 0..5 {
            for j in 0..i {
                edges.push((i, j));
            }
        }
        let pattern = SparsePattern::from_edges(5, &edges).unwrap();
        let etree = elimination_tree(&pattern);
        let counts = column_counts(&pattern, &etree);
        assert_eq!(counts, vec![5, 4, 3, 2, 1]);
    }

    #[test]
    fn textbook_example_counts() {
        // Same matrix as in etree.rs; fill entry (5,3) is created.
        let pattern =
            SparsePattern::from_edges(6, &[(3, 0), (5, 1), (4, 2), (5, 2), (4, 3), (5, 4)])
                .unwrap();
        let etree = elimination_tree(&pattern);
        let counts = column_counts(&pattern, &etree);
        // L columns: 0: {0,3}; 1: {1,5}; 2: {2,4,5}; 3: {3,4}; 4: {4,5}; 5: {5}.
        assert_eq!(counts, vec![2, 2, 3, 2, 2, 1]);
    }

    #[test]
    fn counts_sum_matches_independent_fill_computation() {
        for (pattern, seed) in [(grid2d_5pt(9, 8), 0), (random_spd_pattern(150, 4.0, 5), 1)] {
            let _ = seed;
            for perm in [
                Permutation::identity(pattern.n()),
                minimum_degree(&pattern),
                nested_dissection(&pattern),
                rcm(&pattern),
            ] {
                let permuted = perm.apply(&pattern);
                let etree = elimination_tree(&permuted);
                let counts = column_counts(&permuted, &etree);
                assert_eq!(
                    factor_nnz(&counts),
                    fill_in(&pattern, &perm),
                    "column counts disagree with the reference fill computation"
                );
            }
        }
    }

    #[test]
    fn counts_are_at_least_one_and_bounded_by_remaining_columns() {
        let pattern = grid2d_5pt(7, 7);
        let perm = minimum_degree(&pattern);
        let permuted = perm.apply(&pattern);
        let etree = elimination_tree(&permuted);
        let counts = column_counts(&permuted, &etree);
        for (j, &c) in counts.iter().enumerate() {
            assert!(c >= 1);
            assert!(c <= pattern.n() - j);
        }
    }
}
