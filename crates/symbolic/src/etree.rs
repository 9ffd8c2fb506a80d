//! Elimination trees (Liu's algorithm).

use sparsemat::SparsePattern;

/// The elimination tree of a (permuted) symmetric pattern: `parent[j]` is the
/// parent column of column `j` in the Cholesky factor, or `None` for roots
/// (column with an empty structure below the diagonal).  The structure is a
/// forest when the matrix is reducible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EliminationTree {
    parent: Vec<Option<usize>>,
}

impl EliminationTree {
    /// The tree of a given parent array.  The caller guarantees that every
    /// parent lies above its child (`j < parent[j] < len`): the shape of
    /// every elimination tree, and what rules out cycles; debug builds
    /// check it.
    pub fn from_parents(parent: Vec<Option<usize>>) -> Self {
        let len = parent.len();
        debug_assert!(
            parent
                .iter()
                .enumerate()
                .all(|(j, p)| p.is_none_or(|p| j < p && p < len)),
            "a parent is not above its child"
        );
        EliminationTree { parent }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Parent of column `j`, or `None` if `j` is a root.
    pub fn parent(&self, j: usize) -> Option<usize> {
        self.parent[j]
    }

    /// The parent array.
    pub fn parents(&self) -> &[Option<usize>] {
        &self.parent
    }

    /// The roots of the forest (usually a single one for irreducible
    /// matrices).
    pub fn roots(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&j| self.parent[j].is_none())
            .collect()
    }

    /// Children lists (children of every column, increasing).
    pub fn children(&self) -> Vec<Vec<usize>> {
        let mut children = vec![Vec::new(); self.len()];
        for j in 0..self.len() {
            if let Some(p) = self.parent[j] {
                children[p].push(j);
            }
        }
        children
    }

    /// Depth of every node (roots have depth 0).
    pub fn depths(&self) -> Vec<usize> {
        let mut depth = vec![usize::MAX; self.len()];
        for j in 0..self.len() {
            if depth[j] != usize::MAX {
                continue;
            }
            // Walk up until a known depth or a root, then unwind.
            let mut path = vec![j];
            let mut cur = j;
            while let Some(p) = self.parent[cur] {
                if depth[p] != usize::MAX {
                    break;
                }
                path.push(p);
                cur = p;
            }
            let base = match self.parent[cur] {
                Some(p) => depth[p] + 1,
                None => 0,
            };
            for (offset, &v) in path.iter().rev().enumerate() {
                depth[v] = base + offset;
            }
        }
        depth
    }

    /// Height of the forest (largest depth plus one; 0 for an empty forest).
    pub fn height(&self) -> usize {
        self.depths().into_iter().max().map(|d| d + 1).unwrap_or(0)
    }
}

/// Compute the elimination tree of a permuted symmetric pattern with Liu's
/// almost-linear algorithm (path compression on virtual ancestors).
///
/// The pattern must already be permuted into elimination order: column `j` is
/// eliminated at step `j`.
pub fn elimination_tree(pattern: &SparsePattern) -> EliminationTree {
    let n = pattern.n();
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut ancestor: Vec<Option<usize>> = vec![None; n];
    for i in 0..n {
        // Row i of the lower triangle: entries (i, j) with j < i.
        for &j in pattern.neighbors(i) {
            if j >= i {
                continue;
            }
            // Walk from j up to the current root of its subtree, compressing
            // the ancestor pointers towards i.
            let mut current = j;
            while let Some(anc) = ancestor[current] {
                if anc == i {
                    break;
                }
                ancestor[current] = Some(i);
                current = anc;
            }
            if ancestor[current].is_none() {
                ancestor[current] = Some(i);
                parent[current] = Some(i);
            }
        }
    }
    EliminationTree { parent }
}

/// A postorder of the elimination forest (children before parents), with the
/// children of every node visited in increasing index order.
pub fn etree_postorder(etree: &EliminationTree) -> Vec<usize> {
    let children = etree.children();
    let mut order = Vec::with_capacity(etree.len());
    let mut stack: Vec<(usize, bool)> = Vec::new();
    for root in etree.roots().into_iter().rev() {
        stack.push((root, false));
    }
    while let Some((node, expanded)) = stack.pop() {
        if expanded {
            order.push(node);
        } else {
            stack.push((node, true));
            for &c in children[node].iter().rev() {
                stack.push((c, false));
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use ordering::{minimum_degree, Permutation};
    use sparsemat::gen::{banded, grid2d_5pt};
    use sparsemat::SparsePattern;

    #[test]
    fn chain_matrix_gives_a_chain_tree() {
        // Tridiagonal matrix: etree is a path 0 -> 1 -> ... -> n-1.
        let pattern = banded(6, 1);
        let etree = elimination_tree(&pattern);
        for j in 0..5 {
            assert_eq!(etree.parent(j), Some(j + 1));
        }
        assert_eq!(etree.parent(5), None);
        assert_eq!(etree.roots(), vec![5]);
        assert_eq!(etree.height(), 6);
    }

    #[test]
    fn textbook_example() {
        // Classic example (Liu 1990, Fig. 2.1-like): arrow + extra couplings.
        // Lower triangle nonzeros: (3,0), (5,1), (4,2), (5,2), (4,3), (5,4).
        let pattern =
            SparsePattern::from_edges(6, &[(3, 0), (5, 1), (4, 2), (5, 2), (4, 3), (5, 4)]);
        let etree = elimination_tree(&pattern);
        assert_eq!(etree.parent(0), Some(3));
        assert_eq!(etree.parent(1), Some(5));
        assert_eq!(etree.parent(2), Some(4));
        assert_eq!(etree.parent(3), Some(4));
        assert_eq!(etree.parent(4), Some(5));
        assert_eq!(etree.parent(5), None);
    }

    #[test]
    fn parents_are_always_larger() {
        let pattern = grid2d_5pt(8, 7);
        let perm = minimum_degree(&pattern);
        let permuted = perm.apply(&pattern);
        let etree = elimination_tree(&permuted);
        for j in 0..etree.len() {
            if let Some(p) = etree.parent(j) {
                assert!(p > j, "parent {p} of {j} must be larger");
            }
        }
    }

    #[test]
    fn postorder_visits_children_first() {
        let pattern = grid2d_5pt(6, 6);
        let etree = elimination_tree(&pattern);
        let order = etree_postorder(&etree);
        assert_eq!(order.len(), 36);
        let mut position = vec![0; 36];
        for (idx, &node) in order.iter().enumerate() {
            position[node] = idx;
        }
        for j in 0..36 {
            if let Some(p) = etree.parent(j) {
                assert!(position[j] < position[p]);
            }
        }
    }

    #[test]
    fn disconnected_matrices_give_forests() {
        let pattern = SparsePattern::from_edges(6, &[(0, 1), (3, 4)]);
        let etree = elimination_tree(&pattern);
        assert!(etree.roots().len() >= 3); // {0,1}, {3,4}, {2}, {5}
        assert_eq!(etree_postorder(&etree).len(), 6);
    }

    #[test]
    fn permutation_changes_the_tree_height() {
        // RCM-like band ordering gives a chain; a dissection-like ordering
        // gives a shallower tree on a grid.
        let pattern = grid2d_5pt(10, 10);
        let chain_height =
            elimination_tree(&pattern.permute(Permutation::identity(100).as_new_to_old())).height();
        let md = minimum_degree(&pattern);
        let md_height = elimination_tree(&md.apply(&pattern)).height();
        assert!(md_height <= chain_height);
    }
}
