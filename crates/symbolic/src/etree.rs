//! Elimination trees (Liu's algorithm).

use sparsemat::SparsePattern;

/// The parent of a root in [`EliminationTree`]'s parent array: never a
/// column, since it is past every dimension ([`sparsemat::MAX_DIMENSION`]).
const ROOT: u32 = sparsemat::MAX_DIMENSION as u32 + 1;

/// The elimination tree of a (permuted) symmetric pattern: `parent(j)` is the
/// parent column of column `j` in the Cholesky factor, or `None` for roots
/// (column with an empty structure below the diagonal).  The structure is a
/// forest when the matrix is reducible.
///
/// The parents are one `u32` per column, a root holding a sentinel that
/// [`EliminationTree::parent`] turns into `None`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EliminationTree {
    parent: Vec<u32>,
}

impl EliminationTree {
    /// The tree of a given parent array.  The caller guarantees that every
    /// parent lies above its child (`j < parent[j] < len`): the shape of
    /// every elimination tree, and what rules out cycles; debug builds
    /// check it.
    pub fn from_parents(parent: &[Option<usize>]) -> Self {
        let len = parent.len();
        debug_assert!(
            len <= sparsemat::MAX_DIMENSION
                && parent
                    .iter()
                    .enumerate()
                    .all(|(j, p)| p.is_none_or(|p| j < p && p < len)),
            "a parent is not above its child"
        );
        let parent = parent
            .iter()
            .map(|p| p.map_or(ROOT, |p| p as u32))
            .collect();
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
        let p = self.parent[j];
        (p != ROOT).then_some(p as usize)
    }

    /// Heap footprint of the parent array in bytes.
    pub fn heap_bytes(&self) -> u64 {
        (self.parent.len() * std::mem::size_of::<u32>()) as u64
    }

    /// The roots of the forest (usually a single one for irreducible
    /// matrices).
    pub fn roots(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&j| self.parent[j] == ROOT)
            .collect()
    }

    /// The children of every column, increasing, in one flat list built by
    /// a counting sort: no list per column.
    pub fn children(&self) -> ChildLists {
        let n = self.len();
        let parents = || {
            self.parent
                .iter()
                .filter(|&&p| p != ROOT)
                .map(|&p| p as usize)
        };
        // `start[p + 1]` counts `p`'s children; after the prefix sum
        // `start[p]` is where they begin.
        let mut start = vec![0; n + 1];
        for p in parents() {
            start[p + 1] += 1;
        }
        for p in 0..n {
            start[p + 1] += start[p];
        }
        // Fill with `start[p]` as `p`'s cursor, then shift the ends back.
        let mut list = vec![0u32; start[n]];
        for (j, &p) in self.parent.iter().enumerate() {
            if p != ROOT {
                let p = p as usize;
                list[start[p]] = j as u32;
                start[p] += 1;
            }
        }
        start.copy_within(0..n, 1);
        start[0] = 0;
        ChildLists { start, list }
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
            while let Some(p) = self.parent(cur) {
                if depth[p] != usize::MAX {
                    break;
                }
                path.push(p);
                cur = p;
            }
            let base = match self.parent(cur) {
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

/// The children of every column of an elimination forest, increasing:
/// column `j`'s are `list[start[j]..start[j + 1]]`.  Built by
/// [`EliminationTree::children`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChildLists {
    start: Vec<usize>,
    list: Vec<u32>,
}

impl ChildLists {
    /// The children of column `j`, increasing.
    pub fn of(&self, j: usize) -> &[u32] {
        &self.list[self.start[j]..self.start[j + 1]]
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.start.len() - 1
    }

    /// Whether the forest has no column.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap footprint of the two arrays in bytes.
    pub fn heap_bytes(&self) -> u64 {
        use std::mem::size_of;
        (self.start.len() * size_of::<usize>() + self.list.len() * size_of::<u32>()) as u64
    }
}

/// Compute the elimination tree of a permuted symmetric pattern with Liu's
/// almost-linear algorithm (path compression on virtual ancestors).
///
/// The pattern must already be permuted into elimination order: column `j` is
/// eliminated at step `j`.
pub fn elimination_tree(pattern: &SparsePattern) -> EliminationTree {
    let n = pattern.n();
    let mut parent = vec![ROOT; n];
    let mut ancestor = vec![ROOT; n];
    for i in 0..n {
        let row = i as u32;
        // Row i of the lower triangle: entries (i, j) with j < i.
        for &j in pattern.neighbors(i) {
            if j >= row {
                continue;
            }
            // Walk from j up to the current root of its subtree, compressing
            // the ancestor pointers towards i.
            let mut current = j as usize;
            loop {
                let anc = ancestor[current];
                if anc == row {
                    break;
                }
                ancestor[current] = row;
                if anc == ROOT {
                    parent[current] = row;
                    break;
                }
                current = anc as usize;
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
            for &c in children.of(node).iter().rev() {
                stack.push((c as usize, false));
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
            SparsePattern::from_edges(6, &[(3, 0), (5, 1), (4, 2), (5, 2), (4, 3), (5, 4)])
                .unwrap();
        let etree = elimination_tree(&pattern);
        assert_eq!(etree.parent(0), Some(3));
        assert_eq!(etree.parent(1), Some(5));
        assert_eq!(etree.parent(2), Some(4));
        assert_eq!(etree.parent(3), Some(4));
        assert_eq!(etree.parent(4), Some(5));
        assert_eq!(etree.parent(5), None);
    }

    /// The counting build against a scan of the parent array that pushes
    /// each child onto its parent's list, on the forests of every problem
    /// kind under every ordering.
    #[test]
    fn child_lists_equal_a_push_per_child() {
        for kind in sparsemat::gen::ProblemKind::ALL {
            for method in ordering::OrderingMethod::ALL {
                let pattern = kind.generate(300, 2);
                let etree = elimination_tree(&method.order(&pattern).apply(&pattern));
                let mut pushed = vec![Vec::new(); etree.len()];
                for j in 0..etree.len() {
                    if let Some(p) = etree.parent(j) {
                        pushed[p].push(j as u32);
                    }
                }
                let children = etree.children();
                assert_eq!(children.len(), etree.len());
                for (j, expected) in pushed.iter().enumerate() {
                    assert_eq!(
                        children.of(j),
                        expected,
                        "{} {} column {j}",
                        kind.name(),
                        method.name()
                    );
                }
            }
        }
        assert!(EliminationTree::from_parents(&[]).children().is_empty());
    }

    /// Parents and child entries are 4 bytes each, child offsets 8; the
    /// root's sentinel never leaks out of `parent` or `children`.
    #[test]
    fn four_byte_parents_and_a_hidden_root_sentinel() {
        let etree = EliminationTree::from_parents(&[Some(2), Some(2), None, None]);
        assert_eq!(etree.heap_bytes(), 4 * 4);
        assert_eq!(etree.children().heap_bytes(), 5 * 8 + 2 * 4);
        let parents: Vec<_> = (0..4).map(|j| etree.parent(j)).collect();
        assert_eq!(parents, [Some(2), Some(2), None, None]);
        assert_eq!(etree.roots(), [2, 3]);
        let children = etree.children();
        assert_eq!((0..4).map(|j| children.of(j).len()).sum::<usize>(), 2);
        assert_eq!(children.of(2), [0, 1]);
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
        let pattern = SparsePattern::from_edges(6, &[(0, 1), (3, 4)]).unwrap();
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
