//! The tree-workflow model of the paper (Section III-A).
//!
//! A [`Tree`] is a rooted tree in the **out-tree** orientation: the root is
//! executed first and every other node can only be executed after its parent.
//! Node `i` carries two weights:
//!
//! * `f(i)` — the size of its *input file*, produced by its parent (or coming
//!   from the outside world for the root);
//! * `n(i)` — the size of its *execution file*, resident only while `i` runs.
//!
//! Executing `i` requires `MemReq(i) = f(i) + n(i) + Σ_{j ∈ children(i)} f(j)`
//! units of main memory in addition to the other resident frontier files.
//!
//! Execution-file sizes are signed ([`Size`] is `i64`) because the model
//! transformations of Section III-C (see [`crate::variants`]) introduce
//! negative execution weights; input files are always non-negative.

use crate::error::TreeError;

/// Index of a node inside a [`Tree`]. Nodes are numbered `0..tree.len()`.
pub type NodeId = usize;

/// File and memory sizes. Signed so that the model variants of the paper
/// (which use negative execution-file sizes) can be represented exactly.
pub type Size = i64;

/// Sentinel for "no peak / unbounded" used by the exact algorithms.
pub const INFINITE: Size = Size::MAX;

/// A rooted tree workflow with per-node input-file and execution-file sizes.
///
/// The structure is immutable once built (via [`TreeBuilder`] or one of the
/// `from_*` constructors); all algorithms in this crate borrow it.
///
/// # Storage layout
///
/// Children are stored in a flat CSR (compressed sparse row) layout: the
/// children of node `i` are `child_list[child_starts[i]..child_starts[i+1]]`,
/// in increasing node-id order (which is also their insertion order, since
/// node ids are assigned in construction order).  This keeps the whole
/// adjacency in two contiguous arrays — one cache line per small family —
/// instead of one heap allocation per node, which matters for the exact
/// solvers and the out-of-core simulator on trees with 10⁵–10⁶ nodes.
///
/// The per-node derived quantities that every hot loop needs —
/// `Σ_{j ∈ children(i)} f(j)`, `MemReq(i)` and `max_i MemReq(i)` — are
/// precomputed once at construction, so [`Tree::children_file_sum`],
/// [`Tree::mem_req`] and [`Tree::max_mem_req`] are O(1) lookups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tree {
    parent: Vec<Option<NodeId>>,
    /// CSR offsets: children of `i` live at `child_list[child_starts[i]..child_starts[i + 1]]`.
    child_starts: Vec<usize>,
    /// CSR payload: all child ids, grouped by parent.
    child_list: Vec<NodeId>,
    f: Vec<Size>,
    n: Vec<Size>,
    /// Precomputed `Σ_{j ∈ children(i)} f(j)` per node.
    children_file_sum: Vec<Size>,
    /// Precomputed `MemReq(i) = f(i) + n(i) + children_file_sum(i)` per node.
    mem_req: Vec<Size>,
    /// Precomputed `max_i MemReq(i)`.
    max_mem_req: Size,
    root: NodeId,
}

impl Tree {
    /// Build a tree from parent pointers and node weights.
    ///
    /// `parents[i]` is the parent of node `i` (`None` for the root, which must
    /// be unique), `files[i]` is `f(i)` and `weights[i]` is `n(i)`.
    pub fn from_parents(
        parents: &[Option<NodeId>],
        files: &[Size],
        weights: &[Size],
    ) -> Result<Self, TreeError> {
        if parents.is_empty() {
            return Err(TreeError::Empty);
        }
        if parents.len() != files.len() || parents.len() != weights.len() {
            return Err(TreeError::LengthMismatch {
                parents: parents.len(),
                files: files.len(),
                weights: weights.len(),
            });
        }
        let p = parents.len();
        let mut root = None;
        // CSR construction by counting sort: one pass counts the children of
        // every node, a prefix sum turns the counts into offsets, and a final
        // pass (in increasing child id, preserving insertion order) scatters
        // the child ids into the flat list.
        let mut child_starts = vec![0usize; p + 1];
        for (i, &par) in parents.iter().enumerate() {
            match par {
                None => match root {
                    None => root = Some(i),
                    Some(r) => return Err(TreeError::MultipleRoots(r, i)),
                },
                Some(par) => {
                    if par >= p {
                        return Err(TreeError::InvalidParent {
                            node: i,
                            parent: par,
                        });
                    }
                    child_starts[par + 1] += 1;
                }
            }
        }
        let root = root.ok_or(TreeError::NoRoot)?;
        for (i, &fi) in files.iter().enumerate() {
            if fi < 0 {
                return Err(TreeError::NegativeFileSize { node: i, size: fi });
            }
        }
        for i in 0..p {
            child_starts[i + 1] += child_starts[i];
        }
        let mut cursor = child_starts.clone();
        let mut child_list = vec![0 as NodeId; p - 1];
        for (i, &par) in parents.iter().enumerate() {
            if let Some(par) = par {
                child_list[cursor[par]] = i;
                cursor[par] += 1;
            }
        }
        let mut tree = Tree {
            parent: parents.to_vec(),
            child_starts,
            child_list,
            f: files.to_vec(),
            n: weights.to_vec(),
            children_file_sum: Vec::new(),
            mem_req: Vec::new(),
            max_mem_req: 0,
            root,
        };
        tree.check_acyclic()?;
        tree.recompute_derived();
        Ok(tree)
    }

    /// Recompute the precomputed per-node quantities (`children_file_sum`,
    /// `mem_req`, `max_mem_req`) from the topology and the current weights.
    fn recompute_derived(&mut self) {
        let p = self.parent.len();
        let sums: Vec<Size> = (0..p)
            .map(|i| {
                self.child_list[self.child_starts[i]..self.child_starts[i + 1]]
                    .iter()
                    .map(|&j| self.f[j])
                    .sum()
            })
            .collect();
        let reqs: Vec<Size> = (0..p).map(|i| self.f[i] + self.n[i] + sums[i]).collect();
        self.max_mem_req = reqs.iter().copied().max().unwrap_or(0);
        self.children_file_sum = sums;
        self.mem_req = reqs;
    }

    /// Verify that following parent pointers from every node reaches the root
    /// (i.e. the parent structure is a tree, not a forest with cycles).
    fn check_acyclic(&self) -> Result<(), TreeError> {
        let p = self.len();
        // 0 = unvisited, 1 = on current path, 2 = known good.
        let mut state = vec![0u8; p];
        state[self.root] = 2;
        for start in 0..p {
            if state[start] != 0 {
                continue;
            }
            let mut path = Vec::new();
            let mut cur = start;
            loop {
                if state[cur] == 2 {
                    break;
                }
                if state[cur] == 1 {
                    return Err(TreeError::Cycle(cur));
                }
                state[cur] = 1;
                path.push(cur);
                match self.parent[cur] {
                    Some(par) => cur = par,
                    None => break,
                }
            }
            for v in path {
                state[v] = 2;
            }
        }
        Ok(())
    }

    /// Approximate heap footprint of the tree in bytes: the summed capacity
    /// of its CSR arrays and per-node aggregates.  Used by the serving
    /// caches to charge plans byte-accurate footprints.
    pub fn heap_bytes(&self) -> u64 {
        use std::mem::size_of;
        let options = self.parent.len() * size_of::<Option<NodeId>>();
        let indices = (self.child_starts.len() + self.child_list.len()) * size_of::<usize>();
        let sizes =
            (self.f.len() + self.n.len() + self.children_file_sum.len() + self.mem_req.len())
                * size_of::<Size>();
        (options + indices + sizes) as u64
    }

    /// Number of nodes in the tree (written `p` in the paper).
    #[inline]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the tree has no nodes. Always `false` for a constructed tree.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The root node (the unique node without a parent).
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Parent of `i`, or `None` for the root.
    #[inline]
    pub fn parent(&self, i: NodeId) -> Option<NodeId> {
        self.parent[i]
    }

    /// Children of `i`, in insertion order (a slice of the flat CSR list).
    #[inline]
    pub fn children(&self, i: NodeId) -> &[NodeId] {
        &self.child_list[self.child_starts[i]..self.child_starts[i + 1]]
    }

    /// Input-file size `f(i)`.
    #[inline]
    pub fn f(&self, i: NodeId) -> Size {
        self.f[i]
    }

    /// Execution-file size `n(i)`.
    #[inline]
    pub fn n(&self, i: NodeId) -> Size {
        self.n[i]
    }

    /// Whether `i` is a leaf.
    #[inline]
    pub fn is_leaf(&self, i: NodeId) -> bool {
        self.child_starts[i] == self.child_starts[i + 1]
    }

    /// Number of children of `i`.
    #[inline]
    pub fn child_count(&self, i: NodeId) -> usize {
        self.child_starts[i + 1] - self.child_starts[i]
    }

    /// Total size of the output files of `i` (`Σ_{j ∈ children(i)} f(j)`).
    /// Precomputed at construction; O(1).
    #[inline]
    pub fn children_file_sum(&self, i: NodeId) -> Size {
        self.children_file_sum[i]
    }

    /// Memory requirement of node `i`:
    /// `MemReq(i) = f(i) + n(i) + Σ_{j ∈ children(i)} f(j)` (Equation (1)).
    /// Precomputed at construction; O(1).
    #[inline]
    pub fn mem_req(&self, i: NodeId) -> Size {
        self.mem_req[i]
    }

    /// Largest memory requirement over all nodes — a lower bound on the
    /// memory needed by *any* traversal.  Precomputed at construction; O(1).
    #[inline]
    pub fn max_mem_req(&self) -> Size {
        self.max_mem_req
    }

    /// Sum of all input-file sizes — a trivial upper bound on the memory
    /// needed by any traversal (plus the largest execution file).
    pub fn total_file_size(&self) -> Size {
        self.f.iter().sum()
    }

    /// An upper bound on the memory needed by any reasonable traversal:
    /// the sum of every input file plus the largest execution file.  Used by
    /// tests and as a sanity cap in the exact algorithms.
    pub fn memory_upper_bound(&self) -> Size {
        self.total_file_size() + self.n.iter().copied().max().unwrap_or(0).max(0)
    }

    /// Nodes in a depth-first top-down order (parent before children).
    /// Children are visited in their stored order.
    pub fn dfs_topdown(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.len());
        let mut stack = vec![self.root];
        while let Some(i) = stack.pop() {
            order.push(i);
            // Push children in reverse so the first child is popped first.
            for &c in self.children(i).iter().rev() {
                stack.push(c);
            }
        }
        order
    }

    /// Nodes in a bottom-up order (children before parent), i.e. a postorder
    /// of the tree in its stored child order.
    pub fn dfs_bottomup(&self) -> Vec<NodeId> {
        let mut order = self.dfs_topdown();
        order.reverse();
        order
    }

    /// Number of nodes in the subtree rooted at each node.
    pub fn subtree_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![1usize; self.len()];
        for &i in self.dfs_bottomup().iter() {
            if let Some(par) = self.parent[i] {
                sizes[par] += sizes[i];
            }
        }
        sizes
    }

    /// Depth of each node (root has depth 0).
    pub fn depths(&self) -> Vec<usize> {
        let mut depth = vec![0usize; self.len()];
        for &i in self.dfs_topdown().iter() {
            if let Some(par) = self.parent[i] {
                depth[i] = depth[par] + 1;
            }
        }
        depth
    }

    /// Height of the tree: the maximum depth over all nodes.
    pub fn height(&self) -> usize {
        self.depths().into_iter().max().unwrap_or(0)
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        (0..self.len()).filter(|&i| self.is_leaf(i)).count()
    }

    /// Maximum number of children over all nodes.
    pub fn max_degree(&self) -> usize {
        (0..self.len())
            .map(|i| self.child_count(i))
            .max()
            .unwrap_or(0)
    }

    /// Iterate over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.len()
    }

    /// Return a copy of the tree with new weights but the same topology.
    ///
    /// # Panics
    /// Panics if the weight vectors do not have `self.len()` entries or if an
    /// input-file size is negative.
    pub fn with_weights(&self, files: Vec<Size>, weights: Vec<Size>) -> Tree {
        assert_eq!(files.len(), self.len(), "files length mismatch");
        assert_eq!(weights.len(), self.len(), "weights length mismatch");
        assert!(
            files.iter().all(|&f| f >= 0),
            "input files must be non-negative"
        );
        let mut tree = Tree {
            parent: self.parent.clone(),
            child_starts: self.child_starts.clone(),
            child_list: self.child_list.clone(),
            f: files,
            n: weights,
            children_file_sum: Vec::new(),
            mem_req: Vec::new(),
            max_mem_req: 0,
            root: self.root,
        };
        tree.recompute_derived();
        tree
    }

    /// Parent-pointer representation (useful for serialization and tests).
    pub fn parents(&self) -> &[Option<NodeId>] {
        &self.parent
    }

    /// All input-file sizes.
    pub fn files(&self) -> &[Size] {
        &self.f
    }

    /// All execution-file sizes.
    pub fn weights(&self) -> &[Size] {
        &self.n
    }
}

/// Incremental construction of a [`Tree`].
///
/// ```
/// use treemem::TreeBuilder;
/// let mut b = TreeBuilder::new();
/// let root = b.add_root(0, 0);
/// let child = b.add_child(root, 5, 1);
/// b.add_child(child, 7, 2);
/// let tree = b.build().unwrap();
/// assert_eq!(tree.len(), 3);
/// assert_eq!(tree.mem_req(root), 5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TreeBuilder {
    parents: Vec<Option<NodeId>>,
    files: Vec<Size>,
    weights: Vec<Size>,
}

impl TreeBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a builder with pre-allocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            parents: Vec::with_capacity(capacity),
            files: Vec::with_capacity(capacity),
            weights: Vec::with_capacity(capacity),
        }
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.parents.len()
    }

    /// Whether no node has been added yet.
    pub fn is_empty(&self) -> bool {
        self.parents.is_empty()
    }

    /// Add the root node with input-file size `f` and execution size `n`.
    /// Returns its id.
    pub fn add_root(&mut self, f: Size, n: Size) -> NodeId {
        self.push(None, f, n)
    }

    /// Add a child of `parent` with input-file size `f` and execution size
    /// `n`. Returns its id.
    pub fn add_child(&mut self, parent: NodeId, f: Size, n: Size) -> NodeId {
        self.push(Some(parent), f, n)
    }

    fn push(&mut self, parent: Option<NodeId>, f: Size, n: Size) -> NodeId {
        let id = self.parents.len();
        self.parents.push(parent);
        self.files.push(f);
        self.weights.push(n);
        id
    }

    /// Finish construction and validate the tree.
    pub fn build(self) -> Result<Tree, TreeError> {
        Tree::from_parents(&self.parents, &self.files, &self.weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(sizes: &[Size]) -> Tree {
        let mut b = TreeBuilder::new();
        let mut prev = b.add_root(sizes[0], 0);
        for &s in &sizes[1..] {
            prev = b.add_child(prev, s, 0);
        }
        b.build().unwrap()
    }

    #[test]
    fn builder_and_accessors() {
        let mut b = TreeBuilder::new();
        let r = b.add_root(1, 2);
        let a = b.add_child(r, 3, 4);
        let c = b.add_child(r, 5, 6);
        let d = b.add_child(a, 7, 8);
        let tree = b.build().unwrap();
        assert_eq!(tree.len(), 4);
        assert_eq!(tree.root(), r);
        assert_eq!(tree.parent(a), Some(r));
        assert_eq!(tree.parent(r), None);
        assert_eq!(tree.children(r), &[a, c]);
        assert_eq!(tree.f(d), 7);
        assert_eq!(tree.n(d), 8);
        assert!(tree.is_leaf(c));
        assert!(!tree.is_leaf(r));
        assert_eq!(tree.children_file_sum(r), 8);
        assert_eq!(tree.mem_req(r), 1 + 2 + 8);
        assert_eq!(tree.mem_req(d), 15);
        assert_eq!(tree.max_mem_req(), 15);
        assert_eq!(tree.leaf_count(), 2);
        assert_eq!(tree.max_degree(), 2);
        assert_eq!(tree.height(), 2);
    }

    #[test]
    fn from_parents_roundtrip() {
        let parents = [None, Some(0), Some(0), Some(1)];
        let files = [0, 2, 3, 4];
        let weights = [1, 1, 1, 1];
        let tree = Tree::from_parents(&parents, &files, &weights).unwrap();
        assert_eq!(tree.parents(), &parents);
        assert_eq!(tree.files(), &files);
        assert_eq!(tree.weights(), &weights);
        assert_eq!(tree.root(), 0);
        assert_eq!(tree.subtree_sizes(), vec![4, 2, 1, 1]);
        assert_eq!(tree.depths(), vec![0, 1, 1, 2]);
    }

    #[test]
    fn rejects_bad_structure() {
        assert_eq!(Tree::from_parents(&[], &[], &[]), Err(TreeError::Empty));
        assert_eq!(
            Tree::from_parents(&[None, None], &[0, 0], &[0, 0]),
            Err(TreeError::MultipleRoots(0, 1))
        );
        assert_eq!(
            Tree::from_parents(&[Some(1), Some(0)], &[0, 0], &[0, 0]),
            Err(TreeError::NoRoot)
        );
        assert_eq!(
            Tree::from_parents(&[None, Some(5)], &[0, 0], &[0, 0]),
            Err(TreeError::InvalidParent { node: 1, parent: 5 })
        );
        assert_eq!(
            Tree::from_parents(&[None, Some(0)], &[0, -3], &[0, 0]),
            Err(TreeError::NegativeFileSize { node: 1, size: -3 })
        );
        assert_eq!(
            Tree::from_parents(&[None], &[0, 1], &[0]),
            Err(TreeError::LengthMismatch {
                parents: 1,
                files: 2,
                weights: 1
            })
        );
    }

    #[test]
    fn negative_execution_size_is_allowed() {
        let tree = Tree::from_parents(&[None, Some(0)], &[4, 2], &[-2, 0]).unwrap();
        assert_eq!(tree.mem_req(0), 4 - 2 + 2);
    }

    #[test]
    fn dfs_orders_respect_parent_child_relation() {
        let mut b = TreeBuilder::new();
        let r = b.add_root(0, 0);
        let a = b.add_child(r, 1, 0);
        let c = b.add_child(r, 1, 0);
        let d = b.add_child(a, 1, 0);
        let e = b.add_child(c, 1, 0);
        let tree = b.build().unwrap();
        let top = tree.dfs_topdown();
        assert_eq!(top.len(), 5);
        let pos: Vec<usize> = {
            let mut pos = vec![0; 5];
            for (idx, &node) in top.iter().enumerate() {
                pos[node] = idx;
            }
            pos
        };
        for i in [a, c, d, e] {
            assert!(pos[tree.parent(i).unwrap()] < pos[i]);
        }
        let bottom = tree.dfs_bottomup();
        let mut rev = top.clone();
        rev.reverse();
        assert_eq!(bottom, rev);
    }

    #[test]
    fn chain_statistics() {
        let tree = chain(&[1, 2, 3, 4, 5]);
        assert_eq!(tree.height(), 4);
        assert_eq!(tree.leaf_count(), 1);
        assert_eq!(tree.max_degree(), 1);
        assert_eq!(tree.total_file_size(), 15);
        assert_eq!(tree.max_mem_req(), 4 + 5);
        assert_eq!(tree.memory_upper_bound(), 15);
    }

    #[test]
    fn csr_layout_matches_the_parent_pointers() {
        let parents = [None, Some(0), Some(0), Some(1), Some(0), Some(1)];
        let files = [0, 1, 2, 3, 4, 5];
        let weights = [0; 6];
        let tree = Tree::from_parents(&parents, &files, &weights).unwrap();
        assert_eq!(tree.children(0), &[1, 2, 4]);
        assert_eq!(tree.children(1), &[3, 5]);
        assert_eq!(tree.children(2), &[] as &[NodeId]);
        // Precomputed quantities agree with a direct evaluation.
        for i in tree.nodes() {
            let direct: Size = tree.children(i).iter().map(|&j| tree.f(j)).sum();
            assert_eq!(tree.children_file_sum(i), direct);
            assert_eq!(tree.mem_req(i), tree.f(i) + tree.n(i) + direct);
            assert_eq!(tree.child_count(i), tree.children(i).len());
        }
        assert_eq!(
            tree.max_mem_req(),
            tree.nodes().map(|i| tree.mem_req(i)).max().unwrap()
        );
    }

    #[test]
    fn with_weights_recomputes_derived_quantities() {
        let tree = chain(&[1, 2, 3]);
        let tree2 = tree.with_weights(vec![5, 6, 7], vec![1, 1, 1]);
        assert_eq!(tree2.children_file_sum(0), 6);
        assert_eq!(tree2.mem_req(1), 6 + 1 + 7);
        assert_eq!(tree2.max_mem_req(), 14);
    }

    #[test]
    fn with_weights_preserves_topology() {
        let tree = chain(&[1, 2, 3]);
        let tree2 = tree.with_weights(vec![5, 5, 5], vec![1, 1, 1]);
        assert_eq!(tree2.parents(), tree.parents());
        assert_eq!(tree2.f(1), 5);
        assert_eq!(tree2.n(2), 1);
    }
}
