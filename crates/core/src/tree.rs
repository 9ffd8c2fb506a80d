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

/// The root's entry in [`Tree`]'s parent array.
const ROOT: u32 = u32::MAX;

/// The most nodes a [`Tree`] may have: its parents are `u32`s, with
/// `u32::MAX` kept free to mark the root.
pub const MAX_NODES: usize = ROOT as usize - 1;

/// A rooted tree workflow with per-node input-file and execution-file sizes.
///
/// The structure is immutable once built (via [`TreeBuilder`] or one of the
/// `from_*` constructors); all algorithms in this crate borrow it.
///
/// # Storage layout
///
/// 36 bytes a node, in six flat arrays:
///
/// * `parent`: one `u32` per node (at most [`MAX_NODES`] nodes), the root
///   holding a sentinel that [`Tree::parent`] and [`Tree::parents`] turn
///   into `None`;
/// * `child_starts` and `child_list`: the children in a CSR (compressed
///   sparse row) layout of `u32`s, 8 bytes a node between them — the
///   children of node `i` are `child_list[child_starts[i]..child_starts[i+1]]`,
///   in increasing node-id order (which is also their insertion order, since
///   node ids are assigned in construction order).  The whole adjacency is
///   two contiguous arrays instead of one heap allocation per node, which
///   matters for the exact solvers and the out-of-core simulator on trees
///   with 10⁵–10⁶ nodes;
/// * `f`, `n` and `mem_req`: one [`Size`] each.  `MemReq(i)` is the one
///   derived weight stored — every solver and walk reads it per node — and
///   [`Tree::children_file_sum`] is computed from it as
///   `MemReq(i) − f(i) − n(i)`; `max_i MemReq(i)` is cached too, so both
///   are O(1).
///
/// [`Tree::heap_bytes`] is exactly `36 · len()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tree {
    parent: Vec<u32>,
    /// CSR offsets: children of `i` live at `child_list[child_starts[i]..child_starts[i + 1]]`.
    child_starts: Vec<u32>,
    /// CSR payload: all child ids, grouped by parent.
    child_list: Vec<u32>,
    f: Vec<Size>,
    n: Vec<Size>,
    /// Precomputed `MemReq(i) = f(i) + n(i) + Σ_{j ∈ children(i)} f(j)` per node.
    mem_req: Vec<Size>,
    /// Precomputed `max_i MemReq(i)`.
    max_mem_req: Size,
    root: NodeId,
}

impl Tree {
    /// Build a tree from parent pointers and node weights.
    ///
    /// `parents[i]` is the parent of node `i` (`None` for the root, which must
    /// be unique), `files[i]` is `f(i)` and `weights[i]` is `n(i)`.  More
    /// than [`MAX_NODES`] nodes are refused before anything is allocated.
    pub fn from_parents(
        parents: &[Option<NodeId>],
        files: &[Size],
        weights: &[Size],
    ) -> Result<Self, TreeError> {
        check_node_count(parents.len())?;
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
        // every node into `child_starts[parent]`, an inclusive prefix sum
        // turns the counts into the end of every node's children, and a
        // final pass in decreasing child id moves each end down to its
        // start, so every family lands in increasing id order.
        let mut child_starts = vec![0u32; p + 1];
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
                    child_starts[par] += 1;
                }
            }
        }
        let root = root.ok_or(TreeError::NoRoot)?;
        for (i, &fi) in files.iter().enumerate() {
            if fi < 0 {
                return Err(TreeError::NegativeFileSize { node: i, size: fi });
            }
        }
        // Every resident total, `MemReq` and peak is at most Σ f(i) plus one
        // execution file (and at least minus one), so a tree whose bound
        // fits in `Size` keeps all of that arithmetic in range.
        let files_total = files
            .iter()
            .try_fold(0 as Size, |sum, &f| sum.checked_add(f));
        let largest_weight = weights
            .iter()
            .try_fold(0 as Size, |max, n| Some(max.max(n.checked_abs()?)));
        if files_total
            .zip(largest_weight)
            .and_then(|(files, weight)| files.checked_add(weight))
            .is_none()
        {
            return Err(TreeError::SizeOverflow);
        }
        for i in 0..p {
            child_starts[i + 1] += child_starts[i];
        }
        let mut child_list = vec![0u32; p - 1];
        for (i, &par) in parents.iter().enumerate().rev() {
            if let Some(par) = par {
                child_starts[par] -= 1;
                child_list[child_starts[par] as usize] = i as u32;
            }
        }
        let mut tree = Tree {
            parent: parents
                .iter()
                .map(|p| p.map_or(ROOT, |p| p as u32))
                .collect(),
            child_starts,
            child_list,
            f: files.to_vec(),
            n: weights.to_vec(),
            mem_req: Vec::new(),
            max_mem_req: 0,
            root,
        };
        tree.check_acyclic()?;
        tree.recompute_derived();
        Ok(tree)
    }

    /// Recompute the precomputed per-node quantities (`mem_req`,
    /// `max_mem_req`) from the topology and the current weights.
    fn recompute_derived(&mut self) {
        let mem_req: Vec<Size> = (0..self.len())
            .map(|i| {
                let children: Size = self.children(i).iter().map(|&j| self.f[j as usize]).sum();
                self.f[i] + self.n[i] + children
            })
            .collect();
        self.max_mem_req = mem_req.iter().copied().max().unwrap_or(0);
        self.mem_req = mem_req;
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
                match self.parent(cur) {
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

    /// Heap footprint of the tree in bytes: the summed lengths of its
    /// arrays, 36 a node (see the storage layout).  Used by the serving
    /// caches to charge plans byte-accurate footprints.
    pub fn heap_bytes(&self) -> u64 {
        use std::mem::size_of;
        let indices = (self.parent.len() + self.child_starts.len() + self.child_list.len())
            * size_of::<u32>();
        let sizes = (self.f.len() + self.n.len() + self.mem_req.len()) * size_of::<Size>();
        (indices + sizes) as u64
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
        let p = self.parent[i];
        (p != ROOT).then_some(p as NodeId)
    }

    /// Children of `i`, in increasing id order (a slice of the flat CSR
    /// list; every id is below [`MAX_NODES`], so `c as usize` is exact).
    #[inline]
    pub fn children(&self, i: NodeId) -> &[u32] {
        &self.child_list[self.child_starts[i] as usize..self.child_starts[i + 1] as usize]
    }

    /// The CSR child arrays: the children of `i` are
    /// `list[starts[i] as usize..starts[i + 1] as usize]`.
    #[inline]
    pub(crate) fn child_csr(&self) -> (&[u32], &[u32]) {
        (&self.child_starts, &self.child_list)
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
        (self.child_starts[i + 1] - self.child_starts[i]) as usize
    }

    /// Total size of the output files of `i` (`Σ_{j ∈ children(i)} f(j)`),
    /// computed as `MemReq(i) − f(i) − n(i)`; O(1).
    #[inline]
    pub fn children_file_sum(&self, i: NodeId) -> Size {
        self.mem_req[i] - self.f[i] - self.n[i]
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
            stack.extend(self.children(i).iter().rev().map(|&c| c as NodeId));
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
            if let Some(par) = self.parent(i) {
                sizes[par] += sizes[i];
            }
        }
        sizes
    }

    /// Depth of each node (root has depth 0).
    pub fn depths(&self) -> Vec<usize> {
        let mut depth = vec![0usize; self.len()];
        for &i in self.dfs_topdown().iter() {
            if let Some(par) = self.parent(i) {
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
            mem_req: Vec::new(),
            max_mem_req: 0,
            root: self.root,
        };
        tree.recompute_derived();
        tree
    }

    /// Parent-pointer representation (useful for serialization and tests):
    /// [`Tree::parent`] of every node, in node order.
    pub fn parents(&self) -> impl ExactSizeIterator<Item = Option<NodeId>> + '_ {
        (0..self.len()).map(|i| self.parent(i))
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

/// `Ok` when `nodes` fits the `u32` parents: at most [`MAX_NODES`].
fn check_node_count(nodes: usize) -> Result<(), TreeError> {
    if nodes > MAX_NODES {
        Err(TreeError::TooLarge { nodes })
    } else {
        Ok(())
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
        assert_eq!(tree.children(r), &[a as u32, c as u32]);
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
        assert_eq!(tree.parents().collect::<Vec<_>>(), parents);
        assert_eq!(tree.files(), &files);
        assert_eq!(tree.weights(), &weights);
        assert_eq!(tree.root(), 0);
        assert_eq!(tree.subtree_sizes(), vec![4, 2, 1, 1]);
        assert_eq!(tree.depths(), vec![0, 1, 1, 2]);
    }

    /// Parents and the CSR children are 4 bytes each (the offsets and the
    /// child list are `p + 1` and `p − 1` entries), the three sizes 8: 36
    /// bytes a node.
    #[test]
    fn heap_bytes_count_four_byte_parents() {
        let tree = chain(&[0, 1, 2]);
        assert_eq!(tree.heap_bytes(), (3 * 4 + (4 + 2) * 4 + 3 * 3 * 8) as u64);
        assert_eq!(tree.heap_bytes(), 36 * 3);
    }

    /// The root's sentinel never leaks: `parent` and `parents` say `None`
    /// for the root only, and every other parent is a node of the tree, on
    /// trees of one node, a chain, a star and a root that is not node 0.
    #[test]
    fn the_root_sentinel_never_leaks() {
        let shapes: [&[Option<NodeId>]; 4] = [
            &[None],
            &[None, Some(0), Some(1)],
            &[None, Some(0), Some(0), Some(0)],
            &[Some(2), Some(2), None, Some(1)],
        ];
        for parents in shapes {
            let sizes = vec![1; parents.len()];
            let tree = Tree::from_parents(parents, &sizes, &sizes).unwrap();
            assert_eq!(tree.parents().len(), parents.len());
            assert!(tree.parents().eq(parents.iter().copied()), "{parents:?}");
            for i in tree.nodes() {
                assert_eq!(tree.parent(i).is_none(), i == tree.root(), "{parents:?}");
                assert!(tree.parent(i).is_none_or(|p| p < tree.len()));
            }
        }
    }

    /// More nodes than the `u32` parents hold are refused by the count
    /// alone, the first check `from_parents` makes.
    #[test]
    fn a_node_count_past_u32_is_refused() {
        assert_eq!(check_node_count(MAX_NODES), Ok(()));
        for nodes in [MAX_NODES + 1, u32::MAX as usize, usize::MAX] {
            assert_eq!(check_node_count(nodes), Err(TreeError::TooLarge { nodes }));
        }
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
        // Σ f(i) + max |n(i)| must fit in `Size`; Σ f(i) alone is not
        // enough, and a negative execution file counts by its magnitude.
        let big = Size::MAX;
        for (files, weights) in [
            ([1, big, big], [0, 0, 0]),
            ([0, big, 0], [0, 0, 1]),
            ([0, big, 0], [0, -1, 0]),
            ([0, 0, 0], [Size::MIN, 0, 0]),
        ] {
            assert_eq!(
                Tree::from_parents(&[None, Some(0), Some(0)], &files, &weights),
                Err(TreeError::SizeOverflow)
            );
        }
        let tree = Tree::from_parents(&[None, Some(0)], &[0, big - 1], &[-1, 0]).unwrap();
        assert_eq!(tree.memory_upper_bound(), big - 1);
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
        assert_eq!(tree.children(2), &[] as &[u32]);
        // Precomputed quantities agree with a direct evaluation.
        for i in tree.nodes() {
            let direct: Size = tree.children(i).iter().map(|&j| tree.f(j as NodeId)).sum();
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
        assert!(tree2.parents().eq(tree.parents()));
        assert_eq!(tree2.f(1), 5);
        assert_eq!(tree2.n(2), 1);
    }
}
