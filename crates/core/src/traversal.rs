//! Traversals of a tree workflow and their memory behaviour.
//!
//! A [`Traversal`] is an ordering of the nodes of a [`Tree`].  It is *valid*
//! when every node appears exactly once and after its parent
//! (Equation (2) of the paper).  For a valid traversal the resident memory at
//! every instant is fully determined, and this module computes it exactly:
//!
//! * [`Traversal::check_in_core`] is Algorithm 1 of the paper: given a memory
//!   size `M`, decide whether the traversal can be executed fully in core;
//! * [`Traversal::peak_memory`] returns the smallest such `M`;
//! * [`Traversal::memory_profile`] returns the step-by-step memory usage,
//!   which is also the basis of the hill–valley representation used by Liu's
//!   exact algorithm.

use crate::error::TraversalError;
use crate::tree::{NodeId, Size, Tree};

/// An ordering of the nodes of a tree (top-down: the root is executed first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Traversal {
    order: Vec<NodeId>,
}

/// Memory usage of one step of a traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryStep {
    /// The node executed at this step.
    pub node: NodeId,
    /// Memory resident *while* the node executes (frontier + execution file +
    /// output files).
    pub during: Size,
    /// Memory resident after the node has executed (frontier files only).
    pub after: Size,
}

/// Step-by-step memory usage of a traversal; see [`Traversal::memory_profile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryProfile {
    /// One entry per executed node, in traversal order.
    pub steps: Vec<MemoryStep>,
}

impl MemoryProfile {
    /// The peak memory of the traversal: the largest `during` value
    /// (at least the size of the root input file).
    pub fn peak(&self) -> Size {
        self.steps.iter().map(|s| s.during).max().unwrap_or(0)
    }
}

impl Traversal {
    /// Wrap an explicit node ordering.
    pub fn new(order: Vec<NodeId>) -> Self {
        Traversal { order }
    }

    /// The node ordering (first executed node first).
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Number of scheduled nodes.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the traversal is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Consume the traversal and return the underlying ordering.
    pub fn into_order(self) -> Vec<NodeId> {
        self.order
    }

    /// Position of each node in the traversal: `positions[i] = σ(i) - 1`.
    ///
    /// Returns an error if the traversal is not a permutation of `0..len`.
    pub fn positions(&self, num_nodes: usize) -> Result<Vec<usize>, TraversalError> {
        if self.order.len() != num_nodes {
            return Err(TraversalError::WrongLength {
                expected: num_nodes,
                found: self.order.len(),
            });
        }
        let mut pos = vec![usize::MAX; num_nodes];
        for (step, &node) in self.order.iter().enumerate() {
            if node >= num_nodes || pos[node] != usize::MAX {
                return Err(TraversalError::NotAPermutation);
            }
            pos[node] = step;
        }
        Ok(pos)
    }

    /// Check that the traversal visits every node exactly once and never
    /// schedules a node before its parent (Equation (2)), and return the
    /// position map the check computes ([`Traversal::positions`]), so a
    /// caller validates and indexes the traversal in one pass.
    pub fn check_precedence(&self, tree: &Tree) -> Result<Vec<usize>, TraversalError> {
        let pos = self.positions(tree.len())?;
        for i in tree.nodes() {
            if let Some(par) = tree.parent(i) {
                if pos[par] >= pos[i] {
                    return Err(TraversalError::PrecedenceViolation {
                        node: i,
                        parent: par,
                    });
                }
            }
        }
        Ok(pos)
    }

    /// Algorithm 1 of the paper: check whether the traversal is a feasible
    /// in-core traversal with main memory `memory`.
    ///
    /// Returns `Ok(())` on success and the first violation otherwise.
    pub fn check_in_core(&self, tree: &Tree, memory: Size) -> Result<(), TraversalError> {
        let profile = self.memory_profile(tree)?;
        for (step, s) in profile.steps.iter().enumerate() {
            if s.during > memory {
                return Err(TraversalError::OutOfMemory {
                    step,
                    node: s.node,
                    required: s.during,
                    available: memory,
                });
            }
        }
        Ok(())
    }

    /// Smallest main-memory size for which this traversal is feasible in
    /// core, i.e. its peak memory.
    pub fn peak_memory(&self, tree: &Tree) -> Result<Size, TraversalError> {
        Ok(self.memory_profile(tree)?.peak())
    }

    /// Compute the exact memory usage of every step of the traversal.
    ///
    /// The resident memory between steps is the total size of the *frontier*
    /// files: input files of nodes whose parent has been executed but which
    /// have not been executed themselves (the root input file is initially
    /// resident).  While node `i` executes, its execution file and the input
    /// files of its children are resident as well.
    pub fn memory_profile(&self, tree: &Tree) -> Result<MemoryProfile, TraversalError> {
        self.check_precedence(tree)?;
        let mut resident = tree.f(tree.root());
        let mut steps = Vec::with_capacity(self.order.len());
        for &i in &self.order {
            let children_sum = tree.children_file_sum(i);
            let during = resident + tree.n(i) + children_sum;
            let after = resident - tree.f(i) + children_sum;
            steps.push(MemoryStep {
                node: i,
                during,
                after,
            });
            resident = after;
        }
        Ok(MemoryProfile { steps })
    }

    /// Reverse the traversal.  By the in-tree ↔ out-tree equivalence of
    /// Section III-C of the paper, the reverse of a valid bottom-up traversal
    /// of the same tree (interpreted as an in-tree) is a valid top-down
    /// traversal with the same peak memory, and vice versa.
    pub fn reversed(&self) -> Traversal {
        let mut order = self.order.clone();
        order.reverse();
        Traversal::new(order)
    }
}

impl From<Vec<NodeId>> for Traversal {
    fn from(order: Vec<NodeId>) -> Self {
        Traversal::new(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeBuilder;

    /// Root with two branches: root -> a(2) -> b(6), root -> c(3) -> d(4).
    fn two_branches() -> (Tree, NodeId, NodeId, NodeId, NodeId, NodeId) {
        let mut builder = TreeBuilder::new();
        let r = builder.add_root(1, 0);
        let a = builder.add_child(r, 2, 0);
        let b = builder.add_child(a, 6, 0);
        let c = builder.add_child(r, 3, 0);
        let d = builder.add_child(c, 4, 0);
        (builder.build().unwrap(), r, a, b, c, d)
    }

    #[test]
    fn profile_of_a_chain() {
        let mut builder = TreeBuilder::new();
        let r = builder.add_root(1, 10);
        let a = builder.add_child(r, 2, 0);
        let b = builder.add_child(a, 3, 5);
        let tree = builder.build().unwrap();
        let tr = Traversal::new(vec![r, a, b]);
        let profile = tr.memory_profile(&tree).unwrap();
        // root: resident 1, during 1 + 10 + 2 = 13, after 2.
        // a:    during 2 + 0 + 3 = 5, after 3.
        // b:    during 3 + 5 = 8, after 0.
        assert_eq!(
            profile.steps,
            vec![
                MemoryStep {
                    node: r,
                    during: 13,
                    after: 2
                },
                MemoryStep {
                    node: a,
                    during: 5,
                    after: 3
                },
                MemoryStep {
                    node: b,
                    during: 8,
                    after: 0
                },
            ]
        );
        assert_eq!(profile.peak(), 13);
        assert_eq!(profile.steps.last().map(|s| s.after), Some(0));
        assert_eq!(tr.peak_memory(&tree).unwrap(), 13);
        assert!(tr.check_in_core(&tree, 13).is_ok());
        assert_eq!(
            tr.check_in_core(&tree, 12),
            Err(TraversalError::OutOfMemory {
                step: 0,
                node: r,
                required: 13,
                available: 12
            })
        );
    }

    #[test]
    fn interleaving_branches_changes_the_peak() {
        let (tree, r, a, b, c, d) = two_branches();
        // Process branch (a, b) fully first: while b runs, c's file (3) is resident.
        let postorder_like = Traversal::new(vec![r, a, b, c, d]);
        // Interleave: run a and c first (reducing 2->6? no: a produces 6).
        let other = Traversal::new(vec![r, c, d, a, b]);
        let p1 = postorder_like.peak_memory(&tree).unwrap();
        let p2 = other.peak_memory(&tree).unwrap();
        // Branch (a, b) first: while a runs, c's file (3) is still resident:
        // 2 + 6 + 3 = 11.
        assert_eq!(p1, 11);
        // Branch (c, d) first: the worst step is c (resident 2 + 3, output 4),
        // then a only sees an empty right branch: peak 9.
        assert_eq!(p2, 9);
    }

    #[test]
    fn precedence_violations_are_reported() {
        let (tree, r, a, b, _c, _d) = two_branches();
        let bad = Traversal::new(vec![r, b, a, 3, 4]);
        assert_eq!(
            bad.check_precedence(&tree),
            Err(TraversalError::PrecedenceViolation { node: b, parent: a })
        );
        let not_perm = Traversal::new(vec![r, a, a, 3, 4]);
        assert_eq!(
            not_perm.check_precedence(&tree),
            Err(TraversalError::NotAPermutation)
        );
        let short = Traversal::new(vec![r, a]);
        assert_eq!(
            short.check_precedence(&tree),
            Err(TraversalError::WrongLength {
                expected: 5,
                found: 2
            })
        );
    }

    #[test]
    fn positions_inverts_the_order() {
        let (tree, r, a, b, c, d) = two_branches();
        let tr = Traversal::new(vec![r, c, a, d, b]);
        let pos = tr.positions(tree.len()).unwrap();
        assert_eq!(pos[r], 0);
        assert_eq!(pos[c], 1);
        assert_eq!(pos[b], 4);
        assert_eq!(pos[a], 2);
        assert_eq!(pos[d], 3);
        assert_eq!(tr.check_precedence(&tree), Ok(pos));
    }

    #[test]
    fn reversed_round_trips() {
        let tr = Traversal::new(vec![0, 2, 1]);
        assert_eq!(tr.reversed().order(), &[1, 2, 0]);
        assert_eq!(tr.reversed().reversed(), tr);
    }

    #[test]
    fn negative_execution_sizes_reduce_the_peak() {
        // Replacement-model style node: n = -min(f, children sum).
        let mut builder = TreeBuilder::new();
        let r = builder.add_root(5, -5);
        let a = builder.add_child(r, 7, 0);
        let tree = builder.build().unwrap();
        let tr = Traversal::new(vec![r, a]);
        // during root: 5 - 5 + 7 = 7 (replacement semantics: max(f, out) = 7).
        assert_eq!(tr.peak_memory(&tree).unwrap(), 7);
    }
}
