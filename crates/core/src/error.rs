//! Error types for tree construction and traversal validation.

use std::fmt;

use crate::tree::{NodeId, Size};

/// Errors raised while building or validating a [`crate::Tree`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// The tree has no nodes.
    Empty,
    /// More than one node has no parent.
    MultipleRoots(NodeId, NodeId),
    /// No node without a parent was found (the parent pointers contain a cycle).
    NoRoot,
    /// A parent index refers to a node that does not exist.
    InvalidParent { node: NodeId, parent: NodeId },
    /// A node is its own ancestor.
    Cycle(NodeId),
    /// A file size is negative.
    NegativeFileSize { node: NodeId, size: Size },
    /// `Σ f(i) + max |n(i)|`, which bounds every memory total a traversal
    /// can form, does not fit in [`Size`].
    SizeOverflow,
    /// More nodes than [`crate::tree::MAX_NODES`], the `u32` parent range.
    TooLarge { nodes: usize },
    /// Mismatched input lengths (parents / file sizes / execution sizes).
    LengthMismatch {
        parents: usize,
        files: usize,
        weights: usize,
    },
}

impl fmt::Display for TreeError {
    fn fmt(&self, fmt: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::Empty => write!(fmt, "tree has no nodes"),
            TreeError::MultipleRoots(a, b) => {
                write!(fmt, "tree has multiple roots (nodes {a} and {b})")
            }
            TreeError::NoRoot => write!(fmt, "tree has no root (cycle in parent pointers)"),
            TreeError::InvalidParent { node, parent } => {
                write!(fmt, "node {node} refers to nonexistent parent {parent}")
            }
            TreeError::Cycle(node) => write!(fmt, "node {node} is its own ancestor"),
            TreeError::NegativeFileSize { node, size } => {
                write!(fmt, "node {node} has negative input-file size {size}")
            }
            TreeError::SizeOverflow => write!(
                fmt,
                "the input files plus the largest execution file exceed {}",
                Size::MAX
            ),
            TreeError::TooLarge { nodes } => write!(
                fmt,
                "tree has {nodes} nodes, more than the maximum {}",
                crate::tree::MAX_NODES
            ),
            TreeError::LengthMismatch {
                parents,
                files,
                weights,
            } => write!(
                fmt,
                "length mismatch: {parents} parents, {files} file sizes, {weights} execution sizes"
            ),
        }
    }
}

impl std::error::Error for TreeError {}

/// Errors raised when checking a traversal (Algorithm 1 / Algorithm 2 of the
/// paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraversalError {
    /// The traversal does not contain every node exactly once.
    NotAPermutation,
    /// A node is scheduled before its parent.
    PrecedenceViolation { node: NodeId, parent: NodeId },
    /// The memory limit is exceeded at the given step.
    OutOfMemory {
        step: usize,
        node: NodeId,
        required: Size,
        available: Size,
    },
    /// The traversal length does not match the number of tree nodes.
    WrongLength { expected: usize, found: usize },
    /// An I/O operation refers to a file that has not been produced yet.
    FileNotProduced { node: NodeId },
    /// An I/O operation evicts a file that is not resident.
    FileNotResident { node: NodeId },
}

impl fmt::Display for TraversalError {
    fn fmt(&self, fmt: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraversalError::NotAPermutation => {
                write!(fmt, "traversal is not a permutation of the tree nodes")
            }
            TraversalError::PrecedenceViolation { node, parent } => {
                write!(fmt, "node {node} scheduled before its parent {parent}")
            }
            TraversalError::OutOfMemory { step, node, required, available } => write!(
                fmt,
                "out of memory at step {step}: node {node} requires {required} but only {available} is available"
            ),
            TraversalError::WrongLength { expected, found } => {
                write!(fmt, "traversal has {found} entries, tree has {expected} nodes")
            }
            TraversalError::FileNotProduced { node } => {
                write!(fmt, "file of node {node} written to secondary memory before being produced")
            }
            TraversalError::FileNotResident { node } => {
                write!(fmt, "file of node {node} evicted while not resident in main memory")
            }
        }
    }
}

impl std::error::Error for TraversalError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = TreeError::InvalidParent {
            node: 3,
            parent: 17,
        };
        assert!(err.to_string().contains("17"));
        let err = TraversalError::OutOfMemory {
            step: 2,
            node: 5,
            required: 10,
            available: 3,
        };
        let text = err.to_string();
        assert!(text.contains("step 2") && text.contains("10") && text.contains('3'));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(TreeError::Empty, TreeError::Empty);
        assert_ne!(
            TraversalError::NotAPermutation,
            TraversalError::WrongLength {
                expected: 1,
                found: 2
            }
        );
    }
}
