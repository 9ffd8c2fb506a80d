//! # treemem — memory-aware tree traversals for sparse matrix factorization
//!
//! This crate implements the tree-workflow model and the *MinMemory*
//! algorithms of
//!
//! > M. Jacquelin, L. Marchal, Y. Robert, B. Uçar,
//! > *On optimal tree traversals for sparse matrix factorization*, IPDPS 2011.
//!
//! The workflows are rooted trees whose nodes exchange large files.  In the
//! canonical **out-tree** (top-down) orientation used throughout the crate, a
//! node `i` receives an *input file* of size `f(i)` from its parent, needs an
//! *execution file* of size `n(i)` while it runs, and produces one output
//! file per child (of size `f(child)`).  Executing node `i` therefore
//! requires
//!
//! ```text
//! MemReq(i) = f(i) + n(i) + Σ_{j ∈ children(i)} f(j)
//! ```
//!
//! units of main memory on top of the other *frontier* files that are
//! resident (files of nodes whose parent has been executed but which have not
//! been executed themselves).
//!
//! The crate provides:
//!
//! * [`Tree`] — the workflow model, with exact integer sizes;
//! * [`Traversal`] — orderings of the nodes, feasibility checking
//!   (Algorithm 1 of the paper) and peak-memory evaluation;
//! * [`postorder`] — Liu's best postorder traversal (the ordering used by
//!   multifrontal solvers such as MUMPS);
//! * [`minmem`] — the paper's exact `Explore`/`MinMem` algorithms
//!   (Algorithms 3 and 4);
//! * [`liu`] — Liu's 1987 exact algorithm based on hill–valley segments,
//!   used as an independent exact reference;
//! * [`brute`] — an exponential brute-force oracle for small trees;
//! * [`solver`] — the [`Solver`] enum that names all of the above, so
//!   callers can iterate [`Solver::ALL`] or parse a solver's name;
//! * [`variants`] — the model transformations of Section III-C (pebble
//!   replacement, Liu's x⁺/x⁻ model, in-tree ↔ out-tree reversal);
//! * [`gadgets`] — the harpoon trees of Theorem 1 and the 2-Partition
//!   gadget of Theorem 2;
//! * [`partition`] — proportional-mapping-style subtree cuts for parallel
//!   execution (subtree tasks below the cut, a sequential merge above);
//! * [`random`] — random tree generation and the random re-weighting used in
//!   Section VI-E of the paper.
//!
//! The out-of-core counterpart (the *MinIO* problem and its heuristics) lives
//! in the companion `minio` crate.
//!
//! ## Quick example
//!
//! ```
//! use treemem::{Tree, postorder::best_postorder, minmem::min_mem, liu::liu_exact};
//!
//! // A small harpoon: root -> 3 branches (u -> v -> w).
//! let tree = treemem::gadgets::harpoon(3, 300, 1);
//! let po = best_postorder(&tree);
//! let opt = min_mem(&tree);
//! let liu = liu_exact(&tree);
//! assert_eq!(opt.peak, liu.peak);
//! assert!(po.peak >= opt.peak);
//! ```

pub mod brute;
pub mod error;
pub mod faultinject;
pub mod gadgets;
pub mod liu;
pub mod minmem;
#[cfg(test)]
mod naive;
pub mod partition;
pub mod postorder;
pub mod random;
pub mod registry;
pub mod solver;
pub mod sync;
pub mod traversal;
pub mod tree;
pub mod variants;

pub use error::{TraversalError, TreeError};
pub use partition::{proportional_cut, Partition};
pub use registry::UnknownName;
pub use solver::{Solver, SolverRegistry};
pub use traversal::{MemoryProfile, Traversal};
pub use tree::{NodeId, Size, Tree, TreeBuilder};

/// Result of a MinMemory algorithm: the traversal it produced and the peak
/// memory (i.e. the minimum main-memory size for which that traversal is an
/// in-core traversal).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraversalResult {
    /// The traversal (top-down order, root first).
    pub traversal: Traversal,
    /// Peak memory of the traversal, in the same units as the file sizes.
    pub peak: Size,
}
