//! # multifrontal — a traversal-driven multifrontal Cholesky factorization
//!
//! The paper's motivation (Section II-A) is the multifrontal method: the
//! factorization of a sparse symmetric positive-definite matrix is organised
//! as a bottom-up traversal of its elimination tree, where every node
//! assembles the *contribution blocks* of its children into a dense *frontal
//! matrix*, eliminates its fully-summed variables and passes its own
//! contribution block to its parent.  The order in which the tree is
//! traversed determines how many contribution blocks are simultaneously live,
//! i.e. the memory footprint that the MinMemory / MinIO algorithms optimise.
//!
//! This crate implements that method end to end:
//!
//! * [`dense`] — the small dense kernels (Cholesky, triangular solves, Schur
//!   complement updates) applied to frontal matrices;
//! * [`numeric`] — the symbolic structure of the factor and the numeric
//!   multifrontal factorization itself, driven by an arbitrary bottom-up
//!   traversal, plus forward/backward substitution;
//! * [`memory`] — an instrumented execution that measures the real peak
//!   memory (in matrix entries) of a traversal and checks it against the
//!   prediction of the abstract tree model of the `treemem` crate, closing
//!   the loop between the paper's model and an actual factorization;
//! * [`parallel`] — the building blocks of the subtree-parallel execution
//!   layer: the shared memory-budget ledger, per-worker frontal-matrix
//!   arenas, and the partial (subtree / merge-phase) factorization.

pub mod dense;
pub mod memory;
pub mod numeric;
pub mod parallel;

pub use dense::{DenseMatrix, FrontArena, FrontKernel, DEFAULT_BLOCK};
pub use memory::{instrumented_factorization, FactorizationStats};
pub use numeric::{
    multifrontal_cholesky, solve, solve_into, CholeskyFactor, ContributionStore,
    FactorizationError, SymbolicStructure,
};
pub use parallel::{BudgetLedger, ReserveSelection, SubtreeOutcome};
