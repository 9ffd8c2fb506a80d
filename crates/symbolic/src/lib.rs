//! # symbolic — symbolic Cholesky factorization and assembly trees
//!
//! This crate turns an ordered sparse symmetric pattern into the
//! **assembly trees** on which the paper's algorithms operate
//! (Section II-A and VI-B of the paper):
//!
//! 1. [`elimination_tree`] — Liu's algorithm for the elimination tree of the
//!    Cholesky factor;
//! 2. [`column_counts`] — the number of nonzeros of every column of `L`
//!    (computed from the row subtrees of the elimination tree);
//! 3. [`amalgamate`] — perfect and relaxed node amalgamation, producing an
//!    [`AssemblyTree`] whose nodes carry the paper's weights:
//!    the execution weight `η² + 2η(µ − 1)` and the contribution-block
//!    (edge) weight `(µ − 1)²`, where `η` is the number of amalgamated
//!    columns and `µ` the number of nonzeros of the column of `L` associated
//!    with the highest node of the group;
//! 4. [`pipeline`] — convenience drivers that run the whole chain
//!    (pattern → ordering → elimination tree → assembly trees), used by the
//!    experiment harness's corpus and by the engine parity tests.
//!
//! The resulting [`AssemblyTree::tree`] is a [`treemem::Tree`] and can be fed
//! directly to the MinMemory algorithms and MinIO heuristics.

pub mod amalgamation;
pub mod colcount;
pub mod etree;
pub mod pipeline;

pub use amalgamation::{amalgamate, AssemblyTree};
pub use colcount::column_counts;
pub use etree::{elimination_tree, etree_postorder, EliminationTree};
pub use pipeline::{assembly_instances, assembly_tree_for, AssemblyInstance, PipelineConfig};
