//! # sparsemat — sparse symmetric matrices for assembly-tree construction
//!
//! This crate is the data substrate of the reproduction: the paper evaluates
//! its algorithms on assembly trees built from matrices of the University of
//! Florida Sparse Matrix Collection; since that collection is external data,
//! this crate provides **synthetic generators** spanning the same structural
//! regimes (regular grids from discretised PDEs, banded systems, random and
//! power-law patterns) together with the basic sparse data structures needed
//! by the `ordering`, `symbolic` and `multifrontal` crates:
//!
//! * [`SparsePattern`] — the adjacency structure of a sparse **symmetric**
//!   matrix (the graph of `|A| + |Aᵀ| + I`, self-loops removed), which is all
//!   the ordering and symbolic-factorization algorithms need;
//! * [`SymmetricCsr`] — the numeric lower triangle in compressed columns,
//!   for the multifrontal demonstration
//!   ([`gen::spd_matrix_from_pattern`] fills it in one pass over a pattern);
//! * [`gen`] — synthetic problem generators;
//! * [`matrixmarket`] — MatrixMarket I/O so real matrices can be plugged in
//!   when available.

pub mod gen;
pub mod matrixmarket;
pub mod pattern;

pub use pattern::{DimensionTooLarge, SparsePattern, SymmetricCsr, MAX_DIMENSION};
