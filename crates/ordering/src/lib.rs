//! # ordering — fill-reducing orderings for sparse symmetric matrices
//!
//! The shape of an assembly tree — and therefore the behaviour of the
//! MinMemory / MinIO algorithms — depends on the *elimination order* of the
//! matrix.  The paper orders its matrices with MeTiS (nested dissection) and
//! Matlab's `amd`; this crate provides from-scratch implementations of the
//! same two algorithm families plus two simpler baselines:
//!
//! * [`minimum_degree`] — a quotient-graph minimum-degree ordering with
//!   approximate degrees and element absorption (the AMD family);
//! * [`nested_dissection`] — recursive bisection with BFS level-set
//!   separators (the MeTiS family);
//! * [`rcm()`] — reverse Cuthill–McKee, a bandwidth-reducing ordering that
//!   produces chain-like elimination trees;
//! * [`natural`] — the identity ordering.
//!
//! All functions return a [`Permutation`] in *new-to-old* convention:
//! `perm[k]` is the original index of the vertex eliminated at step `k`.
//!
//! ## Cost and determinism
//!
//! Nested dissection and RCM run on one private `Workspace` built by the
//! top-level call (`workspace.rs`), plus one per helper thread when nested
//! dissection splits a large component across two threads (bit-identically;
//! see [`dissection`]): BFS levels, piece tags and leaf labels
//! live in one epoch-stamped map that clears in O(1), the BFS queue is kept
//! as a visit list, and scratch buffers are reused, so a step over a
//! component costs O(that component), not O(n) — O(n log n)-ish on meshes,
//! O(n + nnz log) for RCM whatever the number of components.  The gate is a
//! count of marks written (`naive::tests::touched_vertices_stay_within_n_log_n`),
//! not a timing.  Leaves and separators are ordered by one reused
//! minimum-degree scratch (`mindeg::MinDegree`: the quotient graph in flat
//! arrays), whose rows the workspace fills from its local labels, so no
//! leaf builds a `SparsePattern` or allocates per vertex once the scratch
//! has grown to the largest leaf — O(log n) growths on a mesh, gated as a
//! count too (`naive::tests::the_leaf_scratch_grows_o_log_n_times`).  The
//! top-level [`minimum_degree`] builds one scratch for its single run.
//!
//! Every permutation is **pinned**: fill, supernodes, `factor_nnz`, flops,
//! traversal peaks and I/O volumes downstream are functions of it, and the
//! benchmark of record holds them to equality.  `tests/golden_permutations.rs`
//! carries FNV-1a literals of every method on every `ProblemKind` (taken
//! before the workspace existed), and the test-only `naive` module keeps the
//! pre-workspace code — minimum degree with a `Vec` per variable included —
//! as an oracle the fast code must equal on a battery of degenerate and
//! random graphs and on every `ProblemKind`.  Tie-breaks that look incidental — pieces in
//! order of their first vertex, depth-first pop order inside a piece,
//! `component[0]` as the BFS seed, local labels by position — are part of
//! the contract.

pub mod dissection;
pub mod mindeg;
pub mod perm;
pub mod rcm;
mod workspace;

#[cfg(test)]
mod naive;

pub use dissection::nested_dissection;
pub use mindeg::minimum_degree;
pub use perm::Permutation;
pub use rcm::rcm;

use sparsemat::SparsePattern;

/// The identity (natural) ordering.
pub fn natural(n: usize) -> Permutation {
    Permutation::identity(n)
}

/// The ordering methods compared by the experiment harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderingMethod {
    /// Identity ordering.
    Natural,
    /// Minimum degree ([`minimum_degree`]).
    MinimumDegree,
    /// Nested dissection ([`nested_dissection`]).
    NestedDissection,
    /// Reverse Cuthill–McKee ([`rcm()`]).
    ReverseCuthillMcKee,
}

impl OrderingMethod {
    /// Every method, in the order used by the experiment reports.
    pub const ALL: [OrderingMethod; 4] = [
        OrderingMethod::Natural,
        OrderingMethod::MinimumDegree,
        OrderingMethod::NestedDissection,
        OrderingMethod::ReverseCuthillMcKee,
    ];

    /// Short name used in experiment reports.
    pub fn name(&self) -> &'static str {
        match self {
            OrderingMethod::Natural => "natural",
            OrderingMethod::MinimumDegree => "amd",
            OrderingMethod::NestedDissection => "nd",
            OrderingMethod::ReverseCuthillMcKee => "rcm",
        }
    }

    /// Inverse of [`OrderingMethod::name`]: resolve a report name back to the
    /// method (used by configuration parsers).
    pub fn from_name(name: &str) -> Option<OrderingMethod> {
        OrderingMethod::ALL.into_iter().find(|m| m.name() == name)
    }

    /// Compute the ordering of `pattern` with this method.
    pub fn order(&self, pattern: &SparsePattern) -> Permutation {
        self.order_with_stop(pattern, None)
            .expect("no stop probe, cannot be cancelled")
    }

    /// [`OrderingMethod::order`] with a cooperative stop probe.  Minimum
    /// degree, nested dissection and RCM poll the probe from inside their
    /// loops (RCM once per connected component and every 256 vertices);
    /// the natural ordering only checks it on entry.  `None` means the
    /// probe fired and the partial ordering was discarded.  The probe is
    /// `Sync` because nested dissection polls it from a helper thread too
    /// (see [`dissection`]); no thread outlives the call.
    pub fn order_with_stop(
        &self,
        pattern: &SparsePattern,
        stop: Option<&(dyn Fn() -> bool + Sync)>,
    ) -> Option<Permutation> {
        if let Some(probe) = stop {
            if probe() {
                return None;
            }
        }
        match self {
            OrderingMethod::Natural => Some(natural(pattern.n())),
            OrderingMethod::MinimumDegree => mindeg::minimum_degree_with_stop(pattern, stop),
            OrderingMethod::NestedDissection => {
                dissection::nested_dissection_with_stop(pattern, stop)
            }
            OrderingMethod::ReverseCuthillMcKee => rcm::rcm_with_stop(pattern, stop),
        }
    }
}
