//! Instrumented multifrontal execution: measure the real memory footprint of
//! a traversal and check it against the abstract tree model of the paper.
//!
//! During a multifrontal factorization the live temporary storage consists of
//! the current frontal matrix plus every contribution block that has been
//! produced but not yet assembled into its parent.  For a per-column
//! elimination tree this is *exactly* the quantity modelled by the paper with
//! `f(j) = (µ(j) − 1)²` (contribution block) and
//! `n(j) = µ(j)² − (µ(j) − 1)²` (frontal matrix minus contribution block),
//! so the measured peak of an execution must equal the model's prediction for
//! the same traversal — [`instrumented_factorization_with_structure`]
//! asserts nothing but reports both so tests and experiments can compare
//! them.
//!
//! The measurement is the [`BudgetLedger`]'s: the elimination loop reports
//! every live-entry movement to a ledger, and this module merely runs it on
//! an unbounded one and reads the high-water mark back.  The engine's
//! executors measure through the same hook, so there is one place where
//! `measured == model` can break.  This entry point is the whole-matrix
//! *reference* (it validates the order against the elimination tree); the
//! served path calls [`crate::numeric::eliminate_columns`] directly.

use std::sync::Arc;

use sparsemat::SymmetricCsr;
use treemem::tree::Size;
use treemem::variants::bottom_up_peak;
use treemem::{Traversal, Tree};

use crate::numeric::{
    bottom_up_order, factorize, CholeskyFactor, FactorizationError, SymbolicStructure,
};
use crate::parallel::BudgetLedger;

/// Statistics of an instrumented factorization.
#[derive(Debug, Clone)]
pub struct FactorizationStats {
    /// Peak number of live temporary matrix entries (frontal matrices plus
    /// pending contribution blocks) observed during the execution.
    pub measured_peak_entries: usize,
    /// Peak predicted by the tree model of the paper for the same traversal
    /// (same unit: matrix entries).
    pub model_peak_entries: Size,
    /// Number of nonzero entries of the computed factor.
    pub factor_nnz: usize,
    /// Number of columns of the matrix.
    pub n: usize,
    /// The computed factor.
    pub factor: CholeskyFactor,
    /// The per-column model tree used for the prediction.
    pub model_tree: Tree,
}

/// Build the paper's per-column tree model of `structure`: node `j` has input
/// file `(µ(j) − 1)²` and execution file `µ(j)² − (µ(j) − 1)²`, where `µ(j)`
/// is the column count.  The tree is returned in the out-tree orientation
/// used by `treemem` (the factorization traverses it bottom-up).  Panics on
/// a structure with no column: a tree has at least one node.
pub fn per_column_model(structure: &SymbolicStructure) -> Tree {
    let n = structure.n();
    let counts = structure.column_counts();
    let parents: Vec<Option<usize>> = (0..n).map(|j| structure.etree.parent(j)).collect();
    // Reducible matrices give a forest; attach the extra roots to the last
    // root so the model stays a single tree (the attachment has no memory
    // effect because the extra edges carry the true contribution-block size
    // of the child roots, which is zero).
    let roots: Vec<usize> = (0..n).filter(|&j| parents[j].is_none()).collect();
    let main_root = *roots.last().expect("at least one root");
    let parents: Vec<Option<usize>> = parents
        .into_iter()
        .enumerate()
        .map(|(j, p)| {
            if p.is_none() && j != main_root {
                Some(main_root)
            } else {
                p
            }
        })
        .collect();
    let files: Vec<Size> = (0..n)
        .map(|j| {
            let mu = counts[j] as Size;
            if parents[j].is_none() {
                0
            } else {
                (mu - 1) * (mu - 1)
            }
        })
        .collect();
    let weights: Vec<Size> = (0..n)
        .map(|j| {
            let mu = counts[j] as Size;
            mu * mu - (mu - 1) * (mu - 1)
        })
        .collect();
    Tree::from_parents(&parents, &files, &weights).expect("per-column model is a valid tree")
}

/// Run the multifrontal factorization of `matrix` over its symbolic
/// `structure` along `order` (a bottom-up traversal; the elimination-tree
/// postorder when `None`) while measuring the live temporary memory, and
/// report the measurement next to the prediction of the paper's tree model
/// for the same traversal (the returned factor shares a copy of the
/// structure).  A 0 × 0 matrix has no model tree to traverse:
/// `InvalidTraversal`.
pub fn instrumented_factorization_with_structure(
    matrix: &SymmetricCsr,
    structure: &SymbolicStructure,
    order: Option<&[usize]>,
) -> Result<FactorizationStats, FactorizationError> {
    if structure.n() == 0 {
        return Err(FactorizationError::InvalidTraversal);
    }
    let structure = Arc::new(structure.clone());
    let order = bottom_up_order(&structure, order);
    // An unbounded ledger only measures: its high-water mark is the peak.
    let ledger = BudgetLedger::new(None);
    let factor = factorize(matrix, &structure, &order, &ledger)?;
    let model_tree = per_column_model(&structure);
    let model_peak = bottom_up_peak(&model_tree, &Traversal::new(order.into_owned()))
        .map_err(|_| FactorizationError::InvalidTraversal)?;
    Ok(FactorizationStats {
        measured_peak_entries: ledger.measured_peak_entries() as usize,
        model_peak_entries: model_peak,
        factor_nnz: factor.nnz(),
        n: matrix.n(),
        factor,
        model_tree,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::gen::{grid2d_matrix, random_spd_pattern, spd_matrix_from_pattern};
    use symbolic::etree::etree_postorder;
    use treemem::minmem::min_mem;
    use treemem::postorder::best_postorder;

    #[test]
    fn measured_peak_matches_the_model_on_the_postorder() {
        for (nx, ny, seed) in [(5usize, 4usize, 1u64), (7, 7, 2), (9, 6, 3)] {
            let matrix = grid2d_matrix(nx, ny, seed);
            let structure = SymbolicStructure::from_pattern(&matrix.pattern());
            let stats =
                instrumented_factorization_with_structure(&matrix, &structure, None).unwrap();
            assert_eq!(
                stats.measured_peak_entries as Size, stats.model_peak_entries,
                "grid {nx}x{ny}: the model must predict the real footprint exactly"
            );
        }
    }

    #[test]
    fn measured_peak_matches_the_model_on_optimized_traversals() {
        let matrix = spd_matrix_from_pattern(&random_spd_pattern(90, 3.5, 4), 4);
        let structure = SymbolicStructure::from_pattern(&matrix.pattern());
        let model = per_column_model(&structure);
        // Use the MinMem and best-postorder traversals of the model tree
        // (top-down), reversed into bottom-up orders for the factorization.
        for traversal in [min_mem(&model).traversal, best_postorder(&model).traversal] {
            let bottom_up: Vec<usize> = traversal.reversed().into_order();
            let stats =
                instrumented_factorization_with_structure(&matrix, &structure, Some(&bottom_up))
                    .unwrap();
            assert_eq!(
                stats.measured_peak_entries as Size,
                stats.model_peak_entries
            );
        }
    }

    #[test]
    fn optimal_traversal_never_uses_more_memory_than_the_etree_postorder() {
        let matrix = grid2d_matrix(8, 8, 5);
        let structure = SymbolicStructure::from_pattern(&matrix.pattern());
        let model = per_column_model(&structure);
        let run = |order: &[usize]| {
            instrumented_factorization_with_structure(&matrix, &structure, Some(order)).unwrap()
        };
        let postorder_run = run(&etree_postorder(&structure.etree));
        let optimal_run = run(&min_mem(&model).traversal.reversed().into_order());
        assert!(optimal_run.measured_peak_entries <= postorder_run.measured_peak_entries);
        // Both executions compute the same factor.
        assert_eq!(optimal_run.factor_nnz, postorder_run.factor_nnz);
    }

    #[test]
    fn stats_report_the_factor_size() {
        let matrix = grid2d_matrix(4, 4, 9);
        let structure = SymbolicStructure::from_pattern(&matrix.pattern());
        let stats = instrumented_factorization_with_structure(&matrix, &structure, None).unwrap();
        assert_eq!(stats.factor_nnz, structure.factor_nnz());
        assert_eq!(stats.n, 16);
        assert!(stats.model_tree.len() == 16);
    }

    #[test]
    fn an_empty_matrix_is_a_typed_error_not_a_panic() {
        let empty = SymmetricCsr::from_lower_columns(0, Vec::new());
        assert!(crate::multifrontal_cholesky(&empty, None).is_ok());
        let structure = SymbolicStructure::from_pattern(&empty.pattern());
        for order in [None, Some(&[][..])] {
            assert_eq!(
                instrumented_factorization_with_structure(&empty, &structure, order).unwrap_err(),
                FactorizationError::InvalidTraversal
            );
        }
    }
}
