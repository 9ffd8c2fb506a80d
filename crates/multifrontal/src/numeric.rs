//! Symbolic structure and numeric multifrontal Cholesky factorization.

use std::borrow::Cow;
use std::collections::HashMap;

use sparsemat::{SparsePattern, SymmetricCsr};
use symbolic::etree::{elimination_tree, etree_postorder, EliminationTree};

use crate::dense::{DenseMatrix, FrontArena, FrontKernel};
use crate::parallel::{assemble_factor, BudgetLedger};

/// The row structure of every column of the Cholesky factor, together with
/// the elimination tree it was derived from.
#[derive(Debug, Clone)]
pub struct SymbolicStructure {
    /// Row indices (diagonal included, sorted increasingly) of every column
    /// of `L`.
    pub columns: Vec<Vec<usize>>,
    /// The elimination tree of the (permuted) matrix.
    pub etree: EliminationTree,
}

impl SymbolicStructure {
    /// Approximate heap footprint in bytes (column row-index lists, `Vec`
    /// headers and the elimination tree's parent array).
    pub fn heap_bytes(&self) -> u64 {
        use std::mem::size_of;
        let payload: usize = self
            .columns
            .iter()
            .map(|c| c.len() * size_of::<usize>())
            .sum();
        let headers = self.columns.len() * size_of::<Vec<usize>>();
        let etree = self.etree.len() * size_of::<Option<usize>>();
        (payload + headers + etree) as u64
    }

    /// Compute the full symbolic structure of the factor of `pattern`
    /// (already permuted into elimination order).
    pub fn from_pattern(pattern: &SparsePattern) -> Self {
        let n = pattern.n();
        let etree = elimination_tree(pattern);
        let children = etree.children();
        let mut columns: Vec<Vec<usize>> = vec![Vec::new(); n];
        for j in 0..n {
            // Original entries below the diagonal plus the children
            // structures (minus the child index itself).
            let mut rows: Vec<usize> = vec![j];
            rows.extend(pattern.neighbors(j).iter().copied().filter(|&i| i > j));
            for &c in &children[j] {
                rows.extend(columns[c].iter().copied().filter(|&i| i > j));
            }
            rows.sort_unstable();
            rows.dedup();
            columns[j] = rows;
        }
        SymbolicStructure { columns, etree }
    }

    /// Number of columns.
    pub fn n(&self) -> usize {
        self.columns.len()
    }

    /// Column counts (number of nonzeros per column of `L`).
    pub fn column_counts(&self) -> Vec<usize> {
        self.columns.iter().map(Vec::len).collect()
    }

    /// Total number of nonzeros of `L`.
    pub fn factor_nnz(&self) -> usize {
        self.columns.iter().map(Vec::len).sum()
    }
}

/// Columns eliminated between two stop-probe checks in
/// [`eliminate_columns`].  Fronts take microseconds to tens of
/// microseconds each, so this bounds the cancellation latency to a few
/// milliseconds while keeping the probe off the per-column fast path.
pub(crate) const STOP_CHECK_COLUMNS: usize = 64;

/// Errors of the numeric factorization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FactorizationError {
    /// A non-positive pivot was met at the given column: the matrix is not
    /// positive definite (or is numerically singular).
    NotPositiveDefinite { column: usize },
    /// The supplied traversal is not a valid bottom-up ordering.
    InvalidTraversal,
    /// A cooperative stop probe fired mid-factorization; all partial work
    /// was discarded.
    Cancelled,
}

impl std::fmt::Display for FactorizationError {
    fn fmt(&self, fmt: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FactorizationError::NotPositiveDefinite { column } => {
                write!(fmt, "matrix is not positive definite (column {column})")
            }
            FactorizationError::InvalidTraversal => write!(fmt, "invalid bottom-up traversal"),
            FactorizationError::Cancelled => write!(fmt, "factorization cancelled"),
        }
    }
}

impl std::error::Error for FactorizationError {}

/// The numeric Cholesky factor in column-compressed form.
#[derive(Debug, Clone)]
pub struct CholeskyFactor {
    /// Row indices of every column (diagonal first).
    pub columns: Vec<Vec<usize>>,
    /// Values parallel to `columns`.
    pub values: Vec<Vec<f64>>,
}

impl CholeskyFactor {
    /// Dimension of the factor.
    pub fn n(&self) -> usize {
        self.columns.len()
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.columns.iter().map(Vec::len).sum()
    }

    /// Approximate heap footprint in bytes: one `usize` row index and one
    /// `f64` value per stored nonzero, plus the per-column `Vec` headers.
    /// The serving caches charge factors by this estimate.
    pub fn heap_bytes(&self) -> u64 {
        use std::mem::size_of;
        let nnz = self.nnz();
        let payload = nnz * (size_of::<usize>() + size_of::<f64>());
        let headers = (self.columns.len() + self.values.len()) * size_of::<Vec<usize>>();
        (payload + headers) as u64
    }

    /// Solve `A x = b` for `k` right-hand sides stored column-major in
    /// `rhs` (`rhs.len() == k · n`), in place: on return `rhs` holds the
    /// solutions.  The factor traversal is shared across the batch — each
    /// column of `L` is walked once per substitution sweep, not once per
    /// right-hand side — and the per-column operation order is exactly that
    /// of [`solve`], so a batched solve is bit-identical to `k` single
    /// solves.  No allocation happens on this path.
    pub fn solve_batch(&self, rhs: &mut [f64]) {
        let n = self.n();
        if n == 0 {
            assert!(rhs.is_empty(), "right-hand sides of an empty factor");
            return;
        }
        assert_eq!(
            rhs.len() % n,
            0,
            "batched right-hand sides must be whole length-n columns"
        );
        let count = rhs.len() / n;
        // Forward: L y = b, all columns of the batch per factor column.
        for j in 0..n {
            let diagonal = self.values[j][0];
            for c in 0..count {
                let x = &mut rhs[c * n..(c + 1) * n];
                x[j] /= diagonal;
                let xj = x[j];
                for (&i, &v) in self.columns[j].iter().zip(&self.values[j]).skip(1) {
                    x[i] -= v * xj;
                }
            }
        }
        // Backward: Lᵀ x = y.
        for j in (0..n).rev() {
            let diagonal = self.values[j][0];
            for c in 0..count {
                let x = &mut rhs[c * n..(c + 1) * n];
                let mut sum = x[j];
                for (&i, &v) in self.columns[j].iter().zip(&self.values[j]).skip(1) {
                    sum -= v * x[i];
                }
                x[j] = sum / diagonal;
            }
        }
    }

    /// Reconstruct `L Lᵀ` as a dense matrix (tests only).
    pub fn reconstruct_dense(&self) -> Vec<Vec<f64>> {
        let n = self.n();
        let mut dense = vec![vec![0.0; n]; n];
        for j in 0..n {
            for (a, (&ia, &va)) in self.columns[j].iter().zip(&self.values[j]).enumerate() {
                for (&ib, &vb) in self.columns[j].iter().zip(&self.values[j]).skip(a) {
                    dense[ib][ia] += va * vb;
                    if ia != ib {
                        dense[ia][ib] += va * vb;
                    }
                }
            }
        }
        dense
    }
}

/// One computed column of the factor: `(column, row indices, values)` with
/// the diagonal first.  Partial factorizations (subtree tasks) return their
/// columns in this form so they can be scattered into a [`CholeskyFactor`]
/// once every task has finished.
pub type FactorColumn = (usize, Vec<usize>, Vec<f64>);

/// Contribution blocks waiting for their parent column, keyed by the column
/// that produced them.
///
/// In a sequential factorization this is a private map of the kernel; in the
/// parallel execution layer it is also the hand-off vehicle between a
/// finished subtree task (whose root block stays pending) and the sequential
/// merge phase above the cut, which absorbs every task's leftovers before it
/// starts.
#[derive(Debug, Default)]
pub struct ContributionStore {
    blocks: HashMap<usize, (Vec<usize>, DenseMatrix)>,
}

impl ContributionStore {
    /// An empty store.
    pub fn new() -> Self {
        ContributionStore::default()
    }

    /// Number of pending blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether no block is pending.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Total number of matrix entries held by the pending blocks.
    pub fn total_entries(&self) -> u64 {
        self.blocks.values().map(|(_, cb)| cb.len() as u64).sum()
    }

    fn insert(&mut self, column: usize, rows: Vec<usize>, block: DenseMatrix) {
        self.blocks.insert(column, (rows, block));
    }

    fn remove(&mut self, column: usize) -> Option<(Vec<usize>, DenseMatrix)> {
        self.blocks.remove(&column)
    }

    /// Move every block of `other` into `self`.
    pub fn absorb(&mut self, other: ContributionStore) {
        self.blocks.extend(other.blocks);
    }

    /// Insert a block reconstructed from an external representation (the
    /// distributed wire format).  `rows` are the global row indices of the
    /// pending update and `block` its dense lower-triangular payload; an
    /// existing block for `column` is replaced.
    pub fn insert_block(&mut self, column: usize, rows: Vec<usize>, block: DenseMatrix) {
        self.insert(column, rows, block);
    }

    /// The pending blocks sorted by producing column — the deterministic
    /// iteration order the wire encoder relies on (`HashMap` iteration order
    /// would leak into the frame bytes otherwise).
    pub fn sorted_blocks(&self) -> Vec<(usize, &[usize], &DenseMatrix)> {
        let mut blocks: Vec<(usize, &[usize], &DenseMatrix)> = self
            .blocks
            .iter()
            .map(|(&column, (rows, block))| (column, rows.as_slice(), block))
            .collect();
        blocks.sort_unstable_by_key(|&(column, _, _)| column);
        blocks
    }
}

/// Multifrontal Cholesky factorization of `matrix`, driven by the given
/// bottom-up traversal (children before parents).  When `traversal` is `None`
/// the postorder of the elimination tree is used, which is what a classical
/// multifrontal code does.
pub fn multifrontal_cholesky(
    matrix: &SymmetricCsr,
    traversal: Option<&[usize]>,
) -> Result<CholeskyFactor, FactorizationError> {
    multifrontal_cholesky_with(matrix, traversal, FrontKernel::default())
}

/// [`multifrontal_cholesky`] with an explicit dense elimination kernel —
/// the hook the kernel benchmark and the parity tests use to run the same
/// factorization under [`FrontKernel::Reference`] and
/// [`FrontKernel::Blocked`].
pub fn multifrontal_cholesky_with(
    matrix: &SymmetricCsr,
    traversal: Option<&[usize]>,
    kernel: FrontKernel,
) -> Result<CholeskyFactor, FactorizationError> {
    let structure = SymbolicStructure::from_pattern(&matrix.pattern());
    let order = bottom_up_order(&structure, traversal);
    factorize(matrix, &structure, &order, &BudgetLedger::new(None), kernel)
}

/// The caller's bottom-up `traversal`, or the elimination-tree postorder
/// when there is none.
pub(crate) fn bottom_up_order<'a>(
    structure: &SymbolicStructure,
    traversal: Option<&'a [usize]>,
) -> Cow<'a, [usize]> {
    match traversal {
        Some(order) => Cow::Borrowed(order),
        None => Cow::Owned(etree_postorder(&structure.etree)),
    }
}

/// The whole-matrix factorization behind [`multifrontal_cholesky_with`] and
/// [`crate::memory`]: validate that `order` is a bottom-up traversal of the
/// elimination tree, run [`eliminate_columns`] over it (live-entry movements
/// go to `ledger`) and assemble the factor.
pub(crate) fn factorize(
    matrix: &SymmetricCsr,
    structure: &SymbolicStructure,
    order: &[usize],
    ledger: &BudgetLedger,
    kernel: FrontKernel,
) -> Result<CholeskyFactor, FactorizationError> {
    let n = matrix.n();
    if order.len() != n {
        return Err(FactorizationError::InvalidTraversal);
    }
    // Validate the bottom-up precedence (children before parents).
    let mut position = vec![usize::MAX; n];
    for (step, &j) in order.iter().enumerate() {
        if j >= n || position[j] != usize::MAX {
            return Err(FactorizationError::InvalidTraversal);
        }
        position[j] = step;
    }
    for j in 0..n {
        if let Some(p) = structure.etree.parent(j) {
            if position[j] >= position[p] {
                return Err(FactorizationError::InvalidTraversal);
            }
        }
    }

    let children = structure.etree.children();
    let mut pending = ContributionStore::new();
    let mut parts: Vec<FactorColumn> = Vec::with_capacity(n);
    eliminate_columns(
        matrix,
        structure,
        &children,
        order,
        &mut pending,
        &mut parts,
        ledger,
        &mut FrontArena::new(),
        kernel,
        None,
    )?;
    assemble_factor(n, parts)
}

/// The per-column elimination loop over an arbitrary *subset* of columns.
///
/// `order` must be bottom-up *within the subset*: whenever a child of `j`
/// (in the elimination tree) also belongs to `order`, it appears before `j`.
/// Contribution blocks of children outside the subset must already sit in
/// `pending` (the parallel layer passes the finished subtree tasks' root
/// blocks this way); a child whose block is neither pending nor produced in
/// this call is a scheduling error and yields `InvalidTraversal`.
///
/// Computed factor columns are appended to `out`; blocks produced for
/// parents outside the subset remain in `pending` when the call returns.
/// Every front and every *consumed* block is recycled through `arena`.
///
/// Every live-entry movement — front allocated, child block consumed, front
/// released into its contribution block — is reported to `ledger`'s
/// measurement face, in that order; an unbounded `BudgetLedger::new(None)`
/// is the "just measure" (or "don't care") case.
///
/// `stop` is a cooperative cancellation probe, checked once per
/// [`STOP_CHECK_COLUMNS`] eliminated columns; when it fires the loop
/// returns [`FactorizationError::Cancelled`] and the partial columns in
/// `out`/`pending` must be discarded by the caller.
#[allow(clippy::too_many_arguments)]
pub(crate) fn eliminate_columns(
    matrix: &SymmetricCsr,
    structure: &SymbolicStructure,
    children: &[Vec<usize>],
    order: &[usize],
    pending: &mut ContributionStore,
    out: &mut Vec<FactorColumn>,
    ledger: &BudgetLedger,
    arena: &mut FrontArena,
    kernel: FrontKernel,
    stop: Option<&dyn Fn() -> bool>,
) -> Result<(), FactorizationError> {
    for (step, &j) in order.iter().enumerate() {
        if step % STOP_CHECK_COLUMNS == 0 {
            if let Some(probe) = stop {
                if probe() {
                    return Err(FactorizationError::Cancelled);
                }
            }
        }
        let rows = &structure.columns[j];
        let front_dim = rows.len();
        let mut front = arena.take(front_dim);
        let front_entries = front.len() as i64;
        ledger.record_live(front_entries);

        // Local position of every global row index of this front.
        let local: HashMap<usize, usize> = rows
            .iter()
            .enumerate()
            .map(|(local, &global)| (global, local))
            .collect();

        // Assemble the original matrix entries of column j.
        let (a_rows, a_values) = matrix.column(j);
        for (&i, &v) in a_rows.iter().zip(a_values) {
            let li = local[&i];
            front.add(li, 0, v);
        }

        // Extend-add the children contribution blocks, in child order (the
        // assembly order — and with it the floating-point result — depends
        // only on the tree, never on which task or worker produced a block).
        for &c in &children[j] {
            match pending.remove(c) {
                Some((cb_rows, cb)) => {
                    for (a, &ga) in cb_rows.iter().enumerate() {
                        let la = local[&ga];
                        for (b, &gb) in cb_rows.iter().enumerate().skip(a) {
                            let lb = local[&gb];
                            // Store in the lower triangle of the front.
                            let (hi, lo) = if lb >= la { (lb, la) } else { (la, lb) };
                            front.add(hi, lo, cb.get(b, a));
                        }
                    }
                    ledger.record_live(-(cb.len() as i64));
                    arena.recycle(cb);
                }
                // A child with a multi-row column always produces a block;
                // not finding it means the schedule violated the tree order.
                None if structure.columns[c].len() > 1 => {
                    return Err(FactorizationError::InvalidTraversal);
                }
                None => {}
            }
        }

        // Eliminate the fully-summed variable (the first row/column).
        kernel
            .apply(&mut front, 1)
            .map_err(|_| FactorizationError::NotPositiveDefinite { column: j })?;

        // Extract the factor column.
        let values: Vec<f64> = (0..front_dim).map(|i| front.get(i, 0)).collect();

        // Extract the contribution block (trailing (dim-1) x (dim-1) block).
        // The block is carved out of the front, the rest of the front is
        // freed: one net live-entry movement.
        let cb_dim = front_dim - 1;
        if cb_dim > 0 && structure.etree.parent(j).is_some() {
            let mut cb = arena.take(cb_dim);
            for a in 0..cb_dim {
                for b in a..cb_dim {
                    cb.set(b, a, front.get(b + 1, a + 1));
                }
            }
            pending.insert(j, rows[1..].to_vec(), cb);
            ledger.record_live((cb_dim * cb_dim) as i64 - front_entries);
        } else {
            ledger.record_live(-front_entries);
        }
        arena.recycle(front);
        out.push((j, rows.clone(), values));
    }
    Ok(())
}

/// Solve `A x = b` given the Cholesky factor of `A` (forward substitution
/// with `L`, then backward substitution with `Lᵀ`), writing the solution
/// into `x` without allocating — callers on the hot path recycle `x` across
/// solves.
pub fn solve_into(factor: &CholeskyFactor, b: &[f64], x: &mut [f64]) {
    let n = factor.n();
    assert_eq!(b.len(), n);
    assert_eq!(x.len(), n);
    x.copy_from_slice(b);
    factor.solve_batch(x);
}

/// Allocating convenience wrapper over [`solve_into`].
pub fn solve(factor: &CholeskyFactor, b: &[f64]) -> Vec<f64> {
    let mut x = vec![0.0; factor.n()];
    solve_into(factor, b, &mut x);
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::gen::{grid2d_matrix, random_spd_pattern, spd_matrix_from_pattern};

    fn max_abs_difference(a: &[Vec<f64>], b: &[Vec<f64>]) -> f64 {
        let mut worst: f64 = 0.0;
        for (ra, rb) in a.iter().zip(b) {
            for (&va, &vb) in ra.iter().zip(rb) {
                worst = worst.max((va - vb).abs());
            }
        }
        worst
    }

    #[test]
    fn symbolic_structure_matches_column_counts() {
        let pattern = random_spd_pattern(120, 4.0, 11);
        let structure = SymbolicStructure::from_pattern(&pattern);
        let etree = elimination_tree(&pattern);
        let counts = symbolic::column_counts(&pattern, &etree);
        assert_eq!(structure.column_counts(), counts);
        assert_eq!(structure.factor_nnz(), counts.iter().sum::<usize>());
    }

    #[test]
    fn factorization_reconstructs_the_matrix() {
        let matrix = grid2d_matrix(5, 4, 7);
        let factor = multifrontal_cholesky(&matrix, None).unwrap();
        let reconstructed = factor.reconstruct_dense();
        let original = matrix.to_dense();
        assert!(max_abs_difference(&reconstructed, &original) < 1e-10);
    }

    #[test]
    fn solve_recovers_a_known_solution() {
        let matrix = grid2d_matrix(6, 6, 3);
        let n = matrix.n();
        let expected: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
        let rhs = matrix.multiply(&expected);
        let factor = multifrontal_cholesky(&matrix, None).unwrap();
        let solution = solve(&factor, &rhs);
        let worst = solution
            .iter()
            .zip(&expected)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(worst < 1e-8, "solution error {worst}");
    }

    #[test]
    fn any_valid_traversal_gives_the_same_factor() {
        let matrix = spd_matrix_from_pattern(&random_spd_pattern(80, 3.5, 5), 5);
        let structure = SymbolicStructure::from_pattern(&matrix.pattern());
        let postorder = etree_postorder(&structure.etree);
        let natural: Vec<usize> = (0..matrix.n()).collect();
        let a = multifrontal_cholesky(&matrix, Some(&postorder)).unwrap();
        let b = multifrontal_cholesky(&matrix, Some(&natural)).unwrap();
        for j in 0..matrix.n() {
            assert_eq!(a.columns[j], b.columns[j]);
            for (va, vb) in a.values[j].iter().zip(&b.values[j]) {
                assert!((va - vb).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn reference_and_blocked_kernels_factor_bitwise_identically() {
        // The multifrontal path eliminates one pivot per front, where the
        // blocked kernel collapses to the reference operation order — the
        // whole factor must therefore match bit for bit.
        let matrix = spd_matrix_from_pattern(&random_spd_pattern(100, 3.5, 21), 21);
        let blocked = multifrontal_cholesky_with(&matrix, None, FrontKernel::default()).unwrap();
        let reference = multifrontal_cholesky_with(&matrix, None, FrontKernel::Reference).unwrap();
        for j in 0..matrix.n() {
            assert_eq!(blocked.columns[j], reference.columns[j]);
            assert_eq!(blocked.values[j], reference.values[j], "column {j}");
        }
    }

    #[test]
    fn solve_batch_is_bit_identical_to_repeated_single_solves() {
        let matrix = grid2d_matrix(7, 5, 9);
        let n = matrix.n();
        let factor = multifrontal_cholesky(&matrix, None).unwrap();
        let count = 4;
        let mut batch: Vec<f64> = (0..count * n)
            .map(|i| ((i * 31 + 7) % 23) as f64 - 11.0)
            .collect();
        let singles: Vec<Vec<f64>> = (0..count)
            .map(|c| solve(&factor, &batch[c * n..(c + 1) * n]))
            .collect();
        factor.solve_batch(&mut batch);
        for (c, single) in singles.iter().enumerate() {
            assert_eq!(&batch[c * n..(c + 1) * n], single.as_slice(), "rhs {c}");
        }
    }

    #[test]
    fn solve_into_reuses_the_output_buffer() {
        let matrix = grid2d_matrix(4, 4, 2);
        let n = matrix.n();
        let factor = multifrontal_cholesky(&matrix, None).unwrap();
        let expected: Vec<f64> = (0..n).map(|i| (i % 5) as f64 - 2.0).collect();
        let rhs = matrix.multiply(&expected);
        let mut x = vec![f64::NAN; n];
        solve_into(&factor, &rhs, &mut x);
        assert_eq!(x, solve(&factor, &rhs));
    }

    #[test]
    fn invalid_traversals_are_rejected() {
        let matrix = grid2d_matrix(3, 3, 1);
        let n = matrix.n();
        let too_short = vec![0usize; n - 1];
        assert_eq!(
            multifrontal_cholesky(&matrix, Some(&too_short)).unwrap_err(),
            FactorizationError::InvalidTraversal
        );
        // Root first is not a bottom-up order.
        let structure = SymbolicStructure::from_pattern(&matrix.pattern());
        let mut top_down = etree_postorder(&structure.etree);
        top_down.reverse();
        assert_eq!(
            multifrontal_cholesky(&matrix, Some(&top_down)).unwrap_err(),
            FactorizationError::InvalidTraversal
        );
    }

    #[test]
    fn contribution_store_round_trips_through_the_public_accessors() {
        let mut store = ContributionStore::new();
        let mut block = DenseMatrix::zeros(2);
        block.set(0, 0, 1.5);
        block.set(1, 0, -2.0);
        store.insert_block(7, vec![8, 9], block.clone());
        store.insert_block(3, vec![4, 5], DenseMatrix::zeros(2));
        let sorted = store.sorted_blocks();
        assert_eq!(sorted.len(), 2);
        // Deterministic column order, independent of HashMap iteration.
        assert_eq!(sorted[0].0, 3);
        assert_eq!(sorted[1].0, 7);
        assert_eq!(sorted[1].1, &[8, 9]);
        assert_eq!(sorted[1].2, &block);
        let mut rebuilt = ContributionStore::new();
        for (column, rows, payload) in sorted {
            rebuilt.insert_block(column, rows.to_vec(), payload.clone());
        }
        assert_eq!(rebuilt.len(), store.len());
        assert_eq!(rebuilt.total_entries(), store.total_entries());
    }

    #[test]
    fn indefinite_matrices_are_rejected() {
        // Diagonal matrix with a negative entry.
        let matrix = SymmetricCsr::from_lower_columns(2, vec![vec![(0, 1.0)], vec![(1, -2.0)]]);
        assert!(matches!(
            multifrontal_cholesky(&matrix, None),
            Err(FactorizationError::NotPositiveDefinite { .. })
        ));
    }
}
