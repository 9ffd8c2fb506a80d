//! Symbolic structure and numeric multifrontal Cholesky factorization.
//!
//! The row structure of `L` is *symbolic* data: the column counts µ(j) fix
//! every front and contribution-block size before one number is computed.
//! It therefore has exactly one owner, [`SymbolicStructure`] — a flat
//! compressed-column store (`col_ptr` + `rows`) next to the elimination tree
//! and its children lists, built once per plan and shared through an `Arc`.
//! Everything numeric carries values only: a [`CholeskyFactor`] is that
//! `Arc` plus one flat `Vec<f64>` parallel to the row store, a pending
//! contribution block is a bare [`DenseMatrix`] whose rows are
//! `structure.rows(c)[1..]`, and the extend-add of a front maps global rows
//! to front positions through one reusable scatter vector filled from the
//! structure.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

use sparsemat::{SparsePattern, SymmetricCsr};
use symbolic::etree::{elimination_tree, etree_postorder, EliminationTree};

use crate::dense::{DenseMatrix, FrontArena};
use crate::parallel::{assemble_factor, BudgetLedger};

#[cfg(test)]
mod naive;

/// The row structure of every column of the Cholesky factor, together with
/// the elimination tree it was derived from: the only place a row index of
/// `L` lives.
#[derive(Debug, Clone)]
pub struct SymbolicStructure {
    /// Column `j` owns `rows[col_ptr[j]..col_ptr[j + 1]]` (and the same
    /// range of every [`CholeskyFactor::values`] sharing this structure).
    pub(crate) col_ptr: Vec<usize>,
    /// Row indices of every column of `L`, column after column; within a
    /// column sorted increasingly, so the diagonal comes first.
    rows: Vec<usize>,
    /// The elimination tree of the (permuted) matrix.
    pub etree: EliminationTree,
    /// `etree.children()`, computed once: the assembly order of every front.
    children: Vec<Vec<usize>>,
}

impl SymbolicStructure {
    /// Approximate heap footprint in bytes (the flat row store, the
    /// elimination tree's parent array and its children lists).
    pub fn heap_bytes(&self) -> u64 {
        use std::mem::size_of;
        let store = (self.col_ptr.len() + self.rows.len()) * size_of::<usize>();
        let etree = self.etree.len() * size_of::<Option<usize>>();
        let children: usize = self
            .children
            .iter()
            .map(|c| size_of::<Vec<usize>>() + c.len() * size_of::<usize>())
            .sum();
        (store + etree + children) as u64
    }

    /// Compute the full symbolic structure of the factor of `pattern`
    /// (already permuted into elimination order).
    pub fn from_pattern(pattern: &SparsePattern) -> Self {
        let etree = elimination_tree(pattern);
        Self::from_etree(pattern, etree)
    }

    /// [`from_pattern`](Self::from_pattern) for callers that already hold
    /// the elimination tree of `pattern`.
    pub fn from_etree(pattern: &SparsePattern, etree: EliminationTree) -> Self {
        let children = etree.children();
        let mut col_ptr = Vec::with_capacity(children.len() + 1);
        let mut rows: Vec<usize> = Vec::new();
        let mut column: Vec<usize> = Vec::new();
        col_ptr.push(0);
        for (j, column_children) in children.iter().enumerate() {
            // Original entries below the diagonal plus the children
            // structures (minus the child index itself).
            column.clear();
            column.push(j);
            column.extend(pattern.neighbors(j).iter().copied().filter(|&i| i > j));
            for &c in column_children {
                let child = &rows[col_ptr[c]..col_ptr[c + 1]];
                column.extend(child.iter().copied().filter(|&i| i > j));
            }
            column.sort_unstable();
            column.dedup();
            rows.extend_from_slice(&column);
            col_ptr.push(rows.len());
        }
        SymbolicStructure {
            col_ptr,
            rows,
            etree,
            children,
        }
    }

    /// Number of columns.
    pub fn n(&self) -> usize {
        self.children.len()
    }

    /// Row indices of column `j` of `L`, sorted increasingly (diagonal
    /// first).  The contribution block column `j` leaves for its parent
    /// covers `rows(j)[1..]`.
    pub fn rows(&self, j: usize) -> &[usize] {
        &self.rows[self.col_ptr[j]..self.col_ptr[j + 1]]
    }

    /// Column counts (number of nonzeros per column of `L`).
    pub fn column_counts(&self) -> Vec<usize> {
        self.col_ptr.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Total number of nonzeros of `L`.
    pub fn factor_nnz(&self) -> usize {
        self.rows.len()
    }

    /// Entries of the contribution block column `j` leaves for its parent:
    /// `(µ(j) − 1)²`, or nothing for a root or a single-row column.
    fn block_entries(&self, j: usize) -> u64 {
        let mu = self.rows(j).len() as u64;
        if self.etree.parent(j).is_some() {
            (mu - 1) * (mu - 1)
        } else {
            0
        }
    }

    /// The static live-entries model of factoring `order` with this kernel,
    /// starting from `initial_live` external entries (the blocks a merge
    /// phase inherits).  Returns `(peak, final_live)`.
    ///
    /// The model replays the kernel's exact event order — front allocated,
    /// children blocks consumed, front released into a `(µ−1)²` contribution
    /// block — so for a fixed column subset it matches the measured
    /// footprint entry for entry, which is what makes ledger reservations
    /// tight.
    pub fn modeled_peak_entries(&self, order: &[usize], initial_live: u64) -> (u64, u64) {
        let mut live = initial_live;
        let mut peak = live;
        for &j in order {
            let mu = self.rows(j).len() as u64;
            live += mu * mu;
            peak = peak.max(live);
            for &c in &self.children[j] {
                live = live.saturating_sub(self.block_entries(c));
            }
            live -= mu * mu;
            live += self.block_entries(j);
            peak = peak.max(live);
        }
        (peak, live)
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

/// The numeric Cholesky factor: one value per entry of the shared symbolic
/// row store, and nothing else.
#[derive(Debug, Clone)]
pub struct CholeskyFactor {
    /// The row structure the values are laid out against.
    pub structure: Arc<SymbolicStructure>,
    /// Values parallel to the structure's flat row store (column after
    /// column, diagonal first).
    pub values: Vec<f64>,
}

impl CholeskyFactor {
    /// Dimension of the factor.
    pub fn n(&self) -> usize {
        self.structure.n()
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Heap footprint in bytes of what the factor owns: one `f64` per
    /// stored nonzero.  The row structure is shared and charged to whoever
    /// owns the `Arc` (the plan's numeric substrate).
    pub fn heap_bytes(&self) -> u64 {
        (self.nnz() * std::mem::size_of::<f64>()) as u64
    }

    /// Rows and values of column `j`.
    fn column(&self, j: usize) -> (&[usize], &[f64]) {
        let range = self.structure.col_ptr[j]..self.structure.col_ptr[j + 1];
        (self.structure.rows(j), &self.values[range])
    }

    /// Solve `A x = b` for `k` right-hand sides stored column-major in
    /// `rhs` (`rhs.len() == k · n`, right-hand side `c` at
    /// `rhs[c·n..(c+1)·n]`), in place: on return `rhs` holds the solutions
    /// in the same layout.
    ///
    /// The sweeps run on the interleaved layout of [`solve_into`], so for
    /// `k > 1` the batch is transposed into one `k · n` scratch buffer and
    /// back (the only allocation); `k = 1` is both layouts and solves in
    /// place.  Every right-hand side sees exactly the operations of
    /// [`solve`] in the same order, so a batched solve is bit-identical to
    /// `k` single solves.
    pub fn solve_batch(&self, rhs: &mut [f64]) {
        let count = self.batch_count(rhs.len());
        if count <= 1 {
            self.solve_interleaved(rhs, count);
            return;
        }
        let n = self.n();
        let mut interleaved = vec![0.0; rhs.len()];
        for (c, column) in rhs.chunks_exact(n).enumerate() {
            for (i, &value) in column.iter().enumerate() {
                interleaved[i * count + c] = value;
            }
        }
        self.solve_interleaved(&mut interleaved, count);
        for (c, column) in rhs.chunks_exact_mut(n).enumerate() {
            for (i, value) in column.iter_mut().enumerate() {
                *value = interleaved[i * count + c];
            }
        }
    }

    /// How many length-`n` right-hand sides `len` values hold.
    fn batch_count(&self, len: usize) -> usize {
        let n = self.n();
        if n == 0 {
            assert_eq!(len, 0, "right-hand sides of an empty factor");
            return 0;
        }
        assert_eq!(
            len % n,
            0,
            "batched right-hand sides must be whole length-n vectors"
        );
        len / n
    }

    /// The substitution sweeps over `count` interleaved right-hand sides
    /// (`x[i·count + c]` is entry `i` of right-hand side `c`), in place.
    fn solve_interleaved(&self, x: &mut [f64], count: usize) {
        if count == 1 {
            self.single_sweeps(x);
        } else {
            self.batch_sweeps(x, count);
        }
    }

    /// The sweeps for one right-hand side, the operation order every batch
    /// reproduces.  Kept apart from [`CholeskyFactor::batch_sweeps`]
    /// because every report's self-check runs it: with no per-entry
    /// slicing and the backward sum in a register it is ~2x faster than
    /// the batch code at `count = 1`.
    fn single_sweeps(&self, x: &mut [f64]) {
        let n = self.n();
        for j in 0..n {
            let (rows, values) = self.column(j);
            x[j] /= values[0];
            let xj = x[j];
            for (&i, &v) in rows.iter().zip(values).skip(1) {
                x[i] -= v * xj;
            }
        }
        for j in (0..n).rev() {
            let (rows, values) = self.column(j);
            let mut sum = x[j];
            for (&i, &v) in rows.iter().zip(values).skip(1) {
                sum -= v * x[i];
            }
            x[j] = sum / values[0];
        }
    }

    /// The sweeps for `count > 1` interleaved right-hand sides.  Each
    /// column of `L` is walked once per sweep for the whole batch, and the
    /// batch is the contiguous inner dimension: row `i`'s `count` values
    /// are one length-`count` AXPY per factor entry.
    fn batch_sweeps(&self, x: &mut [f64], count: usize) {
        let n = self.n();
        // Forward: L y = b.  Rows are sorted with the diagonal first, so
        // every off-diagonal row lies in `below`.
        for j in 0..n {
            let (rows, values) = self.column(j);
            let (head, below) = x.split_at_mut((j + 1) * count);
            let xj = &mut head[j * count..];
            for value in xj.iter_mut() {
                *value /= values[0];
            }
            for (&i, &v) in rows.iter().zip(values).skip(1) {
                let start = (i - j - 1) * count;
                for (xi, &xjc) in below[start..start + count].iter_mut().zip(xj.iter()) {
                    *xi -= v * xjc;
                }
            }
        }
        // Backward: Lᵀ x = y.
        for j in (0..n).rev() {
            let (rows, values) = self.column(j);
            let (head, below) = x.split_at_mut((j + 1) * count);
            let xj = &mut head[j * count..];
            for (&i, &v) in rows.iter().zip(values).skip(1) {
                let start = (i - j - 1) * count;
                for (xjc, &xi) in xj.iter_mut().zip(&below[start..start + count]) {
                    *xjc -= v * xi;
                }
            }
            for value in xj.iter_mut() {
                *value /= values[0];
            }
        }
    }

    /// Reconstruct `L Lᵀ` as a dense matrix (tests only).
    pub fn reconstruct_dense(&self) -> Vec<Vec<f64>> {
        let n = self.n();
        let mut dense = vec![vec![0.0; n]; n];
        for j in 0..n {
            let (rows, values) = self.column(j);
            for (a, (&ia, &va)) in rows.iter().zip(values).enumerate() {
                for (&ib, &vb) in rows.iter().zip(values).skip(a) {
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

/// Contribution blocks waiting for their parent column, keyed by the column
/// that produced them.  A block carries values only: the rows of the block
/// of column `c` are `structure.rows(c)[1..]`, and only its lower triangle
/// is defined — the entries above the diagonal are whatever the arena's
/// recycled buffer held (the distributed wire encoder sends them as zero).
///
/// In a sequential factorization this is a private map of the kernel; in the
/// parallel execution layer it is also the hand-off vehicle between a
/// finished subtree task (whose root block stays pending) and the sequential
/// merge phase above the cut, which absorbs every task's leftovers before it
/// starts.  Iteration is by increasing column, so the wire encoder's frame
/// bytes depend only on the blocks.
#[derive(Debug, Default)]
pub struct ContributionStore {
    blocks: BTreeMap<usize, DenseMatrix>,
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
        self.blocks.values().map(|cb| cb.len() as u64).sum()
    }

    /// Park the block `column` produced; an existing block for `column` is
    /// replaced.
    pub fn insert(&mut self, column: usize, block: DenseMatrix) {
        self.blocks.insert(column, block);
    }

    fn remove(&mut self, column: usize) -> Option<DenseMatrix> {
        self.blocks.remove(&column)
    }

    /// Move every block of `other` into `self`.
    pub fn absorb(&mut self, mut other: ContributionStore) {
        self.blocks.append(&mut other.blocks);
    }

    /// The pending blocks by increasing producing column.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &DenseMatrix)> {
        self.blocks.iter().map(|(&column, block)| (column, block))
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
    let structure = Arc::new(SymbolicStructure::from_pattern(&matrix.pattern()));
    let order = bottom_up_order(&structure, traversal);
    factorize(matrix, &structure, &order, &BudgetLedger::new(None))
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

/// The whole-matrix factorization behind [`multifrontal_cholesky`] and
/// [`crate::memory`]: validate that `order` is a bottom-up traversal of the
/// elimination tree, run [`eliminate_columns`] over it (live-entry movements
/// go to `ledger`) and assemble the factor.
pub(crate) fn factorize(
    matrix: &SymmetricCsr,
    structure: &Arc<SymbolicStructure>,
    order: &[usize],
    ledger: &BudgetLedger,
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

    let values = eliminate_columns(
        matrix,
        structure,
        order,
        &mut ContributionStore::new(),
        ledger,
        &mut FrontArena::new(),
        None,
    )?;
    assemble_factor(structure, [(order, values.as_slice())])
}

/// The per-column elimination loop over an arbitrary *subset* of columns.
///
/// `order` must be bottom-up *within the subset*: whenever a child of `j`
/// (in the elimination tree) also belongs to `order`, it appears before `j`.
/// Contribution blocks of children outside the subset must already sit in
/// `pending` (the parallel layer passes the finished subtree tasks' root
/// blocks this way); a child whose block is neither pending nor produced in
/// this call — or whose block has the wrong dimension — is a scheduling
/// error and yields `InvalidTraversal`.
///
/// Returns the values of the computed factor columns, concatenated in
/// `order` (column `j` contributes `structure.rows(j).len()` of them);
/// blocks produced for parents outside the subset remain in `pending` when
/// the call returns.  Every front and every *consumed* block is recycled
/// through `arena`, whose scatter vector maps the global rows of the front
/// being assembled to their local positions and is all-`usize::MAX` again
/// on every exit.
///
/// Each column makes one assembly pass and one elimination pass
/// ([`DenseMatrix::eliminate_pivot`]) over its front's lower triangle, the
/// only part read; the test-only `naive` module keeps the zero-then-add
/// loop this is bit-identical to.
///
/// Every live-entry movement — front allocated, child block consumed, front
/// released into its contribution block — is reported to `ledger`'s
/// measurement face, in that order; an unbounded `BudgetLedger::new(None)`
/// is the "just measure" (or "don't care") case.
///
/// `stop` is a cooperative cancellation probe, checked once per
/// [`STOP_CHECK_COLUMNS`] eliminated columns; when it fires the loop
/// returns [`FactorizationError::Cancelled`] and the partial blocks in
/// `pending` must be discarded by the caller.
pub(crate) fn eliminate_columns(
    matrix: &SymmetricCsr,
    structure: &SymbolicStructure,
    order: &[usize],
    pending: &mut ContributionStore,
    ledger: &BudgetLedger,
    arena: &mut FrontArena,
    stop: Option<&dyn Fn() -> bool>,
) -> Result<Vec<f64>, FactorizationError> {
    let mut local = std::mem::take(&mut arena.scatter);
    local.resize(structure.n(), usize::MAX);
    let value_count: usize = order.iter().map(|&j| structure.rows(j).len()).sum();
    let mut out: Vec<f64> = Vec::with_capacity(value_count);
    let mut eliminate = || {
        for (step, &j) in order.iter().enumerate() {
            if step % STOP_CHECK_COLUMNS == 0 && stop.is_some_and(|probe| probe()) {
                return Err(FactorizationError::Cancelled);
            }
            let rows = structure.rows(j);
            let front_dim = rows.len();
            let front_entries = (front_dim * front_dim) as i64;

            // A first child's block that covers the front (same length, and
            // `rows(c)[1..] ⊆ rows(j)`) seeds it: sums keep their order, and
            // no block entry is −0.0, so `0.0 + cb == cb` bit for bit.
            let children = structure.children[j].as_slice();
            let seeded = children
                .first()
                .is_some_and(|&c| structure.rows(c).len() == front_dim + 1);
            let seed = match children.first() {
                Some(&c) if seeded => pending.remove(c).filter(|cb| cb.n() == front_dim),
                _ => None,
            };
            let mut assembled = !seeded || seed.is_some();
            let mut front = arena.take(front_dim, seed.as_ref());
            ledger.record_live(front_entries);
            if let Some(cb) = seed {
                ledger.record_live(-(cb.len() as i64));
                arena.recycle(cb);
            }

            for (position, &global) in rows.iter().enumerate() {
                local[global] = position;
            }

            // Assemble the original matrix entries of column j.
            let (a_rows, a_values) = matrix.column(j);
            for (&i, &v) in a_rows.iter().zip(a_values) {
                front.add(local[i], 0, v);
            }

            // Extend-add the other children contribution blocks, in child
            // order (the assembly order — and with it the floating-point
            // result — depends only on the tree, never on which task or
            // worker produced a block).
            for &c in &children[usize::from(seeded)..] {
                let cb_rows = &structure.rows(c)[1..];
                match pending.remove(c) {
                    Some(cb) if cb.n() == cb_rows.len() => {
                        front.extend_add(&cb, cb_rows, &local);
                        ledger.record_live(-(cb.len() as i64));
                        arena.recycle(cb);
                    }
                    // A child with a multi-row column always produces a
                    // block of exactly its trailing rows; anything else
                    // means the schedule violated the tree order.
                    None if cb_rows.is_empty() => {}
                    _ => assembled = false,
                }
            }
            for &global in rows {
                local[global] = usize::MAX;
            }
            if !assembled {
                return Err(FactorizationError::InvalidTraversal);
            }

            // Eliminate the fully-summed variable (the first row/column) into
            // the contribution block; freeing the front: one net movement.
            let keeps_block = front_dim > 1 && structure.etree.parent(j).is_some();
            let block = front
                .eliminate_pivot(keeps_block.then_some(&mut *arena))
                .map_err(|_| FactorizationError::NotPositiveDefinite { column: j })?;
            out.extend_from_slice(&front.column_major()[..front_dim]);
            match block {
                Some(cb) => {
                    ledger.record_live(cb.len() as i64 - front_entries);
                    pending.insert(j, cb);
                }
                None => ledger.record_live(-front_entries),
            }
            arena.recycle(front);
        }
        Ok(())
    };
    let outcome = eliminate();
    arena.scatter = local;
    outcome.map(|()| out)
}

/// Solve `A x = b` given the Cholesky factor of `A` (forward substitution
/// with `L`, then backward substitution with `Lᵀ`), writing the solution
/// into `x` without allocating — callers on the hot path recycle `x` across
/// solves.
///
/// `b` may also hold a batch of `k = b.len() / n` right-hand sides stored
/// *interleaved* (row-major `n × k`: `b[i·k + c]` is entry `i` of
/// right-hand side `c`); `x` receives the solutions in the same layout,
/// bit-identical to `k` single solves.  `k = 1` is a plain vector.
pub fn solve_into(factor: &CholeskyFactor, b: &[f64], x: &mut [f64]) {
    assert_eq!(b.len(), x.len());
    let count = factor.batch_count(b.len());
    x.copy_from_slice(b);
    factor.solve_interleaved(x, count);
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
        assert_eq!(a.values.len(), b.values.len());
        for (va, vb) in a.values.iter().zip(&b.values) {
            assert!((va - vb).abs() < 1e-12);
        }
    }

    #[test]
    fn the_flat_store_matches_the_per_column_definition() {
        let pattern = random_spd_pattern(60, 3.0, 8);
        let structure = SymbolicStructure::from_pattern(&pattern);
        let children = structure.etree.children();
        assert_eq!(children.len(), structure.n());
        for (j, expected) in children.iter().enumerate() {
            let rows = structure.rows(j);
            assert_eq!(rows[0], j);
            assert!(rows.windows(2).all(|w| w[0] < w[1]), "column {j} sorted");
            assert_eq!(&structure.children[j], expected);
            // Every child's trailing rows are rows of the parent front.
            for &c in &structure.children[j] {
                for row in &structure.rows(c)[1..] {
                    assert!(rows.contains(row), "child {c} row {row} in front {j}");
                }
            }
        }
        let etree = elimination_tree(&pattern);
        let again = SymbolicStructure::from_etree(&pattern, etree);
        assert_eq!(again.rows, structure.rows);
        assert_eq!(again.col_ptr, structure.col_ptr);
    }

    #[test]
    fn a_factor_owns_eight_bytes_per_nonzero() {
        let matrix = grid2d_matrix(6, 5, 4);
        let factor = multifrontal_cholesky(&matrix, None).unwrap();
        assert_eq!(factor.nnz(), factor.structure.factor_nnz());
        assert_eq!(factor.heap_bytes(), 8 * factor.nnz() as u64);
    }

    #[test]
    fn the_scatter_vector_is_clean_after_every_exit() {
        let matrix = grid2d_matrix(12, 12, 6);
        let structure = SymbolicStructure::from_pattern(&matrix.pattern());
        let order = etree_postorder(&structure.etree);
        let ledger = BudgetLedger::new(None);
        let mut arena = FrontArena::new();
        let clean = |arena: &FrontArena| {
            arena.scatter.len() == structure.n() && arena.scatter.iter().all(|&p| p == usize::MAX)
        };
        // Cancelled mid-way: the probe fires at the second check.
        let polls = std::cell::Cell::new(0);
        let stop = || polls.replace(polls.get() + 1) >= 1;
        let cancelled = eliminate_columns(
            &matrix,
            &structure,
            &order,
            &mut ContributionStore::new(),
            &ledger,
            &mut arena,
            Some(&stop),
        );
        assert_eq!(cancelled.unwrap_err(), FactorizationError::Cancelled);
        assert!(clean(&arena));
        // A scheduling error (the suffix without its children's blocks).
        let suffix = &order[order.len() - 3..];
        let invalid = eliminate_columns(
            &matrix,
            &structure,
            suffix,
            &mut ContributionStore::new(),
            &ledger,
            &mut arena,
            None,
        );
        assert_eq!(invalid.unwrap_err(), FactorizationError::InvalidTraversal);
        assert!(clean(&arena));
        // The same arena then factors the whole matrix.
        let values = eliminate_columns(
            &matrix,
            &structure,
            &order,
            &mut ContributionStore::new(),
            &ledger,
            &mut arena,
            None,
        )
        .unwrap();
        assert_eq!(values.len(), structure.factor_nnz());
        assert!(clean(&arena));
    }

    #[test]
    fn blocks_of_the_wrong_dimension_are_a_scheduling_error() {
        let matrix = grid2d_matrix(4, 4, 3);
        let structure = SymbolicStructure::from_pattern(&matrix.pattern());
        let order = etree_postorder(&structure.etree);
        let (prefix, suffix) = order.split_at(order.len() - 3);
        let ledger = BudgetLedger::new(None);
        let mut arena = FrontArena::new();
        let mut pending = ContributionStore::new();
        eliminate_columns(
            &matrix,
            &structure,
            prefix,
            &mut pending,
            &ledger,
            &mut arena,
            None,
        )
        .unwrap();
        let (column, dim) = pending.iter().map(|(c, b)| (c, b.n())).next().unwrap();
        pending.insert(column, DenseMatrix::zeros(dim + 1));
        let outcome = eliminate_columns(
            &matrix,
            &structure,
            suffix,
            &mut pending,
            &ledger,
            &mut arena,
            None,
        );
        assert_eq!(outcome.unwrap_err(), FactorizationError::InvalidTraversal);
    }

    /// Both batch layouts — column-major [`CholeskyFactor::solve_batch`]
    /// and interleaved [`solve_into`] — reproduce `k` single solves bit for
    /// bit on every problem kind, for batch sizes around the vector widths.
    #[test]
    fn solve_batch_is_bit_identical_to_repeated_single_solves() {
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for kind in sparsemat::gen::ProblemKind::ALL {
            let matrix = spd_matrix_from_pattern(&kind.generate(90, 4), 4);
            let n = matrix.n();
            let factor = multifrontal_cholesky(&matrix, None).unwrap();
            for count in [1, 2, 3, 16, 17] {
                let columns: Vec<f64> = (0..count * n)
                    .map(|i| ((i * 31 + 7) % 23) as f64 / 7.0 - 1.5)
                    .collect();
                let singles: Vec<Vec<f64>> =
                    columns.chunks_exact(n).map(|b| solve(&factor, b)).collect();
                let mut batch = columns.clone();
                factor.solve_batch(&mut batch);
                let mut interleaved = vec![0.0; count * n];
                for (c, b) in columns.chunks_exact(n).enumerate() {
                    for (i, &value) in b.iter().enumerate() {
                        interleaved[i * count + c] = value;
                    }
                }
                let mut solved = vec![f64::NAN; count * n];
                solve_into(&factor, &interleaved, &mut solved);
                for (c, single) in singles.iter().enumerate() {
                    let label = format!("{kind:?} k={count} rhs {c}");
                    assert_eq!(bits(&batch[c * n..(c + 1) * n]), bits(single), "{label}");
                    let strided: Vec<f64> = (0..n).map(|i| solved[i * count + c]).collect();
                    assert_eq!(bits(&strided), bits(single), "{label} interleaved");
                }
            }
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
    fn contribution_store_iterates_by_column() {
        let mut store = ContributionStore::new();
        let mut block = DenseMatrix::zeros(2);
        block.set(0, 0, 1.5);
        block.set(1, 0, -2.0);
        store.insert(7, block.clone());
        store.insert(3, DenseMatrix::zeros(2));
        let mut other = ContributionStore::new();
        other.insert(5, DenseMatrix::zeros(1));
        store.absorb(other);
        let columns: Vec<usize> = store.iter().map(|(column, _)| column).collect();
        assert_eq!(columns, [3, 5, 7]);
        assert_eq!(store.iter().last().unwrap().1, &block);
        assert_eq!(store.len(), 3);
        assert_eq!(store.total_entries(), 9);
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
