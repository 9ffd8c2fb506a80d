//! Symmetric sparse patterns and numeric symmetric CSR storage.

use std::fmt;

/// The adjacency structure of a sparse symmetric matrix: for every row `i`,
/// the sorted list of columns `j ≠ i` such that the entry `(i, j)` (or
/// `(j, i)`) is structurally nonzero.  The diagonal is implicit (assumed
/// nonzero everywhere), matching the symmetrised pattern `|A| + |Aᵀ| + I`
/// used by the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparsePattern {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
}

impl SparsePattern {
    /// Build a pattern from unsymmetrised (row, column) pairs: duplicates and
    /// self loops are removed and the pattern is symmetrised.
    ///
    /// # Panics
    /// Panics if an index is out of range.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(i, j) in edges {
            assert!(
                i < n && j < n,
                "index out of range: ({i}, {j}) with n = {n}"
            );
            if i == j {
                continue;
            }
            adjacency[i].push(j);
            adjacency[j].push(i);
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        row_ptr.push(0);
        for list in adjacency.iter_mut() {
            list.sort_unstable();
            list.dedup();
            col_idx.extend_from_slice(list);
            row_ptr.push(col_idx.len());
        }
        SparsePattern {
            n,
            row_ptr,
            col_idx,
        }
    }

    /// Dimension of the matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored off-diagonal entries (each symmetric pair counted
    /// twice, as in an adjacency structure).
    pub fn nnz_off_diagonal(&self) -> usize {
        self.col_idx.len()
    }

    /// Number of structural nonzeros of the full symmetric matrix, including
    /// the diagonal: `n + nnz_off_diagonal()`.
    pub fn nnz(&self) -> usize {
        self.n + self.col_idx.len()
    }

    /// Approximate heap footprint of the CSR arrays in bytes (what the
    /// serving caches charge a cached pattern for).
    pub fn heap_bytes(&self) -> u64 {
        ((self.row_ptr.len() + self.col_idx.len()) * std::mem::size_of::<usize>()) as u64
    }

    /// Average number of nonzeros per row (including the diagonal).
    pub fn nnz_per_row(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.n as f64
        }
    }

    /// Neighbours of vertex `i` (off-diagonal nonzero columns of row `i`),
    /// sorted increasingly.
    pub fn neighbors(&self, i: usize) -> &[usize] {
        &self.col_idx[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Degree of vertex `i` (number of off-diagonal entries in row `i`).
    pub fn degree(&self, i: usize) -> usize {
        self.row_ptr[i + 1] - self.row_ptr[i]
    }

    /// Whether the stored structure is symmetric (it always is when built
    /// through the public constructors; exposed for tests and I/O).
    pub fn is_symmetric(&self) -> bool {
        for i in 0..self.n {
            for &j in self.neighbors(i) {
                if self.neighbors(j).binary_search(&i).is_err() {
                    return false;
                }
            }
        }
        true
    }

    /// Apply a symmetric permutation: entry `(i, j)` of the result is entry
    /// `(perm[i], perm[j])` of the original, i.e. `perm[k]` is the original
    /// index of the vertex placed at position `k` (a "new-to-old" map).
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..n`.
    pub fn permute(&self, perm: &[usize]) -> SparsePattern {
        assert_eq!(perm.len(), self.n, "permutation length mismatch");
        let mut old_to_new = vec![usize::MAX; self.n];
        for (new, &old) in perm.iter().enumerate() {
            assert!(
                old < self.n && old_to_new[old] == usize::MAX,
                "not a permutation"
            );
            old_to_new[old] = new;
        }
        let mut edges: Vec<(usize, usize)> = Vec::with_capacity(self.col_idx.len() / 2);
        for i in 0..self.n {
            for &j in self.neighbors(i) {
                if j > i {
                    edges.push((old_to_new[i], old_to_new[j]));
                }
            }
        }
        SparsePattern::from_edges(self.n, &edges)
    }

    /// Lower-triangular column structure: for every column `j`, the sorted
    /// row indices `i > j` with a structural nonzero.  This is the input
    /// format used by the symbolic factorization.
    pub fn lower_columns(&self) -> Vec<Vec<usize>> {
        (0..self.n)
            .map(|j| {
                self.neighbors(j)
                    .iter()
                    .copied()
                    .filter(|&i| i > j)
                    .collect()
            })
            .collect()
    }

    /// Number of connected components of the adjacency graph.
    pub fn connected_components(&self) -> usize {
        let mut seen = vec![false; self.n];
        let mut components = 0;
        let mut stack = Vec::new();
        for start in 0..self.n {
            if seen[start] {
                continue;
            }
            components += 1;
            seen[start] = true;
            stack.push(start);
            while let Some(v) = stack.pop() {
                for &w in self.neighbors(v) {
                    if !seen[w] {
                        seen[w] = true;
                        stack.push(w);
                    }
                }
            }
        }
        components
    }
}

impl fmt::Display for SparsePattern {
    fn fmt(&self, fmt: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(fmt, "SparsePattern(n = {}, nnz = {})", self.n, self.nnz())
    }
}

/// A numeric symmetric matrix stored as the lower triangle (diagonal
/// included) in compressed sparse column order, used by the multifrontal
/// demonstration.
#[derive(Debug, Clone, PartialEq)]
pub struct SymmetricCsr {
    n: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl SymmetricCsr {
    /// Build from per-column (row, value) pairs of the lower triangle.  Rows
    /// within a column are sorted; the diagonal entry must be present in
    /// every column.
    ///
    /// # Panics
    /// Panics if a column is missing its diagonal entry or an index is out of
    /// range.
    pub fn from_lower_columns(n: usize, columns: Vec<Vec<(usize, f64)>>) -> Self {
        assert_eq!(columns.len(), n);
        let mut col_ptr = Vec::with_capacity(n + 1);
        let mut row_idx = Vec::new();
        let mut values = Vec::new();
        col_ptr.push(0);
        for (j, mut column) in columns.into_iter().enumerate() {
            column.sort_by_key(|&(row, _)| row);
            column.dedup_by_key(|&mut (row, _)| row);
            assert!(
                column.first().map(|&(row, _)| row) == Some(j),
                "column {j} must contain its diagonal entry"
            );
            for (row, value) in column {
                assert!(
                    row >= j && row < n,
                    "entry ({row}, {j}) is not in the lower triangle"
                );
                row_idx.push(row);
                values.push(value);
            }
            col_ptr.push(row_idx.len());
        }
        SymmetricCsr {
            n,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Build from compressed-column arrays of the lower triangle: column `j`
    /// holds `row_idx[col_ptr[j]..col_ptr[j + 1]]` with the parallel
    /// `values`.  Unlike [`from_lower_columns`](Self::from_lower_columns) a
    /// column may be empty (a column that is never eliminated).  The caller
    /// guarantees that the arrays are consistent and that every column's
    /// rows increase strictly from `j` or below it up to `n - 1`; debug
    /// builds check it.
    pub fn from_csc(n: usize, col_ptr: Vec<usize>, row_idx: Vec<usize>, values: Vec<f64>) -> Self {
        debug_assert!(
            col_ptr.len() == n + 1
                && col_ptr.first() == Some(&0)
                && col_ptr.last() == Some(&row_idx.len())
                && row_idx.len() == values.len()
                && col_ptr.windows(2).enumerate().all(|(j, range)| {
                    range[0] <= range[1]
                        && row_idx.get(range[0]..range[1]).is_some_and(|rows| {
                            rows.first().is_none_or(|&first| first >= j)
                                && rows.windows(2).all(|pair| pair[0] < pair[1])
                                && rows.last().is_none_or(|&last| last < n)
                        })
                }),
            "inconsistent lower-triangle columns"
        );
        SymmetricCsr {
            n,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Dimension of the matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored (lower-triangular) entries.
    pub fn nnz_lower(&self) -> usize {
        self.row_idx.len()
    }

    /// Approximate heap footprint of the CSC arrays in bytes.
    pub fn heap_bytes(&self) -> u64 {
        use std::mem::size_of;
        ((self.col_ptr.len() + self.row_idx.len()) * size_of::<usize>()
            + self.values.len() * size_of::<f64>()) as u64
    }

    /// Stored entries of column `j` as parallel slices `(rows, values)`.
    pub fn column(&self, j: usize) -> (&[usize], &[f64]) {
        let range = self.col_ptr[j]..self.col_ptr[j + 1];
        (&self.row_idx[range.clone()], &self.values[range])
    }

    /// Value of entry `(i, j)` (with `i >= j`), or 0 when not stored.
    pub fn get_lower(&self, i: usize, j: usize) -> f64 {
        let (rows, values) = self.column(j);
        match rows.binary_search(&i) {
            Ok(pos) => values[pos],
            Err(_) => 0.0,
        }
    }

    /// The adjacency pattern of the matrix (off-diagonal structure).
    pub fn pattern(&self) -> SparsePattern {
        let edges: Vec<(usize, usize)> = (0..self.n)
            .flat_map(|j| {
                let (rows, _) = self.column(j);
                rows.iter()
                    .filter(move |&&i| i != j)
                    .map(move |&i| (i, j))
                    .collect::<Vec<_>>()
            })
            .collect();
        SparsePattern::from_edges(self.n, &edges)
    }

    /// Dense symmetric matrix (row-major, `n × n`), for testing against
    /// reference algorithms on small problems.
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut dense = vec![vec![0.0; self.n]; self.n];
        #[allow(clippy::needless_range_loop)]
        for j in 0..self.n {
            let (rows, values) = self.column(j);
            for (&i, &v) in rows.iter().zip(values) {
                dense[i][j] = v;
                dense[j][i] = v;
            }
        }
        dense
    }

    /// Multiply by a dense vector: `y = A x` (using the symmetric structure).
    pub fn multiply(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n);
        let mut y = vec![0.0; self.n];
        for j in 0..self.n {
            let (rows, values) = self.column(j);
            for (&i, &v) in rows.iter().zip(values) {
                y[i] += v * x[j];
                if i != j {
                    y[j] += v * x[i];
                }
            }
        }
        y
    }

    /// Apply a symmetric permutation (same convention as
    /// [`SparsePattern::permute`]: `perm[k]` is the original index placed at
    /// position `k`).
    pub fn permute(&self, perm: &[usize]) -> SymmetricCsr {
        assert_eq!(perm.len(), self.n);
        let mut old_to_new = vec![usize::MAX; self.n];
        for (new, &old) in perm.iter().enumerate() {
            assert!(
                old < self.n && old_to_new[old] == usize::MAX,
                "not a permutation"
            );
            old_to_new[old] = new;
        }
        let mut columns: Vec<Vec<(usize, f64)>> = vec![Vec::new(); self.n];
        for j in 0..self.n {
            let (rows, values) = self.column(j);
            for (&i, &v) in rows.iter().zip(values) {
                let (mut ni, mut nj) = (old_to_new[i], old_to_new[j]);
                if ni < nj {
                    std::mem::swap(&mut ni, &mut nj);
                }
                columns[nj].push((ni, v));
            }
        }
        SymmetricCsr::from_lower_columns(self.n, columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> SparsePattern {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        SparsePattern::from_edges(n, &edges)
    }

    #[test]
    fn pattern_from_edges_symmetrises_and_dedups() {
        let pattern = SparsePattern::from_edges(4, &[(0, 1), (1, 0), (1, 1), (2, 3), (0, 1)]);
        assert_eq!(pattern.n(), 4);
        assert_eq!(pattern.nnz_off_diagonal(), 4); // (0,1),(1,0),(2,3),(3,2)
        assert_eq!(pattern.nnz(), 8);
        assert_eq!(pattern.neighbors(0), &[1]);
        assert_eq!(pattern.neighbors(1), &[0]);
        assert_eq!(pattern.neighbors(3), &[2]);
        assert_eq!(pattern.degree(1), 1);
        assert!(pattern.is_symmetric());
        assert_eq!(pattern.connected_components(), 2);
    }

    #[test]
    fn permute_reverses_a_path() {
        let pattern = path_graph(4);
        let perm = vec![3, 2, 1, 0];
        let permuted = pattern.permute(&perm);
        // Reversing a path yields a path.
        assert_eq!(permuted.neighbors(0), &[1]);
        assert_eq!(permuted.neighbors(1), &[0, 2]);
        assert!(permuted.is_symmetric());
        assert_eq!(permuted.nnz(), pattern.nnz());
    }

    #[test]
    fn lower_columns_only_keep_larger_rows() {
        let pattern = SparsePattern::from_edges(4, &[(0, 2), (1, 2), (2, 3)]);
        let lower = pattern.lower_columns();
        assert_eq!(lower[0], vec![2]);
        assert_eq!(lower[1], vec![2]);
        assert_eq!(lower[2], vec![3]);
        assert!(lower[3].is_empty());
    }

    #[test]
    fn csr_roundtrip_and_multiply() {
        // [2 1 0]
        // [1 3 1]
        // [0 1 4]
        let matrix = SymmetricCsr::from_lower_columns(
            3,
            vec![
                vec![(0, 2.0), (1, 1.0)],
                vec![(1, 3.0), (2, 1.0)],
                vec![(2, 4.0)],
            ],
        );
        assert_eq!(matrix.nnz_lower(), 5);
        assert_eq!(matrix.get_lower(1, 0), 1.0);
        assert_eq!(matrix.get_lower(2, 0), 0.0);
        let dense = matrix.to_dense();
        assert_eq!(dense[0], vec![2.0, 1.0, 0.0]);
        assert_eq!(dense[1], vec![1.0, 3.0, 1.0]);
        let y = matrix.multiply(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![4.0, 10.0, 14.0]);
        let pattern = matrix.pattern();
        assert_eq!(pattern.neighbors(1), &[0, 2]);
    }

    #[test]
    fn csr_permutation_preserves_the_spectrum_sample() {
        let matrix = SymmetricCsr::from_lower_columns(
            3,
            vec![
                vec![(0, 2.0), (1, 1.0)],
                vec![(1, 3.0), (2, 1.0)],
                vec![(2, 4.0)],
            ],
        );
        let permuted = matrix.permute(&[2, 0, 1]);
        // Entry (old 2, old 2) = 4 moved to position (0, 0).
        assert_eq!(permuted.get_lower(0, 0), 4.0);
        // Entry (old 1, old 0) = 1 is now between positions 2 and 1.
        assert_eq!(permuted.get_lower(2, 1), 1.0);
        // Multiplying by the all-ones vector is permutation-invariant as a multiset.
        let mut a = matrix.multiply(&[1.0; 3]);
        let mut b = permuted.multiply(&[1.0; 3]);
        a.sort_by(f64::total_cmp);
        b.sort_by(f64::total_cmp);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn csr_requires_diagonal_entries() {
        SymmetricCsr::from_lower_columns(2, vec![vec![(0, 1.0)], vec![]]);
    }
}
