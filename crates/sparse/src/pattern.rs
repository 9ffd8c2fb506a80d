//! Symmetric sparse patterns and numeric symmetric CSR storage.

use std::fmt;

/// The largest dimension a pattern, matrix or factor may have: every row,
/// column and parent index is stored as a `u32`, and `u32::MAX` is kept
/// free as the root sentinel of a parent array.
pub const MAX_DIMENSION: usize = u32::MAX as usize - 1;

/// A dimension beyond [`MAX_DIMENSION`], refused where it enters — before
/// any allocation of one entry per index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DimensionTooLarge {
    /// The refused dimension.
    pub dimension: usize,
}

impl DimensionTooLarge {
    /// `Ok` when `dimension` fits the `u32` index range.
    pub fn check(dimension: usize) -> Result<(), DimensionTooLarge> {
        if dimension > MAX_DIMENSION {
            Err(DimensionTooLarge { dimension })
        } else {
            Ok(())
        }
    }
}

impl fmt::Display for DimensionTooLarge {
    fn fmt(&self, fmt: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            fmt,
            "dimension {} exceeds the maximum {MAX_DIMENSION}",
            self.dimension
        )
    }
}

impl std::error::Error for DimensionTooLarge {}

/// An index of an edge pair handed to the counting build: `usize` from
/// [`SparsePattern::from_edges`], `u32` from the generators.
pub(crate) trait EdgeIndex: Copy {
    fn index(self) -> usize;
}

impl EdgeIndex for usize {
    fn index(self) -> usize {
        self
    }
}

impl EdgeIndex for u32 {
    fn index(self) -> usize {
        self as usize
    }
}

/// The adjacency structure of a sparse symmetric matrix: for every row `i`,
/// the sorted list of columns `j ≠ i` such that the entry `(i, j)` (or
/// `(j, i)`) is structurally nonzero.  The diagonal is implicit (assumed
/// nonzero everywhere), matching the symmetrised pattern `|A| + |Aᵀ| + I`
/// used by the paper.
///
/// Offsets are `usize` (the entry count may pass 2³²); column indices are
/// `u32`, which [`MAX_DIMENSION`] guarantees hold every index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparsePattern {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
}

impl SparsePattern {
    /// Build a pattern from unsymmetrised (row, column) pairs: duplicates and
    /// self loops are removed and the pattern is symmetrised.
    ///
    /// A counting sort: one pass counts each row's entries, one fills them
    /// into a single array, and each row is then sorted and deduplicated in
    /// place — no per-row allocation.
    ///
    /// A dimension beyond [`MAX_DIMENSION`] is refused before anything is
    /// allocated.
    ///
    /// # Panics
    /// Panics if an index is out of range.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self, DimensionTooLarge> {
        DimensionTooLarge::check(n)?;
        Ok(Self::from_checked_edges(n, edges))
    }

    /// [`SparsePattern::from_edges`]'s counting build, on pairs of either
    /// index width (the generators hand `u32` pairs, half the bytes of a
    /// `usize` edge list), for an `n` the caller has already checked
    /// against [`MAX_DIMENSION`].
    ///
    /// # Panics
    /// Panics if an index is out of range.
    pub(crate) fn from_checked_edges<T: EdgeIndex>(n: usize, edges: &[(T, T)]) -> Self {
        debug_assert!(n <= MAX_DIMENSION);
        // `row_ptr[i + 1]` counts row `i`; after the prefix sum `row_ptr[i]`
        // is where row `i` starts.
        let mut row_ptr = vec![0; n + 1];
        for &(i, j) in edges {
            let (i, j) = (i.index(), j.index());
            assert!(
                i < n && j < n,
                "index out of range: ({i}, {j}) with n = {n}"
            );
            if i != j {
                row_ptr[i + 1] += 1;
                row_ptr[j + 1] += 1;
            }
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i];
        }
        // Fill with `row_ptr[i]` as row `i`'s cursor: afterwards it points
        // at the end of row `i`, so shifting by one restores the starts.
        let mut col_idx = vec![0u32; row_ptr[n]];
        for &(i, j) in edges {
            let (i, j) = (i.index(), j.index());
            if i != j {
                col_idx[row_ptr[i]] = j as u32;
                row_ptr[i] += 1;
                col_idx[row_ptr[j]] = i as u32;
                row_ptr[j] += 1;
            }
        }
        row_ptr.copy_within(0..n, 1);
        row_ptr[0] = 0;
        // Sort each row and compact it, duplicates dropped, towards the
        // front: a row never starts after its uncompacted start.
        let mut kept = 0;
        for i in 0..n {
            let (start, end) = (row_ptr[i], row_ptr[i + 1]);
            row_ptr[i] = kept;
            col_idx[start..end].sort_unstable();
            let mut previous = None;
            for k in start..end {
                let j = col_idx[k];
                if previous != Some(j) {
                    col_idx[kept] = j;
                    kept += 1;
                    previous = Some(j);
                }
            }
        }
        row_ptr[n] = kept;
        // Duplicates leave capacity behind (half the array on a power-law
        // pattern): give it back.
        col_idx.truncate(kept);
        col_idx.shrink_to_fit();
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
        use std::mem::size_of;
        (self.row_ptr.len() * size_of::<usize>() + self.col_idx.len() * size_of::<u32>()) as u64
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
    pub fn neighbors(&self, i: usize) -> &[u32] {
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
                if self
                    .neighbors(j as usize)
                    .binary_search(&(i as u32))
                    .is_err()
                {
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
    pub fn permute(&self, perm: &[u32]) -> SparsePattern {
        assert_eq!(perm.len(), self.n, "permutation length mismatch");
        let mut old_to_new = vec![u32::MAX; self.n];
        for (new, &old) in perm.iter().enumerate() {
            let old = old as usize;
            assert!(
                old < self.n && old_to_new[old] == u32::MAX,
                "not a permutation"
            );
            old_to_new[old] = new as u32;
        }
        // Row `k` of the result is row `perm[k]` relabelled, so the row
        // lengths are known up front; fill the rows unsorted, then transpose.
        // The pattern is symmetric, so the transpose is the same pattern, and
        // visiting the rows in increasing order leaves each of its rows sorted.
        let mut row_ptr = Vec::with_capacity(self.n + 1);
        row_ptr.push(0);
        let mut unsorted = Vec::with_capacity(self.col_idx.len());
        for &old in perm {
            let neighbors = self.neighbors(old as usize);
            unsorted.extend(neighbors.iter().map(|&j| old_to_new[j as usize]));
            row_ptr.push(unsorted.len());
        }
        drop(old_to_new);
        let mut next = row_ptr[..self.n].to_vec();
        let mut col_idx = vec![0u32; unsorted.len()];
        for k in 0..self.n {
            for &c in &unsorted[row_ptr[k]..row_ptr[k + 1]] {
                let c = c as usize;
                col_idx[next[c]] = k as u32;
                next[c] += 1;
            }
        }
        SparsePattern {
            n: self.n,
            row_ptr,
            col_idx,
        }
    }

    /// Lower-triangular column structure: for every column `j`, the sorted
    /// row indices `i > j` with a structural nonzero.  This is the input
    /// format used by the symbolic factorization.
    pub fn lower_columns(&self) -> Vec<Vec<usize>> {
        (0..self.n)
            .map(|j| {
                self.neighbors(j)
                    .iter()
                    .map(|&i| i as usize)
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
                    let w = w as usize;
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
/// demonstration.  Row indices are `u32`, as in [`SparsePattern`].
#[derive(Debug, Clone, PartialEq)]
pub struct SymmetricCsr {
    n: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
    values: Vec<f64>,
}

impl SymmetricCsr {
    /// Build from per-column (row, value) pairs of the lower triangle.  Rows
    /// within a column are sorted; the diagonal entry must be present in
    /// every column, and no row may appear twice in a column.
    ///
    /// # Panics
    /// Panics if a column is missing its diagonal entry, repeats a row, an
    /// index is out of range, or `n` exceeds [`MAX_DIMENSION`].
    pub fn from_lower_columns(n: usize, columns: Vec<Vec<(usize, f64)>>) -> Self {
        assert_eq!(columns.len(), n);
        assert!(n <= MAX_DIMENSION, "dimension {n} exceeds {MAX_DIMENSION}");
        let mut col_ptr = Vec::with_capacity(n + 1);
        let mut row_idx = Vec::new();
        let mut values = Vec::new();
        col_ptr.push(0);
        for (j, mut column) in columns.into_iter().enumerate() {
            column.sort_by_key(|&(row, _)| row);
            if let Some(pair) = column.windows(2).find(|pair| pair[0].0 == pair[1].0) {
                panic!("entry ({}, {j}) is given twice", pair[0].0);
            }
            assert!(
                column.first().map(|&(row, _)| row) == Some(j),
                "column {j} must contain its diagonal entry"
            );
            for (row, value) in column {
                assert!(
                    row >= j && row < n,
                    "entry ({row}, {j}) is not in the lower triangle"
                );
                row_idx.push(row as u32);
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
    pub fn from_csc(n: usize, col_ptr: Vec<usize>, row_idx: Vec<u32>, values: Vec<f64>) -> Self {
        debug_assert!(
            n <= MAX_DIMENSION
                && col_ptr.len() == n + 1
                && col_ptr.first() == Some(&0)
                && col_ptr.last() == Some(&row_idx.len())
                && row_idx.len() == values.len()
                && col_ptr.windows(2).enumerate().all(|(j, range)| {
                    range[0] <= range[1]
                        && row_idx.get(range[0]..range[1]).is_some_and(|rows| {
                            rows.first().is_none_or(|&first| first as usize >= j)
                                && rows.windows(2).all(|pair| pair[0] < pair[1])
                                && rows.last().is_none_or(|&last| (last as usize) < n)
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
        (self.col_ptr.len() * size_of::<usize>()
            + self.row_idx.len() * size_of::<u32>()
            + self.values.len() * size_of::<f64>()) as u64
    }

    /// Stored entries of column `j` as parallel slices `(rows, values)`.
    pub fn column(&self, j: usize) -> (&[u32], &[f64]) {
        let range = self.col_ptr[j]..self.col_ptr[j + 1];
        (&self.row_idx[range.clone()], &self.values[range])
    }

    /// Value of entry `(i, j)` (with `i >= j`), or 0 when not stored.
    pub fn get_lower(&self, i: usize, j: usize) -> f64 {
        let (rows, values) = self.column(j);
        match rows.binary_search(&(i as u32)) {
            Ok(pos) => values[pos],
            Err(_) => 0.0,
        }
    }

    /// The adjacency pattern of the matrix (off-diagonal structure), built
    /// from one flat list of the stored entries below the diagonal.
    pub fn pattern(&self) -> SparsePattern {
        let mut edges = Vec::with_capacity(self.row_idx.len());
        for j in 0..self.n {
            let (rows, _) = self.column(j);
            let below = rows.iter().map(|&i| i as usize).filter(|&i| i != j);
            edges.extend(below.map(|i| (i, j)));
        }
        SparsePattern::from_edges(self.n, &edges).expect("a matrix's dimension fits its indices")
    }

    /// Dense symmetric matrix (row-major, `n × n`), for testing against
    /// reference algorithms on small problems.
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut dense = vec![vec![0.0; self.n]; self.n];
        #[allow(clippy::needless_range_loop)]
        for j in 0..self.n {
            let (rows, values) = self.column(j);
            for (&i, &v) in rows.iter().zip(values) {
                let i = i as usize;
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
                let i = i as usize;
                y[i] += v * x[j];
                if i != j {
                    y[j] += v * x[i];
                }
            }
        }
        y
    }
}

#[cfg(test)]
mod naive;

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> SparsePattern {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        SparsePattern::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn pattern_from_edges_symmetrises_and_dedups() {
        let pattern =
            SparsePattern::from_edges(4, &[(0, 1), (1, 0), (1, 1), (2, 3), (0, 1)]).unwrap();
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

    /// A dimension past the `u32` range is refused before the row pointer
    /// is allocated: at `usize::MAX` that allocation could not even be
    /// sized.
    #[test]
    fn from_edges_refuses_a_dimension_past_u32() {
        for dimension in [MAX_DIMENSION + 1, u32::MAX as usize, usize::MAX] {
            assert_eq!(
                SparsePattern::from_edges(dimension, &[]),
                Err(DimensionTooLarge { dimension })
            );
        }
        assert!(DimensionTooLarge::check(MAX_DIMENSION).is_ok());
    }

    /// Offsets are 8 bytes, every row and column index 4.
    #[test]
    fn heap_bytes_count_four_byte_indices() {
        let pattern = path_graph(5);
        assert_eq!(pattern.heap_bytes(), (6 * 8 + 8 * 4) as u64);
        let matrix = crate::gen::spd_matrix_from_pattern(&pattern, 1);
        assert_eq!(matrix.heap_bytes(), (6 * 8 + 9 * 4 + 9 * 8) as u64);
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
        let pattern = SparsePattern::from_edges(4, &[(0, 2), (1, 2), (2, 3)]).unwrap();
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
    #[should_panic(expected = "diagonal")]
    fn csr_requires_diagonal_entries() {
        SymmetricCsr::from_lower_columns(2, vec![vec![(0, 1.0)], vec![]]);
    }

    #[test]
    #[should_panic(expected = "entry (1, 0) is given twice")]
    fn csr_rejects_a_repeated_entry() {
        SymmetricCsr::from_lower_columns(
            2,
            vec![vec![(0, 2.0), (1, 1.0), (1, 3.0)], vec![(1, 2.0)]],
        );
    }
}
