//! Small dense kernels used on frontal matrices.
//!
//! One elimination step serves every front: check the pivot, take its
//! square root, divide the column below it by the root, then subtract
//! `l_i·l_j` from the trailing lower triangle — a plain multiply and
//! subtract, no FMA, and a column whose multiplier is zero is skipped.
//! `DenseMatrix::eliminate_panel`, the served column loop's only dense call,
//! runs it for the `k` pivots of a perfect-amalgamation run (`k = 1` for a
//! lone column) and writes the Schur block once into a fresh matrix: the
//! panel's columns left-looking, every trailing entry's `k` updates in pivot
//! order, four per pass.  Each entry so sees the operations of `k`
//! one-pivot fronts in their order.  [`DenseMatrix::partial_cholesky`] runs
//! the step `k` times in place.  Both are pinned bit for bit to a scalar
//! reference kernel kept in test builds.

use treemem::faultinject::{fire, FaultPoint, FaultSignal};

/// The multi-pivot kernel [`DenseMatrix::partial_cholesky`] as a value (the
/// benchmark's kernel floor calls `FrontKernel::default().apply`).
#[derive(Debug, Default, Clone, Copy)]
pub struct FrontKernel;

impl FrontKernel {
    /// Run [`DenseMatrix::partial_cholesky`] on `matrix`.
    pub fn apply(&self, matrix: &mut DenseMatrix, pivots: usize) -> Result<(), usize> {
        matrix.partial_cholesky(pivots)
    }
}

/// A dense square matrix in column-major storage.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    n: usize,
    values: Vec<f64>,
}

impl DenseMatrix {
    /// A zero matrix of dimension `n`.
    pub fn zeros(n: usize) -> Self {
        DenseMatrix {
            n,
            values: vec![0.0; n * n],
        }
    }

    /// A matrix of dimension `n` reusing `buffer` (stale entries kept).
    fn from_buffer(n: usize, mut buffer: Vec<f64>) -> Self {
        buffer.resize(n * n, 0.0);
        DenseMatrix { n, values: buffer }
    }

    /// Surrender the backing storage (for recycling through a
    /// [`FrontArena`]).
    fn into_buffer(self) -> Vec<f64> {
        self.values
    }

    /// Dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The backing column-major storage (`n²` entries), read-only — the
    /// distributed wire encoder walks it to serialize contribution blocks.
    /// Only the lower triangle (`i ≥ j`) of a front or contribution block is
    /// defined; above the diagonal, an arena's buffer keeps stale values.
    pub fn column_major(&self) -> &[f64] {
        &self.values
    }

    /// Rebuild a matrix from its column-major storage (the inverse of
    /// [`column_major`](DenseMatrix::column_major)).
    ///
    /// # Panics
    /// Panics unless `values.len() == n²`.
    pub fn from_column_major(n: usize, values: Vec<f64>) -> Self {
        assert_eq!(values.len(), n * n, "column-major payload must be n²");
        DenseMatrix { n, values }
    }

    /// Number of stored entries (`n²`), the memory footprint used by the
    /// instrumentation.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the matrix has dimension zero.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Entry `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.values[j * self.n + i]
    }

    /// Set entry `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        self.values[j * self.n + i] = value;
    }

    /// Add `value` to entry `(i, j)`.
    #[inline]
    pub fn add(&mut self, i: usize, j: usize, value: f64) {
        self.values[j * self.n + i] += value;
    }

    /// Column `j` from the diagonal down: entries `(j..n, j)`.
    fn lower_column(&self, j: usize) -> &[f64] {
        &self.values[j * self.n + j..(j + 1) * self.n]
    }

    /// [`lower_column`](DenseMatrix::lower_column), mutable.
    fn lower_column_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.values[j * self.n + j..(j + 1) * self.n]
    }

    /// Extend-add `block`'s lower triangle: block row `b` is global row
    /// `rows[b]`, at `position[rows[b]]` here (`rows` sorted).
    pub(crate) fn extend_add(&mut self, block: &DenseMatrix, rows: &[u32], position: &[usize]) {
        let n = self.n;
        for (a, &ga) in rows.iter().enumerate() {
            let la = position[ga as usize];
            let column = &mut self.values[la * n..(la + 1) * n];
            for (&gb, &value) in rows[a..].iter().zip(block.lower_column(a)) {
                column[position[gb as usize]] += value;
            }
        }
    }

    /// Eliminate the first `pivots` pivots of an assembled front (lower
    /// triangle only) — the served column loop's one dense call — and, given
    /// an arena, write the Schur complement into a fresh `(n−pivots)²` block
    /// from it.
    ///
    /// Within the panel the kernel is left-looking: pivot `t` takes the
    /// updates `x − l_i·m_i` of pivots `0..t` in pivot order, then
    /// `assemble(t, column)` adds its matrix entries to its column (rows
    /// `t..n`; pivot 0 arrives assembled, so `assemble` is called for
    /// `t ≥ 1`), then its pivot is checked and its column scaled.  Every
    /// trailing entry then gets the `pivots` updates in pivot order, written
    /// out of place.  Each update is one multiply and one subtract, a zero
    /// multiplier's update is skipped, and four updates are fused per pass
    /// over a column, so every entry sees exactly the operation sequence of
    /// `pivots` one-pivot fronts, each seeded from the last one's block with
    /// its matrix entries added after.  At `pivots = 1` this is one
    /// [`partial_cholesky`](DenseMatrix::partial_cholesky) step with its
    /// trailing update written in one pass out of place.
    ///
    /// Errors with the first pivot that is not positive and finite.
    pub(crate) fn eliminate_panel(
        &mut self,
        pivots: usize,
        mut assemble: impl FnMut(usize, &mut [f64]),
        block: Option<&mut FrontArena>,
    ) -> Result<Option<DenseMatrix>, usize> {
        assert!(0 < pivots && pivots <= self.n);
        let n = self.n;
        for t in 0..pivots {
            if t > 0 {
                let (panel, rest) = self.values.split_at_mut(t * n);
                let column = &mut rest[t..n];
                subtract_updates(column, None, panel, n, t);
                assemble(t, column);
            }
            self.scale_pivot(t)?;
        }
        let Some(arena) = block else {
            return Ok(None);
        };
        let mut schur = arena.buffer(n - pivots);
        let panel = &self.values[..pivots * n];
        for s in pivots..n {
            let source = self.lower_column(s);
            subtract_updates(
                schur.lower_column_mut(s - pivots),
                Some(source),
                panel,
                n,
                s,
            );
        }
        Ok(Some(schur))
    }

    /// [`eliminate_panel`](DenseMatrix::eliminate_panel) at one pivot.
    #[cfg(test)]
    pub(crate) fn eliminate_pivot(
        &mut self,
        block: Option<&mut FrontArena>,
    ) -> Result<Option<DenseMatrix>, usize> {
        self.eliminate_panel(1, |_, _| {}, block)
    }

    /// In-place Cholesky factorization of the leading `pivots × pivots`
    /// block, with the elimination applied to the full matrix: on return the
    /// leading block holds its lower Cholesky factor, the off-diagonal block
    /// holds `L₂₁ = A₂₁ L₁₁⁻ᵀ` and the trailing block holds the Schur
    /// complement `A₂₂ − L₂₁ L₂₁ᵀ` (lower triangles only).
    ///
    /// Returns an error if a non-positive pivot is met (the matrix is not
    /// positive definite).
    pub fn partial_cholesky(&mut self, pivots: usize) -> Result<(), usize> {
        assert!(pivots <= self.n);
        let n = self.n;
        for k in 0..pivots {
            self.scale_pivot(k)?;
            let (head, tail) = self.values.split_at_mut((k + 1) * n);
            let l = &head[k * n..];
            for (j, column) in (k + 1..n).zip(tail.chunks_exact_mut(n)) {
                let l_j = l[j];
                if l_j == 0.0 {
                    continue;
                }
                for (dst, &l_i) in column[j..].iter_mut().zip(&l[j..]) {
                    *dst -= l_i * l_j;
                }
            }
        }
        Ok(())
    }

    /// Check pivot `k` and scale its column: `l_kk = √a_kk`, then
    /// `l_ik = a_ik / l_kk` below it.  Errors with `k` unless the pivot is
    /// positive and finite.
    fn scale_pivot(&mut self, k: usize) -> Result<(), usize> {
        let column = self.lower_column_mut(k);
        let diagonal = column[0];
        if diagonal <= 0.0 || !diagonal.is_finite() {
            return Err(k);
        }
        let pivot = diagonal.sqrt();
        column[0] = pivot;
        for value in &mut column[1..] {
            *value /= pivot;
        }
        Ok(())
    }

    /// The scalar column-at-a-time kernel through bounds-checked element
    /// accessors: the oracle the elimination step is pinned to bit for bit
    /// (this module's tests and the `numeric::naive` column loop).
    #[cfg(test)]
    pub(crate) fn partial_cholesky_reference(&mut self, pivots: usize) -> Result<(), usize> {
        assert!(pivots <= self.n);
        for k in 0..pivots {
            let diagonal = self.get(k, k);
            if diagonal <= 0.0 || !diagonal.is_finite() {
                return Err(k);
            }
            let pivot = diagonal.sqrt();
            self.set(k, k, pivot);
            for i in (k + 1)..self.n {
                let value = self.get(i, k) / pivot;
                self.set(i, k, value);
            }
            for j in (k + 1)..self.n {
                let ljk = self.get(j, k);
                if ljk == 0.0 {
                    continue;
                }
                for i in j..self.n {
                    let update = self.get(i, k) * ljk;
                    self.add(i, j, -update);
                }
            }
        }
        Ok(())
    }
}

/// Row `s` and below of column `s` after the updates of every `panel`
/// column (`n` entries each) whose multiplier `m_i = l_i[s]` is nonzero:
/// `dst = src − l_i·m_i − …`, in panel order, one multiply and one subtract
/// per update, four updates per pass.  `src: None` updates `dst` in place.
fn subtract_updates(dst: &mut [f64], mut src: Option<&[f64]>, panel: &[f64], n: usize, s: usize) {
    let mut group: [(&[f64], f64); 4] = [(&[], 0.0); 4];
    let mut len = 0;
    for column in panel.chunks_exact(n) {
        let multiplier = column[s];
        if multiplier == 0.0 {
            continue;
        }
        group[len] = (&column[s..], multiplier);
        len += 1;
        if len == group.len() {
            subtract_four(dst, src.take(), group);
            len = 0;
        }
    }
    for &(l, multiplier) in &group[..len] {
        match src.take() {
            Some(src) => {
                for ((x, &y), &l) in dst.iter_mut().zip(src).zip(l) {
                    *x = y - l * multiplier;
                }
            }
            None => {
                for (x, &l) in dst.iter_mut().zip(l) {
                    *x -= l * multiplier;
                }
            }
        }
    }
    if let Some(src) = src {
        dst.copy_from_slice(src);
    }
}

/// Four updates in one pass: `dst = src − a·m_a − b·m_b − c·m_c − d·m_d`,
/// left to right (`src: None`: `dst` in place).
fn subtract_four(dst: &mut [f64], src: Option<&[f64]>, group: [(&[f64], f64); 4]) {
    let [(a, ma), (b, mb), (c, mc), (d, md)] = group;
    let updates = a.iter().zip(b).zip(c).zip(d);
    match src {
        Some(src) => {
            for ((x, &y), (((&a, &b), &c), &d)) in dst.iter_mut().zip(src).zip(updates) {
                *x = y - a * ma - b * mb - c * mc - d * md;
            }
        }
        None => {
            for (x, (((&a, &b), &c), &d)) in dst.iter_mut().zip(updates) {
                *x = *x - a * ma - b * mb - c * mc - d * md;
            }
        }
    }
}

/// A recycling pool of frontal-matrix buffers.
///
/// The multifrontal kernel allocates one dense front per column (or run of
/// columns) and one contribution block per non-root front; on large trees that is hundreds
/// of thousands of short-lived heap allocations.  An arena keeps the freed
/// backing buffers and hands them back (resized, lower triangle set) to
/// later fronts, so a worker's steady state performs no allocation at all.
/// Arenas are *per worker* — they are plain `&mut` state, never shared —
/// which is what makes the parallel execution layer allocation-quiet
/// without locks.
#[derive(Debug, Default)]
pub struct FrontArena {
    pool: Vec<Vec<f64>>,
    /// Total *capacity* (in `f64` entries) of the pooled buffers.  Pool
    /// retention is bounded by capacity, not buffer count, because
    /// `Vec::resize` never shrinks: a slot that once backed a separator
    /// front keeps that allocation forever, and counting buffers would let
    /// each worker quietly pin `count × largest-front` bytes outside the
    /// budget ledger's accounting.
    pooled_entries: usize,
    /// The elimination loop's global-row → front-position map, kept here so
    /// a worker allocates it once.  All `usize::MAX` between fronts.
    pub(crate) scatter: Vec<usize>,
}

/// Per-arena retention cap: 2²⁰ f64 entries = 8 MiB of spare buffers per
/// worker.  Enough to make the steady state allocation-free on 10⁵-node
/// problems (a handful of live matrices per task), small enough that the
/// arenas stay negligible next to the configured memory budget.
const ARENA_POOL_ENTRY_LIMIT: usize = 1 << 20;

impl FrontArena {
    /// An empty arena.
    pub fn new() -> Self {
        FrontArena::default()
    }

    /// An `n × n` matrix whose lower triangle is a copy of `seed`'s, or zero
    /// without one; the upper triangle is unspecified.
    pub(crate) fn take(&mut self, n: usize, seed: Option<&DenseMatrix>) -> DenseMatrix {
        let mut matrix = self.buffer(n);
        for j in 0..n {
            let column = matrix.lower_column_mut(j);
            match seed {
                Some(seed) => column.copy_from_slice(seed.lower_column(j)),
                None => column.fill(0.0),
            }
        }
        matrix
    }

    /// An `n × n` matrix with unspecified entries, from the pool if it can.
    ///
    /// Instrumented as fault point `arena:alloc`: a `drop` or `panic` rule
    /// simulates an allocation failure here, unwinding out of the numeric
    /// column loop (caught by the worker pool or the server's panic fence).
    fn buffer(&mut self, n: usize) -> DenseMatrix {
        if fire(FaultPoint::ArenaAlloc) == FaultSignal::Drop {
            panic!("faultinject: injected allocation failure at arena:alloc ({n}x{n} front)");
        }
        match self.pool.pop() {
            Some(buffer) => {
                self.pooled_entries -= buffer.capacity();
                DenseMatrix::from_buffer(n, buffer)
            }
            None => DenseMatrix::zeros(n),
        }
    }

    /// Return a matrix's backing buffer to the pool (dropped instead when
    /// the retention cap is reached).
    pub(crate) fn recycle(&mut self, matrix: DenseMatrix) {
        let buffer = matrix.into_buffer();
        if self.pooled_entries + buffer.capacity() <= ARENA_POOL_ENTRY_LIMIT {
            self.pooled_entries += buffer.capacity();
            self.pool.push(buffer);
        }
    }

    /// Number of spare buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd_3x3() -> DenseMatrix {
        // A = [4 2 2; 2 5 3; 2 3 6] (symmetric positive definite).
        let mut a = DenseMatrix::zeros(3);
        let entries = [
            (0, 0, 4.0),
            (1, 0, 2.0),
            (2, 0, 2.0),
            (1, 1, 5.0),
            (2, 1, 3.0),
            (2, 2, 6.0),
        ];
        for (i, j, v) in entries {
            a.set(i, j, v);
        }
        a
    }

    #[test]
    fn full_cholesky_reconstructs_the_matrix() {
        let a = spd_3x3();
        let mut factor = a.clone();
        factor.partial_cholesky(3).unwrap();
        // Check L Lᵀ == A on the lower triangle.
        for i in 0..3 {
            for j in 0..=i {
                let mut sum = 0.0;
                for k in 0..=j {
                    sum += factor.get(i, k) * factor.get(j, k);
                }
                assert!((sum - a.get(i, j)).abs() < 1e-12, "entry ({i},{j})");
            }
        }
    }

    #[test]
    fn partial_cholesky_produces_the_schur_complement() {
        let a = spd_3x3();
        let mut factor = a.clone();
        factor.partial_cholesky(1).unwrap();
        // Schur complement of the (1,1) block: A22 - a21 a21^T / a11.
        let expected_11 = 5.0 - 2.0 * 2.0 / 4.0;
        let expected_21 = 3.0 - 2.0 * 2.0 / 4.0;
        let expected_22 = 6.0 - 2.0 * 2.0 / 4.0;
        assert!((factor.get(1, 1) - expected_11).abs() < 1e-12);
        assert!((factor.get(2, 1) - expected_21).abs() < 1e-12);
        assert!((factor.get(2, 2) - expected_22).abs() < 1e-12);
    }

    #[test]
    fn non_spd_matrices_are_rejected() {
        let mut a = DenseMatrix::zeros(2);
        a.set(0, 0, 1.0);
        a.set(1, 0, 5.0);
        a.set(1, 1, 1.0); // Schur complement is negative.
        assert_eq!(a.clone().partial_cholesky_reference(2), Err(1));
        assert_eq!(FrontKernel.apply(&mut a, 2), Err(1));
        let mut indefinite = DenseMatrix::zeros(2);
        indefinite.set(0, 0, -1.0);
        assert_eq!(indefinite.eliminate_pivot(None), Err(0));
    }

    use prng::{Rng, StdRng};
    use sparsemat::gen::{spd_matrix_from_pattern, ProblemKind};

    /// The bit patterns of `matrix`'s storage.
    fn bits(matrix: &DenseMatrix) -> Vec<u64> {
        matrix.column_major().iter().map(|v| v.to_bits()).collect()
    }

    /// A dense SPD matrix with the sparsity and values of `kind`'s
    /// generator (small enough that a full dense Cholesky is cheap).
    fn dense_spd(kind: ProblemKind, seed: u64) -> DenseMatrix {
        let matrix = spd_matrix_from_pattern(&kind.generate(72, seed), seed);
        let rows = matrix.to_dense();
        let n = matrix.n();
        let mut dense = DenseMatrix::zeros(n);
        for (i, row) in rows.iter().enumerate().take(n) {
            for (j, &value) in row.iter().enumerate().take(n) {
                dense.set(i, j, value);
            }
        }
        dense
    }

    /// `partial_cholesky`, through the benchmark's `FrontKernel` entry, is
    /// the reference kernel bit for bit: every `ProblemKind`'s matrix (its
    /// zeros make zero multipliers) at 1, 2, n/2 and n pivots.
    #[test]
    fn partial_cholesky_matches_the_reference_bitwise() {
        for (index, kind) in ProblemKind::ALL.into_iter().enumerate() {
            let baseline = dense_spd(kind, 11 + index as u64);
            let n = baseline.n();
            for pivots in [1, 2, n / 2, n] {
                let mut reference = baseline.clone();
                reference.partial_cholesky_reference(pivots).unwrap();
                let mut kernel = baseline.clone();
                FrontKernel.apply(&mut kernel, pivots).unwrap();
                assert_eq!(
                    bits(&kernel),
                    bits(&reference),
                    "{}, {pivots} pivots",
                    kind.name()
                );
            }
        }
    }

    /// The served path eliminates one pivot per front with
    /// [`DenseMatrix::eliminate_pivot`]: on every front dimension of a
    /// sparse test matrix (every third multiplier zero) it is the reference
    /// kernel's single pivot bit for bit — on the factor column and on the
    /// lower triangle of the block it writes.
    #[test]
    fn eliminate_pivot_matches_the_reference_bitwise() {
        use sparsemat::gen::random_spd_pattern;
        let structure =
            crate::numeric::SymbolicStructure::from_pattern(&random_spd_pattern(100, 3.5, 21));
        let mut dims = structure.column_counts();
        dims.sort_unstable();
        dims.dedup();
        assert!(dims.len() > 3, "the matrix has fronts of several sizes");
        let mut arena = FrontArena::new();
        for dim in dims {
            let mut rng = StdRng::seed_from_u64(dim as u64);
            let mut front = DenseMatrix::zeros(dim);
            for j in 0..dim {
                front.set(j, j, dim as f64 + rng.gen::<f64>());
                for i in j + 1..dim {
                    let value = rng.gen::<f64>() - 0.5;
                    let zero_multiplier = j == 0 && i % 3 == 0;
                    front.set(i, j, if zero_multiplier { 0.0 } else { value });
                }
            }
            let mut reference = front.clone();
            reference.partial_cholesky_reference(1).unwrap();
            let block = front.eliminate_pivot(Some(&mut arena)).unwrap().unwrap();
            let bits = |column: &[f64]| column.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(front.lower_column(0)), bits(reference.lower_column(0)));
            for a in 0..dim - 1 {
                let expected = bits(reference.lower_column(a + 1));
                assert_eq!(bits(block.lower_column(a)), expected, "dim {dim} col {a}");
            }
            arena.recycle(block);
        }
    }

    /// [`DenseMatrix::eliminate_panel`] at `k` pivots is `k` reference
    /// one-pivot fronts, each seeded with the last one's trailing block and
    /// then given its own matrix entries: on every panel column and on the
    /// block's lower triangle, for panels of 1 to `dim` pivots with zero
    /// multipliers in every third row (so fused groups of four skip some);
    /// and a non-positive pivot inside the panel fails at its index.
    #[test]
    fn eliminate_panel_matches_one_pivot_fronts_bitwise() {
        let bits = |column: &[f64]| column.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut arena = FrontArena::new();
        for dim in [1, 2, 5, 9, 17, 30] {
            let mut rng = StdRng::seed_from_u64(dim as u64);
            // `entries` holds what panel column `t ≥ 1` adds itself after
            // its updates; rows ≡ 0 (mod 3) stay zero below the diagonal.
            let mut front = DenseMatrix::zeros(dim);
            let mut entries = DenseMatrix::zeros(dim);
            for j in 0..dim {
                front.set(j, j, 2.0 * dim as f64 + rng.gen::<f64>());
                for i in j + 1..dim {
                    if i % 3 != 0 {
                        front.set(i, j, rng.gen::<f64>() - 0.5);
                        entries.set(i, j, rng.gen::<f64>() - 0.5);
                    }
                }
            }
            for k in [1, 2, 3, 4, 5, 8, 9, dim].into_iter().filter(|&k| k <= dim) {
                let mut reference = front.clone();
                let mut columns = Vec::new();
                for t in 0..k {
                    if t > 0 {
                        let mut next = DenseMatrix::zeros(dim - t);
                        for a in 0..dim - t {
                            for b in a..dim - t {
                                next.set(b, a, reference.get(b + 1, a + 1));
                            }
                        }
                        for b in 0..dim - t {
                            next.add(b, 0, entries.get(b + t, t));
                        }
                        reference = next;
                    }
                    reference.partial_cholesky_reference(1).unwrap();
                    columns.push(bits(reference.lower_column(0)));
                }
                let mut panel = front.clone();
                let assemble = |t: usize, column: &mut [f64]| {
                    for (value, &entry) in column.iter_mut().zip(entries.lower_column(t)) {
                        *value += entry;
                    }
                };
                let block = panel
                    .eliminate_panel(k, assemble, Some(&mut arena))
                    .unwrap();
                for (t, expected) in columns.iter().enumerate() {
                    let label = format!("dim {dim}, {k} pivots, column {t}");
                    assert_eq!(&bits(panel.lower_column(t)), expected, "{label}");
                }
                let block = block.unwrap();
                assert_eq!(block.n(), dim - k);
                for a in 0..dim - k {
                    let expected = bits(reference.lower_column(a + 1));
                    assert_eq!(bits(block.lower_column(a)), expected, "dim {dim}, {k}, {a}");
                }
                arena.recycle(block);
            }
            if dim > 2 {
                let negated = |t: usize, column: &mut [f64]| {
                    if t == 2 {
                        column[0] = -column[0];
                    }
                };
                let mut panel = front.clone();
                assert_eq!(panel.eliminate_panel(dim, negated, None), Err(2));
            }
        }
    }

    #[test]
    fn column_major_round_trips() {
        let a = spd_3x3();
        let rebuilt = DenseMatrix::from_column_major(3, a.column_major().to_vec());
        assert_eq!(rebuilt, a);
    }

    #[test]
    #[should_panic(expected = "column-major payload must be n²")]
    fn from_column_major_rejects_wrong_lengths() {
        let _ = DenseMatrix::from_column_major(3, vec![0.0; 8]);
    }

    #[test]
    fn arena_recycles_buffers_with_a_zeroed_lower_triangle() {
        let lower_is = |matrix: &DenseMatrix, expected: &dyn Fn(usize, usize) -> f64| {
            let n = matrix.n();
            (0..n).all(|j| (j..n).all(|i| matrix.get(i, j) == expected(i, j)))
        };
        let mut arena = FrontArena::new();
        arena.recycle(DenseMatrix::from_column_major(3, vec![7.0; 9]));
        assert_eq!(arena.pooled(), 1);
        // The recycled buffer comes back with a zero lower triangle, at any
        // dimension; what lies above the diagonal is unspecified.
        let second = arena.take(5, None);
        assert_eq!(arena.pooled(), 0);
        assert_eq!(second.len(), 25);
        assert!(lower_is(&second, &|_, _| 0.0));
        arena.recycle(second);
        // A copy takes the seed's lower triangle from the same pool.
        let seed = spd_3x3();
        let third = arena.take(3, Some(&seed));
        assert_eq!(third.n(), 3);
        assert!(lower_is(&third, &|i, j| seed.get(i, j)));
    }

    #[test]
    fn arena_retention_is_bounded_by_capacity_not_count() {
        let mut arena = FrontArena::new();
        // A buffer above the retention cap is dropped, not pooled.
        arena.recycle(DenseMatrix::zeros(1100)); // 1100² > 2²⁰ entries
        assert_eq!(arena.pooled(), 0);
        // Many small buffers pool until the capacity cap bites.
        for _ in 0..6 {
            arena.recycle(DenseMatrix::zeros(512)); // 2¹⁸ entries each
        }
        assert_eq!(arena.pooled(), 4); // 4 × 2¹⁸ = the 2²⁰ cap
    }
}
