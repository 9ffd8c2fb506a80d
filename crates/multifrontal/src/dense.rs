//! Small dense kernels used on frontal matrices.
//!
//! Every served column goes through one fused single-pivot routine,
//! `DenseMatrix::eliminate_pivot`, called by `numeric::eliminate_columns`.
//! The cache-blocked multi-pivot kernel behind [`FrontKernel`] (diagonal-block
//! Cholesky, panel triangular solve, register-blocked rank-k Schur update)
//! runs only in the benchmark's kernel floor and the parity battery, whose
//! oracle is a scalar reference kernel in test builds.

/// Panel width of the blocked factorization.  32 columns of f64 keep a
/// panel strip within L1 for the front sizes the multifrontal kernel
/// produces, while the rank-32 trailing update is wide enough to amortise
/// the multiplier loads; powers of two between 16 and 64 perform within a
/// few percent of each other, so there is little to tune.
pub const DEFAULT_BLOCK: usize = 32;

/// Selects the dense elimination kernel for multi-pivot fronts.
///
/// `Blocked` is the multi-pivot kernel (the served column loop does not
/// call it; see the module docs).  Test builds add `Reference`, the
/// scalar column-at-a-time implementation the parity battery pins it to:
/// with a single pivot and with `block == 1` the blocked kernel is
/// *bit-identical* to the reference; wider blocks on multi-pivot
/// factorizations agree to a few ULPs (the 2-way unrolled Schur update
/// fuses two subtractions into one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontKernel {
    /// Scalar column-at-a-time elimination (the test oracle).
    #[cfg(test)]
    Reference,
    /// Cache-blocked tiled elimination with the given panel width
    /// (clamped to at least 1).
    Blocked {
        /// Panel width, in columns.
        block: usize,
    },
}

impl Default for FrontKernel {
    fn default() -> Self {
        FrontKernel::Blocked {
            block: DEFAULT_BLOCK,
        }
    }
}

impl FrontKernel {
    /// Run this kernel's partial Cholesky on `matrix`; see
    /// [`DenseMatrix::partial_cholesky`].
    pub fn apply(&self, matrix: &mut DenseMatrix, pivots: usize) -> Result<(), usize> {
        match *self {
            #[cfg(test)]
            FrontKernel::Reference => matrix.partial_cholesky_reference(pivots),
            FrontKernel::Blocked { block } => matrix.partial_cholesky_blocked(pivots, block.max(1)),
        }
    }

    /// A short stable name (benchmark labels).
    pub fn name(&self) -> &'static str {
        match self {
            #[cfg(test)]
            FrontKernel::Reference => "reference",
            FrontKernel::Blocked { .. } => "blocked",
        }
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
    pub(crate) fn extend_add(&mut self, block: &DenseMatrix, rows: &[usize], position: &[usize]) {
        let n = self.n;
        for (a, &ga) in rows.iter().enumerate() {
            let la = position[ga];
            let column = &mut self.values[la * n..(la + 1) * n];
            for (&gb, &value) in rows[a..].iter().zip(block.lower_column(a)) {
                column[position[gb]] += value;
            }
        }
    }

    /// Eliminate the first pivot of an assembled front (lower triangle only)
    /// and, given an arena, write the Schur complement `F(b+1, a+1) −
    /// l_{b+1}·l_{a+1}` into a fresh `(n−1)²` block from it: the reference
    /// kernel's single-pivot operations without FMA, so bit-identical to it.
    pub(crate) fn eliminate_pivot(
        &mut self,
        block: Option<&mut FrontArena>,
    ) -> Result<Option<DenseMatrix>, usize> {
        self.factor_panel(0, 1)?;
        let Some(arena) = block else {
            return Ok(None);
        };
        let n = self.n;
        let mut schur = arena.buffer(n - 1);
        for a in 0..n - 1 {
            let (l, l_a) = (&self.values[a + 1..n], self.values[a + 1]);
            let (source, column) = (self.lower_column(a + 1), schur.lower_column_mut(a));
            // Where the reference skips a zero multiplier's update.
            if l_a == 0.0 {
                column.copy_from_slice(source);
                continue;
            }
            for ((dst, &src), &l_i) in column.iter_mut().zip(source).zip(l) {
                *dst = src - l_i * l_a;
            }
        }
        Ok(Some(schur))
    }

    /// In-place Cholesky factorization of the leading `pivots × pivots`
    /// block, with the elimination applied to the full matrix: on return the
    /// leading block holds its lower Cholesky factor, the off-diagonal block
    /// holds `L₂₁ = A₂₁ L₁₁⁻ᵀ` and the trailing block holds the Schur
    /// complement `A₂₂ − L₂₁ L₂₁ᵀ`.
    ///
    /// Returns an error if a non-positive pivot is met (the matrix is not
    /// positive definite).
    pub fn partial_cholesky(&mut self, pivots: usize) -> Result<(), usize> {
        self.partial_cholesky_blocked(pivots, DEFAULT_BLOCK)
    }

    /// The scalar column-at-a-time kernel: one rank-1 update per pivot,
    /// through bounds-checked element accessors.  The semantic baseline the
    /// blocked kernel is pinned to (see the parity battery in this module's
    /// tests).
    #[cfg(test)]
    fn partial_cholesky_reference(&mut self, pivots: usize) -> Result<(), usize> {
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

    /// The cache-blocked tiled kernel: pivots are processed in panels of
    /// `block` columns — the panel is factored in place (diagonal-block
    /// Cholesky fused with the triangular solve of the rows below it), then
    /// one rank-`block` Schur update hits every trailing column through
    /// column-major slices the autovectorizer can chew on.  Trailing columns
    /// whose whole multiplier panel is zero are skipped outright (the
    /// blocked form of the reference kernel's per-scalar zero test).
    pub fn partial_cholesky_blocked(&mut self, pivots: usize, block: usize) -> Result<(), usize> {
        assert!(pivots <= self.n);
        assert!(block > 0, "panel width must be positive");
        // Packing scratch for the Schur update; `Vec::new` does not
        // allocate, and the single-pivot path never touches it.
        let mut scratch = Vec::new();
        let mut start = 0;
        while start < pivots {
            let end = (start + block).min(pivots);
            self.factor_panel(start, end)?;
            self.schur_update(start, end, &mut scratch);
            start = end;
        }
        Ok(())
    }

    /// Factor panel columns `kb..ke` in place, in the textbook two-step
    /// shape: the `(ke−kb)²` diagonal block is factored with a scalar
    /// left-looking Cholesky (at most `block²` entries, never the hot
    /// term), and the subdiagonal rows `ke..n` of each panel column — the
    /// `L₂₁ ← A₂₁ L₁₁⁻ᵀ` triangular solve — stream through the 4-deep
    /// pivot-unrolled axpy so the solve runs at the vector units' rate.
    /// Division by the pivot — not multiplication by a reciprocal — and a
    /// width-1 panel degenerating to exactly the reference's pivot check
    /// plus column scaling keep the bit-parity guarantees intact.
    fn factor_panel(&mut self, kb: usize, ke: usize) -> Result<(), usize> {
        let n = self.n;
        for k in kb..ke {
            let (head, tail) = self.values.split_at_mut(k * n);
            // Diagonal-block rows k..ke of column k, scalar left-looking.
            for t in kb..k {
                let col_t = &head[t * n..t * n + n];
                let l_kt = col_t[k];
                if l_kt == 0.0 {
                    continue;
                }
                for (dst, &src) in tail[k..ke].iter_mut().zip(&col_t[k..ke]) {
                    *dst -= src * l_kt;
                }
            }
            let diagonal = tail[k];
            if diagonal <= 0.0 || !diagonal.is_finite() {
                return Err(k);
            }
            // Panel-solve rows ke..n of column k, 4 pivots per pass.
            if ke < n {
                let col_k = &mut tail[ke..n];
                let done = k - kb;
                let mut t = 0;
                while t + 4 <= done {
                    let sources =
                        [0, 1, 2, 3].map(|q| &head[(kb + t + q) * n + ke..(kb + t + q) * n + n]);
                    let l = [0, 1, 2, 3].map(|q| head[(kb + t + q) * n + k]);
                    axpy_quad(col_k, sources, l);
                    t += 4;
                }
                while t < done {
                    let col_t = &head[(kb + t) * n..(kb + t) * n + n];
                    axpy_one(col_k, &col_t[ke..], col_t[k]);
                    t += 1;
                }
            }
            let pivot = diagonal.sqrt();
            tail[k] = pivot;
            for value in &mut tail[k + 1..n] {
                *value /= pivot;
            }
        }
        Ok(())
    }

    /// Rank-`(ke−kb)` Schur update of the trailing columns `ke..n` (rows
    /// `i ≥ j` only — the lower triangle) by the factored panel `kb..ke`.
    ///
    /// Two shapes.  A panel of width 1 runs one axpy per trailing column,
    /// bit-identical to the reference kernel and with no scratch traffic.
    /// Wider panels are first *packed*: the panel rows `ke..n` are copied
    /// contiguously into `scratch` (an all-zero panel is detected during the
    /// copy and skipped outright), then the trailing columns are processed
    /// as 4-column destination tiles under a 4-deep pivot unroll — each
    /// inner trip keeps 16 multipliers in registers and reuses 4 packed
    /// source loads across all four destinations, which is what turns the
    /// update from L2-bandwidth-bound into compute-bound.
    fn schur_update(&mut self, kb: usize, ke: usize, scratch: &mut Vec<f64>) {
        let n = self.n;
        let width = ke - kb;
        if width == 0 || ke == n {
            return;
        }
        if width == 1 {
            for j in ke..n {
                let (head, tail) = self.values.split_at_mut(j * n);
                let col_k = &head[kb * n..kb * n + n];
                let ljk = col_k[j];
                if ljk == 0.0 {
                    continue;
                }
                let col_j = &mut tail[j..n];
                for (dst, &src) in col_j.iter_mut().zip(&col_k[j..]) {
                    *dst -= src * ljk;
                }
            }
            return;
        }

        let rows = n - ke;
        scratch.clear();
        let mut any_nonzero = false;
        for t in kb..ke {
            let column = &self.values[t * n + ke..t * n + n];
            any_nonzero = any_nonzero || column.iter().any(|&value| value != 0.0);
            scratch.extend_from_slice(column);
        }
        // A whole-zero panel (fronts whose pivots touch none of the trailing
        // rows) contributes nothing: skip the update outright.
        if !any_nonzero {
            return;
        }

        // Destination tiles of 4 columns: each pass over the packed panel
        // feeds 4 columns, so panel traffic (the L2-bandwidth term) is a
        // quarter of the column-at-a-time figure.
        let mut j = ke;
        while j + 4 <= n {
            self.schur_tile4(kb, ke, j, scratch);
            j += 4;
        }
        // Trailing remainder (≤ 3 columns at the bottom-right corner): one
        // plain axpy per pivot per column.
        while j < n {
            let col_j = &mut self.values[j * n + j..(j + 1) * n];
            for t in 0..width {
                let offset = t * rows + (j - ke);
                axpy_one(col_j, &scratch[offset..t * rows + rows], scratch[offset]);
            }
            j += 1;
        }
    }

    /// One 4-column destination tile of the packed Schur update: columns
    /// `j..j+4`, triangle head rows handled scalar, shared rows `j+4..n`
    /// through the 4×4 register-tiled axpy.
    fn schur_tile4(&mut self, kb: usize, ke: usize, j: usize, panel: &[f64]) {
        let n = self.n;
        let width = ke - kb;
        let rows = n - ke;
        let multiplier = |t: usize, column: usize| panel[t * rows + (column - ke)];
        if (0..width).all(|t| (0..4).all(|dc| multiplier(t, j + dc) == 0.0)) {
            return;
        }

        // Triangle head: entries (i, j+dc) with i < j+4, computed with a
        // scalar pivot loop (at most 10 entries per tile).
        for dc in 0..4 {
            for i in (j + dc)..(j + 4) {
                let mut update = 0.0;
                for t in 0..width {
                    update += panel[t * rows + (i - ke)] * multiplier(t, j + dc);
                }
                self.values[(j + dc) * n + i] -= update;
            }
        }

        // Shared rows j+4..n of all four columns.
        let shared = j + 4;
        if shared == n {
            return;
        }
        let base = shared - ke;
        let (_, rest) = self.values.split_at_mut(j * n);
        let (c0, rest) = rest.split_at_mut(n);
        let (c1, rest) = rest.split_at_mut(n);
        let (c2, rest) = rest.split_at_mut(n);
        let d0 = &mut c0[shared..];
        let d1 = &mut c1[shared..n];
        let d2 = &mut c2[shared..n];
        let d3 = &mut rest[shared..n];
        let mut t = 0;
        while t + 4 <= width {
            let sources =
                [0, 1, 2, 3].map(|q| &panel[(t + q) * rows + base..(t + q) * rows + rows]);
            let l = [0, 1, 2, 3].map(|dc| [0, 1, 2, 3].map(|q| multiplier(t + q, j + dc)));
            axpy_tile4(d0, d1, d2, d3, sources, l);
            t += 4;
        }
        while t < width {
            let source = &panel[t * rows + base..t * rows + rows];
            axpy_one(d0, source, multiplier(t, j));
            axpy_one(d1, source, multiplier(t, j + 1));
            axpy_one(d2, source, multiplier(t, j + 2));
            axpy_one(d3, source, multiplier(t, j + 3));
            t += 1;
        }
    }

    /// Dense matrix-vector product `y = A x` using only the lower triangle
    /// (the matrix is assumed symmetric), written into `y`.
    pub fn symmetric_multiply_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        y.fill(0.0);
        for j in 0..self.n {
            for i in j..self.n {
                let value = self.get(i, j);
                y[i] += value * x[j];
                if i != j {
                    y[j] += value * x[i];
                }
            }
        }
    }

    /// Allocating convenience wrapper over [`symmetric_multiply_into`]
    /// (hot paths pass their own output slice instead).
    ///
    /// [`symmetric_multiply_into`]: DenseMatrix::symmetric_multiply_into
    pub fn symmetric_multiply(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n];
        self.symmetric_multiply_into(x, &mut y);
        y
    }
}

/// The 4×4 register tile of the blocked Schur update:
/// `dsts[dc] −= Σ_q sources[q] · l[dc][q]` for four destination columns
/// sharing the same four source rows.  The four source loads per element
/// are amortised over 32 flops, which keeps the update compute-bound
/// instead of load-port- or L2-bandwidth-bound.
#[inline]
#[allow(clippy::too_many_arguments)]
fn axpy_tile4(
    d0: &mut [f64],
    d1: &mut [f64],
    d2: &mut [f64],
    d3: &mut [f64],
    sources: [&[f64]; 4],
    l: [[f64; 4]; 4],
) {
    // Miri has no cpuid and rejects `#[target_feature]` calls, so it always
    // exercises the portable loop below.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        // SAFETY: the required CPU features were just detected.
        unsafe { axpy_tile4_fma(d0, d1, d2, d3, sources, l) };
        return;
    }
    let len = d0.len();
    let (s0, s1, s2, s3) = (
        &sources[0][..len],
        &sources[1][..len],
        &sources[2][..len],
        &sources[3][..len],
    );
    let (d1, d2, d3) = (&mut d1[..len], &mut d2[..len], &mut d3[..len]);
    for i in 0..len {
        let (a, b, c, d) = (s0[i], s1[i], s2[i], s3[i]);
        d0[i] -= a * l[0][0] + b * l[0][1] + c * l[0][2] + d * l[0][3];
        d1[i] -= a * l[1][0] + b * l[1][1] + c * l[1][2] + d * l[1][3];
        d2[i] -= a * l[2][0] + b * l[2][1] + c * l[2][2] + d * l[2][3];
        d3[i] -= a * l[3][0] + b * l[3][1] + c * l[3][2] + d * l[3][3];
    }
}

/// [`axpy_tile4`] compiled with AVX2+FMA enabled: the products fuse into
/// chained FNMA ops, doubling the flop rate of the no-FMA baseline.  Only
/// reachable from the multi-pivot (already ULP-bounded, never bit-pinned)
/// Schur path, and only after runtime feature detection.
// SAFETY: `unsafe` only because of `#[target_feature]` — the body is plain
// safe slice code, and the sole caller dispatches here strictly after
// `is_x86_feature_detected!("avx2")` and `("fma")` both report true.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn axpy_tile4_fma(
    d0: &mut [f64],
    d1: &mut [f64],
    d2: &mut [f64],
    d3: &mut [f64],
    sources: [&[f64]; 4],
    l: [[f64; 4]; 4],
) {
    let len = d0.len();
    let (s0, s1, s2, s3) = (
        &sources[0][..len],
        &sources[1][..len],
        &sources[2][..len],
        &sources[3][..len],
    );
    let (d1, d2, d3) = (&mut d1[..len], &mut d2[..len], &mut d3[..len]);
    for i in 0..len {
        let (a, b, c, d) = (s0[i], s1[i], s2[i], s3[i]);
        let mut x0 = d0[i];
        let mut x1 = d1[i];
        let mut x2 = d2[i];
        let mut x3 = d3[i];
        x0 = a.mul_add(-l[0][0], x0);
        x1 = a.mul_add(-l[1][0], x1);
        x2 = a.mul_add(-l[2][0], x2);
        x3 = a.mul_add(-l[3][0], x3);
        x0 = b.mul_add(-l[0][1], x0);
        x1 = b.mul_add(-l[1][1], x1);
        x2 = b.mul_add(-l[2][1], x2);
        x3 = b.mul_add(-l[3][1], x3);
        x0 = c.mul_add(-l[0][2], x0);
        x1 = c.mul_add(-l[1][2], x1);
        x2 = c.mul_add(-l[2][2], x2);
        x3 = c.mul_add(-l[3][2], x3);
        x0 = d.mul_add(-l[0][3], x0);
        x1 = d.mul_add(-l[1][3], x1);
        x2 = d.mul_add(-l[2][3], x2);
        x3 = d.mul_add(-l[3][3], x3);
        d0[i] = x0;
        d1[i] = x1;
        d2[i] = x2;
        d3[i] = x3;
    }
}

/// `dst −= Σ_q sources[q] · l[q]`, 4 pivots at a time — the inner step of
/// the blocked panel triangular solve.
#[inline]
fn axpy_quad(dst: &mut [f64], sources: [&[f64]; 4], l: [f64; 4]) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        // SAFETY: the required CPU features were just detected.
        unsafe { axpy_quad_fma(dst, sources, l) };
        return;
    }
    let len = dst.len();
    let (s0, s1, s2, s3) = (
        &sources[0][..len],
        &sources[1][..len],
        &sources[2][..len],
        &sources[3][..len],
    );
    for i in 0..len {
        dst[i] -= s0[i] * l[0] + s1[i] * l[1] + s2[i] * l[2] + s3[i] * l[3];
    }
}

/// [`axpy_quad`] under AVX2+FMA; see [`axpy_tile4_fma`].
// SAFETY: `unsafe` only because of `#[target_feature]`; the sole caller
// dispatches here strictly after runtime AVX2+FMA detection.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn axpy_quad_fma(dst: &mut [f64], sources: [&[f64]; 4], l: [f64; 4]) {
    let len = dst.len();
    let (s0, s1, s2, s3) = (
        &sources[0][..len],
        &sources[1][..len],
        &sources[2][..len],
        &sources[3][..len],
    );
    for i in 0..len {
        let mut x = dst[i];
        x = s0[i].mul_add(-l[0], x);
        x = s1[i].mul_add(-l[1], x);
        x = s2[i].mul_add(-l[2], x);
        x = s3[i].mul_add(-l[3], x);
        dst[i] = x;
    }
}

/// `dst −= source · l` (pivot-loop remainder).
#[inline]
fn axpy_one(dst: &mut [f64], source: &[f64], l: f64) {
    if l == 0.0 {
        return;
    }
    let len = dst.len();
    let source = &source[..len];
    for i in 0..len {
        dst[i] -= source[i] * l;
    }
}

/// A recycling pool of frontal-matrix buffers.
///
/// The multifrontal kernel allocates one dense front per column and one
/// contribution block per non-root column; on large trees that is hundreds
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
        if treemem::faultinject::fire("arena:alloc") == treemem::faultinject::FaultSignal::Drop {
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
        assert_eq!(a.partial_cholesky(2), Err(1));
    }

    #[test]
    fn symmetric_multiply_matches_dense_expectation() {
        let a = spd_3x3();
        let y = a.symmetric_multiply(&[1.0, 1.0, 1.0]);
        assert_eq!(y, vec![8.0, 10.0, 11.0]);
        assert_eq!(a.len(), 9);
    }

    use prng::{Rng, StdRng};
    use sparsemat::gen::{spd_matrix_from_pattern, ProblemKind};

    /// ULP distance between two finite doubles (0 when bitwise equal;
    /// `+0.0` and `-0.0` count as equal).
    fn ulp_distance(a: f64, b: f64) -> u64 {
        fn ordered(x: f64) -> i64 {
            let bits = x.to_bits() as i64;
            if bits < 0 {
                i64::MIN - bits
            } else {
                bits
            }
        }
        ordered(a).abs_diff(ordered(b))
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

    /// The parity battery pinning the blocked kernel to the reference one:
    /// every `ProblemKind`, block sizes {1, 4, 8, 32, n}, full and partial
    /// factorizations.  `block == 1` and single-pivot eliminations must be
    /// *bit-identical*; wider blocks on full factorizations must agree
    /// within `ULP_BOUND` ULPs per entry.  A last 262 × 262 dense front runs
    /// [`FrontKernel::default`] against [`FrontKernel::Reference`] across
    /// several panels with ragged edges.
    #[test]
    fn blocked_kernel_parity_battery() {
        const ULP_BOUND: u64 = 64;
        let mut worst_ulp = 0u64;
        for (index, kind) in ProblemKind::ALL.into_iter().enumerate() {
            let seed = 11 + index as u64;
            let baseline = dense_spd(kind, seed);
            let n = baseline.n();

            let mut reference_full = baseline.clone();
            reference_full.partial_cholesky_reference(n).unwrap();
            let mut reference_partial = baseline.clone();
            reference_partial.partial_cholesky_reference(1).unwrap();

            for block in [1, 4, 8, 32, n] {
                // Single pivot: bit-identical at every panel width.
                let mut partial = baseline.clone();
                partial.partial_cholesky_blocked(1, block).unwrap();
                assert_eq!(
                    partial,
                    reference_partial,
                    "{} partial, block {block}",
                    kind.name()
                );

                let mut full = baseline.clone();
                full.partial_cholesky_blocked(n, block).unwrap();
                if block == 1 {
                    // Panel width 1 replays the reference operation order
                    // exactly.
                    assert_eq!(full, reference_full, "{} full, block 1", kind.name());
                    continue;
                }
                for j in 0..n {
                    for i in j..n {
                        let ulp = ulp_distance(full.get(i, j), reference_full.get(i, j));
                        worst_ulp = worst_ulp.max(ulp);
                        assert!(
                            ulp <= ULP_BOUND,
                            "{} ({i},{j}) block {block}: {} vs {} is {ulp} ULPs",
                            kind.name(),
                            full.get(i, j),
                            reference_full.get(i, j)
                        );
                    }
                }
            }
        }
        // The battery actually exercised the bounded-ULP (non-bitwise) path.
        assert!(worst_ulp > 0, "expected some rounding divergence");

        // One fully dense front several panels deep, its order a multiple of
        // neither the panel width nor the 4-wide register tile, through the
        // kernel selector the factorization uses.  Entries that cancel to
        // near zero make ULPs meaningless at this size, so the bound is on
        // the error relative to max(|entry|, 1).
        let n = 262;
        let mut rng = StdRng::seed_from_u64(n as u64);
        let mut front = DenseMatrix::zeros(n);
        for j in 0..n {
            front.set(j, j, n as f64 + rng.gen::<f64>());
            for i in j + 1..n {
                front.set(i, j, rng.gen::<f64>() - 0.5);
            }
        }
        for pivots in [n, n / 2] {
            let mut reference = front.clone();
            FrontKernel::Reference
                .apply(&mut reference, pivots)
                .unwrap();
            let mut blocked = front.clone();
            FrontKernel::default().apply(&mut blocked, pivots).unwrap();
            for j in 0..n {
                for i in j..n {
                    let (a, b) = (reference.get(i, j), blocked.get(i, j));
                    assert!(
                        (a - b).abs() <= 1e-12 * a.abs().max(1.0),
                        "dense-{n}, {pivots} pivots ({i},{j}): {b} vs {a}"
                    );
                }
            }
        }
    }

    /// The multifrontal path eliminates one pivot per front, where the
    /// blocked kernel and the fused [`DenseMatrix::eliminate_pivot`]
    /// collapse to the reference operation order: on every front dimension
    /// of a sparse test matrix (every third multiplier zero) they must agree
    /// bit for bit — the fused routine on the factor column and on the lower
    /// triangle of the block it writes.
    #[test]
    fn reference_and_blocked_kernels_agree_bitwise_on_single_pivot_fronts() {
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
            FrontKernel::Reference.apply(&mut reference, 1).unwrap();
            let mut fused = front.clone();
            let block = fused.eliminate_pivot(Some(&mut arena)).unwrap().unwrap();
            FrontKernel::default().apply(&mut front, 1).unwrap();
            assert_eq!(front, reference, "front dimension {dim}");
            let bits = |column: &[f64]| column.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(fused.lower_column(0)), bits(reference.lower_column(0)));
            for a in 0..dim - 1 {
                let expected = bits(reference.lower_column(a + 1));
                assert_eq!(bits(block.lower_column(a)), expected, "dim {dim} col {a}");
            }
            arena.recycle(block);
        }
        let mut indefinite = DenseMatrix::zeros(2);
        indefinite.set(0, 0, -1.0);
        assert_eq!(indefinite.eliminate_pivot(Some(&mut arena)), Err(0));
    }

    #[test]
    fn default_kernel_is_blocked_and_applies() {
        assert_eq!(
            FrontKernel::default(),
            FrontKernel::Blocked {
                block: DEFAULT_BLOCK
            }
        );
        assert_eq!(FrontKernel::default().name(), "blocked");
        assert_eq!(FrontKernel::Reference.name(), "reference");
        let mut a = spd_3x3();
        FrontKernel::default().apply(&mut a, 3).unwrap();
        let mut b = spd_3x3();
        FrontKernel::Reference.apply(&mut b, 3).unwrap();
        // 3 columns fit in one panel: same operations, same bits.
        assert_eq!(a, b);
    }

    #[test]
    fn non_spd_matrices_are_rejected_by_both_kernels() {
        let mut indefinite = DenseMatrix::zeros(2);
        indefinite.set(0, 0, 1.0);
        indefinite.set(1, 0, 5.0);
        indefinite.set(1, 1, 1.0);
        let mut blocked = indefinite.clone();
        assert_eq!(blocked.partial_cholesky_blocked(2, 8), Err(1));
        assert_eq!(indefinite.partial_cholesky_reference(2), Err(1));
    }

    #[test]
    fn symmetric_multiply_into_is_allocation_free_and_matches() {
        let a = spd_3x3();
        let mut y = vec![9.0; 3];
        a.symmetric_multiply_into(&[1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, vec![8.0, 10.0, 11.0]);
        assert_eq!(a.symmetric_multiply(&[1.0, 1.0, 1.0]), y);
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
