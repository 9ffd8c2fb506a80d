//! Synthetic sparse-matrix generators.
//!
//! These generators replace the University of Florida Sparse Matrix
//! Collection used in the paper's experiments (see `DESIGN.md` for the
//! substitution rationale).  They cover the structural regimes that matter
//! for assembly-tree shapes:
//!
//! * [`grid2d_5pt`], [`grid2d_9pt`], [`grid3d_7pt`] — regular grids from
//!   discretised PDEs; nested-dissection-friendly, produce deep balanced
//!   assembly trees (the bulk of the UF matrices in the paper's size range
//!   are discretisations of this kind);
//! * [`banded`] — banded systems, produce chain-like elimination trees;
//! * [`random_spd_pattern`] — Erdős–Rényi-style random symmetric patterns
//!   with a prescribed number of nonzeros per row;
//! * [`power_law_pattern`] — skewed degree distributions (RMAT-like), which
//!   produce irregular, high-degree assembly trees.
//!
//! Every generator has a `*_matrix` variant that also produces numeric
//! values making the matrix symmetric positive definite (by strict diagonal
//! dominance), for use by the `multifrontal` crate.

use prng::{Rng, StdRng};

use crate::pattern::{DimensionTooLarge, SparsePattern, SymmetricCsr};

/// The pattern of `n` vertices whose edges `edges` lists, built by
/// [`SparsePattern::from_edges`]'s counting build.  Edges are `u32` pairs,
/// 8 bytes an edge where a `usize` list took 16: the list is the largest
/// thing a generator holds beside the pattern it builds.
///
/// # Panics
/// Panics if `n` exceeds [`MAX_DIMENSION`](crate::MAX_DIMENSION), before
/// `edges` is called: [`ProblemKind::try_generate`] refuses that before
/// generating.
fn generated(n: usize, edges: impl FnOnce() -> Vec<(u32, u32)>) -> SparsePattern {
    DimensionTooLarge::check(n).expect("a generated dimension fits the u32 indices");
    SparsePattern::from_checked_edges(n, &edges())
}

/// The `u32` edge pair `(i, j)`; both are below a checked dimension.
fn pair(i: usize, j: usize) -> (u32, u32) {
    (i as u32, j as u32)
}

/// Pattern of the 5-point Laplacian on an `nx × ny` grid.
pub fn grid2d_5pt(nx: usize, ny: usize) -> SparsePattern {
    generated(nx * ny, || grid2d_5pt_edges(nx, ny))
}

fn grid2d_5pt_edges(nx: usize, ny: usize) -> Vec<(u32, u32)> {
    let index = |x: usize, y: usize| y * nx + x;
    let mut edges = Vec::with_capacity(2 * nx * ny);
    for y in 0..ny {
        for x in 0..nx {
            if x + 1 < nx {
                edges.push(pair(index(x, y), index(x + 1, y)));
            }
            if y + 1 < ny {
                edges.push(pair(index(x, y), index(x, y + 1)));
            }
        }
    }
    edges
}

/// Pattern of the 9-point stencil on an `nx × ny` grid (adds diagonal
/// couplings to [`grid2d_5pt`]).
pub fn grid2d_9pt(nx: usize, ny: usize) -> SparsePattern {
    generated(nx * ny, || grid2d_9pt_edges(nx, ny))
}

fn grid2d_9pt_edges(nx: usize, ny: usize) -> Vec<(u32, u32)> {
    let index = |x: usize, y: usize| y * nx + x;
    let mut edges = Vec::with_capacity(4 * nx * ny);
    for y in 0..ny {
        for x in 0..nx {
            if x + 1 < nx {
                edges.push(pair(index(x, y), index(x + 1, y)));
            }
            if y + 1 < ny {
                edges.push(pair(index(x, y), index(x, y + 1)));
            }
            if x + 1 < nx && y + 1 < ny {
                edges.push(pair(index(x, y), index(x + 1, y + 1)));
                edges.push(pair(index(x + 1, y), index(x, y + 1)));
            }
        }
    }
    edges
}

/// Pattern of the 7-point Laplacian on an `nx × ny × nz` grid.
pub fn grid3d_7pt(nx: usize, ny: usize, nz: usize) -> SparsePattern {
    generated(nx * ny * nz, || grid3d_7pt_edges(nx, ny, nz))
}

fn grid3d_7pt_edges(nx: usize, ny: usize, nz: usize) -> Vec<(u32, u32)> {
    let index = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
    let mut edges = Vec::with_capacity(3 * nx * ny * nz);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                if x + 1 < nx {
                    edges.push(pair(index(x, y, z), index(x + 1, y, z)));
                }
                if y + 1 < ny {
                    edges.push(pair(index(x, y, z), index(x, y + 1, z)));
                }
                if z + 1 < nz {
                    edges.push(pair(index(x, y, z), index(x, y, z + 1)));
                }
            }
        }
    }
    edges
}

/// Pattern of a banded symmetric matrix of the given half-bandwidth.
pub fn banded(n: usize, half_bandwidth: usize) -> SparsePattern {
    generated(n, || banded_edges(n, half_bandwidth))
}

fn banded_edges(n: usize, half_bandwidth: usize) -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    for i in 0..n {
        for offset in 1..=half_bandwidth {
            if i + offset < n {
                edges.push(pair(i, i + offset));
            }
        }
    }
    edges
}

/// Random symmetric pattern with (approximately) `nnz_per_row` off-diagonal
/// entries per row, Erdős–Rényi style.
pub fn random_spd_pattern(n: usize, nnz_per_row: f64, seed: u64) -> SparsePattern {
    generated(n, || random_spd_edges(n, nnz_per_row, seed))
}

fn random_spd_edges(n: usize, nnz_per_row: f64, seed: u64) -> Vec<(u32, u32)> {
    assert!(n > 0 && nnz_per_row >= 0.0);
    let mut rng = StdRng::seed_from_u64(seed);
    // Each undirected edge contributes 2 off-diagonal entries, so target
    // n * nnz_per_row / 2 edges.
    let target_edges = ((n as f64) * nnz_per_row / 2.0).round() as usize;
    let mut edges = Vec::with_capacity(target_edges);
    for _ in 0..target_edges {
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        if i != j {
            edges.push(pair(i, j));
        }
    }
    // Add a Hamiltonian path so the graph is connected (keeps elimination
    // trees from degenerating into forests).
    for i in 0..n.saturating_sub(1) {
        edges.push(pair(i, i + 1));
    }
    edges
}

/// Random symmetric pattern with a power-law degree distribution: endpoints
/// are drawn with probability proportional to `(rank + 1)^{-alpha}`.
/// Produces a few very high-degree vertices, the irregular regime of the UF
/// collection.
pub fn power_law_pattern(n: usize, edges_count: usize, alpha: f64, seed: u64) -> SparsePattern {
    generated(n, || power_law_edges(n, edges_count, alpha, seed))
}

fn power_law_edges(n: usize, edges_count: usize, alpha: f64, seed: u64) -> Vec<(u32, u32)> {
    assert!(n > 0 && alpha > 0.0);
    let mut rng = StdRng::seed_from_u64(seed);
    // Precompute cumulative weights.
    let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(alpha)).collect();
    let total: f64 = weights.iter().sum();
    let mut cumulative = Vec::with_capacity(n);
    let mut acc = 0.0;
    for w in &weights {
        acc += w;
        cumulative.push(acc / total);
    }
    drop(weights);
    let draw = |rng: &mut StdRng| -> usize {
        let x: f64 = rng.gen();
        match cumulative.binary_search_by(|c| c.partial_cmp(&x).unwrap()) {
            Ok(idx) => idx,
            Err(idx) => idx.min(n - 1),
        }
    };
    let mut edges = Vec::with_capacity(edges_count + n);
    for _ in 0..edges_count {
        let i = draw(&mut rng);
        let j = draw(&mut rng);
        if i != j {
            edges.push(pair(i, j));
        }
    }
    for i in 0..n.saturating_sub(1) {
        edges.push(pair(i, i + 1));
    }
    edges
}

/// Give a pattern numeric values that make it symmetric positive definite:
/// off-diagonal entries are drawn uniformly in `(-1, -0.1]` and each diagonal
/// entry is set to one plus the sum of the absolute off-diagonal values of
/// its row (strict diagonal dominance).
///
/// One pass over the pattern's sorted rows fills the lower triangle's
/// compressed columns: column `i` is its diagonal, then row `i`'s neighbours
/// above `i`, whose values are drawn in that order.  The diagonal slots are
/// written once every draw has been summed into them.
pub fn spd_matrix_from_pattern(pattern: &SparsePattern, seed: u64) -> SymmetricCsr {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = pattern.n();
    let nnz_lower = n + pattern.nnz_off_diagonal() / 2;
    let mut col_ptr = Vec::with_capacity(n + 1);
    let mut row_idx = Vec::with_capacity(nnz_lower);
    let mut values = Vec::with_capacity(nnz_lower);
    let mut diagonal = vec![1.0f64; n];
    col_ptr.push(0);
    for i in 0..n {
        row_idx.push(i as u32);
        values.push(0.0);
        let neighbors = pattern.neighbors(i);
        for &j in &neighbors[neighbors.partition_point(|&j| j as usize <= i)..] {
            let value = -rng.gen_range(0.1..1.0);
            row_idx.push(j);
            values.push(value);
            diagonal[i] += value.abs();
            diagonal[j as usize] += value.abs();
        }
        col_ptr.push(row_idx.len());
    }
    for (i, d) in diagonal.into_iter().enumerate() {
        values[col_ptr[i]] = d;
    }
    SymmetricCsr::from_csc(n, col_ptr, row_idx, values)
}

/// Convenience: a 2-D grid Laplacian with SPD values.
pub fn grid2d_matrix(nx: usize, ny: usize, seed: u64) -> SymmetricCsr {
    spd_matrix_from_pattern(&grid2d_5pt(nx, ny), seed)
}

/// A small catalogue of generated problems covering the structural regimes
/// of the paper's data set, used by the experiment harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProblemKind {
    /// 5-point 2-D grid.
    Grid2d,
    /// 5-point 2-D grid with a 16:1 aspect ratio.  Nested-dissection
    /// separators stay bounded by the short side, so the elimination tree is
    /// bushy with many balanced subtrees — the shape anisotropic meshes
    /// produce in practice, and the regime where subtree-level parallelism
    /// pays off (a square grid concentrates half its factorization work in
    /// the top separators, which no subtree cut can parallelize).
    Grid2dWide,
    /// 9-point 2-D grid.
    Grid2d9,
    /// 7-point 3-D grid.
    Grid3d,
    /// Banded matrix.
    Banded,
    /// Uniform random pattern.
    Random,
    /// Power-law (skewed-degree) pattern.
    PowerLaw,
}

impl ProblemKind {
    /// All problem kinds.
    pub const ALL: [ProblemKind; 7] = [
        ProblemKind::Grid2d,
        ProblemKind::Grid2dWide,
        ProblemKind::Grid2d9,
        ProblemKind::Grid3d,
        ProblemKind::Banded,
        ProblemKind::Random,
        ProblemKind::PowerLaw,
    ];

    /// Short name used in experiment reports.
    pub fn name(&self) -> &'static str {
        match self {
            ProblemKind::Grid2d => "grid2d",
            ProblemKind::Grid2dWide => "grid2dwide",
            ProblemKind::Grid2d9 => "grid2d9",
            ProblemKind::Grid3d => "grid3d",
            ProblemKind::Banded => "banded",
            ProblemKind::Random => "random",
            ProblemKind::PowerLaw => "powerlaw",
        }
    }

    /// Inverse of [`ProblemKind::name`]: resolve a report name back to the
    /// kind (used by configuration parsers).
    pub fn from_name(name: &str) -> Option<ProblemKind> {
        ProblemKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Generate an instance of roughly `target_n` unknowns.
    pub fn generate(&self, target_n: usize, seed: u64) -> SparsePattern {
        match self {
            ProblemKind::Grid2d => {
                let side = square_side(target_n);
                grid2d_5pt(side, side)
            }
            ProblemKind::Grid2dWide => {
                let (long, short) = wide_sides(target_n);
                grid2d_5pt(long, short)
            }
            ProblemKind::Grid2d9 => {
                let side = square_side(target_n);
                grid2d_9pt(side, side)
            }
            ProblemKind::Grid3d => {
                let side = cube_side(target_n);
                grid3d_7pt(side, side, side)
            }
            ProblemKind::Banded => banded(target_n.max(4), 8),
            ProblemKind::Random => random_spd_pattern(target_n.max(4), 4.0, seed),
            ProblemKind::PowerLaw => {
                power_law_pattern(target_n.max(4), target_n.max(4) * 3, 1.6, seed)
            }
        }
    }

    /// The dimension [`generate`](Self::generate) builds for `target_n`,
    /// computed without building anything; `None` when it overflows
    /// `usize`.
    fn dimension(&self, target_n: usize) -> Option<usize> {
        match self {
            ProblemKind::Grid2d | ProblemKind::Grid2d9 => {
                let side = square_side(target_n);
                side.checked_mul(side)
            }
            ProblemKind::Grid2dWide => {
                let (long, short) = wide_sides(target_n);
                long.checked_mul(short)
            }
            ProblemKind::Grid3d => {
                let side = cube_side(target_n);
                side.checked_mul(side)?.checked_mul(side)
            }
            ProblemKind::Banded | ProblemKind::Random | ProblemKind::PowerLaw => {
                Some(target_n.max(4))
            }
        }
    }

    /// [`generate`](Self::generate), refusing a dimension beyond
    /// [`MAX_DIMENSION`](crate::MAX_DIMENSION) before anything is
    /// allocated.
    pub fn try_generate(
        &self,
        target_n: usize,
        seed: u64,
    ) -> Result<SparsePattern, DimensionTooLarge> {
        DimensionTooLarge::check(self.dimension(target_n).unwrap_or(usize::MAX))?;
        Ok(self.generate(target_n, seed))
    }
}

/// The side of the square grid nearest `target_n` vertices.
fn square_side(target_n: usize) -> usize {
    (target_n as f64).sqrt().round().max(2.0) as usize
}

/// The long and short sides of the 16:1 grid nearest `target_n` vertices.
fn wide_sides(target_n: usize) -> (usize, usize) {
    let short = ((target_n as f64) / 16.0).sqrt().round().max(2.0) as usize;
    ((target_n / short).max(2), short)
}

/// The side of the cubic grid nearest `target_n` vertices.
fn cube_side(target_n: usize) -> usize {
    (target_n as f64).cbrt().round().max(2.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The dimension and `u32` edge list [`ProblemKind::generate`] builds
    /// `kind`'s pattern from.
    fn edges_of(kind: ProblemKind, target_n: usize, seed: u64) -> (usize, Vec<(u32, u32)>) {
        let n = kind.dimension(target_n).unwrap();
        let edges = match kind {
            ProblemKind::Grid2d => grid2d_5pt_edges(square_side(target_n), square_side(target_n)),
            ProblemKind::Grid2dWide => {
                let (long, short) = wide_sides(target_n);
                grid2d_5pt_edges(long, short)
            }
            ProblemKind::Grid2d9 => grid2d_9pt_edges(square_side(target_n), square_side(target_n)),
            ProblemKind::Grid3d => {
                let side = cube_side(target_n);
                grid3d_7pt_edges(side, side, side)
            }
            ProblemKind::Banded => banded_edges(n, 8),
            ProblemKind::Random => random_spd_edges(n, 4.0, seed),
            ProblemKind::PowerLaw => power_law_edges(n, n * 3, 1.6, seed),
        };
        (n, edges)
    }

    /// Every kind at three sizes: the pattern built from `u32` pairs is the
    /// one `from_edges` builds from the same edges as `usize` pairs, and
    /// the 21 patterns hash to the literal the `usize` edge lists gave.
    #[test]
    fn u32_edge_pairs_build_the_usize_edge_patterns() {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |value: u64| {
            for byte in value.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for kind in ProblemKind::ALL {
            for size in [60, 700, 5_000] {
                let pattern = kind.generate(size, 11);
                let (n, edges) = edges_of(kind, size, 11);
                let wide: Vec<(usize, usize)> = edges
                    .iter()
                    .map(|&(i, j)| (i as usize, j as usize))
                    .collect();
                assert_eq!(
                    pattern,
                    SparsePattern::from_edges(n, &wide).unwrap(),
                    "{kind:?} {size}"
                );
                mix(pattern.n() as u64);
                for i in 0..pattern.n() {
                    mix(pattern.neighbors(i).len() as u64);
                    pattern.neighbors(i).iter().for_each(|&j| mix(u64::from(j)));
                }
            }
        }
        assert_eq!(hash, 0xfd2c_173f_6727_8127);
    }

    #[test]
    fn grid2d_structure() {
        let pattern = grid2d_5pt(3, 4);
        assert_eq!(pattern.n(), 12);
        // Interior vertex (1,1) = index 4 has 4 neighbours.
        assert_eq!(pattern.degree(4), 4);
        // Corner vertex 0 has 2 neighbours.
        assert_eq!(pattern.degree(0), 2);
        assert!(pattern.is_symmetric());
        assert_eq!(pattern.connected_components(), 1);
    }

    #[test]
    fn grid2d_9pt_has_more_entries() {
        let five = grid2d_5pt(5, 5);
        let nine = grid2d_9pt(5, 5);
        assert!(nine.nnz() > five.nnz());
        assert_eq!(nine.n(), five.n());
        // Interior vertex has 8 neighbours with the 9-point stencil.
        assert_eq!(nine.degree(12), 8);
    }

    #[test]
    fn grid3d_structure() {
        let pattern = grid3d_7pt(3, 3, 3);
        assert_eq!(pattern.n(), 27);
        // The centre vertex has 6 neighbours.
        assert_eq!(pattern.degree(13), 6);
        assert_eq!(pattern.connected_components(), 1);
    }

    #[test]
    fn banded_degrees() {
        let pattern = banded(10, 2);
        assert_eq!(pattern.degree(5), 4);
        assert_eq!(pattern.degree(0), 2);
        assert_eq!(pattern.degree(9), 2);
    }

    #[test]
    fn random_patterns_are_connected_and_reproducible() {
        let a = random_spd_pattern(200, 4.0, 9);
        let b = random_spd_pattern(200, 4.0, 9);
        assert_eq!(a, b);
        assert_eq!(a.connected_components(), 1);
        assert!(a.nnz_per_row() >= 2.5, "paper's density threshold");
        let p = power_law_pattern(200, 600, 1.6, 9);
        assert_eq!(p.connected_components(), 1);
        // The most connected vertex dominates.
        let max_degree = (0..p.n()).map(|i| p.degree(i)).max().unwrap();
        assert!(max_degree > 10);
    }

    #[test]
    fn spd_values_are_diagonally_dominant() {
        let matrix = grid2d_matrix(4, 4, 3);
        let dense = matrix.to_dense();
        for j in 0..matrix.n() {
            let off: f64 = dense
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != j)
                .map(|(_, row)| row[j].abs())
                .sum();
            assert!(dense[j][j] > off, "column {j} not diagonally dominant");
        }
    }

    #[test]
    fn problem_catalogue_generates_every_kind() {
        for kind in ProblemKind::ALL {
            let pattern = kind.generate(150, 5);
            assert!(pattern.n() >= 100, "{}: unexpectedly small", kind.name());
            assert!(pattern.is_symmetric());
        }
    }

    /// `dimension` is what `generate` builds, and a target whose dimension
    /// passes the `u32` range is refused before any edge is generated.
    #[test]
    fn try_generate_checks_the_dimension_first() {
        for kind in ProblemKind::ALL {
            for target in [1, 150, 1_000] {
                let pattern = kind.try_generate(target, 3).unwrap();
                assert_eq!(kind.dimension(target), Some(pattern.n()), "{}", kind.name());
            }
            for target in [2 * (crate::MAX_DIMENSION + 1), usize::MAX] {
                // Checked first, so a wrong bound fails here, not by
                // generating billions of vertices.
                let dimension = kind.dimension(target);
                assert!(
                    dimension.is_none_or(|n| n > crate::MAX_DIMENSION),
                    "{}",
                    kind.name()
                );
                assert!(kind.try_generate(target, 3).is_err(), "{}", kind.name());
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for kind in ProblemKind::ALL {
            assert_eq!(ProblemKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(ProblemKind::from_name("nope"), None);
    }
}
