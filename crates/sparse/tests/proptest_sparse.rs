//! Property-based tests for the sparse-matrix substrate.
//!
//! The environment is offline, so instead of `proptest` these tests draw a
//! deterministic battery of random instances from the `prng` crate: every
//! case is reproducible from its seed, printed in assertion messages.

use prng::{Rng, StdRng};

use sparsemat::gen::{banded, grid2d_5pt, random_spd_pattern, spd_matrix_from_pattern};
use sparsemat::matrixmarket::{read_pattern, write_pattern};
use sparsemat::SparsePattern;

/// Random `(n, edge list)` pair, possibly with self loops and duplicates
/// (which `SparsePattern::from_edges` must clean up).
fn arbitrary_edges(seed: u64, max_n: usize, max_edges: usize) -> (usize, Vec<(usize, usize)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2..=max_n);
    let count = rng.gen_range(0..=max_edges);
    let edges = (0..count)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();
    (n, edges)
}

#[test]
fn patterns_are_always_symmetric_and_deduplicated() {
    for seed in 0..64 {
        let (n, edges) = arbitrary_edges(seed, 40, 200);
        let pattern = SparsePattern::from_edges(n, &edges).unwrap();
        assert!(pattern.is_symmetric(), "seed {seed}");
        assert_eq!(pattern.n(), n, "seed {seed}");
        // No self loops and no duplicates: neighbours are strictly increasing.
        for i in 0..n {
            let neighbors = pattern.neighbors(i);
            for pair in neighbors.windows(2) {
                assert!(pair[0] < pair[1], "seed {seed}");
            }
            assert!(!neighbors.contains(&(i as u32)), "seed {seed}");
        }
        // Off-diagonal entries come in pairs.
        assert_eq!(pattern.nnz_off_diagonal() % 2, 0, "seed {seed}");
    }
}

#[test]
fn permutation_preserves_structure_statistics() {
    for seed in 100..164 {
        let (n, edges) = arbitrary_edges(seed, 30, 120);
        let pattern = SparsePattern::from_edges(n, &edges).unwrap();
        // Build a deterministic pseudo-random permutation from the seed.
        let mut perm: Vec<u32> = (0..n as u32).collect();
        let mut state = seed;
        for i in (1..n).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        let permuted = pattern.permute(&perm);
        assert_eq!(permuted.nnz(), pattern.nnz(), "seed {seed}");
        assert_eq!(
            permuted.connected_components(),
            pattern.connected_components(),
            "seed {seed}"
        );
        let mut original_degrees: Vec<usize> = (0..n).map(|i| pattern.degree(i)).collect();
        let mut permuted_degrees: Vec<usize> = (0..n).map(|i| permuted.degree(i)).collect();
        original_degrees.sort_unstable();
        permuted_degrees.sort_unstable();
        assert_eq!(original_degrees, permuted_degrees, "seed {seed}");
    }
}

#[test]
fn matrix_market_roundtrip() {
    for seed in 200..264 {
        let (n, edges) = arbitrary_edges(seed, 30, 120);
        let pattern = SparsePattern::from_edges(n, &edges).unwrap();
        let text = write_pattern(&pattern);
        let parsed = read_pattern(text.as_bytes()).unwrap();
        assert_eq!(parsed, pattern, "seed {seed}");
    }
}

#[test]
fn spd_generator_is_diagonally_dominant() {
    for seed in 400..464 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(3..30usize);
        let pattern = random_spd_pattern(n, 3.0, seed);
        let matrix = spd_matrix_from_pattern(&pattern, seed);
        let dense = matrix.to_dense();
        for (j, row) in dense.iter().enumerate() {
            let off: f64 = dense
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != j)
                .map(|(_, other)| other[j].abs())
                .sum();
            assert!(row[j] > off, "seed {seed}");
        }
        // Symmetric multiply agrees with the dense product.
        let x: Vec<f64> = (0..n).map(|i| (i as f64) - (n as f64) / 2.0).collect();
        let y = matrix.multiply(&x);
        for (i, row) in dense.iter().enumerate() {
            let expected: f64 = row.iter().zip(&x).map(|(a, b)| a * b).sum();
            assert!((y[i] - expected).abs() < 1e-9, "seed {seed}");
        }
    }
}

#[test]
fn generators_have_documented_shapes() {
    // Non-property sanity checks that pin the generator shapes used in DESIGN.md.
    let grid = grid2d_5pt(10, 10);
    assert_eq!(grid.n(), 100);
    assert_eq!(grid.nnz_off_diagonal(), 2 * (2 * 10 * 9));
    let band = banded(50, 3);
    assert!(band.degree(25) == 6);
}
