//! Property-based tests for the numeric multifrontal factorization: on random
//! SPD matrices the factorization must reconstruct the matrix, solve linear
//! systems, give the same factor for every valid traversal, and use exactly
//! the memory predicted by the paper's tree model.
//!
//! The environment is offline, so instead of `proptest` these tests draw a
//! deterministic battery of random instances from the `prng` crate: every
//! case is reproducible from its seed, printed in assertion messages.

use prng::{Rng, StdRng};

use multifrontal::memory::{instrumented_factorization_with_structure, per_column_model};
use multifrontal::numeric::SymbolicStructure;
use multifrontal::{multifrontal_cholesky, solve};
use sparsemat::gen::spd_matrix_from_pattern;
use sparsemat::SparsePattern;
use symbolic::etree::etree_postorder;
use treemem::minmem::min_mem;
use treemem::postorder::best_postorder;
use treemem::tree::Size;

fn arbitrary_spd(seed: u64, max_n: usize, max_edges: usize) -> sparsemat::SymmetricCsr {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2..=max_n);
    let count = rng.gen_range(0..=max_edges);
    let edges: Vec<(usize, usize)> = (0..count)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();
    let pattern = SparsePattern::from_edges(n, &edges).unwrap();
    spd_matrix_from_pattern(&pattern, rng.gen::<u64>())
}

#[test]
fn factorization_reconstructs_and_solves() {
    for seed in 0..32 {
        let matrix = arbitrary_spd(seed, 25, 80);
        let factor = multifrontal_cholesky(&matrix, None).unwrap();
        // L L^T = A.
        let reconstructed = factor.reconstruct_dense();
        let original = matrix.to_dense();
        for i in 0..matrix.n() {
            for j in 0..matrix.n() {
                assert!(
                    (reconstructed[i][j] - original[i][j]).abs() < 1e-8,
                    "seed {seed}, entry ({i}, {j})"
                );
            }
        }
        // Solving reproduces a known vector.
        let expected: Vec<f64> = (0..matrix.n()).map(|i| ((i % 5) as f64) - 2.0).collect();
        let rhs = matrix.multiply(&expected);
        let solution = solve(&factor, &rhs);
        for (a, b) in solution.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-6, "seed {seed}");
        }
    }
}

#[test]
fn every_valid_traversal_gives_the_same_factor() {
    for seed in 100..132 {
        let matrix = arbitrary_spd(seed, 20, 60);
        let structure = SymbolicStructure::from_pattern(&matrix.pattern());
        let model = per_column_model(&structure);
        let orders: Vec<Vec<usize>> = vec![
            etree_postorder(&structure.etree),
            (0..matrix.n()).collect(),
            min_mem(&model).traversal.reversed().into_order(),
            best_postorder(&model).traversal.reversed().into_order(),
        ];
        let reference = multifrontal_cholesky(&matrix, Some(&orders[0])).unwrap();
        for order in &orders[1..] {
            let factor = multifrontal_cholesky(&matrix, Some(order)).unwrap();
            assert_eq!(factor.values.len(), structure.factor_nnz(), "seed {seed}");
            for j in 0..matrix.n() {
                assert_eq!(factor.structure.rows(j), structure.rows(j), "seed {seed}");
            }
            for (a, b) in factor.values.iter().zip(&reference.values) {
                assert!((a - b).abs() < 1e-9, "seed {seed}");
            }
        }
    }
}

#[test]
fn measured_memory_always_matches_the_model() {
    for seed in 200..232 {
        let matrix = arbitrary_spd(seed, 20, 60);
        let structure = SymbolicStructure::from_pattern(&matrix.pattern());
        let model = per_column_model(&structure);
        for order in [
            etree_postorder(&structure.etree),
            min_mem(&model).traversal.reversed().into_order(),
        ] {
            let stats =
                instrumented_factorization_with_structure(&matrix, &structure, Some(&order))
                    .unwrap();
            assert_eq!(
                stats.measured_peak_entries as Size, stats.model_peak_entries,
                "seed {seed}"
            );
            assert_eq!(stats.factor_nnz, structure.factor_nnz(), "seed {seed}");
        }
    }
}
