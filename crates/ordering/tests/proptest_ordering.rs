//! Property-based tests for the ordering crate: every method must return a
//! valid permutation, and the fill-reducing methods must never be worse than
//! the natural ordering by more than a small factor on structured problems.
//!
//! The environment is offline, so instead of `proptest` these tests draw a
//! deterministic battery of random instances from the `prng` crate: every
//! case is reproducible from its seed, printed in assertion messages.

use prng::{Rng, StdRng};

use ordering::mindeg::fill_in;
use ordering::{minimum_degree, natural, nested_dissection, rcm, OrderingMethod, Permutation};
use sparsemat::SparsePattern;

fn arbitrary_pattern(seed: u64, max_n: usize, max_edges: usize) -> SparsePattern {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2..=max_n);
    let count = rng.gen_range(0..=max_edges);
    let edges: Vec<(usize, usize)> = (0..count)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();
    SparsePattern::from_edges(n, &edges).unwrap()
}

fn is_permutation(perm: &Permutation, n: usize) -> bool {
    let mut seen = vec![false; n];
    for k in 0..n {
        let v = perm.new_to_old(k);
        if v >= n || seen[v] {
            return false;
        }
        seen[v] = true;
    }
    seen.into_iter().all(|s| s)
}

#[test]
fn every_method_returns_a_valid_permutation() {
    for seed in 0..48 {
        let pattern = arbitrary_pattern(seed, 40, 150);
        for method in OrderingMethod::ALL {
            let perm = method.order(&pattern);
            assert_eq!(perm.len(), pattern.n(), "seed {seed}, {}", method.name());
            assert!(
                is_permutation(&perm, pattern.n()),
                "seed {seed}, {}",
                method.name()
            );
        }
    }
}

#[test]
fn orderings_are_deterministic() {
    for seed in 100..148 {
        let pattern = arbitrary_pattern(seed, 30, 100);
        for method in OrderingMethod::ALL {
            assert_eq!(
                method.order(&pattern),
                method.order(&pattern),
                "seed {seed}, {}",
                method.name()
            );
        }
    }
}

#[test]
fn fill_is_invariant_under_relabelling_for_natural() {
    for seed in 200..248 {
        let pattern = arbitrary_pattern(seed, 25, 80);
        // fill_in of the identity on a relabelled pattern equals fill_in of
        // that relabelling on the original pattern.
        let n = pattern.n();
        let reversal = Permutation::from_new_to_old((0..n).rev().collect());
        let relabelled = reversal.apply(&pattern);
        assert_eq!(
            fill_in(&relabelled, &natural(n)),
            fill_in(&pattern, &reversal),
            "seed {seed}"
        );
    }
}

#[test]
fn trees_are_ordered_without_fill() {
    for seed in 300..348 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(2..40usize);
        // Build a random tree (acyclic graph): minimum degree must order it
        // with zero fill (nnz(L) = 2n - 1).
        let edges: Vec<(usize, usize)> = (1..n).map(|i| (i, rng.gen_range(0..i))).collect();
        let pattern = SparsePattern::from_edges(n, &edges).unwrap();
        let perm = minimum_degree(&pattern);
        assert_eq!(fill_in(&pattern, &perm), 2 * n - 1, "seed {seed}");
    }
}

#[test]
fn fill_reducing_methods_never_lose_badly_on_grids() {
    for side in 4usize..12 {
        let pattern = sparsemat::gen::grid2d_5pt(side, side);
        let base = fill_in(&pattern, &natural(pattern.n()));
        for perm in [minimum_degree(&pattern), nested_dissection(&pattern)] {
            let fill = fill_in(&pattern, &perm);
            assert!(
                fill <= base,
                "side {side}: fill-reducing ordering worse than natural"
            );
        }
        // RCM is a bandwidth reducer, not a fill reducer, but it should stay
        // within a small factor of natural on grids.
        let rcm_fill = fill_in(&pattern, &rcm(&pattern));
        assert!(rcm_fill <= 2 * base, "side {side}");
    }
}
