//! Property-based tests for the symbolic factorization and the assembly-tree
//! construction.
//!
//! The environment is offline, so instead of `proptest` these tests draw a
//! deterministic battery of random instances from the `prng` crate: every
//! case is reproducible from its seed, printed in assertion messages.

use prng::{Rng, StdRng};

use ordering::mindeg::fill_in;
use ordering::{OrderingMethod, Permutation};
use sparsemat::SparsePattern;
use symbolic::{amalgamate, column_counts, elimination_tree, etree_postorder};
use treemem::tree::Size;

fn arbitrary_pattern(seed: u64, max_n: usize, max_edges: usize) -> SparsePattern {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2..=max_n);
    let count = rng.gen_range(0..=max_edges);
    let edges: Vec<(usize, usize)> = (0..count)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();
    SparsePattern::from_edges(n, &edges).unwrap()
}

#[test]
fn etree_parents_are_larger_and_counts_match_fill() {
    for seed in 0..48 {
        let pattern = arbitrary_pattern(seed, 35, 120);
        let etree = elimination_tree(&pattern);
        for j in 0..pattern.n() {
            if let Some(p) = etree.parent(j) {
                assert!(p > j, "seed {seed}");
            }
        }
        let counts = column_counts(&pattern, &etree);
        // Column counts are consistent with the independent fill computation
        // of the ordering crate (identity permutation).
        let identity = Permutation::identity(pattern.n());
        assert_eq!(
            counts.iter().sum::<usize>(),
            fill_in(&pattern, &identity),
            "seed {seed}"
        );
        // Each count is at least 1 and at most the number of remaining columns.
        for (j, &c) in counts.iter().enumerate() {
            assert!(c >= 1 && c <= pattern.n() - j, "seed {seed}");
        }
    }
}

#[test]
fn etree_postorder_is_a_valid_bottom_up_order() {
    for seed in 100..148 {
        let pattern = arbitrary_pattern(seed, 35, 120);
        let etree = elimination_tree(&pattern);
        let order = etree_postorder(&etree);
        assert_eq!(order.len(), pattern.n(), "seed {seed}");
        let mut position = vec![usize::MAX; pattern.n()];
        for (idx, &node) in order.iter().enumerate() {
            assert_eq!(position[node], usize::MAX, "seed {seed}");
            position[node] = idx;
        }
        for j in 0..pattern.n() {
            if let Some(p) = etree.parent(j) {
                assert!(position[j] < position[p], "seed {seed}");
            }
        }
    }
}

#[test]
fn amalgamation_always_yields_valid_weighted_trees() {
    for seed in 200..248 {
        let pattern = arbitrary_pattern(seed, 35, 120);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa5a5);
        let allowance = rng.gen_range(1usize..20);
        let etree = elimination_tree(&pattern);
        let counts = column_counts(&pattern, &etree);
        let assembly = amalgamate(&etree, &counts, allowance);
        // Groups partition the columns.
        let grouped: usize = assembly.eta.iter().sum();
        assert_eq!(grouped, pattern.n(), "seed {seed}");
        // Weights follow the paper's formulas and are non-negative.
        for g in 0..assembly.len() {
            if assembly.group(g).is_empty() {
                continue; // virtual root of a forest
            }
            let eta = assembly.eta[g] as Size;
            let mu = assembly.mu[g] as Size;
            assert!(mu >= 1, "seed {seed}");
            assert_eq!(
                assembly.tree.n(g),
                eta * eta + 2 * eta * (mu - 1),
                "seed {seed}"
            );
            assert!(assembly.tree.f(g) >= 0, "seed {seed}");
            if assembly.tree.parent(g).is_some() {
                assert_eq!(assembly.tree.f(g), (mu - 1) * (mu - 1), "seed {seed}");
            } else {
                assert_eq!(assembly.tree.f(g), 0, "seed {seed}");
            }
        }
        // The tree is well formed: exactly one root, every group reachable.
        let roots = assembly
            .tree
            .nodes()
            .filter(|&i| assembly.tree.parent(i).is_none())
            .count();
        assert_eq!(roots, 1, "seed {seed}");
        // The MinMemory algorithms accept the tree (no panics, exact bounds).
        let opt = treemem::minmem::min_mem(&assembly.tree);
        assert!(opt.peak >= assembly.tree.max_mem_req(), "seed {seed}");
    }
}

#[test]
fn larger_allowances_do_not_grow_the_tree() {
    for seed in 300..348 {
        let pattern = arbitrary_pattern(seed, 30, 100);
        let etree = elimination_tree(&pattern);
        let counts = column_counts(&pattern, &etree);
        let mut previous = usize::MAX;
        for allowance in [1usize, 2, 4, 8, 16] {
            let assembly = amalgamate(&etree, &counts, allowance);
            assert!(assembly.len() <= previous, "seed {seed}");
            previous = assembly.len();
        }
    }
}

#[test]
fn pipeline_works_for_every_ordering() {
    for seed in 400..448 {
        let pattern = arbitrary_pattern(seed, 25, 80);
        for method in OrderingMethod::ALL {
            let assembly = symbolic::assembly_tree_for(&pattern, method, 4);
            assert!(!assembly.is_empty(), "seed {seed}");
            assert!(assembly.len() <= pattern.n() + 1, "seed {seed}");
            let grouped: usize = assembly.eta.iter().sum();
            assert_eq!(grouped, pattern.n(), "seed {seed}, {}", method.name());
        }
    }
}
