//! Property-based tests for the MinMemory algorithms.
//!
//! The environment is offline, so instead of `proptest` these tests draw a
//! deterministic battery of random instances from the `prng` crate: every
//! case is reproducible from its seed, printed in assertion messages.
//!
//! The key invariants, checked on randomly generated trees:
//!
//! * the two polynomial exact algorithms (`MinMem` and Liu's hill–valley
//!   algorithm) always agree, and on small trees they agree with the
//!   exponential brute-force oracle;
//! * the exact value is never larger than the best postorder, which in turn
//!   is never larger than the natural postorder;
//! * every algorithm returns a traversal whose directly-evaluated peak equals
//!   the value it reports;
//! * the exact value is at least `max_i MemReq(i)` and at most the sum of all
//!   file sizes plus the largest execution file.

use prng::{Rng, StdRng};

use treemem::brute::brute_force_peak;
use treemem::liu::liu_exact;
use treemem::minmem::min_mem;
use treemem::postorder::{best_postorder, natural_postorder};
use treemem::solver::Solver;
use treemem::tree::{Size, Tree};
use treemem::variants::{bottom_up_peak, from_replacement_model};

/// A random tree with random parent links and weights, reproducible from the
/// seed (mirrors the proptest strategy this file used to define).
fn arbitrary_tree(seed: u64, max_nodes: usize, max_file: Size, max_exec: Size) -> Tree {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2..=max_nodes);
    let mut parents: Vec<Option<usize>> = vec![None; n];
    for (i, parent) in parents.iter_mut().enumerate().skip(1) {
        *parent = Some(rng.gen_range(0..i));
    }
    let files: Vec<Size> = (0..n).map(|_| rng.gen_range(0..=max_file)).collect();
    let execs: Vec<Size> = (0..n).map(|_| rng.gen_range(0..=max_exec)).collect();
    Tree::from_parents(&parents, &files, &execs).expect("construction is valid")
}

#[test]
fn exact_algorithms_agree_with_brute_force() {
    for seed in 0..96 {
        let tree = arbitrary_tree(seed, 12, 30, 6);
        let brute = brute_force_peak(&tree);
        let mm = min_mem(&tree);
        let liu = liu_exact(&tree);
        assert_eq!(
            mm.peak, brute,
            "seed {seed}: MinMem disagrees with brute force"
        );
        assert_eq!(
            liu.peak, brute,
            "seed {seed}: Liu disagrees with brute force"
        );
    }
}

#[test]
fn exact_algorithms_agree_on_larger_trees() {
    for seed in 100..196 {
        let tree = arbitrary_tree(seed, 120, 1_000, 50);
        let mm = min_mem(&tree);
        let liu = liu_exact(&tree);
        assert_eq!(mm.peak, liu.peak, "seed {seed}: MinMem and Liu must agree");
    }
}

#[test]
fn ordering_of_the_algorithms() {
    for seed in 200..296 {
        let tree = arbitrary_tree(seed, 60, 500, 20);
        let exact = min_mem(&tree).peak;
        let best_po = best_postorder(&tree);
        let natural_po = natural_postorder(&tree);
        assert!(exact <= best_po.peak, "seed {seed}");
        assert!(best_po.peak <= natural_po.peak, "seed {seed}");
        assert!(exact >= tree.max_mem_req(), "seed {seed}");
        assert!(exact <= tree.memory_upper_bound(), "seed {seed}");
    }
}

#[test]
fn reported_peaks_match_the_traversals() {
    for seed in 300..396 {
        let tree = arbitrary_tree(seed, 60, 500, 20);
        // `Solver::ALL` covers every algorithm generically.
        for solver in Solver::ALL.into_iter().filter(|s| s.supports(&tree)) {
            let result = solver.solve(&tree);
            assert_eq!(
                result.peak,
                result.traversal.peak_memory(&tree).unwrap(),
                "seed {seed}, solver {}",
                solver.name()
            );
        }
        // Traversals are feasible with exactly their peak and infeasible with
        // one unit less.
        let mm = min_mem(&tree);
        assert!(
            mm.traversal.check_in_core(&tree, mm.peak).is_ok(),
            "seed {seed}"
        );
        assert!(
            mm.traversal.check_in_core(&tree, mm.peak - 1).is_err(),
            "seed {seed}"
        );
    }
}

#[test]
fn reversal_preserves_the_peak() {
    for seed in 400..496 {
        let tree = arbitrary_tree(seed, 60, 500, 20);
        // In-tree <-> out-tree equivalence (Section III-C): reversing a valid
        // top-down traversal gives a bottom-up traversal with the same peak.
        let mm = min_mem(&tree);
        let reversed = mm.traversal.reversed();
        assert_eq!(
            bottom_up_peak(&tree, &reversed).unwrap(),
            mm.peak,
            "seed {seed}"
        );
    }
}

#[test]
fn replacement_model_is_consistent() {
    for seed in 500..596 {
        let tree = arbitrary_tree(seed, 40, 200, 0);
        // Applying the replacement transformation can only lower MemReq
        // (max(f, out) <= f + out), hence also the optimum.
        let converted = from_replacement_model(&tree);
        let original = min_mem(&tree).peak;
        let replaced = min_mem(&converted).peak;
        assert!(replaced <= original, "seed {seed}");
        assert!(replaced >= converted.max_mem_req(), "seed {seed}");
    }
}

#[test]
fn postorder_subtree_peaks_are_monotone() {
    for seed in 600..696 {
        let tree = arbitrary_tree(seed, 60, 500, 20);
        // The postorder peak of a subtree is at least the peak of each child
        // subtree (processing the child is part of processing the parent).
        let po = best_postorder(&tree);
        for i in tree.nodes() {
            for &c in tree.children(i) {
                assert!(po.subtree_peaks[i] >= po.subtree_peaks[c], "seed {seed}");
            }
        }
    }
}
