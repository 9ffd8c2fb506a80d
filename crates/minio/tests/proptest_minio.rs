//! Property-based tests for the out-of-core scheduler and the eviction
//! policies.
//!
//! The environment is offline, so instead of `proptest` these tests draw a
//! deterministic battery of random instances from the `prng` crate: every
//! case is reproducible from its seed, printed in assertion messages.
//!
//! For random trees, random traversals produced by the MinMemory algorithms
//! and memory sizes swept between the trivial lower bound and the traversal
//! peak, **every policy** — the six paper heuristics and the
//! cache-inspired ones alike — must produce a schedule that
//!
//! * validates under the independent Algorithm-2 checker with the same I/O
//!   volume,
//! * never exceeds the memory budget,
//! * performs no I/O when the memory is at least the traversal peak, and
//! * never beats the divisible lower bound.

use prng::{Rng, StdRng};

use minio::{check_out_of_core, divisible_lower_bound, schedule_io_with, Policy};
use treemem::minmem::min_mem;
use treemem::postorder::best_postorder;
use treemem::tree::{Size, Tree};

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
fn schedules_validate_and_respect_memory_for_every_registered_policy() {
    for seed in 0..64 {
        let tree = arbitrary_tree(seed, 40, 100, 10);
        let po = best_postorder(&tree);
        let lower = tree.max_mem_req();
        let upper = po.peak;
        let fraction = (seed % 5) as f64 / 4.0;
        let memory = lower + ((upper - lower) as f64 * fraction) as Size;
        let bound = divisible_lower_bound(&tree, &po.traversal, memory).unwrap();
        for policy in Policy::ALL {
            let name = policy.name();
            let run = schedule_io_with(&tree, &po.traversal, memory, policy).unwrap();
            assert!(run.peak_memory <= memory, "seed {seed}, {name}");
            let check = check_out_of_core(&tree, &po.traversal, &run.schedule, memory).unwrap();
            assert_eq!(check.io_volume, run.io_volume, "seed {seed}, {name}");
            assert!(check.peak_memory <= memory, "seed {seed}, {name}");
            assert!(
                bound <= run.io_volume,
                "seed {seed}, {name}: bound {bound} > io {}",
                run.io_volume
            );
            assert_eq!(run.read_volume, run.io_volume, "seed {seed}, {name}");
        }
    }
}

#[test]
fn no_io_at_or_above_the_peak_for_every_registered_policy() {
    for seed in 100..164 {
        let tree = arbitrary_tree(seed, 40, 100, 10);
        for result in [best_postorder(&tree).traversal, min_mem(&tree).traversal] {
            let peak = result.peak_memory(&tree).unwrap();
            for policy in Policy::ALL {
                let run = schedule_io_with(&tree, &result, peak, policy).unwrap();
                assert_eq!(run.io_volume, 0, "seed {seed}, {}", policy.name());
                assert_eq!(run.files_written, 0, "seed {seed}, {}", policy.name());
                assert_eq!(run.peak_memory, peak, "seed {seed}, {}", policy.name());
            }
            assert_eq!(
                divisible_lower_bound(&tree, &result, peak).unwrap(),
                0,
                "seed {seed}"
            );
        }
    }
}

#[test]
fn io_decreases_with_more_memory() {
    for seed in 200..264 {
        let tree = arbitrary_tree(seed, 40, 100, 10);
        // The divisible lower bound is monotone in the memory size; the
        // policies are not guaranteed to be, but the bound must be.
        let po = best_postorder(&tree);
        let lower = tree.max_mem_req();
        let upper = po.peak;
        let mut previous = Size::MAX;
        for step in 0..=4 {
            let memory = lower + (upper - lower) * step / 4;
            let bound = divisible_lower_bound(&tree, &po.traversal, memory).unwrap();
            assert!(
                bound <= previous,
                "seed {seed}: divisible bound must not increase"
            );
            previous = bound;
        }
    }
}

#[test]
fn min_mem_traversals_also_schedule() {
    for seed in 300..364 {
        let tree = arbitrary_tree(seed, 30, 50, 5);
        let opt = min_mem(&tree);
        let lower = tree.max_mem_req();
        let memory = (lower + opt.peak) / 2;
        for policy in Policy::ALL {
            let run = schedule_io_with(&tree, &opt.traversal, memory, policy).unwrap();
            let check = check_out_of_core(&tree, &opt.traversal, &run.schedule, memory).unwrap();
            assert_eq!(
                check.io_volume,
                run.io_volume,
                "seed {seed}, {}",
                policy.name()
            );
        }
    }
}
