//! Deep/large-tree regression tests for the out-of-core simulator: the
//! incremental candidate set must handle 10⁵-node runs on a plain (2 MiB)
//! test thread, stay bit-identical to the retained naive scan, and validate
//! through the independent Algorithm 2 checker.  Two ignored tests run
//! every policy and the bound on 10⁶-node trees; CI runs them in release
//! under a time limit.

mod common;

use common::schedule_io_naive;
use minio::policy::paper::Lsnf;
use minio::{check_out_of_core, schedule_io_with, PolicyRegistry, Walk};
use treemem::minmem::min_mem;
use treemem::postorder::{best_postorder, natural_postorder};
use treemem::random::{comb, nested_dissection_etree, random_attachment_tree, random_chain};
use treemem::traversal::Traversal;
use treemem::tree::{Size, Tree};

#[test]
fn simulator_handles_a_100k_node_chain() {
    let tree = random_chain(100_000, 100, 0xdeec);
    let po = best_postorder(&tree);
    // A chain's unique traversal peaks at max MemReq, so the tightest
    // feasible budget needs no I/O at all.
    let run = schedule_io_with(&tree, &po.traversal, tree.max_mem_req(), &Lsnf).unwrap();
    assert_eq!(run.io_volume, 0);
    assert_eq!(run.files_written, 0);
    assert_eq!(run.peak_memory, po.peak);
}

#[test]
fn simulator_handles_a_50k_node_random_tree_below_its_peak() {
    let tree = random_attachment_tree(50_000, 1000, 20, 0xdeec);
    // The natural postorder of a random attachment tree peaks far above the
    // optimal traversal, so a budget halfway between the optimum and the
    // natural peak forces genuine evictions.
    let po = natural_postorder(&tree);
    let opt = min_mem(&tree);
    assert!(opt.peak < po.peak);
    let memory = opt.peak + (po.peak - opt.peak) / 2;
    let run = schedule_io_with(&tree, &po.traversal, memory, &Lsnf).unwrap();
    assert!(run.io_volume > 0, "the budget must force evictions");
    assert!(run.peak_memory <= memory);
    // Independent re-validation through the Algorithm 2 checker.
    let check = check_out_of_core(&tree, &po.traversal, &run.schedule, memory).unwrap();
    assert_eq!(check.io_volume, run.io_volume);
}

/// Every registered policy and the divisible bound on a 10⁶-node tree at
/// `memory`, each schedule accepted by the Algorithm 2 checker.  Run in
/// release, as CI's bounded-time scale step does.
fn every_walk_at_scale(tree: &Tree, traversal: &Traversal, memory: Size) {
    let walk = Walk::new(tree, traversal).unwrap();
    let bound = walk
        .divisible_bound(tree, traversal, memory, None)
        .unwrap()
        .expect("no stop probe");
    for policy in PolicyRegistry::with_builtin().iter() {
        let run = walk
            .schedule_io(tree, traversal, memory, policy, None)
            .unwrap()
            .expect("no stop probe");
        let check = check_out_of_core(tree, traversal, &run.schedule, memory).unwrap();
        assert_eq!(check.io_volume, run.io_volume, "{}", policy.name());
        assert!(run.peak_memory <= memory, "{}", policy.name());
        assert!(run.io_volume >= bound, "{}", policy.name());
    }
}

#[test]
#[ignore = "10⁶ nodes: run with --release -- --ignored"]
fn every_walk_handles_a_million_node_comb() {
    let tree = comb(500_000, 1_000, 0xc0b);
    assert!(tree.len() >= 1_000_000);
    let po = natural_postorder(&tree);
    // The tightest budget: one deficit per spine step.
    every_walk_at_scale(&tree, &po.traversal, tree.max_mem_req());
}

#[test]
#[ignore = "10⁶ nodes: run with --release -- --ignored"]
fn every_walk_handles_a_million_node_nested_dissection_tree() {
    let tree = nested_dissection_etree(1_000_000, 0xd15);
    let po = natural_postorder(&tree);
    let lower = tree.max_mem_req();
    for memory in [lower, lower + (po.peak - lower) / 4] {
        every_walk_at_scale(&tree, &po.traversal, memory);
    }
}

#[test]
fn incremental_and_naive_agree_on_a_deep_comb() {
    // The comb's natural traversal runs one deficit per spine step at the
    // tightest budget: the worst case for candidate-set maintenance.
    let tree = comb(10_000, 50, 3);
    let po = natural_postorder(&tree);
    let memory = tree.max_mem_req();
    let incremental = schedule_io_with(&tree, &po.traversal, memory, &Lsnf).unwrap();
    let naive = schedule_io_naive(&tree, &po.traversal, memory, &Lsnf).unwrap();
    assert!(incremental.io_volume > 0);
    assert_eq!(incremental.io_volume, naive.io_volume);
    assert_eq!(incremental.schedule, naive.schedule);
    assert_eq!(incremental.peak_memory, naive.peak_memory);
}
