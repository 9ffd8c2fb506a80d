//! Regression tests for very deep and very large trees.
//!
//! The exact solvers used to recurse along the height of the tree, which
//! overflowed the (2 MiB) test-thread stack on chain-like inputs well below
//! the 10⁵-node scale of real nested-dissection assembly trees.  These tests
//! run every solver on a 100 000-node chain and a 50 000-node random tree on
//! a plain test thread — no big-stack helper — so any reintroduction of
//! height-deep recursion (or of the quadratic traversal-concatenation the
//! iterative rewrite removed) shows up as an overflow or a timeout here.
//! The ignored test repeats it at 10⁶ nodes in release, for CI's bounded
//! step.

use treemem::gadgets::harpoon_tower;
use treemem::liu::liu_exact;
use treemem::minmem::min_mem;
use treemem::postorder::{best_postorder, natural_postorder};
use treemem::random::{comb, nested_dissection_etree, random_attachment_tree, random_chain};

#[test]
fn all_solvers_handle_a_100k_node_chain() {
    let tree = random_chain(100_000, 100, 0xdeec);
    assert_eq!(tree.height(), 99_999);

    let natural = natural_postorder(&tree);
    let best = best_postorder(&tree);
    let liu = liu_exact(&tree);
    let opt = min_mem(&tree);

    // A chain has a unique traversal: every solver must agree, and the peak
    // is the largest single-node requirement.
    let expected = tree.max_mem_req();
    assert_eq!(natural.peak, expected);
    assert_eq!(best.peak, expected);
    assert_eq!(liu.peak, expected);
    assert_eq!(opt.peak, expected);

    assert_eq!(opt.traversal.len(), tree.len());
    assert_eq!(liu.traversal.len(), tree.len());
    assert!(opt.traversal.check_in_core(&tree, opt.peak).is_ok());
}

#[test]
fn all_solvers_agree_on_a_50k_node_random_tree() {
    let tree = random_attachment_tree(50_000, 1000, 20, 0xdeec);

    let natural = natural_postorder(&tree);
    let best = best_postorder(&tree);
    let liu = liu_exact(&tree);
    let opt = min_mem(&tree);

    // The two exact solvers must agree; no postorder may beat them.
    assert_eq!(liu.peak, opt.peak, "Liu and MinMem disagree");
    assert!(best.peak >= opt.peak);
    assert!(natural.peak >= best.peak);

    // Every produced traversal is feasible at its reported peak.
    for (label, traversal, peak) in [
        ("natural", &natural.traversal, natural.peak),
        ("postorder", &best.traversal, best.peak),
        ("liu", &liu.traversal, liu.peak),
        ("minmem", &opt.traversal, opt.peak),
    ] {
        assert_eq!(
            traversal.peak_memory(&tree).unwrap(),
            peak,
            "{label} peak mismatch"
        );
    }
}

#[test]
fn explore_survives_a_deep_chain_with_insufficient_memory() {
    // MinMem on a chain that needs several Explore restarts: the saved cut /
    // traversal state must round-trip through the iterative driver.
    let tree = random_chain(100_000, 1_000_000, 7);
    let opt = min_mem(&tree);
    assert_eq!(opt.peak, tree.max_mem_req());
    assert!(opt.iterations >= 1);
}

/// Both postorders, Liu and MinMem on a 10⁶-node chain, comb and
/// nested-dissection tree and an 8·10⁵-node harpoon tower: MinMem is linear
/// on all four (one restart, eleven on the tower).  Every reported peak is
/// its traversal's, the exact solvers agree, and no postorder beats them.
/// CI runs it in release under `timeout 60`; a solver that is quadratic on
/// one of these shapes times out.
#[test]
#[ignore = "10⁶ nodes: run with --release -- --ignored"]
fn every_solver_handles_million_node_trees() {
    for (name, tree) in [
        ("chain", random_chain(1_000_000, 100, 1)),
        ("comb", comb(500_000, 1_000, 2)),
        ("nd", nested_dissection_etree(1_000_000, 3)),
        ("tower", harpoon_tower(3, 300, 1, 11)),
    ] {
        let natural = natural_postorder(&tree);
        let best = best_postorder(&tree);
        let liu = liu_exact(&tree);
        let opt = min_mem(&tree);
        for (label, traversal, peak) in [
            ("natural", &natural.traversal, natural.peak),
            ("postorder", &best.traversal, best.peak),
            ("liu", &liu.traversal, liu.peak),
            ("minmem", &opt.traversal, opt.peak),
        ] {
            assert_eq!(traversal.peak_memory(&tree), Ok(peak), "{label} on {name}");
        }
        assert_eq!(liu.peak, opt.peak, "{name}");
        assert!(natural.peak >= best.peak && best.peak >= liu.peak, "{name}");
    }
}
