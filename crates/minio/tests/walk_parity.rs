//! Where the simulator's lazy resident set is built, against the seed's
//! scan-and-sort simulator, for every policy: a first deficit
//! at step 1, no deficit at all, one deficit at step p − 2, and
//! `InsufficientMemory` before and after the set was built.  The last test
//! hands the deficit-free prefix scan over at every budget of seeded trees.
//!
//! A deficit at step 0 or at the last step cannot be covered — only the
//! executing node's own file is resident then — so it is an
//! `InsufficientMemory`; steps 1 and p − 2 are the first and last steps
//! with an evictable file.

mod common;

use common::schedule_io_naive;
use minio::{schedule_io_with, MinIoError, Policy, Walk};
use prng::{Rng, StdRng};
use treemem::liu::liu_exact;
use treemem::postorder::{best_postorder, natural_postorder};
use treemem::random::{comb, nested_dissection_etree};
use treemem::traversal::Traversal;
use treemem::tree::{NodeId, Size, Tree, TreeBuilder};

/// Root (0, 0) with a heavy first child (10, 300) and `leaves` light
/// leaves after it; `last_leaf_n` is the last leaf's execution file.  At
/// max MemReq the root fits and its first child does not.
fn fan(leaves: usize, last_leaf_n: Size) -> Tree {
    let mut b = TreeBuilder::new();
    let r = b.add_root(0, 0);
    b.add_child(r, 10, 300);
    for i in 0..leaves {
        let n = if i + 1 == leaves { last_leaf_n } else { 0 };
        b.add_child(r, 1 + (i as Size * 7) % 13, n);
    }
    b.build().unwrap()
}

/// Root (0, 0), a chain of `chain` unit files whose last node needs 400,
/// and a leaf of size 50 stored (and run) last: the only deficit is at the
/// chain's end, step p − 2, and its one candidate is at position p − 1.
fn chain_then_leaf(chain: usize) -> Tree {
    let mut b = TreeBuilder::new();
    let r = b.add_root(0, 0);
    let mut parent = r;
    for i in 0..chain {
        parent = b.add_child(parent, 1, if i + 1 == chain { 400 } else { 0 });
    }
    b.add_child(r, 50, 0);
    b.build().unwrap()
}

/// The traversal in node-id order.
fn natural(tree: &Tree) -> Traversal {
    Traversal::new(tree.nodes().collect())
}

/// The steps that run short before anything is evicted.
fn deficit_steps(tree: &Tree, traversal: &Traversal, memory: Size) -> Vec<usize> {
    let profile = traversal.memory_profile(tree).unwrap();
    let steps = profile.steps.iter().enumerate();
    steps
        .filter(|(_, s)| s.during > memory)
        .map(|(step, _)| step)
        .collect()
}

/// Every policy through the free function and through a shared
/// [`Walk`] agrees with the oracle: the same run, or the same error.
/// Returns the LSNF run's files written, or the error.
fn agree(tree: &Tree, traversal: &Traversal, memory: Size) -> Result<usize, MinIoError> {
    let walk = Walk::new(tree, traversal).unwrap();
    let mut lsnf = None;
    for policy in Policy::ALL {
        let name = policy.name();
        let oracle = schedule_io_naive(tree, traversal, memory, policy);
        let shared = walk
            .schedule_io(tree, traversal, memory, policy, None)
            .map(|run| run.expect("no stop probe"));
        for run in [schedule_io_with(tree, traversal, memory, policy), shared] {
            match (&run, &oracle) {
                (Ok(run), Ok(oracle)) => {
                    assert_eq!(run.io_volume, oracle.io_volume, "{name}");
                    assert_eq!(run.files_written, oracle.files_written, "{name}");
                    assert_eq!(run.peak_memory, oracle.peak_memory, "{name}");
                    assert_eq!(run.schedule, oracle.schedule, "{name}");
                }
                (Err(err), Err(expected)) => assert_eq!(err, expected, "{name}"),
                _ => panic!("{name}: {:?} vs oracle {:?}", run.is_ok(), oracle.is_ok()),
            }
        }
        if name == "LSNF" {
            lsnf = Some(oracle.map(|run| run.files_written));
        }
    }
    lsnf.expect("LSNF is registered")
}

#[test]
fn a_first_deficit_at_step_one() {
    let tree = fan(100, 0);
    let traversal = natural(&tree);
    let memory = tree.max_mem_req();
    assert_eq!(deficit_steps(&tree, &traversal, memory).first(), Some(&1));
    assert!(agree(&tree, &traversal, memory).unwrap() > 0);
}

#[test]
fn a_walk_without_a_deficit_writes_nothing() {
    let tree = nested_dissection_etree(5_000, 3);
    let po = best_postorder(&tree);
    assert!(deficit_steps(&tree, &po.traversal, po.peak).is_empty());
    assert_eq!(agree(&tree, &po.traversal, po.peak), Ok(0));
    let run = schedule_io_with(&tree, &po.traversal, po.peak, Policy::Lsnf);
    let run = run.unwrap();
    assert_eq!(run.peak_memory, po.traversal.peak_memory(&tree).unwrap());
    assert_eq!(run.peak_memory, po.peak);
}

#[test]
fn a_deficit_at_the_last_step_with_a_candidate() {
    // 4 097 nodes: the evicted file's position, 4 096, opens a new word on
    // both of the bit tree's lower levels.
    let tree = chain_then_leaf(4095);
    let traversal = natural(&tree);
    let memory = tree.max_mem_req();
    assert_eq!(deficit_steps(&tree, &traversal, memory), [tree.len() - 2]);
    assert_eq!(agree(&tree, &traversal, memory), Ok(1));
}

#[test]
fn insufficient_memory_names_the_oracle_node() {
    let cases: [(Tree, Size, NodeId); 2] = [
        // At step 0, before any deficit: the root's own requirement.
        (fan(100, 0), fan(100, 0).max_mem_req() - 1, 0),
        // After the set was built at step 1: the last leaf.
        (fan(100, 1_000), fan(100, 0).max_mem_req(), 101),
    ];
    for (tree, memory, node) in cases {
        let traversal = natural(&tree);
        let err = agree(&tree, &traversal, memory).unwrap_err();
        assert!(
            matches!(err, MinIoError::InsufficientMemory { node: n, .. } if n == node),
            "{err:?}"
        );
    }
}

/// The prefix scan runs when every `MemReq` fits and hands over at the
/// first deficit; below max `MemReq` the general loop runs from step 0.
/// Every policy equals the oracle at `max MemReq − 1` (the same
/// `InsufficientMemory` node), at `max MemReq`, at the midpoint and at the
/// traversal's peak, on seeded trees with zero-size files (best postorder
/// and Liu traversals) and on a comb and a nested-dissection tree.
#[test]
fn the_prefix_scan_hands_over_at_every_budget() {
    let budgets = |tree: &Tree, peak: Size| {
        let lower = tree.max_mem_req();
        [lower - 1, lower, (lower + peak) / 2, peak]
    };
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(2..=60usize);
        let parents: Vec<Option<usize>> = (0..n)
            .map(|i| (i > 0).then(|| rng.gen_range(0..i)))
            .collect();
        let files: Vec<Size> = (0..n).map(|_| rng.gen_range(0..=50 as Size)).collect();
        let execs: Vec<Size> = (0..n).map(|_| rng.gen_range(0..=10 as Size)).collect();
        let tree = Tree::from_parents(&parents, &files, &execs).unwrap();
        let (po, liu) = (best_postorder(&tree), liu_exact(&tree));
        for (traversal, peak) in [(&po.traversal, po.peak), (&liu.traversal, liu.peak)] {
            for memory in budgets(&tree, peak) {
                let lsnf = agree(&tree, traversal, memory);
                if memory < tree.max_mem_req() {
                    assert!(matches!(lsnf, Err(MinIoError::InsufficientMemory { .. })));
                }
            }
        }
    }
    for tree in [comb(1_000, 50, 5), nested_dissection_etree(2_000, 5)] {
        let natural = natural_postorder(&tree);
        for memory in budgets(&tree, natural.peak) {
            agree(&tree, &natural.traversal, memory).ok();
        }
    }
}
