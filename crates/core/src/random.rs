//! Random tree generation and re-weighting.
//!
//! Two kinds of randomness are needed by the experiments:
//!
//! * random **topologies** ([`random_attachment_tree`], [`random_kary_tree`],
//!   [`caterpillar`], [`spider`]) used by the unit and property tests of the
//!   algorithms;
//! * random **weights on an existing topology** ([`reweight_uniform`],
//!   [`reweight_paper`]) — Section VI-E of the paper keeps the structure of
//!   every assembly tree and draws the node weights uniformly in
//!   `[1, N/500]` and the edge weights uniformly in `[1, N]`, where `N` is
//!   the number of nodes.
//!
//! All generators take an explicit seed so experiments are reproducible.

use prng::{Rng, StdRng};

use crate::tree::{Size, Tree, TreeBuilder};

/// Generate a random tree by *random attachment*: node `i` picks its parent
/// uniformly among the nodes `0..i`.  Input files are drawn uniformly in
/// `[1, max_file]` and execution files in `[0, max_exec]`.
///
/// # Panics
/// Panics if `num_nodes == 0` or `max_file == 0`.
pub fn random_attachment_tree(num_nodes: usize, max_file: Size, max_exec: Size, seed: u64) -> Tree {
    assert!(num_nodes > 0, "tree must have at least one node");
    assert!(max_file > 0, "maximum file size must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = TreeBuilder::with_capacity(num_nodes);
    builder.add_root(
        rng.gen_range(1..=max_file),
        rng.gen_range(0..=max_exec.max(0)),
    );
    for i in 1..num_nodes {
        let parent = rng.gen_range(0..i);
        builder.add_child(
            parent,
            rng.gen_range(1..=max_file),
            rng.gen_range(0..=max_exec.max(0)),
        );
    }
    builder
        .build()
        .expect("random attachment always builds a valid tree")
}

/// Generate a random tree in which every node has at most `max_children`
/// children: node `i` retries a uniformly random parent until one with a free
/// slot is found (the root always accepts as a fallback, so the bound may be
/// exceeded by the root only when every other node is full).
pub fn random_bounded_degree_tree(
    num_nodes: usize,
    max_children: usize,
    max_file: Size,
    max_exec: Size,
    seed: u64,
) -> Tree {
    assert!(num_nodes > 0 && max_children > 0 && max_file > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = TreeBuilder::with_capacity(num_nodes);
    let mut child_count = vec![0usize; num_nodes];
    builder.add_root(
        rng.gen_range(1..=max_file),
        rng.gen_range(0..=max_exec.max(0)),
    );
    for i in 1..num_nodes {
        let mut parent = rng.gen_range(0..i);
        let mut attempts = 0;
        while child_count[parent] >= max_children && attempts < 4 * i {
            parent = rng.gen_range(0..i);
            attempts += 1;
        }
        if child_count[parent] >= max_children {
            // Fall back deterministically to the first node with a free slot,
            // or to the root when all are full.
            parent = (0..i).find(|&p| child_count[p] < max_children).unwrap_or(0);
        }
        child_count[parent] += 1;
        builder.add_child(
            parent,
            rng.gen_range(1..=max_file),
            rng.gen_range(0..=max_exec.max(0)),
        );
    }
    builder
        .build()
        .expect("bounded-degree construction always builds a valid tree")
}

/// Complete `k`-ary tree of the given `depth` (depth 0 is a single node),
/// with constant weights.
pub fn random_kary_tree(
    depth: usize,
    arity: usize,
    max_file: Size,
    max_exec: Size,
    seed: u64,
) -> Tree {
    assert!(arity > 0 && max_file > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = TreeBuilder::new();
    let root = builder.add_root(
        rng.gen_range(1..=max_file),
        rng.gen_range(0..=max_exec.max(0)),
    );
    let mut frontier = vec![root];
    for _ in 0..depth {
        let mut next = Vec::with_capacity(frontier.len() * arity);
        for &node in &frontier {
            for _ in 0..arity {
                next.push(builder.add_child(
                    node,
                    rng.gen_range(1..=max_file),
                    rng.gen_range(0..=max_exec.max(0)),
                ));
            }
        }
        frontier = next;
    }
    builder
        .build()
        .expect("k-ary construction always builds a valid tree")
}

/// A caterpillar: a spine of `spine_length` nodes, each with `legs` leaf
/// children, random weights.
pub fn caterpillar(spine_length: usize, legs: usize, max_file: Size, seed: u64) -> Tree {
    assert!(spine_length > 0 && max_file > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = TreeBuilder::new();
    let mut spine = builder.add_root(rng.gen_range(1..=max_file), 0);
    for _ in 0..legs {
        builder.add_child(spine, rng.gen_range(1..=max_file), 0);
    }
    for _ in 1..spine_length {
        spine = builder.add_child(spine, rng.gen_range(1..=max_file), 0);
        for _ in 0..legs {
            builder.add_child(spine, rng.gen_range(1..=max_file), 0);
        }
    }
    builder
        .build()
        .expect("caterpillar construction always builds a valid tree")
}

/// A spider: `legs` chains of length `leg_length` attached to the root,
/// random weights.
pub fn spider(legs: usize, leg_length: usize, max_file: Size, seed: u64) -> Tree {
    assert!(legs > 0 && leg_length > 0 && max_file > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = TreeBuilder::new();
    let root = builder.add_root(rng.gen_range(1..=max_file), 0);
    for _ in 0..legs {
        let mut prev = root;
        for _ in 0..leg_length {
            prev = builder.add_child(prev, rng.gen_range(1..=max_file), 0);
        }
    }
    builder
        .build()
        .expect("spider construction always builds a valid tree")
}

/// A chain of `length` nodes with input files drawn uniformly in
/// `[1, max_file]` and zero execution files — the degenerate tree shape that
/// RCM and natural orderings produce, and the canonical stress test for
/// recursion depth (its height is `length − 1`).
pub fn random_chain(length: usize, max_file: Size, seed: u64) -> Tree {
    assert!(length > 0 && max_file > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = TreeBuilder::with_capacity(length);
    let mut prev = builder.add_root(rng.gen_range(1..=max_file), 0);
    for _ in 1..length {
        prev = builder.add_child(prev, rng.gen_range(1..=max_file), 0);
    }
    builder
        .build()
        .expect("chain construction always builds a valid tree")
}

/// A *comb*: a spine of `spine_length` nodes where each spine node has one
/// leaf child stored **after** the next spine node.  The natural (stored
/// child order) postorder therefore descends the whole spine first and only
/// then consumes the leaves, so the leaf files — drawn uniformly in
/// `[1, max_leaf_file]` — accumulate in memory on the way down.  Running
/// that traversal with a memory budget below its peak produces one eviction
/// deficit per spine step, which makes the comb the canonical stress test
/// for the out-of-core simulator.
pub fn comb(spine_length: usize, max_leaf_file: Size, seed: u64) -> Tree {
    assert!(spine_length > 0 && max_leaf_file > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = TreeBuilder::with_capacity(2 * spine_length + 1);
    let mut spine = builder.add_root(1, 0);
    for _ in 0..spine_length {
        let next = builder.add_child(spine, 1, 0);
        builder.add_child(spine, rng.gen_range(1..=max_leaf_file), 0);
        spine = next;
    }
    builder
        .build()
        .expect("comb construction always builds a valid tree")
}

/// A synthetic nested-dissection elimination tree with exactly `num_nodes`
/// nodes: the shape a 2D nested-dissection ordering produces on a mesh,
/// without running a symbolic pipeline.  A region of `m` vertices
/// contributes a separator *chain* of `⌈√m⌉` nodes at the top of its
/// subtree, below which the two halves of the region recurse; input files
/// are proportional to the separator width (plus jitter), so the large
/// frontal matrices sit near the root exactly as in real assembly trees.
pub fn nested_dissection_etree(num_nodes: usize, seed: u64) -> Tree {
    assert!(num_nodes > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = TreeBuilder::with_capacity(num_nodes);

    // Weight of a node belonging to a separator of `width` vertices.
    let mut node_file = |width: usize| -> Size {
        let base = width as Size;
        base + rng.gen_range(0..=base.max(1))
    };

    let root_width = (num_nodes as f64).sqrt().ceil() as usize;
    let root = builder.add_root(node_file(root_width), 1);

    // Explicit work stack (region size, attachment node); the halving depth
    // is logarithmic but there is no reason to recurse at all.
    let mut work: Vec<(usize, crate::tree::NodeId)> = Vec::new();
    let mut remaining = num_nodes - 1;
    // The root already consumed one separator vertex; the rest of the root
    // separator continues as a chain below it.
    let mut top = root;
    let sep_rest = root_width.saturating_sub(1).min(remaining);
    for _ in 0..sep_rest {
        top = builder.add_child(top, node_file(root_width), 1);
    }
    remaining -= sep_rest;
    let half = remaining / 2;
    work.push((remaining - half, top));
    work.push((half, top));

    while let Some((m, attach)) = work.pop() {
        if m == 0 {
            continue;
        }
        let sep = ((m as f64).sqrt().ceil() as usize).clamp(1, m);
        let mut bottom = attach;
        for _ in 0..sep {
            bottom = builder.add_child(bottom, node_file(sep), 1);
        }
        let rest = m - sep;
        let half = rest / 2;
        work.push((rest - half, bottom));
        work.push((half, bottom));
    }

    let tree = builder
        .build()
        .expect("nested-dissection construction always builds a valid tree");
    debug_assert_eq!(tree.len(), num_nodes);
    tree
}

/// Re-weight an existing topology with uniformly random weights: input files
/// in `[1, max_file]`, execution files in `[0, max_exec]`.
pub fn reweight_uniform(tree: &Tree, max_file: Size, max_exec: Size, seed: u64) -> Tree {
    assert!(max_file > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let files: Vec<Size> = tree.nodes().map(|_| rng.gen_range(1..=max_file)).collect();
    let weights: Vec<Size> = tree
        .nodes()
        .map(|_| rng.gen_range(0..=max_exec.max(0)))
        .collect();
    tree.with_weights(files, weights)
}

/// The random re-weighting of Section VI-E of the paper: keep the tree
/// structure, draw execution files uniformly in `[1, N/500]` and input files
/// uniformly in `[1, N]`, where `N` is the number of nodes (both ranges are
/// clamped to be at least `[1, 1]` for very small trees).
pub fn reweight_paper(tree: &Tree, seed: u64) -> Tree {
    let n = tree.len() as Size;
    let max_exec = (n / 500).max(1);
    let max_file = n.max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let files: Vec<Size> = tree.nodes().map(|_| rng.gen_range(1..=max_file)).collect();
    let weights: Vec<Size> = tree.nodes().map(|_| rng.gen_range(1..=max_exec)).collect();
    tree.with_weights(files, weights)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_attachment_is_reproducible_and_valid() {
        let a = random_attachment_tree(50, 100, 10, 42);
        let b = random_attachment_tree(50, 100, 10, 42);
        let c = random_attachment_tree(50, 100, 10, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 50);
        assert!(a.files().iter().all(|&f| (1..=100).contains(&f)));
        assert!(a.weights().iter().all(|&n| (0..=10).contains(&n)));
    }

    #[test]
    fn bounded_degree_respects_the_bound() {
        let tree = random_bounded_degree_tree(200, 3, 50, 5, 7);
        assert_eq!(tree.len(), 200);
        for i in tree.nodes() {
            if i != tree.root() {
                assert!(
                    tree.children(i).len() <= 3,
                    "node {i} has too many children"
                );
            }
        }
    }

    #[test]
    fn kary_tree_has_expected_size() {
        let tree = random_kary_tree(3, 2, 10, 0, 1);
        assert_eq!(tree.len(), 1 + 2 + 4 + 8);
        assert_eq!(tree.height(), 3);
        assert_eq!(tree.max_degree(), 2);
    }

    #[test]
    fn caterpillar_and_spider_shapes() {
        let cat = caterpillar(5, 3, 10, 0);
        assert_eq!(cat.len(), 5 * 4);
        assert_eq!(cat.leaf_count(), 5 * 3); // every leg is a leaf, every spine node has children
        let sp = spider(4, 3, 10, 0);
        assert_eq!(sp.len(), 1 + 4 * 3);
        assert_eq!(sp.children(sp.root()).len(), 4);
        assert_eq!(sp.height(), 3);
    }

    #[test]
    fn random_chain_shape() {
        let tree = random_chain(500, 40, 9);
        assert_eq!(tree.len(), 500);
        assert_eq!(tree.height(), 499);
        assert_eq!(tree.leaf_count(), 1);
        assert!(tree.files().iter().all(|&f| (1..=40).contains(&f)));
        assert_eq!(tree, random_chain(500, 40, 9));
    }

    #[test]
    fn comb_stores_the_leaf_after_the_spine_child() {
        let tree = comb(50, 30, 2);
        assert_eq!(tree.len(), 101);
        // Every spine node: first child continues the spine, second is a leaf.
        let mut spine = tree.root();
        for _ in 0..50 {
            let kids = tree.children(spine);
            assert_eq!(kids.len(), 2);
            assert!(tree.is_leaf(kids[1] as usize));
            spine = kids[0] as usize;
        }
        assert!(tree.is_leaf(spine));
    }

    #[test]
    fn nested_dissection_etree_has_exact_size_and_shallow_height() {
        for n in [1usize, 2, 10, 1000, 20_000] {
            let tree = nested_dissection_etree(n, 5);
            assert_eq!(tree.len(), n);
            assert!(tree.files().iter().all(|&f| f >= 1));
            if n >= 1000 {
                // Separator chains make the height Θ(√n), far below n.
                assert!(tree.height() < n / 4, "n={n} height={}", tree.height());
            }
        }
        assert_eq!(
            nested_dissection_etree(5000, 7),
            nested_dissection_etree(5000, 7)
        );
    }

    #[test]
    fn reweighting_keeps_the_topology() {
        let tree = random_attachment_tree(80, 100, 10, 3);
        let reweighted = reweight_paper(&tree, 11);
        assert!(reweighted.parents().eq(tree.parents()));
        let n = tree.len() as Size;
        assert!(reweighted.files().iter().all(|&f| f >= 1 && f <= n));
        assert!(reweighted
            .weights()
            .iter()
            .all(|&w| w >= 1 && w <= (n / 500).max(1)));
        // Different seeds give different weights.
        assert_ne!(reweight_paper(&tree, 11), reweight_paper(&tree, 12));
    }

    #[test]
    fn reweight_uniform_ranges() {
        let tree = spider(3, 3, 10, 0);
        let reweighted = reweight_uniform(&tree, 7, 2, 5);
        assert!(reweighted.files().iter().all(|&f| (1..=7).contains(&f)));
        assert!(reweighted.weights().iter().all(|&w| (0..=2).contains(&w)));
    }
}
