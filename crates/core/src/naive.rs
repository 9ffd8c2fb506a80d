//! Test-only oracles: best and natural postorder and Liu's exact algorithm
//! as they were written before the flat per-call buffers — a `Vec` of
//! child ids per node for the postorders, a `Vec` of segments per live
//! subtree and a fresh `Vec<Vec<_>>` at every branching node for Liu.  The
//! battery below asserts that the flat code returns the same traversals,
//! peaks, subtree peaks and segments, and that its buffers grow O(log p)
//! times per call.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::liu::{LiuResult, Segment};
use crate::postorder::PostOrderResult;
use crate::traversal::Traversal;
use crate::tree::{NodeId, Size, Tree};

/// Subtree peaks of the postorder that runs the children in `child_order`.
fn subtree_peaks_with_order(tree: &Tree, child_order: &[Vec<NodeId>]) -> Vec<Size> {
    let mut peak = vec![0 as Size; tree.len()];
    for &i in tree.dfs_bottomup().iter() {
        let mut best = tree.mem_req(i);
        // Files of the not-yet-processed siblings remain resident while a
        // child subtree is being traversed.
        let mut remaining: Size = child_order[i].iter().map(|&c| tree.f(c)).sum();
        for &c in &child_order[i] {
            remaining -= tree.f(c);
            best = best.max(peak[c] + remaining);
        }
        peak[i] = best;
    }
    peak
}

/// Generate the traversal corresponding to a per-node child processing order.
fn traversal_from_child_order(tree: &Tree, child_order: &[Vec<NodeId>]) -> Traversal {
    let mut order = Vec::with_capacity(tree.len());
    let mut stack = vec![tree.root()];
    while let Some(i) = stack.pop() {
        order.push(i);
        for &c in child_order[i].iter().rev() {
            stack.push(c);
        }
    }
    Traversal::new(order)
}

/// The best postorder as it was before the flat child orders.
pub(crate) fn best_postorder_naive(tree: &Tree) -> PostOrderResult {
    // Peaks are computed bottom-up; the processing order of the children of a
    // node only depends on quantities of their own subtrees, so a single
    // bottom-up pass both orders the children and computes the peaks.
    let mut peak = vec![0 as Size; tree.len()];
    let mut child_order: Vec<Vec<NodeId>> = vec![Vec::new(); tree.len()];
    for &i in tree.dfs_bottomup().iter() {
        let mut order: Vec<NodeId> = tree.children(i).iter().map(|&c| c as NodeId).collect();
        order.sort_by(|&a, &b| {
            let ka = peak[a] - tree.f(a);
            let kb = peak[b] - tree.f(b);
            ka.cmp(&kb)
                .then_with(|| peak[a].cmp(&peak[b]))
                .then_with(|| a.cmp(&b))
        });
        let mut best = tree.mem_req(i);
        let mut remaining: Size = order.iter().map(|&c| tree.f(c)).sum();
        for &c in &order {
            remaining -= tree.f(c);
            best = best.max(peak[c] + remaining);
        }
        peak[i] = best;
        child_order[i] = order;
    }
    let traversal = traversal_from_child_order(tree, &child_order);
    PostOrderResult {
        traversal,
        peak: peak[tree.root()],
        subtree_peaks: peak,
    }
}

/// The natural postorder as it was before the flat child orders.
pub(crate) fn natural_postorder_naive(tree: &Tree) -> PostOrderResult {
    let child_order: Vec<Vec<NodeId>> = tree
        .nodes()
        .map(|i| tree.children(i).iter().map(|&c| c as NodeId).collect())
        .collect();
    let peaks = subtree_peaks_with_order(tree, &child_order);
    let traversal = traversal_from_child_order(tree, &child_order);
    PostOrderResult {
        traversal,
        peak: peaks[tree.root()],
        subtree_peaks: peaks,
    }
}

/// Sentinel for "end of chain" in [`NodeArena`].
const NIL: usize = usize::MAX;

/// Arena-backed singly linked chains of node ids.  Every node of the tree is
/// appended exactly once over the whole run, and two chains concatenate in
/// O(1), which is what lets segment merges avoid copying node vectors.
#[derive(Debug, Default)]
struct NodeArena {
    /// `(node, next-entry-index)`; `NIL` terminates a chain.
    entries: Vec<(NodeId, usize)>,
}

impl NodeArena {
    fn with_capacity(capacity: usize) -> Self {
        NodeArena {
            entries: Vec::with_capacity(capacity),
        }
    }

    /// A one-node chain; returns its entry index (head == tail).
    fn singleton(&mut self, node: NodeId) -> usize {
        self.entries.push((node, NIL));
        self.entries.len() - 1
    }

    /// Append chain `(b_head, ..)` after chain `(.., a_tail)`.
    fn link(&mut self, a_tail: usize, b_head: usize) {
        self.entries[a_tail].1 = b_head;
    }

    /// Collect a chain into `out`, in order.
    fn collect_into(&self, head: usize, out: &mut Vec<NodeId>) {
        let mut cursor = head;
        while cursor != NIL {
            let (node, next) = self.entries[cursor];
            out.push(node);
            cursor = next;
        }
    }
}

/// Internal hill–valley segment: like [`Segment`] but the executed nodes are
/// an arena chain (`head`/`tail` entry indices) instead of an owned vector.
#[derive(Debug, Clone, Copy)]
struct Seg {
    hill: Size,
    valley: Size,
    head: usize,
    tail: usize,
}

impl Seg {
    fn key(&self) -> Size {
        self.hill - self.valley
    }
}

/// Append `segment` to `sequence`, merging segments as needed to restore the
/// normal form (valleys non-decreasing, `h − v` non-increasing).  Merging two
/// segments concatenates their node chains in O(1) through the arena.
fn push_normalized(sequence: &mut Vec<Seg>, segment: Seg, arena: &mut NodeArena) {
    sequence.push(segment);
    while sequence.len() >= 2 {
        let last = sequence[sequence.len() - 1];
        let prev = &sequence[sequence.len() - 2];
        let valley_violated = last.valley < prev.valley;
        let slope_violated = last.key() > prev.key();
        if !valley_violated && !slope_violated {
            break;
        }
        sequence.pop().expect("length checked");
        let prev = sequence.last_mut().expect("length checked");
        prev.hill = prev.hill.max(last.hill);
        prev.valley = last.valley;
        arena.link(prev.tail, last.head);
        prev.tail = last.tail;
    }
}

/// Compute the normal-form hill–valley sequence of the subtree rooted at
/// `node`, consuming the sequences of its children.
///
/// The children's sequences each have non-increasing keys `h − v` by
/// construction, so the global non-increasing order is obtained with a
/// k-way merge: a max-heap holds one cursor per child, keyed by the current
/// segment's key with ties broken by the smallest child index.  This is
/// exactly the order the previous stable sort produced (segments were
/// appended child by child, so equal keys kept ascending child index), but
/// costs `O(segments · log degree)` instead of a full re-sort.
fn combine(
    tree: &Tree,
    node: NodeId,
    own: Seg,
    mut child_sequences: Vec<Vec<Seg>>,
    arena: &mut NodeArena,
) -> Vec<Seg> {
    let mut residual = vec![0 as Size; child_sequences.len()];
    let mut total_residual: Size = 0;

    // Reusable-prefix fast path: if the *longest* child sequence's minimum
    // key dominates every other child's maximum key, all of its segments
    // form a prefix of the merge with zero offset (no other child has
    // deposited residual memory yet), so its vector is reused in place and
    // only the other children's segments are merged onto its tail.  The
    // stable order breaks key ties by ascending child index, so a
    // smaller-indexed child needs *strictly* smaller keys to merge after
    // the prefix, while a larger-indexed one may tie.  This is what keeps
    // caterpillar/comb-shaped trees — a long spine with small side subtrees
    // at every level — linear instead of copying the spine sequence once
    // per level.
    let longest = (0..child_sequences.len())
        .max_by_key(|&i| child_sequences[i].len())
        .expect("combine is called with at least two children");
    let prefix_key = child_sequences[longest].last().map(|segment| segment.key());
    let mut combined: Vec<Seg> = match prefix_key {
        Some(min_key)
            if child_sequences.iter().enumerate().all(|(i, sequence)| {
                i == longest
                    || sequence.first().is_none_or(|first| {
                        if i < longest {
                            first.key() < min_key
                        } else {
                            first.key() <= min_key
                        }
                    })
            }) =>
        {
            let sequence = std::mem::take(&mut child_sequences[longest]);
            total_residual = sequence.last().map(|s| s.valley).unwrap_or(0);
            residual[longest] = total_residual;
            sequence
        }
        _ => Vec::new(),
    };

    let mut cursors: Vec<(Vec<Seg>, usize)> = child_sequences
        .into_iter()
        .map(|sequence| (sequence, 0))
        .collect();
    let mut heap: BinaryHeap<(Size, Reverse<usize>)> = BinaryHeap::with_capacity(cursors.len());
    for (child_idx, (sequence, _)) in cursors.iter().enumerate() {
        if let Some(first) = sequence.first() {
            heap.push((first.key(), Reverse(child_idx)));
        }
    }

    while let Some((_, Reverse(child_idx))) = heap.pop() {
        let (sequence, position) = &mut cursors[child_idx];
        let segment = sequence[*position];
        *position += 1;
        if let Some(next) = sequence.get(*position) {
            heap.push((next.key(), Reverse(child_idx)));
        }
        let others = total_residual - residual[child_idx];
        let absolute = Seg {
            hill: segment.hill + others,
            valley: segment.valley + others,
            head: segment.head,
            tail: segment.tail,
        };
        total_residual = others + segment.valley;
        residual[child_idx] = segment.valley;
        push_normalized(&mut combined, absolute, arena);
    }
    debug_assert_eq!(total_residual, tree.children_file_sum(node));

    // The node itself executes last (bottom-up orientation): all child files
    // are resident, it adds its execution file and produces its output file.
    push_normalized(&mut combined, own, arena);
    combined
}

/// Liu's exact algorithm as it was before the segment stack.
pub(crate) fn liu_exact_naive(tree: &Tree) -> LiuResult {
    let mut arena = NodeArena::with_capacity(tree.len());
    let mut sequences: Vec<Option<Vec<Seg>>> = vec![None; tree.len()];
    for &i in tree.dfs_bottomup().iter() {
        let children = tree.children(i);
        let own = {
            let entry = arena.singleton(i);
            Seg {
                hill: tree.children_file_sum(i) + tree.n(i) + tree.f(i),
                valley: tree.f(i),
                head: entry,
                tail: entry,
            }
        };
        let sequence = match children {
            // Leaf: the sequence is the node's own segment.
            [] => vec![own],
            // Single child (every node of a chain, the spine of amalgamated
            // assembly trees): the merge offsets are identically zero, so the
            // child's sequence is extended *in place* — O(1) amortised
            // instead of the O(sequence) copy a general merge costs, which
            // is what keeps chain-like trees linear overall.
            [child] => {
                let mut sequence = sequences[*child as usize]
                    .take()
                    .expect("children processed before their parent");
                debug_assert_eq!(
                    sequence.last().map(|s| s.valley),
                    Some(tree.children_file_sum(i))
                );
                push_normalized(&mut sequence, own, &mut arena);
                sequence
            }
            _ => {
                let child_sequences: Vec<Vec<Seg>> = children
                    .iter()
                    .map(|&c| {
                        sequences[c as usize]
                            .take()
                            .expect("children processed before their parent")
                    })
                    .collect();
                combine(tree, i, own, child_sequences, &mut arena)
            }
        };
        sequences[i] = Some(sequence);
    }
    let root_internal = sequences[tree.root()]
        .take()
        .expect("root sequence computed");
    // Flatten the arena chains exactly once: materialise the public segments
    // (with owned node vectors) and the bottom-up execution order.
    let mut root_sequence: Vec<Segment> = Vec::with_capacity(root_internal.len());
    let mut bottom_up: Vec<NodeId> = Vec::with_capacity(tree.len());
    for seg in &root_internal {
        let mut nodes = Vec::new();
        arena.collect_into(seg.head, &mut nodes);
        bottom_up.extend_from_slice(&nodes);
        root_sequence.push(Segment {
            hill: seg.hill,
            valley: seg.valley,
            len: nodes.len(),
        });
    }
    let peak = root_sequence.iter().map(|s| s.hill).max().unwrap_or(0);
    debug_assert_eq!(bottom_up.len(), tree.len());
    bottom_up.reverse();
    let traversal = Traversal::new(bottom_up);
    debug_assert_eq!(
        traversal
            .peak_memory(tree)
            .expect("Liu produced an invalid traversal"),
        peak,
        "hill-valley peak must match the direct evaluation of the traversal"
    );
    LiuResult {
        traversal,
        peak,
        segments: root_sequence,
    }
}

#[cfg(test)]
mod tests {
    use prng::{Rng, StdRng};

    use super::*;
    use crate::gadgets::harpoon_tower;
    use crate::liu::liu_exact;
    use crate::minmem::min_mem;
    use crate::postorder::{best_postorder, natural_postorder};
    use crate::random::{comb, nested_dissection_etree, random_chain};
    use crate::solver::growth;

    /// The flat solvers against their oracles on one tree: traversals,
    /// peaks, subtree peaks and the root's segments.
    fn assert_same(tree: &Tree, context: &str) {
        for (flat, naive, name) in [
            (best_postorder(tree), best_postorder_naive(tree), "best"),
            (
                natural_postorder(tree),
                natural_postorder_naive(tree),
                "natural",
            ),
        ] {
            assert_eq!(flat.traversal, naive.traversal, "{name} {context}");
            assert_eq!(flat.peak, naive.peak, "{name} {context}");
            assert_eq!(flat.subtree_peaks, naive.subtree_peaks, "{name} {context}");
        }
        let (flat, naive) = (liu_exact(tree), liu_exact_naive(tree));
        assert_eq!(flat.traversal, naive.traversal, "liu {context}");
        assert_eq!(flat.peak, naive.peak, "liu {context}");
        assert_eq!(flat.segments, naive.segments, "liu {context}");
    }

    /// Item 11's weight palette: `(f, n)` of each node of a `p`-node tree.
    fn palette(p: usize) -> [(&'static str, Vec<(Size, Size)>); 6] {
        let mut rng = StdRng::seed_from_u64(p as u64);
        let weights = |weight: &dyn Fn(Size) -> (Size, Size)| (0..p as Size).map(weight).collect();
        [
            ("zero files", weights(&|i| (i % 2 * 3, 1))),
            ("equal", weights(&|_| (5, 5))),
            (
                "dominant file",
                weights(&|i| (if i + 1 == p as Size { 100 } else { 1 }, 0)),
            ),
            ("f >> n", weights(&|i| (10 + 7 * i % 13, 1))),
            ("n >> f", weights(&|i| (1, 50 + 11 * i % 17))),
            (
                "random",
                (0..p)
                    .map(|_| (rng.gen_range(0..=9 as Size), rng.gen_range(0..=9 as Size)))
                    .collect(),
            ),
        ]
    }

    /// Every parent array with `parent[i] < i` of up to 8 nodes — every
    /// rooted shape, in every child order — crossed with the palette.
    #[test]
    fn flat_solvers_equal_their_oracles_on_every_small_shape() {
        let mut trees = 0;
        for p in 1..=8usize {
            let mut parents = vec![0usize; p];
            loop {
                let links: Vec<Option<NodeId>> =
                    (0..p).map(|i| (i > 0).then(|| parents[i])).collect();
                for (name, weights) in palette(p) {
                    let (files, execs): (Vec<Size>, Vec<Size>) = weights.into_iter().unzip();
                    let tree = Tree::from_parents(&links, &files, &execs).unwrap();
                    assert_same(&tree, &format!("{links:?} {name}"));
                    trees += 1;
                }
                // Next parent array, odometer style: digit i runs 0..i.
                let Some(i) = (1..p).rev().find(|&i| parents[i] + 1 < i) else {
                    break;
                };
                parents[i] += 1;
                parents[i + 1..].fill(0);
            }
        }
        // Σ (p − 1)! over p ≤ 8, times the palette.
        assert_eq!(trees, 5_914 * 6);
    }

    /// 2 000 seeded trees of up to 300 nodes, half of them deep (a node
    /// hangs off its predecessor with probability 1/2, which makes combs and
    /// long sequences), with zero-size files.
    #[test]
    fn flat_solvers_equal_their_oracles_on_seeded_trees() {
        for seed in 0..2_000u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = rng.gen_range(2..=300usize);
            let deep = seed % 2 == 1;
            let parents: Vec<Option<NodeId>> = (0..p)
                .map(|i| {
                    (i > 0).then(|| match deep && rng.gen_bool(0.5) {
                        true => i - 1,
                        false => rng.gen_range(0..i),
                    })
                })
                .collect();
            let files: Vec<Size> = (0..p).map(|_| rng.gen_range(0..=100 as Size)).collect();
            let execs: Vec<Size> = (0..p).map(|_| rng.gen_range(0..=20 as Size)).collect();
            let tree = Tree::from_parents(&parents, &files, &execs).unwrap();
            assert_same(&tree, &format!("seed {seed}"));
        }
    }

    /// The allocation gate: on chains, combs, nested-dissection trees and
    /// harpoon towers of 2·10⁴–3·10⁴ nodes (measured: 0–14
    /// growths for the postorders and Liu, 29–54 for MinMem), each solver's scratch buffers
    /// grow at most `buffers · ⌈log₂ p⌉` times per call, where the oracles
    /// allocated per node.
    #[test]
    fn each_solver_grows_its_buffers_o_log_p_times() {
        let trees = [
            ("chain", random_chain(20_000, 100, 7)),
            ("comb", comb(10_000, 1_000, 7)),
            ("nd", nested_dissection_etree(20_000, 7)),
            ("tower", harpoon_tower(3, 300, 1, 8)),
        ];
        for (name, tree) in &trees {
            let log_p = tree.len().next_power_of_two().ilog2() as usize;
            growth::take();
            assert_same(tree, name);
            for (solver, buffers) in [("postorder", 2), ("liu", 6), ("minmem", 6)] {
                growth::take();
                match solver {
                    "postorder" => {
                        best_postorder(tree);
                        natural_postorder(tree);
                    }
                    "liu" => drop(liu_exact(tree)),
                    _ => drop(min_mem(tree)),
                }
                let growths = growth::take();
                let calls = if solver == "postorder" { 2 } else { 1 };
                assert!(
                    growths <= calls * buffers * log_p,
                    "{solver} on {name} ({} nodes): {growths} growths",
                    tree.len()
                );
            }
        }
    }
}
