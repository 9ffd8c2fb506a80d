//! The `Explore` and `MinMem` exact algorithms (Algorithms 3 and 4 of the
//! paper) — the paper's primary contribution.
//!
//! `Explore(T, i, M)` systematically traverses the subtree rooted at `i`
//! using at most `M` units of memory and returns the *best reachable cut*:
//! the set of still-unprocessed nodes whose input files occupy the least
//! total memory among all states reachable with `M`.  When the whole subtree
//! cannot be processed it also reports the *memory peak*: the smallest amount
//! of memory that would allow visiting at least one additional node.
//!
//! `MinMem(T)` solves the MinMemory problem exactly by repeatedly calling
//! `Explore` on the root, starting from the trivial lower bound
//! `max_i MemReq(i)` and raising the available memory to the reported peak
//! until the whole tree is processed.  The overall complexity is `O(p²)`.
//!
//! The implementation mirrors the pseudo-code of the paper; in particular the
//! state of a partially explored tree (cut + traversal prefix) is carried
//! from one `MinMem` iteration to the next so processed nodes are never
//! executed twice.  It is carried in place: every iteration runs on the same
//! flat arenas, so a call allocates O(log p) times whatever its iteration
//! count, and the final peak is one allocation-free pass over the traversal.

#[cfg(test)]
use crate::solver::growth;
use crate::solver::Probe;
use crate::traversal::Traversal;
use crate::tree::{NodeId, Size, Tree, INFINITE};
use crate::TraversalResult;

/// Outcome of one call to [`explore`].
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// `M_i` in the paper: total size of the input files of the returned cut
    /// (0 when the subtree was fully processed, [`INFINITE`] when the root of
    /// the explored subtree itself could not be executed).
    pub mem: Size,
    /// `L_i`: the best reachable cut (unprocessed nodes whose input files are
    /// resident).  Empty when the subtree was fully processed or when its
    /// root could not be executed.
    pub cut: Vec<NodeId>,
    /// Memory peak of each cut node, parallel to `cut`: the minimum memory
    /// required to visit a new node inside that cut node's subtree.
    pub cut_peaks: Vec<Size>,
    /// `Tr_i`: the nodes executed during the exploration, in execution order.
    pub traversal: Vec<NodeId>,
    /// `M_i^peak`: minimum memory required to visit one more node of the
    /// subtree ([`INFINITE`] when the subtree was fully processed).
    pub peak: Size,
}

fn saturating_add(a: Size, b: Size) -> Size {
    a.saturating_add(b)
}

/// One suspended `Explore` activation of the explicit-stack driver.
///
/// The recursive formulation of Algorithm 3 recurses along the height of the
/// tree, which reaches the node count on chain-like assembly trees (RCM and
/// natural orderings routinely produce 10⁵-deep chains) and overflows the
/// call stack.  [`explore`] therefore runs the same computation on a heap
/// stack of these frames.
///
/// A frame owns no buffers: the per-activation data (current cut, the cut
/// being consumed by the in-progress pass, the executed nodes) lives in
/// shared flat arenas owned by the driver, of which each frame marks its
/// start offset.  The regions are stack-disciplined — a child frame's
/// regions sit on top of its parent's, and integration either *keeps* the
/// child's cut region in place (it becomes the top of the parent's cut) or
/// truncates it — so a million-node exploration performs O(1) heap
/// allocations instead of several per node.
#[derive(Debug, Clone, Copy, Default)]
struct Frame {
    avail: Size,
    /// Start of this frame's cut region in the shared cut arena.
    cut_start: usize,
    /// Start of this frame's pass region in the shared old-cut arena.
    old_start: usize,
    /// Total input-file size of this frame's cut region.
    cut_file_sum: Size,
    /// Length of the shared traversal buffer when this frame was entered;
    /// used to discard the subtree's executions if its cut is rejected.
    traversal_mark: usize,
    /// Next absolute index into the old-cut arena the pass has to look at.
    idx: usize,
    /// `cut_file_sum` frozen at the start of the pass (the paper's line 15
    /// evaluates candidates against the cut as it was when the pass began).
    pass_sum: Size,
    first_pass: bool,
    in_pass: bool,
}

/// The shared buffers of the explicit-stack driver.  Between two calls of
/// [`explore_in`] on the same tree they hold the root's cut and traversal
/// prefix, the state [`min_mem`] resumes from.
#[derive(Debug, Default)]
struct Arenas {
    /// The suspended activations, root first.
    frames: Vec<Frame>,
    /// Current cuts of all live frames, bottom frame first.
    cut_nodes: Vec<NodeId>,
    cut_peaks: Vec<Size>,
    /// In-progress pass inputs of all live frames, bottom frame first.
    old_nodes: Vec<NodeId>,
    old_peaks: Vec<Size>,
    /// Executed nodes (`Tr` in the paper), in execution order.
    traversal: Vec<NodeId>,
}

impl Arenas {
    /// Open a fresh frame for `node` (lines 6–11: cut = children, peaks =
    /// their `MemReq`) on top of the arenas; the node's own execution goes
    /// straight into the shared traversal buffer.
    fn open_frame(&mut self, tree: &Tree, node: NodeId, avail: Size) -> Frame {
        let frame = Frame {
            avail,
            cut_start: self.cut_nodes.len(),
            old_start: self.old_nodes.len(),
            cut_file_sum: tree.children_file_sum(node),
            traversal_mark: self.traversal.len(),
            idx: 0,
            pass_sum: 0,
            first_pass: true,
            in_pass: false,
        };
        self.cut_nodes.extend_from_slice(tree.children(node));
        // Until a child has been explored, the only safe lower bound on the
        // memory needed to advance inside it is its own MemReq.
        self.cut_peaks
            .extend(tree.children(node).iter().map(|&c| tree.mem_req(c)));
        self.traversal.push(node);
        frame
    }

    /// Test builds: the capacities of the buffers that grow during a call.
    #[cfg(test)]
    fn capacities(&self) -> [usize; 6] {
        [
            self.frames.capacity(),
            self.cut_nodes.capacity(),
            self.cut_peaks.capacity(),
            self.old_nodes.capacity(),
            self.old_peaks.capacity(),
            self.traversal.capacity(),
        ]
    }
}

#[inline]
fn is_candidate(tree: &Tree, avail: Size, j: NodeId, peak_j: Size, sum: Size) -> bool {
    avail - (sum - tree.f(j)) >= peak_j
}

/// Lines 20–22 for a finished frame: the `M_i^peak` value reported upward.
fn frame_peak(tree: &Tree, frame: &Frame, arenas: &Arenas) -> Size {
    arenas.cut_nodes[frame.cut_start..]
        .iter()
        .zip(arenas.cut_peaks[frame.cut_start..].iter())
        .map(|(&j, &peak_j)| saturating_add(peak_j, frame.cut_file_sum - tree.f(j)))
        .min()
        .unwrap_or(INFINITE)
}

/// Algorithm 3 of the paper: explore the subtree rooted at `node` with
/// `avail` units of memory (the input file of `node` counts against this
/// budget) and return the minimum-memory reachable cut.
///
/// The exploration is iterative (explicit heap stack), so arbitrarily deep
/// trees — 10⁵-node chains and beyond — are handled without overflowing the
/// call stack.
pub fn explore(tree: &Tree, node: NodeId, avail: Size) -> ExploreOutcome {
    let mut arenas = Arenas::default();
    let (mem, peak) = explore_in(tree, node, avail, &mut arenas, &mut Probe::new(None))
        .expect("no stop probe, cannot be cancelled");
    ExploreOutcome {
        mem,
        cut: arenas.cut_nodes,
        cut_peaks: arenas.cut_peaks,
        traversal: arenas.traversal,
        peak,
    }
}

/// [`explore`] on `arenas`, which hold the state to resume from (empty for
/// a fresh exploration) and, on return, the outcome's cut, cut peaks and
/// traversal; returns `(mem, peak)`.  `probe` is polled once per
/// [`STOP_CHECK_INTERVAL`](crate::solver::STOP_CHECK_INTERVAL) steps of
/// the driver loop: `None` when it fired, the arenas then holding garbage.
fn explore_in(
    tree: &Tree,
    node: NodeId,
    avail: Size,
    arenas: &mut Arenas,
    probe: &mut Probe<'_>,
) -> Option<(Size, Size)> {
    let resumed = !(arenas.cut_nodes.is_empty() && arenas.traversal.is_empty());

    if !resumed {
        // Lines 1–5: try to execute `node` itself.
        let requirement = tree.mem_req(node);
        if requirement > avail {
            return Some((INFINITE, requirement));
        }
        if tree.is_leaf(node) {
            arenas.traversal.push(node);
            return Some((0, INFINITE));
        }
    }

    // The root frame: either resumed from a previous MinMem iteration (lines
    // 6–8) or freshly initialised from the children (lines 9–11).
    let root_frame = if resumed {
        Frame {
            avail,
            cut_file_sum: arenas.cut_nodes.iter().map(|&c| tree.f(c)).sum(),
            first_pass: true,
            ..Frame::default()
        }
    } else {
        arenas.open_frame(tree, node, avail)
    };
    debug_assert!(arenas.frames.is_empty() && arenas.old_nodes.is_empty());
    arenas.frames.push(root_frame);
    #[cfg(test)]
    let mut capacities = arenas.capacities();

    // Lines 12–19, iteratively: each pass of a frame corresponds to one
    // evaluation of the candidate set (line 19 in the paper); within a pass
    // the cut is rebuilt while candidates are explored with the *current*
    // amount of free memory, exactly as line 15 uses the current cut.  The
    // total file size of the cut is maintained incrementally so each
    // candidate costs O(1) besides its own (pushed) exploration.  On the
    // first pass every initial cut node is a candidate (line 12).
    'driver: loop {
        if probe.stopped() {
            return None;
        }
        #[cfg(test)]
        growth::track(&mut capacities, arenas.capacities());
        let frame = arenas.frames.last_mut().expect("stack is never empty here");

        if !frame.in_pass {
            let start_pass = frame.first_pass
                || arenas.cut_nodes[frame.cut_start..]
                    .iter()
                    .zip(arenas.cut_peaks[frame.cut_start..].iter())
                    .any(|(&j, &peak_j)| {
                        is_candidate(tree, frame.avail, j, peak_j, frame.cut_file_sum)
                    });
            if !start_pass {
                // This frame is done: report it upward (lines 20–22).
                let finished = *frame;
                arenas.frames.pop();
                let peak = frame_peak(tree, &finished, arenas);
                match arenas.frames.last_mut() {
                    Some(parent) => {
                        // Lines 16–18: merge the child's result.  The child's
                        // cut and executions already sit on top of the
                        // parent's arena regions, so *accepting* them is free
                        // — they simply become part of the parent's regions —
                        // and rejecting truncates.  This is what makes a full
                        // exploration of a p-node chain O(p) instead of the
                        // O(p²) that per-frame concatenation (the recursive
                        // formulation) costs.
                        let j = arenas.old_nodes[parent.idx];
                        if finished.cut_file_sum <= tree.f(j) {
                            // Replace `j` by the child's cut, kept in place.
                            parent.cut_file_sum += finished.cut_file_sum - tree.f(j);
                        } else {
                            // Keep `j` in the cut but remember how much
                            // memory its subtree needs to make progress;
                            // discard the child's executions and cut.
                            arenas.cut_nodes.truncate(finished.cut_start);
                            arenas.cut_peaks.truncate(finished.cut_start);
                            arenas.traversal.truncate(finished.traversal_mark);
                            arenas.cut_nodes.push(j);
                            arenas.cut_peaks.push(peak);
                        }
                        parent.idx += 1;
                        continue 'driver;
                    }
                    // The root frame's cut region starts at 0: the arenas
                    // now hold exactly the outcome.
                    None => return Some((finished.cut_file_sum, peak)),
                }
            }
            // Start a pass: move this frame's cut region to the top of the
            // old-cut arena and rebuild the cut region from scratch.
            frame.pass_sum = frame.cut_file_sum;
            frame.old_start = arenas.old_nodes.len();
            frame.idx = frame.old_start;
            arenas
                .old_nodes
                .extend_from_slice(&arenas.cut_nodes[frame.cut_start..]);
            arenas
                .old_peaks
                .extend_from_slice(&arenas.cut_peaks[frame.cut_start..]);
            arenas.cut_nodes.truncate(frame.cut_start);
            arenas.cut_peaks.truncate(frame.cut_start);
            frame.in_pass = true;
        }

        // A live frame's pass region is the top of the old-cut arena (child
        // frames push and fully truncate their regions before control
        // returns), so the region ends at the arena's current length.
        while frame.idx < arenas.old_nodes.len() {
            let j = arenas.old_nodes[frame.idx];
            let peak_j = arenas.old_peaks[frame.idx];
            let candidate =
                frame.first_pass || is_candidate(tree, frame.avail, j, peak_j, frame.pass_sum);
            if !candidate {
                arenas.cut_nodes.push(j);
                arenas.cut_peaks.push(peak_j);
                frame.idx += 1;
                continue;
            }
            let avail_j = frame.avail - (frame.cut_file_sum - tree.f(j));
            // Inline the base cases of the recursion (lines 1–5 for `j`), so
            // leaves and too-tight subtrees never open a frame.
            let requirement = tree.mem_req(j);
            if requirement > avail_j {
                arenas.cut_nodes.push(j);
                arenas.cut_peaks.push(requirement);
                frame.idx += 1;
                continue;
            }
            if tree.is_leaf(j) {
                frame.cut_file_sum -= tree.f(j);
                arenas.traversal.push(j);
                frame.idx += 1;
                continue;
            }
            // Open a child frame; integration happens when it finishes.
            let child = arenas.open_frame(tree, j, avail_j);
            arenas.frames.push(child);
            continue 'driver;
        }

        // Pass finished (line 19): drop the pass region and re-evaluate the
        // candidate set.
        arenas.old_nodes.truncate(frame.old_start);
        arenas.old_peaks.truncate(frame.old_start);
        frame.first_pass = false;
        frame.in_pass = false;
    }
}

/// Result of [`min_mem`]: the optimal peak together with the traversal that
/// achieves it and the number of `Explore` restarts performed (a useful
/// measure of the practical cost of the algorithm).
#[derive(Debug, Clone)]
pub struct MinMemResult {
    /// The optimal traversal found by the algorithm.
    pub traversal: Traversal,
    /// The minimum memory for an in-core traversal of the tree.
    pub peak: Size,
    /// Number of top-level `Explore` calls performed by `MinMem`.
    pub iterations: usize,
}

impl From<MinMemResult> for TraversalResult {
    fn from(value: MinMemResult) -> Self {
        TraversalResult {
            traversal: value.traversal,
            peak: value.peak,
        }
    }
}

/// Algorithm 4 of the paper: compute the minimum memory required to process
/// the whole tree in core, along with a traversal achieving it.
///
/// ```
/// use treemem::{TreeBuilder, minmem::min_mem};
/// let mut b = TreeBuilder::new();
/// let root = b.add_root(0, 0);
/// let a = b.add_child(root, 2, 0);
/// b.add_child(a, 10, 0);
/// let c = b.add_child(root, 3, 0);
/// b.add_child(c, 4, 0);
/// let tree = b.build().unwrap();
/// let result = min_mem(&tree);
/// assert_eq!(result.peak, result.traversal.peak_memory(&tree).unwrap());
/// ```
pub fn min_mem(tree: &Tree) -> MinMemResult {
    min_mem_until(tree, &mut Probe::new(None)).expect("no stop probe, cannot be cancelled")
}

/// [`min_mem`], with `probe` ticking once per restart and once per step of
/// each exploration's driver loop, so it is polled every
/// [`STOP_CHECK_INTERVAL`](crate::solver::STOP_CHECK_INTERVAL) of them;
/// `None` when it fired.
pub(crate) fn min_mem_until(tree: &Tree, probe: &mut Probe<'_>) -> Option<MinMemResult> {
    let mut target = tree.max_mem_req();
    // The root's cut and traversal prefix stay in the arenas from one
    // iteration to the next.
    let mut arenas = Arenas::default();
    let mut iterations = 0usize;
    loop {
        if probe.stopped() {
            return None;
        }
        iterations += 1;
        let avail = target;
        let (_, peak) = explore_in(tree, tree.root(), avail, &mut arenas, probe)?;
        if peak == INFINITE {
            debug_assert_eq!(
                arenas.traversal.len(),
                tree.len(),
                "exploration must cover the tree"
            );
            let traversal = Traversal::new(std::mem::take(&mut arenas.traversal));
            debug_assert!(traversal.check_in_core(tree, avail).is_ok());
            let peak = traversal.peak_memory_unchecked(tree);
            debug_assert_eq!(
                Ok(peak),
                traversal.peak_memory(tree),
                "MinMem produced an invalid traversal"
            );
            return Some(MinMemResult {
                traversal,
                peak,
                iterations,
            });
        }
        debug_assert!(
            peak > avail,
            "Explore must report a peak larger than the memory it was given"
        );
        target = peak;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::postorder::best_postorder;
    use crate::tree::TreeBuilder;

    #[test]
    fn single_node_and_chain() {
        let mut b = TreeBuilder::new();
        b.add_root(3, 4);
        let tree = b.build().unwrap();
        let res = min_mem(&tree);
        assert_eq!(res.peak, 7);
        assert_eq!(res.traversal.order(), &[0]);

        let mut b = TreeBuilder::new();
        let mut prev = b.add_root(1, 0);
        for f in [5, 2, 9, 3] {
            prev = b.add_child(prev, f, 0);
        }
        let tree = b.build().unwrap();
        let res = min_mem(&tree);
        assert_eq!(res.peak, tree.max_mem_req());
    }

    #[test]
    fn explore_reports_peak_when_memory_is_too_small() {
        let mut b = TreeBuilder::new();
        let r = b.add_root(5, 0);
        b.add_child(r, 7, 0);
        let tree = b.build().unwrap();
        let outcome = explore(&tree, r, 5);
        assert_eq!(outcome.mem, crate::tree::INFINITE);
        assert_eq!(outcome.peak, 12);
        assert!(outcome.traversal.is_empty());
    }

    #[test]
    fn explore_with_enough_memory_processes_everything() {
        let mut b = TreeBuilder::new();
        let r = b.add_root(1, 0);
        let a = b.add_child(r, 2, 0);
        b.add_child(a, 3, 0);
        b.add_child(r, 4, 0);
        let tree = b.build().unwrap();
        let outcome = explore(&tree, r, 100);
        assert_eq!(outcome.mem, 0);
        assert!(outcome.cut.is_empty());
        assert_eq!(outcome.peak, crate::tree::INFINITE);
        assert_eq!(outcome.traversal.len(), tree.len());
    }

    #[test]
    fn min_mem_beats_postorder_on_the_harpoon() {
        let tree = crate::gadgets::harpoon(4, 400, 1);
        let opt = min_mem(&tree);
        let po = best_postorder(&tree);
        // Optimal alternates between branches: 400 + 4*1; postorder is stuck
        // with (b-1) files of size 100: 400 + 1 + 3*100.
        assert_eq!(opt.peak, 404);
        assert_eq!(po.peak, 701);
        assert!(opt.peak < po.peak);
        assert!(opt.traversal.check_in_core(&tree, opt.peak).is_ok());
    }

    #[test]
    fn min_mem_is_never_worse_than_postorder() {
        for branches in 2..6 {
            let mut b = TreeBuilder::new();
            let r = b.add_root(0, 0);
            for k in 0..branches {
                let c = b.add_child(r, (k as Size) + 1, 1);
                let d = b.add_child(c, 10 * ((branches - k) as Size), 2);
                b.add_child(d, 3, 0);
            }
            let tree = b.build().unwrap();
            let opt = min_mem(&tree);
            let po = best_postorder(&tree);
            assert!(opt.peak <= po.peak, "branches={branches}");
            assert_eq!(opt.peak, opt.traversal.peak_memory(&tree).unwrap());
        }
    }

    #[test]
    fn iterations_are_reported() {
        let tree = crate::gadgets::harpoon(3, 300, 1);
        let res = min_mem(&tree);
        assert!(res.iterations >= 1);
    }
}
