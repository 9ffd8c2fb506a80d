//! The out-of-core execution simulator for the paper's heuristic catalogue
//! (Section V-B of the paper).
//!
//! The simulator executes a traversal step by step; when the next node `j`
//! does not fit in the remaining main memory, a deficit `IOReq(j)` must be
//! freed by writing already-produced files to secondary memory.  *Which*
//! files to write is decided by one of the six [`Policy`] heuristics (see
//! [`crate::policy`]): the simulator hands it the candidate files ordered
//! latest use first and the deficit, and evicts what it selects.
//!
//! [`schedule_io_with`] is the entry point (the golden parity test pins
//! every heuristic to the original fixed dispatch).  A [`Walk`] validates a
//! traversal once and runs any number of simulations and bounds on it, with
//! a cooperative stop probe; the two free functions are one-shot wrappers
//! over it.
//!
//! One walk, two clients: the simulator and [`divisible_lower_bound`] both
//! step a traversal over the same private `ResidentSet`.  Until the first
//! deficit it is only the resident total; at that step it builds the ordered
//! set of resident traversal positions (a 64-ary bit tree) in one scan, so a
//! walk that never runs short costs O(p) additions and neither walk ever
//! scans the non-resident nodes.
//!
//! **The deficit-free prefix is one tight loop.**  Before the first deficit
//! nothing has been evicted: a step is `during = total + n + Σ f(children)`
//! and `total += Σ f(children) − f`, with no eviction lookup, no read-back
//! and no residency branch.  Both walks run that scan first and hand the
//! resident total to the general loop at the first deficit; the bound fills
//! its per-file residency there, in the scan that builds the bit tree.  The
//! scan keeps nothing per step.  A node whose `MemReq` exceeds memory is
//! itself a deficit (its `during` counts its own resident input file), so
//! the general loop reaches it and the typed error names the same node.
//!
//! Two oracles are retained as test code:
//! the seed's scan-and-sort simulator in `tests/common` (pinned by
//! `tests/golden_parity.rs`, `tests/deep_trees.rs` and
//! `tests/walk_parity.rs`) and the seed's scan-and-sort bound in this
//! module's tests (pinned on the same corpora by
//! `divisible_bound_equals_its_scan_and_sort_oracle`).

use treemem::error::TraversalError;
use treemem::solver::STOP_CHECK_INTERVAL;
use treemem::traversal::Traversal;
use treemem::tree::{NodeId, Size, Tree};

use crate::bit_tree::BitTree;
use crate::policy::{Candidate, Policy};
#[cfg(debug_assertions)]
use crate::schedule::check_out_of_core_with_positions;
use crate::schedule::IoSchedule;

/// Errors raised while simulating an out-of-core execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MinIoError {
    /// The traversal itself is invalid (wrong permutation, precedence
    /// violation, ...).
    InvalidTraversal(TraversalError),
    /// A node cannot be executed even after evicting every other resident
    /// file: its own memory requirement exceeds the main memory.
    InsufficientMemory {
        node: NodeId,
        required: Size,
        memory: Size,
    },
    /// The instance is too large for the exponential exact solver
    /// ([`crate::exact::exact_min_io`]).
    InstanceTooLarge { candidates: usize, limit: usize },
}

impl std::fmt::Display for MinIoError {
    fn fmt(&self, fmt: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MinIoError::InvalidTraversal(err) => write!(fmt, "invalid traversal: {err}"),
            MinIoError::InsufficientMemory { node, required, memory } => write!(
                fmt,
                "node {node} requires {required} units of memory but only {memory} are available"
            ),
            MinIoError::InstanceTooLarge { candidates, limit } => write!(
                fmt,
                "instance too large for the exact solver: {candidates} evictable files at one step (limit {limit})"
            ),
        }
    }
}

impl std::error::Error for MinIoError {}

impl From<TraversalError> for MinIoError {
    fn from(err: TraversalError) -> Self {
        MinIoError::InvalidTraversal(err)
    }
}

/// Result of an out-of-core simulation.
#[derive(Debug, Clone)]
pub struct OutOfCoreRun {
    /// Volume written to secondary memory (the paper's `IO` objective).
    pub io_volume: Size,
    /// Volume read back from secondary memory (equal to the volume written,
    /// since every evicted file is read exactly once before its owner runs).
    pub read_volume: Size,
    /// Number of files written out.
    pub files_written: usize,
    /// Peak main-memory usage of the execution (always `≤ memory`).
    pub peak_memory: Size,
    /// The eviction schedule (the `τ` map of Definition 3).
    pub schedule: IoSchedule,
}

/// The files in main memory while a traversal is walked: their traversal
/// positions, ordered, and their total resident size.  The one piece of
/// bookkeeping both walks of this module — the policy simulator and the
/// divisible bound — keep, changing by O(#children) per executed step.
///
/// Every resident file other than the node currently executing is
/// unprocessed, so its position is strictly greater than the current step:
/// the positions above the step, largest first, enumerate exactly the
/// eviction candidates, latest use first, without scanning the other
/// p − resident nodes.
///
/// The ordered positions are built lazily.  Until a walk first asks for
/// candidates — its first deficit — nothing has been evicted, so residency
/// is a function of the step alone: a file is resident at `step` exactly
/// when its owner runs at or after `step` and its parent ran before (the
/// root's file from the start).  Until then the set keeps only the total,
/// and one scan of the positions `step..p` builds the ordered set.
struct ResidentSet<'w> {
    tree: &'w Tree,
    order: &'w [NodeId],
    positions: &'w [usize],
    /// The resident positions; `None` until the first deficit.
    ordered: Option<BitTree>,
    total: Size,
}

impl<'w> ResidentSet<'w> {
    /// The state before step 0: only the root's input file is in memory.
    fn with_root(tree: &'w Tree, order: &'w [NodeId], positions: &'w [usize]) -> Self {
        ResidentSet {
            tree,
            order,
            positions,
            ordered: None,
            total: tree.f(tree.root()),
        }
    }

    /// `size` units of the file at `position` enter memory (production, or
    /// a read-back of what was written out).
    fn enter(&mut self, position: usize, size: Size) {
        if let Some(ordered) = &mut self.ordered {
            ordered.insert(position);
        }
        self.total += size;
    }

    /// The file at `position` leaves memory with its last `size` units.
    fn leave(&mut self, position: usize, size: Size) {
        if let Some(ordered) = &mut self.ordered {
            ordered.remove(position);
        }
        self.total -= size;
    }

    /// Run the steps before the first deficit, from step 0, as one loop
    /// (see the module docs).  Returns the first deficit's step (`p` when
    /// there is none) and the largest memory in use before it; `None` when
    /// `stop` fired.  The deficit step itself is not polled, the caller's
    /// loop polls it.  A step whose `MemReq` exceeds `memory` is a deficit
    /// (its `during` includes its own resident input file, so it is at
    /// least `MemReq`): the caller's loop reaches it and raises the error.
    fn run_to_first_deficit(
        &mut self,
        memory: Size,
        stop: Option<&dyn Fn() -> bool>,
    ) -> Option<(usize, Size)> {
        let tree = self.tree;
        debug_assert!(self.ordered.is_none());
        let mut peak = self.total;
        for (step, &node) in self.order.iter().enumerate() {
            let children = tree.children_file_sum(node);
            let during = self.total + tree.n(node) + children;
            if during > memory {
                return Some((step, peak));
            }
            if stopped(stop, step) {
                return None;
            }
            peak = peak.max(during);
            self.total += children - tree.f(node);
        }
        Some((self.order.len(), peak))
    }

    /// Build the ordered set at `step`, before the walk evicts anything, in
    /// one scan of the positions `step..p`; `resident` is called on every
    /// node whose file is in memory.
    fn build(&mut self, step: usize, mut resident: impl FnMut(NodeId)) {
        let mut ordered = BitTree::new(self.order.len());
        for (position, &node) in self.order.iter().enumerate().skip(step) {
            if self
                .tree
                .parent(node)
                .is_none_or(|parent| self.positions[parent] < step)
            {
                ordered.insert(position);
                resident(node);
            }
        }
        self.ordered = Some(ordered);
    }

    /// Positions of the eviction candidates at `step`, latest use first.
    /// The first call builds the ordered set, so it must come before the
    /// walk evicts anything.
    fn latest_first(&mut self, step: usize) -> impl Iterator<Item = usize> + '_ {
        if self.ordered.is_none() {
            self.build(step, |_| ());
        }
        let ordered = self.ordered.as_ref().expect("built above");
        ordered.descending_above(step)
    }

    /// Memory needed while `node` executes, given what is resident; fails
    /// if not even evicting every other file could make room for it.
    fn during(&self, node: NodeId, memory: Size) -> Result<Size, MinIoError> {
        let tree = self.tree;
        let required = tree.mem_req(node);
        if required > memory {
            return Err(MinIoError::InsufficientMemory {
                node,
                required,
                memory,
            });
        }
        Ok(self.total + tree.n(node) + tree.children_file_sum(node))
    }

    /// Execute `node` at `step`: its input file is consumed, its children's
    /// files are produced.
    fn execute(&mut self, step: usize, node: NodeId) {
        let tree = self.tree;
        if self.ordered.is_none() {
            self.total += tree.children_file_sum(node) - tree.f(node);
            return;
        }
        self.leave(step, tree.f(node));
        for &child in tree.children(node) {
            self.enter(self.positions[child], tree.f(child));
        }
    }
}

/// Whether the walk must stop before `step`: the probe is polled every
/// [`STOP_CHECK_INTERVAL`] steps, starting at step 0.
fn stopped(stop: Option<&dyn Fn() -> bool>, step: usize) -> bool {
    step.is_multiple_of(STOP_CHECK_INTERVAL) && stop.is_some_and(|probe| probe())
}

/// A traversal validated against its tree, with its position map
/// (`positions[i] = σ(i) − 1`): the O(p) set-up every out-of-core walk of
/// that traversal shares.  Build it once, then run any number of
/// simulations ([`Walk::schedule_io`]) and bounds
/// ([`Walk::divisible_bound`]) on it — a policy sweep over one traversal
/// validates it once instead of once per walk.
///
/// The walks take the tree and traversal the value was built from.
#[derive(Debug, Clone)]
pub struct Walk {
    positions: Vec<usize>,
}

impl Walk {
    /// Validate `traversal` as an ordering of `tree` — a permutation of its
    /// nodes that schedules every node after its parent — and keep its
    /// position map.
    pub fn new(tree: &Tree, traversal: &Traversal) -> Result<Walk, MinIoError> {
        Ok(Walk {
            positions: traversal.check_precedence(tree)?,
        })
    }

    /// Approximate heap footprint in bytes (the position map).
    pub fn heap_bytes(&self) -> u64 {
        (self.positions.len() * std::mem::size_of::<usize>()) as u64
    }

    /// The validated position map.
    pub(crate) fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// The traversal's order, checked against the walk's position map.
    fn order<'t>(&self, tree: &Tree, traversal: &'t Traversal) -> &'t [NodeId] {
        assert!(
            tree.len() == self.positions.len() && traversal.len() == self.positions.len(),
            "a walk runs on the tree and traversal it was built from"
        );
        traversal.order()
    }

    /// Simulate an out-of-core execution of `traversal` on `tree` with main
    /// memory `memory`, using `policy` to choose which files to evict; see
    /// [`schedule_io_with`].  `stop` is polled every 1024 steps: `Ok(None)`
    /// means it fired and the partial simulation was discarded.
    pub fn schedule_io(
        &self,
        tree: &Tree,
        traversal: &Traversal,
        memory: Size,
        policy: Policy,
        stop: Option<&dyn Fn() -> bool>,
    ) -> Result<Option<OutOfCoreRun>, MinIoError> {
        let order = self.order(tree, traversal);
        let positions: &[usize] = &self.positions;

        let mut resident = ResidentSet::with_root(tree, order, positions);
        let mut schedule = IoSchedule::empty(tree.len());
        let mut io_volume: Size = 0;
        let mut files_written = 0usize;
        // Scratch buffer reused across deficit steps.
        let mut candidates: Vec<Candidate> = Vec::new();
        let Some((first, mut peak)) = resident.run_to_first_deficit(memory, stop) else {
            return Ok(None);
        };

        for (step, &node) in order.iter().enumerate().skip(first) {
            if stopped(stop, step) {
                return Ok(None);
            }
            // Read the node's input file back first if it was evicted earlier
            // (a file is written at most once, before its owner's step).
            if schedule.eviction_step(node).is_some() {
                resident.enter(step, tree.f(node));
            }

            let mut during = resident.during(node, memory)?;
            if during > memory {
                let deficit = during - memory;
                // Candidate files: resident, already produced, not the one
                // being executed; ordered by latest use first.  Together
                // they cover the deficit (`during` checked `MemReq(node)`
                // against `memory`), so the selection does too.
                candidates.clear();
                candidates.extend(resident.latest_first(step).map(|pos| Candidate {
                    node: order[pos],
                    size: tree.f(order[pos]),
                }));
                for idx in policy.select(&candidates, deficit) {
                    let candidate = candidates[idx];
                    resident.leave(positions[candidate.node], candidate.size);
                    during -= candidate.size;
                    io_volume += candidate.size;
                    files_written += 1;
                    schedule.set_eviction(candidate.node, step);
                }
            }

            debug_assert!(during <= memory, "selection must cover the deficit");
            peak = peak.max(during);

            resident.execute(step, node);
        }

        // Full re-validation through the independent Algorithm 2 checker,
        // debug builds only (it re-simulates the whole run); the walk's
        // positions are passed through instead of being recomputed.
        #[cfg(debug_assertions)]
        {
            let check =
                check_out_of_core_with_positions(tree, traversal, positions, &schedule, memory)
                    .expect("simulated schedule must validate");
            debug_assert_eq!(check.io_volume, io_volume);
            debug_assert_eq!(check.peak_memory, peak);
        }

        Ok(Some(OutOfCoreRun {
            io_volume,
            read_volume: io_volume,
            files_written,
            peak_memory: peak,
            schedule,
        }))
    }

    /// The divisible-relaxation lower bound of `traversal` on `tree` with
    /// main memory `memory`; see [`divisible_lower_bound`].  `stop` is
    /// polled every 1024 steps: `Ok(None)` means it fired first.
    pub fn divisible_bound(
        &self,
        tree: &Tree,
        traversal: &Traversal,
        memory: Size,
        stop: Option<&dyn Fn() -> bool>,
    ) -> Result<Option<Size>, MinIoError> {
        let order = self.order(tree, traversal);
        let mut resident = ResidentSet::with_root(tree, order, &self.positions);
        // in_core[i]: the part (in size units) of file i still resident; only
        // produced files ever have a positive value.
        let mut in_core: Vec<Size> = vec![0; tree.len()];
        let mut io_volume: Size = 0;
        let Some((first, _)) = resident.run_to_first_deficit(memory, stop) else {
            return Ok(None);
        };
        if first < order.len() {
            resident.build(first, |node| in_core[node] = tree.f(node));
        }

        for (step, &node) in order.iter().enumerate().skip(first) {
            if stopped(stop, step) {
                return Ok(None);
            }
            // Read back the missing part of the input file.
            resident.enter(step, tree.f(node) - in_core[node]);
            in_core[node] = tree.f(node);

            let mut deficit = resident.during(node, memory)? - memory;
            // Evict fractions of the latest-used files first.
            while deficit > 0 {
                let position = resident
                    .latest_first(step)
                    .next()
                    .expect("divisible eviction can always cover the deficit");
                let file = order[position];
                let take = in_core[file].min(deficit);
                in_core[file] -= take;
                io_volume += take;
                deficit -= take;
                if in_core[file] == 0 {
                    resident.leave(position, take);
                } else {
                    resident.total -= take;
                }
            }

            resident.execute(step, node);
            in_core[node] = 0;
            for &child in tree.children(node) {
                in_core[child] = tree.f(child);
            }
        }
        Ok(Some(io_volume))
    }
}

/// Simulate an out-of-core execution of `traversal` on `tree` with main
/// memory `memory`, using `policy` to choose which files to evict.
///
/// Returns the I/O volume, the eviction schedule (which can be re-validated
/// with [`crate::check_out_of_core`]) and the peak memory actually used.
///
/// Fails with [`MinIoError::InsufficientMemory`] if some node's own memory
/// requirement exceeds `memory` (no eviction can help in that case) and with
/// [`MinIoError::InvalidTraversal`] if the traversal is not a valid ordering
/// of the tree.
///
/// The simulator is *incremental*: steps before the first deficit only add
/// and subtract file sizes, and from the first deficit on the resident
/// candidate files are kept in an ordered set keyed by traversal position
/// (the module's one resident-set walk, shared with
/// [`divisible_lower_bound`]), so a deficit step costs O(resident) instead
/// of the full O(p log p) scan-and-sort the original implementation (kept as
/// a test oracle) performed.  To run several walks of one traversal, build
/// its [`Walk`] once.
pub fn schedule_io_with(
    tree: &Tree,
    traversal: &Traversal,
    memory: Size,
    policy: Policy,
) -> Result<OutOfCoreRun, MinIoError> {
    let run = Walk::new(tree, traversal)?.schedule_io(tree, traversal, memory, policy, None)?;
    Ok(run.expect("no stop probe, cannot be cancelled"))
}

/// Exact minimum I/O volume of `traversal` under the *divisible* relaxation
/// of MinIO, where arbitrary fractions of files may be written out.
///
/// In the divisible model the LSNF policy is optimal (the file fraction used
/// furthest in the future is always the best thing to evict, by a standard
/// exchange argument), so this value is a lower bound on the I/O volume any
/// policy can reach **for this traversal**, and is used by the experiments
/// to gauge the absolute quality of the heuristics.
///
/// Walks the same resident set as [`schedule_io_with`]: a file leaves the
/// ordered set when its resident fraction reaches 0 and re-enters when it
/// is read back, so a deficit step touches only the files it drains.
pub fn divisible_lower_bound(
    tree: &Tree,
    traversal: &Traversal,
    memory: Size,
) -> Result<Size, MinIoError> {
    let bound = Walk::new(tree, traversal)?.divisible_bound(tree, traversal, memory, None)?;
    Ok(bound.expect("no stop probe, cannot be cancelled"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::check_out_of_core;
    use treemem::gadgets::{harpoon, two_partition_gadget};
    use treemem::minmem::min_mem;
    use treemem::postorder::best_postorder;
    use treemem::tree::TreeBuilder;

    /// The original [`divisible_lower_bound`]: at every deficit step it filters
    /// all `p` nodes and sorts the resident ones by position.  Retained as the
    /// oracle the resident-set walk is pinned to.
    fn divisible_lower_bound_naive(
        tree: &Tree,
        traversal: &Traversal,
        memory: Size,
    ) -> Result<Size, MinIoError> {
        let positions = traversal.check_precedence(tree)?;

        let root = tree.root();
        let mut in_core: Vec<Size> = vec![0; tree.len()];
        in_core[root] = tree.f(root);
        let mut resident_total = tree.f(root);
        let mut io_volume: Size = 0;

        for &node in traversal.order() {
            let requirement = tree.mem_req(node);
            if requirement > memory {
                return Err(MinIoError::InsufficientMemory {
                    node,
                    required: requirement,
                    memory,
                });
            }
            resident_total += tree.f(node) - in_core[node];
            in_core[node] = tree.f(node);

            let during = resident_total + tree.n(node) + tree.children_file_sum(node);
            if during > memory {
                let mut deficit = during - memory;
                let mut candidates: Vec<NodeId> = tree
                    .nodes()
                    .filter(|&i| i != node && in_core[i] > 0)
                    .collect();
                candidates.sort_by(|&a, &b| positions[b].cmp(&positions[a]));
                for i in candidates {
                    if deficit <= 0 {
                        break;
                    }
                    let take = in_core[i].min(deficit);
                    in_core[i] -= take;
                    resident_total -= take;
                    io_volume += take;
                    deficit -= take;
                }
                debug_assert!(
                    deficit <= 0,
                    "divisible eviction can always cover the deficit"
                );
            }

            resident_total -= in_core[node];
            in_core[node] = 0;
            for &child in tree.children(node) {
                in_core[child] = tree.f(child);
                resident_total += tree.f(child);
            }
        }
        Ok(io_volume)
    }

    /// The resident-set walk against its oracle on the corpora the simulator
    /// is pinned on: the golden-parity gadgets and random trees, the seeded
    /// random battery of `proptest_minio` (zero-size files included), and the
    /// deep comb with one deficit per spine step.
    #[test]
    fn divisible_bound_equals_its_scan_and_sort_oracle() {
        use prng::{Rng, StdRng};
        use treemem::gadgets::harpoon_tower;
        use treemem::postorder::natural_postorder;
        use treemem::random::comb;

        let agree = |tree: &Tree, traversal: &Traversal, memory: Size, context: &str| {
            assert_eq!(
                divisible_lower_bound(tree, traversal, memory),
                divisible_lower_bound_naive(tree, traversal, memory),
                "{context} @ {memory}"
            );
        };
        for (label, tree) in [
            ("harpoon(4,400,1)", harpoon(4, 400, 1)),
            ("harpoon(6,120,3)", harpoon(6, 120, 3)),
            ("harpoon_tower(3,300,2,2)", harpoon_tower(3, 300, 2, 2)),
            (
                "two_partition",
                two_partition_gadget(&[3, 5, 2, 4, 6, 4]).tree,
            ),
        ] {
            let po = best_postorder(&tree);
            let lower = tree.max_mem_req();
            // One budget below max MemReq: both must report the same node.
            for memory in [lower - 1, lower, (lower + po.peak) / 2, po.peak] {
                agree(&tree, &po.traversal, memory, label);
            }
        }
        for seed in 0..364 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(2..=40usize);
            let parents: Vec<Option<usize>> = (0..n)
                .map(|i| (i > 0).then(|| rng.gen_range(0..i)))
                .collect();
            let files: Vec<Size> = (0..n).map(|_| rng.gen_range(0..=100 as Size)).collect();
            let execs: Vec<Size> = (0..n).map(|_| rng.gen_range(0..=10 as Size)).collect();
            let tree = Tree::from_parents(&parents, &files, &execs).unwrap();
            let lower = tree.max_mem_req();
            let (po, opt) = (best_postorder(&tree), min_mem(&tree));
            for (traversal, peak) in [(&po.traversal, po.peak), (&opt.traversal, opt.peak)] {
                agree(&tree, traversal, lower - 1, &format!("seed {seed}"));
                for quarter in 0..=4 {
                    let memory = lower + (peak - lower) * quarter / 4;
                    agree(&tree, traversal, memory, &format!("seed {seed}"));
                }
            }
        }
        let tree = comb(10_000, 50, 3);
        let po = natural_postorder(&tree);
        let bound = divisible_lower_bound(&tree, &po.traversal, tree.max_mem_req()).unwrap();
        assert!(bound > 0);
        agree(&tree, &po.traversal, tree.max_mem_req(), "comb(10000,50,3)");
    }

    /// Where the lazy resident set is built, against the bound's oracle: a
    /// first deficit at step 1 (at step 0 only the root's file is resident,
    /// so a deficit there is an `InsufficientMemory`), no deficit at all, a
    /// deficit only at step p − 2 evicting the file at position p − 1 (the
    /// last step with an evictable file), and `InsufficientMemory` at step 0
    /// and after the set was built.
    #[test]
    fn lazy_start_cases_match_the_bound_oracle() {
        // Root (0, 0) with a heavy first child and `leaves` light leaves.
        let fan = |leaves: usize, last_leaf_n: Size| {
            let mut b = TreeBuilder::new();
            let r = b.add_root(0, 0);
            b.add_child(r, 10, 300);
            for i in 0..leaves {
                let n = if i + 1 == leaves { last_leaf_n } else { 0 };
                b.add_child(r, 1 + (i as Size * 7) % 13, n);
            }
            b.build().unwrap()
        };
        // Root (0, 0), a chain of light nodes ending in a heavy one, then a
        // leaf of size 50 stored (and run) last.
        let chain_then_leaf = |chain: usize| {
            let mut b = TreeBuilder::new();
            let r = b.add_root(0, 0);
            let mut parent = r;
            for i in 0..chain {
                parent = b.add_child(parent, 1, if i + 1 == chain { 400 } else { 0 });
            }
            b.add_child(r, 50, 0);
            b.build().unwrap()
        };
        let natural = |tree: &Tree| Traversal::new(tree.nodes().collect());
        // The steps that run short before anything is evicted.
        let deficit_steps = |tree: &Tree, memory: Size| {
            let profile = natural(tree).memory_profile(tree).unwrap();
            let steps = profile.steps.iter().enumerate();
            steps
                .filter(|(_, s)| s.during > memory)
                .map(|(step, _)| step)
                .collect::<Vec<_>>()
        };

        let tree = fan(100, 0);
        let memory = tree.max_mem_req();
        assert_eq!(deficit_steps(&tree, memory).first(), Some(&1));
        let bound = divisible_lower_bound(&tree, &natural(&tree), memory).unwrap();
        assert!(bound > 0);
        assert_eq!(
            Ok(bound),
            divisible_lower_bound_naive(&tree, &natural(&tree), memory)
        );

        let tree = harpoon(6, 120, 3);
        let po = best_postorder(&tree);
        assert_eq!(divisible_lower_bound(&tree, &po.traversal, po.peak), Ok(0));

        let tree = chain_then_leaf(4095);
        let memory = tree.max_mem_req();
        assert_eq!(deficit_steps(&tree, memory), [tree.len() - 2]);
        let bound = divisible_lower_bound(&tree, &natural(&tree), memory);
        assert_eq!(bound, Ok(50));
        assert_eq!(
            bound,
            divisible_lower_bound_naive(&tree, &natural(&tree), memory)
        );

        for (tree, memory, node) in [
            (fan(100, 0), fan(100, 0).max_mem_req() - 1, 0),
            (fan(100, 1000), fan(100, 0).max_mem_req(), 101),
        ] {
            let bound = divisible_lower_bound(&tree, &natural(&tree), memory);
            assert!(
                matches!(bound, Err(MinIoError::InsufficientMemory { node: n, .. }) if n == node)
            );
            assert_eq!(
                bound,
                divisible_lower_bound_naive(&tree, &natural(&tree), memory)
            );
        }
    }

    /// A probe that fires at its `k`-th poll stops both walks of a 10⁵-node
    /// comb there, and a probe that never fires changes nothing.
    #[test]
    fn a_fired_probe_stops_both_walks() {
        use std::cell::Cell;
        use treemem::postorder::natural_postorder;
        use treemem::random::comb;

        let tree = comb(50_000, 1_000, 11);
        let traversal = natural_postorder(&tree).traversal;
        let memory = tree.max_mem_req();
        let walk = Walk::new(&tree, &traversal).unwrap();
        let polls = Cell::new(0usize);
        let fires_at = |k: usize| {
            let polls = &polls;
            polls.set(0);
            move || {
                polls.set(polls.get() + 1);
                polls.get() >= k
            }
        };

        let probe = fires_at(5);
        let run = walk.schedule_io(&tree, &traversal, memory, Policy::Lsnf, Some(&probe));
        assert!(matches!(run, Ok(None)));
        assert_eq!(polls.get(), 5);
        let probe = fires_at(5);
        assert_eq!(
            walk.divisible_bound(&tree, &traversal, memory, Some(&probe)),
            Ok(None)
        );
        assert_eq!(polls.get(), 5);

        let never = || false;
        let run = walk
            .schedule_io(&tree, &traversal, memory, Policy::Lsnf, Some(&never))
            .unwrap()
            .expect("a probe that never fires lets the walk finish");
        let plain = schedule_io_with(&tree, &traversal, memory, Policy::Lsnf).unwrap();
        assert!(run.io_volume > 0);
        assert_eq!(
            (run.io_volume, run.files_written, run.schedule),
            (plain.io_volume, plain.files_written, plain.schedule)
        );
        assert_eq!(
            walk.divisible_bound(&tree, &traversal, memory, Some(&never)),
            divisible_lower_bound(&tree, &traversal, memory).map(Some)
        );
    }

    #[test]
    fn a_walk_rejects_an_invalid_traversal() {
        let tree = harpoon(3, 300, 1);
        let mut order: Vec<NodeId> = best_postorder(&tree).traversal.into_order();
        order.swap(0, 1);
        assert!(matches!(
            Walk::new(&tree, &Traversal::new(order)),
            Err(MinIoError::InvalidTraversal(
                TraversalError::PrecedenceViolation { .. }
            ))
        ));
    }

    #[test]
    fn no_io_when_memory_is_sufficient() {
        let tree = harpoon(3, 300, 1);
        let po = best_postorder(&tree);
        for policy in Policy::ALL {
            let run = schedule_io_with(&tree, &po.traversal, po.peak, policy).unwrap();
            assert_eq!(run.io_volume, 0, "{}", policy.name());
            assert_eq!(run.files_written, 0);
            assert_eq!(run.peak_memory, po.peak);
        }
    }

    #[test]
    fn io_appears_below_the_peak_and_respects_memory() {
        let tree = harpoon(4, 400, 1);
        let po = best_postorder(&tree);
        let opt = min_mem(&tree);
        for memory in [tree.max_mem_req(), opt.peak, (opt.peak + po.peak) / 2] {
            for policy in Policy::ALL {
                let name = policy.name();
                let run = schedule_io_with(&tree, &po.traversal, memory, policy).unwrap();
                assert!(run.peak_memory <= memory, "{name} with memory {memory}");
                // Re-validate with the independent Algorithm 2 checker.
                let check = check_out_of_core(&tree, &po.traversal, &run.schedule, memory).unwrap();
                assert_eq!(check.io_volume, run.io_volume);
                // The divisible bound is a lower bound.
                let bound = divisible_lower_bound(&tree, &po.traversal, memory).unwrap();
                assert!(
                    bound <= run.io_volume,
                    "{name}: bound {bound} > {}",
                    run.io_volume
                );
            }
        }
    }

    #[test]
    fn lsnf_matches_divisible_bound_when_files_align() {
        // All files the same size: LSNF evicts exactly the deficit rounded up
        // to a multiple of the file size, and the divisible bound differs by
        // less than one file.
        let mut b = TreeBuilder::new();
        let r = b.add_root(0, 0);
        for _ in 0..6 {
            let c = b.add_child(r, 10, 0);
            b.add_child(c, 10, 0);
        }
        let tree = b.build().unwrap();
        let po = best_postorder(&tree);
        // Stay above max MemReq (60) but below the postorder peak (70).
        let memory = po.peak - 8;
        let run = schedule_io_with(&tree, &po.traversal, memory, Policy::Lsnf).unwrap();
        let bound = divisible_lower_bound(&tree, &po.traversal, memory).unwrap();
        assert!(run.io_volume >= bound);
        assert!(run.io_volume - bound < 10);
    }

    #[test]
    fn insufficient_memory_is_reported() {
        let tree = harpoon(3, 300, 1);
        let po = best_postorder(&tree);
        let too_small = tree.max_mem_req() - 1;
        for policy in Policy::ALL {
            let err = schedule_io_with(&tree, &po.traversal, too_small, policy).unwrap_err();
            assert!(
                matches!(err, MinIoError::InsufficientMemory { .. }),
                "{}",
                policy.name()
            );
        }
    }

    #[test]
    fn first_fit_prefers_a_single_large_file() {
        // Root produces one big file (90) and three small ones (10 each);
        // executing the child that needs 85 free requires evicting either the
        // big file (First Fit: one write of 90) or several small ones.
        let mut b = TreeBuilder::new();
        let r = b.add_root(0, 0);
        let big = b.add_child(r, 90, 0);
        b.add_child(big, 1, 0);
        let mut needy = 0;
        for _ in 0..3 {
            needy = b.add_child(r, 10, 0);
            b.add_child(needy, 95, 0);
        }
        let tree = b.build().unwrap();
        // Traversal: root, then the last small branch (which needs 95 extra).
        let order = vec![r, needy, needy + 1, 3, 4, 5, 6, big, big + 1];
        let traversal = treemem::Traversal::new(order);
        let memory = 125;
        let first_fit = schedule_io_with(&tree, &traversal, memory, Policy::FirstFit).unwrap();
        let lsnf = schedule_io_with(&tree, &traversal, memory, Policy::Lsnf).unwrap();
        // First Fit writes a single file, LSNF may write several smaller ones.
        assert_eq!(first_fit.files_written, 1);
        assert!(first_fit.io_volume >= 90);
        assert!(lsnf.files_written >= 1);
    }

    #[test]
    fn two_partition_gadget_behaviour() {
        // With a solvable 2-Partition instance, an I/O volume of exactly S/2
        // is reachable; the heuristics are not guaranteed to find it (the
        // problem is NP-complete) but must stay within the trivial bounds and
        // produce feasible schedules.
        let gadget = two_partition_gadget(&[3, 5, 2, 4, 6, 4]);
        let tree = &gadget.tree;
        // Order: root, T_big, its leaf, then every item branch.
        let mut order = vec![
            tree.root(),
            gadget.big_node,
            tree.children(gadget.big_node)[0],
        ];
        for &item in &gadget.item_nodes {
            order.push(item);
            order.push(tree.children(item)[0]);
        }
        let traversal = treemem::Traversal::new(order);
        let bound = divisible_lower_bound(tree, &traversal, gadget.memory).unwrap();
        assert_eq!(
            bound, gadget.io_bound,
            "divisible bound equals S/2 for the gadget"
        );
        for policy in Policy::ALL {
            let run = schedule_io_with(tree, &traversal, gadget.memory, policy).unwrap();
            assert!(run.io_volume >= gadget.io_bound, "{}", policy.name());
            assert!(run.peak_memory <= gadget.memory, "{}", policy.name());
        }
        // Best-K combination explores subsets and finds the exact split for
        // this small instance.
        let best_k =
            schedule_io_with(tree, &traversal, gadget.memory, Policy::BestKComb { k: 6 }).unwrap();
        assert_eq!(best_k.io_volume, gadget.io_bound);
    }
}
