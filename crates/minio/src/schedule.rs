//! Out-of-core traversal schedules and their validation (Algorithm 2 and
//! Definition 3 of the paper).
//!
//! An out-of-core traversal is a node ordering `σ` together with an eviction
//! map `τ`: `τ(i)` is the step (just before which) the input file of node `i`
//! is written to secondary memory, or `None` if the file never leaves main
//! memory.  A file can only be evicted after it has been produced
//! (`σ(parent(i)) < τ(i)`) and before its owner executes (`τ(i) < σ(i)`); it
//! is read back right before its owner executes, so every file is written at
//! most once and read at most once.

use treemem::error::TraversalError;
use treemem::traversal::Traversal;
use treemem::tree::{NodeId, Size, Tree};

/// Eviction schedule: for every node, the step (0-based index into the
/// traversal) just before which its input file is written to secondary
/// memory, or `None` if it stays in main memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoSchedule {
    evict_before_step: Vec<Option<usize>>,
}

impl IoSchedule {
    /// A schedule with no eviction at all (feasible only when the memory is
    /// at least the peak of the traversal).
    pub fn empty(num_nodes: usize) -> Self {
        IoSchedule {
            evict_before_step: vec![None; num_nodes],
        }
    }

    /// The step before which node `i`'s file is evicted, if any.
    pub fn eviction_step(&self, i: NodeId) -> Option<usize> {
        self.evict_before_step.get(i).copied().flatten()
    }

    /// Mark node `i`'s file as evicted just before `step`.
    pub fn set_eviction(&mut self, i: NodeId, step: usize) {
        self.evict_before_step[i] = Some(step);
    }

    /// Nodes whose file is evicted, together with the step of the eviction.
    pub fn evictions(&self) -> impl Iterator<Item = (NodeId, usize)> + '_ {
        self.evict_before_step
            .iter()
            .enumerate()
            .filter_map(|(node, step)| step.map(|s| (node, s)))
    }

    /// Total volume written to secondary memory (`IO = Σ_{τ(i) ≠ ∞} f(i)`).
    pub fn io_volume(&self, tree: &Tree) -> Size {
        self.evictions().map(|(node, _)| tree.f(node)).sum()
    }
}

/// Result of a successful [`check_out_of_core`] validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfCoreCheck {
    /// Total volume written to secondary memory.
    pub io_volume: Size,
    /// Peak main-memory usage of the schedule (always `≤ memory`).
    pub peak_memory: Size,
}

/// Algorithm 2 of the paper: check that `(traversal, schedule)` is a feasible
/// out-of-core execution of `tree` within `memory`, and return the I/O
/// volume.
///
/// The check verifies, step by step, that
///
/// * evicted files have already been produced and are still resident when
///   they are evicted,
/// * files are evicted strictly before their owner executes,
/// * precedence constraints hold, and
/// * the resident memory (after evictions and the read-back of the executed
///   node's input file) never exceeds `memory`.
pub fn check_out_of_core(
    tree: &Tree,
    traversal: &Traversal,
    schedule: &IoSchedule,
    memory: Size,
) -> Result<OutOfCoreCheck, TraversalError> {
    let positions = traversal.check_precedence(tree)?;
    check_out_of_core_with_positions(tree, traversal, &positions, schedule, memory)
}

/// [`check_out_of_core`] with the traversal's position map supplied by the
/// caller, who must already have validated the traversal's precedence (the
/// out-of-core simulator passes its [`crate::Walk`]'s positions through
/// here instead of recomputing them).
pub(crate) fn check_out_of_core_with_positions(
    tree: &Tree,
    traversal: &Traversal,
    positions: &[usize],
    schedule: &IoSchedule,
    memory: Size,
) -> Result<OutOfCoreCheck, TraversalError> {
    debug_assert_eq!(positions.len(), tree.len());

    // The evictions as (step, node), sorted: step-major, node order within
    // a step.  A flat list costs O(evictions), where one list per step cost
    // 24 bytes per node even for a schedule that writes nothing.
    let mut evictions: Vec<(usize, NodeId)> = Vec::new();
    for (node, step) in schedule.evictions() {
        if step > traversal.len() {
            return Err(TraversalError::FileNotProduced { node });
        }
        evictions.push((step, node));
    }
    evictions.sort_unstable();
    let mut pending = evictions.iter().peekable();

    let root = tree.root();
    let mut resident = vec![false; tree.len()];
    resident[root] = true;
    let mut written = vec![false; tree.len()];
    let mut resident_total = tree.f(root);
    let mut io_volume: Size = 0;
    let mut peak: Size = tree.f(root);

    for (step, &node) in traversal.order().iter().enumerate() {
        // Evictions scheduled just before this step.
        while let Some(&(_, evicted)) = pending.next_if(|&&(at, _)| at == step) {
            // The file must have been produced: its parent executed earlier
            // (or it is the root file, produced "by the outside world").
            let produced = match tree.parent(evicted) {
                Some(par) => positions[par] < step,
                None => true,
            };
            if !produced {
                return Err(TraversalError::FileNotProduced { node: evicted });
            }
            // It must still be resident and not already consumed: its owner
            // executes strictly later.
            if !resident[evicted] || positions[evicted] < step {
                return Err(TraversalError::FileNotResident { node: evicted });
            }
            resident[evicted] = false;
            written[evicted] = true;
            resident_total -= tree.f(evicted);
            io_volume += tree.f(evicted);
        }

        // Read the input file back if it had been evicted.
        if written[node] && !resident[node] {
            resident[node] = true;
            resident_total += tree.f(node);
        }
        debug_assert!(
            resident[node],
            "input file of the executed node must be resident"
        );

        // Execute the node.
        let during = resident_total + tree.n(node) + tree.children_file_sum(node);
        peak = peak.max(during);
        if during > memory {
            return Err(TraversalError::OutOfMemory {
                step,
                node,
                required: during,
                available: memory,
            });
        }
        resident[node] = false;
        resident_total -= tree.f(node);
        for &child in tree.children(node) {
            resident[child] = true;
            resident_total += tree.f(child);
        }
    }

    Ok(OutOfCoreCheck {
        io_volume,
        peak_memory: peak,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use treemem::tree::TreeBuilder;

    /// Root with two children of size 6 and 4, each with a leaf child.
    fn small_tree() -> Tree {
        let mut b = TreeBuilder::new();
        let r = b.add_root(0, 0);
        let a = b.add_child(r, 6, 0);
        b.add_child(a, 2, 0);
        let c = b.add_child(r, 4, 0);
        b.add_child(c, 3, 0);
        b.build().unwrap()
    }

    #[test]
    fn empty_schedule_matches_in_core_check() {
        let tree = small_tree();
        let traversal = Traversal::new(vec![0, 1, 2, 3, 4]);
        let peak = traversal.peak_memory(&tree).unwrap();
        let schedule = IoSchedule::empty(tree.len());
        let check = check_out_of_core(&tree, &traversal, &schedule, peak).unwrap();
        assert_eq!(check.io_volume, 0);
        assert_eq!(check.peak_memory, peak);
        assert!(check_out_of_core(&tree, &traversal, &schedule, peak - 1).is_err());
    }

    #[test]
    fn evicting_a_file_lowers_the_peak() {
        let tree = small_tree();
        // Traversal: root, a, leaf of a, c, leaf of c.
        let traversal = Traversal::new(vec![0, 1, 2, 3, 4]);
        // Without IO, the peak is 10 (processing root produces 6 + 4), and
        // while a executes, c's file (4) is resident: 6 + 2 + 4 = 12.
        assert_eq!(traversal.peak_memory(&tree).unwrap(), 12);
        // Evict c's file right after the root has executed (before step 1)
        // and read it back when c executes (step 3).
        let mut schedule = IoSchedule::empty(tree.len());
        schedule.set_eviction(3, 1);
        let check = check_out_of_core(&tree, &traversal, &schedule, 10).unwrap();
        assert_eq!(check.io_volume, 4);
        assert!(check.peak_memory <= 10);
    }

    #[test]
    fn eviction_before_production_is_rejected() {
        let tree = small_tree();
        let traversal = Traversal::new(vec![0, 1, 2, 3, 4]);
        let mut schedule = IoSchedule::empty(tree.len());
        // Node 2 (leaf of a) is produced by step 1; evicting before step 0 is invalid.
        schedule.set_eviction(2, 0);
        assert_eq!(
            check_out_of_core(&tree, &traversal, &schedule, 100),
            Err(TraversalError::FileNotProduced { node: 2 })
        );
    }

    #[test]
    fn eviction_after_consumption_is_rejected() {
        let tree = small_tree();
        let traversal = Traversal::new(vec![0, 1, 2, 3, 4]);
        let mut schedule = IoSchedule::empty(tree.len());
        // Node 1 executes at step 1; evicting its file before step 3 is too late.
        schedule.set_eviction(1, 3);
        assert_eq!(
            check_out_of_core(&tree, &traversal, &schedule, 100),
            Err(TraversalError::FileNotResident { node: 1 })
        );
    }

    #[test]
    fn io_volume_accounts_every_eviction() {
        let tree = small_tree();
        let mut schedule = IoSchedule::empty(tree.len());
        schedule.set_eviction(3, 1);
        schedule.set_eviction(4, 4);
        assert_eq!(schedule.evictions().count(), 2);
        assert_eq!(schedule.io_volume(&tree), 4 + 3);
        let evictions: Vec<_> = schedule.evictions().collect();
        assert!(evictions.contains(&(3, 1)) && evictions.contains(&(4, 4)));
    }
}
