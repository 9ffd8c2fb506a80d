//! Test oracles shared by the simulator's parity batteries.

use minio::policy::lsnf_fill;
use minio::{Candidate, EvictionContext, IoSchedule, MinIoError, OutOfCoreRun, Policy};
use treemem::traversal::Traversal;
use treemem::tree::{Size, Tree};

/// The original (seed) implementation of [`minio::schedule_io_with`]: at
/// every deficit step it rebuilds the candidate list by scanning **all** `p`
/// nodes and re-sorting by traversal position, making a simulated run
/// O(p² log p) on traversals with many deficit steps.
///
/// Kept verbatim for one purpose only: the parity tests pin the
/// incremental simulator to it cell by cell.
pub fn schedule_io_naive(
    tree: &Tree,
    traversal: &Traversal,
    memory: Size,
    policy: &dyn Policy,
) -> Result<OutOfCoreRun, MinIoError> {
    traversal.check_precedence(tree)?;
    let positions = traversal.positions(tree.len())?;
    let mut session = policy.session(tree, traversal);

    let root = tree.root();
    let mut resident = vec![false; tree.len()];
    resident[root] = true;
    let mut evicted = vec![false; tree.len()];
    // Step at which each file appeared in memory (root: before step 0).
    let mut produced_at = vec![0usize; tree.len()];
    let mut resident_total = tree.f(root);
    let mut schedule = IoSchedule::empty(tree.len());
    let mut io_volume: Size = 0;
    let mut files_written = 0usize;
    let mut peak: Size = tree.f(root);

    for (step, &node) in traversal.order().iter().enumerate() {
        // Read the node's input file back first if it was evicted earlier.
        if evicted[node] && !resident[node] {
            resident[node] = true;
            resident_total += tree.f(node);
        }

        let requirement = tree.mem_req(node);
        if requirement > memory {
            return Err(MinIoError::InsufficientMemory {
                node,
                required: requirement,
                memory,
            });
        }

        // Memory needed while the node executes, given what is resident.
        let during = resident_total + tree.n(node) + tree.children_file_sum(node);
        if during > memory {
            let deficit = during - memory;
            // Candidate files: resident, already produced, not the one being
            // executed; ordered by latest use first.
            let mut candidates: Vec<Candidate> = tree
                .nodes()
                .filter(|&i| i != node && resident[i])
                .map(|i| Candidate {
                    node: i,
                    size: tree.f(i),
                    produced_at: produced_at[i],
                })
                .collect();
            candidates.sort_by(|a, b| positions[b.node].cmp(&positions[a.node]));

            let ctx = EvictionContext {
                tree,
                positions: &positions,
                step,
                node,
                deficit,
                candidates: &candidates,
            };
            let raw = session.select(&ctx);
            // Sanitise: keep the first occurrence of each in-range index,
            // then complete any shortfall with the LSNF fallback.
            let mut chosen: Vec<usize> = Vec::with_capacity(raw.len());
            let mut taken = vec![false; candidates.len()];
            let mut freed: Size = 0;
            for idx in raw {
                if idx < candidates.len() && !taken[idx] {
                    taken[idx] = true;
                    chosen.push(idx);
                    freed += candidates[idx].size;
                }
            }
            if freed < deficit {
                let rest = lsnf_fill(&candidates, deficit - freed, &chosen);
                chosen.extend(rest);
            }
            for &idx in &chosen {
                let candidate = candidates[idx];
                resident[candidate.node] = false;
                evicted[candidate.node] = true;
                resident_total -= candidate.size;
                io_volume += candidate.size;
                files_written += 1;
                schedule.set_eviction(candidate.node, step);
            }
        }

        let during = resident_total + tree.n(node) + tree.children_file_sum(node);
        debug_assert!(during <= memory, "selection must cover the deficit");
        peak = peak.max(during);

        // Execute the node.
        resident[node] = false;
        resident_total -= tree.f(node);
        for &child in tree.children(node) {
            resident[child] = true;
            produced_at[child] = step + 1;
            resident_total += tree.f(child);
        }
        session.observe_execution(step, node, tree);
    }

    Ok(OutOfCoreRun {
        io_volume,
        read_volume: io_volume,
        files_written,
        peak_memory: peak,
        schedule,
    })
}
