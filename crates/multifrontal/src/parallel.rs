//! Building blocks of the parallel (subtree-concurrent) multifrontal
//! factorization: the shared memory-budget ledger and the partial
//! factorization a worker runs over one subtree.
//!
//! The orchestration itself — cutting the tree into tasks, running them on a
//! worker pool, merging above the cut — lives in the `engine` crate; this
//! module provides the pieces that must live next to the numeric kernel:
//!
//! * [`BudgetLedger`] — the shared memory accountant.  It has two faces.
//!   The *reservation gate* admits a subtree task only when its statically
//!   modeled peak fits in the remaining budget (workers that would overshoot
//!   pick a smaller pending task instead, or block until a running task
//!   releases memory); when nothing is running and nothing fits, the ledger
//!   force-admits the smallest candidate, so a budget below the largest
//!   single frontal matrix degrades to sequential execution instead of
//!   deadlocking.  The *measurement face* is a pair of atomics the
//!   elimination loop feeds directly ([`BudgetLedger::record_live`]),
//!   recording the true high-water mark of live entries across all workers.
//! * [`factor_columns`] — the elimination of one column subset (a subtree
//!   task, or the merge phase above the cut) with per-worker [`FrontArena`]
//!   recycling, returning the computed column values plus the contribution
//!   blocks that outlive the subset.
//! * [`assemble_factor`] — copy the tasks' column values into the flat
//!   value array of a [`CholeskyFactor`].
//!
//! The static peak model reservations are sized with lives on the structure:
//! [`SymbolicStructure::modeled_peak_entries`] is exact for this kernel (the
//! instrumented tests pin measured == model), so reservations are tight
//! rather than heuristic.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use sparsemat::SymmetricCsr;
use treemem::sync::{TrackedCondvar, TrackedMutex};

use crate::dense::FrontArena;
use crate::numeric::{
    eliminate_columns, CholeskyFactor, ContributionStore, FactorizationError, SymbolicStructure,
};

/// Outcome of [`BudgetLedger::select_and_reserve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReserveSelection {
    /// The candidate at this index was admitted and its amount reserved.
    Selected(usize),
    /// Nothing fits while other tasks are running; wait for a release past
    /// the returned generation ([`BudgetLedger::wait_past`]) and retry.
    Blocked(u64),
}

struct Gate {
    /// Sum of admitted-but-unreleased reservations (running task peaks plus
    /// retained contribution blocks of finished tasks).
    reserved: u64,
    /// Tasks currently running (admitted, not yet finished).
    running: usize,
    /// Bumped on every release, so blocked workers can detect progress
    /// without missed wakeups.
    generation: u64,
    /// Set by [`BudgetLedger::cancel`]: blocked workers stop waiting and
    /// drain instead of retrying.
    cancelled: bool,
}

/// The shared memory accountant of a parallel factorization; see the module
/// docs.  All sizes are in matrix entries, the unit of the per-column model.
pub struct BudgetLedger {
    budget: Option<u64>,
    gate: TrackedMutex<Gate>,
    released: TrackedCondvar,
    live_entries: AtomicI64,
    peak_entries: AtomicI64,
    forced: AtomicU64,
}

impl BudgetLedger {
    /// A ledger enforcing `budget` entries (`None` = unbounded: the gate
    /// admits everything and only the measurement face is active).
    pub fn new(budget: Option<u64>) -> Self {
        BudgetLedger {
            budget,
            gate: TrackedMutex::new(
                Gate {
                    reserved: 0,
                    running: 0,
                    generation: 0,
                    cancelled: false,
                },
                "budget-ledger.gate",
            ),
            released: TrackedCondvar::new(),
            live_entries: AtomicI64::new(0),
            peak_entries: AtomicI64::new(0),
            forced: AtomicU64::new(0),
        }
    }

    /// The configured budget, if any.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Admit one of `candidates` (reservation amounts, in the caller's
    /// preference order) and reserve its amount.  The first candidate that
    /// fits wins; when none fits and nothing is running, the *smallest*
    /// candidate is force-admitted (minimal overshoot — this is the
    /// degrade-to-sequential path); when none fits and tasks are running,
    /// the caller should [`wait_past`](BudgetLedger::wait_past) the returned
    /// generation and retry.
    ///
    /// # Panics
    /// Panics if `candidates` is empty.
    pub fn select_and_reserve(&self, candidates: &[u64]) -> ReserveSelection {
        assert!(!candidates.is_empty(), "no candidate to admit");
        let mut gate = self.gate.lock();
        let admitted = match self.budget {
            None => 0,
            Some(budget) => {
                match candidates
                    .iter()
                    .position(|&amount| gate.reserved.saturating_add(amount) <= budget)
                {
                    Some(index) => index,
                    None if gate.running == 0 => {
                        self.forced.fetch_add(1, Ordering::Relaxed);
                        let (index, _) = candidates
                            .iter()
                            .enumerate()
                            .min_by_key(|&(index, &amount)| (amount, index))
                            .expect("candidates is non-empty");
                        index
                    }
                    None => return ReserveSelection::Blocked(gate.generation),
                }
            }
        };
        gate.reserved = gate.reserved.saturating_add(candidates[admitted]);
        gate.running += 1;
        ReserveSelection::Selected(admitted)
    }

    /// Mark an admitted task finished: its reservation shrinks from
    /// `reserved` to `retained` (the contribution blocks it leaves behind
    /// for the merge phase) and blocked workers are woken.
    pub fn finish_task(&self, reserved: u64, retained: u64) {
        let mut gate = self.gate.lock();
        gate.reserved = gate
            .reserved
            .saturating_sub(reserved.saturating_sub(retained));
        gate.running = gate.running.saturating_sub(1);
        gate.generation += 1;
        drop(gate);
        self.released.notify_all();
    }

    /// Drop a retained reservation (after the merge phase consumed the
    /// blocks).
    pub fn release_retained(&self, retained: u64) {
        let mut gate = self.gate.lock();
        gate.reserved = gate.reserved.saturating_sub(retained);
        gate.generation += 1;
        drop(gate);
        self.released.notify_all();
    }

    /// Block until some release happened after `generation` was observed
    /// (returns immediately if one already did) **or** the ledger was
    /// cancelled.  Returns `false` on cancellation: the waiter must drain
    /// instead of retrying its reservation.
    #[must_use = "a false return means the ledger was cancelled"]
    pub fn wait_past(&self, generation: u64) -> bool {
        let mut gate = self.gate.lock();
        while gate.generation <= generation && !gate.cancelled {
            gate = self.released.wait(gate);
        }
        !gate.cancelled
    }

    /// Cancel the ledger: every current and future [`wait_past`] waiter
    /// wakes immediately and is told to drain.  Reservations are left
    /// untouched — running tasks still release them on their own way out,
    /// so the accounting stays consistent while the pool shuts down.
    ///
    /// [`wait_past`]: BudgetLedger::wait_past
    pub fn cancel(&self) {
        let mut gate = self.gate.lock();
        gate.cancelled = true;
        gate.generation += 1;
        drop(gate);
        self.released.notify_all();
    }

    /// Whether [`BudgetLedger::cancel`] was called.
    pub fn is_cancelled(&self) -> bool {
        self.gate.lock().cancelled
    }

    /// Currently reserved entries (tests and diagnostics).
    pub fn reserved(&self) -> u64 {
        self.gate.lock().reserved
    }

    /// How often the gate had to force-admit a task over budget because
    /// nothing was running (0 on a well-provisioned run).
    pub fn forced_admissions(&self) -> u64 {
        self.forced.load(Ordering::Relaxed)
    }

    /// The measurement face: `delta` matrix entries became live (or, when
    /// negative, were freed).  The elimination loop calls this for every
    /// front and contribution block; a coordinator that holds blocks it did
    /// not produce itself charges them the same way.
    pub fn record_live(&self, delta: i64) {
        let now = self.live_entries.fetch_add(delta, Ordering::Relaxed) + delta;
        self.peak_entries.fetch_max(now, Ordering::Relaxed);
    }

    /// High-water mark of live entries across all workers so far.
    pub fn measured_peak_entries(&self) -> u64 {
        self.peak_entries.load(Ordering::Relaxed).max(0) as u64
    }
}

/// The result of factoring one column subset.
#[derive(Debug)]
pub struct SubtreeOutcome {
    /// The values of the computed factor columns, concatenated in the
    /// subset's elimination order (column `j` contributes
    /// `structure.rows(j).len()` of them).
    pub values: Vec<f64>,
    /// Contribution blocks whose parent lies outside the subset (for a
    /// subtree task: the subtree root's block), to be absorbed by the merge
    /// phase.  Their total entries are the reservation the task retains.
    pub blocks: ContributionStore,
}

/// Factor the columns of `order` (a bottom-up order within one subtree task
/// or the above-cut merge set), assembling external children blocks from
/// `blocks_in` and reporting live-memory movements to `ledger`.
///
/// `stop` is an optional cooperative stop probe, checked every few dozen
/// columns inside the elimination loop; a fired probe yields
/// [`FactorizationError::Cancelled`].
pub fn factor_columns(
    matrix: &SymmetricCsr,
    structure: &SymbolicStructure,
    order: &[usize],
    blocks_in: ContributionStore,
    ledger: &BudgetLedger,
    arena: &mut FrontArena,
    stop: Option<&dyn Fn() -> bool>,
) -> Result<SubtreeOutcome, FactorizationError> {
    let mut blocks = blocks_in;
    let values = eliminate_columns(matrix, structure, order, &mut blocks, ledger, arena, stop)?;
    Ok(SubtreeOutcome { values, blocks })
}

/// Copy per-task column values into the flat value array of a full factor
/// over `structure`.  Each part is a column order with the values
/// [`factor_columns`] returned for it.  Returns `InvalidTraversal` if the
/// parts do not cover every column exactly once or a part's value count
/// does not match its order.
pub fn assemble_factor<'a>(
    structure: &Arc<SymbolicStructure>,
    parts: impl IntoIterator<Item = (&'a [usize], &'a [f64])>,
) -> Result<CholeskyFactor, FactorizationError> {
    let n = structure.n();
    let mut values = vec![0.0; structure.factor_nnz()];
    let mut filled = vec![false; n];
    let mut columns = 0usize;
    for (order, mut part) in parts {
        for &j in order {
            if j >= n || std::mem::replace(&mut filled[j], true) {
                return Err(FactorizationError::InvalidTraversal);
            }
            let target = &mut values[structure.col_ptr[j]..structure.col_ptr[j + 1]];
            let Some((column, rest)) = part.split_at_checked(target.len()) else {
                return Err(FactorizationError::InvalidTraversal);
            };
            target.copy_from_slice(column);
            part = rest;
        }
        if !part.is_empty() {
            return Err(FactorizationError::InvalidTraversal);
        }
        columns += order.len();
    }
    if columns != n {
        return Err(FactorizationError::InvalidTraversal);
    }
    Ok(CholeskyFactor {
        structure: Arc::clone(structure),
        values,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numeric::multifrontal_cholesky;
    use sparsemat::gen::{grid2d_matrix, random_spd_pattern, spd_matrix_from_pattern};
    use symbolic::etree::etree_postorder;

    #[test]
    fn unbounded_ledger_admits_everything() {
        let ledger = BudgetLedger::new(None);
        assert_eq!(
            ledger.select_and_reserve(&[u64::MAX, 1]),
            ReserveSelection::Selected(0)
        );
        assert_eq!(ledger.forced_admissions(), 0);
    }

    #[test]
    fn gate_prefers_the_first_fitting_candidate() {
        let ledger = BudgetLedger::new(Some(100));
        assert_eq!(
            ledger.select_and_reserve(&[80, 50]),
            ReserveSelection::Selected(0)
        );
        // 80 reserved: the 90 no longer fits, the 15 does.
        assert_eq!(
            ledger.select_and_reserve(&[90, 15]),
            ReserveSelection::Selected(1)
        );
        assert_eq!(ledger.reserved(), 95);
        // Nothing fits while two tasks run: blocked.
        assert!(matches!(
            ledger.select_and_reserve(&[90, 15]),
            ReserveSelection::Blocked(_)
        ));
        assert_eq!(ledger.forced_admissions(), 0);
    }

    #[test]
    fn empty_gate_force_admits_the_smallest_oversized_task() {
        let ledger = BudgetLedger::new(Some(10));
        assert_eq!(
            ledger.select_and_reserve(&[50, 30, 40]),
            ReserveSelection::Selected(1)
        );
        assert_eq!(ledger.forced_admissions(), 1);
        assert_eq!(ledger.reserved(), 30);
        ledger.finish_task(30, 4);
        assert_eq!(ledger.reserved(), 4);
        ledger.release_retained(4);
        assert_eq!(ledger.reserved(), 0);
    }

    #[test]
    fn blocked_workers_wake_after_a_release() {
        let ledger = std::sync::Arc::new(BudgetLedger::new(Some(100)));
        assert_eq!(
            ledger.select_and_reserve(&[100]),
            ReserveSelection::Selected(0)
        );
        let ReserveSelection::Blocked(generation) = ledger.select_and_reserve(&[60]) else {
            panic!("expected Blocked");
        };
        let waiter = {
            let ledger = ledger.clone();
            std::thread::spawn(move || {
                assert!(ledger.wait_past(generation), "woken by a release");
                ledger.select_and_reserve(&[60])
            })
        };
        ledger.finish_task(100, 0);
        assert_eq!(
            waiter.join().expect("waiter survived"),
            ReserveSelection::Selected(0)
        );
    }

    #[test]
    fn cancellation_wakes_and_drains_blocked_waiters() {
        let ledger = std::sync::Arc::new(BudgetLedger::new(Some(100)));
        assert_eq!(
            ledger.select_and_reserve(&[100]),
            ReserveSelection::Selected(0)
        );
        let ReserveSelection::Blocked(generation) = ledger.select_and_reserve(&[60]) else {
            panic!("expected Blocked");
        };
        let waiter = {
            let ledger = ledger.clone();
            std::thread::spawn(move || ledger.wait_past(generation))
        };
        ledger.cancel();
        assert!(!waiter.join().expect("waiter survived"), "told to drain");
        assert!(ledger.is_cancelled());
        // A waiter arriving after the cancellation drains immediately too.
        assert!(!ledger.wait_past(u64::MAX));
        // Reservations still release cleanly on the way out.
        ledger.finish_task(100, 0);
        assert_eq!(ledger.reserved(), 0);
    }

    #[test]
    fn measurement_face_tracks_the_high_water_mark() {
        let ledger = BudgetLedger::new(None);
        ledger.record_live(100); // front allocated
        ledger.record_live(81 - 100); // released into its 81-entry block
        ledger.record_live(49);
        assert_eq!(ledger.measured_peak_entries(), 130);
        ledger.record_live(-81); // block consumed
        ledger.record_live(-49);
        assert_eq!(ledger.measured_peak_entries(), 130);
    }

    #[test]
    fn split_factorization_matches_the_sequential_factor_bitwise() {
        let matrix = spd_matrix_from_pattern(&random_spd_pattern(120, 3.5, 9), 9);
        let n = matrix.n();
        let structure = Arc::new(SymbolicStructure::from_pattern(&matrix.pattern()));
        let order = etree_postorder(&structure.etree);
        let reference = multifrontal_cholesky(&matrix, Some(&order)).unwrap();

        // Split the postorder at an arbitrary point: the prefix plays the
        // subtree tasks, the suffix the merge phase fed by the leftovers.
        let ledger = BudgetLedger::new(None);
        let mut arena = FrontArena::new();
        let (prefix, suffix) = order.split_at(2 * n / 3);
        let first = factor_columns(
            &matrix,
            &structure,
            prefix,
            ContributionStore::new(),
            &ledger,
            &mut arena,
            None,
        )
        .unwrap();
        let second = factor_columns(
            &matrix,
            &structure,
            suffix,
            first.blocks,
            &ledger,
            &mut arena,
            None,
        )
        .unwrap();
        assert!(second.blocks.is_empty());
        let assembled = assemble_factor(
            &structure,
            [
                (prefix, first.values.as_slice()),
                (suffix, second.values.as_slice()),
            ],
        )
        .unwrap();
        assert!(Arc::ptr_eq(&assembled.structure, &structure));
        assert_eq!(assembled.values, reference.values);
    }

    #[test]
    fn missing_external_blocks_are_a_scheduling_error() {
        let matrix = grid2d_matrix(4, 4, 3);
        let structure = SymbolicStructure::from_pattern(&matrix.pattern());
        let order = etree_postorder(&structure.etree);
        // Feed the merge suffix without the prefix's blocks.
        let suffix = &order[order.len() - 3..];
        let ledger = BudgetLedger::new(None);
        let outcome = factor_columns(
            &matrix,
            &structure,
            suffix,
            ContributionStore::new(),
            &ledger,
            &mut FrontArena::new(),
            None,
        );
        assert!(matches!(outcome, Err(FactorizationError::InvalidTraversal)));
    }

    #[test]
    fn modeled_peak_matches_the_measured_peak() {
        let matrix = spd_matrix_from_pattern(&random_spd_pattern(90, 3.0, 4), 4);
        let structure = SymbolicStructure::from_pattern(&matrix.pattern());
        let order = etree_postorder(&structure.etree);

        let ledger = BudgetLedger::new(None);
        let outcome = factor_columns(
            &matrix,
            &structure,
            &order,
            ContributionStore::new(),
            &ledger,
            &mut FrontArena::new(),
            None,
        )
        .unwrap();
        assert_eq!(outcome.values.len(), structure.factor_nnz());
        let (modeled, final_live) = structure.modeled_peak_entries(&order, 0);
        assert_eq!(modeled, ledger.measured_peak_entries());
        assert_eq!(final_live, 0);
    }

    #[test]
    fn assemble_factor_rejects_gaps_duplicates_and_miscounted_values() {
        // A 2-column diagonal structure: one value per column.
        let structure = Arc::new(SymbolicStructure::from_pattern(
            &sparsemat::SparsePattern::from_edges(2, &[]),
        ));
        let assemble = |parts: &[(&[usize], &[f64])]| {
            assemble_factor(&structure, parts.iter().copied()).map(|factor| factor.values)
        };
        assert_eq!(
            assemble(&[(&[1], &[4.0]), (&[0], &[3.0])]).unwrap(),
            [3.0, 4.0]
        );
        for bad in [
            &[(&[0usize][..], &[1.0][..])][..],        // column 1 missing
            &[(&[0, 0], &[1.0, 1.0])],                 // column 0 twice
            &[(&[0], &[1.0]), (&[0, 1], &[1.0, 1.0])], // ditto, across parts
            &[(&[0, 2], &[1.0, 1.0])],                 // out of range
            &[(&[0, 1], &[1.0])],                      // too few values
            &[(&[0, 1], &[1.0, 1.0, 1.0])],            // too many values
        ] {
            assert!(matches!(
                assemble(bad),
                Err(FactorizationError::InvalidTraversal)
            ));
        }
    }
}
