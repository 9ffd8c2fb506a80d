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
//!   recycling, returning the computed factor columns plus the contribution
//!   blocks that outlive the subset.
//! * [`modeled_peak_entries`] — the static peak model of a column subset,
//!   which is exact for this kernel (the instrumented tests pin measured ==
//!   model), so reservations are tight rather than heuristic.
//! * [`assemble_factor`] — scatter the tasks' [`FactorColumn`]s back into a
//!   [`CholeskyFactor`].

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use sparsemat::SymmetricCsr;
use treemem::sync::{TrackedCondvar, TrackedMutex};

use crate::dense::{FrontArena, FrontKernel};
use crate::numeric::{
    eliminate_columns, CholeskyFactor, ContributionStore, FactorColumn, FactorizationError,
    SymbolicStructure,
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
    /// The computed factor columns, in elimination order.
    pub columns: Vec<FactorColumn>,
    /// Contribution blocks whose parent lies outside the subset (for a
    /// subtree task: the subtree root's block), to be absorbed by the merge
    /// phase.
    pub blocks: ContributionStore,
    /// Total entries of `blocks` (the reservation to retain).
    pub block_entries: u64,
}

/// Factor the columns of `order` (a bottom-up order within one subtree task
/// or the above-cut merge set), assembling external children blocks from
/// `blocks_in` and reporting live-memory movements to `ledger`.
///
/// `children` is `structure.etree.children()`, computed once by the caller
/// and shared by every task.
pub fn factor_columns(
    matrix: &SymmetricCsr,
    structure: &SymbolicStructure,
    children: &[Vec<usize>],
    order: &[usize],
    blocks_in: ContributionStore,
    ledger: &BudgetLedger,
    arena: &mut FrontArena,
) -> Result<SubtreeOutcome, FactorizationError> {
    factor_columns_with(
        matrix,
        structure,
        children,
        order,
        blocks_in,
        ledger,
        arena,
        FrontKernel::default(),
        None,
    )
}

/// [`factor_columns`] with an explicit dense elimination kernel and an
/// optional cooperative stop probe (checked every few dozen columns inside
/// the elimination loop; a fired probe yields
/// [`FactorizationError::Cancelled`]).  The kernel choice (and with it the
/// panel width) rides alongside the per-worker `arena`: both are plain
/// per-task state, so switching kernels changes neither the arena's
/// retention bound nor the assembly order the bit-reproducibility guarantee
/// rests on.
#[allow(clippy::too_many_arguments)]
pub fn factor_columns_with(
    matrix: &SymmetricCsr,
    structure: &SymbolicStructure,
    children: &[Vec<usize>],
    order: &[usize],
    blocks_in: ContributionStore,
    ledger: &BudgetLedger,
    arena: &mut FrontArena,
    kernel: FrontKernel,
    stop: Option<&dyn Fn() -> bool>,
) -> Result<SubtreeOutcome, FactorizationError> {
    let mut pending = blocks_in;
    let mut columns = Vec::with_capacity(order.len());
    eliminate_columns(
        matrix,
        structure,
        children,
        order,
        &mut pending,
        &mut columns,
        ledger,
        arena,
        kernel,
        stop,
    )?;
    let block_entries = pending.total_entries();
    Ok(SubtreeOutcome {
        columns,
        blocks: pending,
        block_entries,
    })
}

/// The static live-entries model of factoring `order` with this kernel,
/// starting from `initial_live` external entries (the blocks a merge phase
/// inherits).  Returns `(peak, final_live)`.
///
/// `counts` are the factor column counts (`µ(j)`,
/// [`SymbolicStructure::column_counts`]) and `parents` the elimination-tree
/// parents.  The model replays the kernel's exact event order — front
/// allocated, children blocks consumed, front released into a `(µ−1)²`
/// contribution block — so for a fixed column subset it matches the
/// measured footprint entry for entry, which is what makes ledger
/// reservations tight.
pub fn modeled_peak_entries(
    counts: &[usize],
    parents: &[Option<usize>],
    children: &[Vec<usize>],
    order: &[usize],
    initial_live: u64,
) -> (u64, u64) {
    let block_entries = |column: usize| -> u64 {
        let mu = counts[column] as u64;
        if mu > 1 && parents[column].is_some() {
            (mu - 1) * (mu - 1)
        } else {
            0
        }
    };
    let mut live = initial_live;
    let mut peak = live;
    for &j in order {
        let mu = counts[j] as u64;
        live += mu * mu;
        peak = peak.max(live);
        for &c in &children[j] {
            live = live.saturating_sub(block_entries(c));
        }
        live -= mu * mu;
        live += block_entries(j);
        peak = peak.max(live);
    }
    (peak, live)
}

/// Scatter per-task [`FactorColumn`]s into a full `n`-column factor.
/// Returns `InvalidTraversal` if the parts do not cover every column exactly
/// once.
pub fn assemble_factor(
    n: usize,
    parts: impl IntoIterator<Item = FactorColumn>,
) -> Result<CholeskyFactor, FactorizationError> {
    let mut columns: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut filled = 0usize;
    for (j, rows, column_values) in parts {
        if j >= n || !columns[j].is_empty() {
            return Err(FactorizationError::InvalidTraversal);
        }
        columns[j] = rows;
        values[j] = column_values;
        filled += 1;
    }
    if filled != n {
        return Err(FactorizationError::InvalidTraversal);
    }
    Ok(CholeskyFactor { columns, values })
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
        let structure = SymbolicStructure::from_pattern(&matrix.pattern());
        let children = structure.etree.children();
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
            &children,
            prefix,
            ContributionStore::new(),
            &ledger,
            &mut arena,
        )
        .unwrap();
        let second = factor_columns(
            &matrix,
            &structure,
            &children,
            suffix,
            first.blocks,
            &ledger,
            &mut arena,
        )
        .unwrap();
        assert!(second.blocks.is_empty());
        let assembled =
            assemble_factor(n, first.columns.into_iter().chain(second.columns)).unwrap();
        for j in 0..n {
            assert_eq!(assembled.columns[j], reference.columns[j]);
            assert_eq!(assembled.values[j], reference.values[j], "column {j}");
        }
    }

    #[test]
    fn missing_external_blocks_are_a_scheduling_error() {
        let matrix = grid2d_matrix(4, 4, 3);
        let structure = SymbolicStructure::from_pattern(&matrix.pattern());
        let children = structure.etree.children();
        let order = etree_postorder(&structure.etree);
        // Feed the merge suffix without the prefix's blocks.
        let suffix = &order[order.len() - 3..];
        let ledger = BudgetLedger::new(None);
        let outcome = factor_columns(
            &matrix,
            &structure,
            &children,
            suffix,
            ContributionStore::new(),
            &ledger,
            &mut FrontArena::new(),
        );
        assert!(matches!(outcome, Err(FactorizationError::InvalidTraversal)));
    }

    #[test]
    fn modeled_peak_matches_the_measured_peak() {
        let matrix = spd_matrix_from_pattern(&random_spd_pattern(90, 3.0, 4), 4);
        let structure = SymbolicStructure::from_pattern(&matrix.pattern());
        let children = structure.etree.children();
        let counts = structure.column_counts();
        let parents: Vec<Option<usize>> =
            (0..matrix.n()).map(|j| structure.etree.parent(j)).collect();
        let order = etree_postorder(&structure.etree);

        let ledger = BudgetLedger::new(None);
        factor_columns(
            &matrix,
            &structure,
            &children,
            &order,
            ContributionStore::new(),
            &ledger,
            &mut FrontArena::new(),
        )
        .unwrap();
        let (modeled, final_live) = modeled_peak_entries(&counts, &parents, &children, &order, 0);
        assert_eq!(modeled, ledger.measured_peak_entries());
        assert_eq!(final_live, 0);
    }

    #[test]
    fn assemble_factor_rejects_gaps_and_duplicates() {
        assert!(matches!(
            assemble_factor(2, vec![(0, vec![0], vec![1.0])]),
            Err(FactorizationError::InvalidTraversal)
        ));
        assert!(matches!(
            assemble_factor(1, vec![(0, vec![0], vec![1.0]), (0, vec![0], vec![1.0])]),
            Err(FactorizationError::InvalidTraversal)
        ));
    }
}
