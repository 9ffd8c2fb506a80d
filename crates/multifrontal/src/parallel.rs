//! Building blocks of the parallel (subtree-concurrent) multifrontal
//! factorization: the shared memory-budget ledger and the hand-out of the
//! factor's columns to the parts that compute them.
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
//! * [`column_slices`] — split one factor-shaped value array into disjoint
//!   [`FactorColumns`], one per column subset (a subtree task, or the merge
//!   phase above the cut), so that
//!   [`eliminate_columns`](crate::numeric::eliminate_columns) writes every
//!   column of `L` once, straight into the factor.
//!
//! The static peak model reservations are sized with lives on the structure:
//! [`SymbolicStructure::modeled_peak_entries`] is exact for this kernel (the
//! instrumented tests pin measured == model), so reservations are tight
//! rather than heuristic.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use treemem::sync::{TrackedCondvar, TrackedMutex};

use crate::numeric::{FactorizationError, SymbolicStructure};

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

/// One part's columns of a factor-shaped value array: column `order[k]`'s
/// `µ` values at `columns()[k]`, as
/// [`eliminate_columns`](crate::numeric::eliminate_columns) writes them.
/// Only [`column_slices`] (disjoint columns of one factor) and
/// [`FactorColumns::packed`] (one buffer, column after column) cut it, so
/// the order and the slices always agree.
#[derive(Debug)]
pub struct FactorColumns<'o, 'v> {
    pub(crate) order: &'o [usize],
    pub(crate) columns: Vec<&'v mut [f64]>,
}

impl<'o, 'v> FactorColumns<'o, 'v> {
    /// The columns of `order` packed one after another in `values`, `µ(j)`
    /// values for column `j` (a distributed task's layout).  A buffer of
    /// another length is `InvalidTraversal`.
    pub fn packed(
        structure: &SymbolicStructure,
        order: &'o [usize],
        values: &'v mut [f64],
    ) -> Result<Self, FactorizationError> {
        let lengths = order.iter().map(|&j| structure.rows(j).len());
        let columns = split(values, lengths).ok_or(FactorizationError::InvalidTraversal)?;
        Ok(Self { order, columns })
    }

    /// The part's column slices, in its elimination order.
    pub fn columns(&self) -> &[&'v mut [f64]] {
        &self.columns
    }

    /// Copy `packed`, these columns in [`Self::packed`]'s layout (a
    /// distributed worker's values), into them.  A vector of another length
    /// is `InvalidTraversal`.
    pub fn unpack(&mut self, packed: &[f64]) -> Result<(), FactorizationError> {
        let mut at = 0;
        for column in &mut self.columns {
            let values = packed.get(at..at + column.len());
            column.copy_from_slice(values.ok_or(FactorizationError::InvalidTraversal)?);
            at += column.len();
        }
        if at != packed.len() {
            return Err(FactorizationError::InvalidTraversal);
        }
        Ok(())
    }
}

/// `values` cut into consecutive slices of `lengths`, or `None` unless they
/// cover it exactly.
fn split(values: &mut [f64], lengths: impl Iterator<Item = usize>) -> Option<Vec<&mut [f64]>> {
    let mut slices = Vec::with_capacity(lengths.size_hint().0);
    let mut rest = values;
    for length in lengths {
        let (slice, tail) = std::mem::take(&mut rest).split_at_mut_checked(length)?;
        slices.push(slice);
        rest = tail;
    }
    rest.is_empty().then_some(slices)
}

/// Split `values`, laid out like the factor over `structure`, into its
/// columns and hand them out by part, in the parts' order.  Parts share no
/// column, so they can write the one array concurrently.  A `values` of
/// another length than `factor_nnz`, or a column out of range, named twice
/// or named by no part, is `InvalidTraversal`.
pub fn column_slices<'o, 'v>(
    structure: &SymbolicStructure,
    values: &'v mut [f64],
    parts: impl IntoIterator<Item = &'o [usize]>,
) -> Result<Vec<FactorColumns<'o, 'v>>, FactorizationError> {
    let lengths = structure.col_ptr.windows(2).map(|w| w[1] - w[0]);
    let columns = split(values, lengths).ok_or(FactorizationError::InvalidTraversal)?;
    let mut untaken: Vec<_> = columns.into_iter().map(Some).collect();
    let parts = parts
        .into_iter()
        .map(|order| {
            let take = |&j: &usize| untaken.get_mut(j).and_then(Option::take);
            let columns = order.iter().map(take).collect::<Option<_>>()?;
            Some(FactorColumns { order, columns })
        })
        .collect::<Option<Vec<_>>>();
    match parts {
        Some(parts) if untaken.iter().all(Option::is_none) => Ok(parts),
        _ => Err(FactorizationError::InvalidTraversal),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::FrontArena;
    use crate::numeric::{eliminate_columns, multifrontal_cholesky, ContributionStore};
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
        let order = etree_postorder(&structure.etree);
        let reference = multifrontal_cholesky(&matrix, Some(&order)).unwrap();

        // Split the postorder at an arbitrary point: the prefix plays the
        // subtree tasks, the suffix the merge phase fed by the leftovers,
        // both writing into one factor-shaped array.
        let ledger = BudgetLedger::new(None);
        let mut arena = FrontArena::new();
        let (prefix, suffix) = order.split_at(2 * n / 3);
        let mut values = vec![f64::NAN; structure.factor_nnz()];
        let mut parts = column_slices(&structure, &mut values, [prefix, suffix]).unwrap();
        let mut blocks = ContributionStore::new();
        for part in &mut parts {
            let blocks = &mut blocks;
            eliminate_columns(&matrix, &structure, part, blocks, &ledger, &mut arena, None)
                .unwrap();
        }
        assert!(blocks.is_empty());
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&values), bits(&reference.values));
    }

    #[test]
    fn missing_external_blocks_are_a_scheduling_error() {
        let matrix = grid2d_matrix(4, 4, 3);
        let structure = SymbolicStructure::from_pattern(&matrix.pattern());
        let order = etree_postorder(&structure.etree);
        // Feed the merge suffix without the prefix's blocks.
        let (prefix, suffix) = order.split_at(order.len() - 3);
        let mut values = vec![0.0; structure.factor_nnz()];
        let mut parts = column_slices(&structure, &mut values, [prefix, suffix]).unwrap();
        let outcome = eliminate_columns(
            &matrix,
            &structure,
            &mut parts[1],
            &mut ContributionStore::new(),
            &BudgetLedger::new(None),
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
        let mut values = vec![f64::NAN; structure.factor_nnz()];
        let mut parts = column_slices(&structure, &mut values, [order.as_slice()]).unwrap();
        eliminate_columns(
            &matrix,
            &structure,
            &mut parts[0],
            &mut ContributionStore::new(),
            &ledger,
            &mut FrontArena::new(),
            None,
        )
        .unwrap();
        assert!(values.iter().all(|v| v.is_finite()), "every column written");
        let (modeled, final_live) = structure.modeled_peak_entries(&order, 0);
        assert_eq!(modeled, ledger.measured_peak_entries());
        assert_eq!(final_live, 0);
    }

    #[test]
    fn column_slices_rejects_gaps_duplicates_and_out_of_range_columns() {
        // A 2-column diagonal structure: one value per column.
        let structure =
            SymbolicStructure::from_pattern(&sparsemat::SparsePattern::from_edges(2, &[]).unwrap());
        let mut values = [0.0; 2];
        let mut parts = column_slices(&structure, &mut values, [&[1][..], &[0]]).unwrap();
        parts[0].unpack(&[4.0]).unwrap();
        parts[1].unpack(&[3.0]).unwrap();
        assert_eq!(values, [3.0, 4.0]);
        // A buffer of another length than the columns it is cut into.
        let whole = [&[0usize, 1][..]];
        let too_long = column_slices(&structure, &mut [0.0; 3], whole).map(drop);
        let too_short = FactorColumns::packed(&structure, whole[0], &mut [0.0; 1]).map(drop);
        for error in [too_long, too_short] {
            assert_eq!(error, Err(FactorizationError::InvalidTraversal));
        }
        for bad in [
            &[&[0usize][..]][..], // column 1 missing
            &[&[0, 0]],           // column 0 twice
            &[&[0], &[0, 1]],     // ditto, across parts
            &[&[0, 2]],           // out of range
        ] {
            assert!(matches!(
                column_slices(&structure, &mut values, bad.iter().copied()),
                Err(FactorizationError::InvalidTraversal)
            ));
        }
    }
}
