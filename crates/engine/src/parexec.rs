//! The numeric execution pipeline: proportional-mapping cut, subtree phase,
//! sequential merge above the cut.  Every numeric run of the engine —
//! sequential, thread-parallel, distributed — goes through [`execute_cut`];
//! the modes differ only in *who runs the subtree tasks* ([`TaskRunner`]).
//!
//! ```text
//!  CutPlan::compute ──▶ subtree phase ──────────────▶ merge_and_assemble ──▶ report
//!  (proportional_cut,    Inline     caller's thread    (above-cut columns,    (run.rs: one
//!   static peaks,        Pool(w)    w threads, budget   tree order, caller's   `Report`
//!   resolved budget)                gate, work stealing thread; assemble)      builder)
//!                        Collected  worker processes
//!                                   already did it
//! ```
//!
//! 1. **Cut** — `treemem::partition::proportional_cut` splits the per-column
//!    model tree into at most `max_tasks` work-balanced subtrees; the nodes
//!    above the cut form the sequential merge set.  The cut depends only on
//!    the tree and `max_tasks`, never on the worker count.  Sequential
//!    execution is the one-task cut: the whole tree is one task and the merge
//!    set is empty.
//! 2. **Subtree phase** — [`TaskRunner::Inline`] runs the tasks one after
//!    another on the caller's thread (no pool, no `parexec:task` fault
//!    point).  [`TaskRunner::Pool`] drains a shared task queue from `workers`
//!    threads, largest task first, with admission through the
//!    [`BudgetLedger`]: a worker reserves a task's statically modeled peak
//!    before starting, takes a *smaller* pending task when the largest would
//!    overshoot the shared budget, blocks when nothing fits while other
//!    tasks run, and force-admits the smallest candidate when the ledger is
//!    idle (so an undersized budget degrades to sequential execution instead
//!    of deadlocking).  [`TaskRunner::Collected`] carries what worker
//!    processes computed via [`Plan::factor_subtree`](crate::Plan) — the
//!    coordinator's job ledger gated their claims.
//! 3. **Merge phase** — the caller's thread absorbs the finished tasks'
//!    root contribution blocks and eliminates the above-cut columns in the
//!    chosen traversal's order.
//!
//! Every column anywhere in the pipeline is eliminated by [`TaskContext::factor`],
//! which reports live entries to the run's one ledger and polls the run's
//! one cancellation token.  The computed factor is bit-identical across
//! modes, worker counts and processes, because each front assembles its
//! children blocks in tree order regardless of who produced them.

use std::sync::Mutex;
use std::time::Instant;

use multifrontal::parallel::{assemble_factor, factor_columns, BudgetLedger, ReserveSelection};
use multifrontal::{CholeskyFactor, ContributionStore, FactorizationError, FrontArena};
use treemem::faultinject::FaultSignal;
use treemem::partition::{default_node_work, proportional_cut};
use treemem::variants::bottom_up_peak;
use treemem::Traversal;

use crate::cancel::CancelToken;
use crate::config::BudgetShare;
use crate::report::CutReport;
use crate::run::{cancelled, check, EngineError, NumericModel, SubtreeParts};

/// The deterministic part of a numeric execution: the cut, the per-piece
/// column orders, and the statically modeled memory peaks the budget ledger
/// gates on.  Depends only on the plan, the traversal order, `max_tasks` and
/// the budget share — never on worker counts or timing — so the in-process
/// runners and the distributed coordinator derive the exact same task set
/// from the same configuration.
pub(crate) struct CutPlan {
    /// Cut granularity the partition was computed with.
    pub max_tasks: usize,
    /// Bottom-up column order of each subtree task (largest work first).
    pub task_orders: Vec<Vec<usize>>,
    /// Statically modeled peak live entries of each task.
    pub task_peaks: Vec<u64>,
    /// Bottom-up column order of the sequential merge phase.
    pub merge_order: Vec<usize>,
    /// Live entries already held when the merge starts: the root
    /// contribution blocks every finished task retains.
    pub merge_initial: u64,
    /// Statically modeled peak of the merge phase (including the retained
    /// task root blocks).
    pub merge_peak: u64,
    /// Peak of the plain sequential execution along the same order.
    pub sequential_peak: i64,
    /// The resolved budget (`None` = unbounded).
    pub budget_entries: Option<u64>,
    /// Tasks whose static peak alone exceeds the budget (forced admissions).
    pub oversized_tasks: usize,
}

impl CutPlan {
    /// Cut `numeric`'s model tree along `order` into at most `max_tasks`
    /// pieces and resolve `budget` against the sequential peak.
    pub fn compute(
        numeric: &NumericModel,
        order: &[usize],
        max_tasks: usize,
        budget: &BudgetShare,
    ) -> Result<CutPlan, EngineError> {
        let structure = &numeric.structure;

        // The cut, on the per-column model tree whose `f + n = µ²` is
        // exactly the flop-proportional work estimate.
        let work = default_node_work(&numeric.model);
        let partition = proportional_cut(&numeric.model, max_tasks, &work);
        let (task_orders, merge_order) = partition.split_order(order);

        // Static peaks: exact for this kernel, so reservations are tight.
        let mut task_peaks = Vec::with_capacity(task_orders.len());
        let mut merge_initial = 0u64;
        for task_order in &task_orders {
            let (peak, retained) = structure.modeled_peak_entries(task_order, 0);
            task_peaks.push(peak);
            merge_initial += retained;
        }
        let (merge_peak, _) = structure.modeled_peak_entries(&merge_order, merge_initial);

        let sequential_peak = bottom_up_peak(&numeric.model, &Traversal::new(order.to_vec()))
            .map_err(|_| EngineError::Factorization(FactorizationError::InvalidTraversal))?;
        let budget_entries = budget.resolve(sequential_peak.max(0) as u64);
        let oversized_tasks = match budget_entries {
            Some(budget) => task_peaks.iter().filter(|&&peak| peak > budget).count(),
            None => 0,
        };
        Ok(CutPlan {
            max_tasks,
            task_orders,
            task_peaks,
            merge_order,
            merge_initial,
            merge_peak,
            sequential_peak,
            budget_entries,
            oversized_tasks,
        })
    }

    /// The cut as it appears in a report's `parallel` / `distributed`
    /// section.
    pub fn report(&self) -> CutReport {
        CutReport {
            max_tasks: self.max_tasks,
            subtree_count: self.task_orders.len(),
            above_cut_nodes: self.merge_order.len(),
            sequential_peak_entries: self.sequential_peak,
            budget_entries: self.budget_entries,
            max_task_peak_entries: self.task_peaks.iter().copied().max().unwrap_or(0),
            merge_peak_entries: self.merge_peak,
            oversized_tasks: self.oversized_tasks,
        }
    }
}

/// Who runs the subtree tasks of a cut — the only thing the execution modes
/// differ in.
pub(crate) enum TaskRunner {
    /// The caller's thread, one task after another.  Sequential execution
    /// is this runner on the one-task cut.
    Inline,
    /// This many threads draining the task queue through the budget gate.
    Pool(usize),
    /// Worker processes already ran the tasks; these are their results, in
    /// task order.
    Collected(Vec<SubtreeParts>),
}

/// What [`execute_cut`] hands the report builder.
pub(crate) struct Executed {
    pub factor: CholeskyFactor,
    /// High-water mark of live entries the ledger saw.
    pub measured_peak_entries: u64,
    /// Times the ledger force-admitted a task over budget.
    pub forced_admissions: u64,
    /// Wall-clock of the merge phase.
    pub merge_seconds: f64,
    /// Per-task wall-clock seconds, in task order (empty unless a pool ran).
    pub task_seconds: Vec<f64>,
    /// Busy seconds per pool worker (empty unless a pool ran).
    pub worker_busy_seconds: Vec<f64>,
}

/// What every column elimination of one run shares: the problem, the run's
/// ledger and the caller's cancellation token.
pub(crate) struct TaskContext<'a> {
    pub numeric: &'a NumericModel,
    pub ledger: &'a BudgetLedger,
    pub cancel: Option<&'a CancelToken>,
}

impl TaskContext<'_> {
    /// Eliminate the columns of `order` (one subtree task, or the merge
    /// set fed by `blocks_in`) on the calling thread.  Live entries go to
    /// the run's ledger; the token is polled every few dozen columns and a
    /// fired one surfaces as the typed numeric-stage cancellation.
    pub fn factor(
        &self,
        order: &[usize],
        blocks_in: ContributionStore,
        arena: &mut FrontArena,
    ) -> Result<SubtreeParts, EngineError> {
        CancelToken::with_stop(self.cancel, |stop| {
            factor_columns(
                &self.numeric.matrix,
                &self.numeric.structure,
                order,
                blocks_in,
                self.ledger,
                arena,
                stop,
            )
        })
        .map_err(|err| match err {
            FactorizationError::Cancelled => cancelled(self.cancel, "numeric"),
            other => EngineError::Factorization(other),
        })
    }
}

/// Run the numeric factorization of `numeric` over `cut`: the subtree phase
/// on `runner`, then the merge phase on the caller's thread; see the module
/// docs.
pub(crate) fn execute_cut(
    numeric: &NumericModel,
    cut: &CutPlan,
    runner: TaskRunner,
    cancel: Option<&CancelToken>,
) -> Result<Executed, EngineError> {
    let ledger = BudgetLedger::new(cut.budget_entries);
    let ctx = TaskContext {
        numeric,
        ledger: &ledger,
        cancel,
    };
    // Only a pool measures per-task and per-worker times.
    let (parts, task_seconds, worker_busy_seconds) = match runner {
        TaskRunner::Inline => (run_inline(&ctx, cut)?, Vec::new(), Vec::new()),
        TaskRunner::Pool(workers) => {
            let (done, worker_busy_seconds) = run_pool(&ctx, cut, workers)?;
            let (parts, task_seconds) = done.into_iter().unzip();
            (parts, task_seconds, worker_busy_seconds)
        }
        TaskRunner::Collected(parts) => {
            if parts.len() != cut.task_orders.len() {
                return Err(EngineError::Internal(format!(
                    "distributed merge expected {} task contributions, got {}",
                    cut.task_orders.len(),
                    parts.len()
                )));
            }
            // The cluster budget gated the *claims* (in the coordinator's
            // job ledger); locally only the merge runs.  The coordinator
            // physically holds the retained root blocks while the merge
            // fronts come and go on top of them.
            ledger.record_live(cut.merge_initial as i64);
            (parts, Vec::new(), Vec::new())
        }
    };
    let (factor, merge_seconds) = merge_and_assemble(&ctx, cut, parts)?;
    Ok(Executed {
        factor,
        measured_peak_entries: ledger.measured_peak_entries(),
        forced_admissions: ledger.forced_admissions(),
        merge_seconds,
        task_seconds,
        worker_busy_seconds,
    })
}

/// The inline subtree phase: every task on the caller's thread, in task
/// order, sharing one arena.  No admission gate (nothing runs concurrently)
/// and no `parexec:task` fault point (there is no task hand-off to lose).
fn run_inline(ctx: &TaskContext<'_>, cut: &CutPlan) -> Result<Vec<SubtreeParts>, EngineError> {
    let mut arena = FrontArena::new();
    cut.task_orders
        .iter()
        .map(|order| ctx.factor(order, ContributionStore::new(), &mut arena))
        .collect()
}

/// Render a `catch_unwind` payload (almost always a `&str` or `String`).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One finished pool task: its parts and its wall-clock seconds.
type TaskDone = (SubtreeParts, f64);

/// The pool workers' shared queue and result slots.
struct PoolState {
    /// Remaining task ids, in admission-preference order (largest work
    /// first — the same order `partition.roots` uses).
    queue: Mutex<Vec<usize>>,
    /// One slot per task; a slot still empty after the pool drained means
    /// the task was lost.
    results: Mutex<Vec<Option<Result<TaskDone, EngineError>>>>,
}

/// The pool subtree phase: `workers` threads drain the queue through the
/// budget gate.  Returns the finished tasks in task order and each worker's
/// busy seconds.
fn run_pool(
    ctx: &TaskContext<'_>,
    cut: &CutPlan,
    workers: usize,
) -> Result<(Vec<TaskDone>, Vec<f64>), EngineError> {
    let task_count = cut.task_orders.len();
    let state = PoolState {
        queue: Mutex::new((0..task_count).collect()),
        results: Mutex::new((0..task_count).map(|_| None).collect()),
    };
    let joined: Vec<std::thread::Result<f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|_| scope.spawn(|| worker_loop(ctx, cut, &state)))
            .collect();
        handles.into_iter().map(|handle| handle.join()).collect()
    });
    let worker_busy_seconds = joined
        .into_iter()
        .collect::<Result<Vec<f64>, _>>()
        .map_err(|payload| {
            EngineError::Internal(format!(
                "parallel worker panicked: {}",
                panic_message(payload)
            ))
        })?;
    check(ctx.cancel, "numeric")?;
    let results = state.results.into_inner().expect("results poisoned");
    let done = results
        .into_iter()
        .enumerate()
        .map(|(task, slot)| {
            slot.ok_or_else(|| {
                EngineError::Internal(format!("parallel subtree task {task} never ran"))
            })?
        })
        .collect::<Result<Vec<TaskDone>, EngineError>>()?;
    Ok((done, worker_busy_seconds))
}

/// One pool worker: drain the queue through the budget gate.  Returns this
/// worker's busy seconds.
fn worker_loop(ctx: &TaskContext<'_>, cut: &CutPlan, state: &PoolState) -> f64 {
    let mut arena = FrontArena::new();
    let mut busy = 0.0;
    loop {
        let task = loop {
            if ctx.cancel.is_some_and(CancelToken::is_cancelled) {
                // Wake (and drain) every worker blocked on the budget gate;
                // the orchestrator reports the typed cancellation.
                ctx.ledger.cancel();
                return busy;
            }
            let mut queue = state.queue.lock().expect("parallel task queue poisoned");
            if queue.is_empty() {
                return busy;
            }
            let amounts: Vec<u64> = queue.iter().map(|&t| cut.task_peaks[t]).collect();
            match ctx.ledger.select_and_reserve(&amounts) {
                ReserveSelection::Selected(index) => break queue.remove(index),
                ReserveSelection::Blocked(generation) => {
                    drop(queue);
                    if !ctx.ledger.wait_past(generation) {
                        // The ledger was cancelled while we were blocked.
                        return busy;
                    }
                }
            }
        };
        // Fault point "parexec:task" fires with the reservation already
        // held, so the injected panic and the injected drop take the same
        // exits as a real task failure — every one of them releases the
        // reservation below, or the chaos harness would wedge the budget
        // gate instead of testing it.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if treemem::faultinject::fire("parexec:task") == FaultSignal::Drop {
                return None;
            }
            let started = Instant::now();
            let done = ctx.factor(&cut.task_orders[task], ContributionStore::new(), &mut arena);
            Some((done, started.elapsed().as_secs_f64()))
        }));
        let (retained, result) = match outcome {
            // Injected task loss: the slot stays empty, exercising the
            // orchestrator's "task never ran" path.
            Ok(None) => (0, None),
            Ok(Some((Ok(done), seconds))) => {
                busy += seconds;
                (done.blocks.total_entries(), Some(Ok((done, seconds))))
            }
            Ok(Some((Err(error), _))) => (0, Some(Err(error))),
            // Caught per task, so the other workers keep draining; the
            // orchestrator turns the stored failure into the run's error.
            Err(payload) => (
                0,
                Some(Err(EngineError::Internal(format!(
                    "parallel subtree task {task} panicked: {}",
                    panic_message(payload)
                )))),
            ),
        };
        ctx.ledger.finish_task(cut.task_peaks[task], retained);
        if result.is_some() {
            state.results.lock().expect("parallel results poisoned")[task] = result;
        }
    }
}

/// The sequential merge phase every runner ends in: absorb the finished
/// tasks' root contribution blocks (in task order), eliminate the above-cut
/// columns, release the `merge_initial` retained entries from the ledger,
/// and assemble the final factor.  Returns the factor and the merge
/// wall-clock seconds.
fn merge_and_assemble(
    ctx: &TaskContext<'_>,
    cut: &CutPlan,
    parts: Vec<SubtreeParts>,
) -> Result<(CholeskyFactor, f64), EngineError> {
    let mut merge_blocks = ContributionStore::new();
    let mut task_values = Vec::with_capacity(parts.len());
    for task in parts {
        merge_blocks.absorb(task.blocks);
        task_values.push(task.values);
    }
    let merge_started = Instant::now();
    let merged = ctx.factor(&cut.merge_order, merge_blocks, &mut FrontArena::new())?;
    let merge_seconds = merge_started.elapsed().as_secs_f64();
    ctx.ledger.release_retained(cut.merge_initial);
    debug_assert!(merged.blocks.is_empty());
    let pieces = cut
        .task_orders
        .iter()
        .zip(&task_values)
        .chain([(&cut.merge_order, &merged.values)])
        .map(|(order, values)| (order.as_slice(), values.as_slice()));
    let factor = assemble_factor(&ctx.numeric.structure, pieces)?;
    Ok((factor, merge_seconds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, EngineConfig};
    use sparsemat::gen::ProblemKind;

    /// A fired token stops every runner and the merge with the typed
    /// numeric-stage cancellation, and nothing stays reserved on the run's
    /// ledger (a leaked reservation would wedge the next admission).
    #[test]
    fn cancelled_phases_leave_the_ledger_drained() {
        let engine = Engine::new();
        let config = EngineConfig::generated(ProblemKind::Grid2d, 400, 3).with_numeric(true);
        let plan = engine.plan(&config).unwrap();
        let numeric = plan.numeric_model().unwrap();
        let order = numeric.order_for(&engine, "minmem").unwrap();
        let cut = CutPlan::compute(&numeric, &order, 8, &BudgetShare::Entries(1)).unwrap();
        assert!(cut.task_orders.len() > 1 && !cut.merge_order.is_empty());

        let token = CancelToken::new();
        token.cancel();
        let ledger = BudgetLedger::new(cut.budget_entries);
        let ctx = TaskContext {
            numeric: &numeric,
            ledger: &ledger,
            cancel: Some(&token),
        };
        let numeric_stage = |error: EngineError| {
            assert!(
                matches!(
                    error,
                    EngineError::Cancelled {
                        stage: "numeric",
                        ..
                    }
                ),
                "{error:?}"
            );
        };
        numeric_stage(run_inline(&ctx, &cut).unwrap_err());
        numeric_stage(run_pool(&ctx, &cut, 3).unwrap_err());
        numeric_stage(merge_and_assemble(&ctx, &cut, Vec::new()).unwrap_err());
        assert_eq!(ledger.reserved(), 0);
        // Without a token the same cut runs to completion on every
        // in-process runner, to the same factor.
        let inline = execute_cut(&numeric, &cut, TaskRunner::Inline, None).unwrap();
        let pooled = execute_cut(&numeric, &cut, TaskRunner::Pool(3), None).unwrap();
        assert_eq!(inline.factor.values, pooled.factor.values);
        assert_eq!(pooled.forced_admissions, cut.task_orders.len() as u64);
    }
}
