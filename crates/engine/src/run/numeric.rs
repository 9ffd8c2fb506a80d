//! The numeric substrate ([`NumericModel`]) and the numeric execution
//! pipeline: proportional-mapping cut, subtree phase, sequential merge
//! above the cut (README's "The numeric pipeline" draws it).  Every numeric
//! run of the engine — sequential, thread-parallel, distributed — goes
//! through [`execute_cut`]; the modes differ only in *who runs the subtree
//! tasks* ([`TaskRunner`]).
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
//!    processes computed from the tasks' slices
//!    ([`TaskSlice::factor`](crate::TaskSlice::factor)) — the coordinator's
//!    job ledger gated their claims.
//! 3. **Merge phase** — the caller's thread absorbs the finished tasks'
//!    root contribution blocks and eliminates the above-cut columns in the
//!    chosen traversal's order.
//!
//! A run allocates the factor's value array once, and [`column_slices`]
//! hands each task and the merge their own columns of it to write, once.
//! Only collected worker values are copied in
//! ([`FactorColumns::unpack`]), as they crossed the wire.
//!
//! Every column anywhere in the pipeline is eliminated by [`TaskContext::factor`],
//! which reports live entries to the run's one ledger and polls the run's
//! one cancellation token.  The computed factor is bit-identical across
//! modes, worker counts and processes, because each front assembles its
//! children blocks in tree order regardless of who produced them.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use multifrontal::memory::per_column_model;
use multifrontal::numeric::{eliminate_columns, SymbolicStructure};
use multifrontal::parallel::{column_slices, BudgetLedger, FactorColumns, ReserveSelection};
use multifrontal::{CholeskyFactor, ContributionStore, FactorizationError, FrontArena};
use sparsemat::gen::spd_matrix_from_pattern;
use sparsemat::SymmetricCsr;
use treemem::faultinject::{FaultPoint, FaultSignal};
use treemem::partition::{default_node_work, proportional_cut};
use treemem::solver::Solver;
use treemem::tree::NodeId;
use treemem::Tree;

use super::factor::FactorHandle;
use super::plan::SymbolicData;
use super::schedule::DistributedRuntime;
use super::slice::SubtreeParts;
use super::{cancelled, check, Engine, EngineError};
use crate::cancel::CancelToken;
use crate::config::BudgetShare;
use crate::memo::Memo;
use crate::report::CutReport;

/// The numeric substrate shared by every `execute` on one plan: the SPD
/// matrix, its symbolic factor structure and the paper's per-column model
/// tree, built once and cached.
pub(crate) struct NumericModel {
    matrix: SymmetricCsr,
    /// Shared with every factor computed on this plan.
    structure: Arc<SymbolicStructure>,
    model: Tree,
    /// Bottom-up factorization orders cached by solver.
    orders: Memo<Solver, Vec<NodeId>>,
}

impl NumericModel {
    /// The SPD matrix drawn from `seed` on the plan's permuted pattern, its
    /// symbolic factor structure — read from that matrix over the plan's
    /// elimination tree, into a row store sized by the plan's column
    /// counts — and the per-column model tree.
    pub(super) fn new(symbolic: &SymbolicData, seed: u64) -> Self {
        let matrix = spd_matrix_from_pattern(&symbolic.permuted, seed);
        let structure =
            SymbolicStructure::from_etree(&matrix, Arc::clone(&symbolic.etree), &symbolic.counts);
        let structure = Arc::new(structure);
        let model = per_column_model(&structure);
        NumericModel {
            matrix,
            structure,
            model,
            orders: Memo::new(),
        }
    }

    /// The SPD matrix.
    pub(super) fn matrix(&self) -> &SymmetricCsr {
        &self.matrix
    }

    /// The symbolic factor structure.
    pub(super) fn structure(&self) -> &Arc<SymbolicStructure> {
        &self.structure
    }

    /// Approximate heap footprint in bytes (matrix, symbolic structure,
    /// per-column model tree and the cached factorization orders).  The
    /// structure's elimination tree is the plan's, charged there.
    pub(crate) fn heap_bytes(&self) -> u64 {
        let structure = self.structure.heap_bytes() - self.structure.etree.heap_bytes();
        let mut bytes = self.matrix.heap_bytes() + structure + self.model.heap_bytes();
        self.orders.for_each(|_, order| {
            bytes += (order.len() * std::mem::size_of::<NodeId>()) as u64;
        });
        bytes
    }

    /// The bottom-up factorization order of `solver` on the per-column
    /// model, computed once per solver and cached.  The solver polls the
    /// engine's token; a cancelled solve caches nothing.
    pub(crate) fn order_for(
        &self,
        engine: &Engine,
        solver: Solver,
    ) -> Result<Arc<Vec<NodeId>>, EngineError> {
        self.orders.get_or_try(&solver, || {
            if !solver.supports(&self.model) {
                return Err(EngineError::InvalidConfig(format!(
                    "solver '{}' does not support the {}-node per-column model",
                    solver.name(),
                    self.model.len()
                )));
            }
            let cancel = engine.cancel();
            check(cancel, "numeric")?;
            let solved = CancelToken::with_stop(cancel, |stop| {
                let stop = stop.map(|probe| probe as &dyn Fn() -> bool);
                solver.solve_with_stop(&self.model, stop)
            })
            .ok_or_else(|| cancelled(cancel, "numeric"))?;
            check(cancel, "numeric")?;
            Ok(solved.traversal.reversed().into_order())
        })
    }
}

/// Where [`Schedule::finish`](super::Schedule::finish) takes a report's numeric section from.
pub(super) enum Numeric<'c> {
    /// Run this numeric stage.
    Run(NumericStage<'c>),
    /// Read it from the factor an earlier sequential run handed back.
    Cached(&'c FactorHandle),
}

/// The numeric stage of one `execute*` call, as
/// [`Schedule::finish`](super::Schedule::finish) takes it: the numeric
/// substrate, its cut, who runs the subtree tasks, and what only the mode's
/// entry point knows.
pub(super) struct NumericStage<'c> {
    pub(super) numeric: Arc<NumericModel>,
    pub(super) cut: &'c CutPlan,
    pub(super) runner: TaskRunner,
    /// When the stage's in-process work began.
    pub(super) started: Instant,
    /// Lease duration and cluster measurements of a distributed run (whose
    /// `runner` carries the collected contributions).
    pub(super) cluster: Option<(u64, DistributedRuntime)>,
}

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
    ) -> CutPlan {
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

        let (sequential_peak, _) = structure.modeled_peak_entries(order, 0);
        let budget_entries = budget.resolve(sequential_peak);
        let oversized_tasks = match budget_entries {
            Some(budget) => task_peaks.iter().filter(|&&peak| peak > budget).count(),
            None => 0,
        };
        CutPlan {
            max_tasks,
            task_orders,
            task_peaks,
            merge_order,
            merge_initial,
            merge_peak,
            sequential_peak: sequential_peak as i64,
            budget_entries,
            oversized_tasks,
        }
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
    pub matrix: &'a SymmetricCsr,
    pub structure: &'a SymbolicStructure,
    pub ledger: &'a BudgetLedger,
    pub cancel: Option<&'a CancelToken>,
}

impl TaskContext<'_> {
    /// Eliminate `part`'s columns (one subtree task, or the merge set) on
    /// the calling thread, writing them into `part` and consuming and
    /// leaving blocks in `blocks`.  Live entries go to the run's ledger; the
    /// token is polled every few dozen columns and a fired one surfaces as
    /// the typed numeric-stage cancellation.
    pub fn factor(
        &self,
        part: &mut FactorColumns<'_, '_>,
        blocks: &mut ContributionStore,
        arena: &mut FrontArena,
    ) -> Result<(), EngineError> {
        let (matrix, structure, ledger) = (self.matrix, self.structure, self.ledger);
        CancelToken::with_stop(self.cancel, |stop| {
            let stop = stop.map(|probe| probe as &dyn Fn() -> bool);
            eliminate_columns(matrix, structure, part, blocks, ledger, arena, stop)
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
    let structure = &numeric.structure;
    let ledger = BudgetLedger::new(cut.budget_entries);
    let ctx = TaskContext {
        matrix: &numeric.matrix,
        structure,
        ledger: &ledger,
        cancel,
    };
    // The run's one factor array: each task and the merge write their own
    // columns of it.
    let mut values = vec![0.0; structure.factor_nnz()];
    let orders = cut.task_orders.iter().chain([&cut.merge_order]);
    let mut parts = column_slices(structure, &mut values, orders.map(Vec::as_slice))?;
    let merge_part = parts.pop().expect("the merge is the last part");
    // Only a pool measures per-task and per-worker times.
    let (blocks, task_seconds, worker_busy_seconds) = match runner {
        TaskRunner::Inline => (run_inline(&ctx, parts)?, Vec::new(), Vec::new()),
        TaskRunner::Pool(workers) => run_pool(&ctx, cut, workers, parts)?,
        TaskRunner::Collected(collected) => {
            if collected.len() != cut.task_orders.len() {
                return Err(EngineError::Internal(format!(
                    "distributed merge expected {} task contributions, got {}",
                    cut.task_orders.len(),
                    collected.len()
                )));
            }
            // The cluster budget gated the *claims* (in the coordinator's
            // job ledger); locally only the merge runs.  The coordinator
            // physically holds the retained root blocks while the merge
            // fronts come and go on top of them.
            ledger.record_live(cut.merge_initial as i64);
            let mut blocks = ContributionStore::new();
            for (worker, mut part) in collected.into_iter().zip(parts) {
                part.unpack(&worker.values)?;
                blocks.absorb(worker.blocks);
            }
            (blocks, Vec::new(), Vec::new())
        }
    };
    let merge_seconds = merge(&ctx, cut, blocks, merge_part)?;
    Ok(Executed {
        factor: CholeskyFactor {
            structure: Arc::clone(structure),
            values,
        },
        measured_peak_entries: ledger.measured_peak_entries(),
        forced_admissions: ledger.forced_admissions(),
        merge_seconds,
        task_seconds,
        worker_busy_seconds,
    })
}

/// The inline subtree phase: every task on the caller's thread, in task
/// order, sharing one arena and one store for their root blocks, which it
/// returns.  No admission gate (nothing runs concurrently) and no
/// `parexec:task` fault point (there is no task hand-off to lose).
fn run_inline(
    ctx: &TaskContext<'_>,
    parts: Vec<FactorColumns<'_, '_>>,
) -> Result<ContributionStore, EngineError> {
    let (mut arena, mut blocks) = (FrontArena::new(), ContributionStore::new());
    for mut part in parts {
        ctx.factor(&mut part, &mut blocks, &mut arena)?;
    }
    Ok(blocks)
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

/// One finished pool task: its root blocks and its wall-clock seconds.
type TaskDone = (ContributionStore, f64);

/// The pool workers' shared queue and result slots.
struct PoolState<'c, 'v> {
    /// Remaining tasks with the factor columns each writes, in
    /// admission-preference order (largest work first — the same order
    /// `partition.roots` uses).
    queue: Mutex<Vec<(usize, FactorColumns<'c, 'v>)>>,
    /// One slot per task; a slot still empty after the pool drained means
    /// the task was lost.
    results: Mutex<Vec<Option<Result<TaskDone, EngineError>>>>,
}

/// The pool subtree phase: `workers` threads drain the queue through the
/// budget gate, each task writing its `columns`.  Returns the tasks' root
/// blocks, their seconds in task order and each worker's busy seconds.
fn run_pool(
    ctx: &TaskContext<'_>,
    cut: &CutPlan,
    workers: usize,
    parts: Vec<FactorColumns<'_, '_>>,
) -> Result<(ContributionStore, Vec<f64>, Vec<f64>), EngineError> {
    let task_count = cut.task_orders.len();
    let state = PoolState {
        queue: Mutex::new(parts.into_iter().enumerate().collect()),
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
    let (mut blocks, mut task_seconds) = (ContributionStore::new(), Vec::new());
    for (task, slot) in results.into_iter().enumerate() {
        let lost = || EngineError::Internal(format!("parallel subtree task {task} never ran"));
        let (task_blocks, seconds) = slot.ok_or_else(lost)??;
        blocks.absorb(task_blocks);
        task_seconds.push(seconds);
    }
    Ok((blocks, task_seconds, worker_busy_seconds))
}

/// One pool worker: drain the queue through the budget gate.  Returns this
/// worker's busy seconds.
fn worker_loop(ctx: &TaskContext<'_>, cut: &CutPlan, state: &PoolState<'_, '_>) -> f64 {
    let mut arena = FrontArena::new();
    let mut busy = 0.0;
    loop {
        let (task, mut part) = loop {
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
            let amounts: Vec<u64> = queue.iter().map(|&(t, _)| cut.task_peaks[t]).collect();
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
        // `FaultPoint::ParexecTask` fires with the reservation already
        // held, so the injected panic and the injected drop take the same
        // exits as a real task failure — every one of them releases the
        // reservation below, or the chaos harness would wedge the budget
        // gate instead of testing it.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if treemem::faultinject::fire(FaultPoint::ParexecTask) == FaultSignal::Drop {
                return None;
            }
            let started = Instant::now();
            let mut blocks = ContributionStore::new();
            let done = ctx.factor(&mut part, &mut blocks, &mut arena);
            Some((done.map(|()| blocks), started.elapsed().as_secs_f64()))
        }));
        let (retained, result) = match outcome {
            // Injected task loss: the slot stays empty, exercising the
            // orchestrator's "task never ran" path.
            Ok(None) => (0, None),
            Ok(Some((Ok(blocks), seconds))) => {
                busy += seconds;
                (blocks.total_entries(), Some(Ok((blocks, seconds))))
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

/// The sequential merge phase every runner ends in: eliminate the above-cut
/// columns into `part`, consuming the finished tasks' root blocks, and
/// release the `merge_initial` retained entries from the ledger.  Returns
/// the merge wall-clock seconds.
fn merge(
    ctx: &TaskContext<'_>,
    cut: &CutPlan,
    mut blocks: ContributionStore,
    mut part: FactorColumns<'_, '_>,
) -> Result<f64, EngineError> {
    let merge_started = Instant::now();
    ctx.factor(&mut part, &mut blocks, &mut FrontArena::new())?;
    let merge_seconds = merge_started.elapsed().as_secs_f64();
    ctx.ledger.release_retained(cut.merge_initial);
    debug_assert!(blocks.is_empty());
    Ok(merge_seconds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, EngineConfig, TaskSlice};
    use sparsemat::gen::ProblemKind;
    use treemem::Solver;

    /// A fired token stops every runner and the merge with the typed
    /// numeric-stage cancellation, and nothing stays reserved on the run's
    /// ledger (a leaked reservation would wedge the next admission).
    #[test]
    fn cancelled_phases_leave_the_ledger_drained() {
        let engine = Engine::new();
        let config = EngineConfig::generated(ProblemKind::Grid2d, 400, 3).with_numeric(true);
        let plan = engine.plan(&config).unwrap();
        let numeric = plan.numeric_model().unwrap();
        let order = numeric.order_for(&engine, Solver::MinMem).unwrap();
        let cut = CutPlan::compute(&numeric, &order, 8, &BudgetShare::Entries(1));
        assert!(cut.task_orders.len() > 1 && !cut.merge_order.is_empty());

        let token = CancelToken::new();
        token.cancel();
        let ledger = BudgetLedger::new(cut.budget_entries);
        let ctx = TaskContext {
            matrix: numeric.matrix(),
            structure: numeric.structure(),
            ledger: &ledger,
            cancel: Some(&token),
        };
        let parts = || cut.task_orders.iter().chain([&cut.merge_order]);
        let mut values = [(); 3].map(|()| vec![0.0; numeric.structure.factor_nnz()]);
        let [mut inline, mut pool, mut merged] = values.each_mut().map(|values| {
            column_slices(&numeric.structure, values, parts().map(Vec::as_slice)).unwrap()
        });
        inline.pop();
        pool.pop();
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
        numeric_stage(run_inline(&ctx, inline).unwrap_err());
        numeric_stage(run_pool(&ctx, &cut, 3, pool).unwrap_err());
        let no_blocks = ContributionStore::new();
        numeric_stage(merge(&ctx, &cut, no_blocks, merged.pop().unwrap()).unwrap_err());
        assert_eq!(ledger.reserved(), 0);
        // Without a token the same cut runs to completion on every
        // in-process runner, to the same factor.
        let inline = execute_cut(&numeric, &cut, TaskRunner::Inline, None).unwrap();
        let pooled = execute_cut(&numeric, &cut, TaskRunner::Pool(3), None).unwrap();
        assert_eq!(inline.factor.values, pooled.factor.values);
        assert_eq!(pooled.forced_admissions, cut.task_orders.len() as u64);
    }

    /// Worker values are copied into the run's factor only when each task's
    /// vector has exactly its columns' length: one value short or one too
    /// many is the kernel's typed `InvalidTraversal`, never a panic or a
    /// column left zero.
    #[test]
    fn collected_values_of_the_wrong_length_are_a_typed_error() {
        let engine = Engine::new();
        let config = EngineConfig::generated(ProblemKind::Grid2d, 400, 3).with_numeric(true);
        let plan = engine.plan(&config).unwrap();
        let numeric = plan.numeric_model().unwrap();
        let order = numeric.order_for(&engine, Solver::MinMem).unwrap();
        let cut = CutPlan::compute(&numeric, &order, 8, &BudgetShare::Unbounded);
        assert!(cut.task_orders.len() > 1 && !cut.merge_order.is_empty());
        let collected = |edit: &dyn Fn(&mut Vec<f64>)| {
            let mut parts: Vec<SubtreeParts> = cut
                .task_orders
                .iter()
                .map(|order| TaskSlice::of_task(&numeric, order).factor(None).unwrap())
                .collect();
            edit(&mut parts[1].values);
            execute_cut(&numeric, &cut, TaskRunner::Collected(parts), None)
        };
        let inline = execute_cut(&numeric, &cut, TaskRunner::Inline, None).unwrap();
        assert_eq!(
            collected(&|_| {}).unwrap().factor.values,
            inline.factor.values
        );
        let short: &dyn Fn(&mut Vec<f64>) = &|values| {
            values.pop();
        };
        let long: &dyn Fn(&mut Vec<f64>) = &|values| values.push(1.0);
        for edit in [short, long] {
            assert!(matches!(
                collected(edit),
                Err(EngineError::Factorization(
                    FactorizationError::InvalidTraversal
                ))
            ));
        }
    }

    /// The sequential peak the budget resolves against (and the report's
    /// `model_peak_entries`) is the paper's bottom-up peak of the per-column
    /// model along the same order: every kind × size × solver
    /// that supports the model, on the generated matrix and on two disjoint
    /// copies of it (a forest, read back from a MatrixMarket file).
    #[test]
    fn the_sequential_peak_is_the_models_bottom_up_peak() {
        use sparsemat::{matrixmarket::write_pattern, SparsePattern};
        use treemem::variants::bottom_up_peak;
        use treemem::Traversal;
        let engine = Engine::new();
        let path = std::env::temp_dir().join(format!("engine-forest-{}.mtx", std::process::id()));
        let mut cells = 0;
        for kind in ProblemKind::ALL {
            for nodes in [1, 2, 50, 400] {
                let pattern = kind.generate(nodes, 5);
                let n = pattern.n();
                let edges: Vec<(usize, usize)> = (0..n)
                    .flat_map(|i| pattern.neighbors(i).iter().map(move |&j| (i, j as usize)))
                    .flat_map(|(i, j)| [(i, j), (i + n, j + n)])
                    .collect();
                std::fs::write(
                    &path,
                    write_pattern(&SparsePattern::from_edges(2 * n, &edges).unwrap()),
                )
                .unwrap();
                let forest = EngineConfig::matrix_market(path.to_string_lossy());
                let connected = EngineConfig::generated(kind, nodes, 5);
                for (shape, config) in [("connected", connected), ("forest", forest)] {
                    let plan = engine.plan(&config.with_numeric(true)).unwrap();
                    let numeric = plan.numeric_model().unwrap();
                    let etree = &numeric.structure.etree;
                    let roots = (0..numeric.structure.n())
                        .filter(|&j| etree.parent(j).is_none())
                        .count();
                    assert!(
                        shape == "connected" || roots > 1,
                        "{shape} has {roots} roots"
                    );
                    for solver in Solver::ALL {
                        let Ok(order) = numeric.order_for(&engine, solver) else {
                            continue;
                        };
                        let cut = CutPlan::compute(&numeric, &order, 1, &BudgetShare::Unbounded);
                        let traversal = Traversal::new(order.to_vec());
                        let model = bottom_up_peak(&numeric.model, &traversal).unwrap();
                        let context =
                            format!("{} / {nodes} / {shape} / {}", kind.name(), solver.name());
                        assert_eq!(cut.sequential_peak, model, "{context}");
                        cells += 1;
                    }
                }
            }
        }
        std::fs::remove_file(&path).unwrap();
        assert!(cells >= 7 * 4 * 2 * 3, "{cells} cells checked");
    }

    /// The per-column model solve inside every cold `execute*` polls the
    /// engine's token, and a cancelled solve leaves no cached order behind.
    #[test]
    fn a_fired_token_cancels_the_per_column_model_solve() {
        let engine = Engine::new();
        let config = EngineConfig::generated(ProblemKind::Grid2d, 400, 3).with_numeric(true);
        let plan = engine.plan(&config).unwrap();
        let numeric = plan.numeric_model().unwrap();
        let token = crate::cancel::CancelToken::new();
        token.cancel();
        match numeric.order_for(&engine.with_cancel(token), Solver::MinMem) {
            Err(EngineError::Cancelled { stage, .. }) => assert_eq!(stage, "numeric"),
            other => panic!("expected Cancelled, got {:?}", other.err()),
        }
        let mut cached = 0;
        numeric.orders.for_each(|_, _| cached += 1);
        assert_eq!(cached, 0, "a cancelled solve caches nothing");
        let order = numeric.order_for(&engine, Solver::MinMem).unwrap();
        assert_eq!(order.len(), numeric.model.len());
    }
}
