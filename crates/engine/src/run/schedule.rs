//! The schedule layer: a traversal, its simulated I/O and the one [`Report`] finisher.

use std::sync::Arc;
use std::time::Instant;

use minio::{OutOfCoreRun, Policy};
use treemem::faultinject::FaultPoint;
use treemem::solver::Solver;
use treemem::tree::Size;
use treemem::Traversal;

use super::factor::{solve_check, FactorHandle};
use super::numeric::{execute_cut, CutPlan, Numeric, NumericModel, NumericStage, TaskRunner};
use super::plan::{Plan, Solved};
use super::{check, fire_fault, timed_ok, Engine, EngineError, SubtreeParts, TaskSlice};
use crate::cancel::CancelToken;
use crate::config::{BudgetShare, MemoryBudget, ParallelConfig};
use crate::report::{DistributedReport, NumericReport, ParallelReport, Report, StageTimings};

/// Per-call overrides for [`Plan::schedule_with`]; unset fields fall back to
/// the plan's configuration.
#[derive(Debug, Clone, Default)]
pub struct ScheduleSpec {
    /// Solver-name override.
    pub solver: Option<String>,
    /// Policy-name override.
    pub policy: Option<String>,
    /// Memory-budget override.
    pub memory: Option<MemoryBudget>,
    /// Parallel-execution override (worker-count sweeps share one plan).
    pub parallel: Option<ParallelConfig>,
}

impl ScheduleSpec {
    /// Override the solver.
    pub fn solver(mut self, name: impl Into<String>) -> Self {
        self.solver = Some(name.into());
        self
    }

    /// Override the policy.
    pub fn policy(mut self, name: impl Into<String>) -> Self {
        self.policy = Some(name.into());
        self
    }

    /// Override the memory budget.
    pub fn memory(mut self, memory: MemoryBudget) -> Self {
        self.memory = Some(memory);
        self
    }

    /// Override the parallel execution section.
    pub fn parallel(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = Some(parallel);
        self
    }
}

/// A solver traversal plus its simulated out-of-core execution, borrowed
/// from the [`Plan`] that produced it.
pub struct Schedule<'p> {
    pub(super) plan: &'p Plan,
    /// Hash of the effective configuration (plan config + spec overrides).
    pub(super) config_hash: String,
    pub(super) solver: Solver,
    pub(super) policy: Policy,
    pub(super) parallel: ParallelConfig,
    /// The solver's traversal, peak and seconds — the plan's cached entry,
    /// shared by every schedule of this solver.
    pub(super) solved: Arc<Solved>,
    pub(super) budget_spec: MemoryBudget,
    pub(super) memory_budget: Size,
    pub(super) run: OutOfCoreRun,
    pub(super) divisible_bound: Size,
    pub(super) io_seconds: f64,
}

impl Schedule<'_> {
    /// The plan this schedule was derived from.
    pub fn plan(&self) -> &Plan {
        self.plan
    }

    /// The FNV-1a hash of the effective configuration (the plan's
    /// configuration with any [`ScheduleSpec`] overrides applied).
    pub fn config_hash(&self) -> &str {
        &self.config_hash
    }

    /// Per-stage wall-clock seconds up to and including this schedule: the
    /// plan's stages plus the solver and I/O stages (`numeric_seconds`
    /// stays 0.0 until [`Schedule::execute`] runs the numeric stage).
    pub fn timings(&self) -> StageTimings {
        let mut timings = self.plan.timings.clone();
        timings.solver_seconds = self.solved.seconds;
        timings.io_seconds = self.io_seconds;
        timings
    }

    /// The solver that produced the traversal.
    pub fn solver(&self) -> &str {
        self.solver.name()
    }

    /// The eviction policy that produced the I/O schedule.
    pub fn policy(&self) -> &str {
        self.policy.name()
    }

    /// The traversal (top-down order, root first).
    pub fn traversal(&self) -> &Traversal {
        &self.solved.result.traversal
    }

    /// Peak memory of the traversal (the MinMemory objective).
    pub fn peak(&self) -> Size {
        self.solved.result.peak
    }

    /// The resolved absolute memory budget of the simulated execution.
    pub fn memory_budget(&self) -> Size {
        self.memory_budget
    }

    /// The simulated out-of-core run (I/O volume, eviction schedule, peak).
    pub fn io_run(&self) -> &OutOfCoreRun {
        &self.run
    }

    /// Volume written to secondary memory (the MinIO objective).
    pub fn io_volume(&self) -> Size {
        self.run.io_volume
    }

    /// The divisible-relaxation lower bound for this traversal and budget.
    pub fn divisible_bound(&self) -> Size {
        self.divisible_bound
    }

    /// Run the execution stage: fold the simulation into a [`Report`] and,
    /// when the configuration asks for it, run the numeric multifrontal
    /// factorization (solver traversal on the per-column model) and the
    /// batched solve stage, attaching their measurements.
    pub fn execute(&self, engine: &Engine) -> Result<Report, EngineError> {
        Ok(self.execute_with_factor(engine)?.0)
    }

    /// [`Schedule::execute`], additionally handing back the computed factor
    /// as a reusable [`FactorHandle`] (when the numeric stage ran) so
    /// callers — the HTTP server's factor cache above all — can serve later
    /// solves against it without re-running the factorization.
    ///
    /// The numeric stage runs in-process: on the thread pool when the
    /// schedule's `parallel` section is enabled, otherwise as the one-task
    /// cut on the caller's thread.  (A `distributed` section needs a
    /// coordinator to hand the tasks out — see
    /// [`Schedule::distributed_cut`] / [`Schedule::execute_distributed`];
    /// without one the run is sequential.)  Its column loop, inline and
    /// pooled alike, polls the engine's token every few dozen columns, so a
    /// fired deadline stops the factorization mid-flight with
    /// [`EngineError::Cancelled`].
    pub fn execute_with_factor(
        &self,
        engine: &Engine,
    ) -> Result<(Report, Option<FactorHandle>), EngineError> {
        let cancel = engine.cancel();
        if !self.plan.config.numeric {
            return self.finish(None, cancel);
        }
        fire_fault(FaultPoint::ExecuteNumeric);
        check(cancel, "numeric")?;
        let started = Instant::now();
        // Sequential execution is the one-task cut run inline.
        let (max_tasks, budget, runner) = if self.parallel.enabled() {
            let ParallelConfig {
                workers,
                max_tasks,
                budget,
            } = self.parallel;
            (max_tasks, budget, TaskRunner::Pool(workers))
        } else {
            (1, BudgetShare::Unbounded, TaskRunner::Inline)
        };
        let (numeric, cut) = self.cut(engine, max_tasks, &budget)?;
        let stage = NumericStage {
            numeric,
            cut: &cut,
            runner,
            started,
            cluster: None,
        };
        self.finish(Some(Numeric::Run(stage)), cancel)
    }

    /// [`Schedule::execute`] for a sequential numeric configuration whose
    /// factor is already at hand: `factor` is the handle an earlier run of
    /// this schedule's effective configuration returned, and the report is
    /// rendered from it — its numeric section is the one that run measured,
    /// and the solve stage, if configured, runs against it.  No numeric
    /// stage runs, so the report equals a fresh one except for `timings`
    /// (`numeric_seconds` is 0).
    ///
    /// Errors with [`EngineError::InvalidConfig`] unless the schedule is
    /// numeric and sequential — a parallel or distributed section holds
    /// runtime measurements no cached factor can reproduce — and `factor`
    /// came from its configuration hash.
    pub fn execute_cached(
        &self,
        engine: &Engine,
        factor: &FactorHandle,
    ) -> Result<Report, EngineError> {
        let cancel = engine.cancel();
        let config = &self.plan.config;
        if !config.numeric || self.parallel.enabled() || config.distributed.enabled() {
            return Err(EngineError::InvalidConfig(
                "only a sequential numeric run renders from a cached factor".to_string(),
            ));
        }
        if factor.config_hash != self.config_hash {
            return Err(EngineError::InvalidConfig(format!(
                "the factor of configuration {} cannot render a report of {}",
                factor.config_hash, self.config_hash
            )));
        }
        check(cancel, "numeric")?;
        Ok(self.finish(Some(Numeric::Cached(factor)), cancel)?.0)
    }

    /// The one finisher behind every `execute*`: take the numeric section
    /// from `numeric` — running its pipeline (subtree phase → merge,
    /// [`execute_cut`]) or reading a cached factor's — run the solve stage,
    /// and fold everything into the single [`Report`].  `None` is a run
    /// without the numeric stage.  Only a run hands back a new factor.
    fn finish(
        &self,
        numeric: Option<Numeric<'_>>,
        cancel: Option<&CancelToken>,
    ) -> Result<(Report, Option<FactorHandle>), EngineError> {
        let plan = self.plan;
        let mut timings = self.timings();
        let mut parallel = None;
        let mut distributed = None;
        let mut handle = None;
        let mut cached = None;
        match numeric {
            None => {}
            Some(Numeric::Cached(factor)) => cached = Some(factor),
            Some(Numeric::Run(stage)) => {
                let pool_workers = match stage.runner {
                    TaskRunner::Pool(workers) => Some(workers),
                    _ => None,
                };
                let executed = execute_cut(&stage.numeric, stage.cut, stage.runner, cancel)?;
                // A distributed run spent its claim phase before `started`;
                // counting it makes every mode's numbers cover the whole stage.
                let before = stage
                    .cluster
                    .as_ref()
                    .map_or(0.0, |(_, runtime)| runtime.claim_wall_seconds);
                let stage_seconds = || before + stage.started.elapsed().as_secs_f64();
                parallel = pool_workers.map(|workers| {
                    let wall_seconds = stage_seconds();
                    let longest_task = executed.task_seconds.iter().copied().fold(0.0, f64::max);
                    let total_busy: f64 =
                        executed.worker_busy_seconds.iter().sum::<f64>() + executed.merge_seconds;
                    ParallelReport {
                        cut: stage.cut.report(),
                        workers,
                        measured_peak_entries: executed.measured_peak_entries,
                        forced_admissions: executed.forced_admissions,
                        wall_seconds,
                        critical_path_seconds: longest_task + executed.merge_seconds,
                        merge_seconds: executed.merge_seconds,
                        task_seconds: executed.task_seconds,
                        worker_busy_seconds: executed.worker_busy_seconds,
                        utilization: if wall_seconds > 0.0 {
                            total_busy / (workers.max(1) as f64 * wall_seconds)
                        } else {
                            0.0
                        },
                    }
                });
                distributed = stage.cluster.map(|(lease_ms, runtime)| DistributedReport {
                    cut: stage.cut.report(),
                    lease_ms,
                    workers: runtime.workers,
                    tasks_requeued: runtime.tasks_requeued,
                    lease_expiries: runtime.lease_expiries,
                    contribution_bytes: runtime.contribution_bytes,
                    wall_seconds: stage_seconds(),
                    merge_seconds: executed.merge_seconds,
                    worker_busy_seconds: runtime.worker_busy_seconds,
                });
                let report = NumericReport {
                    measured_peak_entries: executed.measured_peak_entries as usize,
                    model_peak_entries: stage.cut.sequential_peak,
                    factor_nnz: executed.factor.nnz(),
                    solve_error: solve_check(stage.numeric.matrix(), &executed.factor),
                };
                timings.numeric_seconds = stage_seconds();
                handle = Some(FactorHandle {
                    numeric: stage.numeric,
                    factor: executed.factor,
                    config_hash: self.config_hash.clone(),
                    report,
                });
            }
        }
        let factor = handle.as_ref().or(cached);

        let solve = if plan.config.solve.enabled {
            check(cancel, "solve")?;
            // Plan-time validation guarantees the numeric stage ran; the
            // error path is defensive.
            let factor = factor.ok_or_else(|| {
                EngineError::InvalidConfig("the solve stage requires the numeric stage".to_string())
            })?;
            let solve = &plan.config.solve;
            let (result, seconds) =
                timed_ok(|| factor.solve_batch(&solve.rhs, solve.check_residual));
            timings.solve_seconds = seconds;
            Some(result?.0)
        } else {
            None
        };

        let report = Report {
            config_hash: self.config_hash.clone(),
            source: plan.config.source_name(),
            ordering: plan.config.ordering.name().to_string(),
            amalgamation: plan.config.amalgamation,
            solver: self.solver.name().to_string(),
            policy: self.policy.name().to_string(),
            nodes: plan.tree().len(),
            matrix_n: plan.matrix_n(),
            solver_peak: self.peak(),
            memory_budget: self.memory_budget,
            budget_spec: self.budget_spec,
            io_volume: self.run.io_volume,
            read_volume: self.run.read_volume,
            files_written: self.run.files_written,
            io_peak_memory: self.run.peak_memory,
            divisible_bound: self.divisible_bound,
            traversal: self.traversal().order().to_vec(),
            numeric: factor.map(|factor| factor.report.clone()),
            solve,
            parallel,
            distributed,
            timings,
        };
        Ok((report, handle))
    }

    /// The deterministic distributed cut of this schedule: the subtree task
    /// set a coordinator hands to worker processes.  Depends only on the
    /// plan, the solver's traversal and the `distributed` configuration
    /// section — never on how many workers are attached — which is what
    /// makes the merged factor bit-identical to the single-process
    /// [`Schedule::execute`].
    ///
    /// Errors unless the configuration enables distributed execution
    /// (`distributed.tasks >= 2`) and the numeric stage.
    pub fn distributed_cut(&self, engine: &Engine) -> Result<DistributedCut, EngineError> {
        let distributed = self.plan.config.distributed;
        if !distributed.enabled() {
            return Err(EngineError::InvalidConfig(
                "the distributed cut needs distributed.tasks >= 2".to_string(),
            ));
        }
        let (numeric, cut) = self.cut(engine, distributed.tasks, &distributed.budget)?;
        Ok(DistributedCut {
            cut,
            lease_ms: distributed.lease_ms,
            numeric,
        })
    }

    /// The one cut builder behind every numeric run: the plan's numeric
    /// substrate and its cut along this schedule's factorization order into
    /// at most `max_tasks` subtree tasks under `budget`.
    fn cut(
        &self,
        engine: &Engine,
        max_tasks: usize,
        budget: &BudgetShare,
    ) -> Result<(Arc<NumericModel>, CutPlan), EngineError> {
        let numeric = self.plan.numeric_model()?;
        let order = numeric.order_for(engine, self.solver)?;
        let cut = CutPlan::compute(&numeric, &order, max_tasks, budget);
        Ok((numeric, cut))
    }

    /// The coordinator's final phase of a distributed run — the same
    /// pipeline as [`Schedule::execute`] with the subtree phase already done
    /// by worker processes: absorb their per-task contributions (in task
    /// order), eliminate the above-cut columns sequentially, assemble the
    /// factor, run the solve stage, and fold everything into a [`Report`]
    /// whose `distributed` section carries the cut plus the supplied
    /// cluster `runtime` measurements.  `timings.numeric_seconds` covers the
    /// claim phase (`runtime.claim_wall_seconds`) as well as the merge.
    ///
    /// `contributions[t]` must be the [`SubtreeParts`] of task `t` of `cut`
    /// (the order [`DistributedCut::task_order`] reports) — merging in task
    /// order is what keeps the factor bit-identical to the single-process
    /// path.
    pub fn execute_distributed(
        &self,
        engine: &Engine,
        cut: DistributedCut,
        contributions: Vec<SubtreeParts>,
        runtime: DistributedRuntime,
    ) -> Result<(Report, Option<FactorHandle>), EngineError> {
        let cancel = engine.cancel();
        let started = Instant::now();
        check(cancel, "numeric")?;
        let stage = NumericStage {
            numeric: cut.numeric,
            cut: &cut.cut,
            runner: TaskRunner::Collected(contributions),
            started,
            cluster: Some((cut.lease_ms, runtime)),
        };
        self.finish(Some(Numeric::Run(stage)), cancel)
    }
}

/// The deterministic coordinator-side cut of one scheduled factorization
/// into subtree tasks, obtained via [`Schedule::distributed_cut`].  The
/// per-task slices ([`DistributedCut::task_slice`]) are what travels to the
/// workers; the static peaks are what the coordinator's budget ledger gates
/// claims on.
pub struct DistributedCut {
    cut: CutPlan,
    lease_ms: u64,
    numeric: Arc<NumericModel>,
}

impl DistributedCut {
    /// Number of subtree tasks the cut produced.
    pub fn task_count(&self) -> usize {
        self.cut.task_orders.len()
    }

    /// Bottom-up column order of task `task` (what a worker factors).
    pub fn task_order(&self, task: usize) -> &[usize] {
        &self.cut.task_orders[task]
    }

    /// Statically modeled peak live entries of task `task` (the claim-time
    /// budget reservation).
    pub fn task_peak_entries(&self, task: usize) -> u64 {
        self.cut.task_peaks[task]
    }

    /// Number of factor values task `task` must hand back: `Σ µ(j)` over
    /// its column order.  Contributions carry values only, so this and
    /// [`task_root_blocks`](Self::task_root_blocks) are the whole shape a
    /// coordinator checks an incoming contribution against.
    pub fn task_value_count(&self, task: usize) -> usize {
        self.cut.task_orders[task]
            .iter()
            .map(|&j| self.numeric.structure().rows(j).len())
            .sum()
    }

    /// `(column, dimension)` of every contribution block task `task` leaves
    /// for the merge phase — the columns whose parent lies outside the
    /// task — by increasing column.
    pub fn task_root_blocks(&self, task: usize) -> Vec<(usize, usize)> {
        let order = &self.cut.task_orders[task];
        let structure = self.numeric.structure();
        let mut inside = vec![false; structure.n()];
        for &j in order {
            inside[j] = true;
        }
        let mut blocks: Vec<(usize, usize)> = order
            .iter()
            .filter_map(|&j| {
                let dimension = structure.rows(j).len() - 1;
                let parent = structure.etree.parent(j)?;
                (dimension > 0 && !inside[parent]).then_some((j, dimension))
            })
            .collect();
        blocks.sort_unstable();
        blocks
    }

    /// Task `task`'s slice of the problem — its columns of the permuted
    /// matrix, from which a worker derives the subtree's elimination tree
    /// and factors the task without planning ([`TaskSlice::factor`]).
    pub fn task_slice(&self, task: usize) -> TaskSlice {
        TaskSlice::of_task(&self.numeric, &self.cut.task_orders[task])
    }

    /// The resolved cluster budget in matrix entries (`None` = unbounded).
    pub fn budget_entries(&self) -> Option<u64> {
        self.cut.budget_entries
    }

    /// The configured lease duration per claimed task, in milliseconds.
    pub fn lease_ms(&self) -> u64 {
        self.lease_ms
    }
}

/// Cluster-dynamics measurements the coordinator's job machinery feeds into
/// [`Schedule::execute_distributed`]; they land in the report's
/// [`DistributedReport`] runtime fields.
#[derive(Debug, Clone, Default)]
pub struct DistributedRuntime {
    /// Distinct worker processes that claimed at least one task.
    pub workers: usize,
    /// Tasks re-issued after a lease expiry.
    pub tasks_requeued: u64,
    /// Leases that expired before a contribution arrived.
    pub lease_expiries: u64,
    /// Serialized contribution bytes received from workers.
    pub contribution_bytes: u64,
    /// Wall-clock seconds of the claim/contribute phase (the merge phase's
    /// own wall-clock is added by [`Schedule::execute_distributed`]).
    pub claim_wall_seconds: f64,
    /// Busy seconds per worker process, in first-claim order.
    pub worker_busy_seconds: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EngineConfig, SolveConfig};
    use ordering::OrderingMethod;
    use sparsemat::gen::ProblemKind;
    use std::time::Duration;
    use treemem::gadgets::harpoon;

    /// A schedule's hash is finished from the plan's saved state; it must be
    /// the hash of the configuration with the overrides applied — for every
    /// source kind and every subset of overrides, including a spec that
    /// spells out the configuration's own values.
    #[test]
    fn overridden_schedules_carry_the_effective_config_hash() {
        let engine = Engine::new();
        let bases = [
            EngineConfig::generated(ProblemKind::Grid2d, 144, 3).with_numeric(true),
            EngineConfig::prebuilt(harpoon(4, 400, 1)),
            EngineConfig::generated(ProblemKind::Banded, 12, 3)
                .with_numeric(true)
                .with_solve(SolveConfig::vectors(vec![vec![1.0; 12]])),
        ];
        let mut brute_cells = 0;
        for base in &bases {
            let plan = engine.plan(base).unwrap();
            assert_eq!(plan.config_hash(), base.hash());
            let own_values = ScheduleSpec::default()
                .solver(base.solver.as_str())
                .policy(base.policy.as_str())
                .memory(base.memory)
                .parallel(base.parallel);
            let schedule = plan.schedule_with(&engine, own_values).unwrap();
            assert_eq!(schedule.config_hash(), base.hash());
            // Parallel execution needs the numeric stage; elsewhere the
            // override repeats the default section.
            let workers = if base.numeric { 2 } else { 0 };
            let parallel = ParallelConfig::with_workers(workers);
            let memory = MemoryBudget::FractionOfPeak(0.25);
            for subset in 0..16 {
                let (mut spec, mut effective) = (ScheduleSpec::default(), base.clone());
                if subset & 1 != 0 {
                    spec = spec.solver("postorder");
                    effective = effective.with_solver("postorder");
                }
                if subset & 2 != 0 {
                    spec = spec.policy("BestFit");
                    effective = effective.with_policy("BestFit");
                }
                if subset & 4 != 0 {
                    spec = spec.memory(memory);
                    effective = effective.with_memory(memory);
                }
                if subset & 8 != 0 {
                    spec = spec.parallel(parallel);
                    effective = effective.with_parallel(parallel);
                }
                let schedule = plan.schedule_with(&engine, spec).unwrap();
                let report = schedule.execute(&engine).unwrap();
                assert_eq!(
                    schedule.config_hash(),
                    effective.hash(),
                    "{} subset {subset:04b}",
                    base.source_name()
                );
                assert_eq!(report.config_hash, effective.hash());
                assert_eq!(schedule.config_hash() == base.hash(), effective == *base);
            }
            // Every solver × policy name pair (brute only where it runs):
            // the schedule and its report name exactly what a plan of the
            // overridden configuration names, down to the name strings.
            for solver in Solver::ALL.into_iter().filter(|s| s.supports(plan.tree())) {
                brute_cells += usize::from(solver == Solver::Brute);
                for policy in Policy::ALL {
                    let (solver, policy) = (solver.name(), policy.name());
                    let spec = ScheduleSpec::default().solver(solver).policy(policy);
                    let schedule = plan.schedule_with(&engine, spec).unwrap();
                    let report = schedule.execute(&engine).unwrap();
                    let effective = base.clone().with_solver(solver).with_policy(policy);
                    let direct = engine.plan(&effective).unwrap();
                    let expected = direct.schedule(&engine).unwrap().execute(&engine).unwrap();
                    let cell = format!("{} {solver} {policy}", base.source_name());
                    assert_eq!(schedule.config_hash(), direct.config_hash(), "{cell}");
                    assert_eq!(report.config_hash, expected.config_hash, "{cell}");
                    assert_eq!(report.solver, expected.solver, "{cell}");
                    assert_eq!(report.policy, expected.policy, "{cell}");
                    assert_eq!(report.solver, effective.solver, "{cell}");
                    assert_eq!(report.policy, effective.policy, "{cell}");
                }
            }
        }
        assert!(
            brute_cells > 0,
            "no base is small enough for the brute force"
        );
    }

    #[test]
    fn plans_and_schedules_share_instead_of_copying() {
        let engine = Engine::new();
        // A prebuilt tree is one allocation from configuration to schedule.
        let tree = Arc::new(harpoon(4, 400, 1));
        let holders = Arc::strong_count(&tree);
        {
            let config = EngineConfig::prebuilt(tree.clone());
            let plan = engine.plan(&config).unwrap();
            assert!(std::ptr::eq(plan.tree(), Arc::as_ptr(&tree)));
            let spec = || ScheduleSpec::default().solver("liu");
            let first = plan
                .schedule_with(&engine, spec().policy("BestFit"))
                .unwrap();
            let second = plan.schedule_with(&engine, spec()).unwrap();
            // Two schedules of one solver hold the plan's one traversal.
            assert!(Arc::ptr_eq(&first.solved, &second.solved));
            assert!(std::ptr::eq(first.traversal(), second.traversal()));
            assert!(Arc::strong_count(&tree) > holders);
        }
        assert_eq!(Arc::strong_count(&tree), holders);
        // A re-amalgamated sibling shares the symbolic analysis.
        let config = EngineConfig::generated(ProblemKind::Grid2d, 144, 3);
        let plan = engine.plan(&config).unwrap();
        let sibling = plan.reamalgamate(4).unwrap();
        assert!(Arc::ptr_eq(
            plan.symbolic.as_ref().unwrap(),
            sibling.symbolic.as_ref().unwrap()
        ));
        assert_eq!(plan.permuted_pattern(), sibling.permuted_pattern());
    }

    #[test]
    fn a_cached_factor_renders_the_report_a_run_would() {
        let engine = Engine::new();
        let config = EngineConfig::generated(ProblemKind::Grid2d, 144, 9)
            .with_numeric(true)
            .with_solve(SolveConfig::generated(3, 42));
        let plan = engine.plan(&config).unwrap();
        let schedule = plan.schedule(&engine).unwrap();
        let (fresh, handle) = schedule.execute_with_factor(&engine).unwrap();
        let handle = handle.unwrap();
        let cached = schedule.execute_cached(&engine, &handle).unwrap();
        assert_eq!(cached.config_hash, fresh.config_hash);
        assert_eq!(cached.fingerprint(), fresh.fingerprint());
        assert_eq!(cached.timings.numeric_seconds, 0.0, "no numeric stage ran");
        assert!(cached.timings.solve_seconds > 0.0, "the solve stage did");
        // An expired deadline still cancels.
        let token = crate::cancel::CancelToken::new();
        token.cancel();
        match schedule.execute_cached(&engine.with_cancel(token), &handle) {
            Err(EngineError::Cancelled { stage, .. }) => assert_eq!(stage, "numeric"),
            other => panic!("expected Cancelled, got {:?}", other.err()),
        }
        // Runtime sections and another configuration's factor are refused.
        let parallel = plan
            .schedule_with(
                &engine,
                ScheduleSpec::default().parallel(ParallelConfig::with_workers(2)),
            )
            .unwrap();
        let other = engine
            .plan(&config.clone().with_solve(SolveConfig::generated(2, 1)))
            .unwrap();
        for refused in [parallel, other.schedule(&engine).unwrap()] {
            assert!(matches!(
                refused.execute_cached(&engine, &handle),
                Err(EngineError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn a_fired_token_cancels_the_schedule_and_execute_stages() {
        let engine = Engine::new();
        let config = EngineConfig::generated(ProblemKind::Grid2d, 400, 3).with_numeric(true);
        let plan = engine.plan(&config).unwrap();
        let token = crate::cancel::CancelToken::new();
        token.cancel();
        let cancelled = engine.with_cancel(token);
        match plan.schedule_with(&cancelled, ScheduleSpec::default()) {
            Err(EngineError::Cancelled { stage, elapsed }) => {
                assert_eq!(stage, "solver");
                assert!(elapsed >= Duration::ZERO);
            }
            other => panic!("expected Cancelled, got {:?}", other.err()),
        }
        // A schedule produced without a token still cancels at execute time.
        let schedule = plan.schedule(&engine).unwrap();
        match schedule.execute_with_factor(&cancelled) {
            Err(EngineError::Cancelled { stage, .. }) => assert_eq!(stage, "numeric"),
            other => panic!("expected Cancelled, got {:?}", other.err()),
        }
        // The plan is unpoisoned: a token-free execute completes.
        assert!(schedule.execute(&engine).is_ok());
    }

    #[test]
    fn every_accepted_memory_override_renders_a_parseable_report() {
        let engine = Engine::new();
        for kind in ProblemKind::ALL {
            for numeric in [false, true] {
                let config = EngineConfig::generated(kind, 64, 3).with_numeric(numeric);
                let plan = engine.plan(&config).unwrap();
                let overrides = [
                    MemoryBudget::FractionOfPeak(0.0),
                    MemoryBudget::FractionOfPeak(0.5),
                    MemoryBudget::FractionOfPeak(1.0),
                    MemoryBudget::FractionOfPeak(-0.5),
                    MemoryBudget::FractionOfPeak(2.0),
                    MemoryBudget::Absolute(plan.tree().max_mem_req()),
                    MemoryBudget::Unlimited,
                ];
                for memory in overrides {
                    let report = plan
                        .schedule_with(&engine, ScheduleSpec::default().memory(memory))
                        .unwrap()
                        .execute(&engine)
                        .unwrap();
                    let json = report.to_json();
                    assert!(
                        crate::json::Json::parse(&json).is_ok(),
                        "{kind:?} numeric={numeric} {memory:?}: {json}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_execution_honors_cancellation() {
        let engine = Engine::new();
        let config = EngineConfig::generated(ProblemKind::Grid2d, 900, 7)
            .with_numeric(true)
            .with_parallel(crate::config::ParallelConfig::with_workers(2));
        let plan = engine.plan(&config).unwrap();
        let schedule = plan.schedule(&engine).unwrap();
        let token = crate::cancel::CancelToken::new();
        token.cancel();
        match schedule.execute_with_factor(&engine.with_cancel(token)) {
            Err(EngineError::Cancelled { stage, .. }) => assert_eq!(stage, "numeric"),
            other => panic!("expected Cancelled, got {:?}", other.err()),
        }
        // And the same schedule still completes without a token, with the
        // budget ledger drained (a wedged gate would hang this call).
        assert!(schedule.execute(&engine).is_ok());
    }

    #[test]
    fn distributed_merge_is_bit_identical_to_the_single_process_factor() {
        let engine = Engine::new();
        let base = EngineConfig::generated(ProblemKind::Grid2d, 900, 13)
            .with_ordering(OrderingMethod::NestedDissection)
            .with_numeric(true)
            .with_solve(SolveConfig::generated(2, 5));
        // Reference: the plain single-process execution.
        let reference_plan = engine.plan(&base).unwrap();
        let (reference_report, reference_handle) = reference_plan
            .schedule(&engine)
            .unwrap()
            .execute_with_factor(&engine)
            .unwrap();
        let reference_handle = reference_handle.unwrap();
        // Distributed: cut, factor every task independently (as worker
        // processes would), merge.  Different task counts simulate different
        // cluster shapes; every one must reproduce the factor bit for bit.
        for tasks in [2, 5, 16] {
            let config = base
                .clone()
                .with_distributed(crate::config::DistributedConfig::with_tasks(tasks));
            let plan = engine.plan(&config).unwrap();
            let schedule = plan.schedule(&engine).unwrap();
            let cut = schedule.distributed_cut(&engine).unwrap();
            assert!(cut.task_count() >= 1 && cut.task_count() <= tasks);
            let contributions: Vec<SubtreeParts> = (0..cut.task_count())
                .map(|task| plan.factor_subtree(cut.task_order(task), None).unwrap())
                .collect();
            // The shape a coordinator checks contributions against is the
            // shape honest workers produce.
            for (task, parts) in contributions.iter().enumerate() {
                assert_eq!(parts.values.len(), cut.task_value_count(task));
                let blocks: Vec<(usize, usize)> = parts
                    .blocks
                    .iter()
                    .map(|(column, block)| (column, block.n()))
                    .collect();
                assert_eq!(blocks, cut.task_root_blocks(task));
            }
            let (report, handle) = schedule
                .execute_distributed(&engine, cut, contributions, DistributedRuntime::default())
                .unwrap();
            let handle = handle.unwrap();
            // The merged factor shares the plan's one structure...
            assert!(Arc::ptr_eq(
                &handle.factor().structure,
                plan.numeric_model().unwrap().structure()
            ));
            // ...which is the reference plan's, rebuilt.
            assert_eq!(
                handle.factor().structure.column_counts(),
                reference_handle.factor().structure.column_counts(),
                "structure must match at {tasks} tasks"
            );
            assert_eq!(
                handle.factor().values,
                reference_handle.factor().values,
                "values must be bit-identical at {tasks} tasks"
            );
            let distributed = report.distributed.as_ref().expect("distributed section");
            assert_eq!(distributed.cut.max_tasks, tasks);
            // The deterministic outcome (factor size, solve residual) matches
            // the reference run's too.
            assert_eq!(
                report.numeric.as_ref().unwrap().factor_nnz,
                reference_report.numeric.as_ref().unwrap().factor_nnz
            );
            assert_eq!(
                report.solve.as_ref().unwrap().max_residual,
                reference_report.solve.as_ref().unwrap().max_residual,
                "seeded solve through a bit-identical factor is bit-identical"
            );
        }
    }
}
