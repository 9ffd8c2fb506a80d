//! The matrix-pipeline workloads: `report_seq`, `report_par2`,
//! `report_dist2`, `numeric_grid3d` and `plan_nd`.  One operation is one cold
//! run of a generated problem — a fresh `Engine` and `Plan`, a value seed no
//! other operation of the run uses — through one of the three executors.

use std::time::Duration;

use distrib::{contribution_frame, ClaimReply, Contribution};
use engine::json::Json;
use engine::prelude::*;
use server::client::ClientResponse;
use treemem::postorder::best_postorder;
use treemem::tree::Size;

use crate::replay::{check_peaks, check_schedule, staged_pipeline, Stage, Staged};
use crate::runner::{add, Batch, OpFacts, Quality, QualityBuilder, Rep, RunArgs, Stopwatch};
use crate::seeds::derive;
use crate::spans::{covered_frac, Recorder, SpanId};
use crate::workloads::cluster::Cluster;
use crate::workloads::scaled;

/// How the numeric stage executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// `Schedule::execute`, one thread.
    Sequential,
    /// `engine::parexec` with `parallel.workers = 2`.
    Parallel,
    /// Coordinator + two worker threads over loopback HTTP.
    Distributed,
}

/// One pipeline workload.
#[derive(Debug, Clone)]
pub struct Pipeline {
    kind: ProblemKind,
    nodes: usize,
    /// Stop after `Plan::schedule` (the `/schedule` path).
    schedule_only: bool,
    /// Follow the factorization with the 16-RHS solve stage.
    solve: bool,
    executor: Executor,
}

/// Relaxed-amalgamation allowance of every pipeline workload.
const AMALGAMATION: usize = 16;

/// Memory budget: half-way between the largest node and the traversal peak.
const MEMORY: MemoryBudget = MemoryBudget::FractionOfPeak(0.5);

/// Largest accepted known-answer solve error.
const MAX_SOLVE_ERROR: f64 = 1e-9;

/// Largest accepted solve-stage residual.
const MAX_RESIDUAL: f64 = 1e-8;

impl Pipeline {
    /// `report_seq` / `report_par2` / `report_dist2`: the served cold
    /// `/report` on a wide 2-D grid, by executor.
    pub fn report(executor: Executor, smoke: bool) -> Pipeline {
        Pipeline {
            kind: ProblemKind::Grid2dWide,
            nodes: scaled(30_000, smoke),
            schedule_only: false,
            solve: false,
            executor,
        }
    }

    /// `numeric_grid3d`: a 3-D grid whose time is almost all numeric.
    pub fn numeric_grid3d(smoke: bool) -> Pipeline {
        Pipeline {
            kind: ProblemKind::Grid3d,
            // 7³ is the smallest 3-D grid whose half-way budget forces I/O.
            nodes: scaled(4_913, smoke).max(343),
            schedule_only: false,
            solve: true,
            executor: Executor::Sequential,
        }
    }

    /// `plan_nd`: the `/schedule` path on a square grid, all ordering.
    pub fn plan_nd(smoke: bool) -> Pipeline {
        Pipeline {
            kind: ProblemKind::Grid2d,
            nodes: scaled(40_000, smoke),
            schedule_only: true,
            solve: false,
            executor: Executor::Sequential,
        }
    }

    /// The configuration of the operation with value seed `value_seed`,
    /// under `executor` (set-up runs the sequential reference of a parallel
    /// or distributed workload through this too) and the shared `budget` of
    /// its concurrent tasks.
    fn config(&self, value_seed: u64, executor: Executor, budget: BudgetShare) -> EngineConfig {
        let mut config = EngineConfig::generated(self.kind, self.nodes, value_seed)
            .with_ordering(OrderingMethod::NestedDissection)
            .with_amalgamation(AMALGAMATION)
            .with_memory(MEMORY)
            .with_numeric(!self.schedule_only);
        if self.solve {
            config = config.with_solve(SolveConfig::generated(
                crate::replay::SOLVE_RHS,
                derive(value_seed, "rhs", 0),
            ));
        }
        match executor {
            Executor::Sequential => config,
            Executor::Parallel => {
                config.with_parallel(ParallelConfig::with_workers(2).with_budget(budget))
            }
            Executor::Distributed => config.with_distributed(
                DistributedConfig::with_tasks(8)
                    .with_lease_ms(60_000)
                    .with_budget(budget),
            ),
        }
    }

    /// Run `config` through this workload's executor on the clock.
    fn execute(
        &self,
        state: &PipelineState,
        config: &EngineConfig,
        watch: &mut Stopwatch,
    ) -> Result<Observed, String> {
        if let Some(cluster) = &state.cluster {
            let body = config.to_json();
            let response = watch.time(|| post_report(cluster, &body))?;
            return Observed::from_report_json(&cold_report_body(response)?);
        }
        if self.schedule_only {
            return watch.time(|| {
                let engine = Engine::new();
                let plan = engine.plan(config).map_err(|e| e.to_string())?;
                let schedule = plan.schedule(&engine).map_err(|e| e.to_string())?;
                Ok(Observed::from_schedule(&schedule))
            });
        }
        let report = watch
            .time(|| Engine::new().run(config))
            .map_err(|e| e.to_string())?;
        Observed::from_report_json(&report.to_json())
    }

    /// The output checks of one operation against the set-up's reference:
    /// the counts a value seed cannot change, then the report's own
    /// invariants.
    fn check(&self, observed: &Observed, reference: &Reference) -> Result<(), String> {
        let expected = &reference.observed;
        if observed.schedule != expected.schedule {
            return Err(format!(
                "schedule counts {:?} differ from the reference's {:?}",
                observed.schedule, expected.schedule
            ));
        }
        let counts = |observed: &Observed| {
            observed
                .numeric
                .as_ref()
                .map(|numeric| (numeric.factor_nnz, numeric.model_peak_entries))
        };
        if counts(observed) != counts(expected) {
            return Err(format!(
                "numeric counts {:?} differ from the reference's {:?}",
                observed.numeric, expected.numeric
            ));
        }
        if self.solve && observed.max_residual.is_none() {
            return Err("the solve stage reported no residual".to_string());
        }
        if self.executor != Executor::Sequential && observed.budget_entries.is_none() {
            return Err("the report carries no shared budget to check against".to_string());
        }
        observed.check_invariants()
    }
}

/// The schedule-level counts of a report: identical for every value seed,
/// since the generated patterns of the grid kinds ignore the seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleCounts {
    solver_peak: Size,
    memory_budget: Size,
    io_volume: Size,
    divisible_bound: Size,
    files_written: u64,
    nodes: u64,
}

/// The numeric section of a report.
#[derive(Debug, Clone, PartialEq)]
pub struct NumericCounts {
    measured_peak_entries: u64,
    model_peak_entries: u64,
    factor_nnz: u64,
    solve_error: f64,
}

/// Everything the checks and the layer tables read from one report.
#[derive(Debug, Clone, PartialEq)]
pub struct Observed {
    schedule: ScheduleCounts,
    traversal: Vec<usize>,
    numeric: Option<NumericCounts>,
    max_residual: Option<f64>,
    /// Shared budget of the parallel or distributed section.
    budget_entries: Option<u64>,
    /// `merge_peak_entries + max_task_peak_entries` of that section: the
    /// tightest budget under which the ledger never forces an admission.
    sufficient_budget: Option<u64>,
    /// Sum of `Report.timings`.
    timings_sum: f64,
    /// `(utilization, merge_seconds, critical_path_seconds)`.
    parallel: Option<(f64, f64, f64)>,
    /// `(merge_seconds, Σ worker_busy_seconds, contribution_bytes,
    /// tasks_requeued, lease_expiries)`.
    distributed: Option<(f64, f64, f64, f64, f64)>,
}

fn field<'j>(json: &'j Json, name: &str) -> Result<&'j Json, String> {
    json.get(name)
        .ok_or_else(|| format!("the report has no `{name}` field"))
}

fn number(json: &Json, name: &str) -> Result<f64, String> {
    field(json, name)?
        .as_f64()
        .ok_or_else(|| format!("report field `{name}` is not a number"))
}

fn integer(json: &Json, name: &str) -> Result<i64, String> {
    field(json, name)?
        .as_i64()
        .ok_or_else(|| format!("report field `{name}` is not an integer"))
}

fn object<'j>(json: &'j Json, name: &str) -> Result<Option<&'j Json>, String> {
    match field(json, name)? {
        Json::Null => Ok(None),
        section @ Json::Obj(_) => Ok(Some(section)),
        _ => Err(format!(
            "report field `{name}` is neither null nor an object"
        )),
    }
}

impl Observed {
    /// Read an `engine_report/v1` document (as `Report::to_json` renders it
    /// and `/report` serves it).
    pub fn from_report_json(body: &str) -> Result<Observed, String> {
        let json = Json::parse(body).map_err(|e| format!("unparsable report: {e}"))?;
        let unsigned = |section: &Json, name: &str| -> Result<u64, String> {
            u64::try_from(integer(section, name)?).map_err(|_| format!("`{name}` is negative"))
        };
        let traversal = field(&json, "traversal")?
            .as_array()
            .ok_or("`traversal` is not an array")?
            .iter()
            .map(|node| node.as_usize().ok_or("non-integer traversal entry"))
            .collect::<Result<Vec<_>, _>>()?;
        let numeric = match object(&json, "numeric")? {
            Some(section) => Some(NumericCounts {
                measured_peak_entries: unsigned(section, "measured_peak_entries")?,
                model_peak_entries: unsigned(section, "model_peak_entries")?,
                factor_nnz: unsigned(section, "factor_nnz")?,
                solve_error: number(section, "solve_error")?,
            }),
            None => None,
        };
        let max_residual = match object(&json, "solve")? {
            Some(section) => field(section, "max_residual")?.as_f64(),
            None => None,
        };
        let seconds_sum = |section: &Json, name: &str| -> Result<f64, String> {
            Ok(field(section, name)?
                .as_array()
                .ok_or_else(|| format!("`{name}` is not an array"))?
                .iter()
                .filter_map(Json::as_f64)
                .sum())
        };
        let parallel = object(&json, "parallel")?;
        let distributed = object(&json, "distributed")?;
        let (budget_entries, sufficient_budget) = match parallel.or(distributed) {
            Some(section) => (
                field(section, "budget_entries")?.as_u64(),
                Some(
                    unsigned(section, "merge_peak_entries")?
                        + unsigned(section, "max_task_peak_entries")?,
                ),
            ),
            None => (None, None),
        };
        let timings = field(&json, "timings")?;
        let Json::Obj(stages) = timings else {
            return Err("`timings` is not an object".to_string());
        };
        Ok(Observed {
            schedule: ScheduleCounts {
                solver_peak: integer(&json, "solver_peak")?,
                memory_budget: integer(&json, "memory_budget")?,
                io_volume: integer(&json, "io_volume")?,
                divisible_bound: integer(&json, "divisible_bound")?,
                files_written: unsigned(&json, "files_written")?,
                nodes: unsigned(&json, "nodes")?,
            },
            traversal,
            numeric,
            max_residual,
            budget_entries,
            sufficient_budget,
            timings_sum: stages.iter().filter_map(|(_, v)| v.as_f64()).sum(),
            parallel: match parallel {
                Some(section) => Some((
                    number(section, "utilization")?,
                    number(section, "merge_seconds")?,
                    number(section, "critical_path_seconds")?,
                )),
                None => None,
            },
            distributed: match distributed {
                Some(section) => Some((
                    number(section, "merge_seconds")?,
                    seconds_sum(section, "worker_busy_seconds")?,
                    number(section, "contribution_bytes")?,
                    number(section, "tasks_requeued")?,
                    number(section, "lease_expiries")?,
                )),
                None => None,
            },
        })
    }

    /// The `/schedule`-path counterpart: read a [`Schedule`] directly.
    fn from_schedule(schedule: &Schedule<'_>) -> Observed {
        let timings = schedule.timings();
        Observed {
            schedule: ScheduleCounts {
                solver_peak: schedule.peak(),
                memory_budget: schedule.memory_budget(),
                io_volume: schedule.io_volume(),
                divisible_bound: schedule.divisible_bound(),
                files_written: schedule.io_run().files_written as u64,
                nodes: schedule.plan().tree().len() as u64,
            },
            traversal: schedule.traversal().order().to_vec(),
            numeric: None,
            max_residual: None,
            budget_entries: None,
            sufficient_budget: None,
            timings_sum: timings.generate_seconds
                + timings.ordering_seconds
                + timings.symbolic_seconds
                + timings.solver_seconds
                + timings.io_seconds,
            parallel: None,
            distributed: None,
        }
    }

    /// The invariants every report must satisfy on its own: I/O at or above
    /// the divisible bound; an accurate factor; the measured peak equal to
    /// the model's (sequential) or within the shared budget (parallel and
    /// distributed); a small solve residual when one was computed.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.schedule.io_volume < self.schedule.divisible_bound {
            return Err(format!(
                "I/O volume {} is below the divisible bound {}",
                self.schedule.io_volume, self.schedule.divisible_bound
            ));
        }
        if let Some(numeric) = &self.numeric {
            // NaN is a failed factorization too.
            if numeric.solve_error.is_nan() || numeric.solve_error > MAX_SOLVE_ERROR {
                return Err(format!(
                    "solve error {:e} exceeds {MAX_SOLVE_ERROR:e}",
                    numeric.solve_error
                ));
            }
            if self.parallel.is_none() && self.distributed.is_none() {
                if numeric.measured_peak_entries != numeric.model_peak_entries {
                    return Err(format!(
                        "measured peak {} differs from the model's {}",
                        numeric.measured_peak_entries, numeric.model_peak_entries
                    ));
                }
            } else if let Some(budget) = self.budget_entries {
                if numeric.measured_peak_entries > budget {
                    return Err(format!(
                        "measured peak {} exceeds the shared budget {budget}",
                        numeric.measured_peak_entries
                    ));
                }
            }
        }
        match self.max_residual {
            Some(residual) if residual.is_nan() || residual > MAX_RESIDUAL => Err(format!(
                "solve residual {residual:e} exceeds {MAX_RESIDUAL:e}"
            )),
            _ => Ok(()),
        }
    }

    /// Whether a `/schedule` answer carries this report's schedule counts.
    pub fn same_schedule(
        &self,
        solver_peak: Size,
        io_volume: Size,
        divisible_bound: Size,
    ) -> Result<(), String> {
        let counts = &self.schedule;
        if (solver_peak, io_volume, divisible_bound)
            != (counts.solver_peak, counts.io_volume, counts.divisible_bound)
        {
            return Err(format!(
                "schedule answer ({solver_peak}, {io_volume}, {divisible_bound}) differs from \
                 the report's {counts:?}"
            ));
        }
        Ok(())
    }

    /// Whether two reports of one configuration carry the same result:
    /// every count, the traversal, and the solve error bit for bit.
    pub fn same_result(&self, other: &Observed) -> bool {
        let bits = |observed: &Observed| {
            observed.numeric.as_ref().map(|numeric| {
                (
                    numeric.factor_nnz,
                    numeric.model_peak_entries,
                    numeric.solve_error.to_bits(),
                )
            })
        };
        self.schedule == other.schedule
            && self.traversal == other.traversal
            && bits(self) == bits(other)
    }

    /// `(solver_peak, io_volume, divisible_bound)` of the report's schedule.
    pub fn schedule_counts(&self) -> (Size, Size, Size) {
        let counts = &self.schedule;
        (counts.solver_peak, counts.io_volume, counts.divisible_bound)
    }

    /// `factor_nnz` and the bit pattern of `solve_error`, for the `rep` line
    /// the parent process cross-checks between the three executors.
    fn detail(&self) -> String {
        match &self.numeric {
            Some(numeric) => format!(
                "factor_nnz={} solve_error_bits={:#018x}",
                numeric.factor_nnz,
                numeric.solve_error.to_bits()
            ),
            None => format!("io_volume={}", self.schedule.io_volume),
        }
    }
}

/// What set-up learned from the sequential reference run.
pub struct Reference {
    observed: Observed,
    quality: Quality,
}

/// The state set-up builds.
pub struct PipelineState {
    seed: u64,
    reference: Reference,
    /// Shared budget of the timed operations' concurrent tasks.
    budget: BudgetShare,
    cluster: Option<Cluster>,
}

impl Batch for Pipeline {
    type State = PipelineState;

    /// Spawn the cluster (distributed only), then warm up with one run whose
    /// value seed no timed operation uses: a staged sequential run, which is
    /// also the reference every operation's counts are checked against, and
    /// — for the parallel and distributed executors — one unbounded run
    /// through the executor that must reproduce the reference bit for bit.
    /// Its cut yields the shared budget of the timed operations: merge peak
    /// plus largest task, the tightest budget that needs no forced
    /// admission, which makes `measured ≤ budget` a checked guarantee.
    fn setup(&self, args: &RunArgs) -> Result<PipelineState, String> {
        let cluster = match self.executor {
            Executor::Distributed => Some(Cluster::spawn()?),
            _ => None,
        };
        let warmup_seed = derive(args.seed, "warm-up-value", 0);
        let engine = Engine::new();
        let config = self.config(warmup_seed, Executor::Sequential, BudgetShare::Unbounded);
        let plan = engine.plan(&config).map_err(|e| e.to_string())?;
        let schedule = plan.schedule(&engine).map_err(|e| e.to_string())?;
        let tree = plan.tree();
        check_schedule(
            tree,
            schedule.traversal(),
            schedule.io_run(),
            schedule.memory_budget(),
            schedule.divisible_bound(),
        )?;
        let postorder_peak = best_postorder(tree).peak;
        let liu_peak = plan
            .solve(&engine, "liu")
            .map_err(|e| e.to_string())?
            .0
            .peak;
        check_peaks(postorder_peak, liu_peak, schedule.peak())?;
        let observed = if self.schedule_only {
            Observed::from_schedule(&schedule)
        } else {
            let report = schedule.execute(&engine).map_err(|e| e.to_string())?;
            Observed::from_report_json(&report.to_json())?
        };
        let (solver_peak, io_volume, bound) = observed.schedule_counts();
        let mut quality = QualityBuilder::default();
        quality.add_tree(solver_peak, postorder_peak, io_volume, bound);
        let quality = quality.finish()?;
        let mut state = PipelineState {
            seed: args.seed,
            reference: Reference { observed, quality },
            budget: BudgetShare::Unbounded,
            cluster,
        };
        if self.executor != Executor::Sequential {
            let config = self.config(warmup_seed, self.executor, BudgetShare::Unbounded);
            let warm = self.execute(&state, &config, &mut Stopwatch::default())?;
            warm.check_invariants()?;
            if !warm.same_result(&state.reference.observed) {
                return Err(
                    "the executor's result is not bit-identical to the sequential reference"
                        .to_string(),
                );
            }
            state.budget = BudgetShare::Entries(
                warm.sufficient_budget
                    .ok_or("the executor's report has no cut to size the budget from")?,
            );
        }
        Ok(state)
    }

    fn teardown(&self, state: PipelineState) {
        if let Some(cluster) = state.cluster {
            // A failed shutdown has nothing to report to: the run's result
            // is already decided.
            let _ = cluster.shutdown();
        }
    }

    fn op(
        &self,
        state: &PipelineState,
        rep: u64,
        watch: &mut Stopwatch,
    ) -> Result<OpFacts, String> {
        // `report_seq`, `report_par2` and `report_dist2` share the value seed
        // of rep *i*, so rep *i* of the three factors one matrix.
        let config = self.config(
            derive(state.seed, "matrix-value", rep),
            self.executor,
            state.budget,
        );
        let observed = self.execute(state, &config, watch)?;
        self.check(&observed, &state.reference)?;
        Ok(OpFacts {
            quality: state.reference.quality,
            detail: observed.detail(),
        })
    }

    fn traced(
        &self,
        state: &PipelineState,
        rep: u64,
        recorder: &Recorder,
        out: &mut Rep,
    ) -> Result<(), String> {
        // A value seed of its own: the traced run's untraced operation used
        // `rep`'s, and a server must not answer this one from its caches.
        let config = self.config(
            derive(state.seed, "traced-matrix-value", rep),
            self.executor,
            state.budget,
        );
        let (observed, root) = match &state.cluster {
            Some(cluster) => self.traced_distributed(cluster, &config, rep, recorder, out)?,
            None => self.traced_in_process(&config, rep, recorder, out)?,
        };
        let op_s = recorder.seconds(root);
        add(out, "harness.traced_op_s", op_s);
        self.check(&observed, &state.reference)?;
        add(out, "engine.timings_sum_s", observed.timings_sum);
        add(
            out,
            "engine.unattributed_frac",
            1.0 - observed.timings_sum / op_s,
        );
        if let Some((utilization, merge, critical_path)) = observed.parallel {
            add(out, "engine.par_utilization", utilization);
            add(out, "engine.par_merge_s", merge);
            add(out, "engine.par_critical_path_s", critical_path);
        }
        if let Some((merge, busy, bytes, requeues, expiries)) = observed.distributed {
            add(out, "distrib.merge_s", merge);
            add(out, "distrib.worker_busy_s", busy);
            add(out, "distrib.contribution_mb", bytes / (1024.0 * 1024.0));
            add(out, "distrib.requeues", requeues);
            add(out, "distrib.lease_expiries", expiries);
        }

        // The staged replay of the same configuration, and the proof that
        // it did the same work.
        let staged = staged_pipeline(&config, recorder, rep, out)?;
        replay_matches(&staged, &observed)?;
        let spans = recorder.snapshot();
        add(out, "harness.attributed_frac", covered_frac(&spans, root));

        // Engine self times: the call minus the layer calls it made.
        let plan_layers = sum_of(
            out,
            &[
                "sparsemat.generate_s",
                "ordering.order_s",
                "ordering.permute_s",
                "symbolic.etree_s",
                "symbolic.colcount_s",
                "symbolic.amalgamate_s",
            ],
        );
        let schedule_layers = sum_of(out, &["treemem.minmem_s", "minio.lsnf_s", "minio.bound_s"]);
        if let Some(&plan_s) = out.get("engine.plan_s") {
            add(out, "engine.plan_self_s", (plan_s - plan_layers).max(0.0));
        }
        if let Some(&schedule_s) = out.get("engine.schedule_s") {
            add(
                out,
                "engine.schedule_self_s",
                (schedule_s - schedule_layers).max(0.0),
            );
        }
        if let (Some(&execute_s), Executor::Sequential) =
            (out.get("engine.execute_s"), self.executor)
        {
            let mut execute_layers = sum_of(
                out,
                &[
                    "sparsemat.spd_values_s",
                    "multifrontal.structure_s",
                    "multifrontal.model_s",
                    "treemem.model_order_s",
                    "multifrontal.factor_s",
                    "multifrontal.solve_check_s",
                ],
            );
            if self.solve {
                execute_layers += sum_of(out, &["multifrontal.solve_s"]);
            }
            add(
                out,
                "engine.execute_self_s",
                (execute_s - execute_layers).max(0.0),
            );
        }

        // Serialization probes on this operation's own documents.
        let probe = Stage {
            recorder,
            op: rep,
            parent: None,
        };
        let text = config.to_json();
        probe.call(
            out,
            "engine",
            "config_parse",
            "engine.config_parse_s",
            || std::hint::black_box(EngineConfig::from_json(&text).is_ok()),
        );
        probe.call(out, "engine", "config_hash", "engine.config_hash_s", || {
            std::hint::black_box(config.hash())
        });
        Ok(())
    }
}

impl Pipeline {
    /// The three engine entry points the untraced `Engine::run` chains,
    /// each in its own span under the operation's root (returned).
    fn traced_in_process(
        &self,
        config: &EngineConfig,
        rep: u64,
        recorder: &Recorder,
        out: &mut Rep,
    ) -> Result<(Observed, SpanId), String> {
        let root = recorder.open(None, rep, "harness", "op");
        let engine = Engine::new();
        let (plan, plan_s) =
            recorder.time(Some(root), rep, "engine", "plan", || engine.plan(config));
        let plan = plan.map_err(|e| e.to_string())?;
        add(out, "engine.plan_s", plan_s);
        let (schedule, schedule_s) = recorder.time(Some(root), rep, "engine", "schedule", || {
            plan.schedule(&engine)
        });
        let schedule = schedule.map_err(|e| e.to_string())?;
        add(out, "engine.schedule_s", schedule_s);
        if self.schedule_only {
            recorder.close(root);
            return Ok((Observed::from_schedule(&schedule), root));
        }
        let (report, execute_s) = recorder.time(Some(root), rep, "engine", "execute", || {
            schedule.execute(&engine)
        });
        recorder.close(root);
        let report = report.map_err(|e| e.to_string())?;
        add(out, "engine.execute_s", execute_s);
        let (body, json_s) = recorder.time(None, rep, "engine", "report_json", || report.to_json());
        add(out, "engine.report_json_s", json_s);
        add(out, "engine.report_json_bytes", body.len() as f64);
        Ok((Observed::from_report_json(&body)?, root))
    }

    /// One `/report` through the cluster with the workers' posts recorded
    /// under the operation's root (returned), then the wire and worker
    /// probes on the captured frames.
    fn traced_distributed(
        &self,
        cluster: &Cluster,
        config: &EngineConfig,
        rep: u64,
        recorder: &Recorder,
        out: &mut Rep,
    ) -> Result<(Observed, SpanId), String> {
        let body = config.to_json();
        cluster.tap.take_events();
        cluster.tap.set_capture(true);
        let root = recorder.open(None, rep, "harness", "op");
        let (response, _) = recorder.time(Some(root), rep, "server", "report_post", || {
            post_report(cluster, &body)
        });
        recorder.close(root);
        cluster.tap.set_capture(false);
        let response_body = cold_report_body(response?)?;
        let mut frame_bytes = 0usize;
        for event in cluster.tap.take_events() {
            let (name, metric) = match (event.claim, event.idle) {
                (true, true) => ("claim_idle", None),
                (true, false) => ("claim_post", Some("distrib.claim_post_s")),
                (false, _) => ("contribute_post", Some("distrib.contribute_post_s")),
            };
            recorder.record(Some(root), rep, "distrib", name, event.start, event.end);
            if let Some(metric) = metric {
                add(out, metric, (event.end - event.start).as_secs_f64());
                frame_bytes += event.bytes;
            }
        }
        add(
            out,
            "distrib.frame_mb",
            frame_bytes as f64 / (1024.0 * 1024.0),
        );
        add(out, "engine.report_json_bytes", response_body.len() as f64);

        // What one worker does with one task, and what the wire costs, on
        // the frames this very operation exchanged.
        let task_frame = cluster
            .tap
            .take_task_frame()
            .ok_or("no task frame was captured")?;
        let contribution = cluster
            .tap
            .take_contribution_frame()
            .ok_or("no contribution frame was captured")?;
        let ClaimReply::Task(task) =
            ClaimReply::from_frame(task_frame.as_bytes()).map_err(|e| e.to_string())?
        else {
            return Err("the captured claim reply is not a task".to_string());
        };
        let engine = Engine::new();
        let (plan, seconds) = recorder.time(None, rep, "distrib", "worker_plan", || {
            EngineConfig::from_json(&task.config)
                .map_err(|e| e.to_string())
                .and_then(|config| engine.plan(&config).map_err(|e| e.to_string()))
        });
        add(out, "distrib.worker_plan_s", seconds);
        let plan = plan?;
        let (parts, seconds) = recorder.time(None, rep, "distrib", "worker_factor", || {
            plan.factor_subtree(&task.order, None)
        });
        add(out, "distrib.worker_factor_s", seconds);
        let parts = parts.map_err(|e| e.to_string())?;
        let (frame, seconds) = recorder.time(None, rep, "distrib", "encode", || {
            contribution_frame(task.job, task.task, task.epoch, "probe", 0.0, &parts)
        });
        add(out, "distrib.encode_s", seconds);
        std::hint::black_box(frame);
        let (decoded, seconds) = recorder.time(None, rep, "distrib", "decode", || {
            Contribution::from_frame(contribution.as_bytes())
        });
        add(out, "distrib.decode_s", seconds);
        decoded.map_err(|e| format!("the captured contribution does not decode: {e}"))?;
        Ok((Observed::from_report_json(&response_body)?, root))
    }
}

/// `POST /report` to the cluster's coordinator.
fn post_report(cluster: &Cluster, body: &str) -> Result<ClientResponse, String> {
    server::client::post_with_timeout(
        cluster.server.addr(),
        "/report",
        body,
        Duration::from_secs(150),
    )
    .map_err(|e| e.to_string())
}

/// The body of a cold `/report`: status 200 and a plan miss, or an error.
fn cold_report_body(response: ClientResponse) -> Result<String, String> {
    if response.status != 200 {
        return Err(format!(
            "/report answered {}: {}",
            response.status,
            response.body.trim()
        ));
    }
    if response.header("x-cache") != Some("miss") {
        return Err(format!(
            "a cold /report must be a plan miss, got X-Cache {:?}",
            response.header("x-cache")
        ));
    }
    Ok(response.body)
}

/// Sum of the named values of `rep` (absent names count 0).
fn sum_of(rep: &Rep, names: &[&str]) -> f64 {
    names.iter().filter_map(|name| rep.get(name)).sum()
}

/// The proof obligation of the staged replay: same traversal, peak, I/O
/// volume and bound, same factor size, bit-identical solve error.
fn replay_matches(staged: &Staged, observed: &Observed) -> Result<(), String> {
    let counts = &observed.schedule;
    if staged.traversal != observed.traversal
        || staged.peak != counts.solver_peak
        || staged.io_volume != counts.io_volume
        || staged.divisible_bound != counts.divisible_bound
    {
        return Err(format!(
            "the staged replay scheduled differently: peak {} io {} bound {} against {counts:?}",
            staged.peak, staged.io_volume, staged.divisible_bound
        ));
    }
    match (&staged.numeric, &observed.numeric) {
        (None, None) => Ok(()),
        (Some(replayed), Some(numeric)) => {
            if replayed.factor_nnz as u64 != numeric.factor_nnz
                || replayed.model_peak_entries as u64 != numeric.model_peak_entries
                || replayed.solve_error.to_bits() != numeric.solve_error.to_bits()
            {
                return Err(format!(
                    "the staged replay factored differently: {replayed:?} against {numeric:?}"
                ));
            }
            Ok(())
        }
        _ => Err("the staged replay and the engine disagree on the numeric stage".to_string()),
    }
}
