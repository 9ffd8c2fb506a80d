//! The serializable outcome of one engine run.

use treemem::tree::{NodeId, Size};

use crate::config::MemoryBudget;
use crate::json::{Array, Fields, Fixed, Sci, Value, Writer};

/// The cut-plan half of a [`ParallelReport`] or [`DistributedReport`]: the
/// shape of the proportional cut, its statically modeled peaks and the
/// resolved budget.  A pure function of the configuration's cut section and
/// the traversal — never of worker counts, scheduling or cluster dynamics —
/// so it is part of the report's deterministic identity
/// ([`Report::fingerprint`] keeps it while zeroing the runtime fields next
/// to it).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CutReport {
    /// Cut granularity the partition was computed with
    /// (`parallel.max_tasks` / `distributed.tasks`).
    pub max_tasks: usize,
    /// Number of subtree tasks the cut produced.
    pub subtree_count: usize,
    /// Number of columns above the cut (the sequential merge phase).
    pub above_cut_nodes: usize,
    /// The sequential MinMemory bound: the model peak of the chosen
    /// traversal executed sequentially, in matrix entries.
    pub sequential_peak_entries: Size,
    /// The resolved shared budget in matrix entries (`None` = unbounded).
    pub budget_entries: Option<u64>,
    /// Largest statically modeled peak over the subtree tasks.
    pub max_task_peak_entries: u64,
    /// Statically modeled peak of the merge phase (inherited blocks plus
    /// above-cut fronts).
    pub merge_peak_entries: u64,
    /// Tasks whose static peak exceeds the budget on their own (each such
    /// task is run alone — the degrade-to-sequential path).
    pub oversized_tasks: usize,
}

/// Measurements of the parallel (subtree-concurrent) numeric execution: the
/// deterministic [`CutReport`] plus *runtime* fields (worker count, measured
/// peak, forced admissions, all timings and utilization) that vary with the
/// machine and the interleaving.  [`Report::fingerprint`] zeroes the runtime
/// fields, which is what makes reports bit-comparable across worker counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParallelReport {
    /// The cut and its static peaks (deterministic).
    pub cut: CutReport,
    /// Worker threads the run was configured with (runtime).
    pub workers: usize,
    /// Measured high-water mark of live entries across all workers
    /// (runtime: depends on the interleaving).
    pub measured_peak_entries: u64,
    /// Times the ledger force-admitted a task over budget because nothing
    /// was running (runtime).
    pub forced_admissions: u64,
    /// Wall-clock of the whole parallel execution (tasks + merge).
    pub wall_seconds: f64,
    /// Longest task plus the merge phase: the chain no worker count can
    /// beat.
    pub critical_path_seconds: f64,
    /// Wall-clock of the sequential merge phase.
    pub merge_seconds: f64,
    /// Per-task wall-clock seconds, in task order (largest subtree first).
    pub task_seconds: Vec<f64>,
    /// Busy seconds per worker.
    pub worker_busy_seconds: Vec<f64>,
    /// Total busy time (tasks + merge) over `workers × wall_seconds`.
    pub utilization: f64,
}

/// Measurements of the distributed (multi-process) numeric execution: the
/// deterministic [`CutReport`] and lease duration plus *runtime* fields
/// (worker processes seen, per-worker timings, requeues, lease expiries,
/// bytes moved) that depend on cluster dynamics and are zeroed by
/// [`Report::fingerprint`] — which is exactly what makes a distributed
/// report bit-comparable to the single-process run of the same plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DistributedReport {
    /// The cut and its static peaks (deterministic).
    pub cut: CutReport,
    /// Lease duration per claimed task, in milliseconds.
    pub lease_ms: u64,
    /// Distinct worker processes that claimed at least one task (runtime).
    pub workers: usize,
    /// Tasks re-issued after a lease expiry (runtime).
    pub tasks_requeued: u64,
    /// Leases that expired before a contribution arrived (runtime).
    pub lease_expiries: u64,
    /// Serialized contribution bytes received from workers (runtime).
    pub contribution_bytes: u64,
    /// Wall-clock of the whole distributed execution (runtime).
    pub wall_seconds: f64,
    /// Wall-clock of the coordinator's sequential merge phase (runtime).
    pub merge_seconds: f64,
    /// Busy seconds per worker process, in first-claim order (runtime).
    pub worker_busy_seconds: Vec<f64>,
}

/// Wall-clock seconds of every pipeline stage, each measured once with
/// `std::time::Instant`.  Stages that did not run (e.g. ordering on a prebuilt
/// tree, or the numeric stage when it is disabled) report `0.0`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageTimings {
    /// Problem acquisition (generator / MatrixMarket parse).
    pub generate_seconds: f64,
    /// Fill-reducing ordering plus elimination tree and column counts.
    pub ordering_seconds: f64,
    /// Amalgamation into the weighted assembly tree.
    pub symbolic_seconds: f64,
    /// The MinMemory solver.
    pub solver_seconds: f64,
    /// The out-of-core simulation plus the divisible lower bound.
    pub io_seconds: f64,
    /// The numeric multifrontal factorization (0.0 when disabled).
    pub numeric_seconds: f64,
    /// The batched triangular solve plus the optional residual check (0.0
    /// when the solve stage is disabled).
    pub solve_seconds: f64,
}

/// Measurements of the solve stage (batched forward/backward substitution
/// through the computed factor).
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// Number of right-hand sides solved in the batch.
    pub rhs_count: usize,
    /// Largest max-norm residual `‖Ax − b‖∞` over the batch, when the
    /// residual check was enabled.
    pub max_residual: Option<f64>,
}

/// Measurements of the numeric multifrontal factorization stage.
#[derive(Debug, Clone, PartialEq)]
pub struct NumericReport {
    /// Peak live temporary entries measured during the execution.
    pub measured_peak_entries: usize,
    /// Peak predicted by the paper's per-column tree model for the same
    /// traversal (the two must agree).
    pub model_peak_entries: Size,
    /// Nonzeros of the computed Cholesky factor.
    pub factor_nnz: usize,
    /// Max-norm error of solving a system with a known answer through the
    /// computed factor (a correctness check on the factorization).
    pub solve_error: f64,
}

/// Everything one plan → schedule → execute run produced, with provenance.
///
/// ```
/// use engine::{Engine, EngineConfig};
/// use treemem::gadgets::harpoon;
///
/// let engine = Engine::new();
/// let report = engine
///     .run(&EngineConfig::prebuilt(harpoon(3, 300, 1)))
///     .unwrap();
/// assert_eq!(report.solver, "minmem");
/// assert_eq!(report.traversal.len(), report.nodes);
/// // Reports serialize to JSON for storage and transport.
/// assert!(report.to_json().contains("\"schema\": \"engine_report/v1\""));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// FNV-1a hash of the *effective* configuration's canonical JSON — the
    /// plan's configuration with any `ScheduleSpec` overrides applied, so
    /// replaying the hashed configuration reproduces exactly this report.
    pub config_hash: String,
    /// Human-readable problem-source name.
    pub source: String,
    /// Ordering method name.
    pub ordering: String,
    /// Relaxed-amalgamation allowance.
    pub amalgamation: usize,
    /// Solver that produced the traversal.
    pub solver: String,
    /// Eviction policy that produced the I/O schedule.
    pub policy: String,
    /// Number of nodes of the (assembly) tree.
    pub nodes: usize,
    /// Number of unknowns of the underlying matrix (0 for prebuilt trees).
    pub matrix_n: usize,
    /// Peak memory of the traversal (the MinMemory objective).
    pub solver_peak: Size,
    /// The resolved absolute memory budget of the simulated execution.
    pub memory_budget: Size,
    /// The budget as it was specified (absolute / fraction / unlimited).
    pub budget_spec: MemoryBudget,
    /// Volume written to secondary memory (the MinIO objective).
    pub io_volume: Size,
    /// Volume read back from secondary memory.
    pub read_volume: Size,
    /// Number of files written out.
    pub files_written: usize,
    /// Peak main-memory usage of the out-of-core execution.
    pub io_peak_memory: Size,
    /// Divisible-relaxation lower bound for this traversal and budget.
    pub divisible_bound: Size,
    /// The traversal (top-down order, root first).
    pub traversal: Vec<NodeId>,
    /// Numeric factorization measurements, when the stage ran.
    pub numeric: Option<NumericReport>,
    /// Solve-stage measurements, when the solve stage ran.
    pub solve: Option<SolveReport>,
    /// Parallel execution measurements, when the numeric stage ran with
    /// `workers >= 1`.
    pub parallel: Option<ParallelReport>,
    /// Distributed execution measurements, when the numeric stage was
    /// sharded across worker processes (`distributed.tasks >= 2`).
    pub distributed: Option<DistributedReport>,
    /// Per-stage wall-clock times.
    pub timings: StageTimings,
}

impl Report {
    /// Render the report as a JSON document (schema `engine_report/v1`).
    pub fn to_json(&self) -> String {
        self.render(
            &self.config_hash,
            self.numeric.as_ref(),
            self.parallel.as_ref(),
            self.distributed.as_ref(),
            &self.timings,
        )
    }

    /// A deterministic identity of the result — every field except the run's
    /// provenance (`config_hash`), the wall-clock timings and the
    /// runtime-dependent parallel measurements — used by tests to assert
    /// that two runs produced the same outcome (e.g. parallel runs with
    /// different worker counts, whose configurations — and therefore config
    /// hashes — legitimately differ while the outcome must not).
    ///
    /// For parallel and distributed runs the measured peak depends on how
    /// the tasks interleaved, so `numeric.measured_peak_entries` and the
    /// section's runtime fields are zeroed alongside the timings;
    /// everything else — traversal, I/O schedule, factor size, solve
    /// residual, the cut shape and the static peaks — must be bit-identical
    /// for any worker count.
    pub fn fingerprint(&self) -> String {
        // Only the deterministic fields survive; the rest is `Default`.
        let parallel = self.parallel.as_ref().map(|section| ParallelReport {
            cut: section.cut.clone(),
            ..ParallelReport::default()
        });
        let distributed = self.distributed.as_ref().map(|section| DistributedReport {
            cut: section.cut.clone(),
            lease_ms: section.lease_ms,
            ..DistributedReport::default()
        });
        let mut numeric = self.numeric.clone();
        if parallel.is_some() || distributed.is_some() {
            if let Some(numeric) = &mut numeric {
                numeric.measured_peak_entries = 0;
            }
        }
        self.render(
            "",
            numeric.as_ref(),
            parallel.as_ref(),
            distributed.as_ref(),
            &StageTimings::default(),
        )
    }

    /// The one renderer behind [`Report::to_json`] and
    /// [`Report::fingerprint`]; the parameters are the parts a fingerprint
    /// blanks.  Every part streams straight into the one output buffer.
    fn render(
        &self,
        config_hash: &str,
        numeric: Option<&NumericReport>,
        parallel: Option<&ParallelReport>,
        distributed: Option<&DistributedReport>,
        timings: &StageTimings,
    ) -> String {
        // ~7 bytes per traversal entry plus the fixed fields.
        let mut out = String::with_capacity(1024 + 8 * self.traversal.len());
        Writer::document(&mut out)
            .field("schema", "engine_report/v1")
            .field("config_hash", config_hash)
            .field("source", &self.source)
            .field("ordering", &self.ordering)
            .field("amalgamation", self.amalgamation)
            .field("solver", &self.solver)
            .field("policy", &self.policy)
            .field("nodes", self.nodes)
            .field("matrix_n", self.matrix_n)
            .field("solver_peak", self.solver_peak)
            .field("memory_budget", self.memory_budget)
            .field("budget_spec", &self.budget_spec)
            .field("io_volume", self.io_volume)
            .field("read_volume", self.read_volume)
            .field("files_written", self.files_written)
            .field("io_peak_memory", self.io_peak_memory)
            .field("divisible_bound", self.divisible_bound)
            .field("traversal", Array(self.traversal.iter().copied()))
            .field("numeric", numeric)
            .field("solve", self.solve.as_ref())
            .field("parallel", parallel)
            .field("distributed", distributed)
            .field("timings", timings)
            .end()
            .expect("writing to a String cannot fail");
        out
    }
}

// Field names, order and float formats (`Fixed(_, 6)` seconds, `Sci`
// errors) of the parts below are a wire contract.

/// Seconds, as six decimals.
fn seconds(value: f64) -> Fixed {
    Fixed(value, 6)
}

fn seconds_list(values: &[f64]) -> impl Value + '_ {
    Array(values.iter().map(|&value| seconds(value)))
}

/// The leading fields of both section objects.
impl Fields for CutReport {
    fn fields(&self, section: &mut Writer<'_>) {
        section
            .field("max_tasks", self.max_tasks)
            .field("subtree_count", self.subtree_count)
            .field("above_cut_nodes", self.above_cut_nodes)
            .field("sequential_peak_entries", self.sequential_peak_entries)
            .field("budget_entries", self.budget_entries)
            .field("max_task_peak_entries", self.max_task_peak_entries)
            .field("merge_peak_entries", self.merge_peak_entries)
            .field("oversized_tasks", self.oversized_tasks);
    }
}

impl Fields for ParallelReport {
    fn fields(&self, section: &mut Writer<'_>) {
        let busy = seconds_list(&self.worker_busy_seconds);
        self.cut.fields(section);
        section
            .field("workers", self.workers)
            .field("measured_peak_entries", self.measured_peak_entries)
            .field("forced_admissions", self.forced_admissions)
            .field("wall_seconds", seconds(self.wall_seconds))
            .field("critical_path_seconds", seconds(self.critical_path_seconds))
            .field("merge_seconds", seconds(self.merge_seconds))
            .field("task_seconds", seconds_list(&self.task_seconds))
            .field("worker_busy_seconds", busy)
            .field("utilization", seconds(self.utilization));
    }
}

impl Fields for DistributedReport {
    fn fields(&self, section: &mut Writer<'_>) {
        let busy = seconds_list(&self.worker_busy_seconds);
        self.cut.fields(section);
        section
            .field("lease_ms", self.lease_ms)
            .field("workers", self.workers)
            .field("tasks_requeued", self.tasks_requeued)
            .field("lease_expiries", self.lease_expiries)
            .field("contribution_bytes", self.contribution_bytes)
            .field("wall_seconds", seconds(self.wall_seconds))
            .field("merge_seconds", seconds(self.merge_seconds))
            .field("worker_busy_seconds", busy);
    }
}

impl Fields for NumericReport {
    fn fields(&self, section: &mut Writer<'_>) {
        section
            .field("measured_peak_entries", self.measured_peak_entries)
            .field("model_peak_entries", self.model_peak_entries)
            .field("factor_nnz", self.factor_nnz)
            .field("solve_error", Sci(self.solve_error));
    }
}

impl Fields for SolveReport {
    fn fields(&self, section: &mut Writer<'_>) {
        // A non-finite residual renders as `null`, which cannot be confused
        // with "check disabled": `residual_checked` reports that.
        section
            .field("rhs_count", self.rhs_count)
            .field("residual_checked", self.max_residual.is_some())
            .field("max_residual", self.max_residual.map(Sci));
    }
}

impl Fields for StageTimings {
    fn fields(&self, section: &mut Writer<'_>) {
        section
            .field("generate_seconds", seconds(self.generate_seconds))
            .field("ordering_seconds", seconds(self.ordering_seconds))
            .field("symbolic_seconds", seconds(self.symbolic_seconds))
            .field("solver_seconds", seconds(self.solver_seconds))
            .field("io_seconds", seconds(self.io_seconds))
            .field("numeric_seconds", seconds(self.numeric_seconds))
            .field("solve_seconds", seconds(self.solve_seconds));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn sample() -> Report {
        Report {
            config_hash: "0123456789abcdef".to_string(),
            source: "grid2d-400-s42".to_string(),
            ordering: "amd".to_string(),
            amalgamation: 4,
            solver: "minmem".to_string(),
            policy: "LSNF".to_string(),
            nodes: 10,
            matrix_n: 400,
            solver_peak: 123,
            memory_budget: 100,
            budget_spec: MemoryBudget::FractionOfPeak(0.5),
            io_volume: 23,
            read_volume: 23,
            files_written: 2,
            io_peak_memory: 99,
            divisible_bound: 20,
            traversal: vec![0, 2, 1],
            numeric: Some(NumericReport {
                measured_peak_entries: 500,
                model_peak_entries: 500,
                factor_nnz: 1234,
                solve_error: 1e-12,
            }),
            solve: None,
            parallel: None,
            distributed: None,
            timings: StageTimings {
                solver_seconds: 0.25,
                ..StageTimings::default()
            },
        }
    }

    fn sample_parallel() -> ParallelReport {
        ParallelReport {
            cut: CutReport {
                max_tasks: 8,
                subtree_count: 8,
                above_cut_nodes: 3,
                sequential_peak_entries: 400,
                budget_entries: Some(800),
                max_task_peak_entries: 120,
                merge_peak_entries: 300,
                oversized_tasks: 0,
            },
            workers: 4,
            measured_peak_entries: 612,
            forced_admissions: 0,
            wall_seconds: 0.5,
            critical_path_seconds: 0.3,
            merge_seconds: 0.1,
            task_seconds: vec![0.1; 8],
            worker_busy_seconds: vec![0.2; 4],
            utilization: 0.8,
        }
    }

    fn sample_distributed() -> DistributedReport {
        DistributedReport {
            cut: CutReport {
                max_tasks: 16,
                subtree_count: 16,
                above_cut_nodes: 5,
                sequential_peak_entries: 400,
                budget_entries: Some(800),
                max_task_peak_entries: 120,
                merge_peak_entries: 300,
                oversized_tasks: 0,
            },
            lease_ms: 30_000,
            workers: 2,
            tasks_requeued: 1,
            lease_expiries: 1,
            contribution_bytes: 65_536,
            wall_seconds: 0.7,
            merge_seconds: 0.2,
            worker_busy_seconds: vec![0.3, 0.25],
        }
    }

    /// The rendered bytes of the three sample reports as the hand-formatted
    /// (`format!` + `join`) renderer before the `fmt::Write` rewrite produced
    /// them: field names, order, spacing and float formats are a wire
    /// contract (clients, reference JSONs and fingerprints depend on them).
    #[test]
    fn rendered_bytes_are_stable() {
        let plain = sample();
        let mut parallel = sample();
        parallel.parallel = Some(sample_parallel());
        let mut distributed = sample();
        distributed.distributed = Some(sample_distributed());
        distributed.solve = Some(SolveReport {
            rhs_count: 3,
            max_residual: Some(4.5e-13),
        });
        let plain_json = golden("null", "null", "null");
        assert_eq!(plain.to_json(), plain_json);
        assert_eq!(parallel.to_json(), golden("null", GOLDEN_PARALLEL, "null"));
        assert_eq!(
            distributed.to_json(),
            golden(GOLDEN_SOLVE, "null", GOLDEN_DISTRIBUTED)
        );
        // A fingerprint is the same document with provenance, timings and
        // the runtime measurements blanked — and nothing else changed.
        let blank_timings = "\"solver_seconds\": 0.250000";
        assert_eq!(
            plain.fingerprint(),
            plain_json
                .replace("0123456789abcdef", "")
                .replace(blank_timings, "\"solver_seconds\": 0.000000")
        );
        let fingerprint = distributed.fingerprint();
        assert!(fingerprint.contains("\"numeric\": {\"measured_peak_entries\": 0, "));
        assert!(fingerprint.contains(
            "\"lease_ms\": 30000, \"workers\": 0, \"tasks_requeued\": 0, \
             \"lease_expiries\": 0, \"contribution_bytes\": 0, \"wall_seconds\": 0.000000, \
             \"merge_seconds\": 0.000000, \"worker_busy_seconds\": []}"
        ));
        assert!(parallel.fingerprint().contains(
            "\"oversized_tasks\": 0, \"workers\": 0, \"measured_peak_entries\": 0, \
             \"forced_admissions\": 0, \"wall_seconds\": 0.000000, \
             \"critical_path_seconds\": 0.000000, \"merge_seconds\": 0.000000, \
             \"task_seconds\": [], \"worker_busy_seconds\": [], \"utilization\": 0.000000}"
        ));
    }

    /// The parent renderer's bytes up to and including the `numeric` line.
    const GOLDEN_HEAD: &str = concat!(
        "{\n",
        "  \"schema\": \"engine_report/v1\",\n",
        "  \"config_hash\": \"0123456789abcdef\",\n",
        "  \"source\": \"grid2d-400-s42\",\n",
        "  \"ordering\": \"amd\",\n",
        "  \"amalgamation\": 4,\n",
        "  \"solver\": \"minmem\",\n",
        "  \"policy\": \"LSNF\",\n",
        "  \"nodes\": 10,\n",
        "  \"matrix_n\": 400,\n",
        "  \"solver_peak\": 123,\n",
        "  \"memory_budget\": 100,\n",
        "  \"budget_spec\": {\"type\": \"fraction\", \"value\": 0.5},\n",
        "  \"io_volume\": 23,\n",
        "  \"read_volume\": 23,\n",
        "  \"files_written\": 2,\n",
        "  \"io_peak_memory\": 99,\n",
        "  \"divisible_bound\": 20,\n",
        "  \"traversal\": [0,2,1],\n",
        "  \"numeric\": {\"measured_peak_entries\": 500, \"model_peak_entries\": 500, \"factor_nnz\": 1234, \"solve_error\": 1e-12},\n",
    );
    const GOLDEN_SOLVE: &str =
        "{\"rhs_count\": 3, \"residual_checked\": true, \"max_residual\": 4.5e-13}";
    const GOLDEN_PARALLEL: &str = "{\"max_tasks\": 8, \"subtree_count\": 8, \"above_cut_nodes\": 3, \"sequential_peak_entries\": 400, \"budget_entries\": 800, \"max_task_peak_entries\": 120, \"merge_peak_entries\": 300, \"oversized_tasks\": 0, \"workers\": 4, \"measured_peak_entries\": 612, \"forced_admissions\": 0, \"wall_seconds\": 0.500000, \"critical_path_seconds\": 0.300000, \"merge_seconds\": 0.100000, \"task_seconds\": [0.100000,0.100000,0.100000,0.100000,0.100000,0.100000,0.100000,0.100000], \"worker_busy_seconds\": [0.200000,0.200000,0.200000,0.200000], \"utilization\": 0.800000}";
    const GOLDEN_DISTRIBUTED: &str = "{\"max_tasks\": 16, \"subtree_count\": 16, \"above_cut_nodes\": 5, \"sequential_peak_entries\": 400, \"budget_entries\": 800, \"max_task_peak_entries\": 120, \"merge_peak_entries\": 300, \"oversized_tasks\": 0, \"lease_ms\": 30000, \"workers\": 2, \"tasks_requeued\": 1, \"lease_expiries\": 1, \"contribution_bytes\": 65536, \"wall_seconds\": 0.700000, \"merge_seconds\": 0.200000, \"worker_busy_seconds\": [0.300000,0.250000]}";

    /// The parent renderer's bytes for `sample()` with the given sections.
    fn golden(solve: &str, parallel: &str, distributed: &str) -> String {
        format!(
            "{GOLDEN_HEAD}  \"solve\": {solve},\n  \"parallel\": {parallel},\n  \
             \"distributed\": {distributed},\n  \"timings\": {{\"generate_seconds\": 0.000000, \
             \"ordering_seconds\": 0.000000, \"symbolic_seconds\": 0.000000, \
             \"solver_seconds\": 0.250000, \"io_seconds\": 0.000000, \
             \"numeric_seconds\": 0.000000, \"solve_seconds\": 0.000000}}\n}}\n"
        )
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let report = sample();
        let json = Json::parse(&report.to_json()).unwrap();
        assert_eq!(
            json.get("schema").and_then(Json::as_str),
            Some("engine_report/v1")
        );
        assert_eq!(json.get("io_volume").and_then(Json::as_i64), Some(23));
        assert_eq!(
            json.get("traversal")
                .and_then(Json::as_array)
                .map(<[_]>::len),
            Some(3)
        );
        assert_eq!(
            json.get("numeric")
                .and_then(|n| n.get("factor_nnz"))
                .and_then(Json::as_usize),
            Some(1234)
        );
    }

    #[test]
    fn fingerprints_ignore_timings_only() {
        let a = sample();
        let mut b = a.clone();
        b.timings.solver_seconds = 99.0;
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.io_volume = 24;
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn solve_json_includes_the_solve_section() {
        let mut report = sample();
        report.solve = Some(SolveReport {
            rhs_count: 3,
            max_residual: Some(4.5e-13),
        });
        report.timings.solve_seconds = 0.01;
        let json = Json::parse(&report.to_json()).unwrap();
        let solve = json.get("solve").unwrap();
        assert_eq!(solve.get("rhs_count").and_then(Json::as_usize), Some(3));
        assert_eq!(
            solve.get("residual_checked").and_then(Json::as_bool),
            Some(true)
        );
        assert!(solve.get("max_residual").and_then(Json::as_f64).unwrap() < 1e-12);
        // With the check disabled the residual renders as null but the
        // section still reports the batch size.
        report.solve = Some(SolveReport {
            rhs_count: 1,
            max_residual: None,
        });
        let json = Json::parse(&report.to_json()).unwrap();
        let solve = json.get("solve").unwrap();
        assert_eq!(
            solve.get("residual_checked").and_then(Json::as_bool),
            Some(false)
        );
        assert!(solve.get("max_residual").and_then(Json::as_f64).is_none());
    }

    #[test]
    fn fingerprints_keep_the_solve_outcome() {
        // The solve stage is deterministic (bit-identical factor, seeded
        // right-hand sides), so its outcome is part of the identity.
        let mut a = sample();
        a.solve = Some(SolveReport {
            rhs_count: 2,
            max_residual: Some(1e-14),
        });
        let mut b = a.clone();
        b.timings.solve_seconds = 42.0;
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.solve.as_mut().unwrap().rhs_count = 3;
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn parallel_json_includes_the_parallel_section() {
        let mut report = sample();
        report.parallel = Some(sample_parallel());
        let json = Json::parse(&report.to_json()).unwrap();
        let parallel = json.get("parallel").unwrap();
        assert_eq!(parallel.get("workers").and_then(Json::as_usize), Some(4));
        assert_eq!(
            parallel.get("subtree_count").and_then(Json::as_usize),
            Some(8)
        );
        assert_eq!(
            parallel.get("budget_entries").and_then(Json::as_u64),
            Some(800)
        );
    }

    #[test]
    fn distributed_json_includes_the_distributed_section() {
        let mut report = sample();
        report.distributed = Some(sample_distributed());
        let json = Json::parse(&report.to_json()).unwrap();
        let distributed = json.get("distributed").unwrap();
        assert_eq!(distributed.get("workers").and_then(Json::as_usize), Some(2));
        assert_eq!(
            distributed.get("subtree_count").and_then(Json::as_usize),
            Some(16)
        );
        assert_eq!(
            distributed.get("lease_ms").and_then(Json::as_u64),
            Some(30_000)
        );
        assert_eq!(
            distributed
                .get("worker_busy_seconds")
                .and_then(Json::as_array)
                .map(<[_]>::len),
            Some(2)
        );
    }

    #[test]
    fn fingerprints_ignore_distributed_runtime_but_not_the_cut() {
        let mut a = sample();
        a.distributed = Some(sample_distributed());
        // Different cluster dynamics — worker count, requeues, expiries,
        // timings, bytes on the wire: the same run outcome.
        let mut b = a.clone();
        {
            let distributed = b.distributed.as_mut().unwrap();
            distributed.workers = 7;
            distributed.tasks_requeued = 9;
            distributed.lease_expiries = 9;
            distributed.contribution_bytes = 1;
            distributed.wall_seconds = 99.0;
            distributed.merge_seconds = 42.0;
            distributed.worker_busy_seconds = vec![1.0; 7];
        }
        b.numeric.as_mut().unwrap().measured_peak_entries = 999;
        assert_eq!(a.fingerprint(), b.fingerprint());
        // A different cut or lease policy is a different outcome.
        b.distributed.as_mut().unwrap().cut.subtree_count = 17;
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = a.clone();
        c.distributed.as_mut().unwrap().lease_ms = 1;
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn fingerprints_ignore_parallel_runtime_but_not_the_cut() {
        let mut a = sample();
        a.parallel = Some(sample_parallel());
        // Different worker count, interleaving-dependent peak and timings:
        // the same run outcome.
        let mut b = a.clone();
        {
            let parallel = b.parallel.as_mut().unwrap();
            parallel.workers = 8;
            parallel.measured_peak_entries = 700;
            parallel.forced_admissions = 2;
            parallel.wall_seconds = 9.0;
            parallel.worker_busy_seconds = vec![0.1; 8];
            parallel.utilization = 0.2;
        }
        b.numeric.as_mut().unwrap().measured_peak_entries = 999;
        assert_eq!(a.fingerprint(), b.fingerprint());
        // A different cut is a different outcome.
        b.parallel.as_mut().unwrap().cut.subtree_count = 9;
        assert_ne!(a.fingerprint(), b.fingerprint());
        // So is a different static peak or budget.
        let mut c = a.clone();
        c.parallel.as_mut().unwrap().cut.budget_entries = None;
        assert_ne!(a.fingerprint(), c.fingerprint());
    }
}
