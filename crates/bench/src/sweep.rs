//! The parallel MinIO sweep engine.
//!
//! The sweep crosses four axes — {tree corpus} × {memory fractions} ×
//! {registered solvers} × {registered eviction policies} — and records, for
//! every cell, the I/O volume, file count and divisible lower bound of the
//! simulated out-of-core execution.  Work is distributed over worker threads
//! at (tree × solver) granularity through [`engine::parallel::par_map`]:
//! every job computes one solver traversal once and then sweeps all memory
//! sizes and policies on it, which keeps the expensive solver call out of
//! the inner loop.
//!
//! The result can be rendered to a machine-readable JSON report
//! ([`SweepReport::to_json`]); `exp minio-sweep` writes it to
//! `results/exp_minio_sweep/BENCH_minio_sweep.json`.

use std::time::Instant;

use engine::json::{self, Array, Fields, Fixed, Writer};
use engine::parallel::{default_threads, par_map};
use minio::{divisible_lower_bound, schedule_io_with, PolicyRegistry};
use treemem::solver::SolverRegistry;
use treemem::tree::Size;

use crate::corpus::Corpus;
use crate::runner::memory_sweep;

/// Configuration of a sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Memory budgets, as fractions of the way from `max MemReq` (0.0, the
    /// hardest feasible budget) to the solver traversal's peak (1.0, no I/O).
    pub memory_fractions: Vec<f64>,
    /// Worker threads; `None` picks the available parallelism.
    pub threads: Option<usize>,
    /// Solver names to run (subset of the solver registry); empty = every
    /// registered solver that supports the tree.
    pub solvers: Vec<String>,
    /// Policy names to run (subset of the policy registry); empty = every
    /// registered policy.
    pub policies: Vec<String>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            memory_fractions: vec![0.0, 0.25, 0.5, 0.75],
            threads: None,
            solvers: Vec::new(),
            policies: Vec::new(),
        }
    }
}

/// One cell of the sweep: a (tree, solver, memory, policy) combination.
#[derive(Debug, Clone)]
pub struct SweepRecord {
    /// Corpus instance name.
    pub instance: String,
    /// Number of nodes of the tree.
    pub nodes: usize,
    /// Solver that produced the traversal.
    pub solver: String,
    /// Peak memory of that traversal.
    pub solver_peak: Size,
    /// Memory budget of the simulated execution.
    pub memory: Size,
    /// The fraction this budget corresponds to.
    pub fraction: f64,
    /// Eviction policy used.
    pub policy: String,
    /// Volume written to secondary memory.
    pub io_volume: Size,
    /// Number of files written out.
    pub files_written: usize,
    /// Divisible-relaxation lower bound for this traversal and budget.
    pub divisible_bound: Size,
    /// Wall-clock seconds of the simulated out-of-core run for this cell
    /// (the `schedule_io_with` call only, excluding the solver), so future
    /// performance work has a per-cell trajectory to compare against.
    pub cell_seconds: f64,
}

/// The outcome of [`run_sweep`].
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Description of the corpus that was swept.
    pub corpus: String,
    /// Number of trees in the corpus.
    pub trees: usize,
    /// Solver names that ran (registry order).
    pub solvers: Vec<String>,
    /// Policy names that ran (registry order).
    pub policies: Vec<String>,
    /// The memory fractions of the sweep.
    pub memory_fractions: Vec<f64>,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock seconds the sweep took.
    pub elapsed_seconds: f64,
    /// Every (tree, solver, memory, policy) cell.
    pub records: Vec<SweepRecord>,
}

impl SweepReport {
    /// Render the report as a JSON document (schema `minio_sweep/v2`; v2
    /// added the per-cell `cell_seconds` wall-clock field).
    pub fn to_json(&self) -> String {
        let fractions = self.memory_fractions.iter().copied();
        json::document(|doc| {
            doc.field("schema", "minio_sweep/v2")
                .field("corpus", &self.corpus)
                .field("trees", self.trees)
                .field("solvers", Array(&self.solvers))
                .field("policies", Array(&self.policies))
                .field("memory_fractions", Array(fractions))
                .field("threads", self.threads)
                .field("elapsed_seconds", Fixed(self.elapsed_seconds, 3))
                .field("records", Array(&self.records));
        })
    }

    /// Total I/O volume per policy, summed over every cell (a coarse ranking
    /// used by the report printer).
    pub fn totals_by_policy(&self) -> Vec<(String, Size)> {
        self.policies
            .iter()
            .map(|policy| {
                let total = self
                    .records
                    .iter()
                    .filter(|r| &r.policy == policy)
                    .map(|r| r.io_volume)
                    .sum();
                (policy.clone(), total)
            })
            .collect()
    }
}

impl Fields for SweepRecord {
    fn fields(&self, record: &mut Writer<'_>) {
        record
            .field("instance", &self.instance)
            .field("nodes", self.nodes)
            .field("solver", &self.solver)
            .field("solver_peak", self.solver_peak)
            .field("memory", self.memory)
            .field("fraction", self.fraction)
            .field("policy", &self.policy)
            .field("io_volume", self.io_volume)
            .field("files_written", self.files_written)
            .field("divisible_bound", self.divisible_bound)
            .field("cell_seconds", Fixed(self.cell_seconds, 6));
    }
}

/// Run the full sweep of `corpus` with the given registries.
///
/// Every (tree, solver) pair is one parallel job: the job runs the solver
/// once, then sweeps `config.memory_fractions` × policies on the resulting
/// traversal.  Solvers that do not support a tree (e.g. the brute-force
/// oracle beyond its node limit) are skipped for that tree only.
pub fn run_sweep_with(
    corpus: &Corpus,
    solvers: &SolverRegistry,
    policies: &PolicyRegistry,
    config: &SweepConfig,
) -> SweepReport {
    let solver_names: Vec<String> = if config.solvers.is_empty() {
        solvers.names()
    } else {
        config.solvers.clone()
    };
    let policy_names: Vec<String> = if config.policies.is_empty() {
        policies.names()
    } else {
        config.policies.clone()
    };

    // Resolve every requested name once, before any work starts: a typo in
    // the config fails fast here instead of aborting a worker mid-sweep.
    let resolved_solvers: Vec<&dyn treemem::solver::MinMemSolver> = solver_names
        .iter()
        .map(|name| solvers.get_or_err(name).unwrap_or_else(|e| panic!("{e}")))
        .collect();
    let resolved_policies: Vec<&dyn minio::Policy> = policy_names
        .iter()
        .map(|name| policies.get_or_err(name).unwrap_or_else(|e| panic!("{e}")))
        .collect();

    // One job per (tree, solver) pair.
    let jobs: Vec<(usize, usize)> = (0..corpus.trees.len())
        .flat_map(|tree_idx| (0..resolved_solvers.len()).map(move |s| (tree_idx, s)))
        .collect();
    let threads = config
        .threads
        .unwrap_or_else(|| default_threads(jobs.len()));

    let start = Instant::now();
    let per_job: Vec<Vec<SweepRecord>> = par_map(&jobs, threads, |_, &(tree_idx, solver_idx)| {
        let entry = &corpus.trees[tree_idx];
        let solver = resolved_solvers[solver_idx];
        if !solver.supports(&entry.tree) {
            return Vec::new();
        }
        let solved = solver.solve(&entry.tree);
        let mut records = Vec::new();
        for (fraction, memory) in config.memory_fractions.iter().zip(memory_sweep(
            &entry.tree,
            solved.peak,
            &config.memory_fractions,
        )) {
            let bound = divisible_lower_bound(&entry.tree, &solved.traversal, memory)
                .expect("memory is above max MemReq by construction");
            for (policy_idx, policy) in resolved_policies.iter().enumerate() {
                let cell_start = Instant::now();
                let run = schedule_io_with(&entry.tree, &solved.traversal, memory, *policy)
                    .expect("memory is above max MemReq by construction");
                let cell_seconds = cell_start.elapsed().as_secs_f64();
                records.push(SweepRecord {
                    instance: entry.name.clone(),
                    nodes: entry.nodes,
                    solver: solver_names[solver_idx].clone(),
                    solver_peak: solved.peak,
                    memory,
                    fraction: *fraction,
                    policy: policy_names[policy_idx].clone(),
                    io_volume: run.io_volume,
                    files_written: run.files_written,
                    divisible_bound: bound,
                    cell_seconds,
                });
            }
        }
        records
    });
    let elapsed_seconds = start.elapsed().as_secs_f64();

    SweepReport {
        corpus: corpus.description.clone(),
        trees: corpus.len(),
        solvers: solver_names,
        policies: policy_names,
        memory_fractions: config.memory_fractions.clone(),
        threads,
        elapsed_seconds,
        records: per_job.into_iter().flatten().collect(),
    }
}

/// [`run_sweep_with`] on the built-in solver and policy registries.
pub fn run_sweep(corpus: &Corpus, config: &SweepConfig) -> SweepReport {
    run_sweep_with(
        corpus,
        &SolverRegistry::with_builtin(),
        &PolicyRegistry::with_builtin(),
        config,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{Corpus, CorpusTree};
    use treemem::gadgets::harpoon;
    use treemem::random::random_attachment_tree;

    fn tiny_corpus() -> Corpus {
        let trees = vec![
            CorpusTree {
                name: "harpoon-4".into(),
                nodes: 13,
                tree: harpoon(4, 400, 1).into(),
            },
            CorpusTree {
                name: "random-16".into(),
                nodes: 16,
                tree: random_attachment_tree(16, 50, 5, 7).into(),
            },
        ];
        Corpus {
            description: "tiny test corpus".into(),
            trees,
        }
    }

    #[test]
    fn sweep_crosses_every_axis() {
        let corpus = tiny_corpus();
        let config = SweepConfig {
            memory_fractions: vec![0.0, 0.5],
            ..Default::default()
        };
        let report = run_sweep(&corpus, &config);
        assert!(report.solvers.len() >= 4, "solvers: {:?}", report.solvers);
        assert!(
            report.policies.len() >= 9,
            "policies: {:?}",
            report.policies
        );
        // Both trees are small enough for every solver, so the grid is full.
        let expected = corpus.len()
            * report.solvers.len()
            * config.memory_fractions.len()
            * report.policies.len();
        assert_eq!(report.records.len(), expected);
        // Every record respects the divisible lower bound.
        for r in &report.records {
            assert!(
                r.io_volume >= r.divisible_bound,
                "{} {} {}",
                r.instance,
                r.solver,
                r.policy
            );
        }
    }

    #[test]
    fn unsupported_solvers_are_skipped_per_tree() {
        let trees = vec![CorpusTree {
            name: "big-random".into(),
            nodes: 80,
            tree: random_attachment_tree(80, 50, 5, 3).into(),
        }];
        let corpus = Corpus {
            description: "one big tree".into(),
            trees,
        };
        let report = run_sweep(&corpus, &SweepConfig::default());
        assert!(report.records.iter().all(|r| r.solver != "brute"));
        assert!(report.records.iter().any(|r| r.solver == "minmem"));
    }

    #[test]
    fn json_report_is_well_formed() {
        let corpus = tiny_corpus();
        let config = SweepConfig {
            memory_fractions: vec![0.0],
            ..Default::default()
        };
        let report = run_sweep(&corpus, &config);
        let json = report.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.contains("\"schema\": \"minio_sweep/v2\""));
        assert!(json.contains("\"policies\": [\"LSNF\""));
        assert_eq!(json.matches("\"instance\":").count(), report.records.len());
        assert_eq!(
            json.matches("\"cell_seconds\":").count(),
            report.records.len()
        );
        assert!(report.records.iter().all(|r| r.cell_seconds >= 0.0));
        // Balanced braces and brackets (a cheap structural check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    /// The sweep document parses to what the hand-formatted renderer wrote
    /// before the `json::Writer` (only its layout may change).
    #[test]
    fn the_sweep_document_keeps_its_fields() {
        let record = |policy: &str, fraction: f64, io_volume| SweepRecord {
            instance: "harpoon-\"4\"".to_string(),
            nodes: 13,
            solver: "minmem".to_string(),
            solver_peak: 1203,
            memory: 802,
            fraction,
            policy: policy.to_string(),
            io_volume,
            files_written: 2,
            divisible_bound: 300,
            cell_seconds: 0.0000125,
        };
        let report = SweepReport {
            corpus: "tiny\ttest corpus".to_string(),
            trees: 1,
            solvers: vec!["minmem".to_string(), "liu".to_string()],
            policies: vec!["LSNF".to_string(), "S3FIFO".to_string()],
            memory_fractions: vec![0.0, 0.25, 1.0 / 3.0],
            threads: 2,
            elapsed_seconds: 1.23456,
            records: vec![record("LSNF", 0.25, 400), record("S3FIFO", 1.0 / 3.0, 401)],
        };
        let doc = report.to_json();
        let parent = "{\n  \"schema\": \"minio_sweep/v2\",\n  \"corpus\": \"tiny\\ttest corpus\",\n  \"trees\": 1,\n  \"solvers\": [\"minmem\",\"liu\"],\n  \"policies\": [\"LSNF\",\"S3FIFO\"],\n  \"memory_fractions\": [0,0.25,0.3333333333333333],\n  \"threads\": 2,\n  \"elapsed_seconds\": 1.235,\n  \"records\": [\n    {\"instance\": \"harpoon-\\\"4\\\"\", \"nodes\": 13, \"solver\": \"minmem\", \"solver_peak\": 1203, \"memory\": 802, \"fraction\": 0.25, \"policy\": \"LSNF\", \"io_volume\": 400, \"files_written\": 2, \"divisible_bound\": 300, \"cell_seconds\": 0.000013},\n    {\"instance\": \"harpoon-\\\"4\\\"\", \"nodes\": 13, \"solver\": \"minmem\", \"solver_peak\": 1203, \"memory\": 802, \"fraction\": 0.3333333333333333, \"policy\": \"S3FIFO\", \"io_volume\": 401, \"files_written\": 2, \"divisible_bound\": 300, \"cell_seconds\": 0.000013}\n  ]\n}\n";
        assert_eq!(
            engine::json::Json::parse(&doc),
            engine::json::Json::parse(parent)
        );
    }

    #[test]
    fn explicit_subsets_restrict_the_grid() {
        let corpus = tiny_corpus();
        let config = SweepConfig {
            memory_fractions: vec![0.0],
            solvers: vec!["postorder".into(), "minmem".into()],
            policies: vec!["LSNF".into(), "S3FIFO".into()],
            ..Default::default()
        };
        let report = run_sweep(&corpus, &config);
        assert_eq!(report.records.len(), corpus.len() * 2 * 2);
    }
}
