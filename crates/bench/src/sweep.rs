//! The parallel MinIO sweep engine.
//!
//! The sweep crosses four axes — {tree corpus} × [`MEMORY_FRACTIONS`] ×
//! [`Solver::ALL`] × [`Policy::ALL`] — and records, for every cell, the I/O
//! volume, file count and divisible lower bound of the simulated
//! out-of-core execution.  Work is distributed over worker threads at
//! (tree × solver) granularity through [`engine::parallel::par_map`]: every
//! job computes one solver traversal once and then sweeps all memory sizes
//! and policies on it, which keeps the expensive solver call out of the
//! inner loop.
//!
//! The result can be rendered to a machine-readable JSON report
//! ([`SweepReport::to_json`]), deterministic byte for byte; `exp
//! minio-sweep` writes it to
//! `results/exp_minio_sweep/BENCH_minio_sweep.json`.

use engine::json::{self, Array, Fields, Writer};
use engine::parallel::{default_threads, par_map};
use minio::{divisible_lower_bound, schedule_io_with, Policy};
use treemem::solver::Solver;
use treemem::tree::Size;

use crate::corpus::Corpus;
use crate::runner::memory_sweep;

/// Memory budgets of the sweep and of Figures 7 and 8, as fractions of the
/// way from `max MemReq` (0.0, the hardest feasible budget) to the
/// traversal's peak (1.0, no I/O).
pub const MEMORY_FRACTIONS: [f64; 4] = [0.0, 0.25, 0.5, 0.75];

/// One cell of the sweep: a (tree, solver, memory, policy) combination.
#[derive(Debug, Clone)]
pub struct SweepRecord {
    /// Corpus instance name.
    pub instance: String,
    /// Number of nodes of the tree.
    pub nodes: usize,
    /// Solver that produced the traversal.
    pub solver: Solver,
    /// Peak memory of that traversal.
    pub solver_peak: Size,
    /// Memory budget of the simulated execution.
    pub memory: Size,
    /// The fraction this budget corresponds to.
    pub fraction: f64,
    /// Eviction policy used.
    pub policy: Policy,
    /// Volume written to secondary memory.
    pub io_volume: Size,
    /// Number of files written out.
    pub files_written: usize,
    /// Divisible-relaxation lower bound for this traversal and budget.
    pub divisible_bound: Size,
}

/// The outcome of [`run_sweep`].
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Description of the corpus that was swept.
    pub corpus: String,
    /// Number of trees in the corpus.
    pub trees: usize,
    /// Every (tree, solver, memory, policy) cell.
    pub records: Vec<SweepRecord>,
}

impl SweepReport {
    /// Render the report as a JSON document (schema `minio_sweep/v3`; v3
    /// dropped the wall-clock fields `threads`, `elapsed_seconds` and
    /// `cell_seconds`).
    pub fn to_json(&self) -> String {
        json::document(|doc| {
            doc.field("schema", "minio_sweep/v3")
                .field("corpus", &self.corpus)
                .field("trees", self.trees)
                .field("solvers", Array(Solver::ALL.map(Solver::name)))
                .field("policies", Array(Policy::ALL.map(Policy::name)))
                .field("memory_fractions", Array(MEMORY_FRACTIONS))
                .field("records", Array(&self.records));
        })
    }

    /// Total I/O volume per policy, summed over every cell (a coarse ranking
    /// used by the report printer).
    pub fn totals_by_policy(&self) -> Vec<(&'static str, Size)> {
        Policy::ALL
            .into_iter()
            .map(|policy| {
                let total = self
                    .records
                    .iter()
                    .filter(|r| r.policy == policy)
                    .map(|r| r.io_volume)
                    .sum();
                (policy.name(), total)
            })
            .collect()
    }
}

impl Fields for SweepRecord {
    fn fields(&self, record: &mut Writer<'_>) {
        record
            .field("instance", &self.instance)
            .field("nodes", self.nodes)
            .field("solver", self.solver.name())
            .field("solver_peak", self.solver_peak)
            .field("memory", self.memory)
            .field("fraction", self.fraction)
            .field("policy", self.policy.name())
            .field("io_volume", self.io_volume)
            .field("files_written", self.files_written)
            .field("divisible_bound", self.divisible_bound);
    }
}

/// Run the full sweep of `corpus`.
///
/// Every (tree, solver) pair is one parallel job: the job runs the solver
/// once, then sweeps [`MEMORY_FRACTIONS`] × [`Policy::ALL`] on the resulting
/// traversal.  Solvers that do not support a tree (e.g. the brute-force
/// oracle beyond its node limit) are skipped for that tree only.
pub fn run_sweep(corpus: &Corpus) -> SweepReport {
    let jobs: Vec<(usize, Solver)> = (0..corpus.trees.len())
        .flat_map(|tree_idx| Solver::ALL.map(|solver| (tree_idx, solver)))
        .collect();
    let threads = default_threads(jobs.len());
    let per_job: Vec<Vec<SweepRecord>> = par_map(&jobs, threads, |_, &(tree_idx, solver)| {
        let entry = &corpus.trees[tree_idx];
        if !solver.supports(&entry.tree) {
            return Vec::new();
        }
        let solved = solver.solve(&entry.tree);
        let mut records = Vec::new();
        let memories = memory_sweep(&entry.tree, solved.peak, &MEMORY_FRACTIONS);
        for (fraction, memory) in MEMORY_FRACTIONS.into_iter().zip(memories) {
            let bound = divisible_lower_bound(&entry.tree, &solved.traversal, memory)
                .expect("memory is above max MemReq by construction");
            for policy in Policy::ALL {
                let run = schedule_io_with(&entry.tree, &solved.traversal, memory, policy)
                    .expect("memory is above max MemReq by construction");
                records.push(SweepRecord {
                    instance: entry.name.clone(),
                    nodes: entry.nodes,
                    solver,
                    solver_peak: solved.peak,
                    memory,
                    fraction,
                    policy,
                    io_volume: run.io_volume,
                    files_written: run.files_written,
                    divisible_bound: bound,
                });
            }
        }
        records
    });

    SweepReport {
        corpus: corpus.description.clone(),
        trees: corpus.len(),
        records: per_job.into_iter().flatten().collect(),
    }
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
        let report = run_sweep(&corpus);
        // Both trees are small enough for every solver, so the grid is full.
        let expected =
            corpus.len() * Solver::ALL.len() * MEMORY_FRACTIONS.len() * Policy::ALL.len();
        assert_eq!(report.records.len(), expected);
        // Every record respects the divisible lower bound.
        for r in &report.records {
            assert!(
                r.io_volume >= r.divisible_bound,
                "{} {} {}",
                r.instance,
                r.solver.name(),
                r.policy.name()
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
        let report = run_sweep(&corpus);
        assert!(report.records.iter().all(|r| r.solver != Solver::Brute));
        assert!(report.records.iter().any(|r| r.solver == Solver::MinMem));
    }

    #[test]
    fn json_report_is_well_formed() {
        let corpus = tiny_corpus();
        let report = run_sweep(&corpus);
        let json = report.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.contains("\"schema\": \"minio_sweep/v3\""));
        assert!(json.contains("\"policies\": [\"LSNF\""));
        assert_eq!(json.matches("\"instance\":").count(), report.records.len());
        // Balanced braces and brackets (a cheap structural check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert_eq!(run_sweep(&corpus).to_json(), json);
    }

    /// The sweep document, byte for byte.
    #[test]
    fn the_sweep_document_keeps_its_fields() {
        let record = |policy, fraction, io_volume| SweepRecord {
            instance: "harpoon-\"4\"".to_string(),
            nodes: 13,
            solver: Solver::MinMem,
            solver_peak: 1203,
            memory: 802,
            fraction,
            policy,
            io_volume,
            files_written: 2,
            divisible_bound: 300,
        };
        let report = SweepReport {
            corpus: "tiny\ttest corpus".to_string(),
            trees: 1,
            records: vec![
                record(Policy::Lsnf, 0.25, 400),
                record(Policy::BestKComb { k: 5 }, 0.75, 401),
            ],
        };
        let expected = "{\n  \"schema\": \"minio_sweep/v3\",\n  \"corpus\": \"tiny\\ttest corpus\",\n  \"trees\": 1,\n  \"solvers\": [\"natural\",\"postorder\",\"liu\",\"minmem\",\"brute\"],\n  \"policies\": [\"LSNF\",\"FirstFit\",\"BestFit\",\"FirstFill\",\"BestFill\",\"BestKComb\"],\n  \"memory_fractions\": [0,0.25,0.5,0.75],\n  \"records\": [{\"instance\": \"harpoon-\\\"4\\\"\", \"nodes\": 13, \"solver\": \"minmem\", \"solver_peak\": 1203, \"memory\": 802, \"fraction\": 0.25, \"policy\": \"LSNF\", \"io_volume\": 400, \"files_written\": 2, \"divisible_bound\": 300},{\"instance\": \"harpoon-\\\"4\\\"\", \"nodes\": 13, \"solver\": \"minmem\", \"solver_peak\": 1203, \"memory\": 802, \"fraction\": 0.75, \"policy\": \"BestKComb\", \"io_volume\": 401, \"files_written\": 2, \"divisible_bound\": 300}]\n}\n";
        assert_eq!(report.to_json(), expected);
    }
}
