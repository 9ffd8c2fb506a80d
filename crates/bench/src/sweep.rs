//! The parallel MinIO sweep engine.
//!
//! The sweep crosses four axes — {tree corpus} × [`MEMORY_FRACTIONS`] ×
//! [`Solver::ALL`] × [`Policy::ALL`] — and records, for every cell, the I/O
//! volume, file count and divisible lower bound of the simulated
//! out-of-core execution.  Every tree has one set of budgets, fractions of
//! the way from its largest single-node requirement to its *optimal* peak,
//! and every solver's traversal runs under that set, so a (tree, budget)
//! case compares solvers and policies at one memory size (a postorder whose
//! own peak exceeds the optimum may need no I/O at the larger budgets).
//! Figure 7 is a case's policy axis at MinMem, Figure 8 its solver axis
//! under First Fit ([`SweepReport::cases`]).
//!
//! Each tree is one job on [`engine::parallel::par_map`]'s threads, twice:
//! [`measure_corpus`] solves the tree once per solver
//! ([`MeasurementSet::measure_with`], which checks that the exact solvers
//! agree), then [`run_sweep`] sweeps every budget and policy on those
//! traversals.  The measurements are the caller's to keep: `exp` reads the
//! same sets for Table II's re-weighted trees.
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
use crate::runner::{memory_sweep, MeasurementSet};

/// Memory budgets of the sweep and of Figures 7 and 8, as fractions of the
/// way from `max MemReq` (0.0, the hardest feasible budget) to the tree's
/// optimal peak (1.0, no I/O for an optimal traversal).
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
    /// Memory budget of the simulated execution, the same for every solver
    /// of the tree at this fraction.
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
    /// Render the report as a JSON document (schema `minio_sweep/v4`; v3
    /// dropped the wall-clock fields `threads`, `elapsed_seconds` and
    /// `cell_seconds`, v4 sets every solver's budgets from the tree's
    /// optimal peak instead of the solver's own).
    pub fn to_json(&self) -> String {
        json::document(|doc| {
            doc.field("schema", "minio_sweep/v4")
                .field("corpus", &self.corpus)
                .field("trees", self.trees)
                .field("solvers", Array(Solver::ALL.map(Solver::name)))
                .field("policies", Array(Policy::ALL.map(Policy::name)))
                .field("memory_fractions", Array(MEMORY_FRACTIONS))
                .field("records", Array(&self.records));
        })
    }

    /// The grid read along one axis: for every (tree, budget) case, in
    /// corpus and [`MEMORY_FRACTIONS`] order, the record of each of
    /// `cells`, in the order given.
    ///
    /// # Panics
    /// Panics if a solver of `cells` did not run on some tree (the
    /// brute-force oracle beyond its node limit).
    pub fn cases(&self, cells: &[(Solver, Policy)]) -> Vec<Vec<&SweepRecord>> {
        let mut cases = Vec::new();
        for tree in self.records.chunk_by(|a, b| a.instance == b.instance) {
            for fraction in MEMORY_FRACTIONS {
                let cell = |&(solver, policy): &(Solver, Policy)| {
                    let key = (solver, policy, fraction);
                    let record = tree
                        .iter()
                        .find(|r| (r.solver, r.policy, r.fraction) == key);
                    record.expect("the solver ran on every tree")
                };
                cases.push(cells.iter().map(cell).collect());
            }
        }
        cases
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

/// [`MeasurementSet::measure_with`] on [`Solver::ALL`] for every tree of
/// `corpus`, in corpus order, one parallel job per tree: the solved
/// traversals [`run_sweep`] simulates.  Solvers that do not support a tree
/// (e.g. the brute-force oracle beyond its node limit) are skipped for that
/// tree only.
pub fn measure_corpus(corpus: &Corpus) -> Vec<MeasurementSet> {
    let threads = default_threads(corpus.len());
    par_map(&corpus.trees, threads, |_, entry| {
        MeasurementSet::measure_with(&entry.tree, &Solver::ALL)
    })
}

/// Run the full sweep of `corpus`.
///
/// Every tree is one parallel job: the job resolves the tree's
/// [`MEMORY_FRACTIONS`] against the optimal peak of its measurements
/// (`solved`, one set per tree in corpus order, as [`measure_corpus`] gives)
/// and sweeps those budgets × [`Policy::ALL`] on each measured traversal.
///
/// # Panics
/// Panics if `solved` does not hold one set per tree, each with an exact
/// solver.
pub fn run_sweep(corpus: &Corpus, solved: &[MeasurementSet]) -> SweepReport {
    assert_eq!(solved.len(), corpus.len(), "one measurement set per tree");
    let threads = default_threads(corpus.len());
    let per_tree: Vec<Vec<SweepRecord>> = par_map(&corpus.trees, threads, |index, entry| {
        let solved = &solved[index];
        let optimal = solved.exact_peak().expect("MinMem supports every tree");
        let memories = memory_sweep(&entry.tree, optimal, &MEMORY_FRACTIONS);
        let mut records = Vec::new();
        for solver in &solved.measurements {
            for (fraction, &memory) in MEMORY_FRACTIONS.into_iter().zip(&memories) {
                let bound = divisible_lower_bound(&entry.tree, &solver.traversal, memory)
                    .expect("memory is above max MemReq by construction");
                for policy in Policy::ALL {
                    let run = schedule_io_with(&entry.tree, &solver.traversal, memory, policy)
                        .expect("memory is above max MemReq by construction");
                    records.push(SweepRecord {
                        instance: entry.name.clone(),
                        nodes: entry.nodes,
                        solver: solver.solver,
                        solver_peak: solver.peak,
                        memory,
                        fraction,
                        policy,
                        io_volume: run.io_volume,
                        files_written: run.files_written,
                        divisible_bound: bound,
                    });
                }
            }
        }
        records
    });

    SweepReport {
        corpus: corpus.description.clone(),
        trees: corpus.len(),
        records: per_tree.into_iter().flatten().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{Corpus, CorpusTree};
    use treemem::gadgets::harpoon;
    use treemem::random::random_attachment_tree;

    fn sweep(corpus: &Corpus) -> SweepReport {
        run_sweep(corpus, &measure_corpus(corpus))
    }

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
        let report = sweep(&corpus);
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
        let report = sweep(&corpus);
        assert!(report.records.iter().all(|r| r.solver != Solver::Brute));
        assert!(report.records.iter().any(|r| r.solver == Solver::MinMem));
    }

    #[test]
    fn every_solver_of_a_case_runs_at_one_budget() {
        let report = sweep(&tiny_corpus());
        // harpoon-4's best postorder peaks at 701 against the optimal 404,
        // so its budgets differ from the optimum's unless they are shared.
        let harpoon = |solver| {
            report
                .records
                .iter()
                .find(|r| r.instance == "harpoon-4" && r.solver == solver)
                .unwrap()
                .solver_peak
        };
        assert!(harpoon(Solver::BestPostorder) > harpoon(Solver::MinMem));
        for r in &report.records {
            for q in &report.records {
                if q.instance == r.instance && q.fraction == r.fraction {
                    assert_eq!(
                        q.memory,
                        r.memory,
                        "{} at fraction {}: {} and {}",
                        r.instance,
                        r.fraction,
                        q.solver.name(),
                        r.solver.name()
                    );
                }
            }
        }
    }

    #[test]
    fn cases_read_the_grid_along_one_axis() {
        let corpus = tiny_corpus();
        let report = sweep(&corpus);
        let cells = Solver::ALL.map(|solver| (solver, Policy::FirstFit));
        let cases = report.cases(&cells);
        assert_eq!(cases.len(), corpus.len() * MEMORY_FRACTIONS.len());
        for (index, case) in cases.iter().enumerate() {
            let fraction = MEMORY_FRACTIONS[index % MEMORY_FRACTIONS.len()];
            let instance = &corpus.trees[index / MEMORY_FRACTIONS.len()].name;
            for (record, (solver, policy)) in case.iter().zip(cells) {
                assert_eq!(
                    (
                        &record.instance,
                        record.fraction,
                        record.solver,
                        record.policy
                    ),
                    (instance, fraction, solver, policy)
                );
            }
        }
    }

    #[test]
    fn json_report_is_well_formed() {
        let corpus = tiny_corpus();
        let report = sweep(&corpus);
        let json = report.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.contains("\"schema\": \"minio_sweep/v4\""));
        assert!(json.contains("\"policies\": [\"LSNF\""));
        assert_eq!(json.matches("\"instance\":").count(), report.records.len());
        // Balanced braces and brackets (a cheap structural check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert_eq!(sweep(&corpus).to_json(), json);
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
        let expected = "{\n  \"schema\": \"minio_sweep/v4\",\n  \"corpus\": \"tiny\\ttest corpus\",\n  \"trees\": 1,\n  \"solvers\": [\"natural\",\"postorder\",\"liu\",\"minmem\",\"brute\"],\n  \"policies\": [\"LSNF\",\"FirstFit\",\"BestFit\",\"FirstFill\",\"BestFill\",\"BestKComb\"],\n  \"memory_fractions\": [0,0.25,0.5,0.75],\n  \"records\": [{\"instance\": \"harpoon-\\\"4\\\"\", \"nodes\": 13, \"solver\": \"minmem\", \"solver_peak\": 1203, \"memory\": 802, \"fraction\": 0.25, \"policy\": \"LSNF\", \"io_volume\": 400, \"files_written\": 2, \"divisible_bound\": 300},{\"instance\": \"harpoon-\\\"4\\\"\", \"nodes\": 13, \"solver\": \"minmem\", \"solver_peak\": 1203, \"memory\": 802, \"fraction\": 0.75, \"policy\": \"BestKComb\", \"io_volume\": 401, \"files_written\": 2, \"divisible_bound\": 300}]\n}\n";
        assert_eq!(report.to_json(), expected);
    }
}
