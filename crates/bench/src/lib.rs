//! # bench — the paper's experiments, `factor_cli` and `loadgen`
//!
//! Performance is measured by the benchmark of record (`benchmark/` at the
//! repository root), not here.  This crate keeps what only it can do: the
//! `exp` binary regenerates the experimental artifacts of the source paper,
//! one subcommand each (`exp <name> [--quick] [--seed N]`, or `exp all`),
//!
//! | subcommand         | paper artifact |
//! |--------------------|----------------|
//! | `minmem-assembly`  | Table I and Figure 5 |
//! | `runtime`          | Figure 6 |
//! | `minio-heuristics` | Figure 7 |
//! | `minio-traversals` | Figure 8 |
//! | `minmem-random`    | Table II and Figure 9 |
//! | `theorem1`         | Theorem 1 (harpoon towers) and Theorem 2 gadget |
//! | `ablation`         | ordering × amalgamation sensitivity (not in the paper) |
//! | `minio-sweep`      | Section V-B as one grid: every solver × every policy |
//!
//! `factor_cli` runs one `engine::EngineConfig` end to end and prints the
//! `Report` as JSON, and `loadgen` checks its correctness scenarios (chaos,
//! distributed, cache traces) against real servers.  Every file a tool
//! writes goes under `results/` (git-ignored; `TREEMEM_RESULTS_DIR` moves
//! it).
//!
//! The experiments construct their pipelines through the `engine` facade
//! (prebuilt-tree plans for corpus sweeps, generated-matrix plans for the
//! ablation); the library part of the crate holds the shared infrastructure:
//! corpus generation (planned through the engine, replacing the paper's
//! UF-collection data set), measurement helpers, report writing, the
//! parallel MinIO sweep engine ([`sweep`]) that crosses {corpus × memory
//! budgets × MinMemory solvers × eviction policies}, and the
//! cache trace-replay harness ([`traces`]) behind `loadgen traces`.

pub mod corpus;
pub mod report;
pub mod runner;
pub mod sweep;
pub mod traces;

pub use corpus::{
    corpus_for, default_config, default_corpus, quick_config, quick_corpus, random_corpus, Corpus,
    CorpusTree,
};
pub use report::{write_report, ExperimentArgs, ReportFile};
pub use runner::{
    memory_sweep, run_with_big_stack, time_it, MeasurementSet, SolverMeasurement, MEASURED_SOLVERS,
};
pub use sweep::{run_sweep, SweepConfig, SweepRecord, SweepReport};
