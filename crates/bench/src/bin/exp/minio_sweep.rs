//! Full MinIO sweep: {corpus × memory budgets × every registered solver ×
//! every registered eviction policy}, in parallel, emitting the
//! machine-readable `BENCH_minio_sweep.json` report.
//!
//! This generalises Figures 7 and 8 of the paper into one grid: Figure 7 is
//! the policy axis at a fixed solver, Figure 8 the solver axis at a fixed
//! policy.  The cache-inspired policies (`LruDist`, `GDSF`, `S3FIFO`) ride
//! the same sweep, so their workload-dependence is directly comparable with
//! the paper's six heuristics.
//!
//! The JSON goes to `results/exp_minio_sweep/BENCH_minio_sweep.json`; it is
//! deterministic apart from the wall-clock fields (`elapsed_seconds`,
//! `cell_seconds`, `threads`).

use bench::{run_sweep, ReportFile, SweepConfig};

use crate::Context;

pub(crate) fn run(context: &Context) {
    let corpus = context.out_of_core_corpus();

    let config = SweepConfig::default();
    println!(
        "# MinIO sweep: {} trees x {} memory budgets x all solvers x all policies",
        corpus.len(),
        config.memory_fractions.len()
    );
    let report = run_sweep(&corpus, &config);
    println!(
        "swept {} cells ({} solvers x {} policies) on {} threads in {:.2}s",
        report.records.len(),
        report.solvers.len(),
        report.policies.len(),
        report.threads,
        report.elapsed_seconds
    );

    println!("\nTotal I/O volume per policy (all solvers and budgets):");
    let mut totals = report.totals_by_policy();
    totals.sort_by_key(|(_, total)| *total);
    for (policy, total) in &totals {
        println!("  {policy:10} {total:>14}");
    }

    println!();
    context.write_report(
        "exp_minio_sweep",
        &[ReportFile::new("BENCH_minio_sweep.json", report.to_json())],
    );
}
