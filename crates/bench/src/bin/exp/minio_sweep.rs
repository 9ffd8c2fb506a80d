//! Full MinIO sweep: {corpus × memory budgets × every solver × the six
//! eviction policies}, in parallel, emitting the machine-readable
//! `BENCH_minio_sweep.json` report.
//!
//! This generalises Figures 7 and 8 of the paper into one grid: Figure 7 is
//! the policy axis at a fixed solver, Figure 8 the solver axis at a fixed
//! policy.
//!
//! The JSON goes to `results/exp_minio_sweep/BENCH_minio_sweep.json`; it is
//! deterministic byte for byte.

use bench::{run_sweep, ReportFile, MEMORY_FRACTIONS};
use minio::Policy;
use treemem::solver::Solver;

use crate::Context;

pub(crate) fn run(context: &Context) {
    let corpus = context.out_of_core_corpus();

    println!(
        "# MinIO sweep: {} trees x {} memory budgets x all solvers x all policies",
        corpus.len(),
        MEMORY_FRACTIONS.len()
    );
    let report = run_sweep(&corpus);
    println!(
        "swept {} cells ({} solvers x {} policies)",
        report.records.len(),
        Solver::ALL.len(),
        Policy::ALL.len(),
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
