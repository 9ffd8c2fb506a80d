//! Full MinIO sweep: {corpus × memory budgets × every solver × the six
//! eviction policies}, in parallel, emitting the machine-readable
//! `BENCH_minio_sweep.json` report.
//!
//! This generalises Figures 7 and 8 of the paper into one grid: Figure 7 is
//! the policy axis at a fixed solver, Figure 8 the solver axis at a fixed
//! policy, and both render from this grid.
//!
//! The JSON goes to `results/exp_minio_sweep/BENCH_minio_sweep.json`; it is
//! deterministic byte for byte.

use bench::{ReportFile, SweepRecord, MEMORY_FRACTIONS};
use minio::Policy;
use perfprof::PerformanceProfile;
use treemem::solver::Solver;

use crate::Context;

pub(crate) fn run(context: &Context) {
    let corpus = context.out_of_core_corpus();

    println!(
        "# MinIO sweep: {} trees x {} memory budgets x all solvers x all policies",
        corpus.len(),
        MEMORY_FRACTIONS.len()
    );
    let report = context.sweep();
    println!(
        "swept {} cells ({} solvers x {} policies)",
        report.records.len(),
        Solver::ALL.len(),
        Policy::ALL.len(),
    );

    println!("\nTotal I/O volume per policy (all solvers and budgets):");
    let mut totals = Policy::ALL.map(|policy| {
        let records = report.records.iter().filter(|r| r.policy == policy);
        (policy.name(), records.map(|r| r.io_volume).sum::<i64>())
    });
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

/// Figure 7 or 8 from the grid: the cases along `cells` (named `names` in
/// the profile) that need I/O, and the performance profile of their I/O
/// volumes.  A case in which every cell runs in core carries no information
/// about the compared methods: it is left out, and counted on stdout.
/// `None` if no case needs I/O.
pub(crate) fn io_profile<'a>(
    context: &'a Context,
    cells: &[(Solver, Policy)],
    names: &[&str],
) -> Option<(Vec<Vec<&'a SweepRecord>>, PerformanceProfile)> {
    let mut cases = context.sweep().cases(cells);
    let all = cases.len();
    cases.retain(|case| case.iter().any(|r| r.io_volume != 0));
    println!(
        "Cases requiring I/O: {} (plus {} in-core cases excluded)",
        cases.len(),
        all - cases.len()
    );
    if cases.is_empty() {
        println!("No case required I/O; nothing to profile.");
        return None;
    }
    let costs: Vec<Vec<f64>> = (0..cells.len())
        .map(|cell| {
            cases
                .iter()
                .map(|case| case[cell].io_volume as f64)
                .collect()
        })
        .collect();
    let profile = PerformanceProfile::from_costs(names, &costs);
    Some((cases, profile))
}
