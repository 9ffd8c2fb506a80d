//! Experiment E4 — Figure 8 of the paper.
//!
//! Compare the out-of-core quality of the traversals produced by **every
//! polynomial MinMemory solver** (natural postorder, best postorder, Liu,
//! MinMem), all equipped with the First Fit eviction policy, over the same
//! memory sweep as Experiment E3.  The runs are the First Fit column of the
//! MinIO sweep grid (`exp minio-sweep`), whose budgets are set from the
//! *optimal* peak so that all traversals face the same budgets (the
//! postorders may then be above their own peak, where they simply need no
//! I/O).

use bench::{ReportFile, MEASURED_SOLVERS, MEMORY_FRACTIONS};
use minio::Policy;

use crate::{minio_sweep, Context};

pub(crate) fn run(context: &Context) {
    println!("# Experiment E4 (Figure 8): I/O volume per solver traversal with First Fit");
    println!(
        "# {} trees x {} memory sizes\n",
        context.out_of_core_corpus().len(),
        MEMORY_FRACTIONS.len()
    );

    // Every solver except the exponential brute-force oracle, as in
    // Experiment E2.
    let cells = MEASURED_SOLVERS.map(|solver| (solver, Policy::FirstFit));
    let names = MEASURED_SOLVERS.map(|solver| format!("{} + First Fit", solver.name()));
    let names = names.each_ref().map(String::as_str);
    let Some((cases, profile)) = minio_sweep::io_profile(context, &cells, &names) else {
        return;
    };
    println!("Figure 8 — performance profile of the I/O volume per traversal (First Fit)");
    println!("{}", profile.to_ascii(5.0, 60));
    for (index, name) in names.iter().enumerate() {
        let total: f64 = cases.iter().map(|case| case[index].io_volume as f64).sum();
        println!(
            "{name:24} best on {:5.1}% of the cases, total I/O volume {:.0}",
            100.0 * profile.fraction_best(index),
            total
        );
    }

    let mut rows = String::from("instance,memory,traversal,io_volume\n");
    for r in cases.iter().flatten() {
        rows.push_str(&format!(
            "{},{},{},{}\n",
            r.instance,
            r.memory,
            r.solver.name(),
            r.io_volume
        ));
    }
    let files = vec![
        ReportFile::new("figure8_io.csv", rows),
        ReportFile::new("figure8_profile.csv", profile.to_csv(5.0, 101)),
    ];
    println!();
    context.write_report("exp_minio_traversals", &files);
}
