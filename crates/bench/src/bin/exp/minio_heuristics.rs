//! Experiment E3 — Figure 7 of the paper.
//!
//! For every tree of the out-of-core corpus, take the MinMem traversal and
//! **each of the paper's six eviction heuristics** at the main-memory sizes
//! swept between the largest single-node requirement and the optimal peak;
//! compare the resulting I/O volumes with a performance profile.  Also
//! reports the distance to the divisible-relaxation lower bound (an
//! absolute-quality indicator the paper lists as future work).  The runs
//! are the MinMem row of the MinIO sweep grid (`exp minio-sweep`).

use bench::{ReportFile, MEMORY_FRACTIONS};
use minio::Policy;
use treemem::solver::Solver;

use crate::{minio_sweep, Context};

pub(crate) fn run(context: &Context) {
    println!(
        "# Experiment E3 (Figure 7): I/O volume of every paper heuristic on MinMem traversals"
    );
    println!(
        "# {} trees x {} memory sizes x {} policies\n",
        context.out_of_core_corpus().len(),
        MEMORY_FRACTIONS.len(),
        Policy::ALL.len()
    );

    let cells = Policy::ALL.map(|policy| (Solver::MinMem, policy));
    let names = Policy::ALL.map(|policy| format!("MinMem + {}", policy.name()));
    let names = names.each_ref().map(String::as_str);
    let Some((cases, profile)) = minio_sweep::io_profile(context, &cells, &names) else {
        return;
    };
    println!("Figure 7 — performance profile of the I/O volume (MinMem traversals)");
    println!("{}", profile.to_ascii(5.0, 60));
    for (index, name) in names.iter().enumerate() {
        let bound_gap: f64 = cases
            .iter()
            .map(|case| case[index].io_volume as f64 / case[index].divisible_bound.max(1) as f64)
            .sum();
        println!(
            "{name:22} best on {:5.1}% of the cases, avg ratio to divisible bound {:.3}",
            100.0 * profile.fraction_best(index),
            bound_gap / cases.len() as f64
        );
    }

    let mut rows = String::from("instance,memory,policy,io_volume,divisible_bound\n");
    for r in cases.iter().flatten() {
        rows.push_str(&format!(
            "{},{},{},{},{}\n",
            r.instance,
            r.memory,
            r.policy.name(),
            r.io_volume,
            r.divisible_bound
        ));
    }
    let files = vec![
        ReportFile::new("figure7_io.csv", rows),
        ReportFile::new("figure7_profile.csv", profile.to_csv(5.0, 101)),
    ];
    println!();
    context.write_report("exp_minio_heuristics", &files);
}
