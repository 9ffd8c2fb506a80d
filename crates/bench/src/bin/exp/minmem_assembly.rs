//! Experiment E1 — Table I and Figure 5 of the paper.
//!
//! For every assembly tree of the corpus, compare the memory requirement of
//! the best postorder traversal (`PostOrder`) with the optimal value
//! (computed by `MinMem`, cross-checked against Liu's algorithm).  Prints the
//! Table-I statistics and writes the Figure-5 performance profile (restricted
//! to the instances where the postorder is *not* optimal, as in the paper).
//! Its table builder also builds Table II (`minmem-random`).

use bench::{Corpus, MeasurementSet, ReportFile};
use perfprof::{ratio_statistics, PerformanceProfile};
use treemem::solver::Solver;

use crate::Context;

/// The best postorder's peak against the optimal one on every tree of
/// `corpus`, whose trees `measurements` measured in order: Table I on the
/// assembly trees, Table II on their random re-weightings.  Returns both
/// peaks per tree and the per-instance CSV.
pub(crate) fn postorder_table(
    corpus: &Corpus,
    measurements: &[MeasurementSet],
) -> (Vec<f64>, Vec<f64>, String) {
    let mut postorder = Vec::with_capacity(corpus.len());
    let mut optimal = Vec::with_capacity(corpus.len());
    let mut rows = String::from("instance,nodes,postorder_peak,optimal_peak,ratio\n");
    for (entry, measurement) in corpus.trees.iter().zip(measurements) {
        let postorder_peak = measurement.peak_of(Solver::BestPostorder);
        let optimal_peak = measurement
            .exact_peak()
            .expect("an exact solver always runs");
        postorder.push(postorder_peak as f64);
        optimal.push(optimal_peak as f64);
        rows.push_str(&format!(
            "{},{},{},{},{:.6}\n",
            entry.name,
            entry.nodes,
            postorder_peak,
            optimal_peak,
            postorder_peak as f64 / optimal_peak as f64
        ));
    }
    (postorder, optimal, rows)
}

/// Print a table's statistics under `title` and return them as its
/// `table*_summary.txt`.
pub(crate) fn table_summary(title: &str, postorder: &[f64], optimal: &[f64]) -> String {
    let stats = ratio_statistics(postorder, optimal);
    println!("{title}");
    println!("{}", stats.to_table("PostOrder", "opt"));
    format!(
        "instances: {}\nnon-optimal fraction: {:.4}\nmax ratio: {:.4}\navg ratio: {:.4}\nstd dev: {:.4}\n",
        stats.instances,
        stats.fraction_suboptimal,
        stats.max_ratio,
        stats.mean_ratio,
        stats.stddev_ratio
    )
}

pub(crate) fn run(context: &Context) {
    let corpus = context.corpus();
    println!(
        "# Experiment E1 (Table I / Figure 5): PostOrder vs optimal on {}",
        corpus.description
    );
    println!("# {} instances\n", corpus.len());

    let (postorder, optimal, rows) = postorder_table(corpus, context.measurements());
    let summary = table_summary(
        "Table I — statistics on the memory cost of PostOrder (assembly trees)",
        &postorder,
        &optimal,
    );

    // Figure 5: profile over the non-optimal instances only.
    let non_optimal: Vec<usize> = (0..postorder.len())
        .filter(|&i| postorder[i] > optimal[i] + 0.5)
        .collect();
    println!(
        "Non-optimal instances: {} / {}",
        non_optimal.len(),
        postorder.len()
    );
    let mut files = vec![
        ReportFile::new("table1_instances.csv", rows),
        ReportFile::new("table1_summary.txt", summary),
    ];
    if !non_optimal.is_empty() {
        let po: Vec<f64> = non_optimal.iter().map(|&i| postorder[i]).collect();
        let opt: Vec<f64> = non_optimal.iter().map(|&i| optimal[i]).collect();
        let profile = PerformanceProfile::from_costs(&["Optimal", "PostOrder"], &[opt, po]);
        println!("\nFigure 5 — performance profile (non-optimal instances only)");
        println!("{}", profile.to_ascii(1.25, 60));
        files.push(ReportFile::new(
            "figure5_profile.csv",
            profile.to_csv(1.25, 101),
        ));
    } else {
        println!("\nFigure 5 skipped: PostOrder is optimal on every instance of this corpus.");
    }

    println!();
    context.write_report("exp_minmem_assembly", &files);
}
