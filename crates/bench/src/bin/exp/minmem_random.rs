//! Experiment E5 — Table II and Figure 9 of the paper.
//!
//! Keep the structure of every assembly tree of the corpus but draw random
//! weights (execution files in `[1, N/500]`, input files in `[1, N]`, with
//! `N` the number of nodes), then compare the best postorder with the optimal
//! traversal.  On such general trees the postorder is much more frequently
//! sub-optimal than on real assembly trees.

use bench::{random_corpus, MeasurementSet, ReportFile};
use perfprof::{ratio_statistics, PerformanceProfile};

use crate::Context;

/// Number of random re-weightings per tree structure (the paper generates
/// "more than 3200 trees" from 291 structures, i.e. roughly 11 per matrix;
/// the full corpus here uses 4 per structure to keep the running time
/// moderate).
const VARIANTS_PER_TREE: usize = 4;

pub(crate) fn run(context: &Context) {
    let args = context.args;
    let corpus = random_corpus(
        context.corpus(),
        if args.quick { 2 } else { VARIANTS_PER_TREE },
        args.seed,
    );
    println!("# Experiment E5 (Table II / Figure 9): PostOrder vs optimal on random trees");
    println!("# {} randomly re-weighted trees\n", corpus.len());

    let mut postorder = Vec::with_capacity(corpus.len());
    let mut optimal = Vec::with_capacity(corpus.len());
    let mut rows = String::from("instance,nodes,postorder_peak,optimal_peak,ratio\n");
    for entry in &corpus.trees {
        let measurement = MeasurementSet::measure(&entry.tree);
        let postorder_peak = measurement.peak_of("postorder");
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

    let stats = ratio_statistics(&postorder, &optimal);
    println!("Table II — statistics on the memory cost of PostOrder (random trees)");
    println!("{}", stats.to_table("PostOrder", "opt"));

    let profile = PerformanceProfile::from_costs(&["Optimal", "PostOrder"], &[optimal, postorder]);
    println!("Figure 9 — performance profile (all random trees)");
    println!("{}", profile.to_ascii(2.0, 60));

    let files = vec![
        ReportFile::new("table2_instances.csv", rows),
        ReportFile::new("figure9_profile.csv", profile.to_csv(2.0, 101)),
        ReportFile::new(
            "table2_summary.txt",
            format!(
                "instances: {}\nnon-optimal fraction: {:.4}\nmax ratio: {:.4}\navg ratio: {:.4}\nstd dev: {:.4}\n",
                stats.instances,
                stats.fraction_suboptimal,
                stats.max_ratio,
                stats.mean_ratio,
                stats.stddev_ratio
            ),
        ),
    ];
    context.write_report("exp_minmem_random", &files);
}
