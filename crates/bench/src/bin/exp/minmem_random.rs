//! Experiment E5 — Table II and Figure 9 of the paper.
//!
//! Keep the structure of every assembly tree of the corpus but draw random
//! weights (execution files in `[1, N/500]`, input files in `[1, N]`, with
//! `N` the number of nodes), then compare the best postorder with the optimal
//! traversal.  On such general trees the postorder is much more frequently
//! sub-optimal than on real assembly trees.

use bench::{random_corpus, MeasurementSet, ReportFile};
use perfprof::PerformanceProfile;

use crate::minmem_assembly::{postorder_table, table_summary};
use crate::Context;

/// Number of random re-weightings per tree structure (the paper generates
/// "more than 3200 trees" from 291 structures, i.e. roughly 11 per matrix;
/// the full corpus here uses 4 per structure to keep the running time
/// moderate).
const VARIANTS_PER_TREE: usize = 4;

pub(crate) fn run(context: &Context) {
    let args = context.args;
    let variants = if args.quick { 2 } else { VARIANTS_PER_TREE };
    let corpus = random_corpus(context.corpus(), variants, args.seed);
    println!("# Experiment E5 (Table II / Figure 9): PostOrder vs optimal on random trees");
    println!("# {} randomly re-weighted trees\n", corpus.len());

    // Variant 0 of every tree is the tree the out-of-core corpus re-weighted
    // (`random_corpus` derives its seed the same way), so the sweep's
    // measurements of it are reused; the other variants are measured here.
    let (out_of_core, reweighted) = (
        context.out_of_core_corpus(),
        context.out_of_core_measurements(),
    );
    let measurements: Vec<MeasurementSet> = corpus
        .trees
        .iter()
        .enumerate()
        .map(|(index, entry)| match index % variants {
            0 => {
                let same = &out_of_core.trees[index / variants];
                assert!(
                    same.name == entry.name && same.tree == entry.tree,
                    "{} is not the out-of-core corpus's re-weighting",
                    entry.name
                );
                reweighted[index / variants].clone()
            }
            _ => MeasurementSet::measure(&entry.tree),
        })
        .collect();
    let (postorder, optimal, rows) = postorder_table(&corpus, &measurements);
    let summary = table_summary(
        "Table II — statistics on the memory cost of PostOrder (random trees)",
        &postorder,
        &optimal,
    );
    let profile = PerformanceProfile::from_costs(&["Optimal", "PostOrder"], &[optimal, postorder]);
    println!("Figure 9 — performance profile (all random trees)");
    println!("{}", profile.to_ascii(2.0, 60));

    let files = vec![
        ReportFile::new("table2_instances.csv", rows),
        ReportFile::new("figure9_profile.csv", profile.to_csv(2.0, 101)),
        ReportFile::new("table2_summary.txt", summary),
    ];
    context.write_report("exp_minmem_random", &files);
}
