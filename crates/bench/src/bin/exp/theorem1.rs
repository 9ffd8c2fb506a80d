//! Experiment E6/E7 — Theorem 1 (harpoon towers) and Theorem 2 (2-Partition
//! gadget).
//!
//! Theorem 1 states that the best postorder can need arbitrarily more memory
//! than the optimal traversal.  This binary measures the ratio on nested
//! harpoon towers for growing nesting levels and branch counts, using the
//! exact algorithms, and prints the closed-form postorder value next to the
//! measured one.  With `--gadget` it also exercises the Theorem-2 reduction:
//! the I/O volume needed by the 2-Partition gadget is `S/2` exactly when the
//! embedded instance is solvable.

use bench::ReportFile;
use minio::{divisible_lower_bound, schedule_io_with, Policy};
use treemem::gadgets::{harpoon_tower, harpoon_tower_postorder_peak, two_partition_gadget};
use treemem::minmem::min_mem;
use treemem::postorder::best_postorder;
use treemem::Traversal;

use crate::Context;

pub(crate) fn run(context: &Context) {
    println!("# Experiment E6 (Theorem 1): postorder / optimal ratio on harpoon towers\n");
    println!(
        "{:>8} {:>7} {:>9} {:>14} {:>14} {:>14} {:>8}",
        "branches", "levels", "nodes", "postorder", "po (closed)", "optimal", "ratio"
    );
    let mut rows = String::from(
        "branches,levels,nodes,postorder_peak,postorder_closed_form,optimal_peak,ratio\n",
    );
    let eps = 1;
    let big = 10_000;
    let mut last_ratio_per_branch = Vec::new();
    for &branches in &[2usize, 4, 8] {
        let mut last_ratio = 0.0;
        for levels in 1..=5 {
            let tree = harpoon_tower(branches, big, eps, levels);
            if tree.len() > 60_000 {
                break;
            }
            let po = best_postorder(&tree);
            let opt = min_mem(&tree);
            let ratio = po.peak as f64 / opt.peak as f64;
            let closed = harpoon_tower_postorder_peak(branches, big, eps, levels);
            println!(
                "{branches:>8} {levels:>7} {:>9} {:>14} {:>14} {:>14} {ratio:>8.3}",
                tree.len(),
                po.peak,
                closed,
                opt.peak
            );
            rows.push_str(&format!(
                "{branches},{levels},{},{},{closed},{},{ratio:.4}\n",
                tree.len(),
                po.peak,
                opt.peak
            ));
            assert_eq!(
                po.peak, closed,
                "closed-form postorder peak must match the measurement"
            );
            last_ratio = ratio;
        }
        last_ratio_per_branch.push((branches, last_ratio));
        println!();
    }
    println!("The ratio grows with the number of levels for every branch count — the");
    println!("postorder can be made arbitrarily worse than the optimal traversal (Theorem 1).\n");

    // Theorem 2 gadget (always run: it is cheap).
    println!("# Experiment E7 (Theorem 2): 2-Partition gadget");
    let solvable = vec![3, 5, 2, 4, 6, 4]; // splits into 12 + 12
    let gadget = two_partition_gadget(&solvable);
    let mut order = vec![
        gadget.tree.root(),
        gadget.big_node,
        gadget.tree.children(gadget.big_node)[0],
    ];
    for &item in &gadget.item_nodes {
        order.push(item);
        order.push(gadget.tree.children(item)[0]);
    }
    let traversal = Traversal::new(order);
    let bound = divisible_lower_bound(&gadget.tree, &traversal, gadget.memory).unwrap();
    let best_k = schedule_io_with(
        &gadget.tree,
        &traversal,
        gadget.memory,
        Policy::BestKComb { k: solvable.len() },
    )
    .unwrap();
    let first_fit =
        schedule_io_with(&gadget.tree, &traversal, gadget.memory, Policy::FirstFit).unwrap();
    println!(
        "  instance {:?} (S = {}), M = 2S = {}",
        solvable,
        gadget.io_bound * 2,
        gadget.memory
    );
    println!(
        "  divisible lower bound      : {bound} (= S/2 = {})",
        gadget.io_bound
    );
    println!(
        "  Best-K combination         : {} (finds the exact split)",
        best_k.io_volume
    );
    println!(
        "  First Fit                  : {} (may overshoot: the problem is NP-complete)",
        first_fit.io_volume
    );
    rows.push_str(&format!(
        "gadget,,,{},{},{},\n",
        first_fit.io_volume, best_k.io_volume, bound
    ));

    let files = vec![ReportFile::new("theorem1_ratios.csv", rows)];
    println!();
    context.write_report("exp_theorem1", &files);
}
