//! The seven workloads of record, by name.

pub mod cluster;
pub mod pipeline;
pub mod serve;
pub mod trees;

use crate::runner::{run_batch, Outcome, RunArgs};
use pipeline::{Executor, Pipeline};

/// Every workload's name, in the order `run` executes them.
pub const NAMES: [&str; 7] = [
    "report_seq",
    "report_par2",
    "report_dist2",
    "numeric_grid3d",
    "plan_nd",
    "traversal_trees",
    "serve_mixed",
];

/// A record size, or a twentieth of it in smoke mode.
pub fn scaled(size: usize, smoke: bool) -> usize {
    if smoke {
        (size / 20).max(64)
    } else {
        size
    }
}

/// Run the workload `args` names.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let smoke = args.smoke;
    match args.workload.as_str() {
        "report_seq" => run_batch(&Pipeline::report(Executor::Sequential, smoke), args),
        "report_par2" => run_batch(&Pipeline::report(Executor::Parallel, smoke), args),
        "report_dist2" => run_batch(&Pipeline::report(Executor::Distributed, smoke), args),
        "numeric_grid3d" => run_batch(&Pipeline::numeric_grid3d(smoke), args),
        "plan_nd" => run_batch(&Pipeline::plan_nd(smoke), args),
        "traversal_trees" => run_batch(&trees::TraversalTrees::new(smoke), args),
        "serve_mixed" => serve::ServeMixed::new(smoke).run(args),
        other => Err(format!(
            "unknown workload `{other}`; the workloads are {}",
            NAMES.join(", ")
        )),
    }
}
