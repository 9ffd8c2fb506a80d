//! # perfprof — Dolan–Moré performance profiles and summary statistics
//!
//! The paper evaluates its algorithms and heuristics with *performance
//! profiles* (Dolan & Moré, 2002): for every test instance and every method
//! the measured cost (memory requirement, I/O volume or running time) is
//! divided by the best cost any method achieved on that instance; the profile
//! of a method is then the cumulative distribution of these ratios — the
//! value at `τ` is the fraction of instances on which the method is within a
//! factor `τ` of the best.
//!
//! [`PerformanceProfile`] computes the profiles for a set of methods,
//! [`ratio_statistics`] produces the summary numbers reported in Tables I and
//! II of the paper (fraction of non-optimal cases, maximum / average /
//! standard deviation of the cost ratio), and the rendering helpers produce
//! the CSV series and ASCII plots emitted by the experiment binaries.
//! [`timing`] holds the repeated-run wall-clock summaries behind the engine's
//! stage timings and the latency percentiles of the server's `/stats`.

pub mod profile;
pub mod stats;
pub mod timing;

pub use profile::{PerformanceProfile, ProfilePoint};
pub use stats::{ratio_statistics, RatioStatistics};
pub use timing::{
    latency_summary, percentile, summarize_seconds, time_runs, LatencySummary, TimingSummary,
};
