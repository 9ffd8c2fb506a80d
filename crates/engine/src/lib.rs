//! # engine — the unified facade over the matrix-to-traversal pipeline
//!
//! The paper's end-to-end story — sparse matrix → fill-reducing ordering →
//! elimination/assembly tree → MinMemory traversal → out-of-core MinIO
//! schedule → multifrontal factorization — spans seven crates.  This crate
//! is the single typed entry point over all of them:
//!
//! * [`EngineConfig`] — a JSON-round-trippable description of one run: the
//!   problem source (generator / MatrixMarket file / prebuilt tree), the
//!   ordering method, the amalgamation allowance, the solver and policy
//!   names, and the memory budget;
//! * [`Engine::plan`] — ordering + symbolic analysis + tree construction,
//!   returning a reusable [`Plan`];
//! * [`Plan::schedule`] / [`Plan::schedule_with`] — solver traversal plus
//!   the MinIO eviction schedule, as a [`Schedule`];
//! * [`Schedule::execute`] — simulation results and (optionally) the numeric
//!   multifrontal factorization, folded into a serializable [`Report`] with
//!   per-stage wall-clock times and provenance;
//! * [`Engine::run_batch`] — a whole `Vec<EngineConfig>` fanned over the
//!   [`parallel::par_map`] worker pool for server-style throughput;
//! * [`Engine::with_cancel`] — the same engine under a request's
//!   [`CancelToken`], which every stage above polls;
//! * [`PlanCache`] — a bounded LRU (+ optional TTL) of `Arc<Plan>`s keyed by
//!   effective-config hash and charged per tenant, so repeated
//!   configurations skip the ordering/symbolic stages entirely (the
//!   substrate of `crates/server`'s plan cache).
//!
//! ```
//! use engine::prelude::*;
//!
//! let engine = Engine::new();
//! let config = EngineConfig::generated(ProblemKind::Grid2d, 225, 7)
//!     .with_ordering(OrderingMethod::MinimumDegree)
//!     .with_amalgamation(4)
//!     .with_policy("FirstFit")
//!     .with_memory(MemoryBudget::FractionOfPeak(0.0));
//! let plan = engine.plan(&config).unwrap();      // symbolic analysis, reusable
//! let schedule = plan.schedule(&engine).unwrap(); // traversal + eviction schedule
//! let report = schedule.execute(&engine).unwrap();
//! assert!(report.io_volume >= report.divisible_bound);
//! assert_eq!(report.config_hash, config.hash());
//! ```

pub mod cache;
pub mod cancel;
pub mod config;
pub mod json;
mod memo;
pub mod parallel;
mod parexec;
pub mod report;
pub mod run;

/// Re-exported fault-injection registry (the chaos harness arms it from the
/// serving layer, the lower crates fire the points).
pub use treemem::faultinject;

pub use cache::{
    fingerprint64, Admission, CacheConfig, CacheCore, CachePolicy, CacheStats, PlanCache,
    TenantUsage, DEFAULT_TENANT,
};
pub use cancel::{monotonic_millis, CancelToken};
pub use config::{
    BudgetShare, ConfigParseError, DistributedConfig, EngineConfig, MemoryBudget, ParallelConfig,
    ProblemSource, SolveConfig, SolveRhs,
};
pub use report::{
    CutReport, DistributedReport, NumericReport, ParallelReport, Report, SolveReport, StageTimings,
};
pub use run::{
    DistributedCut, DistributedRuntime, Engine, EngineError, FactorHandle, Plan, Schedule,
    ScheduleSpec, SubtreeParts, MAX_SOLVE_RHS,
};

/// Everything a typical engine user needs in scope.
pub mod prelude {
    pub use crate::cache::{CacheConfig, CachePolicy, CacheStats, PlanCache};
    pub use crate::cancel::CancelToken;
    pub use crate::config::{
        BudgetShare, ConfigParseError, DistributedConfig, EngineConfig, MemoryBudget,
        ParallelConfig, ProblemSource, SolveConfig, SolveRhs,
    };
    pub use crate::report::{
        CutReport, DistributedReport, NumericReport, ParallelReport, Report, SolveReport,
        StageTimings,
    };
    pub use crate::run::{
        DistributedCut, DistributedRuntime, Engine, EngineError, FactorHandle, Plan, Schedule,
        ScheduleSpec, SubtreeParts,
    };
    pub use minio::PolicyRegistry;
    pub use ordering::OrderingMethod;
    pub use sparsemat::gen::ProblemKind;
    pub use treemem::SolverRegistry;
}
