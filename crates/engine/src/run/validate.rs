//! The checks a configuration passes at plan time, before any work starts,
//! and the caps that keep a configuration from the network bounded.

use minio::Policy;
use treemem::solver::Solver;

use super::factor::check_rhs;
use super::{Engine, EngineError};
use crate::config::{
    BudgetShare, DistributedConfig, EngineConfig, MemoryBudget, ParallelConfig, ProblemSource,
    SolveConfig,
};

impl Engine {
    /// Check `config`, returning the solver and policy its names parse to.
    pub(super) fn validate(&self, config: &EngineConfig) -> Result<(Solver, Policy), EngineError> {
        let names = (config.solver.parse()?, config.policy.parse()?);
        if config.amalgamation == 0 {
            return Err(EngineError::InvalidConfig(
                "the amalgamation allowance must be at least 1".to_string(),
            ));
        }
        validate_memory(config.memory)?;
        if config.numeric && matches!(config.source, ProblemSource::Prebuilt { .. }) {
            return Err(EngineError::NumericUnavailable);
        }
        validate_execution(&config.parallel, &config.distributed, config.numeric)?;
        validate_solve(&config.solve, config.numeric)?;
        Ok(names)
    }
}

/// Hard cap on requested workers.  Each worker is a real OS thread spawned
/// eagerly by the pool, and configurations arrive over the network: without
/// a cap, one cheap request asking for millions of workers exhausts
/// PIDs/memory for the whole host.  64 comfortably covers the machines this
/// targets; oversubscription beyond the core count buys nothing anyway.
const MAX_PARALLEL_WORKERS: usize = 64;

/// Hard cap on the cut granularity: the scheduler's admission scan is
/// O(pending tasks) per pick, so the queue must stay small; far beyond the
/// worker cap there is no balance benefit either.
const MAX_PARALLEL_TASKS: usize = 4096;

/// Lease-duration floor.  A lease shorter than this expires before a worker
/// can even deserialize the task, so every task would be requeued forever.
const MIN_DISTRIBUTED_LEASE_MS: u64 = 10;

/// Lease-duration ceiling (one hour).  A longer lease means a dead worker
/// wedges its task — and therefore the whole job — for longer than any
/// sane request deadline; configurations arrive over the network.
const MAX_DISTRIBUTED_LEASE_MS: u64 = 3_600_000;

/// The one check of a memory budget, made on the configuration at plan time
/// and on a [`ScheduleSpec`](super::ScheduleSpec) override at schedule time:
/// a non-finite fraction resolves to no budget and renders as a number JSON
/// cannot hold.
pub(super) fn validate_memory(memory: MemoryBudget) -> Result<(), EngineError> {
    match memory {
        MemoryBudget::FractionOfPeak(fraction) if !fraction.is_finite() => Err(
            EngineError::InvalidConfig(format!("memory fraction must be finite, got {fraction}")),
        ),
        _ => Ok(()),
    }
}

/// What the `parallel` and `distributed` sections share — both describe a
/// cut of the numeric stage into at most `tasks` pieces under a `budget`.
fn validate_cut_section(
    section: &'static str,
    numeric: bool,
    tasks: usize,
    budget: BudgetShare,
) -> Result<(), EngineError> {
    if !numeric {
        return Err(EngineError::InvalidConfig(format!(
            "{section} execution requires the numeric stage"
        )));
    }
    if tasks > MAX_PARALLEL_TASKS {
        return Err(EngineError::InvalidConfig(format!(
            "at most {MAX_PARALLEL_TASKS} {section} tasks are supported, got {tasks}"
        )));
    }
    if let BudgetShare::MultipleOfSequentialPeak(multiple) = budget {
        if !multiple.is_finite() || multiple <= 0.0 {
            return Err(EngineError::InvalidConfig(format!(
                "the {section} budget multiple must be finite and positive, got {multiple}"
            )));
        }
    }
    Ok(())
}

/// Validate how the numeric stage is to be executed.  This is the one mode
/// selection point: neither section enabled is the sequential one-task cut,
/// `parallel` is the thread pool, `distributed` is worker processes — and a
/// run has exactly one mode.
pub(super) fn validate_execution(
    parallel: &ParallelConfig,
    distributed: &DistributedConfig,
    numeric: bool,
) -> Result<(), EngineError> {
    if parallel.enabled() && distributed.enabled() {
        return Err(EngineError::InvalidConfig(
            "parallel.workers >= 1 and distributed.tasks >= 2 are mutually exclusive: \
             a run has one execution mode"
                .to_string(),
        ));
    }
    if parallel.enabled() {
        validate_cut_section("parallel", numeric, parallel.max_tasks, parallel.budget)?;
        if parallel.workers > MAX_PARALLEL_WORKERS {
            return Err(EngineError::InvalidConfig(format!(
                "at most {MAX_PARALLEL_WORKERS} parallel workers are supported, got {}",
                parallel.workers
            )));
        }
        if parallel.max_tasks == 0 {
            return Err(EngineError::InvalidConfig(
                "the parallel cut needs at least one task".to_string(),
            ));
        }
    }
    if distributed.enabled() {
        validate_cut_section(
            "distributed",
            numeric,
            distributed.tasks,
            distributed.budget,
        )?;
        if !(MIN_DISTRIBUTED_LEASE_MS..=MAX_DISTRIBUTED_LEASE_MS).contains(&distributed.lease_ms) {
            return Err(EngineError::InvalidConfig(format!(
                "the distributed lease must be between {MIN_DISTRIBUTED_LEASE_MS} and \
                 {MAX_DISTRIBUTED_LEASE_MS} ms, got {}",
                distributed.lease_ms
            )));
        }
    }
    Ok(())
}

fn validate_solve(solve: &SolveConfig, numeric: bool) -> Result<(), EngineError> {
    if !solve.enabled {
        return Ok(());
    }
    if !numeric {
        return Err(EngineError::InvalidConfig(
            "the solve stage requires the numeric stage".to_string(),
        ));
    }
    check_rhs(&solve.rhs, None).map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ScheduleSpec, MAX_SOLVE_RHS};
    use sparsemat::gen::ProblemKind;
    use treemem::gadgets::harpoon;

    #[test]
    fn hostile_parallel_sections_are_rejected_at_plan_time() {
        let engine = Engine::new();
        let base = EngineConfig::generated(ProblemKind::Grid2d, 100, 1).with_numeric(true);
        // A network request must not be able to spawn unbounded OS threads
        // or an unbounded task queue.
        for parallel in [
            crate::config::ParallelConfig::with_workers(10_000_000),
            crate::config::ParallelConfig::with_workers(MAX_PARALLEL_WORKERS + 1),
            crate::config::ParallelConfig::with_workers(2).with_max_tasks(0),
            crate::config::ParallelConfig::with_workers(2).with_max_tasks(MAX_PARALLEL_TASKS + 1),
            crate::config::ParallelConfig::with_workers(2)
                .with_budget(crate::config::BudgetShare::MultipleOfSequentialPeak(-1.0)),
            crate::config::ParallelConfig::with_workers(2).with_budget(
                crate::config::BudgetShare::MultipleOfSequentialPeak(f64::NAN),
            ),
        ] {
            let config = base.clone().with_parallel(parallel);
            assert!(
                matches!(engine.plan(&config), Err(EngineError::InvalidConfig(_))),
                "{parallel:?} must be rejected"
            );
        }
        // The caps themselves are accepted.
        let config = base
            .clone()
            .with_parallel(crate::config::ParallelConfig::with_workers(
                MAX_PARALLEL_WORKERS,
            ));
        assert!(engine.plan(&config).is_ok());
        // Parallel execution without the numeric stage is rejected too.
        let config = base
            .with_numeric(false)
            .with_parallel(crate::config::ParallelConfig::with_workers(2));
        assert!(matches!(
            engine.plan(&config),
            Err(EngineError::InvalidConfig(_))
        ));
    }

    #[test]
    fn numeric_stage_requires_a_matrix_source() {
        let engine = Engine::new();
        let config = EngineConfig::prebuilt(harpoon(3, 300, 1)).with_numeric(true);
        assert!(matches!(
            engine.plan(&config),
            Err(EngineError::NumericUnavailable)
        ));
    }

    #[test]
    fn hostile_solve_sections_are_rejected_at_plan_time() {
        let engine = Engine::new();
        let base = EngineConfig::generated(ProblemKind::Grid2d, 100, 1).with_numeric(true);
        for solve in [
            SolveConfig::generated(0, 1),
            SolveConfig::generated(MAX_SOLVE_RHS + 1, 1),
            SolveConfig::vectors(vec![]),
            SolveConfig::vectors(vec![vec![f64::NAN; 4]]),
        ] {
            let config = base.clone().with_solve(solve.clone());
            assert!(
                matches!(engine.plan(&config), Err(EngineError::InvalidConfig(_))),
                "{solve:?} must be rejected"
            );
        }
        // Solving requires the numeric stage.
        let config = base
            .with_numeric(false)
            .with_solve(SolveConfig::generated(1, 1));
        assert!(matches!(
            engine.plan(&config),
            Err(EngineError::InvalidConfig(_))
        ));
    }

    /// A memory override is validated like the configuration's own budget:
    /// a non-finite fraction used to be accepted and render a report (and
    /// name a configuration) that no JSON reader can parse.
    #[test]
    fn non_finite_memory_overrides_are_rejected() {
        let engine = Engine::new();
        let plan = engine
            .plan(&EngineConfig::prebuilt(harpoon(3, 300, 1)))
            .unwrap();
        for fraction in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let spec = ScheduleSpec::default().memory(MemoryBudget::FractionOfPeak(fraction));
            assert!(
                matches!(
                    plan.schedule_with(&engine, spec),
                    Err(EngineError::InvalidConfig(_))
                ),
                "{fraction} must be rejected"
            );
        }
    }

    #[test]
    fn hostile_distributed_sections_are_rejected_at_plan_time() {
        let engine = Engine::new();
        let base = EngineConfig::generated(ProblemKind::Grid2d, 100, 1).with_numeric(true);
        for distributed in [
            crate::config::DistributedConfig::with_tasks(MAX_PARALLEL_TASKS + 1),
            crate::config::DistributedConfig::with_tasks(2).with_lease_ms(0),
            crate::config::DistributedConfig::with_tasks(2)
                .with_lease_ms(MAX_DISTRIBUTED_LEASE_MS + 1),
            crate::config::DistributedConfig::with_tasks(2).with_budget(
                crate::config::BudgetShare::MultipleOfSequentialPeak(f64::NAN),
            ),
        ] {
            let config = base.clone().with_distributed(distributed);
            assert!(
                matches!(engine.plan(&config), Err(EngineError::InvalidConfig(_))),
                "{distributed:?} must be rejected"
            );
        }
        // Distributed execution requires the numeric stage.
        let config = base
            .with_numeric(false)
            .with_distributed(crate::config::DistributedConfig::with_tasks(2));
        assert!(matches!(
            engine.plan(&config),
            Err(EngineError::InvalidConfig(_))
        ));
    }
}
