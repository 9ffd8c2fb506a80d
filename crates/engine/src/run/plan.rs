//! The analysis layer: a [`Plan`] holds the ordering, the symbolic data and
//! the assembly tree, caches each solver's traversal and the numeric
//! substrate built on them, and derives schedules from them.

use std::sync::Arc;

use minio::{MinIoError, Policy, Walk};
use sparsemat::SparsePattern;
use symbolic::{amalgamate, AssemblyTree, EliminationTree};
use treemem::faultinject::FaultPoint;
use treemem::solver::Solver;
use treemem::tree::{NodeId, Size};
use treemem::{TraversalResult, Tree};

use super::numeric::NumericModel;
use super::validate::{validate_execution, validate_memory};
use super::{cancelled, check, fire_fault, timed_ok, Engine, EngineError, SubtreeParts};
use super::{Schedule, ScheduleSpec, TaskSlice};
use crate::cancel::CancelToken;
use crate::config::{EngineConfig, Fnv1a, ProblemSource, Settings, SolveRhs};
use crate::memo::Memo;
use crate::report::StageTimings;

pub(super) struct SymbolicData {
    pub(super) permuted: SparsePattern,
    /// Shared with the numeric model's structure.
    pub(super) etree: Arc<EliminationTree>,
    pub(super) counts: Vec<usize>,
}

pub(super) enum PlanTree {
    Assembly(Box<AssemblyTree>),
    /// The allocation the configuration's source points at; no copy.
    Prebuilt(Arc<Tree>),
}

/// One solver's cached outcome on a plan's tree.
pub(super) struct Solved {
    pub(super) result: TraversalResult,
    pub(super) seconds: f64,
    /// The traversal, validated once: every policy walk and bound on it
    /// shares the position map.
    walk: Walk,
    /// Divisible lower bounds by memory budget: the bound depends only on
    /// the traversal and the budget, so policy sweeps share it.
    bounds: Memo<Size, Size>,
}

/// The reusable symbolic-analysis object: the weighted tree plus everything
/// needed to derive schedules (and, for matrix sources, re-amalgamated
/// sibling plans and numeric runs) without repeating the expensive stages.
///
/// ```
/// use engine::{Engine, EngineConfig, MemoryBudget};
/// use treemem::gadgets::harpoon;
///
/// let engine = Engine::new();
/// let plan = engine
///     .plan(&EngineConfig::prebuilt(harpoon(4, 400, 1)))
///     .unwrap();
/// // One plan, many schedules: the solver result is computed once and
/// // cached, only the eviction simulation differs per policy.
/// for policy in ["LSNF", "FirstFit", "BestKComb"] {
///     let schedule = plan
///         .schedule_with(
///             &engine,
///             engine::ScheduleSpec::default()
///                 .policy(policy)
///                 .memory(MemoryBudget::FractionOfPeak(0.0)),
///         )
///         .unwrap();
///     assert!(schedule.io_volume() >= schedule.divisible_bound());
/// }
/// ```
pub struct Plan {
    pub(super) config: EngineConfig,
    /// The configuration's solver and policy, parsed once at plan time.
    names: (Solver, Policy),
    /// The hash state after the configuration's `source` line: schedules
    /// and sibling plans finish it over their effective settings.
    source_hash: Fnv1a,
    config_hash: String,
    /// Shared with every [`Plan::reamalgamate`]d sibling.
    pub(super) symbolic: Option<Arc<SymbolicData>>,
    tree: PlanTree,
    pub(super) timings: StageTimings,
    /// Solver results (and their bounds) cached by solver.
    solved: Memo<Solver, Solved>,
    /// The numeric substrate, built lazily by the first `execute` with the
    /// numeric stage enabled and shared by all later ones.
    numeric_model: Memo<(), NumericModel>,
}

impl Plan {
    pub(super) fn new(
        config: EngineConfig,
        names: (Solver, Policy),
        source_hash: Fnv1a,
        symbolic: Option<Arc<SymbolicData>>,
        tree: PlanTree,
        timings: StageTimings,
    ) -> Plan {
        Plan {
            config_hash: source_hash.finish(&config.settings()),
            config,
            names,
            source_hash,
            symbolic,
            tree,
            timings,
            solved: Memo::new(),
            numeric_model: Memo::new(),
        }
    }

    /// The configuration this plan was built from.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The FNV-1a hash of the configuration (report provenance).
    pub fn config_hash(&self) -> &str {
        &self.config_hash
    }

    /// The weighted tree the traversal stages run on.
    pub fn tree(&self) -> &Tree {
        match &self.tree {
            PlanTree::Assembly(assembly) => &assembly.tree,
            PlanTree::Prebuilt(tree) => tree,
        }
    }

    /// The assembly tree with its grouping metadata (`None` for prebuilt
    /// sources).
    pub fn assembly(&self) -> Option<&AssemblyTree> {
        match &self.tree {
            PlanTree::Assembly(assembly) => Some(assembly),
            PlanTree::Prebuilt(_) => None,
        }
    }

    /// The permuted pattern the symbolic analysis ran on (`None` for
    /// prebuilt sources).
    pub fn permuted_pattern(&self) -> Option<&SparsePattern> {
        self.symbolic.as_ref().map(|s| &s.permuted)
    }

    /// Number of unknowns of the underlying matrix (0 for prebuilt trees).
    pub fn matrix_n(&self) -> usize {
        self.symbolic.as_ref().map_or(0, |s| s.permuted.n())
    }

    /// Wall-clock seconds of the planning stages.
    pub fn timings(&self) -> &StageTimings {
        &self.timings
    }

    /// Approximate heap footprint of the plan in bytes: what the retained
    /// configuration owns (right-hand-side vectors, names, a MatrixMarket
    /// path), the tree (or assembly tree with its grouping metadata; a
    /// prebuilt tree is one allocation shared with the configuration and
    /// counted once), the symbolic analysis, the cached solver traversals,
    /// and the numeric substrate if one was built.  Estimated from array
    /// lengths at call time — the serving caches charge entries by this
    /// value at insert, so footprints are byte-accurate for the dominant
    /// CSR/factor/RHS arrays while later lazy fills (a new solver's
    /// traversal) are charged on re-insert only.
    pub fn approx_heap_bytes(&self) -> u64 {
        use std::mem::size_of;
        let config = &self.config;
        let mut bytes = (size_of::<Plan>()
            + self.config_hash.len()
            + config.solver.len()
            + config.policy.len()) as u64;
        if let ProblemSource::MatrixMarket { path } = &config.source {
            bytes += path.len() as u64;
        }
        if let SolveRhs::Vectors(vectors) = &config.solve.rhs {
            let values: usize = vectors.iter().map(Vec::len).sum();
            bytes += (values * size_of::<f64>() + vectors.len() * size_of::<Vec<f64>>()) as u64;
        }
        match &self.tree {
            PlanTree::Assembly(assembly) => {
                bytes += assembly.tree.heap_bytes() + assembly.groups_heap_bytes();
            }
            PlanTree::Prebuilt(tree) => bytes += tree.heap_bytes(),
        }
        if let Some(symbolic) = &self.symbolic {
            bytes += symbolic.permuted.heap_bytes();
            bytes += symbolic.etree.heap_bytes();
            bytes += (symbolic.counts.len() * size_of::<usize>()) as u64;
        }
        self.solved.for_each(|_, solved| {
            bytes += (solved.result.traversal.len() * size_of::<NodeId>()) as u64;
            bytes += solved.walk.heap_bytes();
        });
        self.numeric_model
            .for_each(|(), model| bytes += model.heap_bytes());
        bytes
    }

    /// Derive a sibling plan with a different amalgamation allowance,
    /// reusing the ordering, elimination tree and column counts (only the
    /// amalgamation itself is recomputed).  Errors on prebuilt sources,
    /// which have no symbolic analysis to re-amalgamate.
    pub fn reamalgamate(&self, amalgamation: usize) -> Result<Plan, EngineError> {
        if amalgamation == 0 {
            return Err(EngineError::InvalidConfig(
                "the amalgamation allowance must be at least 1".to_string(),
            ));
        }
        let Some(symbolic) = &self.symbolic else {
            return Err(EngineError::InvalidConfig(
                "prebuilt sources have no symbolic analysis to re-amalgamate".to_string(),
            ));
        };
        let (assembly, symbolic_seconds) =
            timed_ok(|| amalgamate(&symbolic.etree, &symbolic.counts, amalgamation));
        let mut timings = self.timings.clone();
        timings.symbolic_seconds = symbolic_seconds;
        Ok(Plan::new(
            self.config.clone().with_amalgamation(amalgamation),
            self.names,
            self.source_hash,
            Some(symbolic.clone()),
            PlanTree::Assembly(Box::new(assembly)),
            timings,
        ))
    }

    /// Run (or fetch from the cache) the named solver on the plan's tree.
    pub fn solve(
        &self,
        engine: &Engine,
        solver: &str,
    ) -> Result<(TraversalResult, f64), EngineError> {
        let solved = self.solved(engine, solver.parse()?)?;
        Ok((solved.result.clone(), solved.seconds))
    }

    /// The shared, cached outcome of `solver` on the plan's tree — what
    /// schedules hold instead of a copy of the traversal.
    fn solved(&self, engine: &Engine, solver: Solver) -> Result<Arc<Solved>, EngineError> {
        self.solved.get_or_try(&solver, || {
            if !solver.supports(self.tree()) {
                return Err(EngineError::InvalidConfig(format!(
                    "solver '{}' does not support a tree of {} nodes",
                    solver.name(),
                    self.tree().len()
                )));
            }
            let cancel = engine.cancel();
            fire_fault(FaultPoint::ScheduleSolver);
            check(cancel, "solver")?;
            // A stopped solver is an error, which the memo does not keep.
            let (result, seconds) = CancelToken::with_stop(cancel, |stop| {
                let stop = stop.map(|probe| probe as &dyn Fn() -> bool);
                timed_ok(|| solver.solve_with_stop(self.tree(), stop))
            });
            let result = result.ok_or_else(|| cancelled(cancel, "solver"))?;
            check(cancel, "solver")?;
            let walk = Walk::new(self.tree(), &result.traversal)?;
            Ok(Solved {
                result,
                seconds,
                walk,
                bounds: Memo::new(),
            })
        })
    }

    /// The numeric substrate (SPD matrix + per-column model), built on first
    /// use and shared by every `execute` on this plan.
    pub(crate) fn numeric_model(&self) -> Result<Arc<NumericModel>, EngineError> {
        self.numeric_model.get_or_try(&(), || {
            let Some(symbolic) = &self.symbolic else {
                return Err(EngineError::NumericUnavailable);
            };
            let seed = match &self.config.source {
                ProblemSource::Generated { seed, .. } => *seed,
                _ => 1,
            };
            Ok(NumericModel::new(symbolic, seed))
        })
    }

    /// Factor one subtree task of a distributed run the way a worker
    /// process does: take the task's [`TaskSlice`] of this plan's problem,
    /// then factor the slice.  `order` is the task's bottom-up column
    /// order, e.g. [`DistributedCut::task_order`](crate::DistributedCut::task_order);
    /// the columns and contribution blocks are bit-identical to what the
    /// single-process executor computes for those columns.
    ///
    /// `order` may come from anywhere, so it is validated first: an index
    /// out of range or named twice is [`EngineError::InvalidConfig`], an
    /// order that is not a bottom-up subtree is the kernel's
    /// [`EngineError::Factorization`]; never a panic.  `cancel` is polled
    /// by the column loop.
    pub fn factor_subtree(
        &self,
        order: &[usize],
        cancel: Option<&CancelToken>,
    ) -> Result<SubtreeParts, EngineError> {
        let numeric = self.numeric_model()?;
        TaskSlice::of_order(&numeric, order)?.factor(cancel)
    }

    /// Produce the schedule described by the plan's own configuration.
    pub fn schedule<'p>(&'p self, engine: &Engine) -> Result<Schedule<'p>, EngineError> {
        self.schedule_with(engine, ScheduleSpec::default())
    }

    /// Produce a schedule with per-call overrides, reusing the plan (and the
    /// cached solver traversal) across calls — the engine-level analogue of
    /// a sweep cell.  The solver checks the engine's token at its
    /// boundaries and the out-of-core simulation polls it every few
    /// thousand steps.
    pub fn schedule_with<'p>(
        &'p self,
        engine: &Engine,
        spec: ScheduleSpec,
    ) -> Result<Schedule<'p>, EngineError> {
        let cancel = engine.cancel();
        // Provenance: the hash of the *effective* configuration, so
        // replaying the hashed configuration reproduces exactly this
        // schedule.  A spec that overrides nothing names the plan's own
        // configuration; any other finishes the plan's saved hash state
        // over the effective settings — the source is never revisited.
        let overrides = spec.solver.is_some()
            || spec.policy.is_some()
            || spec.memory.is_some()
            || spec.parallel.is_some();
        let budget_spec = spec.memory.unwrap_or(self.config.memory);
        let parallel = spec.parallel.unwrap_or(self.config.parallel);
        validate_memory(budget_spec)?;
        validate_execution(&parallel, &self.config.distributed, self.config.numeric)?;
        let policy = spec
            .policy
            .as_deref()
            .map_or(Ok(self.names.1), str::parse)?;
        let solver = spec
            .solver
            .as_deref()
            .map_or(Ok(self.names.0), str::parse)?;
        let solved = self.solved(engine, solver)?;

        fire_fault(FaultPoint::ScheduleIo);
        check(cancel, "io")?;
        let tree = self.tree();
        let traversal = &solved.result.traversal;
        let memory_budget = budget_spec.resolve(tree.max_mem_req(), solved.result.peak);
        let walk = &solved.walk;
        let (simulated, io_seconds) = CancelToken::with_stop(cancel, |stop| {
            let stop = stop.map(|probe| probe as &dyn Fn() -> bool);
            timed_ok(|| {
                let Some(run) = walk.schedule_io(tree, traversal, memory_budget, policy, stop)?
                else {
                    return Ok(None);
                };
                // A stopped bound is `Err(None)`, which the memo does
                // not keep.
                let bound = solved.bounds.get_or_try(&memory_budget, || {
                    walk.divisible_bound(tree, traversal, memory_budget, stop)
                        .map_err(Some)?
                        .ok_or(None)
                });
                match bound {
                    Ok(bound) => Ok(Some((run, *bound))),
                    Err(None) => Ok(None),
                    Err(Some(err)) => Err::<_, MinIoError>(err),
                }
            })
        });
        let Some((run, divisible_bound)) = simulated? else {
            return Err(cancelled(cancel, "io"));
        };
        let config_hash = if overrides {
            self.source_hash.finish(&Settings {
                solver: solver.name(),
                policy: policy.name(),
                memory: budget_spec,
                parallel,
                ..self.config.settings()
            })
        } else {
            self.config_hash.clone()
        };
        Ok(Schedule {
            plan: self,
            config_hash,
            solver,
            policy,
            parallel,
            solved,
            budget_spec,
            memory_budget,
            run,
            divisible_bound,
            io_seconds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ordering::OrderingMethod;
    use sparsemat::gen::ProblemKind;
    use treemem::gadgets::harpoon;

    #[test]
    fn prebuilt_plans_skip_the_symbolic_stages() {
        let engine = Engine::new();
        let tree = harpoon(4, 400, 1);
        let plan = engine.plan(&EngineConfig::prebuilt(tree.clone())).unwrap();
        assert_eq!(plan.tree(), &tree);
        assert!(plan.assembly().is_none());
        assert_eq!(plan.matrix_n(), 0);
        assert!(plan.reamalgamate(4).is_err());
    }

    #[test]
    fn solver_results_are_cached_per_plan() {
        let engine = Engine::new();
        let plan = engine
            .plan(&EngineConfig::prebuilt(harpoon(4, 400, 1)))
            .unwrap();
        let cached = || {
            let mut solvers = Vec::new();
            plan.solved.for_each(|solver, _| solvers.push(*solver));
            solvers
        };
        let (first, _) = plan.solve(&engine, "minmem").unwrap();
        let (second, _) = plan.solve(&engine, "minmem").unwrap();
        assert_eq!(first, second);
        assert_eq!(cached(), [Solver::MinMem]);
        plan.solve(&engine, "postorder").unwrap();
        assert_eq!(cached(), [Solver::MinMem, Solver::BestPostorder]);
    }

    #[test]
    fn reamalgamation_reuses_the_symbolic_analysis() {
        let engine = Engine::new();
        let base = EngineConfig::generated(ProblemKind::Grid2d, 300, 21)
            .with_ordering(OrderingMethod::NestedDissection)
            .with_amalgamation(1);
        let plan = engine.plan(&base).unwrap();
        let relaxed = plan.reamalgamate(16).unwrap();
        assert!(relaxed.tree().len() <= plan.tree().len());
        // The derived plan matches a from-scratch plan bit for bit.
        let direct = engine.plan(&base.clone().with_amalgamation(16)).unwrap();
        assert_eq!(relaxed.tree(), direct.tree());
        assert_eq!(relaxed.config_hash(), direct.config_hash());
    }

    #[test]
    fn hostile_subtree_orders_are_rejected_without_panicking() {
        let engine = Engine::new();
        let config = EngineConfig::generated(ProblemKind::Grid2d, 100, 1)
            .with_numeric(true)
            .with_distributed(crate::config::DistributedConfig::with_tasks(2));
        let plan = engine.plan(&config).unwrap();
        // Out-of-range column.
        assert!(matches!(
            plan.factor_subtree(&[0, 1_000_000], None),
            Err(EngineError::InvalidConfig(_))
        ));
        // Duplicate column.
        assert!(matches!(
            plan.factor_subtree(&[3, 3], None),
            Err(EngineError::InvalidConfig(_))
        ));
        // Not bottom-up within the subset: a typed kernel error, no panic.
        assert!(matches!(
            plan.factor_subtree(&[99, 0], None),
            Err(EngineError::Factorization(_))
        ));
    }

    #[test]
    fn absolute_budgets_below_memreq_are_reported() {
        let engine = Engine::new();
        let tree = harpoon(3, 300, 1);
        let too_small = tree.max_mem_req() - 1;
        let config =
            EngineConfig::prebuilt(tree).with_memory(crate::MemoryBudget::Absolute(too_small));
        let plan = engine.plan(&config).unwrap();
        assert!(matches!(
            plan.schedule(&engine),
            Err(EngineError::MinIo(MinIoError::InsufficientMemory { .. }))
        ));
    }
}
