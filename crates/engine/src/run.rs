//! The typed Plan → Schedule → Report flow.
//!
//! [`Engine::plan`] runs the *symbolic* half of the pipeline (problem
//! acquisition, fill-reducing ordering, elimination tree, column counts,
//! amalgamation) and returns a [`Plan`] — the reusable analysis object.
//! [`Plan::schedule`] runs the *traversal* half (MinMemory solver plus the
//! out-of-core MinIO simulation) and returns a [`Schedule`];
//! [`Schedule::execute`] optionally adds the numeric multifrontal
//! factorization and folds everything into a serializable [`Report`].
//!
//! A plan caches solver results by name, so sweeping many policies or memory
//! budgets over the same traversal re-runs neither the symbolic analysis nor
//! the solver — the "symbolic analysis reused across numeric runs" shape of
//! production multifrontal codes.
//!
//! # What a plan owns and what it shares
//!
//! A [`Plan`] owns its configuration, the assembly tree and its lazily
//! filled caches.  It *shares*, by `Arc`: a prebuilt tree with the
//! configuration it came from (one allocation from
//! [`EngineConfig::prebuilt`] to [`Plan::tree`]); the symbolic analysis with
//! every [`Plan::reamalgamate`]d sibling; each solver's traversal with every
//! [`Schedule`] of that solver; the numeric substrate with every factor.
//! Everything lazy goes through one private compute-once memo (`memo::Memo`:
//! computed outside the lock, one value retained per key, errors never
//! cached).  A schedule therefore costs its solver (first use only) plus
//! its out-of-core simulation and bound: its `config_hash` is the plan's
//! saved hash state finished over the effective settings
//! ([`crate::config`]), not a render of a cloned configuration.

use std::sync::Arc;
use std::time::{Duration, Instant};

use minio::{MinIoError, OutOfCoreRun, Policy, Walk};
use multifrontal::memory::per_column_model;
use multifrontal::numeric::SymbolicStructure;
use multifrontal::parallel::BudgetLedger;
use multifrontal::{
    solve, solve_into, CholeskyFactor, ContributionStore, FactorizationError, FrontArena,
};
use sparsemat::gen::spd_matrix_from_pattern;
use sparsemat::matrixmarket::{read_pattern, MatrixMarketError};
use sparsemat::SparsePattern;
use symbolic::{amalgamate, column_counts, elimination_tree, AssemblyTree, EliminationTree};
use treemem::faultinject::FaultPoint;
use treemem::registry::UnknownName;
use treemem::solver::Solver;
use treemem::tree::{NodeId, Size};
use treemem::{Traversal, TraversalResult, Tree};

use crate::cancel::CancelToken;
use crate::config::{
    BudgetShare, DistributedConfig, EngineConfig, Fnv1a, MemoryBudget, ParallelConfig,
    ProblemSource, Settings, SolveConfig, SolveRhs,
};
use crate::memo::Memo;
use crate::parexec::{execute_cut, CutPlan, TaskContext, TaskRunner};
use crate::report::{
    DistributedReport, NumericReport, ParallelReport, Report, SolveReport, StageTimings,
};

/// Errors raised anywhere in the plan/schedule/execute flow.
#[derive(Debug)]
pub enum EngineError {
    /// A solver or policy name is unknown.
    UnknownName(UnknownName),
    /// The configuration is structurally invalid (zero allowance, NaN
    /// fraction, ...).
    InvalidConfig(String),
    /// The MatrixMarket source could not be parsed.
    MatrixMarket(MatrixMarketError),
    /// The out-of-core simulation failed (insufficient memory, invalid
    /// traversal).
    MinIo(MinIoError),
    /// The numeric factorization failed.
    Factorization(FactorizationError),
    /// The numeric stage was requested but the source is a prebuilt tree,
    /// which has no matrix to factorize.
    NumericUnavailable,
    /// An execution-layer invariant broke (e.g. a panic inside a parallel
    /// subtree task).  Never the client's fault.
    Internal(String),
    /// The run was cancelled cooperatively (deadline or explicit
    /// [`CancelToken::cancel`]), noticed by the named stage after `elapsed`
    /// wall-clock time.
    Cancelled {
        /// The pipeline stage that observed the cancellation (`"plan"`,
        /// `"ordering"`, `"symbolic"`, `"solver"`, `"io"`, `"numeric"`,
        /// `"solve"`).
        stage: &'static str,
        /// Wall-clock time from token creation to the observation.
        elapsed: Duration,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, fmt: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownName(err) => write!(fmt, "{err}"),
            EngineError::InvalidConfig(message) => write!(fmt, "invalid config: {message}"),
            EngineError::MatrixMarket(err) => write!(fmt, "MatrixMarket input: {err}"),
            EngineError::MinIo(err) => write!(fmt, "out-of-core simulation: {err}"),
            EngineError::Factorization(err) => write!(fmt, "numeric factorization: {err}"),
            EngineError::NumericUnavailable => {
                write!(fmt, "numeric factorization requires a matrix source")
            }
            EngineError::Internal(message) => write!(fmt, "internal error: {message}"),
            EngineError::Cancelled { stage, elapsed } => write!(
                fmt,
                "cancelled in the {stage} stage after {:.1} ms",
                elapsed.as_secs_f64() * 1e3
            ),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<UnknownName> for EngineError {
    fn from(err: UnknownName) -> Self {
        EngineError::UnknownName(err)
    }
}

impl From<MatrixMarketError> for EngineError {
    fn from(err: MatrixMarketError) -> Self {
        EngineError::MatrixMarket(err)
    }
}

impl From<MinIoError> for EngineError {
    fn from(err: MinIoError) -> Self {
        EngineError::MinIo(err)
    }
}

impl From<FactorizationError> for EngineError {
    fn from(err: FactorizationError) -> Self {
        EngineError::Factorization(err)
    }
}

/// The facade over the whole matrix-to-traversal pipeline: the
/// plan/schedule/execute drivers and an optional [`CancelToken`]
/// ([`Engine::with_cancel`]) that every stage they drive polls, unwinding
/// with [`EngineError::Cancelled`] once it fires.  Solver and policy names
/// parse into [`Solver`] and [`Policy`] values at plan time.
///
/// ```
/// use engine::{Engine, EngineConfig};
/// use treemem::gadgets::harpoon;
///
/// let engine = Engine::new();
/// let config = EngineConfig::prebuilt(harpoon(3, 300, 1));
/// let report = engine.run(&config).unwrap();
/// assert_eq!(report.io_volume, 0); // unlimited memory: no eviction needed
/// ```
#[derive(Default)]
pub struct Engine {
    cancel: Option<CancelToken>,
}

impl Engine {
    /// An engine whose stages run to the end.
    pub fn new() -> Self {
        Engine::default()
    }

    /// An engine under `token`: every stage driven through the returned
    /// engine polls it.
    pub fn with_cancel(&self, token: CancelToken) -> Engine {
        Engine {
            cancel: Some(token),
        }
    }

    /// The token this engine's stages poll (`None`: they run to the end).
    pub(crate) fn cancel(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Validate `config` and run the symbolic half of the pipeline.
    ///
    /// Name resolution happens here, so a typo in the solver or policy name
    /// fails fast with a typed [`UnknownName`] before any real work starts.
    /// The ordering polls the engine's token every few hundred
    /// eliminations, and the stage boundaries check it too.
    pub fn plan(&self, config: &EngineConfig) -> Result<Plan, EngineError> {
        let cancel = self.cancel();
        self.validate(config)?;
        check(cancel, "plan")?;
        let mut timings = StageTimings::default();
        let source_hash = config.source_hash();
        let (pattern, generate_seconds) = match &config.source {
            ProblemSource::Prebuilt { tree } => {
                let tree = PlanTree::Prebuilt(tree.clone());
                return Ok(Plan::new(config.clone(), source_hash, None, tree, timings));
            }
            ProblemSource::Generated { kind, nodes, seed } => {
                timed_ok(|| kind.generate(*nodes, *seed))
            }
            ProblemSource::MatrixMarket { path } => timed(|| read_matrix_market(path))?,
        };
        timings.generate_seconds = generate_seconds;
        if pattern.n() == 0 {
            // An empty elimination tree has no assembly tree to schedule.
            return Err(EngineError::InvalidConfig(
                "the problem has dimension 0: there is nothing to order or factor".to_string(),
            ));
        }
        fire_fault(FaultPoint::PlanOrdering);
        check(cancel, "ordering")?;
        let (ordered, ordering_seconds) = CancelToken::with_stop(cancel, |stop| {
            timed_ok(|| {
                let perm = config.ordering.order_with_stop(&pattern, stop)?;
                let permuted = perm.apply(&pattern);
                let etree = elimination_tree(&permuted);
                let counts = column_counts(&permuted, &etree);
                Some(SymbolicData {
                    permuted,
                    etree,
                    counts,
                })
            })
        });
        timings.ordering_seconds = ordering_seconds;
        let Some(symbolic) = ordered else {
            return Err(cancelled(cancel, "ordering"));
        };
        fire_fault(FaultPoint::PlanSymbolic);
        check(cancel, "symbolic")?;
        let (assembly, symbolic_seconds) =
            timed_ok(|| amalgamate(&symbolic.etree, &symbolic.counts, config.amalgamation));
        timings.symbolic_seconds = symbolic_seconds;
        Ok(Plan::new(
            config.clone(),
            source_hash,
            Some(Arc::new(symbolic)),
            PlanTree::Assembly(Box::new(assembly)),
            timings,
        ))
    }

    /// Convenience: plan, schedule and execute `config` in one call.
    pub fn run(&self, config: &EngineConfig) -> Result<Report, EngineError> {
        self.plan(config)?.schedule(self)?.execute(self)
    }

    fn validate(&self, config: &EngineConfig) -> Result<(), EngineError> {
        config.solver.parse::<Solver>()?;
        config.policy.parse::<Policy>()?;
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
        Ok(())
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
/// and on a [`ScheduleSpec`] override at schedule time: a non-finite
/// fraction resolves to no budget and renders as a number JSON cannot hold.
fn validate_memory(memory: MemoryBudget) -> Result<(), EngineError> {
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
fn validate_execution(
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

/// Hard cap on the solve batch.  Right-hand sides arrive over the network
/// as explicit vectors or a generated count: without a cap, one request
/// asking for millions of columns allocates gigabytes before any real work
/// starts.
pub const MAX_SOLVE_RHS: usize = 4096;

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

/// The one check of a batch of right-hand sides, made at plan time and
/// again by [`FactorHandle::solve_batch`]: between 1 and [`MAX_SOLVE_RHS`]
/// of them, finite, and — once the problem dimension `n` is known — `n`
/// entries each.  Returns how many there are.
fn check_rhs(rhs: &SolveRhs, n: Option<usize>) -> Result<usize, EngineError> {
    let count = match rhs {
        SolveRhs::Generated { count, .. } => *count,
        SolveRhs::Vectors(vectors) => vectors.len(),
    };
    let invalid = |message: String| Err(EngineError::InvalidConfig(message));
    if count == 0 || count > MAX_SOLVE_RHS {
        return invalid(format!(
            "between 1 and {MAX_SOLVE_RHS} right-hand sides are supported, got {count}"
        ));
    }
    if n == Some(0) {
        return invalid("a problem of dimension 0 has nothing to solve".to_string());
    }
    if let SolveRhs::Vectors(vectors) = rhs {
        for vector in vectors {
            if let Some(n) = n.filter(|&n| n != vector.len()) {
                return invalid(format!(
                    "right-hand side length {} does not match the problem dimension {n}",
                    vector.len()
                ));
            }
            if vector.iter().any(|value| !value.is_finite()) {
                return invalid("right-hand sides must be finite numbers".to_string());
            }
        }
    }
    Ok(count)
}

/// A deterministic batch of `count` right-hand sides of dimension `n`,
/// entries in `[-1, 1)` (xorshift64*; independent of any external generator
/// so the solve stage is reproducible from the configuration alone).  The
/// stream fills right-hand side after right-hand side; each value lands at
/// its interleaved position `i · count + c`.
fn generated_rhs_batch(n: usize, count: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut batch = vec![0.0; n * count];
    for c in 0..count {
        for i in 0..n {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            batch[i * count + c] = (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
        }
    }
    batch
}

fn read_matrix_market(path: &str) -> Result<SparsePattern, EngineError> {
    let file = std::fs::File::open(path)
        .map_err(|e| MatrixMarketError::Io(format!("cannot open {path}: {e}")))?;
    Ok(read_pattern(file)?)
}

/// Typed cancellation error for `stage` (zero elapsed without a token; that
/// combination never happens in practice because only tokens cancel).
pub(crate) fn cancelled(cancel: Option<&CancelToken>, stage: &'static str) -> EngineError {
    EngineError::Cancelled {
        stage,
        elapsed: cancel.map_or(Duration::ZERO, CancelToken::elapsed),
    }
}

/// Check the token at a stage boundary.
pub(crate) fn check(cancel: Option<&CancelToken>, stage: &'static str) -> Result<(), EngineError> {
    match cancel {
        Some(token) if token.is_cancelled() => Err(cancelled(cancel, stage)),
        _ => Ok(()),
    }
}

/// Hit a [`treemem::faultinject`] point.  The pipeline stages have no
/// drop-able unit of work, so a `Drop` rule here is a no-op; `Panic` and
/// `SleepMs` act inside `fire` itself.
fn fire_fault(point: FaultPoint) {
    let _ = treemem::faultinject::fire(point);
}

/// Time a fallible stage, returning the value and the wall-clock seconds.
fn timed<T>(f: impl FnOnce() -> Result<T, EngineError>) -> Result<(T, f64), EngineError> {
    let (value, seconds) = timed_ok(f);
    Ok((value?, seconds))
}

/// Time an infallible stage.
fn timed_ok<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed().as_secs_f64())
}

struct SymbolicData {
    permuted: SparsePattern,
    etree: EliminationTree,
    counts: Vec<usize>,
}

enum PlanTree {
    Assembly(Box<AssemblyTree>),
    /// The allocation the configuration's source points at; no copy.
    Prebuilt(Arc<Tree>),
}

/// One solver's cached outcome on a plan's tree.
struct Solved {
    result: TraversalResult,
    seconds: f64,
    /// The traversal, validated once: every policy walk and bound on it
    /// shares the position map.
    walk: Walk,
    /// Divisible lower bounds by memory budget: the bound depends only on
    /// the traversal and the budget, so policy sweeps share it.
    bounds: Memo<Size, Size>,
}

/// The numeric substrate shared by every `execute` on one plan: the SPD
/// matrix, its symbolic factor structure and the paper's per-column model
/// tree, built once and cached.  `pub(crate)` so the execution pipeline
/// ([`crate::parexec`]) can borrow it for its runners.
pub(crate) struct NumericModel {
    pub(crate) matrix: sparsemat::SymmetricCsr,
    /// Shared with every factor computed on this plan.
    pub(crate) structure: Arc<SymbolicStructure>,
    pub(crate) model: Tree,
    /// Bottom-up factorization orders cached by solver name.
    orders: Memo<String, Vec<NodeId>>,
}

impl NumericModel {
    /// Approximate heap footprint in bytes (matrix, symbolic structure,
    /// per-column model tree and the cached factorization orders).
    pub(crate) fn heap_bytes(&self) -> u64 {
        let mut bytes =
            self.matrix.heap_bytes() + self.structure.heap_bytes() + self.model.heap_bytes();
        self.orders.for_each(|name, order| {
            bytes += name.len() as u64;
            bytes += (order.len() * std::mem::size_of::<NodeId>()) as u64;
        });
        bytes
    }

    /// The bottom-up factorization order of `solver` on the per-column
    /// model, computed once per solver and cached.  The solver polls the
    /// engine's token; a cancelled solve caches nothing.
    pub(crate) fn order_for(
        &self,
        engine: &Engine,
        solver: &str,
    ) -> Result<Arc<Vec<NodeId>>, EngineError> {
        self.orders.get_or_try(solver, || {
            let entry: Solver = solver.parse()?;
            if !entry.supports(&self.model) {
                return Err(EngineError::InvalidConfig(format!(
                    "solver '{solver}' does not support the {}-node per-column model",
                    self.model.len()
                )));
            }
            let cancel = engine.cancel();
            check(cancel, "numeric")?;
            let solved = entry.solve(&self.model);
            check(cancel, "numeric")?;
            Ok(solved.traversal.reversed().into_order())
        })
    }
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
    config: EngineConfig,
    /// The hash state after the configuration's `source` line: schedules
    /// and sibling plans finish it over their effective settings.
    source_hash: Fnv1a,
    config_hash: String,
    /// Shared with every [`Plan::reamalgamate`]d sibling.
    symbolic: Option<Arc<SymbolicData>>,
    tree: PlanTree,
    timings: StageTimings,
    /// Solver results (and their bounds) cached by solver name.
    solved: Memo<String, Solved>,
    /// The numeric substrate, built lazily by the first `execute` with the
    /// numeric stage enabled and shared by all later ones.
    numeric_model: Memo<(), NumericModel>,
}

impl Plan {
    fn new(
        config: EngineConfig,
        source_hash: Fnv1a,
        symbolic: Option<Arc<SymbolicData>>,
        tree: PlanTree,
        timings: StageTimings,
    ) -> Plan {
        Plan {
            config_hash: source_hash.finish(&config.settings()),
            config,
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
                bytes += assembly.tree.heap_bytes();
                let groups: usize = assembly
                    .groups
                    .iter()
                    .map(|g| g.len() * size_of::<usize>() + size_of::<Vec<usize>>())
                    .sum();
                bytes += groups as u64;
                bytes += ((assembly.eta.len() + assembly.mu.len()) * size_of::<usize>()) as u64;
            }
            PlanTree::Prebuilt(tree) => bytes += tree.heap_bytes(),
        }
        if let Some(symbolic) = &self.symbolic {
            bytes += symbolic.permuted.heap_bytes();
            bytes += (symbolic.etree.len() * size_of::<Option<usize>>()) as u64;
            bytes += (symbolic.counts.len() * size_of::<usize>()) as u64;
        }
        self.solved.for_each(|name, solved| {
            bytes += name.len() as u64;
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
        let solved = self.solved(engine, solver)?;
        Ok((solved.result.clone(), solved.seconds))
    }

    /// The shared, cached outcome of `solver` on the plan's tree — what
    /// schedules hold instead of a copy of the traversal.
    fn solved(&self, engine: &Engine, solver: &str) -> Result<Arc<Solved>, EngineError> {
        self.solved.get_or_try(solver, || {
            let entry: Solver = solver.parse()?;
            if !entry.supports(self.tree()) {
                return Err(EngineError::InvalidConfig(format!(
                    "solver '{solver}' does not support a tree of {} nodes",
                    self.tree().len()
                )));
            }
            let cancel = engine.cancel();
            fire_fault(FaultPoint::ScheduleSolver);
            check(cancel, "solver")?;
            let (result, seconds) = timed_ok(|| entry.solve(self.tree()));
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
            let matrix = spd_matrix_from_pattern(&symbolic.permuted, seed);
            let structure = Arc::new(SymbolicStructure::from_etree(
                &symbolic.permuted,
                symbolic.etree.clone(),
            ));
            let model = per_column_model(&structure);
            Ok(NumericModel {
                matrix,
                structure,
                model,
                orders: Memo::new(),
            })
        })
    }

    /// Factor one subtree task of a distributed run: the worker-process side
    /// of [`Schedule::distributed_cut`].  `order` is the task's bottom-up
    /// column order exactly as the coordinator issued it; the worker derives
    /// the same matrix and symbolic structure from the same configuration,
    /// so the produced columns and contribution blocks are bit-identical to
    /// what the single-process executor would compute for those columns.
    ///
    /// `order` arrives over the network, so it is validated (bounds,
    /// duplicates) before touching the kernel; a malformed order yields a
    /// typed error, never a panic.
    pub fn factor_subtree(
        &self,
        order: &[usize],
        cancel: Option<&CancelToken>,
    ) -> Result<SubtreeParts, EngineError> {
        let numeric = self.numeric_model()?;
        let n = numeric.matrix.n();
        let mut seen = vec![false; n];
        for &column in order {
            if column >= n {
                return Err(EngineError::InvalidConfig(format!(
                    "subtree column {column} is out of range for an n = {n} problem"
                )));
            }
            if std::mem::replace(&mut seen[column], true) {
                return Err(EngineError::InvalidConfig(format!(
                    "subtree column {column} appears twice in the task order"
                )));
            }
        }
        // Unbounded ledger: the *cluster* budget was enforced when the
        // coordinator admitted this task's claim; locally it only measures.
        let ledger = BudgetLedger::new(None);
        let ctx = TaskContext {
            numeric: &numeric,
            ledger: &ledger,
            cancel,
        };
        ctx.factor(order, ContributionStore::new(), &mut FrontArena::new())
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
        let solver = spec.solver.unwrap_or_else(|| self.config.solver.clone());
        let policy_name = spec.policy.unwrap_or_else(|| self.config.policy.clone());
        let budget_spec = spec.memory.unwrap_or(self.config.memory);
        let parallel = spec.parallel.unwrap_or(self.config.parallel);
        validate_memory(budget_spec)?;
        validate_execution(&parallel, &self.config.distributed, self.config.numeric)?;
        let policy: Policy = policy_name.parse()?;
        let solved = self.solved(engine, &solver)?;

        fire_fault(FaultPoint::ScheduleIo);
        check(cancel, "io")?;
        let tree = self.tree();
        let traversal = &solved.result.traversal;
        let memory_budget = budget_spec.resolve(tree.max_mem_req(), solved.result.peak);
        let walk = &solved.walk;
        let (simulated, io_seconds) = {
            let (result, seconds) = CancelToken::with_stop(cancel, |stop| {
                timed_ok(|| {
                    let Some(run) =
                        walk.schedule_io(tree, traversal, memory_budget, policy, stop)?
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
            (result?, seconds)
        };
        let Some((run, divisible_bound)) = simulated else {
            return Err(cancelled(cancel, "io"));
        };
        let config_hash = if overrides {
            self.source_hash.finish(&Settings {
                solver: &solver,
                policy: &policy_name,
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
            policy: policy_name,
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

/// Per-call overrides for [`Plan::schedule_with`]; unset fields fall back to
/// the plan's configuration.
#[derive(Debug, Clone, Default)]
pub struct ScheduleSpec {
    /// Solver-name override.
    pub solver: Option<String>,
    /// Policy-name override.
    pub policy: Option<String>,
    /// Memory-budget override.
    pub memory: Option<MemoryBudget>,
    /// Parallel-execution override (worker-count sweeps share one plan).
    pub parallel: Option<ParallelConfig>,
}

impl ScheduleSpec {
    /// Override the solver.
    pub fn solver(mut self, name: impl Into<String>) -> Self {
        self.solver = Some(name.into());
        self
    }

    /// Override the policy.
    pub fn policy(mut self, name: impl Into<String>) -> Self {
        self.policy = Some(name.into());
        self
    }

    /// Override the memory budget.
    pub fn memory(mut self, memory: MemoryBudget) -> Self {
        self.memory = Some(memory);
        self
    }

    /// Override the parallel execution section.
    pub fn parallel(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = Some(parallel);
        self
    }
}

/// A solver traversal plus its simulated out-of-core execution, borrowed
/// from the [`Plan`] that produced it.
pub struct Schedule<'p> {
    plan: &'p Plan,
    /// Hash of the effective configuration (plan config + spec overrides).
    config_hash: String,
    solver: String,
    policy: String,
    parallel: ParallelConfig,
    /// The solver's traversal, peak and seconds — the plan's cached entry,
    /// shared by every schedule of this solver.
    solved: Arc<Solved>,
    budget_spec: MemoryBudget,
    memory_budget: Size,
    run: OutOfCoreRun,
    divisible_bound: Size,
    io_seconds: f64,
}

impl Schedule<'_> {
    /// The plan this schedule was derived from.
    pub fn plan(&self) -> &Plan {
        self.plan
    }

    /// The FNV-1a hash of the effective configuration (the plan's
    /// configuration with any [`ScheduleSpec`] overrides applied).
    pub fn config_hash(&self) -> &str {
        &self.config_hash
    }

    /// Per-stage wall-clock seconds up to and including this schedule: the
    /// plan's stages plus the solver and I/O stages (`numeric_seconds`
    /// stays 0.0 until [`Schedule::execute`] runs the numeric stage).
    pub fn timings(&self) -> StageTimings {
        let mut timings = self.plan.timings.clone();
        timings.solver_seconds = self.solved.seconds;
        timings.io_seconds = self.io_seconds;
        timings
    }

    /// The solver that produced the traversal.
    pub fn solver(&self) -> &str {
        &self.solver
    }

    /// The eviction policy that produced the I/O schedule.
    pub fn policy(&self) -> &str {
        &self.policy
    }

    /// The traversal (top-down order, root first).
    pub fn traversal(&self) -> &Traversal {
        &self.solved.result.traversal
    }

    /// Peak memory of the traversal (the MinMemory objective).
    pub fn peak(&self) -> Size {
        self.solved.result.peak
    }

    /// The resolved absolute memory budget of the simulated execution.
    pub fn memory_budget(&self) -> Size {
        self.memory_budget
    }

    /// The simulated out-of-core run (I/O volume, eviction schedule, peak).
    pub fn io_run(&self) -> &OutOfCoreRun {
        &self.run
    }

    /// Volume written to secondary memory (the MinIO objective).
    pub fn io_volume(&self) -> Size {
        self.run.io_volume
    }

    /// The divisible-relaxation lower bound for this traversal and budget.
    pub fn divisible_bound(&self) -> Size {
        self.divisible_bound
    }

    /// Run the execution stage: fold the simulation into a [`Report`] and,
    /// when the configuration asks for it, run the numeric multifrontal
    /// factorization (solver traversal on the per-column model) and the
    /// batched solve stage, attaching their measurements.
    pub fn execute(&self, engine: &Engine) -> Result<Report, EngineError> {
        Ok(self.execute_with_factor(engine)?.0)
    }

    /// [`Schedule::execute`], additionally handing back the computed factor
    /// as a reusable [`FactorHandle`] (when the numeric stage ran) so
    /// callers — the HTTP server's factor cache above all — can serve later
    /// solves against it without re-running the factorization.
    ///
    /// The numeric stage runs in-process: on the thread pool when the
    /// schedule's `parallel` section is enabled, otherwise as the one-task
    /// cut on the caller's thread.  (A `distributed` section needs a
    /// coordinator to hand the tasks out — see
    /// [`Schedule::distributed_cut`] / [`Schedule::execute_distributed`];
    /// without one the run is sequential.)  Its column loop, inline and
    /// pooled alike, polls the engine's token every few dozen columns, so a
    /// fired deadline stops the factorization mid-flight with
    /// [`EngineError::Cancelled`].
    pub fn execute_with_factor(
        &self,
        engine: &Engine,
    ) -> Result<(Report, Option<FactorHandle>), EngineError> {
        let cancel = engine.cancel();
        if !self.plan.config.numeric {
            return self.finish(None, cancel);
        }
        fire_fault(FaultPoint::ExecuteNumeric);
        check(cancel, "numeric")?;
        let started = Instant::now();
        let numeric = self.plan.numeric_model()?;
        let order = numeric.order_for(engine, &self.solver)?;
        // Sequential execution is the one-task cut run inline.
        let (max_tasks, budget, runner) = if self.parallel.enabled() {
            let ParallelConfig {
                workers,
                max_tasks,
                budget,
            } = self.parallel;
            (max_tasks, budget, TaskRunner::Pool(workers))
        } else {
            (1, BudgetShare::Unbounded, TaskRunner::Inline)
        };
        let stage = NumericStage {
            cut: &CutPlan::compute(&numeric, &order, max_tasks, &budget),
            runner,
            started,
            cluster: None,
        };
        self.finish(Some(Numeric::Run(stage)), cancel)
    }

    /// [`Schedule::execute`] for a sequential numeric configuration whose
    /// factor is already at hand: `factor` is the handle an earlier run of
    /// this schedule's effective configuration returned, and the report is
    /// rendered from it — its numeric section is the one that run measured,
    /// and the solve stage, if configured, runs against it.  No numeric
    /// stage runs, so the report equals a fresh one except for `timings`
    /// (`numeric_seconds` is 0).
    ///
    /// Errors with [`EngineError::InvalidConfig`] unless the schedule is
    /// numeric and sequential — a parallel or distributed section holds
    /// runtime measurements no cached factor can reproduce — and `factor`
    /// came from its configuration hash.
    pub fn execute_cached(
        &self,
        engine: &Engine,
        factor: &FactorHandle,
    ) -> Result<Report, EngineError> {
        let cancel = engine.cancel();
        let config = &self.plan.config;
        if !config.numeric || self.parallel.enabled() || config.distributed.enabled() {
            return Err(EngineError::InvalidConfig(
                "only a sequential numeric run renders from a cached factor".to_string(),
            ));
        }
        if factor.config_hash != self.config_hash {
            return Err(EngineError::InvalidConfig(format!(
                "the factor of configuration {} cannot render a report of {}",
                factor.config_hash, self.config_hash
            )));
        }
        check(cancel, "numeric")?;
        Ok(self.finish(Some(Numeric::Cached(factor)), cancel)?.0)
    }

    /// The one finisher behind every `execute*`: take the numeric section
    /// from `numeric` — running its pipeline (subtree phase → merge,
    /// [`execute_cut`]) or reading a cached factor's — run the solve stage,
    /// and fold everything into the single [`Report`].  `None` is a run
    /// without the numeric stage.  Only a run hands back a new factor.
    fn finish(
        &self,
        numeric: Option<Numeric<'_>>,
        cancel: Option<&CancelToken>,
    ) -> Result<(Report, Option<FactorHandle>), EngineError> {
        let plan = self.plan;
        let mut timings = self.timings();
        let mut parallel = None;
        let mut distributed = None;
        let mut handle = None;
        let mut cached = None;
        match numeric {
            None => {}
            Some(Numeric::Cached(factor)) => cached = Some(factor),
            Some(Numeric::Run(stage)) => {
                let model = plan.numeric_model()?;
                let pool_workers = match stage.runner {
                    TaskRunner::Pool(workers) => Some(workers),
                    _ => None,
                };
                let executed = execute_cut(&model, stage.cut, stage.runner, cancel)?;
                // A distributed run spent its claim phase before `started`;
                // counting it makes every mode's numbers cover the whole stage.
                let before = stage
                    .cluster
                    .as_ref()
                    .map_or(0.0, |(_, runtime)| runtime.claim_wall_seconds);
                let stage_seconds = || before + stage.started.elapsed().as_secs_f64();
                parallel = pool_workers.map(|workers| {
                    let wall_seconds = stage_seconds();
                    let longest_task = executed.task_seconds.iter().copied().fold(0.0, f64::max);
                    let total_busy: f64 =
                        executed.worker_busy_seconds.iter().sum::<f64>() + executed.merge_seconds;
                    ParallelReport {
                        cut: stage.cut.report(),
                        workers,
                        measured_peak_entries: executed.measured_peak_entries,
                        forced_admissions: executed.forced_admissions,
                        wall_seconds,
                        critical_path_seconds: longest_task + executed.merge_seconds,
                        merge_seconds: executed.merge_seconds,
                        task_seconds: executed.task_seconds,
                        worker_busy_seconds: executed.worker_busy_seconds,
                        utilization: if wall_seconds > 0.0 {
                            total_busy / (workers.max(1) as f64 * wall_seconds)
                        } else {
                            0.0
                        },
                    }
                });
                distributed = stage.cluster.map(|(lease_ms, runtime)| DistributedReport {
                    cut: stage.cut.report(),
                    lease_ms,
                    workers: runtime.workers,
                    tasks_requeued: runtime.tasks_requeued,
                    lease_expiries: runtime.lease_expiries,
                    contribution_bytes: runtime.contribution_bytes,
                    wall_seconds: stage_seconds(),
                    merge_seconds: executed.merge_seconds,
                    worker_busy_seconds: runtime.worker_busy_seconds,
                });
                let report = NumericReport {
                    measured_peak_entries: executed.measured_peak_entries as usize,
                    model_peak_entries: stage.cut.sequential_peak,
                    factor_nnz: executed.factor.nnz(),
                    solve_error: solve_check(&model.matrix, &executed.factor),
                };
                timings.numeric_seconds = stage_seconds();
                handle = Some(FactorHandle {
                    numeric: model,
                    factor: executed.factor,
                    config_hash: self.config_hash.clone(),
                    report,
                });
            }
        }
        let factor = handle.as_ref().or(cached);

        let solve = if plan.config.solve.enabled {
            check(cancel, "solve")?;
            // Plan-time validation guarantees the numeric stage ran; the
            // error path is defensive.
            let factor = factor.ok_or_else(|| {
                EngineError::InvalidConfig("the solve stage requires the numeric stage".to_string())
            })?;
            let solve = &plan.config.solve;
            let (result, seconds) =
                timed_ok(|| factor.solve_batch(&solve.rhs, solve.check_residual));
            timings.solve_seconds = seconds;
            Some(result?.0)
        } else {
            None
        };

        let report = Report {
            config_hash: self.config_hash.clone(),
            source: plan.config.source_name(),
            ordering: plan.config.ordering.name().to_string(),
            amalgamation: plan.config.amalgamation,
            solver: self.solver.clone(),
            policy: self.policy.clone(),
            nodes: plan.tree().len(),
            matrix_n: plan.matrix_n(),
            solver_peak: self.peak(),
            memory_budget: self.memory_budget,
            budget_spec: self.budget_spec,
            io_volume: self.run.io_volume,
            read_volume: self.run.read_volume,
            files_written: self.run.files_written,
            io_peak_memory: self.run.peak_memory,
            divisible_bound: self.divisible_bound,
            traversal: self.traversal().order().to_vec(),
            numeric: factor.map(|factor| factor.report.clone()),
            solve,
            parallel,
            distributed,
            timings,
        };
        Ok((report, handle))
    }

    /// The deterministic distributed cut of this schedule: the subtree task
    /// set a coordinator hands to worker processes.  Depends only on the
    /// plan, the solver's traversal and the `distributed` configuration
    /// section — never on how many workers are attached — which is what
    /// makes the merged factor bit-identical to the single-process
    /// [`Schedule::execute`].
    ///
    /// Errors unless the configuration enables distributed execution
    /// (`distributed.tasks >= 2`) and the numeric stage.
    pub fn distributed_cut(&self, engine: &Engine) -> Result<DistributedCut, EngineError> {
        let distributed = self.plan.config.distributed;
        if !distributed.enabled() {
            return Err(EngineError::InvalidConfig(
                "the distributed cut needs distributed.tasks >= 2".to_string(),
            ));
        }
        let numeric = self.plan.numeric_model()?;
        let order = numeric.order_for(engine, &self.solver)?;
        let cut = CutPlan::compute(&numeric, &order, distributed.tasks, &distributed.budget);
        Ok(DistributedCut {
            cut,
            lease_ms: distributed.lease_ms,
            structure: numeric.structure.clone(),
        })
    }

    /// The coordinator's final phase of a distributed run — the same
    /// pipeline as [`Schedule::execute`] with the subtree phase already done
    /// by worker processes: absorb their per-task contributions (in task
    /// order), eliminate the above-cut columns sequentially, assemble the
    /// factor, run the solve stage, and fold everything into a [`Report`]
    /// whose `distributed` section carries the cut plus the supplied
    /// cluster `runtime` measurements.  `timings.numeric_seconds` covers the
    /// claim phase (`runtime.claim_wall_seconds`) as well as the merge.
    ///
    /// `contributions[t]` must be the [`SubtreeParts`] of task `t` of `cut`
    /// (the order [`DistributedCut::task_order`] reports) — merging in task
    /// order is what keeps the factor bit-identical to the single-process
    /// path.
    pub fn execute_distributed(
        &self,
        engine: &Engine,
        cut: DistributedCut,
        contributions: Vec<SubtreeParts>,
        runtime: DistributedRuntime,
    ) -> Result<(Report, Option<FactorHandle>), EngineError> {
        let cancel = engine.cancel();
        let started = Instant::now();
        check(cancel, "numeric")?;
        let stage = NumericStage {
            cut: &cut.cut,
            runner: TaskRunner::Collected(contributions),
            started,
            cluster: Some((cut.lease_ms, runtime)),
        };
        self.finish(Some(Numeric::Run(stage)), cancel)
    }
}

/// Where [`Schedule::finish`] takes a report's numeric section from.
enum Numeric<'c> {
    /// Run this numeric stage.
    Run(NumericStage<'c>),
    /// Read it from the factor an earlier sequential run handed back.
    Cached(&'c FactorHandle),
}

/// The numeric stage of one `execute*` call, as [`Schedule::finish`] takes
/// it: the cut, who runs its subtree tasks, and what only the mode's entry
/// point knows.
struct NumericStage<'c> {
    cut: &'c CutPlan,
    runner: TaskRunner,
    /// When the stage's in-process work began.
    started: Instant,
    /// Lease duration and cluster measurements of a distributed run (whose
    /// `runner` carries the collected contributions).
    cluster: Option<(u64, DistributedRuntime)>,
}

/// The deterministic coordinator-side cut of one scheduled factorization
/// into subtree tasks, obtained via [`Schedule::distributed_cut`].  The
/// per-task column orders are what travels to the workers; the static peaks
/// are what the coordinator's budget ledger gates claims on.
pub struct DistributedCut {
    cut: CutPlan,
    lease_ms: u64,
    structure: Arc<SymbolicStructure>,
}

impl DistributedCut {
    /// Number of subtree tasks the cut produced.
    pub fn task_count(&self) -> usize {
        self.cut.task_orders.len()
    }

    /// Bottom-up column order of task `task` (what a worker factors).
    pub fn task_order(&self, task: usize) -> &[usize] {
        &self.cut.task_orders[task]
    }

    /// Statically modeled peak live entries of task `task` (the claim-time
    /// budget reservation).
    pub fn task_peak_entries(&self, task: usize) -> u64 {
        self.cut.task_peaks[task]
    }

    /// Number of factor values task `task` must hand back: `Σ µ(j)` over
    /// its column order.  Contributions carry values only, so this and
    /// [`task_root_blocks`](Self::task_root_blocks) are the whole shape a
    /// coordinator checks an incoming contribution against.
    pub fn task_value_count(&self, task: usize) -> usize {
        self.cut.task_orders[task]
            .iter()
            .map(|&j| self.structure.rows(j).len())
            .sum()
    }

    /// `(column, dimension)` of every contribution block task `task` leaves
    /// for the merge phase — the columns whose parent lies outside the
    /// task — by increasing column.
    pub fn task_root_blocks(&self, task: usize) -> Vec<(usize, usize)> {
        let order = &self.cut.task_orders[task];
        let mut inside = vec![false; self.structure.n()];
        for &j in order {
            inside[j] = true;
        }
        let mut blocks: Vec<(usize, usize)> = order
            .iter()
            .filter_map(|&j| {
                let dimension = self.structure.rows(j).len() - 1;
                let parent = self.structure.etree.parent(j)?;
                (dimension > 0 && !inside[parent]).then_some((j, dimension))
            })
            .collect();
        blocks.sort_unstable();
        blocks
    }

    /// The resolved cluster budget in matrix entries (`None` = unbounded).
    pub fn budget_entries(&self) -> Option<u64> {
        self.cut.budget_entries
    }

    /// The configured lease duration per claimed task, in milliseconds.
    pub fn lease_ms(&self) -> u64 {
        self.lease_ms
    }
}

/// What one worker hands back for one subtree task: the values of the
/// task's factor columns (in task order) and the contribution blocks its
/// roots leave for the merge phase.  Row indices are not part of it — both
/// sides derive the same [`SymbolicStructure`] from the configuration.
/// Produced by [`Plan::factor_subtree`]; consumed in task order by
/// [`Schedule::execute_distributed`].  The same type every in-process
/// subtree task produces.
pub type SubtreeParts = multifrontal::SubtreeOutcome;

/// Cluster-dynamics measurements the coordinator's job machinery feeds into
/// [`Schedule::execute_distributed`]; they land in the report's
/// [`DistributedReport`] runtime fields.
#[derive(Debug, Clone, Default)]
pub struct DistributedRuntime {
    /// Distinct worker processes that claimed at least one task.
    pub workers: usize,
    /// Tasks re-issued after a lease expiry.
    pub tasks_requeued: u64,
    /// Leases that expired before a contribution arrived.
    pub lease_expiries: u64,
    /// Serialized contribution bytes received from workers.
    pub contribution_bytes: u64,
    /// Wall-clock seconds of the claim/contribute phase (the merge phase's
    /// own wall-clock is added by [`Schedule::execute_distributed`]).
    pub claim_wall_seconds: f64,
    /// Busy seconds per worker process, in first-claim order.
    pub worker_busy_seconds: Vec<f64>,
}

/// A computed Cholesky factor bundled with its problem, detached from the
/// borrowed [`Schedule`]: the unit the HTTP server caches and serves
/// `POST /solve` requests — and hot sequential reports, via
/// [`Schedule::execute_cached`] — from.  Obtained via
/// [`Schedule::execute_with_factor`].
pub struct FactorHandle {
    numeric: Arc<NumericModel>,
    factor: CholeskyFactor,
    /// The effective configuration the factor was computed for.
    config_hash: String,
    /// The numeric section of the report the factor was computed with
    /// (deterministic for a sequential run).
    report: NumericReport,
}

impl FactorHandle {
    /// The problem dimension.
    pub fn n(&self) -> usize {
        self.numeric.matrix.n()
    }

    /// Nonzeros of the factor.
    pub fn factor_nnz(&self) -> usize {
        self.factor.nnz()
    }

    /// The computed factor itself (bit-identity gates compare two handles'
    /// factors directly).
    pub fn factor(&self) -> &CholeskyFactor {
        &self.factor
    }

    /// Approximate heap footprint in bytes: the factor's values plus the
    /// shared numeric substrate, which owns the one copy of the row
    /// structure.  The factor cache charges deposits by this
    /// value, so one 10⁶-node factor weighs as much as it actually is
    /// instead of counting like one small entry.
    pub fn approx_heap_bytes(&self) -> u64 {
        self.factor.heap_bytes() + self.numeric.heap_bytes()
    }

    /// Solve `A X = B` for the right-hand sides `rhs` in one pass over the
    /// factor — the solve stage of a numeric run and every `POST /solve`.
    /// `rhs` must hold between 1 and [`MAX_SOLVE_RHS`] finite vectors of
    /// length [`FactorHandle::n`] (generated ones always do).  Returns the
    /// report, whose residual is checked when `check_residual`, and the
    /// `k` solutions *interleaved*: entry `i` of solution `c` is at
    /// `i · k + c` (for one right-hand side, the solution vector itself).
    /// Each solution and the residual are bit-identical to `k` single
    /// solves.
    pub fn solve_batch(
        &self,
        rhs: &SolveRhs,
        check_residual: bool,
    ) -> Result<(SolveReport, Vec<f64>), EngineError> {
        let n = self.n();
        let rhs_count = check_rhs(rhs, Some(n))?;
        let batch = match rhs {
            SolveRhs::Generated { seed, .. } => generated_rhs_batch(n, rhs_count, *seed),
            SolveRhs::Vectors(vectors) => {
                let mut batch = vec![0.0; n * rhs_count];
                for (c, vector) in vectors.iter().enumerate() {
                    for (i, &value) in vector.iter().enumerate() {
                        batch[i * rhs_count + c] = value;
                    }
                }
                batch
            }
        };
        let mut solutions = vec![0.0; batch.len()];
        solve_into(&self.factor, &batch, &mut solutions);
        let max_residual = check_residual.then(|| self.max_residual(&batch, &solutions, rhs_count));
        let report = SolveReport {
            rhs_count,
            max_residual,
        };
        Ok((report, solutions))
    }

    /// Largest max-norm residual `‖A x_c − b_c‖∞` over an interleaved batch
    /// of `count` solutions, in one pass over `A`: every right-hand side
    /// sees the operations of `SymmetricCsr::multiply` in the same order.
    fn max_residual(&self, rhs: &[f64], solutions: &[f64], count: usize) -> f64 {
        let matrix = &self.numeric.matrix;
        let row = |i: usize| i * count..(i + 1) * count;
        let mut product = vec![0.0; solutions.len()];
        for j in 0..matrix.n() {
            let (rows, values) = matrix.column(j);
            let xj = &solutions[row(j)];
            for (&i, &v) in rows.iter().zip(values) {
                for (y, &x) in product[row(i)].iter_mut().zip(xj) {
                    *y += v * x;
                }
                if i != j {
                    let xi = &solutions[row(i)];
                    for (y, &x) in product[row(j)].iter_mut().zip(xi) {
                        *y += v * x;
                    }
                }
            }
        }
        product
            .iter()
            .zip(rhs)
            .map(|(lhs, b)| (lhs - b).abs())
            .fold(0.0, f64::max)
    }
}

/// Validate a factorization by solving a system with a known answer,
/// returning the max-norm error of the recovered solution.
fn solve_check(matrix: &sparsemat::SymmetricCsr, factor: &CholeskyFactor) -> f64 {
    let n = matrix.n();
    let expected: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
    let rhs = matrix.multiply(&expected);
    let solution = solve(factor, &rhs);
    solution
        .iter()
        .zip(&expected)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use ordering::OrderingMethod;
    use sparsemat::gen::ProblemKind;
    use treemem::gadgets::harpoon;

    #[test]
    fn unknown_names_fail_at_plan_time() {
        let engine = Engine::new();
        let config = EngineConfig::prebuilt(harpoon(3, 300, 1)).with_solver("nope");
        match engine.plan(&config) {
            Err(EngineError::UnknownName(err)) => assert_eq!(err.kind, "solver"),
            other => panic!("expected UnknownName, got {other:?}", other = other.err()),
        }
        let config = EngineConfig::prebuilt(harpoon(3, 300, 1)).with_policy("nope");
        match engine.plan(&config) {
            Err(EngineError::UnknownName(err)) => assert_eq!(err.kind, "policy"),
            other => panic!("expected UnknownName, got {other:?}", other = other.err()),
        }
    }

    /// A 0 × 0 MatrixMarket input used to reach the amalgamation with an
    /// empty elimination tree and panic there; it is a typed plan error.
    #[test]
    fn an_empty_matrix_is_rejected_at_plan_time() {
        let path = std::env::temp_dir().join(format!("engine-empty-{}.mtx", std::process::id()));
        std::fs::write(
            &path,
            "%%MatrixMarket matrix coordinate pattern symmetric\n0 0 0\n",
        )
        .unwrap();
        let config = EngineConfig::matrix_market(path.to_string_lossy()).with_numeric(true);
        let planned = Engine::new().plan(&config);
        std::fs::remove_file(&path).unwrap();
        match planned {
            Err(EngineError::InvalidConfig(message)) => {
                assert!(message.contains("dimension 0"), "{message}")
            }
            other => panic!("expected InvalidConfig, got {:?}", other.err()),
        }
    }

    /// A declared dimension beyond the `u32` index range used to abort the
    /// process on allocation in `SparsePattern::from_edges`.
    #[test]
    fn a_huge_matrix_dimension_is_rejected_at_plan_time() {
        let path = std::env::temp_dir().join(format!("engine-huge-{}.mtx", std::process::id()));
        std::fs::write(
            &path,
            "%%MatrixMarket matrix coordinate pattern symmetric
\
             99999999999999 99999999999999 1
\
             1 1
",
        )
        .unwrap();
        let planned = Engine::new().plan(&EngineConfig::matrix_market(path.to_string_lossy()));
        std::fs::remove_file(&path).unwrap();
        assert!(
            matches!(
                planned,
                Err(EngineError::MatrixMarket(
                    MatrixMarketError::DimensionTooLarge { .. }
                ))
            ),
            "{:?}",
            planned.err()
        );
    }

    /// A path that cannot be opened is the input's fault, like a file that
    /// cannot be parsed, and the error names it.
    #[test]
    fn a_missing_matrix_file_is_a_matrix_market_error() {
        let planned = Engine::new().plan(&EngineConfig::matrix_market("/nonexistent/x.mtx"));
        match planned {
            Err(EngineError::MatrixMarket(MatrixMarketError::Io(message))) => {
                assert!(message.contains("/nonexistent/x.mtx"), "{message}")
            }
            other => panic!("expected MatrixMarket, got {:?}", other.err()),
        }
    }

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
            plan.solved.for_each(|name, _| solvers.push(name.clone()));
            solvers
        };
        let (first, _) = plan.solve(&engine, "minmem").unwrap();
        let (second, _) = plan.solve(&engine, "minmem").unwrap();
        assert_eq!(first, second);
        assert_eq!(cached(), ["minmem"]);
        plan.solve(&engine, "postorder").unwrap();
        assert_eq!(cached(), ["minmem", "postorder"]);
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

    /// A schedule's hash is finished from the plan's saved state; it must be
    /// the hash of the configuration with the overrides applied — for every
    /// source kind and every subset of overrides, including a spec that
    /// spells out the configuration's own values.
    #[test]
    fn overridden_schedules_carry_the_effective_config_hash() {
        let engine = Engine::new();
        let bases = [
            EngineConfig::generated(ProblemKind::Grid2d, 144, 3).with_numeric(true),
            EngineConfig::prebuilt(harpoon(4, 400, 1)),
            EngineConfig::generated(ProblemKind::Banded, 12, 3)
                .with_numeric(true)
                .with_solve(SolveConfig::vectors(vec![vec![1.0; 12]])),
        ];
        for base in &bases {
            let plan = engine.plan(base).unwrap();
            assert_eq!(plan.config_hash(), base.hash());
            let own_values = ScheduleSpec::default()
                .solver(base.solver.as_str())
                .policy(base.policy.as_str())
                .memory(base.memory)
                .parallel(base.parallel);
            let schedule = plan.schedule_with(&engine, own_values).unwrap();
            assert_eq!(schedule.config_hash(), base.hash());
            // Parallel execution needs the numeric stage; elsewhere the
            // override repeats the default section.
            let workers = if base.numeric { 2 } else { 0 };
            let parallel = ParallelConfig::with_workers(workers);
            let memory = MemoryBudget::FractionOfPeak(0.25);
            for subset in 0..16 {
                let (mut spec, mut effective) = (ScheduleSpec::default(), base.clone());
                if subset & 1 != 0 {
                    spec = spec.solver("postorder");
                    effective = effective.with_solver("postorder");
                }
                if subset & 2 != 0 {
                    spec = spec.policy("BestFit");
                    effective = effective.with_policy("BestFit");
                }
                if subset & 4 != 0 {
                    spec = spec.memory(memory);
                    effective = effective.with_memory(memory);
                }
                if subset & 8 != 0 {
                    spec = spec.parallel(parallel);
                    effective = effective.with_parallel(parallel);
                }
                let schedule = plan.schedule_with(&engine, spec).unwrap();
                let report = schedule.execute(&engine).unwrap();
                assert_eq!(
                    schedule.config_hash(),
                    effective.hash(),
                    "{} subset {subset:04b}",
                    base.source_name()
                );
                assert_eq!(report.config_hash, effective.hash());
                assert_eq!(schedule.config_hash() == base.hash(), effective == *base);
            }
        }
    }

    #[test]
    fn plans_and_schedules_share_instead_of_copying() {
        let engine = Engine::new();
        // A prebuilt tree is one allocation from configuration to schedule.
        let tree = Arc::new(harpoon(4, 400, 1));
        let holders = Arc::strong_count(&tree);
        {
            let config = EngineConfig::prebuilt(tree.clone());
            let plan = engine.plan(&config).unwrap();
            assert!(std::ptr::eq(plan.tree(), Arc::as_ptr(&tree)));
            let spec = || ScheduleSpec::default().solver("liu");
            let first = plan
                .schedule_with(&engine, spec().policy("BestFit"))
                .unwrap();
            let second = plan.schedule_with(&engine, spec()).unwrap();
            // Two schedules of one solver hold the plan's one traversal.
            assert!(Arc::ptr_eq(&first.solved, &second.solved));
            assert!(std::ptr::eq(first.traversal(), second.traversal()));
            assert!(Arc::strong_count(&tree) > holders);
        }
        assert_eq!(Arc::strong_count(&tree), holders);
        // A re-amalgamated sibling shares the symbolic analysis.
        let config = EngineConfig::generated(ProblemKind::Grid2d, 144, 3);
        let plan = engine.plan(&config).unwrap();
        let sibling = plan.reamalgamate(4).unwrap();
        assert!(Arc::ptr_eq(
            plan.symbolic.as_ref().unwrap(),
            sibling.symbolic.as_ref().unwrap()
        ));
        assert_eq!(plan.permuted_pattern(), sibling.permuted_pattern());
    }

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
    fn solve_stage_reports_a_green_residual() {
        let engine = Engine::new();
        let config = EngineConfig::generated(ProblemKind::Grid2d, 144, 9)
            .with_numeric(true)
            .with_solve(SolveConfig::generated(3, 42));
        let plan = engine.plan(&config).unwrap();
        let (report, handle) = plan
            .schedule(&engine)
            .unwrap()
            .execute_with_factor(&engine)
            .unwrap();
        let solve = report.solve.expect("solve stage ran");
        assert_eq!(solve.rhs_count, 3);
        let residual = solve.max_residual.expect("residual checked");
        assert!(residual.is_finite() && residual < 1e-8, "{residual}");
        assert!(report.timings.solve_seconds > 0.0);
        let handle = handle.expect("numeric stage hands back a factor");
        assert_eq!(handle.n(), report.matrix_n);
        assert!(handle.factor_nnz() > 0);
    }

    /// An interleaved batch reproduces `k` single solves bit for bit, and
    /// its one-pass residual is the largest of the `k` residuals
    /// `SymmetricCsr::multiply` gives, bit for bit — on every problem kind.
    #[test]
    fn batched_solves_match_single_solves() {
        let engine = Engine::new();
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for kind in ProblemKind::ALL {
            let config = EngineConfig::generated(kind, 120, 5).with_numeric(true);
            let plan = engine.plan(&config).unwrap();
            let (_, handle) = plan
                .schedule(&engine)
                .unwrap()
                .execute_with_factor(&engine)
                .unwrap();
            let handle = handle.unwrap();
            let n = handle.n();
            for count in [1, 2, 3, 16, 17] {
                let rhs = SolveRhs::Generated { count, seed: 77 };
                let (report, solved) = handle.solve_batch(&rhs, true).unwrap();
                assert_eq!(report.rhs_count, count);
                let batch = generated_rhs_batch(n, count, 77);
                let mut worst = 0.0f64;
                for c in 0..count {
                    let label = format!("{kind:?} k={count} rhs {c}");
                    let column: Vec<f64> = (0..n).map(|i| batch[i * count + c]).collect();
                    let single = SolveRhs::Vectors(vec![column.clone()]);
                    let (single_report, single) = handle.solve_batch(&single, true).unwrap();
                    let strided: Vec<f64> = (0..n).map(|i| solved[i * count + c]).collect();
                    assert_eq!(bits(&single), bits(&strided), "{label}");
                    let residual = handle
                        .numeric
                        .matrix
                        .multiply(&single)
                        .iter()
                        .zip(&column)
                        .map(|(lhs, b)| (lhs - b).abs())
                        .fold(0.0, f64::max);
                    let single_residual = single_report.max_residual.unwrap();
                    assert_eq!(single_residual.to_bits(), residual.to_bits(), "{label}");
                    worst = worst.max(residual);
                }
                let batched = report.max_residual.unwrap();
                assert_eq!(batched.to_bits(), worst.to_bits(), "{kind:?} k={count}");
                assert!(batched < 1e-10, "{kind:?} k={count}: {batched:e}");
            }
            let (report, _) = handle
                .solve_batch(&SolveRhs::Generated { count: 3, seed: 1 }, false)
                .unwrap();
            assert_eq!(report.max_residual, None);
        }
    }

    #[test]
    fn a_cached_factor_renders_the_report_a_run_would() {
        let engine = Engine::new();
        let config = EngineConfig::generated(ProblemKind::Grid2d, 144, 9)
            .with_numeric(true)
            .with_solve(SolveConfig::generated(3, 42));
        let plan = engine.plan(&config).unwrap();
        let schedule = plan.schedule(&engine).unwrap();
        let (fresh, handle) = schedule.execute_with_factor(&engine).unwrap();
        let handle = handle.unwrap();
        let cached = schedule.execute_cached(&engine, &handle).unwrap();
        assert_eq!(cached.config_hash, fresh.config_hash);
        assert_eq!(cached.fingerprint(), fresh.fingerprint());
        assert_eq!(cached.timings.numeric_seconds, 0.0, "no numeric stage ran");
        assert!(cached.timings.solve_seconds > 0.0, "the solve stage did");
        // An expired deadline still cancels.
        let token = crate::cancel::CancelToken::new();
        token.cancel();
        match schedule.execute_cached(&engine.with_cancel(token), &handle) {
            Err(EngineError::Cancelled { stage, .. }) => assert_eq!(stage, "numeric"),
            other => panic!("expected Cancelled, got {:?}", other.err()),
        }
        // Runtime sections and another configuration's factor are refused.
        let parallel = plan
            .schedule_with(
                &engine,
                ScheduleSpec::default().parallel(ParallelConfig::with_workers(2)),
            )
            .unwrap();
        let other = engine
            .plan(&config.clone().with_solve(SolveConfig::generated(2, 1)))
            .unwrap();
        for refused in [parallel, other.schedule(&engine).unwrap()] {
            assert!(matches!(
                refused.execute_cached(&engine, &handle),
                Err(EngineError::InvalidConfig(_))
            ));
        }
    }

    /// The generated stream fills right-hand side after right-hand side,
    /// so a vector's values do not depend on the batch layout.
    #[test]
    fn generated_right_hand_sides_are_the_column_stream_interleaved() {
        let (n, count) = (7, 3);
        let column_major: Vec<f64> = {
            let mut state = 11u64.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            (0..n * count)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
                })
                .collect()
        };
        let interleaved = generated_rhs_batch(n, count, 11);
        for c in 0..count {
            for i in 0..n {
                assert_eq!(interleaved[i * count + c], column_major[c * n + i]);
            }
        }
    }

    #[test]
    fn explicit_right_hand_sides_round_through_the_solve_stage() {
        let engine = Engine::new();
        let base = EngineConfig::generated(ProblemKind::Banded, 12, 3).with_numeric(true);
        let vectors = vec![vec![1.0; 12], (0..12).map(|i| i as f64 - 6.0).collect()];
        let config = base
            .clone()
            .with_solve(SolveConfig::vectors(vectors.clone()));
        let plan = engine.plan(&config).unwrap();
        let report = plan.schedule(&engine).unwrap().execute(&engine).unwrap();
        let solve = report.solve.unwrap();
        assert_eq!(solve.rhs_count, 2);
        assert!(solve.max_residual.unwrap() < 1e-10);
        // A wrong-length vector passes plan-time validation (lengths are
        // only known once the matrix exists) but fails at execute time.
        let config = base.with_solve(SolveConfig::vectors(vec![vec![1.0; 5]]));
        let plan = engine.plan(&config).unwrap();
        assert!(matches!(
            plan.schedule(&engine).unwrap().execute(&engine),
            Err(EngineError::InvalidConfig(_))
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

    #[test]
    fn factor_handles_validate_caller_batches() {
        let engine = Engine::new();
        let config = EngineConfig::generated(ProblemKind::Banded, 10, 2).with_numeric(true);
        let plan = engine.plan(&config).unwrap();
        let (_, handle) = plan
            .schedule(&engine)
            .unwrap()
            .execute_with_factor(&engine)
            .unwrap();
        let handle = handle.unwrap();
        for bad in [
            SolveRhs::Vectors(vec![]),
            SolveRhs::Vectors(vec![vec![1.0; 7]]),
            SolveRhs::Vectors(vec![vec![1.0; 10], vec![f64::INFINITY; 10]]),
            SolveRhs::Vectors(vec![vec![0.5; 10]; MAX_SOLVE_RHS + 1]),
            SolveRhs::Generated { count: 0, seed: 1 },
            SolveRhs::Generated {
                count: MAX_SOLVE_RHS + 1,
                seed: 1,
            },
        ] {
            assert!(
                matches!(
                    handle.solve_batch(&bad, true),
                    Err(EngineError::InvalidConfig(_))
                ),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn an_expired_deadline_cancels_planning_before_work_starts() {
        let engine = Engine::new();
        let config = EngineConfig::generated(ProblemKind::Grid2d, 2500, 1)
            .with_ordering(OrderingMethod::NestedDissection);
        let token = crate::cancel::CancelToken::with_deadline(Duration::ZERO);
        match engine.with_cancel(token).plan(&config) {
            Err(EngineError::Cancelled { stage, .. }) => assert_eq!(stage, "plan"),
            other => panic!("expected Cancelled, got {:?}", other.err()),
        }
        // Without a token the same config plans fine.
        assert!(engine.plan(&config).is_ok());
    }

    #[test]
    fn a_fired_token_cancels_the_schedule_and_execute_stages() {
        let engine = Engine::new();
        let config = EngineConfig::generated(ProblemKind::Grid2d, 400, 3).with_numeric(true);
        let plan = engine.plan(&config).unwrap();
        let token = crate::cancel::CancelToken::new();
        token.cancel();
        let cancelled = engine.with_cancel(token);
        match plan.schedule_with(&cancelled, ScheduleSpec::default()) {
            Err(EngineError::Cancelled { stage, elapsed }) => {
                assert_eq!(stage, "solver");
                assert!(elapsed >= Duration::ZERO);
            }
            other => panic!("expected Cancelled, got {:?}", other.err()),
        }
        // A schedule produced without a token still cancels at execute time.
        let schedule = plan.schedule(&engine).unwrap();
        match schedule.execute_with_factor(&cancelled) {
            Err(EngineError::Cancelled { stage, .. }) => assert_eq!(stage, "numeric"),
            other => panic!("expected Cancelled, got {:?}", other.err()),
        }
        // The plan is unpoisoned: a token-free execute completes.
        assert!(schedule.execute(&engine).is_ok());
    }

    /// The per-column model solve inside every cold `execute*` polls the
    /// engine's token, and a cancelled solve leaves no cached order behind.
    #[test]
    fn a_fired_token_cancels_the_per_column_model_solve() {
        let engine = Engine::new();
        let config = EngineConfig::generated(ProblemKind::Grid2d, 400, 3).with_numeric(true);
        let plan = engine.plan(&config).unwrap();
        let numeric = plan.numeric_model().unwrap();
        let token = crate::cancel::CancelToken::new();
        token.cancel();
        match numeric.order_for(&engine.with_cancel(token), "minmem") {
            Err(EngineError::Cancelled { stage, .. }) => assert_eq!(stage, "numeric"),
            other => panic!("expected Cancelled, got {:?}", other.err()),
        }
        let mut cached = 0;
        numeric.orders.for_each(|_, _| cached += 1);
        assert_eq!(cached, 0, "a cancelled solve caches nothing");
        let order = numeric.order_for(&engine, "minmem").unwrap();
        assert_eq!(order.len(), numeric.model.len());
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
    fn every_accepted_memory_override_renders_a_parseable_report() {
        let engine = Engine::new();
        for kind in ProblemKind::ALL {
            for numeric in [false, true] {
                let config = EngineConfig::generated(kind, 64, 3).with_numeric(numeric);
                let plan = engine.plan(&config).unwrap();
                let overrides = [
                    MemoryBudget::FractionOfPeak(0.0),
                    MemoryBudget::FractionOfPeak(0.5),
                    MemoryBudget::FractionOfPeak(1.0),
                    MemoryBudget::FractionOfPeak(-0.5),
                    MemoryBudget::FractionOfPeak(2.0),
                    MemoryBudget::Absolute(plan.tree().max_mem_req()),
                    MemoryBudget::Unlimited,
                ];
                for memory in overrides {
                    let report = plan
                        .schedule_with(&engine, ScheduleSpec::default().memory(memory))
                        .unwrap()
                        .execute(&engine)
                        .unwrap();
                    let json = report.to_json();
                    assert!(
                        crate::json::Json::parse(&json).is_ok(),
                        "{kind:?} numeric={numeric} {memory:?}: {json}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_execution_honors_cancellation() {
        let engine = Engine::new();
        let config = EngineConfig::generated(ProblemKind::Grid2d, 900, 7)
            .with_numeric(true)
            .with_parallel(crate::config::ParallelConfig::with_workers(2));
        let plan = engine.plan(&config).unwrap();
        let schedule = plan.schedule(&engine).unwrap();
        let token = crate::cancel::CancelToken::new();
        token.cancel();
        match schedule.execute_with_factor(&engine.with_cancel(token)) {
            Err(EngineError::Cancelled { stage, .. }) => assert_eq!(stage, "numeric"),
            other => panic!("expected Cancelled, got {:?}", other.err()),
        }
        // And the same schedule still completes without a token, with the
        // budget ledger drained (a wedged gate would hang this call).
        assert!(schedule.execute(&engine).is_ok());
    }

    #[test]
    fn distributed_merge_is_bit_identical_to_the_single_process_factor() {
        let engine = Engine::new();
        let base = EngineConfig::generated(ProblemKind::Grid2d, 900, 13)
            .with_ordering(OrderingMethod::NestedDissection)
            .with_numeric(true)
            .with_solve(SolveConfig::generated(2, 5));
        // Reference: the plain single-process execution.
        let reference_plan = engine.plan(&base).unwrap();
        let (reference_report, reference_handle) = reference_plan
            .schedule(&engine)
            .unwrap()
            .execute_with_factor(&engine)
            .unwrap();
        let reference_handle = reference_handle.unwrap();
        // Distributed: cut, factor every task independently (as worker
        // processes would), merge.  Different task counts simulate different
        // cluster shapes; every one must reproduce the factor bit for bit.
        for tasks in [2, 5, 16] {
            let config = base
                .clone()
                .with_distributed(crate::config::DistributedConfig::with_tasks(tasks));
            let plan = engine.plan(&config).unwrap();
            let schedule = plan.schedule(&engine).unwrap();
            let cut = schedule.distributed_cut(&engine).unwrap();
            assert!(cut.task_count() >= 1 && cut.task_count() <= tasks);
            let contributions: Vec<SubtreeParts> = (0..cut.task_count())
                .map(|task| plan.factor_subtree(cut.task_order(task), None).unwrap())
                .collect();
            // The shape a coordinator checks contributions against is the
            // shape honest workers produce.
            for (task, parts) in contributions.iter().enumerate() {
                assert_eq!(parts.values.len(), cut.task_value_count(task));
                let blocks: Vec<(usize, usize)> = parts
                    .blocks
                    .iter()
                    .map(|(column, block)| (column, block.n()))
                    .collect();
                assert_eq!(blocks, cut.task_root_blocks(task));
            }
            let (report, handle) = schedule
                .execute_distributed(&engine, cut, contributions, DistributedRuntime::default())
                .unwrap();
            let handle = handle.unwrap();
            // The merged factor shares the plan's one structure...
            assert!(Arc::ptr_eq(
                &handle.factor().structure,
                &plan.numeric_model().unwrap().structure
            ));
            // ...which is the reference plan's, rebuilt.
            assert_eq!(
                handle.factor().structure.column_counts(),
                reference_handle.factor().structure.column_counts(),
                "structure must match at {tasks} tasks"
            );
            assert_eq!(
                handle.factor().values,
                reference_handle.factor().values,
                "values must be bit-identical at {tasks} tasks"
            );
            let distributed = report.distributed.as_ref().expect("distributed section");
            assert_eq!(distributed.cut.max_tasks, tasks);
            // The deterministic outcome (factor size, solve residual) matches
            // the reference run's too.
            assert_eq!(
                report.numeric.as_ref().unwrap().factor_nnz,
                reference_report.numeric.as_ref().unwrap().factor_nnz
            );
            assert_eq!(
                report.solve.as_ref().unwrap().max_residual,
                reference_report.solve.as_ref().unwrap().max_residual,
                "seeded solve through a bit-identical factor is bit-identical"
            );
        }
    }

    #[test]
    fn factor_handles_of_one_plan_share_one_structure() {
        let engine = Engine::new();
        let config = EngineConfig::generated(ProblemKind::Grid2d, 400, 5).with_numeric(true);
        let plan = engine.plan(&config).unwrap();
        let schedule = plan.schedule(&engine).unwrap();
        let (_, first) = schedule.execute_with_factor(&engine).unwrap();
        let (_, second) = schedule.execute_with_factor(&engine).unwrap();
        let (first, second) = (first.unwrap(), second.unwrap());
        let structure = &plan.numeric_model().unwrap().structure;
        assert!(Arc::ptr_eq(&first.factor().structure, structure));
        assert!(Arc::ptr_eq(&second.factor().structure, structure));
        assert_eq!(first.factor().values, second.factor().values);
        // A handle weighs its own values plus the substrate, whose row
        // structure is counted once however many factors point at it.
        let substrate = plan.numeric_model().unwrap().heap_bytes();
        assert!(substrate >= structure.heap_bytes());
        assert_eq!(
            first.approx_heap_bytes(),
            8 * first.factor_nnz() as u64 + substrate
        );
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

    #[test]
    fn absolute_budgets_below_memreq_are_reported() {
        let engine = Engine::new();
        let tree = harpoon(3, 300, 1);
        let too_small = tree.max_mem_req() - 1;
        let config = EngineConfig::prebuilt(tree).with_memory(MemoryBudget::Absolute(too_small));
        let plan = engine.plan(&config).unwrap();
        assert!(matches!(
            plan.schedule(&engine),
            Err(EngineError::MinIo(MinIoError::InsufficientMemory { .. }))
        ));
    }
}
