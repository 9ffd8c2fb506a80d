//! The serializable problem description the engine plans from.
//!
//! An [`EngineConfig`] names everything the pipeline needs — where the
//! problem comes from, how it is ordered and amalgamated, which MinMemory
//! solver and eviction policy to use, and how much main memory the simulated
//! execution gets — and round-trips through JSON
//! ([`EngineConfig::to_json`] / [`EngineConfig::from_json`]), so whole
//! experiment grids can be stored, shipped to a server, or replayed later.
//!
//! # One renderer, any sink
//!
//! The `engine_config/v1` document is written by one
//! [`json::Writer`](crate::json::Writer) over any [`std::fmt::Write`], in
//! two parts: the head up to the `source` line
//! (`render_source` — the only part that can be large) and the settings
//! tail (`Settings::render`).  [`EngineConfig::to_json`] points it at a
//! `String`; [`EngineConfig::hash`] points it at `Fnv1a`, a running FNV-1a
//! state that is itself a sink, so hashing allocates nothing.  Because the
//! state is a `Copy` value, a [`Plan`](crate::Plan) keeps the one reached
//! after the `source` line and finishes it over whatever settings a
//! schedule or a re-amalgamated sibling actually ran with: naming an
//! effective configuration never clones a config or revisits a tree.
//!
//! # Byte stability
//!
//! Every byte of the document is a contract — the hash is over them, and
//! plan caches, factor caches, report provenance and distributed task
//! frames key on the hash.  `tests::rendered_bytes_and_hashes_are_stable`
//! pins literal documents and hashes for one configuration of every shape;
//! `run::tests::overridden_schedules_carry_the_effective_config_hash` pins
//! the finished-from-saved-state hashes to [`EngineConfig::hash`] of the
//! effective configuration.

use std::fmt::{self, Write};
use std::sync::Arc;

use ordering::OrderingMethod;
use sparsemat::gen::ProblemKind;
use treemem::tree::Size;
use treemem::Tree;

use crate::json::{Array, FieldError, Fields, Json, JsonError, Writer};

/// Where the problem comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum ProblemSource {
    /// A synthetic matrix from one of the [`ProblemKind`] generators.
    Generated {
        /// The generator.
        kind: ProblemKind,
        /// Target number of unknowns.
        nodes: usize,
        /// Generator seed.
        seed: u64,
    },
    /// A MatrixMarket coordinate file on disk.
    MatrixMarket {
        /// Path to the `.mtx` file.
        path: String,
    },
    /// A prebuilt weighted tree: the ordering/symbolic stages are skipped and
    /// the traversal stages run directly on it (used for gadget trees and
    /// re-weighted corpora).
    Prebuilt {
        /// The tree, shared: cloning the configuration, planning it and
        /// scheduling on the plan all point at this one allocation.
        tree: Arc<Tree>,
    },
}

/// The main-memory budget of the out-of-core stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MemoryBudget {
    /// Enough memory for the chosen traversal: no I/O is ever needed.
    Unlimited,
    /// An absolute budget, in the tree's file-size units.
    Absolute(Size),
    /// A fraction of the way from the hardest feasible budget (the largest
    /// single-node requirement, at `0.0`) to the chosen traversal's peak
    /// (at `1.0`, where no I/O is needed) — the same convention as the
    /// sweep engine's memory fractions.
    FractionOfPeak(f64),
}

impl Fields for MemoryBudget {
    fn fields(&self, budget: &mut Writer<'_>) {
        // An `f64` value is the shortest text that parses back to the same
        // value, so the round-trip is exact.
        match self {
            MemoryBudget::Unlimited => {
                budget.field("type", "unlimited");
            }
            MemoryBudget::Absolute(size) => {
                budget.field("type", "absolute").field("value", *size);
            }
            MemoryBudget::FractionOfPeak(fraction) => {
                budget.field("type", "fraction").field("value", *fraction);
            }
        }
    }
}

impl MemoryBudget {
    /// Resolve the budget to an absolute memory size, given the hardest
    /// feasible budget `lower` (the largest single-node requirement) and the
    /// chosen traversal's `peak`.  This is the single definition of the
    /// fraction convention; the sweep helpers delegate to it.
    pub fn resolve(&self, lower: Size, peak: Size) -> Size {
        match *self {
            MemoryBudget::Unlimited => peak,
            MemoryBudget::Absolute(size) => size,
            MemoryBudget::FractionOfPeak(fraction) => {
                let f = fraction.clamp(0.0, 1.0);
                lower + (((peak - lower) as f64) * f).round() as Size
            }
        }
    }
}

/// How the parallel execution layer shares memory between concurrent
/// subtree tasks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BudgetShare {
    /// No shared budget: tasks are admitted as soon as a worker is free.
    Unbounded,
    /// The budget is this multiple of the *sequential* model peak of the
    /// chosen traversal (the MinMemory bound), in matrix entries.
    MultipleOfSequentialPeak(f64),
    /// An absolute budget in matrix entries.
    Entries(u64),
}

impl BudgetShare {
    /// Resolve the budget to absolute matrix entries, given the sequential
    /// model peak of the chosen traversal.
    pub fn resolve(&self, sequential_peak_entries: u64) -> Option<u64> {
        match *self {
            BudgetShare::Unbounded => None,
            BudgetShare::MultipleOfSequentialPeak(multiple) => {
                Some((sequential_peak_entries as f64 * multiple).ceil() as u64)
            }
            BudgetShare::Entries(entries) => Some(entries),
        }
    }

    /// `value` is the path of the section's `value` field.
    fn from_json(json: &Json, value: &'static str) -> Result<BudgetShare, ConfigParseError> {
        Ok(match json.get("type").and_then(Json::as_str) {
            Some("unbounded") => BudgetShare::Unbounded,
            Some("multiple") => BudgetShare::MultipleOfSequentialPeak(json.field(value)?),
            Some("entries") => BudgetShare::Entries(json.field(value)?),
            other => {
                return Err(invalid(format!("unknown budget type {other:?} in {value}")));
            }
        })
    }
}

impl Fields for BudgetShare {
    fn fields(&self, budget: &mut Writer<'_>) {
        // A non-finite multiple renders as `null`: the parser then reports
        // the mistyped value, and plan-time validation rejects the multiple
        // anyway.
        match self {
            BudgetShare::Unbounded => {
                budget.field("type", "unbounded");
            }
            BudgetShare::MultipleOfSequentialPeak(multiple) => {
                budget.field("type", "multiple").field("value", *multiple);
            }
            BudgetShare::Entries(entries) => {
                budget.field("type", "entries").field("value", *entries);
            }
        }
    }
}

/// The parallel execution section of an [`EngineConfig`]: worker count, cut
/// granularity and budget-sharing mode for the numeric multifrontal stage.
///
/// `workers == 0` (the default) keeps the numeric stage sequential.  With
/// `workers >= 1` the per-column tree is cut into at most `max_tasks`
/// balanced subtrees (`treemem::partition::proportional_cut`) that are
/// factored concurrently under the shared budget, followed by a sequential
/// merge phase above the cut.  The cut depends on `max_tasks` but *not* on
/// `workers`, so reports are bit-identical (modulo timings and runtime
/// memory measurements) across worker counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParallelConfig {
    /// Worker threads for the numeric stage (0 = sequential execution).
    pub workers: usize,
    /// Maximum number of subtree tasks the cut may produce.
    pub max_tasks: usize,
    /// Budget-sharing mode of the concurrent tasks.
    pub budget: BudgetShare,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            workers: 0,
            max_tasks: 64,
            budget: BudgetShare::Unbounded,
        }
    }
}

impl ParallelConfig {
    /// A parallel section with `workers` workers and default cut/budget.
    pub fn with_workers(workers: usize) -> Self {
        ParallelConfig {
            workers,
            ..ParallelConfig::default()
        }
    }

    /// Set the cut granularity.
    pub fn with_max_tasks(mut self, max_tasks: usize) -> Self {
        self.max_tasks = max_tasks;
        self
    }

    /// Set the budget-sharing mode.
    pub fn with_budget(mut self, budget: BudgetShare) -> Self {
        self.budget = budget;
        self
    }

    /// Whether the parallel execution layer is active.
    pub fn enabled(&self) -> bool {
        self.workers >= 1
    }

    fn from_json(json: &Json) -> Result<ParallelConfig, ConfigParseError> {
        let budget = json.field("parallel.budget")?;
        Ok(ParallelConfig {
            workers: json.field("parallel.workers")?,
            max_tasks: json.field("parallel.max_tasks")?,
            budget: BudgetShare::from_json(budget, "parallel.budget.value")?,
        })
    }
}

/// The distributed execution section of an [`EngineConfig`]: how many
/// subtree tasks one factorization is sharded into across worker
/// *processes*, the cluster-level memory budget their admissions share, and
/// the lease under which the coordinator hands a task out.
///
/// `tasks == 0` (the default) keeps execution in-process.  With
/// `tasks >= 2` a coordinator `serve` process plans the problem, cuts the
/// per-column tree into at most `tasks` balanced subtrees, and hands them to
/// worker processes over the internal claim/contribute endpoints; the
/// coordinator then merges the above-cut columns in tree order, so the
/// factor is bit-identical to the single-process path.  Like the in-process
/// cut, the task set depends only on the plan and `tasks` — never on how
/// many worker processes happen to be attached.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistributedConfig {
    /// Maximum number of subtree tasks to shard into (0 = not distributed).
    pub tasks: usize,
    /// Cluster-level budget the coordinator's ledger admits tasks under.
    pub budget: BudgetShare,
    /// Lease duration per claimed task, in milliseconds (monotonic clock):
    /// a worker that neither contributes nor extends within the lease is
    /// presumed dead and its task is re-issued.
    pub lease_ms: u64,
}

impl Default for DistributedConfig {
    fn default() -> Self {
        DistributedConfig {
            tasks: 0,
            budget: BudgetShare::Unbounded,
            lease_ms: 30_000,
        }
    }
}

impl DistributedConfig {
    /// A distributed section sharding into at most `tasks` subtree tasks,
    /// with an unbounded budget and the default 30 s lease.
    pub fn with_tasks(tasks: usize) -> Self {
        DistributedConfig {
            tasks,
            ..DistributedConfig::default()
        }
    }

    /// Set the cluster-level budget-sharing mode.
    pub fn with_budget(mut self, budget: BudgetShare) -> Self {
        self.budget = budget;
        self
    }

    /// Set the task lease duration in milliseconds.
    pub fn with_lease_ms(mut self, lease_ms: u64) -> Self {
        self.lease_ms = lease_ms;
        self
    }

    /// Whether distributed execution is requested (sharding needs at least
    /// two tasks to mean anything).
    pub fn enabled(&self) -> bool {
        self.tasks >= 2
    }

    fn from_json(json: &Json) -> Result<DistributedConfig, ConfigParseError> {
        let budget = json.field("distributed.budget")?;
        Ok(DistributedConfig {
            tasks: json.field("distributed.tasks")?,
            budget: BudgetShare::from_json(budget, "distributed.budget.value")?,
            lease_ms: json.field("distributed.lease_ms")?,
        })
    }
}

/// Where the right-hand sides of the solve stage come from.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveRhs {
    /// `count` deterministic pseudo-random right-hand sides derived from
    /// `seed` (entries in `[-1, 1)`), generated after the factorization so
    /// the problem dimension is known.
    Generated {
        /// Number of right-hand sides.
        count: usize,
        /// Generator seed.
        seed: u64,
    },
    /// Explicit right-hand-side vectors, each of the problem dimension.
    Vectors(Vec<Vec<f64>>),
}

/// The solve section of an [`EngineConfig`]: whether `execute` follows the
/// numeric factorization with forward/backward substitution, what
/// right-hand sides it solves, and whether the residual is checked.
///
/// Solving requires the numeric stage (`numeric: true`); the batch is
/// solved interleaved through [`multifrontal::solve_into`], so a
/// `k`-vector batch costs one pass over the factor, not `k`.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveConfig {
    /// Whether the solve stage runs at all.
    pub enabled: bool,
    /// The right-hand sides.
    pub rhs: SolveRhs,
    /// Whether to compute the max-norm residual `‖Ax − b‖∞` per right-hand
    /// side (one symmetric multiply pass over `A` for the whole batch).
    pub check_residual: bool,
}

impl Default for SolveConfig {
    fn default() -> Self {
        SolveConfig {
            enabled: false,
            rhs: SolveRhs::Generated { count: 1, seed: 1 },
            check_residual: true,
        }
    }
}

impl SolveConfig {
    /// An enabled solve section with `count` generated right-hand sides.
    pub fn generated(count: usize, seed: u64) -> Self {
        SolveConfig {
            enabled: true,
            rhs: SolveRhs::Generated { count, seed },
            check_residual: true,
        }
    }

    /// An enabled solve section with explicit right-hand sides.
    pub fn vectors(vectors: Vec<Vec<f64>>) -> Self {
        SolveConfig {
            enabled: true,
            rhs: SolveRhs::Vectors(vectors),
            check_residual: true,
        }
    }

    /// Enable or disable the residual check.
    pub fn with_check(mut self, check_residual: bool) -> Self {
        self.check_residual = check_residual;
        self
    }

    fn from_json(json: &Json) -> Result<SolveConfig, ConfigParseError> {
        let rhs: &Json = json.field("solve.rhs")?;
        let rhs = match rhs.get("type").and_then(Json::as_str) {
            Some("generated") => SolveRhs::Generated {
                count: rhs.field("solve.rhs.count")?,
                seed: rhs.field("solve.rhs.seed")?,
            },
            Some("vectors") => {
                let values: &[Json] = rhs.field("solve.rhs.values")?;
                let vectors: Result<Vec<Vec<f64>>, ConfigParseError> = values
                    .iter()
                    .map(|vector| {
                        vector
                            .as_array()
                            .ok_or(ConfigParseError::MissingField("solve.rhs.values"))?
                            .iter()
                            .map(|v| {
                                v.as_f64()
                                    .ok_or_else(|| invalid("non-numeric RHS entry".to_string()))
                            })
                            .collect()
                    })
                    .collect();
                SolveRhs::Vectors(vectors?)
            }
            other => {
                return Err(invalid(format!("unknown solve rhs type {other:?}")));
            }
        };
        Ok(SolveConfig {
            enabled: json.field("solve.enabled")?,
            rhs,
            check_residual: json.field("solve.check_residual")?,
        })
    }
}

/// A full problem description; see the module docs.
///
/// ```
/// use engine::{EngineConfig, MemoryBudget};
/// use sparsemat::gen::ProblemKind;
///
/// let config = EngineConfig::generated(ProblemKind::Grid2d, 400, 42)
///     .with_solver("minmem")
///     .with_policy("FirstFit")
///     .with_memory(MemoryBudget::FractionOfPeak(0.5));
/// // The configuration round-trips through JSON bit-for-bit.
/// let parsed = EngineConfig::from_json(&config.to_json()).unwrap();
/// assert_eq!(parsed, config);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// The problem source.
    pub source: ProblemSource,
    /// Fill-reducing ordering (ignored for [`ProblemSource::Prebuilt`]).
    pub ordering: OrderingMethod,
    /// Relaxed-amalgamation allowance (ignored for prebuilt trees).
    pub amalgamation: usize,
    /// MinMemory solver name (parsed as a `treemem::Solver`).
    pub solver: String,
    /// Eviction policy name (parsed as a `minio::Policy`).
    pub policy: String,
    /// Main-memory budget of the out-of-core stage.
    pub memory: MemoryBudget,
    /// Whether `execute` also runs the numeric multifrontal factorization
    /// (requires a matrix source).
    pub numeric: bool,
    /// The solve stage (off by default; requires `numeric`).
    pub solve: SolveConfig,
    /// Parallel execution of the numeric stage (off by default).
    pub parallel: ParallelConfig,
    /// Distributed (multi-process) execution of the numeric stage (off by
    /// default).
    pub distributed: DistributedConfig,
}

impl EngineConfig {
    /// A configuration for a generated problem, with default ordering
    /// (minimum degree), no amalgamation, the `minmem` solver, the `LSNF`
    /// policy, unlimited memory and no numeric run.
    pub fn generated(kind: ProblemKind, nodes: usize, seed: u64) -> Self {
        Self::with_source(ProblemSource::Generated { kind, nodes, seed })
    }

    /// A configuration reading a MatrixMarket file; defaults as in
    /// [`EngineConfig::generated`].
    pub fn matrix_market(path: impl Into<String>) -> Self {
        Self::with_source(ProblemSource::MatrixMarket { path: path.into() })
    }

    /// A configuration for a prebuilt tree; defaults as in
    /// [`EngineConfig::generated`].
    pub fn prebuilt(tree: impl Into<Arc<Tree>>) -> Self {
        Self::with_source(ProblemSource::Prebuilt { tree: tree.into() })
    }

    fn with_source(source: ProblemSource) -> Self {
        EngineConfig {
            source,
            ordering: OrderingMethod::MinimumDegree,
            amalgamation: 1,
            solver: "minmem".to_string(),
            policy: "LSNF".to_string(),
            memory: MemoryBudget::Unlimited,
            numeric: false,
            solve: SolveConfig::default(),
            parallel: ParallelConfig::default(),
            distributed: DistributedConfig::default(),
        }
    }

    /// Set the ordering method.
    pub fn with_ordering(mut self, ordering: OrderingMethod) -> Self {
        self.ordering = ordering;
        self
    }

    /// Set the relaxed-amalgamation allowance.
    pub fn with_amalgamation(mut self, amalgamation: usize) -> Self {
        self.amalgamation = amalgamation;
        self
    }

    /// Set the solver name.
    pub fn with_solver(mut self, solver: impl Into<String>) -> Self {
        self.solver = solver.into();
        self
    }

    /// Set the eviction policy name.
    pub fn with_policy(mut self, policy: impl Into<String>) -> Self {
        self.policy = policy.into();
        self
    }

    /// Set the memory budget.
    pub fn with_memory(mut self, memory: MemoryBudget) -> Self {
        self.memory = memory;
        self
    }

    /// Enable or disable the numeric factorization stage.
    pub fn with_numeric(mut self, numeric: bool) -> Self {
        self.numeric = numeric;
        self
    }

    /// Set the solve section (solving additionally requires the numeric
    /// stage).
    pub fn with_solve(mut self, solve: SolveConfig) -> Self {
        self.solve = solve;
        self
    }

    /// Set the parallel execution section (implies nothing about `numeric`;
    /// parallel execution additionally requires the numeric stage).
    pub fn with_parallel(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = parallel;
        self
    }

    /// Set the distributed execution section (distributed execution
    /// additionally requires the numeric stage).
    pub fn with_distributed(mut self, distributed: DistributedConfig) -> Self {
        self.distributed = distributed;
        self
    }

    /// A short human-readable name of the problem source, used in reports.
    pub fn source_name(&self) -> String {
        match &self.source {
            ProblemSource::Generated { kind, nodes, seed } => {
                format!("{}-{}-s{}", kind.name(), nodes, seed)
            }
            ProblemSource::MatrixMarket { path } => path.clone(),
            ProblemSource::Prebuilt { tree } => format!("prebuilt-{}", tree.len()),
        }
    }

    /// Render the configuration as a JSON document (schema
    /// `engine_config/v1`).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.render_source(&mut out)
            .and_then(|()| self.settings().render(&mut out))
            .expect("writing to a String cannot fail");
        out
    }

    /// The head of the document, up to and including the `source` line —
    /// the only part that can be large (a prebuilt tree) and the part no
    /// schedule or sibling plan ever changes.
    fn render_source(&self, out: &mut impl Write) -> fmt::Result {
        let mut doc = Writer::document(out);
        doc.field("schema", "engine_config/v1")
            .field("source", &self.source);
        doc.suspend()
    }

    /// Everything after the `source` line, borrowed.
    pub(crate) fn settings(&self) -> Settings<'_> {
        Settings {
            ordering: self.ordering,
            amalgamation: self.amalgamation,
            solver: &self.solver,
            policy: &self.policy,
            memory: self.memory,
            numeric: self.numeric,
            solve: &self.solve,
            parallel: self.parallel,
            distributed: self.distributed,
        }
    }

    /// Parse a configuration produced by [`EngineConfig::to_json`].
    pub fn from_json(text: &str) -> Result<EngineConfig, ConfigParseError> {
        let json = Json::parse(text)?;
        let source: &Json = json.field("source")?;
        let source = match source.get("type").and_then(Json::as_str) {
            Some("generated") => {
                let kind_name = source.field("source.kind")?;
                let kind = ProblemKind::from_name(kind_name)
                    .ok_or_else(|| invalid(format!("unknown problem kind '{kind_name}'")))?;
                ProblemSource::Generated {
                    kind,
                    nodes: source.field("source.nodes")?,
                    seed: source.field("source.seed")?,
                }
            }
            Some("matrix_market") => ProblemSource::MatrixMarket {
                path: source.field::<&str>("source.path")?.to_string(),
            },
            Some("prebuilt") => {
                let parents = int_array(source, "source.parents")?;
                let parents: Vec<Option<usize>> = parents
                    .into_iter()
                    .map(|p| usize::try_from(p).ok())
                    .collect();
                let files = int_array(source, "source.files")?;
                let weights = int_array(source, "source.weights")?;
                let tree = Tree::from_parents(&parents, &files, &weights)
                    .map_err(|e| invalid(format!("invalid prebuilt tree: {e}")))?;
                ProblemSource::Prebuilt {
                    tree: Arc::new(tree),
                }
            }
            other => {
                return Err(invalid(format!("unknown source type {other:?}")));
            }
        };
        let ordering_name = json.field("ordering")?;
        let ordering = OrderingMethod::from_name(ordering_name)
            .ok_or_else(|| invalid(format!("unknown ordering '{ordering_name}'")))?;
        let memory: &Json = json.field("memory")?;
        let memory = match memory.get("type").and_then(Json::as_str) {
            Some("unlimited") => MemoryBudget::Unlimited,
            Some("absolute") => MemoryBudget::Absolute(memory.field("memory.value")?),
            Some("fraction") => MemoryBudget::FractionOfPeak(memory.field("memory.value")?),
            other => {
                return Err(invalid(format!("unknown memory type {other:?}")));
            }
        };
        // The three sections are absent in documents written before they
        // existed (or, for `distributed`, that never requested it); the
        // default sections keep those documents parseable.
        Ok(EngineConfig {
            source,
            ordering,
            amalgamation: json.field("amalgamation")?,
            solver: json.field::<&str>("solver")?.to_string(),
            policy: json.field::<&str>("policy")?.to_string(),
            memory,
            numeric: json.field("numeric")?,
            solve: match json.opt_field("solve")? {
                Some(section) => SolveConfig::from_json(section)?,
                None => SolveConfig::default(),
            },
            parallel: match json.opt_field("parallel")? {
                Some(section) => ParallelConfig::from_json(section)?,
                None => ParallelConfig::default(),
            },
            distributed: match json.opt_field("distributed")? {
                Some(section) => DistributedConfig::from_json(section)?,
                None => DistributedConfig::default(),
            },
        })
    }

    /// A stable 64-bit FNV-1a hash of the canonical JSON form, as a
    /// 16-character hex string.  Reports carry it as provenance so results
    /// can be traced back to the exact configuration that produced them.
    pub fn hash(&self) -> String {
        self.source_hash().finish(&self.settings())
    }

    /// The hash state reached after the `source` line.  A [`Plan`](crate::Plan)
    /// keeps it, so naming an effective configuration never visits the
    /// source again.
    pub(crate) fn source_hash(&self) -> Fnv1a {
        let mut state = Fnv1a::new();
        self.render_source(&mut state)
            .expect("the hash sink cannot fail");
        state
    }
}

/// Every field of an [`EngineConfig`] after its `source`, borrowed: what a
/// schedule (solver, policy, memory, parallel) or a sibling plan
/// (amalgamation) may replace to describe the configuration that actually
/// ran, without cloning the one it was derived from.
pub(crate) struct Settings<'a> {
    pub(crate) ordering: OrderingMethod,
    pub(crate) amalgamation: usize,
    pub(crate) solver: &'a str,
    pub(crate) policy: &'a str,
    pub(crate) memory: MemoryBudget,
    pub(crate) numeric: bool,
    pub(crate) solve: &'a SolveConfig,
    pub(crate) parallel: ParallelConfig,
    pub(crate) distributed: DistributedConfig,
}

impl Settings<'_> {
    /// The tail of the `engine_config/v1` document, closing brace included.
    fn render(&self, out: &mut impl Write) -> fmt::Result {
        let mut doc = Writer::resume(out);
        doc.field("ordering", self.ordering.name())
            .field("amalgamation", self.amalgamation)
            .field("solver", self.solver)
            .field("policy", self.policy)
            .field("memory", &self.memory)
            .field("numeric", self.numeric)
            .field("solve", self.solve)
            .field("parallel", &self.parallel);
        // The distributed section is emitted only when it differs from the
        // default: the config hash is FNV-1a over these bytes, and every
        // config written before the section existed must keep its hash.
        if self.distributed != DistributedConfig::default() {
            doc.field("distributed", &self.distributed);
        }
        doc.end()
    }
}

impl Fields for ProblemSource {
    fn fields(&self, source: &mut Writer<'_>) {
        match self {
            ProblemSource::Generated { kind, nodes, seed } => {
                source
                    .field("type", "generated")
                    .field("kind", kind.name())
                    .field("nodes", *nodes)
                    .field("seed", *seed);
            }
            ProblemSource::MatrixMarket { path } => {
                source.field("type", "matrix_market").field("path", path);
            }
            ProblemSource::Prebuilt { tree } => {
                let parents = tree.parents().iter().map(|p| p.map_or(-1, |p| p as i64));
                source
                    .field("type", "prebuilt")
                    .field("parents", Array(parents))
                    .field("files", Array(tree.files().iter().copied()))
                    .field("weights", Array(tree.weights().iter().copied()));
            }
        }
    }
}

impl Fields for SolveConfig {
    fn fields(&self, solve: &mut Writer<'_>) {
        solve
            .field("enabled", self.enabled)
            .field("rhs", &self.rhs)
            .field("check_residual", self.check_residual);
    }
}

impl Fields for SolveRhs {
    fn fields(&self, rhs: &mut Writer<'_>) {
        // Non-finite entries render as `null`: the parser then reports the
        // mistyped entry (validation rejects non-finite right-hand sides
        // anyway).
        match self {
            SolveRhs::Generated { count, seed } => {
                rhs.field("type", "generated")
                    .field("count", *count)
                    .field("seed", *seed);
            }
            SolveRhs::Vectors(vectors) => {
                let values = vectors.iter().map(|vector| Array(vector.iter().copied()));
                rhs.field("type", "vectors").field("values", Array(values));
            }
        }
    }
}

impl Fields for ParallelConfig {
    fn fields(&self, parallel: &mut Writer<'_>) {
        parallel
            .field("workers", self.workers)
            .field("max_tasks", self.max_tasks)
            .field("budget", &self.budget);
    }
}

impl Fields for DistributedConfig {
    fn fields(&self, distributed: &mut Writer<'_>) {
        distributed
            .field("tasks", self.tasks)
            .field("budget", &self.budget)
            .field("lease_ms", self.lease_ms);
    }
}

/// A running 64-bit FNV-1a hash that is also a [`fmt::Write`] sink: the
/// renderer hashes the document as it writes it, with no buffer between.
#[derive(Clone, Copy)]
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    pub(crate) fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// The hash so far.
    pub(crate) fn value(self) -> u64 {
        self.0
    }

    /// The hash of the configuration whose `source` this state has
    /// absorbed and whose remaining fields are `settings`, as
    /// [`EngineConfig::hash`] formats it.
    pub(crate) fn finish(mut self, settings: &Settings<'_>) -> String {
        settings
            .render(&mut self)
            .expect("the hash sink cannot fail");
        format!("{:016x}", self.0)
    }
}

impl Write for Fnv1a {
    fn write_str(&mut self, text: &str) -> fmt::Result {
        for byte in text.bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        Ok(())
    }
}

fn int_array(json: &Json, path: &'static str) -> Result<Vec<i64>, ConfigParseError> {
    json.field::<&[Json]>(path)?
        .iter()
        .map(|v| {
            v.as_i64()
                .ok_or_else(|| invalid(format!("non-integer in '{path}'")))
        })
        .collect()
}

/// Errors raised while parsing an [`EngineConfig`] from JSON.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigParseError {
    /// The document is not valid JSON.
    Json(JsonError),
    /// A required field is missing or has the wrong type.
    MissingField(&'static str),
    /// A field has an invalid value.
    Invalid(String),
}

fn invalid(message: String) -> ConfigParseError {
    ConfigParseError::Invalid(message)
}

impl std::fmt::Display for ConfigParseError {
    fn fmt(&self, fmt: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigParseError::Json(err) => write!(fmt, "{err}"),
            ConfigParseError::MissingField(field) => {
                write!(fmt, "missing or mistyped field '{field}'")
            }
            ConfigParseError::Invalid(message) => write!(fmt, "{message}"),
        }
    }
}

impl std::error::Error for ConfigParseError {}

impl From<FieldError> for ConfigParseError {
    fn from(err: FieldError) -> Self {
        ConfigParseError::MissingField(err.0)
    }
}

impl From<JsonError> for ConfigParseError {
    fn from(err: JsonError) -> Self {
        ConfigParseError::Json(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treemem::gadgets::harpoon;

    #[test]
    fn every_source_kind_round_trips() {
        let configs = vec![
            EngineConfig::generated(ProblemKind::PowerLaw, 300, 0x9e37_79b9_7f4a_7c15)
                .with_ordering(OrderingMethod::NestedDissection)
                .with_amalgamation(16)
                .with_solver("liu")
                .with_policy("BestKComb")
                .with_memory(MemoryBudget::FractionOfPeak(0.3751))
                .with_numeric(true),
            EngineConfig::matrix_market("data/with \"quotes\"\n.mtx")
                .with_memory(MemoryBudget::Absolute(12_345)),
            EngineConfig::prebuilt(harpoon(3, 300, 1)),
        ];
        for config in configs {
            let parsed = EngineConfig::from_json(&config.to_json()).unwrap();
            assert_eq!(parsed, config);
            assert_eq!(parsed.hash(), config.hash());
        }
    }

    /// Literal bytes and hashes of one configuration of every shape, taken
    /// from the `format!` + `join` renderer the streaming one replaced.  The
    /// bytes are a contract: `hash()` is FNV-1a over them, and plan caches,
    /// factor caches, report provenance and distributed task frames all key
    /// on it.  A change here re-baselines every stored hash.
    #[test]
    fn rendered_bytes_and_hashes_are_stable() {
        let generated = EngineConfig::generated(ProblemKind::PowerLaw, 300, 0x9e37_79b9_7f4a_7c15)
            .with_ordering(OrderingMethod::NestedDissection)
            .with_amalgamation(16)
            .with_solver("liu")
            .with_policy("BestKComb")
            .with_memory(MemoryBudget::FractionOfPeak(0.3751))
            .with_numeric(true);
        assert_eq!(
            generated.to_json(),
            r#"{
  "schema": "engine_config/v1",
  "source": {"type": "generated", "kind": "powerlaw", "nodes": 300, "seed": 11400714819323198485},
  "ordering": "nd",
  "amalgamation": 16,
  "solver": "liu",
  "policy": "BestKComb",
  "memory": {"type": "fraction", "value": 0.3751},
  "numeric": true,
  "solve": {"enabled": false, "rhs": {"type": "generated", "count": 1, "seed": 1}, "check_residual": true},
  "parallel": {"workers": 0, "max_tasks": 64, "budget": {"type": "unbounded"}}
}
"#
        );
        assert_eq!(generated.hash(), "98276f6e237d7e91");

        // A path that needs every kind of escape.
        let matrix_market = EngineConfig::matrix_market("data/with \"quotes\"\n\\\u{7f}.mtx")
            .with_memory(MemoryBudget::Absolute(12_345));
        assert_eq!(
            matrix_market.to_json(),
            r#"{
  "schema": "engine_config/v1",
  "source": {"type": "matrix_market", "path": "data/with \"quotes\"\n\\\u007f.mtx"},
  "ordering": "amd",
  "amalgamation": 1,
  "solver": "minmem",
  "policy": "LSNF",
  "memory": {"type": "absolute", "value": 12345},
  "numeric": false,
  "solve": {"enabled": false, "rhs": {"type": "generated", "count": 1, "seed": 1}, "check_residual": true},
  "parallel": {"workers": 0, "max_tasks": 64, "budget": {"type": "unbounded"}}
}
"#
        );
        assert_eq!(matrix_market.hash(), "4da7ec1ca297c4f0");

        let prebuilt = EngineConfig::prebuilt(harpoon(3, 300, 1));
        assert_eq!(
            prebuilt.to_json(),
            r#"{
  "schema": "engine_config/v1",
  "source": {"type": "prebuilt", "parents": [-1,0,1,2,0,4,5,0,7,8], "files": [0,100,1,300,100,1,300,100,1,300], "weights": [0,0,0,0,0,0,0,0,0,0]},
  "ordering": "amd",
  "amalgamation": 1,
  "solver": "minmem",
  "policy": "LSNF",
  "memory": {"type": "unlimited"},
  "numeric": false,
  "solve": {"enabled": false, "rhs": {"type": "generated", "count": 1, "seed": 1}, "check_residual": true},
  "parallel": {"workers": 0, "max_tasks": 64, "budget": {"type": "unbounded"}}
}
"#
        );
        assert_eq!(prebuilt.hash(), "838da3f1207f4e66");

        // The section shapes share one head; each literal is the rest.
        const HEAD: &str = r#"{
  "schema": "engine_config/v1",
  "source": {"type": "generated", "kind": "grid2d", "nodes": 200, "seed": 1},
  "ordering": "amd",
  "amalgamation": 1,
  "solver": "minmem",
  "policy": "LSNF",
  "memory": {"type": "unlimited"},
  "numeric": true,
"#;
        const NO_SOLVE: &str = r#"  "solve": {"enabled": false, "rhs": {"type": "generated", "count": 1, "seed": 1}, "check_residual": true},
"#;
        const SEQUENTIAL: &str = r#"  "parallel": {"workers": 0, "max_tasks": 64, "budget": {"type": "unbounded"}}
}
"#;
        let grid = || EngineConfig::generated(ProblemKind::Grid2d, 200, 1).with_numeric(true);
        let multiple = BudgetShare::MultipleOfSequentialPeak;
        let sections = [
            (
                // Explicit right-hand sides, a non-finite entry included.
                grid().with_solve(
                    SolveConfig::vectors(vec![vec![1.0, f64::NAN, -2.5], vec![0.125, 1e-7, -0.0]])
                        .with_check(false),
                ),
                [
                    r#"  "solve": {"enabled": true, "rhs": {"type": "vectors", "values": [[1,null,-2.5],[0.125,0.0000001,-0]]}, "check_residual": false},
"#,
                    SEQUENTIAL,
                ]
                .concat(),
                "5a7ea4f60231cabe",
            ),
            (
                grid().with_parallel(ParallelConfig::with_workers(4)),
                [
                    NO_SOLVE,
                    r#"  "parallel": {"workers": 4, "max_tasks": 64, "budget": {"type": "unbounded"}}
}
"#,
                ]
                .concat(),
                "1a6a456ef81b41e1",
            ),
            (
                grid().with_parallel(
                    ParallelConfig::with_workers(8)
                        .with_max_tasks(17)
                        .with_budget(multiple(1.75)),
                ),
                [
                    NO_SOLVE,
                    r#"  "parallel": {"workers": 8, "max_tasks": 17, "budget": {"type": "multiple", "value": 1.75}}
}
"#,
                ]
                .concat(),
                "8f31a4c48679e629",
            ),
            (
                grid().with_parallel(
                    ParallelConfig::with_workers(2).with_budget(multiple(f64::INFINITY)),
                ),
                [
                    NO_SOLVE,
                    r#"  "parallel": {"workers": 2, "max_tasks": 64, "budget": {"type": "multiple", "value": null}}
}
"#,
                ]
                .concat(),
                "66aa4b619d897f4b",
            ),
            (
                grid().with_parallel(
                    ParallelConfig::with_workers(2).with_budget(BudgetShare::Entries(123_456)),
                ),
                [
                    NO_SOLVE,
                    r#"  "parallel": {"workers": 2, "max_tasks": 64, "budget": {"type": "entries", "value": 123456}}
}
"#,
                ]
                .concat(),
                "515d0312bdc79af9",
            ),
            (
                // A default distributed section leaves no trace.
                grid().with_distributed(DistributedConfig::default()),
                [NO_SOLVE, SEQUENTIAL].concat(),
                "e8ab0893ec3c64fd",
            ),
            (
                grid()
                    .with_solve(SolveConfig::generated(4, 99))
                    .with_distributed(
                        DistributedConfig::with_tasks(64)
                            .with_budget(multiple(1.25))
                            .with_lease_ms(2_000),
                    ),
                r#"  "solve": {"enabled": true, "rhs": {"type": "generated", "count": 4, "seed": 99}, "check_residual": true},
  "parallel": {"workers": 0, "max_tasks": 64, "budget": {"type": "unbounded"}},
  "distributed": {"tasks": 64, "budget": {"type": "multiple", "value": 1.25}, "lease_ms": 2000}
}
"#
                .to_string(),
                "91e4d41686261100",
            ),
        ];
        for (config, tail, hash) in sections {
            assert_eq!(config.to_json(), [HEAD, &tail].concat());
            assert_eq!(config.hash(), hash, "{tail}");
        }
    }

    #[test]
    fn hashes_distinguish_configurations() {
        let a = EngineConfig::generated(ProblemKind::Grid2d, 400, 1);
        let b = a.clone().with_policy("FirstFit");
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn parallel_sections_round_trip() {
        let sections = [
            ParallelConfig::default(),
            ParallelConfig::with_workers(4),
            ParallelConfig::with_workers(8)
                .with_max_tasks(17)
                .with_budget(BudgetShare::MultipleOfSequentialPeak(1.75)),
            ParallelConfig::with_workers(2).with_budget(BudgetShare::Entries(123_456)),
        ];
        for parallel in sections {
            let config = EngineConfig::generated(ProblemKind::Grid2d, 200, 1)
                .with_numeric(true)
                .with_parallel(parallel);
            let parsed = EngineConfig::from_json(&config.to_json()).unwrap();
            assert_eq!(parsed, config);
        }
    }

    #[test]
    fn solve_sections_round_trip() {
        let sections = [
            SolveConfig::default(),
            SolveConfig::generated(4, 99),
            SolveConfig::generated(1, 0).with_check(false),
            SolveConfig::vectors(vec![vec![1.0, -2.5, 0.125], vec![0.0, 3.0, -1.0]]),
        ];
        for solve in sections {
            let config = EngineConfig::generated(ProblemKind::Grid2d, 200, 1)
                .with_numeric(true)
                .with_solve(solve);
            let parsed = EngineConfig::from_json(&config.to_json()).unwrap();
            assert_eq!(parsed, config);
        }
    }

    #[test]
    fn solve_section_changes_the_hash() {
        // A cached factor keyed by config hash must never be shared between
        // a request that solves and one that does not.
        let plain = EngineConfig::generated(ProblemKind::Grid2d, 200, 1).with_numeric(true);
        let solving = plain.clone().with_solve(SolveConfig::generated(2, 7));
        assert_ne!(plain.hash(), solving.hash());
        let unchecked = plain
            .clone()
            .with_solve(SolveConfig::generated(2, 7).with_check(false));
        assert_ne!(solving.hash(), unchecked.hash());
    }

    #[test]
    fn documents_without_a_solve_section_still_parse() {
        let config = EngineConfig::generated(ProblemKind::Grid2d, 200, 1);
        let legacy: String = config
            .to_json()
            .lines()
            .filter(|line| !line.contains("\"solve\""))
            .collect::<Vec<_>>()
            .join("\n");
        let parsed = EngineConfig::from_json(&legacy).unwrap();
        assert_eq!(parsed, config);
    }

    #[test]
    fn non_finite_rhs_entries_still_serialize_to_valid_json() {
        let config = EngineConfig::generated(ProblemKind::Grid2d, 100, 1)
            .with_solve(SolveConfig::vectors(vec![vec![1.0, f64::NAN]]));
        let json = config.to_json();
        assert!(crate::json::Json::parse(&json).is_ok(), "{json}");
        assert!(matches!(
            EngineConfig::from_json(&json),
            Err(ConfigParseError::Invalid(_))
        ));
    }

    #[test]
    fn parallel_section_changes_the_hash() {
        // The effective-config hash must distinguish a serial request from a
        // parallel one, or a plan cache would serve the wrong plan.
        let serial = EngineConfig::generated(ProblemKind::Grid2d, 200, 1).with_numeric(true);
        let parallel = serial
            .clone()
            .with_parallel(ParallelConfig::with_workers(4));
        assert_ne!(serial.hash(), parallel.hash());
        let rebudgeted = serial
            .clone()
            .with_parallel(ParallelConfig::with_workers(4).with_budget(BudgetShare::Entries(10)));
        assert_ne!(parallel.hash(), rebudgeted.hash());
    }

    #[test]
    fn documents_without_a_parallel_section_still_parse() {
        // Configs serialized before the parallel layer existed have no
        // "parallel" key (and predate the solve section too); they must keep
        // parsing with the default sections.
        let config = EngineConfig::generated(ProblemKind::Grid2d, 200, 1);
        let legacy: String = config
            .to_json()
            .lines()
            .filter(|line| !line.contains("\"parallel\"") && !line.contains("\"solve\""))
            .collect::<Vec<_>>()
            .join("\n")
            .replace("\"numeric\": false,", "\"numeric\": false");
        let parsed = EngineConfig::from_json(&legacy).unwrap();
        assert_eq!(parsed, config);
    }

    #[test]
    fn non_finite_budget_multiples_still_serialize_to_valid_json() {
        // A bare NaN/inf is not JSON; the serializer must stay well-formed
        // even for a configuration that validation will reject later.
        for multiple in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let config = EngineConfig::generated(ProblemKind::Grid2d, 100, 1).with_parallel(
                ParallelConfig::with_workers(2)
                    .with_budget(BudgetShare::MultipleOfSequentialPeak(multiple)),
            );
            let json = config.to_json();
            assert!(crate::json::Json::parse(&json).is_ok(), "{json}");
            // The round-trip fails with a *typed* parse error, not a JSON
            // syntax error.
            assert!(matches!(
                EngineConfig::from_json(&json),
                Err(ConfigParseError::MissingField("parallel.budget.value"))
            ));
        }
    }

    #[test]
    fn distributed_sections_round_trip() {
        let sections = [
            DistributedConfig::with_tasks(2),
            DistributedConfig::with_tasks(64)
                .with_budget(BudgetShare::MultipleOfSequentialPeak(1.25))
                .with_lease_ms(2_000),
            DistributedConfig::with_tasks(8).with_budget(BudgetShare::Entries(9_999)),
        ];
        for distributed in sections {
            let config = EngineConfig::generated(ProblemKind::Grid2d, 200, 1)
                .with_numeric(true)
                .with_distributed(distributed);
            let parsed = EngineConfig::from_json(&config.to_json()).unwrap();
            assert_eq!(parsed, config);
        }
    }

    #[test]
    fn distributed_section_changes_the_hash() {
        // A factor cached from a local run may be *reused* by a distributed
        // run only via an explicit lookup, never by hash collision.
        let local = EngineConfig::generated(ProblemKind::Grid2d, 200, 1).with_numeric(true);
        let sharded = local
            .clone()
            .with_distributed(DistributedConfig::with_tasks(4));
        assert_ne!(local.hash(), sharded.hash());
        let released = local
            .clone()
            .with_distributed(DistributedConfig::with_tasks(4).with_lease_ms(1_000));
        assert_ne!(sharded.hash(), released.hash());
    }

    #[test]
    fn default_distributed_sections_leave_the_document_unchanged() {
        // Emitting the section only when non-default keeps every pre-existing
        // config hash stable.
        let config = EngineConfig::generated(ProblemKind::Grid2d, 200, 1).with_numeric(true);
        let explicit_default = config
            .clone()
            .with_distributed(DistributedConfig::default());
        assert_eq!(config.to_json(), explicit_default.to_json());
        assert!(!config.to_json().contains("\"distributed\""));
        assert_eq!(config.hash(), explicit_default.hash());
        let parsed = EngineConfig::from_json(&config.to_json()).unwrap();
        assert_eq!(parsed.distributed, DistributedConfig::default());
    }

    #[test]
    fn distributed_enablement_needs_at_least_two_tasks() {
        assert!(!DistributedConfig::default().enabled());
        assert!(!DistributedConfig::with_tasks(1).enabled());
        assert!(DistributedConfig::with_tasks(2).enabled());
    }

    #[test]
    fn budget_share_resolves_against_the_sequential_peak() {
        assert_eq!(BudgetShare::Unbounded.resolve(1000), None);
        assert_eq!(
            BudgetShare::MultipleOfSequentialPeak(1.5).resolve(1000),
            Some(1500)
        );
        assert_eq!(BudgetShare::Entries(7).resolve(1000), Some(7));
    }

    #[test]
    fn parse_rejects_malformed_configs() {
        assert!(matches!(
            EngineConfig::from_json("not json"),
            Err(ConfigParseError::Json(_))
        ));
        assert!(matches!(
            EngineConfig::from_json("{}"),
            Err(ConfigParseError::MissingField("source"))
        ));
        let bad_kind =
            r#"{"source": {"type": "generated", "kind": "nope", "nodes": 10, "seed": 1}}"#;
        assert!(matches!(
            EngineConfig::from_json(bad_kind),
            Err(ConfigParseError::Invalid(_))
        ));
        // Two execution modes at once is a well-formed document — it parses
        // and round-trips like any other — but no plan accepts it: the
        // rejection lives with the rest of the semantic validation.
        let ambiguous = EngineConfig::generated(ProblemKind::Grid2d, 100, 1)
            .with_numeric(true)
            .with_parallel(ParallelConfig::with_workers(2))
            .with_distributed(DistributedConfig::with_tasks(2));
        assert_eq!(
            EngineConfig::from_json(&ambiguous.to_json()).unwrap(),
            ambiguous
        );
        let engine = crate::Engine::new();
        assert!(matches!(
            engine.plan(&ambiguous),
            Err(crate::EngineError::InvalidConfig(message)) if message.contains("mutually exclusive")
        ));
        // Each mode alone is fine, and so is overriding the parallel section
        // per schedule — unless that recreates the ambiguity.
        let sharded = ambiguous.clone().with_parallel(ParallelConfig::default());
        let plan = engine.plan(&sharded).unwrap();
        assert!(engine
            .plan(&ambiguous.with_distributed(DistributedConfig::default()))
            .is_ok());
        let spec = crate::ScheduleSpec::default().parallel(ParallelConfig::with_workers(2));
        assert!(matches!(
            plan.schedule_with(&engine, spec),
            Err(crate::EngineError::InvalidConfig(_))
        ));
    }
}
