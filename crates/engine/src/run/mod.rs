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
//! A plan caches each solver's result, so sweeping many policies or memory
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

use minio::MinIoError;
use multifrontal::FactorizationError;
use sparsemat::matrixmarket::{read_pattern, MatrixMarketError};
use sparsemat::SparsePattern;
use symbolic::{amalgamate, column_counts, elimination_tree};
use treemem::faultinject::FaultPoint;
use treemem::registry::UnknownName;

use crate::cancel::CancelToken;
use crate::config::{EngineConfig, ProblemSource};
use crate::report::{Report, StageTimings};

mod factor;
mod numeric;
mod plan;
mod schedule;
mod slice;
mod validate;

pub use factor::{FactorHandle, MAX_SOLVE_RHS};
pub use numeric::SubtreeParts;
pub use plan::Plan;
use plan::{PlanTree, SymbolicData};
pub use schedule::{DistributedCut, DistributedRuntime, Schedule, ScheduleSpec};
pub use slice::{SliceError, TaskSlice};

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
/// parse into [`Solver`](treemem::Solver) and [`Policy`](minio::Policy) values at plan time.
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
        let names = self.validate(config)?;
        check(cancel, "plan")?;
        let mut timings = StageTimings::default();
        let source_hash = config.source_hash();
        let (pattern, generate_seconds) = match &config.source {
            ProblemSource::Prebuilt { tree } => {
                let tree = PlanTree::Prebuilt(tree.clone());
                return Ok(Plan::new(
                    config.clone(),
                    names,
                    source_hash,
                    None,
                    tree,
                    timings,
                ));
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
            names,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use ordering::OrderingMethod;
    use sparsemat::gen::ProblemKind;
    use treemem::gadgets::harpoon;

    /// An unknown name fails at plan time, and `Plan::solve` and a
    /// `ScheduleSpec` override, which parse the names a plan did not, answer
    /// the same typed error with the same text.
    #[test]
    fn unknown_names_fail_alike_on_every_path() {
        let engine = Engine::new();
        let tree = Arc::new(harpoon(3, 300, 1));
        let plan = engine.plan(&EngineConfig::prebuilt(tree.clone())).unwrap();
        let unknown = |error: Option<EngineError>| match error {
            Some(EngineError::UnknownName(err)) => (err.kind, err.to_string()),
            other => panic!("expected UnknownName, got {other:?}"),
        };
        let config = EngineConfig::prebuilt(tree.clone()).with_solver("nope");
        let at_plan_time = unknown(engine.plan(&config).err());
        assert_eq!(at_plan_time.0, "solver");
        let spec = ScheduleSpec::default().solver("nope");
        assert_eq!(
            unknown(plan.schedule_with(&engine, spec).err()),
            at_plan_time
        );
        assert_eq!(unknown(plan.solve(&engine, "nope").err()), at_plan_time);
        let config = EngineConfig::prebuilt(tree).with_policy("nope");
        let at_plan_time = unknown(engine.plan(&config).err());
        assert_eq!(at_plan_time.0, "policy");
        let spec = ScheduleSpec::default().policy("nope");
        assert_eq!(
            unknown(plan.schedule_with(&engine, spec).err()),
            at_plan_time
        );
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
}
