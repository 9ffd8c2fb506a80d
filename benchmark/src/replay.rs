//! The staged replay: the same pipeline `Engine::plan_with_cancel` →
//! `Plan::schedule_with_cancel` → `Schedule::run_numeric` performs, made by
//! calling each crate's public functions in the same order with a span
//! around every call.  The caller asserts that the replay's factor size,
//! traversal, peak, I/O volume and solve error equal the engine's, so the
//! per-layer times provably describe the same work the engine did.
//!
//! Calls the engine does not make for the configuration at hand (the other
//! registry solvers, the other eviction policies, the proportional cut, the
//! kernel-only floor) are *probes*: their spans have no parent, so they
//! never count towards an operation.

use engine::{EngineConfig, ProblemSource};
use minio::{check_out_of_core, divisible_lower_bound, schedule_io_with, PolicyRegistry};
use multifrontal::memory::{instrumented_factorization_with_structure, per_column_model};
use multifrontal::{DenseMatrix, FrontKernel, SymbolicStructure};
use prng::{Rng, StdRng};
use sparsemat::gen::spd_matrix_from_pattern;
use symbolic::{amalgamate, column_counts, elimination_tree, AssemblyTree};
use treemem::partition::{default_node_work, proportional_cut};
use treemem::tree::{NodeId, Size};
use treemem::{SolverRegistry, Traversal, TraversalResult, Tree};

use crate::runner::{add, Rep};
use crate::spans::{Recorder, SpanId};

/// Right-hand sides of the solve probe (the `/solve` batch of `serve_mixed`).
pub const SOLVE_RHS: usize = 16;

/// The per-layer metric a registry solver's time goes to.
pub fn solver_metric(solver: &str) -> Option<&'static str> {
    match solver {
        "postorder" => Some("treemem.postorder_s"),
        "liu" => Some("treemem.liu_s"),
        "minmem" => Some("treemem.minmem_s"),
        _ => None,
    }
}

/// The per-layer metric an eviction policy's simulation time goes to.
pub fn policy_metric(policy: &str) -> Option<&'static str> {
    match policy {
        "LSNF" => Some("minio.lsnf_s"),
        "FirstFit" => Some("minio.firstfit_s"),
        "BestKComb" => Some("minio.bestk_s"),
        _ => None,
    }
}

/// What the replay computed, for comparison with the engine's report.
#[derive(Debug, Clone, PartialEq)]
pub struct Staged {
    /// The chosen solver's traversal (top-down).
    pub traversal: Vec<NodeId>,
    /// Its peak.
    pub peak: Size,
    /// I/O volume at the configured budget.
    pub io_volume: Size,
    /// Divisible lower bound at that budget.
    pub divisible_bound: Size,
    /// Numeric results, when the configuration enables the numeric stage.
    pub numeric: Option<StagedNumeric>,
}

/// The numeric half of [`Staged`].
#[derive(Debug, Clone, PartialEq)]
pub struct StagedNumeric {
    /// nnz(L) of the computed factor.
    pub factor_nnz: usize,
    /// Model peak of the traversal on the per-column tree.
    pub model_peak_entries: Size,
    /// Measured peak of the sequential execution.
    pub measured_peak_entries: usize,
    /// Max-norm error of the engine's known-answer solve.
    pub solve_error: f64,
}

/// Shared span context of one replay.
pub struct Stage<'a> {
    /// Where spans go.
    pub recorder: &'a Recorder,
    /// The operation (rep) index.
    pub op: u64,
    /// The replay's root span (`None` for probes).
    pub parent: Option<SpanId>,
}

impl Stage<'_> {
    /// Time `f` as a span of `layer`, adding its seconds to `metric`.
    pub fn call<T>(
        &self,
        out: &mut Rep,
        layer: &'static str,
        name: &'static str,
        metric: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let (value, seconds) = self.recorder.time(self.parent, self.op, layer, name, f);
        add(out, metric, seconds);
        value
    }

    /// The same stage with probe spans (no parent).
    pub fn probe(&self) -> Stage<'_> {
        Stage {
            recorder: self.recorder,
            op: self.op,
            parent: None,
        }
    }
}

/// Replay the pipeline of a generated-matrix configuration under a root
/// span `replay`, then run the probes.  `out` receives every layer metric.
pub fn staged_pipeline(
    config: &EngineConfig,
    recorder: &Recorder,
    op: u64,
    out: &mut Rep,
) -> Result<Staged, String> {
    let ProblemSource::Generated { kind, nodes, seed } = &config.source else {
        return Err("the staged pipeline replays generated matrices only".to_string());
    };
    let solvers = SolverRegistry::with_builtin();
    let policies = PolicyRegistry::with_builtin();
    let root = recorder.open(None, op, "harness", "replay");
    let stage = Stage {
        recorder,
        op,
        parent: Some(root),
    };

    // Engine::plan_with_cancel.
    let pattern = stage.call(out, "sparsemat", "generate", "sparsemat.generate_s", || {
        kind.generate(*nodes, *seed)
    });
    let perm = stage.call(out, "ordering", "order", "ordering.order_s", || {
        config.ordering.order(&pattern)
    });
    let permuted = stage.call(out, "ordering", "permute", "ordering.permute_s", || {
        perm.apply(&pattern)
    });
    let etree = stage.call(out, "symbolic", "etree", "symbolic.etree_s", || {
        elimination_tree(&permuted)
    });
    let counts = stage.call(out, "symbolic", "colcount", "symbolic.colcount_s", || {
        column_counts(&permuted, &etree)
    });
    let assembly = stage.call(
        out,
        "symbolic",
        "amalgamate",
        "symbolic.amalgamate_s",
        || amalgamate(&etree, &counts, config.amalgamation),
    );

    // Plan::schedule_with_cancel.
    let tree = &assembly.tree;
    let (solved, run, bound, budget) =
        staged_schedule(&stage, out, tree, config, &solvers, &policies)?;

    // Schedule::run_numeric.
    let numeric = if config.numeric {
        let matrix = stage.call(
            out,
            "sparsemat",
            "spd_values",
            "sparsemat.spd_values_s",
            || spd_matrix_from_pattern(&permuted, *seed),
        );
        let structure = stage.call(
            out,
            "multifrontal",
            "structure",
            "multifrontal.structure_s",
            || SymbolicStructure::from_pattern(&matrix.pattern()),
        );
        let model = stage.call(out, "multifrontal", "model", "multifrontal.model_s", || {
            per_column_model(&structure)
        });
        let solver = solvers
            .get_or_err(&config.solver)
            .map_err(|e| e.to_string())?;
        let order: Vec<NodeId> = stage.call(
            out,
            "treemem",
            "model_order",
            "treemem.model_order_s",
            || solver.solve(&model).traversal.reversed().into_order(),
        );
        let stats = stage
            .call(
                out,
                "multifrontal",
                "factor",
                "multifrontal.factor_s",
                || instrumented_factorization_with_structure(&matrix, &structure, Some(&order)),
            )
            .map_err(|e| format!("staged factorization failed: {e}"))?;
        let solve_error = stage.call(
            out,
            "multifrontal",
            "solve_check",
            "multifrontal.solve_check_s",
            || known_answer_error(&matrix, &stats.factor),
        );
        let solved_batch = if config.solve.enabled {
            Some(solve_probe(&stage, out, &matrix, &stats.factor, *seed))
        } else {
            None
        };
        Some((matrix, model, stats, solve_error, solved_batch))
    } else {
        None
    };
    add(out, "harness.replay_s", recorder.close(root));

    // Off the operation: output checks, then the probes.
    let probe = stage.probe();
    check_schedule(tree, &solved.traversal, &run, budget, bound)?;
    let numeric = match numeric {
        Some((matrix, model, stats, solve_error, solved_batch)) => {
            // The `/solve` batch of `serve_mixed`, probed where the
            // configuration has no solve stage of its own.
            let (rhs, batch) = solved_batch
                .unwrap_or_else(|| solve_probe(&probe, out, &matrix, &stats.factor, *seed));
            let residual = max_residual(&matrix, &rhs, &batch);
            if residual > 1e-8 {
                return Err(format!("staged solve residual {residual:e} exceeds 1e-8"));
            }
            add(
                out,
                "multifrontal.measured_peak_entries",
                stats.measured_peak_entries as f64,
            );
            probe.call(out, "treemem", "proportional_cut", "treemem.cut_s", || {
                proportional_cut(&model, 64, &default_node_work(&model))
            });
            kernel_replay(&probe, out, &assembly);
            Some(StagedNumeric {
                factor_nnz: stats.factor_nnz,
                model_peak_entries: stats.model_peak_entries,
                measured_peak_entries: stats.measured_peak_entries,
                solve_error,
            })
        }
        None => None,
    };

    // Counts of the symbolic layers (computed, not timed).
    let factor_nnz = symbolic::colcount::factor_nnz(&counts);
    let lower_nnz = pattern.n() + pattern.nnz_off_diagonal() / 2;
    add(out, "sparsemat.nnz", pattern.nnz() as f64);
    add(
        out,
        "ordering.fill_ratio",
        factor_nnz as f64 / lower_nnz as f64,
    );
    add(out, "symbolic.supernodes", assembly.len() as f64);
    add(out, "symbolic.factor_nnz", factor_nnz as f64);
    add(
        out,
        "symbolic.flops",
        counts.iter().map(|&c| (c * c) as f64).sum(),
    );
    add(out, "treemem.peak", solved.peak as f64);
    add(out, "minio.io_volume", run.io_volume as f64);
    add(out, "minio.files_written", run.files_written as f64);

    tree_probes(&probe, out, tree, config, &solvers, &policies, &solved)?;

    Ok(Staged {
        traversal: solved.traversal.order().to_vec(),
        peak: solved.peak,
        io_volume: run.io_volume,
        divisible_bound: bound,
        numeric,
    })
}

/// The schedule stage on `tree`: the configured solver, the out-of-core
/// simulation under the configured policy and budget, and the divisible
/// bound.  Returns `(traversal, run, bound, budget)`; the caller checks the
/// schedule ([`check_schedule`]) once its operation span is closed.
fn staged_schedule(
    stage: &Stage<'_>,
    out: &mut Rep,
    tree: &Tree,
    config: &EngineConfig,
    solvers: &SolverRegistry,
    policies: &PolicyRegistry,
) -> Result<(TraversalResult, minio::OutOfCoreRun, Size, Size), String> {
    let solver = solvers
        .get_or_err(&config.solver)
        .map_err(|e| e.to_string())?;
    let policy = policies
        .get_or_err(&config.policy)
        .map_err(|e| e.to_string())?;
    let solver_metric = solver_metric(&config.solver)
        .ok_or_else(|| format!("no layer metric for solver {}", config.solver))?;
    let policy_metric = policy_metric(&config.policy)
        .ok_or_else(|| format!("no layer metric for policy {}", config.policy))?;
    let solved = stage.call(out, "treemem", "solve", solver_metric, || {
        solver.solve(tree)
    });
    let budget = config.memory.resolve(tree.max_mem_req(), solved.peak);
    let run = stage
        .call(out, "minio", "schedule_io", policy_metric, || {
            schedule_io_with(tree, &solved.traversal, budget, policy)
        })
        .map_err(|e| format!("staged out-of-core simulation failed: {e}"))?;
    let bound = stage
        .call(out, "minio", "divisible_bound", "minio.bound_s", || {
            divisible_lower_bound(tree, &solved.traversal, budget)
        })
        .map_err(|e| format!("staged divisible bound failed: {e}"))?;
    Ok((solved, run, bound, budget))
}

/// The output checks every schedule must pass: `check_out_of_core` accepts
/// it with the reported volume, within the budget, at or above the bound.
pub fn check_schedule(
    tree: &Tree,
    traversal: &Traversal,
    run: &minio::OutOfCoreRun,
    budget: Size,
    bound: Size,
) -> Result<(), String> {
    let checked = check_out_of_core(tree, traversal, &run.schedule, budget)
        .map_err(|e| format!("check_out_of_core rejects the schedule: {e}"))?;
    if checked.io_volume != run.io_volume {
        return Err(format!(
            "schedule I/O volume {} differs from the checked volume {}",
            run.io_volume, checked.io_volume
        ));
    }
    if run.io_volume < bound {
        return Err(format!(
            "I/O volume {} is below the divisible bound {bound}",
            run.io_volume
        ));
    }
    Ok(())
}

/// Probes on the assembly tree: the registry solvers and eviction policies
/// the configuration did not choose, with the optimality checks (liu peak =
/// minmem peak ≤ postorder peak).
fn tree_probes(
    probe: &Stage<'_>,
    out: &mut Rep,
    tree: &Tree,
    config: &EngineConfig,
    solvers: &SolverRegistry,
    policies: &PolicyRegistry,
    solved: &TraversalResult,
) -> Result<(), String> {
    let mut peaks = std::collections::BTreeMap::new();
    peaks.insert(config.solver.clone(), solved.peak);
    for name in ["postorder", "liu", "minmem"] {
        if name == config.solver {
            continue;
        }
        let solver = solvers.get_or_err(name).map_err(|e| e.to_string())?;
        let metric = solver_metric(name).expect("the three solvers have metrics");
        let result = probe.call(out, "treemem", "solve", metric, || solver.solve(tree));
        peaks.insert(name.to_string(), result.peak);
    }
    check_peaks(peaks["postorder"], peaks["liu"], peaks["minmem"])?;
    let budget = config.memory.resolve(tree.max_mem_req(), solved.peak);
    for name in ["LSNF", "FirstFit", "BestKComb"] {
        if name == config.policy {
            continue;
        }
        let policy = policies.get_or_err(name).map_err(|e| e.to_string())?;
        let metric = policy_metric(name).expect("the three policies have metrics");
        let run = probe
            .call(out, "minio", "schedule_io", metric, || {
                schedule_io_with(tree, &solved.traversal, budget, policy)
            })
            .map_err(|e| format!("{name} simulation failed: {e}"))?;
        let bound = divisible_lower_bound(tree, &solved.traversal, budget)
            .map_err(|e| format!("divisible bound failed: {e}"))?;
        check_schedule(tree, &solved.traversal, &run, budget, bound)?;
    }
    Ok(())
}

/// The paper's ordering of the three solvers' peaks.
pub fn check_peaks(postorder: Size, liu: Size, minmem: Size) -> Result<(), String> {
    if liu != minmem {
        return Err(format!(
            "liu peak {liu} differs from minmem peak {minmem} (both are exact)"
        ));
    }
    if minmem > postorder {
        return Err(format!(
            "minmem peak {minmem} exceeds the best postorder's {postorder}"
        ));
    }
    Ok(())
}

/// The kernel-only floor: `FrontKernel::default().apply` on one dense SPD
/// front per distinct (dimension, pivots) shape of the assembly tree,
/// weighted by multiplicity; fronts are built off the clock.
fn kernel_replay(probe: &Stage<'_>, out: &mut Rep, assembly: &AssemblyTree) {
    let mut shapes = std::collections::BTreeMap::new();
    for node in 0..assembly.len() {
        let eta = assembly.eta[node];
        if eta > 0 {
            *shapes
                .entry((assembly.mu[node] + eta - 1, eta))
                .or_insert(0usize) += 1;
        }
    }
    let mut seconds = 0.0;
    let mut flops = 0.0;
    let span = probe
        .recorder
        .open(None, probe.op, "multifrontal", "kernel_replay");
    for (&(dim, pivots), &count) in &shapes {
        let mut front = spd_front(dim);
        let start = std::time::Instant::now();
        let status = FrontKernel::default().apply(&mut front, pivots);
        seconds += start.elapsed().as_secs_f64() * count as f64;
        debug_assert!(status.is_ok(), "diagonally dominant fronts factor");
        std::hint::black_box(&front);
        let (d, s) = (dim as f64, pivots as f64);
        flops += (s * d * d - d * s * s + s * s * s / 3.0).max(1.0) * count as f64;
    }
    probe.recorder.close(span);
    add(out, "multifrontal.kernel_replay_s", seconds);
    add(out, "multifrontal.flops", flops);
    if let Some(&factor_s) = out.get("multifrontal.factor_s") {
        add(out, "multifrontal.kernel_share", seconds / factor_s);
        add(out, "multifrontal.gflops", flops / factor_s / 1e9);
    }
}

/// A dense diagonally dominant front of dimension `n`.
fn spd_front(n: usize) -> DenseMatrix {
    let mut rng = StdRng::seed_from_u64(n as u64);
    let mut front = DenseMatrix::zeros(n);
    for j in 0..n {
        for i in j..n {
            let value: f64 = rng.gen_range(-0.5..0.5);
            front.set(
                i,
                j,
                if i == j {
                    value.abs() + n as f64
                } else {
                    value
                },
            );
        }
    }
    front
}

/// One batched solve of [`SOLVE_RHS`] generated right-hand sides under
/// `stage`; returns `(right-hand sides, solutions)` for the residual check.
fn solve_probe(
    stage: &Stage<'_>,
    out: &mut Rep,
    matrix: &sparsemat::SymmetricCsr,
    factor: &multifrontal::CholeskyFactor,
    seed: u64,
) -> (Vec<f64>, Vec<f64>) {
    let rhs = random_rhs(matrix.n(), SOLVE_RHS, seed);
    let mut batch = rhs.clone();
    stage.call(
        out,
        "multifrontal",
        "solve_batch",
        "multifrontal.solve_s",
        || factor.solve_batch(&mut batch),
    );
    (rhs, batch)
}

/// The engine's factorization self-check: solve a system with a known
/// answer, return the max-norm error (`engine::run::solve_check`).
fn known_answer_error(
    matrix: &sparsemat::SymmetricCsr,
    factor: &multifrontal::CholeskyFactor,
) -> f64 {
    let n = matrix.n();
    let expected: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
    let rhs = matrix.multiply(&expected);
    multifrontal::numeric::solve(factor, &rhs)
        .iter()
        .zip(&expected)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max)
}

/// `count` column-major right-hand sides of dimension `n` in `[-1, 1)`.
fn random_rhs(n: usize, count: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(crate::seeds::derive(seed, "replay-rhs", 0));
    (0..n * count).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// Largest max-norm residual `‖A x − b‖∞` over a solved batch.
fn max_residual(matrix: &sparsemat::SymmetricCsr, rhs: &[f64], solutions: &[f64]) -> f64 {
    let n = matrix.n();
    let mut worst = 0.0f64;
    for (b, x) in rhs.chunks_exact(n).zip(solutions.chunks_exact(n)) {
        for (lhs, rhs_entry) in matrix.multiply(x).iter().zip(b) {
            worst = worst.max((lhs - rhs_entry).abs());
        }
    }
    worst
}
