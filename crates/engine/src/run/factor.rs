//! A computed factor detached from its schedule, the batched solves against
//! it, and the one check of a batch of right-hand sides.

use std::sync::Arc;

use multifrontal::{solve, solve_into, CholeskyFactor};

use super::numeric::NumericModel;
use super::EngineError;
use crate::config::SolveRhs;
use crate::report::{NumericReport, SolveReport};

/// Hard cap on the solve batch.  Right-hand sides arrive over the network
/// as explicit vectors or a generated count: without a cap, one request
/// asking for millions of columns allocates gigabytes before any real work
/// starts.
pub const MAX_SOLVE_RHS: usize = 4096;

/// The one check of a batch of right-hand sides, made at plan time and
/// again by [`FactorHandle::solve_batch`]: between 1 and [`MAX_SOLVE_RHS`]
/// of them, finite, and — once the problem dimension `n` is known — `n`
/// entries each.  Returns how many there are.
pub(super) fn check_rhs(rhs: &SolveRhs, n: Option<usize>) -> Result<usize, EngineError> {
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

/// A computed Cholesky factor bundled with its problem, detached from the
/// borrowed [`Schedule`](crate::Schedule): the unit the HTTP server caches and serves
/// `POST /solve` requests — and hot sequential reports, via
/// [`Schedule::execute_cached`](crate::Schedule::execute_cached) — from.  Obtained via
/// [`Schedule::execute_with_factor`](crate::Schedule::execute_with_factor).
pub struct FactorHandle {
    pub(super) numeric: Arc<NumericModel>,
    pub(super) factor: CholeskyFactor,
    /// The effective configuration the factor was computed for.
    pub(super) config_hash: String,
    /// The numeric section of the report the factor was computed with
    /// (deterministic for a sequential run).
    pub(super) report: NumericReport,
}

impl FactorHandle {
    /// The problem dimension.
    pub fn n(&self) -> usize {
        self.numeric.matrix().n()
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
        let matrix = self.numeric.matrix();
        let row = |i: usize| i * count..(i + 1) * count;
        let mut product = vec![0.0; solutions.len()];
        for j in 0..matrix.n() {
            let (rows, values) = matrix.column(j);
            let xj = &solutions[row(j)];
            for (&i, &v) in rows.iter().zip(values) {
                let i = i as usize;
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
pub(super) fn solve_check(matrix: &sparsemat::SymmetricCsr, factor: &CholeskyFactor) -> f64 {
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
    use crate::config::{EngineConfig, SolveConfig};
    use crate::Engine;
    use sparsemat::gen::ProblemKind;

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
                        .matrix()
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
    fn factor_handles_of_one_plan_share_one_structure() {
        let engine = Engine::new();
        let config = EngineConfig::generated(ProblemKind::Grid2d, 400, 5).with_numeric(true);
        let plan = engine.plan(&config).unwrap();
        let schedule = plan.schedule(&engine).unwrap();
        let (_, first) = schedule.execute_with_factor(&engine).unwrap();
        let (_, second) = schedule.execute_with_factor(&engine).unwrap();
        let (first, second) = (first.unwrap(), second.unwrap());
        let structure = plan.numeric_model().unwrap().structure().clone();
        assert!(Arc::ptr_eq(&first.factor().structure, &structure));
        assert!(Arc::ptr_eq(&second.factor().structure, &structure));
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
}
