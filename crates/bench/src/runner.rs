//! Measurement helpers shared by the experiment binaries.

use std::time::{Duration, Instant};

use treemem::solver::Solver;
use treemem::tree::Size;
use treemem::{Traversal, Tree};

/// Run a closure on a thread with a large stack.  The exact algorithms
/// recurse along the height of the tree, which can approach the number of
/// nodes for chain-like assembly trees (RCM / natural orderings), so the
/// experiment binaries always run their body through this helper.
pub fn run_with_big_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .name("experiment".to_string())
        .stack_size(512 * 1024 * 1024)
        .spawn(f)
        .expect("failed to spawn experiment thread")
        .join()
        .expect("experiment thread panicked")
}

/// Peak, running time and traversal of one MinMemory solver on one tree.
#[derive(Debug, Clone)]
pub struct SolverMeasurement {
    /// The solver.
    pub solver: Solver,
    /// Peak memory of the traversal it produced.
    pub peak: Size,
    /// Wall-clock running time of the solver.
    pub time: Duration,
    /// The traversal it produced (used by the MinIO experiments).
    pub traversal: Traversal,
}

/// The measurements of every applicable solver on one tree, produced by
/// enumerating [`Solver`] values instead of naming algorithms one by one.
#[derive(Debug, Clone)]
pub struct MeasurementSet {
    /// One entry per solver that supports the tree, in the order given.
    pub measurements: Vec<SolverMeasurement>,
}

impl MeasurementSet {
    /// Run every one of `solvers` that supports `tree`, checking the
    /// exactness invariants on the fly (all exact solvers must agree, and no
    /// exact solver may exceed an inexact one).
    pub fn measure_with(tree: &Tree, solvers: &[Solver]) -> Self {
        let mut measurements = Vec::new();
        for solver in solvers.iter().filter(|s| s.supports(tree)) {
            let start = Instant::now();
            let result = solver.solve(tree);
            measurements.push(SolverMeasurement {
                solver: *solver,
                peak: result.peak,
                time: start.elapsed(),
                traversal: result.traversal,
            });
        }
        let set = MeasurementSet { measurements };
        if let Some(optimal) = set.exact_peak() {
            for m in &set.measurements {
                let solver = m.solver.name();
                if m.solver.is_exact() {
                    assert_eq!(m.peak, optimal, "exact solvers must agree ({solver})");
                } else {
                    assert!(
                        m.peak >= optimal,
                        "inexact solver {solver} reported peak {} below the optimum {optimal}",
                        m.peak
                    );
                }
            }
        }
        set
    }

    /// [`MeasurementSet::measure_with`] on [`MEASURED_SOLVERS`].
    pub fn measure(tree: &Tree) -> Self {
        Self::measure_with(tree, &MEASURED_SOLVERS)
    }

    /// The measurement of a given solver, if it ran.
    pub fn get(&self, solver: Solver) -> Option<&SolverMeasurement> {
        self.measurements.iter().find(|m| m.solver == solver)
    }

    /// Peak of a given solver.
    ///
    /// # Panics
    /// Panics if the solver did not run on this tree.
    pub fn peak_of(&self, solver: Solver) -> Size {
        self.get(solver)
            .unwrap_or_else(|| panic!("no measurement for solver {}", solver.name()))
            .peak
    }

    /// The optimal peak: the value every exact solver agreed on, if any ran.
    pub fn exact_peak(&self) -> Option<Size> {
        self.measurements
            .iter()
            .find(|m| m.solver.is_exact())
            .map(|m| m.peak)
    }
}

/// The solvers [`MeasurementSet::measure`] runs: the four polynomial ones,
/// i.e. every [`Solver`] but the brute-force oracle (whose cost is
/// exponential).
pub const MEASURED_SOLVERS: [Solver; 4] = [
    Solver::NaturalPostorder,
    Solver::BestPostorder,
    Solver::Liu,
    Solver::MinMem,
];

/// The memory sizes at which the MinIO experiments are run for a given
/// traversal: fractions of the way from the largest single-node requirement
/// (below which no execution is possible) to the traversal's peak (above
/// which no I/O is needed).  Delegates to [`engine::MemoryBudget::resolve`],
/// the single definition of the fraction convention.
pub fn memory_sweep(tree: &Tree, traversal_peak: Size, fractions: &[f64]) -> Vec<Size> {
    let lower = tree.max_mem_req();
    fractions
        .iter()
        .map(|&fraction| {
            engine::MemoryBudget::FractionOfPeak(fraction).resolve(lower, traversal_peak)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use treemem::gadgets::harpoon;

    #[test]
    fn measurement_reports_consistent_values() {
        let tree = harpoon(4, 400, 1);
        let set = MeasurementSet::measure(&tree);
        assert_eq!(set.peak_of(Solver::Liu), set.peak_of(Solver::MinMem));
        assert_eq!(set.peak_of(Solver::MinMem), 404);
        assert_eq!(set.peak_of(Solver::BestPostorder), 701);
        assert_eq!(set.exact_peak(), Some(404));
        let postorder = set.get(Solver::BestPostorder).unwrap();
        assert_eq!(postorder.traversal.len(), tree.len());
        assert!(
            set.get(Solver::Brute).is_none(),
            "the oracle is excluded from measure()"
        );
    }

    #[test]
    fn every_solver_includes_the_oracle_on_tiny_trees() {
        let tree = harpoon(3, 30, 1);
        let set = MeasurementSet::measure_with(&tree, &Solver::ALL);
        assert!(set.get(Solver::Brute).is_some());
        assert_eq!(set.peak_of(Solver::Brute), set.peak_of(Solver::MinMem));
    }

    #[test]
    fn memory_sweep_spans_the_range() {
        let tree = harpoon(4, 400, 1);
        let sweep = memory_sweep(&tree, 701, &[0.0, 0.5, 1.0]);
        assert_eq!(sweep[0], tree.max_mem_req());
        assert_eq!(sweep[2], 701);
        assert!(sweep[1] > sweep[0] && sweep[1] < sweep[2]);
    }

    #[test]
    fn big_stack_runner_returns_the_value() {
        assert_eq!(run_with_big_stack(|| 6 * 7), 42);
    }
}
