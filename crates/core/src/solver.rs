//! The MinMemory algorithms as one closed set.
//!
//! The crate produces a traversal and its peak memory in five ways: the
//! natural postorder, the best postorder (Liu 1986), Liu's exact
//! hill–valley algorithm (1987), the paper's `MinMem` (Algorithms 3–4) and
//! a brute-force oracle for tiny trees.  [`Solver`] names each of them, so
//! callers that compare them — the experiment harness, the sweep engine,
//! integration tests — iterate [`Solver::ALL`], and names exist only at the
//! edges (configurations, reports) through [`FromStr`].
//!
//! [`Solver::solve_with_stop`] is the one entry point: every solver polls a
//! cooperative stop probe once per [`STOP_CHECK_INTERVAL`] nodes of its
//! loops (MinMem: steps of its explorations and restarts), so a caller with
//! a deadline gets `None` back within a fraction of a millisecond of the
//! probe firing.
//!
//! ```
//! use treemem::gadgets::harpoon;
//! use treemem::solver::Solver;
//!
//! let tree = harpoon(3, 300, 1);
//! for solver in Solver::ALL.into_iter().filter(|s| s.supports(&tree)) {
//!     let result = solver.solve(&tree);
//!     assert_eq!(result.peak, result.traversal.peak_memory(&tree).unwrap());
//! }
//! ```

use std::str::FromStr;

use crate::brute::brute_force_optimal;
use crate::liu::liu_exact_until;
use crate::minmem::min_mem_until;
use crate::postorder::{best_postorder_until, natural_postorder_until};
use crate::registry::UnknownName;
use crate::tree::Tree;
use crate::TraversalResult;

/// Largest tree [`Solver::Brute`] supports.  The oracle's hard cap is
/// [`crate::brute::MAX_BRUTE_FORCE_NODES`] (a bitmask width), but its state
/// space is exponential, so generic enumeration — sweeps, tests over
/// [`Solver::ALL`] — must stop well before that.
pub const BRUTE_FORCE_PRACTICAL_NODES: usize = 18;

/// How many nodes a solver processes between two polls of its stop probe;
/// bounds the cancellation latency to a fraction of a millisecond.
pub const STOP_CHECK_INTERVAL: usize = 1024;

/// A solver's stop probe and its tick count: [`Probe::stopped`] polls the
/// probe on ticks 0, [`STOP_CHECK_INTERVAL`], 2 × [`STOP_CHECK_INTERVAL`], …
pub(crate) struct Probe<'a> {
    stop: Option<&'a dyn Fn() -> bool>,
    ticks: usize,
}

impl<'a> Probe<'a> {
    pub(crate) fn new(stop: Option<&'a dyn Fn() -> bool>) -> Self {
        Probe { stop, ticks: 0 }
    }

    /// Count one tick; whether the probe was polled on it and fired.
    #[inline]
    pub(crate) fn stopped(&mut self) -> bool {
        let tick = self.ticks;
        self.ticks += 1;
        tick.is_multiple_of(STOP_CHECK_INTERVAL) && self.stop.is_some_and(|probe| probe())
    }
}

/// Test builds: how many times the solvers' scratch buffers grew, counted
/// per thread.  A solver calls [`growth::track`] with its buffers'
/// capacities after every node it processes; the count gate reads
/// [`growth::take`].
#[cfg(test)]
pub(crate) mod growth {
    use std::cell::Cell;

    thread_local! {
        static GROWTHS: Cell<usize> = const { Cell::new(0) };
    }

    /// Count the capacities that changed since `before`, then remember `now`.
    pub(crate) fn track<const N: usize>(before: &mut [usize; N], now: [usize; N]) {
        let changed = before.iter().zip(&now).filter(|(a, b)| a != b).count();
        GROWTHS.with(|growths| growths.set(growths.get() + changed));
        *before = now;
    }

    /// The growths counted on this thread since the last call.
    pub(crate) fn take() -> usize {
        GROWTHS.with(|growths| growths.replace(0))
    }
}

/// A MinMemory algorithm: produces a valid traversal of a tree together with
/// its peak memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Solver {
    /// The postorder following the stored child order
    /// ([`natural_postorder`](crate::postorder::natural_postorder)); the
    /// baseline a solver uses when it does not reorder children.
    NaturalPostorder,
    /// Liu's best postorder
    /// ([`best_postorder`](crate::postorder::best_postorder)); the ordering
    /// used by practical multifrontal solvers, optimal among postorders but
    /// not in general.
    BestPostorder,
    /// Liu's exact hill–valley algorithm ([`liu_exact`](crate::liu::liu_exact)).
    Liu,
    /// The paper's `MinMem` algorithm
    /// ([`min_mem`](crate::minmem::min_mem), Algorithms 3 and 4).
    MinMem,
    /// The exponential brute-force oracle ([`brute_force_optimal`]); supports
    /// only trees of at most [`BRUTE_FORCE_PRACTICAL_NODES`] nodes.
    Brute,
}

impl Solver {
    /// Every solver, in the order reports list them.
    pub const ALL: [Solver; 5] = [
        Solver::NaturalPostorder,
        Solver::BestPostorder,
        Solver::Liu,
        Solver::MinMem,
        Solver::Brute,
    ];

    /// Short stable identifier (configurations, reports and JSON output).
    pub fn name(self) -> &'static str {
        match self {
            Solver::NaturalPostorder => "natural",
            Solver::BestPostorder => "postorder",
            Solver::Liu => "liu",
            Solver::MinMem => "minmem",
            Solver::Brute => "brute",
        }
    }

    /// Whether the solver returns the exact MinMemory optimum.
    pub fn is_exact(self) -> bool {
        !matches!(self, Solver::NaturalPostorder | Solver::BestPostorder)
    }

    /// Whether the solver can handle `tree`: every solver but the brute
    /// force, which stops at [`BRUTE_FORCE_PRACTICAL_NODES`].
    pub fn supports(self, tree: &Tree) -> bool {
        self != Solver::Brute || tree.len() <= BRUTE_FORCE_PRACTICAL_NODES
    }

    /// Compute a traversal of `tree` and its peak memory, polling `stop`
    /// every [`STOP_CHECK_INTERVAL`] nodes: `None` means it fired and the
    /// partial work was dropped.  The brute force, bounded to
    /// [`BRUTE_FORCE_PRACTICAL_NODES`], polls once before it starts.
    ///
    /// # Panics
    /// May panic when `supports(tree)` is false.
    pub fn solve_with_stop(
        self,
        tree: &Tree,
        stop: Option<&dyn Fn() -> bool>,
    ) -> Option<TraversalResult> {
        let probe = &mut Probe::new(stop);
        match self {
            Solver::NaturalPostorder => natural_postorder_until(tree, probe).map(Into::into),
            Solver::BestPostorder => best_postorder_until(tree, probe).map(Into::into),
            Solver::Liu => liu_exact_until(tree, probe).map(Into::into),
            Solver::MinMem => min_mem_until(tree, probe).map(Into::into),
            Solver::Brute => (!probe.stopped()).then(|| brute_force_optimal(tree)),
        }
    }

    /// [`Solver::solve_with_stop`] without a probe; kept for the
    /// `benchmark/` package, which calls it (ROADMAP item 26 removes it).
    pub fn solve(self, tree: &Tree) -> TraversalResult {
        self.solve_with_stop(tree, None)
            .expect("no stop probe, cannot be cancelled")
    }
}

impl FromStr for Solver {
    type Err = UnknownName;

    fn from_str(name: &str) -> Result<Self, UnknownName> {
        Solver::ALL
            .into_iter()
            .find(|solver| solver.name() == name)
            .ok_or_else(|| UnknownName {
                kind: "solver",
                name: name.to_string(),
                known: Solver::ALL.map(|s| s.name().to_string()).to_vec(),
            })
    }
}

/// Name lookup kept for the `benchmark/` package, which resolves solvers
/// through it; it goes once the benchmark parses names with
/// [`str::parse`] (ROADMAP item 5).
pub struct SolverRegistry;

impl SolverRegistry {
    /// The lookup over [`Solver::ALL`].
    pub fn with_builtin() -> Self {
        SolverRegistry
    }

    /// `name.parse()`: the solver, or an [`UnknownName`] listing them all.
    pub fn get_or_err(&self, name: &str) -> Result<Solver, UnknownName> {
        name.parse()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gadgets::harpoon;

    #[test]
    fn names_round_trip_and_unknown_names_list_every_solver() {
        for solver in Solver::ALL {
            assert_eq!(solver.name().parse(), Ok(solver));
            assert_eq!(
                SolverRegistry::with_builtin().get_or_err(solver.name()),
                Ok(solver)
            );
        }
        let names = ["natural", "postorder", "liu", "minmem", "brute"];
        assert_eq!(Solver::ALL.map(Solver::name), names);
        let err = "nope".parse::<Solver>().unwrap_err();
        assert_eq!(
            err,
            UnknownName {
                kind: "solver",
                name: "nope".to_string(),
                known: names.map(String::from).to_vec(),
            }
        );
        assert_eq!(
            err.to_string(),
            "unknown solver 'nope' (registered: natural, postorder, liu, minmem, brute)"
        );
    }

    #[test]
    fn exact_solvers_agree_and_dominate_postorders() {
        let tree = harpoon(4, 400, 1);
        let exact: Vec<_> = Solver::ALL
            .into_iter()
            .filter(|s| s.is_exact() && s.supports(&tree))
            .map(|s| s.solve(&tree).peak)
            .collect();
        assert!(!exact.is_empty());
        assert!(
            exact.windows(2).all(|w| w[0] == w[1]),
            "exact solvers disagree: {exact:?}"
        );
        for solver in Solver::ALL.into_iter().filter(|s| !s.is_exact()) {
            assert!(solver.solve(&tree).peak >= exact[0], "{}", solver.name());
        }
    }

    #[test]
    fn node_limits_gate_the_brute_force() {
        let small = harpoon(3, 30, 1);
        let large = harpoon(30, 300, 1); // 91 nodes
        assert!(Solver::Brute.supports(&small));
        assert!(!Solver::Brute.supports(&large));
        assert!(Solver::ALL
            .into_iter()
            .filter(|&s| s != Solver::Brute)
            .all(|s| s.supports(&large)));
    }

    #[test]
    fn solved_peaks_match_their_traversals() {
        let tree = harpoon(4, 40, 3);
        for solver in Solver::ALL.into_iter().filter(|s| s.supports(&tree)) {
            let result = solver.solve(&tree);
            assert_eq!(
                result.peak,
                result.traversal.peak_memory(&tree).unwrap(),
                "{}",
                solver.name()
            );
        }
    }

    /// A probe that fires on its `k`-th poll stops every solver there — it
    /// is not polled again — and a probe that never fires changes nothing.
    /// The 5 000-node tree takes every solver through several polls; the
    /// brute force polls once, before it starts.
    #[test]
    fn a_probe_firing_on_its_kth_poll_stops_every_solver() {
        use crate::random::random_attachment_tree;
        use std::cell::Cell;

        let large = random_attachment_tree(5_000, 100, 10, 3);
        let small = harpoon(3, 30, 1);
        for solver in Solver::ALL {
            let tree = if solver.supports(&large) {
                &large
            } else {
                &small
            };
            let polls = Cell::new(0usize);
            let quiet = || {
                polls.set(polls.get() + 1);
                false
            };
            assert_eq!(
                solver.solve_with_stop(tree, Some(&quiet)),
                Some(solver.solve(tree)),
                "{}",
                solver.name()
            );
            let total = polls.get();
            assert!(
                total >= if solver == Solver::Brute { 1 } else { 4 },
                "{} polled {total} times",
                solver.name()
            );
            for k in [1, 2, total].into_iter().filter(|&k| k <= total) {
                polls.set(0);
                let fires_on_kth = || {
                    polls.set(polls.get() + 1);
                    polls.get() == k
                };
                assert_eq!(
                    solver.solve_with_stop(tree, Some(&fires_on_kth)),
                    None,
                    "{} survived a probe firing on poll {k}",
                    solver.name()
                );
                assert_eq!(polls.get(), k, "{} kept polling", solver.name());
            }
        }
    }
}
