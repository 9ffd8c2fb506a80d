//! Cross-crate integration tests: the full pipeline from a sparse matrix to
//! traversals, out-of-core schedules and the numeric factorization, driven
//! through the `engine` facade.

use engine::prelude::*;
use minio::check_out_of_core;
use multifrontal::numeric::SymbolicStructure;
use ordering::OrderingMethod;
use sparsemat::gen::ProblemKind;
use symbolic::{column_counts, elimination_tree};

/// The full symbolic pipeline produces trees on which every
/// MinMemory solver satisfies all the paper's ordering relations, for every
/// problem kind and every ordering method.
#[test]
fn minmemory_invariants_across_the_whole_corpus() {
    let engine = Engine::new();
    for kind in ProblemKind::ALL {
        for method in OrderingMethod::ALL {
            for allowance in [1usize, 4] {
                let config = EngineConfig::generated(kind, 200, 3)
                    .with_ordering(method)
                    .with_amalgamation(allowance);
                let plan = engine.plan(&config).unwrap();
                let tree = plan.tree();
                let context = format!("{} / {} / a{}", kind.name(), method.name(), allowance);
                let results: Vec<_> = Solver::ALL
                    .into_iter()
                    .filter(|s| s.supports(tree))
                    .map(|s| {
                        let (result, _) = plan.solve(&engine, s.name()).unwrap();
                        (s.name(), s.is_exact(), result)
                    })
                    .collect();
                let optimal = results
                    .iter()
                    .find(|(_, exact, _)| *exact)
                    .map(|(_, _, r)| r.peak)
                    .expect("an exact solver always runs");
                for (name, exact, result) in &results {
                    if *exact {
                        assert_eq!(
                            result.peak, optimal,
                            "{context}: exact solver {name} disagrees"
                        );
                    } else {
                        assert!(
                            result.peak >= optimal,
                            "{context}: optimal above inexact solver {name}"
                        );
                    }
                    assert!(
                        result.peak >= tree.max_mem_req(),
                        "{context}: {name} below MemReq bound"
                    );
                    assert_eq!(
                        result.peak,
                        result.traversal.peak_memory(tree).unwrap(),
                        "{context}: {name} reported peak does not match the traversal"
                    );
                }
                let peak_of = |solver: &str| {
                    results
                        .iter()
                        .find(|(name, _, _)| *name == solver)
                        .map(|(_, _, r)| r.peak)
                        .expect("built-in solver ran")
                };
                assert!(
                    peak_of("postorder") <= peak_of("natural"),
                    "{context}: best postorder above natural"
                );
            }
        }
    }
}

/// The elimination tree and column counts underlying an engine plan agree
/// with the factor structure computed independently by the multifrontal
/// crate.
#[test]
fn symbolic_structure_consistency() {
    let engine = Engine::new();
    let config = EngineConfig::generated(ProblemKind::Grid3d, 350, 5)
        .with_ordering(OrderingMethod::MinimumDegree);
    let plan = engine.plan(&config).unwrap();
    let permuted = plan.permuted_pattern().expect("matrix source");
    let etree = elimination_tree(permuted);
    let counts = column_counts(permuted, &etree);
    let structure = SymbolicStructure::from_pattern(permuted);
    assert_eq!(structure.column_counts(), counts);
    assert_eq!(*structure.etree, etree);
}

/// Out-of-core schedules produced by every policy validate under
/// the independent Algorithm-2 checker on assembly trees, and never beat the
/// divisible lower bound.  One plan serves every (memory, policy) cell.
#[test]
fn minio_policies_are_consistent_on_assembly_trees() {
    let engine = Engine::new();
    let config = EngineConfig::generated(ProblemKind::Random, 300, 11)
        .with_ordering(OrderingMethod::MinimumDegree)
        .with_amalgamation(1)
        .with_solver("minmem");
    let plan = engine.plan(&config).unwrap();
    let tree = plan.tree();
    for step in 0..3 {
        let fraction = step as f64 / 3.0;
        for policy in Policy::ALL.map(Policy::name) {
            let schedule = plan
                .schedule_with(
                    &engine,
                    ScheduleSpec::default()
                        .policy(policy)
                        .memory(MemoryBudget::FractionOfPeak(fraction)),
                )
                .unwrap();
            let run = schedule.io_run();
            let check = check_out_of_core(
                tree,
                schedule.traversal(),
                &run.schedule,
                schedule.memory_budget(),
            )
            .unwrap();
            assert_eq!(check.io_volume, run.io_volume, "{policy}");
            assert!(run.io_volume >= schedule.divisible_bound(), "{policy}");
            assert!(run.peak_memory <= schedule.memory_budget(), "{policy}");
        }
    }
}

/// The numeric multifrontal factorization uses exactly the memory the
/// per-column model predicts for whichever traversal drives it (Section II-A
/// of the paper), solves linear systems correctly, and orders the peaks
/// optimal ≤ best postorder ≤ stored-order postorder of the elimination tree.
#[test]
fn numeric_factorization_matches_the_model_end_to_end() {
    let engine = Engine::new();
    for (kind, seed) in [
        (ProblemKind::Grid2d, 9),
        (ProblemKind::Grid2d, 1),
        (ProblemKind::Grid2d9, 2),
        (ProblemKind::Random, 3),
    ] {
        // Unpermuted, so the elimination tree is the generated pattern's own.
        let base = EngineConfig::generated(kind, 400, seed)
            .with_ordering(OrderingMethod::Natural)
            .with_numeric(true);
        let [natural, postorder, optimal] = ["natural", "postorder", "minmem"].map(|solver| {
            let run = engine
                .run(&base.clone().with_solver(solver))
                .unwrap()
                .numeric
                .expect("numeric stage ran");
            let context = format!("{}/{seed}/{solver}", kind.name());
            assert_eq!(
                run.measured_peak_entries as i64, run.model_peak_entries,
                "{context}"
            );
            assert!(
                run.solve_error < 1e-7,
                "{context}: solve error {}",
                run.solve_error
            );
            run
        });
        assert!(optimal.measured_peak_entries <= postorder.measured_peak_entries);
        assert!(postorder.measured_peak_entries <= natural.measured_peak_entries);
        assert_eq!(optimal.factor_nnz, postorder.factor_nnz);
        assert_eq!(optimal.factor_nnz, natural.factor_nnz);
    }
}

/// Amalgamation trades tree size against node granularity but never changes
/// the total amount of factor data hanging below the root by more than the
/// grouping effect: sanity-check a few global invariants across allowances,
/// derived from one plan via `reamalgamate`.
#[test]
fn amalgamation_invariants_across_allowances() {
    let engine = Engine::new();
    let base = engine
        .plan(
            &EngineConfig::generated(ProblemKind::Grid2d, 300, 21)
                .with_ordering(OrderingMethod::NestedDissection)
                .with_amalgamation(1),
        )
        .unwrap();
    let matrix_n = base.matrix_n();
    let mut previous_nodes = usize::MAX;
    for allowance in [1usize, 2, 4, 16] {
        let plan = base.reamalgamate(allowance).unwrap();
        let assembly = plan.assembly().expect("matrix source");
        // Tree sizes shrink (weakly) as the allowance grows.
        assert!(assembly.len() <= previous_nodes);
        previous_nodes = assembly.len();
        // Every column of the matrix appears in exactly one group.
        let grouped: usize = assembly.eta.iter().sum();
        assert_eq!(grouped, matrix_n);
        // Weights follow the paper's formulas.
        for g in 0..assembly.len() {
            if assembly.group(g).is_empty() {
                continue;
            }
            let eta = assembly.eta[g] as i64;
            let mu = assembly.mu[g] as i64;
            assert_eq!(assembly.tree.n(g), eta * eta + 2 * eta * (mu - 1));
        }
    }
}
