//! Golden parity: the engine's plan → schedule → execute flow must reproduce
//! the manually stitched pipeline bit for bit, and a batch of runs fanned
//! over the `par_map` worker pool must be independent of the worker count.

use engine::parallel::par_map;
use engine::prelude::*;
use minio::{divisible_lower_bound, schedule_io_with};
use ordering::OrderingMethod;
use sparsemat::gen::ProblemKind;
use symbolic::assembly_tree_for;
use treemem::minmem::min_mem;

/// For every `ProblemKind × OrderingMethod` cell, the engine reproduces the
/// hand-stitched pipeline exactly: same tree, same traversal, same peak,
/// same I/O volume and same divisible bound.
#[test]
fn engine_reproduces_the_manual_pipeline_bit_for_bit() {
    let engine = Engine::new();
    let (nodes, seed, allowance, fraction) = (150usize, 3u64, 4usize, 0.25f64);
    for kind in ProblemKind::ALL {
        for method in OrderingMethod::ALL {
            let context = format!("{} / {}", kind.name(), method.name());

            // The manual pipeline, stitched by hand as before the facade.
            let pattern = kind.generate(nodes, seed);
            let assembly = assembly_tree_for(&pattern, method, allowance);
            let tree = &assembly.tree;
            let optimal = min_mem(tree);
            let lower = tree.max_mem_req();
            let memory =
                lower + (((optimal.peak - lower) as f64) * fraction).round() as treemem::tree::Size;
            let manual_run =
                schedule_io_with(tree, &optimal.traversal, memory, Policy::FirstFit).unwrap();
            let manual_bound = divisible_lower_bound(tree, &optimal.traversal, memory).unwrap();

            // The same cell through the engine.
            let config = EngineConfig::generated(kind, nodes, seed)
                .with_ordering(method)
                .with_amalgamation(allowance)
                .with_solver("minmem")
                .with_policy("FirstFit")
                .with_memory(MemoryBudget::FractionOfPeak(fraction));
            let plan = engine.plan(&config).unwrap();
            assert_eq!(plan.tree(), tree, "{context}: tree");
            let schedule = plan.schedule(&engine).unwrap();
            assert_eq!(
                schedule.traversal(),
                &optimal.traversal,
                "{context}: traversal"
            );
            assert_eq!(schedule.peak(), optimal.peak, "{context}: peak");
            assert_eq!(schedule.memory_budget(), memory, "{context}: budget");
            assert_eq!(
                schedule.io_volume(),
                manual_run.io_volume,
                "{context}: io volume"
            );
            assert_eq!(
                schedule.io_run().schedule,
                manual_run.schedule,
                "{context}: eviction schedule"
            );
            assert_eq!(
                schedule.divisible_bound(),
                manual_bound,
                "{context}: divisible bound"
            );

            // The report carries the same numbers.
            let report = schedule.execute(&engine).unwrap();
            assert_eq!(report.io_volume, manual_run.io_volume, "{context}");
            assert_eq!(report.solver_peak, optimal.peak, "{context}");
            assert_eq!(report.traversal, optimal.traversal.order(), "{context}");
            assert_eq!(report.nodes, tree.len(), "{context}");
        }
    }
}

/// A batch of `Engine::run` calls over `par_map` is independent of the
/// worker count: one worker and many workers produce identical results
/// (modulo wall-clock timings), in input order.
#[test]
fn batch_results_are_independent_of_the_worker_count() {
    let engine = Engine::new();
    let mut configs = Vec::new();
    for kind in [
        ProblemKind::Grid2d,
        ProblemKind::Banded,
        ProblemKind::Random,
    ] {
        for fraction in [0.0, 0.5] {
            configs.push(
                EngineConfig::generated(kind, 120, 11)
                    .with_policy("BestFill")
                    .with_memory(MemoryBudget::FractionOfPeak(fraction)),
            );
        }
    }
    let serial = par_map(&configs, 1, |_, config| engine.run(config));
    let parallel = par_map(&configs, 4, |_, config| engine.run(config));
    assert_eq!(serial.len(), configs.len());
    for ((a, b), config) in serial.iter().zip(&parallel).zip(&configs) {
        let a = a.as_ref().expect("batch cell succeeds");
        let b = b.as_ref().expect("batch cell succeeds");
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.config_hash, config.hash(), "results stay in input order");
    }
}

/// The facade validates early: a batch with a bad cell reports the error in
/// that cell's slot without poisoning the others.
#[test]
fn batch_errors_stay_in_their_cell() {
    let engine = Engine::new();
    let configs = vec![
        EngineConfig::generated(ProblemKind::Grid2d, 100, 1),
        EngineConfig::generated(ProblemKind::Grid2d, 100, 1).with_solver("nope"),
    ];
    let results = par_map(&configs, 2, |_, config| engine.run(config));
    assert!(results[0].is_ok());
    assert!(matches!(results[1], Err(EngineError::UnknownName(_))));
}
