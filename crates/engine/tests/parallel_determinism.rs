//! The execution-mode determinism battery.
//!
//! The contract of the numeric pipeline is that the execution mode and the
//! worker count are *pure performance knobs*: for any problem, the computed
//! factor, the solve residual and the whole report (modulo wall-clock
//! timings, the mode's own report section and the interleaving-dependent
//! measured peak) are bit-identical whether the subtree tasks run inline
//! (sequential), on 1, 2, 4 or 8 pool workers, or in other processes
//! (distributed).  The battery also covers the budget ledger's edge cases:
//! a budget smaller than the largest single subtree (or frontal matrix)
//! must degrade to sequential execution, not deadlock.

use std::collections::BTreeSet;
use std::sync::Arc;

use engine::prelude::*;
use multifrontal::numeric::eliminate_columns;
use multifrontal::parallel::{column_slices, BudgetLedger};
use multifrontal::{multifrontal_cholesky, ContributionStore, FrontArena, SymbolicStructure};
use sparsemat::gen::{spd_matrix_from_pattern, ProblemKind};
use treemem::partition::{default_node_work, proportional_cut};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const ORDERINGS: [OrderingMethod; 2] = [
    OrderingMethod::NestedDissection,
    OrderingMethod::MinimumDegree,
];
const AMALGAMATIONS: [usize; 2] = [1, 16];
/// Cut granularity of every pool and distributed run below.
const MAX_TASKS: usize = 8;

fn battery_nodes(kind: ProblemKind) -> usize {
    match kind {
        // The 3-D grid rounds to a cube; give it enough for 5³.
        ProblemKind::Grid3d => 125,
        _ => 150,
    }
}

fn numeric_config(kind: ProblemKind) -> EngineConfig {
    EngineConfig::generated(kind, battery_nodes(kind), 11)
        .with_ordering(OrderingMethod::NestedDissection)
        .with_numeric(true)
}

/// The mode-independent identity of a run: the fingerprint with the mode's
/// own section and the measured peak (which legitimately differ between
/// modes) blanked.
fn outcome(report: &Report) -> String {
    let mut report = report.clone();
    report.parallel = None;
    report.distributed = None;
    if let Some(numeric) = &mut report.numeric {
        numeric.measured_peak_entries = 0;
    }
    report.fingerprint()
}

/// Run `config` (which carries a distributed section) the way a coordinator
/// and its workers would, in one process: cut, factor every task
/// independently through [`Plan::factor_subtree`], merge — the merge on
/// `coordinator`, everything before it on the token-free `engine`.
fn distributed_in_process(
    engine: &Engine,
    coordinator: &Engine,
    config: &EngineConfig,
) -> Result<(Report, FactorHandle), EngineError> {
    let plan = engine.plan(config)?;
    let schedule = plan.schedule(engine)?;
    let cut = schedule.distributed_cut(engine)?;
    let contributions: Vec<SubtreeParts> = (0..cut.task_count())
        .map(|task| plan.factor_subtree(cut.task_order(task), None))
        .collect::<Result<_, _>>()?;
    let (report, handle) = schedule.execute_distributed(
        coordinator,
        cut,
        contributions,
        DistributedRuntime::default(),
    )?;
    Ok((report, handle.expect("a numeric run returns its factor")))
}

fn assert_numeric_cancellation<T>(result: Result<T, EngineError>, mode: &str) {
    match result {
        Err(EngineError::Cancelled { stage, .. }) => assert_eq!(stage, "numeric", "{mode}"),
        Err(other) => panic!("{mode}: expected Cancelled, got {other:?}"),
        Ok(_) => panic!("{mode}: expected Cancelled, got a result"),
    }
}

/// The differential matrix: every problem kind × ordering × amalgamation
/// through every execution mode — sequential, pool at 1/2/4/8 workers,
/// distributed in-process — yields exactly one outcome and one flat value
/// array (over one shared structure where the runs share a plan), reports
/// are bit-identical across worker counts, the sequential measured peak
/// equals the model's and every other mode stays within its shared budget.
#[test]
fn reports_are_bit_identical_for_every_worker_count_and_kind() {
    let engine = Engine::new();
    for kind in ProblemKind::ALL {
        for ordering in ORDERINGS {
            for amalgamation in AMALGAMATIONS {
                let cell = format!("{kind:?}/{}/a{amalgamation}", ordering.name());
                let config = numeric_config(kind)
                    .with_ordering(ordering)
                    .with_amalgamation(amalgamation);
                let plan = engine.plan(&config).unwrap();
                let run_pool = |parallel: ParallelConfig| {
                    let (report, handle) = plan
                        .schedule_with(&engine, ScheduleSpec::default().parallel(parallel))
                        .unwrap()
                        .execute_with_factor(&engine)
                        .unwrap();
                    (report, handle.unwrap())
                };

                let (sequential, sequential_handle) = plan
                    .schedule(&engine)
                    .unwrap()
                    .execute_with_factor(&engine)
                    .unwrap();
                let sequential_handle = sequential_handle.unwrap();
                let reference = sequential_handle.factor();
                assert!(sequential.parallel.is_none() && sequential.distributed.is_none());
                let sequential_numeric = sequential.numeric.as_ref().unwrap();
                assert!(
                    sequential_numeric.solve_error < 1e-6,
                    "{cell}: sequential residual {}",
                    sequential_numeric.solve_error
                );
                assert_eq!(
                    sequential_numeric.measured_peak_entries as i64,
                    sequential_numeric.model_peak_entries,
                    "{cell}: the model must predict the sequential footprint exactly"
                );
                let mut outcomes = BTreeSet::from([outcome(&sequential)]);

                // A budget of (merge peak + largest task peak) always
                // suffices (see `tight_budgets_run_without_forced_admissions`),
                // so under it `measured <= budget` must hold on every run.
                let (probe, _) =
                    run_pool(ParallelConfig::with_workers(1).with_max_tasks(MAX_TASKS));
                let probe_cut = &probe.parallel.as_ref().unwrap().cut;
                let budget = probe_cut.merge_peak_entries + probe_cut.max_task_peak_entries;
                let share = BudgetShare::Entries(budget);

                let mut fingerprints = BTreeSet::new();
                for workers in WORKER_COUNTS {
                    let (report, handle) = run_pool(
                        ParallelConfig::with_workers(workers)
                            .with_max_tasks(MAX_TASKS)
                            .with_budget(share),
                    );
                    assert!(
                        Arc::ptr_eq(&handle.factor().structure, &reference.structure),
                        "{cell} at {workers} workers: one plan, one structure"
                    );
                    assert_eq!(
                        handle.factor().values,
                        reference.values,
                        "{cell} at {workers} workers"
                    );
                    let parallel_report = report.parallel.as_ref().unwrap();
                    assert_eq!(parallel_report.workers, workers, "{cell}");
                    assert_eq!(
                        parallel_report.cut.subtree_count,
                        parallel_report.task_seconds.len(),
                        "{cell}"
                    );
                    assert!(
                        parallel_report.measured_peak_entries <= budget,
                        "{cell} at {workers} workers: measured {} > budget {budget}",
                        parallel_report.measured_peak_entries
                    );
                    // The residual is a function of the factor alone: bit
                    // equality means the factor did not depend on the mode.
                    assert_eq!(
                        report.numeric.as_ref().unwrap().solve_error.to_bits(),
                        sequential_numeric.solve_error.to_bits(),
                        "{cell} at {workers} workers"
                    );
                    fingerprints.insert(report.fingerprint());
                    outcomes.insert(outcome(&report));
                }
                assert_eq!(fingerprints.len(), 1, "{cell}: pool reports differ");

                let sharded = config
                    .clone()
                    .with_distributed(DistributedConfig::with_tasks(MAX_TASKS).with_budget(share));
                let (report, handle) = distributed_in_process(&engine, &engine, &sharded).unwrap();
                assert_eq!(
                    handle.factor().values,
                    reference.values,
                    "{cell}: distributed"
                );
                let section = report.distributed.as_ref().unwrap();
                // The pool and the coordinator derive the same cut.
                let expected_cut = CutReport {
                    budget_entries: Some(budget),
                    ..probe_cut.clone()
                };
                assert_eq!(section.cut, expected_cut, "{cell}");
                assert!(
                    report.numeric.as_ref().unwrap().measured_peak_entries as u64 <= budget,
                    "{cell}: distributed merge exceeded the budget"
                );
                outcomes.insert(outcome(&report));

                assert_eq!(outcomes.len(), 1, "{cell}: execution modes disagree");
            }
        }
    }
}

/// A pre-fired token stops the numeric stage of every execution mode with
/// the typed cancellation, and the same schedule completes afterwards (a
/// wedged budget gate would hang it).
#[test]
fn a_fired_token_cancels_the_numeric_stage_in_every_mode() {
    let engine = Engine::new();
    let token = CancelToken::new();
    token.cancel();
    let cancelled = engine.with_cancel(token.clone());
    let sequential = numeric_config(ProblemKind::Grid2d);
    let pooled = sequential
        .clone()
        .with_parallel(ParallelConfig::with_workers(2).with_max_tasks(MAX_TASKS));
    for (mode, config) in [("sequential", &sequential), ("pool", &pooled)] {
        let plan = engine.plan(config).unwrap();
        let schedule = plan.schedule(&engine).unwrap();
        assert_numeric_cancellation(schedule.execute_with_factor(&cancelled), mode);
        assert!(schedule.execute(&engine).is_ok(), "{mode}");
    }
    let sharded = sequential
        .clone()
        .with_distributed(DistributedConfig::with_tasks(MAX_TASKS));
    // The worker side polls its token too...
    let plan = engine.plan(&sharded).unwrap();
    let cut = plan
        .schedule(&engine)
        .unwrap()
        .distributed_cut(&engine)
        .unwrap();
    assert_numeric_cancellation(
        plan.factor_subtree(cut.task_order(0), Some(&token)),
        "distributed worker",
    );
    // ...and so does the coordinator's merge.
    assert_numeric_cancellation(
        distributed_in_process(&engine, &cancelled, &sharded),
        "distributed merge",
    );
    assert!(distributed_in_process(&engine, &engine, &sharded).is_ok());
}

/// A budget far below the largest single subtree peak (one entry!) must
/// degrade to one-task-at-a-time execution — oversized tasks are admitted
/// alone — and still produce the exact factor, at every worker count.
#[test]
fn undersized_budgets_degrade_to_sequential_instead_of_deadlocking() {
    let engine = Engine::new();
    let config = numeric_config(ProblemKind::Grid2d);
    let plan = engine.plan(&config).unwrap();
    let sequential = plan.schedule(&engine).unwrap().execute(&engine).unwrap();
    let baseline = sequential.numeric.as_ref().unwrap();

    for workers in WORKER_COUNTS {
        let parallel = ParallelConfig::with_workers(workers)
            .with_max_tasks(8)
            .with_budget(BudgetShare::Entries(1));
        let report = plan
            .schedule_with(&engine, ScheduleSpec::default().parallel(parallel))
            .unwrap()
            .execute(&engine)
            .unwrap();
        let parallel_report = report.parallel.as_ref().unwrap();
        assert_eq!(parallel_report.cut.budget_entries, Some(1));
        // Every task is oversized, every admission is forced.
        assert_eq!(
            parallel_report.cut.oversized_tasks,
            parallel_report.cut.subtree_count
        );
        assert_eq!(
            parallel_report.forced_admissions,
            parallel_report.cut.subtree_count as u64
        );
        let numeric = report.numeric.as_ref().unwrap();
        assert_eq!(
            numeric.solve_error.to_bits(),
            baseline.solve_error.to_bits()
        );
    }
}

/// A budget exactly at the largest single task peak serializes the big
/// tasks without forcing anything (nothing is oversized).
#[test]
fn tight_budgets_run_without_forced_admissions() {
    let engine = Engine::new();
    let config = numeric_config(ProblemKind::Banded);
    let plan = engine.plan(&config).unwrap();
    // Probe the static peaks with an unbounded run.  A budget of (merge
    // peak + largest task peak) is always sufficient: the reserved side
    // never exceeds the retained blocks (bounded by the merge peak) plus
    // one admitted task, so the gate never has to force anything.
    let probe = plan
        .schedule_with(
            &engine,
            ScheduleSpec::default().parallel(ParallelConfig::with_workers(2).with_max_tasks(8)),
        )
        .unwrap()
        .execute(&engine)
        .unwrap();
    let probe_parallel = probe.parallel.as_ref().unwrap();
    let sufficient =
        probe_parallel.cut.merge_peak_entries + probe_parallel.cut.max_task_peak_entries;

    for workers in WORKER_COUNTS {
        let parallel = ParallelConfig::with_workers(workers)
            .with_max_tasks(8)
            .with_budget(BudgetShare::Entries(sufficient));
        let report = plan
            .schedule_with(&engine, ScheduleSpec::default().parallel(parallel))
            .unwrap()
            .execute(&engine)
            .unwrap();
        let parallel_report = report.parallel.as_ref().unwrap();
        assert_eq!(parallel_report.cut.oversized_tasks, 0);
        assert_eq!(parallel_report.forced_admissions, 0);
        assert!(report.numeric.as_ref().unwrap().solve_error < 1e-6);
    }
}

/// Drive the public multifrontal building blocks from real concurrent
/// threads, each writing its task's columns into one shared factor array,
/// and compare the factor to the classical sequential factorization entry
/// for entry: subtree scheduling must never change a single bit.
#[test]
fn threaded_subtree_factorization_is_bitwise_equal_to_sequential() {
    let pattern = sparsemat::gen::random_spd_pattern(220, 3.5, 21);
    let matrix = spd_matrix_from_pattern(&pattern, 21);
    let structure = SymbolicStructure::from_pattern(&matrix.pattern());
    let order = symbolic::etree::etree_postorder(&structure.etree);
    let reference = multifrontal_cholesky(&matrix, Some(&order)).unwrap();

    let model = multifrontal::memory::per_column_model(&structure);
    let partition = proportional_cut(&model, 12, &default_node_work(&model));
    let mut task_orders: Vec<Vec<usize>> = vec![Vec::new(); partition.task_count()];
    let mut merge_order = Vec::new();
    for &j in &order {
        match partition.task_of[j] {
            Some(task) => task_orders[task].push(j),
            None => merge_order.push(j),
        }
    }

    for threads in [2usize, 4, 8] {
        // One factor-shaped array: the tasks' threads and then the merge
        // write their own columns of it.
        let ledger = BudgetLedger::new(None);
        let mut values = vec![f64::NAN; structure.factor_nnz()];
        let parts = task_orders.iter().chain([&merge_order]).map(Vec::as_slice);
        let mut parts = column_slices(&structure, &mut values, parts).unwrap();
        let mut merge_part = parts.pop().unwrap();
        let queue = std::sync::Mutex::new(parts.into_iter().enumerate().collect::<Vec<_>>());
        let results: Vec<std::sync::Mutex<Option<ContributionStore>>> = task_orders
            .iter()
            .map(|_| std::sync::Mutex::new(None))
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let mut arena = FrontArena::new();
                    loop {
                        let Some((task, mut part)) = queue.lock().unwrap().pop() else {
                            break;
                        };
                        let mut blocks = ContributionStore::new();
                        eliminate_columns(
                            &matrix,
                            &structure,
                            &mut part,
                            &mut blocks,
                            &ledger,
                            &mut arena,
                            None,
                        )
                        .unwrap();
                        *results[task].lock().unwrap() = Some(blocks);
                    }
                });
            }
        });

        let mut merge_blocks = ContributionStore::new();
        for slot in results {
            merge_blocks.absorb(slot.into_inner().unwrap().unwrap());
        }
        eliminate_columns(
            &matrix,
            &structure,
            &mut merge_part,
            &mut merge_blocks,
            &ledger,
            &mut FrontArena::new(),
            None,
        )
        .unwrap();
        assert!(merge_blocks.is_empty());
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&values), bits(&reference.values), "{threads} threads");
    }
}

/// Satellite regression: the plan cache must never serve a serial plan for
/// a parallel request (the parallel section is part of the effective-config
/// hash, so the two are distinct cache entries).
#[test]
fn plan_cache_distinguishes_serial_and_parallel_requests() {
    let engine = Engine::new();
    let cache = PlanCache::new(8);
    let serial = numeric_config(ProblemKind::Grid2d);
    let parallel = serial
        .clone()
        .with_parallel(ParallelConfig::with_workers(4).with_max_tasks(8));

    let (serial_plan, hit) = cache.get_or_plan(&engine, &serial).unwrap();
    assert!(!hit);
    // The parallel request must miss: serving the cached serial plan would
    // execute with the wrong parallel section.
    let (parallel_plan, hit) = cache.get_or_plan(&engine, &parallel).unwrap();
    assert!(!hit, "a serial plan was served for a parallel request");
    assert_ne!(serial_plan.config_hash(), parallel_plan.config_hash());

    // Each plan executes with its own parallel section.
    let serial_report = serial_plan
        .schedule(&engine)
        .unwrap()
        .execute(&engine)
        .unwrap();
    assert!(serial_report.parallel.is_none());
    let parallel_report = parallel_plan
        .schedule(&engine)
        .unwrap()
        .execute(&engine)
        .unwrap();
    assert_eq!(parallel_report.parallel.as_ref().unwrap().workers, 4);

    // And the cache now hits each of them independently.
    assert!(cache.get_or_plan(&engine, &serial).unwrap().1);
    assert!(cache.get_or_plan(&engine, &parallel).unwrap().1);
}
