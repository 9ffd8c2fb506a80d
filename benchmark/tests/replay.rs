//! The staged replay does the engine's work: on a small grid it reproduces
//! `Engine::run` — traversal, peak, I/O volume, factor size and the solve
//! error bit for bit — for the sequential executor and for
//! `parallel.workers = 2`.

use benchmark::replay::staged_pipeline;
use benchmark::runner::Rep;
use benchmark::spans::{covered_frac, Recorder};
use engine::prelude::*;

fn config() -> EngineConfig {
    EngineConfig::generated(ProblemKind::Grid2d, 900, 11)
        .with_ordering(OrderingMethod::NestedDissection)
        .with_amalgamation(16)
        .with_memory(MemoryBudget::FractionOfPeak(0.5))
        .with_numeric(true)
}

#[test]
fn the_staged_replay_equals_the_engine() {
    let recorder = Recorder::new();
    let mut values = Rep::new();
    let staged = staged_pipeline(&config(), &recorder, 0, &mut values).expect("the replay runs");
    let numeric = staged.numeric.as_ref().expect("the numeric stage ran");
    for parallel in [ParallelConfig::default(), ParallelConfig::with_workers(2)] {
        let report = Engine::new()
            .run(&config().with_parallel(parallel))
            .expect("the engine runs");
        assert_eq!(staged.traversal, report.traversal);
        assert_eq!(staged.peak, report.solver_peak);
        assert_eq!(staged.io_volume, report.io_volume);
        assert_eq!(staged.divisible_bound, report.divisible_bound);
        let engine_numeric = report.numeric.as_ref().expect("numeric report");
        assert_eq!(numeric.factor_nnz, engine_numeric.factor_nnz);
        assert_eq!(
            numeric.model_peak_entries,
            engine_numeric.model_peak_entries
        );
        assert_eq!(
            numeric.solve_error.to_bits(),
            engine_numeric.solve_error.to_bits(),
            "workers = {}",
            parallel.workers
        );
    }
    // Sequentially the measured peak is the model's.
    assert_eq!(
        numeric.measured_peak_entries as i64,
        numeric.model_peak_entries
    );
}

#[test]
fn the_replay_attributes_its_wall_to_layer_spans() {
    let recorder = Recorder::new();
    let mut values = Rep::new();
    staged_pipeline(&config(), &recorder, 3, &mut values).expect("the replay runs");
    let spans = recorder.snapshot();
    let root = spans
        .iter()
        .find(|span| span.layer == "harness" && span.name == "replay")
        .expect("the replay has a root span");
    assert!(covered_frac(&spans, root.id) > 0.9);
    // Probes never count towards the operation.
    assert!(spans
        .iter()
        .filter(|span| span.name == "proportional_cut" || span.name == "kernel_replay")
        .all(|span| span.parent.is_none()));
    for metric in [
        "ordering.order_s",
        "symbolic.amalgamate_s",
        "treemem.minmem_s",
        "minio.lsnf_s",
        "multifrontal.factor_s",
        "multifrontal.kernel_replay_s",
    ] {
        assert!(values.get(metric).is_some_and(|v| *v > 0.0), "{metric}");
    }
    assert_eq!(
        values["symbolic.factor_nnz"],
        values["symbolic.factor_nnz"].trunc()
    );
}
