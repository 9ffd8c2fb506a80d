//! The solver stage answers the engine's deadline.  Release-only
//! (`--ignored`): on this tree MinMem runs for seconds in release and far
//! longer in debug, which is the point — only its stop probe ends it.

use std::time::{Duration, Instant};

use engine::prelude::*;
use treemem::random::{random_kary_tree, reweight_paper};

/// MinMem on a paper-weighted complete binary tree of 524 287 nodes, under a
/// 50 ms deadline, answers `Cancelled { stage: "solver" }` within 100 ms,
/// and the plan's memo keeps nothing: the next deadline-bound call runs
/// the solver again and is cancelled again.
#[test]
#[ignore = "release-only: a 524 287-node tree"]
fn minmem_answers_a_50_ms_deadline_within_100_ms() {
    let tree = reweight_paper(&random_kary_tree(18, 2, 100, 10, 1), 2);
    assert_eq!(tree.len(), 524_287);
    let engine = Engine::new();
    let plan = engine.plan(&EngineConfig::prebuilt(tree)).unwrap();
    for attempt in 0..2 {
        let scoped = engine.with_cancel(CancelToken::with_deadline(Duration::from_millis(50)));
        let started = Instant::now();
        let outcome = plan.solve(&scoped, "minmem");
        let elapsed = started.elapsed();
        assert!(
            matches!(
                outcome,
                Err(EngineError::Cancelled {
                    stage: "solver",
                    ..
                })
            ),
            "attempt {attempt}: {outcome:?}"
        );
        assert!(
            elapsed <= Duration::from_millis(100),
            "attempt {attempt}: answered in {elapsed:?}"
        );
    }
}
