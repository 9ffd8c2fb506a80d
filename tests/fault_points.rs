//! Every fault point sits in a stage that a deadline can cancel.
//!
//! The chaos harness stalls a stage with `sleep:MS@point` and relies on the
//! request's deadline to stop it.  For each [`FaultPoint::ALL`] entry this
//! test runs the stages before the point unarmed and without a deadline,
//! arms `sleep:200@<point>`, runs the point's own stage under a 20 ms
//! deadline and expects [`EngineError::Cancelled`] naming that stage.  A
//! stage that stops polling its token runs to the end instead and fails
//! here.  The scenario is an exhaustive `match`, so a new point does not
//! compile without one.
//!
//! `ParexecTask` is covered on the thread pool.  Its other call site, the
//! worker process's claim loop (`server::worker`), is fenced by the task
//! lease, not by a token: `crates/server/tests/distributed_chaos.rs` stalls
//! it with `sleep:3500@parexec:task` past the lease and checks the
//! coordinator re-issues the task.
//!
//! The fault registry is process-global, so this file holds one test.

use std::time::Duration;

use engine::faultinject::{self, FaultPoint};
use engine::prelude::*;
use sparsemat::gen::ProblemKind;

const STALL: &str = "sleep:200";
const DEADLINE: Duration = Duration::from_millis(20);

/// Arm `point` and return an engine whose deadline fires during the stall.
fn stalled(point: FaultPoint) -> Engine {
    let spec = format!("{STALL}@{}", point.name());
    faultinject::install(faultinject::parse_plan(&spec).expect("plan parses"));
    Engine::new().with_cancel(CancelToken::with_deadline(DEADLINE))
}

/// Run `point`'s stage stalled, returning the stage the cancellation must
/// name and the stage's outcome.
fn run_stalled(point: FaultPoint) -> (&'static str, Result<(), EngineError>) {
    let unarmed = Engine::new();
    let config = EngineConfig::generated(ProblemKind::Grid2d, 144, 3).with_numeric(true);
    match point {
        FaultPoint::PlanOrdering => ("ordering", stalled(point).plan(&config).map(drop)),
        FaultPoint::PlanSymbolic => ("symbolic", stalled(point).plan(&config).map(drop)),
        FaultPoint::ScheduleSolver => {
            let plan = unarmed.plan(&config).expect("unarmed plan");
            ("solver", plan.schedule(&stalled(point)).map(drop))
        }
        FaultPoint::ScheduleIo => {
            let plan = unarmed.plan(&config).expect("unarmed plan");
            plan.solve(&unarmed, &config.solver)
                .expect("unarmed solver");
            ("io", plan.schedule(&stalled(point)).map(drop))
        }
        FaultPoint::ExecuteNumeric | FaultPoint::ParexecTask | FaultPoint::ArenaAlloc => {
            let config = if point == FaultPoint::ParexecTask {
                config.with_parallel(ParallelConfig::with_workers(2))
            } else {
                config
            };
            let plan = unarmed.plan(&config).expect("unarmed plan");
            let schedule = plan.schedule(&unarmed).expect("unarmed schedule");
            // Builds the plan's numeric model and per-column order.
            schedule.execute(&unarmed).expect("unarmed execute");
            ("numeric", schedule.execute(&stalled(point)).map(drop))
        }
    }
}

#[test]
fn a_deadline_cancels_the_stage_of_every_stalled_fault_point() {
    for point in FaultPoint::ALL {
        let (expected, outcome) = run_stalled(point);
        faultinject::clear();
        match outcome {
            Err(EngineError::Cancelled { stage, .. }) => {
                assert_eq!(stage, expected, "{}", point.name())
            }
            other => panic!("{}: expected a cancellation, got {other:?}", point.name()),
        }
    }
}
