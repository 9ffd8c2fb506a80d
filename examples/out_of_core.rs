//! Out-of-core planning through the `engine` facade: when the main memory is
//! smaller than the MinMemory value, compare the paper's **six eviction
//! heuristics** over a sweep of memory sizes, and every solver's traversal
//! under First Fit — all from one reusable plan.
//!
//! Run with:
//! ```text
//! cargo run --release --example out_of_core
//! ```

use treemem_repro::prelude::*;

fn main() {
    // An assembly tree of a banded matrix ordered with nested dissection and
    // no amalgamation: the separators keep many contribution blocks alive at
    // once, so the optimal peak is well above the largest single front and
    // the out-of-core regime is interesting.
    let engine = Engine::new();
    let config = EngineConfig::generated(ProblemKind::Banded, 900, 17)
        .with_ordering(OrderingMethod::NestedDissection)
        .with_amalgamation(1)
        .with_solver("minmem");
    let plan = engine.plan(&config).expect("valid configuration");

    let (optimal, _) = plan.solve(&engine, "minmem").unwrap();
    println!(
        "assembly tree: {} nodes, max MemReq {}, optimal peak {}",
        plan.tree().len(),
        plan.tree().max_mem_req(),
        optimal.peak,
    );

    // Sweep the memory from the hardest feasible budget (max MemReq) towards
    // the optimal peak, for every policy.  The plan caches the
    // solver traversal, so each cell only pays for the simulation.
    let policies = Policy::ALL.map(Policy::name);
    println!("\nI/O volume written to secondary memory (MinMem traversal):");
    print!("{:>10}", "memory");
    for policy in &policies {
        print!("{policy:>11}");
    }
    println!("{:>11}", "divisible");
    for step in 0..5 {
        let fraction = step as f64 / 5.0;
        let mut memory = 0;
        let mut bound = 0;
        let mut volumes = Vec::with_capacity(policies.len());
        for policy in &policies {
            let schedule = plan
                .schedule_with(
                    &engine,
                    ScheduleSpec::default()
                        .policy(*policy)
                        .memory(MemoryBudget::FractionOfPeak(fraction)),
                )
                .unwrap();
            memory = schedule.memory_budget();
            bound = schedule.divisible_bound();
            volumes.push(schedule.io_volume());
        }
        print!("{memory:>10}");
        for volume in volumes {
            print!("{volume:>11}");
        }
        println!("{bound:>11}");
    }

    // Compare every solver's traversal under the First Fit policy at the
    // hardest budget, as in Figure 8 of the paper.
    let lower = plan.tree().max_mem_req();
    println!("\nI/O volume at memory = max MemReq ({lower}) with First Fit:");
    for solver in Solver::ALL.into_iter().filter(|s| s.supports(plan.tree())) {
        let schedule = plan
            .schedule_with(
                &engine,
                ScheduleSpec::default()
                    .solver(solver.name())
                    .policy("FirstFit")
                    .memory(MemoryBudget::Absolute(lower)),
            )
            .unwrap();
        println!(
            "  {:15}: {:8} units in {:4} files",
            solver.name(),
            schedule.io_volume(),
            schedule.io_run().files_written
        );
    }
}
