//! Experiment E4 — Figure 8 of the paper.
//!
//! Compare the out-of-core quality of the traversals produced by **every
//! registered MinMemory solver** (natural postorder, best postorder, Liu,
//! MinMem), all equipped with the First Fit eviction policy, over the same
//! memory sweep as Experiment E3 — one engine plan per tree, with the solver
//! traversals cached across the sweep.

use bench::{measurement_registry, memory_sweep, ReportFile};
use engine::prelude::*;
use perfprof::PerformanceProfile;

use crate::Context;

const MEMORY_FRACTIONS: [f64; 4] = [0.0, 0.25, 0.5, 0.75];

pub(crate) fn run(context: &Context) {
    let corpus = context.out_of_core_corpus();
    println!("# Experiment E4 (Figure 8): I/O volume per solver traversal with First Fit");
    println!(
        "# {} trees x {} memory sizes\n",
        corpus.len(),
        MEMORY_FRACTIONS.len()
    );

    let engine = Engine::new();
    // Solver names from the measurement registry (every registered solver
    // except the exponential brute-force oracle), as in Experiment E2.
    let solvers: Vec<String> = measurement_registry().names();
    let names: Vec<String> = solvers.iter().map(|s| format!("{s} + First Fit")).collect();
    let mut costs: Vec<Vec<f64>> = vec![Vec::new(); solvers.len()];
    let mut rows = String::from("instance,memory,traversal,io_volume\n");
    let mut cases_without_io = 0usize;

    for entry in &corpus.trees {
        let plan = engine
            .plan(&EngineConfig::prebuilt(entry.tree.clone()).with_policy("FirstFit"))
            .expect("corpus trees always plan");
        // Sweep memory relative to the *optimal* peak so all traversals face
        // the same budgets (the postorders may then be above their own peak,
        // where they simply need no I/O).
        let (optimal, _) = plan.solve(&engine, "minmem").expect("registered solver");
        for memory in memory_sweep(plan.tree(), optimal.peak, &MEMORY_FRACTIONS) {
            let volumes: Vec<i64> = solvers
                .iter()
                .map(|solver| {
                    plan.schedule_with(
                        &engine,
                        ScheduleSpec::default()
                            .solver(solver.as_str())
                            .memory(MemoryBudget::Absolute(memory)),
                    )
                    .expect("memory is above max MemReq by construction")
                    .io_volume()
                })
                .collect();
            if volumes.iter().all(|&v| v == 0) {
                cases_without_io += 1;
                continue;
            }
            for (index, (solver, &volume)) in solvers.iter().zip(&volumes).enumerate() {
                costs[index].push(volume as f64);
                rows.push_str(&format!(
                    "{},{},{},{}\n",
                    entry.name, memory, solver, volume
                ));
            }
        }
    }

    println!(
        "Cases requiring I/O: {} (plus {cases_without_io} in-core cases excluded)",
        costs[0].len()
    );
    if costs[0].is_empty() {
        println!("No case required I/O; nothing to profile.");
        return;
    }
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let profile = PerformanceProfile::from_costs(&name_refs, &costs);
    println!("Figure 8 — performance profile of the I/O volume per traversal (First Fit)");
    println!("{}", profile.to_ascii(5.0, 60));
    for (index, name) in name_refs.iter().enumerate() {
        let total: f64 = costs[index].iter().sum();
        println!(
            "{name:24} best on {:5.1}% of the cases, total I/O volume {:.0}",
            100.0 * profile.fraction_best(index),
            total
        );
    }

    let files = vec![
        ReportFile::new("figure8_io.csv", rows),
        ReportFile::new("figure8_profile.csv", profile.to_csv(5.0, 101)),
    ];
    println!();
    context.write_report("exp_minio_traversals", &files);
}
