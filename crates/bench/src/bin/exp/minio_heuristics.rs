//! Experiment E3 — Figure 7 of the paper.
//!
//! For every assembly tree, compute the MinMem traversal and run **every
//! eviction policy** (the paper's six heuristics plus the
//! cache-inspired policies) with main-memory sizes swept between the largest
//! single-node requirement and the traversal peak; compare the resulting I/O
//! volumes with a performance profile.  Also reports the distance to the
//! divisible-relaxation lower bound (an absolute-quality indicator the paper
//! lists as future work).

use bench::ReportFile;
use engine::prelude::*;
use perfprof::PerformanceProfile;

use crate::Context;

/// Memory sizes as fractions of the way from `max MemReq` to the traversal
/// peak (0.0 is the hardest feasible budget).
const MEMORY_FRACTIONS: [f64; 4] = [0.0, 0.25, 0.5, 0.75];

pub(crate) fn run(context: &Context) {
    let corpus = context.out_of_core_corpus();
    let engine = Engine::new();
    let policies = Policy::ALL.map(Policy::name);
    println!(
        "# Experiment E3 (Figure 7): I/O volume of every registered policy on MinMem traversals"
    );
    println!(
        "# {} trees x {} memory sizes x {} policies\n",
        corpus.len(),
        MEMORY_FRACTIONS.len(),
        policies.len()
    );

    let policy_names: Vec<String> = policies.iter().map(|p| format!("MinMem + {p}")).collect();
    let mut costs: Vec<Vec<f64>> = vec![Vec::new(); policies.len()];
    let mut bound_gap_sum = vec![0.0f64; policies.len()];
    let mut cases_with_io = 0usize;
    let mut cases_without_io = 0usize;
    let mut rows = String::from("instance,memory,policy,io_volume,divisible_bound\n");

    for entry in &corpus.trees {
        // One prebuilt plan per tree: the MinMem traversal is solved once and
        // cached; every (memory, policy) cell below reuses it.
        let plan = engine
            .plan(&EngineConfig::prebuilt(entry.tree.clone()).with_solver("minmem"))
            .expect("corpus trees always plan");
        for fraction in MEMORY_FRACTIONS {
            let mut memory = 0;
            let mut bound = 0;
            let volumes: Vec<i64> = policies
                .iter()
                .map(|policy| {
                    let schedule = plan
                        .schedule_with(
                            &engine,
                            ScheduleSpec::default()
                                .policy(*policy)
                                .memory(MemoryBudget::FractionOfPeak(fraction)),
                        )
                        .expect("memory is above max MemReq by construction");
                    memory = schedule.memory_budget();
                    bound = schedule.divisible_bound();
                    schedule.io_volume()
                })
                .collect();
            if volumes.iter().all(|&v| v == 0) {
                // The budget is already sufficient for an in-core execution of
                // this traversal; such cases carry no information about the
                // policies and are excluded from the profile (but counted).
                cases_without_io += 1;
                continue;
            }
            cases_with_io += 1;
            for (index, (policy, &volume)) in policies.iter().zip(&volumes).enumerate() {
                costs[index].push(volume as f64);
                bound_gap_sum[index] += volume as f64 / (bound.max(1)) as f64;
                rows.push_str(&format!(
                    "{},{},{},{},{}\n",
                    entry.name, memory, policy, volume, bound
                ));
            }
        }
    }

    println!(
        "Cases requiring I/O: {cases_with_io} (plus {cases_without_io} in-core cases excluded)"
    );
    if cases_with_io == 0 {
        println!("No case required I/O; nothing to profile.");
        return;
    }
    let names: Vec<&str> = policy_names.iter().map(String::as_str).collect();
    let profile = PerformanceProfile::from_costs(&names, &costs);
    println!("Figure 7 — performance profile of the I/O volume (MinMem traversals)");
    println!("{}", profile.to_ascii(5.0, 60));
    for (index, name) in names.iter().enumerate() {
        println!(
            "{name:22} best on {:5.1}% of the cases, avg ratio to divisible bound {:.3}",
            100.0 * profile.fraction_best(index),
            bound_gap_sum[index] / cases_with_io as f64
        );
    }

    let files = vec![
        ReportFile::new("figure7_io.csv", rows),
        ReportFile::new("figure7_profile.csv", profile.to_csv(5.0, 101)),
    ];
    println!();
    context.write_report("exp_minio_heuristics", &files);
}
