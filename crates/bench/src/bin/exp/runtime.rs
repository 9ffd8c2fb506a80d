//! Experiment E2 — Figure 6 of the paper.
//!
//! Compare the running times of every polynomial MinMemory solver (natural
//! postorder, best postorder, Liu's exact algorithm, MinMem) on the
//! assembly-tree corpus and report the Dolan–Moré performance profile of
//! the times.

use bench::{MeasurementSet, ReportFile, MEASURED_SOLVERS};
use perfprof::PerformanceProfile;

use crate::Context;

pub(crate) fn run(context: &Context) {
    let corpus = context.corpus();
    println!("# Experiment E2 (Figure 6): running times of the registered MinMemory solvers");
    println!("# {} instances of {}\n", corpus.len(), corpus.description);

    // The measured solvers' names (identical for every tree).
    let solver_names: Vec<&str> = MEASURED_SOLVERS.iter().map(|s| s.name()).collect();
    let mut times: Vec<Vec<f64>> = vec![Vec::with_capacity(corpus.len()); solver_names.len()];
    let header: Vec<String> = solver_names.iter().map(|s| format!("{s}_us")).collect();
    let mut rows = format!("instance,nodes,{}\n", header.join(","));
    for entry in &corpus.trees {
        let measurement = MeasurementSet::measure(&entry.tree);
        rows.push_str(&format!("{},{}", entry.name, entry.nodes));
        for (index, m) in measurement.measurements.iter().enumerate() {
            let micros = m.time.as_secs_f64() * 1e6;
            times[index].push(micros);
            rows.push_str(&format!(",{micros:.1}"));
        }
        rows.push('\n');
    }

    let profile = PerformanceProfile::from_costs(&solver_names, &times);
    println!("Figure 6 — performance profile of the running times (lower τ is better)");
    println!("{}", profile.to_ascii(5.0, 60));
    for (index, name) in profile.method_names().iter().enumerate() {
        println!(
            "{name:10} fastest on {:5.1}% of the instances, within 2x on {:5.1}%",
            100.0 * profile.fraction_best(index),
            100.0 * profile.value_at(index, 2.0)
        );
    }

    println!();
    for (index, name) in solver_names.iter().enumerate() {
        let total: f64 = times[index].iter().sum::<f64>() / 1e3;
        println!(
            "Total time {name:10} {total:10.1} ms over {} trees",
            corpus.len()
        );
    }

    let files = vec![
        ReportFile::new("figure6_times.csv", rows),
        ReportFile::new("figure6_profile.csv", profile.to_csv(5.0, 101)),
    ];
    context.write_report("exp_runtime", &files);
}
