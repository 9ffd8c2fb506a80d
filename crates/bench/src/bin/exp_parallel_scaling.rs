//! Parallel-execution scaling benchmark: factor the 10⁵-node
//! nested-dissection corpus at 1/2/4/8 workers under a shared memory budget
//! and emit the machine-readable `BENCH_parallel.json`.
//!
//! Every corpus entry is planned once; each worker count then reuses the
//! plan (cached traversal, matrix, symbolic structure) through
//! [`engine::ScheduleSpec::parallel`], so the cells time exactly the
//! numeric execution layer.  Two speedups are recorded per cell:
//!
//! * `speedup_wall` — real wall-clock against the 1-worker run.  Only
//!   meaningful when the host has as many cores as workers.
//! * `speedup_modeled` — the makespan of the *measured* per-task durations
//!   (from the 1-worker run) list-scheduled over `k` workers, plus the
//!   measured sequential merge time.  This is the scheduler's own
//!   admission order replayed with ideal hardware, so it is the
//!   machine-independent ceiling of `speedup_wall`, and the honest metric
//!   on core-starved hosts (the checked-in reference was generated inside a
//!   single-CPU container, where real wall speedup cannot exceed 1×).
//!
//! Flags: `--quick` uses the reduced corpus (the CI smoke configuration);
//! `--check <reference.json>` gates on the parallel layer's contract —
//! measured peak ≤ budget in every cell, speedup at 4 workers ≥
//! [`REQUIRED_SPEEDUP_AT_4`] (the better of wall-clock and modeled, so a
//! noisy shared runner cannot flake the gate while a healthy multi-core
//! host still shows the real wall-clock win), and the deterministic cell
//! identity (cut shape, budget, factor size) bit-equal to the reference,
//! which pins cross-machine determinism.  The JSON is written to the
//! current directory, or `TREEMEM_SWEEP_DIR` if set.

use std::fmt::Write as _;

use engine::prelude::*;
use ordering::OrderingMethod;
use sparsemat::gen::ProblemKind;

/// The CI gate: 4 workers must beat 1 worker by at least this factor.
const REQUIRED_SPEEDUP_AT_4: f64 = 1.5;
/// Worker counts swept per corpus entry.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Cut granularity of every run (worker-count independent, so the cells'
/// deterministic identity is shared across the sweep).  The sequential
/// merge phase grows with the number of above-cut separators (roughly one
/// per task), so a coarse 16-task cut keeps the merge below ~20% of the
/// work — the Amdahl term — while still feeding 8 workers.
const MAX_TASKS: usize = 16;

struct CorpusEntry {
    name: &'static str,
    kind: ProblemKind,
    nodes: usize,
}

/// The 10⁵-node nested-dissection corpus: problems whose nested-dissection
/// elimination trees are bushy enough that subtree parallelism exists at
/// all.  (A square grid concentrates ~half its flops in the top separators
/// — no subtree cut parallelizes those; see `ProblemKind::Grid2dWide`.)
fn corpus(quick: bool) -> Vec<CorpusEntry> {
    if quick {
        vec![
            CorpusEntry {
                name: "grid2dwide-30000",
                kind: ProblemKind::Grid2dWide,
                nodes: 30_000,
            },
            CorpusEntry {
                name: "banded-50000",
                kind: ProblemKind::Banded,
                nodes: 50_000,
            },
        ]
    } else {
        vec![
            CorpusEntry {
                name: "grid2dwide-100000",
                kind: ProblemKind::Grid2dWide,
                nodes: 100_000,
            },
            CorpusEntry {
                name: "banded-100000",
                kind: ProblemKind::Banded,
                nodes: 100_000,
            },
        ]
    }
}

struct Cell {
    entry: String,
    workers: usize,
    wall_seconds: f64,
    modeled_seconds: f64,
    speedup_wall: f64,
    speedup_modeled: f64,
    measured_peak_entries: u64,
    budget_entries: u64,
    sequential_peak_entries: i64,
    subtree_count: usize,
    above_cut_nodes: usize,
    oversized_tasks: usize,
    forced_admissions: u64,
    merge_seconds: f64,
    critical_path_seconds: f64,
    utilization: f64,
    factor_nnz: usize,
    solve_error: f64,
}

/// List-schedule the measured task durations (already in admission order,
/// largest subtree first) over `workers` ideal workers and append the
/// sequential merge: the modeled wall-clock of the run.
fn modeled_makespan(task_seconds: &[f64], merge_seconds: f64, workers: usize) -> f64 {
    let mut finish = vec![0.0f64; workers.max(1)];
    for &task in task_seconds {
        let earliest = finish
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(index, _)| index)
            .expect("at least one worker");
        finish[earliest] += task;
    }
    finish.iter().copied().fold(0.0f64, f64::max) + merge_seconds
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check_path = args
        .iter()
        .position(|a| a == "--check")
        .and_then(|i| args.get(i + 1))
        .cloned();
    std::process::exit(run(quick, check_path));
}

fn run(quick: bool, check_path: Option<String>) -> i32 {
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let entries = corpus(quick);
    println!(
        "# parallel scaling benchmark: {} entries, workers {WORKER_COUNTS:?}, \
         max_tasks {MAX_TASKS}, budget = merge peak + largest task, host cores {host_cores}",
        entries.len()
    );

    let engine = Engine::new();
    let mut cells: Vec<Cell> = Vec::new();
    for entry in &entries {
        let config = EngineConfig::generated(entry.kind, entry.nodes, 7)
            .with_ordering(OrderingMethod::NestedDissection)
            .with_numeric(true);
        let plan = match engine.plan(&config) {
            Ok(plan) => plan,
            Err(error) => {
                eprintln!("{}: planning failed: {error}", entry.name);
                return 1;
            }
        };
        println!(
            "\n## {} ({} unknowns, {} tree nodes)",
            entry.name,
            plan.matrix_n(),
            plan.tree().len()
        );

        // Probe run: read the cut's static peaks, then give the sweep the
        // tightest provably sufficient budget — the merge-phase peak (which
        // bounds the retained contribution blocks at any time) plus one
        // largest task.  Under that budget the ledger never has to force an
        // admission, so `measured peak <= budget` is a *checked guarantee*,
        // and the budget-to-sequential-peak ratio in the JSON documents what
        // subtree parallelism costs in memory.
        let probe = match plan
            .schedule_with(
                &engine,
                ScheduleSpec::default()
                    .parallel(ParallelConfig::with_workers(1).with_max_tasks(MAX_TASKS)),
            )
            .and_then(|schedule| schedule.execute(&engine))
        {
            Ok(report) => report,
            Err(error) => {
                eprintln!("{}: probe run failed: {error}", entry.name);
                return 1;
            }
        };
        let probe_parallel = probe.parallel.as_ref().expect("probe ran in parallel mode");
        let budget =
            probe_parallel.cut.merge_peak_entries + probe_parallel.cut.max_task_peak_entries;
        println!(
            "  budget {budget} entries (merge peak {} + largest task {}), \
             sequential MinMemory peak {}",
            probe_parallel.cut.merge_peak_entries,
            probe_parallel.cut.max_task_peak_entries,
            probe_parallel.cut.sequential_peak_entries
        );

        let mut baseline: Option<(f64, Vec<f64>, f64)> = None; // (wall, tasks, merge)
        for workers in WORKER_COUNTS {
            let parallel = ParallelConfig::with_workers(workers)
                .with_max_tasks(MAX_TASKS)
                .with_budget(BudgetShare::Entries(budget));
            let report = match plan
                .schedule_with(&engine, ScheduleSpec::default().parallel(parallel))
                .and_then(|schedule| schedule.execute(&engine))
            {
                Ok(report) => report,
                Err(error) => {
                    eprintln!("{} at {workers} workers: {error}", entry.name);
                    return 1;
                }
            };
            let numeric = report.numeric.as_ref().expect("numeric stage ran");
            let parallel_report = report.parallel.as_ref().expect("parallel layer ran");
            if workers == 1 {
                baseline = Some((
                    parallel_report.wall_seconds,
                    parallel_report.task_seconds.clone(),
                    parallel_report.merge_seconds,
                ));
            }
            let (base_wall, base_tasks, base_merge) =
                baseline.as_ref().expect("1-worker cell runs first");
            let modeled = modeled_makespan(base_tasks, *base_merge, workers);
            let modeled_serial = modeled_makespan(base_tasks, *base_merge, 1);
            let cell = Cell {
                entry: entry.name.to_string(),
                workers,
                wall_seconds: parallel_report.wall_seconds,
                modeled_seconds: modeled,
                speedup_wall: base_wall / parallel_report.wall_seconds,
                speedup_modeled: modeled_serial / modeled,
                measured_peak_entries: parallel_report.measured_peak_entries,
                budget_entries: parallel_report
                    .cut
                    .budget_entries
                    .expect("budget configured"),
                sequential_peak_entries: parallel_report.cut.sequential_peak_entries,
                subtree_count: parallel_report.cut.subtree_count,
                above_cut_nodes: parallel_report.cut.above_cut_nodes,
                oversized_tasks: parallel_report.cut.oversized_tasks,
                forced_admissions: parallel_report.forced_admissions,
                merge_seconds: parallel_report.merge_seconds,
                critical_path_seconds: parallel_report.critical_path_seconds,
                utilization: parallel_report.utilization,
                factor_nnz: numeric.factor_nnz,
                solve_error: numeric.solve_error,
            };
            println!(
                "  workers {:>2}: wall {:>8.3}s  modeled {:>8.3}s  speedup (wall {:>5.2}x / \
                 modeled {:>5.2}x)  peak {:>12} / budget {:>12}  merge {:>6.3}s  util {:>5.2}",
                cell.workers,
                cell.wall_seconds,
                cell.modeled_seconds,
                cell.speedup_wall,
                cell.speedup_modeled,
                cell.measured_peak_entries,
                cell.budget_entries,
                cell.merge_seconds,
                cell.utilization,
            );
            cells.push(cell);
        }
    }

    let json = render_json(quick, host_cores, &cells);
    let directory = std::env::var_os("TREEMEM_SWEEP_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    let path = directory.join("BENCH_parallel.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nWrote {}", path.display()),
        Err(err) => {
            eprintln!("could not write {}: {err}", path.display());
            return 1;
        }
    }

    match check_path {
        None => 0,
        Some(reference) => check(&reference, host_cores, &cells),
    }
}

fn render_json(quick: bool, host_cores: usize, cells: &[Cell]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"parallel_scaling/v1\",\n");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"host_cores\": {host_cores},");
    let _ = writeln!(out, "  \"max_tasks\": {MAX_TASKS},");
    out.push_str("  \"budget_rule\": \"merge_peak_entries + max_task_peak_entries\",\n");
    let _ = writeln!(out, "  \"required_speedup_at_4\": {REQUIRED_SPEEDUP_AT_4},");
    out.push_str("  \"cells\": [\n");
    for (index, cell) in cells.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"entry\": \"{}\", \"workers\": {}, \"wall_seconds\": {:.6}, \
             \"modeled_seconds\": {:.6}, \"speedup_wall\": {:.3}, \"speedup_modeled\": {:.3}, \
             \"measured_peak_entries\": {}, \"budget_entries\": {}, \
             \"sequential_peak_entries\": {}, \"subtree_count\": {}, \"above_cut_nodes\": {}, \
             \"oversized_tasks\": {}, \"forced_admissions\": {}, \"merge_seconds\": {:.6}, \
             \"critical_path_seconds\": {:.6}, \"utilization\": {:.3}, \"factor_nnz\": {}, \
             \"solve_error\": {:e}}}{}",
            cell.entry,
            cell.workers,
            cell.wall_seconds,
            cell.modeled_seconds,
            cell.speedup_wall,
            cell.speedup_modeled,
            cell.measured_peak_entries,
            cell.budget_entries,
            cell.sequential_peak_entries,
            cell.subtree_count,
            cell.above_cut_nodes,
            cell.oversized_tasks,
            cell.forced_admissions,
            cell.merge_seconds,
            cell.critical_path_seconds,
            cell.utilization,
            cell.factor_nnz,
            cell.solve_error,
            if index + 1 < cells.len() { "," } else { "" },
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// One reference cell: the deterministic identity fields.
struct ReferenceCell {
    entry: String,
    workers: usize,
    budget_entries: u64,
    sequential_peak_entries: i64,
    subtree_count: usize,
    above_cut_nodes: usize,
    oversized_tasks: usize,
    factor_nnz: usize,
}

fn parse_reference(contents: &str) -> Vec<ReferenceCell> {
    let mut cells = Vec::new();
    for line in contents.lines() {
        let Some(entry) = extract_str(line, "\"entry\": \"") else {
            continue;
        };
        let field = |key: &str| extract_u64(line, key);
        let (
            Some(workers),
            Some(budget),
            Some(seq),
            Some(subtrees),
            Some(above),
            Some(oversized),
            Some(nnz),
        ) = (
            field("\"workers\": "),
            field("\"budget_entries\": "),
            field("\"sequential_peak_entries\": "),
            field("\"subtree_count\": "),
            field("\"above_cut_nodes\": "),
            field("\"oversized_tasks\": "),
            field("\"factor_nnz\": "),
        )
        else {
            continue;
        };
        cells.push(ReferenceCell {
            entry,
            workers: workers as usize,
            budget_entries: budget,
            sequential_peak_entries: seq as i64,
            subtree_count: subtrees as usize,
            above_cut_nodes: above as usize,
            oversized_tasks: oversized as usize,
            factor_nnz: nnz as usize,
        });
    }
    cells
}

fn extract_str(line: &str, key: &str) -> Option<String> {
    let start = line.find(key)? + key.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

fn extract_u64(line: &str, key: &str) -> Option<u64> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The `--check` gate; see the module docs.
fn check(path: &str, host_cores: usize, cells: &[Cell]) -> i32 {
    let contents = match std::fs::read_to_string(path) {
        Ok(contents) => contents,
        Err(err) => {
            eprintln!("could not read reference {path}: {err}");
            return 1;
        }
    };
    let reference = parse_reference(&contents);
    if reference.is_empty() {
        eprintln!("reference file {path} contains no cells");
        return 1;
    }
    let mut failures = 0usize;

    // Gate 1: measured parallel peak within the shared budget, every cell.
    for cell in cells {
        if cell.measured_peak_entries > cell.budget_entries {
            eprintln!(
                "FAIL {} at {} workers: measured peak {} exceeds budget {}",
                cell.entry, cell.workers, cell.measured_peak_entries, cell.budget_entries
            );
            failures += 1;
        }
        if cell.solve_error > 1e-6 {
            eprintln!(
                "FAIL {} at {} workers: solve residual {}",
                cell.entry, cell.workers, cell.solve_error
            );
            failures += 1;
        }
    }

    // Gate 2: speedup at 4 workers.  The modeled makespan (measured task
    // durations, list-scheduled) is the load-insensitive metric; the wall
    // clock additionally counts on sub-second cells measured once on
    // possibly noisy shared runners.  Gate on the better of the two so a
    // throttled CI neighbor cannot fail an unrelated push, while a healthy
    // multi-core host still demonstrates the real wall-clock win.
    for cell in cells.iter().filter(|c| c.workers == 4) {
        let (speedup, metric) = if cell.speedup_wall >= cell.speedup_modeled && host_cores >= 4 {
            (cell.speedup_wall, "wall")
        } else {
            (cell.speedup_modeled, "modeled")
        };
        if speedup < REQUIRED_SPEEDUP_AT_4 {
            eprintln!(
                "FAIL {}: {metric} speedup at 4 workers is {speedup:.2}x < \
                 {REQUIRED_SPEEDUP_AT_4}x",
                cell.entry
            );
            failures += 1;
        } else {
            println!(
                "ok   {}: {metric} speedup at 4 workers {speedup:.2}x (>= \
                 {REQUIRED_SPEEDUP_AT_4}x)",
                cell.entry
            );
        }
    }

    // Gate 3: deterministic cell identity matches the reference bit for bit
    // (the reference may have been generated on a different machine).
    let mut compared = 0usize;
    for expected in &reference {
        let Some(cell) = cells
            .iter()
            .find(|c| c.entry == expected.entry && c.workers == expected.workers)
        else {
            eprintln!(
                "FAIL reference cell {} at {} workers was not produced",
                expected.entry, expected.workers
            );
            failures += 1;
            continue;
        };
        compared += 1;
        let mismatches = [
            (
                "budget_entries",
                cell.budget_entries,
                expected.budget_entries,
            ),
            (
                "sequential_peak_entries",
                cell.sequential_peak_entries as u64,
                expected.sequential_peak_entries as u64,
            ),
            (
                "subtree_count",
                cell.subtree_count as u64,
                expected.subtree_count as u64,
            ),
            (
                "above_cut_nodes",
                cell.above_cut_nodes as u64,
                expected.above_cut_nodes as u64,
            ),
            (
                "oversized_tasks",
                cell.oversized_tasks as u64,
                expected.oversized_tasks as u64,
            ),
            (
                "factor_nnz",
                cell.factor_nnz as u64,
                expected.factor_nnz as u64,
            ),
        ];
        for (field, actual, wanted) in mismatches {
            if actual != wanted {
                eprintln!(
                    "FAIL {} at {} workers: {field} = {actual}, reference says {wanted}",
                    expected.entry, expected.workers
                );
                failures += 1;
            }
        }
    }
    if compared == 0 {
        eprintln!("no reference cell was comparable; refusing to pass an empty gate");
        return 1;
    }
    println!(
        "checked {compared} reference cells, {} measured cells, {failures} failure(s)",
        cells.len()
    );
    if failures > 0 {
        1
    } else {
        0
    }
}
