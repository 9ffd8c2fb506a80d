//! `compare`: an 11 % slowdown is flagged, a 9 % one passes; counts are
//! exact; smoke results are refused.

use std::collections::BTreeMap;

use benchmark::compare::{compare, judge, parse_bounds, parse_result, ResultFile, Verdict};

fn result(wall_s: f64, factor_nnz: f64, smoke: bool) -> ResultFile {
    parse_result(&format!(
        "{{\"schema\": \"benchmark_result/v1\", \"smoke\": {smoke}, \"seed\": 42, \
         \"seconds\": 10, \"correct\": true, \
         \"host\": {{\"nproc\": 2, \"avx2\": true, \"rustc\": \"rustc 1.95.0\", \
         \"git_rev\": \"abc\"}}, \"executor_reps_compared\": 0, \"workloads\": [\
         {{\"name\": \"plan_nd\", \"correct\": true, \"attempted\": 9, \"failed\": 0, \
         \"traced_attempted\": 3, \"traced_failed\": 0, \
         \"end_to_end\": {{\"wall_s\": {wall_s}, \"io_vs_bound\": 2, \
         \"throughput_rps\": {}}}, \
         \"per_layer\": {{\"symbolic.factor_nnz\": {factor_nnz}}}}}]}}",
        1.0 / wall_s
    ))
    .expect("the synthetic result parses")
}

/// The 10 % bound the arithmetic is tested at, on every timed metric.
fn bounds() -> BTreeMap<String, f64> {
    [
        "setup_s",
        "wall_s",
        "latency_tail_ms",
        "throughput_rps",
        "peak_rss_mb",
    ]
    .into_iter()
    .map(|name| (name.to_string(), 0.10))
    .collect()
}

#[test]
fn the_bounds_come_from_benchmark_json() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json is readable");
    let bounds = parse_bounds(&text).expect("BENCHMARK.json carries the bounds");
    for def in &benchmark::metrics::END_TO_END {
        assert!(
            bounds[def.name] > 0.0 && bounds[def.name] <= 0.25,
            "{}",
            def.name
        );
    }
}

fn verdict_of(rows: &[benchmark::compare::Row], metric: &str) -> Verdict {
    rows.iter()
        .find(|row| row.metric == metric)
        .expect("the metric has a row")
        .verdict
}

#[test]
fn an_eleven_percent_slowdown_is_worse_and_nine_percent_is_not() {
    let bounds = bounds();
    let base = result(2.0, 1000.0, false);
    let slower = compare(&base, &result(2.22, 1000.0, false), &bounds).unwrap();
    assert_eq!(verdict_of(&slower, "wall_s"), Verdict::Worse);
    assert_eq!(verdict_of(&slower, "symbolic.factor_nnz"), Verdict::Same);
    assert_eq!(verdict_of(&slower, "io_vs_bound"), Verdict::Same);
    assert!(slower.iter().any(|row| row.verdict.fails()));
    let within = compare(&base, &result(2.18, 1000.0, false), &bounds).unwrap();
    assert_eq!(verdict_of(&within, "wall_s"), Verdict::Same);
    assert!(!within.iter().any(|row| row.verdict.fails()));
    let faster = compare(&base, &result(1.7, 1000.0, false), &bounds).unwrap();
    assert_eq!(verdict_of(&faster, "wall_s"), Verdict::Better);
    assert_eq!(verdict_of(&faster, "throughput_rps"), Verdict::Better);
}

#[test]
fn an_exact_count_may_not_change_either_way() {
    let bounds = bounds();
    let base = result(2.0, 1000.0, false);
    for changed in [999.0, 1001.0] {
        let rows = compare(&base, &result(2.0, changed, false), &bounds).unwrap();
        assert_eq!(verdict_of(&rows, "symbolic.factor_nnz"), Verdict::Changed);
        assert!(rows.iter().any(|row| row.verdict.fails()));
    }
}

#[test]
fn timing_differences_under_the_floor_never_count() {
    // 0.04 s on 0.1 s is +40 %, but below the 0.05 s floor.
    assert_eq!(judge("wall_s", 0.10, 0.14, 0.10), Verdict::Same);
    assert_eq!(judge("latency_tail_ms", 100.0, 140.0, 0.10), Verdict::Same);
    assert_eq!(judge("wall_s", 1.0, 1.2, 0.10), Verdict::Worse);
    // Throughput has no floor and improves upwards.
    assert_eq!(judge("throughput_rps", 100.0, 85.0, 0.10), Verdict::Worse);
    assert_eq!(judge("throughput_rps", 100.0, 95.0, 0.10), Verdict::Same);
}

#[test]
fn smoke_results_are_refused_and_missing_pairs_are_unresolved() {
    let bounds = bounds();
    let base = result(2.0, 1000.0, false);
    assert!(compare(&base, &result(2.0, 1000.0, true), &bounds).is_err());
    // `setup_s` is in neither synthetic result.
    let rows = compare(&base, &base, &bounds).unwrap();
    assert_eq!(verdict_of(&rows, "setup_s"), Verdict::Unresolved);
    // Another seed: exact counts cannot be compared at all.
    let mut reseeded = base.clone();
    reseeded.seed = 7;
    let rows = compare(&base, &reseeded, &bounds).unwrap();
    assert!(rows.iter().all(|row| row.verdict == Verdict::Unresolved));
}
