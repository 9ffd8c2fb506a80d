//! `benchmark compare A.json B.json`: one verdict per (metric, workload).
//!
//! Exact counts — the two end-to-end ratios and the per-layer counts of
//! `metrics::EXACT_LAYER_COUNTS` (factor size, peaks, I/O volume) — must be
//! identical for one seed: any change is reported and fails the comparison.
//! Timings, memory and throughput are judged against the bound
//! `BENCHMARK.json` stores for the metric; timing differences under 0.05 s
//! never count.  Smoke results are refused — quick-mode numbers never stand
//! in for the record.

use std::collections::BTreeMap;
use std::path::Path;

use engine::json::Json;

use crate::metrics::{self, Better};

/// Timing differences below this many seconds are noise by decree.
pub const TIMING_FLOOR_S: f64 = 0.05;

/// The verdict on one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or identical, for a count).
    Same,
    /// Better by more than the bound.
    Better,
    /// Worse by more than the bound.
    Worse,
    /// An exact count changed (either way).
    Changed,
    /// Cannot be judged: missing on one side, or measured on another host
    /// or seed.
    Unresolved,
}

impl Verdict {
    /// Whether the verdict fails the comparison.
    pub fn fails(self) -> bool {
        matches!(self, Verdict::Worse | Verdict::Changed)
    }
}

/// A decoded result file.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultFile {
    /// Smoke-mode results cannot be compared.
    pub smoke: bool,
    /// Run seed.
    pub seed: u64,
    /// `(nproc, avx2, rustc)`.
    pub host: (u64, bool, String),
    /// End-to-end and per-layer metrics per workload, by metric name.
    pub workloads: BTreeMap<String, BTreeMap<String, f64>>,
}

/// Decode a `benchmark_result/v1` document.
pub fn parse_result(text: &str) -> Result<ResultFile, String> {
    let json = Json::parse(text).map_err(|e| format!("unparsable result: {e}"))?;
    if json.get("schema").and_then(Json::as_str) != Some("benchmark_result/v1") {
        return Err("not a benchmark_result/v1 document".to_string());
    }
    let host = json.get("host").ok_or("the result has no host stamp")?;
    let mut workloads = BTreeMap::new();
    for entry in json
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or("the result has no workloads")?
    {
        let name = entry
            .get("name")
            .and_then(Json::as_str)
            .ok_or("a workload has no name")?;
        let mut values = BTreeMap::new();
        for section in ["end_to_end", "per_layer"] {
            let Some(Json::Obj(fields)) = entry.get(section) else {
                return Err(format!("workload {name} has no {section} object"));
            };
            values.extend(
                fields
                    .iter()
                    .filter_map(|(metric, value)| value.as_f64().map(|v| (metric.clone(), v))),
            );
        }
        workloads.insert(name.to_string(), values);
    }
    Ok(ResultFile {
        smoke: json.get("smoke").and_then(Json::as_bool).unwrap_or(false),
        seed: json
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or("the result has no seed")?,
        host: (
            host.get("nproc").and_then(Json::as_u64).unwrap_or(0),
            host.get("avx2").and_then(Json::as_bool).unwrap_or(false),
            host.get("rustc")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
        ),
        workloads,
    })
}

/// The `bound` of every end-to-end metric in `BENCHMARK.json`.
pub fn parse_bounds(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let json = Json::parse(text).map_err(|e| format!("unparsable BENCHMARK.json: {e}"))?;
    json.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|entry| {
            let name = entry.get("name").and_then(Json::as_str);
            let bound = entry.get("bound").and_then(Json::as_f64);
            name.zip(bound)
                .map(|(name, bound)| (name.to_string(), bound))
                .ok_or_else(|| "an end_to_end entry lacks name or bound".to_string())
        })
        .collect()
}

/// Judge candidate value `b` against baseline `a` for metric `name`.
pub fn judge(name: &str, a: f64, b: f64, bound: f64) -> Verdict {
    let Some(def) = metrics::find(name) else {
        return Verdict::Unresolved;
    };
    if metrics::is_exact(def) {
        return if a == b {
            Verdict::Same
        } else {
            Verdict::Changed
        };
    }
    let seconds = match def.unit {
        "s" => Some(1.0),
        "ms" => Some(1e-3),
        _ => None,
    };
    if seconds.is_some_and(|scale| (b - a).abs() * scale < TIMING_FLOOR_S) {
        return Verdict::Same;
    }
    if !(a.is_finite() && b.is_finite()) || a == 0.0 {
        return Verdict::Unresolved;
    }
    let worse_by = match def.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Baseline value.
    pub a: Option<f64>,
    /// Candidate value.
    pub b: Option<f64>,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compare two results under `bounds`.
pub fn compare(
    a: &ResultFile,
    b: &ResultFile,
    bounds: &BTreeMap<String, f64>,
) -> Result<Vec<Row>, String> {
    if a.smoke || b.smoke {
        return Err("smoke results never stand in for the record: refusing to compare".to_string());
    }
    let same_context = a.host == b.host && a.seed == b.seed;
    let mut rows = Vec::new();
    let names: std::collections::BTreeSet<&String> =
        a.workloads.keys().chain(b.workloads.keys()).collect();
    for workload in names {
        let judged = metrics::END_TO_END
            .iter()
            .map(|def| def.name)
            .chain(metrics::EXACT_LAYER_COUNTS);
        for metric in judged {
            let value = |file: &ResultFile| {
                file.workloads
                    .get(workload)
                    .and_then(|values| values.get(metric))
                    .copied()
            };
            let (left, right) = (value(a), value(b));
            // Exact counts need no bound; everything else takes its own.
            let bound = bounds.get(metric).copied().or_else(|| {
                metrics::find(metric)
                    .filter(|def| metrics::is_exact(def))
                    .map(|_| 0.0)
            });
            let verdict = match (left, right, bound) {
                (Some(left), Some(right), Some(bound)) if same_context => {
                    judge(metric, left, right, bound)
                }
                _ => Verdict::Unresolved,
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.to_string(),
                a: left,
                b: right,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// Run the subcommand; returns whether the comparison passes.
pub fn run(a: &Path, b: &Path, benchmark_json: &Path) -> Result<bool, String> {
    let read = |path: &Path| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    let left = parse_result(&read(a)?)?;
    let right = parse_result(&read(b)?)?;
    let bounds = parse_bounds(&read(benchmark_json)?)?;
    if left.host != right.host || left.seed != right.seed {
        println!(
            "the results were measured in different contexts (seed {} on {:?}, seed {} on {:?}): \
             every pair is unresolved",
            left.seed, left.host, right.seed, right.host
        );
    }
    let rows = compare(&left, &right, &bounds)?;
    let show = |value: Option<f64>| value.map_or_else(|| "-".to_string(), |v| format!("{v:.6}"));
    for row in &rows {
        println!(
            "{:<16} {:<36} {:>18} {:>18}  {:?}",
            row.workload,
            row.metric,
            show(row.a),
            show(row.b),
            row.verdict
        );
    }
    let failing = rows.iter().filter(|row| row.verdict.fails()).count();
    let unresolved = rows
        .iter()
        .filter(|row| row.verdict == Verdict::Unresolved)
        .count();
    println!(
        "{} pairs: {failing} failing, {unresolved} unresolved",
        rows.len()
    );
    Ok(failing == 0)
}
