//! `benchmark run`: every workload in its own child process (so `VmHWM` is
//! per workload), untraced for the end-to-end metrics and then traced for
//! the per-layer metrics; the results, stamped with where they were
//! measured, go to one file that `benchmark compare` reads.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use engine::json::Json;

use crate::cli::{metric_line, SuiteArgs};
use crate::host::HostStamp;
use crate::workloads::NAMES;

/// One child run, decoded from its standard output.
#[derive(Debug, Clone, Default)]
pub struct ChildRun {
    /// `attempted` of the result line.
    pub attempted: u64,
    /// `failed` of the result line.
    pub failed: u64,
    /// The metrics of the result line, in printed order.
    pub metrics: Vec<(String, f64)>,
    /// `(factor_nnz, solve_error bits)` per successful rep, by rep index.
    pub reps: BTreeMap<u64, (String, String)>,
}

/// Decode a child's standard output: the `rep` lines and the last line.
pub fn decode_child(stdout: &str) -> Result<ChildRun, String> {
    let last = stdout
        .lines()
        .rev()
        .find(|line| !line.trim().is_empty())
        .ok_or("the child printed nothing")?;
    let json = Json::parse(last).map_err(|e| format!("unparsable result line: {e}"))?;
    let count = |name: &str| {
        json.get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("the result line has no `{name}`"))
    };
    let Some(Json::Obj(fields)) = json.get("metrics") else {
        return Err("the result line has no `metrics` object".to_string());
    };
    let metrics = fields
        .iter()
        .map(|(name, entry)| {
            entry
                .get("value")
                .and_then(Json::as_f64)
                .map(|value| (name.clone(), value))
                .ok_or_else(|| format!("metric `{name}` has no numeric value"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut reps = BTreeMap::new();
    for line in stdout.lines() {
        let mut words = line.split_whitespace();
        if words.next() != Some("rep") {
            continue;
        }
        let Some(rep) = words.next().and_then(|word| word.parse::<u64>().ok()) else {
            continue;
        };
        let field = |name: &str| {
            line.split_whitespace()
                .find_map(|word| word.strip_prefix(name))
                .map(str::to_string)
        };
        if let (Some(nnz), Some(bits)) = (field("factor_nnz="), field("solve_error_bits=")) {
            reps.insert(rep, (nnz, bits));
        }
    }
    Ok(ChildRun {
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
        reps,
    })
}

/// Run one workload in a child process (waited for) and decode it.
fn child(args: &SuiteArgs, workload: &str, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot run the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "the {workload} child (trace {}) exited with {}:\n{stdout}",
            u8::from(trace),
            output.status
        ));
    }
    decode_child(&stdout)
}

/// Rep *i* of the three executors factors one matrix: they must agree on
/// `factor_nnz` and on the bits of `solve_error`.  Returns the number of
/// reps compared.
pub fn executors_agree(runs: &BTreeMap<String, ChildRun>) -> Result<u64, String> {
    let Some(sequential) = runs.get("report_seq") else {
        return Ok(0);
    };
    let mut compared = 0;
    for other in ["report_par2", "report_dist2"] {
        let Some(run) = runs.get(other) else { continue };
        for (rep, facts) in &run.reps {
            let Some(reference) = sequential.reps.get(rep) else {
                continue;
            };
            if facts != reference {
                return Err(format!(
                    "rep {rep}: {other} computed {facts:?}, report_seq {reference:?} — the \
                     executors are not bit-identical"
                ));
            }
            compared += 1;
        }
    }
    Ok(compared)
}

fn metrics_json(metrics: &[(String, f64)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value)| format!("\"{name}\": {value}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Run the suite; returns whether every workload was correct.
pub fn run(args: &SuiteArgs) -> Result<bool, String> {
    let selected: Vec<&str> = if args.workloads.is_empty() {
        NAMES.to_vec()
    } else {
        args.workloads.iter().map(String::as_str).collect()
    };
    for name in &selected {
        if !NAMES.contains(name) {
            return Err(format!(
                "unknown workload `{name}`; the workloads are {}",
                NAMES.join(", ")
            ));
        }
    }
    let host = HostStamp::probe();
    println!(
        "benchmark run: seed {} seconds {} smoke {} nproc {} avx2 {} {} rev {}",
        args.seed, args.seconds, args.smoke, host.nproc, host.avx2, host.rustc, host.git_rev
    );
    println!(
        "closed loop throughout: batch workloads run one operation at a time; serve_mixed \
         runs 2 clients against 2 server workers"
    );
    let mut untraced = BTreeMap::new();
    let mut documents = Vec::new();
    let mut correct = true;
    for name in &selected {
        let plain = child(args, name, false)?;
        let traced = child(args, name, true)?;
        println!(
            "\n{name}: {} operations, {} failed; traced run {} operations, {} failed",
            plain.attempted, plain.failed, traced.attempted, traced.failed
        );
        for line in plain
            .metrics
            .iter()
            .chain(&traced.metrics)
            .filter_map(|(metric, value)| metric_line(metric, *value))
        {
            println!("{line}");
        }
        correct &= plain.failed == 0 && traced.failed == 0;
        documents.push(format!(
            "    {{\"name\": \"{name}\", \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
             \"traced_attempted\": {}, \"traced_failed\": {},\n     \"end_to_end\": {},\n     \
             \"per_layer\": {}}}",
            plain.failed == 0 && traced.failed == 0,
            plain.attempted,
            plain.failed,
            traced.attempted,
            traced.failed,
            metrics_json(&plain.metrics),
            metrics_json(&traced.metrics),
        ));
        untraced.insert(name.to_string(), plain);
    }
    let agreement = executors_agree(&untraced);
    match &agreement {
        Ok(compared) => println!(
            "\nexecutors agree on factor_nnz and solve_error bits over {compared} shared reps"
        ),
        Err(message) => {
            println!("\nFAILED {message}");
            correct = false;
        }
    }
    let document = format!(
        "{{\"schema\": \"benchmark_result/v1\", \"smoke\": {}, \"seed\": {}, \"seconds\": {}, \
         \"correct\": {correct},\n \"host\": {},\n \"executor_reps_compared\": {},\n \
         \"workloads\": [\n{}\n ]}}\n",
        args.smoke,
        args.seed,
        args.seconds,
        host.to_json(),
        agreement.unwrap_or(0),
        documents.join(",\n")
    );
    let path: PathBuf = args
        .result
        .clone()
        .unwrap_or_else(|| args.out_dir.join(format!("result-seed{}.json", args.seed)));
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    std::fs::write(&path, document).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("result written to {}", path.display());
    Ok(correct)
}
