//! Command-line parsing and the output of a single workload run.

use std::path::PathBuf;

use crate::metrics;
use crate::runner::{Outcome, RunArgs};

/// Usage text.
pub const USAGE: &str = "\
benchmark — the benchmark of record

  benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
      one workload in this process; the last line of standard output is
      {\"correct\", \"attempted\", \"failed\", \"metrics\"}: the end-to-end metrics
      with --trace 0, the per-layer metrics with --trace 1

  benchmark run [--seed N] [--seconds S] [--workload NAME]... [--smoke]
                [--out DIR] [--result FILE]
      every workload (or the named ones), each in its own child process,
      untraced then traced; prints every metric and writes a result file

  benchmark compare A.json B.json [--benchmark-json FILE]
      verdict per (metric, workload) of result B against result A, by the
      bounds in BENCHMARK.json; exits non-zero on any regression
";

/// Default measurement window, `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 10.0;

/// What the command line asks for.
#[derive(Debug, Clone)]
pub enum Command {
    /// One workload in this process (the contract's form).
    Single(RunArgs),
    /// Several workloads, each in a child process.
    Suite(SuiteArgs),
    /// Compare two result files.
    Compare {
        /// The baseline result.
        a: PathBuf,
        /// The candidate result.
        b: PathBuf,
        /// Where the bounds are.
        benchmark_json: PathBuf,
    },
    /// Print the usage text.
    Help,
}

/// Arguments of `run`.
#[derive(Debug, Clone)]
pub struct SuiteArgs {
    /// Workloads to run (all when empty).
    pub workloads: Vec<String>,
    /// Run seed.
    pub seed: u64,
    /// Measurement window per run.
    pub seconds: f64,
    /// Smoke mode.
    pub smoke: bool,
    /// Output directory.
    pub out_dir: PathBuf,
    /// Result file (default `<out>/result-seed<seed>.json`).
    pub result: Option<PathBuf>,
}

fn value<'a>(args: &'a [String], index: &mut usize, flag: &str) -> Result<&'a str, String> {
    *index += 1;
    args.get(*index)
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn parsed<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: cannot parse `{text}`"))
}

/// Parse the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let (mode, rest) = match args.first().map(String::as_str) {
        None | Some("--help" | "-h" | "help") => return Ok(Command::Help),
        Some("run") => ("run", &args[1..]),
        Some("compare") => ("compare", &args[1..]),
        Some(_) => ("single", args),
    };
    let mut workloads = Vec::new();
    let mut seed = 42u64;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut smoke = false;
    let mut out_dir = PathBuf::from("benchmark/out");
    let mut result = None;
    let mut benchmark_json = PathBuf::from("BENCHMARK.json");
    let mut files = Vec::new();
    let mut index = 0;
    while index < rest.len() {
        match rest[index].as_str() {
            "--workload" => workloads.push(value(rest, &mut index, "--workload")?.to_string()),
            "--seed" => seed = parsed(value(rest, &mut index, "--seed")?, "--seed")?,
            "--seconds" => {
                seconds = parsed(value(rest, &mut index, "--seconds")?, "--seconds")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be within (0, 600]".to_string());
                }
            }
            "--trace" => {
                trace = match value(rest, &mut index, "--trace")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--smoke" => smoke = true,
            "--out" => out_dir = PathBuf::from(value(rest, &mut index, "--out")?),
            "--result" => result = Some(PathBuf::from(value(rest, &mut index, "--result")?)),
            "--benchmark-json" => {
                benchmark_json = PathBuf::from(value(rest, &mut index, "--benchmark-json")?)
            }
            flag if flag.starts_with("--") => return Err(format!("unknown option `{flag}`")),
            file if mode == "compare" => files.push(PathBuf::from(file)),
            other => return Err(format!("unexpected argument `{other}`")),
        }
        index += 1;
    }
    match mode {
        "compare" => match <[PathBuf; 2]>::try_from(files) {
            Ok([a, b]) => Ok(Command::Compare {
                a,
                b,
                benchmark_json,
            }),
            Err(_) => Err("compare takes exactly two result files".to_string()),
        },
        "run" => Ok(Command::Suite(SuiteArgs {
            workloads,
            seed,
            seconds,
            smoke,
            out_dir,
            result,
        })),
        _ => match <[String; 1]>::try_from(workloads) {
            Ok([workload]) => Ok(Command::Single(RunArgs {
                workload,
                seed,
                seconds,
                trace,
                smoke,
                out_dir,
            })),
            Err(_) => Err("a single run takes exactly one --workload".to_string()),
        },
    }
}

/// The contract's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics` (plus `"smoke": true` in smoke mode, which no record carries).
pub fn result_line(outcome: &Outcome, smoke: bool) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, ",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
    if smoke {
        line.push_str("\"smoke\": true, ");
    }
    line.push_str("\"metrics\": {");
    for (index, (name, value)) in outcome.metrics.iter().enumerate() {
        if index > 0 {
            line.push_str(", ");
        }
        let unit = metrics::find(name).map_or("", |def| def.unit);
        line.push_str(&format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    line.push_str("}}");
    line
}

/// One metric as the human-readable line both `run` and a single run print:
/// name, value, unit and direction (`None` for a name outside the catalogue).
pub fn metric_line(name: &str, value: f64) -> Option<String> {
    metrics::find(name).map(|def| {
        format!(
            "  {name:<40} {value:>16.6} {:<8} ({} is better)",
            def.unit,
            def.better.as_str()
        )
    })
}

/// Print a run: detail lines, failures, every metric by name with unit and
/// direction, and the result line last.
pub fn print_outcome(args: &RunArgs, outcome: &Outcome) {
    for line in &outcome.lines {
        println!("{line}");
    }
    for failure in &outcome.failures {
        println!("FAILED {failure}");
    }
    println!(
        "workload {} seed {} trace {} attempted {} failed {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        outcome.attempted,
        outcome.failed
    );
    for line in outcome
        .metrics
        .iter()
        .filter_map(|(name, value)| metric_line(name, *value))
    {
        println!("{line}");
    }
    println!("{}", result_line(outcome, args.smoke));
}
