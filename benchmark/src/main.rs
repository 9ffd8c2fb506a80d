//! Entry point: a single workload run (the contract's form), the whole
//! suite in child processes, or a comparison of two result files.

use std::process::ExitCode;

use benchmark::cli::{self, Command};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match cli::parse(&args) {
        Ok(Command::Help) => {
            print!("{}", cli::USAGE);
            return ExitCode::SUCCESS;
        }
        Ok(Command::Single(run)) => benchmark::workloads::run(&run).and_then(|outcome| {
            if let Some((name, value)) = outcome.metrics.iter().find(|(_, v)| !v.is_finite()) {
                return Err(format!("metric {name} is not a number: {value}"));
            }
            cli::print_outcome(&run, &outcome);
            Ok(true)
        }),
        Ok(Command::Suite(suite)) => benchmark::suite::run(&suite),
        Ok(Command::Compare {
            a,
            b,
            benchmark_json,
        }) => benchmark::compare::run(&a, &b, &benchmark_json),
        Err(message) => {
            eprintln!("benchmark: {message}\n\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
