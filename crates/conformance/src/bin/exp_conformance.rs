//! Workspace conformance scanner.
//!
//! ```text
//! exp_conformance                 # self-test the rules, then scan the workspace
//! exp_conformance --explain RULE  # print one rule's rationale
//! exp_conformance --list          # list all rules
//! ```
//!
//! It checks the workspace it was built from.  Exit status is non-zero when
//! any violation is found or any rule goes blind on the seeded corpus.

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args.as_slice() {
        [] => check(),
        ["--list"] => {
            for rule in conformance::RULES {
                println!("{:<28} {}", rule.name, rule.summary);
            }
            ExitCode::SUCCESS
        }
        ["--explain", name] => explain(name),
        _ => {
            eprintln!("usage: exp_conformance [--explain RULE | --list]");
            ExitCode::from(2)
        }
    }
}

fn check() -> ExitCode {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = manifest_dir.ancestors().nth(2).unwrap_or(manifest_dir);
    let report = conformance::run_self_test(root);
    for (rule, count) in &report.expected_per_rule {
        println!("self-test: rule {rule:<28} seeded violations flagged: {count}");
    }
    for failure in &report.failures {
        eprintln!("self-test: FAIL {failure}");
    }
    if report.passed() {
        println!("self-test: PASS — no rule is blind, no rule overfires on the corpus");
    }

    let scanned = match conformance::scan_workspace(root) {
        Ok(violations) => violations,
        Err(err) => {
            eprintln!("scan: error walking {}: {err}", root.display());
            return ExitCode::FAILURE;
        }
    };
    for v in &scanned {
        eprintln!("{}", v.render());
    }
    if scanned.is_empty() {
        println!(
            "scan: PASS — zero conformance violations in {}",
            root.display()
        );
    } else {
        eprintln!("scan: FAIL — {} violation(s)", scanned.len());
    }

    if report.passed() && scanned.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn explain(name: &str) -> ExitCode {
    match conformance::rule_by_name(name) {
        Some(rule) => {
            println!("{} — {}\n", rule.name, rule.summary);
            println!("{}", rule.explain);
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("unknown rule `{name}`; known rules:");
            for rule in conformance::RULES {
                eprintln!("  {}", rule.name);
            }
            ExitCode::from(2)
        }
    }
}
