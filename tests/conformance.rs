//! Tier-1 guard of the workspace's invariants.
//!
//! The conformance scanner must scan clean and every rule must still catch
//! its seeded corpus violations (a rule that goes blind is itself a
//! regression).  The invariants clippy checks are enforced by CI's `lint`
//! job, not here; this test fails if their setup is deleted — a missing
//! attribute or config line would otherwise turn a lint off silently.

use std::fs;
use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &str) -> String {
    fs::read_to_string(workspace_root().join(path))
        .unwrap_or_else(|err| panic!("cannot read {path}: {err}"))
}

/// The lints that keep panics out of the serving path.
const REQUEST_PATH_LINTS: [&str; 7] = [
    "clippy::expect_used",
    "clippy::indexing_slicing",
    "clippy::panic",
    "clippy::todo",
    "clippy::unimplemented",
    "clippy::unreachable",
    "clippy::unwrap_used",
];

/// Every lint named by a `#![deny(..)]` of `source`, sorted.
fn denied_lints(source: &str) -> Vec<String> {
    let mut lints: Vec<String> = source
        .split("#![deny(")
        .skip(1)
        .filter_map(|rest| rest.split_once(")]"))
        .flat_map(|(list, _)| list.split(','))
        .map(|lint| lint.trim().to_string())
        .filter(|lint| !lint.is_empty())
        .collect();
    lints.sort();
    lints
}

#[test]
fn the_workspace_scans_clean() {
    let violations = conformance::scan_workspace(workspace_root()).expect("workspace scan runs");
    assert!(
        violations.is_empty(),
        "conformance violations:\n{}",
        violations
            .iter()
            .map(conformance::Violation::render)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn every_rule_catches_its_seeded_corpus() {
    let report = conformance::run_self_test(workspace_root());
    assert!(
        report.passed(),
        "conformance self-test failures:\n{}",
        report.failures.join("\n")
    );
}

#[test]
fn every_package_forbids_unsafe_code() {
    let root = read("Cargo.toml");
    assert!(root.contains("[workspace.lints.rust]\nunsafe_code = \"forbid\""));
    let (_, members) = root.split_once("members = [").expect("a members list");
    let (members, _) = members.split_once(']').expect("a closed members list");
    let members = members.split(',').map(|m| m.trim().trim_matches('"'));
    for member in members.filter(|m| !m.is_empty()).chain(["."]) {
        let manifest = read(&format!("{member}/Cargo.toml"));
        assert!(manifest.contains("[lints]\nworkspace = true"), "{member}");
    }
}

#[test]
fn the_lint_attributes_and_clippy_configs_are_in_place() {
    for root in [
        "crates/server/src/lib.rs",
        "crates/server/src/bin/serve.rs",
        "crates/distrib/src/lib.rs",
    ] {
        assert_eq!(denied_lints(&read(root)), REQUEST_PATH_LINTS, "{root}");
    }
    for module in ["crates/distrib/src/wire.rs", "crates/engine/src/json.rs"] {
        let lints = denied_lints(&read(module));
        assert!(
            lints.iter().any(|l| l == "clippy::as_conversions"),
            "{module}"
        );
    }
    let system_time = "path = \"std::time::SystemTime\"";
    assert!(read("clippy.toml").contains(system_time));
    let distrib = read("crates/distrib/clippy.toml");
    assert!(distrib.contains(system_time));
    assert!(distrib.contains("path = \"std::time::Instant::now\""));
}
