//! Tier-1 guard of the workspace's invariants.
//!
//! The invariants clippy checks are enforced by CI's `lint` job, not here;
//! this test fails if their setup is deleted — a missing attribute or
//! config line would otherwise turn a lint off silently.  The one invariant
//! no lint can see, that JSON is rendered only by `engine::json::Writer`,
//! is a line scan of the crates' non-test sources.

use std::fs;
use std::path::{Path, PathBuf};

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

/// Whether `line` holds an escaped-quote JSON key — letters, digits,
/// `_.-` and format braces — followed by a colon (`\"key\":`), the shape of
/// a hand-rolled renderer.
fn renders_a_json_key(line: &str) -> bool {
    let quote = "\\\"";
    line.match_indices(quote).any(|(at, _)| {
        let key = &line[at + quote.len()..];
        let end = key
            .find(|c: char| !(c.is_ascii_alphanumeric() || "_.{}-".contains(c)))
            .unwrap_or(key.len());
        key[end..]
            .strip_prefix(quote)
            .is_some_and(|rest| rest.trim_start_matches(' ').starts_with(':'))
    })
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// `engine::json` owns separators, escaping, `null` floats and the one
/// layout byte-stable documents depend on, so no other non-test source may
/// hold a JSON key in a string literal.  A file's test module is skipped:
/// clippy's default `items_after_test_module` keeps it last.
#[test]
fn json_is_rendered_only_by_the_writer() {
    // The matcher must still see what it looks for.
    assert!(renders_a_json_key(r#"format!("{{\"count\": {count}}}")"#));
    assert!(renders_a_json_key(r#"format!("{{\"{name}\" : 1}}")"#));
    assert!(!renders_a_json_key(r#"writer.field("count", count)"#));
    assert!(!renders_a_json_key(
        r#""a \"config_hash\" string: see /solve""#
    ));

    let mut files = Vec::new();
    for krate in fs::read_dir(workspace_root().join("crates")).expect("a crates directory") {
        let src = krate.expect("readable directory entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    files.retain(|path| !path.ends_with("engine/src/json.rs"));
    assert!(files.len() > 50, "found only {} sources", files.len());
    let mut hits = Vec::new();
    for path in files {
        let source = fs::read_to_string(&path).expect("readable source");
        let mut lines = source.lines().enumerate().peekable();
        while let Some((index, line)) = lines.next() {
            let trimmed = line.trim_start();
            if trimmed == "#[cfg(test)]"
                && lines
                    .peek()
                    .is_some_and(|(_, next)| next.trim_start().starts_with("mod tests"))
            {
                break;
            }
            if !trimmed.starts_with("//") && renders_a_json_key(line) {
                let path = path.strip_prefix(workspace_root()).unwrap_or(&path);
                hits.push(format!("{}:{}: {}", path.display(), index + 1, line.trim()));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "JSON keys outside engine::json (render them with json::Writer):\n{}",
        hits.join("\n")
    );
}
