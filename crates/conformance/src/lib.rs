//! # conformance — workspace-invariant static analysis
//!
//! The repository's invariants live in two places.  Those the compiler can
//! check are clippy lints, enforced by CI's `clippy -D warnings`:
//!
//! * no `unwrap` / `expect` / `panic!` / `unreachable!` / `todo!` /
//!   `unimplemented!` / slice indexing in non-test serving code — a `deny`
//!   list at the `server` lib, the `serve` bin and the `distrib` lib;
//! * no `as` conversions in `distrib/src/wire.rs` and `engine/src/json.rs`
//!   (`clippy::as_conversions`);
//! * no `SystemTime` anywhere, and no `Instant::now` in `crates/distrib`
//!   (`disallowed-types` / `disallowed-methods` in the `clippy.toml` files);
//! * no `unsafe` (`unsafe_code = "forbid"`, inherited by every package).
//!
//! A reviewed exception is an `#[expect(<lint>, reason = "..")]` on the
//! narrowest statement or fn; one that stops firing fails the build.
//!
//! This crate checks the two invariants no lint can see, on every workspace
//! `.rs` file: every fault-injection point is a real one and its stage polls
//! cancellation (`cancel-poll-coverage`), and no string literal outside
//! `engine::json` hand-renders a JSON key (`json-through-writer`).  It has
//! its own lexer (strings, nested comments, `#[cfg(test)]` regions), so
//! rules never fire inside literals, comments, or test code they should
//! ignore.
//!
//! The `exp_conformance` binary (CI `conformance` job, `--explain <rule>`)
//! and the tier-1 `tests/conformance.rs` both run the corpus self-test and
//! the workspace scan.

pub mod corpus;
pub mod lexer;
pub mod rules;
pub mod walk;

use std::fs;
use std::path::Path;

pub use corpus::{run_self_test, SelfTestReport};
pub use lexer::LexedFile;
pub use rules::{rule_by_name, Violation, ALLOWLIST, RULES};

/// Scan every workspace `.rs` file under `root` and return the violations
/// that survive the allowlist (plus stale-allowlist findings).
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<Violation>> {
    let paths = walk::workspace_rs_files(root)?;
    let mut files = Vec::with_capacity(paths.len());
    for path in paths {
        let text = fs::read_to_string(root.join(&path))?;
        files.push((path, LexedFile::lex(&text)));
    }
    let mut findings = Vec::new();
    for (path, lexed) in &files {
        rules::check_file(path, lexed, &mut findings);
    }
    let mut kept = rules::apply_allowlist(findings, &files);
    kept.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(kept)
}
