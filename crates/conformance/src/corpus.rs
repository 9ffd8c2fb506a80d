//! The seeded violation corpus and the self-test that keeps every rule
//! honest.
//!
//! Each fixture under `crates/conformance/corpus/` is a standalone `.rs`
//! file (never compiled — the directory is not a module and the walker skips
//! it) whose first line declares the *pretend* workspace path the rules
//! should see:
//!
//! ```text
//! //! conformance-fixture: path=crates/server/src/fake_handler.rs
//! ```
//!
//! Every line that must be flagged carries a `//~ <rule-name>` marker in a
//! trailing line comment (one marker comment can list several space-separated
//! rule names). The self-test fails if any marked line is *not* flagged
//! (a rule went blind) or any unmarked line *is* flagged (a rule overfires).

use std::fs;
use std::path::Path;

use crate::lexer::{LexedFile, SpanKind};
use crate::rules::{check_file, RULES};

/// Outcome of running the rules over the seeded corpus.
pub struct SelfTestReport {
    /// Per-rule number of expected (seeded) violations.
    pub expected_per_rule: Vec<(&'static str, usize)>,
    /// Human-readable failures; empty means the self-test passed.
    pub failures: Vec<String>,
}

impl SelfTestReport {
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Run every rule over every corpus fixture and compare against the `//~`
/// markers. The workspace allowlist is deliberately *not* applied: the
/// corpus tests the raw rules.
pub fn run_self_test(workspace_root: &Path) -> SelfTestReport {
    let corpus_dir = workspace_root.join("crates/conformance/corpus");
    let mut failures = Vec::new();
    let mut expected_counts: Vec<(&'static str, usize)> =
        RULES.iter().map(|r| (r.name, 0usize)).collect();

    let mut entries: Vec<_> = match fs::read_dir(&corpus_dir) {
        Ok(rd) => rd.filter_map(Result::ok).map(|e| e.path()).collect(),
        Err(err) => {
            let dir = corpus_dir.display();
            failures.push(format!("cannot read corpus dir {dir}: {err}"));
            Vec::new()
        }
    };
    entries.retain(|p| p.extension().is_some_and(|e| e == "rs"));
    entries.sort();

    for fixture in entries {
        let fname = fixture
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let text = match fs::read_to_string(&fixture) {
            Ok(t) => t,
            Err(err) => {
                failures.push(format!("{fname}: unreadable: {err}"));
                continue;
            }
        };
        let lexed = LexedFile::lex(&text);
        let Some(pretend_path) = fixture_path(&lexed) else {
            failures.push(format!(
                "{fname}: first line must be `//! conformance-fixture: path=<workspace path>`"
            ));
            continue;
        };

        let expected = expected_markers(&lexed, &fname, &mut failures);
        for (_, rule) in &expected {
            if let Some(slot) = expected_counts.iter_mut().find(|(r, _)| r == rule) {
                slot.1 += 1;
            }
        }

        let mut actual = Vec::new();
        check_file(&pretend_path, &lexed, &mut actual);
        let mut actual: Vec<(usize, String)> = actual
            .into_iter()
            .map(|v| (v.line, v.rule.to_string()))
            .collect();
        actual.sort();
        actual.dedup();

        for (line, rule) in &expected {
            if !actual.iter().any(|(l, r)| l == line && r == rule) {
                failures.push(format!(
                    "{fname}:{line}: rule `{rule}` went blind — seeded violation not flagged"
                ));
            }
        }
        for (line, rule) in &actual {
            if !expected.iter().any(|(l, r)| l == line && r == rule) {
                failures.push(format!(
                    "{fname}:{line}: rule `{rule}` overfires — finding on an unmarked line"
                ));
            }
        }
    }

    // Every rule must have at least one seeded violation, otherwise the
    // corpus itself has gone blind for that rule.
    for (rule, count) in &expected_counts {
        if *count == 0 {
            failures.push(format!(
                "corpus has no seeded violation for rule `{rule}` — the self-test cannot \
                 detect that rule going blind"
            ));
        }
    }

    SelfTestReport {
        expected_per_rule: expected_counts,
        failures,
    }
}

/// Extract the pretend workspace path from the fixture header comment.
fn fixture_path(lexed: &LexedFile) -> Option<String> {
    for span in &lexed.spans {
        if span.kind != SpanKind::LineComment {
            continue;
        }
        let text = &lexed.text[span.start..span.end];
        let trimmed = text.trim_start_matches('/').trim_start_matches('!').trim();
        if let Some(rest) = trimmed.strip_prefix("conformance-fixture:") {
            if let Some(path) = rest.trim().strip_prefix("path=") {
                return Some(path.trim().to_string());
            }
        }
    }
    None
}

/// Collect `(line, rule)` expectations from `//~` marker comments. Markers
/// are read through the lexer, so `//~` inside a string literal is not a
/// marker.
fn expected_markers(
    lexed: &LexedFile,
    fname: &str,
    failures: &mut Vec<String>,
) -> Vec<(usize, String)> {
    let mut expected = Vec::new();
    for span in &lexed.spans {
        if span.kind != SpanKind::LineComment {
            continue;
        }
        let text = &lexed.text[span.start..span.end];
        let Some(rest) = text.strip_prefix("//~") else {
            continue;
        };
        let line = lexed.line_of(span.start);
        for rule in rest.split_whitespace() {
            if crate::rules::rule_by_name(rule).is_none() {
                failures.push(format!(
                    "{fname}:{line}: marker names unknown rule `{rule}`"
                ));
                continue;
            }
            expected.push((line, rule.to_string()));
        }
    }
    expected.sort();
    expected.dedup();
    expected
}
