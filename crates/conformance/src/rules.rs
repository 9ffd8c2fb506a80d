//! The conformance rules and their allowlist.
//!
//! Every rule is named, scoped, and explained (`exp_conformance --explain
//! <rule>`). Findings can be suppressed only through [`ALLOWLIST`] entries,
//! which match on a path suffix plus a content substring of the offending
//! line — robust to line drift — and carry a human-readable reason. Entries
//! that no longer match anything are themselves reported as violations so
//! the allowlist cannot rot.

use treemem::faultinject::POINTS;

use crate::lexer::{LexedFile, SpanKind};

/// One finding: a rule violated at a specific file/line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub rule: &'static str,
    pub path: String,
    pub line: usize,
    pub message: String,
}

impl Violation {
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Metadata for one rule, used by `--explain` and the self-test.
pub struct Rule {
    pub name: &'static str,
    pub summary: &'static str,
    pub explain: &'static str,
}

pub const RULES: &[Rule] = &[
    Rule {
        name: "cancel-poll-coverage",
        summary: "every faultinject point is paired with a CancelToken poll in its stage",
        explain: "Fault-injection points mark the stages where the chaos harness can\n\
                  delay or kill work; each such stage must also poll cooperative\n\
                  cancellation, otherwise a cancelled request keeps burning the stage the\n\
                  chaos test says is slow. For every `fire(\"point\")` /\n\
                  `fire_fault(\"point\")` call site, the point name must be one of\n\
                  `treemem::faultinject::POINTS` (the names `parse_plan` accepts) and a\n\
                  cancellation poll (`is_cancelled` / `check(cancel, ..)`) must appear\n\
                  within 40 lines in the same file. Sites whose stage is fenced another\n\
                  way (lease expiry, unwind containment) need an ALLOWLIST entry\n\
                  explaining the fence.",
    },
    Rule {
        name: "json-through-writer",
        summary: "no JSON object keys in string literals outside engine::json: use json::Writer",
        explain: "`engine::json::Writer` owns separators, escaping, `null` floats and the\n\
                  one layout byte-stable documents depend on; a string literal holding an\n\
                  escaped-quote key and a colon is a hand-rolled renderer. Scope: non-test code\n\
                  under `crates/` except `crates/engine/src/json.rs`. An ALLOWLIST entry\n\
                  must say why the literal cannot go through the writer.",
    },
];

pub fn rule_by_name(name: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.name == name)
}

/// An allowlist entry: suppresses findings of `rule` in files whose path ends
/// with `path_suffix`, on lines containing `needle`.
pub struct AllowEntry {
    pub rule: &'static str,
    pub path_suffix: &'static str,
    pub needle: &'static str,
    pub reason: &'static str,
}

pub const ALLOWLIST: &[AllowEntry] = &[
    // --- cancel-poll-coverage ---------------------------------------------
    AllowEntry {
        rule: "cancel-poll-coverage",
        path_suffix: "server/src/worker.rs",
        needle: "fire(\"parexec:task\")",
        reason: "worker claim loop is lease-fenced: a stalled task is re-issued by the \
                 coordinator after lease expiry, so cancellation is coordinator-side",
    },
    AllowEntry {
        rule: "cancel-poll-coverage",
        path_suffix: "multifrontal/src/dense.rs",
        needle: "fire(\"arena:alloc\")",
        reason: "arena allocation happens inside eliminate_columns' column loop, which \
                 polls the stop probe every few columns; the injected panic unwinds \
                 through catch_unwind",
    },
];

/// Tokens that count as a cooperative-cancellation poll for
/// `cancel-poll-coverage`.
const POLL_TOKENS: &[&str] = &["is_cancelled", "check(cancel"];

/// How many lines around a fault point we search for a cancellation poll.
const POLL_WINDOW: usize = 40;

/// True for files that are test-only by location (integration tests, benches,
/// examples) rather than by `#[cfg(test)]` region.
pub fn is_test_path(path: &str) -> bool {
    let p = path.replace('\\', "/");
    p.starts_with("tests/")
        || p.starts_with("examples/")
        || p.contains("/tests/")
        || p.contains("/benches/")
        || p.contains("/examples/")
}

/// Run every rule over one lexed file, appending findings to `out`.
/// `path` uses `/` separators and is relative to the workspace root.
pub fn check_file(path: &str, lexed: &LexedFile, out: &mut Vec<Violation>) {
    check_cancel_poll_coverage(path, lexed, out);
    check_json_through_writer(path, lexed, out);
}

/// Apply the allowlist to raw findings. Returns the surviving violations plus
/// one synthetic violation per stale (never-matched) allowlist entry.
pub fn apply_allowlist(findings: Vec<Violation>, files: &[(String, LexedFile)]) -> Vec<Violation> {
    let mut used = vec![false; ALLOWLIST.len()];
    let mut kept = Vec::new();
    'finding: for v in findings {
        let line_text = files
            .iter()
            .find(|(p, _)| *p == v.path)
            .map(|(_, l)| l.line_text(v.line))
            .unwrap_or("");
        for (i, entry) in ALLOWLIST.iter().enumerate() {
            if entry.rule == v.rule
                && v.path.ends_with(entry.path_suffix)
                && line_text.contains(entry.needle)
            {
                used[i] = true;
                continue 'finding;
            }
        }
        kept.push(v);
    }
    // Stale entries: confirm the needle still exists somewhere in the file it
    // points at; an entry whose file or line vanished must be deleted.
    for (i, entry) in ALLOWLIST.iter().enumerate() {
        if used[i] {
            continue;
        }
        let still_matches = files
            .iter()
            .any(|(p, l)| p.ends_with(entry.path_suffix) && l.text.contains(entry.needle));
        if !still_matches {
            kept.push(Violation {
                rule: "stale-allowlist",
                path: format!("crates/conformance/src/rules.rs ({})", entry.path_suffix),
                line: 0,
                message: format!(
                    "allowlist entry for rule `{}` with needle `{}` no longer matches \
                     anything — delete it",
                    entry.rule, entry.needle
                ),
            });
        }
    }
    kept
}

// ---------------------------------------------------------------------------
// cancel-poll-coverage
// ---------------------------------------------------------------------------

fn check_cancel_poll_coverage(path: &str, lexed: &LexedFile, out: &mut Vec<Violation>) {
    if is_test_path(path) {
        return;
    }
    for (idx, span) in lexed.spans.iter().enumerate() {
        if span.kind != SpanKind::Str || idx == 0 {
            continue;
        }
        let prev = lexed.spans[idx - 1];
        if prev.kind != SpanKind::Code {
            continue;
        }
        let head = lexed.text[prev.start..prev.end].trim_end();
        if !head.ends_with("fire(") && !head.ends_with("fire_fault(") {
            continue;
        }
        let line = lexed.line_of(span.start);
        if lexed.is_test_line(line) {
            continue;
        }
        let literal = &lexed.text[span.start..span.end];
        let point = literal.trim_matches('"');
        if !POINTS.contains(&point) {
            out.push(Violation {
                rule: "cancel-poll-coverage",
                path: path.to_string(),
                line,
                message: format!(
                    "unknown fault point `{point}`: add it to `treemem::faultinject::POINTS` \
                     and pair it with a cancellation poll"
                ),
            });
            continue;
        }
        let lo = line.saturating_sub(POLL_WINDOW).max(1);
        let hi = (line + POLL_WINDOW).min(lexed.line_count());
        let polled = (lo..=hi).any(|l| {
            let t = lexed.masked_line(l);
            POLL_TOKENS.iter().any(|tok| t.contains(tok))
        });
        if !polled {
            out.push(Violation {
                rule: "cancel-poll-coverage",
                path: path.to_string(),
                line,
                message: format!(
                    "fault point `{point}` has no cancellation poll within {POLL_WINDOW} \
                     lines: poll `is_cancelled` / `check(cancel, ..)` in the same stage"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// json-through-writer
// ---------------------------------------------------------------------------

fn check_json_through_writer(path: &str, lexed: &LexedFile, out: &mut Vec<Violation>) {
    if !path.starts_with("crates/") || path.ends_with("engine/src/json.rs") || is_test_path(path) {
        return;
    }
    // An escaped-quote key — letters, digits, `_-.` and format braces — then
    // a colon.
    let is_key = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | '{' | '}');
    let quote = "\\\"";
    for span in lexed.spans.iter().filter(|span| span.kind == SpanKind::Str) {
        let literal = &lexed.text[span.start..span.end];
        let key_at = literal.match_indices(quote).find_map(|(at, _)| {
            let key = &literal[at + quote.len()..];
            let rest = key[key.find(|c| !is_key(c)).unwrap_or(key.len())..].strip_prefix(quote)?;
            rest.trim_start_matches(' ').starts_with(':').then_some(at)
        });
        let Some(line) = key_at.map(|at| lexed.line_of(span.start + at)) else {
            continue;
        };
        if !lexed.is_test_line(line) {
            out.push(Violation {
                rule: "json-through-writer",
                path: path.to_string(),
                line,
                message: "JSON object key in a string literal: use `engine::json::Writer`"
                    .to_string(),
            });
        }
    }
}
