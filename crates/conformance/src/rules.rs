//! The conformance rules and their allowlist.
//!
//! Every rule is named, scoped, and explained (`exp_conformance --explain
//! <rule>`). Findings can be suppressed only through [`ALLOWLIST`] entries,
//! which match on a path suffix plus a content substring of the offending
//! line — robust to line drift — and carry a human-readable reason. Entries
//! that no longer match anything are themselves reported as violations so
//! the allowlist cannot rot.

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
        name: "unsafe-needs-safety",
        summary: "every `unsafe` block or fn is immediately preceded by a `// SAFETY:` comment",
        explain: "Every `unsafe` token (block, fn, impl) must be justified by a `// SAFETY:`\n\
                  comment on the same line or immediately above it (doc comments and\n\
                  attributes may sit between the comment and the item). The comment must\n\
                  state the invariant that makes the unsafe code sound — e.g. which CPU\n\
                  features were detected before calling a `target_feature` function.\n\
                  Applies to all workspace code, tests included.",
    },
    Rule {
        name: "monotonic-time-only",
        summary: "no `SystemTime`; `Instant::now()` banned in distrib lease/deadline code",
        explain: "Leases, deadlines, and heartbeats must never consult the wall clock:\n\
                  `SystemTime` can jump backwards (NTP) and silently revive an expired\n\
                  lease. `SystemTime` is banned everywhere. `Instant::now()` is banned in\n\
                  non-test `crates/distrib` code — lease arithmetic must go through the\n\
                  single `engine::cancel::monotonic_millis()` anchor so every timestamp\n\
                  shares one process-wide monotonic origin and serialises as a plain u64.",
    },
    Rule {
        name: "no-truncating-casts",
        summary: "no numeric `as` casts in distrib::wire and engine::json — use try_from",
        explain: "Wire decoding and JSON parsing handle attacker-shaped input. A numeric\n\
                  `as` cast silently truncates (u64 -> usize wraps on 32-bit targets,\n\
                  f64 -> u32 saturates), turning a malformed frame into a wrong answer\n\
                  instead of an error. In `crates/distrib/src/wire.rs` and\n\
                  `crates/engine/src/json.rs`, all numeric narrowing must use\n\
                  `try_from(..)` and surface a typed error. Lossless `From` conversions\n\
                  (`u32::from(c)`) are the idiomatic escape hatch for widening.",
    },
    Rule {
        name: "no-panic-in-request-path",
        summary: "no unwrap/expect/panic!/slice-index in server/distrib non-test code",
        explain: "A panic inside the serving path converts one bad request into a poisoned\n\
                  mutex or a dead worker — PR 7's 'zero non-injected 5xx' invariant dies\n\
                  there. Non-test code in `crates/server` and `crates/distrib` must not\n\
                  call `.unwrap()` / `.expect(..)`, must not use `panic!` / `unreachable!`\n\
                  / `todo!` / `unimplemented!`, and must not index slices with `x[i]`\n\
                  (use `.get(i)`). Mutex acquisition goes through the poison-tolerant\n\
                  `treemem::sync::TrackedMutex::lock()` helper instead of\n\
                  `.lock().unwrap()`. Deliberate invariant panics need an ALLOWLIST entry\n\
                  with a reason.",
    },
    Rule {
        name: "cancel-poll-coverage",
        summary: "every faultinject point is paired with a CancelToken poll in its stage",
        explain: "Fault-injection points mark the stages where the chaos harness can\n\
                  delay or kill work; each such stage must also poll cooperative\n\
                  cancellation, otherwise a cancelled request keeps burning the stage the\n\
                  chaos test says is slow. For every `fire(\"point\")` /\n\
                  `fire_fault(\"point\")` call site, the point name must be in the known\n\
                  roster (kept in crates/conformance/src/rules.rs) and a cancellation\n\
                  poll (`is_cancelled` / `check(cancel, ..)`) must appear within 40 lines\n\
                  in the same file. Sites whose stage is fenced another way (lease expiry,\n\
                  unwind containment) need an ALLOWLIST entry explaining the fence.",
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
    // --- no-panic-in-request-path -----------------------------------------
    AllowEntry {
        rule: "no-panic-in-request-path",
        path_suffix: "server/src/http.rs",
        needle: "byte[0]",
        reason: "fixed 1-byte buffer indexed at 0 immediately after a successful read",
    },
    AllowEntry {
        rule: "no-panic-in-request-path",
        path_suffix: "distrib/src/wire.rs",
        needle: "&bytes[..newline]",
        reason: "newline is an index returned by find() on the same slice",
    },
    AllowEntry {
        rule: "no-panic-in-request-path",
        path_suffix: "distrib/src/wire.rs",
        needle: "&bytes[newline + 1..]",
        reason: "newline is an index returned by find() on the same slice",
    },
    AllowEntry {
        rule: "no-panic-in-request-path",
        path_suffix: "distrib/src/wire.rs",
        needle: "u32::try_from(column).expect(\"column index exceeds the u32 wire range\")",
        reason: "encode side, documented panic: indices come from locally validated matrices",
    },
    AllowEntry {
        rule: "no-panic-in-request-path",
        path_suffix: "distrib/src/job.rs",
        needle: "expect(\"completed task without parts\")",
        reason: "invariant: a task reaches Completed only via contribute(), which stores parts",
    },
    AllowEntry {
        rule: "no-panic-in-request-path",
        path_suffix: "distrib/src/job.rs",
        needle: "state.tasks[index]",
        reason: "index bounds-checked against state.tasks.len() on the previous lines",
    },
    AllowEntry {
        rule: "no-panic-in-request-path",
        path_suffix: "distrib/src/job.rs",
        needle: "pending[slot]",
        reason: "slot is drawn modulo pending.len() just above",
    },
    AllowEntry {
        rule: "no-panic-in-request-path",
        path_suffix: "distrib/src/job.rs",
        needle: "state.tasks[chosen]",
        reason: "chosen comes from pending[], whose members were enumerated from tasks",
    },
    AllowEntry {
        rule: "no-panic-in-request-path",
        path_suffix: "server/src/stats.rs",
        needle: "inner.ring[slot]",
        reason: "slot is cursor % ring.len(); the ring is fixed-capacity",
    },
    AllowEntry {
        rule: "no-panic-in-request-path",
        path_suffix: "server/src/stats.rs",
        needle: "self.cancelled[index]",
        reason: "index is position() in CANCEL_STAGE_NAMES, same length as the array",
    },
    AllowEntry {
        rule: "no-panic-in-request-path",
        path_suffix: "server/src/stats.rs",
        needle: "self.endpoints[index]",
        reason: "index is position() in ENDPOINT_NAMES, same length as the array",
    },
    AllowEntry {
        rule: "no-panic-in-request-path",
        path_suffix: "server/src/stats.rs",
        needle: "self.stages[index]",
        reason: "index is position() in STAGE_NAMES, same length as the array",
    },
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

/// The known fault-injection point roster. `cancel-poll-coverage` flags any
/// `fire("..")` site whose point name is not listed here, forcing new
/// instrumentation points to be registered (and paired with a cancel poll).
pub const FAULT_POINT_ROSTER: &[&str] = &[
    "plan:ordering",
    "plan:symbolic",
    "schedule:solver",
    "schedule:io",
    "execute:numeric",
    "parexec:task",
    "arena:alloc",
];

/// Tokens that count as a cooperative-cancellation poll for
/// `cancel-poll-coverage`.
const POLL_TOKENS: &[&str] = &["is_cancelled", "check(cancel"];

/// How many lines around a fault point we search for a cancellation poll.
const POLL_WINDOW: usize = 40;

const NUMERIC_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

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

fn in_request_path_scope(path: &str) -> bool {
    let p = path.replace('\\', "/");
    (p.contains("crates/server/src/") || p.contains("crates/distrib/src/")) && !is_test_path(&p)
}

fn in_cast_scope(path: &str) -> bool {
    let p = path.replace('\\', "/");
    p.ends_with("distrib/src/wire.rs") || p.ends_with("engine/src/json.rs")
}

fn in_instant_scope(path: &str) -> bool {
    let p = path.replace('\\', "/");
    p.contains("crates/distrib/src/") && !is_test_path(&p)
}

/// Run every rule over one lexed file, appending findings to `out`.
/// `path` uses `/` separators and is relative to the workspace root.
pub fn check_file(path: &str, lexed: &LexedFile, out: &mut Vec<Violation>) {
    check_unsafe_needs_safety(path, lexed, out);
    check_monotonic_time_only(path, lexed, out);
    check_no_truncating_casts(path, lexed, out);
    check_no_panic_in_request_path(path, lexed, out);
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
// unsafe-needs-safety
// ---------------------------------------------------------------------------

fn check_unsafe_needs_safety(path: &str, lexed: &LexedFile, out: &mut Vec<Violation>) {
    for at in lexed.find_code_word("unsafe") {
        let line = lexed.line_of(at);
        if !has_safety_comment(lexed, line) {
            out.push(Violation {
                rule: "unsafe-needs-safety",
                path: path.to_string(),
                line,
                message: "`unsafe` without an immediately preceding `// SAFETY:` comment"
                    .to_string(),
            });
        }
    }
}

fn has_safety_comment(lexed: &LexedFile, line: usize) -> bool {
    if lexed.line_text(line).contains("SAFETY:") {
        return true;
    }
    let mut l = line.saturating_sub(1);
    // Attributes and doc comments may sit between the SAFETY comment and the
    // unsafe item itself.
    while l >= 1 {
        let t = lexed.line_text(l).trim();
        if t.starts_with("#[")
            || t.starts_with("#!")
            || t.starts_with("///")
            || t.starts_with("//!")
        {
            l -= 1;
            continue;
        }
        break;
    }
    // The first non-attribute line(s) above must be a comment block containing
    // `SAFETY:`.
    let mut found = false;
    while l >= 1 {
        let t = lexed.line_text(l).trim();
        let plain_line_comment =
            t.starts_with("//") && !t.starts_with("///") && !t.starts_with("//!");
        let block_comment_ish = t.starts_with("/*") || t.starts_with('*') || t.ends_with("*/");
        if !plain_line_comment && !block_comment_ish {
            break;
        }
        if t.contains("SAFETY:") {
            found = true;
        }
        l -= 1;
    }
    found
}

// ---------------------------------------------------------------------------
// monotonic-time-only
// ---------------------------------------------------------------------------

fn check_monotonic_time_only(path: &str, lexed: &LexedFile, out: &mut Vec<Violation>) {
    for at in lexed.find_code_word("SystemTime") {
        let line = lexed.line_of(at);
        out.push(Violation {
            rule: "monotonic-time-only",
            path: path.to_string(),
            line,
            message: "`SystemTime` is banned: wall clocks jump; use the monotonic anchor"
                .to_string(),
        });
    }
    if !in_instant_scope(path) {
        return;
    }
    for at in lexed.find_code_prefixed("Instant::now") {
        let line = lexed.line_of(at);
        if lexed.is_test_line(line) {
            continue;
        }
        out.push(Violation {
            rule: "monotonic-time-only",
            path: path.to_string(),
            line,
            message: "`Instant::now()` in lease/deadline code: route through \
                      `engine::cancel::monotonic_millis()`"
                .to_string(),
        });
    }
}

// ---------------------------------------------------------------------------
// no-truncating-casts
// ---------------------------------------------------------------------------

fn check_no_truncating_casts(path: &str, lexed: &LexedFile, out: &mut Vec<Violation>) {
    if !in_cast_scope(path) {
        return;
    }
    let masked = lexed.masked.as_bytes();
    for at in lexed.find_code_word("as") {
        let line = lexed.line_of(at);
        if lexed.is_test_line(line) {
            continue;
        }
        // Read the next identifier token after `as`.
        let mut i = at + 2;
        while i < masked.len() && (masked[i] == b' ' || masked[i] == b'\n') {
            i += 1;
        }
        let start = i;
        while i < masked.len() && (masked[i].is_ascii_alphanumeric() || masked[i] == b'_') {
            i += 1;
        }
        let word = &lexed.masked[start..i];
        if NUMERIC_TYPES.contains(&word) {
            out.push(Violation {
                rule: "no-truncating-casts",
                path: path.to_string(),
                line,
                message: format!(
                    "numeric `as {word}` cast in wire/json parsing: use `{word}::try_from(..)` \
                     and surface a typed error"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// no-panic-in-request-path
// ---------------------------------------------------------------------------

fn check_no_panic_in_request_path(path: &str, lexed: &LexedFile, out: &mut Vec<Violation>) {
    if !in_request_path_scope(path) {
        return;
    }
    let push = |line: usize, message: String, out: &mut Vec<Violation>| {
        out.push(Violation {
            rule: "no-panic-in-request-path",
            path: path.to_string(),
            line,
            message,
        });
    };
    for needle in [".unwrap()", ".expect("] {
        let mut from = 0;
        while let Some(pos) = lexed.masked[from..].find(needle) {
            let at = from + pos;
            from = at + needle.len();
            let line = lexed.line_of(at);
            if lexed.is_test_line(line) {
                continue;
            }
            push(
                line,
                format!(
                    "`{needle}..` in the request path: handle the error or go through the \
                         poison-tolerant `TrackedMutex::lock()`"
                ),
                out,
            );
        }
    }
    for mac in ["panic!", "unreachable!", "todo!", "unimplemented!"] {
        for at in lexed.find_code_prefixed(mac) {
            let line = lexed.line_of(at);
            if lexed.is_test_line(line) {
                continue;
            }
            push(
                line,
                format!("`{mac}(..)` in the request path: return a typed error instead"),
                out,
            );
        }
    }
    // Slice indexing: `ident[`, `)[`, `][` with no whitespace between. Array
    // literals (`[0; 8]`), slice patterns (`let [a, b] = ..`), attributes
    // (`#[..]`) and macros (`vec![`) all have a non-identifier byte before
    // the bracket and do not match.
    let bytes = lexed.masked.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' || i == 0 {
            continue;
        }
        let prev = bytes[i - 1];
        let indexes = prev.is_ascii_alphanumeric() || prev == b'_' || prev == b')' || prev == b']';
        if !indexes {
            continue;
        }
        let line = lexed.line_of(i);
        if lexed.is_test_line(line) {
            continue;
        }
        push(
            line,
            "slice index `x[..]` in the request path: use `.get(..)` and handle `None`".to_string(),
            out,
        );
    }
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
        if !FAULT_POINT_ROSTER.contains(&point) {
            out.push(Violation {
                rule: "cancel-poll-coverage",
                path: path.to_string(),
                line,
                message: format!(
                    "unknown fault point `{point}`: add it to FAULT_POINT_ROSTER in \
                     crates/conformance/src/rules.rs and pair it with a cancellation poll"
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
