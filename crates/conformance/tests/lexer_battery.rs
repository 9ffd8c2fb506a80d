//! Lexer battery: the conformance rules are only as good as the lexer's
//! classification of strings, comments, and test regions.

use conformance::lexer::{LexedFile, SpanKind};
use conformance::rules::{self, Violation};

fn check(path: &str, source: &str) -> Vec<Violation> {
    let lexed = LexedFile::lex(source);
    let mut out = Vec::new();
    rules::check_file(path, &lexed, &mut out);
    out
}

#[test]
fn raw_strings_are_masked() {
    let src = r####"
pub fn f() -> &'static str {
    let a = r"plain .unwrap() raw";
    let b = r#"one fence "quoted" .expect("x")"#;
    let c = r##"two fences ending "# then done"##;
    let _ = (a, b, c);
    "done"
}
"####;
    let lexed = LexedFile::lex(src);
    assert!(!lexed.masked.contains("unwrap"));
    assert!(!lexed.masked.contains("expect"));
    assert!(!lexed.masked.contains("quoted"));
    assert_eq!(
        lexed
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::RawStr)
            .count(),
        3
    );
    // The trailing "done" is an ordinary string.
    assert!(lexed.spans.iter().any(|s| s.kind == SpanKind::Str));
    assert!(check("crates/server/src/x.rs", src).is_empty());
}

#[test]
fn nested_block_comments_are_masked() {
    let src = "/* outer /* inner .unwrap() */ still comment panic!(\"x\") */\npub fn f() {}\n";
    let lexed = LexedFile::lex(src);
    assert!(!lexed.masked.contains("unwrap"));
    assert!(!lexed.masked.contains("panic"));
    assert!(lexed.masked.contains("pub fn f"));
    assert!(check("crates/server/src/x.rs", src).is_empty());
}

#[test]
fn escaped_quotes_do_not_end_strings() {
    let src = "pub fn f() -> String {\n    let s = \"escaped \\\" then .unwrap() inside\";\n    s.to_string()\n}\n";
    let lexed = LexedFile::lex(src);
    assert!(!lexed.masked.contains("unwrap"));
    assert!(check("crates/distrib/src/x.rs", src).is_empty());
}

#[test]
fn char_literals_vs_lifetimes() {
    let src = "pub fn f<'a>(s: &'a str) -> char {\n    let q = '\"';\n    let e = '\\'';\n    let n = '\\n';\n    if s.is_empty() { q } else if n == e { n } else { 'x' }\n}\n";
    let lexed = LexedFile::lex(src);
    let chars = lexed
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Char)
        .count();
    assert_eq!(chars, 4, "masked: {:?}", lexed.masked);
    // Lifetimes survive as code.
    assert!(lexed.masked.contains("'a>"));
}

#[test]
fn cfg_test_regions_are_marked() {
    let src = "pub fn prod(v: &[u64]) -> Option<&u64> {\n    v.get(0)\n}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        fire(\"bogus:point\");\n        assert_eq!(format!(\"{{\\\"n\\\": 1}}\"), \"{\\\"n\\\": 1}\");\n    }\n}\n";
    let lexed = LexedFile::lex(src);
    assert!(!lexed.is_test_line(1));
    assert!(!lexed.is_test_line(2));
    let mod_line = src
        .lines()
        .position(|l| l.contains("mod tests"))
        .map(|i| i + 1)
        .expect("fixture has mod tests");
    assert!(lexed.is_test_line(mod_line));
    assert!(lexed.is_test_line(mod_line + 4));
    // The unknown fault point and the JSON keys in the test region must not
    // fire.
    assert!(check("crates/server/src/x.rs", src).is_empty());
}

#[test]
fn test_attribute_without_mod_is_marked() {
    let src = "pub fn prod() {}\n\n#[test]\nfn standalone() {\n    fire(\"bogus:point\");\n}\n";
    let violations = check("crates/server/src/x.rs", src);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn violations_outside_test_regions_fire() {
    let src = "pub fn prod() {\n    fire(\"bogus:point\");\n}\n\n#[cfg(test)]\nmod tests {}\n";
    let violations = check("crates/server/src/x.rs", src);
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].rule, "cancel-poll-coverage");
    assert_eq!(violations[0].line, 2);
}

#[test]
fn fault_point_roster_and_window() {
    // Unknown point name.
    let src = "use treemem::faultinject::fire;\npub fn f() {\n    fire(\"bogus:point\");\n}\n";
    let violations = check("crates/engine/src/x.rs", src);
    assert_eq!(violations.len(), 1);
    assert!(violations[0].message.contains("unknown fault point"));

    // Known point, polled.
    let src_ok = "pub fn f(t: &CancelToken) {\n    fire(\"execute:numeric\");\n    if t.is_cancelled() { return; }\n}\n";
    assert!(check("crates/engine/src/x.rs", src_ok).is_empty());

    // Known point, no poll.
    let src_bad = "pub fn f() {\n    fire(\"execute:numeric\");\n}\n";
    let violations = check("crates/engine/src/x.rs", src_bad);
    assert_eq!(violations.len(), 1);
    assert!(violations[0].message.contains("no cancellation poll"));
}

#[test]
fn json_keys_are_flagged_outside_the_json_module() {
    let src = "pub fn f(n: u64) -> String {\n    format!(\"{{\\\"n\\\": {n}}}\")\n}\n";
    // The writer itself may spell keys out.
    assert!(check("crates/engine/src/json.rs", src).is_empty());
    let violations = check("crates/engine/src/run.rs", src);
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].rule, "json-through-writer");
}

#[test]
fn line_numbers_are_one_indexed_and_stable() {
    let src = "line one\nline two\nline three";
    let lexed = LexedFile::lex(src);
    assert_eq!(lexed.line_count(), 3);
    assert_eq!(lexed.line_of(0), 1);
    assert_eq!(lexed.line_of(9), 2);
    assert_eq!(lexed.line_text(2), "line two");
}
