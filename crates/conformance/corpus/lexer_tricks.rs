//! conformance-fixture: path=crates/server/src/fake_quoted.rs
//! Lexer gauntlet: rule triggers inside comments, raw strings, char
//! literals, nested block comments, and test regions must never fire. One
//! real violation at the bottom proves the file is scanned at all.

pub fn quoted() -> &'static str {
    // A comment calling fire("fake:point") and writing "{\"count\": 1}".
    /* Nested /* block comment */ with fire("fake:point") inside. */
    let raw = r#"frames embed "quotes" and fire("fake:point")"#;
    let fenced = r##"a raw string ending in "# keeps going: {\"count\": 1}"##;
    let plain = "escaped \" quote then fire(\"fake:point\")";
    let ch = '"';
    let escaped = '\'';
    let lifetime: &'static str = raw;
    let _ = (fenced, plain, ch, escaped, lifetime);
    "ok"
}

pub fn scanned(count: u64) -> String {
    format!("{{\"count\": {count}}}") //~ json-through-writer
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_spell_out_documents_and_points() {
        treemem::faultinject::fire("test:point");
        assert_eq!(super::scanned(1), "{\"count\": 1}");
    }
}
