//! A minimal JSON reader/writer for the engine's configuration and reports.
//!
//! The workspace is fully offline (no `serde`), and the existing reports
//! (`bench::sweep`) hand-roll their JSON output.  The engine needs the other
//! direction too — [`EngineConfig`](crate::EngineConfig) must *round-trip* —
//! so this module provides a small recursive-descent parser and the matching
//! writer helpers.  Only what the engine serialises is supported: objects,
//! arrays, strings, booleans, `null`, and numbers (kept as their source text
//! so 64-bit integers survive the trip without a detour through `f64`).
//!
//! The parser also reads documents from the network (`crates/server`), so it
//! is hardened against hostile input: nesting depth is bounded by
//! [`MAX_DEPTH`], numbers must match the JSON grammar exactly, strings may
//! not contain raw control characters, objects reject duplicate keys, and
//! `\u` surrogate pairs are combined (lone surrogates decode to U+FFFD).
//! Every failure is a [`JsonError`] with a byte offset — never a panic or
//! a stack overflow.

use std::fmt;

/// Maximum container nesting depth accepted by [`Json::parse`].
///
/// Deeper documents fail with a [`JsonError`] instead of exhausting the call
/// stack — `Json::parse(&"[".repeat(100_000))` is an error, not an abort.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its source text (see module docs).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

/// A parse failure, with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, fmt: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(fmt, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed, trailing
    /// garbage rejected).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err(pos, "trailing characters after the document"));
        }
        Ok(value)
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an integral number (parsed from the
    /// source text, so the full 64-bit range is exact).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integral number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The value as a `usize`, if it is an integral number.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The array elements, if the value is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn err(offset: usize, message: impl Into<String>) -> JsonError {
    JsonError {
        offset,
        message: message.into(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), JsonError> {
    if *pos < bytes.len() && bytes[*pos] == byte {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, format!("expected '{}'", byte as char)))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    if depth > MAX_DEPTH {
        return Err(err(*pos, format!("nesting deeper than {MAX_DEPTH} levels")));
    }
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(err(*pos, format!("expected '{word}'")))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("digits are ASCII");
    if !is_valid_number(text.as_bytes()) {
        return Err(err(start, format!("invalid number '{text}'")));
    }
    Ok(Json::Num(text.to_string()))
}

/// Validate the exact JSON number grammar: `-? (0 | [1-9][0-9]*) (\.[0-9]+)?
/// ([eE][+-]?[0-9]+)?`.  Rust's `f64::from_str` is laxer (it accepts `1.`,
/// `.5`, `01`, `inf`, `NaN`), so network input is checked against the
/// grammar instead of a parse attempt.
fn is_valid_number(text: &[u8]) -> bool {
    let mut i = 0;
    if text.get(i) == Some(&b'-') {
        i += 1;
    }
    match text.get(i) {
        Some(b'0') => i += 1,
        Some(b'1'..=b'9') => {
            while matches!(text.get(i), Some(b'0'..=b'9')) {
                i += 1;
            }
        }
        _ => return false,
    }
    if text.get(i) == Some(&b'.') {
        i += 1;
        if !matches!(text.get(i), Some(b'0'..=b'9')) {
            return false;
        }
        while matches!(text.get(i), Some(b'0'..=b'9')) {
            i += 1;
        }
    }
    if matches!(text.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(text.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        if !matches!(text.get(i), Some(b'0'..=b'9')) {
            return false;
        }
        while matches!(text.get(i), Some(b'0'..=b'9')) {
            i += 1;
        }
    }
    i == text.len()
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        *pos += 1;
                        out.push(parse_unicode_escape(bytes, pos)?);
                        continue;
                    }
                    _ => return Err(err(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(&byte) if byte < 0x20 => {
                // `escape()` never emits a raw control character, so
                // accepting one here would break the parse∘escape bijection
                // (and the JSON grammar forbids it anyway).
                return Err(err(
                    *pos,
                    format!("raw control character 0x{byte:02x} in string"),
                ));
            }
            Some(_) => {
                // Consume the whole run of plain bytes in one step.  The
                // delimiters (quote, backslash, controls) are ASCII, so the
                // run ends on a char boundary and the chunk is valid UTF-8
                // (the input is a &str).  Validating per chunk keeps the
                // parser linear; validating the remainder per character
                // would be quadratic — megabyte hex strings in contribution
                // frames turned exactly that into a multi-hour CPU spin.
                let start = *pos;
                while let Some(&byte) = bytes.get(*pos) {
                    if byte == b'"' || byte == b'\\' || byte < 0x20 {
                        break;
                    }
                    *pos += 1;
                }
                let chunk = std::str::from_utf8(&bytes[start..*pos]).expect("input is valid UTF-8");
                out.push_str(chunk);
            }
        }
    }
}

/// Read the four hex digits of a `\u` escape.  `*pos` points at the first
/// digit on entry and just past the last one on success.
fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, JsonError> {
    let hex = bytes
        .get(*pos..*pos + 4)
        .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
    // Exactly four ASCII hex digits: `from_str_radix` alone would also
    // tolerate a leading `+`, which the JSON grammar does not.
    if !hex.iter().all(u8::is_ascii_hexdigit) {
        return Err(err(*pos, "invalid \\u escape"));
    }
    let text = std::str::from_utf8(hex).expect("hex digits are ASCII");
    let code = u32::from_str_radix(text, 16).expect("validated hex digits");
    *pos += 4;
    Ok(code)
}

/// Decode one `\u` escape, combining a high surrogate with an immediately
/// following `\uDC00..\uDFFF` low surrogate into the supplementary-plane
/// scalar it encodes.  Lone (unpaired) surrogates decode to U+FFFD rather
/// than failing, matching the usual lenient-decode behaviour.  `*pos` points
/// just past the `u` on entry and past the last consumed digit on exit.
fn parse_unicode_escape(bytes: &[u8], pos: &mut usize) -> Result<char, JsonError> {
    let first = parse_hex4(bytes, pos)?;
    if (0xD800..0xDC00).contains(&first) {
        // High surrogate: only a directly adjacent `\uXXXX` low surrogate
        // completes the pair; anything else leaves it lone (→ U+FFFD)
        // without consuming the lookahead.
        if bytes.get(*pos) == Some(&b'\\') && bytes.get(*pos + 1) == Some(&b'u') {
            let mut ahead = *pos + 2;
            let second = parse_hex4(bytes, &mut ahead)?;
            if (0xDC00..0xE000).contains(&second) {
                *pos = ahead;
                let scalar = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                return Ok(char::from_u32(scalar).expect("surrogate pair decodes to a scalar"));
            }
        }
        return Ok('\u{fffd}');
    }
    if (0xDC00..0xE000).contains(&first) {
        // Lone low surrogate.
        return Ok('\u{fffd}');
    }
    Ok(char::from_u32(first).expect("non-surrogate BMP code point"))
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'{')?;
    let mut fields: Vec<(String, Json)> = Vec::new();
    // Seen keys, tracked separately so the duplicate check is O(1) per key —
    // a linear rescan of `fields` would make a many-key object quadratic,
    // a CPU sink on the network-facing parser.
    let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key_offset = *pos;
        let key = parse_string(bytes, pos)?;
        if !seen.insert(key.clone()) {
            // Duplicate keys are legal JSON but a classic smuggling vector
            // for configuration documents (one parser reads the first, one
            // the last); reject them outright.
            return Err(err(key_offset, format!("duplicate key \"{key}\"")));
        }
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth + 1)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(err(*pos, "expected ',' or '}'")),
        }
    }
}

/// Escape a string for embedding in a JSON document (same rules as the
/// report writers elsewhere in the workspace).
///
/// Every control character — C0 (which the grammar forbids raw), DEL, and
/// the C1 range — is emitted as a `\u00XX` escape, so the output is printable
/// and `parse(escape(s)) == s` for every `s`.
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    write_escaped(&mut out, text).expect("writing to a String cannot fail");
    out
}

/// [`escape`], streamed into `out`.
fn write_escaped(out: &mut impl fmt::Write, text: &str) -> fmt::Result {
    for c in text.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if c.is_control() => write!(out, "\\u{:04x}", u32::from(c))?,
            c => out.write_char(c)?,
        }
    }
    Ok(())
}

/// `Display` adapter: the text as a JSON string literal, quotes included,
/// escaped as [`escape`] does but streamed into the formatter's sink.
pub(crate) struct Quoted<'a>(pub(crate) &'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("\"")?;
        write_escaped(f, self.0)?;
        f.write_str("\"")
    }
}

/// `Display` adapter rendering a config or report part as its JSON
/// fragment, so nested parts stream into the sink of whoever renders the
/// enclosing document — a `String`, or a hash — with no intermediate
/// `String`s.  The impls live beside the types they render.
pub(crate) struct AsJson<T>(pub(crate) T);

/// A comma-separated array; `item` renders one element.
pub(crate) fn write_array<W: fmt::Write, T>(
    out: &mut W,
    items: &[T],
    item: impl Fn(&mut W, &T) -> fmt::Result,
) -> fmt::Result {
    out.write_str("[")?;
    for (index, value) in items.iter().enumerate() {
        if index > 0 {
            out.write_str(",")?;
        }
        item(out, value)?;
    }
    out.write_str("]")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        let doc =
            r#"{"a": [1, -2.5, "x\n"], "b": true, "c": null, "d": {"e": 18446744073709551615}}"#;
        let json = Json::parse(doc).unwrap();
        let a = json.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_i64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(-2.5));
        assert_eq!(a[2].as_str(), Some("x\n"));
        assert_eq!(json.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(json.get("c"), Some(&Json::Null));
        // Full u64 range survives (no f64 round-trip).
        assert_eq!(
            json.get("d").unwrap().get("e").unwrap().as_u64(),
            Some(u64::MAX)
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("01a").is_err());
    }

    #[test]
    fn escaping_round_trips() {
        let text = "a\"b\\c\nd\te\u{1}\u{7f}\u{9b}";
        let doc = format!("\"{}\"", escape(text));
        assert_eq!(Json::parse(&doc).unwrap().as_str(), Some(text));
    }

    #[test]
    fn deep_nesting_is_an_error_not_an_abort() {
        // Used to overflow the stack and abort the whole process.
        for opener in ["[", "{\"k\":"] {
            let bomb = opener.repeat(100_000);
            let error = Json::parse(&bomb).unwrap_err();
            assert!(error.message.contains("nesting"), "{error}");
        }
        // Depths at the limit still parse.
        let depth = MAX_DEPTH;
        let fine = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&fine).is_ok());
        let too_deep = format!("{}1{}", "[".repeat(depth + 1), "]".repeat(depth + 1));
        assert!(Json::parse(&too_deep).is_err());
    }

    #[test]
    fn megabyte_strings_parse_in_linear_time() {
        // Contribution frames carry multi-megabyte hex strings.  The string
        // scanner used to re-validate the entire remaining document for
        // every character consumed — quadratic, and a multi-hour CPU spin
        // at this size.  The parse below finishes instantly when the
        // scanner is linear and effectively hangs the suite when it is not.
        let payload = "0123456789abcdef".repeat(128 * 1024); // 2 MiB
        let doc = format!("{{\"values\": \"{payload}\", \"tail\": \"é\\n\"}}");
        let json = Json::parse(&doc).unwrap();
        assert_eq!(json.get("values").unwrap().as_str(), Some(payload.as_str()));
        assert_eq!(json.get("tail").unwrap().as_str(), Some("é\n"));
    }

    #[test]
    fn surrogate_pairs_combine() {
        // U+1F600 GRINNING FACE as an escaped surrogate pair — used to come
        // out as two U+FFFD replacement characters.
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap().as_str(),
            Some("😀")
        );
        // A raw non-BMP char round-trips through escape().
        let doc = format!("\"{}\"", escape("😀"));
        assert_eq!(Json::parse(&doc).unwrap().as_str(), Some("😀"));
        // Lone surrogates (either half) decode to U+FFFD.
        assert_eq!(
            Json::parse(r#""\ud83dx""#).unwrap().as_str(),
            Some("\u{fffd}x")
        );
        assert_eq!(
            Json::parse(r#""\ude00""#).unwrap().as_str(),
            Some("\u{fffd}")
        );
        // High surrogate followed by a non-surrogate escape keeps both.
        assert_eq!(
            Json::parse(r#""\ud83dA""#).unwrap().as_str(),
            Some("\u{fffd}A")
        );
    }

    #[test]
    fn raw_control_characters_are_rejected() {
        assert!(Json::parse("\"a\nb\"").is_err());
        assert!(Json::parse("\"a\u{0}b\"").is_err());
        // The escaped forms are fine.
        assert_eq!(Json::parse(r#""a\nb""#).unwrap().as_str(), Some("a\nb"));
    }

    #[test]
    fn numbers_follow_the_json_grammar() {
        for bad in [
            "1.", ".5", "01", "+5", "--1", "1e", "1e+", "-", "NaN", "Infinity", "1.e5",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should be rejected");
        }
        for good in ["0", "-0", "10", "2.5e-1", "1e300", "0.3751", "1E+2"] {
            assert!(Json::parse(good).is_ok(), "{good:?} should parse");
        }
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let error = Json::parse(r#"{"a": 1, "a": 2}"#).unwrap_err();
        assert!(error.message.contains("duplicate key"), "{error}");
        assert_eq!(error.offset, 9);
        // Same key at different depths is fine.
        assert!(Json::parse(r#"{"a": {"a": 1}}"#).is_ok());
    }
}
