//! The workspace's one JSON layer (it is offline: no `serde`), both ways.
//!
//! **Writing.**  [`Writer`] streams an object into any [`fmt::Write`] sink (a
//! pre-sized `String`, a running config hash) with no buffer between, and
//! owns separators, escaping and the one layout: a [`Writer::document`] puts
//! one field per line with a two-space indent, nested objects are inline
//! (`{"k": v, "k2": v2}`, as is a wire frame's [`Writer::line`] body) and
//! arrays are `[a,b]` (integer items are rendered into one stack buffer,
//! flushed whole, as [`Hex`] items are).  Floats: `f64` is the shortest round-trip text,
//! [`Fixed`] has set decimals, [`Sci`] is exponent form; non-finite is
//! `null`.  [`Hex`] payloads and already-rendered [`Raw`] bodies go as is.
//!
//! **Reading.**  [`Json::parse`] keeps numbers as source text, so 64-bit
//! integers stay exact; [`Json::field`] / [`Json::opt_field`] read a typed
//! field, and a missing or mistyped one is a [`FieldError`] naming it.  The
//! parser reads the network, so it is hardened: bounded nesting
//! ([`MAX_DEPTH`]), the exact number grammar, no raw control characters in
//! strings, no duplicate keys, combined `\u` surrogate pairs (lone ones
//! decode to U+FFFD).  Every failure is a [`JsonError`] with a byte offset —
//! never a panic or a stack overflow.

// Decoding handles peer-shaped bytes: narrow with `try_from` and a typed
// error, widen with `From`; an `as` cast would truncate silently.
#![deny(clippy::as_conversions)]

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
        self.number()
    }

    /// The value as a `u64`, if it is an integral number (parsed from the
    /// source text, so the full 64-bit range is exact).
    pub fn as_u64(&self) -> Option<u64> {
        self.number()
    }

    /// The value as an `i64`, if it is an integral number.
    pub fn as_i64(&self) -> Option<i64> {
        self.number()
    }

    /// The value as a `usize`, if it is an integral number.
    pub fn as_usize(&self) -> Option<usize> {
        self.number()
    }

    fn number<T: std::str::FromStr>(&self) -> Option<T> {
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

    /// The required field `path` of this object as a `T`.  `path` names the
    /// field in the error; the key is its last `.`-separated segment, so a
    /// nested section reads `"parallel.budget.value"` as `"value"`.
    pub fn field<'a, T: FromJson<'a>>(&'a self, path: &'static str) -> Result<T, FieldError> {
        self.opt_field(path)?.ok_or(FieldError(path))
    }

    /// [`Json::field`] for an optional field: `Ok(None)` when it is absent,
    /// an error when it has the wrong type.
    pub fn opt_field<'a, T: FromJson<'a>>(
        &'a self,
        path: &'static str,
    ) -> Result<Option<T>, FieldError> {
        let key = path.rsplit('.').next().unwrap_or(path);
        self.get(key)
            .map(|value| T::from_json(value).ok_or(FieldError(path)))
            .transpose()
    }
}

/// A type [`Json::field`] reads: `Some` when the value has the type.
pub trait FromJson<'a>: Sized {
    /// The value as `Self`, if it has this type.
    fn from_json(json: &'a Json) -> Option<Self>;
}

macro_rules! from_json {
    ($($type:ty = $read:expr;)*) => {$(
        impl<'a> FromJson<'a> for $type {
            fn from_json(json: &'a Json) -> Option<Self> {
                $read(json)
            }
        }
    )*};
}

from_json! {
    u64 = Json::as_u64;
    usize = Json::as_usize;
    i64 = Json::as_i64;
    f64 = Json::as_f64;
    bool = Json::as_bool;
    &'a str = Json::as_str;
    &'a [Json] = Json::as_array;
    &'a Json = Some;
}

/// The path of a required field that is absent, or of a field of the wrong
/// type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldError(pub &'static str);

impl fmt::Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "missing or mistyped field '{}'", self.0)
    }
}

impl std::error::Error for FieldError {}

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
        Err(err(*pos, format!("expected '{}'", char::from(byte))))
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

/// Escape a string for embedding in a JSON document, as [`Writer`] does.
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
fn write_escaped(out: &mut dyn fmt::Write, text: &str) -> fmt::Result {
    // Printable ASCII without quotes or backslashes, the common case.
    if text
        .bytes()
        .all(|b| (0x20..0x7f).contains(&b) && b != b'"' && b != b'\\')
    {
        return out.write_str(text);
    }
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

/// `text` as a JSON string literal, quotes included.
fn write_quoted(out: &mut dyn fmt::Write, text: &str) -> fmt::Result {
    out.write_char('"')?;
    write_escaped(out, text)?;
    out.write_char('"')
}

/// A streaming writer of one JSON object into any [`fmt::Write`] sink, in
/// the one layout (module docs).  Write errors are sticky: the first stops
/// all output, and [`Writer::end`] returns it.
pub struct Writer<'a> {
    out: &'a mut dyn fmt::Write,
    document: bool,
    empty: bool,
    status: fmt::Result,
}

impl<'a> Writer<'a> {
    /// Open a top-level document: one field per line, two-space indent.
    pub fn document(out: &'a mut dyn fmt::Write) -> Self {
        let status = out.write_char('{');
        Writer {
            out,
            document: true,
            empty: true,
            status,
        }
    }

    /// Open a one-line object: a nested one, or a wire frame's body.
    pub fn line(out: &'a mut dyn fmt::Write) -> Self {
        Writer {
            document: false,
            ..Writer::document(out)
        }
    }

    /// Continue a document that an earlier writer [suspended](Writer::suspend)
    /// after at least one field.
    pub(crate) fn resume(out: &'a mut dyn fmt::Write) -> Self {
        Writer {
            out,
            document: true,
            empty: false,
            status: Ok(()),
        }
    }

    /// Write one field.
    pub fn field(&mut self, key: &str, value: impl Value) -> &mut Self {
        // Each separator opens the key's quotes; `": ` closes them.
        let separator = match (self.document, std::mem::take(&mut self.empty)) {
            (true, true) => "\n  \"",
            (true, false) => ",\n  \"",
            (false, true) => "\"",
            (false, false) => ", \"",
        };
        let out = &mut *self.out;
        self.status = self.status.and_then(|()| {
            out.write_str(separator)?;
            write_escaped(out, key)?;
            out.write_str("\": ")?;
            value.write_json(out)
        });
        self
    }

    /// Stop without closing, for a later [`Writer::resume`] on the same sink.
    pub(crate) fn suspend(&self) -> fmt::Result {
        self.status
    }

    /// Close the object.
    pub fn end(&mut self) -> fmt::Result {
        self.status?;
        self.out
            .write_str(if self.document { "\n}\n" } else { "}" })
    }
}

/// Render a top-level document ([`Writer::document`]) into a new `String`.
pub fn document(fields: impl FnOnce(&mut Writer<'_>)) -> String {
    let mut out = String::new();
    let mut doc = Writer::document(&mut out);
    fields(&mut doc);
    doc.end().expect("writing to a String cannot fail");
    out
}

/// Render a one-line object ([`Writer::line`]) into a new `String`.
pub fn line(fields: impl FnOnce(&mut Writer<'_>)) -> String {
    let mut out = String::new();
    Object(fields)
        .write_json(&mut out)
        .expect("writing to a String cannot fail");
    out
}

/// A value a [`Writer`] can write.
pub trait Value {
    /// Write `self` as one JSON value.
    fn write_json(self, out: &mut dyn fmt::Write) -> fmt::Result;

    /// Write `items` as the comma-separated body of an [`Array`]; the
    /// integer types render theirs through one stack buffer.
    fn write_items(items: impl Iterator<Item = Self>, out: &mut dyn fmt::Write) -> fmt::Result
    where
        Self: Sized,
    {
        for (index, item) in items.enumerate() {
            out.write_str(if index > 0 { "," } else { "" })?;
            item.write_json(out)?;
        }
        Ok(())
    }
}

/// A type that writes itself as an object: `&T` is a [`Value`].
pub trait Fields {
    /// Write the fields of `self` into `object`.
    fn fields(&self, object: &mut Writer<'_>);
}

impl<T: Fields> Value for &T {
    fn write_json(self, out: &mut dyn fmt::Write) -> fmt::Result {
        Object(|object| self.fields(object)).write_json(out)
    }
}

/// `impl Value` for each listed type: bind `self` to the pattern, write
/// the body.
macro_rules! value {
    ($($($type:ty),+ => |$value:pat, $out:ident| $body:expr;)*) => {$($(
        impl Value for $type {
            fn write_json(self, $out: &mut dyn fmt::Write) -> fmt::Result {
                let $value = self;
                $body
            }
        }
    )+)*};
}

/// `impl Value` for each listed integer type, given its sign and
/// magnitude: one number in one write, an array's items through
/// [`write_integers`].
macro_rules! integer_value {
    ($($type:ty => |$value:ident| $parts:expr;)*) => {$(
        impl Value for $type {
            fn write_json(self, out: &mut dyn fmt::Write) -> fmt::Result {
                let $value = self;
                let (negative, magnitude) = $parts.ok_or(fmt::Error)?;
                let mut text = [0u8; MAX_INTEGER_LEN];
                let len = render_integer(&mut text, negative, magnitude);
                out.write_str(std::str::from_utf8(&text[..len]).map_err(|_| fmt::Error)?)
            }

            fn write_items(items: impl Iterator<Item = Self>, out: &mut dyn fmt::Write) -> fmt::Result {
                write_integers(items.map(|$value| $parts), out)
            }
        }
    )*};
}

integer_value! {
    u16 => |value| Some((false, u64::from(value)));
    u64 => |value| Some((false, value));
    usize => |value| u64::try_from(value).ok().map(|magnitude| (false, magnitude));
    i64 => |value| Some((value < 0, value.unsigned_abs()));
}

// An `f64` is the shortest text that parses back to the same value.
value! {
    bool => |value, out| out.write_str(if value { "true" } else { "false" });
    &str, &String => |text, out| write_quoted(out, text);
    f64 => |value, out| finite(out, value, format_args!("{value}"));
    Fixed => |Fixed(value, decimals), out| finite(out, value, format_args!("{value:.decimals$}"));
    Sci => |Sci(value), out| finite(out, value, format_args!("{value:e}"));
    Raw<'_> => |Raw(text), out| out.write_str(text);
}

/// The longest integer text: a sign and the 20 digits of `u64::MAX`.
const MAX_INTEGER_LEN: usize = 21;

/// Render an integer at the start of `text` (at least [`MAX_INTEGER_LEN`]
/// bytes) by hand, returning its length: `write!` would set up a formatter
/// for each of a long traversal's numbers.
#[inline]
fn render_integer(text: &mut [u8], negative: bool, mut magnitude: u64) -> usize {
    let sign = usize::from(negative);
    let digits = magnitude.checked_ilog10().map_or(1, |log| {
        usize::try_from(log).map_or(MAX_INTEGER_LEN - 1, |log| log + 1)
    });
    let len = sign + digits;
    text[0] = b'-';
    for slot in text[sign..len].iter_mut().rev() {
        // `% 10` is one digit.
        *slot = b'0' + u8::try_from(magnitude % 10).unwrap_or(0);
        magnitude /= 10;
    }
    len
}

/// An integer array's comma-separated items, `(negative, magnitude)` each
/// (`None` is a magnitude beyond `u64`), rendered into a stack buffer that
/// is flushed whole: two `dyn` writes per number would dominate a
/// traversal's or a prebuilt tree's rendering and hashing.
fn write_integers(
    items: impl Iterator<Item = Option<(bool, u64)>>,
    out: &mut dyn fmt::Write,
) -> fmt::Result {
    const CHUNK: usize = 512;
    let mut buffer = [0u8; CHUNK];
    let mut len = 0;
    let flush = |out: &mut dyn fmt::Write, bytes: &[u8]| {
        out.write_str(std::str::from_utf8(bytes).map_err(|_| fmt::Error)?)
    };
    for (index, item) in items.enumerate() {
        let (negative, magnitude) = item.ok_or(fmt::Error)?;
        // A separator and a number.
        if len + 1 + MAX_INTEGER_LEN > CHUNK {
            flush(out, &buffer[..len])?;
            len = 0;
        }
        if index > 0 {
            buffer[len] = b',';
            len += 1;
        }
        len += render_integer(&mut buffer[len..], negative, magnitude);
    }
    flush(out, &buffer[..len])
}

/// A finite `value` as `text`; a non-finite one (not JSON) as `null`.
fn finite(out: &mut dyn fmt::Write, value: f64, text: fmt::Arguments<'_>) -> fmt::Result {
    match value.is_finite() {
        true => out.write_fmt(text),
        false => out.write_str("null"),
    }
}

/// A float with a set number of decimals: `Fixed(0.5, 6)` is `0.500000`.
pub struct Fixed(pub f64, pub usize);

/// A float in exponent form: `Sci(4.5e-13)` is `4.5e-13`.
pub struct Sci(pub f64);

/// An already-rendered JSON value, written as is.
pub struct Raw<'a>(pub &'a str);

impl<T: Value> Value for Option<T> {
    fn write_json(self, out: &mut dyn fmt::Write) -> fmt::Result {
        match self {
            Some(value) => value.write_json(out),
            None => out.write_str("null"),
        }
    }
}

/// One string of fixed-width lowercase hex, every item as all the digits of
/// its type (16 for a `u64`, 8 for a `u32`): how the wire packs `f64` bit
/// patterns and column indices.
pub struct Hex<I>(pub I);

/// The two lowercase hex digits of every byte.
const HEX_PAIRS: [[u8; 2]; 256] = {
    let digits = b"0123456789abcdef";
    let mut pairs = [[0u8; 2]; 256];
    let mut byte = 0;
    while byte < 256 {
        pairs[byte] = [digits[byte >> 4], digits[byte & 0xf]];
        byte += 1;
    }
    pairs
};

impl<I: IntoIterator<Item: Into<u64>>> Value for Hex<I> {
    fn write_json(self, out: &mut dyn fmt::Write) -> fmt::Result {
        // Items are rendered by table into a stack buffer, flushed whole.
        const CHUNK: usize = 512;
        let mut buffer = [0u8; CHUNK];
        let mut len = 0;
        let flush = |out: &mut dyn fmt::Write, bytes: &[u8]| {
            out.write_str(std::str::from_utf8(bytes).map_err(|_| fmt::Error)?)
        };
        out.write_char('"')?;
        for item in self.0 {
            let width = std::mem::size_of_val(&item);
            if len + 2 * width > CHUNK {
                flush(out, &buffer[..len])?;
                len = 0;
            }
            let bytes = item.into().to_be_bytes();
            for &byte in &bytes[bytes.len() - width..] {
                buffer[len..len + 2].copy_from_slice(&HEX_PAIRS[usize::from(byte)]);
                len += 2;
            }
        }
        flush(out, &buffer[..len])?;
        out.write_char('"')
    }
}

/// An array of like values.
pub struct Array<I>(pub I);

impl<I: IntoIterator<Item: Value>> Value for Array<I> {
    fn write_json(self, out: &mut dyn fmt::Write) -> fmt::Result {
        out.write_char('[')?;
        I::Item::write_items(self.0.into_iter(), out)?;
        out.write_char(']')
    }
}

/// A three-element array of mixed values.
impl<A: Value, B: Value, C: Value> Value for (A, B, C) {
    fn write_json(self, out: &mut dyn fmt::Write) -> fmt::Result {
        out.write_char('[')?;
        self.0.write_json(out)?;
        out.write_char(',')?;
        self.1.write_json(out)?;
        out.write_char(',')?;
        self.2.write_json(out)?;
        out.write_char(']')
    }
}

/// A nested object whose fields the closure writes.
pub struct Object<F: FnOnce(&mut Writer<'_>)>(pub F);

impl<F: FnOnce(&mut Writer<'_>)> Value for Object<F> {
    fn write_json(self, out: &mut dyn fmt::Write) -> fmt::Result {
        let mut writer = Writer::line(out);
        (self.0)(&mut writer);
        writer.end()
    }
}

/// A parsed value, written back in the one layout.
impl Value for &Json {
    fn write_json(self, out: &mut dyn fmt::Write) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(value) => value.write_json(out),
            Json::Num(text) => out.write_str(text),
            Json::Str(text) => write_quoted(out, text),
            Json::Arr(items) => Array(items).write_json(out),
            Json::Obj(fields) => Object(|object| {
                for (key, value) in fields {
                    object.field(key, value);
                }
            })
            .write_json(out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `write_json` of one value into a new `String`.
    fn render(value: impl Value) -> String {
        let mut out = String::new();
        value.write_json(&mut out).unwrap();
        out
    }

    /// Integer arrays render through the stack buffer to the bytes of
    /// their items rendered one by one, at the extremes of every integer
    /// type and across the buffer's 512-byte boundary.
    #[test]
    fn buffered_integer_arrays_equal_item_by_item_rendering() {
        fn check<T: Value + Copy>(items: &[T]) {
            let one_by_one: Vec<String> = items.iter().map(|&item| render(item)).collect();
            assert_eq!(
                render(Array(items.iter().copied())),
                format!("[{}]", one_by_one.join(","))
            );
        }
        check(&[i64::MIN, -1, 0, 1, i64::MAX]);
        check(&[0, 1, 10, u64::MAX]);
        check(&[0, u16::MAX]);
        check(&[0usize, usize::MAX]);
        check::<i64>(&[]);
        check(&(0..200).map(|i| i64::MIN + i).collect::<Vec<_>>());
        check(&(0..100).map(|i| u64::MAX - i).collect::<Vec<_>>());
        check(&(0..5_000usize).collect::<Vec<_>>());
        for len in 20..30 {
            // 19 + 1 bytes per item: the buffer boundary falls at every
            // offset within an item.
            check(&vec![1_000_000_000_000_000_000u64; len]);
        }
        assert_eq!(render(Array([-3i64, 0, 12])), "[-3,0,12]");
    }

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
    fn non_finite_floats_render_as_null() {
        for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let doc = line(|object| {
                object
                    .field("shortest", value)
                    .field("fixed", Fixed(value, 6))
                    .field("sci", Sci(value))
                    .field("some", Some(Sci(value)))
                    .field("array", Array([1.5, value]));
            });
            assert_eq!(
                doc,
                r#"{"shortest": null, "fixed": null, "sci": null, "some": null, "array": [1.5,null]}"#
            );
        }
    }

    #[test]
    fn documents_nest_objects_inline_and_arrays_tight() {
        let doc = document(|doc| {
            doc.field("schema", "x/v1")
                .field("empty", Array(Vec::<u64>::new()))
                .field("rows", Array([[1u64, 2], [3, 4]].map(Array)))
                .field("block", (7usize, 2u64, Hex([0x3ff0_0000_0000_0000u64])))
                .field("order", Hex([5u32, 4_000_000]))
                .field("raw", Raw("{\"k\": [1]}"))
                .field(
                    "nested",
                    Object(|nested| {
                        nested
                            .field("seconds", Fixed(0.5, 6))
                            .field("error", Sci(1e-12))
                            .field("none", None::<u64>)
                            .field(
                                "inner",
                                Object(|inner| {
                                    inner.field("k", true);
                                }),
                            );
                    }),
                );
        });
        assert_eq!(
            doc,
            concat!(
                "{\n",
                "  \"schema\": \"x/v1\",\n",
                "  \"empty\": [],\n",
                "  \"rows\": [[1,2],[3,4]],\n",
                "  \"block\": [7,2,\"3ff0000000000000\"],\n",
                "  \"order\": \"00000005003d0900\",\n",
                "  \"raw\": {\"k\": [1]},\n",
                "  \"nested\": {\"seconds\": 0.500000, \"error\": 1e-12, \"none\": null, ",
                "\"inner\": {\"k\": true}}\n",
                "}\n",
            )
        );
        // A parsed document writes back in the same layout.
        let reparsed = document(|copy| {
            if let Json::Obj(fields) = Json::parse(&doc).unwrap() {
                for (key, value) in &fields {
                    copy.field(key, value);
                }
            }
        });
        assert_eq!(reparsed, doc);
    }

    #[test]
    fn typed_fields_name_what_failed() {
        let json = Json::parse(r#"{"n": 3, "s": "x", "f": 2.5, "section": {"v": -1}}"#).unwrap();
        assert_eq!(json.field::<u64>("n"), Ok(3));
        assert_eq!(json.field::<&str>("s"), Ok("x"));
        assert_eq!(json.opt_field::<u64>("absent"), Ok(None));
        assert_eq!(json.field::<u64>("absent"), Err(FieldError("absent")));
        let mistyped = json.opt_field::<usize>("f").unwrap_err();
        assert_eq!(mistyped.to_string(), "missing or mistyped field 'f'");
        // A dotted path names the field; its last segment is the key.
        let section: &Json = json.field("section").unwrap();
        assert_eq!(section.field::<i64>("section.v"), Ok(-1));
        assert_eq!(
            section.field::<u64>("section.v"),
            Err(FieldError("section.v"))
        );
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
