//! A small single-pass lexer for Rust source files.
//!
//! The conformance rules do not need a parse tree — they need to know, for
//! every byte of a source file, whether it is *code*, a *comment*, or the
//! body of a *literal*, and for every line whether it lives inside a test
//! region (`#[cfg(test)]` items, `#[test]` functions, `mod tests { .. }`).
//! This module classifies exactly that, handling the lexical constructs that
//! trip up naive substring scans: escaped quotes, raw strings with arbitrary
//! `#` fences, byte strings, nested block comments, and the `'a` lifetime vs
//! `'a'` char-literal ambiguity.

/// Classification of a byte range of the source file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Ordinary code (identifiers, punctuation, attributes, whitespace).
    Code,
    /// A `//`-style comment (including `///` and `//!` doc comments).
    LineComment,
    /// A `/* .. */` comment, possibly nested.
    BlockComment,
    /// A `"…"` or `b"…"` string literal.
    Str,
    /// A raw string literal `r"…"`, `r#"…"#`, `br##"…"##`, …
    RawStr,
    /// A char or byte literal (`'a'`, `b'\n'`, `'\u{1F600}'`).
    Char,
}

/// A half-open byte range `[start, end)` of the source with its kind.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: SpanKind,
    pub start: usize,
    pub end: usize,
}

/// The result of lexing one source file.
pub struct LexedFile {
    /// The original source text.
    pub text: String,
    /// The source with every non-`Code` span blanked to spaces (newlines are
    /// preserved so byte offsets and line numbers stay aligned). Substring
    /// searches over `masked` cannot match inside comments or literals.
    pub masked: String,
    /// All spans, in order, covering the whole file.
    pub spans: Vec<Span>,
    /// `test_lines[i]` is true when 1-indexed line `i + 1` is inside a test
    /// region. Indexed by line number minus one.
    test_lines: Vec<bool>,
    /// Byte offset of the start of each 1-indexed line.
    line_starts: Vec<usize>,
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

impl LexedFile {
    /// Lex `text` into classified spans plus the derived masked view and
    /// test-region line map.
    pub fn lex(text: &str) -> Self {
        let spans = scan_spans(text.as_bytes());
        let masked = build_masked(text, &spans);
        let line_starts = compute_line_starts(text);
        let test_lines = mark_test_regions(&masked, &line_starts);
        LexedFile {
            text: text.to_string(),
            masked,
            spans,
            test_lines,
            line_starts,
        }
    }

    /// Number of lines in the file.
    pub fn line_count(&self) -> usize {
        self.line_starts.len()
    }

    /// 1-indexed line containing byte `offset`.
    pub fn line_of(&self, offset: usize) -> usize {
        match self.line_starts.binary_search(&offset) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    /// Whether 1-indexed `line` lies inside a `#[cfg(test)]` / `#[test]` /
    /// `mod tests` region.
    pub fn is_test_line(&self, line: usize) -> bool {
        line >= 1 && self.test_lines.get(line - 1).copied().unwrap_or(false)
    }

    /// The original text of 1-indexed `line` (without its newline).
    pub fn line_text(&self, line: usize) -> &str {
        self.slice_line(&self.text, line)
    }

    /// The masked text of 1-indexed `line` (without its newline).
    pub fn masked_line(&self, line: usize) -> &str {
        self.slice_line(&self.masked, line)
    }

    fn slice_line<'a>(&self, source: &'a str, line: usize) -> &'a str {
        if line == 0 || line > self.line_starts.len() {
            return "";
        }
        let start = self.line_starts[line - 1];
        let end = self
            .line_starts
            .get(line)
            .map(|next| next - 1)
            .unwrap_or(source.len());
        &source[start..end.max(start)]
    }
}

fn compute_line_starts(text: &str) -> Vec<usize> {
    let mut starts = vec![0];
    for (i, b) in text.bytes().enumerate() {
        if b == b'\n' && i + 1 < text.len() {
            starts.push(i + 1);
        }
    }
    starts
}

fn build_masked(text: &str, spans: &[Span]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for span in spans {
        if span.kind == SpanKind::Code {
            continue;
        }
        for b in &mut bytes[span.start..span.end] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    }
    String::from_utf8(bytes).expect("masking replaces whole spans with ASCII spaces")
}

/// Scan the byte stream into alternating code / non-code spans.
fn scan_spans(bytes: &[u8]) -> Vec<Span> {
    let mut spans = Vec::new();
    let mut code_start = 0;
    let mut i = 0;
    let n = bytes.len();
    let flush_code = |spans: &mut Vec<Span>, code_start: usize, end: usize| {
        if end > code_start {
            spans.push(Span {
                kind: SpanKind::Code,
                start: code_start,
                end,
            });
        }
    };
    while i < n {
        let b = bytes[i];
        // Line comment.
        if b == b'/' && i + 1 < n && bytes[i + 1] == b'/' {
            flush_code(&mut spans, code_start, i);
            let start = i;
            while i < n && bytes[i] != b'\n' {
                i += 1;
            }
            spans.push(Span {
                kind: SpanKind::LineComment,
                start,
                end: i,
            });
            code_start = i;
            continue;
        }
        // Block comment (nested).
        if b == b'/' && i + 1 < n && bytes[i + 1] == b'*' {
            flush_code(&mut spans, code_start, i);
            let start = i;
            let mut depth = 1usize;
            i += 2;
            while i < n && depth > 0 {
                if bytes[i] == b'/' && i + 1 < n && bytes[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else if bytes[i] == b'*' && i + 1 < n && bytes[i + 1] == b'/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            spans.push(Span {
                kind: SpanKind::BlockComment,
                start,
                end: i,
            });
            code_start = i;
            continue;
        }
        // Raw string (r"…", r#"…"#) and byte raw string (br#"…"#).
        if b == b'r' || (b == b'b' && i + 1 < n && bytes[i + 1] == b'r') {
            let prefix = if b == b'b' { 2 } else { 1 };
            let prev_is_ident = i > 0 && is_ident_byte(bytes[i - 1]);
            if !prev_is_ident {
                let mut j = i + prefix;
                let mut hashes = 0usize;
                while j < n && bytes[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
                if j < n && bytes[j] == b'"' {
                    flush_code(&mut spans, code_start, i);
                    let start = i;
                    i = j + 1;
                    // Find `"` followed by `hashes` `#` bytes.
                    'raw: while i < n {
                        if bytes[i] == b'"' {
                            let mut k = 0;
                            while k < hashes && i + 1 + k < n && bytes[i + 1 + k] == b'#' {
                                k += 1;
                            }
                            if k == hashes {
                                i += 1 + hashes;
                                break 'raw;
                            }
                        }
                        i += 1;
                    }
                    spans.push(Span {
                        kind: SpanKind::RawStr,
                        start,
                        end: i,
                    });
                    code_start = i;
                    continue;
                }
            }
        }
        // String literal ("…", b"…").
        if b == b'"' || (b == b'b' && i + 1 < n && bytes[i + 1] == b'"') {
            let prev_is_ident = b == b'b' && i > 0 && is_ident_byte(bytes[i - 1]);
            if !prev_is_ident {
                flush_code(&mut spans, code_start, i);
                let start = i;
                i += if b == b'b' { 2 } else { 1 };
                while i < n {
                    if bytes[i] == b'\\' {
                        i += 2;
                    } else if bytes[i] == b'"' {
                        i += 1;
                        break;
                    } else {
                        i += 1;
                    }
                }
                spans.push(Span {
                    kind: SpanKind::Str,
                    start,
                    end: i.min(n),
                });
                code_start = i.min(n);
                continue;
            }
        }
        // Char literal vs lifetime.
        if b == b'\'' || (b == b'b' && i + 1 < n && bytes[i + 1] == b'\'') {
            let prev_is_ident = b == b'b' && i > 0 && is_ident_byte(bytes[i - 1]);
            if !prev_is_ident {
                let quote = if b == b'b' { i + 1 } else { i };
                if let Some(end) = char_literal_end(bytes, quote) {
                    flush_code(&mut spans, code_start, i);
                    spans.push(Span {
                        kind: SpanKind::Char,
                        start: i,
                        end,
                    });
                    i = end;
                    code_start = i;
                    continue;
                }
                // A lifetime: skip the quote so `'a'`-style lookahead does not
                // re-trigger on the identifier.
                i = quote + 1;
                continue;
            }
        }
        i += 1;
    }
    flush_code(&mut spans, code_start, n);
    spans
}

/// If the `'` at `quote` starts a char literal, return the byte offset one
/// past its closing quote. Returns `None` for lifetimes (`'a`, `'static`).
fn char_literal_end(bytes: &[u8], quote: usize) -> Option<usize> {
    let n = bytes.len();
    if quote + 1 >= n {
        return None;
    }
    let next = bytes[quote + 1];
    if next == b'\\' {
        // Escaped char: scan to the closing quote (handles '\n', '\'', '\u{…}').
        let mut i = quote + 2;
        if i < n {
            i += 1; // the escaped byte itself
        }
        while i < n && bytes[i] != b'\'' && bytes[i] != b'\n' {
            i += 1;
        }
        if i < n && bytes[i] == b'\'' {
            return Some(i + 1);
        }
        return None;
    }
    if is_ident_byte(next) && next.is_ascii() {
        // `'a'` is a char literal; `'a` followed by anything else is a
        // lifetime (or a loop label).
        if quote + 2 < n && bytes[quote + 2] == b'\'' {
            return Some(quote + 3);
        }
        return None;
    }
    if next == b'\'' || next == b'\n' {
        return None;
    }
    // Punctuation or a multi-byte UTF-8 char: scan to the closing quote.
    let mut i = quote + 1;
    while i < n && bytes[i] != b'\'' && bytes[i] != b'\n' {
        i += 1;
    }
    if i < n && bytes[i] == b'\'' && i > quote + 1 {
        return Some(i + 1);
    }
    None
}

/// Mark lines covered by `#[cfg(test)]` items, `#[test]` functions, and
/// `mod tests { .. }` blocks. Operates on the masked text so literals and
/// comments cannot fake a region boundary.
fn mark_test_regions(masked: &str, line_starts: &[usize]) -> Vec<bool> {
    let mut flags = vec![false; line_starts.len()];
    let bytes = masked.as_bytes();
    let line_of = |offset: usize| -> usize {
        match line_starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    };
    let mark = |from: usize, to: usize, flags: &mut Vec<bool>| {
        let (a, b) = (
            line_of(from),
            line_of(to.min(bytes.len().saturating_sub(1))),
        );
        for f in flags.iter_mut().take(b + 1).skip(a) {
            *f = true;
        }
    };
    for pattern in [
        "#[cfg(test)]",
        "#[test]",
        "#[cfg(all(test",
        "#[cfg(any(test",
    ] {
        let mut from = 0;
        while let Some(pos) = masked[from..].find(pattern) {
            let at = from + pos;
            if let Some(end) = item_extent(bytes, at) {
                mark(at, end, &mut flags);
            }
            from = at + pattern.len();
        }
    }
    // `mod tests { .. }` even without a cfg attribute.
    let mut from = 0;
    while let Some(pos) = masked[from..].find("mod tests") {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let after = at + "mod tests".len();
        let after_ok = after >= bytes.len() || !is_ident_byte(bytes[after]);
        if before_ok && after_ok {
            if let Some(end) = item_extent(bytes, at) {
                mark(at, end, &mut flags);
            }
        }
        from = at + "mod tests".len();
    }
    flags
}

/// From the start of an attribute or item at `at`, find the byte offset of
/// the end of the item: the matching `}` of its first body brace, or the
/// first top-level `;` for brace-less items.
fn item_extent(bytes: &[u8], at: usize) -> Option<usize> {
    let n = bytes.len();
    let mut i = at;
    // Step over the attribute's own brackets first so `#[cfg(test)]` does not
    // terminate the search at its own `]`.
    let mut depth = 0isize;
    let mut seen_brace = false;
    while i < n {
        match bytes[i] {
            b'{' => {
                depth += 1;
                seen_brace = true;
            }
            b'}' => {
                depth -= 1;
                if seen_brace && depth == 0 {
                    return Some(i);
                }
            }
            b';' if !seen_brace && depth == 0 && !in_attribute_head(bytes, at, i) => {
                return Some(i);
            }
            _ => {}
        }
        i += 1;
    }
    Some(n.saturating_sub(1))
}

/// True when offset `i` still lies within the `#[...]` attribute head that
/// starts at `at` (bracket depth has not returned to zero).
fn in_attribute_head(bytes: &[u8], at: usize, i: usize) -> bool {
    if bytes[at] != b'#' {
        return false;
    }
    let mut depth = 0isize;
    for &b in &bytes[at..=i] {
        match b {
            b'[' => depth += 1,
            b']' => depth -= 1,
            _ => {}
        }
    }
    depth > 0
}
