//! A deliberately small HTTP/1.1 reader/writer over `std::io` streams.
//!
//! The server speaks just enough HTTP for a JSON API: request line, headers,
//! `Content-Length`-framed bodies, one response per connection
//! (`Connection: close`).  Everything is bounded — request-line length,
//! header count and size, body size — so a hostile peer can cost at most a
//! fixed amount of memory per connection, and every violation maps to a
//! specific status code instead of a panic.

use std::io::{BufRead, BufReader, Read, Write};

/// Upper bound on the request line and on any single header line, in bytes.
const MAX_LINE_BYTES: usize = 8 * 1024;
/// Upper bound on the number of header lines.
const MAX_HEADERS: usize = 64;

/// A parsed request: method, path, headers, and the (possibly empty) body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, ...).
    pub method: String,
    /// The path component of the request target (query strings are kept
    /// verbatim; the API uses none).
    pub path: String,
    /// Header `(name, value)` pairs, names lower-cased and both sides
    /// trimmed, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// The first header named `name` (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(header, _)| header.eq_ignore_ascii_case(name))
            .map(|(_, value)| value.as_str())
    }
}

/// A request that could not be read, tagged with the status code to answer
/// with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError {
    /// HTTP status code to respond with (400, 413, 431, ...).
    pub status: u16,
    /// Human-readable cause, included in the JSON error body.
    pub message: String,
}

impl HttpError {
    fn bad_request(message: impl Into<String>) -> Self {
        HttpError {
            status: 400,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, fmt: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(fmt, "HTTP {}: {}", self.status, self.message)
    }
}

impl std::error::Error for HttpError {}

/// Read one bounded CRLF- (or LF-) terminated line, without the terminator.
fn read_line(reader: &mut impl BufRead) -> Result<String, HttpError> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match reader.read(&mut byte) {
            // EOF is never a valid line terminator here: every header line
            // (including the blank one ending the block) must arrive with
            // its newline, otherwise a request truncated mid-headers would
            // be indistinguishable from a complete one and get executed.
            Ok(0) => {
                return Err(HttpError::bad_request("connection closed mid-request"));
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    break;
                }
                line.push(byte[0]);
                if line.len() > MAX_LINE_BYTES {
                    return Err(HttpError {
                        status: 431,
                        message: "header line too long".to_string(),
                    });
                }
            }
            Err(e) => {
                return Err(HttpError::bad_request(format!("read failed: {e}")));
            }
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| HttpError::bad_request("non-UTF-8 header data"))
}

/// Read a full request from `stream`, rejecting bodies larger than
/// `max_body_bytes` with status 413.
pub fn read_request(stream: &mut impl Read, max_body_bytes: usize) -> Result<Request, HttpError> {
    let mut reader = BufReader::new(stream);
    let request_line = read_line(&mut reader)?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::bad_request("empty request line"))?
        .to_ascii_uppercase();
    let path = parts
        .next()
        .ok_or_else(|| HttpError::bad_request("request line has no path"))?
        .to_string();
    let version = parts
        .next()
        .ok_or_else(|| HttpError::bad_request("request line has no version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError {
            status: 505,
            message: format!("unsupported protocol version '{version}'"),
        });
    }

    let mut content_length: Option<usize> = None;
    let mut headers: Vec<(String, String)> = Vec::new();
    // `..=`: `MAX_HEADERS` header lines plus the blank terminator line.
    for _ in 0..=MAX_HEADERS {
        let line = read_line(&mut reader)?;
        if line.is_empty() {
            let mut body = vec![0u8; content_length.unwrap_or(0)];
            reader
                .read_exact(&mut body)
                .map_err(|e| HttpError::bad_request(format!("truncated body: {e}")))?;
            return Ok(Request {
                method,
                path,
                headers,
                body,
            });
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::bad_request(format!("malformed header '{line}'")));
        };
        let name = name.trim();
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        if name.eq_ignore_ascii_case("transfer-encoding") {
            // Only `Content-Length` framing is supported; accepting a
            // chunked request as body-less would leave its body unread and
            // desynchronise the connection.
            return Err(HttpError::bad_request(
                "Transfer-Encoding is not supported; send a Content-Length body",
            ));
        }
        if name.eq_ignore_ascii_case("content-length") {
            // RFC 9112 §6.3: the value is 1*DIGIT (`usize::from_str` would
            // also take a leading `+`), and several headers must agree —
            // otherwise the body's end is ambiguous.
            let value = value.trim();
            let length: usize = value
                .bytes()
                .all(|byte| byte.is_ascii_digit())
                .then(|| value.parse().ok())
                .flatten()
                .ok_or_else(|| HttpError::bad_request("unparsable Content-Length"))?;
            if content_length.is_some_and(|earlier| earlier != length) {
                return Err(HttpError::bad_request("conflicting Content-Length headers"));
            }
            if length > max_body_bytes {
                return Err(HttpError {
                    status: 413,
                    message: format!(
                        "body of {length} bytes exceeds the {max_body_bytes}-byte limit"
                    ),
                });
            }
            content_length = Some(length);
        }
    }
    Err(HttpError {
        status: 431,
        message: format!("more than {MAX_HEADERS} headers"),
    })
}

/// The reason phrase for the handful of status codes the API uses.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Write a complete `Connection: close` JSON response.  `extra_headers` are
/// emitted verbatim (`name: value`).
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> std::io::Result<()> {
    let mut out = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        reason_phrase(status),
        body.len()
    );
    for (name, value) in extra_headers {
        out.push_str(name);
        out.push_str(": ");
        out.push_str(value);
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
    stream.write_all(out.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        read_request(&mut raw.as_bytes(), 1024)
    }

    #[test]
    fn parses_a_post_with_body() {
        let request =
            parse("POST /plan HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\n{\"a\"").unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/plan");
        assert_eq!(request.body, b"{\"a\"");
    }

    #[test]
    fn headers_are_captured_and_case_insensitive() {
        let request =
            parse("POST /report HTTP/1.1\r\nX-Deadline-Ms:  250 \r\nContent-Length: 0\r\n\r\n")
                .unwrap();
        assert_eq!(request.header("x-deadline-ms"), Some("250"));
        assert_eq!(request.header("X-DEADLINE-MS"), Some("250"));
        assert_eq!(request.header("x-cache"), None);
    }

    #[test]
    fn parses_a_bare_get() {
        let request = parse("GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(request.method, "GET");
        assert_eq!(request.path, "/healthz");
        assert!(request.body.is_empty());
    }

    #[test]
    fn rejects_oversized_bodies_with_413() {
        let error = parse("POST /plan HTTP/1.1\r\nContent-Length: 99999\r\n\r\n").unwrap_err();
        assert_eq!(error.status, 413);
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(parse("").unwrap_err().status, 400);
        assert_eq!(parse("POST\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(parse("GET / SPDY/3\r\n\r\n").unwrap_err().status, 505);
        assert_eq!(
            parse("GET / HTTP/1.1\r\nno-colon-here\r\n\r\n")
                .unwrap_err()
                .status,
            400
        );
        assert_eq!(
            parse("POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n")
                .unwrap_err()
                .status,
            400
        );
        // Truncated body: Content-Length promises more than is sent.
        assert_eq!(
            parse("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
                .unwrap_err()
                .status,
            400
        );
    }

    #[test]
    fn content_length_is_digits_and_agrees_with_itself() {
        for raw in [
            "POST / HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello",
            "POST / HTTP/1.1\r\nContent-Length: 5 5\r\n\r\nhello",
            "POST / HTTP/1.1\r\nContent-Length: \r\n\r\n",
            "POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 3\r\n\r\nhello",
            "POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 5\r\n\r\nhello",
        ] {
            let error = parse(raw).unwrap_err();
            assert_eq!(error.status, 400, "{raw:?}");
            assert!(error.message.contains("Content-Length"), "{raw:?}");
        }
        // Repeating the same length is unambiguous.
        let request =
            parse("POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello")
                .unwrap();
        assert_eq!(request.body, b"hello");
    }

    #[test]
    fn bounds_header_count_and_line_length() {
        let with_headers = |count: usize| {
            let mut raw = String::from("GET / HTTP/1.1\r\n");
            for i in 0..count {
                raw.push_str(&format!("X-H{i}: v\r\n"));
            }
            raw.push_str("\r\n");
            raw
        };
        assert_eq!(parse(&with_headers(100)).unwrap_err().status, 431);
        // Exactly the documented bound is still accepted.
        assert!(parse(&with_headers(MAX_HEADERS)).is_ok());
        assert_eq!(
            parse(&with_headers(MAX_HEADERS + 1)).unwrap_err().status,
            431
        );
        let long = format!("GET / HTTP/1.1\r\nX-L: {}\r\n\r\n", "v".repeat(10_000));
        assert_eq!(parse(&long).unwrap_err().status, 431);
    }

    #[test]
    fn truncated_header_blocks_are_rejected() {
        // No terminating blank line: the request must not be executed.
        let error = parse("GET /stats HTTP/1.1\r\nHost: x").unwrap_err();
        assert_eq!(error.status, 400);
        assert!(error.message.contains("closed mid-request"));
    }

    #[test]
    fn chunked_transfer_encoding_is_rejected() {
        let error = parse(
            "POST /plan HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nbody\r\n0\r\n\r\n",
        )
        .unwrap_err();
        assert_eq!(error.status, 400);
        assert!(error.message.contains("Transfer-Encoding"));
    }

    #[test]
    fn responses_are_framed() {
        let mut out = Vec::new();
        write_response(&mut out, 200, &[("X-Cache", "hit")], "{\"ok\":true}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("X-Cache: hit\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }
}
