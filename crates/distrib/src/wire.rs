//! The versioned, length-prefixed wire format of the distributed layer.
//!
//! Every internal message is one **frame**: an ASCII header line
//! `distrib_wire/v2 <body-bytes>\n` followed by exactly that many bytes of
//! JSON.  The explicit length makes truncation and trailing garbage typed
//! decode errors (the coordinator answers 400, never panics), and the
//! leading schema token lets this reader reject peers of any other version
//! with a clear message instead of a JSON parse error.
//!
//! Floating-point payloads — factor column values and contribution blocks —
//! must survive the trip **bit for bit**: the merged factor is gated on
//! being identical to the single-process one, and a shortest-decimal detour
//! would also re-introduce the NaN/Infinity literals `engine::json` rejects.
//! So every `f64` travels as the 16 lowercase hex digits of its IEEE-754
//! bit pattern (base-2 exact by construction), concatenated into one string
//! per vector.
//!
//! **No row index crosses the wire.**  Coordinator and worker derive the
//! same `SymbolicStructure` from the same configuration, so a contribution
//! is values only: the task's column values concatenated in task order, and
//! each root block as `[column, dimension, values]`.  The coordinator checks
//! the counts against its own cut before accepting ([`crate::job`]).  The
//! only index vector left is the task's column `order` in the claim reply,
//! as concatenated 8-hex-digit `u32`s.

use std::fmt::Write;

use engine::json::{escape, Json, JsonError};
use engine::{EngineConfig, SubtreeParts};
use multifrontal::{ContributionStore, DenseMatrix};

/// Schema token every frame leads with.
pub const WIRE_SCHEMA: &str = "distrib_wire/v2";

/// Hard cap on one frame's body.  Contribution frames scale with the factor
/// (16 wire bytes per stored entry), so the cap is generous — but it must
/// exist: the length prefix arrives from the network, and an unchecked
/// claim of terabytes would drive allocation before any validation runs.
pub const MAX_FRAME_BYTES: usize = 256 * 1024 * 1024;

/// Typed decode failures.  Every variant maps to an HTTP 400 at the
/// serving layer; none of them may panic, whatever the bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The frame header line is missing or malformed.
    BadHeader(String),
    /// The header announces more body bytes than are present.
    Truncated {
        /// Bytes the header announced.
        expected: usize,
        /// Bytes actually present after the header.
        got: usize,
    },
    /// Bytes follow the announced body (a concatenation or framing bug).
    TrailingBytes {
        /// Bytes the header announced.
        expected: usize,
        /// Bytes actually present after the header.
        got: usize,
    },
    /// The announced body length exceeds [`MAX_FRAME_BYTES`].
    Oversized {
        /// Bytes the header announced.
        bytes: usize,
        /// The cap.
        max: usize,
    },
    /// The body is not valid JSON.
    Json(String),
    /// A required field is missing or has the wrong type.
    Field(&'static str),
    /// A hex-packed vector is malformed (odd length, non-hex digit).
    BadHex(&'static str),
    /// A decoded float is NaN or infinite where a finite value is required.
    NonFinite(&'static str),
    /// The embedded engine configuration does not parse.
    Config(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, fmt: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadHeader(detail) => write!(fmt, "bad frame header: {detail}"),
            WireError::Truncated { expected, got } => {
                write!(
                    fmt,
                    "truncated frame: header says {expected} bytes, got {got}"
                )
            }
            WireError::TrailingBytes { expected, got } => {
                write!(
                    fmt,
                    "trailing bytes after frame: header says {expected} bytes, got {got}"
                )
            }
            WireError::Oversized { bytes, max } => {
                write!(
                    fmt,
                    "oversized frame: {bytes} bytes exceeds the {max}-byte cap"
                )
            }
            WireError::Json(detail) => write!(fmt, "frame body is not valid JSON: {detail}"),
            WireError::Field(field) => write!(fmt, "missing or mistyped field '{field}'"),
            WireError::BadHex(field) => write!(fmt, "malformed hex vector in '{field}'"),
            WireError::NonFinite(field) => write!(fmt, "non-finite value in '{field}'"),
            WireError::Config(detail) => write!(fmt, "embedded config does not parse: {detail}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<JsonError> for WireError {
    fn from(err: JsonError) -> Self {
        WireError::Json(err.to_string())
    }
}

/// A frame as a `String`, for transports that post text bodies.  Frames are
/// built from JSON text and therefore always valid UTF-8; the lossy
/// conversion exists so a hypothetical violation degrades a payload instead
/// of panicking a request handler.
pub fn frame_string(frame: &[u8]) -> String {
    String::from_utf8_lossy(frame).into_owned()
}

/// Wrap a JSON body into one length-prefixed frame.
pub fn encode_frame(body: &str) -> Vec<u8> {
    let mut frame = Vec::with_capacity(body.len() + WIRE_SCHEMA.len() + 16);
    frame.extend_from_slice(WIRE_SCHEMA.as_bytes());
    frame.push(b' ');
    frame.extend_from_slice(body.len().to_string().as_bytes());
    frame.push(b'\n');
    frame.extend_from_slice(body.as_bytes());
    frame
}

/// Unwrap a frame back into its JSON body, verifying the schema token, the
/// announced length (both directions) and the size cap.
pub fn decode_frame(bytes: &[u8]) -> Result<&str, WireError> {
    let newline = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| WireError::BadHeader("no header line".to_string()))?;
    let header = std::str::from_utf8(&bytes[..newline])
        .map_err(|_| WireError::BadHeader("header is not UTF-8".to_string()))?;
    let (schema, length) = header
        .split_once(' ')
        .ok_or_else(|| WireError::BadHeader(format!("no length in {header:?}")))?;
    if schema != WIRE_SCHEMA {
        return Err(WireError::BadHeader(format!(
            "unsupported schema {schema:?} (this peer speaks {WIRE_SCHEMA})"
        )));
    }
    let expected: usize = length
        .parse()
        .map_err(|_| WireError::BadHeader(format!("non-numeric length {length:?}")))?;
    if expected > MAX_FRAME_BYTES {
        return Err(WireError::Oversized {
            bytes: expected,
            max: MAX_FRAME_BYTES,
        });
    }
    let body = &bytes[newline + 1..];
    if body.len() < expected {
        return Err(WireError::Truncated {
            expected,
            got: body.len(),
        });
    }
    if body.len() > expected {
        return Err(WireError::TrailingBytes {
            expected,
            got: body.len(),
        });
    }
    std::str::from_utf8(body).map_err(|_| WireError::Json("body is not UTF-8".to_string()))
}

/// Append `values` to `out` as concatenated 16-hex-digit IEEE-754 bit
/// patterns (straight into the frame body: the factor values are the bulk of
/// a contribution and are not worth a second copy).
fn push_hex_f64s(out: &mut String, values: &[f64]) {
    out.reserve(values.len() * 16);
    for value in values {
        let _ = write!(out, "{:016x}", value.to_bits());
    }
}

/// Unpack [`push_hex_f64s`], rejecting malformed hex and non-finite values.
fn parse_hex_f64s(text: &str, field: &'static str) -> Result<Vec<f64>, WireError> {
    if !text.len().is_multiple_of(16) || !text.is_ascii() {
        return Err(WireError::BadHex(field));
    }
    let mut values = Vec::with_capacity(text.len() / 16);
    for chunk in text.as_bytes().chunks_exact(16) {
        let digits = std::str::from_utf8(chunk).map_err(|_| WireError::BadHex(field))?;
        let bits = u64::from_str_radix(digits, 16).map_err(|_| WireError::BadHex(field))?;
        let value = f64::from_bits(bits);
        if !value.is_finite() {
            return Err(WireError::NonFinite(field));
        }
        values.push(value);
    }
    Ok(values)
}

/// Pack column indices as concatenated 8-hex-digit `u32`s.  Panics if an
/// index exceeds `u32::MAX` — matrix dimensions are capped far below that.
fn hex_u32s(values: &[usize]) -> String {
    let mut out = String::with_capacity(values.len() * 8);
    for &value in values {
        let narrow = u32::try_from(value).expect("row index exceeds the u32 wire range");
        out.push_str(&format!("{narrow:08x}"));
    }
    out
}

/// Unpack [`hex_u32s`].
fn parse_hex_u32s(text: &str, field: &'static str) -> Result<Vec<usize>, WireError> {
    if !text.len().is_multiple_of(8) || !text.is_ascii() {
        return Err(WireError::BadHex(field));
    }
    let mut values = Vec::with_capacity(text.len() / 8);
    for chunk in text.as_bytes().chunks_exact(8) {
        let digits = std::str::from_utf8(chunk).map_err(|_| WireError::BadHex(field))?;
        let value = u32::from_str_radix(digits, 16).map_err(|_| WireError::BadHex(field))?;
        let wide = usize::try_from(value).map_err(|_| WireError::BadHex(field))?;
        values.push(wide);
    }
    Ok(values)
}

fn field<'a>(json: &'a Json, name: &'static str) -> Result<&'a Json, WireError> {
    json.get(name).ok_or(WireError::Field(name))
}

fn u64_field(json: &Json, name: &'static str) -> Result<u64, WireError> {
    field(json, name)?.as_u64().ok_or(WireError::Field(name))
}

fn usize_field(json: &Json, name: &'static str) -> Result<usize, WireError> {
    field(json, name)?.as_usize().ok_or(WireError::Field(name))
}

fn str_field<'a>(json: &'a Json, name: &'static str) -> Result<&'a str, WireError> {
    field(json, name)?.as_str().ok_or(WireError::Field(name))
}

fn check_type(json: &Json, expected: &'static str) -> Result<(), WireError> {
    match json.get("type").and_then(Json::as_str) {
        Some(kind) if kind == expected => Ok(()),
        _ => Err(WireError::Field("type")),
    }
}

/// One subtree task as the coordinator issues it to a worker: the job and
/// task identity, the lease epoch the contribution must echo, the full
/// engine configuration (so the worker derives the identical matrix and
/// symbolic structure), and the task's bottom-up column order.
#[derive(Debug, Clone, PartialEq)]
pub struct SubtreeTask {
    /// Coordinator-assigned job id.
    pub job: u64,
    /// Task index within the job's cut.
    pub task: usize,
    /// Lease epoch; a contribution echoing a stale epoch is rejected.
    pub epoch: u64,
    /// Lease duration granted for this claim, in milliseconds.
    pub lease_ms: u64,
    /// Canonical engine-configuration JSON of the job.
    pub config: String,
    /// Bottom-up column order of the subtree.
    pub order: Vec<usize>,
}

impl SubtreeTask {
    /// Render as a claim-response frame.
    pub fn to_frame(&self) -> Vec<u8> {
        let body = format!(
            "{{\"schema\": \"{WIRE_SCHEMA}\", \"type\": \"task\", \"job\": {}, \
             \"task\": {}, \"epoch\": {}, \"lease_ms\": {}, \"config\": \"{}\", \
             \"order\": \"{}\"}}",
            self.job,
            self.task,
            self.epoch,
            self.lease_ms,
            escape(&self.config),
            hex_u32s(&self.order),
        );
        encode_frame(&body)
    }

    /// Parse a claim-response body previously produced by
    /// [`SubtreeTask::to_frame`].
    pub fn from_json(json: &Json) -> Result<SubtreeTask, WireError> {
        check_type(json, "task")?;
        let config = str_field(json, "config")?.to_string();
        // Validate the embedded configuration eagerly: a worker must learn
        // about a corrupt config at claim time, not deep inside planning.
        EngineConfig::from_json(&config).map_err(|err| WireError::Config(err.to_string()))?;
        Ok(SubtreeTask {
            job: u64_field(json, "job")?,
            task: usize_field(json, "task")?,
            epoch: u64_field(json, "epoch")?,
            lease_ms: u64_field(json, "lease_ms")?,
            config,
            order: parse_hex_u32s(str_field(json, "order")?, "order")?,
        })
    }
}

/// What a worker's claim poll comes back with.
#[derive(Debug, Clone, PartialEq)]
pub enum ClaimReply {
    /// A leased subtree task.
    Task(Box<SubtreeTask>),
    /// Nothing claimable right now (all leased out, or the budget gate is
    /// closed); poll again after `retry_ms`.
    Wait {
        /// Suggested poll backoff in milliseconds.
        retry_ms: u64,
    },
    /// No active job has work; poll again later (workers are long-lived).
    Idle,
}

impl ClaimReply {
    /// Render as a frame.
    pub fn to_frame(&self) -> Vec<u8> {
        match self {
            ClaimReply::Task(task) => task.to_frame(),
            ClaimReply::Wait { retry_ms } => encode_frame(&format!(
                "{{\"schema\": \"{WIRE_SCHEMA}\", \"type\": \"wait\", \"retry_ms\": {retry_ms}}}"
            )),
            ClaimReply::Idle => encode_frame(&format!(
                "{{\"schema\": \"{WIRE_SCHEMA}\", \"type\": \"idle\"}}"
            )),
        }
    }

    /// Decode a claim-response frame.
    pub fn from_frame(bytes: &[u8]) -> Result<ClaimReply, WireError> {
        let json = Json::parse(decode_frame(bytes)?)?;
        match json.get("type").and_then(Json::as_str) {
            Some("task") => Ok(ClaimReply::Task(Box::new(SubtreeTask::from_json(&json)?))),
            Some("wait") => Ok(ClaimReply::Wait {
                retry_ms: u64_field(&json, "retry_ms")?,
            }),
            Some("idle") => Ok(ClaimReply::Idle),
            _ => Err(WireError::Field("type")),
        }
    }
}

/// A claim request: which worker is asking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClaimRequest {
    /// Stable worker identity (used for lease bookkeeping and per-worker
    /// timings; pick something unique per process).
    pub worker: String,
}

impl ClaimRequest {
    /// Render as a frame.
    pub fn to_frame(&self) -> Vec<u8> {
        encode_frame(&format!(
            "{{\"schema\": \"{WIRE_SCHEMA}\", \"type\": \"claim\", \"worker\": \"{}\"}}",
            escape(&self.worker)
        ))
    }

    /// Decode a claim-request frame.
    pub fn from_frame(bytes: &[u8]) -> Result<ClaimRequest, WireError> {
        let json = Json::parse(decode_frame(bytes)?)?;
        check_type(&json, "claim")?;
        Ok(ClaimRequest {
            worker: str_field(&json, "worker")?.to_string(),
        })
    }
}

/// Serialize one finished task's [`SubtreeParts`] as a contribution frame,
/// without materializing an owned copy (contributions are the large
/// messages — the factor values dominate).
pub fn contribution_frame(
    job: u64,
    task: usize,
    epoch: u64,
    worker: &str,
    busy_seconds: f64,
    parts: &SubtreeParts,
) -> Vec<u8> {
    let mut body = String::with_capacity(256 + parts.values.len() * 16);
    let _ = write!(
        body,
        "{{\"schema\": \"{WIRE_SCHEMA}\", \"type\": \"contribution\", \"job\": {job}, \
         \"task\": {task}, \"epoch\": {epoch}, \"worker\": \"{}\", \
         \"busy_seconds\": {busy_seconds:.6}, \"values\": \"",
        escape(worker),
    );
    push_hex_f64s(&mut body, &parts.values);
    body.push_str("\", \"blocks\": [");
    // By increasing column: deterministic wire bytes for identical parts.
    for (index, (column, block)) in parts.blocks.iter().enumerate() {
        if index > 0 {
            body.push(',');
        }
        let n = block.n();
        let _ = write!(body, "[{column},{n},\"");
        // Only a block's lower triangle is defined (`DenseMatrix::column_major`):
        // the entries above the diagonal go out as +0.0, so the bytes are a
        // function of the lower triangle alone.  (`max(1)`: a 0 × 0 block
        // has no column, and `chunks(0)` panics.)
        for (j, values) in block.column_major().chunks(n.max(1)).enumerate() {
            for _ in 0..j {
                body.push_str("0000000000000000");
            }
            push_hex_f64s(&mut body, values.get(j..).unwrap_or_default());
        }
        body.push_str("\"]");
    }
    body.push_str("]}");
    encode_frame(&body)
}

/// A decoded contribution: one task's factor values and root blocks plus
/// the lease bookkeeping needed to accept or reject it.
#[derive(Debug)]
pub struct Contribution {
    /// Coordinator-assigned job id.
    pub job: u64,
    /// Task index within the job's cut.
    pub task: usize,
    /// The lease epoch this work was claimed under.
    pub epoch: u64,
    /// The contributing worker's identity.
    pub worker: String,
    /// Wall-clock seconds the worker spent factoring the subtree.
    pub busy_seconds: f64,
    /// The decoded task output.
    pub parts: SubtreeParts,
}

impl Contribution {
    /// Decode a contribution frame produced by [`contribution_frame`].  The
    /// result is well-formed in itself (every block is square, every float
    /// finite); whether it has the shape the job's cut expects is for
    /// [`crate::Job::contribute`] to decide.
    pub fn from_frame(bytes: &[u8]) -> Result<Contribution, WireError> {
        let json = Json::parse(decode_frame(bytes)?)?;
        check_type(&json, "contribution")?;
        let busy_seconds = field(&json, "busy_seconds")?
            .as_f64()
            .ok_or(WireError::Field("busy_seconds"))?;
        if !busy_seconds.is_finite() || busy_seconds < 0.0 {
            return Err(WireError::NonFinite("busy_seconds"));
        }
        let values = parse_hex_f64s(str_field(&json, "values")?, "values")?;

        let entries = field(&json, "blocks")?
            .as_array()
            .ok_or(WireError::Field("blocks"))?;
        let mut blocks = ContributionStore::new();
        for entry in entries {
            let triple = entry.as_array().ok_or(WireError::Field("blocks"))?;
            let [column, n, values] = triple else {
                return Err(WireError::Field("blocks"));
            };
            let column = column.as_usize().ok_or(WireError::Field("blocks"))?;
            let n = n.as_usize().ok_or(WireError::Field("blocks"))?;
            let values = parse_hex_f64s(
                values.as_str().ok_or(WireError::Field("blocks"))?,
                "blocks.values",
            )?;
            if n.checked_mul(n) != Some(values.len()) {
                return Err(WireError::Field("blocks"));
            }
            blocks.insert(column, DenseMatrix::from_column_major(n, values));
        }
        // A column named twice replaced its own first block.
        if blocks.len() != entries.len() {
            return Err(WireError::Field("blocks"));
        }

        Ok(Contribution {
            job: u64_field(&json, "job")?,
            task: usize_field(&json, "task")?,
            epoch: u64_field(&json, "epoch")?,
            worker: str_field(&json, "worker")?.to_string(),
            busy_seconds,
            parts: SubtreeParts { values, blocks },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_parts() -> SubtreeParts {
        let mut blocks = ContributionStore::new();
        let block = DenseMatrix::from_column_major(2, vec![4.0, -1.5, -1.5, 3.25]);
        blocks.insert(7, block);
        SubtreeParts {
            values: vec![2.0, -0.5, 1.25],
            blocks,
        }
    }

    #[test]
    fn frames_round_trip() {
        let frame = encode_frame("{\"a\": 1}");
        assert_eq!(decode_frame(&frame).unwrap(), "{\"a\": 1}");
    }

    #[test]
    fn truncated_and_padded_frames_are_typed_errors() {
        let frame = encode_frame("{\"a\": 1}");
        assert!(matches!(
            decode_frame(&frame[..frame.len() - 2]),
            Err(WireError::Truncated { .. })
        ));
        let mut padded = frame.clone();
        padded.push(b'x');
        assert!(matches!(
            decode_frame(&padded),
            Err(WireError::TrailingBytes { .. })
        ));
        assert!(matches!(
            decode_frame(b"nonsense"),
            Err(WireError::BadHeader(_))
        ));
        assert!(matches!(
            decode_frame(format!("{WIRE_SCHEMA} 999999999999\nhi").as_bytes()),
            Err(WireError::Oversized { .. })
        ));
        assert!(matches!(
            decode_frame(b"distrib_wire/v9 2\nhi"),
            Err(WireError::BadHeader(_))
        ));
    }

    #[test]
    fn hex_vectors_are_bit_exact() {
        let values = [0.1, -0.0, f64::MIN_POSITIVE, 1e300, -3.5];
        let mut packed = String::new();
        push_hex_f64s(&mut packed, &values);
        let unpacked = parse_hex_f64s(&packed, "test").unwrap();
        for (a, b) in values.iter().zip(&unpacked) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(matches!(
            parse_hex_f64s(&format!("{:016x}", f64::NAN.to_bits()), "test"),
            Err(WireError::NonFinite("test"))
        ));
        assert!(matches!(
            parse_hex_f64s("xyz", "test"),
            Err(WireError::BadHex("test"))
        ));
        let rows = [0usize, 17, 4_000_000];
        assert_eq!(parse_hex_u32s(&hex_u32s(&rows), "test").unwrap(), rows);
    }

    #[test]
    fn subtree_tasks_round_trip() {
        let config = engine::EngineConfig::generated(sparsemat::gen::ProblemKind::Grid2d, 100, 1)
            .with_numeric(true);
        let task = SubtreeTask {
            job: 3,
            task: 1,
            epoch: 2,
            lease_ms: 5_000,
            config: config.to_json(),
            order: vec![5, 3, 8],
        };
        match ClaimReply::from_frame(&task.to_frame()).unwrap() {
            ClaimReply::Task(parsed) => assert_eq!(*parsed, task),
            other => panic!("expected a task, got {other:?}"),
        }
        let wait = ClaimReply::Wait { retry_ms: 250 };
        assert_eq!(ClaimReply::from_frame(&wait.to_frame()).unwrap(), wait);
        assert_eq!(
            ClaimReply::from_frame(&ClaimReply::Idle.to_frame()).unwrap(),
            ClaimReply::Idle
        );
        let claim = ClaimRequest {
            worker: "w-1".to_string(),
        };
        assert_eq!(ClaimRequest::from_frame(&claim.to_frame()).unwrap(), claim);
    }

    #[test]
    fn tasks_with_corrupt_configs_are_rejected_at_decode_time() {
        let task = SubtreeTask {
            job: 1,
            task: 0,
            epoch: 1,
            lease_ms: 1_000,
            config: "not a config".to_string(),
            order: vec![0],
        };
        assert!(matches!(
            ClaimReply::from_frame(&task.to_frame()),
            Err(WireError::Config(_))
        ));
    }

    #[test]
    fn contributions_round_trip_bit_for_bit() {
        let parts = sample_parts();
        let frame = contribution_frame(9, 2, 4, "w-0", 0.125, &parts);
        let decoded = Contribution::from_frame(&frame).unwrap();
        assert_eq!(decoded.job, 9);
        assert_eq!(decoded.task, 2);
        assert_eq!(decoded.epoch, 4);
        assert_eq!(decoded.worker, "w-0");
        assert_eq!(decoded.parts.values, parts.values);
        let decoded_blocks: Vec<_> = decoded.parts.blocks.iter().collect();
        let original_blocks: Vec<_> = parts.blocks.iter().collect();
        assert_eq!(decoded_blocks.len(), original_blocks.len());
        for ((ca, ba), (cb, bb)) in decoded_blocks.iter().zip(&original_blocks) {
            assert_eq!(ca, cb);
            assert_eq!(ba.n(), bb.n());
            // The lower triangle round-trips by bits; the upper decodes to
            // +0.0 (the sample's (0, 1) entry is -1.5 in memory).
            for j in 0..ba.n() {
                for i in 0..ba.n() {
                    let expected = if i >= j { bb.get(i, j) } else { 0.0 };
                    assert_eq!(ba.get(i, j).to_bits(), expected.to_bits(), "({i}, {j})");
                }
            }
        }
        // Values only: 16 hex digits per float plus constant framing.
        let floats = parts.values.len() + 4;
        assert!(frame.len() < 16 * floats + 256, "{} bytes", frame.len());
    }

    #[test]
    fn malformed_contributions_are_typed_errors() {
        let parts = sample_parts();
        let frame = contribution_frame(1, 0, 1, "w", 0.0, &parts);
        let body = decode_frame(&frame).unwrap().to_string();
        // A value payload that is not whole 16-digit floats.
        let bad = body.replace("\"values\": \"", "\"values\": \"0");
        assert!(matches!(
            Contribution::from_frame(&encode_frame(&bad)),
            Err(WireError::BadHex("values"))
        ));
        // A block whose value payload is not n².
        let bad = body.replace("[7,2,\"", "[7,3,\"");
        assert!(Contribution::from_frame(&encode_frame(&bad)).is_err());
        // The same column twice.
        let block = &body[body.find("[7,2,").unwrap()..body.len() - 2];
        let bad = body.replace(block, &format!("{block},{block}"));
        assert!(matches!(
            Contribution::from_frame(&encode_frame(&bad)),
            Err(WireError::Field("blocks"))
        ));
        // Garbage body.
        assert!(matches!(
            Contribution::from_frame(&encode_frame("[1,2,3]")),
            Err(WireError::Field("type"))
        ));
    }
}
