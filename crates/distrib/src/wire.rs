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

use engine::json::{self, Array, FieldError, Fixed, Hex, Json, JsonError, Writer};
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

impl From<FieldError> for WireError {
    fn from(err: FieldError) -> Self {
        WireError::Field(err.0)
    }
}

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

/// Unpack a [`Hex`] payload of `digits`-wide items, each through `item`.
fn parse_hex<T>(
    text: &str,
    digits: usize,
    field: &'static str,
    item: impl Fn(u64) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    if !text.len().is_multiple_of(digits) || !text.is_ascii() {
        return Err(WireError::BadHex(field));
    }
    let mut values = Vec::with_capacity(text.len() / digits);
    for chunk in text.as_bytes().chunks_exact(digits) {
        let digits = std::str::from_utf8(chunk).ok();
        let bits = digits.and_then(|digits| u64::from_str_radix(digits, 16).ok());
        values.push(item(bits.ok_or(WireError::BadHex(field))?)?);
    }
    Ok(values)
}

/// Unpack an [`f64s`] payload, rejecting malformed hex and non-finite
/// values.
fn parse_hex_f64s(text: &str, field: &'static str) -> Result<Vec<f64>, WireError> {
    parse_hex(text, 16, field, |bits| match f64::from_bits(bits) {
        value if value.is_finite() => Ok(value),
        _ => Err(WireError::NonFinite(field)),
    })
}

/// `values` as one hex payload of IEEE-754 bit patterns.
fn f64s(values: impl IntoIterator<Item = f64>) -> Hex<impl Iterator<Item = u64>> {
    Hex(values.into_iter().map(f64::to_bits))
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
    /// Panics if a column index exceeds `u32::MAX` — matrix dimensions are
    /// capped far below that.
    pub fn to_frame(&self) -> Vec<u8> {
        let order = self
            .order
            .iter()
            .map(|&column| u32::try_from(column).expect("column index exceeds the u32 wire range"));
        encode_frame(&json::line(|frame| {
            frame
                .field("schema", WIRE_SCHEMA)
                .field("type", "task")
                .field("job", self.job)
                .field("task", self.task)
                .field("epoch", self.epoch)
                .field("lease_ms", self.lease_ms)
                .field("config", &self.config)
                .field("order", Hex(order));
        }))
    }

    /// Parse a claim-response body previously produced by
    /// [`SubtreeTask::to_frame`].
    pub fn from_json(json: &Json) -> Result<SubtreeTask, WireError> {
        if json.field::<&str>("type")? != "task" {
            return Err(WireError::Field("type"));
        }
        let config = json.field::<&str>("config")?.to_string();
        // Validate the embedded configuration eagerly: a worker must learn
        // about a corrupt config at claim time, not deep inside planning.
        EngineConfig::from_json(&config).map_err(|err| WireError::Config(err.to_string()))?;
        Ok(SubtreeTask {
            job: json.field("job")?,
            task: json.field("task")?,
            epoch: json.field("epoch")?,
            lease_ms: json.field("lease_ms")?,
            config,
            order: parse_hex(json.field("order")?, 8, "order", |column| {
                usize::try_from(column).map_err(|_| WireError::BadHex("order"))
            })?,
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
            ClaimReply::Wait { retry_ms } => encode_frame(&json::line(|frame| {
                frame
                    .field("schema", WIRE_SCHEMA)
                    .field("type", "wait")
                    .field("retry_ms", *retry_ms);
            })),
            ClaimReply::Idle => encode_frame(&json::line(|frame| {
                frame.field("schema", WIRE_SCHEMA).field("type", "idle");
            })),
        }
    }

    /// Decode a claim-response frame.
    pub fn from_frame(bytes: &[u8]) -> Result<ClaimReply, WireError> {
        let json = Json::parse(decode_frame(bytes)?)?;
        match json.field("type")? {
            "task" => Ok(ClaimReply::Task(Box::new(SubtreeTask::from_json(&json)?))),
            "wait" => Ok(ClaimReply::Wait {
                retry_ms: json.field("retry_ms")?,
            }),
            "idle" => Ok(ClaimReply::Idle),
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
        encode_frame(&json::line(|frame| {
            frame
                .field("schema", WIRE_SCHEMA)
                .field("type", "claim")
                .field("worker", &self.worker);
        }))
    }

    /// Decode a claim-request frame.
    pub fn from_frame(bytes: &[u8]) -> Result<ClaimRequest, WireError> {
        let json = Json::parse(decode_frame(bytes)?)?;
        match json.field("type")? {
            "claim" => Ok(ClaimRequest {
                worker: json.field::<&str>("worker")?.to_string(),
            }),
            _ => Err(WireError::Field("type")),
        }
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
    // By increasing column: deterministic wire bytes for identical parts.
    // Only a block's lower triangle is defined (`DenseMatrix::column_major`):
    // the entries above the diagonal go out as +0.0, so the bytes are a
    // function of the lower triangle alone.  (`max(1)`: a 0 × 0 block has no
    // column, and `chunks(0)` panics.)
    let blocks = parts.blocks.iter().map(|(column, block)| {
        let n = block.n();
        let columns = block.column_major().chunks(n.max(1)).enumerate();
        let values = columns.flat_map(|(j, entries)| {
            let lower = entries.get(j..).unwrap_or_default().iter().copied();
            std::iter::repeat_n(0.0, j).chain(lower)
        });
        (column, n, f64s(values))
    });
    let mut frame = Writer::line(&mut body);
    frame
        .field("schema", WIRE_SCHEMA)
        .field("type", "contribution")
        .field("job", job)
        .field("task", task)
        .field("epoch", epoch)
        .field("worker", worker)
        .field("busy_seconds", Fixed(busy_seconds, 6))
        .field("values", f64s(parts.values.iter().copied()))
        .field("blocks", Array(blocks));
    let _ = frame.end();
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
        if json.field::<&str>("type")? != "contribution" {
            return Err(WireError::Field("type"));
        }
        let busy_seconds: f64 = json.field("busy_seconds")?;
        if !busy_seconds.is_finite() || busy_seconds < 0.0 {
            return Err(WireError::NonFinite("busy_seconds"));
        }
        let values = parse_hex_f64s(json.field("values")?, "values")?;

        let entries: &[Json] = json.field("blocks")?;
        let mut blocks = ContributionStore::new();
        for entry in entries {
            let bad = WireError::Field("blocks");
            let Some([column, n, values]) = entry.as_array() else {
                return Err(bad);
            };
            let (Some(column), Some(n), Some(values)) =
                (column.as_usize(), n.as_usize(), values.as_str())
            else {
                return Err(bad);
            };
            let values = parse_hex_f64s(values, "blocks.values")?;
            if n.checked_mul(n) != Some(values.len()) {
                return Err(bad);
            }
            blocks.insert(column, DenseMatrix::from_column_major(n, values));
        }
        // A column named twice replaced its own first block.
        if blocks.len() != entries.len() {
            return Err(WireError::Field("blocks"));
        }

        Ok(Contribution {
            job: json.field("job")?,
            task: json.field("task")?,
            epoch: json.field("epoch")?,
            worker: json.field::<&str>("worker")?.to_string(),
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

    /// Literal frames of every message type, captured from the
    /// hand-formatted renderers the `json::Writer` replaced: every byte of a
    /// frame is a contract between coordinator and worker processes.
    #[test]
    fn rendered_frames_are_stable() {
        let frame = |bytes: Vec<u8>| String::from_utf8(bytes).unwrap();
        let claim = ClaimRequest {
            worker: "w-\"1\"\n".to_string(),
        };
        assert_eq!(
            frame(claim.to_frame()),
            "distrib_wire/v2 69\n{\"schema\": \"distrib_wire/v2\", \"type\": \"claim\", \"worker\": \"w-\\\"1\\\"\\n\"}"
        );
        assert_eq!(
            frame(ClaimReply::Wait { retry_ms: 250 }.to_frame()),
            "distrib_wire/v2 62\n{\"schema\": \"distrib_wire/v2\", \"type\": \"wait\", \"retry_ms\": 250}"
        );
        assert_eq!(
            frame(ClaimReply::Idle.to_frame()),
            "distrib_wire/v2 45\n{\"schema\": \"distrib_wire/v2\", \"type\": \"idle\"}"
        );
        let task = SubtreeTask {
            job: 3,
            task: 1,
            epoch: 2,
            lease_ms: 5_000,
            config: "{\n  \"solver\": \"é\\\\\"\n}\n".to_string(),
            order: vec![5, 3, 8, 4_000_000],
        };
        assert_eq!(
            frame(ClaimReply::Task(Box::new(task)).to_frame()),
            "distrib_wire/v2 187\n{\"schema\": \"distrib_wire/v2\", \"type\": \"task\", \"job\": 3, \"task\": 1, \"epoch\": 2, \"lease_ms\": 5000, \"config\": \"{\\n  \\\"solver\\\": \\\"é\\\\\\\\\\\"\\n}\\n\", \"order\": \"000000050000000300000008003d0900\"}"
        );
        let contribution = contribution_frame(9, 2, 4, "w-0", 0.125, &sample_parts());
        assert_eq!(
            frame(contribution),
            "distrib_wire/v2 277\n{\"schema\": \"distrib_wire/v2\", \"type\": \"contribution\", \"job\": 9, \"task\": 2, \"epoch\": 4, \"worker\": \"w-0\", \"busy_seconds\": 0.125000, \"values\": \"4000000000000000bfe00000000000003ff4000000000000\", \"blocks\": [[7,2,\"4010000000000000bff80000000000000000000000000000400a000000000000\"]]}"
        );
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

    /// A hex payload's digits, without the quotes.
    fn digits(payload: impl engine::json::Value) -> String {
        let mut text = String::new();
        payload.write_json(&mut text).unwrap();
        text.trim_matches('"').to_string()
    }

    #[test]
    fn hex_vectors_are_bit_exact() {
        let values = [0.1, -0.0, f64::MIN_POSITIVE, 1e300, -3.5];
        let packed = digits(f64s(values));
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
        let rows = [0u32, 17, 4_000_000];
        let unpacked = parse_hex(&digits(Hex(rows)), 8, "test", Ok).unwrap();
        assert_eq!(unpacked, rows.map(u64::from));
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
