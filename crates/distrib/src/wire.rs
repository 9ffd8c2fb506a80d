//! The versioned, length-prefixed wire format of the distributed layer.
//!
//! Every internal message is one **frame**: an ASCII header line
//! `distrib_wire/v3 <body-bytes>\n` followed by exactly that many bytes of
//! JSON.  The explicit length makes truncation and trailing garbage typed
//! decode errors (the coordinator answers 400, never panics), and the
//! leading schema token lets this reader reject peers of any other version
//! with a clear message instead of a JSON parse error.
//!
//! Floating-point payloads — matrix and factor values, contribution blocks
//! — must survive the trip **bit for bit**: the merged factor is gated on
//! being identical to the single-process one, and a shortest-decimal detour
//! would also re-introduce the NaN/Infinity literals `engine::json` rejects.
//! So every `f64` travels as the 16 lowercase hex digits of its IEEE-754
//! bit pattern (base-2 exact by construction), and every index as the 8 of
//! a `u32`, concatenated into one string per vector.  The decoder accepts
//! exactly the digits the encoder writes, `[0-9a-f]`; anything else is a
//! [`WireError::BadHex`].
//!
//! **What crosses.**  A task carries its [`TaskSlice`]: the task's columns
//! of the permuted matrix `A` (lower triangle, row indices and values) and
//! their elimination-tree parents, from which the worker rebuilds the rows
//! of `L` itself — so the task direction carries row indices of `A`, and
//! **no row index of `L` crosses in either direction**.  A contribution is
//! values only: the task's column values concatenated in task order, and
//! each root block as `[column, dimension, values]`; the coordinator checks
//! the counts against its own cut before accepting ([`crate::job`]).  A
//! slice is decoded and validated by [`SubtreeTask::slice`], so a hostile
//! one is a typed error after the task's identity is known.

// Decoding handles peer-shaped bytes: narrow with `try_from` and a typed
// error, widen with `From`; an `as` cast would truncate silently.
#![deny(clippy::as_conversions)]

use std::sync::Arc;

use engine::json::{self, Array, FieldError, Fixed, Hex, Json, JsonError, Writer};
use engine::{EngineConfig, SliceError, SubtreeParts, TaskSlice};
use multifrontal::{ContributionStore, DenseMatrix};

/// Schema token every frame leads with.
pub const WIRE_SCHEMA: &str = "distrib_wire/v3";

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
    /// A task's slice decodes but is not a slice of its task.
    BadSlice(SliceError),
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
            WireError::BadSlice(error) => write!(fmt, "bad task slice: {error}"),
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
    let mut lines = bytes.splitn(2, |&b| b == b'\n');
    let (Some(header), Some(body)) = (lines.next(), lines.next()) else {
        return Err(WireError::BadHeader("no header line".to_string()));
    };
    let header = std::str::from_utf8(header)
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

/// What [`HEX_VALUES`] holds for a byte the encoder never writes.
const INVALID: u8 = 0xff;

/// The value of every byte as a lowercase hex digit, [`INVALID`] for every
/// other byte (uppercase digits and a leading `+` included).
#[expect(
    clippy::as_conversions,
    clippy::indexing_slicing,
    reason = "const construction: an index below 256 is in the table and exact as a u8"
)]
const HEX_VALUES: [u8; 256] = {
    let mut values = [INVALID; 256];
    let mut byte = 0;
    while byte < 256 {
        values[byte] = match byte as u8 {
            digit @ b'0'..=b'9' => digit - b'0',
            digit @ b'a'..=b'f' => digit - b'a' + 10,
            _ => INVALID,
        };
        byte += 1;
    }
    values
};

/// Unpack a [`Hex`] payload of `digits`-wide items, each through `item`.
fn parse_hex<T>(
    text: &str,
    digits: usize,
    field: &'static str,
    item: impl Fn(u64) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    if !text.len().is_multiple_of(digits) {
        return Err(WireError::BadHex(field));
    }
    let mut values = Vec::with_capacity(text.len() / digits);
    for chunk in text.as_bytes().chunks_exact(digits) {
        let (mut bits, mut seen) = (0u64, 0u8);
        for &byte in chunk {
            #[expect(clippy::indexing_slicing, reason = "a u8 indexes a 256-entry table")]
            let value = HEX_VALUES[usize::from(byte)];
            seen |= value;
            bits = bits << 4 | u64::from(value & 0xf);
        }
        if seen > 0xf {
            return Err(WireError::BadHex(field));
        }
        values.push(item(bits)?);
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

/// A [`TaskSlice`] as it crosses the wire: its dimension plus five hex
/// payloads — the columns, their entry counts and parents (`u32`s, a root's
/// parent as `u32::MAX`), the rows (`u32`s) and the values (`f64` bits).
/// The coordinator encodes each task's slice once, when the job is
/// registered; a worker decodes and validates it with
/// [`SubtreeTask::slice`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceFrame {
    n: usize,
    columns: String,
    counts: String,
    parents: String,
    rows: String,
    values: String,
}

/// A parent on the wire: its index, or `u32::MAX` for a root.
const ROOT: u32 = u32::MAX;

impl SliceFrame {
    /// Encode `slice`.
    /// Panics if an index exceeds `u32::MAX - 1` — `read_pattern` refuses
    /// larger MatrixMarket dimensions and generated problems are far smaller.
    #[expect(
        clippy::expect_used,
        reason = "encode side, documented panic: indices come from locally validated matrices"
    )]
    pub fn encode(slice: &TaskSlice) -> SliceFrame {
        let index = |index: usize| {
            u32::try_from(index)
                .ok()
                .filter(|&index| index != ROOT)
                .expect("index exceeds the u32 wire range")
        };
        let parents = slice
            .parents()
            .iter()
            .map(|parent| parent.map_or(ROOT, index));
        SliceFrame {
            n: slice.n(),
            columns: digits(Hex(slice.columns().iter().map(|&column| index(column)))),
            counts: digits(Hex(slice.counts().map(index))),
            parents: digits(Hex(parents)),
            rows: digits(Hex(slice.rows().iter().map(|&row| index(row)))),
            values: digits(f64s(slice.values().iter().copied())),
        }
    }
}

/// A hex payload's digits, without the quotes.
fn digits(payload: impl json::Value) -> String {
    let mut text = String::new();
    let _ = payload.write_json(&mut text);
    text.get(1..text.len().saturating_sub(1))
        .unwrap_or_default()
        .to_string()
}

/// One subtree task as the coordinator issues it to a worker: the job and
/// task identity, the lease epoch the contribution must echo, the task's
/// bottom-up column order and its slice of the problem.
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
    /// Canonical engine-configuration JSON of the job.  The worker does not
    /// need it (the slice is the problem); it stays for readers that plan
    /// the task's configuration themselves.
    pub config: String,
    /// Bottom-up column order of the subtree.
    pub order: Vec<usize>,
    /// The task's slice of the problem, as encoded.
    pub slice: Arc<SliceFrame>,
}

impl SubtreeTask {
    /// Render as a claim-response frame.
    /// Panics if a column index exceeds `u32::MAX` — `read_pattern` refuses
    /// larger MatrixMarket dimensions and generated problems are far smaller.
    #[expect(
        clippy::expect_used,
        reason = "encode side, documented panic: indices come from locally validated matrices"
    )]
    pub fn to_frame(&self) -> Vec<u8> {
        let order = self
            .order
            .iter()
            .map(|&column| u32::try_from(column).expect("column index exceeds the u32 wire range"));
        let slice = &*self.slice;
        encode_frame(&json::line(|frame| {
            frame
                .field("schema", WIRE_SCHEMA)
                .field("type", "task")
                .field("job", self.job)
                .field("task", self.task)
                .field("epoch", self.epoch)
                .field("lease_ms", self.lease_ms)
                .field("config", &self.config)
                .field("order", Hex(order))
                .field("n", slice.n)
                .field("columns", &slice.columns)
                .field("counts", &slice.counts)
                .field("parents", &slice.parents)
                .field("rows", &slice.rows)
                .field("values", &slice.values);
        }))
    }

    /// Parse a claim-response body previously produced by
    /// [`SubtreeTask::to_frame`].  The slice's payloads are kept as they
    /// came; [`SubtreeTask::slice`] decodes them.
    pub fn from_json(json: &Json) -> Result<SubtreeTask, WireError> {
        if json.field::<&str>("type")? != "task" {
            return Err(WireError::Field("type"));
        }
        let config = json.field::<&str>("config")?.to_string();
        // Validate the embedded configuration eagerly: a corrupt one is a
        // decode error, whoever reads it later.
        EngineConfig::from_json(&config).map_err(|err| WireError::Config(err.to_string()))?;
        let text = |field| json.field::<&str>(field).map(str::to_string);
        Ok(SubtreeTask {
            job: json.field("job")?,
            task: json.field("task")?,
            epoch: json.field("epoch")?,
            lease_ms: json.field("lease_ms")?,
            config,
            order: parse_hex(json.field("order")?, 8, "order", index("order"))?,
            slice: Arc::new(SliceFrame {
                n: json.field("n")?,
                columns: text("columns")?,
                counts: text("counts")?,
                parents: text("parents")?,
                rows: text("rows")?,
                values: text("values")?,
            }),
        })
    }

    /// Decode and validate the task's slice: malformed hex, a non-finite
    /// value or a slice that is not one of this task ([`TaskSlice::new`])
    /// is a typed error.
    pub fn slice(&self) -> Result<TaskSlice, WireError> {
        let slice = &*self.slice;
        let parents = parse_hex(&slice.parents, 8, "parents", |parent| {
            Ok((parent != u64::from(ROOT)).then_some(index("parents")(parent)?))
        })?;
        let counts = parse_hex(&slice.counts, 8, "counts", index("counts"))?;
        TaskSlice::new(
            slice.n,
            self.order.clone(),
            parse_hex(&slice.columns, 8, "columns", index("columns"))?,
            &counts,
            parse_hex(&slice.rows, 8, "rows", index("rows"))?,
            parse_hex_f64s(&slice.values, "values")?,
            parents,
        )
        .map_err(|error| match error {
            SliceError::NonFinite => WireError::NonFinite("values"),
            other => WireError::BadSlice(other),
        })
    }
}

/// An index item of a hex payload, as a `usize`.
fn index(field: &'static str) -> impl Fn(u64) -> Result<usize, WireError> {
    move |bits| usize::try_from(bits).map_err(|_| WireError::BadHex(field))
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

    /// A slice of the task `[5, 3, 8, 4_000_000]`: column 5 has row
    /// 4_000_000 below its diagonal, hence that parent; the others are
    /// roots holding only their diagonal.
    fn sample_slice() -> TaskSlice {
        TaskSlice::new(
            4_000_001,
            vec![5, 3, 8, 4_000_000],
            vec![3, 5, 8, 4_000_000],
            &[1, 2, 1, 1],
            vec![3, 5, 4_000_000, 8, 4_000_000],
            vec![1.0, 4.0, -1.0, 2.0, 4.0],
            vec![None, Some(4_000_000), None, None],
        )
        .unwrap()
    }

    fn sample_task(config: String) -> SubtreeTask {
        let slice = sample_slice();
        SubtreeTask {
            job: 3,
            task: 1,
            epoch: 2,
            lease_ms: 5_000,
            config,
            order: slice.order().to_vec(),
            slice: Arc::new(SliceFrame::encode(&slice)),
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
            "distrib_wire/v3 69\n{\"schema\": \"distrib_wire/v3\", \"type\": \"claim\", \"worker\": \"w-\\\"1\\\"\\n\"}"
        );
        assert_eq!(
            frame(ClaimReply::Wait { retry_ms: 250 }.to_frame()),
            "distrib_wire/v3 62\n{\"schema\": \"distrib_wire/v3\", \"type\": \"wait\", \"retry_ms\": 250}"
        );
        assert_eq!(
            frame(ClaimReply::Idle.to_frame()),
            "distrib_wire/v3 45\n{\"schema\": \"distrib_wire/v3\", \"type\": \"idle\"}"
        );
        let task = sample_task("{\n  \"solver\": \"é\\\\\"\n}\n".to_string());
        assert_eq!(
            frame(ClaimReply::Task(Box::new(task)).to_frame()),
            concat!(
                "distrib_wire/v3 487\n{\"schema\": \"distrib_wire/v3\", \"type\": \"task\", \"job\": 3, \"task\": 1, \"epoch\": 2, \"lease_ms\": 5000, \"config\": \"{\\n  \\\"solver\\\": \\\"é\\\\\\\\\\\"\\n}\\n\", \"order\": \"000000050000000300000008003d0900\", ",
                "\"n\": 4000001, \"columns\": \"000000030000000500000008003d0900\", \"counts\": \"00000001000000020000000100000001\", \"parents\": \"ffffffff003d0900ffffffffffffffff\", ",
                "\"rows\": \"0000000300000005003d090000000008003d0900\", \"values\": \"3ff00000000000004010000000000000bff000000000000040000000000000004010000000000000\"}"
            )
        );
        let contribution = contribution_frame(9, 2, 4, "w-0", 0.125, &sample_parts());
        assert_eq!(
            frame(contribution),
            "distrib_wire/v3 277\n{\"schema\": \"distrib_wire/v3\", \"type\": \"contribution\", \"job\": 9, \"task\": 2, \"epoch\": 4, \"worker\": \"w-0\", \"busy_seconds\": 0.125000, \"values\": \"4000000000000000bfe00000000000003ff4000000000000\", \"blocks\": [[7,2,\"4010000000000000bff80000000000000000000000000000400a000000000000\"]]}"
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
        // Only the encoder's own digits decode: no sign, no uppercase, no
        // whitespace, nothing outside ASCII.
        for bad in [
            "xyz",
            "+fffffffffffffff",
            "3FF0000000000000",
            "3ff000000000000 ",
            "-000000000000001",
            "3ff00000000000é",
        ] {
            assert!(
                matches!(parse_hex_f64s(bad, "test"), Err(WireError::BadHex("test"))),
                "{bad:?}"
            );
        }
        assert!(matches!(
            parse_hex("+0000001", 8, "test", Ok),
            Err(WireError::BadHex("test"))
        ));
        // Every digit value, both table ends.
        let every = "0123456789abcdef";
        assert_eq!(
            parse_hex(every, 16, "test", Ok).unwrap(),
            [0x0123_4567_89ab_cdef]
        );
        assert_eq!(digits(Hex([0x0123_4567_89ab_cdefu64])), every);
        assert_eq!(digits(Hex([u32::MAX, 0])), "ffffffff00000000");
        let rows = [0u32, 17, 4_000_000];
        let unpacked = parse_hex(&digits(Hex(rows)), 8, "test", Ok).unwrap();
        assert_eq!(unpacked, rows.map(u64::from));
    }

    #[test]
    fn subtree_tasks_round_trip() {
        let config = engine::EngineConfig::generated(sparsemat::gen::ProblemKind::Grid2d, 100, 1)
            .with_numeric(true);
        let task = sample_task(config.to_json());
        match ClaimReply::from_frame(&task.to_frame()).unwrap() {
            ClaimReply::Task(parsed) => {
                assert_eq!(*parsed, task);
                assert_eq!(parsed.slice().unwrap(), sample_slice());
            }
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
        let task = sample_task("not a config".to_string());
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
