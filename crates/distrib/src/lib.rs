//! # distrib — multi-process distributed factorization
//!
//! One factorization, several OS processes.  A **coordinator** plans once,
//! runs the proportional cut, and exposes three internal endpoints; a fleet
//! of **workers** polls `claim`, factors subtrees with the same column loop
//! as a single-process run, and streams the results back:
//!
//! ```text
//!   worker ── POST /internal/claim ──────▶ coordinator   (lease a subtree)
//!   worker ── POST /internal/contribute ─▶ coordinator   (columns + blocks)
//!   anyone ── GET  /internal/job/{id} ───▶ coordinator   (progress JSON)
//! ```
//!
//! This crate is the transport- and policy-free core of that protocol; the
//! HTTP plumbing lives in `crates/server`:
//!
//! * [`wire`] — the versioned, length-prefixed frame format.  A task carries
//!   its slice of the problem, so a worker factors without planning.  Floats
//!   cross the wire as IEEE-754 bit patterns in hex (base-2 exact), so the
//!   merged factor is **bit-identical** to a single-process run and `NaN`
//!   can never be smuggled past `engine::json`.
//! * [`job`] — the coordinator's lease state machine: monotonic deadlines,
//!   epoch fencing of stale contributions, automatic re-issue of tasks whose
//!   worker died, claim admission through the cluster-level
//!   [`BudgetLedger`](multifrontal::parallel::BudgetLedger), and claims that
//!   park until work is ready.
//! * [`stats`] — the cluster counters surfaced under `/stats`, with the
//!   reconciliation invariant `claimed == completed + lease_expiries`.

// A panic here turns one bad request into a dead worker or a poisoned lock:
// handle the error, or `#[expect]` the lint with a reason.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub mod job;
pub mod stats;
pub mod wire;

pub use job::{ContributeError, Job, JobRegistry, JobSpec, RunMarker, WaitError, CLAIM_HOLD_MS};
pub use stats::{ClusterSnapshot, ClusterStats};
pub use wire::{
    contribution_frame, decode_frame, encode_frame, frame_string, ClaimReply, ClaimRequest,
    Contribution, SliceFrame, SubtreeTask, WireError, MAX_FRAME_BYTES, WIRE_SCHEMA,
};
