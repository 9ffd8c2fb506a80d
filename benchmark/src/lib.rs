//! # benchmark — the benchmark of record
//!
//! Seven named workloads drive the workspace's public entry points — the
//! `engine` facade, the HTTP `server`, the `distrib` worker protocol — from
//! seeded inputs, check every output, and report nine end-to-end metrics; a
//! separate traced run wraps every call into a crate in a span and reports
//! one table per layer.  See `README.md` beside this crate and
//! `BENCHMARK.json` at the repository root.

pub mod cli;
pub mod compare;
pub mod host;
pub mod metrics;
pub mod replay;
pub mod runner;
pub mod seeds;
pub mod spans;
pub mod suite;
pub mod workloads;
