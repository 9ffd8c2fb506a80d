//! Trace-replay proof of the serving cache layer (`loadgen traces`).
//!
//! The harness replays seeded synthetic request traces against
//! [`engine::CacheCore`] directly — "plan-stub mode": each request is a
//! `get`-then-`insert` of a dummy value with a realistic byte footprint, so
//! millions of requests replay in seconds without planning anything — and
//! runs a smaller end-to-end HTTP pass against a spawned byte-budget server
//! with `X-Tenant` headers.
//!
//! ## Trace shapes
//!
//! * `zipf` — a zipfian hot set: 400 keys, α = 0.9, 1–32 KiB each.
//! * `scan` — a sequential flood of one-shot 128 KiB keys with a small
//!   (15%) hot set mixed in: the classic cache-pollution shape.
//! * `mixed` — the headline adversary: a zipfian hot set of *small* items
//!   (1–8 KiB) interleaved with a steady 25% stream of unique *large*
//!   (100–400 KiB) cold items, a ~100× size spread.  Size-aware policies
//!   (GDSF) must beat pure recency (LRU) here at every capacity.
//! * `tenants` — three tenants with different shapes and sizes sharing one
//!   cache under per-tenant quotas and a fair-share floor: `alpha` scan
//!   floods large one-shot items, `beta` re-reads a small hot set, `gamma`
//!   a medium one.  The gate is **zero quota violations**: at no sampled
//!   point may any tenant's resident bytes exceed its quota, and the byte
//!   accounting must audit clean after every cell.
//!
//! ## The matrix
//!
//! Every cell is {trace × policy × capacity}: capacities are fractions of
//! the trace's total unique bytes (1%, 3%, 10%), policies are the three
//! [`CachePolicy`] values (LRU, GDSF, S3FIFO).  Full mode adds a deep
//! section (the `mixed` trace at 200k requests per policy) and writes
//! `BENCH_cache.json`.  Quick mode is the CI smoke: the same matrix at
//! ~1/8 scale, byte-for-byte reproducible, checked against the committed
//! `crates/bench/data/cache_reference.json` (replay is fully
//! deterministic: seeded traces, logical-tick recency, no wall clock in
//! any eviction decision).

use std::collections::HashSet;
use std::sync::Arc;

use engine::cache::{CacheConfig, CacheCore, CachePolicy};
use engine::json::{self, Array, Fields, Fixed, Json, Object, Raw, Writer};
use engine::prelude::*;
use prng::{Rng, StdRng};
use server::client;
use server::{CacheSettings, Server, ServerConfig};
use sparsemat::gen::ProblemKind;

/// Capacity fractions of each trace's unique bytes.
pub const CAPACITY_FRACTIONS: [f64; 3] = [0.01, 0.03, 0.10];

/// Trace shapes in matrix order.
pub const TRACE_SHAPES: [&str; 4] = ["zipf", "scan", "mixed", "tenants"];

/// One replayed request.
struct Req {
    key: String,
    tenant: &'static str,
    bytes: u64,
}

/// One matrix cell's outcome.
pub struct CellResult {
    pub trace: &'static str,
    pub policy: &'static str,
    pub fraction: f64,
    pub capacity_bytes: u64,
    pub requests: usize,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub uncacheable: u64,
    pub bytes_used: u64,
    pub quota_violations: u64,
    pub accounting_ok: bool,
}

impl CellResult {
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl Fields for CellResult {
    fn fields(&self, cell: &mut Writer<'_>) {
        cell.field("trace", self.trace)
            .field("policy", self.policy)
            .field("fraction", self.fraction)
            .field("capacity_bytes", self.capacity_bytes)
            .field("requests", self.requests)
            .field("hits", self.hits)
            .field("misses", self.misses)
            .field("hit_rate", Fixed(self.hit_rate(), 6))
            .field("evictions", self.evictions)
            .field("uncacheable", self.uncacheable)
            .field("bytes_used", self.bytes_used)
            .field("quota_violations", self.quota_violations)
            .field("accounting_ok", self.accounting_ok);
    }
}

/// A key's deterministic byte footprint in `[lo, hi)`, from its FNV
/// fingerprint — stable across runs and platforms.
fn size_for(key: &str, lo: u64, hi: u64) -> u64 {
    lo + engine::fingerprint64(key) % (hi - lo)
}

/// A zipfian sampler over ranks `0..n` with exponent `alpha`.
struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, alpha: f64) -> Self {
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(alpha);
            cumulative.push(total);
        }
        Zipf { cumulative }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty zipf");
        let u = rng.gen::<f64>() * total;
        self.cumulative.partition_point(|&c| c < u)
    }
}

const KIB: u64 = 1024;

fn zipf_trace(n: usize, seed: u64) -> Vec<Req> {
    let zipf = Zipf::new(400, 0.9);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let key = format!("z{}", zipf.sample(&mut rng));
            let bytes = size_for(&key, KIB, 32 * KIB);
            Req {
                key,
                tenant: "public",
                bytes,
            }
        })
        .collect()
}

fn scan_trace(n: usize, seed: u64) -> Vec<Req> {
    let zipf = Zipf::new(64, 0.8);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next_scan = 0u64;
    (0..n)
        .map(|_| {
            if rng.gen::<f64>() < 0.15 {
                let key = format!("hot{}", zipf.sample(&mut rng));
                let bytes = size_for(&key, 4 * KIB, 8 * KIB);
                Req {
                    key,
                    tenant: "public",
                    bytes,
                }
            } else {
                next_scan += 1;
                Req {
                    key: format!("scan{next_scan}"),
                    tenant: "public",
                    bytes: 128 * KIB,
                }
            }
        })
        .collect()
}

fn mixed_trace(n: usize, seed: u64) -> Vec<Req> {
    let zipf = Zipf::new(300, 0.9);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next_scan = 0u64;
    (0..n)
        .map(|_| {
            if rng.gen::<f64>() < 0.25 {
                // The pollution stream: unique large items, never reused.
                next_scan += 1;
                let key = format!("cold{next_scan}");
                let bytes = size_for(&key, 100 * KIB, 400 * KIB);
                Req {
                    key,
                    tenant: "public",
                    bytes,
                }
            } else {
                let key = format!("m{}", zipf.sample(&mut rng));
                let bytes = size_for(&key, KIB, 8 * KIB);
                Req {
                    key,
                    tenant: "public",
                    bytes,
                }
            }
        })
        .collect()
}

fn tenants_trace(n: usize, seed: u64) -> Vec<Req> {
    let beta = Zipf::new(200, 0.9);
    let gamma = Zipf::new(50, 0.9);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next_scan = 0u64;
    (0..n)
        .map(|_| {
            let roll = rng.gen::<f64>();
            if roll < 0.4 {
                // Tenant alpha: a scan flood of large one-shot items.
                next_scan += 1;
                let key = format!("a{next_scan}");
                let bytes = size_for(&key, 64 * KIB, 256 * KIB);
                Req {
                    key,
                    tenant: "alpha",
                    bytes,
                }
            } else if roll < 0.8 {
                let key = format!("b{}", beta.sample(&mut rng));
                let bytes = size_for(&key, KIB, 8 * KIB);
                Req {
                    key,
                    tenant: "beta",
                    bytes,
                }
            } else {
                let key = format!("g{}", gamma.sample(&mut rng));
                let bytes = size_for(&key, 8 * KIB, 32 * KIB);
                Req {
                    key,
                    tenant: "gamma",
                    bytes,
                }
            }
        })
        .collect()
}

fn trace_for(shape: &str, n: usize, seed: u64) -> Vec<Req> {
    match shape {
        "zipf" => zipf_trace(n, seed),
        "scan" => scan_trace(n, seed),
        "mixed" => mixed_trace(n, seed),
        "tenants" => tenants_trace(n, seed),
        other => panic!("unknown trace shape '{other}'"),
    }
}

/// Sum of the distinct keys' footprints: the byte mass a cache of fraction
/// 1.0 would need to hold everything.
fn unique_bytes(trace: &[Req]) -> u64 {
    let mut seen = HashSet::new();
    trace
        .iter()
        .filter(|r| seen.insert(r.key.as_str()))
        .map(|r| r.bytes)
        .sum()
}

/// Replay one trace through a [`CacheCore`] under `policy` with the given
/// byte capacity (and, for the `tenants` trace, quotas + floor).  Quota
/// compliance and byte accounting are audited at sampled points and at the
/// end; any breach is counted, never masked.
fn replay(
    trace_name: &'static str,
    trace: &[Req],
    policy: CachePolicy,
    fraction: f64,
    capacity: u64,
    quota: Option<u64>,
    floor: f64,
) -> CellResult {
    let core: CacheCore<()> = CacheCore::new(
        CacheConfig {
            policy,
            bytes_capacity: capacity,
            max_entries: None,
            ttl: None,
            tenant_quota_bytes: quota,
            tenant_floor: floor,
        },
        "bench.trace-cache",
    );
    let mut quota_violations = 0u64;
    let mut accounting_ok = true;
    for (index, req) in trace.iter().enumerate() {
        if core.get(&req.key, req.tenant).is_none() {
            core.insert(&req.key, req.tenant, Arc::new(()), req.bytes);
        }
        // Audit at sampled points: capacity, quotas, internal accounting.
        if index % 997 == 0 {
            let stats = core.stats();
            if stats.bytes_used > capacity {
                quota_violations += 1;
            }
            if let Some(quota) = quota {
                for tenant in &stats.per_tenant {
                    if tenant.bytes > quota {
                        quota_violations += 1;
                    }
                }
            }
            if core.validate_accounting().is_err() {
                accounting_ok = false;
            }
        }
    }
    let stats = core.stats();
    if stats.bytes_used > capacity {
        quota_violations += 1;
    }
    if let Some(quota) = quota {
        for tenant in &stats.per_tenant {
            if tenant.bytes > quota {
                quota_violations += 1;
            }
        }
    }
    if core.validate_accounting().is_err() {
        accounting_ok = false;
    }
    CellResult {
        trace: trace_name,
        policy: policy.name(),
        fraction,
        capacity_bytes: capacity,
        requests: trace.len(),
        hits: stats.hits,
        misses: stats.misses,
        evictions: stats.evictions,
        uncacheable: stats.uncacheable,
        bytes_used: stats.bytes_used,
        quota_violations,
        accounting_ok,
    }
}

/// The seeded trace every matrix cell of one shape replays.
fn matrix_trace(shape: &str, quick: bool) -> Vec<Req> {
    let full = match shape {
        "mixed" => 12_000,
        _ => 8_000,
    };
    let n = if quick { full / 8 } else { full };
    trace_for(shape, n, 0xC0FFEE ^ n as u64)
}

/// A cell's byte capacity: `fraction` of the trace's unique bytes.  There is
/// no floor — a floor makes the small fractions of a small trace the same
/// cell — so every trace must be big enough that its smallest capacity
/// still holds its largest item (`capacities_are_distinct_and_hold_an_item`).
fn capacity_bytes(unique_bytes: u64, fraction: f64) -> u64 {
    (unique_bytes as f64 * fraction) as u64
}

/// Replay the whole {trace × policy × capacity} matrix.
pub fn run_matrix(quick: bool) -> Vec<CellResult> {
    let mut cells = Vec::new();
    for shape in TRACE_SHAPES {
        let trace = matrix_trace(shape, quick);
        let total = unique_bytes(&trace);
        for policy in CachePolicy::ALL {
            for fraction in CAPACITY_FRACTIONS {
                let capacity = capacity_bytes(total, fraction);
                let (quota, floor) = if shape == "tenants" {
                    (Some(capacity / 3), 0.4)
                } else {
                    (None, 0.0)
                };
                cells.push(replay(
                    shape, &trace, policy, fraction, capacity, quota, floor,
                ));
            }
        }
    }
    cells
}

/// The deep section: the `mixed` adversary at scale.
pub fn run_deep() -> Vec<CellResult> {
    let n = 200_000;
    let trace = mixed_trace(n, 0xDEE9);
    let total = unique_bytes(&trace);
    CachePolicy::ALL
        .into_iter()
        .map(|policy| {
            let fraction = 0.03;
            let capacity = capacity_bytes(total, fraction);
            replay("mixed-deep", &trace, policy, fraction, capacity, None, 0.0)
        })
        .collect()
}

/// Outcome of the end-to-end HTTP pass.
pub struct HttpPassResult {
    pub requests: usize,
    pub zeta_hits: u64,
    pub violations: Vec<String>,
    pub stats_body: String,
}

/// The end-to-end pass: a real server with byte-budget caches and tenant
/// quotas, two tenants over loopback HTTP with `X-Tenant` headers — `acme`
/// floods unique configurations, `zeta` re-reads a small hot set.  Gates:
/// `zeta` keeps hitting despite the flood, no tenant's resident bytes
/// exceed the quota, and `/stats` carries the versioned `caches` object.
pub fn run_http_pass(quick: bool) -> HttpPassResult {
    let mut violations = Vec::new();
    // Size the budgets from a measured plan footprint so the pass
    // exercises real evictions without starving the hot set.
    let engine = Engine::new();
    let probe = EngineConfig::generated(ProblemKind::Grid2d, 100, 1);
    let plan_bytes = engine
        .plan(&probe)
        .map(|plan| plan.approx_heap_bytes())
        .unwrap_or(64 * KIB)
        .max(KIB);
    let handle = Server::spawn(ServerConfig {
        workers: 2,
        cache: CacheSettings {
            policy: Some(CachePolicy::Gdsf),
            plan_bytes: Some(plan_bytes * 16),
            factor_bytes: Some(256 * 1024 * KIB),
            tenant_quota_bytes: Some(plan_bytes * 6),
            tenant_floor: 0.3,
        },
        ..ServerConfig::default()
    })
    .expect("spawning the trace server failed");
    let addr = handle.addr();

    let hot: Vec<String> = (0..4)
        .map(|seed| EngineConfig::generated(ProblemKind::Grid2d, 100, 1000 + seed).to_json())
        .collect();
    let rounds = if quick { 6 } else { 30 };
    let mut requests = 0usize;
    for round in 0..rounds {
        // zeta's hot set...
        for config in &hot {
            let response =
                client::post_with_headers(addr, "/plan", &[("X-Tenant", "zeta")], config);
            requests += 1;
            match response {
                Ok(response) => {
                    if response.status != 200 {
                        violations.push(format!("zeta /plan -> {}", response.status));
                    }
                }
                Err(e) => violations.push(format!("zeta /plan transport: {e}")),
            }
        }
        // ...interleaved with acme's flood of unique configurations.
        for burst in 0..3 {
            let seed = 50_000 + round * 10 + burst;
            let config = EngineConfig::generated(ProblemKind::Grid2d, 100, seed as u64).to_json();
            let response =
                client::post_with_headers(addr, "/plan", &[("X-Tenant", "acme")], &config);
            requests += 1;
            if let Ok(response) = response {
                if response.status != 200 {
                    violations.push(format!("acme /plan -> {}", response.status));
                }
            }
        }
    }
    // A bad tenant name is rejected before any handler runs.
    match client::post_with_headers(addr, "/plan", &[("X-Tenant", "no spaces!")], &hot[0]) {
        Ok(response) if response.status == 400 => {}
        Ok(response) => violations.push(format!("invalid X-Tenant -> {}", response.status)),
        Err(e) => violations.push(format!("invalid X-Tenant transport: {e}")),
    }

    let stats_body = client::get(addr, "/stats")
        .map(|response| response.body)
        .unwrap_or_else(|e| {
            violations.push(format!("/stats failed: {e}"));
            String::new()
        });
    let stats = Json::parse(&stats_body).unwrap_or(Json::Null);
    let plan_cache = stats.get("caches").and_then(|c| c.get("plan"));
    let mut zeta_hits = 0;
    match plan_cache {
        Some(section) => {
            if section.get("policy").and_then(Json::as_str) != Some("GDSF") {
                violations.push("caches.plan.policy is not GDSF".to_string());
            }
            let quota = plan_bytes * 6;
            for tenant in ["acme", "zeta"] {
                let usage = section.get("tenants").and_then(|t| t.get(tenant));
                let Some(usage) = usage else {
                    violations.push(format!("caches.plan.tenants.{tenant} missing"));
                    continue;
                };
                let bytes = usage.get("bytes").and_then(Json::as_u64).unwrap_or(0);
                if bytes > quota {
                    violations.push(format!(
                        "tenant {tenant} holds {bytes} bytes over its quota {quota}"
                    ));
                }
                if tenant == "zeta" {
                    zeta_hits = usage.get("hits").and_then(Json::as_u64).unwrap_or(0);
                }
            }
            if zeta_hits == 0 {
                violations.push("zeta's hot set never hit despite acme's flood".to_string());
            }
        }
        None => violations.push("/stats has no caches.plan object".to_string()),
    }
    if handle.shutdown().is_err() {
        violations.push("trace server did not shut down cleanly".to_string());
    }
    HttpPassResult {
        requests,
        zeta_hits,
        violations,
        stats_body,
    }
}

/// The checked-in reference path (quick-mode cell identity).
pub fn reference_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("data")
        .join("cache_reference.json")
}

/// Render the reference document for a quick-mode matrix.
pub fn reference_json(cells: &[CellResult]) -> String {
    let cells = cells.iter().map(|c| {
        Object(move |cell| {
            cell.field("trace", c.trace)
                .field("policy", c.policy)
                .field("fraction", c.fraction)
                .field("requests", c.requests)
                .field("hits", c.hits)
                .field("evictions", c.evictions);
        })
    });
    json::document(|doc| {
        doc.field("schema", "bench_cache_reference/v1")
            .field("cells", Array(cells));
    })
}

/// Compare a quick-mode matrix against the committed reference, parsed cell
/// by parsed cell; returns the mismatches (empty = identical).
pub fn check_reference(cells: &[CellResult], reference: &str) -> Vec<String> {
    let cells_of = |text: &str| Some(Json::parse(text).ok()?.get("cells")?.as_array()?.to_vec());
    let (Some(expected), Some(actual)) = (cells_of(reference), cells_of(&reference_json(cells)))
    else {
        return vec!["reference file has no cells array".to_string()];
    };
    if expected.len() != actual.len() {
        let (expected, actual) = (expected.len(), actual.len());
        return vec![format!(
            "reference has {expected} cells, this run produced {actual}"
        )];
    }
    expected
        .iter()
        .zip(&actual)
        .filter(|(expected, actual)| expected != actual)
        .map(|(expected, actual)| format!("{actual:?} != reference {expected:?}"))
        .collect()
}

/// Matrix-wide gates: GDSF ≥ LRU on the mixed trace at every capacity,
/// zero quota violations, clean accounting everywhere.  Returns the
/// violated invariants.
pub fn check_gates(matrix: &[CellResult], deep: &[CellResult]) -> Vec<String> {
    let cells: Vec<&CellResult> = matrix.iter().chain(deep.iter()).collect();
    let mut violations = Vec::new();
    for cell in &cells {
        if !cell.accounting_ok {
            violations.push(format!(
                "{}/{}/{}: byte accounting drifted",
                cell.trace, cell.policy, cell.fraction
            ));
        }
        if cell.quota_violations > 0 {
            violations.push(format!(
                "{}/{}/{}: {} quota/capacity violation(s)",
                cell.trace, cell.policy, cell.fraction, cell.quota_violations
            ));
        }
    }
    for trace in ["mixed", "mixed-deep"] {
        for fraction in CAPACITY_FRACTIONS {
            let rate = |policy: &str| {
                cells
                    .iter()
                    .find(|c| c.trace == trace && c.policy == policy && c.fraction == fraction)
                    .map(|c| c.hit_rate())
            };
            if let (Some(gdsf), Some(lru)) = (rate("GDSF"), rate("LRU")) {
                if gdsf < lru {
                    violations.push(format!(
                        "{trace} at fraction {fraction}: GDSF hit rate {gdsf:.4} \
                         below LRU {lru:.4}"
                    ));
                }
            }
        }
    }
    violations
}

/// Render the full `BENCH_cache.json` document.
pub fn bench_json(
    mode: &str,
    matrix: &[CellResult],
    deep: &[CellResult],
    http: &HttpPassResult,
    gate_violations: &[String],
) -> String {
    let stub_requests: usize = matrix.iter().chain(deep.iter()).map(|c| c.requests).sum();
    let policies = CachePolicy::ALL.iter().map(|policy| policy.name());
    let gates = Object(|gates| {
        gates
            .field("violations", gate_violations.len() + http.violations.len())
            .field("zeta_hits", http.zeta_hits);
    });
    json::document(|doc| {
        doc.field("schema", "bench_cache/v1")
            .field("mode", mode)
            .field("total_stub_requests", stub_requests)
            .field("http_requests", http.requests)
            .field("policies", Array(policies))
            .field("capacity_fractions", Array(CAPACITY_FRACTIONS))
            .field("matrix", Array(matrix))
            .field("deep", Array(deep))
            .field("gates", gates)
            .field("server_stats", Raw(http.stats_body.trim_end()));
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `bench_cache/v1` and the reference document parse to what the
    /// hand-formatted renderers wrote before the `json::Writer` (only their
    /// layout may change).
    #[test]
    fn the_cache_documents_keep_their_fields() {
        let cell = |trace, policy, fraction, hits| CellResult {
            trace,
            policy,
            fraction,
            capacity_bytes: 65_536,
            requests: 1000,
            hits,
            misses: 1000 - hits,
            evictions: 17,
            uncacheable: 1,
            bytes_used: 60_000,
            quota_violations: 0,
            accounting_ok: true,
        };
        let matrix = [
            cell("zipf", "LRU", 0.01, 400),
            cell("mixed", "GDSF", 0.1, 733),
        ];
        let deep = [cell("mixed-deep", "S3FIFO", 0.03, 512)];
        let http = HttpPassResult {
            requests: 46,
            zeta_hits: 20,
            violations: vec!["one".to_string()],
            stats_body: "{\n  \"schema\": \"engine_server_stats/v1\",\n  \"workers\": [1,2]\n}\n"
                .to_string(),
        };
        let doc = bench_json("quick", &matrix, &deep, &http, &["two".to_string()]);
        let parent = "{\n  \"schema\": \"bench_cache/v1\",\n  \"mode\": \"quick\",\n  \"total_stub_requests\": 3000,\n  \"http_requests\": 46,\n  \"policies\": [\"LRU\", \"GDSF\", \"S3FIFO\"],\n  \"capacity_fractions\": [0.01, 0.03, 0.1],\n  \"matrix\": [\n    {\"trace\": \"zipf\", \"policy\": \"LRU\", \"fraction\": 0.01, \"capacity_bytes\": 65536, \"requests\": 1000, \"hits\": 400, \"misses\": 600, \"hit_rate\": 0.400000, \"evictions\": 17, \"uncacheable\": 1, \"bytes_used\": 60000, \"quota_violations\": 0, \"accounting_ok\": true},\n    {\"trace\": \"mixed\", \"policy\": \"GDSF\", \"fraction\": 0.1, \"capacity_bytes\": 65536, \"requests\": 1000, \"hits\": 733, \"misses\": 267, \"hit_rate\": 0.733000, \"evictions\": 17, \"uncacheable\": 1, \"bytes_used\": 60000, \"quota_violations\": 0, \"accounting_ok\": true}\n  ],\n  \"deep\": [\n    {\"trace\": \"mixed-deep\", \"policy\": \"S3FIFO\", \"fraction\": 0.03, \"capacity_bytes\": 65536, \"requests\": 1000, \"hits\": 512, \"misses\": 488, \"hit_rate\": 0.512000, \"evictions\": 17, \"uncacheable\": 1, \"bytes_used\": 60000, \"quota_violations\": 0, \"accounting_ok\": true}\n  ],\n  \"gates\": {\"violations\": 2, \"zeta_hits\": 20},\n  \"server_stats\": {\n  \"schema\": \"engine_server_stats/v1\",\n  \"workers\": [1,2]\n}\n}\n";
        assert_eq!(Json::parse(&doc), Json::parse(parent));
        let reference = reference_json(&matrix);
        assert!(check_reference(&matrix, &reference).is_empty());
        let drifted = [
            cell("zipf", "LRU", 0.01, 400),
            cell("mixed", "GDSF", 0.1, 732),
        ];
        assert_eq!(check_reference(&drifted, &reference).len(), 1);
        let parent = "{\n  \"schema\": \"bench_cache_reference/v1\",\n  \"cells\": [\n    {\"trace\": \"zipf\", \"policy\": \"LRU\", \"fraction\": 0.01, \"requests\": 1000, \"hits\": 400, \"evictions\": 17},\n    {\"trace\": \"mixed\", \"policy\": \"GDSF\", \"fraction\": 0.1, \"requests\": 1000, \"hits\": 733, \"evictions\": 17}\n  ]\n}\n";
        assert_eq!(Json::parse(&reference), Json::parse(parent));
    }

    #[test]
    fn capacities_are_distinct_and_hold_an_item() {
        for quick in [true, false] {
            for shape in TRACE_SHAPES {
                let trace = matrix_trace(shape, quick);
                let total = unique_bytes(&trace);
                let largest = trace.iter().map(|r| r.bytes).max().unwrap();
                let capacities = CAPACITY_FRACTIONS.map(|f| capacity_bytes(total, f));
                assert!(
                    capacities.windows(2).all(|pair| pair[0] < pair[1]),
                    "{shape} (quick {quick}): capacities {capacities:?} are not distinct"
                );
                assert!(
                    capacities[0] >= largest,
                    "{shape} (quick {quick}): capacity {} cannot hold a {largest}-byte item",
                    capacities[0]
                );
            }
        }
    }
}
