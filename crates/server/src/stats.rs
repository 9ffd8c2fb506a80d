//! Serving-side observability: request counters and bounded latency
//! recorders, summarised for the `/stats` endpoint.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use engine::json::{self, Fixed, Object, Value};
use perfprof::timing::{latency_summary, LatencySummary};
use treemem::sync::TrackedMutex;

/// Retain at most this many recent samples per recorder (a ring buffer):
/// the summaries describe the recent window, and memory stays bounded no
/// matter how long the server runs.
const RECORDER_CAPACITY: usize = 65_536;

/// A bounded ring of latency samples.
pub struct LatencyRecorder {
    samples: TrackedMutex<RecorderRing>,
}

struct RecorderRing {
    ring: Vec<f64>,
    /// Total samples ever recorded; `ring[next % capacity]` is overwritten.
    recorded: usize,
}

impl LatencyRecorder {
    fn new() -> Self {
        LatencyRecorder {
            samples: TrackedMutex::new(
                RecorderRing {
                    ring: Vec::new(),
                    recorded: 0,
                },
                "server-stats.latency-ring",
            ),
        }
    }

    /// Record one sample, in seconds.
    pub fn record(&self, seconds: f64) {
        let mut inner = self.samples.lock();
        if inner.ring.len() < RECORDER_CAPACITY {
            inner.ring.push(seconds);
        } else {
            let slot = inner.recorded % RECORDER_CAPACITY;
            inner.ring[slot] = seconds;
        }
        inner.recorded += 1;
    }

    /// Percentile summary of the retained window.
    pub fn summary(&self) -> LatencySummary {
        let inner = self.samples.lock();
        latency_summary(&inner.ring)
    }
}

/// Names of the per-request-stage recorders, in report order.  `parse` is
/// body parsing + validation, `plan` the ordering/symbolic stages (cache
/// misses only), `solver`/`io`/`numeric` the schedule and execute stages,
/// `solve` the batched triangular solves (`/solve` and solve-enabled
/// reports).
pub const STAGE_NAMES: [&str; 6] = ["parse", "plan", "solver", "io", "numeric", "solve"];

/// Names of the latency-tracked endpoints, in report order.
pub const ENDPOINT_NAMES: [&str; 4] = ["plan", "schedule", "report", "solve"];

/// Stages a cooperative cancellation can be observed in (the `stage` field
/// of `EngineError::Cancelled`), plus a trailing catch-all slot.
pub const CANCEL_STAGE_NAMES: [&str; 9] = [
    "plan",
    "ordering",
    "symbolic",
    "solver",
    "io",
    "numeric",
    "distributed",
    "solve",
    "other",
];

/// All counters and recorders of one running server.
pub struct ServerStats {
    started: Instant,
    /// Requests currently being parsed or executed.
    pub in_flight: AtomicUsize,
    /// Connections accepted over the server's lifetime.
    pub accepted_total: AtomicU64,
    /// Responses by status class.
    pub responses_2xx: AtomicU64,
    /// 4xx responses (client errors, including every malformed document).
    pub responses_4xx: AtomicU64,
    /// 5xx responses (handler panics and I/O faults).
    pub responses_5xx: AtomicU64,
    endpoints: [LatencyRecorder; ENDPOINT_NAMES.len()],
    stages: [LatencyRecorder; STAGE_NAMES.len()],
    cancelled: [AtomicU64; CANCEL_STAGE_NAMES.len()],
}

impl ServerStats {
    pub(crate) fn new() -> Self {
        ServerStats {
            started: Instant::now(),
            in_flight: AtomicUsize::new(0),
            accepted_total: AtomicU64::new(0),
            responses_2xx: AtomicU64::new(0),
            responses_4xx: AtomicU64::new(0),
            responses_5xx: AtomicU64::new(0),
            endpoints: std::array::from_fn(|_| LatencyRecorder::new()),
            stages: std::array::from_fn(|_| LatencyRecorder::new()),
            cancelled: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Count one cancellation observed in `stage` (unknown stages land in
    /// the `"other"` slot so nothing is silently dropped).
    pub fn count_cancelled(&self, stage: &str) {
        let index = CANCEL_STAGE_NAMES
            .iter()
            .position(|name| *name == stage)
            .unwrap_or(CANCEL_STAGE_NAMES.len() - 1);
        self.cancelled[index].fetch_add(1, Ordering::Relaxed);
    }

    /// Cancellations counted across every stage.
    pub fn cancelled_total(&self) -> u64 {
        self.cancelled
            .iter()
            .map(|counter| counter.load(Ordering::Relaxed))
            .sum()
    }

    /// Count one response with `status`.
    pub fn count_response(&self, status: u16) {
        let counter = match status / 100 {
            2 => &self.responses_2xx,
            4 => &self.responses_4xx,
            _ => &self.responses_5xx,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// The whole-request latency recorder of `endpoint` (an
    /// [`ENDPOINT_NAMES`] entry), if it is tracked.
    pub fn endpoint(&self, endpoint: &str) -> Option<&LatencyRecorder> {
        ENDPOINT_NAMES
            .iter()
            .position(|name| *name == endpoint)
            .map(|index| &self.endpoints[index])
    }

    /// The per-stage latency recorder of `stage` (a [`STAGE_NAMES`] entry),
    /// if it is tracked.
    pub fn stage(&self, stage: &str) -> Option<&LatencyRecorder> {
        STAGE_NAMES
            .iter()
            .position(|name| *name == stage)
            .map(|index| &self.stages[index])
    }

    /// Render everything (plus the given cache counters, worker count, and
    /// distributed-cluster snapshot) as the `/stats` JSON document (schema
    /// `engine_server_stats/v1`).
    ///
    /// The versioned `caches` object carries each cache's full picture —
    /// policy, byte budget and usage, counters, and per-tenant usage.
    pub fn to_json(
        &self,
        cache: &engine::CacheStats,
        factors: &engine::CacheStats,
        workers: usize,
        cluster: &distrib::ClusterSnapshot,
    ) -> String {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let responses = Object(|responses| {
            responses
                .field("status_2xx", load(&self.responses_2xx))
                .field("status_4xx", load(&self.responses_4xx))
                .field("status_5xx", load(&self.responses_5xx));
        });
        let caches = Object(|caches| {
            caches
                .field("schema", "engine_server_caches/v1")
                .field("plan", cache)
                .field("factor", factors);
        });
        let cancelled = Object(|cancelled| {
            cancelled.field("total", self.cancelled_total());
            for (name, counter) in CANCEL_STAGE_NAMES.iter().zip(&self.cancelled) {
                cancelled.field(name, load(counter));
            }
        });
        let uptime = Fixed(self.started.elapsed().as_secs_f64(), 3);
        json::document(|doc| {
            doc.field("schema", "engine_server_stats/v1")
                .field("uptime_seconds", uptime)
                .field("workers", workers)
                .field("in_flight", self.in_flight.load(Ordering::Relaxed))
                .field("accepted_total", load(&self.accepted_total))
                .field("responses", responses)
                .field("caches", caches)
                .field("endpoints", latencies(&ENDPOINT_NAMES, &self.endpoints))
                .field("stages", latencies(&STAGE_NAMES, &self.stages))
                .field("cluster", cluster)
                .field("cancelled", cancelled);
        })
    }
}

/// Each recorder's percentile summary under its name, in seconds to nine
/// decimals.
fn latencies<'a>(names: &'a [&str], recorders: &'a [LatencyRecorder]) -> impl Value + 'a {
    let seconds = |value| Fixed(value, 9);
    Object(move |section| {
        for (name, recorder) in names.iter().zip(recorders) {
            let summary = recorder.summary();
            let fields = Object(|latency| {
                latency
                    .field("count", summary.count)
                    .field("mean_seconds", seconds(summary.mean_seconds))
                    .field("p50_seconds", seconds(summary.p50_seconds))
                    .field("p95_seconds", seconds(summary.p95_seconds))
                    .field("p99_seconds", seconds(summary.p99_seconds))
                    .field("max_seconds", seconds(summary.max_seconds));
            });
            section.field(name, fields);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::json::Json;

    #[test]
    fn recorder_summarises_and_stays_bounded() {
        let recorder = LatencyRecorder::new();
        for i in 1..=100 {
            recorder.record(i as f64);
        }
        let summary = recorder.summary();
        assert_eq!(summary.count, 100);
        assert_eq!(summary.p50_seconds, 50.0);
        assert_eq!(summary.p99_seconds, 99.0);
    }

    /// `/stats` parses to what the hand-formatted renderer wrote before the
    /// `json::Writer` (only its layout may change; the uptime is a clock).
    #[test]
    fn the_stats_document_keeps_its_fields() {
        let stats = ServerStats::new();
        stats.count_response(200);
        stats.count_response(503);
        stats.endpoint("report").unwrap().record(0.125);
        stats.endpoint("report").unwrap().record(0.5);
        stats.stage("numeric").unwrap().record(0.0625);
        stats.count_cancelled("ordering");
        stats.in_flight.store(2, Ordering::Relaxed);
        let tenant = |tenant: &str, bytes| engine::TenantUsage {
            tenant: tenant.to_string(),
            bytes,
            entries: 2,
            hits: 5,
            misses: 1,
            uncacheable: 0,
        };
        let plans = engine::CacheStats {
            hits: 3,
            misses: 1,
            capacity: 8,
            entries: 2,
            evictions: 4,
            bytes_used: 2048,
            bytes_capacity: 1 << 20,
            per_tenant: vec![tenant("public", 1024), tenant("acme.eu", 1024)],
            ..Default::default()
        };
        let factors = engine::CacheStats {
            policy: engine::CachePolicy::Gdsf,
            bytes_capacity: u64::MAX,
            ..Default::default()
        };
        let cluster = distrib::ClusterStats::new();
        cluster.note_worker("w-0");
        cluster.note_worker("w-\"1\"");
        let doc = stats.to_json(&plans, &factors, 4, &cluster.snapshot());
        let parent = "{\n  \"schema\": \"engine_server_stats/v1\",\n  \"uptime_seconds\": 0.000,\n  \"workers\": 4,\n  \"in_flight\": 2,\n  \"accepted_total\": 0,\n  \"responses\": {\"status_2xx\": 1, \"status_4xx\": 0, \"status_5xx\": 1},\n  \"caches\": {\"schema\": \"engine_server_caches/v1\", \"plan\": {\"policy\": \"LRU\", \"bytes_capacity\": 1048576, \"bytes_used\": 2048, \"max_entries\": 8, \"entries\": 2, \"hits\": 3, \"misses\": 1, \"hit_rate\": 0.750000, \"evictions\": 4, \"expirations\": 0, \"uncacheable\": 0, \"tenants\": {\"public\": {\"bytes\": 1024, \"entries\": 2, \"hits\": 5, \"misses\": 1, \"uncacheable\": 0}, \"acme.eu\": {\"bytes\": 1024, \"entries\": 2, \"hits\": 5, \"misses\": 1, \"uncacheable\": 0}}}, \"factor\": {\"policy\": \"GDSF\", \"bytes_capacity\": null, \"bytes_used\": 0, \"max_entries\": null, \"entries\": 0, \"hits\": 0, \"misses\": 0, \"hit_rate\": 0.000000, \"evictions\": 0, \"expirations\": 0, \"uncacheable\": 0, \"tenants\": {}}},\n  \"endpoints\": {\"plan\": {\"count\": 0, \"mean_seconds\": 0.000000000, \"p50_seconds\": 0.000000000, \"p95_seconds\": 0.000000000, \"p99_seconds\": 0.000000000, \"max_seconds\": 0.000000000}, \"schedule\": {\"count\": 0, \"mean_seconds\": 0.000000000, \"p50_seconds\": 0.000000000, \"p95_seconds\": 0.000000000, \"p99_seconds\": 0.000000000, \"max_seconds\": 0.000000000}, \"report\": {\"count\": 2, \"mean_seconds\": 0.312500000, \"p50_seconds\": 0.125000000, \"p95_seconds\": 0.500000000, \"p99_seconds\": 0.500000000, \"max_seconds\": 0.500000000}, \"solve\": {\"count\": 0, \"mean_seconds\": 0.000000000, \"p50_seconds\": 0.000000000, \"p95_seconds\": 0.000000000, \"p99_seconds\": 0.000000000, \"max_seconds\": 0.000000000}},\n  \"stages\": {\"parse\": {\"count\": 0, \"mean_seconds\": 0.000000000, \"p50_seconds\": 0.000000000, \"p95_seconds\": 0.000000000, \"p99_seconds\": 0.000000000, \"max_seconds\": 0.000000000}, \"plan\": {\"count\": 0, \"mean_seconds\": 0.000000000, \"p50_seconds\": 0.000000000, \"p95_seconds\": 0.000000000, \"p99_seconds\": 0.000000000, \"max_seconds\": 0.000000000}, \"solver\": {\"count\": 0, \"mean_seconds\": 0.000000000, \"p50_seconds\": 0.000000000, \"p95_seconds\": 0.000000000, \"p99_seconds\": 0.000000000, \"max_seconds\": 0.000000000}, \"io\": {\"count\": 0, \"mean_seconds\": 0.000000000, \"p50_seconds\": 0.000000000, \"p95_seconds\": 0.000000000, \"p99_seconds\": 0.000000000, \"max_seconds\": 0.000000000}, \"numeric\": {\"count\": 1, \"mean_seconds\": 0.062500000, \"p50_seconds\": 0.062500000, \"p95_seconds\": 0.062500000, \"p99_seconds\": 0.062500000, \"max_seconds\": 0.062500000}, \"solve\": {\"count\": 0, \"mean_seconds\": 0.000000000, \"p50_seconds\": 0.000000000, \"p95_seconds\": 0.000000000, \"p99_seconds\": 0.000000000, \"max_seconds\": 0.000000000}},\n  \"cluster\": {\"workers\": [\"w-0\", \"w-\\\"1\\\"\"], \"jobs_started\": 0, \"jobs_completed\": 0, \"tasks_claimed\": 0, \"tasks_completed\": 0, \"tasks_requeued\": 0, \"lease_expiries\": 0, \"stale_contributions\": 0, \"contribution_bytes\": 0},\n  \"cancelled\": {\"total\": 1, \"plan\": 0, \"ordering\": 1, \"symbolic\": 0, \"solver\": 0, \"io\": 0, \"numeric\": 0, \"distributed\": 0, \"solve\": 0, \"other\": 0}\n}\n";
        let without_uptime = |doc: &str| match Json::parse(doc).unwrap() {
            Json::Obj(fields) => fields
                .into_iter()
                .filter(|(key, _)| key != "uptime_seconds")
                .collect::<Vec<_>>(),
            other => panic!("not an object: {other:?}"),
        };
        assert_eq!(without_uptime(&doc), without_uptime(parent));
    }

    #[test]
    fn stats_json_parses_and_carries_the_counters() {
        let stats = ServerStats::new();
        stats.count_response(200);
        stats.count_response(400);
        stats.count_response(500);
        stats.endpoint("plan").unwrap().record(0.25);
        stats.stage("parse").unwrap().record(0.001);
        assert!(stats.endpoint("nope").is_none());
        let cache = engine::CacheStats {
            hits: 3,
            misses: 1,
            capacity: 8,
            ..Default::default()
        };
        let factors = engine::CacheStats {
            hits: 2,
            capacity: 8,
            policy: engine::CachePolicy::S3Fifo,
            bytes_used: 1024,
            bytes_capacity: u64::MAX,
            per_tenant: vec![engine::TenantUsage {
                tenant: "public".to_string(),
                bytes: 1024,
                entries: 1,
                hits: 2,
                misses: 0,
                uncacheable: 0,
            }],
            ..Default::default()
        };
        let cluster = distrib::ClusterStats::new();
        cluster.note_worker("w-0");
        let doc = stats.to_json(&cache, &factors, 4, &cluster.snapshot());
        let json = Json::parse(&doc).unwrap();
        assert_eq!(
            json.get("schema").and_then(Json::as_str),
            Some("engine_server_stats/v1")
        );
        assert_eq!(
            json.get("responses")
                .and_then(|r| r.get("status_4xx"))
                .and_then(Json::as_u64),
            Some(1)
        );
        // The versioned caches object carries the byte-level picture.
        let caches = json.get("caches").expect("caches object present");
        for (section, hits) in [("plan", 3), ("factor", 2)] {
            assert_eq!(
                caches
                    .get(section)
                    .and_then(|c| c.get("hits"))
                    .and_then(Json::as_u64),
                Some(hits)
            );
        }
        assert_eq!(
            caches.get("schema").and_then(Json::as_str),
            Some("engine_server_caches/v1")
        );
        let factor_cache = caches.get("factor").expect("factor cache section");
        assert_eq!(
            factor_cache.get("policy").and_then(Json::as_str),
            Some("S3FIFO")
        );
        assert_eq!(
            factor_cache.get("bytes_used").and_then(Json::as_u64),
            Some(1024)
        );
        // The u64::MAX sentinel renders as null (byte-unbounded).
        assert!(matches!(
            factor_cache.get("bytes_capacity"),
            Some(Json::Null)
        ));
        assert_eq!(
            factor_cache
                .get("tenants")
                .and_then(|t| t.get("public"))
                .and_then(|p| p.get("bytes"))
                .and_then(Json::as_u64),
            Some(1024)
        );
        assert!(json
            .get("stages")
            .and_then(|s| s.get("solve"))
            .and_then(|s| s.get("count"))
            .is_some());
        assert_eq!(
            json.get("endpoints")
                .and_then(|e| e.get("plan"))
                .and_then(|p| p.get("count"))
                .and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            json.get("cluster")
                .and_then(|c| c.get("workers"))
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(1)
        );
    }
}
