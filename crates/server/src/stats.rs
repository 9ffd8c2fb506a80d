//! Serving-side observability: request counters and bounded latency
//! recorders, summarised for the `/stats` endpoint.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

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

    /// Cancellations counted in `stage` so far.
    pub fn cancelled_in(&self, stage: &str) -> u64 {
        CANCEL_STAGE_NAMES
            .iter()
            .position(|name| *name == stage)
            .map_or(0, |index| self.cancelled[index].load(Ordering::Relaxed))
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
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"engine_server_stats/v1\",\n");
        out.push_str(&format!(
            "  \"uptime_seconds\": {:.3},\n",
            self.started.elapsed().as_secs_f64()
        ));
        out.push_str(&format!("  \"workers\": {workers},\n"));
        out.push_str(&format!(
            "  \"in_flight\": {},\n",
            self.in_flight.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "  \"accepted_total\": {},\n",
            self.accepted_total.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "  \"responses\": {{\"status_2xx\": {}, \"status_4xx\": {}, \"status_5xx\": {}}},\n",
            self.responses_2xx.load(Ordering::Relaxed),
            self.responses_4xx.load(Ordering::Relaxed),
            self.responses_5xx.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "  \"caches\": {{\"schema\": \"engine_server_caches/v1\", \"plan\": {}, \
             \"factor\": {}}},\n",
            cache_json(cache),
            cache_json(factors)
        ));
        out.push_str("  \"endpoints\": {");
        for (index, name) in ENDPOINT_NAMES.iter().enumerate() {
            if index > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{name}\": {}",
                self.endpoints[index].summary().to_json()
            ));
        }
        out.push_str("},\n  \"stages\": {");
        for (index, name) in STAGE_NAMES.iter().enumerate() {
            if index > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{name}\": {}",
                self.stages[index].summary().to_json()
            ));
        }
        out.push_str("},\n  \"cluster\": ");
        out.push_str(&cluster.to_json_fragment());
        out.push_str(",\n  \"cancelled\": {");
        out.push_str(&format!("\"total\": {}", self.cancelled_total()));
        for (index, name) in CANCEL_STAGE_NAMES.iter().enumerate() {
            out.push_str(&format!(
                ", \"{name}\": {}",
                self.cancelled[index].load(Ordering::Relaxed)
            ));
        }
        out.push_str("}\n}\n");
        out
    }
}

/// One cache's entry in the versioned `caches` object: full byte-level
/// counters plus per-tenant usage.  Byte-unbounded capacities (the
/// `u64::MAX` sentinel) render as `null`.
fn cache_json(stats: &engine::CacheStats) -> String {
    let bytes_capacity = if stats.bytes_capacity == u64::MAX {
        "null".to_string()
    } else {
        stats.bytes_capacity.to_string()
    };
    let max_entries = if stats.capacity == 0 {
        "null".to_string()
    } else {
        stats.capacity.to_string()
    };
    let mut out = format!(
        "{{\"policy\": \"{}\", \"bytes_capacity\": {bytes_capacity}, \"bytes_used\": {}, \
         \"max_entries\": {max_entries}, \"entries\": {}, \"hits\": {}, \"misses\": {}, \
         \"hit_rate\": {:.6}, \"evictions\": {}, \"expirations\": {}, \"uncacheable\": {}, \
         \"tenants\": {{",
        stats.policy,
        stats.bytes_used,
        stats.entries,
        stats.hits,
        stats.misses,
        stats.hit_rate(),
        stats.evictions,
        stats.expirations,
        stats.uncacheable,
    );
    for (index, tenant) in stats.per_tenant.iter().enumerate() {
        if index > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "\"{}\": {{\"bytes\": {}, \"entries\": {}, \"hits\": {}, \"misses\": {}, \
             \"uncacheable\": {}}}",
            engine::json::escape(&tenant.tenant),
            tenant.bytes,
            tenant.entries,
            tenant.hits,
            tenant.misses,
            tenant.uncacheable,
        ));
    }
    out.push_str("}}");
    out
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
