//! End-to-end tests over a real socket: boot the server on an ephemeral
//! port, drive it with a tiny raw-TCP HTTP client, and assert on status
//! codes, cache behaviour, report identity, and clean shutdown.

use std::net::SocketAddr;
use std::time::Duration;

use engine::json::Json;
use engine::prelude::*;
use server::client;
use server::{Server, ServerConfig};
use sparsemat::gen::ProblemKind;

/// One raw HTTP exchange: returns (status, headers, body).
fn exchange(addr: SocketAddr, request: &str) -> (u16, Vec<(String, String)>, String) {
    let response = client::exchange(addr, request.as_bytes()).expect("exchange");
    (response.status, response.headers, response.body)
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, Vec<(String, String)>, String) {
    let response = client::post(addr, path, body).expect("post");
    (response.status, response.headers, response.body)
}

fn get(addr: SocketAddr, path: &str) -> (u16, Vec<(String, String)>, String) {
    let response = client::get(addr, path).expect("get");
    (response.status, response.headers, response.body)
}

fn header<'h>(headers: &'h [(String, String)], name: &str) -> Option<&'h str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

fn grid_config(nodes: usize, seed: u64) -> String {
    EngineConfig::generated(ProblemKind::Grid2d, nodes, seed)
        .with_memory(MemoryBudget::FractionOfPeak(0.5))
        .to_json()
}

/// Fetch `/stats` and return one section (`plan` or `factor`) of its
/// versioned `caches` object.
fn cache_stats(addr: SocketAddr, section: &str) -> Json {
    let (_, _, body) = get(addr, "/stats");
    let stats = Json::parse(&body).expect("stats is JSON");
    let caches = stats.get("caches").expect("caches section");
    assert_eq!(
        caches.get("schema").and_then(Json::as_str),
        Some("engine_server_caches/v1")
    );
    caches.get(section).expect("cache section").clone()
}

fn spawn_default() -> server::ServerHandle {
    Server::spawn(ServerConfig::default()).expect("server boots")
}

#[test]
fn healthz_and_stats_over_tcp() {
    let handle = spawn_default();
    let (status, _, body) = get(handle.addr(), "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("ok"));
    let (status, _, body) = get(handle.addr(), "/stats");
    assert_eq!(status, 200);
    let stats = Json::parse(&body).expect("stats is JSON");
    assert_eq!(
        stats.get("schema").and_then(Json::as_str),
        Some("engine_server_stats/v1")
    );
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn cached_reports_match_cold_reports_exactly() {
    let handle = spawn_default();
    let config = grid_config(150, 3);

    let (status, cold_headers, cold_body) = post(handle.addr(), "/report", &config);
    assert_eq!(status, 200, "{cold_body}");
    assert_eq!(header(&cold_headers, "x-cache"), Some("miss"));

    let (status, hot_headers, hot_body) = post(handle.addr(), "/report", &config);
    assert_eq!(status, 200, "{hot_body}");
    assert_eq!(header(&hot_headers, "x-cache"), Some("hit"));

    // Same effective-config hash on the wire...
    assert_eq!(
        header(&cold_headers, "x-config-hash"),
        header(&hot_headers, "x-config-hash")
    );
    // ...and identical documents except for the wall-clock timings.
    assert!(client::report_identity(&cold_body).is_some());
    assert_eq!(
        client::report_identity(&cold_body),
        client::report_identity(&hot_body)
    );
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn plan_schedule_report_share_the_cache() {
    let handle = spawn_default();
    let config = grid_config(120, 9);
    let (status, headers, _) = post(handle.addr(), "/plan", &config);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-cache"), Some("miss"));
    for path in ["/schedule", "/report"] {
        let (status, headers, body) = post(handle.addr(), path, &config);
        assert_eq!(status, 200, "{body}");
        assert_eq!(header(&headers, "x-cache"), Some("hit"), "{path}");
    }
    let cache = cache_stats(handle.addr(), "plan");
    assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(2));
    assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(1));
    // The byte-level picture rides along: policy, footprint, tenant usage.
    assert_eq!(cache.get("policy").and_then(Json::as_str), Some("LRU"));
    assert!(cache.get("bytes_used").and_then(Json::as_u64).unwrap() > 0);
    let public = cache
        .get("tenants")
        .and_then(|t| t.get("public"))
        .expect("default tenant usage");
    assert_eq!(public.get("hits").and_then(Json::as_u64), Some(2));
    handle.shutdown().expect("clean shutdown");
}

/// Every problem kind, and a prebuilt tree, through `/plan` → `/schedule`
/// → `/report` on one server: the plan call misses, the other two hit the
/// entry it left, and the hit report is the report a fresh server computes
/// cold.
#[test]
fn every_problem_kind_shares_one_plan_across_the_endpoints() {
    let handle = spawn_default();
    let fresh = spawn_default();
    let prebuilt = EngineConfig::prebuilt(treemem::gadgets::harpoon(4, 400, 1))
        .with_memory(MemoryBudget::FractionOfPeak(0.0));
    let configs = ProblemKind::ALL.iter().map(|kind| {
        EngineConfig::generated(*kind, 600, 7)
            .with_ordering(OrderingMethod::NestedDissection)
            .with_memory(MemoryBudget::FractionOfPeak(0.3))
    });
    for config in configs.chain([prebuilt]) {
        let config = config.to_json();
        let mut report = String::new();
        for (path, expected) in [("/plan", "miss"), ("/schedule", "hit"), ("/report", "hit")] {
            let (status, headers, body) = post(handle.addr(), path, &config);
            assert_eq!(status, 200, "{path} {config}: {body}");
            assert_eq!(
                header(&headers, "x-cache"),
                Some(expected),
                "{path} {config}"
            );
            report = body;
        }
        let (status, headers, cold) = post(fresh.addr(), "/report", &config);
        assert_eq!(status, 200, "{cold}");
        assert_eq!(header(&headers, "x-cache"), Some("miss"));
        assert!(client::report_fingerprint(&cold).is_some());
        assert_eq!(
            client::report_fingerprint(&report),
            client::report_fingerprint(&cold),
            "{config}"
        );
    }
    handle.shutdown().expect("clean shutdown");
    fresh.shutdown().expect("clean shutdown");
}

/// A hot numeric report is rendered from the factor its cold run deposited
/// (no numeric stage runs: `numeric_seconds` is 0), and is still the report
/// a fresh server computes cold — for every problem kind, and with a
/// server-side solve stage, which runs against the cached factor.
#[test]
fn hot_numeric_reports_are_the_cold_reports_of_a_fresh_server() {
    let handle = spawn_default();
    let fresh = spawn_default();
    let numeric = |kind: ProblemKind| {
        EngineConfig::generated(kind, 400, 7)
            .with_ordering(OrderingMethod::NestedDissection)
            .with_memory(MemoryBudget::FractionOfPeak(0.3))
            .with_numeric(true)
    };
    let solved = numeric(ProblemKind::Grid3d).with_solve(SolveConfig::generated(3, 9));
    let configs: Vec<EngineConfig> = ProblemKind::ALL.into_iter().map(numeric).collect();
    for config in configs.into_iter().chain([solved]) {
        let config = config.to_json();
        let (status, headers, cold) = post(handle.addr(), "/report", &config);
        assert_eq!(status, 200, "{cold}");
        assert_eq!(header(&headers, "x-cache"), Some("miss"));
        let (status, headers, hot) = post(handle.addr(), "/report", &config);
        assert_eq!(status, 200, "{hot}");
        assert_eq!(header(&headers, "x-cache"), Some("hit"));
        let timings = Json::parse(&hot).unwrap().get("timings").unwrap().clone();
        assert_eq!(
            timings.get("numeric_seconds").and_then(Json::as_f64),
            Some(0.0),
            "{config}"
        );
        let (status, _, reference) = post(fresh.addr(), "/report", &config);
        assert_eq!(status, 200, "{reference}");
        assert!(client::report_fingerprint(&reference).is_some());
        assert_eq!(
            client::report_fingerprint(&hot),
            client::report_fingerprint(&reference),
            "{config}"
        );
    }
    let factors = cache_stats(handle.addr(), "factor");
    assert_eq!(factors.get("hits").and_then(Json::as_u64), Some(8));
    handle.shutdown().expect("clean shutdown");
    fresh.shutdown().expect("clean shutdown");
}

/// A 0 × 0 MatrixMarket input is a client error at plan time, not a
/// contained panic.
#[test]
fn an_empty_matrix_is_a_400() {
    let path = std::env::temp_dir().join(format!("server-empty-{}.mtx", std::process::id()));
    std::fs::write(
        &path,
        "%%MatrixMarket matrix coordinate real symmetric\n0 0 0\n",
    )
    .unwrap();
    let handle = spawn_default();
    let config = EngineConfig::matrix_market(path.to_string_lossy())
        .with_numeric(true)
        .to_json();
    for endpoint in ["/plan", "/report"] {
        let (status, _, body) = post(handle.addr(), endpoint, &config);
        assert_eq!(status, 400, "{endpoint}: {body}");
        assert!(body.contains("dimension 0"), "{body}");
    }
    std::fs::remove_file(&path).unwrap();
    let (_, _, stats) = get(handle.addr(), "/stats");
    let responses = Json::parse(&stats)
        .unwrap()
        .get("responses")
        .unwrap()
        .clone();
    assert_eq!(responses.get("status_5xx").and_then(Json::as_u64), Some(0));
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn malformed_requests_get_4xx_not_crashes() {
    let handle = spawn_default();
    let addr = handle.addr();

    // The three fixed parser bugs, as network payloads.
    let depth_bomb = "[".repeat(100_000);
    let (status, _, body) = post(addr, "/report", &depth_bomb);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("nesting"), "{body}");

    let truncated_escape = "{\"solver\": \"\\u12\"}";
    let (status, _, body) = post(addr, "/plan", truncated_escape);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("escape"), "{body}");

    // The surrogate-pair fix, observed end to end: an escaped pair decodes
    // to the real U+1F600, so the unknown-solver error echoes the emoji
    // (the pre-fix parser would have produced two U+FFFD instead).
    let emoji_solver =
        grid_config(100, 5).replace("\"solver\": \"minmem\"", "\"solver\": \"\\ud83d\\ude00\"");
    let (status, _, body) = post(addr, "/plan", &emoji_solver);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("😀"), "{body}");

    let raw_control = "{\"solver\": \"a\nb\"}";
    let (status, _, body) = post(addr, "/plan", raw_control);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("control"), "{body}");

    // Framing-level garbage.
    let (status, _, _) = exchange(addr, "BOGUS\r\n\r\n");
    assert_eq!(status, 400);
    let (status, _, _) = get(addr, "/no-such-route");
    assert_eq!(status, 404);

    // The server is still alive and serving after all of that.
    let (status, _, _) = get(addr, "/healthz");
    assert_eq!(status, 200);
    let (_, _, stats_body) = get(addr, "/stats");
    let stats = Json::parse(&stats_body).unwrap();
    let responses = stats.get("responses").unwrap();
    assert!(responses.get("status_4xx").and_then(Json::as_u64).unwrap() >= 5);
    assert_eq!(responses.get("status_5xx").and_then(Json::as_u64), Some(0));
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn oversized_bodies_are_rejected_with_413() {
    let handle = Server::spawn(ServerConfig {
        max_body_bytes: 1024,
        ..ServerConfig::default()
    })
    .unwrap();
    let big = " ".repeat(4096);
    let (status, _, _) = post(handle.addr(), "/plan", &big);
    assert_eq!(status, 413);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn capacity_evictions_show_up_in_stats() {
    let handle = Server::spawn(ServerConfig {
        cache_capacity: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    for seed in 0..4 {
        let (status, _, body) = post(handle.addr(), "/plan", &grid_config(100, seed));
        assert_eq!(status, 200, "{body}");
    }
    let cache = cache_stats(handle.addr(), "plan");
    assert_eq!(cache.get("entries").and_then(Json::as_u64), Some(2));
    assert_eq!(cache.get("evictions").and_then(Json::as_u64), Some(2));
    handle.shutdown().expect("clean shutdown");
}

/// The default caches are bounded in entries *under a byte ceiling*: 40
/// distinct cold numeric reports of ~3.6 MiB of plan each fit the 64-entry
/// bound but not the ceiling, so the oldest leave and `bytes_used` — which
/// counts the numeric substrate each plan grew after it was inserted —
/// never passes the capacity `/stats` reports.
#[test]
fn default_caches_stay_under_their_byte_ceiling_evicting_oldest_first() {
    let handle = spawn_default();
    let addr = handle.addr();
    let config = |seed: u64| {
        EngineConfig::generated(ProblemKind::Banded, 6_000, seed)
            .with_ordering(OrderingMethod::Natural)
            .with_numeric(true)
            .to_json()
    };
    for seed in 0..40 {
        let (status, headers, body) = post(addr, "/report", &config(seed));
        assert_eq!(status, 200, "{body}");
        assert_eq!(header(&headers, "x-cache"), Some("miss"));
        let stats = handle.service().cache_stats();
        assert!(
            stats.bytes_used <= stats.bytes_capacity,
            "after {} reports: {} bytes used of {}",
            seed + 1,
            stats.bytes_used,
            stats.bytes_capacity
        );
    }
    let stats = handle.service().cache_stats();
    assert!(stats.bytes_capacity < 1 << 30, "the default has a ceiling");
    assert!(stats.evictions > 0 && stats.entries < 40, "{stats:?}");
    assert_eq!(stats.evictions as usize + stats.entries, 40);
    // Oldest first: exactly the newest `entries` configurations still hit.
    // (Newest probed first: a miss re-plans and would evict one of them.)
    let resident = 40 - stats.entries as u64;
    for seed in (0..40).rev() {
        let (_, headers, _) = post(addr, "/plan", &config(seed));
        let expected = if seed >= resident { "hit" } else { "miss" };
        assert_eq!(header(&headers, "x-cache"), Some(expected), "seed {seed}");
    }
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn ttl_expiry_forces_a_replan() {
    let handle = Server::spawn(ServerConfig {
        cache_ttl: Some(Duration::from_millis(30)),
        ..ServerConfig::default()
    })
    .unwrap();
    let config = grid_config(100, 77);
    let (_, headers, _) = post(handle.addr(), "/plan", &config);
    assert_eq!(header(&headers, "x-cache"), Some("miss"));
    std::thread::sleep(Duration::from_millis(80));
    let (_, headers, _) = post(handle.addr(), "/plan", &config);
    assert_eq!(header(&headers, "x-cache"), Some("miss"));
    assert_eq!(
        cache_stats(handle.addr(), "plan")
            .get("expirations")
            .and_then(Json::as_u64),
        Some(1)
    );
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn concurrent_clients_all_get_answers() {
    let handle = Server::spawn(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.addr();
    std::thread::scope(|scope| {
        let tasks: Vec<_> = (0..16)
            .map(|i| {
                scope.spawn(move || {
                    let config = grid_config(100, (i % 4) as u64);
                    let (status, _, body) = post(addr, "/report", &config);
                    assert_eq!(status, 200, "{body}");
                })
            })
            .collect();
        for task in tasks {
            task.join().expect("client thread");
        }
    });
    let (_, _, stats_body) = get(addr, "/stats");
    let stats = Json::parse(&stats_body).unwrap();
    // 4 distinct configurations, 16 requests: at least 12 cache hits.
    let hits = stats
        .get("caches")
        .and_then(|c| c.get("plan"))
        .and_then(|c| c.get("hits"))
        .and_then(Json::as_u64)
        .unwrap();
    assert!(hits >= 12, "only {hits} cache hits");
    // Every client finished, so the only in-flight request is the /stats
    // request reporting itself.
    assert_eq!(stats.get("in_flight").and_then(Json::as_u64), Some(1));
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn deadlines_expire_to_504_with_retry_after_and_recovery() {
    let handle = spawn_default();
    let addr = handle.addr();
    let config = grid_config(10_000, 21);
    let expired = client::post_with_headers(addr, "/report", &[("X-Deadline-Ms", "1")], &config)
        .expect("exchange");
    assert_eq!(expired.status, 504, "{}", expired.body);
    assert_eq!(expired.header("retry-after"), Some("1"));
    // The cancelled plan left no wedged cache key: the retrying client gets
    // a full answer for the same configuration.
    let retry = client::post_with_retry(addr, "/report", &config, 3, Duration::from_millis(50))
        .expect("retry");
    assert_eq!(retry.status, 200, "{}", retry.body);
    // The cancellation is visible in /stats.
    let (_, _, stats_body) = get(addr, "/stats");
    let stats = Json::parse(&stats_body).unwrap();
    assert!(stats
        .get("cancelled")
        .and_then(|c| c.get("total"))
        .and_then(Json::as_u64)
        .is_some_and(|total| total >= 1));
    handle.shutdown().expect("clean shutdown");
}

/// Regression: a distributed `/report` with no worker attached used to park
/// its HTTP worker thread forever (no deadline configured, so nothing ever
/// ended the wait); `workers` such requests wedged the whole server.  The
/// wait is now bounded by the job's own lease — two silent lease periods
/// mean nobody is working on it — and answers a 503 the client can retry.
#[test]
fn distributed_reports_without_workers_are_shed_not_parked() {
    let handle = spawn_default(); // no --default/--max deadline
    let addr = handle.addr();
    let config = EngineConfig::generated(ProblemKind::Grid2d, 400, 3)
        .with_numeric(true)
        .with_distributed(DistributedConfig::with_tasks(2).with_lease_ms(50))
        .to_json();
    let started = std::time::Instant::now();
    // The read timeout is the regression bound.  On failure the handle is
    // leaked: joining a server whose worker is parked forever would turn
    // the failure into a hang.
    let shed = match client::post_with_timeout(addr, "/report", &config, Duration::from_secs(20)) {
        Ok(response) => response,
        Err(error) => {
            std::mem::forget(handle);
            panic!("a stalled job must be answered, not parked: {error}");
        }
    };
    assert_eq!(shed.status, 503, "{}", shed.body);
    assert_eq!(shed.header("retry-after"), Some("1"));
    assert!(
        started.elapsed() >= Duration::from_millis(100),
        "two lease periods"
    );
    // The job left the registry and the worker thread is free again.
    assert_eq!(get(addr, "/internal/job/1").0, 404);
    let (_, _, stats_body) = get(addr, "/stats");
    let stats = Json::parse(&stats_body).unwrap();
    assert_eq!(stats.get("in_flight").and_then(Json::as_u64), Some(1));
    let cluster = stats.get("cluster").expect("cluster section");
    assert_eq!(cluster.get("jobs_started").and_then(Json::as_u64), Some(1));
    assert_eq!(cluster.get("tasks_claimed").and_then(Json::as_u64), Some(0));
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn prebuilt_tree_configs_run_end_to_end() {
    let handle = spawn_default();
    let config = EngineConfig::prebuilt(treemem::gadgets::harpoon(4, 400, 1))
        .with_memory(MemoryBudget::FractionOfPeak(0.0))
        .to_json();
    let (status, _, body) = post(handle.addr(), "/report", &config);
    assert_eq!(status, 200, "{body}");
    let report = Json::parse(&body).unwrap();
    assert_eq!(
        report.get("schema").and_then(Json::as_str),
        Some("engine_report/v1")
    );
    assert!(report.get("io_volume").and_then(Json::as_u64).unwrap() > 0);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn solve_round_trips_over_tcp() {
    let handle = spawn_default();
    let config = EngineConfig::generated(ProblemKind::Grid2d, 120, 11)
        .with_numeric(true)
        .to_json();
    let (status, headers, body) = post(handle.addr(), "/report", &config);
    assert_eq!(status, 200, "{body}");
    let hash = header(&headers, "x-config-hash")
        .expect("hash header")
        .to_string();

    // Hot solve against the cached factor.
    let solve_body = format!("{{\"config_hash\": \"{hash}\", \"count\": 2, \"seed\": 3}}");
    let (status, headers, body) = post(handle.addr(), "/solve", &solve_body);
    assert_eq!(status, 200, "{body}");
    assert_eq!(header(&headers, "x-cache"), Some("hit"));
    let json = Json::parse(&body).expect("solve response is JSON");
    assert_eq!(json.get("rhs_count").and_then(Json::as_usize), Some(2));
    assert!(json.get("max_residual").and_then(Json::as_f64).unwrap() < 1e-8);

    // Unknown hash: 404 with a miss disposition.
    let (status, headers, _) = post(handle.addr(), "/solve", "{\"config_hash\": \"nope\"}");
    assert_eq!(status, 404);
    assert_eq!(header(&headers, "x-cache"), Some("miss"));

    // The factor cache shows up in /stats.
    let factor_cache = cache_stats(handle.addr(), "factor");
    assert_eq!(factor_cache.get("hits").and_then(Json::as_u64), Some(1));
    handle.shutdown().expect("clean shutdown");
}

/// Tenant isolation over real HTTP: with byte budgets, quotas, and the
/// fair-share floor armed, one tenant's flood of unique configurations
/// cannot starve another tenant's hot set, and nobody exceeds the quota.
#[test]
fn tenant_quotas_and_floor_hold_over_http() {
    // Budgets derived from a measured plan footprint so the numbers track
    // real plan sizes instead of hardcoding them.
    let plan_bytes = Engine::new()
        .plan(&EngineConfig::generated(ProblemKind::Grid2d, 100, 1))
        .expect("probe plan")
        .approx_heap_bytes()
        .max(1024);
    let quota = plan_bytes * 6;
    let handle = Server::spawn(ServerConfig {
        cache: server::CacheSettings {
            policy: Some(engine::CachePolicy::Gdsf),
            plan_bytes: Some(plan_bytes * 16),
            factor_bytes: None,
            tenant_quota_bytes: Some(quota),
            tenant_floor: 0.3,
        },
        ..ServerConfig::default()
    })
    .expect("server boots");
    let addr = handle.addr();

    let hot: Vec<String> = (0..3)
        .map(|seed| EngineConfig::generated(ProblemKind::Grid2d, 100, 500 + seed).to_json())
        .collect();
    for round in 0..8u64 {
        for config in &hot {
            let response =
                client::post_with_headers(addr, "/plan", &[("X-Tenant", "zeta")], config)
                    .expect("zeta /plan");
            assert_eq!(response.status, 200, "{}", response.body);
        }
        for burst in 0..2u64 {
            let config =
                EngineConfig::generated(ProblemKind::Grid2d, 100, 9_000 + round * 10 + burst)
                    .to_json();
            let response =
                client::post_with_headers(addr, "/plan", &[("X-Tenant", "acme")], &config)
                    .expect("acme /plan");
            assert_eq!(response.status, 200, "{}", response.body);
        }
    }
    // Malformed tenant names are rejected before any planning happens.
    let response = client::post_with_headers(addr, "/plan", &[("X-Tenant", "bad tenant")], &hot[0])
        .expect("transport");
    assert_eq!(response.status, 400);

    let (_, _, body) = get(addr, "/stats");
    let stats = Json::parse(&body).expect("stats is JSON");
    let tenants = stats
        .get("caches")
        .and_then(|c| c.get("plan"))
        .and_then(|p| p.get("tenants"))
        .expect("per-tenant usage");
    for tenant in ["acme", "zeta"] {
        let usage = tenants.get(tenant).expect("tenant tracked");
        let bytes = usage.get("bytes").and_then(Json::as_u64).unwrap();
        assert!(
            bytes <= quota,
            "tenant {tenant} holds {bytes} bytes over the {quota}-byte quota"
        );
    }
    let zeta_hits = tenants
        .get("zeta")
        .and_then(|t| t.get("hits"))
        .and_then(Json::as_u64)
        .unwrap();
    assert!(
        zeta_hits > 0,
        "zeta's hot set never hit despite acme's flood"
    );
    handle.shutdown().expect("clean shutdown");
}
