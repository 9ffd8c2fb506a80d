//! `loadgen` — replay seeded configuration mixes against a spawned server
//! and emit `BENCH_server.json`.
//!
//! The binary boots `server::Server` in-process on an ephemeral port, then
//! drives it over real loopback TCP through `server::client`:
//!
//! * `cache_speedup` — the headline measurement: cold `/report` requests
//!   (distinct seeds, every one a plan-cache miss) versus hot repeats of one
//!   configuration on the 10⁵-node nested-dissection corpus, asserting the
//!   cached p50 is ≥5× lower and that a cache-hit report is identical to the
//!   cold-path report up to wall-clock timings;
//! * `hot_set_skew` — a small hot set with skewed popularity;
//! * `parallel_hot` — the same hot set hammered from several client threads;
//! * `mixed_kinds` — every problem kind across `/plan`, `/schedule` and
//!   `/report`;
//! * `cold_scan` — unique seeds overflowing the plan cache (evictions);
//! * `solve_throughput` — one cold numeric `/report` computes and caches a
//!   factor, then `POST /solve` is hammered against it: every solve must be
//!   a factor-cache hit with a green residual, and the hot solve p50 must
//!   sit far below the cold factorization;
//! * `malformed` — one request per fixed parser bug (depth bomb, broken
//!   surrogate escape, raw control character) plus framing garbage,
//!   asserting every one is answered with a 4xx and the server keeps
//!   serving.
//!
//! `loadgen distributed` is the multi-*process* scenario: it spawns the
//! `serve` binary as a coordinator plus two `--role worker` processes on
//! loopback, factors the nested-dissection corpus (10⁶ nodes full, 10⁵
//! quick) through `POST /report` with a `distributed` section, and gates
//! the merged factor's bit-identity against a single-process reference
//! server (identical `factor_nnz` and bit-identical seeded-solve
//! `max_residual`) and the wire's structural ceiling of 20 contribution bytes
//! per factor nonzero.  A chaos pass then SIGKILLs a lease-holding worker
//! mid-job and requires the job to complete via lease re-issue with zero
//! orphaned leases and zero non-injected 5xx.  The result is
//! `BENCH_distributed.json`.
//!
//! Flags: `--quick` shrinks the corpus for the CI smoke job (and relaxes the
//! ≥5× assertion, which needs the big corpus to be meaningful); `--out PATH`
//! overrides the output path (default: the mode's `BENCH_*.json` under
//! `results/`, or under `TREEMEM_RESULTS_DIR` if set).  Any violated
//! invariant makes the process exit non-zero, so CI can gate on it directly.

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

use engine::json::Json;
use engine::prelude::*;
use perfprof::timing::{latency_summary, LatencySummary};
use prng::{Rng, StdRng};
use server::client::{self, ClientResponse};
use server::{Server, ServerConfig, ServerHandle};
use sparsemat::gen::ProblemKind;

/// Cache capacity the server is spawned with; `cold_scan` issues more
/// distinct configurations than this to force evictions.
const CACHE_CAPACITY: usize = 16;
/// The headline requirement: cached-plan p50 at least this many times lower.
const REQUIRED_SPEEDUP: f64 = 5.0;

struct Sizes {
    mode: &'static str,
    headline_nodes: usize,
    headline_cold: usize,
    headline_hot: usize,
    hot_set_nodes: usize,
    hot_set_requests: usize,
    mixed_nodes: usize,
    cold_scan_nodes: usize,
    cold_scan_requests: usize,
    solve_nodes: usize,
    solve_requests: usize,
    enforce_speedup: bool,
}

const FULL: Sizes = Sizes {
    mode: "full",
    headline_nodes: 100_000,
    headline_cold: 3,
    headline_hot: 12,
    hot_set_nodes: 5_000,
    hot_set_requests: 60,
    mixed_nodes: 1_500,
    cold_scan_nodes: 2_000,
    cold_scan_requests: 24,
    solve_nodes: 50_000,
    solve_requests: 40,
    enforce_speedup: true,
};

const QUICK: Sizes = Sizes {
    mode: "quick",
    headline_nodes: 10_000,
    headline_cold: 2,
    headline_hot: 6,
    hot_set_nodes: 1_000,
    hot_set_requests: 24,
    mixed_nodes: 600,
    cold_scan_nodes: 500,
    cold_scan_requests: 20,
    solve_nodes: 2_000,
    solve_requests: 12,
    enforce_speedup: false,
};

/// Outcome of one scenario, serialised into the report.
struct ScenarioResult {
    name: &'static str,
    requests: usize,
    wall_seconds: f64,
    latency: LatencySummary,
    hit_latency: LatencySummary,
    miss_latency: LatencySummary,
    cache_hits: usize,
    expected_4xx: usize,
}

fn scenario_json(result: &ScenarioResult) -> String {
    format!(
        "    {{\"name\": \"{}\", \"requests\": {}, \"wall_seconds\": {:.6}, \
         \"throughput_rps\": {:.3}, \"cache_hits\": {}, \"expected_4xx\": {},\n     \
         \"latency\": {},\n     \"hit_latency\": {},\n     \"miss_latency\": {}}}",
        result.name,
        result.requests,
        result.wall_seconds,
        result.requests as f64 / result.wall_seconds.max(1e-9),
        result.cache_hits,
        result.expected_4xx,
        result.latency.to_json(),
        result.hit_latency.to_json(),
        result.miss_latency.to_json(),
    )
}

/// A failed invariant: recorded, reported, and turned into a non-zero exit.
struct Violations(Vec<String>);

impl Violations {
    fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            let what = what.into();
            eprintln!("loadgen: VIOLATION: {what}");
            self.0.push(what);
        }
    }
}

/// Write a mode's JSON report to `--out`, or to `default_name` under the
/// results directory every `bench` tool shares.
fn write_output(out: Option<String>, default_name: &str, json: &str) {
    let path = out
        .map(PathBuf::from)
        .unwrap_or_else(|| bench::report::results_dir().join(default_name));
    let written = std::fs::create_dir_all(path.parent().unwrap_or(Path::new("")))
        .and_then(|()| std::fs::write(&path, json));
    if let Err(error) = written {
        eprintln!("loadgen: cannot write {}: {error}", path.display());
        std::process::exit(1);
    }
    println!("loadgen: wrote {}", path.display());
}

fn grid_config(nodes: usize, seed: u64) -> String {
    EngineConfig::generated(ProblemKind::Grid2d, nodes, seed)
        .with_ordering(OrderingMethod::NestedDissection)
        .with_memory(MemoryBudget::FractionOfPeak(0.5))
        .to_json()
}

/// POST expecting a 200; records latency and cache disposition.
fn timed_post(
    addr: SocketAddr,
    path: &str,
    body: &str,
    violations: &mut Violations,
) -> (f64, ClientResponse) {
    let started = Instant::now();
    let response = client::post(addr, path, body).unwrap_or_else(|e| {
        eprintln!("loadgen: transport failure: {e}");
        std::process::exit(1);
    });
    let seconds = started.elapsed().as_secs_f64();
    violations.check(
        response.status == 200,
        format!(
            "{path} answered {} ({})",
            response.status,
            response.body.trim()
        ),
    );
    (seconds, response)
}

fn run_mix(
    name: &'static str,
    addr: SocketAddr,
    requests: &[(&str, String)],
    violations: &mut Violations,
) -> ScenarioResult {
    let started = Instant::now();
    let mut samples = Vec::new();
    let mut hit_samples = Vec::new();
    let mut miss_samples = Vec::new();
    for (path, body) in requests {
        let (seconds, response) = timed_post(addr, path, body, violations);
        samples.push(seconds);
        if response.cache_hit() {
            hit_samples.push(seconds);
        } else {
            miss_samples.push(seconds);
        }
    }
    ScenarioResult {
        name,
        requests: requests.len(),
        wall_seconds: started.elapsed().as_secs_f64(),
        latency: latency_summary(&samples),
        hit_latency: latency_summary(&hit_samples),
        miss_latency: latency_summary(&miss_samples),
        cache_hits: hit_samples.len(),
        expected_4xx: 0,
    }
}

/// The headline cold-vs-cached measurement plus the bit-identity check.
fn cache_speedup(
    addr: SocketAddr,
    sizes: &Sizes,
    violations: &mut Violations,
) -> (ScenarioResult, String) {
    let started = Instant::now();
    let mut cold = Vec::new();
    let mut hot = Vec::new();
    let mut cold_body = String::new();
    let mut hot_body = String::new();
    for seed in 0..sizes.headline_cold as u64 {
        let config = grid_config(sizes.headline_nodes, seed);
        let (seconds, response) = timed_post(addr, "/report", &config, violations);
        violations.check(
            !response.cache_hit(),
            format!("headline seed {seed} unexpectedly hit the cache"),
        );
        cold.push(seconds);
        if seed == 0 {
            cold_body = response.body;
        }
    }
    let hot_config = grid_config(sizes.headline_nodes, 0);
    for repeat in 0..sizes.headline_hot {
        let (seconds, response) = timed_post(addr, "/report", &hot_config, violations);
        violations.check(
            response.cache_hit(),
            format!("headline repeat {repeat} missed the cache"),
        );
        hot.push(seconds);
        if repeat == 0 {
            hot_body = response.body;
        }
    }

    // A cache-hit report is the cold-path report, minus wall-clock noise.
    let fingerprint_match = client::report_identity(&cold_body).is_some()
        && client::report_identity(&cold_body) == client::report_identity(&hot_body);
    violations.check(
        fingerprint_match,
        "cache-hit report differs from the cold-path report",
    );

    let cold_summary = latency_summary(&cold);
    let hot_summary = latency_summary(&hot);
    let speedup = cold_summary.p50_seconds / hot_summary.p50_seconds.max(1e-9);
    if sizes.enforce_speedup {
        violations.check(
            speedup >= REQUIRED_SPEEDUP,
            format!("cached-plan speedup {speedup:.1}x below the required {REQUIRED_SPEEDUP}x"),
        );
    }
    println!(
        "loadgen: headline {} nodes: cold p50 {:.4}s, cached p50 {:.4}s, speedup {:.1}x",
        sizes.headline_nodes, cold_summary.p50_seconds, hot_summary.p50_seconds, speedup
    );

    let headline = format!(
        "  \"headline\": {{\"corpus_nodes\": {}, \"cold_requests\": {}, \"hot_requests\": {}, \
         \"cold_p50_seconds\": {:.6}, \"hot_p50_seconds\": {:.6}, \"speedup\": {:.3}, \
         \"required_speedup\": {:.1}, \"speedup_enforced\": {}, \"fingerprint_match\": {}}},\n",
        sizes.headline_nodes,
        cold.len(),
        hot.len(),
        cold_summary.p50_seconds,
        hot_summary.p50_seconds,
        speedup,
        REQUIRED_SPEEDUP,
        sizes.enforce_speedup,
        fingerprint_match,
    );
    let scenario = ScenarioResult {
        name: "cache_speedup",
        requests: cold.len() + hot.len(),
        wall_seconds: started.elapsed().as_secs_f64(),
        latency: latency_summary(&[cold.clone(), hot.clone()].concat()),
        hit_latency: hot_summary,
        miss_latency: cold_summary,
        cache_hits: hot.len(),
        expected_4xx: 0,
    };
    (scenario, headline)
}

fn hot_set_skew(addr: SocketAddr, sizes: &Sizes, violations: &mut Violations) -> ScenarioResult {
    let mut rng = StdRng::seed_from_u64(0x10ad_6e11);
    let hot_set: Vec<String> = (0..6)
        .map(|seed| grid_config(sizes.hot_set_nodes, 100 + seed))
        .collect();
    let requests: Vec<(&str, String)> = (0..sizes.hot_set_requests)
        .map(|_| {
            // Skew: the minimum of two uniform draws favours low indices
            // (index 0 ~ 30%, index 5 ~ 3%).
            let pick = rng
                .gen_range(0..hot_set.len())
                .min(rng.gen_range(0..hot_set.len()));
            ("/report", hot_set[pick].clone())
        })
        .collect();
    run_mix("hot_set_skew", addr, &requests, violations)
}

fn parallel_hot(addr: SocketAddr, sizes: &Sizes, violations: &mut Violations) -> ScenarioResult {
    let hot_set: Vec<String> = (0..4)
        .map(|seed| grid_config(sizes.hot_set_nodes, 200 + seed))
        .collect();
    // Warm the cache so the parallel phase measures hit throughput.
    for config in &hot_set {
        timed_post(addr, "/report", config, violations);
    }
    let threads = 4;
    let per_thread = (sizes.hot_set_requests / threads).max(3);
    let started = Instant::now();
    let mut all_samples: Vec<f64> = Vec::new();
    let mut hits = 0usize;
    std::thread::scope(|scope| {
        let tasks: Vec<_> = (0..threads)
            .map(|thread| {
                let hot_set = &hot_set;
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut hits = 0usize;
                    let mut failures = 0usize;
                    for i in 0..per_thread {
                        let config = &hot_set[(thread + i) % hot_set.len()];
                        let started = Instant::now();
                        match client::post(addr, "/report", config) {
                            Ok(response) if response.status == 200 => {
                                samples.push(started.elapsed().as_secs_f64());
                                if response.cache_hit() {
                                    hits += 1;
                                }
                            }
                            _ => failures += 1,
                        }
                    }
                    (samples, hits, failures)
                })
            })
            .collect();
        for task in tasks {
            let (samples, thread_hits, failures) = task.join().expect("client thread");
            violations.check(
                failures == 0,
                format!("{failures} parallel requests failed"),
            );
            all_samples.extend(samples);
            hits += thread_hits;
        }
    });
    let summary = latency_summary(&all_samples);
    ScenarioResult {
        name: "parallel_hot",
        requests: threads * per_thread,
        wall_seconds: started.elapsed().as_secs_f64(),
        latency: summary,
        hit_latency: summary,
        miss_latency: LatencySummary::default(),
        cache_hits: hits,
        expected_4xx: 0,
    }
}

fn mixed_kinds(addr: SocketAddr, sizes: &Sizes, violations: &mut Violations) -> ScenarioResult {
    let mut requests: Vec<(&str, String)> = Vec::new();
    for (index, kind) in ProblemKind::ALL.iter().enumerate() {
        let config = EngineConfig::generated(*kind, sizes.mixed_nodes, 7)
            .with_ordering(OrderingMethod::NestedDissection)
            .with_memory(MemoryBudget::FractionOfPeak(0.3))
            .to_json();
        // Same config through all three endpoints: the first call plans,
        // the rest hit.
        requests.push(("/plan", config.clone()));
        requests.push(("/schedule", config.clone()));
        requests.push(("/report", config));
        // And one prebuilt-tree config interleaved for variety.
        if index == 0 {
            let prebuilt = EngineConfig::prebuilt(treemem::gadgets::harpoon(4, 400, 1))
                .with_memory(MemoryBudget::FractionOfPeak(0.0))
                .to_json();
            requests.push(("/report", prebuilt));
        }
    }
    run_mix("mixed_kinds", addr, &requests, violations)
}

fn cold_scan(addr: SocketAddr, sizes: &Sizes, violations: &mut Violations) -> ScenarioResult {
    let requests: Vec<(&str, String)> = (0..sizes.cold_scan_requests as u64)
        .map(|seed| ("/report", grid_config(sizes.cold_scan_nodes, 1_000 + seed)))
        .collect();
    let result = run_mix("cold_scan", addr, &requests, violations);
    violations.check(
        result.cache_hits == 0,
        format!("cold scan saw {} unexpected cache hits", result.cache_hits),
    );
    result
}

/// One cold numeric `/report` to compute and cache the factor, then a
/// hammer of `POST /solve` requests against it: the serving story of the
/// blocked kernel — factorize once, answer solves from the cache.
fn solve_throughput(
    addr: SocketAddr,
    sizes: &Sizes,
    violations: &mut Violations,
) -> (ScenarioResult, String) {
    let started = Instant::now();
    let config = EngineConfig::generated(ProblemKind::Grid2d, sizes.solve_nodes, 31)
        .with_ordering(OrderingMethod::NestedDissection)
        .with_numeric(true)
        .to_json();
    let (cold_seconds, response) = timed_post(addr, "/report", &config, violations);
    violations.check(
        !response.cache_hit(),
        "solve corpus report unexpectedly hit the plan cache",
    );
    let Some(hash) = response.header("x-config-hash").map(str::to_string) else {
        violations.check(false, "numeric report carried no X-Config-Hash header");
        return (
            ScenarioResult {
                name: "solve_throughput",
                requests: 1,
                wall_seconds: started.elapsed().as_secs_f64(),
                latency: latency_summary(&[cold_seconds]),
                hit_latency: LatencySummary::default(),
                miss_latency: LatencySummary::default(),
                cache_hits: 0,
                expected_4xx: 0,
            },
            String::new(),
        );
    };

    let mut solves = Vec::new();
    let mut worst_residual = 0.0f64;
    for request in 0..sizes.solve_requests {
        let body = format!(
            "{{\"config_hash\": \"{hash}\", \"count\": 4, \"seed\": {}}}",
            request + 1
        );
        let (seconds, response) = timed_post(addr, "/solve", &body, violations);
        violations.check(
            response.cache_hit(),
            format!("hot solve {request} missed the factor cache"),
        );
        let residual = Json::parse(&response.body)
            .ok()
            .and_then(|json| json.get("max_residual").and_then(Json::as_f64))
            .unwrap_or(f64::INFINITY);
        violations.check(
            residual < 1e-6,
            format!("solve {request} residual {residual:e} above 1e-6"),
        );
        worst_residual = worst_residual.max(residual);
        solves.push(seconds);
    }

    let solve_summary = latency_summary(&solves);
    let speedup = cold_seconds / solve_summary.p50_seconds.max(1e-9);
    if sizes.enforce_speedup {
        violations.check(
            speedup >= REQUIRED_SPEEDUP,
            format!(
                "hot /solve p50 only {speedup:.1}x below the cold factorization \
                 (required {REQUIRED_SPEEDUP}x)"
            ),
        );
    }
    println!(
        "loadgen: solve {} nodes: cold report {:.4}s, hot solve p50 {:.4}s ({:.0}x), \
         worst residual {:.2e}",
        sizes.solve_nodes, cold_seconds, solve_summary.p50_seconds, speedup, worst_residual
    );

    let headline = format!(
        "  \"solve\": {{\"corpus_nodes\": {}, \"rhs_per_request\": 4, \"solve_requests\": {}, \
         \"cold_report_seconds\": {:.6}, \"hot_solve_p50_seconds\": {:.6}, \"speedup\": {:.3}, \
         \"speedup_enforced\": {}, \"worst_residual\": {:e}}},\n",
        sizes.solve_nodes,
        solves.len(),
        cold_seconds,
        solve_summary.p50_seconds,
        speedup,
        sizes.enforce_speedup,
        worst_residual,
    );
    let scenario = ScenarioResult {
        name: "solve_throughput",
        requests: 1 + solves.len(),
        wall_seconds: started.elapsed().as_secs_f64(),
        latency: latency_summary(&[vec![cold_seconds], solves.clone()].concat()),
        hit_latency: solve_summary,
        miss_latency: latency_summary(&[cold_seconds]),
        cache_hits: solves.len(),
        expected_4xx: 0,
    };
    (scenario, headline)
}

fn malformed(addr: SocketAddr, violations: &mut Violations) -> ScenarioResult {
    let started = Instant::now();
    let depth_bomb = "[".repeat(100_000);
    // One payload per fixed parser bug, plus assorted garbage.
    let cases: Vec<(&str, String)> = vec![
        ("depth bomb", depth_bomb),
        (
            "broken surrogate escape",
            "{\"solver\": \"\\ud83d\\uzz00\"}".to_string(),
        ),
        ("raw control char", "{\"solver\": \"a\nb\"}".to_string()),
        ("truncated number", "{\"amalgamation\": 1.}".to_string()),
        (
            "duplicate key",
            "{\"solver\": \"minmem\", \"solver\": \"liu\"}".to_string(),
        ),
        ("not json", "colorless green ideas".to_string()),
        ("empty body", String::new()),
    ];
    let mut samples = Vec::new();
    let mut rejected = 0usize;
    for (label, body) in &cases {
        let request_started = Instant::now();
        let response = client::post(addr, "/report", body).unwrap_or_else(|e| {
            eprintln!("loadgen: transport failure on {label}: {e}");
            std::process::exit(1);
        });
        samples.push(request_started.elapsed().as_secs_f64());
        violations.check(
            (400..500).contains(&response.status),
            format!("{label} answered {} instead of a 4xx", response.status),
        );
        if (400..500).contains(&response.status) {
            rejected += 1;
        }
    }
    // Framing-level garbage (not even HTTP).
    let response = client::exchange(addr, b"BOGUS\r\n\r\n").unwrap_or_else(|e| {
        eprintln!("loadgen: transport failure on framing garbage: {e}");
        std::process::exit(1);
    });
    violations.check(
        response.status == 400,
        format!("framing garbage answered {}", response.status),
    );
    rejected += usize::from(response.status == 400);
    // The server survived all of it.
    let health = client::get(addr, "/healthz").map(|r| r.status);
    violations.check(
        health.as_ref().copied().unwrap_or(0) == 200,
        "server unhealthy after malformed barrage",
    );
    ScenarioResult {
        name: "malformed",
        requests: cases.len() + 1,
        wall_seconds: started.elapsed().as_secs_f64(),
        latency: latency_summary(&samples),
        hit_latency: LatencySummary::default(),
        miss_latency: LatencySummary::default(),
        cache_hits: 0,
        expected_4xx: rejected,
    }
}

/// The fault plan the chaos pass arms: six rules over six distinct points,
/// mixing all three actions (sleep, panic, drop) across the planning,
/// scheduling, and numeric layers.  Each rule fires exactly once.
const CHAOS_FAULT_PLAN: &str = "sleep:40@plan:ordering,panic@plan:symbolic#2,\
     panic@execute:numeric#2,drop@parexec:task#2,panic@arena:alloc#3,sleep:30@schedule:io";

/// POST with chaos-mode retries: 5xx (an injected fault landed on this
/// request) and transport failures retry after a short pause, 503/504
/// honor `Retry-After`.  Returns the final response plus how many 5xx
/// responses were absorbed along the way.
fn chaos_post(addr: SocketAddr, path: &str, body: &str) -> (ClientResponse, usize) {
    let mut absorbed_5xx = 0usize;
    for _ in 0..4 {
        match client::post(addr, path, body) {
            Ok(response) if response.status >= 500 => {
                absorbed_5xx += 1;
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
            Ok(response) if response.status == 503 => {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            Ok(response) => return (response, absorbed_5xx),
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(25)),
        }
    }
    let last = client::post_with_retry(addr, path, body, 2, std::time::Duration::from_millis(100))
        .unwrap_or_else(|e| {
            eprintln!("loadgen: chaos transport failure on {path}: {e}");
            std::process::exit(1);
        });
    (last, absorbed_5xx)
}

/// The chaos harness: collect uninjected reference reports from a fresh
/// server, then arm the fault-injection registry and fire ≥200 mixed
/// requests at a second server while a sidecar thread polls `/healthz`.
/// Afterwards the faults are cleared and every configuration must recover:
/// identical reports, working cache, and a deadline probe that turns into
/// a prompt 504.
fn chaos(sizes: &Sizes, violations: &mut Violations) -> (ScenarioResult, String) {
    let started = Instant::now();

    // The request mix: plain, numeric, parallel-numeric, prebuilt, and a
    // plan-only configuration.  Sized well below the headline corpus so
    // ≥200 requests stay tractable.
    let nodes = sizes.hot_set_nodes;
    let plain = grid_config(nodes, 900);
    let numeric = EngineConfig::generated(ProblemKind::Grid2d, nodes.min(2_000), 901)
        .with_numeric(true)
        .to_json();
    let parallel = EngineConfig::generated(ProblemKind::Grid2d, nodes.min(2_000), 902)
        .with_numeric(true)
        .with_parallel(engine::ParallelConfig::with_workers(2).with_max_tasks(8))
        .to_json();
    let prebuilt = EngineConfig::prebuilt(treemem::gadgets::harpoon(4, 400, 1))
        .with_memory(MemoryBudget::FractionOfPeak(0.0))
        .to_json();
    let plan_only = grid_config(nodes.min(2_000), 903);
    let reports: Vec<&String> = vec![&plain, &numeric, &parallel, &prebuilt];

    // Reference pass: a fresh, fault-free server establishes the ground
    // truth every later report must match bit-for-bit (minus timings).
    engine::faultinject::clear();
    let reference = spawn_server();
    let mut reference_identity = Vec::new();
    for config in &reports {
        let (_, response) = timed_post(reference.addr(), "/report", config, violations);
        let identity = client::report_fingerprint(&response.body);
        violations.check(identity.is_some(), "reference report is not a JSON object");
        reference_identity.push(identity);
    }
    violations.check(
        reference.shutdown().is_ok(),
        "reference server did not shut down cleanly",
    );

    // Chaos pass: arm the fault plan, boot the victim server, and start the
    // health poller.
    let injected_before = engine::faultinject::injected();
    let rules = engine::faultinject::parse_plan(CHAOS_FAULT_PLAN).unwrap_or_else(|e| {
        eprintln!("loadgen: bad chaos fault plan: {e}");
        std::process::exit(1);
    });
    let rule_count = rules.len();
    engine::faultinject::install(rules);
    let handle = spawn_server();
    let addr = handle.addr();

    let stop_poller = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let poller = {
        let stop = std::sync::Arc::clone(&stop_poller);
        std::thread::spawn(move || {
            let mut probes = 0usize;
            let mut unhealthy = 0usize;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                match client::get(addr, "/healthz") {
                    Ok(response) if response.status == 200 => {}
                    _ => unhealthy += 1,
                }
                probes += 1;
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
            (probes, unhealthy)
        })
    };

    let total_requests = 220usize.max(40 * reports.len());
    let mut samples = Vec::new();
    let mut hit_samples = Vec::new();
    let mut miss_samples = Vec::new();
    let mut absorbed_5xx = 0usize;
    let mut final_failures = 0usize;
    let mut solve_hash: Option<String> = None;
    for index in 0..total_requests {
        let slot = index % (reports.len() + 2);
        let request_started = Instant::now();
        let (response, fivexx) = match slot {
            s if s < reports.len() => chaos_post(addr, "/report", reports[s]),
            s if s == reports.len() => chaos_post(addr, "/plan", &plan_only),
            _ => match &solve_hash {
                Some(hash) => {
                    let body =
                        format!("{{\"config_hash\": \"{hash}\", \"count\": 2, \"seed\": {index}}}");
                    chaos_post(addr, "/solve", &body)
                }
                None => chaos_post(addr, "/report", &numeric),
            },
        };
        let seconds = request_started.elapsed().as_secs_f64();
        absorbed_5xx += fivexx;
        samples.push(seconds);
        if response.cache_hit() {
            hit_samples.push(seconds);
        } else {
            miss_samples.push(seconds);
        }
        if response.status != 200 {
            final_failures += 1;
        } else if slot < reports.len() {
            // Every successful report — retried past an injected fault or
            // not — is bit-identical to the uninjected reference.
            violations.check(
                client::report_fingerprint(&response.body) == reference_identity[slot],
                format!("chaos report for mix slot {slot} diverged from the reference"),
            );
            // Parallel runs never exceed their ledger budget except via the
            // documented idle force-admission path.
            if slot == 2 {
                if let Ok(json) = Json::parse(&response.body) {
                    if let Some(section) = json.get("parallel") {
                        let budget = section.get("budget_entries").and_then(Json::as_u64);
                        let peak = section
                            .get("measured_peak_entries")
                            .and_then(Json::as_u64)
                            .unwrap_or(0);
                        let forced = section
                            .get("forced_admissions")
                            .and_then(Json::as_u64)
                            .unwrap_or(0);
                        if let Some(budget) = budget {
                            violations.check(
                                peak <= budget || forced > 0,
                                format!("budget overrun: peak {peak} > budget {budget} without forced admissions"),
                            );
                        }
                    }
                }
            }
            if slot == 1 && solve_hash.is_none() {
                solve_hash = response.header("x-config-hash").map(str::to_string);
            }
        }
    }
    let injected = engine::faultinject::injected() - injected_before;
    violations.check(
        injected >= 4,
        format!("only {injected} of {rule_count} chaos faults fired"),
    );
    // Every terminal failure (after retries) must be attributable to an
    // injected fault; the mix itself contains nothing malformed.
    violations.check(
        absorbed_5xx as u64 + final_failures as u64 <= injected,
        format!(
            "{absorbed_5xx} retried + {final_failures} terminal failures exceed the {injected} injected faults"
        ),
    );
    violations.check(
        final_failures == 0,
        format!("{final_failures} requests failed even after retries"),
    );

    // Recovery: faults cleared, every configuration serves again, repeats
    // hit the cache, and the reports still match the fresh-server truth.
    engine::faultinject::clear();
    for (slot, config) in reports.iter().enumerate() {
        let (_, first) = timed_post(addr, "/report", config, violations);
        violations.check(
            client::report_fingerprint(&first.body) == reference_identity[slot],
            format!("post-chaos report for mix slot {slot} diverged from the reference"),
        );
        let (_, second) = timed_post(addr, "/report", config, violations);
        violations.check(
            second.cache_hit(),
            format!("post-chaos repeat of mix slot {slot} missed the plan cache"),
        );
    }

    // Deadline probe: a cold 10^5-node configuration under a 50 ms
    // deadline answers 504 promptly (the strict 2x bound holds in release
    // full mode; quick/debug runs get generous slack), and the very next
    // uninjected request for the same configuration completes.  Both modes
    // probe at the full headline size: quick mode's 10^4 grid plans in
    // ~15 ms and would simply answer 200.
    let deadline_config = grid_config(FULL.headline_nodes, 990);
    let probe_started = Instant::now();
    let probe = client::post_with_headers(
        addr,
        "/report",
        &[("X-Deadline-Ms", "50")],
        &deadline_config,
    )
    .unwrap_or_else(|e| {
        eprintln!("loadgen: deadline probe transport failure: {e}");
        std::process::exit(1);
    });
    let probe_seconds = probe_started.elapsed().as_secs_f64();
    violations.check(
        probe.status == 504,
        format!("deadline probe answered {} instead of 504", probe.status),
    );
    let probe_bound = if sizes.enforce_speedup { 0.100 } else { 1.0 };
    violations.check(
        probe_seconds <= probe_bound,
        format!("deadline probe took {probe_seconds:.3}s, over the {probe_bound:.3}s bound"),
    );
    let (_, after) = timed_post(addr, "/report", &deadline_config, violations);
    violations.check(
        after.status == 200,
        "request after the expired deadline did not complete",
    );

    stop_poller.store(true, std::sync::atomic::Ordering::Relaxed);
    let (health_probes, unhealthy) = poller.join().expect("health poller");
    violations.check(
        unhealthy == 0,
        format!("{unhealthy} of {health_probes} /healthz probes failed during chaos"),
    );
    violations.check(
        handle.shutdown().is_ok(),
        "chaos server did not shut down cleanly",
    );
    println!(
        "loadgen: chaos: {total_requests} requests, {injected} faults fired, \
         {absorbed_5xx} retried 5xx, {health_probes} health probes, \
         deadline probe {probe_seconds:.3}s"
    );

    let headline = format!(
        "  \"chaos\": {{\"requests\": {total_requests}, \"fault_rules\": {rule_count}, \
         \"faults_fired\": {injected}, \"retried_5xx\": {absorbed_5xx}, \
         \"terminal_failures\": {final_failures}, \"health_probes\": {health_probes}, \
         \"unhealthy_probes\": {unhealthy}, \"deadline_probe_seconds\": {probe_seconds:.6}, \
         \"deadline_probe_bound_seconds\": {probe_bound:.3}}},\n"
    );
    let scenario = ScenarioResult {
        name: "chaos",
        requests: total_requests,
        wall_seconds: started.elapsed().as_secs_f64(),
        latency: latency_summary(&samples),
        hit_latency: latency_summary(&hit_samples),
        miss_latency: latency_summary(&miss_samples),
        cache_hits: hit_samples.len(),
        expected_4xx: 0,
    };
    (scenario, headline)
}

fn spawn_server() -> ServerHandle {
    Server::spawn(ServerConfig {
        cache_capacity: CACHE_CAPACITY,
        ..ServerConfig::default()
    })
    .unwrap_or_else(|e| {
        eprintln!("loadgen: cannot boot the server: {e}");
        std::process::exit(1);
    })
}

/// `loadgen chaos [--quick]`: run only the chaos harness and write
/// `BENCH_server_chaos.json`.  Any violated invariant exits non-zero.
fn run_chaos_mode(sizes: &Sizes, out: Option<String>) {
    println!("loadgen: chaos mode ({})", sizes.mode);
    let mut violations = Violations(Vec::new());
    let (scenario, chaos_json) = chaos(sizes, &mut violations);

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"bench_server_chaos/v1\",\n");
    let _ = writeln!(json, "  \"mode\": \"{}\",", sizes.mode);
    let _ = writeln!(json, "  \"fault_plan\": \"{}\",", CHAOS_FAULT_PLAN);
    json.push_str(&chaos_json);
    json.push_str("  \"scenarios\": [\n");
    json.push_str(&scenario_json(&scenario));
    json.push_str("\n  ]\n}\n");

    write_output(out, "BENCH_server_chaos.json", &json);

    if !violations.0.is_empty() {
        eprintln!("loadgen: {} violated invariant(s)", violations.0.len());
        std::process::exit(1);
    }
    println!("loadgen: all chaos invariants held");
}

/// A spawned `serve` process (coordinator or worker), killed on drop so a
/// violated invariant cannot leak orphan processes into CI.
struct ManagedProc {
    label: String,
    child: std::process::Child,
}

impl Drop for ManagedProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Locate the `serve` binary: `TREEMEM_SERVE_BIN` when set, otherwise next
/// to the running `loadgen` (both are workspace bins, so one
/// `cargo build --release` puts them side by side).
fn serve_binary() -> std::path::PathBuf {
    let path = std::env::var_os("TREEMEM_SERVE_BIN")
        .map(std::path::PathBuf::from)
        .or_else(|| {
            std::env::current_exe()
                .ok()
                .and_then(|exe| Some(exe.parent()?.join("serve")))
        });
    match path {
        Some(path) if path.is_file() => path,
        Some(path) => {
            eprintln!(
                "loadgen: serve binary not found at {} (build it, or set TREEMEM_SERVE_BIN)",
                path.display()
            );
            std::process::exit(1);
        }
        None => {
            eprintln!("loadgen: cannot locate the serve binary; set TREEMEM_SERVE_BIN");
            std::process::exit(1);
        }
    }
}

/// Boot a coordinator on an ephemeral loopback port and parse the bound
/// address from its `serving on http://…` banner.
fn spawn_coordinator(bin: &std::path::Path) -> (ManagedProc, SocketAddr) {
    use std::io::BufRead as _;
    // Contribution frames scale with factor nnz: at 10⁶ nodes a single
    // frame runs to ~100 MB of hex floats, far past the interactive-scale
    // default body cap, so the coordinator gets a 1 GiB ceiling.
    let mut child = std::process::Command::new(bin)
        .args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "4",
            "--max-body-bytes",
            "1073741824",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| {
            eprintln!("loadgen: cannot spawn coordinator: {e}");
            std::process::exit(1);
        });
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    let addr = loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => {
                eprintln!("loadgen: coordinator exited before printing its address");
                std::process::exit(1);
            }
            Ok(_) => {
                if let Some(rest) = line.split("http://").nth(1) {
                    let text = rest.split_whitespace().next().unwrap_or("");
                    match text.parse::<SocketAddr>() {
                        Ok(addr) => break addr,
                        Err(_) => {
                            eprintln!("loadgen: unparsable coordinator address '{text}'");
                            std::process::exit(1);
                        }
                    }
                }
            }
            Err(e) => {
                eprintln!("loadgen: cannot read coordinator stdout: {e}");
                std::process::exit(1);
            }
        }
    };
    // Drain any further output so the coordinator can never block on a full
    // pipe.
    std::thread::spawn(move || {
        let _ = std::io::copy(&mut reader, &mut std::io::sink());
    });
    (
        ManagedProc {
            label: "coordinator".to_string(),
            child,
        },
        addr,
    )
}

/// Spawn one `serve --role worker` process; `fault_plan` arms
/// `TREEMEM_FAULT_PLAN` in the child (the chaos victim).
fn spawn_worker(
    bin: &std::path::Path,
    addr: SocketAddr,
    worker_id: &str,
    fault_plan: Option<&str>,
) -> ManagedProc {
    let mut command = std::process::Command::new(bin);
    command
        .args([
            "--role",
            "worker",
            "--coordinator",
            &addr.to_string(),
            "--worker-id",
            worker_id,
        ])
        .stdout(std::process::Stdio::null());
    if let Some(plan) = fault_plan {
        command.env("TREEMEM_FAULT_PLAN", plan);
    }
    let child = command.spawn().unwrap_or_else(|e| {
        eprintln!("loadgen: cannot spawn worker {worker_id}: {e}");
        std::process::exit(1);
    });
    ManagedProc {
        label: worker_id.to_string(),
        child,
    }
}

/// The deterministic identity of one seeded `/solve` answer: the factor's
/// nonzero count and the residual's exact bits (`{:e}` round-trips `f64`
/// through the parser, so parsed equality is bit equality).
fn solve_identity(addr: SocketAddr, hash: &str, violations: &mut Violations) -> Option<(u64, u64)> {
    let body = format!("{{\"config_hash\": \"{hash}\", \"count\": 2, \"seed\": 11}}");
    let (_, response) = timed_post(addr, "/solve", &body, violations);
    let json = Json::parse(&response.body).ok()?;
    let nnz = json.get("factor_nnz").and_then(Json::as_u64)?;
    let residual = json.get("max_residual").and_then(Json::as_f64)?;
    violations.check(
        residual.is_finite() && residual < 1e-6,
        format!("solve residual {residual:e} above 1e-6"),
    );
    Some((nnz, residual.to_bits()))
}

/// One distributed `/report` against the coordinator: returns the wall
/// time, the config hash, and the `distributed` section of the report.
fn distributed_report(
    addr: SocketAddr,
    config: &str,
    deadline_ms: u64,
    violations: &mut Violations,
) -> (f64, Option<String>, Option<Json>) {
    // A body-level deadline below the client read timeout: a wedged cluster
    // surfaces as a 504 violation instead of a transport error.  The caller
    // sizes the deadline to the run (the full 10⁶-node order serializes
    // coordinator and workers on small hosts, so interactive-scale budgets
    // do not apply).
    let body = format!("{{\"deadline_ms\": {deadline_ms}, {}", &config[1..]);
    let read_timeout = std::time::Duration::from_millis(deadline_ms + 30_000);
    let started = Instant::now();
    let response =
        client::post_with_timeout(addr, "/report", &body, read_timeout).unwrap_or_else(|e| {
            eprintln!("loadgen: distributed report transport failure: {e}");
            std::process::exit(1);
        });
    let seconds = started.elapsed().as_secs_f64();
    violations.check(
        response.status == 200,
        format!(
            "distributed /report answered {} ({})",
            response.status,
            response.body.trim()
        ),
    );
    let hash = response.header("x-config-hash").map(str::to_string);
    let section = Json::parse(&response.body)
        .ok()
        .and_then(|json| json.get("distributed").cloned());
    (seconds, hash, section)
}

/// Poll `GET /internal/job/{id}` until at least one task has been claimed
/// (the chaos victim is the only live worker, so the claim is its lease).
fn wait_for_claim(addr: SocketAddr, job: u64, deadline_ms: u64, violations: &mut Violations) {
    let deadline = Instant::now() + std::time::Duration::from_millis(deadline_ms);
    loop {
        if let Ok(response) = client::get(addr, &format!("/internal/job/{job}")) {
            if response.status == 200 {
                let claimed = Json::parse(&response.body)
                    .ok()
                    .and_then(|json| json.get("claimed").and_then(Json::as_u64))
                    .unwrap_or(0);
                if claimed >= 1 {
                    return;
                }
            }
        }
        if Instant::now() >= deadline {
            violations.check(
                false,
                format!("job {job} saw no claim within {deadline_ms}ms"),
            );
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

/// Structural ceiling on `contribution_bytes / factor_nnz` of a distributed
/// run: contributions are values only — 16 hex digits per factor nonzero
/// plus the root blocks and framing — so a row index back on the wire
/// (8 more digits per nonzero) trips it.
const MAX_WIRE_BYTES_PER_NONZERO: f64 = 20.0;

fn distributed_gate(
    label: &str,
    section: Option<&Json>,
    identity: Option<(u64, u64)>,
    reference: (u64, u64),
    violations: &mut Violations,
) {
    let Some(section) = section else {
        violations.check(
            false,
            format!("{label} report carries no distributed section"),
        );
        return;
    };
    violations.check(
        section.get("workers").and_then(Json::as_u64).unwrap_or(0) >= 2,
        format!("{label} run used fewer than 2 workers"),
    );
    match identity {
        Some(identity) => violations.check(
            identity == reference,
            format!(
                "{label} merged factor diverged from the single-process reference \
                 (nnz {} vs {}, residual bits {:#x} vs {:#x})",
                identity.0, reference.0, identity.1, reference.1
            ),
        ),
        None => violations.check(false, format!("{label} solve answer was unparsable")),
    }
    let bytes = section
        .get("contribution_bytes")
        .and_then(Json::as_u64)
        .unwrap_or(u64::MAX);
    violations.check(
        bytes as f64 <= MAX_WIRE_BYTES_PER_NONZERO * reference.0 as f64,
        format!(
            "{label} run shipped {bytes} contribution bytes for {} factor nonzeros \
             (more than {MAX_WIRE_BYTES_PER_NONZERO} per nonzero)",
            reference.0
        ),
    );
}

/// `loadgen distributed [--quick]`: the multi-process scenario described in
/// the module docs.  Writes `BENCH_distributed.json`; any violated
/// invariant exits non-zero.
fn run_distributed_mode(sizes: &Sizes, out: Option<String>) {
    let nodes = if sizes.mode == "full" {
        1_000_000
    } else {
        100_000
    };
    let tasks = 8usize;
    // Every timing knob scales with the order: on a small host the full
    // 10⁶-node run serializes coordinator and both workers onto a couple of
    // cores, so per-subtree wall time — which every lease must comfortably
    // exceed, or healthy contributions go stale and the job livelocks on
    // requeues — grows far past the quick-mode values.
    // The dominant term in a worker's *first* lease is planning, not
    // factoring: each worker process plans the configuration once, after
    // its first claim (the task frame carries the config, and the worker's
    // plan cache is empty until then).  At 10⁶ nodes nested-dissection
    // planning alone runs ~400 s per process on a small host, so the clean
    // lease must sit far above it or healthy first tasks expire.
    let (deadline_ms, clean_lease_ms, chaos_lease_ms) = if sizes.mode == "full" {
        (2_400_000, 1_500_000, 600_000)
    } else {
        (110_000, 30_000, 10_000)
    };
    println!(
        "loadgen: distributed mode ({}, {nodes} nodes, {tasks} tasks, 2 workers)",
        sizes.mode
    );
    let mut violations = Violations(Vec::new());

    let base = EngineConfig::generated(ProblemKind::Grid2d, nodes, 42)
        .with_ordering(OrderingMethod::NestedDissection)
        .with_numeric(true);

    // Single-process ground truth: factor the same configuration in-process
    // and record the seeded-solve identity every distributed run must match.
    let reference_server = spawn_server();
    let started = Instant::now();
    // The reference factorization is subject to the same order-scaled wall
    // time as the distributed passes, so it shares their read timeout
    // rather than the interactive 120 s default.
    let response = client::post_with_timeout(
        reference_server.addr(),
        "/report",
        &base.to_json(),
        std::time::Duration::from_millis(deadline_ms + 30_000),
    )
    .unwrap_or_else(|e| {
        eprintln!("loadgen: reference report transport failure: {e}");
        std::process::exit(1);
    });
    let reference_seconds = started.elapsed().as_secs_f64();
    violations.check(
        response.status == 200,
        format!(
            "/report answered {} ({})",
            response.status,
            response.body.trim()
        ),
    );
    let reference = response
        .header("x-config-hash")
        .map(str::to_string)
        .and_then(|hash| solve_identity(reference_server.addr(), &hash, &mut violations));
    let Some(reference) = reference else {
        violations.check(false, "single-process reference run failed");
        eprintln!("loadgen: cannot establish the reference factor; aborting");
        std::process::exit(1);
    };
    violations.check(
        reference_server.shutdown().is_ok(),
        "reference server did not shut down cleanly",
    );
    println!(
        "loadgen: reference factor in {reference_seconds:.3}s ({} nnz)",
        reference.0
    );

    let bin = serve_binary();
    let (coordinator, addr) = spawn_coordinator(&bin);
    let workers = vec![
        spawn_worker(&bin, addr, "w0", None),
        spawn_worker(&bin, addr, "w1", None),
    ];

    // Clean pass: both workers alive, a lease no healthy worker can miss.
    let clean_config = base
        .clone()
        .with_distributed(
            engine::DistributedConfig::with_tasks(tasks).with_lease_ms(clean_lease_ms),
        )
        .to_json();
    let (clean_seconds, clean_hash, clean_section) =
        distributed_report(addr, &clean_config, deadline_ms, &mut violations);
    let clean_identity = clean_hash
        .as_deref()
        .and_then(|hash| solve_identity(addr, hash, &mut violations));
    distributed_gate(
        "clean",
        clean_section.as_ref(),
        clean_identity,
        reference,
        &mut violations,
    );
    for (field, expected) in [("lease_expiries", 0), ("tasks_requeued", 0)] {
        violations.check(
            clean_section
                .as_ref()
                .and_then(|s| s.get(field))
                .and_then(Json::as_u64)
                == Some(expected),
            format!("clean run has nonzero {field}"),
        );
    }
    println!(
        "loadgen: clean distributed report in {clean_seconds:.3}s \
         ({:.2}x the single-process reference)",
        clean_seconds / reference_seconds.max(1e-9)
    );

    // Chaos pass: retire the healthy workers, hand the job to a victim that
    // stalls forever on its first claim, SIGKILL it while it holds the
    // lease, then let fresh workers finish the job via lease re-issue.
    for worker in workers {
        println!("loadgen: retiring healthy worker {}", worker.label);
        drop(worker);
    }
    let victim_plan = "sleep:600000@parexec:task";
    let victim = spawn_worker(&bin, addr, "w-victim", Some(victim_plan));
    let chaos_config = base
        .with_distributed(
            engine::DistributedConfig::with_tasks(tasks).with_lease_ms(chaos_lease_ms),
        )
        .to_json();
    let chaos_handle = std::thread::spawn(move || {
        let mut violations = Violations(Vec::new());
        let result = distributed_report(addr, &chaos_config, deadline_ms, &mut violations);
        (result, violations.0)
    });
    // Jobs number from 1 per coordinator: the clean pass was job 1.  The
    // claim only lands after the coordinator re-plans the chaos config, so
    // the wait shares the report deadline.
    wait_for_claim(addr, 2, deadline_ms, &mut violations);
    println!("loadgen: victim claimed a lease; killing it mid-job");
    drop(victim);
    let replacements = vec![
        spawn_worker(&bin, addr, "w2", None),
        spawn_worker(&bin, addr, "w3", None),
    ];
    let ((chaos_seconds, chaos_hash, chaos_section), chaos_violations) =
        chaos_handle.join().expect("chaos report thread");
    violations.0.extend(chaos_violations);
    let chaos_identity = chaos_hash
        .as_deref()
        .and_then(|hash| solve_identity(addr, hash, &mut violations));
    distributed_gate(
        "chaos",
        chaos_section.as_ref(),
        chaos_identity,
        reference,
        &mut violations,
    );
    for field in ["lease_expiries", "tasks_requeued"] {
        violations.check(
            chaos_section
                .as_ref()
                .and_then(|s| s.get(field))
                .and_then(Json::as_u64)
                .unwrap_or(0)
                >= 1,
            format!("chaos run recorded no {field} despite the killed worker"),
        );
    }
    println!("loadgen: chaos distributed report in {chaos_seconds:.3}s after lease re-issue");

    // Cluster book-keeping: counters reconcile (zero orphaned leases) and
    // the only injected fault produced no server-side 5xx.
    let stats_body = client::get(addr, "/stats")
        .map(|response| response.body)
        .unwrap_or_else(|e| {
            eprintln!("loadgen: coordinator /stats failed: {e}");
            std::process::exit(1);
        });
    let stats = Json::parse(&stats_body).unwrap_or(Json::Null);
    let cluster = |field: &str| {
        stats
            .get("cluster")
            .and_then(|c| c.get(field))
            .and_then(Json::as_u64)
            .unwrap_or(u64::MAX)
    };
    violations.check(
        cluster("tasks_claimed") == cluster("tasks_completed") + cluster("lease_expiries"),
        format!(
            "orphaned leases: {} claimed vs {} completed + {} expired",
            cluster("tasks_claimed"),
            cluster("tasks_completed"),
            cluster("lease_expiries")
        ),
    );
    violations.check(
        cluster("jobs_completed") == cluster("jobs_started"),
        "a job is still live on the coordinator",
    );
    violations.check(
        stats
            .get("responses")
            .and_then(|r| r.get("status_5xx"))
            .and_then(Json::as_u64)
            == Some(0),
        "coordinator answered a non-injected 5xx",
    );
    drop(replacements);
    drop(coordinator);

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"bench_distributed/v1\",\n");
    let _ = writeln!(json, "  \"mode\": \"{}\",", sizes.mode);
    let _ = writeln!(
        json,
        "  \"corpus_nodes\": {nodes},\n  \"tasks\": {tasks},\n  \"worker_processes\": 2,"
    );
    let _ = writeln!(
        json,
        "  \"reference\": {{\"report_seconds\": {reference_seconds:.6}, \
         \"factor_nnz\": {}, \"residual_bits\": \"{:#018x}\"}},",
        reference.0, reference.1
    );
    // Re-render the load-bearing counters of each run's distributed
    // section (the parser keeps no serializer around).
    let section_json = |section: &Option<Json>| {
        let Some(section) = section else {
            return "null".to_string();
        };
        let field = |name: &str| section.get(name).and_then(Json::as_f64).unwrap_or(f64::NAN);
        format!(
            "{{\"workers\": {}, \"subtree_count\": {}, \"lease_expiries\": {}, \
             \"tasks_requeued\": {}, \"contribution_bytes\": {}, \
             \"wall_seconds\": {:.6}, \"merge_seconds\": {:.6}}}",
            field("workers"),
            field("subtree_count"),
            field("lease_expiries"),
            field("tasks_requeued"),
            field("contribution_bytes"),
            field("wall_seconds"),
            field("merge_seconds"),
        )
    };
    let _ = writeln!(
        json,
        "  \"clean\": {{\"report_seconds\": {clean_seconds:.6}, \"bit_identical\": {}, \
         \"distributed\": {}}},",
        clean_identity == Some(reference),
        section_json(&clean_section)
    );
    let _ = writeln!(
        json,
        "  \"chaos\": {{\"report_seconds\": {chaos_seconds:.6}, \"bit_identical\": {}, \
         \"fault_plan\": \"{victim_plan}\", \"distributed\": {}}},",
        chaos_identity == Some(reference),
        section_json(&chaos_section)
    );
    let _ = writeln!(json, "  \"coordinator_stats\": {}", stats_body.trim_end());
    json.push_str("}\n");

    write_output(out, "BENCH_distributed.json", &json);

    if !violations.0.is_empty() {
        eprintln!("loadgen: {} violated invariant(s)", violations.0.len());
        std::process::exit(1);
    }
    println!("loadgen: all distributed invariants held");
}

/// `loadgen traces`: replay the {trace × policy × capacity} cache matrix in
/// plan-stub mode, run the end-to-end HTTP tenant pass, enforce the gates
/// (GDSF ≥ LRU on mixed, zero quota violations, clean accounting), and in
/// `--check` mode pin quick-run cells against the committed reference.
fn run_traces_mode(quick: bool, check: bool, write_reference: bool, out: Option<String>) {
    use bench::traces;

    if (check || write_reference) && !quick {
        eprintln!("loadgen: the reference pins quick-mode cells; add --quick");
        std::process::exit(2);
    }
    let mode = if quick { "quick" } else { "full" };
    println!("loadgen: replaying cache trace matrix ({mode} mode)");
    let mut violations = Violations(Vec::new());

    let matrix = traces::run_matrix(quick);
    for cell in &matrix {
        println!(
            "loadgen:   {:<8} {:<8} {:>5.2}% capacity -> hit rate {:>6.2}% \
             ({} evictions, {} uncacheable)",
            cell.trace,
            cell.policy,
            cell.fraction * 100.0,
            cell.hit_rate() * 100.0,
            cell.evictions,
            cell.uncacheable,
        );
    }
    let deep = if quick {
        Vec::new()
    } else {
        println!("loadgen: deep section (mixed trace at 200k requests per policy)");
        traces::run_deep()
    };
    let gate_violations = traces::check_gates(&matrix, &deep);
    for violation in &gate_violations {
        violations.check(false, violation);
    }

    println!("loadgen: end-to-end HTTP pass (tenants acme + zeta over X-Tenant)");
    let http = traces::run_http_pass(quick);
    for violation in &http.violations {
        violations.check(false, violation);
    }
    println!(
        "loadgen: HTTP pass sent {} requests, zeta scored {} hits under acme's flood",
        http.requests, http.zeta_hits
    );

    if write_reference {
        let path = traces::reference_path();
        if let Err(error) = std::fs::write(&path, traces::reference_json(&matrix)) {
            eprintln!("loadgen: cannot write {}: {error}", path.display());
            std::process::exit(1);
        }
        println!("loadgen: wrote reference {}", path.display());
    }
    if check {
        let path = traces::reference_path();
        match std::fs::read_to_string(&path) {
            Ok(reference) => {
                for mismatch in traces::check_reference(&matrix, &reference) {
                    violations.check(false, &mismatch);
                }
                println!(
                    "loadgen: reference identity checked against {}",
                    path.display()
                );
            }
            Err(error) => {
                violations.check(false, format!("cannot read {}: {error}", path.display()));
            }
        }
    }

    let json = traces::bench_json(mode, &matrix, &deep, &http, &gate_violations);
    write_output(out, "BENCH_cache.json", &json);

    if !violations.0.is_empty() {
        eprintln!("loadgen: {} violated invariant(s)", violations.0.len());
        std::process::exit(1);
    }
    println!("loadgen: all cache-trace invariants held");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut sizes = &FULL;
    let mut out: Option<String> = None;
    let mut chaos_mode = false;
    let mut distributed_mode = false;
    let mut traces_mode = false;
    let mut check_reference = false;
    let mut write_reference = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "chaos" => chaos_mode = true,
            "distributed" => distributed_mode = true,
            "traces" => traces_mode = true,
            "--check" => check_reference = true,
            "--write-reference" => write_reference = true,
            "--quick" => sizes = &QUICK,
            "--out" => match iter.next() {
                Some(path) => out = Some(path.clone()),
                None => {
                    eprintln!("loadgen: --out needs a path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!(
                    "usage: loadgen [chaos|distributed|traces] [--quick] [--check] [--out PATH]   \
                     (unknown flag {other})"
                );
                std::process::exit(2);
            }
        }
    }

    if (check_reference || write_reference) && !traces_mode {
        eprintln!("loadgen: --check/--write-reference only apply to the traces mode");
        std::process::exit(2);
    }
    if traces_mode {
        run_traces_mode(
            std::ptr::eq(sizes, &QUICK),
            check_reference,
            write_reference,
            out,
        );
        return;
    }
    if distributed_mode {
        run_distributed_mode(sizes, out);
        return;
    }
    if chaos_mode {
        run_chaos_mode(sizes, out);
        return;
    }

    let handle = spawn_server();
    let addr = handle.addr();
    println!(
        "loadgen: serving on http://{addr} ({} mode, cache capacity {CACHE_CAPACITY})",
        sizes.mode
    );
    let mut violations = Violations(Vec::new());

    let (headline_scenario, headline_json) = cache_speedup(addr, sizes, &mut violations);
    let mut scenarios = vec![headline_scenario];
    scenarios.push(hot_set_skew(addr, sizes, &mut violations));
    scenarios.push(parallel_hot(addr, sizes, &mut violations));
    scenarios.push(mixed_kinds(addr, sizes, &mut violations));
    scenarios.push(cold_scan(addr, sizes, &mut violations));
    let (solve_scenario, solve_json) = solve_throughput(addr, sizes, &mut violations);
    scenarios.push(solve_scenario);
    scenarios.push(malformed(addr, &mut violations));

    // Final server-side view: cache hit rate, eviction counts, stage
    // latency percentiles.
    let stats_body = client::get(addr, "/stats")
        .map(|response| response.body)
        .unwrap_or_else(|e| {
            eprintln!("loadgen: /stats failed: {e}");
            std::process::exit(1);
        });
    let stats = Json::parse(&stats_body).unwrap_or(Json::Null);
    let plan_cache = stats.get("caches").and_then(|c| c.get("plan"));
    let counter = |name: &str| {
        plan_cache
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let cache_hits = counter("hits");
    let evictions = counter("evictions");
    violations.check(cache_hits > 0, "server finished with zero cache hits");
    violations.check(
        evictions > 0,
        "cold scan produced no cache evictions (capacity not exercised)",
    );
    violations.check(
        handle.shutdown().is_ok(),
        "server did not shut down cleanly",
    );
    println!("loadgen: clean shutdown, {cache_hits} cache hits, {evictions} evictions");

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"bench_server/v1\",\n");
    let _ = writeln!(json, "  \"mode\": \"{}\",", sizes.mode);
    let _ = writeln!(json, "  \"cache_capacity\": {CACHE_CAPACITY},");
    json.push_str(&headline_json);
    json.push_str(&solve_json);
    json.push_str("  \"scenarios\": [\n");
    for (index, scenario) in scenarios.iter().enumerate() {
        json.push_str(&scenario_json(scenario));
        json.push_str(if index + 1 < scenarios.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ],\n");
    // Embed the final /stats document verbatim (it is already JSON).
    let _ = writeln!(json, "  \"server_stats\": {}", stats_body.trim_end());
    json.push_str("}\n");

    write_output(out, "BENCH_server.json", &json);

    if !violations.0.is_empty() {
        eprintln!("loadgen: {} violated invariant(s)", violations.0.len());
        std::process::exit(1);
    }
    println!("loadgen: all invariants held");
}
