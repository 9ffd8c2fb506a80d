//! `serve_mixed`: the HTTP server under a closed loop of two clients.
//!
//! An in-process `Server::spawn(workers: 2, cache_capacity: 64,
//! factor_cache_capacity: 32)` answers a seeded request stream, one
//! connection per request (the server has no keep-alive): 40 % `/schedule`
//! on a hot problem, 25 % numeric `/report` on a hot problem (plan hit, the
//! factorization re-runs), 25 % `/solve` with 16 right-hand sides against a
//! cached factor, 10 % cold numeric `/report` with a fresh seed (a plan and
//! a factor *insert* beside the reads).  The hot set is 4 problem kinds × 6
//! seeds drawn Zipf(1.0); set-up posts each once.  Each client sends its
//! next request only after the previous one completed, so a slower server
//! receives less load; a `/solve` whose factor was evicted (404) is answered
//! by a `/report` and one retry inside the same operation.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use engine::json::Json;
use engine::prelude::*;
use prng::{Rng, StdRng};
use server::client::{self, ClientResponse};
use server::http::Request;
use server::{Server, ServerConfig, ServerHandle};
use treemem::postorder::best_postorder;

use crate::metrics::Samples;
use crate::runner::{
    end_to_end_metrics, per_layer_metrics, repeated_setup, write_trace, Outcome, Quality,
    QualityBuilder, RunArgs, Timing, SETUP_REPS,
};
use crate::seeds::derive;
use crate::spans::{self_ns, trace_json, Recorder};
use crate::workloads::pipeline::Observed;
use crate::workloads::scaled;

/// Closed-loop client threads.
pub const CLIENTS: u64 = 2;

/// Server worker threads.
const SERVER_WORKERS: usize = 2;

/// Seeds per hot problem kind.
const HOT_SEEDS: u64 = 6;

/// Right-hand sides of one `/solve`.
const SOLVE_RHS: usize = 16;

/// Requests per stratum of the mix: 8 + 5 + 5 + 2.
const BLOCK: u64 = 20;

/// Requests per client in smoke mode (no time window).
const SMOKE_REQUESTS: u64 = 40;

/// Requests of the in-process `Service::handle_request` pass.
const HANDLE_REQUESTS: u64 = 300;

/// The request classes of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `/schedule` on a hot problem.
    ScheduleHot,
    /// Numeric `/report` on a hot problem.
    ReportHot,
    /// `/solve` against a hot problem's cached factor.
    Solve,
    /// Numeric `/report` with a fresh seed.
    ReportCold,
}

impl Class {
    fn span_name(self) -> &'static str {
        match self {
            Class::ScheduleHot => "schedule_hit",
            Class::ReportHot => "report_hit",
            Class::Solve => "solve",
            Class::ReportCold => "report_miss",
        }
    }
}

/// One request of the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestSpec {
    /// Its class.
    pub class: Class,
    /// Endpoint path.
    pub path: &'static str,
    /// JSON body.
    pub body: String,
    /// Index into the hot set (`None` for cold requests).
    pub hot: Option<usize>,
}

/// One problem of the hot set, with the bytes every request on it carries.
#[derive(Debug, Clone, PartialEq)]
pub struct HotProblem {
    /// Its configuration.
    pub config: EngineConfig,
    /// `config.to_json()`: the body of `/schedule` and `/report` requests.
    pub body: String,
    /// `config.hash()`: what `/solve` requests name.
    pub hash: String,
}

/// The workload: sizes, and the hot set's configurations.
pub struct ServeMixed {
    kinds: [(ProblemKind, usize, OrderingMethod); 4],
}

impl ServeMixed {
    /// The mix at record sizes (÷ 20 in smoke mode).
    pub fn new(smoke: bool) -> ServeMixed {
        ServeMixed {
            kinds: [
                (
                    ProblemKind::Grid2d,
                    scaled(4_000, smoke),
                    OrderingMethod::NestedDissection,
                ),
                (
                    ProblemKind::Grid3d,
                    scaled(1_500, smoke),
                    OrderingMethod::NestedDissection,
                ),
                (
                    ProblemKind::Banded,
                    scaled(8_000, smoke),
                    OrderingMethod::MinimumDegree,
                ),
                (
                    ProblemKind::PowerLaw,
                    scaled(3_000, smoke),
                    OrderingMethod::MinimumDegree,
                ),
            ],
        }
    }

    fn config(&self, kind: usize, problem_seed: u64) -> EngineConfig {
        let (kind, nodes, ordering) = self.kinds[kind];
        EngineConfig::generated(kind, nodes, problem_seed)
            .with_ordering(ordering)
            .with_amalgamation(16)
            .with_memory(MemoryBudget::FractionOfPeak(0.5))
            .with_numeric(true)
    }

    /// The hot set for run seed `seed`, in Zipf rank order (rank 0 is the
    /// most popular).  Ranks cycle through the kinds, so every popularity
    /// tier holds one problem of each kind whatever the seed: the seed
    /// changes the matrices, not the shape of the traffic.
    pub fn hot_set(&self, seed: u64) -> Vec<HotProblem> {
        (0..HOT_SEEDS * self.kinds.len() as u64)
            .map(|rank| {
                let kind = (rank % self.kinds.len() as u64) as usize;
                let config = self.config(kind, derive(seed, "hot-problem", rank));
                HotProblem {
                    body: config.to_json(),
                    hash: config.hash(),
                    config,
                }
            })
            .collect()
    }

    /// Request `index` of client `client`'s stream: a pure function of the
    /// run seed, so the same seed replays the same bytes.
    ///
    /// The mix is stratified: every block of [`BLOCK`] consecutive requests
    /// of a stream holds exactly 8 `/schedule`, 5 hot `/report`, 5 `/solve`
    /// and 2 cold `/report` requests in a seeded order, and the cold
    /// problems cycle through the kinds.  A cold miss costs ten times a hot
    /// request, so drawing each class independently would let the share of
    /// misses — and with it the throughput — swing by ±7 % between seeds.
    pub fn request_at(
        &self,
        seed: u64,
        hot: &[HotProblem],
        client: u64,
        index: u64,
    ) -> RequestSpec {
        let (block, slot) = (index / BLOCK, (index % BLOCK) as usize);
        let mut order: Vec<usize> = (0..BLOCK as usize).collect();
        let mut shuffle = StdRng::seed_from_u64(derive(
            derive(seed, "request-block", client),
            "block",
            block,
        ));
        for last in (1..order.len()).rev() {
            order.swap(last, shuffle.gen_range(0..=last));
        }
        let (class, cold_kind) = match order[slot] {
            0..=7 => (Class::ScheduleHot, 0),
            8..=12 => (Class::ReportHot, 0),
            13..=17 => (Class::Solve, 0),
            ticket => (
                Class::ReportCold,
                (2 * block as usize + ticket - 18) % self.kinds.len(),
            ),
        };
        let mut rng =
            StdRng::seed_from_u64(derive(derive(seed, "request", client), "index", index));
        if class == Class::ReportCold {
            let fresh = derive(derive(seed, "cold-problem", client), "index", index);
            return RequestSpec {
                class,
                path: "/report",
                body: self.config(cold_kind, fresh).to_json(),
                hot: None,
            };
        }
        // Zipf(1.0) over the ranks: P(rank r) ∝ 1 / (r + 1).
        let harmonic: f64 = (1..=hot.len()).map(|r| 1.0 / r as f64).sum();
        let mut point = rng.gen::<f64>() * harmonic;
        let mut rank = 0;
        while rank + 1 < hot.len() && point >= 1.0 / (rank + 1) as f64 {
            point -= 1.0 / (rank + 1) as f64;
            rank += 1;
        }
        let (path, body) = match class {
            Class::ScheduleHot => ("/schedule", hot[rank].body.clone()),
            Class::ReportHot => ("/report", hot[rank].body.clone()),
            _ => (
                "/solve",
                format!(
                    "{{\"config_hash\": \"{}\", \"count\": {SOLVE_RHS}, \"seed\": {}}}",
                    hot[rank].hash,
                    rng.gen_range(0..1_000_000u64)
                ),
            ),
        };
        RequestSpec {
            class,
            path,
            body,
            hot: Some(rank),
        }
    }
}

/// A running server with the hot set posted.
struct Serving {
    server: ServerHandle,
    hot: Vec<HotProblem>,
    /// Set-up's `/report` of every hot problem: what hot responses must
    /// reproduce.
    references: Vec<Observed>,
}

/// One completed operation.
struct Sample {
    class: Class,
    seconds: f64,
    response_bytes: usize,
    refetched: bool,
    shed: bool,
    /// Whether spans were recorded around the operation's exchanges.
    traced: bool,
    failure: Option<String>,
}

fn integer_field(json: &Json, name: &str) -> Result<i64, String> {
    json.get(name)
        .and_then(Json::as_i64)
        .ok_or_else(|| format!("the response has no integer `{name}`"))
}

impl Serving {
    /// Send one request and check the answer; the clock covers the
    /// exchange (and, for a `/solve` miss, the refetch and the retry), not
    /// the checks.
    fn operate(&self, spec: &RequestSpec, span: impl Fn(&mut dyn FnMut())) -> Sample {
        let addr = self.server.addr();
        let mut seconds = 0.0;
        let mut exchange = |path: &str, body: &str| -> Result<ClientResponse, String> {
            let mut response = None;
            let start = Instant::now();
            span(&mut || response = Some(client::post(addr, path, body)));
            seconds += start.elapsed().as_secs_f64();
            response
                .expect("the span runs its closure")
                .map_err(|e| e.to_string())
        };
        let mut refetched = false;
        let result = (|| -> Result<ClientResponse, String> {
            let response = exchange(spec.path, &spec.body)?;
            if spec.class == Class::Solve && response.status == 404 {
                // The factor was evicted: put it back and ask again.
                refetched = true;
                let hot = spec.hot.expect("solve requests name a hot problem");
                let report = exchange("/report", &self.hot[hot].body)?;
                if report.status != 200 {
                    return Ok(report);
                }
                return exchange(spec.path, &spec.body);
            }
            Ok(response)
        })();
        let (response_bytes, shed, failure) = match &result {
            Ok(response) => (
                response.body.len(),
                response.status == 503,
                self.check(spec, response).err(),
            ),
            Err(message) => (0, false, Some(message.clone())),
        };
        Sample {
            class: spec.class,
            seconds,
            response_bytes,
            refetched,
            shed,
            traced: false,
            failure,
        }
    }

    /// Status, `X-Cache` and body of one response against what the class
    /// and the hot problem's reference demand.
    fn check(&self, spec: &RequestSpec, response: &ClientResponse) -> Result<(), String> {
        if response.status != 200 {
            return Err(format!(
                "{} answered {}: {}",
                spec.path,
                response.status,
                response.body.trim()
            ));
        }
        let cache = response.header("x-cache");
        match spec.class {
            Class::ScheduleHot => {
                let reference = &self.references[spec.hot.expect("hot request")];
                let json = Json::parse(&response.body).map_err(|e| e.to_string())?;
                reference.same_schedule(
                    integer_field(&json, "solver_peak")?,
                    integer_field(&json, "io_volume")?,
                    integer_field(&json, "divisible_bound")?,
                )
            }
            Class::ReportHot => {
                let reference = &self.references[spec.hot.expect("hot request")];
                let observed = Observed::from_report_json(&response.body)?;
                if !observed.same_result(reference) {
                    return Err("a hot /report differs from set-up's report".to_string());
                }
                Ok(())
            }
            Class::Solve => {
                if cache != Some("hit") {
                    return Err(format!(
                        "a served /solve must be a factor hit, got {cache:?}"
                    ));
                }
                let json = Json::parse(&response.body).map_err(|e| e.to_string())?;
                let residual = json.get("max_residual").and_then(Json::as_f64);
                if !residual.is_some_and(|r| r <= 1e-8) {
                    return Err(format!("solve residual {residual:?} exceeds 1e-8"));
                }
                if integer_field(&json, "rhs_count")? != SOLVE_RHS as i64 {
                    return Err("the solve batch has the wrong size".to_string());
                }
                Ok(())
            }
            Class::ReportCold => {
                if cache != Some("miss") {
                    return Err(format!("a cold /report must be a plan miss, got {cache:?}"));
                }
                Observed::from_report_json(&response.body)?.check_invariants()
            }
        }
    }
}

impl ServeMixed {
    /// Spawn the server and post every hot problem once (the cache warm-up);
    /// the responses become the references of the hot classes.
    fn setup(&self, seed: u64) -> Result<Serving, String> {
        let server = Server::spawn(ServerConfig {
            workers: SERVER_WORKERS,
            cache_capacity: 64,
            factor_cache_capacity: 32,
            ..ServerConfig::default()
        })
        .map_err(|e| format!("cannot spawn the server: {e}"))?;
        let hot = self.hot_set(seed);
        let mut references = Vec::with_capacity(hot.len());
        for problem in &hot {
            let response =
                client::post(server.addr(), "/report", &problem.body).map_err(|e| e.to_string())?;
            if response.status != 200 || response.header("x-cache") != Some("miss") {
                return Err(format!(
                    "warm-up /report answered {} with X-Cache {:?}",
                    response.status,
                    response.header("x-cache")
                ));
            }
            let observed = Observed::from_report_json(&response.body)?;
            observed.check_invariants()?;
            references.push(observed);
        }
        Ok(Serving {
            server,
            hot,
            references,
        })
    }

    /// The exact counts of the hot set: peaks and volumes from the served
    /// reports, the best-postorder peaks from the harness's own plans.
    fn quality(&self, serving: &Serving) -> Result<Quality, String> {
        let engine = Engine::new();
        let mut quality = QualityBuilder::default();
        for (problem, reference) in serving.hot.iter().zip(&serving.references) {
            let plan = engine.plan(&problem.config).map_err(|e| e.to_string())?;
            let (solver_peak, io_volume, bound) = reference.schedule_counts();
            quality.add_tree(
                solver_peak,
                best_postorder(plan.tree()).peak,
                io_volume,
                bound,
            );
        }
        quality.finish()
    }

    /// The closed loop: `CLIENTS` threads, each sending its stream until the
    /// window closes.  With a recorder, every other request of a stream is
    /// traced (a root span and one span per exchange), so traced and plain
    /// requests meet the same cache states.  Returns the samples and the
    /// loop's wall seconds.
    fn closed_loop(
        &self,
        serving: &Serving,
        args: &RunArgs,
        recorder: Option<&Recorder>,
    ) -> (Vec<Sample>, f64) {
        let started = Instant::now();
        let window = Duration::from_secs_f64(args.seconds);
        let stop = AtomicBool::new(false);
        let mut samples = Vec::new();
        std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    let stop = &stop;
                    scope.spawn(move || {
                        let mut mine = Vec::new();
                        for index in 0.. {
                            let open = if args.smoke {
                                index < SMOKE_REQUESTS
                            } else {
                                started.elapsed() < window
                            };
                            if !open || stop.load(Ordering::SeqCst) {
                                break;
                            }
                            let spec = self.request_at(args.seed, &serving.hot, client, index);
                            let op = client * (1 << 32) + index;
                            let sample = match recorder.filter(|_| index % 2 == 0) {
                                Some(recorder) => {
                                    let root = recorder.open(None, op, "harness", "request");
                                    let name = spec.class.span_name();
                                    let sample = serving.operate(&spec, |exchange| {
                                        recorder.time(Some(root), op, "server", name, exchange);
                                    });
                                    recorder.close(root);
                                    Sample {
                                        traced: true,
                                        ..sample
                                    }
                                }
                                None => serving.operate(&spec, |exchange| exchange()),
                            };
                            // A transport failure means the server is gone:
                            // end the run instead of spinning on errors.
                            if sample.response_bytes == 0 && sample.failure.is_some() {
                                stop.store(true, Ordering::SeqCst);
                            }
                            mine.push(sample);
                        }
                        mine
                    })
                })
                .collect();
            for client in clients {
                samples.extend(client.join().expect("a client thread panicked"));
            }
        });
        (samples, started.elapsed().as_secs_f64())
    }

    /// Run the workload.
    pub fn run(&self, args: &RunArgs) -> Result<Outcome, String> {
        let setup_reps = if args.smoke { 1 } else { SETUP_REPS };
        let (serving, setup_s) = repeated_setup(
            || self.setup(args.seed),
            |serving: Serving| {
                // Best effort: a server that fails to stop cannot fail the
                // set-up that replaces it.
                let _ = serving.server.shutdown();
            },
            setup_reps,
        )?;
        let quality = self.quality(&serving)?;
        let mut outcome = Outcome::default();
        if args.trace {
            self.traced(&serving, args, &mut outcome)?;
        } else {
            let (samples, loop_wall) = self.closed_loop(&serving, args, None);
            let walls = tally(&samples, &mut outcome);
            if walls.is_empty() {
                return Err(format!(
                    "no request succeeded: {}",
                    outcome.failures.join("; ")
                ));
            }
            // p99 has ten samples beyond it from a thousand requests on;
            // shorter (smoke) runs fall back to the median.
            let latency = perfprof::latency_summary(&walls);
            let timing = Timing {
                wall_s: latency.p50_seconds,
                tail_ms: 1e3
                    * if walls.len() >= 1_000 {
                        latency.p99_seconds
                    } else {
                        latency.p50_seconds
                    },
                throughput_rps: walls.len() as f64 / loop_wall,
            };
            outcome.lines.push(format!(
                "requests n={} mean_s={:.6} p50_s={:.6} p95_s={:.6} p99_s={:.6} max_s={:.6}",
                latency.count,
                latency.mean_seconds,
                latency.p50_seconds,
                latency.p95_seconds,
                latency.p99_seconds,
                latency.max_seconds
            ));
            outcome.metrics = end_to_end_metrics(setup_s, timing, quality)?;
        }
        serving
            .server
            .shutdown()
            .map_err(|e| format!("server shutdown failed: {e}"))?;
        Ok(outcome)
    }

    /// The traced run: one closed loop with a span around every exchange of
    /// every other request (the plain ones are the overhead baseline), then
    /// a third stream's classes through `Service::handle_request` without a
    /// socket.
    fn traced(
        &self,
        serving: &Serving,
        args: &RunArgs,
        outcome: &mut Outcome,
    ) -> Result<(), String> {
        let recorder = Recorder::new();
        let (looped, _) = self.closed_loop(serving, args, Some(&recorder));
        tally(&looped, outcome);

        let mut samples = Samples::default();
        // Median milliseconds of the samples `keep` selects (refetched
        // solves are three exchanges, not one).
        let p50_ms = |source: &[Sample], keep: &dyn Fn(&Sample) -> bool| -> Option<f64> {
            let mut walls: Vec<f64> = source
                .iter()
                .filter(|s| !s.refetched && s.failure.is_none() && keep(s))
                .map(|s| s.seconds)
                .collect();
            walls.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
            (!walls.is_empty()).then(|| perfprof::percentile(&walls, 0.5) * 1e3)
        };
        let client_side = [
            (Class::ScheduleHot, "server.schedule_hit_p50_ms"),
            (Class::ReportHot, "server.report_hit_p50_ms"),
            (Class::ReportCold, "server.report_miss_p50_ms"),
            (Class::Solve, "server.solve_p50_ms"),
        ];
        for (class, metric) in client_side {
            if let Some(value) = p50_ms(&looped, &|s| s.class == class) {
                samples.push(metric, value);
            }
        }

        // The socket-free pass: a third stream (fresh cold seeds) straight
        // into the service.
        let service = serving.server.service();
        let mut handled: Vec<Sample> = Vec::new();
        let handle_count = if args.smoke {
            SMOKE_REQUESTS
        } else {
            HANDLE_REQUESTS
        };
        for index in 0..handle_count {
            let spec = self.request_at(args.seed, &serving.hot, CLIENTS, index);
            let request = Request {
                method: "POST".to_string(),
                path: spec.path.to_string(),
                headers: Vec::new(),
                body: spec.body.clone().into_bytes(),
            };
            let start = Instant::now();
            let response = service.handle_request(&request);
            let seconds = start.elapsed().as_secs_f64();
            if response.status == 200 {
                handled.push(Sample {
                    class: spec.class,
                    seconds,
                    response_bytes: response.body.len(),
                    refetched: false,
                    shed: false,
                    traced: false,
                    failure: None,
                });
            }
        }
        let in_process = [
            (Class::ScheduleHot, "server.handle_schedule_p50_ms"),
            (Class::ReportHot, "server.handle_report_hit_p50_ms"),
            (Class::ReportCold, "server.handle_report_miss_p50_ms"),
            (Class::Solve, "server.handle_solve_p50_ms"),
        ];
        for (class, metric) in in_process {
            if let Some(value) = p50_ms(&handled, &|s| s.class == class) {
                samples.push(metric, value);
            }
        }
        if let (Some(tcp), Some(direct)) = (
            samples.median("server.schedule_hit_p50_ms"),
            samples.median("server.handle_schedule_p50_ms"),
        ) {
            samples.push("server.http_overhead_ms", tcp - direct);
        }

        // Counters of the caches and the server's own stage recorders.
        let plans = service.cache_stats();
        let factors = service.factor_cache_stats();
        samples.push("server.plan_hit_ratio", plans.hit_rate());
        samples.push("server.factor_hit_ratio", factors.hit_rate());
        samples.push("server.plan_evictions", plans.evictions as f64);
        samples.push("server.factor_evictions", factors.evictions as f64);
        let count = |keep: &dyn Fn(&Sample) -> bool| looped.iter().filter(|s| keep(s)).count();
        samples.push("server.solve_refetch", count(&|s| s.refetched) as f64);
        samples.push("server.shed_503", count(&|s| s.shed) as f64);
        samples.push("server.requests", looped.len() as f64);
        let mut bytes: Vec<f64> = looped.iter().map(|s| s.response_bytes as f64).collect();
        bytes.sort_by(|a, b| a.partial_cmp(b).expect("byte counts are finite"));
        samples.push(
            "server.response_bytes_p50",
            perfprof::percentile(&bytes, 0.5),
        );
        let stats = client::get(serving.server.addr(), "/stats").map_err(|e| e.to_string())?;
        let stats = Json::parse(&stats.body).map_err(|e| format!("unparsable /stats: {e}"))?;
        for (stage, metric) in [
            ("parse", "server.stage_parse_ms"),
            ("plan", "server.stage_plan_ms"),
            ("numeric", "server.stage_numeric_ms"),
        ] {
            let p50 = stats
                .get("stages")
                .and_then(|stages| stages.get(stage))
                .and_then(|summary| summary.get("p50_seconds"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("/stats has no p50 for stage {stage}"))?;
            samples.push(metric, p50 * 1e3);
        }

        // Configuration parsing and hashing, which every request pays.
        let sample = &serving.hot[0];
        let (_, parse) = perfprof::time_runs(9, || EngineConfig::from_json(&sample.body).is_ok());
        samples.push("engine.config_parse_s", parse.median_seconds);
        let (_, hash) = perfprof::time_runs(9, || sample.config.hash());
        samples.push("engine.config_hash_s", hash.median_seconds);

        // Span arithmetic: how much of each request the exchange covers,
        // and what tracing costs against the plain requests.
        let spans = recorder.snapshot();
        let own = self_ns(&spans);
        let (mut total, mut uncovered) = (0u64, 0u64);
        for (span, own) in spans.iter().zip(&own) {
            if span.parent.is_none() {
                total += span.end_ns - span.start_ns;
                uncovered += own;
            }
        }
        if total > 0 {
            samples.push(
                "harness.attributed_frac",
                1.0 - uncovered as f64 / total as f64,
            );
        }
        // Tracing adds a constant per request, so the shortest class bounds
        // its relative cost: schedule hits, traced against plain, interleaved
        // in one loop so both meet the same cache states.
        let schedule_hit = |traced: bool| {
            p50_ms(&looped, &|s| {
                s.class == Class::ScheduleHot && s.traced == traced
            })
        };
        if let (Some(with), Some(without)) = (schedule_hit(true), schedule_hit(false)) {
            samples.push("harness.trace_overhead_frac", with / without - 1.0);
        }
        if let Some(all_traced) = p50_ms(&looped, &|s| s.traced) {
            samples.push("harness.traced_op_s", all_traced / 1e3);
        }
        samples.push("harness.traced_ops", count(&|s| s.traced) as f64);
        write_trace(args, &trace_json(&args.workload, args.seed, &spans))?;
        outcome.metrics = per_layer_metrics(&samples);
        Ok(())
    }
}

/// Count the samples into `outcome` and return the successful latencies.
fn tally(samples: &[Sample], outcome: &mut Outcome) -> Vec<f64> {
    let mut walls = Vec::with_capacity(samples.len());
    for sample in samples {
        outcome.attempted += 1;
        match &sample.failure {
            Some(message) => outcome.fail(format!("{:?}: {message}", sample.class)),
            None => walls.push(sample.seconds),
        }
    }
    walls
}
