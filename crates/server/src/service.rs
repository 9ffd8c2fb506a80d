//! Request routing and the endpoint handlers, independent of any socket:
//! [`Service::handle_request`] maps a parsed [`Request`] to a [`Response`],
//! which makes the whole API surface testable without binding a port.
//!
//! A request with a deadline runs on its own [`Engine::with_cancel`] handle,
//! one without on the plain engine.  The service keeps the token itself for
//! the two waits no engine stage covers: a distributed job's contributions
//! and the start of a `/solve` batch.

use std::sync::Arc;
use std::time::{Duration, Instant};

use distrib::{ClaimRequest, ContributeError, Contribution, JobRegistry, JobSpec, WaitError};
use engine::json::{self, Array, Fixed, Json, Sci};
use engine::prelude::*;
use engine::{CacheCore, CacheStats, CancelToken, PlanCache};

use crate::http::{reason_phrase, Request};
use crate::stats::ServerStats;

/// Everything the handlers share: the engine, the plan and factor caches,
/// the distributed-job registry, and the observability counters.
pub struct Service {
    engine: Engine,
    cache: PlanCache,
    /// Cholesky factors by effective-config hash, charged their
    /// [`FactorHandle::approx_heap_bytes`]: `/solve` and hot sequential
    /// `/report`s resolve against it instead of re-factoring.
    factors: CacheCore<FactorHandle>,
    stats: ServerStats,
    /// Coordinator state for distributed runs: live jobs, leases, cluster
    /// counters.
    registry: JobRegistry,
    workers: usize,
    /// Deadline applied when a request names none.
    default_deadline: Option<Duration>,
    /// Ceiling on every deadline, requested or defaulted.  When set, even
    /// requests that ask for no deadline run under it.
    max_deadline: Option<Duration>,
}

/// A response ready for framing: status, body, and the cache disposition
/// (`Some(true)` = served from a cached plan) for the `X-Cache` header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// JSON body.
    pub body: String,
    /// Plan-cache disposition, when the endpoint consulted the cache.
    pub cache_hit: Option<bool>,
    /// Effective-config hash, when the endpoint resolved one.
    pub config_hash: Option<String>,
}

impl Response {
    fn ok(body: String) -> Self {
        Response {
            status: 200,
            body,
            cache_hit: None,
            config_hash: None,
        }
    }

    /// An error response with a JSON body naming the cause.
    pub fn error(status: u16, message: &str) -> Self {
        Response {
            status,
            body: json::document(|doc| {
                doc.field("error", message)
                    .field("status", status)
                    .field("reason", reason_phrase(status));
            }),
            cache_hit: None,
            config_hash: None,
        }
    }
}

impl Service {
    /// A service with the given plan and factor caches and worker count
    /// (the latter only reported in `/stats`).
    pub fn new(cache: PlanCache, factors: CacheCore<FactorHandle>, workers: usize) -> Self {
        Service {
            engine: Engine::new(),
            cache,
            factors,
            stats: ServerStats::new(),
            registry: JobRegistry::new(Arc::new(distrib::ClusterStats::new())),
            workers,
            default_deadline: None,
            max_deadline: None,
        }
    }

    /// Set the request-deadline policy: `default` applies when a request
    /// names no deadline, `max` caps every deadline (and bounds requests
    /// that asked for none at all).
    pub fn with_deadlines(mut self, default: Option<Duration>, max: Option<Duration>) -> Self {
        self.default_deadline = default;
        self.max_deadline = max;
        self
    }

    /// The observability counters (shared with the connection layer).
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The distributed-job registry (coordinator state).
    pub fn registry(&self) -> &JobRegistry {
        &self.registry
    }

    /// Current plan-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Current factor-cache counters.
    pub fn factor_cache_stats(&self) -> CacheStats {
        self.factors.stats()
    }

    /// Route one parsed request to its handler.  Never panics on hostile
    /// input: every failure is a status code plus a JSON error body.
    pub fn handle_request(&self, request: &Request) -> Response {
        let started = Instant::now();
        let response = self.route(request).unwrap_or_else(|response| response);
        let endpoint = request.path.trim_start_matches('/');
        if response.status == 200 {
            if let Some(recorder) = self.stats.endpoint(endpoint) {
                recorder.record(started.elapsed().as_secs_f64());
            }
        }
        self.stats.count_response(response.status);
        response
    }

    /// `Err` is a response too — the early exit of a handler, so the
    /// handlers can use `?`.
    fn route(&self, request: &Request) -> Result<Response, Response> {
        let header_deadline = header_deadline_ms(request)?;
        let body = &request.body;
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => Ok(Response::ok(json::document(|doc| {
                doc.field("status", "ok");
            }))),
            ("GET", "/stats") => Ok(Response::ok(self.stats.to_json(
                &self.cache.stats(),
                &self.factors.stats(),
                self.workers,
                &self.registry.stats().snapshot(),
            ))),
            ("POST", path @ ("/plan" | "/schedule" | "/report" | "/solve")) => {
                let cancel = self.deadline_token(header_deadline, body)?;
                let scoped = cancel.clone().map(|token| self.engine.with_cancel(token));
                let engine = scoped.as_ref().unwrap_or(&self.engine);
                match path {
                    "/plan" => self.handle_plan(engine, body),
                    "/schedule" => self.handle_schedule(engine, body),
                    "/report" => self.handle_report(engine, cancel.as_ref(), body),
                    _ => self.handle_solve(cancel.as_ref(), body),
                }
            }
            ("POST", "/internal/claim") => Ok(self.handle_claim(body)),
            ("POST", "/internal/contribute") => Ok(self.handle_contribute(body)),
            ("GET", path) if path.starts_with("/internal/job/") => Ok(self.handle_job(path)),
            ("GET", "/plan" | "/schedule" | "/report" | "/solve")
            | ("GET", "/internal/claim" | "/internal/contribute")
            | ("POST", "/healthz" | "/stats") => Err(Response::error(
                405,
                &format!("{} does not support {}", request.path, request.method),
            )),
            _ => Err(Response::error(
                404,
                &format!("no route for {}", request.path),
            )),
        }
    }

    /// Resolve the deadline of one request into a [`CancelToken`]: the
    /// `X-Deadline-Ms` header wins over the body's `deadline_ms`, which wins
    /// over the server default; the server maximum caps whatever remains.
    /// `None` means the request runs unbounded.
    fn deadline_token(
        &self,
        header_ms: Option<u64>,
        body: &[u8],
    ) -> Result<Option<CancelToken>, Response> {
        let requested = match header_ms {
            Some(ms) => Some(ms),
            None => body_deadline_ms(body)?,
        };
        let requested = requested
            .map(Duration::from_millis)
            .or(self.default_deadline);
        let effective = match (requested, self.max_deadline) {
            (Some(deadline), Some(max)) => Some(deadline.min(max)),
            (Some(deadline), None) => Some(deadline),
            (None, max) => max,
        };
        Ok(effective.map(CancelToken::with_deadline))
    }

    /// Map an [`EngineError`] to a response, counting cancellations by
    /// stage on the way.
    fn engine_error(&self, error: &EngineError) -> Response {
        if let EngineError::Cancelled { stage, .. } = error {
            self.stats.count_cancelled(stage);
        }
        engine_error_response(error)
    }

    /// Parse the body as an [`EngineConfig`], recording parse latency.
    fn parse_config(&self, body: &[u8]) -> Result<EngineConfig, Response> {
        let started = Instant::now();
        let text = std::str::from_utf8(body)
            .map_err(|_| Response::error(400, "request body is not UTF-8"))?;
        let config = EngineConfig::from_json(text)
            .map_err(|e| Response::error(400, &format!("invalid config: {e}")))?;
        if let Some(recorder) = self.stats.stage("parse") {
            recorder.record(started.elapsed().as_secs_f64());
        }
        Ok(config)
    }

    /// Fetch or build (on `engine`) the plan for `config`, recording
    /// plan-stage latency on misses.
    fn plan_for(
        &self,
        engine: &Engine,
        config: &EngineConfig,
    ) -> Result<(std::sync::Arc<Plan>, bool), Response> {
        let (plan, hit) = self
            .cache
            .get_or_plan(engine, config)
            .map_err(|e| self.engine_error(&e))?;
        if !hit {
            if let Some(recorder) = self.stats.stage("plan") {
                let timings = plan.timings();
                recorder.record(
                    timings.generate_seconds + timings.ordering_seconds + timings.symbolic_seconds,
                );
            }
        }
        Ok((plan, hit))
    }

    fn handle_plan(&self, engine: &Engine, body: &[u8]) -> Result<Response, Response> {
        let config = self.parse_config(body)?;
        let (plan, hit) = self.plan_for(engine, &config)?;
        let timings = plan.timings();
        let plan_seconds =
            timings.generate_seconds + timings.ordering_seconds + timings.symbolic_seconds;
        let body = json::document(|doc| {
            doc.field("schema", "engine_server_plan/v1")
                .field("config_hash", plan.config_hash())
                .field("cache", if hit { "hit" } else { "miss" })
                .field("nodes", plan.tree().len())
                .field("matrix_n", plan.matrix_n())
                .field("plan_seconds", Fixed(plan_seconds, 6));
        });
        Ok(Response {
            cache_hit: Some(hit),
            config_hash: Some(plan.config_hash().to_string()),
            ..Response::ok(body)
        })
    }

    fn handle_schedule(&self, engine: &Engine, body: &[u8]) -> Result<Response, Response> {
        let config = self.parse_config(body)?;
        let (plan, hit) = self.plan_for(engine, &config)?;
        let schedule = plan.schedule(engine).map_err(|e| self.engine_error(&e))?;
        self.record_stages(&schedule.timings(), false, false);
        let run = schedule.io_run();
        let body = json::document(|doc| {
            doc.field("schema", "engine_server_schedule/v1")
                .field("config_hash", schedule.config_hash())
                .field("cache", if hit { "hit" } else { "miss" })
                .field("solver", schedule.solver())
                .field("policy", schedule.policy())
                .field("solver_peak", schedule.peak())
                .field("memory_budget", schedule.memory_budget())
                .field("io_volume", schedule.io_volume())
                .field("read_volume", run.read_volume)
                .field("files_written", run.files_written)
                .field("io_peak_memory", run.peak_memory)
                .field("divisible_bound", schedule.divisible_bound());
        });
        Ok(Response {
            cache_hit: Some(hit),
            config_hash: Some(schedule.config_hash().to_string()),
            ..Response::ok(body)
        })
    }

    /// `POST /report`: plan → schedule → execute → report, for every
    /// execution mode.  Only the execute step differs: a configuration with a
    /// distributed section hands its subtree tasks to worker processes
    /// ([`Service::execute_on_cluster`]), everything else runs in-process —
    /// except a sequential numeric configuration whose plan and factor are
    /// both cached, which renders from the factor
    /// ([`Schedule::execute_cached`]) and runs no numeric stage.  `cancel`
    /// is the token `engine` polls; the cluster wait polls it too.
    fn handle_report(
        &self,
        engine: &Engine,
        cancel: Option<&CancelToken>,
        body: &[u8],
    ) -> Result<Response, Response> {
        let config = self.parse_config(body)?;
        let (plan, hit) = self.plan_for(engine, &config)?;
        let planned_bytes = plan.approx_heap_bytes();
        let schedule = plan.schedule(engine).map_err(|e| self.engine_error(&e))?;
        // The factor is looked up only on a plan hit: a cold plan has no
        // factor, and a parallel or distributed report's sections are
        // runtime measurements the factor cannot reproduce.
        let sequential =
            config.numeric && !config.parallel.enabled() && !config.distributed.enabled();
        if let Some(factor) = (hit && sequential)
            .then(|| self.factors.get(schedule.config_hash()))
            .flatten()
        {
            let report = schedule
                .execute_cached(engine, &factor)
                .map_err(|e| self.engine_error(&e))?;
            self.record_stages(&report.timings, false, report.solve.is_some());
            return Ok(report_response(report, hit));
        }
        let (report, factor) = if config.distributed.enabled() {
            self.execute_on_cluster(engine, cancel, &config, &schedule)?
        } else {
            schedule
                .execute_with_factor(engine)
                .map_err(|e| self.engine_error(&e))?
        };
        // The cache charged the plan when it was inserted; the first numeric
        // run then attaches the numeric substrate (about 5x the symbolic
        // footprint).  Re-charge it, so `bytes_used` tracks what the entry
        // holds and the byte ceiling evicts on real bytes.
        if plan.approx_heap_bytes() != planned_bytes {
            self.cache.insert(plan.config_hash(), plan.clone());
        }
        // Deposit the factor so later `POST /solve` requests and hot
        // sequential reports can resolve this configuration's hash without
        // re-factorizing (a merged
        // distributed factor is bit-identical to a local one, so it is
        // deposited the same way).  A factor too large for the cache is
        // admitted-but-uncacheable: this response still carries the
        // factor's results, only later `/solve` lookups miss.
        let factored = factor.is_some();
        if let Some(factor) = factor {
            let bytes = factor.approx_heap_bytes();
            self.factors
                .insert(&report.config_hash, Arc::new(factor), bytes);
        }
        self.record_stages(&report.timings, factored, report.solve.is_some());
        Ok(report_response(report, hit))
    }

    /// The execute step of a distributed `/report`: cut once, park the
    /// subtree tasks in the job registry for worker processes to claim,
    /// block until every contribution is in (or the job stalls), then merge
    /// above the cut.
    fn execute_on_cluster(
        &self,
        engine: &Engine,
        cancel: Option<&CancelToken>,
        config: &EngineConfig,
        schedule: &Schedule<'_>,
    ) -> Result<(Report, Option<FactorHandle>), Response> {
        let cut = schedule
            .distributed_cut(engine)
            .map_err(|e| self.engine_error(&e))?;
        let job = self.registry.register(JobSpec {
            config_json: config.to_json(),
            lease_ms: cut.lease_ms(),
            task_orders: (0..cut.task_count())
                .map(|task| cut.task_order(task).to_vec())
                .collect(),
            task_peaks: (0..cut.task_count())
                .map(|task| cut.task_peak_entries(task))
                .collect(),
            task_values: (0..cut.task_count())
                .map(|task| cut.task_value_count(task))
                .collect(),
            task_blocks: (0..cut.task_count())
                .map(|task| cut.task_root_blocks(task))
                .collect(),
            budget_entries: cut.budget_entries(),
        });
        let waited = job.wait_for_completion(cancel);
        // Whatever happened, the job leaves the registry: late contributions
        // answer 404 rather than piling up parts nobody will merge.
        self.registry.remove(job.id());
        let (contributions, runtime) = waited.map_err(|error| match error {
            WaitError::Cancelled => {
                self.stats.count_cancelled("distributed");
                Response::error(
                    504,
                    "deadline expired while waiting for worker contributions",
                )
            }
            // No worker is attached (or every one died): shed the request
            // instead of parking this thread; the connection layer adds
            // `Retry-After` to every 503.
            WaitError::TimedOut => Response::error(
                503,
                "no live worker: the job saw no claim or contribution for two lease periods",
            ),
        })?;
        schedule
            .execute_distributed(engine, cut, contributions, runtime)
            .map_err(|e| self.engine_error(&e))
    }

    /// `POST /internal/claim`: answer one worker's poll with a leased task,
    /// a wait hint, or idle.  The body and reply are wire frames, not bare
    /// JSON (see [`distrib::wire`]).
    fn handle_claim(&self, body: &[u8]) -> Response {
        let claim = match ClaimRequest::from_frame(body) {
            Ok(claim) => claim,
            Err(e) => return Response::error(400, &format!("bad claim frame: {e}")),
        };
        let frame = self.registry.claim(&claim.worker).to_frame();
        Response::ok(distrib::frame_string(&frame))
    }

    /// `POST /internal/contribute`: absorb one task's factor values and
    /// contribution blocks.  Frames that fail to decode, or that do not have
    /// the shape the job's cut fixes for the task, are 400s (the lease stays
    /// live); stale lease epochs and duplicate completions are 409s (the
    /// worker drops its copy — the re-issued lease recomputes identical
    /// bits).
    fn handle_contribute(&self, body: &[u8]) -> Response {
        let frame_bytes = body.len() as u64;
        let contribution = match Contribution::from_frame(body) {
            Ok(contribution) => contribution,
            Err(e) => return Response::error(400, &format!("bad contribution frame: {e}")),
        };
        let (job, task) = (contribution.job, contribution.task);
        match self.registry.contribute(contribution, frame_bytes) {
            // One line, like the frames: workers pay for every byte.
            Ok(()) => Response::ok(
                json::line(|reply| {
                    reply
                        .field("status", "accepted")
                        .field("job", job)
                        .field("task", task);
                }) + "\n",
            ),
            Err(error @ (ContributeError::UnknownJob | ContributeError::UnknownTask)) => {
                Response::error(404, &error.to_string())
            }
            Err(error @ ContributeError::Malformed) => Response::error(400, &error.to_string()),
            Err(error @ (ContributeError::StaleEpoch | ContributeError::AlreadyDone)) => {
                Response::error(409, &error.to_string())
            }
        }
    }

    /// `GET /internal/job/{id}`: progress of one live job.
    fn handle_job(&self, path: &str) -> Response {
        let id = path
            .strip_prefix("/internal/job/")
            .and_then(|rest| rest.parse::<u64>().ok());
        let Some(id) = id else {
            return Response::error(400, "job ids are decimal integers");
        };
        match self.registry.job(id) {
            Some(job) => Response::ok(job.progress_json()),
            None => Response::error(404, &format!("no live job {id}")),
        }
    }

    /// `POST /solve`: resolve a cached factor by effective-config hash and
    /// solve a batch of right-hand sides against it.
    ///
    /// The body is a JSON object: `config_hash` (required — the
    /// `X-Config-Hash` of a previous numeric `/report`), then either
    /// `vectors` (an array of length-`n` arrays) or `count`/`seed` for
    /// generated right-hand sides, plus the flags `check_residual`
    /// (default true) and `return_solutions` (default false).  An unknown
    /// hash is a 404 with `X-Cache: miss`; a hit carries `X-Cache: hit`.
    fn handle_solve(
        &self,
        cancel: Option<&CancelToken>,
        body: &[u8],
    ) -> Result<Response, Response> {
        let parse_started = Instant::now();
        let Ok(text) = std::str::from_utf8(body) else {
            return Err(Response::error(400, "request body is not UTF-8"));
        };
        let json = Json::parse(text)
            .map_err(|e| Response::error(400, &format!("invalid solve request: {e}")))?;
        let Ok(config_hash) = json.field::<&str>("config_hash") else {
            return Err(Response::error(
                400,
                "solve requests need a \"config_hash\" string naming a previous numeric report",
            ));
        };
        let invalid =
            |e: json::FieldError| Response::error(400, &format!("invalid solve request: {e}"));
        let check_residual = json.opt_field("check_residual").map_err(invalid)?;
        let return_solutions = json.opt_field("return_solutions").map_err(invalid)?;
        let count = json.opt_field("count").map_err(invalid)?.unwrap_or(1);
        let seed = json.opt_field("seed").map_err(invalid)?.unwrap_or(1);
        if let Some(recorder) = self.stats.stage("parse") {
            recorder.record(parse_started.elapsed().as_secs_f64());
        }

        let Some(factor) = self.factors.get(config_hash) else {
            return Err(Response {
                cache_hit: Some(false),
                config_hash: Some(config_hash.to_string()),
                ..Response::error(
                    404,
                    &format!(
                        "no cached factor for config_hash '{config_hash}'; \
                         POST /report with \"numeric\" set to true first"
                    ),
                )
            });
        };
        let rhs = match json.get("vectors") {
            Some(vectors) => SolveRhs::Vectors(number_arrays(vectors).ok_or_else(|| {
                Response::error(400, "\"vectors\" must be an array of number arrays")
            })?),
            None => SolveRhs::Generated { count, seed },
        };

        // The batched solve is short and uninterruptible, so the deadline is
        // enforced at its threshold: an already-expired token turns into a
        // 504 here instead of starting the triangular sweeps.
        if let Some(token) = cancel {
            if token.is_cancelled() {
                return Err(self.engine_error(&EngineError::Cancelled {
                    stage: "solve",
                    elapsed: token.elapsed(),
                }));
            }
        }

        let solve_started = Instant::now();
        let (report, batch) = factor
            .solve_batch(&rhs, check_residual.unwrap_or(true))
            .map_err(|e| self.engine_error(&e))?;
        let solve_seconds = solve_started.elapsed().as_secs_f64();
        if let Some(recorder) = self.stats.stage("solve") {
            recorder.record(solve_seconds);
        }

        let body = json::document(|doc| {
            doc.field("schema", "engine_server_solve/v1")
                .field("config_hash", config_hash)
                .field("cache", "hit")
                .field("n", factor.n())
                .field("rhs_count", report.rhs_count)
                .field("factor_nnz", factor.factor_nnz())
                .field("solve_seconds", Fixed(solve_seconds, 6))
                .field("max_residual", report.max_residual.map(Sci));
            if return_solutions.unwrap_or(false) {
                // The batch is interleaved: solution `c` is every
                // `rhs_count`-th value from `c` on.
                let solutions = (0..report.rhs_count).map(|c| {
                    Array(
                        batch
                            .iter()
                            .skip(c)
                            .step_by(report.rhs_count)
                            .map(|&v| Sci(v)),
                    )
                });
                doc.field("solutions", Array(solutions));
            }
        });
        Ok(Response {
            cache_hit: Some(true),
            config_hash: Some(config_hash.to_string()),
            ..Response::ok(body)
        })
    }

    /// Record the latencies of the stages this request ran: the solver and
    /// I/O stages always, the numeric stage only when it `factored` (a
    /// report rendered from a cached factor did not), the solve stage only
    /// when it `solved`.
    fn record_stages(&self, timings: &StageTimings, factored: bool, solved: bool) {
        let stages = [
            ("solver", true, timings.solver_seconds),
            ("io", true, timings.io_seconds),
            ("numeric", factored, timings.numeric_seconds),
            ("solve", solved, timings.solve_seconds),
        ];
        for (stage, ran, seconds) in stages {
            if let Some(recorder) = self.stats.stage(stage).filter(|_| ran) {
                recorder.record(seconds);
            }
        }
    }
}

/// The `200` answer to a `/report`: the rendered document plus its cache
/// disposition and hash headers.
fn report_response(report: Report, hit: bool) -> Response {
    Response {
        cache_hit: Some(hit),
        config_hash: Some(report.config_hash.clone()),
        ..Response::ok(report.to_json())
    }
}

/// The `vectors` of a `/solve` body as numbers (`None` unless it is an
/// array of arrays of numbers); the engine checks count, length and
/// finiteness.
fn number_arrays(vectors: &Json) -> Option<Vec<Vec<f64>>> {
    vectors
        .as_array()?
        .iter()
        .map(|vector| vector.as_array()?.iter().map(Json::as_f64).collect())
        .collect()
}

/// Parse the `X-Deadline-Ms` request header, if present.
fn header_deadline_ms(request: &Request) -> Result<Option<u64>, Response> {
    match request.header("x-deadline-ms") {
        None => Ok(None),
        Some(value) => match value.parse::<u64>() {
            Ok(ms) if ms > 0 => Ok(Some(ms)),
            _ => Err(Response::error(
                400,
                "X-Deadline-Ms must be a positive integer of milliseconds",
            )),
        },
    }
}

/// Extract the optional top-level `deadline_ms` of a JSON request body.
/// Bodies that are not valid JSON pass through as `None` — the handler's
/// own parser produces the precise 400 for those.
fn body_deadline_ms(body: &[u8]) -> Result<Option<u64>, Response> {
    let Ok(text) = std::str::from_utf8(body) else {
        return Ok(None);
    };
    // Cheap substring guard so well-formed bodies without a deadline are
    // not parsed twice.
    if !text.contains("\"deadline_ms\"") {
        return Ok(None);
    }
    let Ok(json) = Json::parse(text) else {
        return Ok(None);
    };
    match json.opt_field("deadline_ms") {
        Ok(None) => Ok(None),
        Ok(Some(ms)) if ms > 0 => Ok(Some(ms)),
        _ => Err(Response::error(
            400,
            "\"deadline_ms\" must be a positive integer of milliseconds",
        )),
    }
}

/// Map an [`EngineError`] to a response: everything the client caused is a
/// 4xx, deadline expiries are 504, infrastructure faults are 500.
fn engine_error_response(error: &EngineError) -> Response {
    let status = match error {
        EngineError::UnknownName(_)
        | EngineError::InvalidConfig(_)
        | EngineError::MatrixMarket(_)
        | EngineError::NumericUnavailable => 400,
        // A structurally valid request whose simulation is infeasible
        // (e.g. a budget below the largest node requirement).
        EngineError::MinIo(_) => 422,
        EngineError::Cancelled { .. } => 504,
        EngineError::Factorization(_) | EngineError::Internal(_) => 500,
    };
    Response::error(status, &error.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::json::Json;

    /// A count-bounded LRU of at most `capacity` factors.
    fn factor_cache(capacity: usize) -> CacheCore<FactorHandle> {
        let config = CacheConfig {
            max_entries: Some(capacity),
            ..CacheConfig::default()
        };
        CacheCore::new(config, "factor-cache.inner")
    }

    fn service() -> Service {
        Service::new(PlanCache::new(8), factor_cache(4), 2)
    }

    fn post(service: &Service, path: &str, body: &str) -> Response {
        post_with_headers(service, path, &[], body)
    }

    fn post_with_headers(
        service: &Service,
        path: &str,
        headers: &[(&str, &str)],
        body: &str,
    ) -> Response {
        service.handle_request(&Request {
            method: "POST".to_string(),
            path: path.to_string(),
            headers: headers
                .iter()
                .map(|(name, value)| (name.to_string(), value.to_string()))
                .collect(),
            body: body.as_bytes().to_vec(),
        })
    }

    fn get(service: &Service, path: &str) -> Response {
        service.handle_request(&Request {
            method: "GET".to_string(),
            path: path.to_string(),
            headers: Vec::new(),
            body: Vec::new(),
        })
    }

    fn sample_config() -> String {
        EngineConfig::generated(sparsemat::gen::ProblemKind::Grid2d, 100, 7)
            .with_memory(MemoryBudget::FractionOfPeak(0.5))
            .to_json()
    }

    /// The top-level fields of `body` without the wall-clock `key`.
    fn fields_without(body: &str, key: &str) -> Vec<(String, Json)> {
        match Json::parse(body).unwrap() {
            Json::Obj(fields) => fields.into_iter().filter(|(k, _)| k != key).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    /// Every endpoint document parses to what the hand-formatted renderers
    /// wrote before the `json::Writer` (only the layout may change; the
    /// wall-clock fields are dropped).
    #[test]
    fn endpoint_documents_keep_their_fields() {
        let service = service();
        let config = EngineConfig::generated(sparsemat::gen::ProblemKind::Grid2d, 9, 7)
            .with_numeric(true)
            .with_memory(MemoryBudget::FractionOfPeak(0.5))
            .to_json();
        let plan = post(&service, "/plan", &config);
        let parent = "{\n  \"schema\": \"engine_server_plan/v1\",\n  \"config_hash\": \"a9045d817215ec7d\",\n  \"cache\": \"miss\",\n  \"nodes\": 7,\n  \"matrix_n\": 9,\n  \"plan_seconds\": 0.000115\n}\n";
        assert_eq!(
            fields_without(&plan.body, "plan_seconds"),
            fields_without(parent, "plan_seconds")
        );
        let schedule = post(&service, "/schedule", &config);
        let parent = "{\n  \"schema\": \"engine_server_schedule/v1\",\n  \"config_hash\": \"a9045d817215ec7d\",\n  \"cache\": \"hit\",\n  \"solver\": \"minmem\",\n  \"policy\": \"LSNF\",\n  \"solver_peak\": 29,\n  \"memory_budget\": 29,\n  \"io_volume\": 0,\n  \"read_volume\": 0,\n  \"files_written\": 0,\n  \"io_peak_memory\": 29,\n  \"divisible_bound\": 0\n}\n";
        assert_eq!(Json::parse(&schedule.body), Json::parse(parent));
        let hash = post(&service, "/report", &config).config_hash.unwrap();
        let body = format!(
            "{{\"config_hash\": \"{hash}\", \"count\": 2, \"seed\": 3, \"return_solutions\": true}}"
        );
        let solve = post(&service, "/solve", &body);
        let parent = "{\n  \"schema\": \"engine_server_solve/v1\",\n  \"config_hash\": \"a9045d817215ec7d\",\n  \"cache\": \"hit\",\n  \"n\": 9,\n  \"rhs_count\": 2,\n  \"factor_nnz\": 26,\n  \"solve_seconds\": 0.000021,\n  \"max_residual\": 2.220446049250313e-16,\n  \"solutions\": [[6.005385721730191e-1, 4.196626775503078e-1, 4.2092943049600845e-1, -1.3088329242702046e-1, 4.597721609550151e-1, 1.725234819649219e-1, 3.6583040544874257e-1, 2.502191328660818e-1, 1.3477134034714977e-1], [7.348716438485093e-1, 8.743759861846105e-2, 3.199933119673318e-1, 1.4266499937678964e-1, 2.971193475755649e-1, -1.4968921230742699e-2, 7.229124480145172e-2, -3.135419770920468e-1, 2.306864434850783e-2]]\n}\n";
        assert_eq!(
            fields_without(&solve.body, "solve_seconds"),
            fields_without(parent, "solve_seconds")
        );
        let error = Response::error(404, "no route for /a\"b\"\n");
        let parent = "{\"error\": \"no route for /a\\\"b\\\"\\n\", \"status\": 404, \"reason\": \"Not Found\"}\n";
        assert_eq!(Json::parse(&error.body), Json::parse(parent));
    }

    #[test]
    fn healthz_and_stats_respond() {
        let service = service();
        assert_eq!(get(&service, "/healthz").status, 200);
        let stats = get(&service, "/stats");
        assert_eq!(stats.status, 200);
        assert!(Json::parse(&stats.body).is_ok());
    }

    #[test]
    fn unknown_routes_and_methods() {
        let service = service();
        assert_eq!(get(&service, "/nope").status, 404);
        assert_eq!(get(&service, "/plan").status, 405);
        assert_eq!(post(&service, "/healthz", "").status, 405);
    }

    #[test]
    fn plan_twice_hits_the_cache() {
        let service = service();
        let config = sample_config();
        let first = post(&service, "/plan", &config);
        assert_eq!(first.status, 200, "{}", first.body);
        assert_eq!(first.cache_hit, Some(false));
        let second = post(&service, "/plan", &config);
        assert_eq!(second.cache_hit, Some(true));
        assert_eq!(first.config_hash, second.config_hash);
        let parsed = Json::parse(&second.body).unwrap();
        assert_eq!(parsed.get("cache").and_then(Json::as_str), Some("hit"));
        assert_eq!(service.cache_stats().hits, 1);
    }

    #[test]
    fn report_is_identical_on_hit_and_miss_up_to_timings() {
        let service = service();
        let config = sample_config();
        let cold = post(&service, "/report", &config);
        let hot = post(&service, "/report", &config);
        assert_eq!(cold.status, 200, "{}", cold.body);
        assert_eq!((cold.cache_hit, hot.cache_hit), (Some(false), Some(true)));
        assert!(crate::client::report_fingerprint(&cold.body).is_some());
        assert_eq!(
            crate::client::report_fingerprint(&cold.body),
            crate::client::report_fingerprint(&hot.body)
        );
    }

    #[test]
    fn schedule_records_real_stage_latencies() {
        let service = service();
        let response = post(&service, "/schedule", &sample_config());
        assert_eq!(response.status, 200, "{}", response.body);
        // The solver and I/O stages actually ran, so their recorded
        // latencies are real measurements, not zeros.
        for stage in ["solver", "io"] {
            let summary = service.stats().stage(stage).unwrap().summary();
            assert_eq!(summary.count, 1, "{stage}");
            assert!(summary.max_seconds > 0.0, "{stage} recorded 0.0");
        }
    }

    #[test]
    fn schedule_reports_io_numbers() {
        let service = service();
        let response = post(&service, "/schedule", &sample_config());
        assert_eq!(response.status, 200, "{}", response.body);
        let json = Json::parse(&response.body).unwrap();
        assert!(json.get("io_volume").and_then(Json::as_u64).is_some());
        assert!(json.get("divisible_bound").and_then(Json::as_u64).is_some());
    }

    #[test]
    fn malformed_bodies_are_400s() {
        let service = service();
        let depth_bomb = "[".repeat(100_000);
        for body in [
            "",
            "not json",
            "{}",
            depth_bomb.as_str(),
            "{\"source\": \"\u{1}\"}", // raw control char
            r#"{"source": {"type": "generated", "kind": "nope"}}"#,
            // Sizes whose sum overflows `i64`.
            r#"{"source": {"type": "prebuilt", "parents": [-1, 0, 0], "files": [1, 9223372036854775807, 9223372036854775807], "weights": [0, 0, 0]}}"#,
        ] {
            let response = post(&service, "/report", body);
            let label = &body[..body.len().min(30)];
            assert_eq!(response.status, 400, "{label:?} -> {}", response.body);
            assert!(Json::parse(&response.body).is_ok());
        }
        // Unknown solver and policy names are 400s too.
        let bad = EngineConfig::generated(sparsemat::gen::ProblemKind::Grid2d, 50, 1)
            .with_solver("no-such-solver")
            .to_json();
        assert_eq!(post(&service, "/report", &bad).status, 400);
        // So is a MatrixMarket path the server cannot open.
        let missing = EngineConfig::matrix_market("/nonexistent/x.mtx").to_json();
        let response = post(&service, "/report", &missing);
        assert_eq!(response.status, 400, "{}", response.body);
        assert!(
            response.body.contains("/nonexistent/x.mtx"),
            "{}",
            response.body
        );
        // So is asking for two execution modes at once (it used to run
        // distributed and silently ignore the parallel section).
        let ambiguous = EngineConfig::generated(sparsemat::gen::ProblemKind::Grid2d, 50, 1)
            .with_numeric(true)
            .with_parallel(engine::ParallelConfig::with_workers(2))
            .with_distributed(engine::DistributedConfig::with_tasks(2))
            .to_json();
        for path in ["/plan", "/schedule", "/report"] {
            let response = post(&service, path, &ambiguous);
            assert_eq!(response.status, 400, "{path} -> {}", response.body);
            assert!(
                response.body.contains("mutually exclusive"),
                "{}",
                response.body
            );
        }
        assert_eq!(service.registry().stats().snapshot().jobs_started, 0);
    }

    #[test]
    fn a_numeric_report_recharges_the_plan_it_grew() {
        // The plan is charged at insert, before the numeric run attaches its
        // substrate (here ~4x the symbolic footprint): without a re-charge
        // `bytes_used` stays at the insert-time figure and a byte budget
        // holds several times its bytes.
        let service = service();
        let config = EngineConfig::generated(sparsemat::gen::ProblemKind::Grid2dWide, 3000, 7)
            .with_numeric(true);
        let response = post(&service, "/report", &config.to_json());
        assert_eq!(response.status, 200, "{}", response.body);
        let hash = response.config_hash.expect("reports carry their hash");
        let held = service
            .cache
            .get(&hash)
            .expect("the plan is cached")
            .approx_heap_bytes();
        let charged = service.cache_stats().bytes_used;
        assert!(
            charged.abs_diff(held) * 10 <= held,
            "the one entry is charged {charged} bytes but holds {held}"
        );
    }

    #[test]
    fn parallel_requests_flow_through_the_existing_endpoints() {
        let service = service();
        let serial =
            EngineConfig::generated(sparsemat::gen::ProblemKind::Grid2d, 100, 7).with_numeric(true);
        let parallel = serial
            .clone()
            .with_parallel(engine::ParallelConfig::with_workers(2).with_max_tasks(8));

        // The serial and parallel configurations are distinct cache entries
        // (distinct effective-config hashes), so a cached serial plan is
        // never served for a parallel request.
        let cold_serial = post(&service, "/report", &serial.to_json());
        assert_eq!(cold_serial.status, 200, "{}", cold_serial.body);
        let cold_parallel = post(&service, "/report", &parallel.to_json());
        assert_eq!(cold_parallel.status, 200, "{}", cold_parallel.body);
        assert_eq!(cold_parallel.cache_hit, Some(false));
        assert_ne!(cold_serial.config_hash, cold_parallel.config_hash);

        // The report carries the parallel section with real measurements.
        let json = Json::parse(&cold_parallel.body).unwrap();
        let section = json.get("parallel").expect("parallel section present");
        assert_eq!(section.get("workers").and_then(Json::as_usize), Some(2));
        assert!(section
            .get("subtree_count")
            .and_then(Json::as_usize)
            .is_some_and(|count| count >= 1));
        // The serial report keeps a null parallel section.
        let serial_json = Json::parse(&cold_serial.body).unwrap();
        assert!(matches!(
            serial_json.get("parallel"),
            Some(Json::Null) | None
        ));

        // A repeat of the parallel request hits its own cache entry.
        let hot = post(&service, "/report", &parallel.to_json());
        assert_eq!(hot.cache_hit, Some(true));
        assert_eq!(hot.config_hash, cold_parallel.config_hash);

        // Parallel execution without the numeric stage is a client error.
        let invalid = serial
            .clone()
            .with_numeric(false)
            .with_parallel(engine::ParallelConfig::with_workers(2));
        assert_eq!(post(&service, "/report", &invalid.to_json()).status, 400);
    }

    /// Run a numeric `/report` and return its config hash (the `/solve`
    /// key).
    fn factored_hash(service: &Service) -> String {
        let config = EngineConfig::generated(sparsemat::gen::ProblemKind::Grid2d, 100, 7)
            .with_numeric(true)
            .to_json();
        let response = post(service, "/report", &config);
        assert_eq!(response.status, 200, "{}", response.body);
        response.config_hash.expect("report carries its hash")
    }

    #[test]
    fn solve_resolves_a_cached_factor() {
        let service = service();
        let hash = factored_hash(&service);
        let body = format!("{{\"config_hash\": \"{hash}\", \"count\": 3, \"seed\": 9}}");
        let response = post(&service, "/solve", &body);
        assert_eq!(response.status, 200, "{}", response.body);
        assert_eq!(response.cache_hit, Some(true));
        assert_eq!(response.config_hash, Some(hash.clone()));
        let json = Json::parse(&response.body).unwrap();
        assert_eq!(json.get("rhs_count").and_then(Json::as_usize), Some(3));
        let residual = json
            .get("max_residual")
            .and_then(Json::as_f64)
            .expect("residual checked by default");
        assert!(residual < 1e-8, "{residual}");
        assert!(json.get("solutions").is_none(), "not requested");
        // The solve stage latency was recorded.
        assert_eq!(service.stats().stage("solve").unwrap().summary().count, 1);
        assert_eq!(service.factor_cache_stats().hits, 1);
    }

    #[test]
    fn solve_returns_solutions_for_explicit_vectors() {
        let service = service();
        let hash = factored_hash(&service);
        let rhs: Vec<String> = (0..100).map(|i| format!("{}.0", i % 5)).collect();
        let body = format!(
            "{{\"config_hash\": \"{hash}\", \"vectors\": [[{}]], \"return_solutions\": true}}",
            rhs.join(", ")
        );
        let response = post(&service, "/solve", &body);
        assert_eq!(response.status, 200, "{}", response.body);
        let json = Json::parse(&response.body).unwrap();
        let solutions = json.get("solutions").and_then(Json::as_array).unwrap();
        assert_eq!(solutions.len(), 1);
        assert_eq!(solutions[0].as_array().unwrap().len(), 100);
        assert!(json.get("max_residual").and_then(Json::as_f64).unwrap() < 1e-8);
    }

    #[test]
    fn unknown_hashes_are_404s_with_a_miss_disposition() {
        let service = service();
        let response = post(&service, "/solve", "{\"config_hash\": \"deadbeef\"}");
        assert_eq!(response.status, 404, "{}", response.body);
        assert_eq!(response.cache_hit, Some(false));
        assert!(Json::parse(&response.body).is_ok());
        assert_eq!(service.factor_cache_stats().misses, 1);
    }

    #[test]
    fn malformed_solve_requests_are_400s() {
        let service = service();
        let hash = factored_hash(&service);
        let wrong_length = format!("{{\"config_hash\": \"{hash}\", \"vectors\": [[1.0, 2.0]]}}");
        let not_numbers = format!("{{\"config_hash\": \"{hash}\", \"vectors\": [\"x\"]}}");
        let empty_vectors = format!("{{\"config_hash\": \"{hash}\", \"vectors\": []}}");
        let zero_count = format!("{{\"config_hash\": \"{hash}\", \"count\": 0}}");
        let huge_count = format!("{{\"config_hash\": \"{hash}\", \"count\": 1000000}}");
        for body in [
            "",                     // not JSON at all
            "not json",             // ditto
            "{}",                   // no config_hash
            "{\"config_hash\": 7}", // hash is not a string
            wrong_length.as_str(),  // RHS length mismatch
            not_numbers.as_str(),   // RHS entries are not arrays
            empty_vectors.as_str(), // zero right-hand sides
            zero_count.as_str(),    // ditto, generated
            huge_count.as_str(),    // over the batch cap
        ] {
            let response = post(&service, "/solve", body);
            let label = &body[..body.len().min(40)];
            assert_eq!(response.status, 400, "{label:?} -> {}", response.body);
            assert!(Json::parse(&response.body).is_ok());
        }
        // A mistyped optional field is a 400 that names it, not its default.
        for (field, value) in [
            ("count", "\"4\""),
            ("count", "2.5"),
            ("seed", "-1"),
            ("check_residual", "\"no\""),
            ("return_solutions", "1"),
        ] {
            let body = format!("{{\"config_hash\": \"{hash}\", \"{field}\": {value}}}");
            let response = post(&service, "/solve", &body);
            assert_eq!(response.status, 400, "{body} -> {}", response.body);
            let error = Json::parse(&response.body).unwrap();
            let message = error.get("error").and_then(Json::as_str).unwrap();
            assert!(message.contains(&format!("'{field}'")), "{message}");
        }
        // Wrong method.
        assert_eq!(get(&service, "/solve").status, 405);
        // The factor survives the barrage.
        let good = format!("{{\"config_hash\": \"{hash}\"}}");
        assert_eq!(post(&service, "/solve", &good).status, 200);
    }

    #[test]
    fn reports_without_the_numeric_stage_deposit_no_factor() {
        let service = service();
        let config = sample_config(); // numeric disabled
        let response = post(&service, "/report", &config);
        assert_eq!(response.status, 200, "{}", response.body);
        let hash = response.config_hash.unwrap();
        let body = format!("{{\"config_hash\": \"{hash}\"}}");
        assert_eq!(post(&service, "/solve", &body).status, 404);
    }

    #[test]
    fn solve_enabled_reports_carry_the_solve_section() {
        let service = service();
        let config = EngineConfig::generated(sparsemat::gen::ProblemKind::Grid2d, 100, 7)
            .with_numeric(true)
            .with_solve(engine::SolveConfig::generated(2, 5))
            .to_json();
        let response = post(&service, "/report", &config);
        assert_eq!(response.status, 200, "{}", response.body);
        let json = Json::parse(&response.body).unwrap();
        let solve = json.get("solve").expect("solve section present");
        assert_eq!(solve.get("rhs_count").and_then(Json::as_usize), Some(2));
        assert!(solve.get("max_residual").and_then(Json::as_f64).unwrap() < 1e-8);
        assert_eq!(service.stats().stage("solve").unwrap().summary().count, 1);
    }

    /// How many samples the `/stats` recorder of `stage` holds.
    fn stage_count(service: &Service, stage: &str) -> usize {
        service.stats().stage(stage).unwrap().summary().count
    }

    #[test]
    fn a_hot_report_renders_from_the_cached_factor() {
        let service = service();
        let config = EngineConfig::generated(sparsemat::gen::ProblemKind::Grid2d, 100, 7)
            .with_numeric(true)
            .with_solve(engine::SolveConfig::generated(2, 5))
            .to_json();
        let cold = post(&service, "/report", &config);
        assert_eq!(cold.status, 200, "{}", cold.body);
        let hash = cold.config_hash.clone().unwrap();
        let factor = service
            .factors
            .get(&hash)
            .expect("the cold report deposits");
        let plan_bytes = service.cache_stats().bytes_used;
        assert_eq!(stage_count(&service, "numeric"), 1);

        let hot = post(&service, "/report", &config);
        assert_eq!(hot.status, 200, "{}", hot.body);
        assert_eq!(hot.cache_hit, Some(true));
        assert_eq!(
            crate::client::report_fingerprint(&hot.body),
            crate::client::report_fingerprint(&cold.body)
        );
        // No numeric stage ran, so none is recorded; the solve stage ran.
        let timings = Json::parse(&hot.body).unwrap();
        let timings = timings.get("timings").unwrap();
        assert_eq!(
            timings.get("numeric_seconds").and_then(Json::as_f64),
            Some(0.0)
        );
        assert_eq!(stage_count(&service, "numeric"), 1);
        assert_eq!(stage_count(&service, "solve"), 2);
        // Neither a re-deposit nor a plan re-charge.
        let resident = service.factors.get(&hash).unwrap();
        assert!(Arc::ptr_eq(&factor, &resident), "the factor was replaced");
        assert_eq!(service.cache_stats().bytes_used, plan_bytes);
    }

    #[test]
    fn an_evicted_factor_is_recomputed_and_deposited_again() {
        let service = Service::new(PlanCache::new(8), factor_cache(1), 2);
        let config = |seed: u64| {
            EngineConfig::generated(sparsemat::gen::ProblemKind::Grid2d, 100, seed)
                .with_numeric(true)
                .to_json()
        };
        let first = post(&service, "/report", &config(1));
        let hash = first.config_hash.clone().unwrap();
        let evicted = service.factors.get(&hash).unwrap();
        assert_eq!(post(&service, "/report", &config(2)).status, 200);
        assert_eq!(service.factor_cache_stats().evictions, 1);

        let hot = post(&service, "/report", &config(1));
        assert_eq!((hot.status, hot.cache_hit), (200, Some(true)));
        assert_eq!(
            crate::client::report_fingerprint(&hot.body),
            crate::client::report_fingerprint(&first.body)
        );
        assert_eq!(
            stage_count(&service, "numeric"),
            3,
            "the hot report factored"
        );
        let deposited = service.factors.get(&hash).expect("deposited again");
        assert!(!Arc::ptr_eq(&evicted, &deposited));
    }

    /// Parallel and distributed sections are runtime measurements: every
    /// call runs its numeric stage, looks up no factor, and measures anew.
    #[test]
    fn runtime_sections_never_render_from_a_cached_factor() {
        let service = Arc::new(service());
        let base =
            EngineConfig::generated(sparsemat::gen::ProblemKind::Grid2d, 400, 3).with_numeric(true);
        let parallel = base
            .clone()
            .with_parallel(engine::ParallelConfig::with_workers(2).with_max_tasks(8));
        let distributed = base.with_distributed(engine::DistributedConfig::with_tasks(2));
        for (config, section) in [(parallel, "parallel"), (distributed, "distributed")] {
            let body = format!("{{\"deadline_ms\": 60000, {}", &config.to_json()[1..]);
            let mut sections = Vec::new();
            for call in 0..3 {
                let factored = stage_count(&service, "numeric");
                let response = match section {
                    "parallel" => post(&service, "/report", &body),
                    _ => report_through_a_worker(&service, &body).0,
                };
                assert_eq!(response.status, 200, "{}", response.body);
                assert_eq!(response.cache_hit, Some(call > 0));
                assert_eq!(stage_count(&service, "numeric"), factored + 1, "{section}");
                let json = Json::parse(&response.body).unwrap();
                sections.push(json.get(section).expect("runtime section").clone());
            }
            assert_ne!(sections[1], sections[2], "two hot {section} calls");
        }
        let lookups = service.factor_cache_stats();
        assert_eq!(
            lookups.hits + lookups.misses,
            0,
            "no report looked a factor up"
        );
    }

    #[test]
    fn an_expired_deadline_on_a_hot_report_is_still_a_504() {
        let service = service();
        // Parsing and hashing 2 * 10^5 explicit right-hand-side values
        // outlasts a 1 ms deadline, so it has expired by the first check.
        let config = EngineConfig::generated(sparsemat::gen::ProblemKind::Grid2d, 100, 7)
            .with_numeric(true)
            .with_solve(engine::SolveConfig::vectors(vec![vec![0.5; 100]; 2_000]))
            .to_json();
        assert_eq!(post(&service, "/report", &config).status, 200);
        let expired = post_with_headers(&service, "/report", &[("x-deadline-ms", "1")], &config);
        assert_eq!(expired.status, 504, "{}", expired.body);
        assert!(service.stats().cancelled_total() >= 1);
        assert_eq!(post(&service, "/report", &config).status, 200);
    }

    /// A configuration whose ordering stage is long enough that a
    /// 1-millisecond deadline always fires mid-plan.
    fn slow_config() -> String {
        EngineConfig::generated(sparsemat::gen::ProblemKind::Grid2d, 10_000, 7).to_json()
    }

    #[test]
    fn an_expired_header_deadline_is_a_504_and_counted() {
        let service = service();
        let response = post_with_headers(
            &service,
            "/report",
            &[("x-deadline-ms", "1")],
            &slow_config(),
        );
        assert_eq!(response.status, 504, "{}", response.body);
        assert!(Json::parse(&response.body).is_ok());
        assert!(service.stats().cancelled_total() >= 1);
        // The cancelled counters surface in /stats.
        let stats = get(&service, "/stats");
        let json = Json::parse(&stats.body).unwrap();
        assert!(json
            .get("cancelled")
            .and_then(|c| c.get("total"))
            .and_then(Json::as_u64)
            .is_some_and(|total| total >= 1));
        // The key settled: the same config planned without a deadline works.
        let retry = post(&service, "/report", &slow_config());
        assert_eq!(retry.status, 200, "{}", retry.body);
    }

    #[test]
    fn a_body_deadline_cancels_too() {
        let service = service();
        let config = slow_config();
        let with_deadline = format!("{{\"deadline_ms\": 1, {}", &config[1..]);
        let response = post(&service, "/schedule", &with_deadline);
        assert_eq!(response.status, 504, "{}", response.body);
    }

    #[test]
    fn invalid_deadlines_are_400s() {
        let service = service();
        for value in ["soon", "-5", "0", "1.5"] {
            let response = post_with_headers(
                &service,
                "/plan",
                &[("x-deadline-ms", value)],
                &sample_config(),
            );
            assert_eq!(response.status, 400, "{value:?} -> {}", response.body);
        }
        let bad_body = format!("{{\"deadline_ms\": 0, {}", &sample_config()[1..]);
        assert_eq!(post(&service, "/plan", &bad_body).status, 400);
    }

    #[test]
    fn server_side_default_and_maximum_deadlines_apply() {
        let defaulted = Service::new(PlanCache::new(8), factor_cache(4), 2)
            .with_deadlines(Some(Duration::from_millis(1)), None);
        let response = post(&defaulted, "/plan", &slow_config());
        assert_eq!(response.status, 504, "{}", response.body);

        // The maximum caps a generous requested deadline down to 1 ms and
        // bounds requests that asked for none.
        let capped = Service::new(PlanCache::new(8), factor_cache(4), 2)
            .with_deadlines(None, Some(Duration::from_millis(1)));
        let response = post_with_headers(
            &capped,
            "/plan",
            &[("x-deadline-ms", "60000")],
            &slow_config(),
        );
        assert_eq!(response.status, 504, "{}", response.body);
        assert_eq!(post(&capped, "/plan", &slow_config()).status, 504);

        // Small problems still finish inside the same ceiling-free default.
        let roomy = Service::new(PlanCache::new(8), factor_cache(4), 2)
            .with_deadlines(Some(Duration::from_secs(600)), None);
        assert_eq!(post(&roomy, "/plan", &sample_config()).status, 200);
    }

    #[test]
    fn an_expired_deadline_turns_solve_requests_into_504s() {
        let service = service();
        let hash = factored_hash(&service);
        let body = format!("{{\"config_hash\": \"{hash}\", \"deadline_ms\": 1, \"count\": 1}}");
        // Burn past the deadline deterministically: the token is created at
        // routing time, so an artificial delay is not needed — instead use a
        // service whose maximum deadline is tiny and a header that is valid
        // but already unreachable.  A 1 ms deadline may or may not expire
        // before the pre-solve check, so accept either a fast 200 or a 504;
        // what must never happen is a 5xx or a panic.
        let response = post(&service, "/solve", &body);
        assert!(
            response.status == 200 || response.status == 504,
            "{} -> {}",
            response.status,
            response.body
        );
    }

    #[test]
    fn infeasible_budgets_are_422s() {
        let config = EngineConfig::prebuilt(treemem::gadgets::harpoon(3, 300, 1))
            .with_memory(MemoryBudget::Absolute(1));
        let service = service();
        let response = post(&service, "/schedule", &config.to_json());
        assert_eq!(response.status, 422, "{}", response.body);
    }

    // ---- distributed execution over the internal endpoints ----

    use crate::worker::{run_worker, InProcessTransport, WorkerOptions, WorkerSummary};
    use distrib::ClaimReply;

    /// Block until the coordinator has registered `count` jobs (a
    /// distributed `/report` is in flight on another thread).
    fn wait_for_jobs(service: &Service, count: u64) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while service.registry().stats().snapshot().jobs_started < count {
            assert!(Instant::now() < deadline, "no job appeared within 30s");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// POST a distributed `/report` from another thread (it blocks until
    /// workers contribute) and drain its job with one in-process worker
    /// through the real endpoints.
    fn report_through_a_worker(service: &Arc<Service>, body: &str) -> (Response, WorkerSummary) {
        let jobs = service.registry().stats().snapshot().jobs_started;
        let coordinator = Arc::clone(service);
        let body = body.to_string();
        let report = std::thread::spawn(move || post(&coordinator, "/report", &body));
        wait_for_jobs(service, jobs + 1);
        let transport = InProcessTransport(Arc::clone(service));
        let summary = run_worker(&transport, &WorkerOptions::named("w-0").exit_when_idle(3));
        (report.join().expect("report thread"), summary)
    }

    /// The text from the `"solutions"` key onward: value-for-value equal
    /// formatting implies bit-identical solution vectors.
    fn solutions_text(body: &str) -> &str {
        body.split("\"solutions\"")
            .nth(1)
            .expect("solutions present")
    }

    #[test]
    fn distributed_reports_merge_bit_identically_to_local_runs() {
        let service = Arc::new(service());
        let local = EngineConfig::generated(sparsemat::gen::ProblemKind::Grid2d, 900, 7)
            .with_numeric(true)
            .with_solve(engine::SolveConfig::generated(2, 5));
        let sharded = local
            .clone()
            .with_distributed(engine::DistributedConfig::with_tasks(4));

        // Bounded by a body deadline, in case the protocol wedges.
        let body = format!("{{\"deadline_ms\": 60000, {}", &sharded.to_json()[1..]);
        let (response, summary) = report_through_a_worker(&service, &body);
        assert_eq!(response.status, 200, "{}", response.body);
        assert_eq!(summary.tasks_completed, 4);
        assert_eq!(summary.transport_errors, 0);

        let json = Json::parse(&response.body).unwrap();
        let section = json.get("distributed").expect("distributed section");
        assert_eq!(section.get("workers").and_then(Json::as_usize), Some(1));
        assert_eq!(
            section.get("subtree_count").and_then(Json::as_usize),
            Some(4)
        );
        assert_eq!(
            section.get("lease_expiries").and_then(Json::as_u64),
            Some(0)
        );
        // The numeric stage timing covers the subtree (claim) phase, not
        // only the coordinator's merge.
        let seconds = |object: &Json, key: &str| object.get(key).and_then(Json::as_f64).unwrap();
        let numeric_seconds = seconds(json.get("timings").unwrap(), "numeric_seconds");
        assert!(
            numeric_seconds >= 0.9 * seconds(section, "wall_seconds"),
            "numeric_seconds {numeric_seconds} vs {section:?}"
        );
        assert!(numeric_seconds > seconds(section, "merge_seconds"));

        // The merged factor answers /solve bit-for-bit like the local one.
        let reference = post(&service, "/report", &local.to_json());
        assert_eq!(reference.status, 200, "{}", reference.body);
        let sharded_hash = response.config_hash.expect("distributed hash");
        let local_hash = reference.config_hash.expect("local hash");
        assert_ne!(sharded_hash, local_hash, "distinct cache identities");
        let rhs: Vec<String> = (0..900).map(|i| format!("{}.5", i % 7)).collect();
        let solve_body = |hash: &str| {
            format!(
                "{{\"config_hash\": \"{hash}\", \"vectors\": [[{}]], \
                 \"return_solutions\": true}}",
                rhs.join(", ")
            )
        };
        let merged = post(&service, "/solve", &solve_body(&sharded_hash));
        let reference = post(&service, "/solve", &solve_body(&local_hash));
        assert_eq!(merged.status, 200, "{}", merged.body);
        assert_eq!(reference.status, 200, "{}", reference.body);
        assert_eq!(
            solutions_text(&merged.body),
            solutions_text(&reference.body),
            "distributed solve diverged from the local factor"
        );

        // Satellite invariant: the cluster counters reconcile to the task
        // count, and /stats carries them.
        let snapshot = service.registry().stats().snapshot();
        assert_eq!(snapshot.tasks_completed, 4);
        assert_eq!(
            snapshot.tasks_claimed,
            snapshot.tasks_completed + snapshot.lease_expiries
        );
        assert_eq!(snapshot.jobs_completed, snapshot.jobs_started);
        let stats = Json::parse(&get(&service, "/stats").body).unwrap();
        let cluster = stats.get("cluster").expect("cluster section");
        assert_eq!(
            cluster.get("tasks_completed").and_then(Json::as_u64),
            Some(snapshot.tasks_completed)
        );
        assert_eq!(
            cluster
                .get("workers")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(1)
        );
    }

    #[test]
    fn expired_leases_reissue_tasks_and_fence_late_contributions_with_409() {
        let service = Arc::new(service());
        let config = EngineConfig::generated(sparsemat::gen::ProblemKind::Grid2d, 400, 3)
            .with_numeric(true)
            .with_distributed(engine::DistributedConfig::with_tasks(2).with_lease_ms(500));
        let body = format!("{{\"deadline_ms\": 60000, {}", &config.to_json()[1..]);
        let coordinator = Arc::clone(&service);
        let report = std::thread::spawn(move || post(&coordinator, "/report", &body));
        wait_for_jobs(&service, 1);

        // A slow worker claims a task over the real endpoint, computes it,
        // but only contributes after its lease expired.
        let claim = distrib::ClaimRequest {
            worker: "w-slow".to_string(),
        }
        .to_frame();
        let claimed = post(
            &service,
            "/internal/claim",
            std::str::from_utf8(&claim).unwrap(),
        );
        assert_eq!(claimed.status, 200, "{}", claimed.body);
        let task = match ClaimReply::from_frame(claimed.body.as_bytes()).unwrap() {
            ClaimReply::Task(task) => task,
            other => panic!("expected a task, got {other:?}"),
        };
        let engine = Engine::new();
        let late_config = EngineConfig::from_json(&task.config).unwrap();
        let plan = engine.plan(&late_config).unwrap();
        let parts = plan.factor_subtree(&task.order, None).unwrap();
        let late =
            distrib::contribution_frame(task.job, task.task, task.epoch, "w-slow", 0.1, &parts);
        let late = String::from_utf8(late).unwrap();
        std::thread::sleep(Duration::from_millis(800));
        let rejected = post(&service, "/internal/contribute", &late);
        assert_eq!(rejected.status, 409, "{}", rejected.body);

        // A healthy worker completes the job via re-issue...
        let transport = InProcessTransport(Arc::clone(&service));
        let summary = run_worker(
            &transport,
            &WorkerOptions::named("w-alive").exit_when_idle(3),
        );
        let response = report.join().expect("report thread");
        assert_eq!(response.status, 200, "{}", response.body);
        assert_eq!(summary.stale_rejections, 0);
        let json = Json::parse(&response.body).unwrap();
        let section = json.get("distributed").expect("distributed section");
        assert!(section
            .get("lease_expiries")
            .and_then(Json::as_u64)
            .is_some_and(|expiries| expiries >= 1));
        assert!(section
            .get("tasks_requeued")
            .and_then(Json::as_u64)
            .is_some_and(|requeued| requeued >= 1));

        // ...after which the job is gone: the same late frame is now a 404.
        assert_eq!(post(&service, "/internal/contribute", &late).status, 404);
        let snapshot = service.registry().stats().snapshot();
        assert!(snapshot.stale_contributions >= 1);
        assert_eq!(
            snapshot.tasks_claimed,
            snapshot.tasks_completed + snapshot.lease_expiries
        );
    }

    #[test]
    fn internal_endpoints_reject_garbage_and_unknown_jobs_cleanly() {
        let service = Arc::new(service());
        // Claim and contribute frames that fail to decode are 400s.
        let huge = format!("{} 4\nhuge", distrib::WIRE_SCHEMA);
        for body in ["", "not a frame", huge.as_str()] {
            assert_eq!(post(&service, "/internal/claim", body).status, 400);
            assert_eq!(post(&service, "/internal/contribute", body).status, 400);
        }
        // An idle coordinator answers claims with an idle frame.
        let claim = distrib::ClaimRequest {
            worker: "w".to_string(),
        }
        .to_frame();
        let claim = std::str::from_utf8(&claim).unwrap();
        let reply = post(&service, "/internal/claim", claim);
        assert_eq!(reply.status, 200);
        assert!(matches!(
            ClaimReply::from_frame(reply.body.as_bytes()),
            Ok(ClaimReply::Idle)
        ));
        // Unknown and malformed job ids.
        assert_eq!(get(&service, "/internal/job/99").status, 404);
        assert_eq!(get(&service, "/internal/job/xyz").status, 400);
        // Wrong methods.
        assert_eq!(get(&service, "/internal/claim").status, 405);
        assert_eq!(get(&service, "/internal/contribute").status, 405);

        // Well-formed frames whose shape is not the task's: the coordinator
        // owns the row structure, so a short payload, an extra block or a
        // block of the wrong dimension is a 400 — never a merged factor, a
        // panic in the merge, or a ledger fed the worker's numbers.
        let local =
            EngineConfig::generated(sparsemat::gen::ProblemKind::Grid2d, 400, 3).with_numeric(true);
        let sharded = local
            .clone()
            .with_distributed(engine::DistributedConfig::with_tasks(2));
        let body = format!("{{\"deadline_ms\": 60000, {}", &sharded.to_json()[1..]);
        let coordinator = Arc::clone(&service);
        let report = std::thread::spawn(move || post(&coordinator, "/report", &body));
        wait_for_jobs(&service, 1);
        let claimed = post(&service, "/internal/claim", claim);
        let task = match ClaimReply::from_frame(claimed.body.as_bytes()).unwrap() {
            ClaimReply::Task(task) => task,
            other => panic!("expected a task, got {other:?}"),
        };
        let plan = Engine::new()
            .plan(&EngineConfig::from_json(&task.config).unwrap())
            .unwrap();
        let parts = plan.factor_subtree(&task.order, None).unwrap();
        let (root, dimension) = parts
            .blocks
            .iter()
            .map(|(column, block)| (column, block.n()))
            .next()
            .expect("a subtree task leaves its root block");
        let honest = distrib::contribution_frame(task.job, task.task, task.epoch, "w", 0.1, &parts);
        let honest = distrib::decode_frame(&honest).unwrap();
        let (head, blocks) = honest.split_once("\", \"blocks\": [").unwrap();
        let one = format!("{:016x}", 1f64.to_bits());
        let short = format!("{}\", \"blocks\": [{blocks}", &head[..head.len() - 16]);
        let extra_block = format!("{head}\", \"blocks\": [[{},0,\"\"],{blocks}", root + 1);
        let wrong_dimension = format!(
            "{head}\", \"blocks\": [[{root},{},\"{}\"]]}}",
            dimension + 1,
            one.repeat((dimension + 1) * (dimension + 1))
        );
        let contribute = |body: &str| {
            let frame = distrib::encode_frame(body);
            post(
                &service,
                "/internal/contribute",
                std::str::from_utf8(&frame).unwrap(),
            )
        };
        for bad in [short, extra_block, wrong_dimension] {
            let rejected = contribute(&bad);
            assert_eq!(rejected.status, 400, "{}", rejected.body);
            assert!(rejected.body.contains("value count"), "{}", rejected.body);
        }
        // The lease survived: the honest copy is accepted under the same
        // epoch, a worker drains the rest, and the merged factor is the
        // local one bit for bit.
        // The reply's bytes count in the cluster's traffic: one line, as before.
        let accepted = contribute(honest);
        assert_eq!(
            (accepted.status, accepted.body),
            (
                200,
                format!(
                    "{{\"status\": \"accepted\", \"job\": {}, \"task\": {}}}\n",
                    task.job, task.task
                )
            )
        );
        let transport = InProcessTransport(Arc::clone(&service));
        run_worker(&transport, &WorkerOptions::named("w-0").exit_when_idle(3));
        let response = report.join().expect("report thread");
        assert_eq!(response.status, 200, "{}", response.body);
        let reference = post(&service, "/report", &local.to_json());
        let solve = |hash: Option<String>| {
            let body = format!(
                "{{\"config_hash\": \"{}\", \"count\": 2, \"return_solutions\": true}}",
                hash.expect("reports carry their hash")
            );
            let solved = post(&service, "/solve", &body);
            assert_eq!(solved.status, 200, "{}", solved.body);
            solved.body
        };
        assert_eq!(
            solutions_text(&solve(response.config_hash)),
            solutions_text(&solve(reference.config_hash)),
        );
    }
}
