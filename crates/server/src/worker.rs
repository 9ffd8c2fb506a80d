//! The worker-process side of distributed execution: poll the coordinator's
//! `POST /internal/claim`, factor the leased subtree with the same column
//! loop as a local run, and stream the contribution frame back through
//! `POST /internal/contribute`.
//!
//! The loop is deliberately stateless across tasks apart from a tiny plan
//! cache: every task frame carries the full engine configuration, so a
//! worker that joins (or rejoins) mid-job re-derives the same matrix and
//! symbolic structure and produces bit-identical columns.  A worker that
//! dies simply stops contributing — its lease expires on the coordinator
//! and the task is re-issued, so no worker-side cleanup protocol exists.
//! For the same reason the worker plans and factors on the plain,
//! token-free [`Engine`]: the lease, not a deadline, bounds a task.
//!
//! Between claiming a task and factoring it the loop fires the
//! `parexec:task` fault point — the same point the in-process parallel
//! executor fires — so one `TREEMEM_FAULT_PLAN` spec can chaos-test both
//! execution paths: a `drop` rule makes the worker silently abandon the
//! lease (a simulated crash), a `sleep` rule stalls it past the lease
//! deadline.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use distrib::{contribution_frame, frame_string, ClaimReply, ClaimRequest};
use engine::faultinject::FaultSignal;
use engine::{Engine, PlanCache, DEFAULT_TENANT};

use crate::http::Request;
use crate::service::Service;

/// How a worker reaches its coordinator.  Production workers dial HTTP
/// ([`HttpTransport`]); in-process tests drive a [`Service`] directly
/// ([`InProcessTransport`]).
pub trait Transport {
    /// `POST` one wire frame (frames are ASCII, hence `&str`) to `path`;
    /// returns `(status, body)`.
    fn post(&self, path: &str, frame: &str) -> Result<(u16, String), String>;
}

/// Blocking HTTP transport.  Posts retry with jittered backoff, so a worker
/// started before its coordinator finishes booting keeps dialing through
/// the connection-refused window instead of dying.
pub struct HttpTransport {
    addr: SocketAddr,
    attempts: usize,
}

impl HttpTransport {
    /// A transport dialing `addr`, retrying each post up to 12 times
    /// (with exponential backoff that is more than enough to cover a
    /// coordinator boot).
    pub fn new(addr: SocketAddr) -> HttpTransport {
        HttpTransport { addr, attempts: 12 }
    }
}

impl Transport for HttpTransport {
    fn post(&self, path: &str, frame: &str) -> Result<(u16, String), String> {
        crate::client::post_with_retry(
            self.addr,
            path,
            frame,
            self.attempts,
            Duration::from_secs(2),
        )
        .map(|response| (response.status, response.body))
        .map_err(|error| error.to_string())
    }
}

/// Socket-free transport calling [`Service::handle_request`] directly; the
/// integration seam for single-process tests of the whole protocol.
pub struct InProcessTransport(pub Arc<Service>);

impl Transport for InProcessTransport {
    fn post(&self, path: &str, frame: &str) -> Result<(u16, String), String> {
        let response = self.0.handle_request(&Request {
            method: "POST".to_string(),
            path: path.to_string(),
            headers: Vec::new(),
            body: frame.as_bytes().to_vec(),
        });
        Ok((response.status, response.body))
    }
}

/// Tuning of one worker loop.
pub struct WorkerOptions {
    /// Identity sent with every claim (the coordinator's roster key).
    pub worker_id: String,
    /// Exit after this many *consecutive* idle polls (or unreachable-
    /// coordinator errors); `None` runs forever — the `serve --role worker`
    /// setting.
    pub exit_after_idle_polls: Option<u32>,
    /// Sleep between idle polls and after transport errors.
    pub idle_poll: Duration,
}

impl WorkerOptions {
    /// A long-lived worker named `worker_id`.
    pub fn named(worker_id: &str) -> WorkerOptions {
        WorkerOptions {
            worker_id: worker_id.to_string(),
            exit_after_idle_polls: None,
            idle_poll: Duration::from_millis(50),
        }
    }

    /// Exit once `polls` consecutive claim polls answer idle (test and
    /// batch mode).
    pub fn exit_when_idle(mut self, polls: u32) -> WorkerOptions {
        self.exit_after_idle_polls = Some(polls);
        self
    }
}

/// What one worker loop did before exiting; returned only by bounded
/// (`exit_after_idle_polls`) runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Contributions accepted by the coordinator.
    pub tasks_completed: u64,
    /// Contributions rejected as stale (the lease expired and the task was
    /// re-issued while this worker computed).
    pub stale_rejections: u64,
    /// Tasks abandoned by an injected `drop` fault (simulated crashes).
    pub tasks_dropped: u64,
    /// Tasks whose local factorization failed (lease left to expire).
    pub factor_errors: u64,
    /// Claim or contribute exchanges that failed in transport or decode.
    pub transport_errors: u64,
}

/// Run the claim → factor → contribute loop until the exit policy in
/// `options` fires.  Panics injected via the fault plan propagate (a real
/// worker death); everything else is counted and survived.
pub fn run_worker(transport: &dyn Transport, options: &WorkerOptions) -> WorkerSummary {
    let engine = Engine::new();
    // Two entries: the common case is every task of the current job sharing
    // one configuration, with one slot of slack for back-to-back jobs.
    let plans = PlanCache::new(2, None);
    let mut summary = WorkerSummary::default();
    let mut idle_streak = 0u32;
    loop {
        if let Some(limit) = options.exit_after_idle_polls {
            if idle_streak >= limit {
                return summary;
            }
        }
        let claim = ClaimRequest {
            worker: options.worker_id.clone(),
        }
        .to_frame();
        let claim = frame_string(&claim);
        let reply = match transport.post("/internal/claim", &claim) {
            Ok((200, body)) => match ClaimReply::from_frame(body.as_bytes()) {
                Ok(reply) => reply,
                Err(_) => {
                    summary.transport_errors += 1;
                    idle_streak += 1;
                    std::thread::sleep(options.idle_poll);
                    continue;
                }
            },
            Ok((_, _)) | Err(_) => {
                summary.transport_errors += 1;
                idle_streak += 1;
                std::thread::sleep(options.idle_poll);
                continue;
            }
        };
        let task = match reply {
            ClaimReply::Idle => {
                idle_streak += 1;
                std::thread::sleep(options.idle_poll);
                continue;
            }
            ClaimReply::Wait { retry_ms } => {
                idle_streak = 0;
                std::thread::sleep(Duration::from_millis(retry_ms.clamp(1, 1_000)));
                continue;
            }
            ClaimReply::Task(task) => {
                idle_streak = 0;
                task
            }
        };

        // Chaos seam: `drop` abandons the lease (the coordinator re-issues
        // it after the deadline), `sleep` stalls past it, `panic` kills the
        // worker like a real crash would.
        if matches!(engine::faultinject::fire("parexec:task"), FaultSignal::Drop) {
            summary.tasks_dropped += 1;
            continue;
        }

        let busy = Instant::now();
        let parts = engine::EngineConfig::from_json(&task.config)
            .map_err(|error| error.to_string())
            .and_then(|config| {
                plans
                    .get_or_plan(&engine, &config, DEFAULT_TENANT)
                    .map_err(|error| error.to_string())
            })
            .and_then(|(plan, _)| {
                plan.factor_subtree(&task.order, None)
                    .map_err(|error| error.to_string())
            });
        let parts = match parts {
            Ok(parts) => parts,
            Err(_) => {
                // Contribute nothing: the lease expires and the task is
                // re-issued, possibly to a healthier worker.
                summary.factor_errors += 1;
                continue;
            }
        };
        let frame = contribution_frame(
            task.job,
            task.task,
            task.epoch,
            &options.worker_id,
            busy.elapsed().as_secs_f64(),
            &parts,
        );
        let frame = frame_string(&frame);
        match transport.post("/internal/contribute", &frame) {
            Ok((200, _)) => summary.tasks_completed += 1,
            Ok((409, _)) => summary.stale_rejections += 1,
            Ok((_, _)) | Err(_) => summary.transport_errors += 1,
        }
    }
}
