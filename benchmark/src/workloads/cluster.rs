//! The in-process cluster of `report_dist2`: a coordinator
//! `Server::spawn(workers: 4)` plus two `run_worker` threads dialing it over
//! loopback HTTP, behind a transport wrapper that lets the harness stop the
//! workers and, in the traced run, times every post and captures one task
//! and one contribution frame.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use server::worker::{run_worker, HttpTransport, Transport, WorkerOptions, WorkerSummary};
use server::{Server, ServerConfig, ServerHandle};

/// Worker threads of the cluster.
const WORKERS: usize = 2;

/// The workers' idle poll interval (`WorkerOptions::named`'s default).
const IDLE_POLL: Duration = Duration::from_millis(50);

/// One post a worker made, as the wrapper saw it.
#[derive(Debug, Clone)]
pub struct PostEvent {
    /// `/internal/claim` (true) or `/internal/contribute` (false).
    pub claim: bool,
    /// A claim answered `idle`: waiting, not work.
    pub idle: bool,
    /// When the post started.
    pub start: Instant,
    /// When the reply was in.
    pub end: Instant,
    /// Request plus response frame bytes.
    pub bytes: usize,
}

/// State shared between the harness and the workers' transports.
#[derive(Default)]
pub struct Tap {
    stop: AtomicBool,
    capture: AtomicBool,
    events: Mutex<Vec<PostEvent>>,
    task_frame: Mutex<Option<String>>,
    contribution_frame: Mutex<Option<String>>,
}

impl Tap {
    /// Start or stop recording posts and capturing frames (traced run only).
    pub fn set_capture(&self, on: bool) {
        self.capture.store(on, Ordering::SeqCst);
    }

    /// Take the posts recorded since the last call.
    pub fn take_events(&self) -> Vec<PostEvent> {
        std::mem::take(&mut *self.events.lock().expect("tap poisoned"))
    }

    /// Take the most recent captured task reply frame.
    pub fn take_task_frame(&self) -> Option<String> {
        self.task_frame.lock().expect("tap poisoned").take()
    }

    /// Take the most recent captured contribution frame.
    pub fn take_contribution_frame(&self) -> Option<String> {
        self.contribution_frame.lock().expect("tap poisoned").take()
    }
}

/// `HttpTransport` behind the tap.
///
/// `run_worker` can only be ended through its idle-poll limit, so the
/// workers run with a limit of one and this wrapper keeps idle replies from
/// them: an `idle` claim is re-polled here after the same 50 ms pause the
/// worker loop would take, until the harness raises `stop`; from then on
/// every post fails at once and the worker returns.
struct TappedTransport {
    inner: HttpTransport,
    tap: Arc<Tap>,
}

impl Transport for TappedTransport {
    fn post(&self, path: &str, frame: &str) -> Result<(u16, String), String> {
        let claim = path == "/internal/claim";
        loop {
            if self.tap.stop.load(Ordering::SeqCst) {
                return Err("the benchmark is stopping its workers".to_string());
            }
            let start = Instant::now();
            let reply = self.inner.post(path, frame)?;
            let end = Instant::now();
            let idle = claim && reply.1.len() < 128 && reply.1.contains("\"type\": \"idle\"");
            if self.tap.capture.load(Ordering::SeqCst) {
                self.tap
                    .events
                    .lock()
                    .expect("tap poisoned")
                    .push(PostEvent {
                        claim,
                        idle,
                        start,
                        end,
                        bytes: frame.len() + reply.1.len(),
                    });
                if claim && reply.1.contains("\"type\": \"task\"") {
                    *self.tap.task_frame.lock().expect("tap poisoned") = Some(reply.1.clone());
                } else if !claim {
                    *self.tap.contribution_frame.lock().expect("tap poisoned") =
                        Some(frame.to_string());
                }
            }
            if !idle {
                return Ok(reply);
            }
            std::thread::sleep(IDLE_POLL);
        }
    }
}

/// A running coordinator with its workers.
pub struct Cluster {
    /// The coordinator.
    pub server: ServerHandle,
    /// The workers' tap.
    pub tap: Arc<Tap>,
    workers: Vec<JoinHandle<WorkerSummary>>,
}

impl Cluster {
    /// Spawn the coordinator and [`WORKERS`] worker threads.
    pub fn spawn() -> Result<Cluster, String> {
        let server = Server::spawn(ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        })
        .map_err(|e| format!("cannot spawn the coordinator: {e}"))?;
        let tap = Arc::new(Tap::default());
        let addr = server.addr();
        let workers = (0..WORKERS)
            .map(|index| {
                let tap = tap.clone();
                std::thread::Builder::new()
                    .name(format!("bench-worker-{index}"))
                    .spawn(move || {
                        let transport = TappedTransport {
                            inner: HttpTransport::new(addr),
                            tap,
                        };
                        let mut options = WorkerOptions::named(&format!("bench-worker-{index}"))
                            .exit_when_idle(1);
                        options.idle_poll = Duration::from_millis(1);
                        run_worker(&transport, &options)
                    })
                    .map_err(|e| format!("cannot spawn worker {index}: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Cluster {
            server,
            tap,
            workers,
        })
    }

    /// Stop the workers, join them, and shut the coordinator down.
    pub fn shutdown(self) -> Result<(), String> {
        self.tap.stop.store(true, Ordering::SeqCst);
        for worker in self.workers {
            worker
                .join()
                .map_err(|_| "a worker thread panicked".to_string())?;
        }
        self.server
            .shutdown()
            .map_err(|e| format!("coordinator shutdown failed: {e}"))
    }
}
