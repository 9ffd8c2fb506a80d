//! # server — factorization-as-a-service over the engine facade
//!
//! A dependency-free HTTP/1.1 JSON service on `std::net::TcpListener` that
//! puts the `engine` crate's typed `EngineConfig → Plan → Schedule → Report`
//! pipeline behind a network boundary: a request body is a configuration, a
//! response body is a report, and identical configurations hit a shared
//! [`engine::PlanCache`] instead of re-running the ordering and symbolic
//! stages.
//!
//! ## Endpoints
//!
//! | method & path     | body            | result |
//! |-------------------|-----------------|--------|
//! | `POST /plan`      | `EngineConfig`  | effective-config hash, node counts, cache disposition |
//! | `POST /schedule`  | `EngineConfig`  | traversal peak, memory budget, I/O volume, divisible bound |
//! | `POST /report`    | `EngineConfig`  | the full `engine_report/v1` document |
//! | `POST /solve`     | solve request   | batched triangular solves against a cached factor |
//! | `GET /healthz`    | —               | liveness probe |
//! | `GET /stats`      | —               | cache hit rates, in-flight count, per-stage latency percentiles, cluster counters |
//! | `POST /internal/claim` | claim frame | lease one subtree task of a distributed job to a worker |
//! | `POST /internal/contribute` | contribution frame | absorb a worker's factored subtree columns and blocks |
//! | `GET /internal/job/{id}` | —        | progress of one live distributed job |
//!
//! A `/report` whose configuration enables the `distributed` section does
//! not factor locally: the coordinator parks the cut's subtree tasks in a
//! job registry, worker *processes* (`serve --role worker`) claim and
//! factor them under leased budget reservations, and the request blocks
//! until the merged — bit-identical — factor is assembled (see
//! [`worker`] and the `distrib` crate).
//!
//! `POST` responses carry `X-Cache: hit|miss` and `X-Config-Hash` headers;
//! a cache-hit report is identical to the cold-path report for the same
//! configuration except for wall-clock timings.
//!
//! A numeric `/report` deposits its Cholesky factor in a bounded
//! [`engine::CacheCore`], keyed by effective-config hash and charged
//! [`engine::FactorHandle::approx_heap_bytes`].  A later sequential
//! `/report` of the same configuration whose plan and factor are both
//! cached is served from that factor: no numeric stage runs (its
//! `numeric_seconds` is 0 and `/stats` records no `numeric` sample), a
//! `solve` section runs against the factor, and only `timings` differ from
//! the cold report.  Parallel and distributed reports always execute —
//! their sections are runtime measurements.  `POST /solve` names a report's `X-Config-Hash` in its
//! body (`{"config_hash": "...", "count": 8}` or explicit `"vectors"`) and
//! gets the batched solve — both triangular sweeps walk the factor once
//! for the whole batch — without re-running the factorization.  An unknown
//! hash is a 404 (`X-Cache: miss`).
//!
//! Connections are accepted on one thread and queued on a bounded
//! [`std::sync::mpsc::sync_channel`] for a fixed set of worker threads; a
//! connection that finds the queue full is answered `503` at once.
//! Malformed requests (bad HTTP framing, invalid JSON, unknown names, depth
//! bombs) are answered with 4xx JSON errors, and a handler panic is
//! contained to a 500 on that connection.
//!
//! ```no_run
//! use server::{Server, ServerConfig};
//!
//! let handle = Server::spawn(ServerConfig::default()).unwrap();
//! println!("serving on http://{}", handle.addr());
//! handle.shutdown().unwrap();
//! ```

pub mod client;
pub mod http;
pub mod service;
pub mod stats;
pub mod worker;

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

use engine::{CacheConfig, CacheCore, CachePolicy, PlanCache};
use treemem::sync::TrackedMutex;

use crate::http::{read_request, write_response, HttpError};
use crate::service::{Response, Service};

/// Tuning knobs of a [`Server`]; `Default` is sized for local use.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (the bound address is on
    /// the [`ServerHandle`]).
    pub addr: String,
    /// Worker threads executing requests (at least 1).
    pub workers: usize,
    /// Maximum number of cached plans.
    pub cache_capacity: usize,
    /// Optional time-to-live of a cached plan.
    pub cache_ttl: Option<Duration>,
    /// Maximum number of cached Cholesky factors (`POST /solve` resolves
    /// against this cache).  Factors are much bigger than plans, so the
    /// default is deliberately small.
    pub factor_cache_capacity: usize,
    /// Largest accepted request body, in bytes (prebuilt-tree configurations
    /// inline three arrays per node, so this is generous by default).
    pub max_body_bytes: usize,
    /// Maximum number of accepted connections waiting for a worker; beyond
    /// it, new connections are answered `503` immediately instead of
    /// growing the queue (and the open-socket count) without bound.
    pub max_backlog: usize,
    /// Deadline applied to requests that name none (header or body);
    /// `None` means such requests run unbounded.
    pub default_deadline: Option<Duration>,
    /// Ceiling on every request deadline.  When set, even requests that
    /// ask for no deadline are bounded by it, and requested deadlines are
    /// clamped down to it.
    pub max_deadline: Option<Duration>,
    /// Byte-sized cache settings; the default keeps the count-bounded LRUs
    /// of `cache_capacity` / `factor_cache_capacity`, each under the
    /// default byte ceiling [`CacheSettings`] describes.
    pub cache: CacheSettings,
}

/// The `cache` section of the boot configuration: policy selection, byte
/// budgets, and tenant quotas for the plan and factor caches.
///
/// `Default` leaves everything unset, which keeps the caches count-bounded
/// LRUs under a default byte ceiling (96 MiB each): whichever bound is
/// reached first evicts, least recently used first.  Setting a byte budget
/// switches the corresponding cache to that budget under `policy` (default
/// `GDSF`), replacing the entry bound and the ceiling.  Either way
/// `bytes_used` is what the entries hold now: a plan is charged at insert
/// and charged again once a numeric `/report` has attached its numeric
/// substrate to it.
#[derive(Debug, Clone, Default)]
pub struct CacheSettings {
    /// Eviction policy of both caches.  `None` picks `GDSF` for a cache
    /// with a byte budget and `LRU` for a count-bounded one.
    pub policy: Option<CachePolicy>,
    /// Byte budget of the plan cache; `None` keeps the entry bound of
    /// [`ServerConfig::cache_capacity`].
    pub plan_bytes: Option<u64>,
    /// Byte budget of the factor cache; `None` keeps the entry bound of
    /// [`ServerConfig::factor_cache_capacity`].
    pub factor_bytes: Option<u64>,
    /// Per-tenant byte quota on each cache (over-quota inserts are
    /// admitted but uncacheable).
    pub tenant_quota_bytes: Option<u64>,
    /// Fair-share floor fraction in `[0, 1]`: a tenant holding no more
    /// than `floor × capacity / active_tenants` bytes cannot be evicted
    /// by other tenants' traffic.
    pub tenant_floor: f64,
}

/// Byte ceiling of a cache whose budget is unset, plan and factor cache
/// alike: the entry bound still applies, but LRU eviction starts before the
/// charged bytes pass this.  An entry count alone bounds no memory — 64
/// numeric plans of a 3×10⁴-vertex grid are 760 MiB — and it made a
/// coordinator's RSS grow by ~13 MiB per distinct job it had ever seen.
/// Why 96 MiB, measured on the benchmark of record (ISSUE 24, CHANGES.md):
/// at 64 MiB `serve_mixed`, whose 64 hot entries hold ~113 MiB of plans,
/// loses plan hit ratio (0.828 against 0.861); at 96 MiB it keeps the
/// unbounded cache's (0.864) within noise, and `report_dist2` reads the
/// unbounded cache's RSS (325 against 337 MiB) with three times the jobs in
/// its window.  One entry larger than the ceiling is served but not cached;
/// set `plan_bytes` / `factor_bytes` for problems of that size.
const DEFAULT_CACHE_BYTES: u64 = 96 << 20;

impl CacheSettings {
    /// The [`CacheConfig`] of one cache: `bytes` is its byte budget, if one
    /// is set; otherwise the `entries` bound applies under
    /// `DEFAULT_CACHE_BYTES`.
    fn cache_config(
        &self,
        bytes: Option<u64>,
        entries: usize,
        ttl: Option<Duration>,
    ) -> CacheConfig {
        let by_size = match bytes {
            Some(_) => CachePolicy::Gdsf,
            None => CachePolicy::Lru,
        };
        CacheConfig {
            policy: self.policy.unwrap_or(by_size),
            bytes_capacity: bytes.unwrap_or(DEFAULT_CACHE_BYTES),
            max_entries: bytes.is_none().then_some(entries.max(1)),
            ttl,
            tenant_quota_bytes: self.tenant_quota_bytes,
            tenant_floor: self.tenant_floor,
        }
    }
}

/// Per-connection socket read/write timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: engine::parallel::default_threads(usize::MAX),
            cache_capacity: 64,
            cache_ttl: None,
            factor_cache_capacity: 8,
            max_body_bytes: 64 * 1024 * 1024,
            max_backlog: 1024,
            default_deadline: None,
            max_deadline: None,
            cache: CacheSettings::default(),
        }
    }
}

/// The server factory; see the crate docs.  All the state lives in the
/// [`ServerHandle`] returned by [`Server::spawn`].
pub struct Server;

impl Server {
    /// Bind `config.addr`, spawn the worker threads plus the accept thread,
    /// and return the handle used to query the bound address and to stop
    /// the server.  A thread that cannot be spawned fails the boot.
    pub fn spawn(config: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let plan_cache = PlanCache::with_config(config.cache.cache_config(
            config.cache.plan_bytes,
            config.cache_capacity,
            config.cache_ttl,
        ));
        let factor_cache = CacheCore::new(
            config.cache.cache_config(
                config.cache.factor_bytes,
                config.factor_cache_capacity,
                None,
            ),
            "factor-cache.inner",
        );
        let service = Arc::new(
            Service::new(plan_cache, factor_cache, workers)
                .with_deadlines(config.default_deadline, config.max_deadline),
        );
        let shutdown = Arc::new(AtomicBool::new(false));

        // Every queued connection holds an open socket, so the queue is
        // bounded: a flood of idle connections is shed with 503s instead of
        // exhausting file descriptors long before any worker times out.
        let (queue, connections) = mpsc::sync_channel::<TcpStream>(config.max_backlog.max(1));
        let connections = Arc::new(TrackedMutex::new(connections, "server.connections"));
        let max_body_bytes = config.max_body_bytes;
        let worker_threads = (0..workers)
            .map(|index| {
                let (service, connections) = (service.clone(), connections.clone());
                std::thread::Builder::new()
                    .name(format!("worker-{index}"))
                    .spawn(move || loop {
                        let received = connections.lock().recv();
                        // The accept thread dropped the sender: the queue is
                        // drained, so this worker is done.
                        let Ok(stream) = received else { break };
                        // Contain panics outside the handler's own
                        // `catch_unwind` too, so none retires a worker.
                        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            handle_connection(&service, stream, max_body_bytes)
                        }));
                    })
            })
            .collect::<std::io::Result<Vec<_>>>()?;

        let accept_service = service.clone();
        let accept_shutdown = shutdown.clone();
        let accept_thread = std::thread::Builder::new()
            .name("server-accept".to_string())
            .spawn(move || {
                for connection in listener.incoming() {
                    if accept_shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = connection else { continue };
                    let stats = accept_service.stats();
                    stats.accepted_total.fetch_add(1, Ordering::Relaxed);
                    let Err(
                        mpsc::TrySendError::Full(mut stream)
                        | mpsc::TrySendError::Disconnected(mut stream),
                    ) = queue.try_send(stream)
                    else {
                        continue;
                    };
                    let response = Response::error(503, "server overloaded, retry later");
                    stats.count_response(response.status);
                    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
                    let _ = write_response(
                        &mut stream,
                        response.status,
                        &[("Retry-After", "1")],
                        &response.body,
                    );
                    // The request was never read, so close gracefully (same
                    // reset-vs-response race as in `handle_connection`, with a
                    // tighter budget to keep the accept thread responsive).
                    graceful_close(&stream, Duration::from_millis(10));
                }
            })?;

        Ok(ServerHandle {
            addr,
            service,
            shutdown,
            accept_thread: Some(accept_thread),
            worker_threads,
        })
    }
}

/// A running server: the bound address plus the shutdown switch.
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<Service>,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    worker_threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound socket address (resolves port 0 to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service (stats and cache counters), mainly for tests and
    /// the load generator.
    pub fn service(&self) -> &Service {
        &self.service
    }

    /// Stop accepting, finish the queued and in-flight requests, and join
    /// every thread.  Idempotent-ish: safe to call once; dropping the handle
    /// without calling it stops the server the same way.
    pub fn shutdown(mut self) -> std::io::Result<()> {
        self.stop()
    }

    fn stop(&mut self) -> std::io::Result<()> {
        let Some(accept_thread) = self.accept_thread.take() else {
            return Ok(());
        };
        self.shutdown.store(true, Ordering::SeqCst);
        // The accept loop blocks in `accept`; poke it awake with a throwaway
        // connection so it observes the flag.  A wildcard bind address
        // (0.0.0.0 / ::) is not connectable on every platform, so the wake
        // connection targets the loopback of the same family instead.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
        // The accept thread owns the queue's sender: once it has exited, the
        // workers drain what is queued and stop.
        let accepted = accept_thread.join();
        let workers = self.worker_threads.drain(..).map(JoinHandle::join);
        workers
            .fold(accepted, Result::and)
            .map_err(|_| std::io::Error::other("a server thread panicked"))
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// Serve one connection: read a request, execute it (panics contained to a
/// 500), write the single response, close.
fn handle_connection(service: &Service, mut stream: TcpStream, max_body_bytes: usize) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    service.stats().in_flight.fetch_add(1, Ordering::SeqCst);
    let parsed = read_request(&mut stream, max_body_bytes);
    let request_unread = parsed.is_err();
    let response = match parsed {
        Ok(request) => {
            match std::panic::catch_unwind(AssertUnwindSafe(|| service.handle_request(&request))) {
                Ok(response) => response,
                Err(_) => {
                    let response = Response::error(500, "request handler panicked");
                    service.stats().count_response(response.status);
                    response
                }
            }
        }
        Err(HttpError { status, message }) => {
            let response = Response::error(status, &message);
            service.stats().count_response(response.status);
            response
        }
    };
    let mut headers: Vec<(&str, &str)> = Vec::new();
    if let Some(hit) = response.cache_hit {
        headers.push(("X-Cache", if hit { "hit" } else { "miss" }));
    }
    if let Some(hash) = &response.config_hash {
        headers.push(("X-Config-Hash", hash));
    }
    if response.status == 503 || response.status == 504 {
        // Both are transient: shed load and expired deadlines clear on
        // retry (a 504's plan may even be cached by then).
        headers.push(("Retry-After", "1"));
    }
    let _ = write_response(&mut stream, response.status, &headers, &response.body);
    // The request is done before the peer is released: the decrement must
    // happen-before the FIN below, so a client that saw our EOF never
    // observes itself still counted in `/stats`.
    service.stats().in_flight.fetch_sub(1, Ordering::SeqCst);
    // Half-close so the peer's read loop sees EOF immediately...
    let _ = stream.shutdown(std::net::Shutdown::Write);
    if request_unread {
        // ...and when the request was rejected before its body was fully
        // read (413 and friends), drain briefly so the leftover bytes do
        // not turn the close into a reset that races the response.
        graceful_close(&stream, Duration::from_millis(50));
    }
}

/// Drain leftover unread request bytes before the socket is dropped, so the
/// close does not become a TCP reset that races (and can destroy) the
/// just-written response.  Bounded in both time (per-read timeout) and
/// volume, so a peer trickling an endless body cannot pin the caller.
fn graceful_close(mut stream: &TcpStream, read_timeout: Duration) {
    let _ = stream.set_read_timeout(Some(read_timeout));
    let mut sink = [0u8; 1024];
    let mut budget = 64 * 1024usize;
    while budget > 0 {
        match stream.read(&mut sink) {
            Ok(n) if n > 0 => budget = budget.saturating_sub(n),
            _ => break,
        }
    }
}
