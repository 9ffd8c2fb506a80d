//! `serve` — boot the factorization service from the command line.
//!
//! ```text
//! serve [--addr HOST:PORT] [--workers N] [--cache-policy NAME]
//!       [--cache-bytes N] [--factor-cache-bytes N]
//!       [--tenant-quota-bytes N] [--tenant-floor F]
//!       [--cache-ttl-seconds S] [--max-body-bytes N]
//!       [--default-deadline-ms MS] [--max-deadline-ms MS]
//! serve --role worker --coordinator HOST:PORT [--worker-id NAME]
//! ```
//!
//! Caches are sized in **bytes** (`--cache-bytes` for plans,
//! `--factor-cache-bytes` for factors) and evict through `--cache-policy`
//! `LRU`, `GDSF` or `S3FIFO` (`GDSF` by default for a byte-sized cache);
//! without a byte budget a cache is a count-bounded LRU (64 plans, 8
//! factors) under a 96 MiB byte ceiling.  Any other policy name is a boot
//! error listing the three.
//!
//! The default role, `coordinator`, binds (port 0 picks an ephemeral port,
//! printed on stdout) and serves until the process is terminated.  See the
//! README's "Serving" and "Distributed execution" sections for the endpoint
//! reference and example sessions.
//!
//! `--role worker` runs no listener at all: the process polls the named
//! coordinator's `/internal/claim`, factors leased subtree tasks, and
//! streams contributions back until killed.
//!
//! Setting the `TREEMEM_FAULT_PLAN` environment variable arms the
//! fault-injection registry at boot (chaos testing only; the format is
//! `action@point#nth[,...]`, e.g. `sleep:40@plan:ordering,panic@execute:numeric#2`).
//! Worker processes honor it too — `drop@parexec:task` makes a worker
//! abandon leases, the chaos harness's simulated crash.

// A panic here turns one bad request into a dead worker or a poisoned lock:
// handle the error, or `#[expect]` the lint with a reason.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::net::{SocketAddr, ToSocketAddrs};
use std::time::Duration;

use server::worker::{run_worker, HttpTransport, WorkerOptions};
use server::{Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: serve [--addr HOST:PORT] [--workers N] [--cache-policy NAME]\n\
         \x20      [--cache-bytes N] [--factor-cache-bytes N]\n\
         \x20      [--tenant-quota-bytes N] [--tenant-floor F]\n\
         \x20      [--cache-ttl-seconds S] [--max-body-bytes N]\n\
         \x20      [--default-deadline-ms MS] [--max-deadline-ms MS]\n\
         \x20  or: serve --role worker --coordinator HOST:PORT [--worker-id NAME]\n\
         cache policies: LRU, GDSF, S3FIFO"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> T
where
    T::Err: std::fmt::Display,
{
    let Some(value) = value else {
        eprintln!("serve: {flag} needs a value");
        usage();
    };
    value.parse().unwrap_or_else(|error| {
        eprintln!("serve: invalid value '{value}' for {flag}: {error}");
        usage();
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = ServerConfig {
        addr: "127.0.0.1:8080".to_string(),
        ..ServerConfig::default()
    };
    let mut role = "coordinator".to_string();
    let mut coordinator: Option<String> = None;
    let mut worker_id: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--role" => role = parse("--role", iter.next()),
            "--coordinator" => coordinator = Some(parse("--coordinator", iter.next())),
            "--worker-id" => worker_id = Some(parse("--worker-id", iter.next())),
            "--addr" => config.addr = parse("--addr", iter.next()),
            "--workers" => config.workers = parse("--workers", iter.next()),
            "--cache-policy" => {
                config.cache.policy = Some(parse("--cache-policy", iter.next()));
            }
            "--cache-bytes" => {
                config.cache.plan_bytes = Some(parse("--cache-bytes", iter.next()));
            }
            "--factor-cache-bytes" => {
                config.cache.factor_bytes = Some(parse("--factor-cache-bytes", iter.next()));
            }
            "--tenant-quota-bytes" => {
                config.cache.tenant_quota_bytes = Some(parse("--tenant-quota-bytes", iter.next()));
            }
            "--tenant-floor" => {
                let floor: f64 = parse("--tenant-floor", iter.next());
                if !(0.0..=1.0).contains(&floor) {
                    eprintln!("serve: --tenant-floor must be within [0, 1], got {floor}");
                    usage();
                }
                config.cache.tenant_floor = floor;
            }
            "--cache-ttl-seconds" => {
                config.cache_ttl = Some(Duration::from_secs(parse(
                    "--cache-ttl-seconds",
                    iter.next(),
                )));
            }
            "--max-body-bytes" => config.max_body_bytes = parse("--max-body-bytes", iter.next()),
            "--default-deadline-ms" => {
                config.default_deadline = Some(Duration::from_millis(parse(
                    "--default-deadline-ms",
                    iter.next(),
                )));
            }
            "--max-deadline-ms" => {
                config.max_deadline = Some(Duration::from_millis(parse(
                    "--max-deadline-ms",
                    iter.next(),
                )));
            }
            _ => usage(),
        }
    }
    if let Ok(spec) = std::env::var("TREEMEM_FAULT_PLAN") {
        match engine::faultinject::parse_plan(&spec) {
            Ok(rules) => {
                eprintln!(
                    "serve: TREEMEM_FAULT_PLAN armed {} fault rule(s)",
                    rules.len()
                );
                engine::faultinject::install(rules);
            }
            Err(error) => {
                eprintln!("serve: invalid TREEMEM_FAULT_PLAN '{spec}': {error}");
                std::process::exit(2);
            }
        }
    }
    match role.as_str() {
        "coordinator" => {}
        "worker" => run_worker_role(coordinator, worker_id),
        other => {
            eprintln!("serve: unknown role '{other}' (coordinator or worker)");
            usage();
        }
    }
    let workers = config.workers;
    let handle = Server::spawn(config).unwrap_or_else(|error| {
        eprintln!("serve: cannot bind: {error}");
        std::process::exit(1);
    });
    println!(
        "serving on http://{} ({workers} workers); endpoints: \
         POST /plan /schedule /report /solve, GET /healthz /stats",
        handle.addr()
    );
    // Serve until the process is killed; the handle's Drop tears the
    // listener and workers down if the main thread ever unwinds.
    loop {
        std::thread::park();
    }
}

/// `--role worker`: resolve the coordinator address and run the claim loop
/// until the process is killed.  Never returns.
fn run_worker_role(coordinator: Option<String>, worker_id: Option<String>) -> ! {
    let Some(coordinator) = coordinator else {
        eprintln!("serve: --role worker needs --coordinator HOST:PORT");
        usage();
    };
    let addr: SocketAddr = coordinator
        .to_socket_addrs()
        .ok()
        .and_then(|mut addrs| addrs.next())
        .unwrap_or_else(|| {
            eprintln!("serve: cannot resolve coordinator address '{coordinator}'");
            std::process::exit(1);
        });
    let worker_id = worker_id.unwrap_or_else(|| format!("worker-{}", std::process::id()));
    println!("worker '{worker_id}' polling http://{addr}");
    let transport = HttpTransport::new(addr);
    // Unbounded: a long-lived worker survives coordinator restarts and idle
    // stretches alike, and dies only with the process.
    run_worker(&transport, &WorkerOptions::named(&worker_id));
    // An unbounded claim loop never exits; returning here means something is
    // deeply wrong, so fail the process rather than limp on.
    eprintln!("serve: worker claim loop exited unexpectedly");
    std::process::exit(1);
}
