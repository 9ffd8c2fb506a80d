//! The multi-process scenario: the `serve` binary as a coordinator plus
//! `serve --role worker` processes on loopback factor one
//! nested-dissection grid twice.  A clean pass must reproduce the
//! coordinator's own single-process factor bit for bit (identical
//! `factor_nnz`, bit-identical seeded-solve `max_residual`) under the wire's
//! ceiling of 20 contribution bytes per factor nonzero, expiring and
//! requeueing nothing.  A second clean pass does the same for a
//! MatrixMarket file named by a path relative to the coordinator's working
//! directory, with the workers running in another one: workers factor the
//! slices their tasks carry and never open the source.  A chaos pass then
//! SIGKILLs a worker while it holds a lease: the job must finish through
//! lease re-issue with the same factor, the coordinator's counters must
//! reconcile and no 5xx may leave it.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use engine::json::Json;
use engine::prelude::*;
use server::client;
use sparsemat::gen::ProblemKind;

const NODES: usize = 20_000;
const MATRIX_MARKET_NODES: usize = 4_900;
const TASKS: usize = 8;
/// Far above any healthy task, so the clean pass never expires a lease.
const CLEAN_LEASE_MS: u64 = 30_000;
/// Short, so the killed worker's lease expires quickly.
const CHAOS_LEASE_MS: u64 = 3_000;
/// The coordinator's default request deadline, below the client's read
/// timeout: a wedged cluster answers 504 instead of hanging the test.
const DEADLINE_MS: u64 = 60_000;
const READ_TIMEOUT: Duration = Duration::from_millis(DEADLINE_MS + 30_000);

/// Contributions are values only — 16 hex digits per factor nonzero plus
/// the root blocks and framing — so a row index back on the wire (8 more
/// digits per nonzero) trips this ceiling.
const MAX_WIRE_BYTES_PER_NONZERO: u64 = 20;

/// A spawned `serve` process, killed on drop so a failed assertion leaves
/// no orphaned process behind.
struct Serve(Child);

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let path = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&path).expect("a scratch directory");
        Scratch(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `serve`, run in `dir`.
fn serve(dir: &Path) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_serve"));
    command
        .current_dir(dir)
        .env_remove("TREEMEM_FAULT_PLAN")
        .stdin(Stdio::null());
    command
}

/// Boot a coordinator in `dir` on an ephemeral loopback port and read the
/// bound address from its `serving on http://…` banner.
fn spawn_coordinator(dir: &Path) -> (Serve, SocketAddr) {
    let mut child = serve(dir)
        .args(["--addr", "127.0.0.1:0", "--workers", "4"])
        .args(["--default-deadline-ms", &DEADLINE_MS.to_string()])
        .stdout(Stdio::piped())
        .spawn()
        .expect("the coordinator starts");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let coordinator = Serve(child);
    let mut line = String::new();
    let addr = loop {
        line.clear();
        let read = stdout.read_line(&mut line).expect("coordinator stdout");
        assert!(
            read > 0,
            "the coordinator exited before printing its address"
        );
        if let Some((_, rest)) = line.split_once("http://") {
            let addr = rest.split_whitespace().next().unwrap_or_default();
            break addr.parse().expect("a socket address");
        }
    };
    // Drain further output so the coordinator never blocks on a full pipe.
    std::thread::spawn(move || std::io::copy(&mut stdout, &mut std::io::sink()));
    (coordinator, addr)
}

/// One `serve --role worker` process in `dir`; `fault_plan` arms the
/// child's fault registry.
fn spawn_worker(dir: &Path, addr: SocketAddr, worker_id: &str, fault_plan: Option<&str>) -> Serve {
    let mut command = serve(dir);
    command
        .args(["--role", "worker", "--coordinator", &addr.to_string()])
        .args(["--worker-id", worker_id])
        .stdout(Stdio::null());
    if let Some(plan) = fault_plan {
        command.env("TREEMEM_FAULT_PLAN", plan);
    }
    Serve(command.spawn().expect("a worker starts"))
}

/// A 200 `/report` of `config` to the coordinator: its config hash and
/// parsed body.
fn report(addr: SocketAddr, config: &EngineConfig) -> (String, Json) {
    let response = client::post_with_timeout(addr, "/report", &config.to_json(), READ_TIMEOUT)
        .expect("/report");
    assert_eq!(response.status, 200, "{}", response.body);
    let hash = response.header("x-config-hash").expect("a config hash");
    (hash.to_string(), Json::parse(&response.body).expect("JSON"))
}

/// The identity of a seeded `/solve` against factor `hash`: its nonzero
/// count and the residual's exact bits (`{:e}` round-trips an `f64`, so
/// parsed equality is bit equality).  The residual must be green.
fn solve_identity(addr: SocketAddr, hash: &str) -> (u64, u64) {
    let body = format!("{{\"config_hash\": \"{hash}\", \"count\": 2, \"seed\": 11}}");
    let response = client::post(addr, "/solve", &body).expect("/solve");
    assert_eq!(response.status, 200, "{}", response.body);
    let json = Json::parse(&response.body).expect("JSON");
    let nnz: u64 = json.field("factor_nnz").expect("factor_nnz");
    let residual: f64 = json.field("max_residual").expect("max_residual");
    assert!(residual < 1e-6, "solve residual {residual:e}");
    (nnz, residual.to_bits())
}

/// What every distributed pass holds: at least two workers, the reference
/// factor, and contributions under the wire ceiling.  Returns the
/// `distributed` section.
fn check_distributed(addr: SocketAddr, config: &EngineConfig, reference: (u64, u64)) -> Json {
    let (hash, report) = report(addr, config);
    let section = report.get("distributed").expect("a distributed section");
    let workers: u64 = section.field("workers").expect("workers");
    assert!(workers >= 2, "{workers} workers");
    assert_eq!(solve_identity(addr, &hash), reference, "the merged factor");
    let bytes: u64 = section.field("contribution_bytes").expect("bytes");
    assert!(
        bytes <= MAX_WIRE_BYTES_PER_NONZERO * reference.0,
        "{bytes} contribution bytes for {} factor nonzeros",
        reference.0
    );
    section.clone()
}

/// A distributed section's lease expiries and requeued tasks.
fn requeues(section: &Json) -> [u64; 2] {
    ["lease_expiries", "tasks_requeued"].map(|field| section.field(field).expect(field))
}

/// Wait until job `job` has a claimed task: the victim is the only live
/// worker, so the claim is its lease.
fn wait_for_claim(addr: SocketAddr, job: u64) {
    let deadline = Instant::now() + Duration::from_millis(DEADLINE_MS);
    loop {
        let claimed = client::get(addr, &format!("/internal/job/{job}"))
            .ok()
            .filter(|response| response.status == 200)
            .and_then(|response| Json::parse(&response.body).ok())
            .and_then(|json| json.get("claimed").and_then(Json::as_u64))
            .unwrap_or(0);
        if claimed >= 1 {
            return;
        }
        assert!(Instant::now() < deadline, "job {job} saw no claim");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn worker_processes_reproduce_the_single_process_factor_across_a_killed_worker() {
    let base = EngineConfig::generated(ProblemKind::Grid2d, NODES, 42)
        .with_ordering(OrderingMethod::NestedDissection)
        .with_numeric(true);
    let distributed = |lease_ms| {
        base.clone()
            .with_distributed(DistributedConfig::with_tasks(TASKS).with_lease_ms(lease_ms))
    };

    // The coordinator and the workers run in different directories.
    let coordinator_dir = Scratch::new("treemem-multiprocess-coordinator");
    let worker_dir = Scratch::new("treemem-multiprocess-workers");
    let (coordinator, addr) = spawn_coordinator(&coordinator_dir.0);
    let worker = |id, fault_plan| spawn_worker(&worker_dir.0, addr, id, fault_plan);
    // The coordinator's own sequential factor is the reference.
    let (hash, _) = report(addr, &base);
    let reference = solve_identity(addr, &hash);

    // Clean pass: both workers alive, a lease no healthy worker can miss.
    let workers = ["w0", "w1"].map(|id| worker(id, None));
    let clean = check_distributed(addr, &distributed(CLEAN_LEASE_MS), reference);
    assert_eq!(requeues(&clean), [0, 0], "lease expiries, requeues");

    // MatrixMarket pass: a file only the coordinator can open, named
    // relative to its working directory.
    let pattern = ProblemKind::Grid2d.generate(MATRIX_MARKET_NODES, 42);
    std::fs::write(
        coordinator_dir.0.join("grid.mtx"),
        sparsemat::matrixmarket::write_pattern(&pattern),
    )
    .expect("the MatrixMarket file");
    let local = EngineConfig::matrix_market("grid.mtx")
        .with_ordering(OrderingMethod::NestedDissection)
        .with_numeric(true);
    let (hash, _) = report(addr, &local);
    let file_reference = solve_identity(addr, &hash);
    let sharded =
        local.with_distributed(DistributedConfig::with_tasks(TASKS).with_lease_ms(CLEAN_LEASE_MS));
    let file_pass = check_distributed(addr, &sharded, file_reference);
    assert_eq!(requeues(&file_pass), [0, 0], "lease expiries, requeues");

    // Chaos pass: retire the healthy workers, hand the job to a victim that
    // stalls on its first claim, SIGKILL it while it holds the lease, then
    // let fresh workers finish the job through lease re-issue.  Jobs number
    // from 1 per coordinator: the clean passes were jobs 1 and 2.
    drop(workers);
    let victim = worker("w-victim", Some("sleep:600000@parexec:task"));
    let chaos = std::thread::scope(|scope| {
        let pass = scope.spawn(|| check_distributed(addr, &distributed(CHAOS_LEASE_MS), reference));
        wait_for_claim(addr, 3);
        drop(victim);
        let _replacements = ["w2", "w3"].map(|id| worker(id, None));
        pass.join().expect("the chaos pass")
    });
    let [expiries, requeued] = requeues(&chaos);
    assert!(
        expiries >= 1 && requeued >= 1,
        "{expiries} expiries, {requeued} requeues"
    );

    // The coordinator's books: no orphaned lease, every job completed, and
    // the killed worker caused no 5xx.
    let stats = client::get(addr, "/stats").expect("/stats");
    let stats = Json::parse(&stats.body).expect("stats are JSON");
    let cluster = stats.get("cluster").expect("a cluster section");
    let count = |field| cluster.field::<u64>(field).expect(field);
    assert_eq!(
        count("tasks_claimed"),
        count("tasks_completed") + count("lease_expiries"),
        "orphaned leases"
    );
    assert_eq!(count("jobs_completed"), count("jobs_started"));
    let responses = stats.get("responses").expect("a responses section");
    assert_eq!(responses.field::<u64>("status_5xx").ok(), Some(0));
    drop(coordinator);
}
