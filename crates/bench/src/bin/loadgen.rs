//! `loadgen` — correctness scenarios against real servers over loopback
//! TCP.  It checks; it does not measure: the benchmark of record
//! (`benchmark/` at the repository root) times the served paths.
//!
//! `loadgen chaos|distributed|traces [--quick]`; every mode prints one
//! verdict line per invariant and exits non-zero if any failed.
//!
//! * `chaos` boots `server::Server` in-process, arms a six-rule fault plan
//!   and fires ≥ 220 mixed requests (sequential, numeric, parallel,
//!   prebuilt, plan-only, `/solve`) with client-side retries while a
//!   sidecar thread polls `/healthz`.  Every failure must be an absorbed
//!   injected fault, every 200 report must equal an uninjected reference,
//!   and the parallel ledger budget must hold.  With the faults cleared,
//!   every configuration serves again, hits the cache and still matches the
//!   reference, and a cold 10⁵-node `/report` under `X-Deadline-Ms: 50`
//!   answers 504 promptly and then 200.
//! * `distributed` spawns the `serve` binary as a coordinator plus two
//!   `--role worker` processes, factors a nested-dissection grid (10⁶ nodes
//!   full, 10⁵ quick) through them, and gates the merged factor's
//!   bit-identity against a single-process reference (identical
//!   `factor_nnz`, bit-identical seeded-solve `max_residual`) and the wire's
//!   ceiling of 20 contribution bytes per factor nonzero.  A chaos pass then
//!   SIGKILLs a lease-holding worker mid-job and requires the job to finish
//!   via lease re-issue with zero orphaned leases and zero non-injected 5xx.
//! * `traces` replays the seeded {trace × policy × byte capacity} cache
//!   matrix plus a two-tenant HTTP pass (see `bench::traces`), pins the
//!   quick matrix to `crates/bench/data/cache_reference.json` with
//!   `--check` (`--write-reference` regenerates it), and is the one mode
//!   that writes a file: `BENCH_cache.json` under `results/` (or
//!   `TREEMEM_RESULTS_DIR`), or `--out PATH`.
//!
//! The wall-clock comparisons left are robustness bounds, not speed claims:
//! the deadline probe's answer time (0.1 s full, 1 s quick), and the lease,
//! claim-wait and deadline budgets `distributed` runs its jobs under.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use engine::json::{self, Json};
use engine::prelude::*;
use server::client::{self, ClientResponse};
use server::{Server, ServerConfig, ServerHandle};
use sparsemat::gen::ProblemKind;

const USAGE: &str = "usage: loadgen chaos|distributed|traces [--quick] \
                     (traces also: --check, --write-reference, --out PATH)";

/// Plan-cache capacity of the in-process servers.
const CACHE_CAPACITY: usize = 16;

/// End the run: the scenario cannot continue (a transport failure, a binary
/// that will not boot).  Failed invariants go through [`Verdicts`] instead.
fn die(message: impl std::fmt::Display) -> ! {
    eprintln!("loadgen: {message}");
    std::process::exit(1);
}

fn usage(problem: &str) -> ! {
    eprintln!("loadgen: {problem}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// The invariants one mode checks, in the order first checked, each with
/// the failures recorded against it.
#[derive(Default)]
struct Verdicts(Vec<(&'static str, Vec<String>)>);

impl Verdicts {
    fn failures(&mut self, invariant: &'static str) -> &mut Vec<String> {
        let at = match self.0.iter().position(|(name, _)| *name == invariant) {
            Some(at) => at,
            None => {
                self.0.push((invariant, Vec::new()));
                self.0.len() - 1
            }
        };
        &mut self.0[at].1
    }

    /// Record one check of `invariant`; `failure` says what broke it.
    fn check(&mut self, invariant: &'static str, ok: bool, failure: impl FnOnce() -> String) {
        let failures = self.failures(invariant);
        if !ok {
            let failure = failure();
            eprintln!("loadgen: VIOLATION: {invariant}: {failure}");
            failures.push(failure);
        }
    }

    /// Record a check of `invariant` that failed once per entry of
    /// `failures` (none: it held).
    fn check_all(&mut self, invariant: &'static str, failures: &[String]) {
        self.failures(invariant);
        for failure in failures {
            self.check(invariant, false, || failure.clone());
        }
    }

    /// Fold in the verdicts a helper thread recorded.
    fn merge(&mut self, other: Verdicts) {
        for (invariant, failures) in other.0 {
            self.failures(invariant).extend(failures);
        }
    }

    /// Print one verdict line per invariant; exit 1 if any failed.
    fn finish(self, mode: &str) {
        for (invariant, failures) in &self.0 {
            match failures.first() {
                None => println!("loadgen: PASS {invariant}"),
                Some(first) => println!(
                    "loadgen: FAIL {invariant} ({} failures; first: {first})",
                    failures.len()
                ),
            }
        }
        let failed = self.0.iter().filter(|(_, f)| !f.is_empty()).count();
        if failed > 0 {
            eprintln!(
                "loadgen: {failed} of {} {mode} invariants failed",
                self.0.len()
            );
            std::process::exit(1);
        }
        println!("loadgen: all {} {mode} invariants held", self.0.len());
    }
}

fn mode_name(quick: bool) -> &'static str {
    if quick {
        "quick"
    } else {
        "full"
    }
}

fn grid_config(nodes: usize, seed: u64) -> String {
    EngineConfig::generated(ProblemKind::Grid2d, nodes, seed)
        .with_ordering(OrderingMethod::NestedDissection)
        .with_memory(MemoryBudget::FractionOfPeak(0.5))
        .to_json()
}

/// POST whose 200 is `invariant`; a transport failure ends the run.
fn post_ok(
    addr: SocketAddr,
    path: &str,
    body: &str,
    invariant: &'static str,
    verdicts: &mut Verdicts,
) -> ClientResponse {
    let response = client::post(addr, path, body)
        .unwrap_or_else(|e| die(format!("transport failure on {path}: {e}")));
    verdicts.check(invariant, response.status == 200, || {
        format!(
            "{path} answered {} ({})",
            response.status,
            response.body.trim()
        )
    });
    response
}

fn spawn_server() -> ServerHandle {
    Server::spawn(ServerConfig {
        cache_capacity: CACHE_CAPACITY,
        ..ServerConfig::default()
    })
    .unwrap_or_else(|e| die(format!("cannot boot the server: {e}")))
}

fn shut_down(handle: ServerHandle, verdicts: &mut Verdicts) {
    let clean = handle.shutdown().is_ok();
    verdicts.check("in-process servers shut down cleanly", clean, || {
        "a server did not shut down cleanly".to_string()
    });
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
                std::thread::sleep(Duration::from_millis(25));
            }
            Ok(response) => return (response, absorbed_5xx),
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
    let last = client::post_with_retry(addr, path, body, 2, Duration::from_millis(100))
        .unwrap_or_else(|e| die(format!("chaos transport failure on {path}: {e}")));
    (last, absorbed_5xx)
}

/// `loadgen chaos`: collect uninjected reference reports from a fresh
/// server, then arm the fault plan and fire ≥ 220 mixed requests at a
/// second server while a sidecar thread polls `/healthz`.  Afterwards the
/// faults are cleared and every configuration must recover: identical
/// reports, a working cache, and a deadline probe that turns into a prompt
/// 504.
fn run_chaos_mode(quick: bool) {
    println!("loadgen: chaos mode ({})", mode_name(quick));
    let mut verdicts = Verdicts::default();

    // The request mix: plain, numeric, parallel-numeric, prebuilt, and a
    // plan-only configuration, small enough that ≥ 220 requests stay
    // tractable.
    let nodes = if quick { 1_000 } else { 5_000 };
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
    // truth every later report must match bit for bit (minus timings).
    engine::faultinject::clear();
    let reference = spawn_server();
    let mut reference_identity = Vec::new();
    for config in &reports {
        let response = post_ok(
            reference.addr(),
            "/report",
            config,
            "the uninjected reference server answers every report",
            &mut verdicts,
        );
        let identity = client::report_fingerprint(&response.body);
        verdicts.check(
            "the uninjected reference server answers every report",
            identity.is_some(),
            || "a reference report is not a JSON object".to_string(),
        );
        reference_identity.push(identity);
    }
    shut_down(reference, &mut verdicts);

    // Chaos pass: arm the fault plan, boot the victim server, and start the
    // health poller.
    let injected_before = engine::faultinject::injected();
    let rules = engine::faultinject::parse_plan(CHAOS_FAULT_PLAN)
        .unwrap_or_else(|e| die(format!("bad chaos fault plan: {e}")));
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
                std::thread::sleep(Duration::from_millis(25));
            }
            (probes, unhealthy)
        })
    };

    let total_requests = 220usize.max(40 * reports.len());
    let mut absorbed_5xx = 0usize;
    let mut final_failures = 0usize;
    let mut solve_hash: Option<String> = None;
    for index in 0..total_requests {
        let slot = index % (reports.len() + 2);
        let (response, fivexx) = match slot {
            s if s < reports.len() => chaos_post(addr, "/report", reports[s]),
            s if s == reports.len() => chaos_post(addr, "/plan", &plan_only),
            _ => match &solve_hash {
                Some(hash) => chaos_post(addr, "/solve", &solve_body(hash, index as u64)),
                None => chaos_post(addr, "/report", &numeric),
            },
        };
        absorbed_5xx += fivexx;
        if response.status != 200 {
            final_failures += 1;
            continue;
        }
        if slot >= reports.len() {
            continue;
        }
        // Every successful report — retried past an injected fault or
        // not — is bit-identical to the uninjected reference.
        verdicts.check(
            "every chaos report equals the uninjected reference",
            client::report_fingerprint(&response.body) == reference_identity[slot],
            || format!("mix slot {slot} diverged"),
        );
        // Parallel runs never exceed their ledger budget except via the
        // documented idle force-admission path.
        let json = match slot {
            2 => Json::parse(&response.body).unwrap_or(Json::Null),
            _ => Json::Null,
        };
        if let Some(section) = json.get("parallel") {
            let field = |name: &str| section.get(name).and_then(Json::as_u64);
            let budget = field("budget_entries");
            let peak = field("measured_peak_entries").unwrap_or(0);
            let forced = field("forced_admissions").unwrap_or(0);
            verdicts.check(
                "parallel runs stay within their ledger budget",
                budget.is_none_or(|budget| peak <= budget) || forced > 0,
                || format!("peak {peak} > budget {budget:?} without forced admissions"),
            );
        }
        if slot == 1 && solve_hash.is_none() {
            solve_hash = response.header("x-config-hash").map(str::to_string);
        }
    }
    let injected = engine::faultinject::injected() - injected_before;
    verdicts.check("at least 4 chaos faults fire", injected >= 4, || {
        format!("only {injected} of {rule_count} fired")
    });
    // Every failure must be attributable to an injected fault; the mix
    // itself contains nothing malformed.
    verdicts.check(
        "every 5xx is an injected fault",
        absorbed_5xx as u64 + final_failures as u64 <= injected,
        || {
            format!(
                "{absorbed_5xx} retried + {final_failures} terminal failures \
                 exceed the {injected} injected faults"
            )
        },
    );
    verdicts.check(
        "every chaos request succeeds after retries",
        final_failures == 0,
        || format!("{final_failures} requests failed even after retries"),
    );

    // Recovery: faults cleared, every configuration serves again, repeats
    // hit the cache, and the reports still match the fresh-server truth.
    engine::faultinject::clear();
    for (slot, config) in reports.iter().enumerate() {
        let first = post_ok(
            addr,
            "/report",
            config,
            "post-chaos reports equal the reference",
            &mut verdicts,
        );
        verdicts.check(
            "post-chaos reports equal the reference",
            client::report_fingerprint(&first.body) == reference_identity[slot],
            || format!("mix slot {slot} diverged"),
        );
        let second = post_ok(
            addr,
            "/report",
            config,
            "post-chaos repeats hit the plan cache",
            &mut verdicts,
        );
        verdicts.check(
            "post-chaos repeats hit the plan cache",
            second.cache_hit(),
            || format!("mix slot {slot} missed"),
        );
    }

    // Deadline probe: a cold 10⁵-node configuration under a 50 ms deadline
    // answers 504 within a robustness bound — strict (2x) in full mode,
    // generous in quick/debug runs — and the very next uninjected request
    // for the same configuration completes.  Both modes probe at 10⁵ nodes:
    // a 10⁴ grid plans in ~15 ms and would simply answer 200.
    let deadline_config = grid_config(100_000, 990);
    let probe_started = Instant::now();
    let probe = client::post_with_headers(
        addr,
        "/report",
        &[("X-Deadline-Ms", "50")],
        &deadline_config,
    )
    .unwrap_or_else(|e| die(format!("deadline probe transport failure: {e}")));
    let probe_seconds = probe_started.elapsed().as_secs_f64();
    verdicts.check(
        "an X-Deadline-Ms: 50 cold report answers 504",
        probe.status == 504,
        || format!("answered {}", probe.status),
    );
    let probe_bound = if quick { 1.0 } else { 0.100 };
    verdicts.check(
        "the deadline probe answers within its bound",
        probe_seconds <= probe_bound,
        || format!("took {probe_seconds:.3}s, over the {probe_bound:.3}s bound"),
    );
    post_ok(
        addr,
        "/report",
        &deadline_config,
        "the request after an expired deadline completes",
        &mut verdicts,
    );

    stop_poller.store(true, std::sync::atomic::Ordering::Relaxed);
    let (health_probes, unhealthy) = poller.join().expect("health poller");
    verdicts.check("/healthz answers 200 throughout", unhealthy == 0, || {
        format!("{unhealthy} of {health_probes} probes failed")
    });
    shut_down(handle, &mut verdicts);
    println!(
        "loadgen: chaos: {total_requests} requests, {injected} of {rule_count} faults fired, \
         {absorbed_5xx} retried 5xx, {health_probes} health probes"
    );
    verdicts.finish("chaos");
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
fn serve_binary() -> PathBuf {
    let path = std::env::var_os("TREEMEM_SERVE_BIN")
        .map(PathBuf::from)
        .or_else(|| {
            std::env::current_exe()
                .ok()
                .and_then(|exe| Some(exe.parent()?.join("serve")))
        });
    match path {
        Some(path) if path.is_file() => path,
        Some(path) => die(format!(
            "serve binary not found at {} (build it, or set TREEMEM_SERVE_BIN)",
            path.display()
        )),
        None => die("cannot locate the serve binary; set TREEMEM_SERVE_BIN"),
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
        .unwrap_or_else(|e| die(format!("cannot spawn coordinator: {e}")));
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    let addr = loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => die("coordinator exited before printing its address"),
            Ok(_) => {
                if let Some(rest) = line.split("http://").nth(1) {
                    let text = rest.split_whitespace().next().unwrap_or("");
                    match text.parse::<SocketAddr>() {
                        Ok(addr) => break addr,
                        Err(_) => die(format!("unparsable coordinator address '{text}'")),
                    }
                }
            }
            Err(e) => die(format!("cannot read coordinator stdout: {e}")),
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
    let child = command
        .spawn()
        .unwrap_or_else(|e| die(format!("cannot spawn worker {worker_id}: {e}")));
    ManagedProc {
        label: worker_id.to_string(),
        child,
    }
}

/// The deterministic identity of one seeded `/solve` answer: the factor's
/// nonzero count and the residual's exact bits (`{:e}` round-trips `f64`
/// through the parser, so parsed equality is bit equality).
fn solve_identity(addr: SocketAddr, hash: &str, verdicts: &mut Verdicts) -> Option<(u64, u64)> {
    let body = solve_body(hash, 11);
    let response = post_ok(addr, "/solve", &body, "seeded solves stay green", verdicts);
    let json = Json::parse(&response.body).ok()?;
    let nnz = json.get("factor_nnz").and_then(Json::as_u64)?;
    let residual = json.get("max_residual").and_then(Json::as_f64)?;
    verdicts.check(
        "seeded solves stay green",
        residual.is_finite() && residual < 1e-6,
        || format!("solve residual {residual:e} above 1e-6"),
    );
    Some((nnz, residual.to_bits()))
}

/// A `/solve` body: two right-hand sides from `seed`, factor `hash`.
fn solve_body(hash: &str, seed: u64) -> String {
    json::document(|doc| {
        doc.field("config_hash", hash)
            .field("count", 2u64)
            .field("seed", seed);
    })
}

/// One distributed `/report` against the coordinator: returns the config
/// hash and the `distributed` section of the report.
fn distributed_report(
    addr: SocketAddr,
    config: &str,
    deadline_ms: u64,
    verdicts: &mut Verdicts,
) -> (Option<String>, Option<Json>) {
    // A body-level deadline below the client read timeout: a wedged cluster
    // surfaces as a 504 violation instead of a transport error.  The caller
    // sizes the deadline to the run (the full 10⁶-node order serializes
    // coordinator and workers on small hosts, so interactive-scale budgets
    // do not apply).
    let Ok(Json::Obj(fields)) = Json::parse(config) else {
        die("a distributed report's config is not a JSON object");
    };
    let body = json::document(|doc| {
        doc.field("deadline_ms", deadline_ms);
        for (key, value) in &fields {
            doc.field(key, value);
        }
    });
    let read_timeout = Duration::from_millis(deadline_ms + 30_000);
    let response = client::post_with_timeout(addr, "/report", &body, read_timeout)
        .unwrap_or_else(|e| die(format!("distributed report transport failure: {e}")));
    verdicts.check(
        "every distributed report answers 200",
        response.status == 200,
        || format!("answered {} ({})", response.status, response.body.trim()),
    );
    let hash = response.header("x-config-hash").map(str::to_string);
    let section = Json::parse(&response.body)
        .ok()
        .and_then(|json| json.get("distributed").cloned());
    (hash, section)
}

/// Poll `GET /internal/job/{id}` until at least one task has been claimed
/// (the chaos victim is the only live worker, so the claim is its lease).
fn wait_for_claim(addr: SocketAddr, job: u64, deadline_ms: u64, verdicts: &mut Verdicts) {
    let deadline = Instant::now() + Duration::from_millis(deadline_ms);
    loop {
        let claimed = client::get(addr, &format!("/internal/job/{job}"))
            .ok()
            .filter(|response| response.status == 200)
            .and_then(|response| Json::parse(&response.body).ok())
            .and_then(|json| json.get("claimed").and_then(Json::as_u64))
            .unwrap_or(0);
        if claimed >= 1 || Instant::now() >= deadline {
            verdicts.check(
                "the victim claims a lease before the deadline",
                claimed >= 1,
                || format!("job {job} saw no claim within {deadline_ms}ms"),
            );
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Structural ceiling on `contribution_bytes / factor_nnz` of a distributed
/// run: contributions are values only — 16 hex digits per factor nonzero
/// plus the root blocks and framing — so a row index back on the wire
/// (8 more digits per nonzero) trips it.
const MAX_WIRE_BYTES_PER_NONZERO: f64 = 20.0;

/// The invariants every distributed pass holds: a `distributed` section
/// with ≥ 2 workers, a merged factor bit-identical to the single-process
/// `reference`, and contributions under the wire ceiling.
fn distributed_gate(
    label: &str,
    section: Option<&Json>,
    identity: Option<(u64, u64)>,
    reference: (u64, u64),
    verdicts: &mut Verdicts,
) {
    let workers = section.and_then(|s| s.field::<u64>("workers").ok());
    verdicts.check(
        "every distributed run uses at least 2 workers",
        workers.unwrap_or(0) >= 2,
        || format!("{label} run reported workers {workers:?}"),
    );
    verdicts.check(
        "merged factors are bit-identical to the single-process reference",
        identity == Some(reference),
        || {
            format!(
                "{label} solve identity {identity:x?} vs reference \
                 (nnz {}, residual bits {:#x})",
                reference.0, reference.1
            )
        },
    );
    let bytes = section.and_then(|s| s.field::<u64>("contribution_bytes").ok());
    let bytes = bytes.unwrap_or(u64::MAX);
    verdicts.check(
        "contributions stay within 20 bytes per factor nonzero",
        bytes as f64 <= MAX_WIRE_BYTES_PER_NONZERO * reference.0 as f64,
        || {
            format!(
                "{label} run shipped {bytes} contribution bytes for {} factor nonzeros",
                reference.0
            )
        },
    );
}

/// A counter of a distributed section (`None` if either is missing).
fn section_counter(section: &Option<Json>, field: &str) -> Option<u64> {
    section.as_ref()?.get(field).and_then(Json::as_u64)
}

/// `loadgen distributed`: the multi-process scenario described in the
/// module docs.
fn run_distributed_mode(quick: bool) {
    let nodes = if quick { 100_000 } else { 1_000_000 };
    let tasks = 8usize;
    // Every wait scales with the order: on a small host the full 10⁶-node
    // run serializes coordinator and both workers onto a couple of cores,
    // so per-subtree wall time — which every lease must comfortably
    // exceed, or healthy contributions go stale and the job livelocks on
    // requeues — grows far past the quick-mode values.
    // The dominant term in a worker's *first* lease is planning, not
    // factoring: each worker process plans the configuration once, after
    // its first claim (the task frame carries the config, and the worker's
    // plan cache is empty until then).  At 10⁶ nodes nested-dissection
    // planning alone runs ~400 s per process on a small host, so the clean
    // lease must sit far above it or healthy first tasks expire.
    let (deadline_ms, clean_lease_ms, chaos_lease_ms) = if quick {
        (110_000, 30_000, 10_000)
    } else {
        (2_400_000, 1_500_000, 600_000)
    };
    println!(
        "loadgen: distributed mode ({}, {nodes} nodes, {tasks} tasks, 2 workers)",
        mode_name(quick)
    );
    let mut verdicts = Verdicts::default();

    let base = EngineConfig::generated(ProblemKind::Grid2d, nodes, 42)
        .with_ordering(OrderingMethod::NestedDissection)
        .with_numeric(true);

    // Single-process ground truth: factor the same configuration in-process
    // and record the seeded-solve identity every distributed run must match.
    // The reference factorization is subject to the same order-scaled wall
    // time as the distributed passes, so it shares their read timeout.
    let reference_server = spawn_server();
    let response = client::post_with_timeout(
        reference_server.addr(),
        "/report",
        &base.to_json(),
        Duration::from_millis(deadline_ms + 30_000),
    )
    .unwrap_or_else(|e| die(format!("reference report transport failure: {e}")));
    let reference = response
        .header("x-config-hash")
        .filter(|_| response.status == 200)
        .and_then(|hash| solve_identity(reference_server.addr(), hash, &mut verdicts));
    let Some(reference) = reference else {
        die(format!(
            "cannot establish the single-process reference factor: /report answered {} ({})",
            response.status,
            response.body.trim()
        ));
    };
    shut_down(reference_server, &mut verdicts);
    println!("loadgen: reference factor has {} nonzeros", reference.0);

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
    let (clean_hash, clean_section) =
        distributed_report(addr, &clean_config, deadline_ms, &mut verdicts);
    let clean_identity = clean_hash
        .as_deref()
        .and_then(|hash| solve_identity(addr, hash, &mut verdicts));
    distributed_gate(
        "clean",
        clean_section.as_ref(),
        clean_identity,
        reference,
        &mut verdicts,
    );
    for field in ["lease_expiries", "tasks_requeued"] {
        let count = section_counter(&clean_section, field);
        verdicts.check(
            "the clean pass expires and requeues nothing",
            count == Some(0),
            || format!("{field} = {count:?}"),
        );
    }

    // Chaos pass: retire the healthy workers, hand the job to a victim that
    // stalls forever on its first claim, SIGKILL it while it holds the
    // lease, then let fresh workers finish the job via lease re-issue.
    for worker in workers {
        println!("loadgen: retiring healthy worker {}", worker.label);
        drop(worker);
    }
    let victim = spawn_worker(&bin, addr, "w-victim", Some("sleep:600000@parexec:task"));
    let chaos_config = base
        .with_distributed(
            engine::DistributedConfig::with_tasks(tasks).with_lease_ms(chaos_lease_ms),
        )
        .to_json();
    let chaos_handle = std::thread::spawn(move || {
        let mut verdicts = Verdicts::default();
        let result = distributed_report(addr, &chaos_config, deadline_ms, &mut verdicts);
        (result, verdicts)
    });
    // Jobs number from 1 per coordinator: the clean pass was job 1.  The
    // claim only lands after the coordinator re-plans the chaos config, so
    // the wait shares the report deadline.
    wait_for_claim(addr, 2, deadline_ms, &mut verdicts);
    println!("loadgen: victim claimed a lease; killing it mid-job");
    drop(victim);
    let replacements = vec![
        spawn_worker(&bin, addr, "w2", None),
        spawn_worker(&bin, addr, "w3", None),
    ];
    let ((chaos_hash, chaos_section), chaos_verdicts) =
        chaos_handle.join().expect("chaos report thread");
    verdicts.merge(chaos_verdicts);
    let chaos_identity = chaos_hash
        .as_deref()
        .and_then(|hash| solve_identity(addr, hash, &mut verdicts));
    distributed_gate(
        "chaos",
        chaos_section.as_ref(),
        chaos_identity,
        reference,
        &mut verdicts,
    );
    for field in ["lease_expiries", "tasks_requeued"] {
        let count = section_counter(&chaos_section, field);
        verdicts.check(
            "the killed worker's lease expires and its task is requeued",
            count.unwrap_or(0) >= 1,
            || format!("{field} = {count:?}"),
        );
    }

    // Cluster book-keeping: counters reconcile (zero orphaned leases) and
    // the only injected fault produced no server-side 5xx.
    let stats_body = client::get(addr, "/stats")
        .map(|response| response.body)
        .unwrap_or_else(|e| die(format!("coordinator /stats failed: {e}")));
    let stats = Json::parse(&stats_body).unwrap_or(Json::Null);
    let cluster = stats.get("cluster").unwrap_or(&Json::Null);
    let cluster = |field| cluster.field(field).unwrap_or(u64::MAX);
    let (claimed, completed, expired) = (
        cluster("tasks_claimed"),
        cluster("tasks_completed"),
        cluster("lease_expiries"),
    );
    verdicts.check(
        "no lease is orphaned: claimed = completed + expired",
        claimed == completed.saturating_add(expired),
        || format!("{claimed} claimed vs {completed} completed + {expired} expired"),
    );
    verdicts.check(
        "every job completes",
        cluster("jobs_completed") == cluster("jobs_started"),
        || "a job is still live on the coordinator".to_string(),
    );
    let status_5xx = stats
        .get("responses")
        .and_then(|r| r.field::<u64>("status_5xx").ok());
    verdicts.check(
        "the coordinator answers no non-injected 5xx",
        status_5xx == Some(0),
        || format!("status_5xx = {status_5xx:?}"),
    );
    drop(replacements);
    drop(coordinator);
    verdicts.finish("distributed");
}

/// Write the traces report to `--out`, or to `BENCH_cache.json` under the
/// results directory every `bench` tool shares.
fn write_output(out: Option<String>, json: &str) {
    let path = out
        .map(PathBuf::from)
        .unwrap_or_else(|| bench::report::results_dir().join("BENCH_cache.json"));
    let written = std::fs::create_dir_all(path.parent().unwrap_or(std::path::Path::new("")))
        .and_then(|()| std::fs::write(&path, json));
    if let Err(error) = written {
        die(format!("cannot write {}: {error}", path.display()));
    }
    println!("loadgen: wrote {}", path.display());
}

/// `loadgen traces`: replay the {trace × policy × capacity} cache matrix in
/// plan-stub mode, run the end-to-end HTTP tenant pass, enforce the gates
/// (GDSF ≥ LRU on mixed, zero quota violations, clean accounting), and in
/// `--check` mode pin quick-run cells against the committed reference.
fn run_traces_mode(quick: bool, check: bool, write_reference: bool, out: Option<String>) {
    use bench::traces;

    if (check || write_reference) && !quick {
        usage("the reference pins quick-mode cells; add --quick");
    }
    let mode = mode_name(quick);
    println!("loadgen: replaying cache trace matrix ({mode} mode)");
    let mut verdicts = Verdicts::default();

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
    verdicts.check_all(
        "the matrix passes its gates (GDSF >= LRU on mixed, quotas, accounting)",
        &gate_violations,
    );

    println!("loadgen: end-to-end HTTP pass (tenants acme + zeta over X-Tenant)");
    let http = traces::run_http_pass(quick);
    verdicts.check_all(
        "the two-tenant HTTP pass holds quotas and zeta's hot set",
        &http.violations,
    );
    println!(
        "loadgen: HTTP pass sent {} requests, zeta scored {} hits under acme's flood",
        http.requests, http.zeta_hits
    );

    if write_reference {
        let path = traces::reference_path();
        if let Err(error) = std::fs::write(&path, traces::reference_json(&matrix)) {
            die(format!("cannot write {}: {error}", path.display()));
        }
        println!("loadgen: wrote reference {}", path.display());
    }
    if check {
        let path = traces::reference_path();
        let mismatches = match std::fs::read_to_string(&path) {
            Ok(reference) => traces::check_reference(&matrix, &reference),
            Err(error) => vec![format!("cannot read {}: {error}", path.display())],
        };
        verdicts.check_all(
            "every quick cell equals crates/bench/data/cache_reference.json",
            &mismatches,
        );
    }

    let json = traces::bench_json(mode, &matrix, &deep, &http, &gate_violations);
    write_output(out, &json);
    verdicts.finish("cache-trace");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((mode, flags)) = args.split_first() else {
        usage("no mode given");
    };
    let traces = mode == "traces";
    let (mut quick, mut check, mut write_reference, mut out) = (false, false, false, None);
    let mut flags = flags.iter();
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--check" if traces => check = true,
            "--write-reference" if traces => write_reference = true,
            "--out" if traces => match flags.next() {
                Some(path) => out = Some(path.clone()),
                None => usage("--out needs a path"),
            },
            other => usage(&format!("unknown flag {other} for mode {mode}")),
        }
    }
    match mode.as_str() {
        "chaos" => run_chaos_mode(quick),
        "distributed" => run_distributed_mode(quick),
        "traces" => run_traces_mode(quick, check, write_reference, out),
        other => usage(&format!("unknown mode {other}")),
    }
}
