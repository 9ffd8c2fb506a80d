//! The chaos scenario over real sockets: a six-rule fault plan (sleeps,
//! panics and a dropped task across the planning, scheduling and numeric
//! layers) armed while a mixed request stream — sequential, numeric,
//! parallel, prebuilt, plan-only and `/solve` — is retried through it and a
//! sidecar thread polls `/healthz`.  Every failure must be an absorbed
//! injected fault, every 200 report must equal an uninjected reference, the
//! parallel runs must stay within their ledger budget, and with the faults
//! cleared every configuration serves again and hits the cache.
//!
//! This is its own test binary because the fault registry is
//! process-global: a rule armed here would fire in any other test of the
//! same process.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use engine::json::Json;
use engine::prelude::*;
use server::client::{self, ClientResponse};
use server::{Server, ServerConfig, ServerHandle};
use sparsemat::gen::ProblemKind;

/// Six rules over six distinct points, mixing all three actions (sleep,
/// panic, drop) across the planning, scheduling and numeric layers.  Each
/// rule fires exactly once.
const CHAOS_FAULT_PLAN: &str = "sleep:40@plan:ordering,panic@plan:symbolic#2,\
     panic@execute:numeric#2,drop@parexec:task#2,panic@arena:alloc#3,sleep:30@schedule:io";

/// Far above any request of the mix, so only a wedged server hits it.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

fn spawn_server() -> ServerHandle {
    Server::spawn(ServerConfig {
        cache_capacity: 16,
        ..ServerConfig::default()
    })
    .expect("server boots")
}

/// POST with the chaos retries: a 5xx (an injected fault landed on this
/// request) or a transport failure is retried after a short pause.  Returns
/// the fifth response and how many 5xx were absorbed before it.
fn chaos_post(addr: SocketAddr, path: &str, body: &str) -> (ClientResponse, usize) {
    let mut absorbed_5xx = 0;
    for _ in 0..4 {
        match client::post_with_timeout(addr, path, body, REQUEST_TIMEOUT) {
            Ok(response) if response.status < 500 => return (response, absorbed_5xx),
            Ok(_) => absorbed_5xx += 1,
            Err(_) => {}
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let last = client::post_with_timeout(addr, path, body, REQUEST_TIMEOUT)
        .unwrap_or_else(|error| panic!("{path}: {error}"));
    (last, absorbed_5xx)
}

#[test]
fn injected_faults_are_absorbed_and_every_report_matches_the_reference() {
    let generated = |seed| EngineConfig::generated(ProblemKind::Grid2d, 1_000, seed);
    let planned = |seed| {
        generated(seed)
            .with_ordering(OrderingMethod::NestedDissection)
            .with_memory(MemoryBudget::FractionOfPeak(0.5))
            .to_json()
    };
    let (plain, plan_only) = (planned(900), planned(903));
    let numeric = generated(901).with_numeric(true).to_json();
    // A budget twice the sequential peak, so the ledger check below has a
    // bound to hold (an unbounded share reports no budget at all).
    let parallel = generated(902)
        .with_numeric(true)
        .with_parallel(
            ParallelConfig::with_workers(2)
                .with_max_tasks(8)
                .with_budget(BudgetShare::MultipleOfSequentialPeak(2.0)),
        )
        .to_json();
    let prebuilt = EngineConfig::prebuilt(treemem::gadgets::harpoon(4, 400, 1))
        .with_memory(MemoryBudget::FractionOfPeak(0.0))
        .to_json();
    let reports = [&plain, &numeric, &parallel, &prebuilt];

    // A fresh, fault-free server gives the truth every later report must
    // match bit for bit (minus timings and runtime counters).
    engine::faultinject::clear();
    let reference_server = spawn_server();
    let reference: Vec<Json> = reports
        .iter()
        .map(|config| {
            let response =
                client::post(reference_server.addr(), "/report", config).expect("reference");
            assert_eq!(response.status, 200, "reference: {}", response.body);
            client::report_fingerprint(&response.body).expect("a JSON object")
        })
        .collect();
    reference_server.shutdown().expect("clean shutdown");

    let injected_before = engine::faultinject::injected();
    engine::faultinject::install(engine::faultinject::parse_plan(CHAOS_FAULT_PLAN).expect("plan"));
    let handle = spawn_server();
    let addr = handle.addr();

    let stop_poller = Arc::new(AtomicBool::new(false));
    let poller = {
        let stop = Arc::clone(&stop_poller);
        std::thread::spawn(move || {
            let (mut probes, mut unhealthy) = (0, 0);
            while !stop.load(Ordering::Relaxed) {
                let healthy = client::get(addr, "/healthz").is_ok_and(|r| r.status == 200);
                unhealthy += usize::from(!healthy);
                probes += 1;
                std::thread::sleep(Duration::from_millis(25));
            }
            (probes, unhealthy)
        })
    };

    let mut absorbed_5xx = 0;
    let mut solve_hash: Option<String> = None;
    for index in 0..220 {
        let slot = index % (reports.len() + 2);
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
        absorbed_5xx += fivexx;
        assert_eq!(
            response.status, 200,
            "request {index} (mix slot {slot}) failed after retries: {}",
            response.body
        );
        if slot >= reports.len() {
            continue;
        }
        assert_eq!(
            client::report_fingerprint(&response.body).as_ref(),
            Some(&reference[slot]),
            "chaos report of mix slot {slot} diverged from the reference"
        );
        if slot == 2 {
            let report = Json::parse(&response.body).expect("report is JSON");
            let section = report.get("parallel").expect("parallel section");
            let field = |name| section.get(name).and_then(Json::as_u64);
            let budget = field("budget_entries").expect("a bounded parallel run has a budget");
            let peak = field("measured_peak_entries").expect("measured peak");
            let forced = field("forced_admissions").expect("forced admissions");
            assert!(
                peak <= budget || forced > 0,
                "peak {peak} > budget {budget} without forced admissions"
            );
        }
        if slot == 1 && solve_hash.is_none() {
            solve_hash = response.header("x-config-hash").map(str::to_string);
        }
    }
    let injected = engine::faultinject::injected() - injected_before;
    assert!(injected >= 4, "only {injected} of the six faults fired");
    assert!(
        absorbed_5xx as u64 <= injected,
        "{absorbed_5xx} retried 5xx exceed the {injected} injected faults"
    );

    // Faults cleared: every configuration serves again, equal to the
    // reference, and its repeat hits the plan cache.
    engine::faultinject::clear();
    for (slot, config) in reports.iter().enumerate() {
        let first = client::post(addr, "/report", config).expect("post-chaos report");
        assert_eq!(first.status, 200, "{}", first.body);
        assert_eq!(
            client::report_fingerprint(&first.body).as_ref(),
            Some(&reference[slot]),
            "post-chaos report of mix slot {slot} diverged from the reference"
        );
        let repeat = client::post(addr, "/report", config).expect("post-chaos repeat");
        assert_eq!(repeat.status, 200, "{}", repeat.body);
        assert_eq!(repeat.header("x-cache"), Some("hit"), "mix slot {slot}");
    }

    stop_poller.store(true, Ordering::Relaxed);
    let (probes, unhealthy) = poller.join().expect("health poller");
    assert_eq!(
        unhealthy, 0,
        "{unhealthy} of {probes} /healthz probes failed"
    );
    handle.shutdown().expect("clean shutdown");
}
