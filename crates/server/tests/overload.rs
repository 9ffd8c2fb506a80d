//! The admission queue's overload path over a real socket: once every
//! worker is busy and the bounded queue is full, a new connection is shed
//! on the accept thread with `503` and `Retry-After: 1`, and the server
//! serves normally again once the queue drains.  The nightly `sanitizers`
//! CI job runs this file under tsan and asan.

use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use engine::json::Json;
use engine::prelude::*;
use server::client;
use server::{Server, ServerConfig};

/// Poll `ready` until it holds, failing the test after ten seconds.
fn wait_until(what: &str, ready: impl Fn() -> bool) {
    let started = Instant::now();
    while !ready() {
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "timed out: {what}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
#[cfg_attr(miri, ignore = "binds sockets and spawns OS threads")]
fn a_full_queue_sheds_with_503_and_retry_after() {
    let handle = Server::spawn(ServerConfig {
        workers: 1,
        max_backlog: 1,
        ..ServerConfig::default()
    })
    .expect("server boots");
    let addr = handle.addr();
    let stats = handle.service().stats();

    // An idle connection holds the only worker in `read_request`...
    let busy = TcpStream::connect(addr).expect("connect");
    wait_until("the worker picks up the idle connection", || {
        stats.in_flight.load(Ordering::SeqCst) == 1
    });
    // ...and a second one fills the one-slot queue.  The accept thread
    // handles connections in order, so it has queued this one before it
    // looks at the next.
    let queued = TcpStream::connect(addr).expect("connect");

    // The next connection is answered on the accept thread without being
    // read: it sends nothing and reads the whole response.
    let shed = client::exchange(addr, b"").expect("the shed response arrives");
    assert_eq!(shed.status, 503, "{}", shed.body);
    assert_eq!(shed.header("retry-after"), Some("1"));
    let body = Json::parse(&shed.body).expect("error body is JSON");
    assert_eq!(
        body.get("error").and_then(Json::as_str),
        Some("server overloaded, retry later")
    );

    // Closing the idle sockets frees the worker, which answers both empty
    // requests 400 and so drains the queue.
    drop(busy);
    drop(queued);
    wait_until("the worker drains the queue", || {
        stats.responses_4xx.load(Ordering::SeqCst) == 2
            && stats.in_flight.load(Ordering::SeqCst) == 0
    });
    let config = EngineConfig::generated(ProblemKind::Grid2d, 64, 1).to_json();
    let planned = client::post(addr, "/plan", &config).expect("post /plan");
    assert_eq!(planned.status, 200, "{}", planned.body);

    let reported = client::get(addr, "/stats").expect("get /stats");
    let reported = Json::parse(&reported.body).expect("stats is JSON");
    let responses = reported.get("responses").expect("responses section");
    assert_eq!(
        responses.get("status_5xx").and_then(Json::as_u64),
        Some(1),
        "the shed connection is counted"
    );
    assert_eq!(
        reported.get("accepted_total").and_then(Json::as_u64),
        Some(5),
        "two idle connections, the shed one, /plan and /stats"
    );
    handle.shutdown().expect("clean shutdown");
}
