//! A tiny blocking HTTP/1.1 client for exercising the server: one request
//! per connection, mirroring the server's `Connection: close` framing.
//! Used by the integration tests and by `bench`'s `loadgen` binary — it is
//! a test/bench utility, not a general-purpose client.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A decoded response: status code, lower-cased headers, body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Headers, names lower-cased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: String,
}

impl ClientResponse {
    /// First header named `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the response was served from the plan cache
    /// (`X-Cache: hit`).
    pub fn cache_hit(&self) -> bool {
        self.header("x-cache") == Some("hit")
    }
}

/// Errors of one exchange (connect/send/receive/decode).
#[derive(Debug)]
pub struct ClientError(pub String);

impl std::fmt::Display for ClientError {
    fn fmt(&self, fmt: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(fmt, "HTTP client: {}", self.0)
    }
}

impl std::error::Error for ClientError {}

fn fail(context: &str, error: impl std::fmt::Display) -> ClientError {
    ClientError(format!("{context}: {error}"))
}

/// Send `raw` to `addr` and decode the single response, giving the server
/// two minutes to answer.
pub fn exchange(addr: SocketAddr, raw: &[u8]) -> Result<ClientResponse, ClientError> {
    exchange_with_timeout(addr, raw, Duration::from_secs(120))
}

/// [`exchange`] with an explicit read timeout, for requests that legitimately
/// block far longer than interactive ones — a distributed `/report` waits for
/// every worker contribution, which at large orders outlives any
/// interactive-scale budget.
pub fn exchange_with_timeout(
    addr: SocketAddr,
    raw: &[u8],
    read_timeout: Duration,
) -> Result<ClientResponse, ClientError> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))
        .map_err(|e| fail("connect", e))?;
    stream
        .set_read_timeout(Some(read_timeout))
        .map_err(|e| fail("timeout", e))?;
    stream.write_all(raw).map_err(|e| fail("send", e))?;
    let mut bytes = Vec::new();
    stream
        .read_to_end(&mut bytes)
        .map_err(|e| fail("receive", e))?;
    let text = String::from_utf8(bytes).map_err(|e| fail("decode", e))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| ClientError("response has no header/body separator".to_string()))?;
    let mut lines = head.lines();
    let status = lines
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| ClientError("unparsable status line".to_string()))?;
    let headers = lines
        .filter_map(|line| line.split_once(':'))
        .map(|(name, value)| (name.to_ascii_lowercase(), value.trim().to_string()))
        .collect();
    Ok(ClientResponse {
        status,
        headers,
        body: body.to_string(),
    })
}

/// `POST` a JSON body to `path`.
pub fn post(addr: SocketAddr, path: &str, body: &str) -> Result<ClientResponse, ClientError> {
    post_with_headers(addr, path, &[], body)
}

/// [`post`] with an explicit read timeout (see [`exchange_with_timeout`]).
pub fn post_with_timeout(
    addr: SocketAddr,
    path: &str,
    body: &str,
    read_timeout: Duration,
) -> Result<ClientResponse, ClientError> {
    exchange_with_timeout(addr, encode_post(path, &[], body).as_bytes(), read_timeout)
}

/// `POST` a JSON body to `path` with extra request headers (e.g.
/// `X-Deadline-Ms`).
pub fn post_with_headers(
    addr: SocketAddr,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> Result<ClientResponse, ClientError> {
    exchange(addr, encode_post(path, headers, body).as_bytes())
}

fn encode_post(path: &str, headers: &[(&str, &str)], body: &str) -> String {
    let mut raw = format!(
        "POST {path} HTTP/1.1\r\nHost: loadgen\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n",
        body.len()
    );
    for (name, value) in headers {
        raw.push_str(&format!("{name}: {value}\r\n"));
    }
    raw.push_str("\r\n");
    raw.push_str(body);
    raw
}

/// `POST` with retries: transport errors — connection-refused included, so
/// a worker racing its coordinator's boot just keeps dialing — and
/// transient statuses (503 shed load, 504 expired deadline) back off
/// exponentially from 10 ms, doubling per attempt with ±25% jitter and
/// capped at `max_backoff`.  A `Retry-After` header (whole seconds, as the
/// server sends) overrides the computed backoff, still under the same cap.
/// Returns the first conclusive response, the last transient *response*
/// once `attempts` are exhausted, or — when the final attempt also died in
/// transport — an error naming the attempt count.
pub fn post_with_retry(
    addr: SocketAddr,
    path: &str,
    body: &str,
    attempts: usize,
    max_backoff: Duration,
) -> Result<ClientResponse, ClientError> {
    let attempts = attempts.max(1);
    let mut backoff = Duration::from_millis(10);
    let mut last: Option<Result<ClientResponse, ClientError>> = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            std::thread::sleep(jittered(backoff.min(max_backoff)));
            backoff = backoff.saturating_mul(2);
        }
        match post(addr, path, body) {
            Ok(response) if response.status == 503 || response.status == 504 => {
                if let Some(seconds) = response
                    .header("retry-after")
                    .and_then(|value| value.parse::<u64>().ok())
                {
                    backoff = Duration::from_secs(seconds).min(max_backoff);
                }
                last = Some(Ok(response));
            }
            Ok(response) => return Ok(response),
            Err(error) => last = Some(Err(error)),
        }
    }
    match last {
        Some(Ok(response)) => Ok(response),
        Some(Err(ClientError(message))) => Err(ClientError(format!(
            "giving up after {attempts} attempts: {message}"
        ))),
        // `attempts` is clamped to at least 1, so the loop always records an
        // outcome; keep the impossible case a typed error, not a panic.
        None => Err(ClientError(format!(
            "giving up after {attempts} attempts with no response"
        ))),
    }
}

/// Scale `base` by a random factor in `[0.75, 1.25)`, freshly seeded from
/// the OS per call: a fleet of workers that all saw the same refusal must
/// not re-dial the coordinator in lockstep.
fn jittered(base: Duration) -> Duration {
    use std::collections::hash_map::RandomState;
    use std::hash::{BuildHasher, Hasher};
    let bits = RandomState::new().build_hasher().finish();
    let fraction = (bits >> 11) as f64 / (1u64 << 53) as f64;
    base.mul_f64(0.75 + 0.5 * fraction)
}

/// `GET` `path`.
pub fn get(addr: SocketAddr, path: &str) -> Result<ClientResponse, ClientError> {
    exchange(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: loadgen\r\n\r\n").as_bytes(),
    )
}

/// Parse a `/report` body and drop its wall-clock `timings` block: the
/// deterministic identity of the report, as seen from the wire.  Two runs
/// of the same effective configuration — cache hit or cold path — must
/// compare equal under this projection (`None` if the body is not a JSON
/// object).  The client-side analogue of `engine::Report::fingerprint`.
pub fn report_identity(body: &str) -> Option<engine::json::Json> {
    use engine::json::Json;
    match Json::parse(body) {
        Ok(Json::Obj(fields)) => Some(Json::Obj(
            fields.into_iter().filter(|(k, _)| k != "timings").collect(),
        )),
        _ => None,
    }
}

/// [`report_identity`] for parallel- or distributed-enabled reports:
/// additionally drops the runtime-dependent fields of the `parallel` and
/// `distributed` sections (wall clocks, worker counts, requeue counters,
/// transfer volumes) and, when either section is present,
/// `numeric.measured_peak_entries` — the wire-side analogue of
/// `engine::Report::fingerprint`.
pub fn report_fingerprint(body: &str) -> Option<engine::json::Json> {
    use engine::json::Json;
    const VOLATILE_PARALLEL: [&str; 9] = [
        "workers",
        "measured_peak_entries",
        "forced_admissions",
        "wall_seconds",
        "critical_path_seconds",
        "merge_seconds",
        "task_seconds",
        "worker_busy_seconds",
        "utilization",
    ];
    const VOLATILE_DISTRIBUTED: [&str; 7] = [
        "workers",
        "tasks_requeued",
        "lease_expiries",
        "contribution_bytes",
        "wall_seconds",
        "merge_seconds",
        "worker_busy_seconds",
    ];
    let Ok(Json::Obj(fields)) = Json::parse(body) else {
        return None;
    };
    let runtime_active = fields.iter().any(|(key, value)| {
        (key == "parallel" || key == "distributed") && matches!(value, Json::Obj(_))
    });
    let projected = fields
        .into_iter()
        .filter(|(key, _)| key != "timings")
        .map(|(key, value)| {
            let value = match (key.as_str(), value) {
                ("parallel", Json::Obj(inner)) => Json::Obj(
                    inner
                        .into_iter()
                        .filter(|(name, _)| !VOLATILE_PARALLEL.contains(&name.as_str()))
                        .collect(),
                ),
                ("distributed", Json::Obj(inner)) => Json::Obj(
                    inner
                        .into_iter()
                        .filter(|(name, _)| !VOLATILE_DISTRIBUTED.contains(&name.as_str()))
                        .collect(),
                ),
                ("numeric", Json::Obj(inner)) if runtime_active => Json::Obj(
                    inner
                        .into_iter()
                        .filter(|(name, _)| name != "measured_peak_entries")
                        .collect(),
                ),
                (_, value) => value,
            };
            (key, value)
        })
        .collect();
    Some(Json::Obj(projected))
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::prelude::*;
    use engine::{CutReport, DistributedReport, ParallelReport};

    /// `report` carrying both runtime sections over `cut`, with every
    /// runtime field (and the timings) derived from `run`.
    fn with_runtime(report: &Report, cut: &CutReport, run: u32) -> Report {
        let (count, seconds) = (run as usize, f64::from(run) / 8.0);
        let mut report = report.clone();
        if let Some(numeric) = &mut report.numeric {
            numeric.measured_peak_entries = 1000 + count;
        }
        report.parallel = Some(ParallelReport {
            cut: cut.clone(),
            workers: count,
            measured_peak_entries: 2000 + run as u64,
            forced_admissions: run as u64,
            wall_seconds: seconds,
            critical_path_seconds: seconds / 2.0,
            merge_seconds: seconds / 4.0,
            task_seconds: vec![seconds; count],
            worker_busy_seconds: vec![seconds; count],
            utilization: 1.0 / f64::from(run),
        });
        report.distributed = Some(DistributedReport {
            cut: cut.clone(),
            lease_ms: 500,
            workers: count,
            tasks_requeued: run as u64,
            lease_expiries: run as u64,
            contribution_bytes: 4096 * run as u64,
            wall_seconds: seconds,
            merge_seconds: seconds / 4.0,
            worker_busy_seconds: vec![seconds; count],
        });
        report.timings.numeric_seconds = seconds;
        report
    }

    /// The client's projection must blank exactly what
    /// `Report::fingerprint` blanks: runtime fields agree under both, the
    /// cut and the outcome are kept by both.
    #[test]
    fn report_fingerprint_agrees_with_the_engine_fingerprint() {
        let engine = Engine::new();
        let config = EngineConfig::generated(ProblemKind::Grid2d, 64, 1).with_numeric(true);
        let report = engine
            .plan(&config)
            .and_then(|plan| plan.schedule(&engine)?.execute(&engine))
            .expect("the report runs");
        let cut = CutReport {
            max_tasks: 4,
            subtree_count: 4,
            above_cut_nodes: 3,
            sequential_peak_entries: 400,
            budget_entries: Some(800),
            max_task_peak_entries: 120,
            merge_peak_entries: 300,
            oversized_tasks: 0,
        };
        let client = |report: &Report| report_fingerprint(&report.to_json()).expect("an object");

        let (first, second) = (
            with_runtime(&report, &cut, 1),
            with_runtime(&report, &cut, 2),
        );
        assert_ne!(first.to_json(), second.to_json());
        assert_eq!(first.fingerprint(), second.fingerprint());
        assert_eq!(client(&first), client(&second));

        let other_cut = CutReport {
            subtree_count: 3,
            ..cut.clone()
        };
        let recut = with_runtime(&report, &other_cut, 1);
        assert_ne!(first.fingerprint(), recut.fingerprint());
        assert_ne!(client(&first), client(&recut));

        let mut other_outcome = first.clone();
        other_outcome.io_volume += 1;
        assert_ne!(first.fingerprint(), other_outcome.fingerprint());
        assert_ne!(client(&first), client(&other_outcome));
    }
}
