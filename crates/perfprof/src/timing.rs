//! Repeated-run wall-clock summaries and latency percentiles.
//!
//! The benchmark of record times whole algorithm runs — milliseconds to
//! seconds — so it wants a small number of repetitions and a robust (median)
//! summary; the server wants tail percentiles of a latency distribution.

use std::time::Instant;

/// Median / min / max of a set of wall-clock samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingSummary {
    /// Number of samples.
    pub runs: usize,
    /// Median of the samples, in seconds.
    pub median_seconds: f64,
    /// Fastest sample, in seconds.
    pub min_seconds: f64,
    /// Slowest sample, in seconds.
    pub max_seconds: f64,
}

/// Summarise raw samples (seconds).
///
/// # Panics
/// Panics if `samples` is empty or contains a NaN.
pub fn summarize_seconds(samples: &[f64]) -> TimingSummary {
    assert!(!samples.is_empty(), "at least one sample expected");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must not be NaN"));
    TimingSummary {
        runs: sorted.len(),
        median_seconds: sorted[sorted.len() / 2],
        min_seconds: sorted[0],
        max_seconds: sorted[sorted.len() - 1],
    }
}

/// Run `f` `runs` times, returning the last result and the timing summary.
///
/// # Panics
/// Panics if `runs == 0`.
pub fn time_runs<T>(runs: usize, mut f: impl FnMut() -> T) -> (T, TimingSummary) {
    assert!(runs > 0, "at least one run expected");
    let mut samples = Vec::with_capacity(runs);
    let mut last = None;
    for _ in 0..runs {
        let start = Instant::now();
        last = Some(f());
        samples.push(start.elapsed().as_secs_f64());
    }
    (last.expect("runs > 0"), summarize_seconds(&samples))
}

/// Percentile summary of a latency distribution, for serving-style
/// workloads (the `/stats` endpoint of `crates/server` and the `loadgen`
/// scenarios) where the tail matters more than the median alone.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean, in seconds.
    pub mean_seconds: f64,
    /// 50th percentile, in seconds.
    pub p50_seconds: f64,
    /// 95th percentile, in seconds.
    pub p95_seconds: f64,
    /// 99th percentile, in seconds.
    pub p99_seconds: f64,
    /// Slowest sample, in seconds.
    pub max_seconds: f64,
}

/// The `q`-th percentile (`0.0 ..= 1.0`) of an **ascending-sorted** slice,
/// by the nearest-rank method.  Returns `0.0` for an empty slice.
pub fn percentile(sorted_ascending: &[f64], q: f64) -> f64 {
    if sorted_ascending.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = ((q * sorted_ascending.len() as f64).ceil() as usize).max(1);
    sorted_ascending[rank.min(sorted_ascending.len()) - 1]
}

/// Summarise raw latency samples (seconds).  An empty slice yields the
/// all-zero summary rather than panicking — a server that has not yet
/// received a request still has a well-formed `/stats` document.
///
/// # Panics
/// Panics if a sample is NaN.
pub fn latency_summary(samples: &[f64]) -> LatencySummary {
    if samples.is_empty() {
        return LatencySummary::default();
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must not be NaN"));
    LatencySummary {
        count: sorted.len(),
        mean_seconds: sorted.iter().sum::<f64>() / sorted.len() as f64,
        p50_seconds: percentile(&sorted, 0.50),
        p95_seconds: percentile(&sorted, 0.95),
        p99_seconds: percentile(&sorted, 0.99),
        max_seconds: sorted[sorted.len() - 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_samples() {
        let summary = summarize_seconds(&[3.0, 1.0, 2.0]);
        assert_eq!(summary.runs, 3);
        assert_eq!(summary.median_seconds, 2.0);
        assert_eq!(summary.min_seconds, 1.0);
        assert_eq!(summary.max_seconds, 3.0);
    }

    #[test]
    fn time_runs_counts_and_returns() {
        let mut calls = 0;
        let (value, summary) = time_runs(5, || {
            calls += 1;
            calls
        });
        assert_eq!(value, 5);
        assert_eq!(summary.runs, 5);
        assert!(summary.min_seconds <= summary.median_seconds);
        assert!(summary.median_seconds <= summary.max_seconds);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&sorted, 0.50), 50.0);
        assert_eq!(percentile(&sorted, 0.95), 95.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn latency_summary_of_known_samples() {
        let samples: Vec<f64> = (1..=10).rev().map(|i| i as f64).collect();
        let summary = latency_summary(&samples);
        assert_eq!(summary.count, 10);
        assert_eq!(summary.p50_seconds, 5.0);
        assert_eq!(summary.p99_seconds, 10.0);
        assert_eq!(summary.max_seconds, 10.0);
        assert!((summary.mean_seconds - 5.5).abs() < 1e-12);
        assert_eq!(latency_summary(&[]), LatencySummary::default());
    }
}
