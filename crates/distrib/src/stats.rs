//! Cluster-wide counters for the coordinator's `/stats` endpoint.
//!
//! Every counter is a relaxed atomic: the serving layer bumps them from
//! request-handler threads and snapshots them lock-free; only the distinct
//! worker roster needs a mutex (it is touched once per worker lifetime).
//!
//! The counters obey one reconciliation invariant the serving tests assert:
//! once all jobs are complete, `tasks_claimed == tasks_completed +
//! lease_expiries` — every claim either produced an accepted contribution
//! or its lease was reaped and the task re-issued.

use std::sync::atomic::{AtomicU64, Ordering};

use engine::json::{Array, Fields, Writer};
use treemem::sync::TrackedMutex;

/// Shared counter block; one per coordinator process.
#[derive(Debug)]
pub struct ClusterStats {
    /// Jobs registered with the coordinator.
    pub jobs_started: AtomicU64,
    /// Jobs whose every task has an accepted contribution.
    pub jobs_completed: AtomicU64,
    /// Task leases handed out (re-issues count again).
    pub tasks_claimed: AtomicU64,
    /// Contributions accepted.
    pub tasks_completed: AtomicU64,
    /// Tasks pushed back to the pending queue after a lease expired.
    pub tasks_requeued: AtomicU64,
    /// Leases reaped past their monotonic deadline.
    pub lease_expiries: AtomicU64,
    /// Contributions rejected for echoing a stale lease epoch.
    pub stale_contributions: AtomicU64,
    /// Accepted contribution payload bytes (frame bodies).
    pub contribution_bytes: AtomicU64,
    workers: TrackedMutex<Vec<String>>,
}

impl Default for ClusterStats {
    fn default() -> ClusterStats {
        ClusterStats {
            jobs_started: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
            tasks_claimed: AtomicU64::new(0),
            tasks_completed: AtomicU64::new(0),
            tasks_requeued: AtomicU64::new(0),
            lease_expiries: AtomicU64::new(0),
            stale_contributions: AtomicU64::new(0),
            contribution_bytes: AtomicU64::new(0),
            workers: TrackedMutex::new(Vec::new(), "cluster-stats.workers"),
        }
    }
}

/// A point-in-time copy of [`ClusterStats`], safe to render after the
/// atomics move on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSnapshot {
    /// Jobs registered with the coordinator.
    pub jobs_started: u64,
    /// Jobs whose every task has an accepted contribution.
    pub jobs_completed: u64,
    /// Task leases handed out (re-issues count again).
    pub tasks_claimed: u64,
    /// Contributions accepted.
    pub tasks_completed: u64,
    /// Tasks pushed back to the pending queue after a lease expired.
    pub tasks_requeued: u64,
    /// Leases reaped past their monotonic deadline.
    pub lease_expiries: u64,
    /// Contributions rejected for echoing a stale lease epoch.
    pub stale_contributions: u64,
    /// Accepted contribution payload bytes.
    pub contribution_bytes: u64,
    /// Distinct worker identities seen, in first-claim order.
    pub workers: Vec<String>,
}

impl ClusterStats {
    /// Fresh, all-zero counters.
    pub fn new() -> ClusterStats {
        ClusterStats::default()
    }

    /// Record a worker identity; returns its roster index (first-claim
    /// order), which jobs use for per-worker busy-time accounting.
    pub fn note_worker(&self, worker: &str) -> usize {
        let mut roster = self.workers.lock();
        if let Some(index) = roster.iter().position(|known| known == worker) {
            index
        } else {
            roster.push(worker.to_string());
            roster.len() - 1
        }
    }

    /// Copy every counter.
    pub fn snapshot(&self) -> ClusterSnapshot {
        ClusterSnapshot {
            jobs_started: self.jobs_started.load(Ordering::Relaxed),
            jobs_completed: self.jobs_completed.load(Ordering::Relaxed),
            tasks_claimed: self.tasks_claimed.load(Ordering::Relaxed),
            tasks_completed: self.tasks_completed.load(Ordering::Relaxed),
            tasks_requeued: self.tasks_requeued.load(Ordering::Relaxed),
            lease_expiries: self.lease_expiries.load(Ordering::Relaxed),
            stale_contributions: self.stale_contributions.load(Ordering::Relaxed),
            contribution_bytes: self.contribution_bytes.load(Ordering::Relaxed),
            workers: self.workers.lock().clone(),
        }
    }
}

/// Bump a counter by one.
pub(crate) fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// The `cluster` object of the serving layer's `/stats` document.
impl Fields for ClusterSnapshot {
    fn fields(&self, cluster: &mut Writer<'_>) {
        cluster
            .field("workers", Array(&self.workers))
            .field("jobs_started", self.jobs_started)
            .field("jobs_completed", self.jobs_completed)
            .field("tasks_claimed", self.tasks_claimed)
            .field("tasks_completed", self.tasks_completed)
            .field("tasks_requeued", self.tasks_requeued)
            .field("lease_expiries", self.lease_expiries)
            .field("stale_contributions", self.stale_contributions)
            .field("contribution_bytes", self.contribution_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::json::Json;

    #[test]
    fn the_worker_roster_dedupes_and_keeps_first_claim_order() {
        let stats = ClusterStats::new();
        assert_eq!(stats.note_worker("b"), 0);
        assert_eq!(stats.note_worker("a"), 1);
        assert_eq!(stats.note_worker("b"), 0);
        assert_eq!(stats.snapshot().workers, vec!["b", "a"]);
    }

    #[test]
    fn snapshots_render_as_valid_json() {
        let stats = ClusterStats::new();
        stats.note_worker("w-\"quoted\"");
        bump(&stats.tasks_claimed);
        bump(&stats.tasks_completed);
        let text = engine::json::line(|cluster| stats.snapshot().fields(cluster));
        let json = Json::parse(&text).unwrap();
        assert_eq!(json.get("tasks_claimed").and_then(Json::as_u64), Some(1));
        assert_eq!(
            json.get("workers")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(1)
        );
    }
}
