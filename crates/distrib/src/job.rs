//! Coordinator-side job registry: task leases, epochs and re-issue.
//!
//! A **job** is one distributed factorization: the coordinator plans the
//! cut, registers the per-task column orders and modeled peaks here, and
//! then workers drive the state machine over HTTP:
//!
//! ```text
//!            claim                    contribute (epoch match)
//! Pending ────────────▶ Leased{deadline} ────────────▶ Done
//!    ▲                      │
//!    └──────────────────────┘ lease reaped past its monotonic deadline
//! ```
//!
//! Two decisions carry the fault-tolerance story:
//!
//! * **Deadlines are monotonic.**  Lease deadlines come from
//!   [`engine::monotonic_millis`], never wall time — an NTP step or a
//!   suspended laptop must not mass-expire (or immortalize) leases.
//! * **Epochs fence stale work.**  A task's epoch increments on *every*
//!   claim, so a contribution from a worker whose lease was reaped and
//!   re-issued echoes an old epoch and is rejected with a typed error
//!   (HTTP 409 at the serving layer).  The re-issued lease's work is the
//!   bit-identical computation, so dropping the stale copy is lossless.
//!
//! * **Shapes come from the cut, never from the frame.**  Contributions are
//!   values only; the coordinator owns the row structure, so it knows how
//!   many values and which root blocks (of which dimension) each task must
//!   hand back.  A contribution of any other shape is rejected as
//!   [`ContributeError::Malformed`] with the lease left live, and the
//!   ledger retains the *cut's* block entries for an accepted one.
//!
//! Claims are gated by the job's [`BudgetLedger`]: a worker only receives a
//! task when its modeled peak fits the cluster-level memory budget next to
//! the peaks of currently-leased tasks and the retained contribution blocks
//! of finished ones.  The ledger force-admits the smallest pending task
//! when nothing is running, so a budget below the largest subtree degrades
//! to sequential issue instead of deadlocking the cluster.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use engine::{monotonic_millis, CancelToken, DistributedRuntime, SubtreeParts};
use multifrontal::parallel::{BudgetLedger, ReserveSelection};
use treemem::sync::{TrackedCondvar, TrackedGuard, TrackedMutex};

use crate::stats::{bump, ClusterStats};
use crate::wire::{ClaimReply, Contribution, SubtreeTask};

/// Everything the coordinator knows about a job at registration time.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Canonical engine-configuration JSON (workers re-derive the matrix
    /// and symbolic structure from this).
    pub config_json: String,
    /// Lease duration per claim, milliseconds.
    pub lease_ms: u64,
    /// Bottom-up column order of each subtree task.
    pub task_orders: Vec<Vec<usize>>,
    /// Modeled peak entries of each task (the ledger reservation).
    pub task_peaks: Vec<u64>,
    /// Factor values each task's contribution must carry (`Σ µ(j)` over the
    /// task order).
    pub task_values: Vec<usize>,
    /// `(column, dimension)` of the root blocks each task's contribution
    /// must carry, by increasing column.
    pub task_blocks: Vec<Vec<(usize, usize)>>,
    /// Cluster-level memory budget in entries, if bounded.
    pub budget_entries: Option<u64>,
}

/// Why a contribution was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContributeError {
    /// No job with that id (finished jobs are removed after the merge).
    UnknownJob,
    /// Task index out of range for the job's cut.
    UnknownTask,
    /// The contribution echoes an epoch older than the current lease —
    /// the sender's lease was reaped and the task re-issued.
    StaleEpoch,
    /// The task already has an accepted contribution.
    AlreadyDone,
    /// The contribution does not have the shape the cut fixes for its task
    /// (value count, root-block columns and dimensions).  The lease stays
    /// live: an honest copy under the same epoch is still accepted.
    Malformed,
}

impl std::fmt::Display for ContributeError {
    fn fmt(&self, fmt: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContributeError::UnknownJob => write!(fmt, "unknown job"),
            ContributeError::UnknownTask => write!(fmt, "unknown task"),
            ContributeError::StaleEpoch => {
                write!(fmt, "stale lease epoch: the task was re-issued")
            }
            ContributeError::AlreadyDone => write!(fmt, "task already completed"),
            ContributeError::Malformed => write!(
                fmt,
                "contribution does not match the task's value count and root blocks"
            ),
        }
    }
}

impl std::error::Error for ContributeError {}

/// Why [`Job::wait_for_completion`] gave up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitError {
    /// The job stalled: no claim, contribution or requeue for two lease
    /// periods, so no live worker is attached.
    TimedOut,
    /// The caller's cancel token fired.
    Cancelled,
}

/// How many lease periods without any job activity mean "no live worker".
/// One period is not enough — a healthy worker may hold a lease that long
/// in silence — but a held lease always ends in a contribution or a requeue
/// within one period, so two silent periods cannot happen while anyone is
/// working on the job.
const STALL_LEASE_PERIODS: u64 = 2;

#[derive(Debug)]
enum Phase {
    Pending,
    Leased { deadline_ms: u64 },
    Done,
}

#[derive(Debug)]
struct TaskState {
    order: Vec<usize>,
    peak: u64,
    value_count: usize,
    root_blocks: Vec<(usize, usize)>,
    phase: Phase,
    /// Increments on every claim; the fence against stale contributions.
    epoch: u64,
    parts: Option<SubtreeParts>,
}

impl TaskState {
    /// Entries of the root blocks the task leaves for the merge: what its
    /// reservation shrinks to once its contribution is accepted.
    fn retained(&self) -> u64 {
        self.root_blocks
            .iter()
            .map(|&(_, dimension)| (dimension * dimension) as u64)
            .sum()
    }
}

#[derive(Debug, Default)]
struct JobState {
    tasks: Vec<TaskState>,
    completed: usize,
    claimed: u64,
    requeued: u64,
    lease_expiries: u64,
    contribution_bytes: u64,
    /// Per-worker busy seconds, in first-claim order for this job.
    worker_busy: Vec<(String, f64)>,
    /// Monotonic instant of the last claim, accepted contribution or
    /// requeue — the stall clock of [`Job::wait_for_completion`].
    last_activity_ms: u64,
}

impl JobState {
    /// Move every lease past its deadline back to `Pending`, releasing its
    /// ledger reservation and bumping the epoch so late contributions from
    /// the dead lease are fenced out.
    fn reap_expired(&mut self, now_ms: u64, ledger: &BudgetLedger, stats: &ClusterStats) {
        for task in &mut self.tasks {
            if let Phase::Leased { deadline_ms } = task.phase {
                if now_ms >= deadline_ms {
                    task.phase = Phase::Pending;
                    task.epoch += 1;
                    ledger.finish_task(task.peak, 0);
                    self.lease_expiries += 1;
                    self.requeued += 1;
                    self.last_activity_ms = now_ms;
                    bump(&stats.lease_expiries);
                    bump(&stats.tasks_requeued);
                }
            }
        }
    }
}

/// One registered distributed factorization.
pub struct Job {
    id: u64,
    config_json: String,
    lease_ms: u64,
    ledger: BudgetLedger,
    state: TrackedMutex<JobState>,
    progress: TrackedCondvar,
    /// Monotonic registration instant ([`monotonic_millis`]), so the
    /// claim-wall clock survives NTP steps like the lease deadlines do.
    started_ms: u64,
    stats: Arc<ClusterStats>,
}

impl Job {
    /// The coordinator-assigned id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of subtree tasks in the cut.
    pub fn task_count(&self) -> usize {
        self.state.lock().tasks.len()
    }

    fn lock(&self) -> TrackedGuard<'_, JobState> {
        self.state.lock()
    }

    /// Try to lease one pending task to `worker`.  Returns `None` when
    /// nothing is claimable right now — either every remaining task is
    /// leased out, or the budget gate is closed while other leases run.
    /// Never blocks beyond the state lock: HTTP handlers call this.
    pub fn try_claim(&self, worker: &str) -> Option<SubtreeTask> {
        let now_ms = monotonic_millis();
        let mut state = self.lock();
        state.reap_expired(now_ms, &self.ledger, &self.stats);
        let pending: Vec<usize> = state
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, task)| matches!(task.phase, Phase::Pending))
            .map(|(index, _)| index)
            .collect();
        if pending.is_empty() {
            return None;
        }
        let peaks: Vec<u64> = pending
            .iter()
            .map(|&index| state.tasks[index].peak)
            .collect();
        let chosen = match self.ledger.select_and_reserve(&peaks) {
            ReserveSelection::Selected(slot) => pending[slot],
            ReserveSelection::Blocked(_) => return None,
        };
        let task = &mut state.tasks[chosen];
        task.phase = Phase::Leased {
            deadline_ms: now_ms.saturating_add(self.lease_ms),
        };
        task.epoch += 1;
        let issued = SubtreeTask {
            job: self.id,
            task: chosen,
            epoch: task.epoch,
            lease_ms: self.lease_ms,
            config: self.config_json.clone(),
            order: task.order.clone(),
        };
        state.claimed += 1;
        state.last_activity_ms = now_ms;
        if !state.worker_busy.iter().any(|(name, _)| name == worker) {
            state.worker_busy.push((worker.to_string(), 0.0));
        }
        bump(&self.stats.tasks_claimed);
        self.stats.note_worker(worker);
        Some(issued)
    }

    /// Accept one task's output, if its lease epoch is still current.
    /// `frame_bytes` is the size of the contribution frame, for the
    /// transfer-volume counters.
    pub fn contribute(
        &self,
        contribution: Contribution,
        frame_bytes: u64,
    ) -> Result<(), ContributeError> {
        let now_ms = monotonic_millis();
        let mut state = self.lock();
        // Reap first so a contribution racing its own expired lease is
        // consistently judged stale rather than winning the race.
        state.reap_expired(now_ms, &self.ledger, &self.stats);
        let task_count = state.tasks.len();
        let task = state
            .tasks
            .get_mut(contribution.task)
            .ok_or(ContributeError::UnknownTask)?;
        match task.phase {
            Phase::Done => {
                bump(&self.stats.stale_contributions);
                return Err(ContributeError::AlreadyDone);
            }
            Phase::Pending => {
                bump(&self.stats.stale_contributions);
                return Err(ContributeError::StaleEpoch);
            }
            Phase::Leased { .. } if contribution.epoch != task.epoch => {
                bump(&self.stats.stale_contributions);
                return Err(ContributeError::StaleEpoch);
            }
            Phase::Leased { .. } => {}
        }
        let parts = &contribution.parts;
        let blocks = parts
            .blocks
            .iter()
            .map(|(column, block)| (column, block.n()));
        if parts.values.len() != task.value_count || !blocks.eq(task.root_blocks.iter().copied()) {
            return Err(ContributeError::Malformed);
        }
        // The task's peak reservation shrinks to the contribution blocks it
        // leaves behind for the merge; those stay reserved until the
        // coordinator absorbs them (`release_retained` after the wait).
        self.ledger.finish_task(task.peak, task.retained());
        task.phase = Phase::Done;
        task.parts = Some(contribution.parts);
        state.completed += 1;
        state.last_activity_ms = now_ms;
        state.contribution_bytes += frame_bytes;
        if let Some(slot) = state
            .worker_busy
            .iter_mut()
            .find(|(name, _)| name == &contribution.worker)
        {
            slot.1 += contribution.busy_seconds;
        } else {
            state
                .worker_busy
                .push((contribution.worker.clone(), contribution.busy_seconds));
        }
        bump(&self.stats.tasks_completed);
        self.stats
            .contribution_bytes
            .fetch_add(frame_bytes, Ordering::Relaxed);
        if state.completed == task_count {
            bump(&self.stats.jobs_completed);
        }
        drop(state);
        self.progress.notify_all();
        Ok(())
    }

    /// Block until every task has an accepted contribution, reaping expired
    /// leases while waiting so dead workers' tasks go back on the queue.
    /// Returns the parts in task order plus the runtime half of the
    /// distributed report, and releases the retained ledger reservations.
    ///
    /// The wait is bounded by the job's own lease: after two lease periods
    /// without a claim, contribution or requeue nobody is working on the
    /// job (see `STALL_LEASE_PERIODS`), and the wait gives up with
    /// [`WaitError::TimedOut`] instead of parking the caller forever.  A job
    /// that progresses — however slowly — never trips it.  On either error
    /// the job is retired: its ledger reservations are released and its
    /// tasks stop being claimable.
    pub fn wait_for_completion(
        &self,
        cancel: Option<&CancelToken>,
    ) -> Result<(Vec<SubtreeParts>, DistributedRuntime), WaitError> {
        // Wake often enough to reap leases promptly, but at least every
        // 50ms so cancellation stays responsive.
        let tick = std::time::Duration::from_millis((self.lease_ms / 4).clamp(5, 50));
        let stall_ms = self.lease_ms.saturating_mul(STALL_LEASE_PERIODS);
        let mut state = self.lock();
        loop {
            let now_ms = monotonic_millis();
            state.reap_expired(now_ms, &self.ledger, &self.stats);
            if state.completed == state.tasks.len() {
                break;
            }
            let gave_up = if cancel.is_some_and(CancelToken::is_cancelled) {
                Some(WaitError::Cancelled)
            } else if now_ms.saturating_sub(state.last_activity_ms) >= stall_ms {
                Some(WaitError::TimedOut)
            } else {
                None
            };
            if let Some(error) = gave_up {
                self.retire(&mut state);
                return Err(error);
            }
            let (next, _) = self.progress.wait_timeout(state, tick);
            state = next;
        }
        let mut parts = Vec::with_capacity(state.tasks.len());
        let mut retained = 0u64;
        for task in &mut state.tasks {
            parts.push(task.parts.take().expect("completed task without parts"));
            retained += task.retained();
        }
        debug_assert_eq!(
            state.claimed,
            state.completed as u64 + state.lease_expiries,
            "every claim must end in a contribution or an expiry"
        );
        let runtime = DistributedRuntime {
            workers: state.worker_busy.len(),
            tasks_requeued: state.requeued,
            lease_expiries: state.lease_expiries,
            contribution_bytes: state.contribution_bytes,
            claim_wall_seconds: monotonic_millis().saturating_sub(self.started_ms) as f64 / 1e3,
            worker_busy_seconds: state.worker_busy.iter().map(|(_, busy)| *busy).collect(),
        };
        drop(state);
        self.ledger.release_retained(retained);
        Ok((parts, runtime))
    }

    /// Give up on the job: release every reservation it still holds (the
    /// peaks of leased tasks, the retained blocks of finished ones), drop
    /// the collected parts, and mark every task done so nothing is claimable
    /// and late contributions are fenced like duplicates.
    fn retire(&self, state: &mut JobState) {
        let mut retained = 0u64;
        for task in &mut state.tasks {
            if matches!(task.phase, Phase::Leased { .. }) {
                self.ledger.finish_task(task.peak, 0);
            }
            if task.parts.take().is_some() {
                retained += task.retained();
            }
            task.phase = Phase::Done;
        }
        state.completed = state.tasks.len();
        self.ledger.release_retained(retained);
    }

    /// Render progress as the `/internal/job/{id}` JSON document.
    pub fn progress_json(&self) -> String {
        let mut state = self.lock();
        state.reap_expired(monotonic_millis(), &self.ledger, &self.stats);
        let leased = state
            .tasks
            .iter()
            .filter(|task| matches!(task.phase, Phase::Leased { .. }))
            .count();
        let pending = state.tasks.len() - state.completed - leased;
        engine::json::document(|doc| {
            doc.field("job", self.id)
                .field("tasks", state.tasks.len())
                .field("completed", state.completed)
                .field("leased", leased)
                .field("pending", pending)
                .field("claimed", state.claimed)
                .field("requeued", state.requeued)
                .field("lease_expiries", state.lease_expiries)
                .field("contribution_bytes", state.contribution_bytes)
                .field("done", state.completed == state.tasks.len());
        })
    }
}

/// All live jobs of one coordinator process.
pub struct JobRegistry {
    jobs: TrackedMutex<Vec<Arc<Job>>>,
    next_id: AtomicU64,
    stats: Arc<ClusterStats>,
}

impl JobRegistry {
    /// An empty registry sharing `stats` with the serving layer.
    pub fn new(stats: Arc<ClusterStats>) -> JobRegistry {
        JobRegistry {
            jobs: TrackedMutex::new(Vec::new(), "job-registry.jobs"),
            next_id: AtomicU64::new(1),
            stats,
        }
    }

    /// The shared counter block.
    pub fn stats(&self) -> &Arc<ClusterStats> {
        &self.stats
    }

    /// Register a job; its tasks become claimable immediately.
    pub fn register(&self, spec: JobSpec) -> Arc<Job> {
        let task_count = spec.task_orders.len();
        assert!(
            [
                spec.task_peaks.len(),
                spec.task_values.len(),
                spec.task_blocks.len()
            ] == [task_count; 3],
            "one peak, value count and root-block list per task order"
        );
        let tasks = spec
            .task_orders
            .into_iter()
            .zip(spec.task_peaks)
            .zip(spec.task_values.into_iter().zip(spec.task_blocks))
            .map(|((order, peak), (value_count, root_blocks))| TaskState {
                order,
                peak,
                value_count,
                root_blocks,
                phase: Phase::Pending,
                epoch: 0,
                parts: None,
            })
            .collect();
        let started_ms = monotonic_millis();
        let job = Arc::new(Job {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            config_json: spec.config_json,
            lease_ms: spec.lease_ms,
            ledger: BudgetLedger::new(spec.budget_entries),
            state: TrackedMutex::new(
                JobState {
                    tasks,
                    last_activity_ms: started_ms,
                    ..JobState::default()
                },
                "job.state",
            ),
            progress: TrackedCondvar::new(),
            started_ms,
            stats: Arc::clone(&self.stats),
        });
        self.jobs.lock().push(Arc::clone(&job));
        bump(&self.stats.jobs_started);
        job
    }

    /// Answer one worker claim poll: the first job (registration order)
    /// with a claimable task wins; `Wait` when jobs exist but nothing is
    /// claimable right now; `Idle` when no job needs work.
    pub fn claim(&self, worker: &str) -> ClaimReply {
        let jobs: Vec<Arc<Job>> = self.jobs.lock().clone();
        let mut any_incomplete = false;
        for job in jobs {
            if let Some(task) = job.try_claim(worker) {
                return ClaimReply::Task(Box::new(task));
            }
            let state = job.lock();
            any_incomplete |= state.completed < state.tasks.len();
        }
        if any_incomplete {
            ClaimReply::Wait {
                retry_ms: self.suggested_retry_ms(),
            }
        } else {
            ClaimReply::Idle
        }
    }

    fn suggested_retry_ms(&self) -> u64 {
        // A fraction of the shortest live lease keeps re-issued tasks from
        // sitting unclaimed; clamp so workers neither spin nor stall.
        let jobs = self.jobs.lock();
        let shortest = jobs.iter().map(|job| job.lease_ms).min().unwrap_or(1_000);
        (shortest / 4).clamp(10, 500)
    }

    /// Route a contribution to its job.
    pub fn contribute(
        &self,
        contribution: Contribution,
        frame_bytes: u64,
    ) -> Result<(), ContributeError> {
        let job = self
            .job(contribution.job)
            .ok_or(ContributeError::UnknownJob)?;
        job.contribute(contribution, frame_bytes)
    }

    /// Look up a live job.
    pub fn job(&self, id: u64) -> Option<Arc<Job>> {
        self.jobs.lock().iter().find(|job| job.id == id).cloned()
    }

    /// Drop a finished (or abandoned) job; subsequent contributions answer
    /// `UnknownJob`.
    pub fn remove(&self, id: u64) {
        self.jobs.lock().retain(|job| job.id != id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::contribution_frame;
    use multifrontal::{ContributionStore, DenseMatrix};

    fn registry() -> JobRegistry {
        JobRegistry::new(Arc::new(ClusterStats::new()))
    }

    /// A job of single-column tasks `[0]`, `[1]`, … with the given peaks;
    /// task `t` hands back one value and retains `retained[t]` entries, as
    /// one root block of column `t` (always a perfect square here).
    fn spec(peaks: Vec<u64>, retained: Vec<u64>, budget: Option<u64>) -> JobSpec {
        let tasks = peaks.len();
        JobSpec {
            config_json: "{}".to_string(),
            lease_ms: 10_000,
            task_orders: (0..tasks).map(|task| vec![task]).collect(),
            task_peaks: peaks,
            task_values: vec![1; tasks],
            task_blocks: retained
                .into_iter()
                .enumerate()
                .map(|(task, entries)| match entries.isqrt() {
                    0 => Vec::new(),
                    dimension => vec![(task, dimension as usize)],
                })
                .collect(),
            budget_entries: budget,
        }
    }

    /// What an honest worker hands back for task `task` of [`spec`] when it
    /// retains `entries`.
    fn parts(task: usize, entries: u64) -> SubtreeParts {
        let mut blocks = ContributionStore::new();
        if entries > 0 {
            blocks.insert(task, DenseMatrix::zeros(entries.isqrt() as usize));
        }
        SubtreeParts {
            values: vec![1.0],
            blocks,
        }
    }

    fn contribution_for(task: &SubtreeTask, entries: u64) -> (Contribution, u64) {
        contribution_from(task, "w-test", entries)
    }

    fn contribution_from(task: &SubtreeTask, worker: &str, entries: u64) -> (Contribution, u64) {
        framed(task, worker, &parts(task.task, entries))
    }

    fn framed(task: &SubtreeTask, worker: &str, parts: &SubtreeParts) -> (Contribution, u64) {
        let frame = contribution_frame(task.job, task.task, task.epoch, worker, 0.25, parts);
        let bytes = frame.len() as u64;
        (Contribution::from_frame(&frame).unwrap(), bytes)
    }

    /// The progress document parses to what the hand-formatted renderer
    /// wrote before the `json::Writer` (only its layout may change).
    #[test]
    fn progress_documents_keep_their_fields() {
        let registry = registry();
        let job = registry.register(spec(vec![5, 5, 5], vec![0, 0, 0], None));
        let first = job.try_claim("w-a").unwrap();
        let (contribution, bytes) = contribution_for(&first, 0);
        registry.contribute(contribution, bytes).unwrap();
        job.try_claim("w-b").unwrap();
        let progress = job.progress_json();
        let parent = "{\"job\": 1, \"tasks\": 3, \"completed\": 1, \"leased\": 1, \"pending\": 1, \"claimed\": 2, \"requeued\": 0, \"lease_expiries\": 0, \"contribution_bytes\": 196, \"done\": false}";
        assert_eq!(
            engine::json::Json::parse(&progress).unwrap(),
            engine::json::Json::parse(parent).unwrap()
        );
    }

    #[test]
    fn the_full_lease_lifecycle_reconciles() {
        let registry = registry();
        let job = registry.register(spec(vec![5, 5], vec![0, 0], None));
        let first = job.try_claim("w-a").unwrap();
        let second = job.try_claim("w-b").unwrap();
        assert_ne!(first.task, second.task);
        assert!(job.try_claim("w-a").is_none());

        let (contribution, bytes) = contribution_from(&first, "w-a", 0);
        registry.contribute(contribution, bytes).unwrap();
        let (contribution, bytes) = contribution_from(&second, "w-b", 0);
        registry.contribute(contribution, bytes).unwrap();

        let (parts, runtime) = job.wait_for_completion(None).unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(runtime.workers, 2);
        assert_eq!(runtime.lease_expiries, 0);
        assert_eq!(runtime.tasks_requeued, 0);
        assert!(runtime.contribution_bytes > 0);

        let snapshot = registry.stats().snapshot();
        assert_eq!(snapshot.tasks_claimed, 2);
        assert_eq!(snapshot.tasks_completed, 2);
        assert_eq!(snapshot.jobs_completed, 1);
        assert_eq!(
            snapshot.tasks_claimed,
            snapshot.tasks_completed + snapshot.lease_expiries
        );
    }

    #[test]
    fn expired_leases_requeue_and_fence_out_the_old_epoch() {
        let registry = registry();
        let job = registry.register(JobSpec {
            lease_ms: 10,
            ..spec(vec![5], vec![1], None)
        });
        let stale = job.try_claim("w-dead").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(30));

        // The reap happens on the next claim: the task is re-issued with a
        // fresh epoch to a surviving worker.
        let reissued = job.try_claim("w-alive").unwrap();
        assert_eq!(reissued.task, stale.task);
        assert!(reissued.epoch > stale.epoch);

        // The dead worker's late contribution is fenced out...
        let (late, bytes) = contribution_for(&stale, 1);
        assert_eq!(
            registry.contribute(late, bytes),
            Err(ContributeError::StaleEpoch)
        );
        // ...and the re-issued lease's copy is accepted.
        let (fresh, bytes) = contribution_for(&reissued, 1);
        registry.contribute(fresh, bytes).unwrap();
        let (fresh_again, bytes) = contribution_for(&reissued, 1);
        assert_eq!(
            registry.contribute(fresh_again, bytes),
            Err(ContributeError::AlreadyDone)
        );

        let (_, runtime) = job.wait_for_completion(None).unwrap();
        assert_eq!(runtime.lease_expiries, 1);
        assert_eq!(runtime.tasks_requeued, 1);
        let snapshot = registry.stats().snapshot();
        assert_eq!(snapshot.stale_contributions, 2);
        assert_eq!(
            snapshot.tasks_claimed,
            snapshot.tasks_completed + snapshot.lease_expiries
        );
    }

    #[test]
    fn the_budget_gate_serializes_claims_that_do_not_fit_together() {
        let registry = registry();
        let job = registry.register(spec(vec![8, 6], vec![4, 0], Some(10)));
        let first = job.try_claim("w-a").unwrap();
        assert_eq!(first.task, 0);
        // 8 reserved + 6 requested > 10 while a lease runs: gate closed.
        assert!(job.try_claim("w-b").is_none());
        match registry.claim("w-b") {
            ClaimReply::Wait { retry_ms } => assert!(retry_ms >= 10),
            other => panic!("expected Wait, got {other:?}"),
        }
        // Finishing the first task retains 4 entries of blocks; 4 + 6 = 10
        // now fits and the second task becomes claimable.
        let (contribution, bytes) = contribution_for(&first, 4);
        registry.contribute(contribution, bytes).unwrap();
        let second = job.try_claim("w-b").unwrap();
        assert_eq!(second.task, 1);
        let (contribution, bytes) = contribution_for(&second, 0);
        registry.contribute(contribution, bytes).unwrap();
        job.wait_for_completion(None).unwrap();
    }

    #[test]
    fn waits_time_out_and_cancel_cleanly() {
        let registry = registry();
        // Nobody ever claims: the wait gives up after two 15 ms lease
        // periods instead of parking the caller forever.
        let job = registry.register(JobSpec {
            lease_ms: 15,
            ..spec(vec![1], vec![0], None)
        });
        let started = std::time::Instant::now();
        assert!(matches!(
            job.wait_for_completion(None),
            Err(WaitError::TimedOut)
        ));
        assert!(started.elapsed() < std::time::Duration::from_secs(5));
        // A retired job hands out nothing.
        assert!(job.try_claim("w-late").is_none());
        let job = registry.register(spec(vec![1], vec![0], None));
        let cancel = CancelToken::new();
        cancel.cancel();
        assert!(matches!(
            job.wait_for_completion(Some(&cancel)),
            Err(WaitError::Cancelled)
        ));
    }

    #[test]
    fn a_worker_that_dies_mid_job_leaves_no_reservation_behind() {
        let registry = registry();
        let job = registry.register(JobSpec {
            lease_ms: 15,
            ..spec(vec![8, 6], vec![4, 0], Some(100))
        });
        // One task finishes (retaining 4 entries of blocks), the other is
        // claimed by a worker that then vanishes; nobody else ever polls.
        let finished = job.try_claim("w-a").unwrap();
        let (contribution, bytes) = contribution_for(&finished, 4);
        registry.contribute(contribution, bytes).unwrap();
        job.try_claim("w-dead").unwrap();
        assert!(job.ledger.reserved() > 0);
        assert!(matches!(
            job.wait_for_completion(None),
            Err(WaitError::TimedOut)
        ));
        assert_eq!(job.ledger.reserved(), 0);
        let snapshot = registry.stats().snapshot();
        assert_eq!(snapshot.lease_expiries, 1, "the dead lease was reaped once");
    }

    #[test]
    fn slow_but_steady_progress_never_trips_the_stall_bound() {
        let registry = registry();
        // Five tasks at ~60 ms each take ~300 ms in total — longer than the
        // 200 ms stall bound of a 100 ms lease — but every step is activity.
        let job = registry.register(JobSpec {
            lease_ms: 100,
            ..spec(vec![1; 5], vec![0; 5], None)
        });
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while let Some(task) = job.try_claim("w-slow") {
                    std::thread::sleep(std::time::Duration::from_millis(60));
                    let (contribution, bytes) = contribution_from(&task, "w-slow", 0);
                    registry.contribute(contribution, bytes).unwrap();
                }
            });
            let (parts, runtime) = job.wait_for_completion(None).unwrap();
            assert_eq!(parts.len(), 5);
            assert_eq!(runtime.lease_expiries, 0);
        });
    }

    #[test]
    fn unknown_jobs_and_tasks_are_typed_errors() {
        let registry = registry();
        let job = registry.register(spec(vec![1], vec![0], None));
        let task = job.try_claim("w").unwrap();
        let (mut contribution, bytes) = contribution_for(&task, 0);
        contribution.job = 999;
        assert_eq!(
            registry.contribute(contribution, bytes),
            Err(ContributeError::UnknownJob)
        );
        let (mut contribution, bytes) = contribution_for(&task, 0);
        contribution.task = 7;
        assert_eq!(
            registry.contribute(contribution, bytes),
            Err(ContributeError::UnknownTask)
        );
        registry.remove(job.id());
        assert!(registry.job(job.id()).is_none());
        match registry.claim("w") {
            ClaimReply::Idle => {}
            other => panic!("expected Idle, got {other:?}"),
        }
    }

    #[test]
    fn contributions_of_the_wrong_shape_are_malformed_and_leave_the_lease_live() {
        let registry = registry();
        // One task: one value, one 2 × 2 root block of column 0.
        let job = registry.register(spec(vec![9], vec![4], Some(100)));
        let task = job.try_claim("w").unwrap();
        let reserved = job.ledger.reserved();
        assert_eq!(reserved, 9);

        let honest = parts(0, 4);
        let short = SubtreeParts {
            values: Vec::new(),
            ..parts(0, 4)
        };
        let mut extra_block = parts(0, 4);
        extra_block.blocks.insert(3, DenseMatrix::zeros(1));
        let wrong_dimension = parts(0, 9);
        let wrong_column = {
            let mut blocks = ContributionStore::new();
            blocks.insert(1, DenseMatrix::zeros(2));
            SubtreeParts {
                values: vec![1.0],
                blocks,
            }
        };
        let no_block = parts(0, 0);
        for bad in [short, extra_block, wrong_dimension, wrong_column, no_block] {
            let (contribution, bytes) = framed(&task, "w", &bad);
            assert_eq!(
                registry.contribute(contribution, bytes),
                Err(ContributeError::Malformed)
            );
            // Nothing moved: the lease is live under the same epoch and
            // the task's peak is still what is reserved.
            let state = job.lock();
            assert!(matches!(state.tasks[0].phase, Phase::Leased { .. }));
            assert_eq!(state.tasks[0].epoch, task.epoch);
            assert_eq!(state.completed, 0);
            drop(state);
            assert_eq!(job.ledger.reserved(), reserved);
        }
        assert_eq!(registry.stats().snapshot().tasks_completed, 0);

        // The honest copy under the same lease is accepted, and the ledger
        // retains the cut's four entries.
        let (contribution, bytes) = framed(&task, "w", &honest);
        registry.contribute(contribution, bytes).unwrap();
        assert_eq!(job.ledger.reserved(), 4);
        job.wait_for_completion(None).unwrap();
        assert_eq!(job.ledger.reserved(), 0);
    }
}
