//! Cross-structure concurrency stress: the thread-sanitizer anchor.
//!
//! Each test races one of the serving layer's shared structures from 4+
//! threads the way production traffic does — plan-cache single-flight
//! stampedes, factor-cache deposit/lookup/eviction races, and job-registry
//! claims racing lease expiry — and then checks the counters reconcile.
//! The nightly `sanitizers` CI job runs exactly this file under
//! `-Zsanitizer=thread`, so keep every test free of deliberate data races
//! and bounded in wall-clock time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use distrib::{contribution_frame, ClaimReply, ClusterStats, Contribution, JobRegistry, JobSpec};
use engine::prelude::*;
use engine::{CacheCore, PlanCache};

const THREADS: usize = 6;

fn banded_config(n: usize, seed: u64) -> EngineConfig {
    EngineConfig::generated(sparsemat::gen::ProblemKind::Banded, n, seed)
}

#[test]
#[cfg_attr(miri, ignore = "spawns timed OS threads; tsan covers this file")]
fn plan_cache_single_flight_survives_a_stampede() {
    let engine = Engine::new();
    let cache = PlanCache::new(2);
    let config = banded_config(32, 7);

    // Stampede: every thread asks for the same configuration at once.  The
    // single-flight gate must hand every caller the same plan while the
    // ordering/symbolic stages run at most a handful of times.
    let hits = AtomicU64::new(0);
    let mut hashes = Vec::new();
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for _ in 0..THREADS {
            joins.push(scope.spawn(|| {
                let mut local = Vec::new();
                for _ in 0..50 {
                    let (plan, hit) = cache
                        .get_or_plan(&engine, &config)
                        .expect("planning a well-formed config succeeds");
                    if hit {
                        hits.fetch_add(1, Ordering::Relaxed);
                    }
                    local.push(plan.config_hash().to_string());
                }
                local
            }));
        }
        for join in joins {
            hashes.extend(join.join().expect("stampede thread panicked"));
        }
    });

    // Everyone resolved the identical plan.
    assert_eq!(hashes.len(), THREADS * 50);
    assert!(hashes.windows(2).all(|pair| pair[0] == pair[1]));
    // The lookups reconcile: every call was either a hit or a miss, and
    // once the burst is over the entry is resident, so a fresh lookup hits.
    let stats = cache.stats();
    assert_eq!(stats.hits + stats.misses, (THREADS * 50) as u64);
    assert!(stats.misses < (THREADS * 50) as u64);
    let (_, hit) = cache.get_or_plan(&engine, &config).unwrap();
    assert!(hit, "the settled entry must serve follow-up lookups");
}

#[test]
#[cfg_attr(miri, ignore = "spawns timed OS threads; tsan covers this file")]
fn factor_cache_deposits_race_lookups_and_eviction() {
    // Deposits, lookups, and LRU eviction race on a factor cache (as the
    // server builds it) smaller than the working set; every resolved factor
    // must still solve correctly, and the byte accounting must balance.
    let engine = Engine::new();
    let config = CacheConfig {
        max_entries: Some(2),
        ..CacheConfig::default()
    };
    let cache: CacheCore<FactorHandle> = CacheCore::new(config, "factor-cache.inner");
    let factors: Vec<Arc<FactorHandle>> = (0..4)
        .map(|seed| {
            let config = banded_config(12, seed).with_numeric(true);
            let (_, handle) = engine
                .plan(&config)
                .unwrap()
                .schedule(&engine)
                .unwrap()
                .execute_with_factor(&engine)
                .unwrap();
            Arc::new(handle.unwrap())
        })
        .collect();

    std::thread::scope(|scope| {
        for worker in 0..THREADS {
            let cache = &cache;
            let factors = &factors;
            scope.spawn(move || {
                for round in 0..150 {
                    let pick = (worker * 5 + round * 3) % factors.len();
                    let key = format!("hash-{pick}");
                    if (worker + round) % 3 == 0 {
                        let factor = Arc::clone(&factors[pick]);
                        let bytes = factor.approx_heap_bytes();
                        cache.insert(&key, factor, bytes);
                    } else if let Some(factor) = cache.get(&key) {
                        let rhs = SolveRhs::Generated {
                            count: 1,
                            seed: round as u64 + 1,
                        };
                        let (report, _) = factor.solve_batch(&rhs, true).expect("factor solves");
                        assert!(report.max_residual.unwrap() < 1e-8);
                    }
                }
            });
        }
    });

    let stats = cache.stats();
    assert!(stats.entries <= 2, "over capacity: {}", stats.entries);
    assert!(stats.hits + stats.misses > 0);
    assert!(stats.bytes_used > 0, "factors carry byte footprints");
    cache.validate_accounting().unwrap();
    // Every key that is still resident resolves to a working factor.
    for pick in 0..factors.len() {
        if let Some(factor) = cache.get(&format!("hash-{pick}")) {
            let rhs = SolveRhs::Generated { count: 1, seed: 5 };
            let (report, _) = factor
                .solve_batch(&rhs, true)
                .expect("resident factor solves");
            assert!(report.max_residual.unwrap() < 1e-8);
        }
    }
}

#[test]
#[cfg_attr(miri, ignore = "spawns timed OS threads; tsan covers this file")]
fn job_registry_claims_race_contributions_and_lease_expiry() {
    // Four workers race to drain one job while a fifth behavior — silently
    // abandoning a lease — forces the expiry/re-issue path.  Once the job
    // drains, every claim must be accounted for as either an accepted
    // contribution or a reaped lease.
    let engine = Engine::new();
    // A wide grid has a bushy elimination tree, so the cut really shards.
    let config = EngineConfig::generated(sparsemat::gen::ProblemKind::Grid2dWide, 64, 11)
        .with_numeric(true)
        .with_distributed(DistributedConfig::with_tasks(4));
    let plan = engine.plan(&config).unwrap();
    let cut = plan
        .schedule(&engine)
        .unwrap()
        .distributed_cut(&engine)
        .unwrap();
    let tasks = cut.task_count();
    assert!(tasks >= 2, "the cut must shard the problem");
    // Six request threads and one job: up to four claims park at once, so
    // parking races the contributions and the reaper too.
    let registry = JobRegistry::new(Arc::new(ClusterStats::new())).with_server_threads(6);
    let job = registry.register(JobSpec {
        config_json: "{}".to_string(),
        lease_ms: 25,
        task_slices: (0..tasks).map(|task| cut.task_slice(task)).collect(),
        task_peaks: (0..tasks).map(|task| cut.task_peak_entries(task)).collect(),
        task_values: (0..tasks).map(|task| cut.task_value_count(task)).collect(),
        task_blocks: (0..tasks).map(|task| cut.task_root_blocks(task)).collect(),
        budget_entries: None,
    });

    let abandoned = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for worker in 0..4 {
            let registry = &registry;
            let abandoned = &abandoned;
            scope.spawn(move || {
                let name = format!("w-{worker}");
                loop {
                    match registry.claim(&name) {
                        ClaimReply::Idle => break,
                        ClaimReply::Wait { retry_ms } => {
                            std::thread::sleep(Duration::from_millis(retry_ms.clamp(1, 20)));
                        }
                        ClaimReply::Task(task) => {
                            // Whichever worker makes the job's first claim
                            // walks away from that lease: the deadline
                            // reaper must re-issue the task.
                            if abandoned.fetch_add(1, Ordering::Relaxed) == 0 {
                                continue;
                            }
                            let slice = task.slice().expect("an honest slice");
                            let parts = slice.factor(None).expect("subtree factors");
                            let frame = contribution_frame(
                                task.job, task.task, task.epoch, &name, 0.01, &parts,
                            );
                            let bytes = frame.len() as u64;
                            let contribution = Contribution::from_frame(&frame).unwrap();
                            // Stale epochs (our lease expired mid-factor) are
                            // expected under contention; the re-issued lease
                            // recomputes identical bits, so dropping is fine.
                            let _ = registry.contribute(contribution, bytes);
                        }
                    }
                }
            });
        }
    });

    let (parts, runtime) = job.wait_for_completion(None).expect("the job drains");
    assert_eq!(parts.len(), tasks);
    let snapshot = registry.stats().snapshot();
    assert_eq!(
        snapshot.tasks_claimed,
        snapshot.tasks_completed + snapshot.lease_expiries,
        "every claim ends in a contribution or an expiry"
    );
    assert_eq!(snapshot.tasks_completed, tasks as u64);
    assert!(runtime.workers >= 1);
    assert!(
        snapshot.lease_expiries >= 1,
        "the abandoned lease must have been reaped"
    );
}
