//! Seed-derived crash plans for distributed-campaign clusters.
//!
//! The mc-serve in-process cluster harness (coordinator + N workers over
//! loopback) injects process deaths the same way the store sweeps inject
//! disk faults: from a single `u64` seed. A [`ClusterPlan`] decides,
//! deterministically, which workers die after how many streamed records
//! and whether (and when) the coordinator itself is killed mid-campaign —
//! so a failover bug found by the property sweep is reproducible from one
//! printed integer, exactly like a `chebymc fault sweep` violation.
//!
//! The plan speaks in *record counts*, not wall-clock: "worker 2 dies
//! after sending 3 records" is deterministic under any scheduling, while
//! "worker 2 dies after 40 ms" is not. Liveness timing (heartbeat
//! intervals, reclaim timeouts) stays the harness's concern; the plan
//! only fixes *what* fails.

use crate::rng::{mix64, FaultRng};

/// A deterministic process-death plan for one cluster run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterPlan {
    /// Per worker: `Some(k)` kills the worker (connection dropped, no
    /// goodbye — the in-process stand-in for SIGKILL) after it has
    /// streamed `k` records; `None` lets it live.
    pub worker_kill_after: Vec<Option<u64>>,
    /// `Some(m)` kills the coordinator after it has accepted `m` records,
    /// simulating a mid-campaign coordinator crash; the harness then
    /// resumes a fresh coordinator over the surviving checkpoint store.
    pub coordinator_kill_after: Option<u64>,
}

impl ClusterPlan {
    /// A plan in which nothing dies.
    #[must_use]
    pub fn calm(workers: usize) -> Self {
        ClusterPlan {
            worker_kill_after: vec![None; workers],
            coordinator_kill_after: None,
        }
    }

    /// Whether the plan kills at least one process.
    #[must_use]
    pub fn is_faulty(&self) -> bool {
        self.coordinator_kill_after.is_some() || self.worker_kill_after.iter().any(Option::is_some)
    }

    /// Number of worker deaths the plan schedules.
    #[must_use]
    pub fn worker_deaths(&self) -> usize {
        self.worker_kill_after
            .iter()
            .filter(|k| k.is_some())
            .count()
    }
}

/// Derives the cluster plan for `seed` over a campaign of `total_units`
/// units run by `workers` workers.
///
/// Guarantees, for any seed:
///
/// * at least one worker survives (a dead cluster cannot finish, and the
///   harness asserts completion, not starvation);
/// * every kill threshold is below `total_units`, so a scheduled death
///   actually fires mid-campaign instead of after the work is done;
/// * roughly half the seeds also kill the coordinator once.
///
/// # Panics
///
/// Panics when `workers == 0`.
#[must_use]
pub fn cluster_plan(seed: u64, workers: usize, total_units: usize) -> ClusterPlan {
    assert!(workers > 0, "a cluster needs at least one worker");
    let mut rng = FaultRng::new(mix64(seed, 0xC1A5));
    let horizon = (total_units as u64).max(1);
    #[expect(
        clippy::cast_possible_truncation,
        reason = "below(n) < n, and n came from a usize"
    )]
    let survivor = rng.below(workers as u64) as usize;
    let mut worker_kill_after = Vec::with_capacity(workers);
    for w in 0..workers {
        // Each non-survivor dies with probability 1/2, after 0..horizon
        // records — early deaths (0 records sent) cover the
        // "assigned but never produced" reclaim path.
        let dies = w != survivor && rng.below(2) == 0;
        worker_kill_after.push(dies.then(|| rng.below(horizon)));
    }
    let coordinator_kill_after = (rng.below(2) == 0).then(|| rng.below(horizon));
    ClusterPlan {
        worker_kill_after,
        coordinator_kill_after,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_in_the_seed() {
        for seed in 0..50 {
            assert_eq!(cluster_plan(seed, 4, 12), cluster_plan(seed, 4, 12));
        }
        assert_ne!(
            (0..50)
                .map(|s| cluster_plan(s, 4, 12))
                .filter(|p| p.is_faulty())
                .count(),
            0,
            "some seeds must schedule deaths"
        );
    }

    #[test]
    fn at_least_one_worker_always_survives() {
        for seed in 0..500 {
            for workers in 1..=5 {
                let plan = cluster_plan(seed, workers, 10);
                assert_eq!(plan.worker_kill_after.len(), workers);
                assert!(
                    plan.worker_deaths() < workers,
                    "seed {seed}, {workers} workers: everyone died"
                );
            }
        }
    }

    #[test]
    fn kill_thresholds_fall_inside_the_campaign() {
        for seed in 0..500 {
            let plan = cluster_plan(seed, 4, 12);
            for k in plan.worker_kill_after.iter().flatten() {
                assert!(*k < 12, "seed {seed}: worker kill at {k} >= 12 units");
            }
            if let Some(m) = plan.coordinator_kill_after {
                assert!(m < 12, "seed {seed}: coordinator kill at {m} >= 12 units");
            }
        }
    }

    #[test]
    fn the_seed_population_covers_every_death_mode() {
        let plans: Vec<ClusterPlan> = (0..200).map(|s| cluster_plan(s, 3, 12)).collect();
        assert!(plans.iter().any(|p| !p.is_faulty()), "some seeds are calm");
        assert!(plans.iter().any(|p| p.worker_deaths() > 0));
        assert!(plans.iter().any(|p| p.coordinator_kill_after.is_some()));
        assert!(
            plans
                .iter()
                .any(|p| p.worker_deaths() > 0 && p.coordinator_kill_after.is_some()),
            "some seeds kill both a worker and the coordinator"
        );
        assert!(
            plans
                .iter()
                .any(|p| p.worker_kill_after.iter().flatten().any(|k| *k == 0)),
            "some seeds kill a worker before it produces anything"
        );
    }

    #[test]
    fn calm_plans_report_themselves() {
        let p = ClusterPlan::calm(3);
        assert!(!p.is_faulty());
        assert_eq!(p.worker_deaths(), 0);
    }
}
