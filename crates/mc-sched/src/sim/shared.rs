//! One simulation per task set, shared by the policies that race on it.
//!
//! A policy arena simulates each designed set once per entrant, under
//! configurations that differ only in [`SimConfig::lc_policy`] and
//! [`SimConfig::mode_switch`]. The event loop reads those two fields only
//! once a job has overrun its current-mode budget: `mode_switch` decides in
//! `escalates` what an overrun does, and `lc_policy` acts only after the
//! mode has left 0. While no job overruns, `escalates` returns `false` and
//! changes nothing under either switching policy. So a run that ended with
//! no mode switch and no contained overrun is, bit for bit, the run every
//! such configuration produces: the same state, random draws, metrics and
//! work counts. [`SharedRuns`] hands stored runs out under that rule.

use super::engine::{check, simulate_counted, WorkCounts};
use super::{SimConfig, SimMetrics};
use crate::SchedError;
use mc_task::TaskSet;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Simulation runs shared between the entrants of a policy arena.
///
/// A key names one task set: every lookup under a key must pass the same
/// set. [`SharedRuns::simulate`] returns what [`super::simulate`] returns
/// for the set and config. A stored run answers a lookup when its config
/// equals the one asked for, or when the two differ only in `lc_policy`
/// and `mode_switch` and the run had no mode switch and no contained
/// overrun. Every other lookup simulates, outside the lock, and stores its
/// run; lanes never wait for each other's simulations.
///
/// A hit adds the stored run's counts to the `mc-obs` counters
/// `sched.sim_events` and `sched.sim_releases`, as a fresh run would, and
/// counts itself in `sched.sim_shared`. The first two counters therefore
/// do not depend on which lane simulated a set first.
///
/// A key's runs are dropped at its `entrants`-th lookup, so memory is
/// bounded by the sets whose entrants have not all run.
#[derive(Debug)]
pub struct SharedRuns<K> {
    entrants: usize,
    sets: Mutex<BTreeMap<K, SetRuns>>,
}

/// The runs stored under one key.
#[derive(Debug, Default)]
struct SetRuns {
    lookups: usize,
    runs: Vec<StoredRun>,
}

/// One finished run and the config it was simulated under.
#[derive(Debug, Clone, Copy)]
struct StoredRun {
    cfg: SimConfig,
    metrics: SimMetrics,
    counts: WorkCounts,
}

impl StoredRun {
    /// Whether this run is the one a fresh simulation under `cfg` produces.
    fn serves(&self, cfg: &SimConfig) -> bool {
        if self.cfg == *cfg {
            return true;
        }
        let overrun_free = self.metrics.mode_switches == 0 && self.metrics.task_level_switches == 0;
        overrun_free
            && SimConfig {
                lc_policy: cfg.lc_policy,
                mode_switch: cfg.mode_switch,
                ..self.cfg
            } == *cfg
    }
}

impl<K: Ord + Clone> SharedRuns<K> {
    /// An empty store for sets that `entrants` policies each look up once.
    #[must_use]
    pub fn new(entrants: usize) -> Self {
        SharedRuns {
            entrants,
            sets: Mutex::new(BTreeMap::new()),
        }
    }

    /// Simulates the set `key` names, `ts`, under `cfg`, or returns the
    /// stored run that simulation would produce.
    ///
    /// # Errors
    ///
    /// Those of [`super::simulate`]. An invalid config or an empty set
    /// fails before any lookup, so a stored run never hides the error.
    pub fn simulate(
        &self,
        key: K,
        ts: &TaskSet,
        cfg: &SimConfig,
    ) -> Result<SimMetrics, SchedError> {
        check(ts, cfg)?;
        if let Some(run) = self.look_up(&key, cfg) {
            run.counts.emit();
            mc_obs::counter("sched.sim_shared", 1);
            return Ok(run.metrics);
        }
        let (metrics, counts) = simulate_counted(ts, cfg)?;
        // A key that reached its last lookup meanwhile stays dropped.
        if let Some(set) = self.lock().get_mut(&key) {
            set.runs.push(StoredRun {
                cfg: *cfg,
                metrics,
                counts,
            });
        }
        Ok(metrics)
    }

    /// Counts a lookup of `key` and returns a stored run that serves `cfg`.
    fn look_up(&self, key: &K, cfg: &SimConfig) -> Option<StoredRun> {
        let mut sets = self.lock();
        let set = sets.entry(key.clone()).or_default();
        set.lookups += 1;
        let hit = set.runs.iter().find(|run| run.serves(cfg)).copied();
        if set.lookups >= self.entrants {
            sets.remove(key);
        }
        hit
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<K, SetRuns>> {
        self.sets.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::LcPolicy;
    use mc_task::time::Duration;
    use mc_task::{Criticality, McTask, TaskId};

    fn set() -> TaskSet {
        let task = McTask::builder(TaskId::new(0))
            .criticality(Criticality::Hi)
            .period(Duration::from_millis(100))
            .c_lo(Duration::from_millis(10))
            .c_hi(Duration::from_millis(40))
            .build()
            .unwrap();
        TaskSet::from_tasks(vec![task]).unwrap()
    }

    #[test]
    fn a_key_is_dropped_at_its_last_lookup() {
        let (ts, cfg) = (set(), SimConfig::new(Duration::from_secs(1)));
        let degrade = SimConfig {
            lc_policy: LcPolicy::Degrade(0.5),
            ..cfg
        };
        let store = SharedRuns::new(3);
        store.simulate(1, &ts, &cfg).unwrap();
        store.simulate(2, &ts, &cfg).unwrap();
        store.simulate(1, &ts, &degrade).unwrap();
        assert_eq!(store.lock()[&1].lookups, 2);
        assert_eq!(store.lock()[&1].runs.len(), 1, "the hit stored nothing");
        store.simulate(1, &ts, &cfg).unwrap();
        assert_eq!(store.lock().keys().copied().collect::<Vec<_>>(), [2]);
    }

    #[test]
    fn a_miss_at_the_last_lookup_stores_nothing() {
        let store = SharedRuns::new(1);
        store
            .simulate((), &set(), &SimConfig::new(Duration::from_secs(1)))
            .unwrap();
        assert!(store.lock().is_empty());
    }
}
