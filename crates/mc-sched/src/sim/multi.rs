//! Simulation of multi-level criticality systems: the L-level adapter onto
//! the shared event loop.
//!
//! The system starts in mode 0; when a running job exhausts its
//! current-mode budget without finishing, the system escalates one mode,
//! killing the jobs (and rejecting the releases) of tasks whose
//! criticality level is below the new mode. Each task above the current
//! mode is dispatched against a pairwise EDF-VD virtual deadline (factor
//! `x_k` from the mode-`k` dual reduction); the system returns to mode 0
//! as soon as no job at or above the current mode is ready.

use super::engine::{run, ModeEntry, Plan, PlanTask};
use super::{JobExecModel, MultiSimMetrics, SimConfig};
use crate::analysis::edf_vd;
use crate::SchedError;
use mc_task::multi::MultiTaskSet;
use mc_task::time::Duration;
use serde::{Deserialize, Serialize};

/// Configuration of one multi-level simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultiSimConfig {
    /// Simulated time span.
    pub horizon: Duration,
    /// Per-job execution-time model; draws run between a task's mode-0
    /// and top budgets.
    pub exec_model: JobExecModel,
    /// RNG seed.
    pub seed: u64,
}

/// Runs one multi-level simulation.
///
/// # Errors
///
/// Returns [`SchedError::EmptyTaskSet`] for an empty set,
/// [`SchedError::InvalidSimConfig`] for a zero horizon or an
/// out-of-range execution model, and [`SchedError::SimulationDiverged`]
/// if the event guard trips.
pub fn simulate_multi(
    ts: &MultiTaskSet,
    cfg: &MultiSimConfig,
) -> Result<MultiSimMetrics, SchedError> {
    if ts.is_empty() {
        return Err(SchedError::EmptyTaskSet);
    }
    // Drop-all, system-level switching, no jitter: `SimConfig::new`.
    let sim = SimConfig {
        exec_model: cfg.exec_model,
        seed: cfg.seed,
        ..SimConfig::new(cfg.horizon)
    };
    sim.validate()?;
    let levels = ts.levels();
    // Pairwise virtual-deadline factors x_k (1.0 when no valid factor —
    // dispatch falls back to plain EDF for that pair).
    let x: Vec<f64> = (0..levels - 1)
        .map(|k| {
            ts.reduce_to_dual(k)
                .ok()
                .and_then(|(u_hc_lo, _, u_lc_lo)| edf_vd::x_factor(u_hc_lo, u_lc_lo))
                .unwrap_or(1.0)
        })
        .collect();
    let mut plan = Plan::new(levels, ts.len());
    for task in ts.iter() {
        let (period, budgets) = (task.period(), task.budgets());
        let spec = PlanTask {
            level: task.level(),
            period,
            deadline: period,
            lowest: budgets[0],
            top: budgets[task.level()],
            profile: task.profile(),
        };
        plan.push(spec, |k| ModeEntry {
            budget: budgets[k],
            dispatch: period
                .mul_f64(x[k].clamp(0.0, 1.0))
                .max(Duration::from_nanos(1))
                .min(period),
        });
    }
    Ok(run(&plan, &sim)?.levels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_task::multi::MultiTask;
    use mc_task::task::TaskId;
    use mc_task::ExecutionProfile;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn task(id: u32, level: usize, budgets_ms: &[u64], period_ms: u64) -> MultiTask {
        MultiTask::new(
            TaskId::new(id),
            "",
            level,
            budgets_ms.iter().map(|&b| ms(b)).collect(),
            ms(period_ms),
            None,
        )
        .unwrap()
    }

    fn tri_level() -> MultiTaskSet {
        let mut ts = MultiTaskSet::new(3).unwrap();
        ts.push(task(0, 2, &[5, 10, 40], 100)).unwrap();
        ts.push(task(1, 1, &[10, 20], 100)).unwrap();
        ts.push(task(2, 0, &[20], 100)).unwrap();
        ts
    }

    fn cfg(model: JobExecModel) -> MultiSimConfig {
        MultiSimConfig {
            horizon: Duration::from_secs(10),
            exec_model: model,
            seed: 1,
        }
    }

    #[test]
    fn no_overruns_means_no_escalations() {
        let m = simulate_multi(&tri_level(), &cfg(JobExecModel::FullLoBudget)).unwrap();
        assert_eq!(m.total_escalations(), 0);
        assert_eq!(m.jobs_killed, 0);
        assert_eq!(m.releases_rejected, 0);
        assert!(m.misses_per_level.iter().all(|&x| x == 0));
        // 100 jobs per task over 10 s of 100 ms periods.
        assert_eq!(m.released_per_level, vec![100, 100, 100]);
        assert_eq!(m.completed_per_level, vec![100, 100, 100]);
        // All time in mode 0.
        assert_eq!(m.time_in_mode[1], Duration::ZERO);
        assert_eq!(m.time_in_mode[2], Duration::ZERO);
        // Busy = (5 + 10 + 20) ms per 100 ms → 3.5 s.
        assert_eq!(m.busy_time, Duration::from_millis(3_500));
    }

    #[test]
    fn constant_top_budget_escalates_through_all_modes() {
        let m = simulate_multi(&tri_level(), &cfg(JobExecModel::FullHiBudget)).unwrap();
        assert!(m.escalations[0] > 0, "mode 0 → 1 must fire");
        assert!(m.escalations[1] > 0, "mode 1 → 2 must fire");
        assert!(m.jobs_killed + m.releases_rejected > 0);
        // The tri-level set is pairwise schedulable, so the top level is
        // protected even under constant worst-case behaviour.
        assert!(crate::analysis::multi::analyze(&tri_level()).schedulable);
        assert_eq!(m.top_level_misses(), 0);
        assert!(m.time_in_mode[2] > Duration::ZERO);
    }

    #[test]
    fn two_level_multi_matches_dual_engine_counters() {
        // Build the same system in both models and compare headline
        // counters under deterministic execution.
        let mut multi = MultiTaskSet::new(2).unwrap();
        multi.push(task(0, 1, &[20, 50], 100)).unwrap();
        multi.push(task(1, 0, &[30], 100)).unwrap();
        let mm = simulate_multi(&multi, &cfg(JobExecModel::FullHiBudget)).unwrap();

        let dual = mc_task::TaskSet::from_tasks(vec![
            mc_task::McTask::builder(TaskId::new(0))
                .criticality(mc_task::Criticality::Hi)
                .period(ms(100))
                .c_lo(ms(20))
                .c_hi(ms(50))
                .build()
                .unwrap(),
            mc_task::McTask::builder(TaskId::new(1))
                .period(ms(100))
                .c_lo(ms(30))
                .build()
                .unwrap(),
        ])
        .unwrap();
        let dm = crate::sim::simulate(
            &dual,
            &crate::sim::SimConfig {
                horizon: Duration::from_secs(10),
                lc_policy: crate::sim::LcPolicy::DropAll,
                exec_model: crate::sim::JobExecModel::FullHiBudget,
                x_factor: None,
                release_jitter: Duration::ZERO,
                mode_switch: crate::sim::ModeSwitchPolicy::System,
                seed: 1,
            },
        )
        .unwrap();
        assert_eq!(mm.total_escalations(), dm.mode_switches);
        assert_eq!(mm.top_level_misses(), dm.hc_deadline_misses);
        assert_eq!(
            mm.jobs_killed + mm.releases_rejected,
            dm.lc_dropped_at_switch + dm.lc_rejected_in_hi
        );
        assert_eq!(mm.released_per_level[1], dm.hc_released);
    }

    #[test]
    fn profile_model_is_deterministic_per_seed() {
        let mut ts = tri_level();
        // Attach profiles so Profile mode has something to sample.
        for t in ts.iter_mut() {
            if t.level() > 0 {
                let top = t.budgets().last().unwrap().as_nanos() as f64;
                let lower: Vec<Duration> = (0..t.level()).map(|k| t.budgets()[k]).collect();
                *t = MultiTask::new(
                    t.id(),
                    t.name().to_string(),
                    t.level(),
                    {
                        let mut b = lower.clone();
                        b.push(*t.budgets().last().unwrap());
                        b
                    },
                    t.period(),
                    Some(ExecutionProfile::new(top / 10.0, top / 50.0, top).unwrap()),
                )
                .unwrap();
            }
        }
        let a = simulate_multi(&ts, &cfg(JobExecModel::Profile)).unwrap();
        let b = simulate_multi(&ts, &cfg(JobExecModel::Profile)).unwrap();
        assert_eq!(a, b);
        let mut c2 = cfg(JobExecModel::Profile);
        c2.seed = 2;
        let c = simulate_multi(&ts, &c2).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn job_conservation_per_level() {
        for model in [
            JobExecModel::FullLoBudget,
            JobExecModel::FullHiBudget,
            JobExecModel::Profile,
        ] {
            let m = simulate_multi(&tri_level(), &cfg(model)).unwrap();
            let released: u64 = m.released_per_level.iter().sum();
            let completed: u64 = m.completed_per_level.iter().sum();
            let missed: u64 = m.misses_per_level.iter().sum();
            let accounted = completed + missed + m.jobs_killed;
            assert!(accounted <= released, "{model:?}");
            assert!(released - accounted <= 3, "{model:?}: too many in flight");
            assert!(m.busy_time <= m.horizon);
            let mode_time: Duration = m
                .time_in_mode
                .iter()
                .fold(Duration::ZERO, |acc, &t| acc + t);
            assert_eq!(mode_time, m.horizon, "{model:?}: mode times partition time");
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let ts = tri_level();
        let mut c = cfg(JobExecModel::FullLoBudget);
        c.horizon = Duration::ZERO;
        assert!(simulate_multi(&ts, &c).is_err());
        let empty = MultiTaskSet::new(2).unwrap();
        assert!(matches!(
            simulate_multi(&empty, &cfg(JobExecModel::Profile)),
            Err(SchedError::EmptyTaskSet)
        ));
    }
}
