//! Processor-demand analysis (demand bound functions) for EDF.
//!
//! The utilisation tests in [`super::edf`] and [`super::edf_vd`] are exact
//! only for implicit deadlines. [`McTask`] also admits *constrained*
//! deadlines (`D < P`), for which the exact uniprocessor EDF test is the
//! processor-demand criterion (Baruah, Rosier & Howell):
//!
//! ```text
//! ∀ t > 0 :  dbf(t) = Σᵢ max(0, ⌊(t − Dᵢ)/Pᵢ⌋ + 1) · Cᵢ  ≤  t
//! ```
//!
//! It suffices to check `t` at absolute-deadline points up to
//! `L = min(L_a, L_b)` where `L_a` is the Baruah bound and `L_b` the
//! synchronous busy-period length. This module provides the dbf itself and
//! the bounded exact test, used in the workspace both as a second opinion
//! on the utilisation tests and to validate designs with shortened
//! (virtual) deadlines.

use crate::SchedError;
use mc_task::time::Duration;
use mc_task::{Criticality, McTask, TaskSet};
use serde::{Deserialize, Serialize};

/// Demand bound of one task over an interval of length `t`: the maximum
/// execution demand of jobs released *and* due within any window of that
/// length, using the task's WCET at `mode`.
pub fn task_dbf(task: &McTask, t: Duration, mode: Criticality) -> Duration {
    if t < task.deadline() {
        return Duration::ZERO;
    }
    let jobs = (t - task.deadline()).as_nanos() / task.period().as_nanos() + 1;
    task.wcet(mode).saturating_mul(jobs)
}

/// Total demand bound of a task set over an interval of length `t`.
pub fn dbf(ts: &TaskSet, t: Duration, mode: Criticality) -> Duration {
    ts.iter()
        .fold(Duration::ZERO, |acc, task| acc + task_dbf(task, t, mode))
}

/// Result of the exact processor-demand test.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DemandAnalysis {
    /// Whether `dbf(t) ≤ t` held at every checked point.
    pub schedulable: bool,
    /// The first violating instant, when one exists.
    pub violation_at: Option<Duration>,
    /// The horizon up to which points were checked.
    pub horizon: Duration,
    /// How many deadline points were checked.
    pub points_checked: u64,
}

/// Exact EDF schedulability of `ts` (budgets at `mode`) via processor
/// demand, checking all absolute-deadline points up to the Baruah/busy
/// period bound.
///
/// # Errors
///
/// Returns [`SchedError::EmptyTaskSet`] for an empty set and
/// [`SchedError::DemandBudgetExhausted`] when the number of check points
/// exceeds `max_points` (degenerate period ratios); `max_points = 0` means
/// the default of 1 000 000.
pub fn edf_demand_test(
    ts: &TaskSet,
    mode: Criticality,
    max_points: u64,
) -> Result<DemandAnalysis, SchedError> {
    if ts.is_empty() {
        return Err(SchedError::EmptyTaskSet);
    }
    let max_points = if max_points == 0 {
        1_000_000
    } else {
        max_points
    };
    let total_u: f64 = ts.iter().map(|t| t.utilization(mode)).sum();
    if total_u > 1.0 + 1e-9 {
        // Demand grows without bound; report the necessary-condition
        // violation at the hyper-scale horizon.
        return Ok(DemandAnalysis {
            schedulable: false,
            violation_at: None,
            horizon: Duration::ZERO,
            points_checked: 0,
        });
    }

    // Baruah bound L_a = max(Dᵢ, Σ (Pᵢ − Dᵢ)·uᵢ / (1 − U)).
    let max_deadline = ts
        .iter()
        .map(|t| t.deadline())
        .max()
        .expect("non-empty set");
    let la = if total_u >= 1.0 - 1e-9 {
        // U = 1 exactly: fall back to the busy period / hyperperiod bound.
        Duration::MAX
    } else {
        let num: f64 = ts
            .iter()
            .map(|t| {
                (t.period()
                    .as_nanos()
                    .saturating_sub(t.deadline().as_nanos())) as f64
                    * t.utilization(mode)
            })
            .sum();
        let bound = num / (1.0 - total_u);
        Duration::try_from_nanos_f64_ceil(bound).unwrap_or(Duration::MAX)
    }
    .max(max_deadline);

    // Synchronous busy period L_b. Each fixpoint step that does not
    // converge crosses a release instant, and each deadline point absorbs at
    // most n of them; so after n·max_points + 2 steps more than max_points
    // deadline points lie below w, and the enumeration below ends (on a
    // violation or the budget) before any horizon. Such an L_b, like an
    // overflowing one, bounds nothing.
    let max_steps = (ts.len() as u64)
        .saturating_mul(max_points)
        .saturating_add(2);
    let lb = busy_period(ts, mode, max_steps).unwrap_or(Duration::MAX);
    let horizon = la.min(lb).min(ts.hyperperiod().unwrap_or(Duration::MAX));

    // Enumerate absolute deadlines d = k·P + D ≤ horizon, merged and
    // deduplicated on the fly via a simple per-task cursor sweep.
    let mut cursors: Vec<(Duration, &McTask)> = ts.iter().map(|t| (t.deadline(), t)).collect();
    let mut checked = 0u64;
    while let Some((next_d, _)) = cursors
        .iter()
        .filter(|(d, _)| *d <= horizon)
        .min_by_key(|(d, _)| *d)
        .copied()
    {
        checked += 1;
        if checked > max_points {
            return Err(SchedError::DemandBudgetExhausted { max_points });
        }
        let demand = dbf(ts, next_d, mode);
        if demand > next_d {
            return Ok(DemandAnalysis {
                schedulable: false,
                violation_at: Some(next_d),
                horizon,
                points_checked: checked,
            });
        }
        // Advance every cursor sitting at this deadline.
        for (d, t) in cursors.iter_mut() {
            if *d == next_d {
                *d += t.period();
            }
        }
    }
    Ok(DemandAnalysis {
        schedulable: true,
        violation_at: None,
        horizon,
        points_checked: checked,
    })
}

/// The synchronous busy period: `w ← Σ ⌈w/Pᵢ⌉·Cᵢ` iterated from `Σ Cᵢ`
/// to its fixpoint, or `None` when it has not converged within
/// `max_steps` steps or the demand overflows.
fn busy_period(ts: &TaskSet, mode: Criticality, max_steps: u64) -> Option<Duration> {
    let mut w = ts
        .iter()
        .try_fold(Duration::ZERO, |acc, t| acc.checked_add(t.wcet(mode)))?;
    for _ in 0..max_steps {
        let next = ts.iter().try_fold(Duration::ZERO, |acc, t| {
            let jobs = w.as_nanos().div_ceil(t.period().as_nanos()).max(1);
            acc.checked_add(t.wcet(mode).saturating_mul(jobs))
        })?;
        if next <= w {
            return Some(next);
        }
        w = next;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_task::task::TaskId;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn task(id: u32, c_ms: u64, d_ms: u64, p_ms: u64) -> McTask {
        McTask::builder(TaskId::new(id))
            .period(ms(p_ms))
            .deadline(ms(d_ms))
            .c_lo(ms(c_ms))
            .build()
            .unwrap()
    }

    #[test]
    fn single_task_dbf_steps_at_deadlines() {
        let t = task(0, 2, 5, 10);
        assert_eq!(task_dbf(&t, ms(4), Criticality::Lo), Duration::ZERO);
        assert_eq!(task_dbf(&t, ms(5), Criticality::Lo), ms(2));
        assert_eq!(task_dbf(&t, ms(14), Criticality::Lo), ms(2));
        assert_eq!(task_dbf(&t, ms(15), Criticality::Lo), ms(4));
        assert_eq!(task_dbf(&t, ms(25), Criticality::Lo), ms(6));
    }

    #[test]
    fn implicit_deadline_test_matches_liu_layland() {
        // U = 0.9 implicit: schedulable.
        let ts = TaskSet::from_tasks(vec![task(0, 45, 100, 100), task(1, 90, 200, 200)]).unwrap();
        let a = edf_demand_test(&ts, Criticality::Lo, 0).unwrap();
        assert!(a.schedulable);
        assert!(a.points_checked > 0);

        // U = 1.05: infeasible by the necessary condition.
        let ts = TaskSet::from_tasks(vec![task(0, 55, 100, 100), task(1, 100, 200, 200)]).unwrap();
        let a = edf_demand_test(&ts, Criticality::Lo, 0).unwrap();
        assert!(!a.schedulable);
    }

    #[test]
    fn constrained_deadlines_can_fail_despite_low_utilization() {
        // Two tasks, U = 0.6, but both demand 30 ms within their first
        // 30 ms deadline window: dbf(30) = 60 > 30.
        let ts = TaskSet::from_tasks(vec![task(0, 30, 30, 100), task(1, 30, 30, 100)]).unwrap();
        let a = edf_demand_test(&ts, Criticality::Lo, 0).unwrap();
        assert!(!a.schedulable);
        assert_eq!(a.violation_at, Some(ms(30)));
    }

    #[test]
    fn constrained_deadlines_can_pass_when_demand_fits() {
        let ts = TaskSet::from_tasks(vec![task(0, 10, 30, 100), task(1, 15, 40, 100)]).unwrap();
        let a = edf_demand_test(&ts, Criticality::Lo, 0).unwrap();
        assert!(a.schedulable);
    }

    #[test]
    fn hi_mode_budgets_are_used_when_requested() {
        let t = McTask::builder(TaskId::new(0))
            .criticality(Criticality::Hi)
            .period(ms(100))
            .c_lo(ms(10))
            .c_hi(ms(60))
            .build()
            .unwrap();
        let pair = McTask::builder(TaskId::new(1))
            .criticality(Criticality::Hi)
            .period(ms(100))
            .c_lo(ms(10))
            .c_hi(ms(60))
            .build()
            .unwrap();
        let ts = TaskSet::from_tasks(vec![t, pair]).unwrap();
        assert!(
            edf_demand_test(&ts, Criticality::Lo, 0)
                .unwrap()
                .schedulable
        );
        // 120 ms demand per 100 ms in HI mode.
        assert!(
            !edf_demand_test(&ts, Criticality::Hi, 0)
                .unwrap()
                .schedulable
        );
    }

    #[test]
    fn empty_set_is_an_error() {
        assert!(matches!(
            edf_demand_test(&TaskSet::new(), Criticality::Lo, 0),
            Err(SchedError::EmptyTaskSet)
        ));
    }

    #[test]
    fn point_budget_guard_fires() {
        // This set needs two check points (deadlines at 7 and 9 ms inside
        // the 9 ms busy period); a budget of one must trip the guard.
        let ts = TaskSet::from_tasks(vec![task(0, 5, 7, 10), task(1, 4, 9, 9)]).unwrap();
        assert_eq!(
            edf_demand_test(&ts, Criticality::Lo, 0)
                .unwrap()
                .points_checked,
            2
        );
        assert!(matches!(
            edf_demand_test(&ts, Criticality::Lo, 1),
            Err(SchedError::DemandBudgetExhausted { .. })
        ));
    }

    #[test]
    fn busy_period_without_a_fixpoint_still_finds_the_violation() {
        // U = 1 + 1e-10 passes the utilisation tolerance, so no finite
        // busy period exists: the fixpoint is cut off, the horizon falls
        // back to the 10 s hyperperiod, and dbf(10 s) = 10 s + 1 ns.
        let s10 = Duration::from_secs(10);
        let t = |id: u32, c: Duration| {
            McTask::builder(TaskId::new(id))
                .period(s10)
                .c_lo(c)
                .build()
                .unwrap()
        };
        let c = Duration::from_secs(5);
        let ts = TaskSet::from_tasks(vec![t(0, c), t(1, c + Duration::from_nanos(1))]).unwrap();
        let a = edf_demand_test(&ts, Criticality::Lo, 0).unwrap();
        assert!(!a.schedulable);
        assert_eq!(a.violation_at, Some(s10));
    }

    #[test]
    fn full_utilization_with_implicit_deadlines_is_schedulable() {
        // U = 1.0 exactly; EDF schedules it (boundary case, horizon falls
        // back to the hyperperiod).
        let ts = TaskSet::from_tasks(vec![task(0, 50, 100, 100), task(1, 100, 200, 200)]).unwrap();
        let a = edf_demand_test(&ts, Criticality::Lo, 0).unwrap();
        assert!(a.schedulable, "violation at {:?}", a.violation_at);
    }

    mod properties {
        use super::*;
        use mc_fault::{assert_prop, PropConfig};

        #[test]
        fn dbf_is_monotone_in_t() {
            assert_prop(
                &PropConfig::named("dbf_is_monotone_in_t").cases(48),
                |rng| {
                    (
                        rng.below(49),
                        rng.below(99),
                        rng.below(99),
                        rng.below(1_000),
                        rng.below(1_000),
                    )
                },
                |&(c, d, p, t1, dt)| {
                    let (c, d, p) = (1 + c, 1 + d, 1 + p);
                    let d = d.min(p);
                    let c = c.min(d);
                    let task = task(0, c, d, p);
                    let a = task_dbf(&task, ms(t1), Criticality::Lo);
                    let b = task_dbf(&task, ms(t1 + dt), Criticality::Lo);
                    assert!(b >= a);
                    Ok(())
                },
            );
        }

        #[test]
        fn demand_test_agrees_with_utilization_for_implicit_deadlines() {
            use rand::SeedableRng;
            assert_prop(
                &PropConfig::named("demand_test_agrees_with_utilization_for_implicit_deadlines")
                    .cases(48),
                |rng| rng.below(500),
                |&seed| {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                    let cfg = mc_task::generate::GeneratorConfig::default();
                    let u = 0.3 + (seed % 7) as f64 * 0.1;
                    let ts = mc_task::generate::generate_mixed_taskset(u, &cfg, &mut rng).unwrap();
                    // Implicit deadlines: exact test ⇔ U ≤ 1 (budgets at LO).
                    let util: f64 = ts.iter().map(|t| t.u_lo()).sum();
                    let exact = edf_demand_test(&ts, Criticality::Lo, 0).unwrap();
                    assert_eq!(exact.schedulable, util <= 1.0 + 1e-9);
                    Ok(())
                },
            );
        }
    }
}
