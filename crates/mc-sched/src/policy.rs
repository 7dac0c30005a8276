//! Scheduling policies: one seam over design-time admission and runtime
//! simulator behaviour.
//!
//! The workspace grew four ways to answer "how should this mixed-criticality
//! set be scheduled?": Baruah's EDF-VD with drop-all LC handling
//! ([`crate::analysis::edf_vd`]), Liu's degraded-quality variant
//! ([`crate::analysis::liu`] + [`LcPolicy::Degrade`]), the exact
//! processor-demand test ([`crate::analysis::dbf`]), and the simulator's
//! mode-switch machinery. This module unifies them behind the
//! [`SchedulingPolicy`] trait so campaigns can race *policies* instead of
//! hand-wiring analysis/simulator pairs, and adds related-work entrants:
//!
//! | Policy | Admission test | Runtime behaviour |
//! |---|---|---|
//! | [`PolicySpec::EdfVdDropAll`] | Baruah Eq. 8 utilisation test | drop-all, system-level switch |
//! | [`PolicySpec::LiuDegrade`] | Liu degraded-quality test | degrade `f`, system-level switch |
//! | [`PolicySpec::DemandBased`] | two-mode demand-bound test (Easwaran-style) | drop-all, system-level switch |
//! | [`PolicySpec::FlexibleUtilization`] | Liu test at a service floor, service level maximised per set (Chen-style flexible MC) | degrade `θ*`, system-level switch |
//! | [`PolicySpec::CombinedModeSwitch`] | Liu test + single-overrun containment (Boudjadar-style) | degrade `f`, task-level then system switch |
//!
//! The related-work tests are sufficient utilisation/demand conditions "in
//! the spirit of" the cited papers, adapted to this workspace's dual-mode
//! task model (see DESIGN.md §16 for the exact conditions and deviations):
//!
//! * **Demand-based** (Easwaran, arXiv:2003.05444): LO-mode demand of the
//!   whole set against virtual deadlines `x·D`, plus HI-mode demand of the
//!   HC subset at `C_HI` against the carry-over margin `(1 − x)·D`
//!   (Ekberg–Yi-style deadline tightening).
//! * **Flexible utilisation** (Chen et al., arXiv:1711.00100): instead of a
//!   fixed degradation factor, the largest sustainable LC service level
//!   `θ* ∈ [θ_min, 1]` is found per task set by bisection over the Liu
//!   conditions; admission requires feasibility at the floor `θ_min`.
//! * **Combined switching** (Boudjadar et al., arXiv:2003.05442): a single
//!   overrunning HC job is contained at task level (the simulator's
//!   [`ModeSwitchPolicy::TaskLevelThenSystem`]); admission additionally
//!   requires that the set absorbs any *single* task running to `C_HI`
//!   while everything else keeps its LO demand.

use crate::analysis::{dbf, edf_vd, liu};
use crate::sim::{LcPolicy, ModeSwitchPolicy, SimConfig};
use crate::SchedError;
use mc_task::time::Duration;
use mc_task::{McTask, TaskId, TaskSet};
use serde::{Deserialize, Serialize};

/// Tolerance for utilisation comparisons (matches the analysis modules).
const EPS: f64 = 1e-9;

/// Design-time verdict of a policy on one task set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PolicyVerdict {
    /// Whether the policy admits the set.
    pub schedulable: bool,
    /// The deadline-shrinking factor the policy would run with, when one
    /// exists under its analysis.
    pub x: Option<f64>,
    /// Fraction of LC service the policy guarantees in HI mode: `0` for
    /// drop-all policies, the degradation factor for fixed-degrade
    /// policies, and the maximised `θ*` for flexible ones.
    pub service_level: f64,
}

/// How a policy wants the runtime simulator configured.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RuntimeBehaviour {
    /// LC handling at a system-level switch.
    pub lc_policy: LcPolicy,
    /// How `C_LO` overruns trigger mode changes.
    pub mode_switch: ModeSwitchPolicy,
}

/// A scheduling policy: a design-time admission test paired with the
/// runtime behaviour that the test certifies.
pub trait SchedulingPolicy {
    /// Stable, filename/label-safe policy name (used as the campaign
    /// parameter value, so it must not change between releases).
    fn name(&self) -> String;

    /// Runs the design-time admission test.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::EmptyTaskSet`] for an empty set and
    /// [`SchedError::DemandBudgetExhausted`] when a demand test exceeds its
    /// point budget.
    fn admit(&self, ts: &TaskSet) -> Result<PolicyVerdict, SchedError>;

    /// The runtime behaviour this policy's admission test certifies for
    /// `ts` (flexible policies pick per-set parameters here).
    fn runtime(&self, ts: &TaskSet) -> RuntimeBehaviour;

    /// Projects the policy's runtime behaviour onto a base simulator
    /// configuration, leaving horizon/exec-model/seed untouched.
    fn sim_config(&self, ts: &TaskSet, base: &SimConfig) -> SimConfig {
        let rt = self.runtime(ts);
        SimConfig {
            lc_policy: rt.lc_policy,
            mode_switch: rt.mode_switch,
            ..*base
        }
    }
}

/// The concrete, serialisable policy roster.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PolicySpec {
    /// Baruah et al. EDF-VD: LC work is dropped in HI mode.
    EdfVdDropAll,
    /// Liu et al. degraded-quality EDF-VD at a fixed service fraction.
    LiuDegrade {
        /// Fraction of the LC budget retained in HI mode, in `[0, 1]`.
        fraction: f64,
    },
    /// Easwaran-style two-mode demand-bound test; drop-all runtime.
    DemandBased {
        /// Point budget forwarded to [`dbf::edf_demand_test`]
        /// (`0` means the default of 1 000 000).
        max_points: u64,
    },
    /// Chen-style flexible MC: the LC service level is maximised per task
    /// set, subject to a floor.
    FlexibleUtilization {
        /// Minimum acceptable LC service level in `[0, 1]`; admission
        /// fails when even this floor is infeasible.
        min_fraction: f64,
    },
    /// Boudjadar-style combined task-level/system-level mode switching.
    CombinedModeSwitch {
        /// Fraction of the LC budget retained after a system-level
        /// escalation, in `[0, 1]`.
        fraction: f64,
    },
}

impl PolicySpec {
    /// Validates policy parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidSimConfig`] for non-finite or
    /// out-of-`[0, 1]` fractions.
    pub fn validate(&self) -> Result<(), SchedError> {
        let fraction_ok = |f: f64| f.is_finite() && (0.0..=1.0).contains(&f);
        match *self {
            PolicySpec::EdfVdDropAll | PolicySpec::DemandBased { .. } => Ok(()),
            PolicySpec::LiuDegrade { fraction } | PolicySpec::CombinedModeSwitch { fraction } => {
                if fraction_ok(fraction) {
                    Ok(())
                } else {
                    Err(SchedError::InvalidSimConfig {
                        reason: "policy degradation fraction must be in [0, 1]",
                    })
                }
            }
            PolicySpec::FlexibleUtilization { min_fraction } => {
                if fraction_ok(min_fraction) {
                    Ok(())
                } else {
                    Err(SchedError::InvalidSimConfig {
                        reason: "policy service floor must be in [0, 1]",
                    })
                }
            }
        }
    }

    /// The default cross-policy roster raced by the `policy_arena`
    /// campaign: one entrant per related-work lineage.
    pub fn arena_roster() -> Vec<PolicySpec> {
        vec![
            PolicySpec::EdfVdDropAll,
            PolicySpec::LiuDegrade { fraction: 0.5 },
            PolicySpec::DemandBased { max_points: 0 },
            PolicySpec::FlexibleUtilization { min_fraction: 0.3 },
            PolicySpec::CombinedModeSwitch { fraction: 0.5 },
        ]
    }

    /// The largest LC service level in `[floor, 1]` that keeps the Liu
    /// conditions feasible for these utilisations, or `None` when even the
    /// floor fails. The conditions tighten monotonically in the service
    /// level, so bisection converges to the boundary.
    fn max_service_level(u_hc_lo: f64, u_hc_hi: f64, u_lc_lo: f64, floor: f64) -> Option<f64> {
        if !liu::conditions_hold(u_hc_lo, u_hc_hi, u_lc_lo, floor) {
            return None;
        }
        if liu::conditions_hold(u_hc_lo, u_hc_hi, u_lc_lo, 1.0) {
            return Some(1.0);
        }
        let (mut lo, mut hi) = (floor, 1.0f64);
        for _ in 0..60 {
            let mid = (lo + hi) / 2.0;
            if liu::conditions_hold(u_hc_lo, u_hc_hi, u_lc_lo, mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(lo)
    }

    /// Single-overrun containment (Boudjadar-style, at utilisation level
    /// with the workspace's implicit deadlines): the set must absorb any
    /// *one* HC task running to `C_HI` while every other task keeps its LO
    /// demand and LC service continues untouched.
    fn containment_holds(ts: &TaskSet) -> bool {
        let u_total_lo = ts.u_total_lo();
        ts.hc_tasks()
            .all(|t| u_total_lo - t.u_lo() + t.u_hi() <= 1.0 + EPS)
    }

    /// Runs the Easwaran-style two-mode demand test. The LO-mode set is
    /// the whole system against virtual deadlines `x·D`; the HI-mode set
    /// is the HC subset at `C_HI` against the carry-over margin
    /// `(1 − x)·D`. A task whose budget cannot fit its (shrunk) deadline
    /// makes the surrogate unbuildable — that is an unschedulable verdict,
    /// not an error.
    fn demand_admit(ts: &TaskSet, max_points: u64) -> Result<PolicyVerdict, SchedError> {
        if ts.is_empty() {
            return Err(SchedError::EmptyTaskSet);
        }
        let Some(x) = edf_vd::x_factor(ts.u_hc_lo(), ts.u_lc_lo()) else {
            return Ok(PolicyVerdict {
                schedulable: false,
                x: None,
                service_level: 0.0,
            });
        };
        let verdict = |schedulable: bool| PolicyVerdict {
            schedulable,
            x: Some(x),
            service_level: 0.0,
        };

        // LO mode: every task, budgets at C_LO, HC deadlines shrunk to x·D.
        let mut lo_tasks = Vec::with_capacity(ts.len());
        for task in ts.iter() {
            let deadline = edf_vd::virtual_deadline(task, x);
            match surrogate(task.id(), task.c_lo(), deadline, task.period()) {
                Some(t) => lo_tasks.push(t),
                None => return Ok(verdict(false)),
            }
        }
        let Ok(lo_set) = TaskSet::from_tasks(lo_tasks) else {
            return Ok(verdict(false));
        };
        if !dbf::edf_demand_test(&lo_set, mc_task::Criticality::Lo, max_points)?.schedulable {
            return Ok(verdict(false));
        }

        // HI mode: HC subset, budgets at C_HI, carry-over deadline
        // (1 − x)·D. An empty HC subset can never switch: vacuously fine.
        let mut hi_tasks = Vec::new();
        for task in ts.hc_tasks() {
            let margin = task.deadline() - edf_vd::virtual_deadline(task, x);
            match surrogate(task.id(), task.c_hi(), margin, task.period()) {
                Some(t) => hi_tasks.push(t),
                None => return Ok(verdict(false)),
            }
        }
        if hi_tasks.is_empty() {
            return Ok(verdict(true));
        }
        let Ok(hi_set) = TaskSet::from_tasks(hi_tasks) else {
            return Ok(verdict(false));
        };
        let hi = dbf::edf_demand_test(&hi_set, mc_task::Criticality::Lo, max_points)?;
        Ok(verdict(hi.schedulable))
    }
}

/// Parses the runtime-policy spellings of `chebymc simulate --policy`:
/// `drop` ([`PolicySpec::EdfVdDropAll`]), `degrade:<f>`
/// ([`PolicySpec::LiuDegrade`]) and `combined:<f>`
/// ([`PolicySpec::CombinedModeSwitch`]), with `f` in `[0, 1]`. Errors name
/// the offending text.
impl std::str::FromStr for PolicySpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (build, raw): (fn(f64) -> PolicySpec, &str) = if s == "drop" {
            return Ok(PolicySpec::EdfVdDropAll);
        } else if let Some(raw) = s.strip_prefix("degrade:") {
            (|fraction| PolicySpec::LiuDegrade { fraction }, raw)
        } else if let Some(raw) = s.strip_prefix("combined:") {
            (|fraction| PolicySpec::CombinedModeSwitch { fraction }, raw)
        } else {
            return Err(format!(
                "unknown policy `{s}` (expected drop, degrade:<f>, or combined:<f>)"
            ));
        };
        let fraction: f64 = raw
            .parse()
            .map_err(|e| format!("invalid degradation fraction `{raw}`: {e}"))?;
        let spec = build(fraction);
        spec.validate().map_err(|_| {
            format!("degradation fraction must be a finite value in [0, 1], got `{raw}`")
        })?;
        Ok(spec)
    }
}

/// Builds a single-budget surrogate task for a demand test (the budget is
/// carried in `c_lo` of an LC-criticality task so [`dbf::edf_demand_test`]
/// in LO mode reads it back). `None` when the budget cannot fit the
/// deadline — i.e. the modelled mode is trivially infeasible.
fn surrogate(id: TaskId, budget: Duration, deadline: Duration, period: Duration) -> Option<McTask> {
    McTask::builder(id)
        .period(period)
        .deadline(deadline.min(period).max(Duration::from_nanos(1)))
        .c_lo(budget)
        .build()
        .ok()
}

impl SchedulingPolicy for PolicySpec {
    fn name(&self) -> String {
        match *self {
            PolicySpec::EdfVdDropAll => "edf_vd_drop".to_string(),
            PolicySpec::LiuDegrade { fraction } => format!("liu_degrade_{fraction:.2}"),
            PolicySpec::DemandBased { .. } => "easwaran_demand".to_string(),
            PolicySpec::FlexibleUtilization { min_fraction } => {
                format!("chen_flex_{min_fraction:.2}")
            }
            PolicySpec::CombinedModeSwitch { fraction } => {
                format!("boudjadar_combined_{fraction:.2}")
            }
        }
    }

    fn admit(&self, ts: &TaskSet) -> Result<PolicyVerdict, SchedError> {
        self.validate()?;
        if ts.is_empty() {
            return Err(SchedError::EmptyTaskSet);
        }
        let (u_hc_lo, u_hc_hi, u_lc_lo) = (ts.u_hc_lo(), ts.u_hc_hi(), ts.u_lc_lo());
        Ok(match *self {
            PolicySpec::EdfVdDropAll => {
                let a = edf_vd::analyze(ts);
                PolicyVerdict {
                    schedulable: a.schedulable,
                    x: a.x,
                    service_level: 0.0,
                }
            }
            PolicySpec::LiuDegrade { fraction } => {
                let a = liu::analyze(ts, fraction);
                PolicyVerdict {
                    schedulable: a.schedulable,
                    x: a.x,
                    service_level: fraction,
                }
            }
            PolicySpec::DemandBased { max_points } => return Self::demand_admit(ts, max_points),
            PolicySpec::FlexibleUtilization { min_fraction } => {
                match Self::max_service_level(u_hc_lo, u_hc_hi, u_lc_lo, min_fraction) {
                    Some(theta) => PolicyVerdict {
                        schedulable: true,
                        x: liu::x_factor(u_hc_lo, u_lc_lo),
                        service_level: theta,
                    },
                    None => PolicyVerdict {
                        schedulable: false,
                        x: liu::x_factor(u_hc_lo, u_lc_lo),
                        service_level: min_fraction,
                    },
                }
            }
            PolicySpec::CombinedModeSwitch { fraction } => {
                let system_ok = liu::conditions_hold(u_hc_lo, u_hc_hi, u_lc_lo, fraction);
                PolicyVerdict {
                    schedulable: system_ok && Self::containment_holds(ts),
                    x: liu::x_factor(u_hc_lo, u_lc_lo),
                    service_level: fraction,
                }
            }
        })
    }

    fn runtime(&self, ts: &TaskSet) -> RuntimeBehaviour {
        match *self {
            PolicySpec::EdfVdDropAll | PolicySpec::DemandBased { .. } => RuntimeBehaviour {
                lc_policy: LcPolicy::DropAll,
                mode_switch: ModeSwitchPolicy::System,
            },
            PolicySpec::LiuDegrade { fraction } => RuntimeBehaviour {
                lc_policy: LcPolicy::Degrade(fraction),
                mode_switch: ModeSwitchPolicy::System,
            },
            PolicySpec::FlexibleUtilization { min_fraction } => {
                // Run at the per-set maximised service level; fall back to
                // the floor when the set was not admitted.
                let theta =
                    Self::max_service_level(ts.u_hc_lo(), ts.u_hc_hi(), ts.u_lc_lo(), min_fraction)
                        .unwrap_or(min_fraction);
                RuntimeBehaviour {
                    lc_policy: LcPolicy::Degrade(theta),
                    mode_switch: ModeSwitchPolicy::System,
                }
            }
            PolicySpec::CombinedModeSwitch { fraction } => RuntimeBehaviour {
                lc_policy: LcPolicy::Degrade(fraction),
                mode_switch: ModeSwitchPolicy::TaskLevelThenSystem,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_task::{Criticality, McTask, TaskId};
    use std::collections::BTreeSet;

    fn hc(id: u32, c_lo_ms: u64, c_hi_ms: u64, p_ms: u64) -> McTask {
        McTask::builder(TaskId::new(id))
            .criticality(Criticality::Hi)
            .period(Duration::from_millis(p_ms))
            .c_lo(Duration::from_millis(c_lo_ms))
            .c_hi(Duration::from_millis(c_hi_ms))
            .build()
            .unwrap()
    }

    fn lc(id: u32, c_ms: u64, p_ms: u64) -> McTask {
        McTask::builder(TaskId::new(id))
            .period(Duration::from_millis(p_ms))
            .c_lo(Duration::from_millis(c_ms))
            .build()
            .unwrap()
    }

    /// u_hc_lo = 0.2, u_hc_hi = 0.5, u_lc_lo = 0.3.
    fn light_set() -> TaskSet {
        TaskSet::from_tasks(vec![hc(0, 20, 50, 100), lc(1, 30, 100)]).unwrap()
    }

    #[test]
    fn roster_has_five_distinct_valid_policies() {
        let roster = PolicySpec::arena_roster();
        assert_eq!(roster.len(), 5);
        let names: BTreeSet<String> = roster.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), roster.len(), "duplicate policy names");
        for p in &roster {
            p.validate().unwrap();
        }
    }

    #[test]
    fn every_policy_admits_a_lightly_loaded_set() {
        let ts = light_set();
        for p in PolicySpec::arena_roster() {
            let v = p.admit(&ts).unwrap();
            assert!(v.schedulable, "{} rejected the light set", p.name());
        }
    }

    #[test]
    fn every_policy_rejects_an_overloaded_set() {
        // u_hc_lo = 0.8, u_lc_lo = 0.4: LO mode alone is overloaded.
        let ts = TaskSet::from_tasks(vec![hc(0, 80, 90, 100), lc(1, 40, 100)]).unwrap();
        for p in PolicySpec::arena_roster() {
            let v = p.admit(&ts).unwrap();
            assert!(!v.schedulable, "{} admitted an overloaded set", p.name());
        }
    }

    #[test]
    fn flexible_policy_maximises_the_service_level() {
        // u_hc_lo = 0.1, u_hc_hi = 0.8, u_lc_lo = 0.3:
        //   x = 1/7; HI condition: x·0.3 + (1 − x)·0.3·θ + 0.8 ≤ 1
        //   ⇒ θ ≤ (0.2 − 3/70)/(0.9·6/7) ≈ 0.6111.
        let ts = TaskSet::from_tasks(vec![hc(0, 10, 80, 100), lc(1, 30, 100)]).unwrap();
        let p = PolicySpec::FlexibleUtilization { min_fraction: 0.3 };
        let v = p.admit(&ts).unwrap();
        assert!(v.schedulable);
        let theta = v.service_level;
        assert!((theta - 0.6111).abs() < 1e-3, "theta = {theta}");
        // Maximality: the Liu conditions flip just above θ*.
        assert!(liu::conditions_hold(0.1, 0.8, 0.3, theta));
        assert!(!liu::conditions_hold(
            0.1,
            0.8,
            0.3,
            (theta + 1e-3).min(1.0)
        ));
        // The runtime runs at θ*, not at the floor.
        match p.runtime(&ts).lc_policy {
            LcPolicy::Degrade(f) => assert!((f - theta).abs() < 1e-12),
            other => panic!("unexpected lc policy {other:?}"),
        }
    }

    #[test]
    fn combined_policy_rejects_uncontainable_single_overrun() {
        // u_total_lo = 0.4 but one HC task jumps 0.1 → 0.8 at C_HI:
        // containment demand 0.4 − 0.1 + 0.8 = 1.1 > 1.
        let ts = TaskSet::from_tasks(vec![hc(0, 10, 80, 100), lc(1, 30, 100)]).unwrap();
        let combined = PolicySpec::CombinedModeSwitch { fraction: 0.5 };
        assert!(!combined.admit(&ts).unwrap().schedulable);
        // The plain system-level policies still admit it.
        assert!(PolicySpec::EdfVdDropAll.admit(&ts).unwrap().schedulable);
        assert!(
            PolicySpec::LiuDegrade { fraction: 0.5 }
                .admit(&ts)
                .unwrap()
                .schedulable
        );
    }

    #[test]
    fn demand_policy_accounts_for_carry_over() {
        // Two HC tasks, u_hc_lo = 0.4, u_hc_hi = 1.0, no LC: Baruah's
        // utilisation test sits exactly at its boundary and admits, but the
        // carry-over demand (two 50 ms budgets inside a (1 − 0.4)·100 ms
        // margin) cannot fit: the demand-based test rejects.
        let ts = TaskSet::from_tasks(vec![hc(0, 20, 50, 100), hc(1, 20, 50, 100)]).unwrap();
        assert!(PolicySpec::EdfVdDropAll.admit(&ts).unwrap().schedulable);
        let v = PolicySpec::DemandBased { max_points: 0 }
            .admit(&ts)
            .unwrap();
        assert!(!v.schedulable);
    }

    #[test]
    fn invalid_fractions_are_rejected_at_admit_time() {
        let ts = light_set();
        for p in [
            PolicySpec::LiuDegrade { fraction: 1.5 },
            PolicySpec::LiuDegrade { fraction: f64::NAN },
            PolicySpec::FlexibleUtilization { min_fraction: -0.1 },
            PolicySpec::CombinedModeSwitch {
                fraction: f64::INFINITY,
            },
        ] {
            assert!(p.validate().is_err());
            assert!(matches!(
                p.admit(&ts),
                Err(SchedError::InvalidSimConfig { .. })
            ));
        }
    }

    #[test]
    fn empty_set_is_a_structured_error_for_every_policy() {
        for p in PolicySpec::arena_roster() {
            assert!(
                matches!(p.admit(&TaskSet::new()), Err(SchedError::EmptyTaskSet)),
                "{}",
                p.name()
            );
        }
    }

    #[test]
    fn demand_point_budget_propagates_as_error() {
        // Constrained deadlines needing two check points; budget of one.
        let t = |id: u32, c: u64, d: u64, p: u64| {
            McTask::builder(TaskId::new(id))
                .period(Duration::from_millis(p))
                .deadline(Duration::from_millis(d))
                .c_lo(Duration::from_millis(c))
                .build()
                .unwrap()
        };
        let ts = TaskSet::from_tasks(vec![t(0, 5, 7, 10), t(1, 4, 9, 9)]).unwrap();
        assert!(matches!(
            PolicySpec::DemandBased { max_points: 1 }.admit(&ts),
            Err(SchedError::DemandBudgetExhausted { .. })
        ));
    }

    #[test]
    fn sim_config_projection_keeps_base_knobs() {
        let ts = light_set();
        let base = SimConfig::new(Duration::from_secs(3));
        let cfg = PolicySpec::CombinedModeSwitch { fraction: 0.5 }.sim_config(&ts, &base);
        assert_eq!(cfg.horizon, base.horizon);
        assert_eq!(cfg.exec_model, base.exec_model);
        assert_eq!(cfg.seed, base.seed);
        assert_eq!(cfg.lc_policy, LcPolicy::Degrade(0.5));
        assert_eq!(cfg.mode_switch, ModeSwitchPolicy::TaskLevelThenSystem);
        let cfg = PolicySpec::EdfVdDropAll.sim_config(&ts, &base);
        assert_eq!(cfg.lc_policy, LcPolicy::DropAll);
        assert_eq!(cfg.mode_switch, ModeSwitchPolicy::System);
    }

    #[test]
    fn cli_spellings_parse_to_their_policies() {
        assert_eq!("drop".parse(), Ok(PolicySpec::EdfVdDropAll));
        assert_eq!(
            "degrade:0.25".parse(),
            Ok(PolicySpec::LiuDegrade { fraction: 0.25 })
        );
        assert_eq!(
            "combined:1".parse(),
            Ok(PolicySpec::CombinedModeSwitch { fraction: 1.0 })
        );
        for (raw, offending) in [
            ("degrade:1.5", "`1.5`"),
            ("combined:NaN", "`NaN`"),
            ("degrade:half", "`half`"),
            ("nonsense", "unknown policy `nonsense`"),
            ("edf_vd_drop", "unknown policy"),
        ] {
            let err = raw.parse::<PolicySpec>().unwrap_err();
            assert!(err.contains(offending), "{raw}: {err}");
        }
    }

    #[test]
    fn policy_names_are_stable() {
        // Campaign stores key on these: renaming breaks resume/merge.
        let names: Vec<String> = PolicySpec::arena_roster()
            .iter()
            .map(|p| p.name())
            .collect();
        assert_eq!(
            names,
            vec![
                "edf_vd_drop",
                "liu_degrade_0.50",
                "easwaran_demand",
                "chen_flex_0.30",
                "boudjadar_combined_0.50",
            ]
        );
    }

    mod properties {
        use super::*;
        use mc_fault::{assert_prop, PropConfig};
        use rand::SeedableRng;

        /// The combined policy's admission implies Liu's (it only adds
        /// the containment condition), and the flexible policy at floor
        /// `f` admits whenever fixed Liu at `f` does.
        #[test]
        fn admission_orderings_hold() {
            assert_prop(
                &PropConfig::named("admission_orderings_hold").cases(32),
                |rng| rng.below(2_000),
                |&seed| {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                    let cfg = mc_task::generate::GeneratorConfig::default();
                    let u = 0.4 + (seed % 6) as f64 * 0.1;
                    let ts = mc_task::generate::generate_mixed_taskset(u, &cfg, &mut rng).unwrap();
                    let liu_ok = PolicySpec::LiuDegrade { fraction: 0.5 }
                        .admit(&ts)
                        .unwrap()
                        .schedulable;
                    let combined_ok = PolicySpec::CombinedModeSwitch { fraction: 0.5 }
                        .admit(&ts)
                        .unwrap()
                        .schedulable;
                    let flex = PolicySpec::FlexibleUtilization { min_fraction: 0.5 }
                        .admit(&ts)
                        .unwrap();
                    assert!(!combined_ok || liu_ok);
                    assert_eq!(flex.schedulable, liu_ok);
                    if flex.schedulable {
                        assert!(flex.service_level >= 0.5 - 1e-9);
                        assert!(flex.service_level <= 1.0);
                    }
                    Ok(())
                },
            );
        }

        /// Every admitted verdict carries a usable service level and
        /// the demand-based test is sound against LO utilisation.
        #[test]
        fn verdicts_are_well_formed() {
            assert_prop(
                &PropConfig::named("verdicts_are_well_formed").cases(32),
                |rng| rng.below(1_000),
                |&seed| {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                    let cfg = mc_task::generate::GeneratorConfig::default();
                    let u = 0.4 + (seed % 6) as f64 * 0.1;
                    let ts = mc_task::generate::generate_mixed_taskset(u, &cfg, &mut rng).unwrap();
                    for p in PolicySpec::arena_roster() {
                        let v = p.admit(&ts).unwrap();
                        assert!((0.0..=1.0).contains(&v.service_level), "{}", p.name());
                        if let Some(x) = v.x {
                            assert!((0.0..=1.0).contains(&x), "{}", p.name());
                        }
                    }
                    let demand_ok = PolicySpec::DemandBased { max_points: 0 }
                        .admit(&ts)
                        .unwrap()
                        .schedulable;
                    let u_lo: f64 = ts.iter().map(|t| t.u_lo()).sum();
                    if demand_ok {
                        assert!(u_lo <= 1.0 + 1e-6);
                    }
                    Ok(())
                },
            );
        }
    }
}
