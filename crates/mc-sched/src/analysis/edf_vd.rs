//! EDF-VD schedulability (Baruah et al., RTNS 2012) — the paper's Eq. 8.
//!
//! EDF-VD schedules HC tasks in LO mode against *virtual deadlines*
//! `x · D` for a shrinking factor `x ∈ (0, 1]`, guaranteeing that when a
//! mode switch occurs, carried-over HC work still meets its real deadline.
//! With `x = U_HC^LO / (1 − U_LC^LO)`, the system is schedulable iff
//! (paper Eq. 8):
//!
//! ```text
//! U_HC^LO + U_LC^LO ≤ 1                                  (LO mode)
//! U_HC^HI + U_HC^LO · U_LC^LO / (1 − U_LC^LO) ≤ 1        (HI mode + switch)
//! ```
//!
//! The second condition is exactly `x · U_LC^LO + U_HC^HI ≤ 1` rewritten.
//! Inverting it for `U_LC^LO` yields the paper's `max(U_LC^LO)` bound
//! (Eqs. 11–12) — the utilisation that can be handed to LC tasks at design
//! time, the quantity the whole optimisation maximises.

use mc_task::time::Duration;
use mc_task::{McTask, TaskSet};
use serde::{Deserialize, Serialize};

/// Tolerance for utilisation comparisons.
const EPS: f64 = 1e-9;

/// Outcome of an EDF-VD schedulability analysis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EdfVdAnalysis {
    /// `U_HC^LO` of the analysed set.
    pub u_hc_lo: f64,
    /// `U_HC^HI` of the analysed set.
    pub u_hc_hi: f64,
    /// `U_LC^LO` of the analysed set.
    pub u_lc_lo: f64,
    /// The deadline-shrinking factor, when one exists.
    pub x: Option<f64>,
    /// Whether both Eq. 8 conditions hold.
    pub schedulable: bool,
}

/// Checks the paper's Eq. 8 on raw utilisations.
///
/// Degenerate cases: `U_LC^LO ≥ 1` leaves no LO-mode room unless the HC
/// demand is zero; `U_HC^LO = 0` reduces the second condition to
/// `U_HC^HI ≤ 1`.
pub fn conditions_hold(u_hc_lo: f64, u_hc_hi: f64, u_lc_lo: f64) -> bool {
    if u_hc_lo + u_lc_lo > 1.0 + EPS {
        return false;
    }
    if u_hc_hi > 1.0 + EPS {
        return false;
    }
    if u_lc_lo >= 1.0 - EPS {
        // First condition already forced u_hc_lo ≈ 0: pure-LC system.
        return u_hc_hi <= EPS;
    }
    u_hc_hi + u_hc_lo * u_lc_lo / (1.0 - u_lc_lo) <= 1.0 + EPS
}

/// The deadline-shrinking factor `x = U_HC^LO / (1 − U_LC^LO)`, or `None`
/// when no valid factor in `(0, 1]` exists.
///
/// A system with no HC demand needs no shrinking; `Some(1.0)` is returned
/// so virtual deadlines degenerate to real ones.
pub fn x_factor(u_hc_lo: f64, u_lc_lo: f64) -> Option<f64> {
    if u_hc_lo <= EPS {
        return Some(1.0);
    }
    if u_lc_lo >= 1.0 - EPS {
        return None;
    }
    let x = u_hc_lo / (1.0 - u_lc_lo);
    if x > 1.0 + EPS {
        None
    } else {
        Some(x.min(1.0))
    }
}

/// The virtual (LO-mode) relative deadline of an HC task: `x · D`, at least
/// one nanosecond. LC tasks keep their real deadline.
pub fn virtual_deadline(task: &McTask, x: f64) -> Duration {
    if task.is_high() {
        task.deadline()
            .mul_f64(x.clamp(0.0, 1.0))
            .max(Duration::from_nanos(1))
    } else {
        task.deadline()
    }
}

/// Runs the full EDF-VD analysis on a task set.
///
/// # Example
///
/// ```
/// use mc_sched::analysis::edf_vd::analyze;
/// use mc_task::{Criticality, McTask, TaskId, TaskSet};
/// use mc_task::time::Duration;
///
/// # fn main() -> Result<(), mc_task::TaskError> {
/// let ts = TaskSet::from_tasks(vec![
///     McTask::builder(TaskId::new(0))
///         .criticality(Criticality::Hi)
///         .period(Duration::from_millis(100))
///         .c_lo(Duration::from_millis(10))
///         .c_hi(Duration::from_millis(40))
///         .build()?,
///     McTask::builder(TaskId::new(1))
///         .period(Duration::from_millis(100))
///         .c_lo(Duration::from_millis(30))
///         .build()?,
/// ])?;
/// let a = analyze(&ts);
/// assert!(a.schedulable);
/// # Ok(())
/// # }
/// ```
pub fn analyze(ts: &TaskSet) -> EdfVdAnalysis {
    let u_hc_lo = ts.u_hc_lo();
    let u_hc_hi = ts.u_hc_hi();
    let u_lc_lo = ts.u_lc_lo();
    EdfVdAnalysis {
        u_hc_lo,
        u_hc_hi,
        u_lc_lo,
        x: x_factor(u_hc_lo, u_lc_lo),
        schedulable: conditions_hold(u_hc_lo, u_hc_hi, u_lc_lo),
    }
}

/// The paper's `max(U_LC^LO)` (Eqs. 11–12): the largest LC utilisation that
/// keeps Eq. 8 satisfiable given the HC demands, clamped to `[0, 1]`.
///
/// Returns `0.0` when the HC tasks alone are infeasible
/// (`U_HC^HI > 1` or `U_HC^LO > 1`).
///
/// Without LO-mode HC demand (`U_HC^LO ≤ ε`, ε = 10⁻⁹), Eq. 12's bound is
/// its supremum, 1. Only a pure-LC system (`U_HC^HI ≤ ε`) attains it. Once
/// HC tasks have HI-mode demand, a fully loaded LO mode leaves no room for
/// the switch, and [`conditions_hold`] refuses every `U_LC^LO ≥ 1 − ε`.
/// The bound is then the largest `U_LC^LO` that `conditions_hold` accepts,
/// found by bisection, so the two functions agree on every input.
#[inline]
pub fn max_u_lc_lo(u_hc_lo: f64, u_hc_hi: f64) -> f64 {
    if u_hc_hi > 1.0 + EPS || u_hc_lo > 1.0 + EPS || u_hc_lo > u_hc_hi + EPS {
        return 0.0;
    }
    if u_hc_lo <= EPS && u_hc_hi > EPS {
        // Eq. 8 holds at 0 and fails from 1 − ε on, and the set it accepts
        // is an interval: bisect its upper end.
        let (mut held, mut failed) = (0.0, 1.0 - EPS);
        for _ in 0..64 {
            let mid = 0.5 * (held + failed);
            if conditions_hold(u_hc_lo, u_hc_hi, mid) {
                held = mid;
            } else {
                failed = mid;
            }
        }
        return held;
    }
    // Eq. 11: LO-mode capacity.
    let bound_lo = 1.0 - u_hc_lo;
    // Eq. 12: HI-mode capacity with carry-over, from inverting
    //   u_hc_hi + u_hc_lo·u/(1−u) ≤ 1.
    let bound_hi = if u_hc_lo <= EPS {
        1.0
    } else {
        (1.0 - u_hc_hi) / (1.0 - u_hc_hi + u_hc_lo)
    };
    bound_lo.min(bound_hi).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_task::time::Duration;
    use mc_task::{Criticality, McTask, TaskId};

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

    #[test]
    fn eq8_hand_computed_cases() {
        // u_hc_lo=0.2, u_hc_hi=0.6, u_lc_lo=0.3:
        //   0.2+0.3 = 0.5 ≤ 1 ✓ ; 0.6 + 0.2·0.3/0.7 = 0.6857 ≤ 1 ✓
        assert!(conditions_hold(0.2, 0.6, 0.3));
        // u_hc_lo=0.5, u_hc_hi=0.9, u_lc_lo=0.4:
        //   0.9 ≤ 1 but 0.9 + 0.5·0.4/0.6 = 1.233 > 1 ✗
        assert!(!conditions_hold(0.5, 0.9, 0.4));
        // LO-mode overload.
        assert!(!conditions_hold(0.7, 0.8, 0.4));
        // HI-mode overload alone.
        assert!(!conditions_hold(0.1, 1.2, 0.1));
    }

    #[test]
    fn degenerate_pure_lc_system() {
        assert!(conditions_hold(0.0, 0.0, 1.0));
        assert!(!conditions_hold(0.0, 0.5, 1.0));
        assert!(!conditions_hold(0.1, 0.5, 1.0));
    }

    #[test]
    fn degenerate_pure_hc_system() {
        assert!(conditions_hold(0.3, 1.0, 0.0));
        assert!(!conditions_hold(0.3, 1.01, 0.0));
    }

    #[test]
    fn x_factor_matches_baruah() {
        let x = x_factor(0.3, 0.4).unwrap();
        assert!((x - 0.5).abs() < 1e-12);
        assert_eq!(x_factor(0.0, 0.4), Some(1.0));
        assert_eq!(x_factor(0.5, 1.0), None);
        assert_eq!(x_factor(0.7, 0.5), None); // x would be 1.4
    }

    #[test]
    fn virtual_deadlines_shrink_only_hc() {
        let h = hc(0, 10, 40, 100);
        let l = lc(1, 10, 100);
        assert_eq!(virtual_deadline(&h, 0.5), Duration::from_millis(50));
        assert_eq!(virtual_deadline(&l, 0.5), Duration::from_millis(100));
        // Never collapses to zero.
        assert!(virtual_deadline(&h, 0.0) >= Duration::from_nanos(1));
    }

    #[test]
    fn analyze_composes_utilizations() {
        let ts = mc_task::TaskSet::from_tasks(vec![hc(0, 10, 40, 100), lc(1, 30, 100)]).unwrap();
        let a = analyze(&ts);
        assert!((a.u_hc_lo - 0.1).abs() < 1e-12);
        assert!((a.u_hc_hi - 0.4).abs() < 1e-12);
        assert!((a.u_lc_lo - 0.3).abs() < 1e-12);
        assert!(a.schedulable);
        let x = a.x.unwrap();
        assert!((x - 0.1 / 0.7).abs() < 1e-12);
    }

    #[test]
    fn max_u_lc_lo_hand_computed() {
        // Paper Fig. 3b style: u_hc_lo = 0.2, u_hc_hi = 0.8:
        //   Eq. 11 → 0.8 ; Eq. 12 → 0.2/(0.2+0.2) = 0.5 → min = 0.5.
        assert!((max_u_lc_lo(0.2, 0.8) - 0.5).abs() < 1e-12);
        // LO-mode constrained case: u_hc_lo = 0.9, u_hc_hi = 0.95:
        //   Eq. 11 → 0.1 ; Eq. 12 → 0.05/0.95 ≈ 0.0526 → 0.0526.
        assert!((max_u_lc_lo(0.9, 0.95) - 0.05 / 0.95).abs() < 1e-12);
        // Infeasible HC load.
        assert_eq!(max_u_lc_lo(0.5, 1.2), 0.0);
        // No HC tasks: everything can be LC.
        assert_eq!(max_u_lc_lo(0.0, 0.0), 1.0);
    }

    #[test]
    fn max_u_lc_lo_saturates_eq8() {
        // At the bound, Eq. 8 must hold; just above, it must fail.
        for (u_lo, u_hi) in [(0.1, 0.5), (0.3, 0.7), (0.05, 0.9), (0.5, 0.5)] {
            let m = max_u_lc_lo(u_lo, u_hi);
            assert!(conditions_hold(u_lo, u_hi, m), "at bound ({u_lo},{u_hi})");
            if m < 1.0 {
                assert!(
                    !conditions_hold(u_lo, u_hi, m + 1e-6),
                    "above bound ({u_lo},{u_hi})"
                );
            }
        }
    }

    #[test]
    fn lowering_c_lo_raises_max_u_lc_lo() {
        // The core trade-off: smaller optimistic WCETs leave more room for
        // LC tasks.
        let m_tight = max_u_lc_lo(0.1, 0.8);
        let m_loose = max_u_lc_lo(0.4, 0.8);
        assert!(m_tight > m_loose);
    }

    mod properties {
        use super::*;
        use mc_fault::{assert_prop, PropConfig};

        #[test]
        fn max_u_lc_lo_is_feasible_and_maximal() {
            assert_prop(
                &PropConfig::named("max_u_lc_lo_is_feasible_and_maximal"),
                |rng| (rng.f64(), rng.f64()),
                |&(u_hc_lo, extra)| {
                    let u_hc_hi = (u_hc_lo + extra).min(1.0);
                    let m = max_u_lc_lo(u_hc_lo, u_hc_hi);
                    assert!((0.0..=1.0).contains(&m));
                    assert!(conditions_hold(u_hc_lo, u_hc_hi, m));
                    if m < 1.0 - 1e-6 {
                        assert!(!conditions_hold(u_hc_lo, u_hc_hi, m + 1e-5));
                    }
                    Ok(())
                },
            );
        }

        /// The case shrinking found: no LO-mode HC demand, a sliver of
        /// HI-mode demand. The bound used to be 1, which Eq. 8 refuses.
        #[test]
        fn max_u_lc_lo_without_lo_demand_is_feasible_and_maximal() {
            for (u_hc_lo, u_hc_hi) in [(0.0, 1.49e-9), (0.0, 1.0), (1e-10, 0.9), (1e-9, 1.0)] {
                let m = max_u_lc_lo(u_hc_lo, u_hc_hi);
                assert!((0.0..=1.0).contains(&m), "({u_hc_lo}, {u_hc_hi}): {m}");
                assert!(
                    conditions_hold(u_hc_lo, u_hc_hi, m),
                    "({u_hc_lo}, {u_hc_hi}): {m}"
                );
                assert!(!conditions_hold(u_hc_lo, u_hc_hi, m + 1e-9));
            }
            assert!(max_u_lc_lo(0.0, 1.49e-9) > 1.0 - 2e-9);
            assert_eq!(max_u_lc_lo(0.0, 1e-9), 1.0, "pure LC attains 1");
        }

        #[test]
        fn max_u_lc_lo_monotone_in_hc_demand() {
            assert_prop(
                &PropConfig::named("max_u_lc_lo_monotone_in_hc_demand"),
                |rng| (rng.f64(), rng.f64(), rng.f64()),
                |&(u_lo, u_extra, u_bump)| {
                    let (u_hc_lo, extra, bump) = (0.9 * u_lo, 0.5 * u_extra, 0.05 * u_bump);
                    let u_hc_hi = (u_hc_lo + extra).min(1.0);
                    let base = max_u_lc_lo(u_hc_lo, u_hc_hi);
                    let more_lo = max_u_lc_lo((u_hc_lo + bump).min(u_hc_hi), u_hc_hi);
                    let more_hi = max_u_lc_lo(u_hc_lo, (u_hc_hi + bump).min(1.0));
                    assert!(more_lo <= base + 1e-9);
                    assert!(more_hi <= base + 1e-9);
                    Ok(())
                },
            );
        }

        #[test]
        fn x_factor_yields_feasible_lo_schedule() {
            assert_prop(
                &PropConfig::named("x_factor_yields_feasible_lo_schedule"),
                |rng| (rng.f64(), rng.f64()),
                |&(u_hc, u_lc)| {
                    let (u_hc_lo, u_lc_lo) = (0.01 + 0.89 * u_hc, 0.9 * u_lc);
                    if let Some(x) = x_factor(u_hc_lo, u_lc_lo) {
                        // The shrunken HC demand plus LC demand fits in LO mode:
                        // u_hc_lo / x + u_lc_lo ≤ 1.
                        assert!(u_hc_lo / x + u_lc_lo <= 1.0 + 1e-6);
                        assert!(x > 0.0 && x <= 1.0);
                    }
                    Ok(())
                },
            );
        }
    }
}
