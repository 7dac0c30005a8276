//! Degraded-quality EDF-VD (Liu et al., RTSS 2016).
//!
//! In the imprecise mixed-criticality model, LC tasks are not dropped in HI
//! mode: they continue with a degraded budget `f · C_LO` (the paper's Fig. 6
//! uses `f = 0.5`). The sufficient EDF-VD test generalises Baruah's: with
//! `x = U_HC^LO / (1 − U_LC^LO)`,
//!
//! ```text
//! U_HC^LO + U_LC^LO ≤ 1                                   (LO mode)
//! x · U_LC^LO + (1 − x) · U_LC^HI + U_HC^HI ≤ 1           (HI mode)
//! ```
//!
//! where `U_LC^HI = f · U_LC^LO` is the degraded LC demand. Setting `f = 0`
//! recovers Baruah's drop-all condition exactly.

use mc_task::TaskSet;
use serde::{Deserialize, Serialize};

const EPS: f64 = 1e-9;

/// Outcome of a degraded-quality EDF-VD analysis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LiuAnalysis {
    /// `U_HC^LO` of the analysed set.
    pub u_hc_lo: f64,
    /// `U_HC^HI` of the analysed set.
    pub u_hc_hi: f64,
    /// `U_LC^LO` of the analysed set.
    pub u_lc_lo: f64,
    /// Degraded LC demand `f · U_LC^LO`.
    pub u_lc_hi: f64,
    /// The deadline-shrinking factor, when one exists.
    pub x: Option<f64>,
    /// Whether both conditions hold.
    pub schedulable: bool,
}

/// Checks the degraded-quality conditions on raw utilisations with LC
/// degradation factor `degradation ∈ [0, 1]` (fraction of the LC budget
/// retained in HI mode).
///
/// # Panics
///
/// Panics when `degradation` is outside `[0, 1]` or not finite.
pub fn conditions_hold(u_hc_lo: f64, u_hc_hi: f64, u_lc_lo: f64, degradation: f64) -> bool {
    assert!(
        degradation.is_finite() && (0.0..=1.0).contains(&degradation),
        "degradation factor must be in [0, 1]"
    );
    if u_hc_lo + u_lc_lo > 1.0 + EPS || u_hc_hi > 1.0 + EPS {
        return false;
    }
    let u_lc_hi = degradation * u_lc_lo;
    if u_lc_lo >= 1.0 - EPS {
        // Pure-LC system: HI mode must still fit the degraded demand.
        return u_hc_hi + u_lc_hi <= 1.0 + EPS;
    }
    let Some(x) = x_factor(u_hc_lo, u_lc_lo) else {
        return false;
    };
    x * u_lc_lo + (1.0 - x) * u_lc_hi + u_hc_hi <= 1.0 + EPS
}

/// The deadline-shrinking factor the degraded-quality HI-mode condition
/// actually applies: `x = U_HC^LO / (1 − U_LC^LO)`, and `0` when there is
/// no HC demand (the condition then weighs the degraded LC demand alone —
/// unlike [`super::edf_vd::x_factor`], which reports `1.0` there because
/// Baruah's rewritten condition has no `(1 − x)` term).
///
/// Returns `None` in the pure-LC regime (`U_LC^LO ≥ 1`, where the test
/// uses no factor) and when the factor would exceed `1` (where the test
/// rejects outright) — exactly the branches of [`conditions_hold`].
pub fn x_factor(u_hc_lo: f64, u_lc_lo: f64) -> Option<f64> {
    if u_lc_lo >= 1.0 - EPS {
        return None;
    }
    if u_hc_lo <= EPS {
        return Some(0.0);
    }
    let x = u_hc_lo / (1.0 - u_lc_lo);
    if x > 1.0 + EPS {
        None
    } else {
        Some(x.min(1.0))
    }
}

/// Runs the degraded-quality analysis on a task set.
pub fn analyze(ts: &TaskSet, degradation: f64) -> LiuAnalysis {
    let u_hc_lo = ts.u_hc_lo();
    let u_hc_hi = ts.u_hc_hi();
    let u_lc_lo = ts.u_lc_lo();
    LiuAnalysis {
        u_hc_lo,
        u_hc_hi,
        u_lc_lo,
        u_lc_hi: degradation * u_lc_lo,
        x: x_factor(u_hc_lo, u_lc_lo),
        schedulable: conditions_hold(u_hc_lo, u_hc_hi, u_lc_lo, degradation),
    }
}

/// The largest LC utilisation admissible under the degraded-quality test
/// given the HC demands (the Liu-analogue of the paper's Eqs. 11–12),
/// computed by bisection over the closed-form conditions.
///
/// # Panics
///
/// Panics when `degradation` is outside `[0, 1]` or not finite.
pub fn max_u_lc_lo(u_hc_lo: f64, u_hc_hi: f64, degradation: f64) -> f64 {
    assert!(
        degradation.is_finite() && (0.0..=1.0).contains(&degradation),
        "degradation factor must be in [0, 1]"
    );
    if degradation == 0.0 {
        // With no retained LC service the HI-mode condition is exactly
        // Baruah's; reuse the closed form so `f = 0` agrees bit-for-bit
        // with `edf_vd::max_u_lc_lo` instead of to bisection tolerance.
        return super::edf_vd::max_u_lc_lo(u_hc_lo, u_hc_hi);
    }
    if !conditions_hold(u_hc_lo, u_hc_hi, 0.0, degradation) {
        return 0.0;
    }
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    if conditions_hold(u_hc_lo, u_hc_hi, 1.0, degradation) {
        return 1.0;
    }
    for _ in 0..60 {
        let mid = (lo + hi) / 2.0;
        if conditions_hold(u_hc_lo, u_hc_hi, mid, degradation) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_task::time::Duration;
    use mc_task::{Criticality, McTask, TaskId};

    #[test]
    fn zero_degradation_recovers_baruah() {
        for (a, b, c) in [
            (0.2, 0.6, 0.3),
            (0.5, 0.9, 0.4),
            (0.1, 0.95, 0.2),
            (0.0, 0.0, 0.99),
        ] {
            assert_eq!(
                conditions_hold(a, b, c, 0.0),
                super::super::edf_vd::conditions_hold(a, b, c),
                "({a},{b},{c})"
            );
        }
    }

    #[test]
    fn degradation_only_tightens() {
        // Anything schedulable with f = 0.5 must be schedulable with f = 0.
        for (a, b, c) in [(0.2, 0.6, 0.3), (0.3, 0.7, 0.25), (0.1, 0.8, 0.15)] {
            if conditions_hold(a, b, c, 0.5) {
                assert!(conditions_hold(a, b, c, 0.0));
            }
        }
        // A concrete case separated by degradation: HI mode nearly full.
        assert!(conditions_hold(0.2, 0.85, 0.3, 0.0));
        assert!(!conditions_hold(0.2, 0.85, 0.3, 1.0));
    }

    #[test]
    fn hand_computed_case() {
        // u_hc_lo=0.2, u_hc_hi=0.6, u_lc_lo=0.3, f=0.5:
        //   x = 0.2/0.7 = 0.2857
        //   0.2857·0.3 + 0.7143·0.15 + 0.6 = 0.0857+0.1071+0.6 = 0.7929 ≤ 1 ✓
        assert!(conditions_hold(0.2, 0.6, 0.3, 0.5));
        // Push HI demand: u_hc_hi = 0.92 → 0.0857+0.1071+0.92 = 1.11 ✗
        assert!(!conditions_hold(0.2, 0.92, 0.3, 0.5));
    }

    #[test]
    #[should_panic(expected = "degradation factor")]
    fn invalid_degradation_panics() {
        let _ = conditions_hold(0.1, 0.2, 0.1, 1.5);
    }

    #[test]
    fn max_u_lc_lo_is_feasible_boundary() {
        for (u_lo, u_hi) in [(0.1, 0.5), (0.3, 0.7), (0.2, 0.9)] {
            for f in [0.0, 0.5, 1.0] {
                let m = max_u_lc_lo(u_lo, u_hi, f);
                assert!(conditions_hold(u_lo, u_hi, m, f), "({u_lo},{u_hi},{f})");
                if m < 1.0 - 1e-9 {
                    assert!(
                        !conditions_hold(u_lo, u_hi, m + 1e-6, f),
                        "({u_lo},{u_hi},{f})"
                    );
                }
            }
        }
    }

    #[test]
    fn max_u_lc_lo_zero_when_hc_infeasible() {
        assert_eq!(max_u_lc_lo(0.5, 1.1, 0.5), 0.0);
    }

    #[test]
    fn max_u_lc_lo_one_for_empty_hc() {
        assert!((max_u_lc_lo(0.0, 0.0, 0.5) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn x_factor_matches_conditions_at_zero_hc() {
        // Regression: `analyze` used to report `edf_vd::x_factor` —
        // `Some(1.0)` when `u_hc_lo ≤ EPS` — while `conditions_hold`
        // tested `x = 0` for the same inputs.
        assert_eq!(x_factor(0.0, 0.3), Some(0.0));
        assert_eq!(super::super::edf_vd::x_factor(0.0, 0.3), Some(1.0));

        let ts = mc_task::TaskSet::from_tasks(vec![
            McTask::builder(TaskId::new(0))
                .period(Duration::from_millis(100))
                .c_lo(Duration::from_millis(30))
                .build()
                .unwrap(),
            McTask::builder(TaskId::new(1))
                .period(Duration::from_millis(50))
                .c_lo(Duration::from_millis(20))
                .build()
                .unwrap(),
        ])
        .unwrap();
        let a = analyze(&ts, 0.5);
        assert_eq!(a.x, Some(0.0));
        assert!(a.schedulable);
        // The reported factor reproduces the HI-mode condition verdict.
        let x = a.x.unwrap();
        assert!(x * a.u_lc_lo + (1.0 - x) * a.u_lc_hi + a.u_hc_hi <= 1.0 + 1e-9);
    }

    #[test]
    fn x_factor_pure_lc_and_overload_edges() {
        // Pure-LC regime: the test uses no factor.
        assert_eq!(x_factor(0.0, 1.0), None);
        // Factor above 1 is rejected, matching `conditions_hold`.
        assert_eq!(x_factor(0.3, 0.8), None);
        assert!(!conditions_hold(0.3, 0.4, 0.8, 0.5));

        // A fully-utilised pure-LC set is schedulable under degradation
        // and reports no shrinking factor.
        let ts = mc_task::TaskSet::from_tasks(vec![McTask::builder(TaskId::new(0))
            .period(Duration::from_millis(100))
            .c_lo(Duration::from_millis(100))
            .build()
            .unwrap()])
        .unwrap();
        let a = analyze(&ts, 0.5);
        assert_eq!(a.x, None);
        assert!(a.schedulable);
    }

    #[test]
    fn zero_degradation_max_u_lc_lo_delegates_to_closed_form() {
        for (a, b) in [(0.2, 0.8), (0.9, 0.95), (0.0, 0.0), (0.5, 1.2)] {
            let m = max_u_lc_lo(a, b, 0.0);
            let e = super::super::edf_vd::max_u_lc_lo(a, b);
            assert_eq!(m.to_bits(), e.to_bits(), "({a},{b})");
        }
    }

    #[test]
    fn analyze_composes() {
        let ts = mc_task::TaskSet::from_tasks(vec![
            McTask::builder(TaskId::new(0))
                .criticality(Criticality::Hi)
                .period(Duration::from_millis(100))
                .c_lo(Duration::from_millis(20))
                .c_hi(Duration::from_millis(60))
                .build()
                .unwrap(),
            McTask::builder(TaskId::new(1))
                .period(Duration::from_millis(100))
                .c_lo(Duration::from_millis(30))
                .build()
                .unwrap(),
        ])
        .unwrap();
        let a = analyze(&ts, 0.5);
        assert!((a.u_lc_hi - 0.15).abs() < 1e-12);
        assert!(a.schedulable);
    }

    mod properties {
        use super::*;
        use mc_fault::{assert_prop, PropConfig};

        #[test]
        fn liu_at_most_as_permissive_as_baruah() {
            assert_prop(
                &PropConfig::named("liu_at_most_as_permissive_as_baruah"),
                |rng| (rng.f64(), rng.f64(), rng.f64(), rng.f64()),
                |&(u_hc_lo, extra, u_lc_lo, f)| {
                    let u_hc_hi = (u_hc_lo + extra).min(1.0);
                    if conditions_hold(u_hc_lo, u_hc_hi, u_lc_lo, f) {
                        assert!(super::super::super::edf_vd::conditions_hold(
                            u_hc_lo, u_hc_hi, u_lc_lo
                        ));
                    }
                    Ok(())
                },
            );
        }

        #[test]
        fn max_u_lc_lo_decreases_with_degradation() {
            assert_prop(
                &PropConfig::named("max_u_lc_lo_decreases_with_degradation"),
                |rng| (rng.f64(), rng.f64(), rng.f64(), rng.f64()),
                |&(u_lo, u_extra, f1, f2)| {
                    let (u_hc_lo, extra) = (0.8 * u_lo, 0.2 * u_extra);
                    let u_hc_hi = (u_hc_lo + extra).min(1.0);
                    let (fa, fb) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
                    let ma = max_u_lc_lo(u_hc_lo, u_hc_hi, fa);
                    let mb = max_u_lc_lo(u_hc_lo, u_hc_hi, fb);
                    assert!(mb <= ma + 1e-6);
                    Ok(())
                },
            );
        }

        /// The bisection boundary agrees with `conditions_hold`:
        /// the conditions are downward-closed in `u_lc_lo`, hold
        /// strictly below `max_u_lc_lo` and fail strictly above it.
        #[test]
        fn max_u_lc_lo_is_the_conditions_flip_point() {
            assert_prop(
                &PropConfig::named("max_u_lc_lo_is_the_conditions_flip_point"),
                |rng| (rng.f64(), rng.f64(), rng.f64(), rng.f64()),
                |&(u_lo, u_extra, f, u)| {
                    let (u_hc_lo, extra) = (0.9 * u_lo, 0.5 * u_extra);
                    let u_hc_hi = (u_hc_lo + extra).min(1.0);
                    let m = max_u_lc_lo(u_hc_lo, u_hc_hi, f);
                    if u < m - 1e-6 {
                        assert!(
                            conditions_hold(u_hc_lo, u_hc_hi, u, f),
                            "below flip: u={u} m={m}"
                        );
                    }
                    if u > m + 1e-6 {
                        assert!(
                            !conditions_hold(u_hc_lo, u_hc_hi, u, f),
                            "above flip: u={u} m={m}"
                        );
                    }
                    Ok(())
                },
            );
        }

        /// `degradation = 0` reproduces the paper's closed-form
        /// `max(U_LC^LO)` (edf_vd Eqs. 11–12) bit-for-bit.
        #[test]
        fn zero_degradation_max_matches_edf_vd_exactly() {
            assert_prop(
                &PropConfig::named("zero_degradation_max_matches_edf_vd_exactly"),
                |rng| (rng.f64(), rng.f64()),
                |&(u_hc_lo, extra)| {
                    let u_hc_hi = (u_hc_lo + extra).min(1.0);
                    let m = max_u_lc_lo(u_hc_lo, u_hc_hi, 0.0);
                    let e = super::super::super::edf_vd::max_u_lc_lo(u_hc_lo, u_hc_hi);
                    assert_eq!(m.to_bits(), e.to_bits());
                    Ok(())
                },
            );
        }
    }
}
