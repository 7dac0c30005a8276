//! Chebyshev-type tail bounds (the paper's Theorem 1).
//!
//! The paper's core analytical tool is the *one-sided Chebyshev inequality*
//! (also known as Cantelli's inequality): for any random variable `X` with
//! mean `µ` and variance `σ²`, and any `a > 0`,
//!
//! ```text
//! P[X − µ ≥ a] ≤ σ² / (σ² + a²)
//! ```
//!
//! Substituting `a = n·σ` yields the distribution-free bound
//! `P[X ≥ µ + nσ] ≤ 1/(1 + n²)` used to bound the probability that a
//! high-criticality task overruns its optimistic WCET
//! `C_LO = ACET + n·σ` (paper Eqs. 5–6). This module provides the bound,
//! its inverse (the `n` needed for a target overrun probability), the
//! classic two-sided bound for comparison, and the system-level mode-switch
//! probability composition of Eq. 10.

use crate::{ensure_non_negative, ensure_positive, Result, StatsError};

/// One-sided Chebyshev (Cantelli) bound `1/(1 + n²)` on
/// `P[X ≥ µ + nσ]` (paper Eq. 2/5).
///
/// For `n = 0` the bound is the trivial `1.0`; it decreases monotonically
/// and approaches `0` as `n → ∞`.
///
/// # Panics
///
/// Panics if `n` is negative or NaN — the bound is only meaningful for
/// non-negative factors; use [`try_one_sided_bound`] for a fallible variant.
///
/// # Example
///
/// ```
/// use mc_stats::chebyshev::one_sided_bound;
/// assert_eq!(one_sided_bound(0.0), 1.0);
/// assert_eq!(one_sided_bound(1.0), 0.5);
/// assert_eq!(one_sided_bound(2.0), 0.2);
/// assert_eq!(one_sided_bound(3.0), 0.1);
/// ```
#[inline]
pub fn one_sided_bound(n: f64) -> f64 {
    try_one_sided_bound(n).expect("chebyshev factor must be non-negative and finite")
}

/// Fallible variant of [`one_sided_bound`].
///
/// # Errors
///
/// Returns an error when `n` is negative, NaN or infinite.
#[inline]
pub fn try_one_sided_bound(n: f64) -> Result<f64> {
    ensure_non_negative("chebyshev factor n", n)?;
    Ok(1.0 / (1.0 + n * n))
}

/// One-sided Chebyshev bound in its raw `σ²/(σ² + a²)` form (paper Eq. 1)
/// for an absolute deviation `a` above the mean.
///
/// # Errors
///
/// Returns an error when `sigma` is not strictly positive or `a` is not
/// strictly positive (the inequality requires `a > 0`).
pub fn one_sided_bound_abs(sigma: f64, a: f64) -> Result<f64> {
    let sigma = ensure_positive("sigma", sigma)?;
    let a = ensure_positive("deviation a", a)?;
    let var = sigma * sigma;
    Ok(var / (var + a * a))
}

/// Two-sided Chebyshev bound `min(1, 1/n²)` on `P[|X − µ| ≥ nσ]`,
/// provided for comparison with the sharper one-sided bound.
///
/// # Errors
///
/// Returns an error when `n` is negative, NaN or infinite.
pub fn two_sided_bound(n: f64) -> Result<f64> {
    ensure_non_negative("chebyshev factor n", n)?;
    if n == 0.0 {
        return Ok(1.0);
    }
    Ok((1.0 / (n * n)).min(1.0))
}

/// Inverse of [`one_sided_bound`]: the smallest `n ≥ 0` such that
/// `1/(1 + n²) ≤ p`, i.e. `n = sqrt(1/p − 1)`.
///
/// # Errors
///
/// Returns an error when `p` is not in `(0, 1]`.
///
/// # Example
///
/// ```
/// use mc_stats::chebyshev::{n_for_probability, one_sided_bound};
/// # fn main() -> Result<(), mc_stats::StatsError> {
/// let n = n_for_probability(0.1)?;
/// assert!((one_sided_bound(n) - 0.1).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn n_for_probability(p: f64) -> Result<f64> {
    crate::ensure_finite("probability p", p)?;
    if p <= 0.0 || p > 1.0 {
        return Err(StatsError::InvalidParameter {
            what: "probability p",
            expected: "in (0, 1]",
            value: p,
        });
    }
    Ok((1.0 / p - 1.0).sqrt())
}

/// System-level mode-switching probability (paper Eq. 10):
/// `P_MS_sys = 1 − Π_i (1 − P_i)`, assuming independent HC tasks whose
/// per-task overrun probabilities are `p_i`.
///
/// The product is evaluated in log-space-free form; an empty iterator yields
/// `0.0` (a system with no HC task never switches mode).
///
/// # Errors
///
/// Returns an error when any `p_i` lies outside `[0, 1]`.
///
/// # Example
///
/// ```
/// use mc_stats::chebyshev::system_mode_switch_probability;
/// # fn main() -> Result<(), mc_stats::StatsError> {
/// // Two tasks at n = 2 each (bound 0.2): P_MS ≤ 1 − 0.8² = 0.36.
/// let p = system_mode_switch_probability([0.2, 0.2])?;
/// assert!((p - 0.36).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn system_mode_switch_probability<I>(per_task: I) -> Result<f64>
where
    I: IntoIterator<Item = f64>,
{
    let mut no_switch = 1.0_f64;
    for p in per_task {
        crate::ensure_finite("per-task overrun probability", p)?;
        if !(0.0..=1.0).contains(&p) {
            return Err(StatsError::InvalidParameter {
                what: "per-task overrun probability",
                expected: "in [0, 1]",
                value: p,
            });
        }
        no_switch *= 1.0 - p;
    }
    Ok(1.0 - no_switch)
}

/// System-level mode-switching probability directly from per-task Chebyshev
/// factors `n_i`, combining [`one_sided_bound`] and
/// [`system_mode_switch_probability`] (Eq. 10 with `P_i = 1/(1+n_i²)`).
///
/// # Errors
///
/// Returns an error when any `n_i` is negative, NaN or infinite.
pub fn system_mode_switch_probability_from_factors<I>(factors: I) -> Result<f64>
where
    I: IntoIterator<Item = f64>,
{
    let mut bounds = Vec::new();
    for n in factors {
        bounds.push(try_one_sided_bound(n)?);
    }
    system_mode_switch_probability(bounds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table_two_analysis_column() {
        // TABLE II "Analysis" column: n = 0..4 → 100 %, 50 %, 20 %, 10 %, 5.88 %.
        assert!((one_sided_bound(0.0) - 1.0).abs() < 1e-12);
        assert!((one_sided_bound(1.0) - 0.5).abs() < 1e-12);
        assert!((one_sided_bound(2.0) - 0.2).abs() < 1e-12);
        assert!((one_sided_bound(3.0) - 0.1).abs() < 1e-12);
        assert!((one_sided_bound(4.0) - 1.0 / 17.0).abs() < 1e-12);
        assert!((one_sided_bound(4.0) * 100.0 - 5.88).abs() < 0.01);
    }

    #[test]
    fn bound_is_monotonically_decreasing() {
        let mut prev = one_sided_bound(0.0);
        for i in 1..100 {
            let n = i as f64 * 0.25;
            let b = one_sided_bound(n);
            assert!(b < prev, "bound must strictly decrease, n={n}");
            prev = b;
        }
    }

    #[test]
    fn one_sided_is_sharper_than_two_sided_for_n_above_one() {
        for n in [1.5, 2.0, 3.0, 10.0] {
            assert!(one_sided_bound(n) < two_sided_bound(n).unwrap());
        }
    }

    #[test]
    fn two_sided_bound_clamps_at_one() {
        assert_eq!(two_sided_bound(0.0).unwrap(), 1.0);
        assert_eq!(two_sided_bound(0.5).unwrap(), 1.0);
        assert_eq!(two_sided_bound(1.0).unwrap(), 1.0);
        assert!((two_sided_bound(2.0).unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn abs_form_matches_normalised_form() {
        let sigma = 3.0;
        for n in [0.5, 1.0, 2.0, 7.0] {
            let via_abs = one_sided_bound_abs(sigma, n * sigma).unwrap();
            assert!((via_abs - one_sided_bound(n)).abs() < 1e-12);
        }
    }

    #[test]
    fn negative_factor_is_rejected() {
        assert!(try_one_sided_bound(-0.1).is_err());
        assert!(two_sided_bound(-1.0).is_err());
        assert!(try_one_sided_bound(f64::NAN).is_err());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn panicking_variant_panics_on_negative() {
        let _ = one_sided_bound(-1.0);
    }

    #[test]
    fn inverse_round_trips() {
        for p in [1.0, 0.5, 0.2, 0.1, 0.0911, 1e-4] {
            let n = n_for_probability(p).unwrap();
            assert!((one_sided_bound(n) - p).abs() < 1e-9, "p={p}");
        }
    }

    #[test]
    fn inverse_rejects_out_of_range() {
        assert!(n_for_probability(0.0).is_err());
        assert!(n_for_probability(-0.5).is_err());
        assert!(n_for_probability(1.5).is_err());
        assert!(n_for_probability(f64::NAN).is_err());
    }

    #[test]
    fn system_probability_of_empty_set_is_zero() {
        assert_eq!(system_mode_switch_probability([]).unwrap(), 0.0);
    }

    #[test]
    fn system_probability_single_task_is_its_own() {
        let p = system_mode_switch_probability([0.3]).unwrap();
        assert!((p - 0.3).abs() < 1e-12);
    }

    #[test]
    fn system_probability_certain_overrun_dominates() {
        let p = system_mode_switch_probability([0.0, 1.0, 0.1]).unwrap();
        assert!((p - 1.0).abs() < 1e-12);
    }

    #[test]
    fn system_probability_rejects_out_of_range() {
        assert!(system_mode_switch_probability([1.1]).is_err());
        assert!(system_mode_switch_probability([-0.1]).is_err());
    }

    #[test]
    fn factors_based_composition_matches_manual() {
        let p = system_mode_switch_probability_from_factors([1.0, 2.0]).unwrap();
        let manual = 1.0 - (1.0 - 0.5) * (1.0 - 0.2);
        assert!((p - manual).abs() < 1e-12);
    }

    mod properties {
        use super::*;
        use crate::prop_domain::{samples, units};
        use mc_fault::{assert_prop, PropConfig};

        #[test]
        fn bound_is_in_unit_interval() {
            assert_prop(
                &PropConfig::named("bound_is_in_unit_interval"),
                |rng| rng.f64(),
                |&u| {
                    let b = one_sided_bound(1.0e6 * u);
                    assert!((0.0..=1.0).contains(&b));
                    Ok(())
                },
            );
        }

        #[test]
        fn inverse_is_left_inverse() {
            assert_prop(
                &PropConfig::named("inverse_is_left_inverse"),
                |rng| rng.f64(),
                |&u| {
                    let n = 1.0e3 * u;
                    let p = one_sided_bound(n);
                    let back = n_for_probability(p).unwrap();
                    assert!((back - n).abs() < 1e-6 * (1.0 + n));
                    Ok(())
                },
            );
        }

        #[test]
        fn system_probability_is_monotone_in_each_task() {
            assert_prop(
                &PropConfig::named("system_probability_is_monotone_in_each_task"),
                |rng| (units(rng, 1..10), rng.below(10), rng.f64()),
                |(raw, idx, u_bump)| {
                    let ps = samples(raw, 1, 0.0, 1.0);
                    #[expect(clippy::cast_possible_truncation, reason = "a draw below 10")]
                    let idx = *idx as usize % ps.len();
                    let base = system_mode_switch_probability(ps.iter().copied()).unwrap();
                    let mut bumped = ps.clone();
                    bumped[idx] = (bumped[idx] + 0.5 * u_bump).min(1.0);
                    let after = system_mode_switch_probability(bumped).unwrap();
                    assert!(after >= base - 1e-12);
                    Ok(())
                },
            );
        }

        #[test]
        fn system_probability_at_least_max_task() {
            assert_prop(
                &PropConfig::named("system_probability_at_least_max_task"),
                |rng| units(rng, 1..10),
                |raw| {
                    let ps = samples(raw, 1, 0.0, 1.0);
                    let sys = system_mode_switch_probability(ps.iter().copied()).unwrap();
                    let max = ps.iter().cloned().fold(0.0f64, f64::max);
                    assert!(sys >= max - 1e-12);
                    Ok(())
                },
            );
        }

        #[test]
        fn system_probability_at_most_sum() {
            assert_prop(
                &PropConfig::named("system_probability_at_most_sum"),
                |rng| units(rng, 1..10),
                |raw| {
                    let ps = samples(raw, 1, 0.0, 1.0);
                    // Union bound: 1 − Π(1 − p_i) ≤ Σ p_i.
                    let sys = system_mode_switch_probability(ps.iter().copied()).unwrap();
                    let sum: f64 = ps.iter().sum();
                    assert!(sys <= sum + 1e-12);
                    Ok(())
                },
            );
        }
    }
}
