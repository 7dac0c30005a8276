//! Goodness-of-fit testing (Kolmogorov–Smirnov).
//!
//! EVT-based pWCET estimation (see [`crate::evt`]) is only as sound as the
//! underlying fit — one of the open challenges the paper's §II cites. This
//! module provides the one-sample Kolmogorov–Smirnov test so fits can be
//! *qualified*: the KS statistic `D_n = sup |F_emp − F|`, its asymptotic
//! p-value via the Kolmogorov distribution, and a reject/accept decision at
//! a chosen significance level.

use crate::dist::Dist;
use crate::{ensure_finite, Result, StatsError};
use serde::{Deserialize, Serialize};

/// Result of a one-sample KS test.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KsResult {
    /// The KS statistic `D_n`.
    pub statistic: f64,
    /// Sample size.
    pub n: usize,
    /// Asymptotic p-value `P[D > D_n]` under the null hypothesis.
    pub p_value: f64,
}

impl KsResult {
    /// Whether the null hypothesis ("the samples come from the reference
    /// distribution") is rejected at significance `alpha`.
    pub fn reject_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// The KS statistic of `samples` against an arbitrary CDF.
///
/// # Errors
///
/// Returns [`StatsError::EmptySamples`] for an empty sample set and
/// [`StatsError::NonFinite`] for non-finite samples or CDF values.
pub fn ks_statistic<F>(samples: &[f64], cdf: F) -> Result<f64>
where
    F: Fn(f64) -> f64,
{
    if samples.is_empty() {
        return Err(StatsError::EmptySamples);
    }
    let mut sorted = samples.to_vec();
    for &s in &sorted {
        ensure_finite("sample", s)?;
    }
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let n = sorted.len() as f64;
    let mut d = 0.0f64;
    for (i, &x) in sorted.iter().enumerate() {
        let f = cdf(x);
        ensure_finite("cdf value", f)?;
        // Compare against the ECDF just below and at the step.
        let lo = i as f64 / n;
        let hi = (i + 1) as f64 / n;
        d = d.max((f - lo).abs()).max((hi - f).abs());
    }
    Ok(d)
}

/// Asymptotic Kolmogorov survival function
/// `Q(λ) = 2 Σ_{k≥1} (−1)^{k−1} e^{−2k²λ²}`.
///
/// For small `λ` that alternating series is ill-conditioned, so the dual
/// (Jacobi-theta) form of the CDF is used instead:
/// `P(D ≤ λ) = (√(2π)/λ) Σ_{k≥1} e^{−(2k−1)²π²/(8λ²)}`.
pub fn kolmogorov_survival(lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return 1.0;
    }
    if lambda < 1.18 {
        // Small-λ regime: evaluate the CDF directly.
        let mut cdf_sum = 0.0;
        for k in 1..=20u32 {
            let m = (2 * k - 1) as f64;
            cdf_sum += (-(m * m) * std::f64::consts::PI.powi(2) / (8.0 * lambda * lambda)).exp();
        }
        let cdf = (2.0 * std::f64::consts::PI).sqrt() / lambda * cdf_sum;
        return (1.0 - cdf).clamp(0.0, 1.0);
    }
    let mut sum = 0.0;
    let mut sign = 1.0;
    for k in 1..=100 {
        let term = (-2.0 * (k as f64).powi(2) * lambda * lambda).exp();
        sum += sign * term;
        sign = -sign;
        if term < 1e-12 {
            break;
        }
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

/// One-sample KS test of `samples` against a reference [`Dist`].
///
/// Uses the asymptotic p-value with the Stephens small-sample correction
/// `λ = (√n + 0.12 + 0.11/√n) · D_n`.
///
/// # Errors
///
/// Same conditions as [`ks_statistic`].
pub fn ks_test(samples: &[f64], reference: &Dist) -> Result<KsResult> {
    let statistic = ks_statistic(samples, |x| reference.cdf(x))?;
    let n = samples.len();
    let sqrt_n = (n as f64).sqrt();
    let lambda = (sqrt_n + 0.12 + 0.11 / sqrt_n) * statistic;
    Ok(KsResult {
        statistic,
        n,
        p_value: kolmogorov_survival(lambda),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn statistic_of_perfect_uniform_grid_is_small() {
        // Samples at the midpoints of 1/n-wide bins of U(0,1): D = 1/(2n).
        let n = 100;
        let samples: Vec<f64> = (0..n).map(|i| (i as f64 + 0.5) / n as f64).collect();
        let d = ks_statistic(&samples, |x| x.clamp(0.0, 1.0)).unwrap();
        assert!((d - 0.005).abs() < 1e-12, "d = {d}");
    }

    #[test]
    fn statistic_is_one_for_totally_wrong_cdf() {
        let samples = [10.0, 11.0, 12.0];
        // A CDF that is 1 below all samples: maximal mismatch at the first.
        let d = ks_statistic(&samples, |_| 1.0).unwrap();
        assert!((d - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_non_finite_inputs_are_rejected() {
        assert!(ks_statistic(&[], |x| x).is_err());
        assert!(ks_statistic(&[f64::NAN], |x| x).is_err());
        assert!(ks_statistic(&[1.0], |_| f64::NAN).is_err());
    }

    #[test]
    fn kolmogorov_survival_reference_values() {
        // Known quantiles: Q(1.358) ≈ 0.05, Q(1.628) ≈ 0.01, Q(1.224) ≈ 0.10.
        assert!((kolmogorov_survival(1.358) - 0.05).abs() < 0.002);
        assert!((kolmogorov_survival(1.628) - 0.01).abs() < 0.001);
        assert!((kolmogorov_survival(1.224) - 0.10).abs() < 0.003);
        assert_eq!(kolmogorov_survival(0.0), 1.0);
        assert!(kolmogorov_survival(5.0) < 1e-9);
        // A monotonicity counterexample upstream proptest once recorded
        // for `survival_is_monotone` (l1 = 0.000488…, dl = 0.296…).
        let (l1, dl) = (0.0004885731926071333, 0.29634213424488126);
        assert!(kolmogorov_survival(l1 + dl) <= kolmogorov_survival(l1) + 1e-12);
    }

    #[test]
    fn correct_null_is_not_rejected() {
        let d = Dist::normal(10.0, 2.0).unwrap();
        let samples = d.sample_vec(&mut StdRng::seed_from_u64(1), 2_000);
        let r = ks_test(&samples, &d).unwrap();
        assert!(
            !r.reject_at(0.01),
            "true distribution rejected: D = {}, p = {}",
            r.statistic,
            r.p_value
        );
    }

    #[test]
    fn wrong_null_is_rejected() {
        let truth = Dist::gumbel_from_moments(10.0, 2.0).unwrap();
        let wrong = Dist::normal(10.0, 2.0).unwrap();
        let samples = truth.sample_vec(&mut StdRng::seed_from_u64(2), 2_000);
        let r = ks_test(&samples, &wrong).unwrap();
        assert!(
            r.reject_at(0.01),
            "gumbel-vs-normal not detected: D = {}, p = {}",
            r.statistic,
            r.p_value
        );
    }

    #[test]
    fn gross_mismatch_gives_large_statistic() {
        let truth = Dist::normal(0.0, 1.0).unwrap();
        let shifted = Dist::normal(5.0, 1.0).unwrap();
        let samples = truth.sample_vec(&mut StdRng::seed_from_u64(3), 500);
        let r = ks_test(&samples, &shifted).unwrap();
        assert!(r.statistic > 0.9);
        assert!(r.p_value < 1e-9);
    }

    #[test]
    fn ks_qualifies_evt_fits() {
        // A Gumbel fitted to Gumbel block maxima passes; the same fit is
        // rejected against maxima from a uniform-bounded distribution
        // (where the Gumbel's unbounded tail is wrong).
        use crate::evt::GumbelFit;
        let truth = Dist::gumbel(100.0, 7.0).unwrap();
        let samples = truth.sample_vec(&mut StdRng::seed_from_u64(4), 40_000);
        let fit = GumbelFit::from_block_maxima(&samples, 40).unwrap();
        let maxima: Vec<f64> = samples
            .chunks_exact(40)
            .map(|c| c.iter().cloned().fold(f64::NEG_INFINITY, f64::max))
            .collect();
        let fitted = Dist::gumbel(fit.location, fit.scale).unwrap();
        let good = ks_test(&maxima, &fitted).unwrap();
        assert!(
            !good.reject_at(0.01),
            "good fit rejected: p = {}",
            good.p_value
        );

        let bounded = Dist::uniform(0.0, 1.0).unwrap();
        let b_samples = bounded.sample_vec(&mut StdRng::seed_from_u64(5), 40_000);
        let b_fit = GumbelFit::from_block_maxima(&b_samples, 40).unwrap();
        let b_maxima: Vec<f64> = b_samples
            .chunks_exact(40)
            .map(|c| c.iter().cloned().fold(f64::NEG_INFINITY, f64::max))
            .collect();
        let b_fitted = Dist::gumbel(b_fit.location, b_fit.scale).unwrap();
        let bad = ks_test(&b_maxima, &b_fitted).unwrap();
        assert!(
            bad.statistic > good.statistic,
            "bounded-tail fit should look worse ({} vs {})",
            bad.statistic,
            good.statistic
        );
    }

    mod properties {
        use super::*;
        use crate::prop_domain::{samples, units};
        use mc_fault::{assert_prop, PropConfig};

        #[test]
        fn statistic_is_in_unit_interval() {
            assert_prop(
                &PropConfig::named("statistic_is_in_unit_interval"),
                |rng| units(rng, 1..200),
                |raw| {
                    let samples = samples(raw, 1, -100.0, 100.0);
                    let d = Dist::normal(0.0, 10.0).unwrap();
                    let s = ks_statistic(&samples, |x| d.cdf(x)).unwrap();
                    assert!((0.0..=1.0).contains(&s));
                    Ok(())
                },
            );
        }

        #[test]
        fn survival_is_monotone() {
            assert_prop(
                &PropConfig::named("survival_is_monotone"),
                |rng| (rng.f64(), rng.f64()),
                |&(u_l1, u_dl)| {
                    let (l1, dl) = (3.0 * u_l1, 3.0 * u_dl);
                    assert!(kolmogorov_survival(l1 + dl) <= kolmogorov_survival(l1) + 1e-12);
                    Ok(())
                },
            );
        }
    }
}
