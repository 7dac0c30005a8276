//! Extreme-value-theory (EVT) estimation of probabilistic WCETs.
//!
//! The paper's related-work section (§II) discusses measurement-based
//! probabilistic WCET (pWCET) estimation via EVT (its refs. \[17\], \[18\]) and its open
//! challenges — sensitivity to block size, representativity, and fit
//! quality. This module implements the classic *block-maxima* method with a
//! Gumbel (EV type I) fit so the workspace can compare the two roads to an
//! optimistic WCET empirically:
//!
//! * **Chebyshev** (the paper): `C_LO = ACET + n·σ`, distribution-free,
//!   conservative by construction;
//! * **EVT**: fit a Gumbel to per-block maxima and read the quantile at the
//!   target exceedance probability — tighter when the fit is good,
//!   unsound when it is not.
//!
//! The fit uses the method of moments (`scale = s·√6/π`,
//! `location = m − γ·scale`), which is standard for Gumbel-based pWCET
//! estimation and needs no iterative solver.

use crate::dist::EULER_GAMMA;
use crate::summary::Summary;
use crate::{Result, StatsError};
use serde::{Deserialize, Serialize};

/// A fitted Gumbel (maximum) model of per-block maxima.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GumbelFit {
    /// Location parameter µ of the fitted Gumbel.
    pub location: f64,
    /// Scale parameter β of the fitted Gumbel.
    pub scale: f64,
    /// Block size the maxima were taken over.
    pub block_size: usize,
    /// Number of blocks used for the fit.
    pub blocks: usize,
}

impl GumbelFit {
    /// Fits a Gumbel to the maxima of consecutive `block_size`-sample
    /// blocks of `samples` (a trailing partial block is discarded).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] when `block_size == 0`,
    /// fewer than two complete blocks exist, or the block maxima are
    /// degenerate (zero variance — a constant-time task needs no EVT).
    pub fn from_block_maxima(samples: &[f64], block_size: usize) -> Result<Self> {
        if block_size == 0 {
            return Err(StatsError::InvalidParameter {
                what: "block_size",
                expected: "strictly positive",
                value: 0.0,
            });
        }
        let blocks = samples.len() / block_size;
        if blocks < 2 {
            return Err(StatsError::InvalidParameter {
                what: "blocks",
                expected: "at least 2 complete blocks",
                value: blocks as f64,
            });
        }
        let maxima: Vec<f64> = samples
            .chunks_exact(block_size)
            .map(|chunk| chunk.iter().cloned().fold(f64::NEG_INFINITY, f64::max))
            .collect();
        let summary = Summary::from_samples(&maxima)?;
        // Method of moments on the maxima; Bessel-corrected s is standard.
        let s = summary.sample_std_dev();
        if s <= 0.0 {
            return Err(StatsError::InvalidParameter {
                what: "block-maxima standard deviation",
                expected: "strictly positive",
                value: s,
            });
        }
        let scale = s * 6.0_f64.sqrt() / std::f64::consts::PI;
        let location = summary.mean() - EULER_GAMMA * scale;
        Ok(GumbelFit {
            location,
            scale,
            block_size,
            blocks,
        })
    }

    /// Probability that one *block maximum* exceeds `x`:
    /// `1 − exp(−exp(−(x − µ)/β))`.
    pub fn block_exceedance(&self, x: f64) -> f64 {
        1.0 - (-(-(x - self.location) / self.scale).exp()).exp()
    }

    /// Probability that one *individual sample* exceeds `x`, derived from
    /// the block model: if the block maximum's CDF at `x` is `F(x)`, then a
    /// single sample's exceedance is `1 − F(x)^(1/b)`.
    pub fn sample_exceedance(&self, x: f64) -> f64 {
        let f_block = 1.0 - self.block_exceedance(x);
        if f_block <= 0.0 {
            return 1.0;
        }
        1.0 - f_block.powf(1.0 / self.block_size as f64)
    }

    /// The pWCET at per-*sample* exceedance probability `p`: the level `x`
    /// with `sample_exceedance(x) = p`.
    ///
    /// # Errors
    ///
    /// Returns an error when `p` is outside `(0, 1)`.
    pub fn pwcet(&self, p: f64) -> Result<f64> {
        crate::ensure_finite("exceedance probability", p)?;
        if p <= 0.0 || p >= 1.0 {
            return Err(StatsError::InvalidParameter {
                what: "exceedance probability",
                expected: "in (0, 1)",
                value: p,
            });
        }
        // Per-sample CDF target → per-block CDF target → Gumbel quantile.
        let f_block = (1.0 - p).powf(self.block_size as f64);
        Ok(self.location - self.scale * (-f_block.ln()).ln())
    }
}

/// Convenience: the EVT counterpart of the paper's `ACET + n·σ` — the level
/// whose *estimated* exceedance probability equals the Chebyshev bound
/// `1/(1+n²)`, so the two approaches can be compared at equal risk.
///
/// # Errors
///
/// Propagates fitting/quantile errors.
pub fn evt_level_for_factor(samples: &[f64], block_size: usize, n: f64) -> Result<f64> {
    let fit = GumbelFit::from_block_maxima(samples, block_size)?;
    let p = crate::chebyshev::try_one_sided_bound(n)?;
    if p >= 1.0 {
        // n = 0: the Chebyshev bound is vacuous; the matching level is the
        // distribution's infimum, approximated by the sample minimum.
        return Summary::from_samples(samples).map(|s| s.min());
    }
    fit.pwcet(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Dist;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gumbel_samples(loc: f64, scale: f64, count: usize, seed: u64) -> Vec<f64> {
        let d = Dist::gumbel(loc, scale).unwrap();
        d.sample_vec(&mut StdRng::seed_from_u64(seed), count)
    }

    #[test]
    fn fit_recovers_gumbel_parameters_of_maxima() {
        // Maxima of Gumbel blocks are Gumbel with shifted location:
        // max of b iid Gumbel(µ, β) is Gumbel(µ + β ln b, β).
        let (loc, scale, b) = (100.0, 5.0, 50usize);
        let samples = gumbel_samples(loc, scale, 100_000, 1);
        let fit = GumbelFit::from_block_maxima(&samples, b).unwrap();
        let expected_loc = loc + scale * (b as f64).ln();
        assert!(
            (fit.location - expected_loc).abs() < 0.5,
            "location {} vs {}",
            fit.location,
            expected_loc
        );
        assert!((fit.scale - scale).abs() < 0.5, "scale {}", fit.scale);
        assert_eq!(fit.blocks, 2_000);
    }

    #[test]
    fn pwcet_round_trips_through_exceedance() {
        let samples = gumbel_samples(1_000.0, 50.0, 20_000, 2);
        let fit = GumbelFit::from_block_maxima(&samples, 40).unwrap();
        for p in [0.1, 0.01, 1e-3, 1e-6] {
            let level = fit.pwcet(p).unwrap();
            let back = fit.sample_exceedance(level);
            assert!(
                (back - p).abs() < p * 1e-6 + 1e-12,
                "p = {p}: level {level}, back {back}"
            );
        }
    }

    #[test]
    fn pwcet_is_monotone_in_risk() {
        let samples = gumbel_samples(1_000.0, 50.0, 20_000, 3);
        let fit = GumbelFit::from_block_maxima(&samples, 40).unwrap();
        let l1 = fit.pwcet(0.1).unwrap();
        let l2 = fit.pwcet(0.01).unwrap();
        let l3 = fit.pwcet(1e-4).unwrap();
        assert!(l1 < l2 && l2 < l3);
    }

    #[test]
    fn evt_estimate_tracks_empirical_exceedance_on_gumbel_data() {
        // On genuinely Gumbel data the EVT estimate at p = 1 % must be close
        // to the empirical 99th percentile.
        let samples = gumbel_samples(500.0, 20.0, 50_000, 4);
        let fit = GumbelFit::from_block_maxima(&samples, 50).unwrap();
        let level = fit.pwcet(0.01).unwrap();
        let empirical =
            samples.iter().filter(|&&x| x > level).count() as f64 / samples.len() as f64;
        assert!(
            (empirical - 0.01).abs() < 0.004,
            "empirical exceedance {empirical}"
        );
    }

    #[test]
    fn chebyshev_is_more_conservative_than_evt_on_light_tails() {
        // The headline ablation: for a well-behaved distribution, the
        // Chebyshev level at bound p sits above the EVT level at the same
        // p — Chebyshev buys distribution-freedom with pessimism.
        let d = Dist::normal(1_000.0, 50.0).unwrap();
        let samples = d.sample_vec(&mut StdRng::seed_from_u64(5), 50_000);
        let summary = Summary::from_samples(&samples).unwrap();
        for n in [2.0, 3.0, 4.0] {
            let chebyshev_level = summary.mean() + n * summary.std_dev();
            let evt_level = evt_level_for_factor(&samples, 50, n).unwrap();
            assert!(
                chebyshev_level > evt_level,
                "n = {n}: chebyshev {chebyshev_level} vs evt {evt_level}"
            );
        }
    }

    #[test]
    fn degenerate_inputs_are_rejected() {
        assert!(GumbelFit::from_block_maxima(&[1.0, 2.0], 0).is_err());
        assert!(GumbelFit::from_block_maxima(&[1.0, 2.0, 3.0], 2).is_err());
        // Constant data has zero block-maxima variance.
        let constant = vec![5.0; 1_000];
        assert!(GumbelFit::from_block_maxima(&constant, 10).is_err());
    }

    #[test]
    fn pwcet_validates_probability() {
        let samples = gumbel_samples(0.0, 1.0, 1_000, 6);
        let fit = GumbelFit::from_block_maxima(&samples, 10).unwrap();
        assert!(fit.pwcet(0.0).is_err());
        assert!(fit.pwcet(1.0).is_err());
        assert!(fit.pwcet(-0.1).is_err());
        assert!(fit.pwcet(f64::NAN).is_err());
    }

    #[test]
    fn factor_zero_maps_to_sample_minimum() {
        let samples = gumbel_samples(0.0, 1.0, 1_000, 7);
        let level = evt_level_for_factor(&samples, 10, 0.0).unwrap();
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        assert_eq!(level, min);
    }

    mod properties {
        use super::*;
        use crate::prop_domain::within;
        use mc_fault::{assert_prop, PropConfig};

        #[test]
        fn exceedance_functions_are_proper() {
            assert_prop(
                &PropConfig::named("exceedance_functions_are_proper").cases(24),
                |rng| (rng.f64(), rng.f64(), rng.below(100), rng.f64()),
                |&(u_loc, u_scale, seed, u_x)| {
                    let loc = within(-100.0, 100.0, u_loc);
                    let scale = within(0.5, 20.0, u_scale);
                    let x = within(-200.0, 400.0, u_x);
                    let samples = gumbel_samples(loc, scale, 2_000, seed);
                    let fit = GumbelFit::from_block_maxima(&samples, 20).unwrap();
                    let b = fit.block_exceedance(x);
                    let s = fit.sample_exceedance(x);
                    assert!((0.0..=1.0).contains(&b));
                    assert!((0.0..=1.0).contains(&s));
                    // A single sample exceeds x no more often than the block max.
                    assert!(s <= b + 1e-12);
                    Ok(())
                },
            );
        }
    }
}
