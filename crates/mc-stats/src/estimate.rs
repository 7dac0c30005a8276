//! Empirical exceedance-rate estimation.
//!
//! The paper's Tables I and II report the *measured* percentage of job
//! instances whose execution time exceeds a candidate optimistic WCET. This
//! module provides that estimator together with a Wilson-score confidence
//! interval (binomial proportions at 20 000 samples are tight, but the
//! interval quantifies it) and a seedable bootstrap for derived statistics.

use crate::{ensure_finite, Result, StatsError};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// An estimated exceedance (overrun) rate with its sample size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExceedanceEstimate {
    /// Number of samples strictly above the level.
    pub exceeding: u64,
    /// Total number of samples.
    pub total: u64,
}

impl ExceedanceEstimate {
    /// Point estimate of the exceedance probability.
    pub fn rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.exceeding as f64 / self.total as f64
        }
    }

    /// Point estimate as a percentage, matching the paper's table units.
    pub fn percent(&self) -> f64 {
        self.rate() * 100.0
    }

    /// Wilson score interval at confidence level `z` standard normal
    /// quantiles (e.g. `z = 1.96` for 95 %).
    ///
    /// Returns `(lower, upper)` bounds on the true proportion.
    ///
    /// # Errors
    ///
    /// Returns an error when `z` is not strictly positive or the estimate
    /// has no samples.
    pub fn wilson_interval(&self, z: f64) -> Result<(f64, f64)> {
        ensure_finite("z", z)?;
        if z <= 0.0 {
            return Err(StatsError::InvalidParameter {
                what: "z",
                expected: "strictly positive",
                value: z,
            });
        }
        if self.total == 0 {
            return Err(StatsError::EmptySamples);
        }
        let n = self.total as f64;
        let p = self.rate();
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let centre = (p + z2 / (2.0 * n)) / denom;
        let half = (z / denom) * ((p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt());
        Ok(((centre - half).max(0.0), (centre + half).min(1.0)))
    }
}

/// Counts how many `samples` strictly exceed `level`.
///
/// This is the measurement behind the paper's "% of samples that overruns"
/// columns: a job *overruns* its optimistic WCET when its execution time is
/// greater than the budget.
///
/// # Errors
///
/// Returns an error when `level` is NaN (non-finite samples are the
/// caller's responsibility to pre-validate; comparisons with NaN samples
/// would silently undercount, so they are rejected too).
///
/// # Example
///
/// ```
/// use mc_stats::estimate::exceedance_rate;
///
/// # fn main() -> Result<(), mc_stats::StatsError> {
/// let est = exceedance_rate(&[1.0, 2.0, 3.0, 4.0], 2.5)?;
/// assert_eq!(est.exceeding, 2);
/// assert_eq!(est.percent(), 50.0);
/// # Ok(())
/// # }
/// ```
pub fn exceedance_rate(samples: &[f64], level: f64) -> Result<ExceedanceEstimate> {
    ensure_finite("level", level)?;
    let mut exceeding = 0u64;
    for &s in samples {
        if s.is_nan() {
            return Err(StatsError::NonFinite {
                what: "sample",
                value: s,
            });
        }
        if s > level {
            exceeding += 1;
        }
    }
    Ok(ExceedanceEstimate {
        exceeding,
        total: samples.len() as u64,
    })
}

/// Counts exceedances at several levels in one pass, returning estimates in
/// the same order as `levels`. Useful for the multi-column Tables I/II.
///
/// # Errors
///
/// Same conditions as [`exceedance_rate`].
pub fn exceedance_rates(samples: &[f64], levels: &[f64]) -> Result<Vec<ExceedanceEstimate>> {
    for &l in levels {
        ensure_finite("level", l)?;
    }
    let mut counts = vec![0u64; levels.len()];
    for &s in samples {
        if s.is_nan() {
            return Err(StatsError::NonFinite {
                what: "sample",
                value: s,
            });
        }
        for (c, &l) in counts.iter_mut().zip(levels) {
            if s > l {
                *c += 1;
            }
        }
    }
    Ok(counts
        .into_iter()
        .map(|exceeding| ExceedanceEstimate {
            exceeding,
            total: samples.len() as u64,
        })
        .collect())
}

/// Bootstrap resampling: applies `statistic` to `resamples` resampled (with
/// replacement) copies of `samples` and returns the statistic values.
///
/// # Errors
///
/// Returns an error when `samples` is empty or `resamples` is zero.
///
/// # Example
///
/// ```
/// use mc_stats::estimate::bootstrap;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), mc_stats::StatsError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let means = bootstrap(&[1.0, 2.0, 3.0], 100, &mut rng, |xs| {
///     xs.iter().sum::<f64>() / xs.len() as f64
/// })?;
/// assert_eq!(means.len(), 100);
/// # Ok(())
/// # }
/// ```
pub fn bootstrap<R, F>(
    samples: &[f64],
    resamples: usize,
    rng: &mut R,
    statistic: F,
) -> Result<Vec<f64>>
where
    R: Rng + ?Sized,
    F: Fn(&[f64]) -> f64,
{
    if samples.is_empty() {
        return Err(StatsError::EmptySamples);
    }
    if resamples == 0 {
        return Err(StatsError::InvalidParameter {
            what: "resamples",
            expected: "strictly positive",
            value: 0.0,
        });
    }
    let mut scratch = vec![0.0; samples.len()];
    let mut out = Vec::with_capacity(resamples);
    for _ in 0..resamples {
        for slot in &mut scratch {
            *slot = samples[rng.random_range(0..samples.len())];
        }
        out.push(statistic(&scratch));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exceedance_is_strict() {
        let est = exceedance_rate(&[1.0, 2.0, 2.0, 3.0], 2.0).unwrap();
        assert_eq!(est.exceeding, 1); // only 3.0 is strictly above
        assert_eq!(est.total, 4);
        assert!((est.rate() - 0.25).abs() < 1e-12);
        assert!((est.percent() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn empty_samples_give_zero_rate() {
        let est = exceedance_rate(&[], 1.0).unwrap();
        assert_eq!(est.rate(), 0.0);
        assert_eq!(est.total, 0);
    }

    #[test]
    fn nan_inputs_are_rejected() {
        assert!(exceedance_rate(&[f64::NAN], 1.0).is_err());
        assert!(exceedance_rate(&[1.0], f64::NAN).is_err());
        assert!(exceedance_rates(&[1.0], &[f64::NAN]).is_err());
    }

    #[test]
    fn multi_level_matches_individual_calls() {
        let samples = [1.0, 5.0, 2.0, 8.0, 3.0];
        let levels = [0.0, 2.5, 6.0, 10.0];
        let batch = exceedance_rates(&samples, &levels).unwrap();
        for (est, &l) in batch.iter().zip(&levels) {
            let single = exceedance_rate(&samples, l).unwrap();
            assert_eq!(est, &single);
        }
    }

    #[test]
    fn exceedance_at_increasing_levels_is_non_increasing() {
        let samples = [1.0, 2.0, 3.0, 4.0, 5.0];
        let batch = exceedance_rates(&samples, &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        for pair in batch.windows(2) {
            assert!(pair[1].exceeding <= pair[0].exceeding);
        }
    }

    #[test]
    fn wilson_interval_contains_point_estimate() {
        let est = ExceedanceEstimate {
            exceeding: 158,
            total: 1000,
        };
        let (lo, hi) = est.wilson_interval(1.96).unwrap();
        assert!(lo < est.rate() && est.rate() < hi);
        assert!(lo > 0.13 && hi < 0.19);
    }

    #[test]
    fn wilson_interval_is_clamped_to_unit_interval() {
        let zero = ExceedanceEstimate {
            exceeding: 0,
            total: 10,
        };
        let (lo, _) = zero.wilson_interval(1.96).unwrap();
        assert_eq!(lo, 0.0);
        let all = ExceedanceEstimate {
            exceeding: 10,
            total: 10,
        };
        let (_, hi) = all.wilson_interval(1.96).unwrap();
        assert_eq!(hi, 1.0);
    }

    #[test]
    fn wilson_interval_rejects_bad_input() {
        let est = ExceedanceEstimate {
            exceeding: 1,
            total: 10,
        };
        assert!(est.wilson_interval(0.0).is_err());
        assert!(est.wilson_interval(-1.0).is_err());
        let empty = ExceedanceEstimate {
            exceeding: 0,
            total: 0,
        };
        assert!(empty.wilson_interval(1.96).is_err());
    }

    #[test]
    fn bootstrap_mean_concentrates_near_sample_mean() {
        let samples: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let mut rng = StdRng::seed_from_u64(5);
        let means = bootstrap(&samples, 500, &mut rng, |xs| {
            xs.iter().sum::<f64>() / xs.len() as f64
        })
        .unwrap();
        let grand = means.iter().sum::<f64>() / means.len() as f64;
        assert!((grand - 49.5).abs() < 2.0);
    }

    #[test]
    fn bootstrap_is_deterministic_per_seed() {
        let samples = [1.0, 2.0, 3.0, 4.0];
        let stat = |xs: &[f64]| xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let a = bootstrap(&samples, 50, &mut StdRng::seed_from_u64(9), stat).unwrap();
        let b = bootstrap(&samples, 50, &mut StdRng::seed_from_u64(9), stat).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bootstrap_rejects_degenerate_requests() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(bootstrap(&[], 10, &mut rng, |_| 0.0).is_err());
        assert!(bootstrap(&[1.0], 0, &mut rng, |_| 0.0).is_err());
    }

    mod properties {
        use super::*;
        use crate::prop_domain::{samples, units, within};
        use mc_fault::{assert_prop, PropConfig};

        #[test]
        fn rate_is_in_unit_interval() {
            assert_prop(
                &PropConfig::named("rate_is_in_unit_interval"),
                |rng| (units(rng, 0..200), rng.f64()),
                |(raw, u_level)| {
                    let samples = samples(raw, 0, -100.0, 100.0);
                    let level = within(-150.0, 150.0, *u_level);
                    let est = exceedance_rate(&samples, level).unwrap();
                    assert!((0.0..=1.0).contains(&est.rate()));
                    Ok(())
                },
            );
        }

        #[test]
        fn exceeding_plus_not_exceeding_is_total() {
            assert_prop(
                &PropConfig::named("exceeding_plus_not_exceeding_is_total"),
                |rng| (units(rng, 0..200), rng.f64()),
                |(raw, u_level)| {
                    let samples = samples(raw, 0, -100.0, 100.0);
                    let level = within(-150.0, 150.0, *u_level);
                    let above = exceedance_rate(&samples, level).unwrap();
                    let at_most = samples.iter().filter(|&&s| s <= level).count() as u64;
                    assert_eq!(above.exceeding + at_most, samples.len() as u64);
                    Ok(())
                },
            );
        }

        #[test]
        fn wilson_interval_is_ordered() {
            assert_prop(
                &PropConfig::named("wilson_interval_is_ordered"),
                |rng| (rng.below(1000), rng.below(1000), rng.f64()),
                |&(exceeding, extra, u_z)| {
                    let est = ExceedanceEstimate {
                        exceeding,
                        total: exceeding + extra + 1,
                    };
                    let (lo, hi) = est.wilson_interval(within(0.5, 4.0, u_z)).unwrap();
                    assert!(lo <= hi);
                    assert!((0.0..=1.0).contains(&lo));
                    assert!((0.0..=1.0).contains(&hi));
                    assert!(lo <= est.rate() + 1e-12);
                    assert!(est.rate() <= hi + 1e-12);
                    Ok(())
                },
            );
        }
    }
}
