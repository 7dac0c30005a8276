//! Measured execution-time profiles.
//!
//! The paper's scheme consumes, for each high-criticality task, the empirical
//! mean execution time (ACET, Eq. 3), the population standard deviation
//! (Eq. 4) and the statically-analysed pessimistic WCET. An
//! [`ExecutionProfile`] bundles exactly those three numbers, all in
//! nanoseconds (the workspace convention is a 1 GHz platform, so one cycle
//! equals one nanosecond).

use crate::TaskError;
use mc_stats::summary::Summary;
use serde::{Deserialize, Serialize};

/// The execution-time statistics of a task, in nanoseconds.
///
/// # Example
///
/// ```
/// use mc_task::profile::ExecutionProfile;
///
/// # fn main() -> Result<(), mc_task::TaskError> {
/// let p = ExecutionProfile::new(1_000.0, 100.0, 5_000.0)?;
/// // Optimistic WCET candidate at n = 3 (paper Eq. 6):
/// assert_eq!(p.level(3.0), 1_300.0);
/// // Largest n that still respects C_LO ≤ WCET_pes (paper Eq. 9):
/// assert_eq!(p.max_factor(), 40.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecutionProfile {
    acet: f64,
    sigma: f64,
    wcet_pes: f64,
    /// Fitted three-parameter Weibull execution-time law, when the profile
    /// came from a calibrated (BCET, ACET, WCET) triple rather than raw
    /// measurements. `None` (serialized as `null`) for the paper's Table I
    /// profiles; `serde(default)` keeps pre-automotive JSON loading.
    #[serde(default)]
    weibull: Option<WeibullFit>,
}

/// Parameters of a fitted three-parameter (shifted) Weibull execution-time
/// distribution, in nanoseconds: `X = location + scale · W(shape)`.
///
/// Carried by [`ExecutionProfile`] for the automotive workload family so
/// the simulator's profile-driven execution model can draw from the
/// heavy-tailed fitted law instead of a normal approximation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WeibullFit {
    /// Location (the task's BCET) in nanoseconds; `≥ 0`.
    pub location: f64,
    /// Weibull shape parameter `k > 0` (`k < 1` is heavy-tailed).
    pub shape: f64,
    /// Weibull scale parameter `λ > 0`, in nanoseconds.
    pub scale: f64,
}

impl WeibullFit {
    fn validate(&self) -> Result<(), TaskError> {
        let finite = self.location.is_finite() && self.shape.is_finite() && self.scale.is_finite();
        if !finite || self.location < 0.0 || self.shape <= 0.0 || self.scale <= 0.0 {
            return Err(TaskError::InvalidProfile {
                reason: "weibull fit requires location >= 0, shape > 0, scale > 0, all finite",
            });
        }
        Ok(())
    }

    /// Inverse CDF: the execution time at cumulative probability `p`,
    /// `location + scale · (−ln(1−p))^{1/shape}` — the zero-dependency
    /// sampling transform used by the simulator (`p` uniform in `(0, 1)`).
    pub fn quantile(&self, p: f64) -> f64 {
        self.location + self.scale * (-(1.0 - p).ln()).powf(1.0 / self.shape)
    }
}

impl ExecutionProfile {
    /// Creates a profile from an average-case execution time `acet`, a
    /// standard deviation `sigma` and a pessimistic WCET `wcet_pes`.
    ///
    /// # Errors
    ///
    /// Returns [`TaskError::InvalidProfile`] unless
    /// `0 < acet ≤ wcet_pes`, `sigma ≥ 0`, and all values are finite.
    pub fn new(acet: f64, sigma: f64, wcet_pes: f64) -> Result<Self, TaskError> {
        if !acet.is_finite() || !sigma.is_finite() || !wcet_pes.is_finite() {
            return Err(TaskError::InvalidProfile {
                reason: "profile values must be finite",
            });
        }
        if acet <= 0.0 {
            return Err(TaskError::InvalidProfile {
                reason: "acet must be strictly positive",
            });
        }
        if sigma < 0.0 {
            return Err(TaskError::InvalidProfile {
                reason: "sigma must be non-negative",
            });
        }
        if wcet_pes < acet {
            return Err(TaskError::InvalidProfile {
                reason: "wcet_pes must be at least acet",
            });
        }
        Ok(ExecutionProfile {
            acet,
            sigma,
            wcet_pes,
            weibull: None,
        })
    }

    /// Attaches a fitted Weibull execution-time law to the profile. The
    /// fit's location (BCET) must not exceed the ACET, and the fit is
    /// otherwise validated for positivity/finiteness.
    ///
    /// # Errors
    ///
    /// Returns [`TaskError::InvalidProfile`] for non-finite or
    /// non-positive parameters, or `location > acet`.
    pub fn with_weibull(mut self, fit: WeibullFit) -> Result<Self, TaskError> {
        fit.validate()?;
        if fit.location > self.acet {
            return Err(TaskError::InvalidProfile {
                reason: "weibull location (BCET) must not exceed acet",
            });
        }
        self.weibull = Some(fit);
        Ok(self)
    }

    /// Re-checks what [`ExecutionProfile::new`] and
    /// [`ExecutionProfile::with_weibull`] enforce, for a profile that
    /// arrived by deserialisation rather than through them.
    pub(crate) fn validate(&self) -> Result<(), TaskError> {
        let checked = ExecutionProfile::new(self.acet, self.sigma, self.wcet_pes)?;
        match self.weibull {
            Some(fit) => checked.with_weibull(fit).map(drop),
            None => Ok(()),
        }
    }

    /// The fitted Weibull execution-time law, if the profile carries one.
    pub fn weibull(&self) -> Option<&WeibullFit> {
        self.weibull.as_ref()
    }

    /// Builds a profile from a measured [`Summary`] and a pessimistic WCET
    /// obtained from static analysis.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ExecutionProfile::new`].
    pub fn from_summary(summary: &Summary, wcet_pes: f64) -> Result<Self, TaskError> {
        ExecutionProfile::new(summary.mean(), summary.std_dev(), wcet_pes)
    }

    /// Average-case execution time in nanoseconds.
    pub fn acet(&self) -> f64 {
        self.acet
    }

    /// Population standard deviation of the execution time in nanoseconds.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Pessimistic (HI-mode) WCET in nanoseconds.
    pub fn wcet_pes(&self) -> f64 {
        self.wcet_pes
    }

    /// The candidate optimistic WCET `ACET + n·σ` (paper Eq. 6).
    pub fn level(&self, n: f64) -> f64 {
        self.acet + n * self.sigma
    }

    /// The largest Chebyshev factor `n` that keeps the optimistic WCET at or
    /// below the pessimistic one (paper Eq. 9): `(WCET_pes − ACET)/σ`.
    ///
    /// Returns `f64::INFINITY` when `sigma` is zero (a constant-time task
    /// never violates Eq. 9).
    pub fn max_factor(&self) -> f64 {
        if self.sigma == 0.0 {
            f64::INFINITY
        } else {
            (self.wcet_pes - self.acet) / self.sigma
        }
    }

    /// Ratio of pessimistic WCET to ACET — the "gap" the paper's motivation
    /// section highlights (8.1× to 59× for qsort).
    pub fn wcet_ratio(&self) -> f64 {
        self.wcet_pes / self.acet
    }

    /// Clamps a candidate factor into `[0, max_factor]` so that Eq. 9 holds.
    pub fn clamp_factor(&self, n: f64) -> f64 {
        n.clamp(0.0, self.max_factor())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_domain() {
        assert!(ExecutionProfile::new(0.0, 1.0, 10.0).is_err());
        assert!(ExecutionProfile::new(-1.0, 1.0, 10.0).is_err());
        assert!(ExecutionProfile::new(5.0, -0.1, 10.0).is_err());
        assert!(ExecutionProfile::new(5.0, 1.0, 4.0).is_err());
        assert!(ExecutionProfile::new(f64::NAN, 1.0, 10.0).is_err());
        assert!(ExecutionProfile::new(5.0, 1.0, f64::INFINITY).is_err());
        assert!(ExecutionProfile::new(5.0, 0.0, 5.0).is_ok());
    }

    #[test]
    fn level_matches_eq6() {
        let p = ExecutionProfile::new(100.0, 10.0, 500.0).unwrap();
        assert_eq!(p.level(0.0), 100.0);
        assert_eq!(p.level(2.5), 125.0);
    }

    #[test]
    fn max_factor_saturates_eq9() {
        let p = ExecutionProfile::new(100.0, 10.0, 500.0).unwrap();
        assert_eq!(p.max_factor(), 40.0);
        // At the max factor the level equals the pessimistic WCET.
        assert!((p.level(p.max_factor()) - 500.0).abs() < 1e-9);
    }

    #[test]
    fn zero_sigma_gives_infinite_max_factor() {
        let p = ExecutionProfile::new(100.0, 0.0, 500.0).unwrap();
        assert_eq!(p.max_factor(), f64::INFINITY);
        assert_eq!(p.level(1e9), 100.0);
    }

    #[test]
    fn clamp_factor_respects_bounds() {
        let p = ExecutionProfile::new(100.0, 10.0, 200.0).unwrap();
        assert_eq!(p.clamp_factor(-5.0), 0.0);
        assert_eq!(p.clamp_factor(3.0), 3.0);
        assert_eq!(p.clamp_factor(100.0), 10.0);
    }

    #[test]
    fn from_summary_uses_population_sigma() {
        let s = mc_stats::summary::Summary::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
            .unwrap();
        let p = ExecutionProfile::from_summary(&s, 20.0).unwrap();
        assert_eq!(p.acet(), 5.0);
        assert_eq!(p.sigma(), 2.0);
        assert_eq!(p.wcet_pes(), 20.0);
    }

    #[test]
    fn weibull_fit_attachment_validates_and_round_trips() {
        let p = ExecutionProfile::new(1_000.0, 300.0, 30_000.0).unwrap();
        assert!(p.weibull().is_none());
        // Pre-automotive JSON has no `weibull` key; `serde(default)` must
        // keep it loading, and a fresh round trip must be stable.
        let legacy = r#"{"acet":1000.0,"sigma":300.0,"wcet_pes":30000.0}"#;
        let back: ExecutionProfile = serde_json::from_str(legacy).unwrap();
        assert_eq!(back, p);
        let round: ExecutionProfile =
            serde_json::from_str(&serde_json::to_string(&p).unwrap()).unwrap();
        assert_eq!(round, p);

        let fit = WeibullFit {
            location: 190.0,
            shape: 0.7,
            scale: 2_000.0,
        };
        let pw = p.with_weibull(fit).unwrap();
        assert_eq!(pw.weibull(), Some(&fit));
        let json = serde_json::to_string(&pw).unwrap();
        let back: ExecutionProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, pw);

        let bad = [
            WeibullFit {
                location: -1.0,
                ..fit
            },
            WeibullFit { shape: 0.0, ..fit },
            WeibullFit {
                scale: f64::NAN,
                ..fit
            },
            WeibullFit {
                location: 2_000.0,
                ..fit
            }, // above ACET
        ];
        for b in bad {
            assert!(p.with_weibull(b).is_err(), "{b:?} should be rejected");
        }
    }

    #[test]
    fn validate_rechecks_the_constructor_invariants() {
        let fit = WeibullFit {
            location: 190.0,
            shape: 0.7,
            scale: 2_000.0,
        };
        let good = ExecutionProfile::new(1_000.0, 300.0, 30_000.0)
            .unwrap()
            .with_weibull(fit)
            .unwrap();
        assert!(good.validate().is_ok());
        let bad = [
            ExecutionProfile {
                sigma: -300.0,
                ..good
            },
            ExecutionProfile {
                acet: f64::NAN,
                ..good
            },
            ExecutionProfile {
                acet: 40_000.0,
                ..good
            },
            ExecutionProfile {
                weibull: Some(WeibullFit { shape: 0.0, ..fit }),
                ..good
            },
            ExecutionProfile {
                weibull: Some(WeibullFit { shape: -0.7, ..fit }),
                ..good
            },
        ];
        for p in bad {
            assert!(
                matches!(p.validate(), Err(TaskError::InvalidProfile { .. })),
                "{p:?} should be rejected"
            );
        }
    }

    #[test]
    fn weibull_quantile_is_monotone_and_anchored() {
        let fit = WeibullFit {
            location: 100.0,
            shape: 2.0,
            scale: 50.0,
        };
        assert!((fit.quantile(0.0) - 100.0).abs() < 1e-12);
        // Median of a k=2 Weibull: location + scale * ln(2)^(1/2).
        let med = 100.0 + 50.0 * std::f64::consts::LN_2.sqrt();
        assert!((fit.quantile(0.5) - med).abs() < 1e-9);
        let mut last = f64::NEG_INFINITY;
        for i in 0..100 {
            let q = fit.quantile(i as f64 / 100.0);
            assert!(q >= last);
            last = q;
        }
    }

    #[test]
    fn wcet_ratio_reports_the_gap() {
        let p = ExecutionProfile::new(230.0, 39.0, 1900.0).unwrap(); // qsort-10 (Table I)
        assert!((p.wcet_ratio() - 8.26).abs() < 0.01);
    }

    mod properties {
        use super::*;
        use mc_fault::{assert_prop, PropConfig};

        #[test]
        fn level_is_monotone_in_n() {
            assert_prop(
                &PropConfig::named("level_is_monotone_in_n"),
                |rng| (rng.f64(), rng.f64(), rng.f64(), rng.f64()),
                |&(u_acet, u_sigma, u_n1, u_dn)| {
                    let acet = 1.0 + (1e6 - 1.0) * u_acet;
                    let sigma = 1e5 * u_sigma;
                    let (n1, dn) = (100.0 * u_n1, 100.0 * u_dn);
                    let p = ExecutionProfile::new(acet, sigma, acet * 100.0 + 1e7).unwrap();
                    assert!(p.level(n1 + dn) >= p.level(n1));
                    Ok(())
                },
            );
        }

        #[test]
        fn clamped_level_never_exceeds_wcet_pes() {
            assert_prop(
                &PropConfig::named("clamped_level_never_exceeds_wcet_pes"),
                |rng| (rng.f64(), rng.f64(), rng.f64(), rng.f64()),
                |&(u_acet, u_sigma, u_gap, u_n)| {
                    let acet = 1.0 + (1e6 - 1.0) * u_acet;
                    let sigma = 0.001 + (1e5 - 0.001) * u_sigma;
                    let gap = 1e6 * u_gap;
                    let n = -10.0 + (1e4 + 10.0) * u_n;
                    let p = ExecutionProfile::new(acet, sigma, acet + gap).unwrap();
                    let level = p.level(p.clamp_factor(n));
                    assert!(level <= p.wcet_pes() + 1e-6);
                    assert!(level >= p.acet() - 1e-9);
                    Ok(())
                },
            );
        }
    }
}
