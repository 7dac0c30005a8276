//! Sampling distributions for execution-time modelling.
//!
//! The paper measures each benchmark's execution-time distribution on an ARM
//! simulator (MEET). This workspace replaces those measurements with
//! parameterised distribution models ([`Dist`]) whose moments are calibrated
//! to the paper's published (ACET, σ, WCET_pes) triples — see
//! `mc-exec::benchmarks`. Because Chebyshev's bound is distribution-free,
//! *any* model with the right first two moments exercises the same analysis;
//! the distribution family only affects how far below the bound the measured
//! overrun rate falls (paper Table II).
//!
//! All sampling is driven by a caller-supplied [`rand::Rng`], so every
//! experiment in the workspace is reproducible from a `u64` seed.
//!
//! # Example
//!
//! ```
//! use mc_stats::dist::Dist;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), mc_stats::StatsError> {
//! let d = Dist::normal(100.0, 15.0)?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let x = d.sample(&mut rng);
//! assert!(x.is_finite());
//! assert_eq!(d.mean(), Some(100.0));
//! # Ok(())
//! # }
//! ```

use crate::{ensure_finite, ensure_positive, Result, StatsError};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Euler–Mascheroni constant, used by the Gumbel moment formulas.
pub const EULER_GAMMA: f64 = 0.577_215_664_901_532_9;

/// Exceedance probability [`Dist::weibull_from_triple`] assigns to the
/// pessimistic WCET: the fitted (untruncated) distribution places 10⁻⁴ of
/// its mass above the WCET, so truncating there clips a negligible sliver
/// while keeping the first two moments essentially intact.
pub const WEIBULL_TRIPLE_TAIL: f64 = 1e-4;

/// A weighted component of a [`Dist::Mixture`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Component {
    /// Non-negative mixture weight (weights are normalised on construction).
    pub weight: f64,
    /// The component distribution.
    pub dist: Dist,
}

/// A univariate sampling distribution.
///
/// Construct via the checked constructors ([`Dist::normal`],
/// [`Dist::gumbel_from_moments`], …) rather than the enum variants directly;
/// the constructors validate parameters once so that sampling never fails.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Dist {
    /// Continuous uniform on `[low, high)`.
    Uniform {
        /// Inclusive lower bound.
        low: f64,
        /// Exclusive upper bound (must exceed `low`).
        high: f64,
    },
    /// Gaussian with the given mean and standard deviation.
    Normal {
        /// Mean µ.
        mean: f64,
        /// Standard deviation σ > 0.
        std_dev: f64,
    },
    /// Log-normal: `exp(N(mu, sigma²))`.
    LogNormal {
        /// Mean of the underlying normal.
        mu: f64,
        /// Standard deviation of the underlying normal (> 0).
        sigma: f64,
    },
    /// Gumbel (extreme-value type I, maximum form) — right-skewed, the
    /// classic model for measured worst-case execution-time tails.
    Gumbel {
        /// Location parameter.
        location: f64,
        /// Scale parameter β > 0.
        scale: f64,
    },
    /// Gumbel minimum form — left-skewed; models tasks whose execution time
    /// hugs a hot-path mode with a short upper tail.
    GumbelMin {
        /// Location parameter.
        location: f64,
        /// Scale parameter β > 0.
        scale: f64,
    },
    /// Exponential with the given rate λ.
    Exponential {
        /// Rate λ > 0.
        rate: f64,
    },
    /// Weibull with shape `k` and scale `lambda`.
    Weibull {
        /// Shape k > 0.
        shape: f64,
        /// Scale λ > 0.
        scale: f64,
    },
    /// Three-parameter (shifted) Weibull: `location + Weibull(shape, scale)`.
    ///
    /// The automotive workload family fits this to per-task
    /// (BCET, ACET, WCET) triples — see [`Dist::weibull_from_triple`] —
    /// with the location pinned at the BCET so no sample undercuts the
    /// best-case execution time.
    Weibull3 {
        /// Location (lower bound of the support).
        location: f64,
        /// Shape k > 0.
        shape: f64,
        /// Scale λ > 0.
        scale: f64,
    },
    /// Triangular on `[low, high]` with the given mode.
    Triangular {
        /// Lower bound.
        low: f64,
        /// Mode (`low ≤ mode ≤ high`).
        mode: f64,
        /// Upper bound (> `low`).
        high: f64,
    },
    /// Finite mixture of weighted components.
    Mixture(Vec<Component>),
    /// `inner` conditioned on being at most `upper` (rejection sampling).
    Truncated {
        /// The distribution being truncated.
        inner: Box<Dist>,
        /// Inclusive upper truncation point.
        upper: f64,
    },
}

impl Dist {
    /// Uniform distribution on `[low, high)`.
    ///
    /// # Errors
    ///
    /// Returns an error when bounds are non-finite or `high ≤ low`.
    pub fn uniform(low: f64, high: f64) -> Result<Self> {
        ensure_finite("low", low)?;
        ensure_finite("high", high)?;
        if high <= low {
            return Err(StatsError::InvalidParameter {
                what: "high",
                expected: "greater than low",
                value: high,
            });
        }
        Ok(Dist::Uniform { low, high })
    }

    /// Normal distribution with mean `mean` and standard deviation `std_dev`.
    ///
    /// # Errors
    ///
    /// Returns an error when `mean` is non-finite or `std_dev ≤ 0`.
    pub fn normal(mean: f64, std_dev: f64) -> Result<Self> {
        ensure_finite("mean", mean)?;
        ensure_positive("std_dev", std_dev)?;
        Ok(Dist::Normal { mean, std_dev })
    }

    /// Log-normal distribution parameterised by the underlying normal.
    ///
    /// # Errors
    ///
    /// Returns an error when `mu` is non-finite or `sigma ≤ 0`.
    pub fn log_normal(mu: f64, sigma: f64) -> Result<Self> {
        ensure_finite("mu", mu)?;
        ensure_positive("sigma", sigma)?;
        Ok(Dist::LogNormal { mu, sigma })
    }

    /// Log-normal with the given *distribution* mean and standard deviation
    /// (solves for the underlying normal's parameters).
    ///
    /// # Errors
    ///
    /// Returns an error when `mean ≤ 0` or `std_dev ≤ 0`.
    pub fn log_normal_from_moments(mean: f64, std_dev: f64) -> Result<Self> {
        ensure_positive("mean", mean)?;
        ensure_positive("std_dev", std_dev)?;
        let cv2 = (std_dev / mean).powi(2);
        let sigma2 = (1.0 + cv2).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        Dist::log_normal(mu, sigma2.sqrt())
    }

    /// Gumbel (maximum) distribution.
    ///
    /// # Errors
    ///
    /// Returns an error when `location` is non-finite or `scale ≤ 0`.
    pub fn gumbel(location: f64, scale: f64) -> Result<Self> {
        ensure_finite("location", location)?;
        ensure_positive("scale", scale)?;
        Ok(Dist::Gumbel { location, scale })
    }

    /// Gumbel (maximum) with the given mean and standard deviation.
    ///
    /// # Errors
    ///
    /// Returns an error when `mean` is non-finite or `std_dev ≤ 0`.
    pub fn gumbel_from_moments(mean: f64, std_dev: f64) -> Result<Self> {
        ensure_finite("mean", mean)?;
        ensure_positive("std_dev", std_dev)?;
        let scale = std_dev * 6.0_f64.sqrt() / std::f64::consts::PI;
        let location = mean - EULER_GAMMA * scale;
        Dist::gumbel(location, scale)
    }

    /// Gumbel (minimum) distribution — the mirror image of [`Dist::gumbel`].
    ///
    /// # Errors
    ///
    /// Returns an error when `location` is non-finite or `scale ≤ 0`.
    pub fn gumbel_min(location: f64, scale: f64) -> Result<Self> {
        ensure_finite("location", location)?;
        ensure_positive("scale", scale)?;
        Ok(Dist::GumbelMin { location, scale })
    }

    /// Gumbel (minimum) with the given mean and standard deviation.
    ///
    /// # Errors
    ///
    /// Returns an error when `mean` is non-finite or `std_dev ≤ 0`.
    pub fn gumbel_min_from_moments(mean: f64, std_dev: f64) -> Result<Self> {
        ensure_finite("mean", mean)?;
        ensure_positive("std_dev", std_dev)?;
        let scale = std_dev * 6.0_f64.sqrt() / std::f64::consts::PI;
        let location = mean + EULER_GAMMA * scale;
        Dist::gumbel_min(location, scale)
    }

    /// Exponential distribution with rate `rate`.
    ///
    /// # Errors
    ///
    /// Returns an error when `rate ≤ 0`.
    pub fn exponential(rate: f64) -> Result<Self> {
        ensure_positive("rate", rate)?;
        Ok(Dist::Exponential { rate })
    }

    /// Weibull distribution with shape `shape` and scale `scale`.
    ///
    /// # Errors
    ///
    /// Returns an error when either parameter is not strictly positive.
    pub fn weibull(shape: f64, scale: f64) -> Result<Self> {
        ensure_positive("shape", shape)?;
        ensure_positive("scale", scale)?;
        Ok(Dist::Weibull { shape, scale })
    }

    /// Shifted Weibull distribution `location + Weibull(shape, scale)`.
    ///
    /// # Errors
    ///
    /// Returns an error when `location` is non-finite or either of
    /// `shape`/`scale` is not strictly positive.
    pub fn weibull3(location: f64, shape: f64, scale: f64) -> Result<Self> {
        ensure_finite("location", location)?;
        ensure_positive("shape", shape)?;
        ensure_positive("scale", scale)?;
        Ok(Dist::Weibull3 {
            location,
            shape,
            scale,
        })
    }

    /// Fits a shifted Weibull to a `(BCET, ACET, WCET)` execution-time
    /// triple: the location is pinned at the BCET, the mean at the ACET,
    /// and the survival at the WCET at [`WEIBULL_TRIPLE_TAIL`] — the
    /// standard three-point calibration the automotive benchmark
    /// literature uses for heavy-tailed runnable execution times.
    ///
    /// With `m = ACET − BCET`, `t = WCET − BCET` and `q = ln(1/p_tail)`,
    /// the shape `k = 1/x` solves `Γ(1+x)·q⁻ˣ = m/t` on the initial
    /// decreasing branch of that unimodal function (bracketing +
    /// bisection; no external dependencies), and the scale follows as
    /// `λ = t·q⁻ˣ`. The fitted mean is then exactly
    /// `BCET + λ·Γ(1+x) = ACET`.
    ///
    /// # Errors
    ///
    /// Returns an error when the triple is not strictly ordered
    /// (`0 ≤ BCET < ACET < WCET`), any value is non-finite, or the mean
    /// sits so close to the BCET relative to the WCET span
    /// (`m/t` below ~7·10⁻⁴) that no Weibull shape can realise it.
    pub fn weibull_from_triple(bcet: f64, acet: f64, wcet: f64) -> Result<Self> {
        ensure_finite("bcet", bcet)?;
        ensure_finite("acet", acet)?;
        ensure_finite("wcet", wcet)?;
        if bcet < 0.0 {
            return Err(StatsError::InvalidParameter {
                what: "bcet",
                expected: "non-negative",
                value: bcet,
            });
        }
        if acet <= bcet {
            return Err(StatsError::InvalidParameter {
                what: "acet",
                expected: "strictly above bcet",
                value: acet,
            });
        }
        if wcet <= acet {
            return Err(StatsError::InvalidParameter {
                what: "wcet",
                expected: "strictly above acet",
                value: wcet,
            });
        }
        let span = wcet - bcet;
        let r = (acet - bcet) / span;
        let ln_q = (-WEIBULL_TRIPLE_TAIL.ln()).ln();
        let h = |x: f64| gamma(1.0 + x) * (-x * ln_q).exp();
        // h(0) = 1 and h decreases to a single minimum (near x ≈ 8 for
        // p_tail = 10⁻⁴) before diverging; bracket the crossing h(x) = r
        // on the decreasing branch by doubling, then bisect.
        let mut lo = 0.0;
        let mut hi = 1e-3;
        let mut h_hi = h(hi);
        while h_hi > r {
            let next = hi * 2.0;
            let h_next = h(next);
            if h_next >= h_hi {
                // Passed the minimum without reaching r: no shape fits.
                return Err(StatsError::InvalidParameter {
                    what: "acet",
                    expected: "far enough above bcet for a Weibull fit",
                    value: r,
                });
            }
            lo = hi;
            hi = next;
            h_hi = h_next;
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if h(mid) > r {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo <= 1e-15 * (1.0 + hi) {
                break;
            }
        }
        let x = (0.5 * (lo + hi)).max(1e-12);
        Dist::weibull3(bcet, 1.0 / x, span * (-x * ln_q).exp())
    }

    /// Triangular distribution on `[low, high]` with the given `mode`.
    ///
    /// # Errors
    ///
    /// Returns an error when `high ≤ low` or `mode` lies outside `[low, high]`.
    pub fn triangular(low: f64, mode: f64, high: f64) -> Result<Self> {
        ensure_finite("low", low)?;
        ensure_finite("mode", mode)?;
        ensure_finite("high", high)?;
        if high <= low {
            return Err(StatsError::InvalidParameter {
                what: "high",
                expected: "greater than low",
                value: high,
            });
        }
        if mode < low || mode > high {
            return Err(StatsError::InvalidParameter {
                what: "mode",
                expected: "within [low, high]",
                value: mode,
            });
        }
        Ok(Dist::Triangular { low, mode, high })
    }

    /// Finite mixture; weights are normalised to sum to one.
    ///
    /// # Errors
    ///
    /// Returns an error when `components` is empty, any weight is negative
    /// or non-finite, or all weights are zero.
    pub fn mixture<I>(components: I) -> Result<Self>
    where
        I: IntoIterator<Item = (f64, Dist)>,
    {
        let mut parts: Vec<Component> = Vec::new();
        let mut total = 0.0;
        for (weight, dist) in components {
            ensure_finite("mixture weight", weight)?;
            if weight < 0.0 {
                return Err(StatsError::InvalidParameter {
                    what: "mixture weight",
                    expected: "non-negative",
                    value: weight,
                });
            }
            total += weight;
            parts.push(Component { weight, dist });
        }
        if parts.is_empty() {
            return Err(StatsError::EmptySamples);
        }
        if total <= 0.0 {
            return Err(StatsError::InvalidParameter {
                what: "mixture weight sum",
                expected: "strictly positive",
                value: total,
            });
        }
        for p in &mut parts {
            p.weight /= total;
        }
        Ok(Dist::Mixture(parts))
    }

    /// Truncates this distribution above at `upper` (samples are conditioned
    /// on `X ≤ upper`); used to clamp execution times at the pessimistic
    /// WCET, which is by definition never exceeded.
    ///
    /// # Errors
    ///
    /// Returns an error when `upper` is non-finite or when the truncation
    /// point lies below essentially all of the distribution's mass
    /// (survival at `upper` above 99.9 %), which would make rejection
    /// sampling degenerate.
    pub fn truncated_above(self, upper: f64) -> Result<Self> {
        ensure_finite("upper", upper)?;
        if self.survival(upper) > 0.999 {
            return Err(StatsError::InvalidParameter {
                what: "upper",
                expected: "above at least 0.1 % of the distribution's mass",
                value: upper,
            });
        }
        Ok(Dist::Truncated {
            inner: Box::new(self),
            upper,
        })
    }

    /// Draws one sample.
    ///
    /// Works with any [`rand::Rng`], including `&mut dyn RngCore` via the
    /// blanket impl, so callers can keep a single seeded generator per
    /// experiment.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match self {
            Dist::Uniform { low, high } => low + (high - low) * rng.random::<f64>(),
            Dist::Normal { mean, std_dev } => mean + std_dev * standard_normal(rng),
            Dist::LogNormal { mu, sigma } => (mu + sigma * standard_normal(rng)).exp(),
            Dist::Gumbel { location, scale } => {
                let u = open01(rng);
                location - scale * (-u.ln()).ln()
            }
            Dist::GumbelMin { location, scale } => {
                let u = open01(rng);
                location + scale * (-(1.0 - u).ln()).ln()
            }
            Dist::Exponential { rate } => -open01(rng).ln() / rate,
            Dist::Weibull { shape, scale } => scale * (-open01(rng).ln()).powf(1.0 / shape),
            Dist::Weibull3 {
                location,
                shape,
                scale,
            } => location + scale * (-open01(rng).ln()).powf(1.0 / shape),
            Dist::Triangular { low, mode, high } => {
                let u = rng.random::<f64>();
                let cut = (mode - low) / (high - low);
                if u < cut {
                    low + ((high - low) * (mode - low) * u).sqrt()
                } else {
                    high - ((high - low) * (high - mode) * (1.0 - u)).sqrt()
                }
            }
            Dist::Mixture(parts) => {
                let mut pick = rng.random::<f64>();
                for part in parts {
                    if pick < part.weight {
                        return part.dist.sample(rng);
                    }
                    pick -= part.weight;
                }
                // Floating-point slack: fall back to the last component.
                parts
                    .last()
                    .expect("mixture is non-empty by construction")
                    .dist
                    .sample(rng)
            }
            Dist::Truncated { inner, upper } => {
                // Construction guarantees ≥ 0.1 % acceptance probability, so
                // 10 000 attempts fail with probability < 10^-43; clamp as a
                // deterministic last resort.
                for _ in 0..10_000 {
                    let x = inner.sample(rng);
                    if x <= *upper {
                        return x;
                    }
                }
                *upper
            }
        }
    }

    /// Fills `out` with independent samples.
    pub fn sample_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        for slot in out {
            *slot = self.sample(rng);
        }
    }

    /// Draws `count` independent samples into a fresh vector.
    pub fn sample_vec<R: Rng + ?Sized>(&self, rng: &mut R, count: usize) -> Vec<f64> {
        let mut v = vec![0.0; count];
        self.sample_into(rng, &mut v);
        v
    }

    /// Analytic mean, when available.
    ///
    /// Returns `None` for truncated distributions (no closed form is exposed)
    /// and for mixtures containing such components.
    pub fn mean(&self) -> Option<f64> {
        match self {
            Dist::Uniform { low, high } => Some((low + high) / 2.0),
            Dist::Normal { mean, .. } => Some(*mean),
            Dist::LogNormal { mu, sigma } => Some((mu + sigma * sigma / 2.0).exp()),
            Dist::Gumbel { location, scale } => Some(location + EULER_GAMMA * scale),
            Dist::GumbelMin { location, scale } => Some(location - EULER_GAMMA * scale),
            Dist::Exponential { rate } => Some(1.0 / rate),
            Dist::Weibull { shape, scale } => Some(scale * gamma(1.0 + 1.0 / shape)),
            Dist::Weibull3 {
                location,
                shape,
                scale,
            } => Some(location + scale * gamma(1.0 + 1.0 / shape)),
            Dist::Triangular { low, mode, high } => Some((low + mode + high) / 3.0),
            Dist::Mixture(parts) => {
                let mut m = 0.0;
                for p in parts {
                    m += p.weight * p.dist.mean()?;
                }
                Some(m)
            }
            Dist::Truncated { .. } => None,
        }
    }

    /// Analytic variance, when available (see [`Dist::mean`]).
    pub fn variance(&self) -> Option<f64> {
        match self {
            Dist::Uniform { low, high } => Some((high - low).powi(2) / 12.0),
            Dist::Normal { std_dev, .. } => Some(std_dev * std_dev),
            Dist::LogNormal { mu, sigma } => {
                let s2 = sigma * sigma;
                Some((s2.exp() - 1.0) * (2.0 * mu + s2).exp())
            }
            Dist::Gumbel { scale, .. } | Dist::GumbelMin { scale, .. } => {
                Some(std::f64::consts::PI.powi(2) / 6.0 * scale * scale)
            }
            Dist::Exponential { rate } => Some(1.0 / (rate * rate)),
            Dist::Weibull { shape, scale } | Dist::Weibull3 { shape, scale, .. } => {
                let g1 = gamma(1.0 + 1.0 / shape);
                let g2 = gamma(1.0 + 2.0 / shape);
                Some(scale * scale * (g2 - g1 * g1))
            }
            Dist::Triangular { low, mode, high } => Some(
                (low * low + mode * mode + high * high - low * mode - low * high - mode * high)
                    / 18.0,
            ),
            Dist::Mixture(parts) => {
                // Law of total variance: Var = Σw(σᵢ² + µᵢ²) − µ².
                let mean = self.mean()?;
                let mut second = 0.0;
                for p in parts {
                    let m = p.dist.mean()?;
                    let v = p.dist.variance()?;
                    second += p.weight * (v + m * m);
                }
                Some(second - mean * mean)
            }
            Dist::Truncated { .. } => None,
        }
    }

    /// Analytic standard deviation, when available.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Survival function `P[X > x]`.
    pub fn survival(&self, x: f64) -> f64 {
        match self {
            Dist::Uniform { low, high } => {
                if x < *low {
                    1.0
                } else if x >= *high {
                    0.0
                } else {
                    (high - x) / (high - low)
                }
            }
            Dist::Normal { mean, std_dev } => normal_survival((x - mean) / std_dev),
            Dist::LogNormal { mu, sigma } => {
                if x <= 0.0 {
                    1.0
                } else {
                    normal_survival((x.ln() - mu) / sigma)
                }
            }
            Dist::Gumbel { location, scale } => 1.0 - (-(-(x - location) / scale).exp()).exp(),
            Dist::GumbelMin { location, scale } => (-((x - location) / scale).exp()).exp(),
            Dist::Exponential { rate } => {
                if x <= 0.0 {
                    1.0
                } else {
                    (-rate * x).exp()
                }
            }
            Dist::Weibull { shape, scale } => {
                if x <= 0.0 {
                    1.0
                } else {
                    (-(x / scale).powf(*shape)).exp()
                }
            }
            Dist::Weibull3 {
                location,
                shape,
                scale,
            } => {
                if x <= *location {
                    1.0
                } else {
                    (-((x - location) / scale).powf(*shape)).exp()
                }
            }
            Dist::Triangular { low, mode, high } => {
                if x <= *low {
                    1.0
                } else if x >= *high {
                    0.0
                } else if x <= *mode {
                    1.0 - (x - low).powi(2) / ((high - low) * (mode - low))
                } else {
                    (high - x).powi(2) / ((high - low) * (high - mode))
                }
            }
            Dist::Mixture(parts) => parts.iter().map(|p| p.weight * p.dist.survival(x)).sum(),
            Dist::Truncated { inner, upper } => {
                if x >= *upper {
                    return 0.0;
                }
                let tail_cut = inner.survival(*upper);
                let mass = 1.0 - tail_cut;
                if mass <= 0.0 {
                    return 0.0;
                }
                ((inner.survival(x) - tail_cut) / mass).clamp(0.0, 1.0)
            }
        }
    }

    /// Cumulative distribution function `P[X ≤ x]`.
    pub fn cdf(&self, x: f64) -> f64 {
        1.0 - self.survival(x)
    }

    /// The `p`-quantile (inverse CDF), computed by bracketing and
    /// bisection on [`Dist::cdf`] — works for every variant, including
    /// mixtures and truncations. Accuracy is ~1e-9 relative to the
    /// bracket width.
    ///
    /// # Errors
    ///
    /// Returns an error when `p` is outside `(0, 1)`.
    ///
    /// # Example
    ///
    /// ```
    /// use mc_stats::dist::Dist;
    /// # fn main() -> Result<(), mc_stats::StatsError> {
    /// let d = Dist::normal(100.0, 15.0)?;
    /// let median = d.quantile(0.5)?;
    /// assert!((median - 100.0).abs() < 1e-6);
    /// # Ok(())
    /// # }
    /// ```
    pub fn quantile(&self, p: f64) -> Result<f64> {
        ensure_finite("quantile p", p)?;
        if p <= 0.0 || p >= 1.0 {
            return Err(StatsError::InvalidParameter {
                what: "quantile p",
                expected: "in (0, 1)",
                value: p,
            });
        }
        // Bracket: start around the mean (or zero) and expand outward.
        let centre = self.mean().unwrap_or(0.0);
        let spread = self.std_dev().unwrap_or(1.0).max(1e-9);
        let mut lo = centre - spread;
        let mut hi = centre + spread;
        let mut width = spread;
        for _ in 0..128 {
            if self.cdf(lo) <= p {
                break;
            }
            width *= 2.0;
            lo -= width;
        }
        let mut width = spread;
        for _ in 0..128 {
            if self.cdf(hi) >= p {
                break;
            }
            width *= 2.0;
            hi += width;
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
            if (hi - lo).abs() <= 1e-12 * (1.0 + hi.abs()) {
                break;
            }
        }
        Ok(0.5 * (lo + hi))
    }
}

/// Returns one standard-normal draw (Box–Muller transform).
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1 = open01(rng);
    let u2 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Uniform draw on the open interval (0, 1).
fn open01<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.random();
        if u > 0.0 {
            return u;
        }
    }
}

/// Standard-normal survival function via the Abramowitz–Stegun 7.1.26 erf
/// approximation (absolute error < 1.5 × 10⁻⁷).
pub fn normal_survival(z: f64) -> f64 {
    0.5 * erfc(z / std::f64::consts::SQRT_2)
}

/// Error function approximation (Abramowitz & Stegun 7.1.26).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Complementary error function `1 − erf(x)`.
pub fn erfc(x: f64) -> f64 {
    1.0 - erf(x)
}

/// Gamma function via the Lanczos approximation (g = 7, n = 9), accurate to
/// ~15 significant digits for positive arguments.
pub fn gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    // Published Lanczos coefficients, kept verbatim even where f64 rounds
    // the last digit.
    #[allow(clippy::excessive_precision)]
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma(1.0 - x))
    } else {
        let x = x - 1.0;
        let mut acc = COEF[0];
        for (i, &c) in COEF.iter().enumerate().skip(1) {
            acc += c / (x + i as f64);
        }
        let t = x + G + 0.5;
        (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::Summary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn check_moments(d: &Dist, seed: u64, tol_mean: f64, tol_sd: f64) {
        let mut r = rng(seed);
        let samples = d.sample_vec(&mut r, 200_000);
        let s = Summary::from_samples(&samples).unwrap();
        let mean = d.mean().unwrap();
        let sd = d.std_dev().unwrap();
        assert!(
            (s.mean() - mean).abs() < tol_mean,
            "mean: empirical {} vs analytic {}",
            s.mean(),
            mean
        );
        assert!(
            (s.std_dev() - sd).abs() < tol_sd,
            "std dev: empirical {} vs analytic {}",
            s.std_dev(),
            sd
        );
    }

    #[test]
    fn uniform_moments_match() {
        check_moments(&Dist::uniform(2.0, 10.0).unwrap(), 1, 0.05, 0.05);
    }

    #[test]
    fn normal_moments_match() {
        check_moments(&Dist::normal(50.0, 7.0).unwrap(), 2, 0.1, 0.1);
    }

    #[test]
    fn log_normal_from_moments_round_trips() {
        let d = Dist::log_normal_from_moments(100.0, 25.0).unwrap();
        assert!((d.mean().unwrap() - 100.0).abs() < 1e-9);
        assert!((d.std_dev().unwrap() - 25.0).abs() < 1e-9);
        check_moments(&d, 3, 0.5, 0.5);
    }

    #[test]
    fn gumbel_from_moments_round_trips() {
        let d = Dist::gumbel_from_moments(10.0, 2.0).unwrap();
        assert!((d.mean().unwrap() - 10.0).abs() < 1e-9);
        assert!((d.std_dev().unwrap() - 2.0).abs() < 1e-9);
        check_moments(&d, 4, 0.05, 0.05);
    }

    #[test]
    fn gumbel_min_from_moments_round_trips() {
        let d = Dist::gumbel_min_from_moments(10.0, 2.0).unwrap();
        assert!((d.mean().unwrap() - 10.0).abs() < 1e-9);
        assert!((d.std_dev().unwrap() - 2.0).abs() < 1e-9);
        check_moments(&d, 5, 0.05, 0.05);
    }

    #[test]
    fn gumbel_min_is_left_skewed_and_gumbel_right_skewed() {
        // P[X > µ] > 0.5 for left-skew, < 0.5 for right-skew.
        let max = Dist::gumbel_from_moments(0.0, 1.0).unwrap();
        let min = Dist::gumbel_min_from_moments(0.0, 1.0).unwrap();
        assert!(max.survival(0.0) < 0.5);
        assert!(min.survival(0.0) > 0.5);
    }

    #[test]
    fn exponential_moments_match() {
        check_moments(&Dist::exponential(0.25).unwrap(), 6, 0.05, 0.1);
    }

    #[test]
    fn weibull_moments_match() {
        check_moments(&Dist::weibull(2.0, 3.0).unwrap(), 7, 0.05, 0.05);
    }

    #[test]
    fn weibull3_moments_match_and_respect_location() {
        let d = Dist::weibull3(10.0, 2.0, 3.0).unwrap();
        // Shifting moves the mean but not the variance.
        let base = Dist::weibull(2.0, 3.0).unwrap();
        assert!((d.mean().unwrap() - (10.0 + base.mean().unwrap())).abs() < 1e-12);
        assert!((d.variance().unwrap() - base.variance().unwrap()).abs() < 1e-12);
        check_moments(&d, 20, 0.05, 0.05);
        let mut r = rng(21);
        for _ in 0..10_000 {
            assert!(d.sample(&mut r) >= 10.0);
        }
        assert_eq!(d.survival(9.0), 1.0);
        assert_eq!(d.survival(10.0), 1.0);
        assert!(d.survival(10.1) < 1.0);
    }

    #[test]
    fn weibull_from_triple_hits_all_three_calibration_points() {
        for &(bcet, acet, wcet) in &[
            (100.0, 500.0, 3_000.0),
            (0.0, 1.0, 10.0),
            (5_000.0, 5_400.0, 150_000.0), // heavy tail: mean hugs the BCET
            (10.0, 90.0, 100.0),           // light tail: mean hugs the WCET
        ] {
            let d = Dist::weibull_from_triple(bcet, acet, wcet).unwrap();
            let mean = d.mean().unwrap();
            assert!(
                (mean - acet).abs() < 1e-6 * acet.max(1.0),
                "({bcet},{acet},{wcet}): fitted mean {mean}"
            );
            assert!(
                (d.survival(wcet) - WEIBULL_TRIPLE_TAIL).abs() < 1e-9,
                "({bcet},{acet},{wcet}): survival at WCET {}",
                d.survival(wcet)
            );
            assert_eq!(d.survival(bcet), 1.0);
        }
    }

    #[test]
    fn weibull_from_triple_rejects_degenerate_triples() {
        assert!(Dist::weibull_from_triple(-1.0, 5.0, 10.0).is_err());
        assert!(Dist::weibull_from_triple(5.0, 5.0, 10.0).is_err());
        assert!(Dist::weibull_from_triple(1.0, 10.0, 10.0).is_err());
        assert!(Dist::weibull_from_triple(10.0, 5.0, 20.0).is_err());
        assert!(Dist::weibull_from_triple(f64::NAN, 5.0, 10.0).is_err());
        assert!(Dist::weibull_from_triple(1.0, 5.0, f64::INFINITY).is_err());
        // Mean essentially at the BCET relative to the span: unreachable by
        // any Weibull shape (h's minimum is ~7e-4 for the 1e-4 tail).
        assert!(Dist::weibull_from_triple(0.0, 1.0, 1.0e6).is_err());
    }

    #[test]
    fn weibull_from_triple_truncates_cleanly_at_wcet() {
        let d = Dist::weibull_from_triple(100.0, 400.0, 2_000.0)
            .unwrap()
            .truncated_above(2_000.0)
            .unwrap();
        let mut r = rng(22);
        for _ in 0..20_000 {
            let x = d.sample(&mut r);
            assert!((100.0..=2_000.0).contains(&x), "sample {x}");
        }
    }

    #[test]
    fn triangular_moments_match() {
        check_moments(&Dist::triangular(0.0, 2.0, 10.0).unwrap(), 8, 0.05, 0.05);
    }

    #[test]
    fn mixture_moments_match_law_of_total_variance() {
        let d = Dist::mixture([
            (0.7, Dist::normal(10.0, 1.0).unwrap()),
            (0.3, Dist::normal(20.0, 3.0).unwrap()),
        ])
        .unwrap();
        // Mean = 0.7·10 + 0.3·20 = 13.
        assert!((d.mean().unwrap() - 13.0).abs() < 1e-12);
        // Second moment = 0.7(1+100) + 0.3(9+400) = 70.7 + 122.7 = 193.4.
        assert!((d.variance().unwrap() - (193.4 - 169.0)).abs() < 1e-9);
        check_moments(&d, 9, 0.1, 0.1);
    }

    #[test]
    fn mixture_weights_are_normalised() {
        let d = Dist::mixture([
            (2.0, Dist::normal(0.0, 1.0).unwrap()),
            (2.0, Dist::normal(10.0, 1.0).unwrap()),
        ])
        .unwrap();
        assert!((d.mean().unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn mixture_rejects_bad_weights() {
        assert!(Dist::mixture([]).is_err());
        assert!(Dist::mixture([(-1.0, Dist::normal(0.0, 1.0).unwrap())]).is_err());
        assert!(Dist::mixture([(0.0, Dist::normal(0.0, 1.0).unwrap())]).is_err());
    }

    #[test]
    fn constructors_validate_parameters() {
        assert!(Dist::uniform(1.0, 1.0).is_err());
        assert!(Dist::normal(0.0, 0.0).is_err());
        assert!(Dist::normal(f64::NAN, 1.0).is_err());
        assert!(Dist::log_normal(0.0, -1.0).is_err());
        assert!(Dist::log_normal_from_moments(-5.0, 1.0).is_err());
        assert!(Dist::gumbel(0.0, 0.0).is_err());
        assert!(Dist::exponential(-2.0).is_err());
        assert!(Dist::weibull(0.0, 1.0).is_err());
        assert!(Dist::weibull3(f64::NAN, 1.0, 1.0).is_err());
        assert!(Dist::weibull3(0.0, 0.0, 1.0).is_err());
        assert!(Dist::weibull3(0.0, 1.0, -1.0).is_err());
        assert!(Dist::triangular(0.0, 5.0, 4.0).is_err());
        assert!(Dist::triangular(0.0, -1.0, 4.0).is_err());
    }

    #[test]
    fn truncation_never_exceeds_upper() {
        let d = Dist::normal(100.0, 15.0)
            .unwrap()
            .truncated_above(110.0)
            .unwrap();
        let mut r = rng(10);
        for _ in 0..20_000 {
            assert!(d.sample(&mut r) <= 110.0);
        }
    }

    #[test]
    fn truncation_rejects_degenerate_cut() {
        // Cutting 10σ below the mean leaves essentially no mass.
        let d = Dist::normal(100.0, 1.0).unwrap();
        assert!(d.truncated_above(90.0).is_err());
    }

    #[test]
    fn truncated_survival_is_renormalised() {
        let inner = Dist::uniform(0.0, 10.0).unwrap();
        let d = inner.truncated_above(5.0).unwrap();
        // Conditioned on X ≤ 5, X is uniform on [0, 5): P[X > 2.5] = 0.5.
        assert!((d.survival(2.5) - 0.5).abs() < 1e-12);
        assert_eq!(d.survival(5.0), 0.0);
        assert_eq!(d.survival(7.0), 0.0);
        assert!((d.survival(-1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn survival_matches_empirical_rate_for_normal() {
        let d = Dist::normal(0.0, 1.0).unwrap();
        let mut r = rng(11);
        let samples = d.sample_vec(&mut r, 200_000);
        for z in [0.0, 1.0, 2.0] {
            let empirical =
                samples.iter().filter(|&&x| x > z).count() as f64 / samples.len() as f64;
            assert!(
                (empirical - d.survival(z)).abs() < 0.01,
                "z={z}: empirical {empirical} vs analytic {}",
                d.survival(z)
            );
        }
    }

    #[test]
    fn normal_survival_reference_values() {
        // Φ̄(0) = 0.5, Φ̄(1) ≈ 0.158655, Φ̄(2) ≈ 0.022750, Φ̄(3) ≈ 0.001350.
        assert!((normal_survival(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_survival(1.0) - 0.158_655).abs() < 1e-5);
        assert!((normal_survival(2.0) - 0.022_750).abs() < 1e-5);
        assert!((normal_survival(3.0) - 0.001_350).abs() < 1e-5);
        assert!((normal_survival(-1.0) - 0.841_345).abs() < 1e-5);
    }

    #[test]
    fn gamma_reference_values() {
        assert!((gamma(1.0) - 1.0).abs() < 1e-10);
        assert!((gamma(2.0) - 1.0).abs() < 1e-10);
        assert!((gamma(5.0) - 24.0).abs() < 1e-8);
        assert!((gamma(0.5) - std::f64::consts::PI.sqrt()).abs() < 1e-10);
        assert!((gamma(1.5) - 0.5 * std::f64::consts::PI.sqrt()).abs() < 1e-10);
    }

    #[test]
    fn quantile_inverts_cdf_across_families() {
        let dists = [
            Dist::normal(100.0, 15.0).unwrap(),
            Dist::gumbel_from_moments(50.0, 5.0).unwrap(),
            Dist::log_normal_from_moments(10.0, 3.0).unwrap(),
            Dist::exponential(0.2).unwrap(),
            Dist::uniform(-3.0, 7.0).unwrap(),
            Dist::mixture([
                (0.5, Dist::normal(0.0, 1.0).unwrap()),
                (0.5, Dist::normal(10.0, 2.0).unwrap()),
            ])
            .unwrap(),
            Dist::normal(100.0, 10.0)
                .unwrap()
                .truncated_above(110.0)
                .unwrap(),
        ];
        for d in &dists {
            for p in [0.01, 0.25, 0.5, 0.9, 0.999] {
                let x = d.quantile(p).unwrap();
                assert!(
                    (d.cdf(x) - p).abs() < 1e-6,
                    "{d:?} at p={p}: cdf(q)={}",
                    d.cdf(x)
                );
            }
        }
    }

    #[test]
    fn quantile_known_values() {
        let u = Dist::uniform(0.0, 10.0).unwrap();
        assert!((u.quantile(0.3).unwrap() - 3.0).abs() < 1e-6);
        let n = Dist::normal(0.0, 1.0).unwrap();
        // Φ⁻¹(0.975) ≈ 1.959964 (within the erf approximation's error).
        assert!((n.quantile(0.975).unwrap() - 1.95996).abs() < 1e-3);
    }

    #[test]
    fn quantile_rejects_bad_probability() {
        let d = Dist::normal(0.0, 1.0).unwrap();
        assert!(d.quantile(0.0).is_err());
        assert!(d.quantile(1.0).is_err());
        assert!(d.quantile(-0.5).is_err());
        assert!(d.quantile(f64::NAN).is_err());
    }

    #[test]
    fn sampling_is_deterministic_for_equal_seeds() {
        let d = Dist::gumbel_from_moments(100.0, 10.0).unwrap();
        let a = d.sample_vec(&mut rng(42), 100);
        let b = d.sample_vec(&mut rng(42), 100);
        assert_eq!(a, b);
        let c = d.sample_vec(&mut rng(43), 100);
        assert_ne!(a, c);
    }

    #[test]
    fn serde_round_trip() {
        let d = Dist::mixture([
            (0.5, Dist::normal(1.0, 2.0).unwrap()),
            (
                0.5,
                Dist::gumbel(3.0, 4.0)
                    .unwrap()
                    .truncated_above(50.0)
                    .unwrap(),
            ),
        ])
        .unwrap();
        let json = serde_json::to_string(&d).unwrap();
        let back: Dist = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
    }

    mod properties {
        use super::*;
        use crate::prop_domain::within;
        use mc_fault::{assert_prop, FaultRng, PropConfig};

        /// A family index and three unit draws: the raw form of a [`Dist`].
        type RawDist = (u64, f64, f64, f64);

        fn arb_dist(rng: &mut FaultRng) -> RawDist {
            (rng.below(7), rng.f64(), rng.f64(), rng.f64())
        }

        /// One of seven families, its parameters mapped from the draws.
        fn dist(&(family, a, b, c): &RawDist) -> Dist {
            match family {
                0 => Dist::normal(within(-100.0, 100.0, a), within(0.1, 50.0, b)).unwrap(),
                1 => Dist::gumbel_from_moments(within(-100.0, 100.0, a), within(0.1, 50.0, b))
                    .unwrap(),
                2 => Dist::log_normal_from_moments(within(0.1, 100.0, a), within(0.1, 10.0, b))
                    .unwrap(),
                3 => Dist::exponential(within(0.01, 10.0, a)).unwrap(),
                4 => Dist::weibull(within(0.5, 5.0, a), within(0.1, 50.0, b)).unwrap(),
                5 => Dist::weibull3(
                    within(0.0, 100.0, a),
                    within(0.5, 5.0, b),
                    within(0.1, 50.0, c),
                )
                .unwrap(),
                _ => {
                    let lo = within(-100.0, 0.0, a);
                    Dist::uniform(lo, lo + within(1.0, 100.0, b)).unwrap()
                }
            }
        }

        #[test]
        fn survival_is_monotone_nonincreasing() {
            assert_prop(
                &PropConfig::named("survival_is_monotone_nonincreasing"),
                |rng| (arb_dist(rng), rng.f64(), rng.f64()),
                |(raw, u_a, u_b)| {
                    let d = dist(raw);
                    let (a, b) = (within(-200.0, 200.0, *u_a), 200.0 * u_b);
                    assert!(d.survival(a + b) <= d.survival(a) + 1e-12);
                    Ok(())
                },
            );
        }

        #[test]
        fn survival_is_in_unit_interval() {
            assert_prop(
                &PropConfig::named("survival_is_in_unit_interval"),
                |rng| (arb_dist(rng), rng.f64()),
                |(raw, u_x)| {
                    let s = dist(raw).survival(within(-500.0, 500.0, *u_x));
                    assert!((0.0..=1.0).contains(&s), "survival {} out of range", s);
                    Ok(())
                },
            );
        }

        #[test]
        fn samples_are_finite() {
            assert_prop(
                &PropConfig::named("samples_are_finite"),
                |rng| (arb_dist(rng), rng.below(1_000)),
                |(raw, seed)| {
                    let d = dist(raw);
                    let mut r = StdRng::seed_from_u64(*seed);
                    for _ in 0..32 {
                        assert!(d.sample(&mut r).is_finite());
                    }
                    Ok(())
                },
            );
        }

        #[test]
        fn chebyshev_bound_holds_for_survival() {
            assert_prop(
                &PropConfig::named("chebyshev_bound_holds_for_survival"),
                |rng| (arb_dist(rng), rng.f64()),
                |(raw, u_n)| {
                    let d = dist(raw);
                    let n = within(0.5, 10.0, *u_n);
                    // The analytic survival at µ + nσ must respect Cantelli.
                    if let (Some(m), Some(sd)) = (d.mean(), d.std_dev()) {
                        let s = d.survival(m + n * sd);
                        let bound = crate::chebyshev::one_sided_bound(n);
                        assert!(s <= bound + 1e-9, "survival {} exceeds bound {}", s, bound);
                    }
                    Ok(())
                },
            );
        }

        #[test]
        fn cdf_plus_survival_is_one() {
            assert_prop(
                &PropConfig::named("cdf_plus_survival_is_one"),
                |rng| (arb_dist(rng), rng.f64()),
                |(raw, u_x)| {
                    let d = dist(raw);
                    let x = within(-500.0, 500.0, *u_x);
                    assert!((d.cdf(x) + d.survival(x) - 1.0).abs() < 1e-12);
                    Ok(())
                },
            );
        }
    }
}
