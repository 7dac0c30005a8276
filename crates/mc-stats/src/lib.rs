//! Statistics substrate for the `chebymc` workspace.
//!
//! This crate provides the probabilistic machinery that the paper
//! *"Improving the Timing Behaviour of Mixed-Criticality Systems Using
//! Chebyshev's Theorem"* (DATE 2021) relies on:
//!
//! * [`summary`] — batch and online (Welford) summary statistics. The paper's
//!   Eq. 3 (ACET as the sample mean) and Eq. 4 (population standard
//!   deviation) are implemented exactly.
//! * [`chebyshev`] — the one-sided Chebyshev (Cantelli) inequality behind
//!   Theorem 1, `P[X ≥ µ + nσ] ≤ 1/(1+n²)`, together with its inverse.
//! * [`dist`] — seedable sampling distributions (Normal, Gumbel, LogNormal,
//!   Weibull, Exponential, Uniform, Triangular, mixtures, truncation) used to
//!   model per-benchmark execution-time behaviour.
//! * [`histogram`] — fixed-width histograms and empirical CDFs (Fig. 1).
//! * [`estimate`] — empirical exceedance-rate estimation with Wilson
//!   confidence intervals and bootstrap resampling (Tables I and II).
//!
//! # Example
//!
//! ```
//! use mc_stats::chebyshev::one_sided_bound;
//! use mc_stats::summary::Summary;
//!
//! # fn main() -> Result<(), mc_stats::StatsError> {
//! let samples = [10.0, 12.0, 9.0, 11.0, 13.0, 8.0];
//! let summary = Summary::from_samples(&samples)?;
//! // Optimistic WCET at n = 3 standard deviations above the mean:
//! let wcet_opt = summary.mean() + 3.0 * summary.std_dev();
//! // Distribution-free bound on the probability of exceeding it:
//! assert!(one_sided_bound(3.0) <= 0.1);
//! assert!(wcet_opt > summary.mean());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(
    clippy::unwrap_used,
    clippy::undocumented_unsafe_blocks,
    clippy::cast_possible_truncation
)]

pub mod chebyshev;
pub mod dist;
pub mod estimate;
pub mod evt;
pub mod histogram;
pub mod summary;

use std::error::Error;
use std::fmt;

/// Errors produced by statistical computations in this crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum StatsError {
    /// An operation that requires at least one sample received none.
    EmptySamples,
    /// A sample or parameter was NaN or infinite where a finite value is required.
    NonFinite {
        /// Name of the offending parameter.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A parameter was outside its valid domain.
    InvalidParameter {
        /// Name of the offending parameter.
        what: &'static str,
        /// Human-readable description of the valid domain.
        expected: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A histogram was configured with an invalid layout.
    InvalidHistogram {
        /// Human-readable description of the problem.
        reason: &'static str,
    },
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::EmptySamples => write!(f, "operation requires at least one sample"),
            StatsError::NonFinite { what, value } => {
                write!(f, "{what} must be finite, got {value}")
            }
            StatsError::InvalidParameter {
                what,
                expected,
                value,
            } => write!(f, "{what} must be {expected}, got {value}"),
            StatsError::InvalidHistogram { reason } => {
                write!(f, "invalid histogram configuration: {reason}")
            }
        }
    }
}

impl Error for StatsError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StatsError>;

#[inline]
pub(crate) fn ensure_finite(what: &'static str, value: f64) -> Result<f64> {
    if value.is_finite() {
        Ok(value)
    } else {
        Err(StatsError::NonFinite { what, value })
    }
}

pub(crate) fn ensure_positive(what: &'static str, value: f64) -> Result<f64> {
    ensure_finite(what, value)?;
    if value > 0.0 {
        Ok(value)
    } else {
        Err(StatsError::InvalidParameter {
            what,
            expected: "strictly positive",
            value,
        })
    }
}

#[inline]
pub(crate) fn ensure_non_negative(what: &'static str, value: f64) -> Result<f64> {
    ensure_finite(what, value)?;
    if value >= 0.0 {
        Ok(value)
    } else {
        Err(StatsError::InvalidParameter {
            what,
            expected: "non-negative",
            value,
        })
    }
}

#[cfg(test)]
mod prop_domain {
    //! Raw draws for the property tests and their maps onto each
    //! property's domain. Shrinking acts on the raw draws, so every shrink
    //! candidate still maps to a valid input.

    use mc_fault::FaultRng;
    use std::ops::Range;

    /// The unit draw `u` mapped onto `[lo, hi)`.
    pub(crate) fn within(lo: f64, hi: f64, u: f64) -> f64 {
        lo + (hi - lo) * u
    }

    /// Unit-interval draws, as many as a uniform pick from `lens`.
    pub(crate) fn units(rng: &mut FaultRng, lens: Range<usize>) -> Vec<f64> {
        let n = rng.range_u64(lens.start as u64, lens.end as u64 - 1);
        (0..n).map(|_| rng.f64()).collect()
    }

    /// The draws mapped onto `[lo, hi)`. Missing draws read as 0 up to
    /// `min_len` values, so a shrunk vector is still a long enough sample.
    pub(crate) fn samples(raw: &[f64], min_len: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..raw.len().max(min_len))
            .map(|i| within(lo, hi, raw.get(i).copied().unwrap_or(0.0)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = StatsError::EmptySamples;
        assert_eq!(e.to_string(), "operation requires at least one sample");
        let e = StatsError::NonFinite {
            what: "mean",
            value: f64::NAN,
        };
        assert!(e.to_string().contains("mean"));
        let e = StatsError::InvalidParameter {
            what: "sigma",
            expected: "strictly positive",
            value: -1.0,
        };
        assert!(e.to_string().contains("sigma"));
        assert!(e.to_string().contains("-1"));
        let e = StatsError::InvalidHistogram {
            reason: "zero bins",
        };
        assert!(e.to_string().contains("zero bins"));
    }

    #[test]
    fn ensure_helpers_accept_valid_values() {
        assert_eq!(ensure_finite("x", 1.5).unwrap(), 1.5);
        assert_eq!(ensure_positive("x", 0.1).unwrap(), 0.1);
        assert_eq!(ensure_non_negative("x", 0.0).unwrap(), 0.0);
    }

    #[test]
    fn ensure_helpers_reject_invalid_values() {
        assert!(ensure_finite("x", f64::INFINITY).is_err());
        assert!(ensure_finite("x", f64::NAN).is_err());
        assert!(ensure_positive("x", 0.0).is_err());
        assert!(ensure_positive("x", -3.0).is_err());
        assert!(ensure_non_negative("x", -1e-9).is_err());
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StatsError>();
    }
}
