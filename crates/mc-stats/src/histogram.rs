//! Fixed-width histograms and empirical CDFs.
//!
//! Used to regenerate the paper's Fig. 1 (execution-time distribution of a
//! real-time task with the ACET ≪ WCET gap) and to inspect the synthetic
//! benchmark models in `mc-exec`.

use crate::{ensure_finite, Result, StatsError};
use serde::{Deserialize, Serialize};

/// A histogram over `[low, high)` with equally-wide bins.
///
/// Samples below `low` or at/above `high` are counted in underflow/overflow
/// counters rather than silently dropped, so total mass is conserved.
///
/// # Example
///
/// ```
/// use mc_stats::histogram::Histogram;
///
/// # fn main() -> Result<(), mc_stats::StatsError> {
/// let mut h = Histogram::new(0.0, 10.0, 5)?;
/// for x in [0.5, 1.5, 2.5, 9.9, 12.0] {
///     h.record(x)?;
/// }
/// assert_eq!(h.count(0), 2); // [0, 2) holds 0.5 and 1.5
/// assert_eq!(h.count(1), 1); // [2, 4) holds 2.5
/// assert_eq!(h.overflow(), 1); // 12.0 is out of range
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    low: f64,
    high: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram over `[low, high)` with `bins` equal-width bins.
    ///
    /// # Errors
    ///
    /// Returns an error when `bins == 0`, bounds are non-finite, or
    /// `high ≤ low`.
    pub fn new(low: f64, high: f64, bins: usize) -> Result<Self> {
        ensure_finite("low", low)?;
        ensure_finite("high", high)?;
        if bins == 0 {
            return Err(StatsError::InvalidHistogram {
                reason: "bin count must be non-zero",
            });
        }
        if high <= low {
            return Err(StatsError::InvalidHistogram {
                reason: "high must exceed low",
            });
        }
        Ok(Histogram {
            low,
            high,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
            total: 0,
        })
    }

    /// Creates a histogram sized to cover `samples` exactly, then records
    /// them all.
    ///
    /// # Errors
    ///
    /// Returns an error when `samples` is empty, contains non-finite values,
    /// or `bins == 0`. A degenerate all-equal sample set gets an artificial
    /// unit-width range.
    pub fn from_samples(samples: &[f64], bins: usize) -> Result<Self> {
        if samples.is_empty() {
            return Err(StatsError::EmptySamples);
        }
        let mut low = f64::INFINITY;
        let mut high = f64::NEG_INFINITY;
        for &s in samples {
            ensure_finite("sample", s)?;
            low = low.min(s);
            high = high.max(s);
        }
        if high <= low {
            high = low + 1.0;
        } else {
            // Nudge the top edge so the maximum lands in the last bin.
            high += (high - low) * 1e-9;
        }
        let mut h = Histogram::new(low, high, bins)?;
        for &s in samples {
            h.record(s)?;
        }
        Ok(h)
    }

    /// Records one sample.
    ///
    /// # Errors
    ///
    /// Returns an error when `sample` is NaN or infinite.
    pub fn record(&mut self, sample: f64) -> Result<()> {
        ensure_finite("sample", sample)?;
        self.total += 1;
        if sample < self.low {
            self.underflow += 1;
        } else if sample >= self.high {
            self.overflow += 1;
        } else {
            let width = (self.high - self.low) / self.counts.len() as f64;
            #[expect(
                clippy::cast_possible_truncation,
                reason = "sample lies in [low, high), so the quotient is below the bin count"
            )]
            let idx = (((sample - self.low) / width) as usize).min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
        Ok(())
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Count in bin `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx ≥ self.bins()`.
    pub fn count(&self, idx: usize) -> u64 {
        self.counts[idx]
    }

    /// All bin counts in order.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Samples recorded below the histogram range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples recorded at or above the histogram range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total samples recorded (including under/overflow).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Inclusive lower edge of the histogram range.
    pub fn low(&self) -> f64 {
        self.low
    }

    /// Exclusive upper edge of the histogram range.
    pub fn high(&self) -> f64 {
        self.high
    }

    /// `(left_edge, right_edge)` of bin `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx ≥ self.bins()`.
    pub fn bin_edges(&self, idx: usize) -> (f64, f64) {
        assert!(idx < self.counts.len(), "bin index out of range");
        let width = (self.high - self.low) / self.counts.len() as f64;
        (
            self.low + idx as f64 * width,
            self.low + (idx + 1) as f64 * width,
        )
    }

    /// Fraction of recorded samples that fell into bin `idx`
    /// (0 when nothing has been recorded).
    pub fn fraction(&self, idx: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[idx] as f64 / self.total as f64
        }
    }

    /// Index of the fullest bin, breaking ties toward the left;
    /// `None` when every bin is empty.
    pub fn mode_bin(&self) -> Option<usize> {
        let max = *self.counts.iter().max()?;
        if max == 0 {
            return None;
        }
        self.counts.iter().position(|&c| c == max)
    }
}

/// Empirical cumulative distribution function over a sorted copy of the
/// sample set.
///
/// # Example
///
/// ```
/// use mc_stats::histogram::Ecdf;
///
/// # fn main() -> Result<(), mc_stats::StatsError> {
/// let e = Ecdf::from_samples(&[1.0, 2.0, 3.0, 4.0])?;
/// assert_eq!(e.fraction_at_most(2.5), 0.5);
/// assert_eq!(e.fraction_above(2.5), 0.5);
/// assert_eq!(e.quantile(0.5)?, 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from `samples`.
    ///
    /// # Errors
    ///
    /// Returns an error when `samples` is empty or contains non-finite
    /// values.
    pub fn from_samples(samples: &[f64]) -> Result<Self> {
        if samples.is_empty() {
            return Err(StatsError::EmptySamples);
        }
        for &s in samples {
            ensure_finite("sample", s)?;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples verified finite"));
        Ok(Ecdf { sorted })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false: an ECDF cannot be empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Fraction of samples `≤ x`.
    pub fn fraction_at_most(&self, x: f64) -> f64 {
        let idx = self.sorted.partition_point(|&s| s <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Fraction of samples `> x` — the empirical overrun rate at level `x`.
    pub fn fraction_above(&self, x: f64) -> f64 {
        1.0 - self.fraction_at_most(x)
    }

    /// The `q`-quantile (nearest-rank method).
    ///
    /// # Errors
    ///
    /// Returns an error when `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Result<f64> {
        ensure_finite("quantile q", q)?;
        if !(0.0..=1.0).contains(&q) {
            return Err(StatsError::InvalidParameter {
                what: "quantile q",
                expected: "in [0, 1]",
                value: q,
            });
        }
        let n = self.sorted.len();
        #[expect(
            clippy::cast_possible_truncation,
            reason = "q is in [0, 1], so the rank is at most n"
        )]
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Ok(self.sorted[rank - 1])
    }

    /// Minimum sample.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Maximum sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_fall_in_expected_bins() {
        let mut h = Histogram::new(0.0, 10.0, 5).unwrap();
        h.record(0.0).unwrap(); // bin 0: [0, 2)
        h.record(1.999).unwrap(); // bin 0
        h.record(2.0).unwrap(); // bin 1: [2, 4)
        h.record(9.999).unwrap(); // bin 4: [8, 10)
        assert_eq!(h.count(0), 2);
        assert_eq!(h.count(1), 1);
        assert_eq!(h.count(4), 1);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn out_of_range_goes_to_under_and_overflow() {
        let mut h = Histogram::new(0.0, 10.0, 2).unwrap();
        h.record(-1.0).unwrap();
        h.record(10.0).unwrap(); // top edge is exclusive
        h.record(100.0).unwrap();
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 3);
        assert_eq!(h.counts().iter().sum::<u64>(), 0);
    }

    #[test]
    fn total_mass_is_conserved() {
        let mut h = Histogram::new(0.0, 1.0, 7).unwrap();
        let samples = [-0.5, 0.1, 0.2, 0.3, 0.99, 1.0, 2.0];
        for s in samples {
            h.record(s).unwrap();
        }
        let binned: u64 = h.counts().iter().sum();
        assert_eq!(binned + h.underflow() + h.overflow(), samples.len() as u64);
    }

    #[test]
    fn from_samples_covers_all_samples() {
        let samples = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let h = Histogram::from_samples(&samples, 4).unwrap();
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
        assert_eq!(h.counts().iter().sum::<u64>(), samples.len() as u64);
    }

    #[test]
    fn from_samples_handles_constant_data() {
        let h = Histogram::from_samples(&[5.0, 5.0, 5.0], 3).unwrap();
        assert_eq!(h.counts().iter().sum::<u64>(), 3);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn invalid_construction_is_rejected() {
        assert!(Histogram::new(0.0, 10.0, 0).is_err());
        assert!(Histogram::new(10.0, 10.0, 4).is_err());
        assert!(Histogram::new(f64::NAN, 10.0, 4).is_err());
        assert!(Histogram::from_samples(&[], 4).is_err());
        assert!(Histogram::from_samples(&[f64::NAN], 4).is_err());
    }

    #[test]
    fn bin_edges_partition_the_range() {
        let h = Histogram::new(0.0, 12.0, 4).unwrap();
        assert_eq!(h.bin_edges(0), (0.0, 3.0));
        assert_eq!(h.bin_edges(3), (9.0, 12.0));
        for i in 0..3 {
            assert_eq!(h.bin_edges(i).1, h.bin_edges(i + 1).0);
        }
    }

    #[test]
    fn fraction_and_mode_bin() {
        let mut h = Histogram::new(0.0, 4.0, 4).unwrap();
        assert_eq!(h.mode_bin(), None);
        for x in [0.5, 1.5, 1.6, 1.7] {
            h.record(x).unwrap();
        }
        assert_eq!(h.mode_bin(), Some(1));
        assert!((h.fraction(1) - 0.75).abs() < 1e-12);
        assert!((h.fraction(0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn ecdf_fractions_and_quantiles() {
        let e = Ecdf::from_samples(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(e.len(), 4);
        assert_eq!(e.min(), 1.0);
        assert_eq!(e.max(), 4.0);
        assert_eq!(e.fraction_at_most(0.0), 0.0);
        assert_eq!(e.fraction_at_most(2.0), 0.5);
        assert_eq!(e.fraction_at_most(10.0), 1.0);
        assert_eq!(e.fraction_above(3.5), 0.25);
        assert_eq!(e.quantile(0.0).unwrap(), 1.0);
        assert_eq!(e.quantile(0.25).unwrap(), 1.0);
        assert_eq!(e.quantile(0.5).unwrap(), 2.0);
        assert_eq!(e.quantile(1.0).unwrap(), 4.0);
        assert!(e.quantile(1.5).is_err());
    }

    #[test]
    fn ecdf_rejects_empty_and_non_finite() {
        assert!(Ecdf::from_samples(&[]).is_err());
        assert!(Ecdf::from_samples(&[1.0, f64::INFINITY]).is_err());
    }

    mod properties {
        use super::*;
        use crate::prop_domain::{samples, units, within};
        use mc_fault::{assert_prop, PropConfig};

        #[test]
        fn histogram_conserves_mass() {
            assert_prop(
                &PropConfig::named("histogram_conserves_mass"),
                #[expect(clippy::cast_possible_truncation, reason = "a draw below 31")]
                |rng| (units(rng, 1..300), rng.below(31) as usize),
                |(raw, extra_bins)| {
                    let samples = samples(raw, 1, -100.0, 100.0);
                    let mut h = Histogram::new(-50.0, 50.0, 1 + extra_bins).unwrap();
                    for &s in &samples {
                        h.record(s).unwrap();
                    }
                    let sum: u64 = h.counts().iter().sum();
                    assert_eq!(sum + h.underflow() + h.overflow(), samples.len() as u64);
                    Ok(())
                },
            );
        }

        #[test]
        fn ecdf_is_monotone() {
            assert_prop(
                &PropConfig::named("ecdf_is_monotone"),
                |rng| (units(rng, 1..200), rng.f64(), rng.f64()),
                |(raw, u_a, u_b)| {
                    let samples = samples(raw, 1, -100.0, 100.0);
                    let (a, b) = (within(-150.0, 150.0, *u_a), 100.0 * u_b);
                    let e = Ecdf::from_samples(&samples).unwrap();
                    assert!(e.fraction_at_most(a + b) >= e.fraction_at_most(a));
                    Ok(())
                },
            );
        }

        #[test]
        fn quantile_is_an_observed_sample() {
            assert_prop(
                &PropConfig::named("quantile_is_an_observed_sample"),
                |rng| (units(rng, 1..200), rng.f64()),
                |(raw, q)| {
                    let samples = samples(raw, 1, -100.0, 100.0);
                    let e = Ecdf::from_samples(&samples).unwrap();
                    let v = e.quantile(*q).unwrap();
                    assert!(samples.contains(&v));
                    Ok(())
                },
            );
        }

        #[test]
        fn quantiles_are_monotone() {
            assert_prop(
                &PropConfig::named("quantiles_are_monotone"),
                |rng| (units(rng, 1..200), rng.f64(), rng.f64()),
                |(raw, q1, dq)| {
                    let samples = samples(raw, 1, -100.0, 100.0);
                    let q2 = (q1 + dq).min(1.0);
                    let e = Ecdf::from_samples(&samples).unwrap();
                    assert!(e.quantile(q2).unwrap() >= e.quantile(*q1).unwrap());
                    Ok(())
                },
            );
        }
    }
}
