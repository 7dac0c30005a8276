//! Batch and online summary statistics.
//!
//! The paper computes, per task, the average-case execution time (ACET,
//! Eq. 3) and the *population* standard deviation (Eq. 4, dividing by `m`
//! rather than `m − 1`). [`Summary`] reproduces exactly those definitions and
//! additionally exposes the sample standard deviation for comparison.
//! [`OnlineSummary`] is a numerically-stable Welford accumulator for
//! streaming traces so that 20 000-sample runs never need to be buffered.

use crate::{ensure_finite, Result, StatsError};
use serde::{Deserialize, Serialize};

/// Immutable summary statistics over a batch of samples.
///
/// # Example
///
/// ```
/// use mc_stats::summary::Summary;
///
/// # fn main() -> Result<(), mc_stats::StatsError> {
/// let s = Summary::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])?;
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!(s.std_dev(), 2.0); // population σ, the paper's Eq. 4
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    count: u64,
    mean: f64,
    variance_population: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Computes summary statistics for `samples`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptySamples`] when `samples` is empty and
    /// [`StatsError::NonFinite`] when any sample is NaN or infinite.
    pub fn from_samples(samples: &[f64]) -> Result<Self> {
        let mut online = OnlineSummary::new();
        for &s in samples {
            online.push(s)?;
        }
        online.finish()
    }

    /// Computes summary statistics from any iterator of samples.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Summary::from_samples`].
    pub fn try_from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Result<Self> {
        let mut online = OnlineSummary::new();
        for s in iter {
            online.push(s)?;
        }
        online.finish()
    }

    /// Number of samples summarised.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean — the paper's ACET (Eq. 3).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (divide by `m`).
    pub fn variance(&self) -> f64 {
        self.variance_population
    }

    /// Population standard deviation — the paper's σ (Eq. 4).
    pub fn std_dev(&self) -> f64 {
        self.variance_population.sqrt()
    }

    /// Unbiased sample variance (divide by `m − 1`); equals the population
    /// variance when only one sample was observed.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            return self.variance_population;
        }
        self.variance_population * self.count as f64 / (self.count - 1) as f64
    }

    /// Sample standard deviation (square root of [`Summary::sample_variance`]).
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest observed sample.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observed sample.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The execution-time level `mean + n·σ` used throughout the paper
    /// (Eq. 6) as the optimistic WCET for a Chebyshev factor `n`.
    ///
    /// `n` may be fractional; the paper restricts itself to non-negative
    /// values but negative levels are representable for analysis purposes.
    pub fn level(&self, n: f64) -> f64 {
        self.mean + n * self.std_dev()
    }
}

/// Numerically-stable streaming accumulator (Welford's algorithm).
///
/// # Example
///
/// ```
/// use mc_stats::summary::OnlineSummary;
///
/// # fn main() -> Result<(), mc_stats::StatsError> {
/// let mut acc = OnlineSummary::new();
/// for x in [1.0, 2.0, 3.0] {
///     acc.push(x)?;
/// }
/// let s = acc.finish()?;
/// assert_eq!(s.mean(), 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct OnlineSummary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    /// Non-finite samples discarded by [`Extend`]; deserialises to 0 for
    /// accumulators persisted before the field existed.
    #[serde(default)]
    skipped: u64,
}

impl OnlineSummary {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineSummary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            skipped: 0,
        }
    }

    /// Number of samples pushed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of non-finite samples the [`Extend`] impl discarded.
    ///
    /// [`Summary::from_samples`] *errors* on the first non-finite sample,
    /// so an accumulator with `skipped > 0` has silently diverged from
    /// the batch path; callers that tolerate the divergence should check
    /// this before [`finish`](Self::finish) (which debug-asserts it is
    /// zero).
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Adds one sample.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::NonFinite`] when `sample` is NaN or infinite;
    /// the accumulator is left unchanged in that case.
    pub fn push(&mut self, sample: f64) -> Result<()> {
        ensure_finite("sample", sample)?;
        self.count += 1;
        let delta = sample - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = sample - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(sample);
        self.max = self.max.max(sample);
        Ok(())
    }

    /// Merges another accumulator into this one (parallel Welford), so that
    /// traces can be summarised in chunks. Skipped-sample counts add up
    /// across every path, including merges with empty chunks.
    pub fn merge(&mut self, other: &OnlineSummary) {
        self.skipped += other.skipped;
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            let skipped = self.skipped;
            *self = *other;
            self.skipped = skipped;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Current running mean.
    ///
    /// # Panics
    ///
    /// Never panics; returns `0.0` before any sample is pushed.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Finalises the accumulator into an immutable [`Summary`].
    ///
    /// Debug builds assert that no samples were silently [`skipped`]
    /// (`skipped()` = 0): a finished summary is supposed to agree with
    /// [`Summary::from_samples`] on the same stream, and from_samples
    /// would have errored instead of skipping. Callers that intend to
    /// drop non-finite samples should inspect [`skipped`] and filter
    /// explicitly.
    ///
    /// [`skipped`]: Self::skipped
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptySamples`] when no sample was pushed.
    pub fn finish(&self) -> Result<Summary> {
        debug_assert_eq!(
            self.skipped, 0,
            "OnlineSummary::finish after Extend silently discarded {} non-finite sample(s); \
             this diverges from Summary::from_samples, which errors",
            self.skipped
        );
        if self.count == 0 {
            return Err(StatsError::EmptySamples);
        }
        Ok(Summary {
            count: self.count,
            mean: self.mean,
            variance_population: self.m2 / self.count as f64,
            min: self.min,
            max: self.max,
        })
    }
}

impl Extend<f64> for OnlineSummary {
    /// Pushes each sample, skipping non-finite values. Every skip is
    /// tallied in [`OnlineSummary::skipped`] — the count diverges the
    /// accumulator from [`Summary::from_samples`] (which errors), and
    /// [`OnlineSummary::finish`] debug-asserts it is zero.
    ///
    /// Use [`OnlineSummary::push`] directly when non-finite samples must be
    /// treated as errors.
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for s in iter {
            if self.push(s).is_err() {
                self.skipped += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_mean_and_population_sigma_match_paper_definitions() {
        // Hand-computed: mean = 5, population variance = 4 (σ = 2).
        let s = Summary::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sample_variance_uses_bessel_correction() {
        let s = Summary::from_samples(&[1.0, 2.0, 3.0]).unwrap();
        // population variance = 2/3, sample variance = 1.
        assert!((s.variance() - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.sample_variance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_sample_has_zero_variance() {
        let s = Summary::from_samples(&[42.0]).unwrap();
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
    }

    #[test]
    fn empty_samples_is_an_error() {
        assert_eq!(
            Summary::from_samples(&[]).unwrap_err(),
            StatsError::EmptySamples
        );
    }

    #[test]
    fn non_finite_sample_is_rejected_and_accumulator_unchanged() {
        let mut acc = OnlineSummary::new();
        acc.push(1.0).unwrap();
        let before = acc;
        assert!(acc.push(f64::NAN).is_err());
        assert_eq!(acc, before);
        assert!(acc.push(f64::INFINITY).is_err());
        assert_eq!(acc, before);
    }

    #[test]
    fn level_is_mean_plus_n_sigma() {
        let s = Summary::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((s.level(0.0) - 5.0).abs() < 1e-12);
        assert!((s.level(3.0) - 11.0).abs() < 1e-12);
        assert!((s.level(-1.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn welford_matches_batch_on_adversarial_offsets() {
        // Large common offset exposes catastrophic cancellation in naive
        // two-pass/sum-of-squares implementations.
        let offset = 1.0e9;
        let base = [0.1, 0.2, 0.3, 0.4, 0.5];
        let shifted: Vec<f64> = base.iter().map(|x| x + offset).collect();
        let s = Summary::from_samples(&shifted).unwrap();
        let expect = Summary::from_samples(&base).unwrap();
        assert!((s.variance() - expect.variance()).abs() < 1e-6);
    }

    #[test]
    fn merge_equals_sequential_push() {
        let a_samples = [1.0, 2.0, 3.0, 10.0];
        let b_samples = [4.0, 5.0, -1.0];
        let mut a = OnlineSummary::new();
        for &x in &a_samples {
            a.push(x).unwrap();
        }
        let mut b = OnlineSummary::new();
        for &x in &b_samples {
            b.push(x).unwrap();
        }
        a.merge(&b);
        let merged = a.finish().unwrap();

        let mut all = OnlineSummary::new();
        for &x in a_samples.iter().chain(&b_samples) {
            all.push(x).unwrap();
        }
        let sequential = all.finish().unwrap();
        assert_eq!(merged.count(), sequential.count());
        assert!((merged.mean() - sequential.mean()).abs() < 1e-12);
        assert!((merged.variance() - sequential.variance()).abs() < 1e-12);
        assert_eq!(merged.min(), sequential.min());
        assert_eq!(merged.max(), sequential.max());
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut a = OnlineSummary::new();
        a.push(5.0).unwrap();
        let a_copy = a;
        let empty = OnlineSummary::new();
        a.merge(&empty);
        assert_eq!(a, a_copy);

        let mut e = OnlineSummary::new();
        e.merge(&a_copy);
        assert_eq!(e, a_copy);
    }

    #[test]
    fn extend_counts_every_skipped_non_finite_sample() {
        let mut acc = OnlineSummary::new();
        acc.extend([1.0, f64::NAN, 3.0, f64::INFINITY, f64::NEG_INFINITY]);
        assert_eq!(acc.count(), 2, "finite samples accumulate");
        assert_eq!(acc.skipped(), 3, "every discard is tallied");
        assert!((acc.mean() - 2.0).abs() < 1e-12);
        // The divergence from the batch path: from_samples refuses the
        // same stream outright instead of silently dropping values.
        assert!(matches!(
            Summary::from_samples(&[1.0, f64::NAN, 3.0]).unwrap_err(),
            StatsError::NonFinite { what: "sample", value } if value.is_nan()
        ));
    }

    #[test]
    fn merge_accumulates_skip_counts_through_every_path() {
        let mut tainted = OnlineSummary::new();
        tainted.extend([f64::NAN]); // count 0, skipped 1
        let mut empty = OnlineSummary::new();
        empty.merge(&tainted); // self empty: adopt other
        assert_eq!(empty.skipped(), 1);
        let mut full = OnlineSummary::new();
        full.extend([1.0, 2.0]);
        full.merge(&tainted); // other has count 0: early return
        assert_eq!(full.skipped(), 1);
        full.merge(&empty); // both non-trivial paths combined
        assert_eq!(full.skipped(), 2);
        assert_eq!(full.count(), 2);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "silently discarded"))]
    fn finish_debug_asserts_no_silent_skips() {
        let mut acc = OnlineSummary::new();
        acc.extend([1.0, f64::NAN, 3.0]);
        // Release builds tolerate the divergence (debug_assert compiles
        // out), so the should_panic expectation is debug-only too.
        let _ = acc.finish();
    }

    mod properties {
        use super::*;
        use crate::prop_domain::{samples, units, within};
        use mc_fault::{assert_prop, PropConfig};

        #[test]
        fn mean_is_within_min_max() {
            assert_prop(
                &PropConfig::named("mean_is_within_min_max"),
                |rng| units(rng, 1..200),
                |raw| {
                    let samples = samples(raw, 1, -1.0e6, 1.0e6);
                    let s = Summary::from_samples(&samples).unwrap();
                    assert!(s.mean() >= s.min() - 1e-9);
                    assert!(s.mean() <= s.max() + 1e-9);
                    Ok(())
                },
            );
        }

        #[test]
        fn variance_is_non_negative() {
            assert_prop(
                &PropConfig::named("variance_is_non_negative"),
                |rng| units(rng, 1..200),
                |raw| {
                    let samples = samples(raw, 1, -1.0e6, 1.0e6);
                    let s = Summary::from_samples(&samples).unwrap();
                    assert!(s.variance() >= -1e-9);
                    Ok(())
                },
            );
        }

        #[test]
        fn merge_is_equivalent_to_concatenation() {
            assert_prop(
                &PropConfig::named("merge_is_equivalent_to_concatenation"),
                |rng| (units(rng, 1..50), units(rng, 1..50)),
                |(raw_a, raw_b)| {
                    let a = samples(raw_a, 1, -1.0e3, 1.0e3);
                    let b = samples(raw_b, 1, -1.0e3, 1.0e3);
                    let mut acc_a = OnlineSummary::new();
                    acc_a.extend(a.iter().copied());
                    let mut acc_b = OnlineSummary::new();
                    acc_b.extend(b.iter().copied());
                    acc_a.merge(&acc_b);
                    let merged = acc_a.finish().unwrap();

                    let concat: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
                    let direct = Summary::from_samples(&concat).unwrap();
                    assert_eq!(merged.count(), direct.count());
                    assert!((merged.mean() - direct.mean()).abs() < 1e-6);
                    assert!((merged.variance() - direct.variance()).abs() < 1e-4);
                    Ok(())
                },
            );
        }

        #[test]
        fn merge_over_arbitrary_chunkings_matches_from_samples() {
            assert_prop(
                &PropConfig::named("merge_over_arbitrary_chunkings_matches_from_samples"),
                // Chunks of 0..=10 samples each: empty and single-sample
                // chunks are deliberately in range, so the merge identity
                // and adopt-other fast paths are both exercised.
                |rng| {
                    let n = rng.range_u64(1, 11);
                    (0..n).map(|_| units(rng, 0..11)).collect::<Vec<_>>()
                },
                |raw| {
                    let chunks: Vec<Vec<f64>> =
                        raw.iter().map(|c| samples(c, 0, -1.0e3, 1.0e3)).collect();
                    let concat: Vec<f64> = chunks.iter().flatten().copied().collect();
                    if concat.is_empty() {
                        return Ok(());
                    }
                    let mut acc = OnlineSummary::new();
                    for chunk in &chunks {
                        let mut part = OnlineSummary::new();
                        part.extend(chunk.iter().copied());
                        acc.merge(&part);
                    }
                    let merged = acc.finish().unwrap();
                    let direct = Summary::from_samples(&concat).unwrap();
                    // 1e-12 relative: both sides are Welford-stable, so the
                    // chunking must not cost more than rounding noise.
                    let close =
                        |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0);
                    assert_eq!(merged.count(), direct.count());
                    assert!(
                        close(merged.mean(), direct.mean()),
                        "mean {} vs {}",
                        merged.mean(),
                        direct.mean()
                    );
                    assert!(
                        close(merged.variance(), direct.variance()),
                        "variance {} vs {}",
                        merged.variance(),
                        direct.variance()
                    );
                    assert_eq!(merged.min(), direct.min());
                    assert_eq!(merged.max(), direct.max());
                    Ok(())
                },
            );
        }

        #[test]
        fn shift_invariance_of_variance() {
            assert_prop(
                &PropConfig::named("shift_invariance_of_variance"),
                |rng| (units(rng, 2..100), rng.f64()),
                |(raw, u_shift)| {
                    let samples = samples(raw, 2, -100.0, 100.0);
                    let shift = within(-1.0e4, 1.0e4, *u_shift);
                    let s1 = Summary::from_samples(&samples).unwrap();
                    let shifted: Vec<f64> = samples.iter().map(|x| x + shift).collect();
                    let s2 = Summary::from_samples(&shifted).unwrap();
                    assert!((s1.variance() - s2.variance()).abs() < 1e-5);
                    assert!((s2.mean() - (s1.mean() + shift)).abs() < 1e-7);
                    Ok(())
                },
            );
        }
    }
}
