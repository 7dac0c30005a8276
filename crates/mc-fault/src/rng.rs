//! The harness PRNG: SplitMix64.
//!
//! Every generator, fault schedule, and property case in this crate is a
//! pure function of a `u64` seed, so a failure anywhere in the workspace's
//! adversarial suites is reproducible from one printed integer. SplitMix64
//! is used because it is stateless to fork (any `(seed, stream)` pair
//! yields an independent-looking stream via [`mix64`]), passes BigCrush,
//! and is four lines of code — no dependency required.

/// Stateless SplitMix64 mixing of two words: `mix64(seed, stream)` is the
/// first output of a SplitMix64 generator whose state is `seed ^ h(stream)`.
///
/// Used to derive independent sub-seeds (per property case, per fault-
/// schedule cycle, per shard) from one root seed without shared state.
#[must_use]
pub fn mix64(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A tiny deterministic generator (SplitMix64) for the property harness
/// and the fault schedules.
///
/// Not cryptographic, and deliberately not `rand`: the stream is pinned
/// here, so a printed case seed replays whatever the vendored `rand` does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// Creates a generator from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultRng { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Modulo bias is ~2^-64·n — irrelevant for test generation.
        self.next_u64() % n
    }

    /// Uniform draw in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics when `lo > hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        lo + self.below(hi - lo + 1)
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform draw in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Bernoulli draw with probability `p`.
    pub fn bool(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Forks an independent generator for sub-stream `stream`; the parent's
    /// state is unaffected.
    #[must_use]
    pub fn fork(&self, stream: u64) -> FaultRng {
        FaultRng::new(mix64(self.state, stream))
    }

    /// A uniformly random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "below(i + 1) <= i, a usize"
            )]
            let j = self.below(i as u64 + 1) as usize;
            p.swap(i, j);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64, n: usize) -> Vec<u64> {
        let mut r = FaultRng::new(seed);
        (0..n).map(|_| r.next_u64()).collect()
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        assert_eq!(stream(7, 8), stream(7, 8));
        assert_ne!(stream(7, 8), stream(8, 8));
    }

    #[test]
    fn below_and_ranges_stay_in_bounds() {
        let mut rng = FaultRng::new(1);
        for _ in 0..1_000 {
            assert!(rng.below(7) < 7);
            let v = rng.range_u64(3, 9);
            assert!((3..=9).contains(&v));
            let f = rng.f64();
            assert!((0.0..1.0).contains(&f));
            let g = rng.range_f64(-2.0, 2.0);
            assert!((-2.0..2.0).contains(&g));
        }
    }

    #[test]
    fn f64_is_roughly_uniform() {
        let mut rng = FaultRng::new(3);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| rng.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn mix_discriminates_both_arguments() {
        assert_ne!(mix64(1, 0), mix64(2, 0));
        assert_ne!(mix64(1, 0), mix64(1, 1));
        assert_eq!(mix64(5, 9), mix64(5, 9));
    }

    #[test]
    fn fork_is_independent_of_parent_progress() {
        let rng = FaultRng::new(11);
        let f1 = rng.fork(1);
        let mut parent = rng.clone();
        parent.next_u64();
        assert_eq!(
            f1,
            rng.fork(1),
            "fork is a pure function of (state, stream)"
        );
        assert_ne!(rng.fork(1), rng.fork(2));
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut rng = FaultRng::new(2);
        let p = rng.permutation(20);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        // And not (always) the identity.
        assert_ne!(rng.permutation(20), (0..20).collect::<Vec<_>>());
    }
}
