//! Differential oracle: Cantelli's inequality versus the empirical
//! measure, checked *exactly*.
//!
//! For a finite sample treated as its own population (mean `μ`, population
//! standard deviation `σ` over the same points), Cantelli's one-sided
//! inequality `P(X ≥ μ + n·σ) ≤ 1/(1+n²)` is a theorem of the empirical
//! distribution — it must hold for every sample, every family, every `n`,
//! with no statistical slack at all. `mc-fault`'s generators supply
//! adversarial sample shapes (normal, log-normal, uniform, bimodal) and
//! the harness turns any violation into a reproducing seed.

use chebymc::fault::gen::exec_samples;
use chebymc::fault::{assert_prop, FaultRng, PropConfig};
use chebymc::stats::chebyshev::one_sided_bound;
use chebymc::stats::summary::Summary;

/// Numerical slack only: the bound itself is exact; the tolerance covers
/// floating-point rounding in the mean/σ computation.
const SLACK: f64 = 1e-9;

#[test]
fn empirical_tail_frequency_never_exceeds_the_cantelli_bound() {
    assert_prop(
        &PropConfig::named("cantelli-vs-empirical").cases(200),
        |rng| rng.next_u64(),
        |&scenario| {
            let mut rng = FaultRng::new(scenario);
            let count = rng.range_u64(10, 400) as usize;
            let (family, xs) = exec_samples(&mut rng, count);
            let s = Summary::from_samples(&xs).map_err(|e| e.to_string())?;
            let (mu, sigma) = (s.mean(), s.std_dev());
            if sigma <= 0.0 {
                // A constant sample has an empty strict tail; nothing to
                // bound.
                return Ok(());
            }
            // Sweep the factor range the paper uses (its Table II covers
            // n ∈ [1, 5]) plus a sub-1 stress point.
            for n in [0.5, 1.0, 1.5, 2.0, 3.0, 5.0] {
                let threshold = mu + n * sigma;
                let tail = xs.iter().filter(|&&x| x >= threshold).count() as f64 / xs.len() as f64;
                let bound = one_sided_bound(n);
                if tail > bound + SLACK {
                    return Err(format!(
                        "{family:?} sample of {count}: empirical tail \
                         P(X ≥ μ+{n}σ) = {tail:.6} exceeds Cantelli bound \
                         {bound:.6}"
                    ));
                }
            }
            Ok(())
        },
    );
}

/// The `Summary::level` accessor (the paper's Eq. 6 budget `μ + n·σ`)
/// must agree with the threshold the Cantelli oracle computes by hand —
/// this pins the two code paths to the same definition of σ
/// (population, not sample).
#[test]
fn summary_level_matches_the_cantelli_threshold() {
    assert_prop(
        &PropConfig::named("summary-level-definition").cases(100),
        |rng| rng.next_u64(),
        |&scenario| {
            let mut rng = FaultRng::new(scenario);
            let (_, xs) = exec_samples(&mut rng, 64);
            let s = Summary::from_samples(&xs).map_err(|e| e.to_string())?;
            for n in [0.0, 1.0, 2.5] {
                let expected = s.mean() + n * s.std_dev();
                let got = s.level(n);
                if (got - expected).abs() > 1e-6 * expected.abs().max(1.0) {
                    return Err(format!("level({n}) = {got} but mean + n·σ = {expected}"));
                }
            }
            Ok(())
        },
    );
}
