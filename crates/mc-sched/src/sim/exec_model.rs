//! Per-job execution-time models for simulation.

use mc_task::time::Duration;
use mc_task::{ExecutionProfile, McTask};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How the simulator draws each job's actual execution time.
///
/// Draws are taken against a task's budget in mode 0 (`C_LO`) and its
/// budget at its own level (`C_HI`); in an L-level system those are
/// `C(0)` and `C(ℓ)`, and "HC" means any level above 0.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum JobExecModel {
    /// Every job runs exactly its LO-mode budget `C_LO`: the boundary case
    /// that never overruns.
    FullLoBudget,
    /// Every HC job runs its full pessimistic budget `C_HI` (LC jobs run
    /// `C_LO`): the adversarial case that overruns immediately.
    FullHiBudget,
    /// Every job runs a deterministic fraction of `C_LO`.
    FractionOfLo(f64),
    /// Sample from the task's attached execution profile: the fitted
    /// three-parameter Weibull (inverse-CDF draw) when the profile carries
    /// one — the automotive workload family's heavy-tailed law — otherwise
    /// a normal with the profile's `(ACET, σ)`. Either way the draw is
    /// clamped into `[1 ns, C_HI]`. Tasks without a profile draw uniformly
    /// from `[½·C_LO, C_LO]`.
    Profile,
    /// Each HC job overruns `C_LO` with the given probability (running to
    /// `C_HI` when it does, 90 % of `C_LO` otherwise); LC jobs run 90 % of
    /// `C_LO`. Useful for controlled mode-switch-rate experiments.
    OverrunWithProbability(f64),
}

impl JobExecModel {
    /// Validates model parameters (fractions and probabilities in `[0, 1]`).
    pub fn is_valid(&self) -> bool {
        match self {
            JobExecModel::FullLoBudget | JobExecModel::FullHiBudget | JobExecModel::Profile => true,
            JobExecModel::FractionOfLo(f) => f.is_finite() && (0.0..=1.0).contains(f),
            JobExecModel::OverrunWithProbability(p) => p.is_finite() && (0.0..=1.0).contains(p),
        }
    }

    /// Draws one job's execution time for `task`.
    ///
    /// The result is always in `[1 ns, C_HI]` — a sound pessimistic WCET is
    /// never exceeded.
    pub fn draw<R: Rng + ?Sized>(&self, task: &McTask, rng: &mut R) -> Duration {
        self.draw_between(
            task.c_lo(),
            task.c_hi(),
            task.is_high(),
            task.profile(),
            rng,
        )
    }

    /// Draws one job's execution time for a task with mode-0 budget `lo`,
    /// top budget `hi`, criticality above level 0 when `high`, and an
    /// optional profile; the result lies in `[1 ns, hi]`.
    pub(crate) fn draw_between<R: Rng + ?Sized>(
        &self,
        lo: Duration,
        hi: Duration,
        high: bool,
        profile: Option<&ExecutionProfile>,
        rng: &mut R,
    ) -> Duration {
        let one = Duration::from_nanos(1);
        let clamp = |d: Duration| d.clamp(one, hi);
        match self {
            JobExecModel::FullLoBudget => clamp(lo),
            JobExecModel::FullHiBudget => {
                if high {
                    clamp(hi)
                } else {
                    clamp(lo)
                }
            }
            JobExecModel::FractionOfLo(f) => clamp(lo.mul_f64(*f)),
            JobExecModel::Profile => match profile {
                Some(p) => {
                    let sigma = p.sigma().max(0.0);
                    let x = if let Some(fit) = p.weibull() {
                        // Heavy-tailed fitted law: one uniform draw through
                        // the inverse CDF, open at 1 so the quantile stays
                        // finite (the C_HI clamp truncates the tail).
                        let u: f64 = loop {
                            let u: f64 = rng.random();
                            if u < 1.0 {
                                break u;
                            }
                        };
                        fit.quantile(u)
                    } else if sigma == 0.0 {
                        p.acet()
                    } else {
                        // Box–Muller normal draw around the profile.
                        let u1: f64 = loop {
                            let u: f64 = rng.random();
                            if u > 0.0 {
                                break u;
                            }
                        };
                        let u2: f64 = rng.random();
                        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                        p.acet() + sigma * z
                    };
                    clamp(Duration::try_from_nanos_f64_ceil(x.max(1.0)).unwrap_or(hi))
                }
                None => {
                    let f = 0.5 + 0.5 * rng.random::<f64>();
                    clamp(lo.mul_f64(f))
                }
            },
            JobExecModel::OverrunWithProbability(p) => {
                if high && rng.random::<f64>() < *p {
                    clamp(hi)
                } else {
                    clamp(lo.mul_f64(0.9))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_task::{Criticality, ExecutionProfile, TaskId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn hc_task() -> McTask {
        McTask::builder(TaskId::new(0))
            .criticality(Criticality::Hi)
            .period(Duration::from_millis(100))
            .c_lo(Duration::from_millis(10))
            .c_hi(Duration::from_millis(40))
            .build()
            .unwrap()
    }

    fn lc_task() -> McTask {
        McTask::builder(TaskId::new(1))
            .period(Duration::from_millis(100))
            .c_lo(Duration::from_millis(10))
            .build()
            .unwrap()
    }

    #[test]
    fn validation() {
        assert!(JobExecModel::FullLoBudget.is_valid());
        assert!(JobExecModel::FractionOfLo(0.5).is_valid());
        assert!(!JobExecModel::FractionOfLo(1.5).is_valid());
        assert!(!JobExecModel::FractionOfLo(f64::NAN).is_valid());
        assert!(JobExecModel::OverrunWithProbability(0.0).is_valid());
        assert!(!JobExecModel::OverrunWithProbability(-0.1).is_valid());
    }

    #[test]
    fn deterministic_models() {
        let mut rng = StdRng::seed_from_u64(0);
        let hc = hc_task();
        let lc = lc_task();
        assert_eq!(
            JobExecModel::FullLoBudget.draw(&hc, &mut rng),
            Duration::from_millis(10)
        );
        assert_eq!(
            JobExecModel::FullHiBudget.draw(&hc, &mut rng),
            Duration::from_millis(40)
        );
        assert_eq!(
            JobExecModel::FullHiBudget.draw(&lc, &mut rng),
            Duration::from_millis(10)
        );
        assert_eq!(
            JobExecModel::FractionOfLo(0.5).draw(&hc, &mut rng),
            Duration::from_millis(5)
        );
        // Fraction zero still takes at least one nanosecond.
        assert_eq!(
            JobExecModel::FractionOfLo(0.0).draw(&hc, &mut rng),
            Duration::from_nanos(1)
        );
    }

    #[test]
    fn overrun_probability_model_rates() {
        let mut rng = StdRng::seed_from_u64(1);
        let hc = hc_task();
        let model = JobExecModel::OverrunWithProbability(0.3);
        let mut overruns = 0;
        let n = 10_000;
        for _ in 0..n {
            if model.draw(&hc, &mut rng) > hc.c_lo() {
                overruns += 1;
            }
        }
        let rate = overruns as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
        // LC jobs never overrun their own budget.
        let lc = lc_task();
        for _ in 0..100 {
            assert!(model.draw(&lc, &mut rng) <= lc.c_lo());
        }
    }

    #[test]
    fn profile_model_respects_bounds_and_moments() {
        let profile = ExecutionProfile::new(5_000_000.0, 1_000_000.0, 40_000_000.0).unwrap();
        let task = McTask::builder(TaskId::new(2))
            .criticality(Criticality::Hi)
            .period(Duration::from_millis(100))
            .c_lo(Duration::from_millis(10))
            .c_hi(Duration::from_millis(40))
            .profile(profile)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut acc = mc_stats::summary::OnlineSummary::new();
        for _ in 0..20_000 {
            let d = JobExecModel::Profile.draw(&task, &mut rng);
            assert!(d >= Duration::from_nanos(1) && d <= task.c_hi());
            acc.push(d.as_nanos() as f64).unwrap();
        }
        let s = acc.finish().unwrap();
        assert!((s.mean() - 5.0e6).abs() < 5e4);
        assert!((s.std_dev() - 1.0e6).abs() < 5e4);
    }

    #[test]
    fn profile_model_prefers_the_fitted_weibull_law() {
        use mc_task::WeibullFit;
        // k = 1 (exponential): mean = location + scale = 3 ms, easy to
        // check against the empirical mean of the clamped draw.
        let fit = WeibullFit {
            location: 1_000_000.0,
            shape: 1.0,
            scale: 2_000_000.0,
        };
        let profile = ExecutionProfile::new(3_000_000.0, 2_000_000.0, 40_000_000.0)
            .unwrap()
            .with_weibull(fit)
            .unwrap();
        let task = McTask::builder(TaskId::new(4))
            .criticality(Criticality::Hi)
            .period(Duration::from_millis(100))
            .c_lo(Duration::from_millis(10))
            .c_hi(Duration::from_millis(40))
            .profile(profile)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut acc = mc_stats::summary::OnlineSummary::new();
        let location = Duration::from_nanos(1_000_000);
        for _ in 0..20_000 {
            let d = JobExecModel::Profile.draw(&task, &mut rng);
            assert!(d >= location && d <= task.c_hi(), "draw {d:?}");
            acc.push(d.as_nanos() as f64).unwrap();
        }
        let s = acc.finish().unwrap();
        // The C_HI clamp trims a ~3e-9 tail; the mean stays on the fit.
        assert!((s.mean() - 3.0e6).abs() / 3.0e6 < 0.03, "mean {}", s.mean());
        // Skewed right: median well below the mean, unlike the normal path.
        let mut rng2 = StdRng::seed_from_u64(7);
        let mut below = 0usize;
        for _ in 0..20_000 {
            if JobExecModel::Profile.draw(&task, &mut rng2).as_nanos() as f64 <= 3.0e6 {
                below += 1;
            }
        }
        assert!(below as f64 / 20_000.0 > 0.6, "not right-skewed: {below}");
    }

    #[test]
    fn profile_model_without_profile_uses_half_to_full_budget() {
        let task = lc_task();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1_000 {
            let d = JobExecModel::Profile.draw(&task, &mut rng);
            assert!(d >= task.c_lo().mul_f64(0.5) && d <= task.c_lo());
        }
    }
}
