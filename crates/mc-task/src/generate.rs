//! Synthetic task-set generation.
//!
//! The paper's evaluation (§V) generates 1000 synthetic dual-criticality
//! task sets per utilisation point, "in line with previous works": tasks are
//! added at random until the target utilisation bound is reached, periods
//! are drawn uniformly from [100, 900] ms, and (for Fig. 6) a task is HC or
//! LC with equal probability. This module reproduces that generator and also
//! provides the classic UUniFast algorithm for fixed-cardinality sets.
//!
//! Each generated HC task carries an [`ExecutionProfile`] so that WCET
//! assignment policies can be applied afterwards; the task's `C_LO` is
//! initialised pessimistically to `C_HI` (the policy overrides it).

use crate::criticality::Criticality;
use crate::profile::ExecutionProfile;
use crate::task::{McTask, TaskId};
use crate::taskset::TaskSet;
use crate::time::Duration;
use crate::TaskError;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration for the synthetic generator.
///
/// Defaults reproduce the paper's setup: periods in [100, 900] ms, equal
/// HC/LC probability, a per-task HI-mode utilisation in [0.02, 0.2], a
/// pessimistic-to-average WCET ratio in [5, 60] (Table I observes 8.1× to
/// 59×), and an execution-time coefficient of variation in [0.02, 0.3].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Period range in milliseconds, inclusive.
    pub period_ms: (u64, u64),
    /// Per-task utilisation range (HI-mode utilisation for HC tasks,
    /// LO-mode utilisation for LC tasks).
    pub task_utilization: (f64, f64),
    /// Range for `WCET_pes / ACET`.
    pub wcet_ratio: (f64, f64),
    /// Range for `σ / ACET` (coefficient of variation).
    pub coefficient_of_variation: (f64, f64),
    /// Probability that a generated task is high-criticality.
    pub p_high: f64,
    /// Hard cap on the number of tasks per set (guards against
    /// pathological configurations that never reach the target).
    pub max_tasks: usize,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            period_ms: (100, 900),
            task_utilization: (0.02, 0.2),
            wcet_ratio: (5.0, 60.0),
            coefficient_of_variation: (0.02, 0.3),
            p_high: 0.5,
            max_tasks: 512,
        }
    }
}

impl GeneratorConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TaskError::InvalidGeneratorConfig`] when any range is
    /// empty/inverted, the probability is outside [0, 1], utilisations are
    /// outside (0, 1], or the WCET ratio dips below 1.
    pub fn validate(&self) -> Result<(), TaskError> {
        let err = |reason| Err(TaskError::InvalidGeneratorConfig { reason });
        if self.period_ms.0 == 0 || self.period_ms.1 < self.period_ms.0 {
            return err("period range must be non-empty and start above zero");
        }
        let (ulo, uhi) = self.task_utilization;
        if !(ulo.is_finite() && uhi.is_finite()) || ulo <= 0.0 || uhi < ulo || uhi > 1.0 {
            return err("task utilization range must satisfy 0 < lo <= hi <= 1");
        }
        let (rlo, rhi) = self.wcet_ratio;
        if !(rlo.is_finite() && rhi.is_finite()) || rlo < 1.0 || rhi < rlo {
            return err("wcet ratio range must satisfy 1 <= lo <= hi");
        }
        let (clo, chi) = self.coefficient_of_variation;
        if !(clo.is_finite() && chi.is_finite()) || clo < 0.0 || chi < clo {
            return err("coefficient of variation range must satisfy 0 <= lo <= hi");
        }
        if !self.p_high.is_finite() || !(0.0..=1.0).contains(&self.p_high) {
            return err("p_high must be in [0, 1]");
        }
        if self.max_tasks == 0 {
            return err("max_tasks must be non-zero");
        }
        Ok(())
    }

    /// Validates once and returns a proof-of-validation wrapper, so the
    /// per-task generators don't re-run the checks for every task of a
    /// set. `mc-lint`'s `lint_generator_config` reports the same
    /// violations (code `S009`) with full detail.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GeneratorConfig::validate`].
    pub fn checked(&self) -> Result<CheckedGeneratorConfig<'_>, TaskError> {
        self.validate()?;
        Ok(CheckedGeneratorConfig(self))
    }
}

/// A [`GeneratorConfig`] that has passed [`GeneratorConfig::validate`]
/// exactly once. Constructed via [`GeneratorConfig::checked`]; holding one
/// is proof the ranges are sane, so the generation loops skip
/// re-validation on every task.
#[derive(Debug, Clone, Copy)]
pub struct CheckedGeneratorConfig<'a>(&'a GeneratorConfig);

impl std::ops::Deref for CheckedGeneratorConfig<'_> {
    type Target = GeneratorConfig;

    fn deref(&self) -> &GeneratorConfig {
        self.0
    }
}

impl CheckedGeneratorConfig<'_> {
    // The sampling helpers live on the *checked* wrapper on purpose: an
    // unvalidated `GeneratorConfig` can hold inverted ranges (e.g.
    // `period_ms: (900, 100)`) or NaN bounds, and a sampler reachable from
    // it would have to coerce them silently. Here validation has already
    // guaranteed `lo <= hi` and finiteness, so the only special case left
    // is the degenerate point range.
    fn sample_period<R: Rng + ?Sized>(&self, rng: &mut R) -> Duration {
        Duration::from_millis(rng.random_range(self.period_ms.0..=self.period_ms.1))
    }

    fn sample_range<R: Rng + ?Sized>(&self, rng: &mut R, (lo, hi): (f64, f64)) -> f64 {
        if hi <= lo {
            lo
        } else {
            rng.random_range(lo..hi)
        }
    }
}

/// Generates one high-criticality task with HI-mode utilisation `u_hi`.
///
/// The pessimistic WCET is `u_hi · P`; the ACET is drawn via the WCET/ACET
/// ratio; σ via the coefficient of variation. `C_LO` starts at `C_HI` — the
/// caller's WCET-assignment policy is expected to lower it.
///
/// # Errors
///
/// Returns an error when `u_hi` is outside (0, 1] or the configuration is
/// invalid.
pub fn generate_hc_task<R: Rng + ?Sized>(
    id: TaskId,
    u_hi: f64,
    cfg: &GeneratorConfig,
    rng: &mut R,
) -> Result<McTask, TaskError> {
    hc_task_checked(id, u_hi, cfg.checked()?, rng)
}

fn hc_task_checked<R: Rng + ?Sized>(
    id: TaskId,
    u_hi: f64,
    cfg: CheckedGeneratorConfig<'_>,
    rng: &mut R,
) -> Result<McTask, TaskError> {
    if !u_hi.is_finite() || u_hi <= 0.0 || u_hi > 1.0 {
        return Err(TaskError::InvalidGeneratorConfig {
            reason: "requested task utilization must be in (0, 1]",
        });
    }
    let period = cfg.sample_period(rng);
    let c_hi = period.mul_f64(u_hi).max(Duration::from_nanos(1));
    let wcet_pes = c_hi.as_nanos() as f64;
    let ratio = cfg.sample_range(rng, cfg.wcet_ratio);
    let acet = wcet_pes / ratio;
    let cv = cfg.sample_range(rng, cfg.coefficient_of_variation);
    // Keep σ small enough that ACET + σ stays below WCET_pes even for n = 1.
    let sigma = (cv * acet).min((wcet_pes - acet).max(0.0));
    let profile = ExecutionProfile::new(acet, sigma, wcet_pes)?;
    McTask::builder(id)
        .criticality(Criticality::Hi)
        .period(period)
        .c_lo(c_hi)
        .c_hi(c_hi)
        .profile(profile)
        .build()
}

/// Generates one low-criticality task with utilisation `u`.
///
/// # Errors
///
/// Returns an error when `u` is outside (0, 1] or the configuration is
/// invalid.
pub fn generate_lc_task<R: Rng + ?Sized>(
    id: TaskId,
    u: f64,
    cfg: &GeneratorConfig,
    rng: &mut R,
) -> Result<McTask, TaskError> {
    lc_task_checked(id, u, cfg.checked()?, rng)
}

fn lc_task_checked<R: Rng + ?Sized>(
    id: TaskId,
    u: f64,
    cfg: CheckedGeneratorConfig<'_>,
    rng: &mut R,
) -> Result<McTask, TaskError> {
    if !u.is_finite() || u <= 0.0 || u > 1.0 {
        return Err(TaskError::InvalidGeneratorConfig {
            reason: "requested task utilization must be in (0, 1]",
        });
    }
    let period = cfg.sample_period(rng);
    let c = period.mul_f64(u).max(Duration::from_nanos(1));
    McTask::builder(id).period(period).c_lo(c).build()
}

/// Generates a task set containing only HC tasks whose total HI-mode
/// utilisation is `target_u_hi` (to within the final task's trim).
///
/// This is the generator behind the paper's Figs. 2–5, which sweep
/// `U_HC^HI` while LC demand is characterised analytically by
/// `max(U_LC^LO)`.
///
/// # Errors
///
/// Returns an error when the target is not in (0, 1], the configuration is
/// invalid, or the `max_tasks` cap is reached before the target.
pub fn generate_hc_taskset<R: Rng + ?Sized>(
    target_u_hi: f64,
    cfg: &GeneratorConfig,
    rng: &mut R,
) -> Result<TaskSet, TaskError> {
    let cfg = cfg.checked()?;
    if !target_u_hi.is_finite() || target_u_hi <= 0.0 || target_u_hi > 1.0 {
        return Err(TaskError::InvalidGeneratorConfig {
            reason: "target utilization must be in (0, 1]",
        });
    }
    let mut ts = TaskSet::new();
    let mut remaining = target_u_hi;
    let mut next_id = 0u32;
    // Ignore crumbs below this threshold instead of creating micro-tasks.
    const CRUMB: f64 = 1e-4;
    while remaining > CRUMB {
        if ts.len() >= cfg.max_tasks {
            return Err(TaskError::InvalidGeneratorConfig {
                reason: "max_tasks reached before the utilization target",
            });
        }
        let mut u = cfg.sample_range(rng, cfg.task_utilization);
        if u > remaining {
            u = remaining;
        }
        let task = hc_task_checked(TaskId::new(next_id), u, cfg, rng)?;
        remaining -= task.u_hi();
        ts.push(task).expect("ids are sequential and unique");
        next_id += 1;
    }
    Ok(ts)
}

/// Generates a mixed task set per the paper's Fig. 6 setup: tasks are HC
/// with probability `cfg.p_high`, and tasks are added until the *bound
/// utilisation* — `U_HC^HI + U_LC^LO`, the two demands appearing in the
/// schedulability conditions — reaches `u_bound`.
///
/// # Errors
///
/// Same conditions as [`generate_hc_taskset`].
pub fn generate_mixed_taskset<R: Rng + ?Sized>(
    u_bound: f64,
    cfg: &GeneratorConfig,
    rng: &mut R,
) -> Result<TaskSet, TaskError> {
    let cfg = cfg.checked()?;
    if !u_bound.is_finite() || u_bound <= 0.0 || u_bound > 2.0 {
        return Err(TaskError::InvalidGeneratorConfig {
            reason: "u_bound must be in (0, 2]",
        });
    }
    let mut ts = TaskSet::new();
    let mut remaining = u_bound;
    let mut next_id = 0u32;
    const CRUMB: f64 = 1e-4;
    while remaining > CRUMB {
        if ts.len() >= cfg.max_tasks {
            return Err(TaskError::InvalidGeneratorConfig {
                reason: "max_tasks reached before the utilization target",
            });
        }
        let mut u = cfg.sample_range(rng, cfg.task_utilization);
        if u > remaining {
            u = remaining;
        }
        let high = rng.random::<f64>() < cfg.p_high;
        let id = TaskId::new(next_id);
        let task = if high {
            hc_task_checked(id, u, cfg, rng)?
        } else {
            lc_task_checked(id, u, cfg, rng)?
        };
        remaining -= if high { task.u_hi() } else { task.u_lo() };
        ts.push(task).expect("ids are sequential and unique");
        next_id += 1;
    }
    Ok(ts)
}

/// Generates a mixed task set whose **LO-mode** utilisation reaches
/// `u_bound`, with HC tasks designed the way the λ-baseline papers design
/// them: a per-task fraction `λᵢ` is drawn uniformly from `lambda_range`
/// and the task's optimistic WCET is `C_LO = λᵢ · C_HI`.
///
/// This is the Fig. 6 generator: the *visible* LO-mode demand
/// (`Σ λᵢ·uᵢ^HI` over HC tasks plus `Σ uᵢ` over LC tasks) is what reaches
/// the bound, while the *hidden* HI-mode demand `uᵢ^HI = uᵢ^LO/λᵢ` is what
/// breaks EDF-VD schedulability as the bound grows — exactly the failure
/// mode the paper's scheme avoids by re-deriving `C_LO` from `(ACET, σ)`.
///
/// # Errors
///
/// Returns an error when `u_bound` is outside (0, 2], the λ range is not
/// within (0, 1] with `lo ≤ hi`, or generation hits the `max_tasks` cap.
pub fn generate_lo_bounded_taskset<R: Rng + ?Sized>(
    u_bound: f64,
    lambda_range: (f64, f64),
    cfg: &GeneratorConfig,
    rng: &mut R,
) -> Result<TaskSet, TaskError> {
    let cfg = cfg.checked()?;
    if !u_bound.is_finite() || u_bound <= 0.0 || u_bound > 2.0 {
        return Err(TaskError::InvalidGeneratorConfig {
            reason: "u_bound must be in (0, 2]",
        });
    }
    let (l_lo, l_hi) = lambda_range;
    if !(l_lo.is_finite() && l_hi.is_finite()) || l_lo <= 0.0 || l_hi > 1.0 || l_lo > l_hi {
        return Err(TaskError::InvalidGeneratorConfig {
            reason: "lambda range must satisfy 0 < lo <= hi <= 1",
        });
    }
    let mut ts = TaskSet::new();
    let mut remaining = u_bound;
    let mut next_id = 0u32;
    const CRUMB: f64 = 1e-4;
    while remaining > CRUMB {
        if ts.len() >= cfg.max_tasks {
            return Err(TaskError::InvalidGeneratorConfig {
                reason: "max_tasks reached before the utilization target",
            });
        }
        let high = rng.random::<f64>() < cfg.p_high;
        let id = TaskId::new(next_id);
        if high {
            // Draw the HI-mode size and the λ fraction, then express the
            // task's *LO-mode* contribution λ·u_hi toward the bound.
            let lambda = if l_hi > l_lo {
                rng.random_range(l_lo..=l_hi)
            } else {
                l_lo
            };
            let mut u_hi = cfg.sample_range(rng, cfg.task_utilization);
            if lambda * u_hi > remaining {
                u_hi = remaining / lambda;
            }
            let mut task = hc_task_checked(id, u_hi.min(1.0), cfg, rng)?;
            let c_lo = task.c_hi().mul_f64(lambda).max(Duration::from_nanos(1));
            task.set_c_lo(c_lo)?;
            remaining -= task.u_lo();
            ts.push(task).expect("ids are sequential and unique");
        } else {
            let mut u = cfg.sample_range(rng, cfg.task_utilization);
            if u > remaining {
                u = remaining;
            }
            let task = lc_task_checked(id, u, cfg, rng)?;
            remaining -= task.u_lo();
            ts.push(task).expect("ids are sequential and unique");
        }
        next_id += 1;
    }
    Ok(ts)
}

/// The UUniFast algorithm (Bini & Buttazzo): draws `n` per-task utilisations
/// that sum exactly to `total` with an unbiased uniform distribution over
/// the simplex.
///
/// # Errors
///
/// Returns an error when `n == 0` or `total` is not strictly positive.
pub fn uunifast<R: Rng + ?Sized>(n: usize, total: f64, rng: &mut R) -> Result<Vec<f64>, TaskError> {
    if n == 0 {
        return Err(TaskError::InvalidGeneratorConfig {
            reason: "uunifast requires at least one task",
        });
    }
    if !total.is_finite() || total <= 0.0 {
        return Err(TaskError::InvalidGeneratorConfig {
            reason: "uunifast total utilization must be strictly positive",
        });
    }
    let mut out = Vec::with_capacity(n);
    let mut sum = total;
    for i in 1..n {
        let next = sum * rng.random::<f64>().powf(1.0 / (n - i) as f64);
        out.push(sum - next);
        sum = next;
    }
    out.push(sum);
    Ok(out)
}

/// [`uunifast`] with the standard discard rule: the whole vector is redrawn
/// while any share exceeds `cap` (per-task utilisations above 1 — or above
/// a caller-chosen ceiling — are infeasible), with a bounded retry budget
/// so an unlucky or over-constrained draw surfaces a structured error
/// instead of spinning.
///
/// # Errors
///
/// Returns [`TaskError::InvalidGeneratorConfig`] when the inputs are
/// degenerate (`n == 0`, non-positive `total`, non-positive/NaN `cap`, or
/// `total > n · cap`, which no draw can satisfy) and
/// [`TaskError::RetriesExhausted`] when `max_retries` redraws all contained
/// an over-cap share.
pub fn uunifast_capped<R: Rng + ?Sized>(
    n: usize,
    total: f64,
    cap: f64,
    max_retries: usize,
    rng: &mut R,
) -> Result<Vec<f64>, TaskError> {
    if !cap.is_finite() || cap <= 0.0 {
        return Err(TaskError::InvalidGeneratorConfig {
            reason: "uunifast cap must be strictly positive",
        });
    }
    if total > n as f64 * cap {
        return Err(TaskError::InvalidGeneratorConfig {
            reason: "uunifast total exceeds n * cap; no draw can satisfy it",
        });
    }
    for _ in 0..max_retries.max(1) {
        let us = uunifast(n, total, rng)?;
        if us.iter().all(|&u| u <= cap) {
            return Ok(us);
        }
    }
    Err(TaskError::RetriesExhausted {
        what: "UUniFast draw under the utilisation cap",
        retries: max_retries.max(1),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn default_config_is_valid() {
        GeneratorConfig::default().validate().unwrap();
    }

    #[test]
    fn config_validation_catches_bad_ranges() {
        let base = GeneratorConfig::default;
        let bad = [
            GeneratorConfig {
                period_ms: (0, 10),
                ..base()
            },
            GeneratorConfig {
                period_ms: (200, 100),
                ..base()
            },
            GeneratorConfig {
                task_utilization: (0.0, 0.5),
                ..base()
            },
            GeneratorConfig {
                task_utilization: (0.1, 1.5),
                ..base()
            },
            GeneratorConfig {
                wcet_ratio: (0.5, 2.0),
                ..base()
            },
            GeneratorConfig {
                coefficient_of_variation: (-0.1, 0.2),
                ..base()
            },
            GeneratorConfig {
                p_high: 1.5,
                ..base()
            },
            GeneratorConfig {
                max_tasks: 0,
                ..base()
            },
        ];
        for cfg in bad {
            assert!(cfg.validate().is_err(), "{cfg:?} should be invalid");
        }
    }

    #[test]
    fn inverted_and_nan_ranges_never_reach_a_sampler() {
        // Regression for the silent-coercion hazard: the samplers used to
        // live on the unchecked config, where an inverted range collapsed
        // to `lo` and a NaN bound sailed through. They now require a
        // `CheckedGeneratorConfig`, and these configs can't produce one.
        let bad = [
            GeneratorConfig {
                period_ms: (900, 100),
                ..GeneratorConfig::default()
            },
            GeneratorConfig {
                coefficient_of_variation: (f64::NAN, 0.3),
                ..GeneratorConfig::default()
            },
            GeneratorConfig {
                coefficient_of_variation: (0.02, f64::NAN),
                ..GeneratorConfig::default()
            },
            GeneratorConfig {
                wcet_ratio: (60.0, 5.0),
                ..GeneratorConfig::default()
            },
            GeneratorConfig {
                task_utilization: (0.2, f64::INFINITY),
                ..GeneratorConfig::default()
            },
        ];
        for cfg in bad {
            assert!(cfg.checked().is_err(), "{cfg:?} must not check out");
            let mut r = rng(40);
            assert!(generate_hc_task(TaskId::new(0), 0.1, &cfg, &mut r).is_err());
            assert!(generate_mixed_taskset(0.5, &cfg, &mut rng(41)).is_err());
        }
        // A degenerate-but-valid point range still samples fine.
        let point = GeneratorConfig {
            period_ms: (250, 250),
            wcet_ratio: (8.0, 8.0),
            coefficient_of_variation: (0.1, 0.1),
            ..GeneratorConfig::default()
        };
        let t = generate_hc_task(TaskId::new(0), 0.1, &point, &mut rng(42)).unwrap();
        assert_eq!(t.period(), Duration::from_millis(250));
    }

    #[test]
    fn checked_wrapper_mirrors_validate() {
        let good = GeneratorConfig::default();
        let checked = good.checked().unwrap();
        // Deref exposes the underlying config unchanged.
        assert_eq!(checked.period_ms, good.period_ms);
        let bad = GeneratorConfig {
            max_tasks: 0,
            ..GeneratorConfig::default()
        };
        assert!(bad.checked().is_err());
        assert_eq!(
            bad.checked().unwrap_err().to_string(),
            bad.validate().unwrap_err().to_string(),
        );
    }

    #[test]
    fn hc_task_has_profile_and_paper_period_range() {
        let cfg = GeneratorConfig::default();
        let mut r = rng(1);
        for i in 0..50 {
            let t = generate_hc_task(TaskId::new(i), 0.1, &cfg, &mut r).unwrap();
            assert!(t.is_high());
            let p_ms = t.period().as_millis_f64();
            assert!((100.0..=900.0).contains(&p_ms), "period {p_ms} ms");
            assert!((t.u_hi() - 0.1).abs() < 1e-6);
            assert_eq!(t.c_lo(), t.c_hi(), "C_LO starts pessimistic");
            let profile = t.profile().expect("HC tasks carry a profile");
            assert!(profile.acet() > 0.0);
            assert!(profile.wcet_pes() >= profile.acet());
            let ratio = profile.wcet_ratio();
            assert!((5.0..=60.0).contains(&ratio), "ratio {ratio}");
        }
    }

    #[test]
    fn lc_task_has_no_profile() {
        let cfg = GeneratorConfig::default();
        let mut r = rng(2);
        let t = generate_lc_task(TaskId::new(0), 0.05, &cfg, &mut r).unwrap();
        assert!(!t.is_high());
        assert!(t.profile().is_none());
        assert!((t.u_lo() - 0.05).abs() < 1e-6);
    }

    #[test]
    fn utilization_out_of_range_is_rejected() {
        let cfg = GeneratorConfig::default();
        let mut r = rng(3);
        assert!(generate_hc_task(TaskId::new(0), 0.0, &cfg, &mut r).is_err());
        assert!(generate_hc_task(TaskId::new(0), 1.5, &cfg, &mut r).is_err());
        assert!(generate_lc_task(TaskId::new(0), -0.1, &cfg, &mut r).is_err());
    }

    #[test]
    fn hc_taskset_hits_the_target_utilization() {
        let cfg = GeneratorConfig::default();
        for seed in 0..20 {
            let mut r = rng(seed);
            let target = 0.4 + 0.025 * (seed % 20) as f64;
            let ts = generate_hc_taskset(target, &cfg, &mut r).unwrap();
            assert!(
                (ts.u_hc_hi() - target).abs() < 2e-3,
                "seed {seed}: got {} want {target}",
                ts.u_hc_hi()
            );
            assert_eq!(ts.lc_count(), 0);
            assert!(!ts.is_empty());
        }
    }

    #[test]
    fn mixed_taskset_hits_the_bound_and_mixes_criticalities() {
        let cfg = GeneratorConfig::default();
        let mut hc_total = 0usize;
        let mut lc_total = 0usize;
        for seed in 100..120 {
            let mut r = rng(seed);
            let ts = generate_mixed_taskset(0.8, &cfg, &mut r).unwrap();
            let bound_u = ts.u_hc_hi() + ts.u_lc_lo();
            assert!((bound_u - 0.8).abs() < 2e-3, "seed {seed}: {bound_u}");
            hc_total += ts.hc_count();
            lc_total += ts.lc_count();
        }
        // With p_high = 0.5 over 20 sets both kinds must appear.
        assert!(hc_total > 0 && lc_total > 0);
        let frac = hc_total as f64 / (hc_total + lc_total) as f64;
        assert!((0.3..0.7).contains(&frac), "HC fraction {frac}");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = GeneratorConfig::default();
        let a = generate_mixed_taskset(0.6, &cfg, &mut rng(7)).unwrap();
        let b = generate_mixed_taskset(0.6, &cfg, &mut rng(7)).unwrap();
        assert_eq!(a, b);
        let c = generate_mixed_taskset(0.6, &cfg, &mut rng(8)).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn max_tasks_cap_fires() {
        let cfg = GeneratorConfig {
            max_tasks: 2,
            task_utilization: (0.02, 0.05),
            ..GeneratorConfig::default()
        };
        let mut r = rng(9);
        assert!(generate_hc_taskset(0.9, &cfg, &mut r).is_err());
    }

    #[test]
    fn lo_bounded_taskset_hits_the_lo_bound() {
        let cfg = GeneratorConfig::default();
        for seed in 0..15u64 {
            let mut r = rng(300 + seed);
            let ts = generate_lo_bounded_taskset(0.9, (0.25, 1.0), &cfg, &mut r).unwrap();
            let u_lo = ts.u_total_lo();
            assert!((u_lo - 0.9).abs() < 5e-3, "seed {seed}: U_LO = {u_lo}");
            // The hidden HI-mode demand exceeds the visible LO-mode demand.
            assert!(ts.u_hc_hi() >= ts.u_hc_lo());
            for t in ts.hc_tasks() {
                let lambda = t.c_lo().as_nanos() as f64 / t.c_hi().as_nanos() as f64;
                assert!(
                    (0.24..=1.01).contains(&lambda),
                    "seed {seed}: lambda {lambda}"
                );
                assert!(t.profile().is_some());
            }
        }
    }

    #[test]
    fn lo_bounded_taskset_validates_input() {
        let cfg = GeneratorConfig::default();
        let mut r = rng(0);
        assert!(generate_lo_bounded_taskset(0.0, (0.25, 1.0), &cfg, &mut r).is_err());
        assert!(generate_lo_bounded_taskset(0.5, (0.0, 1.0), &cfg, &mut r).is_err());
        assert!(generate_lo_bounded_taskset(0.5, (0.5, 0.25), &cfg, &mut r).is_err());
        assert!(generate_lo_bounded_taskset(0.5, (0.5, 1.5), &cfg, &mut r).is_err());
    }

    #[test]
    fn uunifast_sums_to_total() {
        let mut r = rng(10);
        for n in [1usize, 2, 5, 20] {
            let us = uunifast(n, 0.75, &mut r).unwrap();
            assert_eq!(us.len(), n);
            let sum: f64 = us.iter().sum();
            assert!((sum - 0.75).abs() < 1e-9, "n={n}: sum {sum}");
            assert!(us.iter().all(|&u| u >= 0.0));
        }
    }

    #[test]
    fn uunifast_rejects_degenerate_input() {
        let mut r = rng(11);
        assert!(uunifast(0, 0.5, &mut r).is_err());
        assert!(uunifast(3, 0.0, &mut r).is_err());
        assert!(uunifast(3, f64::NAN, &mut r).is_err());
    }

    #[test]
    fn uunifast_is_byte_stable_per_seed() {
        let a = uunifast(12, 0.8, &mut rng(99)).unwrap();
        let b = uunifast(12, 0.8, &mut rng(99)).unwrap();
        // Bitwise equality, not approximate: the campaign seed contract
        // relies on identical draws producing identical bytes.
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn uunifast_capped_discards_over_cap_draws() {
        // A loose cap accepts the first draw; a tight-but-feasible cap
        // forces the discard loop to actually fire and still terminate.
        let mut r = rng(12);
        let us = uunifast_capped(8, 0.9, 1.0, 64, &mut r).unwrap();
        assert!((us.iter().sum::<f64>() - 0.9).abs() < 1e-9);
        let mut r = rng(12);
        let tight = uunifast_capped(4, 1.2, 0.4, 10_000, &mut r).unwrap();
        assert!((tight.iter().sum::<f64>() - 1.2).abs() < 1e-9);
        assert!(tight.iter().all(|&u| (0.0..=0.4).contains(&u)));
    }

    #[test]
    fn uunifast_capped_surfaces_structured_errors() {
        let mut r = rng(13);
        // Infeasible outright: total > n * cap.
        assert_eq!(
            uunifast_capped(4, 2.5, 0.5, 100, &mut r),
            Err(TaskError::InvalidGeneratorConfig {
                reason: "uunifast total exceeds n * cap; no draw can satisfy it",
            })
        );
        assert!(uunifast_capped(4, 0.5, f64::NAN, 100, &mut r).is_err());
        assert!(uunifast_capped(4, 0.5, 0.0, 100, &mut r).is_err());
        // Feasible but vanishingly likely (needs an almost perfectly even
        // split): the bounded loop must give up with RetriesExhausted.
        let err = uunifast_capped(4, 1.99, 0.4999, 50, &mut r).unwrap_err();
        assert!(matches!(
            err,
            TaskError::RetriesExhausted { retries: 50, .. }
        ));
    }

    mod properties {
        use super::*;
        use mc_fault::{assert_prop, PropConfig};

        #[test]
        fn generated_sets_respect_invariants() {
            assert_prop(
                &PropConfig::named("generated_sets_respect_invariants").cases(32),
                |rng| (rng.below(10_000), rng.f64()),
                |&(seed, u_target)| {
                    let target = 0.05 + 0.9 * u_target;
                    let cfg = GeneratorConfig::default();
                    let mut r = StdRng::seed_from_u64(seed);
                    let ts = generate_mixed_taskset(target, &cfg, &mut r).unwrap();
                    for t in &ts {
                        assert!(t.u_hi() <= 1.0 + 1e-9);
                        assert!(t.c_lo() <= t.c_hi());
                        if t.is_high() {
                            let p = t.profile().unwrap();
                            assert!(p.acet() <= p.wcet_pes());
                            assert!(p.sigma() >= 0.0);
                            // Eq. 9 is satisfiable: at n = 1 the level stays below WCET_pes.
                            assert!(p.level(1.0) <= p.wcet_pes() + 1e-6);
                        }
                    }
                    let bound_u = ts.u_hc_hi() + ts.u_lc_lo();
                    assert!((bound_u - target).abs() < 5e-3);
                    Ok(())
                },
            );
        }

        #[test]
        fn uunifast_is_a_probability_partition() {
            assert_prop(
                &PropConfig::named("uunifast_is_a_probability_partition").cases(32),
                #[expect(clippy::cast_possible_truncation, reason = "a draw below 29")]
                |rng| (rng.below(10_000), rng.below(29) as usize, rng.f64()),
                |&(seed, extra_n, u_total)| {
                    let (n, total) = (1 + extra_n, 0.01 + 0.99 * u_total);
                    let mut r = StdRng::seed_from_u64(seed);
                    let us = uunifast(n, total, &mut r).unwrap();
                    let sum: f64 = us.iter().sum();
                    assert!((sum - total).abs() < 1e-9);
                    assert!(us.iter().all(|&u| (0.0..=total + 1e-12).contains(&u)));
                    Ok(())
                },
            );
        }
    }
}
