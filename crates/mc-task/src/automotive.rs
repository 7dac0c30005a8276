//! The automotive workload family, calibrated to the Bosch
//! "Real World Automotive Benchmarks For Free" data (WATERS 2015).
//!
//! The paper's §V generator mirrors small synthetic sets with uniform
//! periods; this module opens task sets with 10³–10⁴ runnables and
//! genuinely heavy-tailed execution times, where the Chebyshev/Cantelli
//! bound's distribution-independence is actually stressed:
//!
//! 1. **Periods** come from the published 9-bin period/share table
//!    ([`PERIOD_MS`], [`SHARE_PERCENT`]). The shares sum to 85 % — the
//!    missing 15 % are the engine-angle-synchronous runnables, which have
//!    no fixed period and are dropped, so counts are normalised over
//!    [`SHARE_TOTAL`]. Bin counts use largest-remainder apportionment
//!    ([`allocate_bin_counts`]), which is deterministic and exact.
//! 2. **Utilisation** is split per bin with UUniFast plus the standard
//!    discard rule ([`crate::generate::uunifast_capped`]): a draw with any
//!    share above the per-task cap is redrawn whole, with a bounded retry
//!    budget surfacing [`TaskError::RetriesExhausted`] instead of spinning.
//! 3. **BCET/ACET/WCET** per task come from the published factor matrices
//!    ([`BCET_FACTOR`], [`WCET_FACTOR`]): the task's budget WCET is
//!    `uᵢ · Pᵢ`, the ACET is `WCET / f_wcet`, and the BCET is
//!    `f_bcet · ACET`, with the factor pair redrawn while the triple's
//!    mean-position ratio `(ACET−BCET)/(WCET−BCET)` falls below
//!    [`WEIBULL_FEASIBLE_MEAN_RATIO`] (a corner like `f_bcet = 0.99` with
//!    `f_wcet = 30` admits no Weibull whose mean lands on the ACET).
//! 4. **Execution times** follow a per-task three-parameter Weibull fitted
//!    to the (BCET, ACET, WCET) triple (`mc_stats::Dist::weibull_from_triple`);
//!    the fitted parameters ride on the task's [`ExecutionProfile`] as a
//!    [`WeibullFit`] so the simulator's profile-driven execution model
//!    draws from the heavy-tailed law, and the profile's σ is the fitted
//!    distribution's analytic standard deviation, which is what the
//!    paper's `C_LO = ACET + n·σ` machinery consumes.
//!
//! **Seed contract** (relied on by the `automotive` campaign for
//! byte-identity across shards/threads/serve): for each bin in table
//! order, the generator consumes the UUniFast draws first, then per task
//! the factor pair (redrawn in place on discard) followed by the
//! criticality draw. Any change to this order is a breaking change to
//! recorded campaign stores.

use crate::criticality::Criticality;
use crate::generate::uunifast_capped;
use crate::profile::{ExecutionProfile, WeibullFit};
use crate::task::{McTask, TaskId};
use crate::taskset::TaskSet;
use crate::time::Duration;
use crate::TaskError;
use mc_stats::dist::Dist;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Number of fixed-period bins in the Bosch tables.
pub const BIN_COUNT: usize = 9;

/// Period of each bin, in milliseconds (Bosch Table III).
pub const PERIOD_MS: [u64; BIN_COUNT] = [1, 2, 5, 10, 20, 50, 100, 200, 1000];

/// Share of runnables per bin, in percent (Bosch Table III). Sums to
/// [`SHARE_TOTAL`], not 100: the angle-synchronous 15 % has no fixed
/// period and is excluded from the periodic model.
pub const SHARE_PERCENT: [f64; BIN_COUNT] = [3.0, 2.0, 2.0, 25.0, 25.0, 3.0, 20.0, 1.0, 4.0];

/// Total of [`SHARE_PERCENT`]; bin counts are normalised over this.
pub const SHARE_TOTAL: f64 = 85.0;

/// Per-bin average execution time statistics `(min, avg, max)` in
/// microseconds (Bosch Table IV). Reference calibration data: the
/// generator scales execution demand from the utilisation target instead,
/// but the lint pass checks these stay ordered and the docs cite them.
pub const ACET_US: [[f64; 3]; BIN_COUNT] = [
    [0.34, 5.00, 30.11],
    [0.32, 4.20, 40.69],
    [0.36, 11.04, 83.38],
    [0.21, 10.09, 309.87],
    [0.25, 8.74, 291.42],
    [0.29, 17.56, 92.98],
    [0.21, 10.53, 420.43],
    [0.22, 2.56, 21.95],
    [0.37, 0.43, 0.46],
];

/// Per-bin `BCET/ACET` factor bounds `(min, max)` (Bosch Table V); all
/// within `(0, 1)`.
pub const BCET_FACTOR: [[f64; 2]; BIN_COUNT] = [
    [0.19, 0.92],
    [0.12, 0.89],
    [0.17, 0.94],
    [0.05, 0.99],
    [0.11, 0.98],
    [0.32, 0.95],
    [0.09, 0.99],
    [0.45, 0.98],
    [0.68, 0.80],
];

/// Per-bin `WCET/ACET` factor bounds `(min, max)` (Bosch Table V); all
/// above 1.
pub const WCET_FACTOR: [[f64; 2]; BIN_COUNT] = [
    [1.30, 29.11],
    [1.54, 19.04],
    [1.13, 18.44],
    [1.06, 30.03],
    [1.06, 15.61],
    [1.13, 7.76],
    [1.02, 8.88],
    [1.03, 4.90],
    [1.84, 4.75],
];

/// Minimum admissible mean-position ratio `(ACET−BCET)/(WCET−BCET)` of a
/// generated triple. The Weibull fit is infeasible below ≈ 7.1e-4 (the
/// minimum of `Γ(1+x)·q⁻ˣ`); this floor sits well above it so fitted
/// shapes stay at `k ≳ 0.47` and the truncated distribution's moments
/// remain within the contract tolerances. Factor pairs whose ratio falls
/// below this are discarded and redrawn.
pub const WEIBULL_FEASIBLE_MEAN_RATIO: f64 = 0.02;

/// Configuration for the automotive generator, validated once via
/// [`AutomotiveConfig::checked`] in the style of
/// [`crate::generate::CheckedGeneratorConfig`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AutomotiveConfig {
    /// Number of runnables (tasks) in the set. The Bosch data targets
    /// 10³–10⁴; anything in `[50, 100_000]` is accepted so smoke tests
    /// can run reduced-scale sets.
    pub runnables: usize,
    /// Probability that a runnable is high-criticality.
    pub p_high: f64,
    /// Per-task utilisation cap for the UUniFast discard rule, in `(0, 1]`.
    pub utilization_cap: f64,
    /// Retry budget for the UUniFast discard loop.
    pub max_uunifast_retries: usize,
    /// Retry budget for the per-task factor-pair discard loop.
    pub max_factor_retries: usize,
}

impl Default for AutomotiveConfig {
    fn default() -> Self {
        AutomotiveConfig {
            runnables: 1000,
            p_high: 0.5,
            utilization_cap: 1.0,
            max_uunifast_retries: 1000,
            max_factor_retries: 1000,
        }
    }
}

impl AutomotiveConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TaskError::InvalidGeneratorConfig`] when the runnable
    /// count is outside `[50, 100_000]`, `p_high` is outside `[0, 1]`,
    /// the utilisation cap is outside `(0, 1]`, or a retry budget is zero.
    pub fn validate(&self) -> Result<(), TaskError> {
        let err = |reason| Err(TaskError::InvalidGeneratorConfig { reason });
        if !(50..=100_000).contains(&self.runnables) {
            return err("automotive runnables must be in [50, 100000]");
        }
        if !self.p_high.is_finite() || !(0.0..=1.0).contains(&self.p_high) {
            return err("p_high must be in [0, 1]");
        }
        if !self.utilization_cap.is_finite()
            || self.utilization_cap <= 0.0
            || self.utilization_cap > 1.0
        {
            return err("utilization cap must be in (0, 1]");
        }
        if self.max_uunifast_retries == 0 || self.max_factor_retries == 0 {
            return err("retry budgets must be non-zero");
        }
        Ok(())
    }

    /// Validates once and returns a proof-of-validation wrapper.
    /// `mc-lint`'s `lint_automotive_config` reports the same violations
    /// (code `A005`) with full detail.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AutomotiveConfig::validate`].
    pub fn checked(&self) -> Result<CheckedAutomotiveConfig<'_>, TaskError> {
        self.validate()?;
        Ok(CheckedAutomotiveConfig(self))
    }
}

/// An [`AutomotiveConfig`] that has passed [`AutomotiveConfig::validate`]
/// exactly once.
#[derive(Debug, Clone, Copy)]
pub struct CheckedAutomotiveConfig<'a>(&'a AutomotiveConfig);

impl std::ops::Deref for CheckedAutomotiveConfig<'_> {
    type Target = AutomotiveConfig;

    fn deref(&self) -> &AutomotiveConfig {
        self.0
    }
}

/// Apportions `runnables` across the nine bins proportionally to
/// [`SHARE_PERCENT`] using the largest-remainder method (ties broken by
/// bin index), so counts are exact, deterministic, and sum to `runnables`.
#[expect(
    clippy::cast_possible_truncation,
    reason = "each floor is a whole number in [0, runnables], so its cast is lossless"
)]
pub fn allocate_bin_counts(runnables: usize) -> [usize; BIN_COUNT] {
    let mut counts = [0usize; BIN_COUNT];
    let mut remainders = [(0.0f64, 0usize); BIN_COUNT];
    let mut assigned = 0usize;
    for (b, share) in SHARE_PERCENT.iter().enumerate() {
        let exact = runnables as f64 * share / SHARE_TOTAL;
        let floor = exact.floor();
        counts[b] = floor as usize;
        assigned += counts[b];
        remainders[b] = (exact - floor, b);
    }
    // Largest remainder first; equal remainders fall back to bin order.
    remainders.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    let mut leftover = runnables - assigned;
    for &(_, b) in remainders.iter().cycle() {
        if leftover == 0 {
            break;
        }
        counts[b] += 1;
        leftover -= 1;
    }
    counts
}

/// Generates one automotive task set whose *budget* utilisation —
/// `U_HC^HI + U_LC^LO`, the demand the schedulability conditions see —
/// equals `u_bound`, split across the period bins by share and within
/// each bin by UUniFast.
///
/// Each HC task carries an [`ExecutionProfile`] whose σ is the analytic
/// standard deviation of the fitted Weibull and whose [`WeibullFit`]
/// drives heavy-tailed simulation draws; `C_LO` starts pessimistically at
/// `C_HI` for the WCET-assignment policy to lower. LC tasks get their
/// budget as `C_LO`.
///
/// # Errors
///
/// Returns [`TaskError::InvalidGeneratorConfig`] for an invalid
/// configuration or `u_bound` outside `(0, 2]`, and
/// [`TaskError::RetriesExhausted`] when a bounded discard loop dries up.
pub fn generate_automotive_taskset<R: Rng + ?Sized>(
    u_bound: f64,
    cfg: &AutomotiveConfig,
    rng: &mut R,
) -> Result<TaskSet, TaskError> {
    let cfg = cfg.checked()?;
    if !u_bound.is_finite() || u_bound <= 0.0 || u_bound > 2.0 {
        return Err(TaskError::InvalidGeneratorConfig {
            reason: "u_bound must be in (0, 2]",
        });
    }
    let counts = allocate_bin_counts(cfg.runnables);
    let mut ts = TaskSet::new();
    let mut next_id = 0u32;
    for (b, &n_b) in counts.iter().enumerate() {
        if n_b == 0 {
            continue;
        }
        let u_bin = u_bound * SHARE_PERCENT[b] / SHARE_TOTAL;
        let us = uunifast_capped(
            n_b,
            u_bin,
            cfg.utilization_cap,
            cfg.max_uunifast_retries,
            rng,
        )?;
        let period = Duration::from_millis(PERIOD_MS[b]);
        let period_ns = period.as_nanos() as f64;
        for u_i in us {
            let task = automotive_task(TaskId::new(next_id), b, u_i * period_ns, period, cfg, rng)?;
            ts.push(task).expect("ids are sequential and unique");
            next_id += 1;
        }
    }
    Ok(ts)
}

/// Builds one runnable of bin `b` with execution budget `budget_ns`.
fn automotive_task<R: Rng + ?Sized>(
    id: TaskId,
    b: usize,
    budget_ns: f64,
    period: Duration,
    cfg: CheckedAutomotiveConfig<'_>,
    rng: &mut R,
) -> Result<McTask, TaskError> {
    // Conservative (ceil) rounding of the budget, floored at one
    // nanosecond so vanishing UUniFast crumbs still yield a legal task.
    let c_hi = Duration::try_from_nanos_f64_ceil(budget_ns.max(1.0))
        .unwrap_or(period)
        .min(period)
        .max(Duration::from_nanos(1));
    let wcet_ns = c_hi.as_nanos() as f64;
    let [bf_min, bf_max] = BCET_FACTOR[b];
    let [wf_min, wf_max] = WCET_FACTOR[b];
    let mut chosen = None;
    for _ in 0..cfg.max_factor_retries {
        let wf = rng.random_range(wf_min..=wf_max);
        let bf = rng.random_range(bf_min..=bf_max);
        let acet = wcet_ns / wf;
        let bcet = bf * acet;
        let ratio = (acet - bcet) / (wcet_ns - bcet);
        if ratio >= WEIBULL_FEASIBLE_MEAN_RATIO {
            chosen = Some((acet, bcet));
            break;
        }
    }
    let Some((acet, bcet)) = chosen else {
        return Err(TaskError::RetriesExhausted {
            what: "Weibull-feasible BCET/WCET factor pair",
            retries: cfg.max_factor_retries,
        });
    };
    let high = rng.random::<f64>() < cfg.p_high;
    let builder = McTask::builder(id).period(period).c_lo(c_hi);
    if !high {
        return builder.build();
    }
    let fit =
        Dist::weibull_from_triple(bcet, acet, wcet_ns).map_err(|_| TaskError::InvalidProfile {
            reason: "accepted factor pair has no Weibull fit (ratio floor too low)",
        })?;
    let sigma = fit
        .variance()
        .unwrap_or(0.0)
        .sqrt()
        // σ is only consumed through ACET + n·σ ≤ WCET_pes; capping it at
        // the headroom keeps Eq. 9 satisfiable at n = 1 like the §V
        // generator does.
        .min(wcet_ns - acet);
    let params = match fit {
        Dist::Weibull3 {
            location,
            shape,
            scale,
        } => WeibullFit {
            location,
            shape,
            scale,
        },
        _ => unreachable!("weibull_from_triple returns Weibull3"),
    };
    let profile = ExecutionProfile::new(acet, sigma, wcet_ns)?.with_weibull(params)?;
    builder
        .criticality(Criticality::Hi)
        .c_hi(c_hi)
        .profile(profile)
        .build()
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
        AutomotiveConfig::default().validate().unwrap();
    }

    #[test]
    fn config_validation_catches_bad_fields() {
        let base = AutomotiveConfig::default;
        let bad = [
            AutomotiveConfig {
                runnables: 10,
                ..base()
            },
            AutomotiveConfig {
                runnables: 200_000,
                ..base()
            },
            AutomotiveConfig {
                p_high: -0.1,
                ..base()
            },
            AutomotiveConfig {
                p_high: f64::NAN,
                ..base()
            },
            AutomotiveConfig {
                utilization_cap: 0.0,
                ..base()
            },
            AutomotiveConfig {
                utilization_cap: 1.5,
                ..base()
            },
            AutomotiveConfig {
                max_uunifast_retries: 0,
                ..base()
            },
            AutomotiveConfig {
                max_factor_retries: 0,
                ..base()
            },
        ];
        for cfg in bad {
            assert!(cfg.validate().is_err(), "{cfg:?} should be invalid");
            assert!(cfg.checked().is_err());
        }
    }

    #[test]
    fn calibration_tables_are_internally_consistent() {
        assert!((SHARE_PERCENT.iter().sum::<f64>() - SHARE_TOTAL).abs() < 1e-12);
        for b in 0..BIN_COUNT {
            if b > 0 {
                assert!(PERIOD_MS[b] > PERIOD_MS[b - 1], "bins must increase");
            }
            let [a_min, a_avg, a_max] = ACET_US[b];
            assert!(0.0 < a_min && a_min <= a_avg && a_avg <= a_max, "bin {b}");
            let [bf_min, bf_max] = BCET_FACTOR[b];
            assert!(0.0 < bf_min && bf_min <= bf_max && bf_max < 1.0, "bin {b}");
            let [wf_min, wf_max] = WCET_FACTOR[b];
            assert!(1.0 < wf_min && wf_min <= wf_max, "bin {b}");
        }
    }

    #[test]
    fn bin_counts_use_largest_remainder_exactly() {
        for runnables in [50usize, 123, 1000, 9999] {
            let counts = allocate_bin_counts(runnables);
            assert_eq!(counts.iter().sum::<usize>(), runnables);
            for (b, &c) in counts.iter().enumerate() {
                let exact = runnables as f64 * SHARE_PERCENT[b] / SHARE_TOTAL;
                assert!(
                    (c as f64 - exact).abs() <= 1.0,
                    "{runnables} runnables, bin {b}: {c} vs {exact}"
                );
            }
        }
        // The canonical 1000-runnable split is pinned: any change to the
        // share table or the apportionment shows up here first.
        assert_eq!(
            allocate_bin_counts(1000),
            [35, 24, 24, 294, 294, 35, 235, 12, 47]
        );
    }

    #[test]
    fn generated_sets_honour_the_calibration() {
        let cfg = AutomotiveConfig {
            runnables: 200,
            ..AutomotiveConfig::default()
        };
        let ts = generate_automotive_taskset(0.7, &cfg, &mut rng(5)).unwrap();
        assert_eq!(ts.len(), 200);
        let u = ts.u_hc_hi() + ts.u_lc_lo();
        // UUniFast sums exactly; only the per-task ceil rounding drifts.
        assert!((u - 0.7).abs() < 1e-3, "budget utilisation {u}");
        let counts = allocate_bin_counts(200);
        for task in &ts {
            let p_ms = task.period().as_millis_f64();
            let b = PERIOD_MS
                .iter()
                .position(|&p| (p as f64 - p_ms).abs() < 1e-9)
                .unwrap_or_else(|| panic!("period {p_ms} ms is not a bin"));
            assert!(counts[b] > 0);
            assert!(task.c_hi() <= task.period());
            if let Some(p) = task.profile() {
                let wcet = p.wcet_pes();
                let acet = p.acet();
                let fit = p.weibull().expect("automotive HC tasks carry the fit");
                let bcet = fit.location;
                // Factor-matrix membership (ceil rounding gives ≤ 1 ns of
                // slack on the WCET side).
                let wf = wcet / acet;
                assert!(
                    WCET_FACTOR[b][0] - 1e-6 <= wf && wf <= WCET_FACTOR[b][1] + 1e-6,
                    "bin {b}: wcet factor {wf}"
                );
                let bf = bcet / acet;
                assert!(
                    BCET_FACTOR[b][0] - 1e-6 <= bf && bf <= BCET_FACTOR[b][1] + 1e-6,
                    "bin {b}: bcet factor {bf}"
                );
                let ratio = (acet - bcet) / (wcet - bcet);
                assert!(ratio >= WEIBULL_FEASIBLE_MEAN_RATIO - 1e-9);
                assert!(p.sigma() >= 0.0);
                assert!(p.level(1.0) <= wcet + 1e-6, "Eq. 9 satisfiable at n = 1");
            } else {
                assert!(!task.is_high());
            }
        }
        assert!(ts.hc_count() > 0 && ts.lc_count() > 0);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = AutomotiveConfig {
            runnables: 120,
            ..AutomotiveConfig::default()
        };
        let a = generate_automotive_taskset(0.6, &cfg, &mut rng(9)).unwrap();
        let b = generate_automotive_taskset(0.6, &cfg, &mut rng(9)).unwrap();
        assert_eq!(a, b);
        let c = generate_automotive_taskset(0.6, &cfg, &mut rng(10)).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn degenerate_inputs_surface_structured_errors() {
        let cfg = AutomotiveConfig::default();
        assert!(generate_automotive_taskset(0.0, &cfg, &mut rng(0)).is_err());
        assert!(generate_automotive_taskset(f64::NAN, &cfg, &mut rng(0)).is_err());
        assert!(generate_automotive_taskset(2.5, &cfg, &mut rng(0)).is_err());
        // An absurd per-task cap makes the per-bin UUniFast split
        // infeasible; the structured error propagates out.
        let tight = AutomotiveConfig {
            utilization_cap: 1e-6,
            ..AutomotiveConfig::default()
        };
        let err = generate_automotive_taskset(1.0, &tight, &mut rng(0)).unwrap_err();
        assert!(matches!(err, TaskError::InvalidGeneratorConfig { .. }));
    }

    #[test]
    fn scale_goes_to_ten_thousand_runnables() {
        let cfg = AutomotiveConfig {
            runnables: 10_000,
            ..AutomotiveConfig::default()
        };
        let ts = generate_automotive_taskset(0.9, &cfg, &mut rng(77)).unwrap();
        assert_eq!(ts.len(), 10_000);
        let u = ts.u_hc_hi() + ts.u_lc_lo();
        assert!((u - 0.9).abs() < 1e-3, "budget utilisation {u}");
    }
}
