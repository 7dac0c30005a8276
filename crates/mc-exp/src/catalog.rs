//! The built-in campaign catalog: the paper's experiments as declarative
//! campaign definitions, shared by the migrated bench binaries and
//! `chebymc exp`.
//!
//! Each entry pairs a [`CampaignSpec`] (the axis and replication) with a
//! [`UnitRunner`] (how one unit is computed). Numeric parity with the
//! legacy binaries is part of the contract:
//!
//! * `fig5` derives its *evaluation* seeds as
//!   `derive_set_seed(campaign_seed, u_index, replica)` — the seeds the
//!   in-process [`evaluate_policy_over_utilization`] batch would use —
//!   so per-point means reproduce the legacy Fig. 5 numbers bit-for-bit.
//!   (The framework's per-unit identity seed still follows the
//!   `hash(seed, point, replica)` contract; the runner just re-derives
//!   the legacy stream internally, because a campaign point is
//!   *policy × utilisation* while the batch pipeline's point is
//!   utilisation alone.)
//! * `table2` and `ablation_sigma` reuse the exact trace seeds of their
//!   binaries (`200 + benchmark_index`, reference seed 999, probe seed 4).
//!
//! [`evaluate_policy_over_utilization`]: chebymc_core::pipeline::evaluate_policy_over_utilization

use crate::run::UnitRunner;
use crate::spec::{CampaignSpec, Param, PointSpec, WorkUnit};
use crate::store::Metric;
use crate::ExpError;
use chebymc_core::pipeline::{
    derive_set_seed, evaluate_arena_one_set, evaluate_policy_one_set, ArenaWorkload,
};
use chebymc_core::policy::{paper_lambda_baselines, WcetPolicy};
use mc_exec::benchmarks;
use mc_exec::trace::ExecutionTrace;
use mc_opt::{GaConfig, ProblemConfig};
use mc_sched::policy::{PolicySpec, SchedulingPolicy};
use mc_sched::sim::SimConfig;
use mc_stats::chebyshev::one_sided_bound;
use mc_stats::summary::Summary;
use mc_task::automotive::AutomotiveConfig;
use mc_task::generate::GeneratorConfig;
use mc_task::time::Duration;
use std::sync::OnceLock;

/// A built campaign: its spec plus the runner that computes one unit.
pub struct Campaign {
    /// The campaign's declarative spec.
    pub spec: CampaignSpec,
    /// The unit runner.
    pub runner: Box<dyn UnitRunner + Send + Sync>,
}

impl std::fmt::Debug for Campaign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Campaign")
            .field("spec", &self.spec)
            .finish()
    }
}

/// Knobs the CLI and the bench binaries thread into the catalog. `None`
/// keeps each campaign's paper-scale default.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CatalogOptions {
    /// Task-set replicas per point (`fig5`).
    pub sets: Option<usize>,
    /// Sampled instances per benchmark (`table2`).
    pub samples: Option<usize>,
    /// Utilisation axis override (`fig5`).
    pub points: Option<Vec<f64>>,
    /// Campaign base seed.
    pub seed: Option<u64>,
    /// Runnables per generated task set (`automotive`).
    pub runnables: Option<usize>,
}

/// The catalog's campaign names.
#[must_use]
pub fn names() -> &'static [&'static str] {
    &[
        "fig5",
        "table2",
        "ablation_sigma",
        "policy_arena",
        "automotive",
    ]
}

/// Builds a named campaign.
///
/// # Errors
///
/// [`ExpError::Config`] for unknown names or benchmark-construction
/// failures.
pub fn build(name: &str, opts: &CatalogOptions) -> Result<Campaign, ExpError> {
    match name {
        "fig5" => Ok(fig5(opts)),
        "table2" => table2(opts),
        "ablation_sigma" => Ok(ablation_sigma(opts)),
        "policy_arena" => policy_arena(opts),
        "automotive" => automotive(opts),
        other => Err(ExpError::Config(format!(
            "unknown campaign `{other}` (known: {})",
            names().join(", ")
        ))),
    }
}

/// Rebuilds the runner for a spec received from elsewhere (a store header,
/// a coordinator lease): recovers the [`CatalogOptions`] the spec encodes,
/// rebuilds the named campaign, and verifies the result is fingerprint-
/// identical to what was received — so a worker computing against a
/// rebuilt runner provably runs the *same* campaign the submitter
/// declared, not a near-miss with different axis values.
///
/// # Errors
///
/// [`ExpError::Config`] for unknown names, and [`ExpError::Mismatch`] when
/// the rebuilt spec disagrees with the received one (a spec produced by a
/// different catalog version, or hand-edited points this catalog cannot
/// reproduce).
pub fn rebuild(spec: &CampaignSpec) -> Result<Campaign, ExpError> {
    let mut opts = CatalogOptions {
        seed: Some(spec.seed),
        ..CatalogOptions::default()
    };
    match spec.name.as_str() {
        "fig5" | "policy_arena" | "automotive" => {
            opts.sets = Some(spec.replicas);
            // Points are policy-major; the utilisation axis repeats per
            // policy, so the policy-0 block recovers it exactly.
            let u_values: Vec<f64> = spec
                .points
                .iter()
                .filter(|p| p.param("policy") == Some(0.0))
                .filter_map(|p| p.param("u"))
                .collect();
            if !u_values.is_empty() {
                opts.points = Some(u_values);
            }
            if let Some(r) = spec.params.iter().find(|p| p.name == "runnables") {
                opts.runnables = Some(r.value.round() as usize);
            }
        }
        "table2" => {
            if let Some(samples) = spec.params.iter().find(|p| p.name == "samples") {
                opts.samples = Some(samples.value as usize);
            }
        }
        _ => {}
    }
    let campaign = build(&spec.name, &opts)?;
    if campaign.spec != *spec {
        return Err(ExpError::Mismatch {
            path: format!("campaign:{}", spec.name),
            detail: format!(
                "spec fingerprint {} cannot be rebuilt from this catalog \
                 (rebuilt {})",
                spec.fingerprint(),
                campaign.spec.fingerprint()
            ),
        });
    }
    Ok(campaign)
}

/// The Fig. 5 policy roster: the GA scheme, the paper's λ baselines, ACET.
#[must_use]
pub fn fig5_policies() -> Vec<WcetPolicy> {
    let mut policies = vec![WcetPolicy::ChebyshevGa {
        ga: GaConfig {
            population_size: 48,
            generations: 40,
            ..GaConfig::default()
        },
        problem: ProblemConfig::default(),
    }];
    policies.extend(paper_lambda_baselines());
    policies.push(WcetPolicy::Acet);
    policies
}

/// Fig. 5: the Eq. 13 objective of every policy as `U_HC^HI` varies.
/// Points are policy-major (`point = policy_index * |u| + u_index`).
fn fig5(opts: &CatalogOptions) -> Campaign {
    let seed = opts.seed.unwrap_or(5);
    let replicas = opts.sets.unwrap_or(200);
    let u_values: Vec<f64> = opts
        .points
        .clone()
        .unwrap_or_else(|| (4..=9).map(|i| f64::from(i) / 10.0).collect());
    let policies = fig5_policies();
    let points = policy_major_points(policies.iter().map(WcetPolicy::name), &u_values);
    let spec = CampaignSpec {
        name: "fig5".into(),
        seed,
        params: vec![],
        points,
        replicas,
    };
    let runner = Fig5Runner {
        policies,
        u_values,
        seed,
    };
    Campaign {
        spec,
        runner: Box::new(runner),
    }
}

struct Fig5Runner {
    policies: Vec<WcetPolicy>,
    u_values: Vec<f64>,
    seed: u64,
}

impl UnitRunner for Fig5Runner {
    fn run_unit(&self, unit: &WorkUnit, inner_threads: usize) -> Result<Vec<Metric>, ExpError> {
        let (policy_index, u_index) = split_policy_major(unit, self.u_values.len());
        let policy = &self.policies[policy_index];
        let u = self.u_values[u_index];
        // The legacy batch stream: one seed per (utilisation, set), shared
        // across policies so every policy designs the same task sets.
        let eval_seed = derive_set_seed(self.seed, u_index, unit.replica);
        let e = evaluate_policy_one_set(
            u,
            policy,
            &GeneratorConfig::default(),
            eval_seed,
            inner_threads,
        )?;
        Ok(vec![
            Metric::new("p_ms", e.p_ms),
            Metric::new("max_u_lc_lo", e.max_u_lc_lo),
            Metric::new("objective", e.objective),
        ])
    }
}

/// The points of a policy × utilisation campaign, policy-major
/// (`point = policy_index * |u| + u_index`), each labelled
/// `<policy>/u<u>` and carrying `policy`, `u` and `u_index` parameters.
fn policy_major_points(
    policy_names: impl Iterator<Item = String>,
    u_values: &[f64],
) -> Vec<PointSpec> {
    let mut points = Vec::new();
    for (pi, name) in policy_names.enumerate() {
        for (ui, &u) in u_values.iter().enumerate() {
            points.push(PointSpec::new(
                format!("{name}/u{u:.2}"),
                vec![
                    Param::new("policy", pi as f64),
                    Param::new("u", u),
                    Param::new("u_index", ui as f64),
                ],
            ));
        }
    }
    points
}

/// The `(policy_index, u_index)` of a unit of a policy-major campaign.
fn split_policy_major(unit: &WorkUnit, u_count: usize) -> (usize, usize) {
    (unit.point / u_count, unit.point % u_count)
}

/// Table II: the `1/(1+n²)` analysis bound vs the measured overrun rate
/// of each benchmark at `ACET + n·σ`. Points are benchmark-major
/// (`point = benchmark_index * 5 + n`), one replica each.
fn table2(opts: &CatalogOptions) -> Result<Campaign, ExpError> {
    let samples = opts.samples.unwrap_or(20_000);
    let suite = benchmarks::table2_suite().map_err(exec_err)?;
    let mut points = Vec::new();
    for (bi, bench) in suite.iter().enumerate() {
        for n in 0..=4u32 {
            points.push(PointSpec::new(
                format!("{}/n{n}", bench.name()),
                vec![
                    Param::new("benchmark", bi as f64),
                    Param::new("n", f64::from(n)),
                ],
            ));
        }
    }
    let spec = CampaignSpec {
        name: "table2".into(),
        seed: opts.seed.unwrap_or(0),
        // The sample count changes every measured cell, so it must enter
        // the fingerprint: a store sampled at one scale refuses to resume
        // at another.
        params: vec![Param::new("samples", samples as f64)],
        points,
        replicas: 1,
    };
    Ok(Campaign {
        spec,
        runner: Box::new(Table2Runner { samples }),
    })
}

struct Table2Runner {
    samples: usize,
}

impl UnitRunner for Table2Runner {
    fn run_unit(&self, unit: &WorkUnit, _inner_threads: usize) -> Result<Vec<Metric>, ExpError> {
        let suite = benchmarks::table2_suite().map_err(exec_err)?;
        let bi = unit.point / 5;
        let n = (unit.point % 5) as f64;
        let bench = suite.get(bi).ok_or_else(|| {
            ExpError::Config(format!("table2 point {} has no benchmark", unit.point))
        })?;
        // The legacy binary's trace seed: 200 + suite index.
        let trace = bench
            .sample_trace(self.samples, 200 + bi as u64)
            .map_err(exec_err)?;
        let s = trace.summary().map_err(exec_err)?;
        let level = s.mean() + n * s.std_dev();
        let measured = trace.overrun_rate(level).map_err(exec_err)?.rate();
        Ok(vec![
            Metric::new("analysis_bound", one_sided_bound(n)),
            Metric::new("overrun_rate", measured),
        ])
    }
}

/// Trace lengths of the σ-estimator ablation.
const ABLATION_M: [usize; 5] = [10, 30, 100, 1_000, 20_000];

/// The σ-estimator ablation: population vs sample σ and the sensitivity
/// of `C_LO` to the trace length `m` (benchmark `corner`, `n = 3`).
fn ablation_sigma(opts: &CatalogOptions) -> Campaign {
    let points = ABLATION_M
        .iter()
        .map(|&m| PointSpec::new(format!("m{m}"), vec![Param::new("m", m as f64)]))
        .collect();
    let spec = CampaignSpec {
        name: "ablation_sigma".into(),
        seed: opts.seed.unwrap_or(0),
        params: vec![],
        points,
        replicas: 1,
    };
    Campaign {
        spec,
        runner: Box::new(AblationRunner {
            reference: OnceLock::new(),
        }),
    }
}

struct AblationRunner {
    /// The long reference trace (seed 999) that measures the "true"
    /// overrun rate of a level, sampled once and shared across units.
    reference: OnceLock<Result<ExecutionTrace, String>>,
}

impl AblationRunner {
    fn reference(&self) -> Result<&ExecutionTrace, ExpError> {
        self.reference
            .get_or_init(|| {
                benchmarks::corner()
                    .and_then(|b| b.sample_trace(200_000, 999))
                    .map_err(|e| e.to_string())
            })
            .as_ref()
            .map_err(|e| ExpError::Config(format!("reference trace failed: {e}")))
    }
}

impl UnitRunner for AblationRunner {
    fn run_unit(&self, unit: &WorkUnit, _inner_threads: usize) -> Result<Vec<Metric>, ExpError> {
        let m = ABLATION_M.get(unit.point).copied().ok_or_else(|| {
            ExpError::Config(format!("ablation point {} has no trace length", unit.point))
        })?;
        let n = 3.0;
        let bench = benchmarks::corner().map_err(exec_err)?;
        let trace = bench.sample_trace(m, 4).map_err(exec_err)?;
        let s = Summary::from_samples(trace.samples())
            .map_err(|e| ExpError::Config(format!("trace summary failed: {e}")))?;
        let c_pop = s.mean() + n * s.std_dev();
        let c_sample = s.mean() + n * s.sample_std_dev();
        let measured = self
            .reference()?
            .overrun_rate(c_pop)
            .map_err(exec_err)?
            .rate();
        Ok(vec![
            Metric::new("acet", s.mean()),
            Metric::new("pop_sigma", s.std_dev()),
            Metric::new("sample_sigma", s.sample_std_dev()),
            Metric::new("c_lo_pop", c_pop),
            Metric::new("c_lo_sample", c_sample),
            Metric::new("delta_pct", (c_sample / c_pop - 1.0) * 100.0),
            Metric::new("measured_overrun", measured),
        ])
    }
}

/// The arena's fixed design-time WCET assignment: every policy judges sets
/// whose `C_LO` came from the same Chebyshev `n = 3` design, so the
/// comparison isolates the *scheduling* policy.
fn arena_wcet() -> WcetPolicy {
    WcetPolicy::ChebyshevUniform { n: 3.0 }
}

/// The arena's simulation window. Long enough for a few hundred jobs per
/// task at the default generator periods; short enough that a unit stays
/// in the low-millisecond range.
const ARENA_HORIZON_SECS: u64 = 5;

/// `policy_arena`: every [`PolicySpec`] in the roster races over shared
/// seeded task sets as the bound utilisation varies. Points are
/// policy-major (`point = policy_index * |u| + u_index`), mirroring
/// `fig5`; the *evaluation* seed depends only on `(u_index, replica)`, so
/// each policy admits and simulates bit-identical task sets and the
/// per-point comparison is paired.
fn policy_arena(opts: &CatalogOptions) -> Result<Campaign, ExpError> {
    // The default axis spans the overload transition: below 1.0 every
    // entrant admits nearly everything; the interesting separation —
    // demand vs utilisation tests, containment vs plain Liu — happens as
    // the bound utilisation crosses 1.
    let u_values: Vec<f64> = opts
        .points
        .clone()
        .unwrap_or_else(|| vec![0.6, 0.8, 1.0, 1.1, 1.2, 1.3]);
    arena_campaign(
        CampaignSpec {
            name: "policy_arena".into(),
            seed: opts.seed.unwrap_or(11),
            params: vec![],
            points: vec![],
            replicas: opts.sets.unwrap_or(200),
        },
        u_values,
        ARENA_HORIZON_SECS,
        ArenaWorkload::Synthetic(GeneratorConfig::default()),
    )
}

/// The automotive arena's simulation window. The Bosch period table spans
/// 1 ms – 1 s, so one second releases a full hyperperiod's worth of the
/// slowest bin while the 1 ms bin already contributes ~10³ jobs per task;
/// at 10³ runnables a unit simulates roughly 10⁵ jobs.
const AUTOMOTIVE_HORIZON_SECS: u64 = 1;

/// `automotive`: the policy roster races over Bosch-calibrated task sets —
/// engine-style period/share bins, factor-matrix BCET/ACET/WCET triples,
/// and per-task fitted Weibull execution times — as the bound utilisation
/// varies. Points are policy-major like `fig5`/`policy_arena`, and the
/// evaluation seed again depends only on `(u_index, replica)`, so the
/// per-point comparison is paired. The runnable count rides in
/// `spec.params`: changing the scale changes the fingerprint, and a store
/// generated at one scale refuses to resume at another.
fn automotive(opts: &CatalogOptions) -> Result<Campaign, ExpError> {
    let runnables = opts.runnables.unwrap_or(1000);
    // The default axis brackets the design point: automotive sets are
    // generated against a budget utilisation, so the interesting spread —
    // how much LC service each policy salvages once Weibull tails start
    // forcing switches — shows up well below the synthetic arena's
    // overload axis.
    let u_values: Vec<f64> = opts.points.clone().unwrap_or_else(|| vec![0.5, 0.7, 0.9]);
    let config = AutomotiveConfig {
        runnables,
        ..AutomotiveConfig::default()
    };
    // Gate the generator before any unit runs: a bad runnable count or a
    // corrupted calibration table would otherwise fail every unit,
    // thousands of units into the campaign.
    let lint = mc_lint::lint_automotive_config(&config);
    if lint.has_errors() {
        return Err(ExpError::Config(format!(
            "automotive generator failed lint:\n{lint}"
        )));
    }
    arena_campaign(
        CampaignSpec {
            name: "automotive".into(),
            seed: opts.seed.unwrap_or(17),
            params: vec![Param::new("runnables", runnables as f64)],
            points: vec![],
            replicas: opts.sets.unwrap_or(50),
        },
        u_values,
        AUTOMOTIVE_HORIZON_SECS,
        ArenaWorkload::Automotive(config),
    )
}

/// Completes an arena campaign from its `spec` without points: the
/// roster's policy-major points over `u_values`, and a runner that
/// simulates each unit for `horizon_secs` on sets of `workload`.
fn arena_campaign(
    mut spec: CampaignSpec,
    u_values: Vec<f64>,
    horizon_secs: u64,
    workload: ArenaWorkload,
) -> Result<Campaign, ExpError> {
    let roster = PolicySpec::arena_roster();
    // Gate the roster before any unit runs: a duplicate name would merge
    // two policies into one aggregate row; a bad fraction would fail every
    // unit of one policy block, thousands of units into the campaign.
    let lint = mc_lint::lint_policy_roster(&roster);
    if lint.has_errors() {
        return Err(ExpError::Config(format!(
            "policy roster failed lint:\n{lint}"
        )));
    }
    spec.points = policy_major_points(roster.iter().map(SchedulingPolicy::name), &u_values);
    let runner = ArenaRunner {
        roster,
        u_values,
        seed: spec.seed,
        horizon_secs,
        workload,
    };
    Ok(Campaign {
        spec,
        runner: Box::new(runner),
    })
}

/// Races one roster entrant on one seeded task set of the arena's
/// workload (see [`evaluate_arena_one_set`]).
struct ArenaRunner {
    roster: Vec<PolicySpec>,
    u_values: Vec<f64>,
    seed: u64,
    horizon_secs: u64,
    workload: ArenaWorkload,
}

impl UnitRunner for ArenaRunner {
    fn run_unit(&self, unit: &WorkUnit, _inner_threads: usize) -> Result<Vec<Metric>, ExpError> {
        let (policy_index, u_index) = split_policy_major(unit, self.u_values.len());
        // Policy-independent seed: every policy sees the same task sets.
        let eval_seed = derive_set_seed(self.seed, u_index, unit.replica);
        let e = evaluate_arena_one_set(
            self.u_values[u_index],
            &arena_wcet(),
            &self.roster[policy_index],
            &self.workload,
            eval_seed,
            &SimConfig::new(Duration::from_secs(self.horizon_secs)),
        )?;
        Ok(vec![
            Metric::new("schedulable", e.schedulable),
            Metric::new("service_level", e.service_level),
            Metric::new("switch_rate", e.switch_rate),
            Metric::new("task_switch_rate", e.task_switch_rate),
            Metric::new("lc_qos", e.lc_qos),
            Metric::new("hc_miss_rate", e.hc_miss_rate),
        ])
    }
}

fn exec_err(e: mc_exec::ExecError) -> ExpError {
    ExpError::Config(format!("benchmark error: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run_campaign, RunConfig};
    use crate::store::Store;

    #[test]
    fn unknown_campaigns_name_the_known_ones() {
        let err = build("fig6", &CatalogOptions::default()).unwrap_err();
        assert!(err.to_string().contains("fig5"), "{err}");
    }

    #[test]
    fn rebuild_round_trips_every_catalog_campaign() {
        let cases: Vec<(&str, CatalogOptions)> = vec![
            (
                "fig5",
                CatalogOptions {
                    sets: Some(3),
                    points: Some(vec![0.5, 0.7]),
                    seed: Some(42),
                    ..CatalogOptions::default()
                },
            ),
            (
                "table2",
                CatalogOptions {
                    samples: Some(400),
                    ..CatalogOptions::default()
                },
            ),
            ("ablation_sigma", CatalogOptions::default()),
            (
                "policy_arena",
                CatalogOptions {
                    sets: Some(2),
                    points: Some(vec![0.5, 0.8]),
                    seed: Some(9),
                    ..CatalogOptions::default()
                },
            ),
            ("policy_arena", CatalogOptions::default()),
            (
                "automotive",
                CatalogOptions {
                    sets: Some(2),
                    points: Some(vec![0.6]),
                    seed: Some(3),
                    runnables: Some(60),
                    ..CatalogOptions::default()
                },
            ),
            ("automotive", CatalogOptions::default()),
        ];
        for (name, opts) in cases {
            let original = build(name, &opts).unwrap();
            let rebuilt = rebuild(&original.spec).unwrap();
            assert_eq!(rebuilt.spec, original.spec, "{name}");
            assert_eq!(
                rebuilt.spec.fingerprint(),
                original.spec.fingerprint(),
                "{name}"
            );
        }
    }

    #[test]
    fn rebuild_rejects_tampered_and_unknown_specs() {
        let mut spec = build("ablation_sigma", &CatalogOptions::default())
            .unwrap()
            .spec;
        spec.points[0].label = "m11".into();
        assert!(matches!(
            rebuild(&spec).unwrap_err(),
            ExpError::Mismatch { .. }
        ));
        let mut unknown = spec;
        unknown.name = "fig6".into();
        assert!(matches!(
            rebuild(&unknown).unwrap_err(),
            ExpError::Config(_)
        ));
    }

    #[test]
    fn fig5_axis_is_policy_major_with_paper_defaults() {
        let c = build("fig5", &CatalogOptions::default()).unwrap();
        assert_eq!(c.spec.replicas, 200);
        assert_eq!(c.spec.seed, 5);
        assert_eq!(c.spec.points.len(), 5 * 6, "5 policies × 6 utilisations");
        assert_eq!(c.spec.points[0].label, "chebyshev-ga/u0.40");
        assert_eq!(c.spec.points[6].label, "lambda-range-[0.2500,1]/u0.40");
        assert_eq!(c.spec.points[29].label, "acet/u0.90");
        assert_eq!(c.spec.points[7].param("u"), Some(0.5));
        assert_eq!(c.spec.points[7].param("u_index"), Some(1.0));
    }

    #[test]
    fn fig5_units_reproduce_the_legacy_batch_stream() {
        // Tiny configuration: ACET policy only takes microseconds per set.
        let opts = CatalogOptions {
            sets: Some(3),
            points: Some(vec![0.5]),
            ..CatalogOptions::default()
        };
        let c = build("fig5", &opts).unwrap();
        // ACET is the last policy → point index 4 (4 policies before it × 1 u).
        let acet_point = 4;
        let unit = c.spec.unit(acet_point * 3 + 1);
        let metrics = c.runner.run_unit(&unit, 1).unwrap();
        let expected = evaluate_policy_one_set(
            0.5,
            &WcetPolicy::Acet,
            &GeneratorConfig::default(),
            derive_set_seed(5, 0, 1),
            1,
        )
        .unwrap();
        assert_eq!(metrics[2].name, "objective");
        assert_eq!(metrics[2].value.to_bits(), expected.objective.to_bits());
    }

    #[test]
    fn table2_campaign_matches_the_legacy_binary_cells() {
        let opts = CatalogOptions {
            samples: Some(400),
            ..CatalogOptions::default()
        };
        let c = build("table2", &opts).unwrap();
        assert_eq!(c.spec.replicas, 1);
        assert_eq!(c.spec.points.len(), 5 * 5, "5 benchmarks × n ∈ 0..=4");
        // Unit for qsort-100 (suite index 0) at n=2.
        let metrics = c.runner.run_unit(&c.spec.unit(2), 1).unwrap();
        let suite = benchmarks::table2_suite().unwrap();
        let trace = suite[0].sample_trace(400, 200).unwrap();
        let s = trace.summary().unwrap();
        let level = s.mean() + 2.0 * s.std_dev();
        assert_eq!(metrics[0].value, one_sided_bound(2.0));
        assert_eq!(
            metrics[1].value.to_bits(),
            trace.overrun_rate(level).unwrap().rate().to_bits()
        );
    }

    #[test]
    fn policy_arena_axis_is_policy_major_over_the_roster() {
        let c = build("policy_arena", &CatalogOptions::default()).unwrap();
        assert_eq!(c.spec.replicas, 200);
        assert_eq!(c.spec.seed, 11);
        assert_eq!(c.spec.points.len(), 5 * 6, "5 policies × 6 utilisations");
        assert_eq!(c.spec.points[0].label, "edf_vd_drop/u0.60");
        assert_eq!(c.spec.points[6].label, "liu_degrade_0.50/u0.60");
        assert_eq!(c.spec.points[29].label, "boudjadar_combined_0.50/u1.30");
        assert_eq!(c.spec.points[13].param("u"), Some(0.8));
        assert_eq!(c.spec.points[13].param("u_index"), Some(1.0));
        assert_eq!(c.spec.points[13].param("policy"), Some(2.0));
    }

    #[test]
    fn policy_arena_units_share_task_sets_across_policies() {
        // The paired-comparison contract: the evaluation seed ignores the
        // policy index, so drop-all and degrade simulate the same sets
        // with the same sampled execution times — their switch rates on a
        // shared replica agree bit-for-bit.
        let opts = CatalogOptions {
            sets: Some(2),
            points: Some(vec![0.5]),
            ..CatalogOptions::default()
        };
        let c = build("policy_arena", &opts).unwrap();
        // Point 0 = edf_vd_drop/u0.50, point 1 = liu_degrade_0.50/u0.50.
        let drop = c.runner.run_unit(&c.spec.unit(1), 1).unwrap();
        let degrade = c.runner.run_unit(&c.spec.unit(3), 1).unwrap();
        let col = |ms: &[Metric], name: &str| {
            ms.iter().find(|m| m.name == name).map(|m| m.value).unwrap()
        };
        assert_eq!(
            col(&drop, "switch_rate").to_bits(),
            col(&degrade, "switch_rate").to_bits()
        );
        // Every unit reports the full six-column schema, in order.
        let schema: Vec<&str> = drop.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            schema,
            [
                "schedulable",
                "service_level",
                "switch_rate",
                "task_switch_rate",
                "lc_qos",
                "hc_miss_rate",
            ]
        );
    }

    #[test]
    fn policy_arena_campaign_runs_and_aggregates_end_to_end() {
        let opts = CatalogOptions {
            sets: Some(2),
            points: Some(vec![0.5]),
            ..CatalogOptions::default()
        };
        let c = build("policy_arena", &opts).unwrap();
        let mut store = Store::in_memory(&c.spec);
        let summary = run_campaign(
            &c.spec,
            c.runner.as_ref(),
            &mut store,
            &RunConfig::default(),
        )
        .unwrap();
        assert_eq!(summary.ran, 5 * 2, "5 policies × 1 u × 2 replicas");
        let aggs = crate::aggregate::aggregate(&c.spec, store.records()).unwrap();
        assert_eq!(aggs.len(), 5, "one row per policy at the single u");
        for agg in &aggs {
            let s = agg.mean("schedulable").unwrap();
            assert!((0.0..=1.0).contains(&s), "{}: {s}", agg.label);
            assert!(agg.mean("lc_qos").is_some());
        }
    }

    #[test]
    fn automotive_axis_carries_scale_in_its_fingerprint() {
        let c = build("automotive", &CatalogOptions::default()).unwrap();
        assert_eq!(c.spec.replicas, 50);
        assert_eq!(c.spec.seed, 17);
        assert_eq!(c.spec.points.len(), 5 * 3, "5 policies × 3 utilisations");
        assert_eq!(c.spec.points[0].label, "edf_vd_drop/u0.50");
        assert_eq!(c.spec.points[14].label, "boudjadar_combined_0.50/u0.90");
        assert_eq!(c.spec.points[4].param("u"), Some(0.7));
        assert_eq!(c.spec.points[4].param("u_index"), Some(1.0));
        assert_eq!(c.spec.points[4].param("policy"), Some(1.0));
        // Paper scale rides in params, so a store generated at 10³
        // runnables refuses to resume at a reduced smoke scale.
        assert_eq!(c.spec.params.len(), 1);
        assert_eq!(c.spec.params[0].name, "runnables");
        assert_eq!(c.spec.params[0].value, 1000.0);
        let small = build(
            "automotive",
            &CatalogOptions {
                runnables: Some(60),
                ..CatalogOptions::default()
            },
        )
        .unwrap();
        assert_ne!(small.spec.fingerprint(), c.spec.fingerprint());
    }

    #[test]
    fn automotive_units_reproduce_the_paired_arena_stream() {
        let opts = CatalogOptions {
            sets: Some(2),
            points: Some(vec![0.6]),
            runnables: Some(60),
            ..CatalogOptions::default()
        };
        let c = build("automotive", &opts).unwrap();
        // Point 1 = liu_degrade_0.50/u0.60 (policy index 1, one u value),
        // replica 1 of 2 → unit index 3.
        let unit = c.spec.unit(3);
        let metrics = c.runner.run_unit(&unit, 1).unwrap();
        let cfg = AutomotiveConfig {
            runnables: 60,
            ..AutomotiveConfig::default()
        };
        let expected = evaluate_arena_one_set(
            0.6,
            &arena_wcet(),
            &PolicySpec::arena_roster()[1],
            &ArenaWorkload::Automotive(cfg),
            derive_set_seed(17, 0, 1),
            &SimConfig::new(Duration::from_secs(AUTOMOTIVE_HORIZON_SECS)),
        )
        .unwrap();
        assert_eq!(metrics[4].name, "lc_qos");
        assert_eq!(metrics[4].value.to_bits(), expected.lc_qos.to_bits());
        assert_eq!(metrics[2].value.to_bits(), expected.switch_rate.to_bits());
    }

    #[test]
    fn automotive_campaign_runs_and_aggregates_end_to_end() {
        let opts = CatalogOptions {
            sets: Some(2),
            points: Some(vec![0.6]),
            runnables: Some(60),
            ..CatalogOptions::default()
        };
        let c = build("automotive", &opts).unwrap();
        let mut store = Store::in_memory(&c.spec);
        let summary = run_campaign(
            &c.spec,
            c.runner.as_ref(),
            &mut store,
            &RunConfig::default(),
        )
        .unwrap();
        assert_eq!(summary.ran, 5 * 2, "5 policies × 1 u × 2 replicas");
        let aggs = crate::aggregate::aggregate(&c.spec, store.records()).unwrap();
        assert_eq!(aggs.len(), 5, "one row per policy at the single u");
        for agg in &aggs {
            let s = agg.mean("schedulable").unwrap();
            assert!((0.0..=1.0).contains(&s), "{}: {s}", agg.label);
            assert!(agg.mean("lc_qos").is_some());
        }
    }

    #[test]
    fn ablation_campaign_runs_end_to_end() {
        let c = build("ablation_sigma", &CatalogOptions::default()).unwrap();
        assert_eq!(c.spec.points.len(), 5);
        let mut store = Store::in_memory(&c.spec);
        // Only the two cheapest points, via sharding-free manual units: run
        // the full (tiny) campaign — the reference trace dominates and is
        // sampled once.
        let summary = run_campaign(
            &c.spec,
            c.runner.as_ref(),
            &mut store,
            &RunConfig::default(),
        )
        .unwrap();
        assert_eq!(summary.ran, 5);
        let aggs = crate::aggregate::aggregate(&c.spec, store.records()).unwrap();
        assert_eq!(aggs[0].label, "m10");
        let pop = aggs[0].mean("pop_sigma").unwrap();
        let sample = aggs[0].mean("sample_sigma").unwrap();
        assert!(sample > pop, "Bessel correction widens σ at m=10");
    }
}
