//! Beyond the paper: the multi-level scheme of its §VI future work, the
//! policy arena over related-work scheduling policies, and the
//! Bosch-calibrated automotive workload.

use super::paper::DEFAULT_SETS;
use super::{
    campaign, fixed_spec, indicator, policy_major_points, split_policy_major, Campaign,
    CatalogOptions,
};
use crate::spec::{CampaignSpec, Param};
use crate::store::Metric;
use crate::ExpError;
use chebymc_core::multi::MultiScheme;
use chebymc_core::pipeline::{derive_set_seed, evaluate_arena_one_set, ArenaWorkload};
use chebymc_core::policy::WcetPolicy;
use mc_sched::policy::{PolicySpec, SchedulingPolicy};
use mc_sched::sim::{simulate_multi, JobExecModel, MultiSimConfig, SharedRuns, SimConfig};
use mc_task::automotive::AutomotiveConfig;
use mc_task::generate::GeneratorConfig;
use mc_task::multi::{MultiTask, MultiTaskSet};
use mc_task::time::Duration;
use mc_task::{ExecutionProfile, TaskId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random three-level system of `tasks` tasks: levels drawn uniformly,
/// every budget at `per_task_u_top` of a 100–900 ms period, and tasks
/// above level 0 profiled with a 5–60× WCET/ACET gap (Table I-like) and a
/// σ of 5–30 % of the ACET.
fn tri_level_taskset(
    seed: u64,
    per_task_u_top: f64,
    tasks: usize,
) -> Result<MultiTaskSet, ExpError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ts = MultiTaskSet::new(3)?;
    for i in 0..tasks {
        let level = rng.random_range(0..3usize);
        let period = Duration::from_millis(rng.random_range(100..=900));
        let top = period.mul_f64(per_task_u_top).max(Duration::from_nanos(1));
        let profile = if level > 0 {
            let wcet = top.as_nanos() as f64;
            let acet = wcet / rng.random_range(5.0..60.0);
            let sigma = acet * rng.random_range(0.05..0.3);
            Some(ExecutionProfile::new(acet, sigma, wcet)?)
        } else {
            None
        };
        #[expect(
            clippy::cast_possible_truncation,
            reason = "task indices are below the generated task count"
        )]
        ts.push(MultiTask::new(
            TaskId::new(i as u32),
            format!("t{i}"),
            level,
            vec![top; level + 1],
            period,
            profile,
        )?)?;
    }
    Ok(ts)
}

/// Per-mode factor pairs `(n₀, n₁)` of the multi-level sweep.
const MULTI_FACTORS: [(f64, f64); 6] = [
    (1.0, 2.0),
    (2.0, 4.0),
    (3.0, 6.0),
    (5.0, 10.0),
    (8.0, 16.0),
    (12.0, 24.0),
];

/// The multi-level trade-off, mode by mode: uniform per-mode factors on
/// one random 3-level system of 9 tasks (seed 42), reporting each mode's
/// escalation bound, the chance of reaching the top mode, and the
/// admissible level-0 utilisation. One point per factor pair.
pub(super) fn multi_sweep(opts: &CatalogOptions) -> Result<Campaign, ExpError> {
    let labels = MULTI_FACTORS.iter().map(|(n0, n1)| format!("n{n0}-{n1}"));
    let spec = fixed_spec("multi_sweep", opts, vec![], labels);
    Ok(campaign(spec, |unit, _| {
        let mut ts = tri_level_taskset(42, 0.12, 9)?;
        let (n0, n1) = MULTI_FACTORS[unit.point];
        MultiScheme::default().assign(&mut ts, &[n0, n1])?;
        let m = MultiScheme::metrics(&ts)?;
        Ok(vec![
            Metric::new("escalation_bound_0", m.escalation_bounds[0]),
            Metric::new("escalation_bound_1", m.escalation_bounds[1]),
            Metric::new("p_reach_top", m.p_reach_top),
            Metric::new("max_u_level0", m.max_u_lowest),
            Metric::new("schedulable", indicator(m.analysis.schedulable)),
        ])
    }))
}

/// Random 3-level systems of the multi-level runtime check.
const MULTI_RUNTIME_SETS: usize = 5;

/// GA-designed per-mode factors checked at runtime: system `s` (8 tasks,
/// seed `100 + s`) is designed by the multi-level GA seeded `s`, then
/// simulated for 20 s with profile-driven execution times (seed `s`).
/// The design-time escalation bound sits next to the observed escalation
/// rate out of mode 0 per job of an upper-level task.
pub(super) fn multi_runtime(opts: &CatalogOptions) -> Result<Campaign, ExpError> {
    let labels = (0..MULTI_RUNTIME_SETS).map(|s| format!("s{s}"));
    let spec = fixed_spec("multi_runtime", opts, vec![], labels);
    Ok(campaign(spec, |unit, inner_threads| {
        let seed = unit.point as u64;
        let mut ts = tri_level_taskset(100 + seed, 0.10, 8)?;
        let mut scheme = MultiScheme::with_seed(seed);
        scheme.ga.threads = inner_threads;
        let report = scheme.design(&mut ts)?;
        let sim = simulate_multi(
            &ts,
            &MultiSimConfig {
                horizon: Duration::from_secs(20),
                exec_model: JobExecModel::Profile,
                seed,
            },
        )?;
        let upper: u64 = sim.released_per_level[1..].iter().sum();
        Ok(vec![
            Metric::new("n0", report.factors[0]),
            Metric::new("n1", report.factors[1]),
            Metric::new("design_escalation_0", report.metrics.escalation_bounds[0]),
            Metric::new(
                "observed_escalation_0",
                sim.escalations[0] as f64 / upper.max(1) as f64,
            ),
            Metric::new("top_level_misses", sim.top_level_misses() as f64),
            Metric::new(
                "schedulable",
                indicator(report.metrics.analysis.schedulable),
            ),
        ])
    }))
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
pub(super) fn policy_arena(opts: &CatalogOptions) -> Result<Campaign, ExpError> {
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
            replicas: opts.sets.unwrap_or(DEFAULT_SETS),
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
pub(super) fn automotive(opts: &CatalogOptions) -> Result<Campaign, ExpError> {
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
/// roster's policy-major points over `u_values`, and a runner that races
/// one entrant on one seeded task set of `workload` (see
/// [`evaluate_arena_one_set`]), simulating it for `horizon_secs`.
///
/// The runner keeps one [`SharedRuns`] store, keyed by the set's grid
/// position `(u_index, replica)`. The runner fixes the workload, the WCET
/// policy and the base config, so the key fixes the designed set, and the
/// entrants raced on it share every run no overrun made policy-dependent.
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
    let seed = spec.seed;
    let runs = SharedRuns::new(roster.len());
    Ok(campaign(spec, move |unit, _| {
        let (policy_index, u_index) = split_policy_major(unit, u_values.len());
        // Policy-independent seed: every policy sees the same task sets.
        let e = evaluate_arena_one_set(
            u_values[u_index],
            &arena_wcet(),
            &roster[policy_index],
            &workload,
            derive_set_seed(seed, u_index, unit.replica),
            &SimConfig::new(Duration::from_secs(horizon_secs)),
            &runs,
            (u_index, unit.replica),
        )?;
        Ok(vec![
            Metric::new("schedulable", e.schedulable),
            Metric::new("service_level", e.service_level),
            Metric::new("switch_rate", e.switch_rate),
            Metric::new("task_switch_rate", e.task_switch_rate),
            Metric::new("lc_qos", e.lc_qos),
            Metric::new("hc_miss_rate", e.hc_miss_rate),
        ])
    }))
}

#[cfg(test)]
mod tests {
    use super::super::{build, tests::run_in_memory};
    use super::*;
    use crate::store::Metric;

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
        let aggs = run_in_memory(&build("policy_arena", &opts).unwrap());
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
            &SharedRuns::new(1),
            (),
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
        let aggs = run_in_memory(&build("automotive", &opts).unwrap());
        assert_eq!(aggs.len(), 5, "one row per policy at the single u");
        for agg in &aggs {
            let s = agg.mean("schedulable").unwrap();
            assert!((0.0..=1.0).contains(&s), "{}: {s}", agg.label);
            assert!(agg.mean("lc_qos").is_some());
        }
    }

    #[test]
    fn multi_level_designs_escalate_less_as_factors_grow() {
        let aggs = run_in_memory(&build("multi_sweep", &CatalogOptions::default()).unwrap());
        for pair in aggs.windows(2) {
            assert!(pair[1].mean("escalation_bound_0") < pair[0].mean("escalation_bound_0"));
        }
    }
}
