//! The paper's evaluation (§V): Tables I–II, Figs. 1–6, and the runtime
//! validation of §I's operational claims.

use super::{
    campaign, fixed_spec, indicator, policy_major_points, split_policy_major, Campaign,
    CatalogOptions,
};
use crate::spec::{CampaignSpec, Param, PointSpec};
use crate::store::Metric;
use crate::ExpError;
use chebymc_core::metrics::design_metrics;
use chebymc_core::pipeline::{admit_lo_bounded_one_set, derive_set_seed, evaluate_policy_one_set};
use chebymc_core::policy::{paper_lambda_baselines, WcetPolicy};
use mc_exec::benchmarks;
use mc_opt::{GaConfig, ProblemConfig, WcetProblem};
use mc_sched::policy::PolicySpec;
use mc_sched::sim::{simulate, SimConfig};
use mc_stats::chebyshev::one_sided_bound;
use mc_task::generate::{generate_hc_taskset, generate_mixed_taskset, GeneratorConfig};
use mc_task::time::Duration;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Sampled instances per benchmark: the size of the paper's measurement
/// campaign.
pub(super) const PAPER_SAMPLES: usize = 20_000;

/// Task sets per point of the set-based campaigns when `--sets` is not
/// given (the paper uses 1000).
pub(super) const DEFAULT_SETS: usize = 200;

/// The scheme's GA as Figs. 4–6 and the runtime validation run it.
fn paper_ga() -> GaConfig {
    GaConfig {
        population_size: 48,
        generations: 40,
        ..GaConfig::default()
    }
}

/// The proposed scheme: per-task factors from [`paper_ga`].
fn scheme() -> WcetPolicy {
    WcetPolicy::ChebyshevGa {
        ga: paper_ga(),
        problem: ProblemConfig::default(),
    }
}

/// The Fig. 5 policy roster: the GA scheme, the paper's λ baselines, ACET.
#[must_use]
pub fn fig5_policies() -> Vec<WcetPolicy> {
    let mut policies = vec![scheme()];
    policies.extend(paper_lambda_baselines());
    policies.push(WcetPolicy::Acet);
    policies
}

/// Table I: ACET, `WCET_pes` and σ of the seven benchmark configurations,
/// and the fraction of instances that overrun a budget set to the ACET or
/// to `WCET_pes / {4, 8, 16, 32, 64}`. One point per benchmark; benchmark
/// `i` is sampled at seed `100 + i`.
pub(super) fn table1(opts: &CatalogOptions) -> Result<Campaign, ExpError> {
    let samples = opts.samples.unwrap_or(PAPER_SAMPLES);
    let suite = benchmarks::all()?;
    let spec = fixed_spec(
        "table1",
        opts,
        vec![Param::new("samples", samples as f64)],
        suite.iter().map(|b| b.name().to_string()),
    );
    Ok(campaign(spec, move |unit, _| {
        let bench = &suite[unit.point];
        let trace = bench.sample_trace(samples, 100 + unit.point as u64)?;
        let s = trace.summary()?;
        let wcet = bench.spec().wcet_pes;
        let mut metrics = vec![
            Metric::new("acet", s.mean()),
            Metric::new("wcet_pes", wcet),
            Metric::new("std_dev", s.std_dev()),
            Metric::new("overrun_at_acet", trace.overrun_rate(s.mean())?.rate()),
        ];
        for divisor in [4u32, 8, 16, 32, 64] {
            let level = wcet / f64::from(divisor);
            metrics.push(Metric::new(
                format!("overrun_at_wcet_{divisor}"),
                trace.overrun_rate(level)?.rate(),
            ));
        }
        Ok(metrics)
    }))
}

/// Table II: the `1/(1+n²)` analysis bound vs the measured overrun rate
/// of each benchmark at `ACET + n·σ`. Points are benchmark-major
/// (`point = benchmark_index * 5 + n`); benchmark `i` is sampled at seed
/// `200 + i`.
pub(super) fn table2(opts: &CatalogOptions) -> Result<Campaign, ExpError> {
    let samples = opts.samples.unwrap_or(PAPER_SAMPLES);
    let suite = benchmarks::table2_suite()?;
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
    Ok(campaign(spec, move |unit, _| {
        let bi = unit.point / 5;
        let n = (unit.point % 5) as f64;
        let trace = suite[bi].sample_trace(samples, 200 + bi as u64)?;
        let s = trace.summary()?;
        let level = s.mean() + n * s.std_dev();
        Ok(vec![
            Metric::new("analysis_bound", one_sided_bound(n)),
            Metric::new("overrun_rate", trace.overrun_rate(level)?.rate()),
        ])
    }))
}

/// Histogram bins of Fig. 1.
const FIG1_BINS: usize = 40;

/// Fig. 1: the execution-time distribution of benchmark `corner` (trace
/// seed 1) against its static WCET. One point per histogram bin, carrying
/// the bin's edges and count plus the trace's summary.
pub(super) fn fig1(opts: &CatalogOptions) -> Result<Campaign, ExpError> {
    let samples = opts.samples.unwrap_or(PAPER_SAMPLES);
    let bench = benchmarks::corner()?;
    let spec = fixed_spec(
        "fig1",
        opts,
        vec![Param::new("samples", samples as f64)],
        (0..FIG1_BINS).map(|i| format!("bin{i:02}")),
    );
    Ok(campaign(spec, move |unit, _| {
        let trace = bench.sample_trace(samples, 1)?;
        let s = trace.summary()?;
        let histogram = trace.histogram(FIG1_BINS)?;
        let (low, high) = histogram.bin_edges(unit.point);
        let wcet = bench.spec().wcet_pes;
        Ok(vec![
            Metric::new("bin_low", low),
            Metric::new("bin_high", high),
            Metric::new("count", histogram.count(unit.point) as f64),
            Metric::new("acet", s.mean()),
            Metric::new("sigma", s.std_dev()),
            Metric::new("max_seen", s.max()),
            Metric::new("wcet_pes", wcet),
            Metric::new("wcet_over_acet", wcet / s.mean()),
            Metric::new("wcet_sigmas_above_acet", (wcet - s.mean()) / s.std_dev()),
        ])
    }))
}

/// Fig. 2: the uniform-n sweep `n ∈ {0, …, 40}` on one case-study HC set
/// at `U_HC^HI = 0.85` (generator seed 85). One point per `n`.
pub(super) fn fig2(opts: &CatalogOptions) -> Result<Campaign, ExpError> {
    let spec = fixed_spec("fig2", opts, vec![], (0..=40).map(|n| format!("n{n}")));
    Ok(campaign(spec, |unit, _| {
        let mut rng = StdRng::seed_from_u64(85);
        let ts = generate_hc_taskset(0.85, &GeneratorConfig::default(), &mut rng)?;
        let problem = WcetProblem::from_taskset(&ts, ProblemConfig::default())?;
        let o = problem.objective_uniform(unit.point as f64);
        Ok(vec![
            Metric::new("p_ms", o.p_ms),
            Metric::new("max_u_lc_lo", o.max_u_lc_lo),
            Metric::new("objective", o.fitness),
        ])
    }))
}

/// Fig. 3: the design metrics of every uniform `n ∈ {0, …, 40}` as
/// `U_HC^HI` varies (campaign seed 3).
pub(super) fn fig3(opts: &CatalogOptions) -> Result<Campaign, ExpError> {
    let policies = (0..=40)
        .map(|n| WcetPolicy::ChebyshevUniform { n: f64::from(n) })
        .collect();
    Ok(design_campaign("fig3", 3, policies, opts))
}

/// Fig. 4: the scheme against the λ-range policies (campaign seed 4).
pub(super) fn fig4(opts: &CatalogOptions) -> Result<Campaign, ExpError> {
    let mut policies = vec![scheme()];
    policies.extend(paper_lambda_baselines());
    Ok(design_campaign("fig4", 4, policies, opts))
}

/// Fig. 5: the Eq. 13 objective of every policy (campaign seed 5).
pub(super) fn fig5(opts: &CatalogOptions) -> Result<Campaign, ExpError> {
    Ok(design_campaign("fig5", 5, fig5_policies(), opts))
}

/// A policy × `U_HC^HI` campaign over HC-only sets (Figs. 3–5): each unit
/// designs one generated set with one policy and reports its `P_MS`,
/// `max(U_LC^LO)` and Eq. 13 objective. Points are policy-major.
fn design_campaign(
    name: &str,
    default_seed: u64,
    policies: Vec<WcetPolicy>,
    opts: &CatalogOptions,
) -> Campaign {
    let seed = opts.seed.unwrap_or(default_seed);
    let u_values: Vec<f64> = opts
        .points
        .clone()
        .unwrap_or_else(|| (4..=9).map(|i| f64::from(i) / 10.0).collect());
    let spec = CampaignSpec {
        name: name.into(),
        seed,
        params: vec![],
        points: policy_major_points(policies.iter().map(WcetPolicy::name), &u_values),
        replicas: opts.sets.unwrap_or(DEFAULT_SETS),
    };
    campaign(spec, move |unit, inner_threads| {
        let (policy_index, u_index) = split_policy_major(unit, u_values.len());
        let e = evaluate_policy_one_set(
            u_values[u_index],
            &policies[policy_index],
            &GeneratorConfig::default(),
            derive_set_seed(seed, u_index, unit.replica),
            inner_threads,
        )?;
        Ok(vec![
            Metric::new("p_ms", e.p_ms),
            Metric::new("max_u_lc_lo", e.max_u_lc_lo),
            Metric::new("objective", e.objective),
        ])
    })
}

/// Fig. 6: the acceptance ratio of Baruah et al. RTNS'12 (EDF-VD, LC
/// tasks dropped in HI mode) and Liu et al. RTSS'16 (LC tasks degraded to
/// 50 %), each as published and with the scheme re-deriving every `C_LO`,
/// as the LO-mode bound utilisation grows (campaign seed 6). Sets are
/// generated with baseline budgets `C_LO = λᵢ·C_HI`, `λᵢ ∈ [1/4, 1]` (see
/// [`admit_lo_bounded_one_set`]). Points are approach-major.
pub(super) fn fig6(opts: &CatalogOptions) -> Result<Campaign, ExpError> {
    let seed = opts.seed.unwrap_or(6);
    let u_bounds: Vec<f64> = opts
        .points
        .clone()
        .unwrap_or_else(|| (10..=20).map(|i| f64::from(i) / 20.0).collect());
    let liu = PolicySpec::LiuDegrade { fraction: 0.5 };
    let approaches = [
        ("baruah12", None, PolicySpec::EdfVdDropAll),
        ("baruah12+scheme", Some(scheme()), PolicySpec::EdfVdDropAll),
        ("liu16", None, liu),
        ("liu16+scheme", Some(scheme()), liu),
    ];
    for (_, _, scheduling) in &approaches {
        scheduling.validate()?;
    }
    let spec = CampaignSpec {
        name: "fig6".into(),
        seed,
        params: vec![],
        points: policy_major_points(approaches.iter().map(|a| a.0.to_string()), &u_bounds),
        replicas: opts.sets.unwrap_or(DEFAULT_SETS),
    };
    Ok(campaign(spec, move |unit, inner_threads| {
        let (approach, u_index) = split_policy_major(unit, u_bounds.len());
        let (_, wcet, scheduling) = &approaches[approach];
        let accepted = admit_lo_bounded_one_set(
            u_bounds[u_index],
            wcet.as_ref(),
            scheduling,
            (0.25, 1.0),
            &GeneratorConfig::default(),
            derive_set_seed(seed, u_index, unit.replica),
            inner_threads,
        )?;
        Ok(vec![Metric::new("accepted", indicator(accepted))])
    }))
}

/// Bound utilisations of the runtime validation.
const RUNTIME_U: [f64; 3] = [0.5, 0.7, 0.9];

/// Seeded task sets per bound utilisation in the runtime validation.
const RUNTIME_SETS: usize = 3;

/// Designs per task set in the runtime validation.
const RUNTIME_DESIGNS: usize = 3;

/// The runtime validation's designs: the scheme (its GA seeded `seed`,
/// on `threads` threads), a tight uniform `n = 2` (visible switching),
/// and the `λ = 1/32` baseline (heavy switching).
fn runtime_designs(seed: u64, threads: usize) -> [WcetPolicy; RUNTIME_DESIGNS] {
    [
        WcetPolicy::ChebyshevGa {
            ga: GaConfig {
                seed,
                threads,
                ..paper_ga()
            },
            problem: ProblemConfig::default(),
        },
        WcetPolicy::ChebyshevUniform { n: 2.0 },
        WcetPolicy::LambdaFraction { lambda: 1.0 / 32.0 },
    ]
}

/// Runtime validation of §I's claims: each seeded mixed set, designed
/// three ways, runs 60 s under drop-all EDF-VD with profile-driven
/// execution times. Points are `u × set × design`; set `s` is generated
/// at seed `1000·s + 7`, its GA design seeded `s`, its simulation
/// `99 + s`. The design-time `P_MS` bound sits next to the observed
/// switch rate.
pub(super) fn runtime(opts: &CatalogOptions) -> Result<Campaign, ExpError> {
    let mut labels = Vec::new();
    for u in RUNTIME_U {
        for s in 0..RUNTIME_SETS {
            for design in runtime_designs(0, 1) {
                labels.push(format!("u{u:.1}/s{s}/{}", design.name()));
            }
        }
    }
    let spec = fixed_spec("runtime", opts, vec![], labels);
    Ok(campaign(spec, |unit, inner_threads| {
        let (set_index, design) = (unit.point / RUNTIME_DESIGNS, unit.point % RUNTIME_DESIGNS);
        let u = RUNTIME_U[set_index / RUNTIME_SETS];
        let set = (set_index % RUNTIME_SETS) as u64;
        let mut rng = StdRng::seed_from_u64(1000 * set + 7);
        let mut ts = generate_mixed_taskset(u, &GeneratorConfig::default(), &mut rng)?;
        runtime_designs(set, inner_threads)[design].assign(&mut ts)?;
        let bound = design_metrics(&ts)?.p_ms;
        let m = simulate(
            &ts,
            &SimConfig {
                seed: 99 + set,
                ..SimConfig::new(Duration::from_secs(60))
            },
        )?;
        Ok(vec![
            Metric::new("p_ms_bound", bound),
            Metric::new("switch_rate", m.switch_rate_per_hc_job()),
            Metric::new("lc_loss_rate", m.lc_loss_rate()),
            Metric::new("hc_misses", m.hc_deadline_misses as f64),
            Metric::new("busy", m.utilization()),
        ])
    }))
}

#[cfg(test)]
mod tests {
    use super::super::{build, tests::run_in_memory};
    use super::*;

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
    fn fig5_units_evaluate_one_set_at_the_derived_seed() {
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
    fn fig3_and_fig4_share_the_design_unit_on_their_own_streams() {
        let c = build("fig3", &CatalogOptions::default()).unwrap();
        assert_eq!((c.spec.seed, c.spec.points.len()), (3, 41 * 6));
        assert_eq!(c.spec.points[2 * 6 + 1].label, "chebyshev-n2/u0.50");
        let c = build("fig4", &CatalogOptions::default()).unwrap();
        assert_eq!((c.spec.seed, c.spec.points.len()), (4, 4 * 6));
        assert!(c.spec.points.iter().all(|p| !p.label.starts_with("acet")));
    }

    #[test]
    fn table2_units_sample_the_pinned_trace_seeds() {
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
    fn fig1_bins_partition_the_trace() {
        let opts = CatalogOptions {
            samples: Some(500),
            ..CatalogOptions::default()
        };
        let aggs = run_in_memory(&build("fig1", &opts).unwrap());
        assert_eq!(aggs.len(), FIG1_BINS);
        let total: f64 = aggs.iter().map(|a| a.mean("count").unwrap()).sum();
        assert_eq!(total, 500.0);
        for pair in aggs.windows(2) {
            assert_eq!(pair[0].mean("bin_high"), pair[1].mean("bin_low"));
        }
        assert!(aggs[0].mean("wcet_over_acet").unwrap() > 10.0);
    }

    #[test]
    fn fig6_scheme_variants_accept_at_least_as_often() {
        let opts = CatalogOptions {
            sets: Some(10),
            points: Some(vec![0.95]),
            ..CatalogOptions::default()
        };
        let aggs = run_in_memory(&build("fig6", &opts).unwrap());
        let ratio = |i: usize| aggs[i].mean("accepted").unwrap();
        assert_eq!(aggs[1].label, "baruah12+scheme/u0.95");
        assert!(ratio(1) >= ratio(0), "{} vs {}", ratio(1), ratio(0));
        assert!(ratio(3) >= ratio(2), "{} vs {}", ratio(3), ratio(2));
    }
}
