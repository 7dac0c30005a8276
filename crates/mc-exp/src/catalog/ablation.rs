//! The ablations of DESIGN.md §5 and the GA convergence diagnostics:
//! solver choice, Eq. 9 constraint handling, distribution robustness of
//! Theorem 1 (and the EVT comparison), the σ estimator, measurement drift,
//! and how quickly the GA settles.

use super::paper::PAPER_SAMPLES;
use super::{campaign, fixed_spec, indicator, Campaign, CatalogOptions};
use crate::spec::{CampaignSpec, Param, PointSpec};
use crate::store::Metric;
use crate::ExpError;
use mc_exec::benchmarks;
use mc_exec::trace::ExecutionTrace;
use mc_opt::anneal::{anneal, SaConfig};
use mc_opt::ga::optimize;
use mc_opt::grid::{best_uniform, exhaustive_search};
use mc_opt::{GaConfig, ProblemConfig, WcetProblem};
use mc_stats::chebyshev::one_sided_bound;
use mc_stats::dist::Dist;
use mc_stats::estimate::exceedance_rate;
use mc_stats::evt::evt_level_for_factor;
use mc_stats::summary::Summary;
use mc_stats::StatsError;
use mc_task::generate::{generate_hc_taskset, GeneratorConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// The optimiser ablation's task sets: generator seed, `U_HC^HI`, and
/// whether the set is small (few chunky tasks, so the exhaustive grid
/// stays tractable).
const OPTIMIZER_SETS: [(u64, f64, bool); 3] = [(1, 0.3, true), (2, 0.6, true), (3, 0.85, false)];

/// The solvers of the optimiser ablation; the exhaustive grid runs on the
/// small sets only.
const SOLVERS: [&str; 4] = ["ga", "sim-anneal", "best-uniform-n", "exhaustive-grid"];

/// Solver choice for the Eq. 13 problem: the paper's GA vs simulated
/// annealing (as many evaluations as the GA) vs the best *uniform* `n` vs
/// the exhaustive per-task grid (ground truth on small sets). Points are
/// `set × solver`.
pub(super) fn optimizers(opts: &CatalogOptions) -> Result<Campaign, ExpError> {
    let mut axis = Vec::new();
    let mut labels = Vec::new();
    for (set, &(_, u, small)) in OPTIMIZER_SETS.iter().enumerate() {
        let solvers = if small {
            SOLVERS.len()
        } else {
            SOLVERS.len() - 1
        };
        for (solver, name) in SOLVERS.iter().enumerate().take(solvers) {
            axis.push((set, solver));
            labels.push(format!("u{u:.2}/{name}"));
        }
    }
    let spec = fixed_spec("ablation_optimizers", opts, vec![], labels);
    Ok(campaign(spec, move |unit, inner_threads| {
        let (set, solver) = axis[unit.point];
        let (seed, u, small) = OPTIMIZER_SETS[set];
        let mut generator = GeneratorConfig::default();
        if small {
            generator.task_utilization = (0.1, 0.2);
        }
        let ts = generate_hc_taskset(u, &generator, &mut StdRng::seed_from_u64(seed))?;
        let problem = WcetProblem::from_taskset(&ts, ProblemConfig::default())?;
        let ga = GaConfig {
            threads: inner_threads,
            ..GaConfig::default()
        };
        let objective = match solver {
            0 => problem.solve_ga(&ga)?.objective.fitness,
            1 => {
                let sa = SaConfig {
                    iterations: ga.population_size * ga.generations,
                    ..SaConfig::default()
                };
                anneal(&problem.bounds()?, |c| problem.objective(c).fitness, &sa)?.best_fitness
            }
            2 => {
                let ns: Vec<f64> = (0..=200).map(|i| f64::from(i) / 4.0).collect();
                best_uniform(&problem, &ns)?.objective.fitness
            }
            _ => {
                if problem.dimension() > 4 {
                    return Err(ExpError::Config(format!(
                        "the exhaustive grid is 31^n: {} HC tasks is too many",
                        problem.dimension()
                    )));
                }
                let grid: Vec<f64> = (0..=30).map(f64::from).collect();
                exhaustive_search(&problem, &grid)?.objective.fitness
            }
        };
        Ok(vec![
            Metric::new("tasks", problem.dimension() as f64),
            Metric::new("objective", objective),
        ])
    }))
}

/// `U_HC^HI` values of the constraint-handling ablation.
const CONSTRAINT_U: [f64; 3] = [0.4, 0.6, 0.8];

/// Seeded task sets per utilisation in the constraint-handling ablation.
const CONSTRAINT_SETS: usize = 5;

/// Eq. 9 constraint handling in the GA: clamp-repair (genes bounded by
/// each task's max factor, the default) vs death penalty (wide bounds,
/// infeasible chromosomes scored zero). Points are `u × set`; set `s` is
/// generated at seed `100 + s` and its GA seeded `s`.
pub(super) fn constraints(opts: &CatalogOptions) -> Result<Campaign, ExpError> {
    let labels = CONSTRAINT_U
        .iter()
        .flat_map(|u| (0..CONSTRAINT_SETS).map(move |s| format!("u{u:.1}/s{s}")));
    let spec = fixed_spec("ablation_constraints", opts, vec![], labels);
    Ok(campaign(spec, |unit, inner_threads| {
        let u = CONSTRAINT_U[unit.point / CONSTRAINT_SETS];
        let set = (unit.point % CONSTRAINT_SETS) as u64;
        let mut rng = StdRng::seed_from_u64(100 + set);
        let ts = generate_hc_taskset(u, &GeneratorConfig::default(), &mut rng)?;
        let problem = WcetProblem::from_taskset(&ts, ProblemConfig::default())?;
        let ga = GaConfig {
            seed: set,
            threads: inner_threads,
            ..GaConfig::default()
        };
        let fitness = |c: &[f64]| problem.objective(c).fitness;
        let clamp = optimize(&problem.bounds()?, fitness, &ga)?.best_fitness;
        let penalty = optimize(&problem.bounds_penalty_only()?, fitness, &ga)?.best_fitness;
        Ok(vec![
            Metric::new("clamp_objective", clamp),
            Metric::new("penalty_objective", penalty),
            Metric::new("penalty_over_clamp_pct", penalty / clamp.max(1e-12) * 100.0),
        ])
    }))
}

/// Execution-time distribution families with mean 10⁶ and σ 10⁵ (the
/// Weibull is scaled to the mean only: levels are taken from *measured*
/// moments either way).
fn families() -> Result<Vec<(&'static str, Dist)>, StatsError> {
    let mean = 1.0e6;
    let sd = 1.0e5;
    Ok(vec![
        ("normal", Dist::normal(mean, sd)?),
        ("gumbel", Dist::gumbel_from_moments(mean, sd)?),
        ("gumbel-min", Dist::gumbel_min_from_moments(mean, sd)?),
        ("lognormal", Dist::log_normal_from_moments(mean, sd)?),
        (
            "weibull-k1.5",
            Dist::weibull(1.5, mean / mc_stats::dist::gamma(1.0 + 1.0 / 1.5))?,
        ),
        (
            "bimodal",
            Dist::mixture([
                (0.8, Dist::normal(mean * 0.95, sd * 0.5)?),
                (0.2, Dist::normal(mean * 1.2, sd * 0.8)?),
            ])?,
        ),
    ])
}

/// Factors of the distribution-robustness ablation.
const DISTRIBUTION_N: [f64; 3] = [1.0, 2.0, 3.0];

/// Distribution robustness of Theorem 1: the measured exceedance of
/// `ACET + n·σ` (moments measured on the sample) against the
/// distribution-free bound `1/(1+n²)`. Points are `family × n`; family `i`
/// is sampled at seed `10 + i`. A measured rate above the bound fails the
/// unit: the theorem must hold.
pub(super) fn distributions(opts: &CatalogOptions) -> Result<Campaign, ExpError> {
    let samples = opts.samples.unwrap_or(PAPER_SAMPLES);
    let families = families()?;
    let labels: Vec<String> = families
        .iter()
        .flat_map(|(name, _)| DISTRIBUTION_N.iter().map(move |n| format!("{name}/n{n}")))
        .collect();
    let spec = fixed_spec(
        "ablation_distributions",
        opts,
        vec![Param::new("samples", samples as f64)],
        labels,
    );
    Ok(campaign(spec, move |unit, _| {
        let family = unit.point / DISTRIBUTION_N.len();
        let n = DISTRIBUTION_N[unit.point % DISTRIBUTION_N.len()];
        let (name, dist) = &families[family];
        let mut rng = StdRng::seed_from_u64(10 + family as u64);
        let xs = dist.sample_vec(&mut rng, samples);
        let s = Summary::from_samples(&xs)?;
        let measured = exceedance_rate(&xs, s.mean() + n * s.std_dev())?.rate();
        let bound = one_sided_bound(n);
        if measured > bound + 1e-12 {
            return Err(ExpError::Config(format!(
                "{name}: Theorem 1 violated at n = {n} ({measured} > {bound})"
            )));
        }
        Ok(vec![
            Metric::new("measured_overrun", measured),
            Metric::new("bound", bound),
        ])
    }))
}

/// Factors of the EVT comparison.
const EVT_N: [f64; 2] = [2.0, 3.0];

/// Block size of the Gumbel block-maxima fit.
const EVT_BLOCK: usize = 50;

/// EVT vs Chebyshev at equal nominal risk `p = 1/(1+n²)`: the Gumbel
/// block-maxima level against `ACET + n·σ` on the same sample. Points are
/// `family × n`; family `i` is sampled at seed `40 + i`.
pub(super) fn evt(opts: &CatalogOptions) -> Result<Campaign, ExpError> {
    let samples = opts.samples.unwrap_or(PAPER_SAMPLES);
    let families = families()?;
    let labels: Vec<String> = families
        .iter()
        .flat_map(|(name, _)| EVT_N.iter().map(move |n| format!("{name}/n{n}")))
        .collect();
    let spec = fixed_spec(
        "ablation_evt",
        opts,
        vec![Param::new("samples", samples as f64)],
        labels,
    );
    Ok(campaign(spec, move |unit, _| {
        let family = unit.point / EVT_N.len();
        let n = EVT_N[unit.point % EVT_N.len()];
        let mut rng = StdRng::seed_from_u64(40 + family as u64);
        let xs = families[family].1.sample_vec(&mut rng, samples);
        let s = Summary::from_samples(&xs)?;
        let chebyshev = s.mean() + n * s.std_dev();
        let evt = evt_level_for_factor(&xs, EVT_BLOCK, n)?;
        Ok(vec![
            Metric::new("chebyshev_level", chebyshev),
            Metric::new("evt_level", evt),
            Metric::new("evt_over_chebyshev", evt / chebyshev),
        ])
    }))
}

/// Trace lengths of the σ-estimator ablation.
const ABLATION_M: [usize; 5] = [10, 30, 100, 1_000, 20_000];

/// The σ-estimator ablation: population vs sample σ and the sensitivity
/// of `C_LO` to the trace length `m` (benchmark `corner`, `n = 3`, trace
/// seed 4). The measured overrun of each `C_LO` comes from one long
/// reference trace (seed 999), sampled once and shared across units.
pub(super) fn sigma(opts: &CatalogOptions) -> Result<Campaign, ExpError> {
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
    let bench = benchmarks::corner()?;
    let reference: OnceLock<Result<ExecutionTrace, String>> = OnceLock::new();
    Ok(campaign(spec, move |unit, _| {
        let n = 3.0;
        let trace = bench.sample_trace(ABLATION_M[unit.point], 4)?;
        let s = Summary::from_samples(trace.samples())?;
        let c_pop = s.mean() + n * s.std_dev();
        let c_sample = s.mean() + n * s.sample_std_dev();
        let reference = reference
            .get_or_init(|| bench.sample_trace(200_000, 999).map_err(|e| e.to_string()))
            .as_ref()
            .map_err(|e| ExpError::Config(format!("reference trace failed: {e}")))?;
        Ok(vec![
            Metric::new("acet", s.mean()),
            Metric::new("pop_sigma", s.std_dev()),
            Metric::new("sample_sigma", s.sample_std_dev()),
            Metric::new("c_lo_pop", c_pop),
            Metric::new("c_lo_sample", c_sample),
            Metric::new("delta_pct", (c_sample / c_pop - 1.0) * 100.0),
            Metric::new("measured_overrun", reference.overrun_rate(c_pop)?.rate()),
        ])
    }))
}

/// Moment drifts of the measurement-noise ablation: label, ACET scale,
/// σ scale.
const DRIFTS: [(&str, f64, f64); 6] = [
    ("none", 1.0, 1.0),
    ("acet-10%", 0.9, 1.0),
    ("acet+10%", 1.1, 1.0),
    ("sigma-30%", 1.0, 0.7),
    ("sigma+30%", 1.0, 1.3),
    ("both-20%", 0.8, 0.8),
];

/// Robustness to measurement error: `C_LO` designed at `n = 3` from
/// drifted `(ACET, σ)`, evaluated on the true distribution (trace seed 7).
/// Points are `benchmark × drift`.
pub(super) fn noise(opts: &CatalogOptions) -> Result<Campaign, ExpError> {
    let samples = opts.samples.unwrap_or(PAPER_SAMPLES);
    let suite = benchmarks::table2_suite()?;
    let labels: Vec<String> = suite
        .iter()
        .flat_map(|b| DRIFTS.iter().map(move |d| format!("{}/{}", b.name(), d.0)))
        .collect();
    let spec = fixed_spec(
        "ablation_noise",
        opts,
        vec![Param::new("samples", samples as f64)],
        labels,
    );
    Ok(campaign(spec, move |unit, _| {
        let n = 3.0;
        let (_, acet_scale, sigma_scale) = DRIFTS[unit.point % DRIFTS.len()];
        let truth = suite[unit.point / DRIFTS.len()].sample_trace(samples, 7)?;
        let s = truth.summary()?;
        let c_lo = s.mean() * acet_scale + n * s.std_dev() * sigma_scale;
        let measured = truth.overrun_rate(c_lo)?.rate();
        Ok(vec![
            Metric::new("c_lo", c_lo),
            Metric::new("true_overrun", measured),
            Metric::new("within_bound", indicator(measured <= one_sided_bound(n))),
        ])
    }))
}

/// The convergence diagnostics' problem: one HC set at `U_HC^HI = 0.8`
/// (generator seed 12).
fn convergence_problem() -> Result<WcetProblem, ExpError> {
    let mut rng = StdRng::seed_from_u64(12);
    let ts = generate_hc_taskset(0.8, &GeneratorConfig::default(), &mut rng)?;
    Ok(WcetProblem::from_taskset(&ts, ProblemConfig::default())?)
}

/// Generations of the convergence trajectory.
const CONVERGENCE_GENERATIONS: usize = 80;

/// GA convergence: the best and mean fitness of one default-configured GA
/// run at every fifth generation and the last, and the best as a share of
/// the final objective. One point per reported generation.
pub(super) fn convergence(opts: &CatalogOptions) -> Result<Campaign, ExpError> {
    let generations: Vec<usize> = (0..CONVERGENCE_GENERATIONS)
        .filter(|g| g % 5 == 0 || *g == CONVERGENCE_GENERATIONS - 1)
        .collect();
    let spec = fixed_spec(
        "convergence",
        opts,
        vec![],
        generations.iter().map(|g| format!("g{g}")),
    );
    Ok(campaign(spec, move |unit, inner_threads| {
        let problem = convergence_problem()?;
        let cfg = GaConfig {
            generations: CONVERGENCE_GENERATIONS,
            threads: inner_threads,
            ..GaConfig::default()
        };
        let r = optimize(&problem.bounds()?, |c| problem.objective(c).fitness, &cfg)?;
        let g = r
            .history
            .iter()
            .find(|g| g.generation == generations[unit.point])
            .ok_or_else(|| ExpError::Config("GA history misses a generation".into()))?;
        Ok(vec![
            Metric::new("best", g.best),
            Metric::new("mean", g.mean),
            Metric::new("best_over_final_pct", g.best / r.best_fitness * 100.0),
        ])
    }))
}

/// Population sizes of the convergence sweep.
const POPULATIONS: [usize; 5] = [16, 32, 64, 128, 256];

/// Population size vs the generations (and evaluations) a 120-generation
/// GA run needs to reach 99 % of its final objective, on the convergence
/// problem. One point per population size.
pub(super) fn convergence_population(opts: &CatalogOptions) -> Result<Campaign, ExpError> {
    let spec = fixed_spec(
        "convergence_population",
        opts,
        vec![],
        POPULATIONS.iter().map(|p| format!("pop{p}")),
    );
    Ok(campaign(spec, |unit, inner_threads| {
        let problem = convergence_problem()?;
        let population = POPULATIONS[unit.point];
        let cfg = GaConfig {
            population_size: population,
            generations: 120,
            threads: inner_threads,
            ..GaConfig::default()
        };
        let r = optimize(&problem.bounds()?, |c| problem.objective(c).fitness, &cfg)?;
        let target = 0.99 * r.best_fitness;
        let generations = r
            .history
            .iter()
            .find(|g| g.best >= target)
            .map_or(cfg.generations, |g| g.generation);
        Ok(vec![
            Metric::new("generations_to_99", generations as f64),
            Metric::new("evaluations_to_99", (generations * population) as f64),
        ])
    }))
}

#[cfg(test)]
mod tests {
    use super::super::{build, tests::run_in_memory};
    use super::*;

    #[test]
    fn ablation_sigma_runs_end_to_end() {
        let aggs = run_in_memory(&build("ablation_sigma", &CatalogOptions::default()).unwrap());
        assert_eq!(aggs[0].label, "m10");
        let pop = aggs[0].mean("pop_sigma").unwrap();
        let sample = aggs[0].mean("sample_sigma").unwrap();
        assert!(sample > pop, "Bessel correction widens σ at m=10");
    }

    #[test]
    fn optimizer_ablation_runs_the_grid_on_small_sets_only() {
        let c = build("ablation_optimizers", &CatalogOptions::default()).unwrap();
        let grids = c
            .spec
            .points
            .iter()
            .filter(|p| p.label.ends_with("exhaustive-grid"))
            .count();
        assert_eq!((c.spec.points.len(), grids), (11, 2));
    }
}
