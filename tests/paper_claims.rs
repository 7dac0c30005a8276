//! Small-scale checks of the paper's headline claims — the qualitative
//! *shapes* of its tables and figures, run fast enough for CI. The full
//! regeneration lives in `crates/bench`'s experiment binaries.

use chebymc::core::policy::paper_lambda_baselines;
use chebymc::prelude::*;
use rand::SeedableRng;

/// Table II's structure: the analysis column is exactly `1/(1+n²)` and the
/// measured column is far below it for every benchmark.
#[test]
fn table2_analysis_column_and_measured_slack() {
    let analysis: Vec<f64> = (0..=4).map(|n| one_sided_bound(n as f64) * 100.0).collect();
    assert_eq!(analysis[0], 100.0);
    assert_eq!(analysis[1], 50.0);
    assert!((analysis[2] - 20.0).abs() < 1e-9);
    assert!((analysis[3] - 10.0).abs() < 1e-9);
    assert!((analysis[4] - 5.882).abs() < 0.001);

    for bench in benchmarks::table2_suite().unwrap() {
        let trace = bench.sample_trace(20_000, 77).unwrap();
        let s = trace.summary().unwrap();
        // At n = 2 the paper measures ~2–3 % against the 20 % bound: at
        // least a 4x gap holds for every benchmark model.
        let measured = trace
            .overrun_rate(s.mean() + 2.0 * s.std_dev())
            .unwrap()
            .rate();
        assert!(
            measured < 0.05,
            "{}: measured {measured} not ≪ 0.2",
            bench.name()
        );
    }
}

/// Fig. 2's structure: as the uniform n grows, both P_MS and max U_LC^LO
/// fall, and the Eq. 13 objective peaks at an interior n.
#[test]
fn fig2_shape_interior_optimum() {
    // The paper's case study: U_HC^HI = 0.85.
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let ts = generate_hc_taskset(0.85, &GeneratorConfig::default(), &mut rng).unwrap();
    let problem = WcetProblem::from_taskset(&ts, ProblemConfig::default()).unwrap();

    let sweep = chebymc::opt::grid::integer_sweep(&problem, 40).unwrap();
    for pair in sweep.windows(2) {
        assert!(pair[1].objective.p_ms <= pair[0].objective.p_ms + 1e-12);
        assert!(pair[1].objective.max_u_lc_lo <= pair[0].objective.max_u_lc_lo + 1e-12);
    }
    let best =
        chebymc::opt::grid::best_uniform(&problem, &(0..=40).map(f64::from).collect::<Vec<_>>())
            .unwrap();
    assert!(best.n > 0.0, "n = 0 has P_MS = 1 and zero objective");
    assert!(best.n < 40.0, "the objective must decay for huge n");
    assert!(best.objective.fitness > 0.0);
}

/// Fig. 3's structure: P_MS grows with U_HC^HI at fixed n; max U_LC^LO
/// falls; the optimum uniform n (weakly) decreases with utilisation.
#[test]
fn fig3_shape_utilization_trends() {
    let batch = BatchConfig {
        task_sets: 30,
        seed: 9,
        generator: GeneratorConfig::default(),
        threads: 0,
    };
    let policy = WcetPolicy::ChebyshevUniform { n: 10.0 };
    let pts = evaluate_policy_over_utilization(&[0.4, 0.6, 0.8], &policy, &batch).unwrap();
    assert!(pts[0].mean_p_ms < pts[1].mean_p_ms);
    assert!(pts[1].mean_p_ms < pts[2].mean_p_ms);
    assert!(pts[0].mean_max_u_lc_lo > pts[2].mean_max_u_lc_lo);
}

/// Fig. 4/5's headline: the GA scheme dominates every λ-range baseline on
/// the combined objective, at low and high utilisation alike.
#[test]
fn fig4_fig5_scheme_dominates_lambda_baselines() {
    let batch = BatchConfig {
        task_sets: 25,
        seed: 31,
        generator: GeneratorConfig::default(),
        threads: 0,
    };
    let scheme = WcetPolicy::ChebyshevGa {
        ga: GaConfig {
            population_size: 32,
            generations: 25,
            ..GaConfig::default()
        },
        problem: ProblemConfig::default(),
    };
    let us = [0.4, 0.8];
    let ours = evaluate_policy_over_utilization(&us, &scheme, &batch).unwrap();
    for baseline in paper_lambda_baselines() {
        let theirs = evaluate_policy_over_utilization(&us, &baseline, &batch).unwrap();
        for (o, t) in ours.iter().zip(&theirs) {
            assert!(
                o.mean_objective >= t.mean_objective,
                "U = {}: scheme {} vs {} {}",
                o.u_hc_hi,
                o.mean_objective,
                baseline.name(),
                t.mean_objective
            );
        }
    }
    // And the paper's worst-case P_MS claim shape: bounded around ~10 %.
    assert!(
        ours.iter().all(|p| p.mean_p_ms < 0.25),
        "P_MS stays bounded: {:?}",
        ours.iter().map(|p| p.mean_p_ms).collect::<Vec<_>>()
    );
}

/// Fig. 6's structure: acceptance is 1 at low bounds, decays at high
/// bounds, and the scheme's curve sits on or above the λ baseline for both
/// scheduling approaches.
#[test]
fn fig6_acceptance_ordering() {
    let batch = BatchConfig {
        task_sets: 30,
        seed: 17,
        generator: GeneratorConfig::default(),
        threads: 0,
    };
    let bounds = [0.5, 0.8, 0.95];
    let ours = WcetPolicy::ChebyshevUniform { n: 3.0 };
    let baseline = WcetPolicy::LambdaRange {
        lambda_min: 0.25,
        seed: 0,
    };
    for approach in [
        PolicySpec::EdfVdDropAll,
        PolicySpec::LiuDegrade { fraction: 0.5 },
    ] {
        let a = acceptance_ratio(&bounds, &ours, &approach, &batch).unwrap();
        let b = acceptance_ratio(&bounds, &baseline, &approach, &batch).unwrap();
        assert_eq!(a[0].ratio, 1.0, "everything fits at U = 0.5");
        for (x, y) in a.iter().zip(&b) {
            assert!(
                x.ratio >= y.ratio,
                "{approach:?} at U = {}: ours {} < baseline {}",
                x.u_bound,
                x.ratio,
                y.ratio
            );
        }
        // Monotone decay.
        assert!(a[0].ratio >= a[1].ratio && a[1].ratio >= a[2].ratio);
    }
}

/// Table I's motivating observation: no single λ works across benchmarks —
/// at λ = 1/16 some benchmarks overrun on almost every job while others
/// almost never do.
#[test]
fn table1_no_single_lambda_fits_all() {
    let mut rates = Vec::new();
    for bench in benchmarks::all().unwrap() {
        let trace = bench.sample_trace(20_000, 55).unwrap();
        let level = bench.spec().wcet_pes / 16.0;
        rates.push((
            bench.name().to_string(),
            trace.overrun_rate(level).unwrap().rate(),
        ));
    }
    let max = rates.iter().map(|(_, r)| *r).fold(0.0f64, f64::max);
    let min = rates.iter().map(|(_, r)| *r).fold(1.0f64, f64::min);
    assert!(
        max > 0.9,
        "some benchmark must overrun WCET/16 almost always: {rates:?}"
    );
    assert!(
        min < 0.05,
        "some benchmark must almost never overrun WCET/16: {rates:?}"
    );
    // Whereas ACET-relative levels behave uniformly (~50 % at the mean).
    for bench in benchmarks::all().unwrap() {
        let trace = bench.sample_trace(20_000, 56).unwrap();
        let rate = trace.overrun_rate(bench.spec().acet).unwrap().rate();
        assert!(
            (0.4..0.6).contains(&rate),
            "{}: ACET-level overrun {rate}",
            bench.name()
        );
    }
}
