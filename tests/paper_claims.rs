//! Small-scale checks of the paper's headline claims — the qualitative
//! *shapes* of its tables and figures, run fast enough for CI. Figs. 3–6
//! run the `chebymc exp` catalog campaigns that write `results/` (see
//! `scripts/regen_results.sh`), at fewer sets and utilisation points.

use chebymc::exp::catalog::{self, CatalogOptions};
use chebymc::exp::{aggregate, run_campaign, PointAggregate, RunConfig, Store};
use chebymc::prelude::*;
use rand::SeedableRng;

/// Runs the catalog campaign `name` in memory with `sets` task sets per
/// point, base seed `seed` and utilisation axis `points`, and returns its
/// per-point means.
fn run_catalog(name: &str, sets: usize, seed: u64, points: &[f64]) -> Vec<PointAggregate> {
    let options = CatalogOptions {
        sets: Some(sets),
        seed: Some(seed),
        points: Some(points.to_vec()),
        ..CatalogOptions::default()
    };
    let campaign = catalog::build(name, &options).unwrap();
    let mut store = Store::in_memory(&campaign.spec);
    run_campaign(
        &campaign.spec,
        campaign.runner.as_ref(),
        &mut store,
        &RunConfig::default(),
    )
    .unwrap();
    aggregate(&campaign.spec, store.records()).unwrap()
}

/// The mean of `metric` at the point labelled `<policy>/u<u>`.
fn mean(aggs: &[PointAggregate], policy: &str, u: f64, metric: &str) -> f64 {
    let label = format!("{policy}/u{u:.2}");
    aggs.iter()
        .find(|a| a.label == label)
        .and_then(|a| a.mean(metric))
        .unwrap_or_else(|| panic!("no `{metric}` at `{label}`"))
}

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

/// Fig. 3's structure: at a fixed n, P_MS grows with U_HC^HI and
/// max U_LC^LO falls; at a fixed U_HC^HI, a larger n lowers P_MS without
/// raising max U_LC^LO; the optimum uniform n does not increase with
/// U_HC^HI.
#[test]
fn fig3_shape_utilization_trends() {
    let us = [0.4, 0.6, 0.8];
    let fig3 = run_catalog("fig3", 30, 9, &us);
    let at = |n: u32, u: f64, metric: &str| mean(&fig3, &format!("chebyshev-n{n}"), u, metric);
    assert!(at(10, 0.4, "p_ms") < at(10, 0.6, "p_ms"));
    assert!(at(10, 0.6, "p_ms") < at(10, 0.8, "p_ms"));
    assert!(at(10, 0.4, "max_u_lc_lo") > at(10, 0.8, "max_u_lc_lo"));
    assert!(at(20, 0.6, "p_ms") < at(2, 0.6, "p_ms"));
    assert!(at(20, 0.6, "max_u_lc_lo") <= at(2, 0.6, "max_u_lc_lo") + 1e-9);
    let optimum = |u: f64| {
        (0..=40)
            .max_by(|&a, &b| at(a, u, "objective").total_cmp(&at(b, u, "objective")))
            .unwrap()
    };
    let optima = us.map(optimum);
    assert!(
        optima.windows(2).all(|w| w[0] >= w[1]),
        "optimum n {optima:?}"
    );
}

/// Fig. 4/5's headline: the GA scheme dominates every λ-range baseline
/// (and ACET) on the combined objective, at low and high utilisation
/// alike.
#[test]
fn fig4_fig5_scheme_dominates_lambda_baselines() {
    let us = [0.4, 0.8];
    let fig5 = run_catalog("fig5", 25, 31, &us);
    let policies = catalog::fig5_policies();
    let scheme = policies[0].name();
    for u in us {
        let ours = mean(&fig5, &scheme, u, "objective");
        for other in &policies[1..] {
            let theirs = mean(&fig5, &other.name(), u, "objective");
            assert!(
                ours >= theirs,
                "U = {u}: scheme {ours} vs {} {theirs}",
                other.name()
            );
        }
        // And the paper's worst-case P_MS claim shape: bounded around ~10 %.
        let p_ms = mean(&fig5, &scheme, u, "p_ms");
        assert!(p_ms < 0.25, "U = {u}: P_MS {p_ms} is not bounded");
    }
}

/// Fig. 6's structure: with the scheme, acceptance is 1 at a low bound and
/// decays at high bounds, and it sits on or above the published approach
/// for both Baruah'12 and Liu'16.
#[test]
fn fig6_acceptance_ordering() {
    let bounds = [0.5, 0.8, 0.95];
    let fig6 = run_catalog("fig6", 30, 17, &bounds);
    for approach in ["baruah12", "liu16"] {
        let with_scheme = format!("{approach}+scheme");
        let ratios = |name: &str| bounds.map(|u| mean(&fig6, name, u, "accepted"));
        let (ours, published) = (ratios(&with_scheme), ratios(approach));
        assert_eq!(ours[0], 1.0, "{with_scheme}: everything fits at U = 0.5");
        for ((u, x), y) in bounds.iter().zip(ours).zip(published) {
            assert!(x >= y, "{approach} at U = {u}: ours {x} < published {y}");
        }
        // Monotone decay.
        assert!(
            ours[0] >= ours[1] && ours[1] >= ours[2],
            "{with_scheme}: {ours:?}"
        );
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
