//! The parallel hot path's contract: thread count is a pure performance
//! knob. `GaResult`s, `Solution`s, and multistart SA winners must be
//! bit-identical for any thread count, and the fitness memo cache must
//! never change a result — only skip redundant evaluations.

use mc_opt::ga::{optimize, GaConfig, GaResult, GeneBounds};
use mc_opt::{ProblemConfig, WcetProblem};
use mc_task::time::Duration;
use mc_task::{Criticality, ExecutionProfile, McTask, TaskId, TaskSet};
use std::sync::atomic::{AtomicUsize, Ordering};

fn rastrigin_like(c: &[f64]) -> f64 {
    // Multi-modal, so different trajectories would visibly diverge.
    -c.iter()
        .map(|x| x * x - 10.0 * (x * 3.0).cos() + 10.0)
        .sum::<f64>()
}

fn sample_problem() -> WcetProblem {
    let mk = |id: u32, acet: f64, sigma: f64, wcet_ms: u64| {
        McTask::builder(TaskId::new(id))
            .criticality(Criticality::Hi)
            .period(Duration::from_millis(100))
            .c_lo(Duration::from_millis(wcet_ms))
            .c_hi(Duration::from_millis(wcet_ms))
            .profile(ExecutionProfile::new(acet, sigma, wcet_ms as f64 * 1e6).unwrap())
            .build()
            .unwrap()
    };
    let ts = TaskSet::from_tasks(vec![
        mk(0, 3.0e6, 0.5e6, 30),
        mk(1, 4.0e6, 1.0e6, 40),
        mk(2, 5.0e6, 2.0e6, 25),
    ])
    .unwrap();
    WcetProblem::from_taskset(&ts, ProblemConfig::default()).unwrap()
}

#[test]
fn ga_result_is_bit_identical_across_thread_counts() {
    let bounds = vec![GeneBounds::new(-5.12, 5.12).unwrap(); 6];
    // {1, 2, max}: serial, smallest parallel pool, all cores.
    let runs: Vec<GaResult> = [1usize, 2, 0]
        .iter()
        .map(|&threads| {
            let cfg = GaConfig {
                population_size: 40,
                generations: 30,
                threads,
                ..GaConfig::default()
            };
            optimize(&bounds, rastrigin_like, &cfg).unwrap()
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[0], runs[2]);
}

#[test]
fn solve_ga_is_bit_identical_across_thread_counts() {
    let problem = sample_problem();
    let solutions: Vec<_> = [1usize, 2, 0]
        .iter()
        .map(|&threads| {
            let cfg = GaConfig {
                threads,
                ..GaConfig::default()
            };
            problem.solve_ga(&cfg).unwrap()
        })
        .collect();
    assert_eq!(solutions[0], solutions[1]);
    assert_eq!(solutions[0], solutions[2]);
}

#[test]
fn memo_cache_skips_elites_but_never_changes_results() {
    let bounds = vec![GeneBounds::new(-5.12, 5.12).unwrap(); 5];
    let cfg = GaConfig {
        population_size: 30,
        generations: 25,
        threads: 1,
        ..GaConfig::default()
    };
    let evals = AtomicUsize::new(0);
    let counted = |c: &[f64]| {
        evals.fetch_add(1, Ordering::Relaxed);
        rastrigin_like(c)
    };
    let result = optimize(&bounds, counted, &cfg).unwrap();
    let total = evals.load(Ordering::Relaxed);

    // A memo-less GA evaluates every individual of every generation:
    // pop × (generations + 1). Elites alone (carried scores, default
    // elitism = 2) must already push the count below that; converged
    // duplicate genomes only widen the gap.
    let nominal = cfg.population_size * (cfg.generations + 1);
    let elite_savings = 2 * cfg.generations;
    assert!(
        total <= nominal - elite_savings,
        "memo cache saved nothing: {total} evaluations vs {nominal} nominal"
    );

    // Cached values must agree with a fresh evaluation bit-for-bit.
    assert_eq!(result.best_fitness, rastrigin_like(&result.best));

    // And memoization must not alter the outcome vs. the same
    // configuration (the memo is always on — cross-check thread counts
    // and a duplicate-heavy fitness instead).
    let dup_heavy = |c: &[f64]| (c[0] * 8.0).round() / 8.0; // plateaus → duplicates
    let a = optimize(&bounds, dup_heavy, &cfg).unwrap();
    let b = optimize(&bounds, dup_heavy, &GaConfig { threads: 2, ..cfg }).unwrap();
    assert_eq!(a, b);
    assert_eq!(a.best_fitness, dup_heavy(&a.best));
}

#[test]
fn duplicate_genomes_are_evaluated_once() {
    // A single-gene problem with zero-width bounds: every chromosome is
    // identical, so the memo collapses all evaluations into one.
    let bounds = [GeneBounds::new(3.0, 3.0).unwrap()];
    let cfg = GaConfig {
        population_size: 16,
        generations: 10,
        threads: 1,
        ..GaConfig::default()
    };
    let evals = AtomicUsize::new(0);
    let counted = |c: &[f64]| {
        evals.fetch_add(1, Ordering::Relaxed);
        -c[0]
    };
    let result = optimize(&bounds, counted, &cfg).unwrap();
    assert_eq!(evals.load(Ordering::Relaxed), 1);
    assert_eq!(result.best, vec![3.0]);
}
