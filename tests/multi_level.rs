//! Integration tests for the multi-level criticality extension: model,
//! analysis, scheme and simulator working together across crates.

use chebymc::core::multi::MultiScheme;
use chebymc::prelude::*;
use chebymc::sched::analysis::multi::analyze;
use chebymc::sched::sim::{simulate_multi, MultiSimConfig};
use chebymc::task::multi::{MultiTask, MultiTaskSet};

fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

/// A three-level system whose level ≥ 1 tasks carry profiles derived from
/// the paper's benchmark statistics.
fn build_system() -> MultiTaskSet {
    let mut ts = MultiTaskSet::new(3).unwrap();
    let from_bench = |id: u32, level: usize, name: &str, period_ms: u64| {
        let bench = benchmarks::by_name(name).unwrap();
        let spec = *bench.spec();
        let top = Duration::from_nanos(spec.wcet_pes as u64);
        MultiTask::new(
            TaskId::new(id),
            name,
            level,
            vec![top; level + 1],
            ms(period_ms),
            Some(ExecutionProfile::new(spec.acet, spec.sigma, spec.wcet_pes).unwrap()),
        )
        .unwrap()
    };
    ts.push(from_bench(0, 2, "corner", 25)).unwrap();
    ts.push(from_bench(1, 2, "qsort-100", 5)).unwrap();
    ts.push(from_bench(2, 1, "edge", 40)).unwrap();
    ts.push(
        MultiTask::new(
            TaskId::new(3),
            "best-effort",
            0,
            vec![ms(30)],
            ms(100),
            None,
        )
        .unwrap(),
    )
    .unwrap();
    ts
}

#[test]
fn design_makes_pessimistic_system_schedulable() {
    let mut ts = build_system();
    // Fully pessimistic budgets: mode-0 demand equals the top budgets and
    // the pairwise reduction fails.
    let before = analyze(&ts);
    assert!(!before.schedulable);

    let report = MultiScheme::with_seed(2).design(&mut ts).unwrap();
    assert!(report.metrics.analysis.schedulable);
    assert!(report.factors.windows(2).all(|w| w[0] <= w[1] + 1e-12));
    assert!(report.metrics.escalation_bounds.iter().all(|p| *p < 0.5));
    assert!(report.metrics.p_reach_top < 0.25);
    assert!(report.metrics.max_u_lowest > 0.3);
}

#[test]
fn designed_system_survives_adversarial_runtime() {
    let mut ts = build_system();
    MultiScheme::with_seed(3).design(&mut ts).unwrap();
    let m = simulate_multi(
        &ts,
        &MultiSimConfig {
            horizon: Duration::from_secs(20),
            exec_model: JobExecModel::FullHiBudget,
            seed: 1,
        },
    )
    .unwrap();
    assert_eq!(
        m.top_level_misses(),
        0,
        "pairwise-schedulable designs must protect the top level"
    );
    assert!(m.total_escalations() > 0, "constant overruns must escalate");
}

#[test]
fn profile_runtime_escalates_rarely_for_designed_systems() {
    let mut ts = build_system();
    let report = MultiScheme::with_seed(4).design(&mut ts).unwrap();
    let m = simulate_multi(
        &ts,
        &MultiSimConfig {
            horizon: Duration::from_secs(30),
            exec_model: JobExecModel::Profile,
            seed: 2,
        },
    )
    .unwrap();
    // Observed escalation frequency per released upper-level job must sit
    // below the design-time Chebyshev bound for mode 0.
    let upper_jobs: u64 = m.released_per_level[1..].iter().sum();
    let rate = m.escalations[0] as f64 / upper_jobs.max(1) as f64;
    assert!(
        rate <= report.metrics.escalation_bounds[0] + 1e-9,
        "measured {rate} vs bound {}",
        report.metrics.escalation_bounds[0]
    );
    assert_eq!(m.misses_per_level.iter().sum::<u64>(), 0);
}

#[test]
fn dual_criticality_is_the_two_level_special_case() {
    // Design the same logical system through both APIs and compare the
    // design-time bounds.
    let bench = benchmarks::by_name("corner").unwrap();
    let spec = *bench.spec();
    let top = Duration::from_nanos(spec.wcet_pes as u64);

    // Dual path.
    let mut dual = TaskSet::new();
    dual.push(
        McTask::builder(TaskId::new(0))
            .criticality(Criticality::Hi)
            .period(ms(40))
            .c_lo(top)
            .c_hi(top)
            .profile(ExecutionProfile::new(spec.acet, spec.sigma, spec.wcet_pes).unwrap())
            .build()
            .unwrap(),
    )
    .unwrap();
    dual.push(
        McTask::builder(TaskId::new(1))
            .period(ms(100))
            .c_lo(ms(10))
            .build()
            .unwrap(),
    )
    .unwrap();
    let dual_report = ChebyshevScheme::new()
        .design_uniform(&mut dual, 3.0)
        .unwrap();

    // Multi path with the same uniform factor.
    let mut multi = MultiTaskSet::new(2).unwrap();
    multi
        .push(
            MultiTask::new(
                TaskId::new(0),
                "corner",
                1,
                vec![top, top],
                ms(40),
                Some(ExecutionProfile::new(spec.acet, spec.sigma, spec.wcet_pes).unwrap()),
            )
            .unwrap(),
        )
        .unwrap();
    multi
        .push(MultiTask::new(TaskId::new(1), "lc", 0, vec![ms(10)], ms(100), None).unwrap())
        .unwrap();
    MultiScheme::default().assign(&mut multi, &[3.0]).unwrap();
    let multi_metrics = MultiScheme::metrics(&multi).unwrap();

    // P_MS of the dual design equals the mode-0 escalation bound.
    assert!((dual_report.metrics.p_ms - multi_metrics.escalation_bounds[0]).abs() < 1e-9);
    // And both agree on schedulability.
    assert_eq!(
        dual_report.metrics.schedulable,
        multi_metrics.analysis.schedulable
    );
}
