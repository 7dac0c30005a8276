//! Differential test: a dual-criticality system simulated as a `TaskSet`
//! and as a two-level `MultiTaskSet` must agree on every counter the two
//! metric types share. Both describe the paper's §III runtime model (EDF-VD
//! dispatch, a switch on the first `C_LO` overrun, LC work dropped, back to
//! LO once no HC job is ready), so any disagreement is a simulator bug.

use chebymc::prelude::*;
use chebymc::sched::sim::{simulate_multi, MultiSimConfig, MultiSimMetrics};
use chebymc::task::multi::{MultiTask, MultiTaskSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

const HORIZON_SECS: u64 = 10;

/// The two-level view of `ts`: LC tasks at level 0 with `[C_LO]`, HC tasks
/// at level 1 with `[C_LO, C_HI]`, profiles carried over.
fn to_two_level(ts: &TaskSet) -> MultiTaskSet {
    let mut multi = MultiTaskSet::new(2).unwrap();
    for t in ts.iter() {
        assert!(t.has_implicit_deadline(), "the L-level model has D = P");
        let (level, budgets) = if t.is_high() {
            (1, vec![t.c_lo(), t.c_hi()])
        } else {
            (0, vec![t.c_lo()])
        };
        multi
            .push(
                MultiTask::new(
                    t.id(),
                    t.name(),
                    level,
                    budgets,
                    t.period(),
                    t.profile().cloned(),
                )
                .unwrap(),
            )
            .unwrap();
    }
    multi
}

fn assert_agree(label: &str, dual: &SimMetrics, multi: &MultiSimMetrics) {
    let pairs = [
        ("hc released", dual.hc_released, multi.released_per_level[1]),
        ("lc released", dual.lc_released, multi.released_per_level[0]),
        (
            "hc completed",
            dual.hc_completed,
            multi.completed_per_level[1],
        ),
        (
            "lc completed",
            dual.lc_completed,
            multi.completed_per_level[0],
        ),
        (
            "hc misses",
            dual.hc_deadline_misses,
            multi.misses_per_level[1],
        ),
        (
            "lc misses",
            dual.lc_deadline_misses,
            multi.misses_per_level[0],
        ),
        ("switches", dual.mode_switches, multi.escalations[0]),
        ("lc dropped", dual.lc_dropped_at_switch, multi.jobs_killed),
        (
            "lc rejected",
            dual.lc_rejected_in_hi,
            multi.releases_rejected,
        ),
    ];
    for (counter, d, m) in pairs {
        assert_eq!(d, m, "{label}: {counter} differ (dual {d}, two-level {m})");
    }
    assert_eq!(
        dual.time_in_hi, multi.time_in_mode[1],
        "{label}: time in HI"
    );
    assert_eq!(dual.busy_time, multi.busy_time, "{label}: busy time");
    assert_eq!(dual.horizon, multi.horizon, "{label}: horizon");
    assert_eq!(dual.lc_degraded, 0, "{label}: drop-all never degrades");
    assert_eq!(
        dual.task_level_switches, 0,
        "{label}: system-level switching"
    );
}

/// Runs `ts` through both simulators under every shared execution model.
fn check(label: &str, ts: &TaskSet, seed: u64) {
    let multi = to_two_level(ts);
    for exec_model in [
        JobExecModel::FullLoBudget,
        JobExecModel::FullHiBudget,
        JobExecModel::Profile,
    ] {
        let dual_cfg = SimConfig {
            exec_model,
            seed,
            ..SimConfig::new(Duration::from_secs(HORIZON_SECS))
        };
        let multi_cfg = MultiSimConfig {
            horizon: dual_cfg.horizon,
            exec_model,
            seed,
        };
        let d = simulate(ts, &dual_cfg).unwrap();
        let m = simulate_multi(&multi, &multi_cfg).unwrap();
        assert_agree(&format!("{label}/{exec_model:?}"), &d, &m);
    }
}

#[test]
fn generated_sets_agree_at_two_levels() {
    for seed in 0..120u64 {
        let u = [0.6, 0.9, 1.2][seed as usize % 3];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ts = generate_mixed_taskset(u, &GeneratorConfig::default(), &mut rng).unwrap();
        // C_LO at ACET + nσ with n from 1 to 4: overruns from frequent to rare.
        let n = 1.0 + (seed % 4) as f64;
        WcetPolicy::ChebyshevUniform { n }.assign(&mut ts).unwrap();
        check(&format!("seed {seed}, u {u}, n {n}"), &ts, seed);
    }
}

#[test]
fn hand_built_set_agrees_at_two_levels() {
    let ms = Duration::from_millis;
    let ts = TaskSet::from_tasks(vec![
        McTask::builder(TaskId::new(0))
            .criticality(Criticality::Hi)
            .period(ms(100))
            .c_lo(ms(20))
            .c_hi(ms(50))
            .build()
            .unwrap(),
        McTask::builder(TaskId::new(1))
            .period(ms(100))
            .c_lo(ms(30))
            .build()
            .unwrap(),
    ])
    .unwrap();
    check("hand-built", &ts, 1);
}
