//! Snapshot of the simulator's random paths: the full `SimMetrics` and
//! `MultiSimMetrics` of seeded inputs under every execution model and
//! runtime policy, compared line by line with `fixtures/sim_snapshot.txt`.
//!
//! `simulator_golden.rs` pins hand-computed deterministic schedules; this
//! file pins what they cannot: the draw order (release jitter first, then
//! the execution time, per admitted release in task-index order), the
//! normal and Weibull samplers, the degraded and task-level policies, and
//! the L-level path. On a mismatch the observed snapshot is written to
//! the cargo target's scratch directory and the first differing line is
//! named; a deliberate change of simulator semantics replaces the fixture
//! with that file and says so in the change log.

use chebymc::prelude::*;
use chebymc::sched::sim::{simulate_multi, MultiSimConfig};
use chebymc::task::multi::{MultiTask, MultiTaskSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::path::PathBuf;

const FIXTURE: &str = "sim_snapshot.txt";

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

/// Mixed sets from the Fig. 6 generator with `C_LO` at `ACET + 2σ`, so HC
/// jobs overrun often enough to exercise every mode-switch path.
fn generated_sets() -> Vec<(String, TaskSet)> {
    [(1u64, 0.6), (2, 0.8), (3, 1.0), (4, 1.3)]
        .iter()
        .map(|&(seed, u)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ts = generate_mixed_taskset(u, &GeneratorConfig::default(), &mut rng).unwrap();
            WcetPolicy::ChebyshevUniform { n: 2.0 }
                .assign(&mut ts)
                .unwrap();
            (format!("gen-s{seed}-u{u:.1}"), ts)
        })
        .collect()
}

/// Random three-level sets: budgets rise from a fraction of the top
/// budget at mode 0 to the top budget, and every task above level 0
/// carries a normal profile centred well below its mode-0 budget.
fn tri_level_sets() -> Vec<(String, MultiTaskSet)> {
    (0..3u64)
        .map(|seed| {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let mut ts = MultiTaskSet::new(3).unwrap();
            for i in 0..9u32 {
                let level = rng.random_range(0..3usize);
                let period = Duration::from_millis(rng.random_range(20..=200));
                let top = period.mul_f64(rng.random_range(0.03..0.1));
                let budgets: Vec<Duration> = (0..=level)
                    .map(|k| top.mul_f64((k + 1) as f64 / (level + 1) as f64))
                    .collect();
                let profile = (level > 0).then(|| {
                    let top_ns = top.as_nanos() as f64;
                    let acet = top_ns / rng.random_range(2.0..6.0);
                    ExecutionProfile::new(acet, acet * rng.random_range(0.1..0.5), top_ns).unwrap()
                });
                let task =
                    MultiTask::new(TaskId::new(i), "", level, budgets, period, profile).unwrap();
                ts.push(task).unwrap();
            }
            (format!("tri-s{seed}"), ts)
        })
        .collect()
}

fn line(out: &mut String, label: &str, json: Result<String, serde_json::Error>) {
    writeln!(out, "{label}\t{}", json.unwrap()).unwrap();
}

fn snapshot() -> String {
    let mut out = String::new();
    let models = [
        ("lo", JobExecModel::FullLoBudget),
        ("hi", JobExecModel::FullHiBudget),
        ("frac0.7", JobExecModel::FractionOfLo(0.7)),
        ("profile", JobExecModel::Profile),
        ("p0.3", JobExecModel::OverrunWithProbability(0.3)),
    ];
    let lc_policies = [
        ("drop", LcPolicy::DropAll),
        ("degrade0.5", LcPolicy::Degrade(0.5)),
    ];
    let switches = [
        ("system", ModeSwitchPolicy::System),
        ("task", ModeSwitchPolicy::TaskLevelThenSystem),
    ];
    let jitters = [
        ("periodic", Duration::ZERO),
        ("jitter5ms", Duration::from_millis(5)),
    ];
    for (si, (set, ts)) in generated_sets().iter().enumerate() {
        for (model_name, exec_model) in models {
            for (lc_name, lc_policy) in lc_policies {
                for (switch_name, mode_switch) in switches {
                    for (jitter_name, release_jitter) in jitters {
                        let cfg = SimConfig {
                            horizon: Duration::from_secs(10),
                            lc_policy,
                            exec_model,
                            x_factor: None,
                            release_jitter,
                            mode_switch,
                            seed: 7 + si as u64,
                        };
                        let label =
                            format!("{set}/{model_name}/{lc_name}/{switch_name}/{jitter_name}");
                        line(
                            &mut out,
                            &label,
                            serde_json::to_string(&simulate(ts, &cfg).unwrap()),
                        );
                    }
                }
            }
        }
    }

    // The automotive fixture under the arena design: its HC tasks carry
    // fitted Weibull laws, so `Profile` takes the inverse-CDF draw.
    let json = std::fs::read_to_string(fixtures_dir().join("automotive_u070_seed1.json")).unwrap();
    let mut w = Workload::load_json(&json).unwrap();
    WcetPolicy::ChebyshevUniform { n: 3.0 }
        .assign(&mut w.tasks)
        .unwrap();
    for (name, lc_policy, mode_switch) in [
        ("drop/system", LcPolicy::DropAll, ModeSwitchPolicy::System),
        (
            "degrade0.5/task",
            LcPolicy::Degrade(0.5),
            ModeSwitchPolicy::TaskLevelThenSystem,
        ),
    ] {
        let cfg = SimConfig {
            lc_policy,
            mode_switch,
            seed: 3,
            ..SimConfig::new(Duration::from_secs(1))
        };
        let label = format!("automotive-u0.7-s1/profile/{name}/periodic");
        line(
            &mut out,
            &label,
            serde_json::to_string(&simulate(&w.tasks, &cfg).unwrap()),
        );
    }

    for (set, ts) in tri_level_sets() {
        for (model_name, exec_model) in [
            ("lo", JobExecModel::FullLoBudget),
            ("hi", JobExecModel::FullHiBudget),
            ("profile", JobExecModel::Profile),
        ] {
            let cfg = MultiSimConfig {
                horizon: Duration::from_secs(10),
                exec_model,
                seed: 5,
            };
            let m = simulate_multi(&ts, &cfg).unwrap();
            line(
                &mut out,
                &format!("{set}/{model_name}"),
                serde_json::to_string(&m),
            );
        }
    }
    out
}

#[test]
fn simulator_metrics_match_the_snapshot() {
    let actual = snapshot();
    let expected = std::fs::read_to_string(fixtures_dir().join(FIXTURE)).unwrap_or_default();
    if actual == expected {
        return;
    }
    let observed = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(FIXTURE);
    std::fs::write(&observed, &actual).unwrap();
    let first_diff = actual
        .lines()
        .zip(expected.lines())
        .position(|(a, e)| a != e)
        .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
    panic!(
        "simulator output drifted from fixtures/{FIXTURE} at line {}:\n  expected {:?}\n  observed {:?}\n\
         the observed snapshot is at {}",
        first_diff + 1,
        expected.lines().nth(first_diff),
        actual.lines().nth(first_diff),
        observed.display()
    );
}
