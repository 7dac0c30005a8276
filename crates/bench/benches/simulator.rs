//! Criterion benchmark: discrete-event simulator throughput (simulated
//! seconds per wall-clock second) across execution models and LC policies.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mc_sched::sim::{simulate, JobExecModel, LcPolicy, ModeSwitchPolicy, SimConfig};
use mc_task::generate::{generate_mixed_taskset, GeneratorConfig};
use mc_task::time::Duration;
use rand::SeedableRng;
use std::hint::black_box;

fn workload() -> mc_task::TaskSet {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let mut ts = generate_mixed_taskset(0.8, &GeneratorConfig::default(), &mut rng).unwrap();
    // Use optimistic budgets at 40 % so overruns occur under Profile.
    for t in ts.hc_tasks_mut() {
        let c = t.c_hi().mul_f64(0.4).max(Duration::from_nanos(1));
        t.set_c_lo(c).unwrap();
    }
    ts
}

fn bench_exec_models(c: &mut Criterion) {
    let ts = workload();
    let mut group = c.benchmark_group("simulator_exec_model");
    for (name, model) in [
        ("full_lo", JobExecModel::FullLoBudget),
        ("full_hi", JobExecModel::FullHiBudget),
        ("profile", JobExecModel::Profile),
        ("overrun_p10", JobExecModel::OverrunWithProbability(0.1)),
    ] {
        let cfg = SimConfig {
            horizon: Duration::from_secs(10),
            lc_policy: LcPolicy::DropAll,
            exec_model: model,
            x_factor: None,
            release_jitter: Duration::ZERO,
            mode_switch: ModeSwitchPolicy::System,
            seed: 1,
        };
        group.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, cfg| {
            b.iter(|| black_box(simulate(&ts, cfg).unwrap()))
        });
    }
    group.finish();
}

fn bench_lc_policies(c: &mut Criterion) {
    let ts = workload();
    let mut group = c.benchmark_group("simulator_lc_policy");
    for (name, policy) in [
        ("drop_all", LcPolicy::DropAll),
        ("degrade_50", LcPolicy::Degrade(0.5)),
    ] {
        let cfg = SimConfig {
            horizon: Duration::from_secs(10),
            lc_policy: policy,
            exec_model: JobExecModel::Profile,
            x_factor: None,
            release_jitter: Duration::ZERO,
            mode_switch: ModeSwitchPolicy::System,
            seed: 1,
        };
        group.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, cfg| {
            b.iter(|| black_box(simulate(&ts, cfg).unwrap()))
        });
    }
    group.finish();
}

fn bench_multi_level(c: &mut Criterion) {
    use mc_sched::sim::{simulate_multi, MultiSimConfig};
    use mc_task::multi::{MultiTask, MultiTaskSet};
    use mc_task::TaskId;
    let ms = Duration::from_millis;
    let mut ts = MultiTaskSet::new(3).unwrap();
    ts.push(
        MultiTask::new(
            TaskId::new(0),
            "a",
            2,
            vec![ms(5), ms(10), ms(40)],
            ms(100),
            None,
        )
        .unwrap(),
    )
    .unwrap();
    ts.push(MultiTask::new(TaskId::new(1), "b", 1, vec![ms(10), ms(20)], ms(100), None).unwrap())
        .unwrap();
    ts.push(MultiTask::new(TaskId::new(2), "c", 0, vec![ms(20)], ms(100), None).unwrap())
        .unwrap();
    let cfg = MultiSimConfig {
        horizon: Duration::from_secs(10),
        exec_model: JobExecModel::FullHiBudget,
        seed: 1,
    };
    c.bench_function("simulator_multi_level_10s", |b| {
        b.iter(|| black_box(simulate_multi(&ts, &cfg).unwrap()))
    });
}

criterion_group!(
    benches,
    bench_exec_models,
    bench_lc_policies,
    bench_multi_level
);
criterion_main!(benches);
