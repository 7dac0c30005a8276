//! Extension experiment — the multi-level scheme (the paper's §VI future
//! work): per-mode factor sweeps on three-level systems, escalation bounds
//! vs admissible level-0 utilisation, and runtime validation.
//!
//! Run: `cargo run -p chebymc-bench --release --bin multi`

use chebymc_bench::{pct, Table};
use chebymc_core::multi::MultiScheme;
use mc_sched::analysis::multi::analyze;
use mc_sched::sim::{simulate_multi, JobExecModel, MultiSimConfig};
use mc_task::multi::{MultiTask, MultiTaskSet};
use mc_task::time::Duration;
use mc_task::{ExecutionProfile, TaskId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random three-level system: levels drawn uniformly, profiles with a
/// 5-60x WCET/ACET gap (Table I-like).
fn random_tri_level(seed: u64, per_task_u_top: f64, tasks: usize) -> MultiTaskSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ts = MultiTaskSet::new(3).unwrap();
    for i in 0..tasks {
        let level = rng.random_range(0..3usize);
        let period = Duration::from_millis(rng.random_range(100..=900));
        let top = period.mul_f64(per_task_u_top).max(Duration::from_nanos(1));
        let profile = if level > 0 {
            let ratio = rng.random_range(5.0..60.0);
            let acet = top.as_nanos() as f64 / ratio;
            let sigma = acet * rng.random_range(0.05..0.3);
            Some(ExecutionProfile::new(acet, sigma, top.as_nanos() as f64).unwrap())
        } else {
            None
        };
        let budgets = vec![top; level + 1];
        ts.push(
            MultiTask::new(
                TaskId::new(i as u32),
                format!("t{i}"),
                level,
                budgets,
                period,
                profile,
            )
            .unwrap(),
        )
        .unwrap();
    }
    ts
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Multi-level extension — per-mode uniform factor sweep (3 levels)\n");
    let base = random_tri_level(42, 0.12, 9);
    let mut table = Table::new([
        "n0",
        "n1",
        "P(esc mode0) %",
        "P(esc mode1) %",
        "P(top) %",
        "maxU_L0 %",
        "sched",
    ]);
    for &(n0, n1) in &[
        (1.0, 2.0),
        (2.0, 4.0),
        (3.0, 6.0),
        (5.0, 10.0),
        (8.0, 16.0),
        (12.0, 24.0),
    ] {
        let mut ts = base.clone();
        MultiScheme::default().assign(&mut ts, &[n0, n1])?;
        let m = MultiScheme::metrics(&ts)?;
        table.row([
            format!("{n0}"),
            format!("{n1}"),
            pct(m.escalation_bounds[0]),
            pct(m.escalation_bounds[1]),
            pct(m.p_reach_top),
            pct(m.max_u_lowest),
            format!("{}", m.analysis.schedulable),
        ]);
    }
    table.emit("multi_sweep");

    println!("GA-designed per-mode factors, then adversarial runtime (20 s):\n");
    let mut results = Table::new([
        "seed",
        "n0",
        "n1",
        "design P(esc0) %",
        "observed esc0/upper-job %",
        "top-level misses",
        "sched",
    ]);
    for seed in 0..5u64 {
        let mut ts = random_tri_level(100 + seed, 0.10, 8);
        let report = MultiScheme::with_seed(seed).design(&mut ts)?;
        if !report.metrics.analysis.schedulable {
            results.row([
                format!("{seed}"),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "infeasible".into(),
            ]);
            continue;
        }
        let sim = simulate_multi(
            &ts,
            &MultiSimConfig {
                horizon: Duration::from_secs(20),
                exec_model: JobExecModel::Profile,
                seed,
            },
        )?;
        let upper: u64 = sim.released_per_level[1..].iter().sum();
        results.row([
            format!("{seed}"),
            format!("{:.1}", report.factors[0]),
            format!("{:.1}", report.factors[1]),
            pct(report.metrics.escalation_bounds[0]),
            pct(sim.escalations[0] as f64 / upper.max(1) as f64),
            format!("{}", sim.top_level_misses()),
            format!("{}", analyze(&ts).schedulable),
        ]);
    }
    results.emit("multi_runtime");
    println!(
        "Reading the tables: raising the per-mode factors drives every\n\
         escalation bound down at a mild cost in admissible level-0\n\
         utilisation — the dual-criticality trade-off, mode by mode. GA\n\
         designs keep observed escalations below the design bound and the\n\
         top level never misses."
    );
    Ok(())
}
