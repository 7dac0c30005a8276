//! Fig. 6 — acceptance ratio (fraction of schedulable task sets) of the
//! two state-of-the-art scheduling approaches, with and without the
//! proposed WCET-assignment scheme, as the bound utilisation grows.
//!
//! Task sets are generated to a **LO-mode** utilisation bound with HC tasks
//! budgeted the λ-baseline way (`C_LO = λᵢ·C_HI`, `λᵢ ∈ [1/4, 1]`). The
//! published approaches are tested as generated; the "+ scheme" variants
//! first re-derive every `C_LO` from `(ACET, σ)` with the Chebyshev GA.
//! Baruah et al. RTNS'12 drops LC tasks in HI mode; Liu et al. RTSS'16
//! degrades them to 50 %.
//!
//! Run: `cargo run -p chebymc-bench --release --bin fig6`

use chebymc_bench::{pct, task_sets_per_point, Table};
use chebymc_core::pipeline::{acceptance_ratio_lo_bounded, BatchConfig};
use chebymc_core::policy::WcetPolicy;
use mc_opt::{GaConfig, ProblemConfig};
use mc_sched::policy::PolicySpec;
use mc_task::generate::GeneratorConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let batch = BatchConfig {
        task_sets: task_sets_per_point(),
        seed: 6,
        generator: GeneratorConfig::default(),
        threads: 0,
    };
    let u_bounds: Vec<f64> = (10..=20).map(|i| i as f64 / 20.0).collect(); // 0.5 … 1.0
    let lambda_range = (0.25, 1.0);
    println!(
        "Fig. 6 — acceptance ratio vs U_bound ({} task sets per point, P(HC) = 0.5,\n\
         baseline budgets C_LO = lambda*C_HI with lambda in [1/4, 1])\n",
        batch.task_sets
    );

    let scheme = WcetPolicy::ChebyshevGa {
        ga: GaConfig {
            population_size: 48,
            generations: 40,
            ..GaConfig::default()
        },
        problem: ProblemConfig::default(),
    };

    let liu = PolicySpec::LiuDegrade { fraction: 0.5 };
    let variants: Vec<(&str, Option<&WcetPolicy>, PolicySpec)> = vec![
        ("Baruah'12", None, PolicySpec::EdfVdDropAll),
        ("Baruah'12+scheme", Some(&scheme), PolicySpec::EdfVdDropAll),
        ("Liu'16", None, liu),
        ("Liu'16+scheme", Some(&scheme), liu),
    ];

    let mut table = Table::new({
        let mut h = vec!["U_bound".to_string()];
        h.extend(variants.iter().map(|(name, _, _)| format!("{name} %")));
        h
    });
    let mut results = Vec::new();
    for (_, policy, approach) in &variants {
        results.push(acceptance_ratio_lo_bounded(
            &u_bounds,
            *policy,
            approach,
            lambda_range,
            &batch,
        )?);
    }
    for (ui, &u) in u_bounds.iter().enumerate() {
        let mut row = vec![format!("{u:.2}")];
        for r in &results {
            row.push(pct(r[ui].ratio));
        }
        table.row(row);
    }
    table.emit("fig6");
    println!(
        "Shape to compare with the paper: all approaches accept everything up to\n\
         U_bound ≈ 0.7; beyond that the plain approaches decay (approaching 0 by\n\
         ~0.9-1.0) while the scheme-assisted variants keep accepting nearly all\n\
         sets through 0.9."
    );
    Ok(())
}
