//! Compares WCET-assignment policies across HC utilisations — a compact,
//! runnable version of the paper's Figs. 4–5 comparison, run as a reduced
//! `fig5` catalog campaign.
//!
//! Run with: `cargo run --release --example policy_comparison`

use chebymc::exp::catalog::{self, CatalogOptions};
use chebymc::exp::{aggregate, run_campaign, RunConfig, Store};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let u_values = vec![0.4, 0.5, 0.6, 0.7, 0.8, 0.9];
    let options = CatalogOptions {
        sets: Some(50), // the paper uses 1000; 50 keeps the example snappy
        seed: Some(2024),
        points: Some(u_values.clone()),
        ..CatalogOptions::default()
    };
    // The GA scheme, the paper's λ-range baselines and ACET, each on the
    // same seeded task sets.
    let campaign = catalog::build("fig5", &options)?;
    let mut store = Store::in_memory(&campaign.spec);
    run_campaign(
        &campaign.spec,
        campaign.runner.as_ref(),
        &mut store,
        &RunConfig::default(),
    )?;

    println!(
        "{:<22} {:>8} {:>10} {:>12} {:>11}",
        "policy", "U_HC^HI", "P_MS", "maxU_LC^LO", "objective"
    );
    // Points are policy-major: one block of utilisations per policy.
    let points = aggregate(&campaign.spec, store.records())?;
    for block in points.chunks(u_values.len()) {
        for (point, u) in block.iter().zip(&u_values) {
            let policy = point.label.split('/').next().unwrap_or_default();
            let mean = |metric: &str| point.mean(metric).unwrap_or(f64::NAN);
            println!(
                "{:<22} {:>8.2} {:>9.2}% {:>11.2}% {:>11.4}",
                policy,
                u,
                mean("p_ms") * 100.0,
                mean("max_u_lc_lo") * 100.0,
                mean("objective")
            );
        }
        println!();
    }

    println!("Reading the table: the Chebyshev-GA rows should dominate on the");
    println!("objective column — low P_MS *and* high admissible LC utilisation —");
    println!("while λ-range baselines trade one against the other (paper Figs. 4–5).");
    Ok(())
}
