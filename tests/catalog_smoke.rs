//! Every campaign of the experiment catalog runs end to end at a tiny
//! scale: each unit succeeds, and every point of a campaign reports the
//! same metric columns, so its per-point CSV has one schema.

use chebymc::exp::catalog::{self, CatalogOptions};
use chebymc::exp::{aggregate, run_campaign, RunConfig, Store};

#[test]
fn every_catalog_campaign_runs_at_a_tiny_scale() {
    let tiny = CatalogOptions {
        sets: Some(1),
        samples: Some(1_000),
        points: Some(vec![0.7]),
        seed: None,
        runnables: Some(60),
    };
    for name in catalog::names() {
        let c = catalog::build(name, &tiny).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut store = Store::in_memory(&c.spec);
        let summary = run_campaign(
            &c.spec,
            c.runner.as_ref(),
            &mut store,
            &RunConfig::default(),
        )
        .unwrap_or_else(|e| panic!("{name}: a unit failed: {e}"));
        assert_eq!(summary.ran, c.spec.total_units(), "{name}");
        let aggs = aggregate(&c.spec, store.records()).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(aggs.len(), c.spec.points.len(), "{name}");
        let columns: Vec<&str> = aggs[0].means.iter().map(|m| m.name.as_str()).collect();
        assert!(!columns.is_empty(), "{name} reports no metric");
        for agg in &aggs {
            let here: Vec<&str> = agg.means.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(here, columns, "{name}: point {}", agg.label);
            for m in &agg.means {
                assert!(m.value.is_finite(), "{name}: {} {}", agg.label, m.name);
            }
        }
    }
}
