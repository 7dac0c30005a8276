//! Tier-1 guard for the served worker's batched record stream: a tiny
//! `policy_arena` campaign on an in-process loopback cluster, with one
//! worker killed a few records in, must merge to exactly the store a
//! serial run writes.

use chebymc::exp::catalog::{self, CatalogOptions};
use chebymc::exp::{run_campaign, RunConfig, Store};
use chebymc::fault::ClusterPlan;
use chebymc::serve::{run_local_cluster, CatalogFactory, LocalClusterConfig};
use std::time::Duration;

#[test]
fn a_killed_worker_still_merges_to_the_serial_store() {
    let tiny = CatalogOptions {
        sets: Some(2),
        points: Some(vec![0.8, 1.2]),
        ..CatalogOptions::default()
    };
    let campaign = catalog::build("policy_arena", &tiny).unwrap();
    let mut serial = Store::in_memory(&campaign.spec);
    run_campaign(
        &campaign.spec,
        campaign.runner.as_ref(),
        &mut serial,
        &RunConfig {
            threads: 1,
            ..RunConfig::default()
        },
    )
    .unwrap();

    // Four leases of five units: the doomed worker's first lease outlasts
    // its third record.
    let kill_after = 3;
    assert_eq!(campaign.spec.total_units(), 20);
    let report = run_local_cluster(
        &campaign.spec,
        &CatalogFactory,
        &LocalClusterConfig {
            workers: 2,
            threads_per_worker: 1,
            leases: 4,
            heartbeat_timeout: Duration::from_millis(400),
            plan: ClusterPlan {
                worker_kill_after: vec![Some(kill_after), None],
                coordinator_kill_after: None,
            },
            torn_tail_on_resume: false,
        },
    )
    .unwrap();
    let killed = &report.workers[0];
    assert!(killed.died, "the planned death must fire");
    assert!(
        report.reclaims() >= 1,
        "the dead worker's lease is reclaimed"
    );
    assert_eq!(
        killed.records, kill_after,
        "the knob delivers exactly its records"
    );
    assert_eq!(report.canonical, serial.canonical_lines());
}
