//! The simulator's `mc-obs` counters are a deterministic work record: two
//! traced runs of one seeded campaign count the same events and releases.
//! One `#[test]`, because the mc-obs sink is process-wide state.

use chebymc::exp::catalog::{self, CatalogOptions};
use chebymc::exp::{run_campaign, RunConfig, Store};
use chebymc::obs::{self, summary::TraceSummary, SharedBuffer};

/// Runs a tiny `policy_arena` campaign under a fresh trace and returns the
/// simulator's `(events, releases)` counter totals.
fn traced_counts() -> (u64, u64) {
    let tiny = CatalogOptions {
        sets: Some(2),
        points: Some(vec![0.8, 1.2]),
        ..CatalogOptions::default()
    };
    let campaign = catalog::build("policy_arena", &tiny).unwrap();
    let sink = SharedBuffer::new();
    obs::init_writer(Box::new(sink.clone())).unwrap();
    let mut store = Store::in_memory(&campaign.spec);
    run_campaign(
        &campaign.spec,
        campaign.runner.as_ref(),
        &mut store,
        &RunConfig::default(),
    )
    .unwrap();
    obs::shutdown().unwrap();
    let summary = TraceSummary::parse(&sink.take_string()).unwrap();
    (
        summary.counter_total("sched.sim_events"),
        summary.counter_total("sched.sim_releases"),
    )
}

#[test]
fn simulator_counters_repeat_across_runs_of_one_seed() {
    let (events, releases) = traced_counts();
    assert!(releases > 0, "the arena simulates its admitted sets");
    // Each release costs at most L + 1 = 3 events, plus one per run.
    assert!(
        events > releases && events <= 4 * releases,
        "{events} events, {releases} releases"
    );
    assert_eq!(traced_counts(), (events, releases));
}
