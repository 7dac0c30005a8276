//! End-to-end observability validation against a real campaign run.
//!
//! Tracing is a read-only observer: it must not change what a campaign
//! computes or persists, and the trace it produces must account for the
//! session's wall clock. Everything lives in one `#[test]` because the
//! mc-obs sink is process-wide state.

use chebymc::exp::{catalog, run_campaign, RunConfig, Shard, Store};
use chebymc::obs;

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("chebymc-trace-it-{}-{name}", std::process::id()));
    p
}

#[test]
fn tracing_leaves_the_store_bit_identical_and_accounts_for_the_session() {
    let opts = catalog::CatalogOptions {
        sets: Some(2),
        ..catalog::CatalogOptions::default()
    };
    let cfg = RunConfig {
        threads: 1, // serial: unit spans must tile the session wall clock
        shard: Shard::default(),
        progress: false,
    };
    let plain_store = tmp("plain-store.jsonl");
    let traced_store = tmp("traced-store.jsonl");
    let trace = tmp("trace.jsonl");
    for p in [&plain_store, &traced_store, &trace] {
        let _ = std::fs::remove_file(p);
    }

    // Untraced reference run.
    let campaign = catalog::build("fig5", &opts).expect("catalog");
    let (mut store, _) = Store::create_or_resume(&plain_store, &campaign.spec).expect("store");
    let plain =
        run_campaign(&campaign.spec, campaign.runner.as_ref(), &mut store, &cfg).expect("run");
    drop(store);
    assert!(plain.ran > 0, "smoke campaign must actually run units");

    // Identical run with the trace sink installed.
    obs::init_file(&trace).expect("install trace sink");
    let campaign = catalog::build("fig5", &opts).expect("catalog");
    let (mut store, _) = Store::create_or_resume(&traced_store, &campaign.spec).expect("store");
    let traced =
        run_campaign(&campaign.spec, campaign.runner.as_ref(), &mut store, &cfg).expect("run");
    obs::shutdown().expect("finalize trace");
    drop(store);

    assert_eq!(traced.ran, plain.ran);
    assert_eq!(traced.skipped, plain.skipped);
    let a = std::fs::read(&plain_store).expect("read plain store");
    let b = std::fs::read(&traced_store).expect("read traced store");
    assert!(
        a == b,
        "tracing changed the persisted store ({} vs {} bytes)",
        a.len(),
        b.len()
    );

    // The trace parses under the current schema and its per-unit spans
    // account for the session: one exp.unit span per ran unit, and (the
    // run having one compute lane) their total duration tiles the
    // measured elapsed time, less the committer's last fsync. The bound
    // is loose against scheduler noise; in practice the coverage is
    // about 98%. The committer groups records that arrive during an
    // fsync, so there are at most as many fsyncs as units, and the
    // `store.records` counter accounts for every unit.
    let text = std::fs::read_to_string(&trace).expect("read trace");
    let summary = obs::summary::TraceSummary::parse(&text).expect("valid trace");
    assert_eq!(summary.schema, obs::TRACE_SCHEMA_VERSION);
    assert_eq!(summary.span_count("exp.session"), 1);
    assert_eq!(summary.span_count("exp.unit"), traced.ran as u64);
    let fsyncs = summary.span_count("store.fsync");
    assert!(
        (1..=traced.ran as u64).contains(&fsyncs),
        "{fsyncs} store.fsync spans for {} units",
        traced.ran
    );
    assert_eq!(summary.counter_total("store.records"), traced.ran as u64);

    let unit_ns = summary.span_total_ns("exp.unit");
    let elapsed_ns = traced.elapsed.as_nanos() as u64;
    let coverage = unit_ns as f64 / elapsed_ns as f64;
    assert!(
        (0.80..=1.05).contains(&coverage),
        "exp.unit spans cover {:.1}% of RunSummary::elapsed ({unit_ns} ns of {elapsed_ns} ns)",
        coverage * 100.0
    );

    for p in [&plain_store, &traced_store, &trace] {
        let _ = std::fs::remove_file(p);
    }
}
