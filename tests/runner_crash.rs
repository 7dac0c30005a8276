//! Crash schedules and panics through the campaign runner's commit path.
//!
//! The store sweeps in `mc_exp::fault` call `Store::append_batch`
//! themselves. These tests instead run whole `run_campaign` sessions on a
//! simulated disk, so every injected fault lands on the runner's
//! committer thread: a crash between the lines of a batch, a failed
//! fsync, a short write. Each session ends as the fault schedule decides;
//! the next one resumes from what the disk kept.

use chebymc::exp::{
    run_campaign, CampaignSpec, ExpError, Metric, Param, PointSpec, RunConfig, Store, WorkUnit,
};
use chebymc::fault::{mix64, FaultSchedule, SimDisk};
use std::panic;
use std::sync::mpsc;
use std::time::Duration;

/// Faulty sessions per schedule before a fault-free one finishes the
/// campaign.
const FAULTY_SESSIONS: u64 = 12;

/// Each faulty session crashes within its first this many I/O operations:
/// the store's open takes about three, so most crashes land in commits.
const HORIZON: u64 = 24;

fn spec() -> CampaignSpec {
    CampaignSpec {
        name: "runner-crash".into(),
        seed: 29,
        params: vec![],
        points: (0..4)
            .map(|i| PointSpec::new(format!("p{i}"), vec![Param::new("u", 0.5 + 0.1 * i as f64)]))
            .collect(),
        replicas: 6,
    }
}

/// A unit runner pure in the unit's seed.
fn seed_runner(unit: &WorkUnit, _inner: usize) -> Result<Vec<Metric>, ExpError> {
    Ok(vec![Metric::new(
        "value",
        (unit.seed % 10_007) as f64 / 7.0,
    )])
}

fn config(threads: usize) -> RunConfig {
    RunConfig {
        threads,
        ..RunConfig::default()
    }
}

fn reference() -> String {
    let s = spec();
    let mut store = Store::in_memory(&s);
    run_campaign(&s, &seed_runner, &mut store, &config(1)).expect("in-memory run");
    store.canonical_lines()
}

/// The lines of `store`'s records, keyed by unit.
fn lines(store: &Store) -> Vec<(usize, String)> {
    let mut out: Vec<(usize, String)> = store
        .records()
        .iter()
        .map(|r| (r.unit, serde_json::to_string(r).expect("record serializes")))
        .collect();
    out.sort();
    out
}

#[test]
fn crash_schedules_through_the_runner_keep_every_acked_record() {
    let s = spec();
    let reference = reference();
    for threads in [1, 2, 4] {
        let mut crashes_in_run = 0;
        for seed in 0..50u64 {
            let disk = SimDisk::new();
            // Every record a store held when its session ended: committed
            // and acknowledged, so it must survive whatever came next.
            let mut acked: Vec<(usize, String)> = Vec::new();
            let mut finished = false;
            for session in 0..=FAULTY_SESSIONS {
                let schedule = if session < FAULTY_SESSIONS {
                    FaultSchedule::from_seed(mix64(seed, (threads as u64) << 32 | session), HORIZON)
                } else {
                    FaultSchedule::none()
                };
                disk.set_schedule(schedule);
                let mut store = match Store::create_or_resume_io(Box::new(disk.open()), "<sim>", &s)
                {
                    Ok((store, _)) => store,
                    Err(ExpError::Io { .. }) => {
                        disk.recover();
                        continue;
                    }
                    Err(e) => panic!("threads {threads}, seed {seed}: resume failed: {e}"),
                };
                let replayed = lines(&store);
                for record in &acked {
                    assert!(
                        replayed.contains(record),
                        "threads {threads}, seed {seed}, session {session}: acked unit {} \
                         did not replay byte for byte",
                        record.0
                    );
                }
                let result = run_campaign(&s, &seed_runner, &mut store, &config(threads));
                acked = lines(&store);
                match result {
                    Ok(summary) => {
                        assert_eq!(summary.skipped + summary.ran, s.total_units());
                        finished = true;
                        break;
                    }
                    Err(ExpError::Io { .. }) => {
                        crashes_in_run += usize::from(disk.is_crashed());
                        disk.recover();
                    }
                    Err(e) => panic!("threads {threads}, seed {seed}: run failed: {e}"),
                }
            }
            assert!(
                finished,
                "threads {threads}, seed {seed}: the clean session failed"
            );
            disk.set_schedule(FaultSchedule::none());
            let (store, _) = Store::create_or_resume_io(Box::new(disk.open()), "<sim>", &s)
                .expect("final reload");
            assert!(
                store.canonical_lines() == reference,
                "threads {threads}, seed {seed}: canonical bytes differ from an uninterrupted run"
            );
        }
        // Non-vacuity: crashes must reach the committer, not only the open.
        assert!(
            crashes_in_run > 50,
            "threads {threads}: only {crashes_in_run} crashes inside run_campaign"
        );
    }
}

fn panicking_runner(unit: &WorkUnit, inner: usize) -> Result<Vec<Metric>, ExpError> {
    if unit.index == 9 {
        panic!("unit 9 blew up");
    }
    seed_runner(unit, inner)
}

#[test]
fn a_panicking_unit_propagates_out_of_run_campaign() {
    let s = spec();
    let reference = reference();
    for threads in [1, 2, 4] {
        let disk = SimDisk::new();
        // On its own thread, so a session that never returns fails the
        // test instead of hanging it.
        let (done, outcome) = mpsc::channel();
        let session_disk = disk.clone();
        std::thread::spawn(move || {
            let s = spec();
            let (mut store, _) =
                Store::create_or_resume_io(Box::new(session_disk.open()), "<sim>", &s)
                    .expect("open");
            let result = panic::catch_unwind(panic::AssertUnwindSafe(|| {
                run_campaign(&s, &panicking_runner, &mut store, &config(threads))
            }));
            let message = result
                .err()
                .and_then(|p| p.downcast_ref::<&str>().map(|m| (*m).to_string()));
            let _ = done.send((message, store.is_complete(9)));
        });
        let (message, unit_9_stored) = outcome
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("threads {threads}: run_campaign never returned"));
        assert_eq!(
            message.as_deref(),
            Some("unit 9 blew up"),
            "threads {threads}"
        );
        assert!(!unit_9_stored, "threads {threads}");
        // What was committed before the panic resumes to the full store.
        let (mut store, _) =
            Store::create_or_resume_io(Box::new(disk.open()), "<sim>", &s).expect("resume");
        run_campaign(&s, &seed_runner, &mut store, &config(threads)).expect("resumed run");
        assert!(store.canonical_lines() == reference, "threads {threads}");
    }
}
