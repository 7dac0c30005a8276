//! The service's contract, asserted over in-process loopback clusters:
//! whatever dies — workers mid-stream, the coordinator mid-campaign, or
//! both — the merged store is byte-identical to a serial run, no unit is
//! dropped, and no unit is committed twice.

use mc_exp::run::{run_campaign, RunConfig};
use mc_exp::spec::{CampaignSpec, Param, PointSpec, WorkUnit};
use mc_exp::{ExpError, Metric, Store, UnitRunner};
use mc_fault::{cluster_plan, ClusterPlan, SimDisk};
use mc_serve::{
    read_frame, run_local_cluster, run_worker, submit, write_frame, AddrSource, Coordinator,
    CoordinatorConfig, LocalClusterConfig, Message, RunnerFactory, WorkerConfig,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

fn spec(points: usize, replicas: usize) -> CampaignSpec {
    CampaignSpec {
        name: "cluster-test".into(),
        seed: 17,
        params: vec![],
        points: (0..points)
            .map(|i| PointSpec::new(format!("p{i}"), vec![Param::new("i", i as f64)]))
            .collect(),
        replicas,
    }
}

/// Deterministic in the unit seed, like every real runner must be.
fn seed_metrics(unit: &WorkUnit) -> Vec<Metric> {
    vec![
        Metric::new("value", (unit.seed % 1000) as f64),
        Metric::new("half", (unit.seed % 1000) as f64 / 2.0),
    ]
}

struct SeedFactory;

impl RunnerFactory for SeedFactory {
    fn runner_for(
        &self,
        _spec: &CampaignSpec,
    ) -> Result<Box<dyn UnitRunner + Send + Sync>, ExpError> {
        Ok(Box::new(|unit: &WorkUnit, _inner: usize| {
            Ok(seed_metrics(unit))
        }))
    }
}

/// The byte-identity reference: a serial single-process run of the same
/// spec.
fn serial_canonical(s: &CampaignSpec) -> String {
    let mut store = Store::in_memory(s);
    let runner = |unit: &WorkUnit, _inner: usize| Ok(seed_metrics(unit));
    run_campaign(
        s,
        &runner,
        &mut store,
        &RunConfig {
            threads: 1,
            ..RunConfig::default()
        },
    )
    .unwrap();
    store.canonical_lines()
}

fn base_config(workers: usize, plan: ClusterPlan) -> LocalClusterConfig {
    LocalClusterConfig {
        workers,
        threads_per_worker: 1,
        leases: 4,
        heartbeat_timeout: Duration::from_millis(300),
        plan,
        torn_tail_on_resume: false,
    }
}

#[test]
fn calm_cluster_is_byte_identical_to_serial() {
    let s = spec(4, 3);
    let report =
        run_local_cluster(&s, &SeedFactory, &base_config(3, ClusterPlan::calm(3))).unwrap();
    assert!(report.final_outcome().completed);
    assert_eq!(report.restarts, 0);
    assert_eq!(report.canonical, serial_canonical(&s));
    assert_eq!(report.final_outcome().completed_units, 12);
    let streamed: u64 = report.workers.iter().map(|w| w.records).sum();
    assert!(streamed >= 12, "every unit was streamed at least once");
}

#[test]
fn a_killed_worker_fails_over_without_losing_or_doubling_units() {
    let s = spec(4, 3);
    let plan = ClusterPlan {
        worker_kill_after: vec![None, Some(2), None],
        coordinator_kill_after: None,
    };
    let report = run_local_cluster(&s, &SeedFactory, &base_config(3, plan)).unwrap();
    assert!(report.final_outcome().completed);
    assert!(report.workers[1].died, "the planned death fired");
    assert!(
        report.reclaims() >= 1,
        "the dead worker's lease was reclaimed"
    );
    assert_eq!(report.canonical, serial_canonical(&s));
}

#[test]
fn a_killed_coordinator_resumes_from_a_torn_checkpoint() {
    let s = spec(4, 3);
    let plan = ClusterPlan {
        worker_kill_after: vec![None, None, None],
        coordinator_kill_after: Some(5),
    };
    let mut cfg = base_config(3, plan);
    cfg.torn_tail_on_resume = true;
    let report = run_local_cluster(&s, &SeedFactory, &cfg).unwrap();
    assert_eq!(report.restarts, 1);
    assert_eq!(report.outcomes.len(), 2);
    assert!(report.outcomes[0].killed && !report.outcomes[0].completed);
    assert!(report.final_outcome().completed);
    // The resumed generation skipped what the checkpoint already held.
    assert!(
        report.outcomes[1].records < 12,
        "resume must not recompute the whole campaign: {:?}",
        report.outcomes
    );
    assert_eq!(report.canonical, serial_canonical(&s));
}

/// The acceptance scenario from the issue: ≥2 workers, one worker killed
/// mid-shard AND the coordinator killed+resumed once, byte-identical
/// merge.
#[test]
fn worker_and_coordinator_deaths_together_still_merge_byte_identical() {
    let s = spec(5, 3);
    let plan = ClusterPlan {
        worker_kill_after: vec![Some(3), None, None],
        coordinator_kill_after: Some(8),
    };
    let mut cfg = base_config(3, plan);
    cfg.torn_tail_on_resume = true;
    let report = run_local_cluster(&s, &SeedFactory, &cfg).unwrap();
    assert_eq!(report.restarts, 1);
    assert!(report.workers[0].died);
    assert!(report.final_outcome().completed);
    assert_eq!(report.final_outcome().completed_units, 15);
    assert_eq!(report.canonical, serial_canonical(&s));
}

/// Property: under seed-derived death plans, lease reassignment never
/// drops a unit (the merged store is complete) and never double-commits
/// one (canonical byte identity with the serial run implies exactly one
/// record per unit; redeliveries surface only in the duplicate counter).
#[test]
fn seeded_death_plans_never_drop_or_double_commit() {
    let s = spec(4, 3);
    let total = s.total_units();
    let reference = serial_canonical(&s);
    let mut faulty = 0;
    let mut restarted = 0;
    for seed in 0..20 {
        let plan = cluster_plan(seed, 3, total);
        faulty += usize::from(plan.is_faulty());
        let report = run_local_cluster(&s, &SeedFactory, &base_config(3, plan.clone()))
            .unwrap_or_else(|e| panic!("seed {seed} (plan {plan:?}): {e}"));
        restarted += report.restarts;
        assert!(
            report.final_outcome().completed,
            "seed {seed}: campaign incomplete"
        );
        assert_eq!(
            report.final_outcome().completed_units,
            total,
            "seed {seed}: dropped units"
        );
        assert_eq!(
            report.canonical, reference,
            "seed {seed}: merged store diverged from serial"
        );
        // Every unit appears exactly once in the canonical store.
        let units: Vec<usize> = report
            .canonical
            .lines()
            .skip(1)
            .map(|line| {
                serde_json::from_str::<mc_exp::UnitRecord>(line)
                    .expect("canonical record parses")
                    .unit
            })
            .collect();
        assert_eq!(units, (0..total).collect::<Vec<_>>(), "seed {seed}");
    }
    assert!(faulty >= 5, "the seed range must actually inject deaths");
    assert!(
        restarted >= 1,
        "some seed must kill and resume the coordinator"
    );
}

/// A worker whose process dies without the socket closing (a "zombie":
/// the TCP connection stays open but nothing is sent) must be detected by
/// the heartbeat sweeper — EOF never fires, so the timeout is the only
/// signal — and its lease reclaimed for a live worker.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "a wall-clock deadline bounds the wait for the zombie's lease"
)]
fn a_zombie_worker_is_timed_out_and_its_lease_reclaimed() {
    let s = spec(4, 3);
    let disk = SimDisk::new();
    let opener = {
        let disk = disk.clone();
        Box::new(move |spec: &CampaignSpec| {
            Store::create_or_resume_io(Box::new(disk.open()), "sim://checkpoint", spec)
        })
    };
    let coordinator = Coordinator::bind(
        CoordinatorConfig {
            listen: "127.0.0.1:0".into(),
            leases: 4,
            heartbeat_timeout: Duration::from_millis(200),
            die_after_records: None,
        },
        opener,
    )
    .unwrap();
    let addr = coordinator.local_addr().to_string();

    let zombie_assigned = AtomicBool::new(false);
    let finished = AtomicBool::new(false);

    let outcome = std::thread::scope(|t| {
        let zombie = t.spawn(|| {
            let mut conn = std::net::TcpStream::connect(&addr).unwrap();
            write_frame(
                &mut conn,
                &Message::Hello {
                    worker: "zombie".into(),
                    threads: 1,
                },
            )
            .unwrap();
            loop {
                match read_frame(&mut conn).unwrap() {
                    Some(Message::Assign { .. }) => break,
                    Some(_) => {}
                    None => panic!("zombie dropped before it was assigned a lease"),
                }
            }
            zombie_assigned.store(true, Ordering::SeqCst);
            // Go silent while keeping the socket open.
            while !finished.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let submitter = t.spawn(|| submit(&addr, &s));
        let run = t.spawn(|| coordinator.run());

        let deadline = Instant::now() + Duration::from_secs(10);
        while !zombie_assigned.load(Ordering::SeqCst) {
            assert!(Instant::now() < deadline, "zombie never got a lease");
            std::thread::sleep(Duration::from_millis(5));
        }
        let source = AddrSource::Fixed(addr.clone());
        let wcfg = WorkerConfig {
            name: "real".into(),
            heartbeat: Duration::from_millis(40),
            ..WorkerConfig::default()
        };
        let worker = t.spawn(move || run_worker(&source, &wcfg, &SeedFactory));

        let outcome = run.join().expect("run thread panicked").unwrap();
        finished.store(true, Ordering::SeqCst);
        zombie.join().expect("zombie thread panicked");
        submitter.join().expect("submit thread panicked").unwrap();
        let wsum = worker.join().expect("worker thread panicked").unwrap();
        assert!(wsum.records >= 12, "the live worker carried the campaign");
        outcome
    });

    assert!(outcome.completed);
    assert!(outcome.reclaims >= 1, "the zombie's lease was reclaimed");
    assert_eq!(coordinator.canonical_lines().unwrap(), serial_canonical(&s));
}

/// Shutdown does not wait on the liveness loops: at a 60 s heartbeat
/// timeout the coordinator's sweeper sleeps 15 s per tick and each
/// worker's heartbeat thread 5 s, yet a finished campaign must return
/// (workers joined and all) as soon as its last record is durable.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the test measures how long shutdown takes"
)]
fn a_long_heartbeat_timeout_does_not_delay_shutdown() {
    let s = spec(4, 3);
    let cfg = LocalClusterConfig {
        heartbeat_timeout: Duration::from_secs(60),
        ..base_config(2, ClusterPlan::calm(2))
    };
    let t0 = Instant::now();
    let report = run_local_cluster(&s, &SeedFactory, &cfg).unwrap();
    let took = t0.elapsed();
    assert!(report.final_outcome().completed);
    assert_eq!(report.canonical, serial_canonical(&s));
    assert!(
        took < Duration::from_secs(5),
        "the cluster took {took:?} to finish and shut down"
    );
}
