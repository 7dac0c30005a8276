//! Tier-1 guards for the campaign service's contract: the cluster death
//! plans (a torn coordinator checkpoint, a worker and the coordinator
//! dying together, seeded death plans, a zombie worker), and the lease
//! queue's edge cases (a worker killed while it holds a queued lease, a
//! `LeaseDone` for a queued lease that never started, a queued `Assign`
//! larger than the socket buffers). Each merge must be byte-identical to
//! a serial run of the same spec.

use chebymc::exp::spec::{CampaignSpec, Param, PointSpec, WorkUnit};
use chebymc::exp::store::ResumeInfo;
use chebymc::exp::{run_campaign, ExpError, Metric, RunConfig, Store, UnitRecord, UnitRunner};
use chebymc::fault::{cluster_plan, ClusterPlan};
use chebymc::serve::{
    read_frame, run_local_cluster, run_worker, write_frame, AddrSource, Coordinator,
    CoordinatorConfig, LocalClusterConfig, Message, RunnerFactory, ServeOutcome, WorkerConfig,
    WorkerSummary,
};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::Duration;

fn spec(points: usize, replicas: usize) -> CampaignSpec {
    CampaignSpec {
        name: "serve-cluster".into(),
        seed: 23,
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

fn seed_record(spec: &CampaignSpec, unit: usize) -> UnitRecord {
    let u = spec.unit(unit);
    UnitRecord {
        unit: u.index,
        point: u.point,
        replica: u.replica,
        seed: u.seed,
        metrics: seed_metrics(&u),
    }
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

/// The byte-identity reference: a serial single-process run.
fn seed_canonical(s: &CampaignSpec) -> String {
    let mut store = Store::in_memory(s);
    let runner = |unit: &WorkUnit, _inner: usize| Ok(seed_metrics(unit));
    let cfg = RunConfig {
        threads: 1,
        ..RunConfig::default()
    };
    run_campaign(s, &runner, &mut store, &cfg).unwrap();
    store.canonical_lines()
}

fn cluster(workers: usize, plan: ClusterPlan) -> LocalClusterConfig {
    LocalClusterConfig {
        workers,
        threads_per_worker: 1,
        leases: 4,
        heartbeat_timeout: Duration::from_millis(300),
        plan,
        torn_tail_on_resume: false,
    }
}

/// A coordinator over an in-memory checkpoint with `spec` preloaded.
fn coordinator(
    spec: &CampaignSpec,
    leases: usize,
    heartbeat_timeout: Duration,
) -> Arc<Coordinator> {
    let coordinator = Coordinator::bind(
        CoordinatorConfig {
            listen: "127.0.0.1:0".into(),
            leases,
            heartbeat_timeout,
            die_after_records: None,
        },
        Box::new(|spec: &CampaignSpec| Ok((Store::in_memory(spec), ResumeInfo::default()))),
    )
    .unwrap();
    coordinator.preload(spec).unwrap();
    Arc::new(coordinator)
}

/// Runs the coordinator on a thread of its own that nothing joins: a
/// test that fails must not wait for a campaign that cannot complete.
/// The outcome arrives on the returned channel.
fn serve(coordinator: &Arc<Coordinator>) -> mpsc::Receiver<ServeOutcome> {
    let (outcome_tx, outcome) = mpsc::channel();
    let coordinator = Arc::clone(coordinator);
    std::thread::spawn(move || {
        let _ = outcome_tx.send(coordinator.run().unwrap());
    });
    outcome
}

fn completed(outcome: &mpsc::Receiver<ServeOutcome>) -> ServeOutcome {
    let outcome = outcome
        .recv_timeout(Duration::from_secs(20))
        .expect("the campaign completes");
    assert!(outcome.completed);
    outcome
}

fn worker(
    addr: &str,
    die_after_records: Option<u64>,
    factory: &dyn RunnerFactory,
) -> WorkerSummary {
    let cfg = WorkerConfig {
        heartbeat: Duration::from_millis(40),
        die_after_records,
        ..WorkerConfig::default()
    };
    run_worker(&AddrSource::Fixed(addr.to_owned()), &cfg, factory).unwrap()
}

/// One end of a raw connection. Its reads and writes time out, so a
/// regression fails instead of hanging.
struct Peer {
    conn: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Peer {
    fn new(conn: TcpStream) -> Self {
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        conn.set_write_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let reader = BufReader::new(conn.try_clone().unwrap());
        Peer { conn, reader }
    }

    /// A worker that has sent its `Hello`.
    fn hello(addr: &str) -> Self {
        let mut peer = Peer::new(TcpStream::connect(addr).unwrap());
        peer.send(&Message::Hello {
            worker: "raw".into(),
            threads: 1,
        });
        peer
    }

    fn send(&mut self, msg: &Message) {
        write_frame(&mut self.conn, msg).unwrap();
    }

    fn next(&mut self) -> Option<Message> {
        read_frame(&mut self.reader).unwrap()
    }

    /// The lease of the next `Assign`.
    fn assigned(&mut self) -> u64 {
        match self.next() {
            Some(Message::Assign { lease, .. }) => lease,
            other => panic!("expected an Assign, got {other:?}"),
        }
    }

    /// Counts a lease's records up to its `LeaseDone`.
    fn records(&mut self, lease: u64) -> usize {
        let mut records = 0;
        loop {
            match self.next() {
                Some(Message::Record { lease: l, .. }) if l == lease => records += 1,
                Some(Message::LeaseDone { lease: l }) if l == lease => return records,
                Some(Message::Heartbeat) => {}
                other => panic!("lease {lease}: unexpected {other:?}"),
            }
        }
    }
}

#[test]
fn a_killed_coordinator_resumes_from_a_torn_checkpoint() {
    let s = spec(4, 3);
    let plan = ClusterPlan {
        worker_kill_after: vec![None, None],
        coordinator_kill_after: Some(5),
    };
    let mut cfg = cluster(2, plan);
    cfg.torn_tail_on_resume = true;
    let report = run_local_cluster(&s, &SeedFactory, &cfg).unwrap();
    assert_eq!(report.restarts, 1);
    assert!(report.outcomes[0].killed && !report.outcomes[0].completed);
    assert!(report.final_outcome().completed);
    assert!(
        report.outcomes[1].records < 12,
        "the resumed generation skips what the checkpoint holds: {:?}",
        report.outcomes
    );
    assert_eq!(report.canonical, seed_canonical(&s));
}

#[test]
fn a_worker_and_the_coordinator_dying_together_still_merge() {
    let s = spec(5, 3);
    let plan = ClusterPlan {
        worker_kill_after: vec![Some(3), None, None],
        coordinator_kill_after: Some(8),
    };
    let mut cfg = cluster(3, plan);
    cfg.torn_tail_on_resume = true;
    let report = run_local_cluster(&s, &SeedFactory, &cfg).unwrap();
    assert_eq!(report.restarts, 1);
    assert!(report.workers[0].died);
    assert!(report.final_outcome().completed);
    assert_eq!(report.final_outcome().completed_units, 15);
    assert_eq!(report.canonical, seed_canonical(&s));
}

/// Six seeded plans: each kills one or two workers, and seeds 0 and 3
/// kill the coordinator too.
#[test]
fn seeded_death_plans_merge_every_unit_once() {
    let s = spec(4, 3);
    let total = s.total_units();
    let reference = seed_canonical(&s);
    let (mut faulty, mut restarted) = (0, 0);
    for seed in 0..6 {
        let plan = cluster_plan(seed, 3, total);
        faulty += usize::from(plan.is_faulty());
        let report = run_local_cluster(&s, &SeedFactory, &cluster(3, plan.clone()))
            .unwrap_or_else(|e| panic!("seed {seed} (plan {plan:?}): {e}"));
        restarted += report.restarts;
        assert!(report.final_outcome().completed, "seed {seed}");
        assert_eq!(report.canonical, reference, "seed {seed}");
    }
    assert_eq!(faulty, 6, "every plan injects deaths");
    assert!(restarted >= 1, "some seed must restart the coordinator");
}

/// A worker that stays connected but falls silent is found by the
/// heartbeat sweeper alone, and its lease goes to a live worker.
#[test]
fn a_zombie_worker_is_timed_out_and_its_lease_reclaimed() {
    let s = spec(4, 3);
    let coordinator = coordinator(&s, 4, Duration::from_millis(200));
    let addr = coordinator.local_addr().to_string();
    let served = serve(&coordinator);
    let mut zombie = Peer::hello(&addr);
    assert!(matches!(zombie.next(), Some(Message::Welcome { .. })));
    assert_eq!(zombie.assigned(), 0);
    // Silent from here on, with its socket open.
    let live = worker(&addr, None, &SeedFactory);
    let outcome = completed(&served);
    drop(zombie);
    assert_eq!(outcome.reclaims, 1, "the zombie's lease was reclaimed");
    assert_eq!(live.records, 12, "the live worker carried the campaign");
    assert_eq!(coordinator.canonical_lines().unwrap(), seed_canonical(&s));
}

/// A lone worker finishing its first lease is handed the next one and a
/// queued one behind it. Killed inside the next lease, it holds both, and
/// both are reclaimed.
#[test]
fn a_worker_killed_holding_a_queued_lease_gives_both_back() {
    // Eight leases of three units.
    let s = spec(4, 6);
    let coordinator = coordinator(&s, 8, Duration::from_secs(5));
    let addr = coordinator.local_addr().to_string();
    let served = serve(&coordinator);
    // Three records and `LeaseDone` for lease 0, then one record of lease
    // 1 before the socket is slammed.
    let doomed = worker(&addr, Some(4), &SeedFactory);
    let live = worker(&addr, None, &SeedFactory);
    let outcome = completed(&served);
    assert!(doomed.died);
    assert_eq!((doomed.leases, doomed.records), (1, 4));
    assert_eq!(outcome.reclaims, 2, "the running and the queued lease");
    assert!(live.records >= 20);
    assert_eq!(coordinator.canonical_lines().unwrap(), seed_canonical(&s));
}

/// A `LeaseDone` for a queued lease the worker never ran is judged
/// against the store: the lease goes back to pending, not to done, so
/// the next time the worker is served it gets that lease again.
#[test]
fn a_lease_done_for_a_queued_lease_that_never_started_reclaims_it() {
    // Eight leases of one unit: lease `l` owns unit `l`.
    let s = spec(4, 2);
    let coordinator = coordinator(&s, 8, Duration::from_secs(5));
    let addr = coordinator.local_addr().to_string();
    let served = serve(&coordinator);
    let mut raw = Peer::hello(&addr);
    assert!(matches!(raw.next(), Some(Message::Welcome { .. })));
    assert_eq!(raw.assigned(), 0);
    let finish = |raw: &mut Peer, lease: u64| {
        let unit = usize::try_from(lease).unwrap();
        raw.send(&Message::Record {
            lease,
            record: seed_record(&s, unit),
        });
        raw.send(&Message::LeaseDone { lease });
    };
    finish(&mut raw, 0);
    assert_eq!((raw.assigned(), raw.assigned()), (1, 2), "1 runs, 2 queued");
    raw.send(&Message::LeaseDone { lease: 2 });
    finish(&mut raw, 1);
    assert_eq!(
        (raw.assigned(), raw.assigned()),
        (2, 3),
        "lease 2 was reclaimed, not completed"
    );
    drop(raw);
    let live = worker(&addr, None, &SeedFactory);
    assert_eq!(live.records, 6);
    let outcome = completed(&served);
    assert_eq!(outcome.reclaims, 2, "the dropped connection held 2 and 3");
    assert_eq!(coordinator.canonical_lines().unwrap(), seed_canonical(&s));
}

/// A worker takes every frame off its connection as it arrives. Here a
/// coordinator stand-in sends lease 1, then at once a queued lease 2
/// whose `Assign` carries an 8 MiB parameter, and reads nothing until
/// that write completes, while each of lease 1's 24 units streams a
/// 256 KiB record. Both writes exceed what the socket buffers hold, so a
/// worker that read the connection only between leases would leave both
/// sides blocked.
#[test]
fn a_queued_assign_larger_than_the_socket_buffers_does_not_stall_the_stream() {
    fn big(unit: &WorkUnit, _inner: usize) -> Result<Vec<Metric>, ExpError> {
        let mut metrics = seed_metrics(unit);
        if unit.index % 3 == 1 {
            metrics.push(Metric::new("y".repeat(256 << 10), 1.0));
        }
        Ok(metrics)
    }
    struct BigFactory;
    impl RunnerFactory for BigFactory {
        fn runner_for(
            &self,
            _spec: &CampaignSpec,
        ) -> Result<Box<dyn UnitRunner + Send + Sync>, ExpError> {
            Ok(Box::new(big))
        }
    }
    // Three stripes of 24 units. The first two `Assign`s are small, so
    // the worker's receive buffer has not grown when the large one comes.
    let s = spec(3, 24);
    let mut padded = s.clone();
    padded.params.push(Param::new("x".repeat(8 << 20), 0.0));
    let assign = |lease: u64, spec: &CampaignSpec| Message::Assign {
        lease,
        spec: spec.clone(),
        shard_index: usize::try_from(lease).unwrap(),
        shard_count: 3,
        done: vec![],
    };

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let (done_tx, done) = mpsc::channel();
    // Not scoped: a stalled worker must fail the test, not hang it.
    let worker_thread = std::thread::spawn(move || {
        let _ = done_tx.send(worker(&addr, None, &BigFactory));
    });
    let mut coordinator = Peer::new(listener.accept().unwrap().0);
    assert!(matches!(coordinator.next(), Some(Message::Hello { .. })));
    coordinator.send(&Message::Welcome { worker_id: 0 });
    coordinator.send(&assign(0, &s));
    assert_eq!(coordinator.records(0), 24);
    coordinator.send(&assign(1, &s));
    coordinator.send(&assign(2, &padded));
    assert_eq!(coordinator.records(1), 24);
    assert_eq!(coordinator.records(2), 24);
    coordinator.send(&Message::Shutdown);
    let summary = done
        .recv_timeout(Duration::from_secs(20))
        .expect("the worker exits on Shutdown");
    worker_thread.join().unwrap();
    assert_eq!((summary.leases, summary.records), (3, 72));
}
