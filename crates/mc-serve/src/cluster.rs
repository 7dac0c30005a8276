//! The in-process "local cluster" harness: one coordinator and N worker
//! threads over loopback TCP, with process deaths injected from a
//! seed-derived [`mc_fault::ClusterPlan`].
//!
//! This is how `cargo test` asserts the service's contract without
//! subprocess orchestration: the coordinator checkpoints to a
//! [`mc_fault::SimDisk`] (so a coordinator "crash" has real
//! crash-semantics — the disk is rolled back to its durable prefix and
//! the next generation resumes from it), workers die by slamming their
//! sockets mid-stream, and the harness restarts a killed coordinator on
//! a fresh port that surviving workers discover through a shared address
//! cell — the in-process analogue of the CLI's `--addr-file`.

use crate::coordinator::{Coordinator, CoordinatorConfig, ServeOutcome};
use crate::wire;
use crate::worker::{run_worker, AddrSource, RunnerFactory, WorkerConfig, WorkerSummary};
use crate::ServeError;
use mc_exp::{CampaignSpec, Store};
use mc_fault::{ClusterPlan, SimDisk, StoreIo};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Local cluster configuration.
#[derive(Debug, Clone)]
pub struct LocalClusterConfig {
    /// Worker threads to spawn.
    pub workers: usize,
    /// Thread budget per worker.
    pub threads_per_worker: usize,
    /// Leases (stripes) the campaign is split into.
    pub leases: usize,
    /// Coordinator heartbeat timeout (workers beat at a third of it).
    pub heartbeat_timeout: Duration,
    /// The death plan (see [`mc_fault::cluster_plan`]).
    pub plan: ClusterPlan,
    /// Inject a durable torn tail into the checkpoint before the resumed
    /// coordinator opens it — exercises the store's torn-tail recovery on
    /// the resume path.
    pub torn_tail_on_resume: bool,
}

impl Default for LocalClusterConfig {
    fn default() -> Self {
        LocalClusterConfig {
            workers: 3,
            threads_per_worker: 1,
            leases: 4,
            heartbeat_timeout: Duration::from_millis(400),
            plan: ClusterPlan::calm(3),
            torn_tail_on_resume: false,
        }
    }
}

/// What a local cluster run did.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Canonical text of the final checkpoint store — compare against a
    /// serial run's [`Store::canonical_lines`] for byte identity.
    pub canonical: String,
    /// Per-generation coordinator outcomes (one entry unless the plan
    /// killed the coordinator).
    pub outcomes: Vec<ServeOutcome>,
    /// Coordinator restarts (0 or 1).
    pub restarts: usize,
    /// Per-worker summaries, in spawn order.
    pub workers: Vec<WorkerSummary>,
}

impl ClusterReport {
    /// The final generation's outcome.
    #[must_use]
    pub fn final_outcome(&self) -> &ServeOutcome {
        self.outcomes.last().expect("at least one generation")
    }

    /// Leases reclaimed across all generations.
    #[must_use]
    pub fn reclaims(&self) -> u64 {
        self.outcomes.iter().map(|o| o.reclaims).sum()
    }

    /// Duplicate redeliveries absorbed across all generations.
    #[must_use]
    pub fn duplicates(&self) -> u64 {
        self.outcomes.iter().map(|o| o.duplicates).sum()
    }
}

fn bind_generation(
    disk: &SimDisk,
    cfg: &LocalClusterConfig,
    die_after_records: Option<u64>,
) -> Result<Coordinator, ServeError> {
    let disk = disk.clone();
    Coordinator::bind(
        CoordinatorConfig {
            listen: "127.0.0.1:0".into(),
            leases: cfg.leases,
            heartbeat_timeout: cfg.heartbeat_timeout,
            die_after_records,
        },
        Box::new(move |spec: &CampaignSpec| {
            Store::create_or_resume_io(Box::new(disk.open()), "sim://checkpoint", spec)
        }),
    )
}

/// Appends durable garbage (no trailing newline) to the checkpoint, so
/// the resumed store sees a torn last line and must truncate it.
fn inject_torn_tail(disk: &SimDisk) {
    let mut f = disk.open();
    let mut existing = Vec::new();
    let _ = f.read_to_end(&mut existing);
    let _ = f.write_all(b"{\"unit\":9999,\"poi");
    let _ = f.sync_data();
}

/// Runs a campaign on an in-process loopback cluster and returns the
/// merged result plus what happened along the way. The spec is submitted
/// over the wire (the same path external clients use), workers execute
/// leases through `factory`, and the plan's deaths are injected
/// mid-stream.
///
/// # Errors
///
/// Configuration mismatches, coordinator store failures, worker retry
/// exhaustion, or a submission that was rejected.
pub fn run_local_cluster(
    spec: &CampaignSpec,
    factory: &(dyn RunnerFactory + Sync),
    cfg: &LocalClusterConfig,
) -> Result<ClusterReport, ServeError> {
    if cfg.workers == 0 {
        return Err(ServeError::Config(
            "a cluster needs at least one worker".into(),
        ));
    }
    if cfg.plan.worker_kill_after.len() != cfg.workers {
        return Err(ServeError::Config(format!(
            "plan covers {} workers but the cluster has {}",
            cfg.plan.worker_kill_after.len(),
            cfg.workers
        )));
    }
    let disk = SimDisk::new();
    let cell = Arc::new(Mutex::new(String::new()));

    std::thread::scope(|s| {
        let coordinator = Arc::new(bind_generation(
            &disk,
            cfg,
            cfg.plan.coordinator_kill_after,
        )?);
        *cell.lock().expect("address cell poisoned") = coordinator.local_addr().to_string();

        let worker_handles: Vec<_> = (0..cfg.workers)
            .map(|i| {
                let addr = AddrSource::Shared(Arc::clone(&cell));
                let wcfg = WorkerConfig {
                    name: format!("w{i}"),
                    threads: cfg.threads_per_worker,
                    heartbeat: (cfg.heartbeat_timeout / 3).max(Duration::from_millis(5)),
                    retry: Duration::from_secs(10),
                    retry_interval: Duration::from_millis(10),
                    throttle: Duration::ZERO,
                    die_after_records: cfg.plan.worker_kill_after[i],
                };
                s.spawn(move || run_worker(&addr, &wcfg, factory))
            })
            .collect();

        let submit = |addr: String| s.spawn(move || wire::submit(&addr, spec));
        let submit1 = {
            let coordinator = Arc::clone(&coordinator);
            let workers = cfg.workers;
            s.spawn(move || {
                // Submit once every worker has registered (or after ~10 s):
                // the first assignment round then reaches all of them, so
                // a planned worker death has a lease to fire in instead of
                // racing the end of the campaign.
                for _ in 0..10_000 {
                    if coordinator.registered_workers() >= workers {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                let addr = coordinator.local_addr().to_string();
                drop(coordinator);
                wire::submit(&addr, spec)
            })
        };

        let mut outcomes = Vec::new();
        let mut restarts = 0;
        let run1 = coordinator.run();
        let (canonical, last) = match run1 {
            Err(e) => {
                // Fail fast: blank the address so workers stop retrying.
                cell.lock().expect("address cell poisoned").clear();
                drain(worker_handles);
                return Err(e);
            }
            Ok(outcome) if outcome.killed => {
                outcomes.push(outcome);
                restarts = 1;
                // The first generation's listener and store handle must be
                // gone before the crash is simulated on the disk; the
                // submitter holds the other reference until it returns.
                check_submit(submit1)?;
                drop(coordinator);
                if cfg.torn_tail_on_resume {
                    inject_torn_tail(&disk);
                }
                disk.recover();
                let resumed = bind_generation(&disk, cfg, None)?;
                *cell.lock().expect("address cell poisoned") = resumed.local_addr().to_string();
                let submit2 = submit(resumed.local_addr().to_string());
                let outcome = match resumed.run() {
                    Ok(o) => o,
                    Err(e) => {
                        cell.lock().expect("address cell poisoned").clear();
                        drain(worker_handles);
                        return Err(e);
                    }
                };
                let canonical = resumed.canonical_lines();
                // Withdraw the address and close the listener so workers
                // still mid-reconnect exit cleanly instead of retrying
                // against a finished cluster.
                cell.lock().expect("address cell poisoned").clear();
                drop(resumed);
                check_submit(submit2)?;
                (canonical, outcome)
            }
            Ok(outcome) => {
                let canonical = coordinator.canonical_lines();
                cell.lock().expect("address cell poisoned").clear();
                check_submit(submit1)?;
                drop(coordinator);
                (canonical, outcome)
            }
        };
        outcomes.push(last);

        let mut workers = Vec::new();
        for handle in worker_handles {
            workers.push(handle.join().expect("worker thread panicked")?);
        }
        Ok(ClusterReport {
            canonical: canonical
                .ok_or_else(|| ServeError::Config("no campaign was ever activated".into()))?,
            outcomes,
            restarts,
            workers,
        })
    })
}

type SubmitHandle<'a> =
    std::thread::ScopedJoinHandle<'a, Result<(String, usize, usize), ServeError>>;

fn check_submit(handle: SubmitHandle<'_>) -> Result<(), ServeError> {
    handle.join().expect("submitter thread panicked")?;
    Ok(())
}

fn drain<T>(handles: Vec<std::thread::ScopedJoinHandle<'_, T>>) {
    for handle in handles {
        let _ = handle.join();
    }
}
