//! The campaign runner: shard filtering, pending-unit resume, parallel
//! dispatch, and in-order persistence.
//!
//! Determinism contract: a unit's result depends only on its derived seed
//! (see [`crate::spec::unit_seed`]), never on which thread or process ran
//! it. The runner additionally flushes records to the store *in session
//! order* — out-of-order completions park in a buffer until their
//! predecessors are written — so an uninterrupted single-shard store is
//! byte-identical across thread counts, and any interrupted, resumed, or
//! sharded history converges to the same [`Store::canonical_lines`].
//! Flushes are group commits ([`Store::append_batch`]) made by one
//! committer thread per session. The committer owns the store: it waits
//! until the next record in session order arrives, then commits every
//! contiguous ready record with one fsync. The compute lanes only park
//! their records, so none of them ever waits on a write or an fsync.

use crate::progress::Progress;
use crate::spec::{CampaignSpec, WorkUnit};
use crate::store::{Metric, Store, UnitRecord};
use crate::ExpError;
use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// One shard of a campaign: this process runs the units whose index is
/// congruent to `index` modulo `count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// 0-based shard index.
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

impl Default for Shard {
    /// The whole campaign in one process.
    fn default() -> Self {
        Shard { index: 0, count: 1 }
    }
}

impl Shard {
    /// Parses the CLI syntax `i/n` (e.g. `0/4`). Validity beyond syntax
    /// (index below count) is the `E003` lint's job, so a bad-but-parsed
    /// shard still reaches the named diagnostic.
    ///
    /// # Errors
    ///
    /// Returns [`ExpError::Config`] for anything that is not two
    /// integers joined by `/`.
    pub fn parse(s: &str) -> Result<Self, ExpError> {
        let err = || {
            ExpError::Config(format!(
                "invalid shard `{s}`: expected INDEX/COUNT, e.g. 0/4"
            ))
        };
        let (i, n) = s.split_once('/').ok_or_else(err)?;
        Ok(Shard {
            index: i.trim().parse().map_err(|_| err())?,
            count: n.trim().parse().map_err(|_| err())?,
        })
    }

    /// Whether this shard owns unit `index`.
    #[must_use]
    pub fn owns(&self, index: usize) -> bool {
        self.count > 0 && index % self.count == self.index
    }
}

impl std::fmt::Display for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Run-time knobs of one campaign session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunConfig {
    /// Compute lanes: the thread budget (`0` = all available cores),
    /// split between the unit fan-out and each unit's inner parallelism.
    /// The session's committer thread comes on top; it does no unit work
    /// and spends its time in the store's writes and fsyncs.
    pub threads: usize,
    /// This process's shard.
    pub shard: Shard,
    /// Whether to emit progress/ETA lines on stderr.
    pub progress: bool,
}

/// Computes one work unit. Implementations must be deterministic in
/// `unit.seed` — the runner may execute units on any thread in any
/// order, and a resumed or sharded campaign must reproduce the same
/// record bit-for-bit.
pub trait UnitRunner: Sync {
    /// Runs the unit within `inner_threads` threads of inner parallelism
    /// and returns its metrics.
    ///
    /// # Errors
    ///
    /// Any failure aborts the session (completed units stay persisted).
    fn run_unit(&self, unit: &WorkUnit, inner_threads: usize) -> Result<Vec<Metric>, ExpError>;
}

impl<F> UnitRunner for F
where
    F: Fn(&WorkUnit, usize) -> Result<Vec<Metric>, ExpError> + Sync,
{
    fn run_unit(&self, unit: &WorkUnit, inner_threads: usize) -> Result<Vec<Metric>, ExpError> {
        self(unit, inner_threads)
    }
}

/// What one [`run_campaign`] session did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Total units of the whole campaign.
    pub total_units: usize,
    /// Units owned by this shard.
    pub shard_units: usize,
    /// Shard units skipped because the store already held them.
    pub skipped: usize,
    /// Units actually computed and persisted this session.
    pub ran: usize,
    /// Wall-clock time of the session.
    pub elapsed: Duration,
}

/// Shared completion state of one session. Units finish in any order; a
/// compute lane parks its record here and goes on computing. The
/// committer, which owns the store, waits on `ready` until the record at
/// `next` arrives, takes the contiguous run of ready records, and commits
/// it with one group commit outside the lock.
struct Sink {
    state: Mutex<SinkState>,
    /// Signalled when the record at `next` arrives or the sink closes.
    ready: Condvar,
}

struct SinkState {
    /// Session position of the next record to commit.
    next: usize,
    /// Computed records waiting for their predecessors or the committer.
    pending: BTreeMap<usize, UnitRecord>,
    /// Set once the lanes are done (or unwinding) or the committer has
    /// stopped: the committer commits what is ready and exits, and lanes
    /// park nothing more.
    closed: bool,
    /// Per axis point, replicas not yet in the store.
    missing: Vec<usize>,
    /// Axis points with every replica in the store.
    points_done: usize,
    /// Units in the store (all shards, not only this session's).
    store_completed: usize,
    progress: Progress,
    error: Option<ExpError>,
}

impl Sink {
    fn new(store: &Store, spec: &CampaignSpec, progress: Progress) -> Self {
        let mut missing = vec![0usize; spec.points.len()];
        for unit in (0..spec.total_units()).filter(|&u| !store.is_complete(u)) {
            missing[unit / spec.replicas] += 1;
        }
        Sink {
            state: Mutex::new(SinkState {
                next: 0,
                pending: BTreeMap::new(),
                closed: false,
                points_done: missing.iter().filter(|&&m| m == 0).count(),
                missing,
                store_completed: store.completed_count(),
                progress,
                error: None,
            }),
            ready: Condvar::new(),
        }
    }

    /// Locks the state, ignoring poisoning: a panic under the lock ends
    /// the session, and the close on unwind must still get through.
    fn lock(&self) -> MutexGuard<'_, SinkState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Parks the `session_pos`-th unit's record for the committer.
    /// Returns `false` once the session should stop.
    fn park(&self, session_pos: usize, record: UnitRecord) -> bool {
        let mut st = self.lock();
        if st.closed || st.error.is_some() {
            return false;
        }
        st.pending.insert(session_pos, record);
        if session_pos == st.next {
            self.ready.notify_one();
        }
        true
    }

    /// Tells the committer to commit what is ready and stop.
    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Blocks until the record at `next` is ready, then takes the
    /// contiguous ready run; `None` once the sink is closed and nothing
    /// is ready.
    fn wait_ready(&self) -> Option<Vec<UnitRecord>> {
        let mut st = self.lock();
        loop {
            let batch = st.take_ready();
            if !batch.is_empty() {
                return Some(batch);
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Commits `batch` with one group commit, outside the lock, and counts
    /// it once its fsync has returned. Returns `false`, with the error
    /// recorded, when the store failed.
    fn commit(&self, store: &mut Store, batch: Vec<UnitRecord>) -> bool {
        let before = store.records().len();
        let result = store.append_batch(batch);
        let mut st = self.lock();
        match result {
            Ok(()) => {
                st.committed(&store.records()[before..]);
                true
            }
            Err(e) => {
                st.fail(e);
                false
            }
        }
    }
}

impl SinkState {
    /// Takes the contiguous run of ready records starting at `next`.
    fn take_ready(&mut self) -> Vec<UnitRecord> {
        let mut batch = Vec::new();
        while let Some(record) = self.pending.remove(&(self.next + batch.len())) {
            batch.push(record);
        }
        batch
    }

    /// Counts a durable batch: session position, point counters, progress.
    fn committed(&mut self, batch: &[UnitRecord]) {
        self.next += batch.len();
        self.store_completed += batch.len();
        for record in batch {
            self.missing[record.point] -= 1;
            if self.missing[record.point] == 0 {
                self.points_done += 1;
            }
        }
        self.progress
            .units_done(batch.len(), self.store_completed, self.points_done);
    }

    fn fail(&mut self, e: ExpError) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }
}

/// Closes the sink when dropped, also on unwind: a panicking unit must
/// not leave the committer waiting, and a panicking committer must stop
/// the lanes.
struct CloseOnDrop<'a>(&'a Sink);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// The session's committer: commits ready records in session order until
/// the sink closes and nothing is ready, or the store fails.
fn commit_loop(sink: &Sink, store: &mut Store) {
    let _close = CloseOnDrop(sink);
    while let Some(batch) = sink.wait_ready() {
        if !sink.commit(store, batch) {
            return;
        }
    }
}

/// Runs (this shard of) a campaign: lints the spec, skips units the store
/// already holds, computes the rest on a worker pool, and hands each
/// record to the session's committer thread, which group-commits the
/// records in session order. A unit counts as done only once the fsync
/// covering it returns.
///
/// # Errors
///
/// Lint errors ([`ExpError::Lint`]) before any work starts; otherwise the
/// first unit or store failure, after which completed units remain
/// persisted for a later resume.
///
/// # Panics
///
/// A panic in a unit or in the committer is resumed on the caller, after
/// the committer has stopped.
pub fn run_campaign(
    spec: &CampaignSpec,
    runner: &dyn UnitRunner,
    store: &mut Store,
    cfg: &RunConfig,
) -> Result<RunSummary, ExpError> {
    let _session_span = mc_obs::span("exp.session");
    let start = Instant::now();
    let store_path = store.path().map(|p| p.display().to_string());
    let report = mc_lint::lint_campaign(&spec.check(
        cfg.shard.index,
        cfg.shard.count,
        store_path.as_deref(),
        None,
    ));
    if report.has_errors() {
        return Err(ExpError::Lint(report));
    }
    if store.spec() != spec {
        return Err(ExpError::Mismatch {
            path: store_path.unwrap_or_else(|| "<memory>".into()),
            detail: "the store was opened for a different spec".into(),
        });
    }

    let total_units = spec.total_units();
    let shard_units = (0..total_units).filter(|&i| cfg.shard.owns(i)).count();
    let session: Vec<WorkUnit> = (0..total_units)
        .filter(|&i| cfg.shard.owns(i) && !store.is_complete(i))
        .map(|i| spec.unit(i))
        .collect();
    let skipped = shard_units - session.len();

    let (outer, inner) = mc_par::ThreadBudget::explicit(cfg.threads).split(session.len());
    let inner_threads = inner.get();
    let pool = mc_par::WorkerPool::new(outer);

    let progress = Progress::new(cfg.progress, total_units, spec.points.len(), session.len());
    let sink = Sink::new(store, spec, progress);

    std::thread::scope(|scope| {
        let committer = scope.spawn(|| commit_loop(&sink, store));
        {
            let _close = CloseOnDrop(&sink);
            pool.for_each_while(session.len(), |pos| {
                let unit = session[pos];
                let _unit_span = mc_obs::span("exp.unit");
                match runner.run_unit(&unit, inner_threads) {
                    Ok(metrics) => sink.park(
                        pos,
                        UnitRecord {
                            unit: unit.index,
                            point: unit.point,
                            replica: unit.replica,
                            seed: unit.seed,
                            metrics,
                        },
                    ),
                    Err(e) => {
                        sink.lock().fail(e);
                        false
                    }
                }
            });
        }
        if let Err(panic) = committer.join() {
            std::panic::resume_unwind(panic);
        }
    });

    let sink = sink
        .state
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    let ran = sink.next;
    if let Some(e) = sink.error {
        return Err(e);
    }
    debug_assert!(sink.pending.is_empty(), "every computed record committed");
    sink.progress.finish(sink.store_completed);
    Ok(RunSummary {
        total_units,
        shard_units,
        skipped,
        ran,
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Param, PointSpec};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn spec(points: usize, replicas: usize) -> CampaignSpec {
        CampaignSpec {
            name: "run-test".into(),
            seed: 11,
            params: vec![],
            points: (0..points)
                .map(|i| PointSpec::new(format!("p{i}"), vec![Param::new("i", i as f64)]))
                .collect(),
            replicas,
        }
    }

    /// A runner whose metric is a pure function of the seed.
    fn seed_runner(unit: &WorkUnit, _inner: usize) -> Result<Vec<Metric>, ExpError> {
        Ok(vec![Metric::new("value", (unit.seed % 1000) as f64)])
    }

    #[test]
    fn runs_every_unit_once_and_in_order() {
        let s = spec(3, 4);
        let mut store = Store::in_memory(&s);
        let cfg = RunConfig {
            threads: 4,
            ..RunConfig::default()
        };
        let summary = run_campaign(&s, &seed_runner, &mut store, &cfg).unwrap();
        assert_eq!(summary.total_units, 12);
        assert_eq!(summary.ran, 12);
        assert_eq!(summary.skipped, 0);
        let units: Vec<usize> = store.records().iter().map(|r| r.unit).collect();
        assert_eq!(units, (0..12).collect::<Vec<_>>(), "in-order flush");
    }

    #[test]
    fn store_contents_are_identical_across_thread_counts() {
        let s = spec(2, 8);
        let mut serial = Store::in_memory(&s);
        run_campaign(
            &s,
            &seed_runner,
            &mut serial,
            &RunConfig {
                threads: 1,
                ..RunConfig::default()
            },
        )
        .unwrap();
        let mut parallel = Store::in_memory(&s);
        run_campaign(
            &s,
            &seed_runner,
            &mut parallel,
            &RunConfig {
                threads: 8,
                ..RunConfig::default()
            },
        )
        .unwrap();
        assert_eq!(serial.canonical_lines(), parallel.canonical_lines());
        assert_eq!(
            serial.records(),
            parallel.records(),
            "raw order matches too (in-order flush)"
        );

        // Skewed unit costs hold the head of the session back while the
        // other lanes run ahead, so group commits of many sizes form. The
        // file must not depend on how the records were batched.
        let skewed = |unit: &WorkUnit, inner: usize| {
            if unit.index.is_multiple_of(5) {
                std::thread::sleep(Duration::from_millis(2));
            }
            seed_runner(unit, inner)
        };
        let s = spec(4, 10);
        let (reference, _) = commits_and_bytes(&s, &skewed, 1, None);
        for threads in [1, 2, 4, 8] {
            let (bytes, commits) = commits_and_bytes(&s, &skewed, threads, None);
            assert!((1..=40).contains(&commits), "threads {threads}: {commits}");
            assert!(
                bytes == reference,
                "threads {threads} changed the store bytes"
            );
        }

        // A slow fsync: the one compute lane runs ahead of the committer,
        // which then takes several records per commit.
        let (bytes, commits) = commits_and_bytes(&s, &seed_runner, 1, Some(SyncMode::Slow));
        assert!((1..40).contains(&commits), "{commits} commits for 40 units");
        assert!(bytes == reference, "batching changed the store bytes");
    }

    /// How a [`TestIo`] treats the fsyncs after the header's.
    #[derive(Debug, Clone, Copy)]
    enum SyncMode {
        /// Each takes 2 ms.
        Slow,
        /// Each fails.
        Fail,
        /// The first one panics.
        Panic,
    }

    /// A [`StoreIo`](mc_fault::StoreIo) over a simulated disk whose record
    /// fsyncs behave as `mode` says.
    #[derive(Debug)]
    struct TestIo {
        file: mc_fault::SimFile,
        mode: SyncMode,
        syncs: usize,
    }

    impl mc_fault::StoreIo for TestIo {
        fn read_to_end(&mut self, buf: &mut Vec<u8>) -> std::io::Result<()> {
            self.file.read_to_end(buf)
        }
        fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
            self.file.write_all(buf)
        }
        fn sync_data(&mut self) -> std::io::Result<()> {
            self.syncs += 1;
            if self.syncs > 1 {
                match self.mode {
                    SyncMode::Slow => std::thread::sleep(Duration::from_millis(2)),
                    SyncMode::Fail => return Err(std::io::Error::other("disk full")),
                    SyncMode::Panic => panic!("fsync exploded"),
                }
            }
            self.file.sync_data()
        }
        fn truncate(&mut self, len: u64) -> std::io::Result<()> {
            self.file.truncate(len)
        }
    }

    /// A fresh store on a simulated disk, through [`TestIo`] when `mode`
    /// is given.
    fn sim_store(s: &CampaignSpec, mode: Option<SyncMode>) -> (Store, mc_fault::SimDisk) {
        let disk = mc_fault::SimDisk::new();
        let io: Box<dyn mc_fault::StoreIo> = match mode {
            Some(mode) => Box::new(TestIo {
                file: disk.open(),
                mode,
                syncs: 0,
            }),
            None => Box::new(disk.open()),
        };
        let (store, _) = Store::create_or_resume_io(io, "<sim>", s).unwrap();
        (store, disk)
    }

    /// Runs every unit of `s` into a fresh simulated disk; returns the
    /// durable bytes and the number of commits (fsyncs after the header).
    fn commits_and_bytes(
        s: &CampaignSpec,
        runner: &dyn UnitRunner,
        threads: usize,
        mode: Option<SyncMode>,
    ) -> (Vec<u8>, u64) {
        let (mut store, disk) = sim_store(s, mode);
        let syncs_before = disk.stats().syncs;
        let cfg = RunConfig {
            threads,
            ..RunConfig::default()
        };
        let summary = run_campaign(s, runner, &mut store, &cfg).unwrap();
        assert_eq!(summary.ran, s.total_units(), "threads {threads}");
        (disk.durable(), disk.stats().syncs - syncs_before)
    }

    #[test]
    fn a_store_error_stops_the_lanes_and_is_returned() {
        let s = spec(4, 50);
        let calls = AtomicUsize::new(0);
        let slow = |unit: &WorkUnit, inner: usize| {
            calls.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(1));
            seed_runner(unit, inner)
        };
        for threads in [1, 2] {
            calls.store(0, Ordering::Relaxed);
            let (mut store, _) = sim_store(&s, Some(SyncMode::Fail));
            let cfg = RunConfig {
                threads,
                ..RunConfig::default()
            };
            let err = run_campaign(&s, &slow, &mut store, &cfg).unwrap_err();
            assert!(err.to_string().contains("disk full"), "{err}");
            assert_eq!(store.completed_count(), 0);
            let ran = calls.load(Ordering::Relaxed);
            assert!(
                ran < 200,
                "threads {threads}: {ran} units ran after the error"
            );
        }
    }

    #[test]
    fn a_committer_panic_is_resumed_on_the_caller() {
        let s = spec(2, 4);
        for threads in [1, 2] {
            let (mut store, _) = sim_store(&s, Some(SyncMode::Panic));
            let cfg = RunConfig {
                threads,
                ..RunConfig::default()
            };
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_campaign(&s, &seed_runner, &mut store, &cfg)
            }))
            .unwrap_err();
            assert_eq!(panic.downcast_ref::<&str>(), Some(&"fsync exploded"));
        }
    }

    #[test]
    fn point_counters_match_a_full_rescan() {
        let s = spec(3, 4);
        let mut store = Store::in_memory(&s);
        for unit in [1usize, 4, 5, 6, 7] {
            let u = s.unit(unit);
            store
                .append(UnitRecord {
                    unit,
                    point: u.point,
                    replica: u.replica,
                    seed: u.seed,
                    metrics: seed_runner(&u, 1).unwrap(),
                })
                .unwrap();
        }
        let session: Vec<WorkUnit> = (0..12)
            .filter(|&u| !store.is_complete(u))
            .map(|u| s.unit(u))
            .collect();
        let progress = Progress::new(false, 12, 3, session.len());
        let sink = Sink::new(&store, &s, progress);
        let check = |sink: &Sink, store: &Store| {
            let st = sink.lock();
            let rescan = crate::accounting::points_complete(&s, |u| store.is_complete(u));
            assert_eq!(st.points_done, rescan);
            assert_eq!(st.store_completed, store.completed_count());
        };
        check(&sink, &store);
        // Out of order: some completions park, others release a batch,
        // which the committer's step commits.
        for pos in [2, 0, 1, 5, 3, 6, 4] {
            let u = session[pos];
            let record = UnitRecord {
                unit: u.index,
                point: u.point,
                replica: u.replica,
                seed: u.seed,
                metrics: seed_runner(&u, 1).unwrap(),
            };
            assert!(sink.park(pos, record));
            let batch = sink.lock().take_ready();
            if !batch.is_empty() {
                assert!(sink.commit(&mut store, batch));
            }
            check(&sink, &store);
        }
        sink.close();
        assert!(sink.wait_ready().is_none(), "a closed, drained sink");
        let st = sink.state.into_inner().unwrap();
        assert_eq!((st.next, st.points_done), (7, 3));
    }

    #[test]
    fn resume_skips_completed_units() {
        let s = spec(2, 3);
        let mut store = Store::in_memory(&s);
        // Pre-complete two units by hand.
        for i in [1usize, 4] {
            let u = s.unit(i);
            store
                .append(UnitRecord {
                    unit: u.index,
                    point: u.point,
                    replica: u.replica,
                    seed: u.seed,
                    metrics: seed_runner(&u, 1).unwrap(),
                })
                .unwrap();
        }
        let calls = AtomicUsize::new(0);
        let counting = |unit: &WorkUnit, inner: usize| {
            calls.fetch_add(1, Ordering::Relaxed);
            seed_runner(unit, inner)
        };
        let summary = run_campaign(&s, &counting, &mut store, &RunConfig::default()).unwrap();
        assert_eq!(summary.skipped, 2);
        assert_eq!(summary.ran, 4);
        assert_eq!(calls.load(Ordering::Relaxed), 4);
        assert_eq!(store.completed_count(), 6);
    }

    #[test]
    fn shards_partition_the_units_exactly() {
        let s = spec(3, 3);
        let mut a = Store::in_memory(&s);
        let mut b = Store::in_memory(&s);
        let base = RunConfig::default();
        run_campaign(
            &s,
            &seed_runner,
            &mut a,
            &RunConfig {
                shard: Shard { index: 0, count: 2 },
                ..base
            },
        )
        .unwrap();
        run_campaign(
            &s,
            &seed_runner,
            &mut b,
            &RunConfig {
                shard: Shard { index: 1, count: 2 },
                ..base
            },
        )
        .unwrap();
        assert_eq!(a.completed_count() + b.completed_count(), 9);
        let merged = Store::merge(&[a, b]).unwrap();

        let mut single = Store::in_memory(&s);
        run_campaign(&s, &seed_runner, &mut single, &base).unwrap();
        assert_eq!(merged.canonical_lines(), single.canonical_lines());
    }

    #[test]
    fn lint_errors_stop_the_run_before_any_work() {
        let s = spec(0, 5);
        let mut store = Store::in_memory(&s);
        let err = run_campaign(&s, &seed_runner, &mut store, &RunConfig::default()).unwrap_err();
        match err {
            ExpError::Lint(report) => assert_eq!(report.codes(), vec![mc_lint::Code::E001]),
            other => panic!("expected lint error, got {other}"),
        }
        let s = spec(2, 2);
        let cfg = RunConfig {
            shard: Shard { index: 5, count: 2 },
            ..RunConfig::default()
        };
        let mut store = Store::in_memory(&s);
        let err = run_campaign(&s, &seed_runner, &mut store, &cfg).unwrap_err();
        assert!(matches!(err, ExpError::Lint(_)));
    }

    #[test]
    fn a_failing_unit_aborts_but_keeps_prior_records() {
        let s = spec(1, 6);
        let failing = |unit: &WorkUnit, inner: usize| {
            if unit.replica == 3 {
                Err(ExpError::Config("boom".into()))
            } else {
                seed_runner(unit, inner)
            }
        };
        let mut store = Store::in_memory(&s);
        let cfg = RunConfig {
            threads: 1,
            ..RunConfig::default()
        };
        let err = run_campaign(&s, &failing, &mut store, &cfg).unwrap_err();
        assert!(err.to_string().contains("boom"));
        assert_eq!(
            store.completed_count(),
            3,
            "units before the failure persist"
        );
        // A resume with a fixed runner finishes the campaign.
        let summary = run_campaign(&s, &seed_runner, &mut store, &cfg).unwrap();
        assert_eq!(summary.skipped, 3);
        assert_eq!(summary.ran, 3);
    }

    #[test]
    fn shard_parsing() {
        assert_eq!(Shard::parse("0/4").unwrap(), Shard { index: 0, count: 4 });
        assert_eq!(Shard::parse("3/8").unwrap(), Shard { index: 3, count: 8 });
        assert!(Shard::parse("3").is_err());
        assert!(Shard::parse("a/b").is_err());
        assert!(Shard::parse("1/2/3").is_err());
        assert_eq!(Shard::parse("5/2").unwrap().to_string(), "5/2");
    }
}
