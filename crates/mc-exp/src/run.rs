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
//! Flushes are group commits ([`Store::append_batch`]): whichever pool
//! lane finds no commit in flight commits every ready record with one
//! fsync while the other lanes keep computing.

use crate::progress::Progress;
use crate::spec::{CampaignSpec, WorkUnit};
use crate::store::{Metric, Store, UnitRecord};
use crate::ExpError;
use std::collections::BTreeMap;
use std::sync::Mutex;
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
    /// Total thread budget (`0` = all available cores), split between the
    /// unit fan-out and each unit's inner parallelism.
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

/// Shared completion state of one session. Units finish in any order;
/// their records commit to the store in session order. The store itself
/// is the committer's baton: a lane that finds it in the sink takes it,
/// commits every contiguous ready record with one group commit outside
/// the lock, and repeats until nothing is ready, so the other lanes keep
/// computing through the fsync. A lane that finds the baton gone just
/// parks its record for the committer.
struct Sink<'a> {
    /// The store, or `None` while a committer holds it.
    store: Option<&'a mut Store>,
    /// Session position of the next record to commit.
    next: usize,
    /// Computed records waiting for their predecessors or the committer.
    pending: BTreeMap<usize, UnitRecord>,
    /// Per axis point, replicas not yet in the store.
    missing: Vec<usize>,
    /// Axis points with every replica in the store.
    points_done: usize,
    /// Units in the store (all shards, not only this session's).
    store_completed: usize,
    progress: Progress,
    error: Option<ExpError>,
}

impl<'a> Sink<'a> {
    fn new(store: &'a mut Store, spec: &CampaignSpec, progress: Progress) -> Self {
        let mut missing = vec![0usize; spec.points.len()];
        for unit in (0..spec.total_units()).filter(|&u| !store.is_complete(u)) {
            missing[unit / spec.replicas] += 1;
        }
        Sink {
            next: 0,
            pending: BTreeMap::new(),
            points_done: missing.iter().filter(|&&m| m == 0).count(),
            missing,
            store_completed: store.completed_count(),
            store: Some(store),
            progress,
            error: None,
        }
    }

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

/// Accepts the `session_pos`-th unit's record and, unless a commit is
/// already in flight, commits every record that is now in order. Returns
/// `false` once the session should stop.
fn complete(sink: &Mutex<Sink<'_>>, session_pos: usize, record: UnitRecord) -> bool {
    let mut st = sink.lock().expect("sink poisoned");
    st.pending.insert(session_pos, record);
    loop {
        if st.error.is_some() {
            return false;
        }
        let Some(store) = st.store.take() else {
            return true; // the committer in flight picks this record up
        };
        let batch = st.take_ready();
        if batch.is_empty() {
            st.store = Some(store);
            return true;
        }
        drop(st);
        let before = store.records().len();
        let result = store.append_batch(batch);
        st = sink.lock().expect("sink poisoned");
        match result {
            Ok(()) => st.committed(&store.records()[before..]),
            Err(e) => st.fail(e),
        }
        st.store = Some(store);
    }
}

/// Runs (this shard of) a campaign: lints the spec, skips units the store
/// already holds, computes the rest on a worker pool, and group-commits
/// records in session order, counting a unit done only once the fsync
/// covering it returns. At one thread every unit is its own commit.
///
/// # Errors
///
/// Lint errors ([`ExpError::Lint`]) before any work starts; otherwise the
/// first unit or store failure, after which completed units remain
/// persisted for a later resume.
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
    let sink = Mutex::new(Sink::new(store, spec, progress));

    pool.for_each_while(session.len(), |pos| {
        let unit = session[pos];
        let _unit_span = mc_obs::span("exp.unit");
        match runner.run_unit(&unit, inner_threads) {
            Ok(metrics) => {
                let record = UnitRecord {
                    unit: unit.index,
                    point: unit.point,
                    replica: unit.replica,
                    seed: unit.seed,
                    metrics,
                };
                complete(&sink, pos, record)
            }
            Err(e) => {
                sink.lock().expect("sink poisoned").fail(e);
                false
            }
        }
    });

    let sink = sink.into_inner().expect("sink poisoned");
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
        let mut reference: Option<Vec<u8>> = None;
        for threads in [1, 2, 4, 8] {
            let disk = mc_fault::SimDisk::new();
            let (mut store, _) =
                Store::create_or_resume_io(Box::new(disk.open()), "<skewed>", &s).unwrap();
            let syncs_before = disk.stats().syncs;
            let cfg = RunConfig {
                threads,
                ..RunConfig::default()
            };
            let summary = run_campaign(&s, &skewed, &mut store, &cfg).unwrap();
            assert_eq!(summary.ran, 40, "threads {threads}");
            let commits = disk.stats().syncs - syncs_before;
            if threads == 1 {
                assert_eq!(commits, 40, "one fsync per unit at one thread");
            } else {
                assert!((1..=40).contains(&commits), "threads {threads}: {commits}");
            }
            let bytes = disk.durable();
            match &reference {
                None => reference = Some(bytes),
                Some(r) => assert!(&bytes == r, "threads {threads} changed the store bytes"),
            }
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
        let sink = Mutex::new(Sink::new(&mut store, &s, progress));
        let check = |sink: &Mutex<Sink<'_>>| {
            let st = sink.lock().unwrap();
            let store = st.store.as_deref().unwrap();
            let rescan = crate::accounting::points_complete(&s, |u| store.is_complete(u));
            assert_eq!(st.points_done, rescan);
            assert_eq!(st.store_completed, store.completed_count());
        };
        check(&sink);
        // Out of order: some completions park, others release a batch.
        for pos in [2, 0, 1, 5, 3, 6, 4] {
            let u = session[pos];
            let record = UnitRecord {
                unit: u.index,
                point: u.point,
                replica: u.replica,
                seed: u.seed,
                metrics: seed_runner(&u, 1).unwrap(),
            };
            assert!(complete(&sink, pos, record));
            check(&sink);
        }
        let st = sink.into_inner().unwrap();
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
