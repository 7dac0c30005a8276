//! Crash-schedule sweeps over the store's resume path.
//!
//! Each swept *schedule* drives one small campaign to completion against
//! an `mc_fault::SimDisk`, through repeated sessions of
//! run → crash → resume, with every I/O operation subject to the
//! seed-derived fault schedule. After every session the sweep checks the
//! store's documented crash invariant, and at the end it checks byte
//! identity:
//!
//! 1. **Acked records survive.** Any record whose commit
//!    ([`Store::append_batch`]) returned `Ok` (writes + fsync
//!    acknowledged) must be replayed as complete by every later resume,
//!    byte-for-byte. The converse is NOT required: an unacknowledged
//!    record whose bytes happened to reach the disk may legitimately
//!    replay too.
//! 2. **Canonical byte identity.** Once the campaign completes, the
//!    store's [`Store::canonical_lines`] must equal those of an
//!    uninterrupted in-memory run of the same campaign.
//!
//! Every violation carries the schedule seed that reproduces it
//! (`chebymc fault sweep --seed <seed> --count 1`). A quarter of the
//! schedule seeds run in *batch mode*: their sessions group-commit the
//! pending units in seed-derived batches of 1–5 records, so crashes and
//! injected errors land between the lines of one multi-record commit. A
//! sharded variant runs the campaign as two independently-crashing
//! shards and checks the merge instead, covering the run → crash →
//! resume → merge path.

use crate::spec::{CampaignSpec, Param, PointSpec};
use crate::store::{Metric, Store, UnitRecord};
use mc_fault::gen::{spec_shape, SpecShape};
use mc_fault::{mix64, FaultRng, FaultSchedule, SimDisk};
use std::collections::BTreeMap;

/// Configuration of a fault sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepConfig {
    /// Root seed; schedule `i` uses seed `seed + i`, so a violation's
    /// printed seed replays directly with `--count 1`.
    pub seed: u64,
    /// Number of distinct crash schedules to sweep.
    pub count: u64,
    /// Operation horizon per session: each faulty session crashes within
    /// its first `ops` I/O operations.
    pub ops: u64,
    /// Sanity-check mutation to inject (tests only); `None` in real
    /// sweeps.
    pub sabotage: Option<Sabotage>,
}

impl SweepConfig {
    /// A sweep of `count` schedules from `seed` with the default
    /// operation horizon (16 — wide enough to crash anywhere from the
    /// initial read to deep in the appends).
    #[must_use]
    pub fn new(seed: u64, count: u64) -> Self {
        SweepConfig {
            seed,
            count,
            ops: 16,
            sabotage: None,
        }
    }
}

/// Deliberate store corruptions for mutation-style sanity checks: a
/// sweep over a sabotaged disk must report a violation, proving the
/// checker can actually fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sabotage {
    /// After the first crash recovery, silently drop the last durable
    /// line — the "acked record lost" bug the invariant exists to catch.
    DropDurableRecord,
}

/// One invariant violation, reproducible from its schedule seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The schedule seed (pass to `--seed` with `--count 1` to replay).
    pub seed: u64,
    /// The crash/resume cycle in which the violation surfaced.
    pub cycle: u64,
    /// What was violated.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "schedule seed {} (cycle {}): {}",
            self.seed, self.cycle, self.detail
        )
    }
}

/// The outcome of a sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Schedules completed.
    pub schedules: u64,
    /// Crash/resume cycles driven across all schedules.
    pub cycles: u64,
    /// Crashes that actually fired.
    pub crashes: u64,
    /// Non-crash faults (failed/short writes, failed fsyncs) injected.
    pub injected_errors: u64,
    /// Acknowledged commits of more than one record (batch mode).
    pub batch_commits: u64,
    /// Invariant violations, each with its reproducing seed.
    pub violations: Vec<Violation>,
}

impl SweepReport {
    /// Whether the sweep passed.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Upper bound on faulty sessions per schedule before the sweep forces a
/// fault-free session to finish the campaign. With a crash guaranteed in
/// every faulty session's first `ops` operations, progress per cycle can
/// stall, so termination comes from this cap.
const MAX_FAULTY_CYCLES: u64 = 32;

/// The campaign a schedule seed sweeps: a small random shape (1–5 points
/// × 1–4 replicas) so different seeds also vary the workload.
fn sweep_spec(schedule_seed: u64) -> CampaignSpec {
    let shape = spec_shape(&mut FaultRng::new(mix64(schedule_seed, 0xCAFE)));
    spec_from_shape("fault-sweep", &shape)
}

/// Builds a concrete [`CampaignSpec`] from an `mc_fault` shape.
#[must_use]
pub fn spec_from_shape(name: &str, shape: &SpecShape) -> CampaignSpec {
    CampaignSpec {
        name: name.to_string(),
        seed: shape.seed,
        params: vec![],
        points: shape
            .point_values
            .iter()
            .enumerate()
            .map(|(i, v)| PointSpec::new(format!("p{i}"), vec![Param::new("u", *v)]))
            .collect(),
        replicas: shape.replicas,
    }
}

/// The deterministic record a sweep writes for `unit` — a stand-in for a
/// real unit runner, pure in the unit's derived seed.
fn unit_record(spec: &CampaignSpec, index: usize) -> UnitRecord {
    let u = spec.unit(index);
    UnitRecord {
        unit: u.index,
        point: u.point,
        replica: u.replica,
        seed: u.seed,
        metrics: vec![Metric::new(
            "objective",
            (u.seed % 1_000_003) as f64 / 1_000_003.0,
        )],
    }
}

/// What one crash/resume session did.
enum Session {
    /// Every pending unit was appended and acknowledged.
    Completed,
    /// An injected fault ended the session early.
    Died,
    /// The store replay itself broke an invariant.
    Violated(String),
}

/// Whether a schedule seed runs in batch mode (a quarter of the seeds;
/// the sharded checker takes another quarter).
fn batch_mode(schedule_seed: u64) -> bool {
    schedule_seed % 4 == 1
}

/// Runs one session: resume the store from the disk, verify every acked
/// record replayed, then commit the pending ones of `units` until done or
/// killed. With `batches`, each commit takes the next 1–5 pending units
/// (sizes drawn from it); without, every unit is its own commit.
fn run_session(
    disk: &SimDisk,
    spec: &CampaignSpec,
    units: &[usize],
    acked: &mut BTreeMap<usize, UnitRecord>,
    mut batches: Option<FaultRng>,
    report: &mut SweepReport,
) -> Session {
    let io = Box::new(disk.open());
    let (mut store, _info) = match Store::create_or_resume_io(io, "<sim>", spec) {
        Ok(v) => v,
        // Injected I/O failures end the session; corruption errors are
        // invariant violations (the disk only ever holds bytes the store
        // itself wrote, so resume must never see interior corruption).
        Err(crate::ExpError::Io { .. }) => return Session::Died,
        Err(e) => return Session::Violated(format!("resume failed: {e}")),
    };
    for (unit, rec) in acked.iter() {
        if !store.is_complete(*unit) {
            return Session::Violated(format!("acked unit {unit} lost after resume"));
        }
        match store.records().iter().find(|r| r.unit == *unit) {
            Some(replayed) if replayed == rec => {}
            Some(_) => {
                return Session::Violated(format!("acked unit {unit} replayed with altered bytes"))
            }
            None => return Session::Violated(format!("acked unit {unit} has no record")),
        }
    }
    let pending: Vec<usize> = units
        .iter()
        .copied()
        .filter(|&index| !store.is_complete(index))
        .collect();
    let mut rest = &pending[..];
    while !rest.is_empty() {
        let size = batches.as_mut().map_or(1, |rng| {
            usize::try_from(rng.range_u64(1, 5)).expect("batch size fits usize")
        });
        let (head, tail) = rest.split_at(size.min(rest.len()));
        rest = tail;
        let batch: Vec<UnitRecord> = head.iter().map(|&i| unit_record(spec, i)).collect();
        match store.append_batch(batch.clone()) {
            Ok(()) => {
                if batch.len() > 1 {
                    report.batch_commits += 1;
                }
                acked.extend(batch.into_iter().map(|r| (r.unit, r)));
            }
            Err(crate::ExpError::Io { .. }) => return Session::Died,
            Err(e) => return Session::Violated(format!("append failed: {e}")),
        }
    }
    Session::Completed
}

/// RNG stream of the batch sizes, apart from the fault schedule's.
const BATCH_STREAM: u64 = 0xBA7C;

/// Drives one schedule's campaign to completion through crash/resume
/// cycles on `disk`, returning the first violation if any. Batch-mode
/// seeds (see the module docs) commit in seed-derived batches.
///
/// # Errors
///
/// The violation, tagged with `schedule_seed` for reproduction.
pub fn check_campaign(
    schedule_seed: u64,
    ops: u64,
    sabotage: Option<Sabotage>,
    report: &mut SweepReport,
) -> Result<(), Violation> {
    let spec = sweep_spec(schedule_seed);
    let units: Vec<usize> = (0..spec.total_units()).collect();
    let disk = SimDisk::new();
    let mut acked: BTreeMap<usize, UnitRecord> = BTreeMap::new();
    let mut sabotaged = false;
    let violation = |cycle: u64, detail: String| Violation {
        seed: schedule_seed,
        cycle,
        detail,
    };

    let mut completed = false;
    for cycle in 0..=MAX_FAULTY_CYCLES {
        let faulty = cycle < MAX_FAULTY_CYCLES;
        let schedule = if faulty {
            FaultSchedule::from_seed(mix64(schedule_seed, cycle), ops)
        } else {
            FaultSchedule::none()
        };
        disk.set_schedule(schedule);
        let batches = batch_mode(schedule_seed)
            .then(|| FaultRng::new(mix64(mix64(schedule_seed, BATCH_STREAM), cycle)));
        let session = run_session(&disk, &spec, &units, &mut acked, batches, report);
        report.cycles += 1;
        // End of session: crash (schedule) or clean process exit.
        let crashed = disk.is_crashed();
        disk.recover();
        if sabotage == Some(Sabotage::DropDurableRecord) && crashed && !sabotaged {
            sabotaged = disk.sabotage_drop_last_line();
        }
        match session {
            Session::Violated(detail) => return Err(violation(cycle, detail)),
            Session::Died => {}
            Session::Completed => {
                completed = true;
                break;
            }
        }
    }
    if !completed {
        // Unreachable by construction (the last cycle is fault-free),
        // kept as a checked invariant rather than an assert.
        return Err(violation(
            MAX_FAULTY_CYCLES,
            "campaign did not complete within the cycle budget".into(),
        ));
    }

    let stats = disk.stats();
    report.crashes += stats.crashes;
    report.injected_errors += stats.injected_errors;

    // Final oracle: the surviving store must be canonically byte-identical
    // to an uninterrupted run of the same campaign.
    disk.set_schedule(FaultSchedule::none());
    let (survivor, _info) = Store::create_or_resume_io(Box::new(disk.open()), "<sim>", &spec)
        .map_err(|e| violation(MAX_FAULTY_CYCLES, format!("final reload failed: {e}")))?;
    let mut reference = Store::in_memory(&spec);
    for index in 0..spec.total_units() {
        reference
            .append(unit_record(&spec, index))
            .expect("reference run cannot fail");
    }
    if survivor.canonical_lines() != reference.canonical_lines() {
        return Err(violation(
            MAX_FAULTY_CYCLES,
            "canonical bytes differ from an uninterrupted run".into(),
        ));
    }
    Ok(())
}

/// Sharded variant: the campaign runs as two shards (units split
/// even/odd), each on its own independently-crashing disk, then the two
/// stores are merged and compared against the uninterrupted reference —
/// the full run → crash → resume → merge path.
///
/// # Errors
///
/// The violation, tagged with `schedule_seed` for reproduction.
pub fn check_sharded_campaign(
    schedule_seed: u64,
    ops: u64,
    report: &mut SweepReport,
) -> Result<(), Violation> {
    let spec = sweep_spec(schedule_seed);
    let violation = |cycle: u64, detail: String| Violation {
        seed: schedule_seed,
        cycle,
        detail,
    };
    let mut shard_stores = Vec::new();
    for shard in 0..2u64 {
        let disk = SimDisk::new();
        let mut acked: BTreeMap<usize, UnitRecord> = BTreeMap::new();
        let shard_units: Vec<usize> = (0..spec.total_units())
            .filter(|u| (*u as u64) % 2 == shard)
            .collect();
        let mut completed = false;
        for cycle in 0..=MAX_FAULTY_CYCLES {
            let faulty = cycle < MAX_FAULTY_CYCLES;
            let schedule = if faulty {
                FaultSchedule::from_seed(mix64(schedule_seed, (shard << 32) | cycle), ops)
            } else {
                FaultSchedule::none()
            };
            disk.set_schedule(schedule);
            report.cycles += 1;
            let session = run_session(&disk, &spec, &shard_units, &mut acked, None, report);
            disk.recover();
            match session {
                Session::Violated(detail) => return Err(violation(cycle, detail)),
                Session::Died => {}
                Session::Completed => {
                    completed = true;
                    break;
                }
            }
        }
        if !completed {
            return Err(violation(
                MAX_FAULTY_CYCLES,
                format!("shard {shard} did not complete within the cycle budget"),
            ));
        }
        let stats = disk.stats();
        report.crashes += stats.crashes;
        report.injected_errors += stats.injected_errors;
        disk.set_schedule(FaultSchedule::none());
        let (store, _) = Store::create_or_resume_io(Box::new(disk.open()), "<sim-shard>", &spec)
            .map_err(|e| violation(MAX_FAULTY_CYCLES, format!("shard reload failed: {e}")))?;
        shard_stores.push(store);
    }

    let merged = Store::merge(&shard_stores)
        .map_err(|e| violation(MAX_FAULTY_CYCLES, format!("merge failed: {e}")))?;
    let mut reference = Store::in_memory(&spec);
    for index in 0..spec.total_units() {
        reference
            .append(unit_record(&spec, index))
            .expect("reference run cannot fail");
    }
    if merged.canonical_lines() != reference.canonical_lines() {
        return Err(violation(
            MAX_FAULTY_CYCLES,
            "merged canonical bytes differ from an uninterrupted run".into(),
        ));
    }
    Ok(())
}

/// Sweeps `cfg.count` distinct schedules with seeds `cfg.seed + i`
/// (consecutive seeds are fine — every consumer mixes the seed through
/// `mix64` before use, and plain addition is what lets a printed
/// violation seed be replayed verbatim with `--seed <it> --count 1`),
/// alternating the single-store and sharded-merge checkers, and collects
/// every violation with its reproducing seed.
#[must_use]
pub fn sweep(cfg: &SweepConfig) -> SweepReport {
    let mut report = SweepReport::default();
    for i in 0..cfg.count {
        let schedule_seed = cfg.seed.wrapping_add(i);
        // The checker (and batch mode, inside `check_campaign`) is chosen
        // from the schedule seed itself, not the loop index, so replaying
        // one seed re-runs the same checker.
        let result = if schedule_seed % 4 == 3 && cfg.sabotage.is_none() {
            // A quarter of the schedules exercise the sharded merge path.
            check_sharded_campaign(schedule_seed, cfg.ops, &mut report)
        } else {
            check_campaign(schedule_seed, cfg.ops, cfg.sabotage, &mut report)
        };
        report.schedules += 1;
        if let Err(v) = result {
            report.violations.push(v);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_sweep_is_clean_and_actually_faults() {
        let report = sweep(&SweepConfig::new(0xFA017, 24));
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert_eq!(report.schedules, 24);
        assert!(report.crashes > 0, "sweep never crashed: {report:?}");
        assert!(
            report.injected_errors > 0,
            "sweep never injected an error: {report:?}"
        );
        assert!(report.cycles > report.schedules);
    }

    #[test]
    fn sweeps_are_deterministic() {
        let a = sweep(&SweepConfig::new(12, 6));
        let b = sweep(&SweepConfig::new(12, 6));
        assert_eq!(a, b);
    }

    #[test]
    fn sabotage_is_caught_with_a_reproducing_seed() {
        let cfg = SweepConfig {
            sabotage: Some(Sabotage::DropDurableRecord),
            ..SweepConfig::new(0xBAD, 40)
        };
        let report = sweep(&cfg);
        assert!(
            !report.ok(),
            "sabotaged sweep must catch at least one dropped record"
        );
        let v = &report.violations[0];
        // The printed seed replays the violation on its own...
        let mut single = SweepReport::default();
        let replay = check_campaign(v.seed, cfg.ops, cfg.sabotage, &mut single);
        assert_eq!(replay.unwrap_err().detail, v.detail);
        assert!(v.to_string().contains(&v.seed.to_string()));
        // ...including through the sweep entry point the CLI uses
        // (`--seed <it> --count 1`).
        let replayed = sweep(&SweepConfig {
            seed: v.seed,
            count: 1,
            ..cfg
        });
        assert_eq!(replayed.violations.len(), 1);
        assert_eq!(replayed.violations[0].detail, v.detail);
    }

    #[test]
    fn batch_mode_holds_both_invariants_and_commits_real_batches() {
        let mut report = SweepReport::default();
        for schedule_seed in (0..96u64).map(|i| 4 * i + 1) {
            assert!(batch_mode(schedule_seed));
            let result = check_campaign(schedule_seed, 16, None, &mut report);
            assert!(result.is_ok(), "{}", result.unwrap_err());
        }
        assert!(
            report.batch_commits > 0,
            "no multi-record commit: {report:?}"
        );
        assert!(
            report.crashes > 0 && report.injected_errors > 0,
            "{report:?}"
        );
    }

    #[test]
    fn batch_mode_catches_a_dropped_durable_record() {
        let mut caught = 0;
        for schedule_seed in (0..40u64).map(|i| 4 * i + 1) {
            let mut report = SweepReport::default();
            let sabotage = Some(Sabotage::DropDurableRecord);
            caught +=
                usize::from(check_campaign(schedule_seed, 16, sabotage, &mut report).is_err());
        }
        assert!(caught > 0, "a sabotaged batch-mode store went undetected");
    }
}
