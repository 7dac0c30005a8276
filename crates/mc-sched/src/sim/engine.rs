//! The preemptive uniprocessor event loop, parameterised by the number of
//! criticality levels `L`. [`simulate`] runs a dual-criticality
//! [`TaskSet`] through it as `L = 2` (LC at level 0, HC at level 1);
//! [`super::simulate_multi`] runs an L-level `MultiTaskSet`.

use super::exec_model::JobExecModel;
use super::metrics::{MultiSimMetrics, SimMetrics};
use super::LcPolicy;
use crate::analysis::edf_vd;
use crate::SchedError;
use mc_task::time::{Duration, Instant};
use mc_task::{ExecutionProfile, TaskSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How `C_LO` overruns trigger criticality-mode changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ModeSwitchPolicy {
    /// The first `C_LO` overrun switches the whole system to HI mode
    /// (Baruah et al.; Liu et al.). This is the default and the behaviour
    /// all earlier campaign stores were recorded under.
    #[default]
    System,
    /// Combined task-level/system-level switching (Boudjadar et al.):
    /// a single overrunning HC job is contained at task level — it runs on
    /// toward `C_HI` while the system stays in LO mode and LC service
    /// continues untouched. Only a second concurrent overrun escalates to
    /// a system-level HI switch.
    TaskLevelThenSystem,
}

/// Configuration of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Simulated time span (all tasks release synchronously at `t = 0`).
    pub horizon: Duration,
    /// LC handling when the system enters HI mode.
    pub lc_policy: LcPolicy,
    /// Per-job execution-time model.
    pub exec_model: JobExecModel,
    /// EDF-VD deadline-shrinking factor. `None` derives it from the task
    /// set per Baruah's formula; `Some(1.0)` degenerates to plain EDF.
    pub x_factor: Option<f64>,
    /// Sporadic release jitter: each job's release is delayed by a uniform
    /// draw from `[0, release_jitter]` after its minimum separation (the
    /// period). `ZERO` (the default) gives strictly periodic releases.
    #[serde(default)]
    pub release_jitter: Duration,
    /// How `C_LO` overruns trigger mode changes. The default,
    /// [`ModeSwitchPolicy::System`], preserves the classic EDF-VD
    /// semantics byte-for-byte.
    #[serde(default)]
    pub mode_switch: ModeSwitchPolicy,
    /// RNG seed for stochastic execution models.
    pub seed: u64,
}

impl SimConfig {
    /// A conventional configuration: EDF-VD with derived `x`, drop-all LC
    /// policy, profile-driven execution times.
    pub fn new(horizon: Duration) -> Self {
        SimConfig {
            horizon,
            lc_policy: LcPolicy::DropAll,
            exec_model: JobExecModel::Profile,
            x_factor: None,
            release_jitter: Duration::ZERO,
            mode_switch: ModeSwitchPolicy::System,
            seed: 0,
        }
    }

    pub(super) fn validate(&self) -> Result<(), SchedError> {
        if self.horizon.is_zero() {
            return Err(SchedError::InvalidSimConfig {
                reason: "horizon must be non-zero",
            });
        }
        if !self.lc_policy.is_valid() {
            return Err(SchedError::InvalidSimConfig {
                reason: "degradation fraction must be in [0, 1]",
            });
        }
        if !self.exec_model.is_valid() {
            return Err(SchedError::InvalidSimConfig {
                reason: "execution model parameter out of range",
            });
        }
        if let Some(x) = self.x_factor {
            if !x.is_finite() || x <= 0.0 || x > 1.0 {
                return Err(SchedError::InvalidSimConfig {
                    reason: "x factor must lie in (0, 1]",
                });
            }
        }
        Ok(())
    }
}

/// Runs one simulation of `ts` under `cfg` and returns the collected
/// metrics.
///
/// # Errors
///
/// Returns [`SchedError::InvalidSimConfig`] for invalid configurations and
/// [`SchedError::EmptyTaskSet`] when there is nothing to simulate.
///
/// # Example
///
/// ```
/// use mc_sched::sim::{simulate, SimConfig, JobExecModel, LcPolicy};
/// use mc_task::time::Duration;
/// use mc_task::{Criticality, McTask, TaskId, TaskSet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ts = TaskSet::from_tasks(vec![McTask::builder(TaskId::new(0))
///     .criticality(Criticality::Hi)
///     .period(Duration::from_millis(100))
///     .c_lo(Duration::from_millis(10))
///     .c_hi(Duration::from_millis(40))
///     .build()?])?;
/// let mut cfg = SimConfig::new(Duration::from_secs(1));
/// cfg.exec_model = JobExecModel::FullLoBudget;
/// let metrics = simulate(&ts, &cfg)?;
/// assert_eq!(metrics.mode_switches, 0);
/// assert_eq!(metrics.hc_deadline_misses, 0);
/// # Ok(())
/// # }
/// ```
pub fn simulate(ts: &TaskSet, cfg: &SimConfig) -> Result<SimMetrics, SchedError> {
    check(ts, cfg)?;
    simulate_counted(ts, cfg).map(|(metrics, _)| metrics)
}

/// The checks [`simulate`] makes before it runs anything.
pub(super) fn check(ts: &TaskSet, cfg: &SimConfig) -> Result<(), SchedError> {
    cfg.validate()?;
    if ts.is_empty() {
        return Err(SchedError::EmptyTaskSet);
    }
    Ok(())
}

/// [`simulate`] once [`check`] has passed, also returning the counts the
/// run emitted.
pub(super) fn simulate_counted(
    ts: &TaskSet,
    cfg: &SimConfig,
) -> Result<(SimMetrics, WorkCounts), SchedError> {
    let run = run(&dual_plan(ts, cfg), cfg)?;
    let m = &run.levels;
    let metrics = SimMetrics {
        hc_released: m.released_per_level[1],
        lc_released: m.released_per_level[0],
        hc_completed: m.completed_per_level[1],
        lc_completed: m.completed_per_level[0],
        lc_degraded: run.degraded,
        lc_dropped_at_switch: m.jobs_killed,
        lc_rejected_in_hi: m.releases_rejected,
        hc_deadline_misses: m.misses_per_level[1],
        lc_deadline_misses: m.misses_per_level[0],
        mode_switches: m.escalations[0],
        task_level_switches: run.task_level_switches,
        time_in_hi: m.time_in_mode[1],
        busy_time: m.busy_time,
        horizon: m.horizon,
    };
    Ok((metrics, run.counts))
}

/// The plan of a dual-criticality set: LC tasks at level 0, HC tasks at
/// level 1 dispatched in LO mode by their EDF-VD virtual deadlines.
fn dual_plan<'a>(ts: &'a TaskSet, cfg: &SimConfig) -> Plan<'a> {
    let x = match cfg.x_factor {
        Some(x) => x,
        None => edf_vd::x_factor(ts.u_hc_lo(), ts.u_lc_lo()).unwrap_or(1.0),
    };
    let mut plan = Plan::new(2, ts.len());
    for task in ts.iter() {
        let spec = PlanTask {
            level: usize::from(task.is_high()),
            period: task.period(),
            deadline: task.deadline(),
            lowest: task.c_lo(),
            top: task.c_hi(),
            profile: task.profile(),
        };
        plan.push(spec, |_| ModeEntry {
            budget: task.c_lo(),
            dispatch: edf_vd::virtual_deadline(task, x),
        });
    }
    plan
}

/// The task table of one run, built once by an adapter so the event loop
/// never touches the task types or recomputes a virtual deadline.
pub(super) struct Plan<'a> {
    levels: usize,
    tasks: Vec<PlanTask<'a>>,
    /// Per task and mode, at `task * levels + mode`.
    modes: Vec<ModeEntry>,
}

/// One task of a [`Plan`].
pub(super) struct PlanTask<'a> {
    /// Criticality level in `0..L`.
    pub level: usize,
    pub period: Duration,
    /// Relative deadline (the period in the L-level model).
    pub deadline: Duration,
    /// Budget in mode 0 (`C_LO`), which execution-time draws scale.
    pub lowest: Duration,
    /// Budget in the task's own level (`C_HI`), which caps every draw.
    pub top: Duration,
    pub profile: Option<&'a ExecutionProfile>,
}

/// What a task's jobs do in one mode.
#[derive(Debug, Clone, Copy)]
pub(super) struct ModeEntry {
    /// Executing this long without finishing escalates the mode.
    pub budget: Duration,
    /// Relative dispatch deadline: the EDF-VD virtual deadline.
    pub dispatch: Duration,
}

impl<'a> Plan<'a> {
    pub(super) fn new(levels: usize, tasks: usize) -> Self {
        Plan {
            levels,
            tasks: Vec::with_capacity(tasks),
            modes: Vec::with_capacity(tasks * levels),
        }
    }

    /// Adds a task; `below(k)` describes it in each mode `k` below its
    /// level. At and above its level a task cannot escalate and is
    /// dispatched by its real deadline.
    pub(super) fn push(&mut self, task: PlanTask<'a>, below: impl Fn(usize) -> ModeEntry) {
        for k in 0..self.levels {
            self.modes.push(if k < task.level {
                below(k)
            } else {
                ModeEntry {
                    budget: task.top,
                    dispatch: task.deadline,
                }
            });
        }
        self.tasks.push(task);
    }

    fn mode(&self, task: usize, mode: usize) -> ModeEntry {
        self.modes[task * self.levels + mode]
    }
}

/// What one run of the event loop counted.
pub(super) struct RunMetrics {
    /// Per-level counters and per-mode clocks.
    pub levels: MultiSimMetrics,
    /// Jobs that completed with a degraded budget.
    pub degraded: u64,
    /// Overruns contained at task level.
    pub task_level_switches: u64,
    /// The run's work.
    pub counts: WorkCounts,
}

/// The work one run did, as the `mc-obs` counters `sched.sim_events` and
/// `sched.sim_releases` record it.
#[derive(Debug, Clone, Copy)]
pub(super) struct WorkCounts {
    /// Loop iterations, the last one reaching the horizon.
    pub events: u64,
    /// Releases, admitted or rejected.
    pub releases: u64,
}

impl WorkCounts {
    /// Adds the counts to the `mc-obs` counters.
    pub(super) fn emit(self) {
        mc_obs::counter("sched.sim_events", self.events);
        mc_obs::counter("sched.sim_releases", self.releases);
    }
}

#[derive(Debug, Clone)]
struct Job {
    task_idx: usize,
    level: usize,
    release: Instant,
    abs_deadline: Instant,
    /// Dispatch key in the current mode, refreshed on every mode change.
    key: Instant,
    /// Budget in the current mode (read only while `level > mode`),
    /// refreshed with `key`.
    budget: Duration,
    remaining: Duration,
    executed: Duration,
    /// Set when a degraded policy truncated this job's demand.
    degraded: bool,
    /// Set when a task-level mode switch already contained this job's
    /// overrun, so it is counted once.
    contained: bool,
}

impl Job {
    /// Caps the job's total demand at `budget`, marking it degraded when
    /// that cuts it short.
    fn degrade(&mut self, budget: Duration) {
        let allowed = budget.saturating_sub(self.executed);
        if self.remaining > allowed {
            self.remaining = allowed;
            self.degraded = true;
        }
    }

    /// Whether the job has run its current-mode budget out without
    /// finishing.
    fn overruns(&self, mode: usize) -> bool {
        self.level > mode && self.executed >= self.budget && !self.remaining.is_zero()
    }
}

/// A min-heap of `(time, task index)`: equal times pop in task-index order.
type MinHeap = BinaryHeap<Reverse<(Instant, usize)>>;

/// Marks a task with no pending job in [`Pending::slot`].
const NO_JOB: usize = usize::MAX;

/// The pending jobs and the two heaps that order them.
///
/// A task has at most one pending job: its deadline lies within its period
/// (checked when the run starts), and the deadline pass kills a late job
/// before its task releases again. So `slot` maps a task to its job's
/// position, and removal is a `swap_remove`.
///
/// Both heaps delete lazily: an entry whose job has left, or whose key a
/// mode change replaced, stays until it surfaces and is then dropped. An
/// entry is live while its task's job still carries its time. Within one
/// mode a task's successive jobs have strictly later keys and deadlines,
/// and every mode change rebuilds `ready`, so a stale entry never matches.
struct Pending {
    jobs: Vec<Job>,
    /// Task index → position in `jobs`, or [`NO_JOB`].
    slot: Vec<usize>,
    /// Pending jobs per criticality level.
    per_level: Vec<usize>,
    /// EDF ready queue over `(key, task index)`.
    ready: MinHeap,
    /// Absolute deadlines, `(abs_deadline, task index)`.
    deadlines: MinHeap,
}

impl Pending {
    fn new(tasks: usize, levels: usize) -> Self {
        Pending {
            jobs: Vec::new(),
            slot: vec![NO_JOB; tasks],
            per_level: vec![0; levels],
            ready: BinaryHeap::new(),
            deadlines: BinaryHeap::new(),
        }
    }

    fn insert(&mut self, job: Job) {
        debug_assert_eq!(self.slot[job.task_idx], NO_JOB, "one job per task");
        self.slot[job.task_idx] = self.jobs.len();
        self.per_level[job.level] += 1;
        self.ready.push(Reverse((job.key, job.task_idx)));
        self.deadlines
            .push(Reverse((job.abs_deadline, job.task_idx)));
        self.jobs.push(job);
    }

    fn remove(&mut self, pos: usize) -> Job {
        let job = self.jobs.swap_remove(pos);
        self.slot[job.task_idx] = NO_JOB;
        if let Some(moved) = self.jobs.get(pos) {
            self.slot[moved.task_idx] = pos;
        }
        self.per_level[job.level] -= 1;
        job
    }

    /// Keeps the jobs `keep` accepts and returns how many it removed.
    fn retain(&mut self, keep: impl Fn(&Job) -> bool) -> u64 {
        let before = self.jobs.len();
        for j in &self.jobs {
            self.slot[j.task_idx] = NO_JOB;
        }
        self.jobs.retain(keep);
        self.per_level.fill(0);
        for (pos, j) in self.jobs.iter().enumerate() {
            self.slot[j.task_idx] = pos;
            self.per_level[j.level] += 1;
        }
        (before - self.jobs.len()) as u64
    }

    /// The position of the job the top live entry of `heap` names, after
    /// dropping the stale entries above it. `time` reads the job's side of
    /// the entry.
    fn top(
        heap: &mut MinHeap,
        jobs: &[Job],
        slot: &[usize],
        time: impl Fn(&Job) -> Instant,
    ) -> Option<usize> {
        while let Some(&Reverse((t, idx))) = heap.peek() {
            let pos = slot[idx];
            if pos != NO_JOB && time(&jobs[pos]) == t {
                return Some(pos);
            }
            heap.pop();
        }
        None
    }

    /// The job EDF dispatches: the least `(key, task index)`.
    fn running(&mut self) -> Option<usize> {
        Self::top(&mut self.ready, &self.jobs, &self.slot, |j| j.key)
    }

    /// The job with the earliest absolute deadline.
    fn earliest_deadline(&mut self) -> Option<usize> {
        Self::top(&mut self.deadlines, &self.jobs, &self.slot, |j| {
            j.abs_deadline
        })
    }

    /// Refreshes every job's dispatch key and budget for `mode`, and
    /// rebuilds the ready heap over the new keys.
    fn rekey(&mut self, plan: &Plan<'_>, mode: usize) {
        let mut ready = std::mem::take(&mut self.ready).into_vec();
        ready.clear();
        for j in &mut self.jobs {
            let entry = plan.mode(j.task_idx, mode);
            j.key = j.release + entry.dispatch;
            j.budget = entry.budget;
            ready.push(Reverse((j.key, j.task_idx)));
        }
        self.ready = BinaryHeap::from(ready);
    }
}

/// The most events a run of `plan` over `horizon` can take, or `None` when
/// that count overflows 64 bits (or a period is zero).
///
/// A task releases at most `⌈horizon / period⌉` times. Each loop iteration
/// stops at the next event, and every event uses up one of: a release; the
/// completion, deadline miss or kill of a released job (once per job); or
/// the running job reaching one of its budgets below its own level (at
/// most `L − 1` per job, since its execution only grows). The last
/// iteration reaches the horizon. So a run takes at most `L + 1` events
/// per release, plus one.
fn event_bound(plan: &Plan<'_>, horizon: Duration) -> Option<u64> {
    let mut releases: u64 = 0;
    for task in &plan.tasks {
        let period = task.period.as_nanos();
        let per_task = (period > 0).then(|| horizon.as_nanos().div_ceil(period))?;
        releases = releases.checked_add(per_task)?;
    }
    releases
        .checked_mul(u64::try_from(plan.levels).ok()?.checked_add(1)?)?
        .checked_add(1)
}

/// The event loop behind [`simulate`] and [`super::simulate_multi`]: the
/// paper's §III runtime model on a preemptive uniprocessor, generalised to
/// `L` modes.
///
/// The system starts in mode 0. Jobs are dispatched by EDF over their
/// current-mode keys: a job whose level lies above the mode runs against
/// its EDF-VD virtual deadline, every other job against its real deadline;
/// ties break on task index. A job that executes past its current-mode
/// budget escalates the mode (repeatedly, if it passes several budgets at
/// one instant), and jobs below the new mode are dropped or degraded per
/// `cfg.lc_policy`. The system returns to mode 0 once no job at or above
/// the mode is ready. `cfg.x_factor` is the adapters' business: the plan
/// already carries the virtual deadlines.
///
/// Three heaps replace per-event scans: the next release of every task,
/// the EDF ready queue and the pending deadlines. The escalation scan runs
/// only when an overrun may have begun, and the deadline pass only once
/// the earliest deadline has arrived. The run emits its event and release
/// counts as the `mc-obs` counters `sched.sim_events` and
/// `sched.sim_releases`.
pub(super) fn run(plan: &Plan<'_>, cfg: &SimConfig) -> Result<RunMetrics, SchedError> {
    let levels = plan.levels;
    let top_mode = levels - 1;
    let tasks = &plan.tasks;
    if tasks.iter().any(|t| t.deadline > t.period) {
        return Err(SchedError::InvalidSimConfig {
            reason: "every deadline must lie within its period",
        });
    }
    let max_events = event_bound(plan, cfg.horizon).ok_or(SchedError::SimulationDiverged)?;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut releases: MinHeap = (0..tasks.len())
        .map(|idx| Reverse((Instant::ZERO, idx)))
        .collect();
    let mut pending = Pending::new(tasks.len(), levels);
    let mut mode = 0usize;
    let mut clock = Instant::ZERO;
    let mut mode_entered = Instant::ZERO;
    let mut m = MultiSimMetrics {
        released_per_level: vec![0; levels],
        completed_per_level: vec![0; levels],
        misses_per_level: vec![0; levels],
        escalations: vec![0; levels - 1],
        time_in_mode: vec![Duration::ZERO; levels],
        horizon: cfg.horizon,
        ..MultiSimMetrics::default()
    };
    let mut degraded = 0u64;
    let mut contained = 0u64;
    let mut events = 0u64;
    let mut released = 0u64;
    // Set when a job may have begun to overrun since the last escalation
    // scan: the running job reached its budget, a mode change rekeyed the
    // jobs, or a job was released at its budget.
    let mut scan = false;
    let horizon = Instant::ZERO + cfg.horizon;

    loop {
        events += 1;
        if events > max_events {
            return Err(SchedError::SimulationDiverged);
        }

        let running = pending.running();

        // Next event time. An empty release queue is a structural error,
        // never a panic: mc-serve workers simulate task sets rebuilt from
        // shipped specs and must fail a unit, not crash.
        let Some(&Reverse((t_release, _))) = releases.peek() else {
            return Err(SchedError::EmptyTaskSet);
        };
        let mut t_next = horizon.min(t_release);
        if let Some(ri) = running {
            let j = &pending.jobs[ri];
            t_next = t_next.min(clock + j.remaining);
            if j.level > mode && j.executed < j.budget {
                t_next = t_next.min(clock + (j.budget - j.executed));
            }
        }
        // Earliest pending deadline (a queued job can miss while another runs).
        if let Some(di) = pending.earliest_deadline() {
            t_next = t_next.min(pending.jobs[di].abs_deadline);
        }

        // Advance time, accounting execution to the running job.
        let delta = t_next - clock;
        if let Some(ri) = running {
            let j = &mut pending.jobs[ri];
            let within_budget = j.executed < j.budget;
            j.remaining = j.remaining.saturating_sub(delta);
            j.executed += delta;
            m.busy_time += delta;
            scan |= within_budget && j.overruns(mode);
        }
        clock = t_next;

        if clock >= horizon {
            break;
        }

        // 1. Completion of the running job.
        if let Some(ri) = running {
            if pending.jobs[ri].remaining.is_zero() {
                let j = pending.remove(ri);
                if j.degraded {
                    degraded += 1;
                } else {
                    m.completed_per_level[j.level] += 1;
                }
            }
        }

        // 2. Budget overruns escalate the mode. Without a new overrun the
        // scan would find what the last one found: nothing to escalate, and
        // every overrunning job already contained.
        if std::mem::take(&mut scan) {
            while mode < top_mode
                && escalates(&mut pending.jobs, mode, cfg.mode_switch, &mut contained)
            {
                m.escalations[mode] += 1;
                m.time_in_mode[mode] += clock - mode_entered;
                mode_entered = clock;
                mode += 1;
                match cfg.lc_policy {
                    LcPolicy::DropAll => {
                        m.jobs_killed += pending.retain(|j| j.level >= mode);
                    }
                    LcPolicy::Degrade(f) => {
                        for j in pending.jobs.iter_mut().filter(|j| j.level < mode) {
                            j.degrade(degraded_budget(&tasks[j.task_idx], f));
                        }
                        // Jobs whose remaining collapsed to zero complete now.
                        degraded += pending.retain(|j| j.level >= mode || !j.remaining.is_zero());
                    }
                }
                pending.rekey(plan, mode);
            }
        }

        // 3. Deadline misses: any unfinished job past its absolute deadline
        // is killed and counted. (Every pending job is unfinished: a job
        // leaves the moment its remaining time reaches zero.)
        while let Some(di) = pending.earliest_deadline() {
            if pending.jobs[di].abs_deadline > clock {
                break;
            }
            let j = pending.remove(di);
            m.misses_per_level[j.level] += 1;
        }

        // 4. §III: back to mode 0 once no job at or above the mode is ready.
        if mode > 0 && pending.per_level[mode..].iter().all(|&n| n == 0) {
            m.time_in_mode[mode] += clock - mode_entered;
            mode_entered = clock;
            mode = 0;
            pending.rekey(plan, mode);
            scan = true;
        }

        // 5. Releases due now, in task-index order.
        while let Some(mut next) = releases.peek_mut() {
            let Reverse((at, idx)) = *next;
            if at != clock {
                break;
            }
            let task = &tasks[idx];
            // Sporadic semantics: the period is the *minimum* separation;
            // jitter pushes the next release later, never earlier.
            let jitter = if cfg.release_jitter.is_zero() {
                Duration::ZERO
            } else {
                Duration::from_nanos(rng.random_range(0..=cfg.release_jitter.as_nanos()))
            };
            *next = Reverse((clock + task.period + jitter, idx));
            drop(next);
            released += 1;
            let below_mode = task.level < mode;
            if below_mode && cfg.lc_policy == LcPolicy::DropAll {
                m.releases_rejected += 1;
                continue;
            }
            let entry = plan.mode(idx, mode);
            let mut job = Job {
                task_idx: idx,
                level: task.level,
                release: clock,
                abs_deadline: clock + task.deadline,
                key: clock + entry.dispatch,
                budget: entry.budget,
                remaining: cfg.exec_model.draw_between(
                    task.lowest,
                    task.top,
                    task.level > 0,
                    task.profile,
                    &mut rng,
                ),
                executed: Duration::ZERO,
                degraded: false,
                contained: false,
            };
            if let (true, LcPolicy::Degrade(f)) = (below_mode, cfg.lc_policy) {
                job.degrade(degraded_budget(task, f));
            }
            m.released_per_level[task.level] += 1;
            scan |= job.overruns(mode);
            pending.insert(job);
        }
    }

    m.time_in_mode[mode] += clock.min(horizon) - mode_entered;
    let run = RunMetrics {
        levels: m,
        degraded,
        task_level_switches: contained,
        counts: WorkCounts {
            events,
            releases: released,
        },
    };
    run.counts.emit();
    Ok(run)
}

/// Whether the overruns ready at this instant escalate out of `mode`.
/// Under task-level switching each overrunning job is first contained (and
/// counted once); only two concurrent overruns escalate.
fn escalates(
    pending: &mut [Job],
    mode: usize,
    policy: ModeSwitchPolicy,
    contained: &mut u64,
) -> bool {
    match policy {
        ModeSwitchPolicy::System => pending.iter().any(|j| j.overruns(mode)),
        ModeSwitchPolicy::TaskLevelThenSystem => {
            let mut overrunning = 0usize;
            for j in pending.iter_mut().filter(|j| j.overruns(mode)) {
                overrunning += 1;
                if !j.contained {
                    j.contained = true;
                    *contained += 1;
                }
            }
            overrunning >= 2
        }
    }
}

/// The degraded budget of a task's jobs below the mode: a fraction of its
/// mode-0 budget, at least 1 ns.
fn degraded_budget(task: &PlanTask<'_>, fraction: f64) -> Duration {
    task.lowest.mul_f64(fraction).max(Duration::from_nanos(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_task::task::{McTask, TaskId};
    use mc_task::Criticality;

    fn hc(id: u32, c_lo_ms: u64, c_hi_ms: u64, p_ms: u64) -> McTask {
        McTask::builder(TaskId::new(id))
            .criticality(Criticality::Hi)
            .period(Duration::from_millis(p_ms))
            .c_lo(Duration::from_millis(c_lo_ms))
            .c_hi(Duration::from_millis(c_hi_ms))
            .build()
            .unwrap()
    }

    fn lc(id: u32, c_ms: u64, p_ms: u64) -> McTask {
        McTask::builder(TaskId::new(id))
            .period(Duration::from_millis(p_ms))
            .c_lo(Duration::from_millis(c_ms))
            .build()
            .unwrap()
    }

    fn cfg(model: JobExecModel) -> SimConfig {
        SimConfig {
            horizon: Duration::from_secs(10),
            lc_policy: LcPolicy::DropAll,
            exec_model: model,
            x_factor: None,
            release_jitter: Duration::ZERO,
            mode_switch: ModeSwitchPolicy::System,
            seed: 42,
        }
    }

    /// A set satisfying Eq. 8: u_hc_lo = 0.2, u_hc_hi = 0.5, u_lc_lo = 0.3.
    fn schedulable_set() -> TaskSet {
        TaskSet::from_tasks(vec![hc(0, 20, 50, 100), lc(1, 30, 100)]).unwrap()
    }

    #[test]
    fn no_overruns_means_no_switches_and_no_misses() {
        let m = simulate(&schedulable_set(), &cfg(JobExecModel::FullLoBudget)).unwrap();
        assert_eq!(m.mode_switches, 0);
        assert_eq!(m.hc_deadline_misses, 0);
        assert_eq!(m.lc_deadline_misses, 0);
        assert_eq!(m.time_in_hi, Duration::ZERO);
        // 10 s horizon, 100 ms periods → 100 jobs each.
        assert_eq!(m.hc_released, 100);
        assert_eq!(m.lc_released, 100);
        assert_eq!(m.hc_completed, 100);
        assert_eq!(m.lc_completed, 100);
        // Busy time = 100·(20+30) ms = 5 s.
        assert_eq!(m.busy_time, Duration::from_secs(5));
    }

    #[test]
    fn constant_overrun_switches_every_period_and_never_misses_hc() {
        // Every HC job runs to C_HI: the system lives at the Eq. 8 boundary.
        let m = simulate(&schedulable_set(), &cfg(JobExecModel::FullHiBudget)).unwrap();
        assert!(m.mode_switches > 0);
        assert_eq!(
            m.hc_deadline_misses, 0,
            "EDF-VD must protect HC tasks on an Eq. 8-satisfying set"
        );
        assert!(m.lc_lost() > 0, "drop-all must discard LC work in HI mode");
        assert!(m.time_in_hi > Duration::ZERO);
    }

    #[test]
    fn switch_rate_tracks_overrun_probability() {
        let mut c = cfg(JobExecModel::OverrunWithProbability(0.2));
        c.horizon = Duration::from_secs(100); // 1000 HC jobs
        let m = simulate(&schedulable_set(), &c).unwrap();
        // One HC task: switch rate per HC job ≈ per-job overrun probability.
        let rate = m.switch_rate_per_hc_job();
        assert!((rate - 0.2).abs() < 0.05, "rate {rate}");
        assert_eq!(m.hc_deadline_misses, 0);
    }

    #[test]
    fn overloaded_lo_mode_misses_deadlines_under_plain_edf() {
        // u_lo = 0.6 + 0.6 > 1: plain EDF (x = 1) cannot keep up.
        let ts = TaskSet::from_tasks(vec![lc(0, 60, 100), lc(1, 60, 100)]).unwrap();
        let mut c = cfg(JobExecModel::FullLoBudget);
        c.x_factor = Some(1.0);
        let m = simulate(&ts, &c).unwrap();
        assert!(m.lc_deadline_misses > 0);
    }

    #[test]
    fn edf_vd_protects_hc_with_carryover() {
        // A multi-HC-task set at Eq. 8's edge: EDF-VD must still protect
        // carried-over HC work when every job overruns.
        // u_hc_lo = 0.3, u_hc_hi = 0.6 (two tasks), u_lc_lo = 0.4.
        let ts = TaskSet::from_tasks(vec![hc(0, 15, 30, 50), hc(1, 30, 60, 200), lc(2, 40, 100)])
            .unwrap();
        let vd = simulate(&ts, &cfg(JobExecModel::FullHiBudget)).unwrap();
        assert_eq!(vd.hc_deadline_misses, 0, "EDF-VD protects HC");
    }

    #[test]
    fn degrade_policy_keeps_lc_running() {
        let mut c = cfg(JobExecModel::FullHiBudget);
        c.lc_policy = LcPolicy::Degrade(0.5);
        let m = simulate(&schedulable_set(), &c).unwrap();
        assert_eq!(m.lc_dropped_at_switch, 0);
        assert_eq!(m.lc_rejected_in_hi, 0);
        assert!(m.lc_degraded > 0, "HI-mode LC jobs run degraded");
    }

    #[test]
    fn drop_all_rejects_lc_releases_in_hi_mode() {
        // HC task stuck in HI mode with long busy periods.
        let ts = TaskSet::from_tasks(vec![hc(0, 10, 80, 100), lc(1, 10, 20)]).unwrap();
        let m = simulate(&ts, &cfg(JobExecModel::FullHiBudget)).unwrap();
        assert!(m.lc_rejected_in_hi > 0);
    }

    #[test]
    fn simulation_is_deterministic_per_seed() {
        let c = cfg(JobExecModel::Profile);
        let ts = schedulable_set();
        let a = simulate(&ts, &c).unwrap();
        let b = simulate(&ts, &c).unwrap();
        assert_eq!(a, b);
        let mut c2 = c;
        c2.seed = 43;
        let d = simulate(&ts, &c2).unwrap();
        assert_ne!(a, d);
    }

    #[test]
    fn job_conservation_holds() {
        for model in [
            JobExecModel::FullLoBudget,
            JobExecModel::FullHiBudget,
            JobExecModel::Profile,
            JobExecModel::OverrunWithProbability(0.3),
        ] {
            let m = simulate(&schedulable_set(), &cfg(model)).unwrap();
            // Completions + losses + misses never exceed releases; the
            // remainder is in-flight at the horizon.
            let accounted = m.hc_completed
                + m.lc_completed
                + m.lc_degraded
                + m.lc_dropped_at_switch
                + m.hc_deadline_misses
                + m.lc_deadline_misses;
            assert!(
                accounted <= m.released(),
                "model {model:?}: accounted {accounted} > released {}",
                m.released()
            );
            assert!(m.released() - accounted <= 2, "too many in-flight jobs");
            assert!(m.busy_time <= m.horizon);
            assert!(m.time_in_hi <= m.horizon);
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let ts = schedulable_set();
        let mut c = cfg(JobExecModel::FullLoBudget);
        c.horizon = Duration::ZERO;
        assert!(simulate(&ts, &c).is_err());

        let mut c = cfg(JobExecModel::FractionOfLo(2.0));
        c.horizon = Duration::from_secs(1);
        assert!(simulate(&ts, &c).is_err());

        let mut c = cfg(JobExecModel::FullLoBudget);
        c.lc_policy = LcPolicy::Degrade(1.5);
        assert!(simulate(&ts, &c).is_err());

        let mut c = cfg(JobExecModel::FullLoBudget);
        c.x_factor = Some(0.0);
        assert!(simulate(&ts, &c).is_err());

        assert!(matches!(
            simulate(&TaskSet::new(), &cfg(JobExecModel::FullLoBudget)).unwrap_err(),
            SchedError::EmptyTaskSet
        ));
    }

    #[test]
    fn task_level_policy_contains_a_single_overrunning_task() {
        // One HC task: overruns can never be concurrent, so containment
        // must absorb every one of them — no system switch, LC untouched.
        let mut c = cfg(JobExecModel::FullHiBudget);
        c.mode_switch = ModeSwitchPolicy::TaskLevelThenSystem;
        let m = simulate(&schedulable_set(), &c).unwrap();
        assert_eq!(m.mode_switches, 0);
        assert!(m.task_level_switches > 0);
        assert_eq!(m.task_level_switches, m.hc_released);
        assert_eq!(m.time_in_hi, Duration::ZERO);
        assert_eq!(m.lc_lost(), 0, "contained overruns never touch LC work");
        assert_eq!(m.lc_completed, 100);
        assert_eq!(m.hc_deadline_misses, 0);
    }

    #[test]
    fn concurrent_overruns_escalate_to_a_system_switch() {
        // Two HC tasks shaped so a short-period task overruns while a
        // long, contained job is still pending.
        let ts = TaskSet::from_tasks(vec![hc(0, 20, 100, 200), hc(1, 10, 20, 30)]).unwrap();
        let mut c = cfg(JobExecModel::FullHiBudget);
        c.mode_switch = ModeSwitchPolicy::TaskLevelThenSystem;
        let m = simulate(&ts, &c).unwrap();
        assert!(m.task_level_switches > 0, "first overruns are contained");
        assert!(m.mode_switches > 0, "concurrent overruns must escalate");
        assert!(m.time_in_hi > Duration::ZERO);
    }

    #[test]
    fn system_policy_never_counts_task_level_switches() {
        // The default policy is byte-identical to the pre-seam simulator;
        // in particular the new counter stays zero.
        let m = simulate(&schedulable_set(), &cfg(JobExecModel::FullHiBudget)).unwrap();
        assert!(m.mode_switches > 0);
        assert_eq!(m.task_level_switches, 0);
    }

    #[test]
    fn release_jitter_thins_the_release_stream() {
        let ts = schedulable_set();
        let mut c = cfg(JobExecModel::FullLoBudget);
        c.release_jitter = Duration::from_millis(50); // up to half a period
        let jittered = simulate(&ts, &c).unwrap();
        let mut c0 = cfg(JobExecModel::FullLoBudget);
        c0.release_jitter = Duration::ZERO;
        let periodic = simulate(&ts, &c0).unwrap();
        // Sporadic releases are strictly sparser than periodic ones.
        assert!(jittered.released() < periodic.released());
        assert!(jittered.released() > periodic.released() / 2);
        // Sparser demand cannot create misses on a schedulable set.
        assert_eq!(jittered.hc_deadline_misses, 0);
        assert_eq!(jittered.lc_deadline_misses, 0);
    }

    #[test]
    fn zero_jitter_is_the_periodic_baseline() {
        let ts = schedulable_set();
        let c = cfg(JobExecModel::Profile); // default jitter is ZERO
        let a = simulate(&ts, &c).unwrap();
        let mut c2 = c;
        c2.release_jitter = Duration::ZERO;
        let b = simulate(&ts, &c2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn half_budget_jobs_idle_half_the_time() {
        let ts = TaskSet::from_tasks(vec![lc(0, 50, 100)]).unwrap();
        let m = simulate(&ts, &cfg(JobExecModel::FractionOfLo(0.5))).unwrap();
        // 0.5·50 ms per 100 ms period → utilization 0.25.
        assert!((m.utilization() - 0.25).abs() < 0.01);
        assert_eq!(m.lc_completed, 100);
    }

    #[test]
    fn events_stay_within_the_derived_bound() {
        let mut rng = StdRng::seed_from_u64(3);
        let gen_cfg = mc_task::generate::GeneratorConfig::default();
        let mut sets = vec![
            schedulable_set(),
            TaskSet::from_tasks(vec![hc(0, 20, 100, 200), hc(1, 10, 20, 30)]).unwrap(),
        ];
        for u in [0.6, 0.9, 1.2] {
            let mut ts = mc_task::generate::generate_mixed_taskset(u, &gen_cfg, &mut rng).unwrap();
            for t in ts.hc_tasks_mut() {
                t.set_c_lo(t.c_hi().mul_f64(0.4).max(Duration::from_nanos(1)))
                    .unwrap();
            }
            sets.push(ts);
        }
        let mut runs = 0;
        for ts in &sets {
            for model in [
                JobExecModel::FullLoBudget,
                JobExecModel::FullHiBudget,
                JobExecModel::Profile,
                JobExecModel::OverrunWithProbability(0.3),
            ] {
                for lc_policy in [LcPolicy::DropAll, LcPolicy::Degrade(0.5)] {
                    for mode_switch in [
                        ModeSwitchPolicy::System,
                        ModeSwitchPolicy::TaskLevelThenSystem,
                    ] {
                        for jitter_ms in [0, 5] {
                            let c = SimConfig {
                                lc_policy,
                                mode_switch,
                                release_jitter: Duration::from_millis(jitter_ms),
                                horizon: Duration::from_secs(2),
                                ..cfg(model)
                            };
                            let plan = dual_plan(ts, &c);
                            let r = run(&plan, &c).unwrap();
                            // At most L + 1 = 3 events per release, plus one.
                            assert!(r.counts.events <= 1 + 3 * r.counts.releases, "{c:?}");
                            assert!(r.counts.events <= event_bound(&plan, c.horizon).unwrap());
                            let m = &r.levels;
                            let admitted: u64 = m.released_per_level.iter().sum();
                            assert_eq!(r.counts.releases, admitted + m.releases_rejected);
                            runs += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(runs, 5 * 4 * 2 * 2 * 2);
    }

    #[test]
    fn the_event_bound_scales_with_the_release_rate() {
        let ts = TaskSet::from_tasks(vec![hc(0, 1, 2, 10), lc(1, 1, 4)]).unwrap();
        let c = cfg(JobExecModel::FullLoBudget);
        // 10 s: 1000 + 2500 releases, three events each, plus the horizon.
        assert_eq!(event_bound(&dual_plan(&ts, &c), c.horizon), Some(10_501));
        // 10⁴ tasks of 1 ms over 10 s: 10⁸ releases, which the old fixed
        // bound of 10⁷ events refused.
        let ts = TaskSet::from_tasks((0..10_000).map(|i| lc(i, 1, 1)).collect()).unwrap();
        assert_eq!(
            event_bound(&dual_plan(&ts, &c), c.horizon),
            Some(300_000_001)
        );
    }

    #[test]
    fn a_run_whose_event_count_overflows_is_refused_up_front() {
        // A 1 ns period over the longest horizon: ~1.8·10¹⁹ releases, so
        // the bound overflows and the run stops before its first event.
        let ts = TaskSet::from_tasks(vec![McTask::builder(TaskId::new(0))
            .period(Duration::from_nanos(1))
            .c_lo(Duration::from_nanos(1))
            .build()
            .unwrap()])
        .unwrap();
        let mut c = cfg(JobExecModel::FullLoBudget);
        c.horizon = Duration::MAX;
        assert!(matches!(
            simulate(&ts, &c),
            Err(SchedError::SimulationDiverged)
        ));
    }

    mod properties {
        use super::*;
        use mc_fault::{assert_prop, PropConfig};
        use rand::SeedableRng;

        #[test]
        fn random_schedulable_sets_never_miss_hc() {
            assert_prop(
                &PropConfig::named("random_schedulable_sets_never_miss_hc").cases(24),
                |rng| rng.below(5_000),
                |&seed| {
                    // Generate a set, verify Eq. 8 holds with C_LO = C_HI·frac,
                    // then hammer it with constant overruns.
                    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                    let gen_cfg = mc_task::generate::GeneratorConfig::default();
                    let mut ts =
                        mc_task::generate::generate_mixed_taskset(0.6, &gen_cfg, &mut rng).unwrap();
                    // Assign optimistic WCETs at 40 % of pessimistic.
                    for t in ts.hc_tasks_mut() {
                        let c = t.c_hi().mul_f64(0.4).max(Duration::from_nanos(1));
                        t.set_c_lo(c).unwrap();
                    }
                    if !crate::analysis::edf_vd::analyze(&ts).schedulable {
                        return Ok(());
                    }
                    let c = SimConfig {
                        horizon: Duration::from_secs(20),
                        lc_policy: LcPolicy::DropAll,
                        exec_model: JobExecModel::FullHiBudget,
                        x_factor: None,
                        release_jitter: Duration::ZERO,
                        mode_switch: ModeSwitchPolicy::System,
                        seed,
                    };
                    let m = simulate(&ts, &c).unwrap();
                    assert_eq!(m.hc_deadline_misses, 0);
                    Ok(())
                },
            );
        }

        #[test]
        fn busy_time_bounded_by_horizon() {
            assert_prop(
                &PropConfig::named("busy_time_bounded_by_horizon").cases(24),
                |rng| rng.below(2_000),
                |&seed| {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                    let gen_cfg = mc_task::generate::GeneratorConfig::default();
                    let ts =
                        mc_task::generate::generate_mixed_taskset(0.7, &gen_cfg, &mut rng).unwrap();
                    let c = SimConfig {
                        horizon: Duration::from_secs(5),
                        lc_policy: LcPolicy::Degrade(0.5),
                        exec_model: JobExecModel::Profile,
                        x_factor: None,
                        release_jitter: Duration::ZERO,
                        mode_switch: ModeSwitchPolicy::System,
                        seed,
                    };
                    let m = simulate(&ts, &c).unwrap();
                    assert!(m.busy_time <= m.horizon);
                    assert!(m.time_in_hi <= m.horizon);
                    Ok(())
                },
            );
        }
    }
}
