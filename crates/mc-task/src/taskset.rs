//! Collections of mixed-criticality tasks.
//!
//! A [`TaskSet`] owns the tasks of one system and exposes the aggregate
//! utilisations the paper's schedulability conditions are written in:
//! `U_HC^LO`, `U_HC^HI`, `U_LC^LO` (Eq. 7 and the terms of Eq. 8).

use crate::criticality::Criticality;
use crate::task::{McTask, TaskId};
use crate::TaskError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An ordered collection of [`McTask`]s with unique identifiers.
///
/// # Example
///
/// ```
/// use mc_task::task::{McTask, TaskId};
/// use mc_task::taskset::TaskSet;
/// use mc_task::time::Duration;
/// use mc_task::criticality::Criticality;
///
/// # fn main() -> Result<(), mc_task::TaskError> {
/// let mut ts = TaskSet::new();
/// ts.push(
///     McTask::builder(TaskId::new(0))
///         .criticality(Criticality::Hi)
///         .period(Duration::from_millis(100))
///         .c_lo(Duration::from_millis(10))
///         .c_hi(Duration::from_millis(30))
///         .build()?,
/// )?;
/// ts.push(
///     McTask::builder(TaskId::new(1))
///         .period(Duration::from_millis(200))
///         .c_lo(Duration::from_millis(20))
///         .build()?,
/// )?;
/// assert_eq!(ts.len(), 2);
/// assert!((ts.u_hc_hi() - 0.3).abs() < 1e-12);
/// assert!((ts.u_lc_lo() - 0.1).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TaskSet {
    tasks: Vec<McTask>,
}

impl TaskSet {
    /// Creates an empty task set.
    pub fn new() -> Self {
        TaskSet::default()
    }

    /// Creates a task set from a vector of tasks.
    ///
    /// # Errors
    ///
    /// Returns [`TaskError::DuplicateTaskId`] when two tasks share an id.
    pub fn from_tasks(tasks: Vec<McTask>) -> Result<Self, TaskError> {
        let mut set = TaskSet::new();
        for t in tasks {
            set.push(t)?;
        }
        Ok(set)
    }

    /// Adds a task.
    ///
    /// # Errors
    ///
    /// Returns [`TaskError::DuplicateTaskId`] when the id already exists.
    pub fn push(&mut self, task: McTask) -> Result<(), TaskError> {
        if self.tasks.iter().any(|t| t.id() == task.id()) {
            return Err(TaskError::DuplicateTaskId { id: task.id() });
        }
        self.tasks.push(task);
        Ok(())
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when the set has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Iterates over the tasks in insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, McTask> {
        self.tasks.iter()
    }

    /// Mutable iteration (WCET-assignment policies use this to set `C_LO`).
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, McTask> {
        self.tasks.iter_mut()
    }

    /// The tasks as a slice.
    pub fn tasks(&self) -> &[McTask] {
        &self.tasks
    }

    /// Looks a task up by id.
    pub fn get(&self, id: TaskId) -> Option<&McTask> {
        self.tasks.iter().find(|t| t.id() == id)
    }

    /// Mutable lookup by id.
    pub fn get_mut(&mut self, id: TaskId) -> Option<&mut McTask> {
        self.tasks.iter_mut().find(|t| t.id() == id)
    }

    /// Iterates over high-criticality tasks only.
    pub fn hc_tasks(&self) -> impl Iterator<Item = &McTask> {
        self.tasks.iter().filter(|t| t.criticality().is_high())
    }

    /// Iterates over low-criticality tasks only.
    pub fn lc_tasks(&self) -> impl Iterator<Item = &McTask> {
        self.tasks.iter().filter(|t| t.criticality().is_low())
    }

    /// Mutable iteration over high-criticality tasks.
    pub fn hc_tasks_mut(&mut self) -> impl Iterator<Item = &mut McTask> {
        self.tasks.iter_mut().filter(|t| t.criticality().is_high())
    }

    /// Number of high-criticality tasks.
    pub fn hc_count(&self) -> usize {
        self.hc_tasks().count()
    }

    /// Number of low-criticality tasks.
    pub fn lc_count(&self) -> usize {
        self.lc_tasks().count()
    }

    /// Total utilisation of tasks at criticality `level` in mode `mode`
    /// — the paper's `U_l^k` notation.
    pub fn utilization(&self, level: Criticality, mode: Criticality) -> f64 {
        self.tasks
            .iter()
            .filter(|t| t.criticality() == level)
            .map(|t| t.utilization(mode))
            .sum()
    }

    /// `U_HC^LO`: HC tasks' utilisation under their optimistic WCETs (Eq. 7).
    pub fn u_hc_lo(&self) -> f64 {
        self.utilization(Criticality::Hi, Criticality::Lo)
    }

    /// `U_HC^HI`: HC tasks' utilisation under their pessimistic WCETs (Eq. 7).
    pub fn u_hc_hi(&self) -> f64 {
        self.utilization(Criticality::Hi, Criticality::Hi)
    }

    /// `U_LC^LO`: LC tasks' utilisation in LO mode.
    pub fn u_lc_lo(&self) -> f64 {
        self.utilization(Criticality::Lo, Criticality::Lo)
    }

    /// Total LO-mode utilisation `U_HC^LO + U_LC^LO`.
    pub fn u_total_lo(&self) -> f64 {
        self.u_hc_lo() + self.u_lc_lo()
    }

    /// The hyperperiod (least common multiple of all periods), or `None`
    /// for an empty set or on overflow. Simulations commonly run for one or
    /// a few hyperperiods.
    pub fn hyperperiod(&self) -> Option<crate::time::Duration> {
        let mut lcm: u64 = 1;
        if self.tasks.is_empty() {
            return None;
        }
        for t in &self.tasks {
            let p = t.period().as_nanos();
            lcm = lcm.checked_mul(p / gcd(lcm, p))?;
        }
        Some(crate::time::Duration::from_nanos(lcm))
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

impl fmt::Display for TaskSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "TaskSet: {} tasks ({} HC, {} LC), U_HC^LO={:.3} U_HC^HI={:.3} U_LC^LO={:.3}",
            self.len(),
            self.hc_count(),
            self.lc_count(),
            self.u_hc_lo(),
            self.u_hc_hi(),
            self.u_lc_lo()
        )?;
        for t in &self.tasks {
            writeln!(f, "  {t}")?;
        }
        Ok(())
    }
}

impl TryFrom<Vec<McTask>> for TaskSet {
    type Error = TaskError;
    fn try_from(tasks: Vec<McTask>) -> Result<Self, TaskError> {
        TaskSet::from_tasks(tasks)
    }
}

impl<'a> IntoIterator for &'a TaskSet {
    type Item = &'a McTask;
    type IntoIter = std::slice::Iter<'a, McTask>;
    fn into_iter(self) -> Self::IntoIter {
        self.tasks.iter()
    }
}

impl IntoIterator for TaskSet {
    type Item = McTask;
    type IntoIter = std::vec::IntoIter<McTask>;
    fn into_iter(self) -> Self::IntoIter {
        self.tasks.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

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

    fn sample_set() -> TaskSet {
        TaskSet::from_tasks(vec![
            hc(0, 10, 40, 100), // u_lo 0.1, u_hi 0.4
            hc(1, 5, 20, 200),  // u_lo 0.025, u_hi 0.1
            lc(2, 30, 300),     // u 0.1
            lc(3, 10, 100),     // u 0.1
        ])
        .unwrap()
    }

    #[test]
    fn aggregate_utilizations_match_eq7() {
        let ts = sample_set();
        assert!((ts.u_hc_lo() - 0.125).abs() < 1e-12);
        assert!((ts.u_hc_hi() - 0.5).abs() < 1e-12);
        assert!((ts.u_lc_lo() - 0.2).abs() < 1e-12);
        assert!((ts.u_total_lo() - 0.325).abs() < 1e-12);
    }

    #[test]
    fn counts_and_views() {
        let ts = sample_set();
        assert_eq!(ts.len(), 4);
        assert_eq!(ts.hc_count(), 2);
        assert_eq!(ts.lc_count(), 2);
        assert!(ts.hc_tasks().all(|t| t.is_high()));
        assert!(ts.lc_tasks().all(|t| !t.is_high()));
    }

    #[test]
    fn duplicate_ids_are_rejected() {
        let mut ts = TaskSet::new();
        ts.push(lc(0, 1, 10)).unwrap();
        let e = ts.push(hc(0, 1, 2, 10)).unwrap_err();
        assert!(matches!(e, TaskError::DuplicateTaskId { .. }));
        assert_eq!(ts.len(), 1);
    }

    #[test]
    fn lookup_by_id() {
        let mut ts = sample_set();
        assert_eq!(ts.get(TaskId::new(1)).unwrap().id(), TaskId::new(1));
        assert!(ts.get(TaskId::new(99)).is_none());
        ts.get_mut(TaskId::new(0))
            .unwrap()
            .set_c_lo(Duration::from_millis(20))
            .unwrap();
        assert_eq!(
            ts.get(TaskId::new(0)).unwrap().c_lo(),
            Duration::from_millis(20)
        );
    }

    #[test]
    fn empty_set_has_zero_utilizations() {
        let ts = TaskSet::new();
        assert!(ts.is_empty());
        assert_eq!(ts.u_hc_lo(), 0.0);
        assert_eq!(ts.u_hc_hi(), 0.0);
        assert_eq!(ts.u_lc_lo(), 0.0);
        assert!(ts.hyperperiod().is_none());
    }

    #[test]
    fn hyperperiod_is_lcm_of_periods() {
        let ts = sample_set(); // periods 100, 200, 300, 100 ms → lcm 600 ms
        assert_eq!(ts.hyperperiod().unwrap(), Duration::from_millis(600));
    }

    #[test]
    fn hyperperiod_overflow_is_none_not_panic() {
        // Coprime nanosecond periods near 2^40 blow past u64 when multiplied.
        let mk = |id: u32, p_ns: u64| {
            McTask::builder(TaskId::new(id))
                .period(Duration::from_nanos(p_ns))
                .c_lo(Duration::from_nanos(1))
                .build()
                .unwrap()
        };
        let ts = TaskSet::from_tasks(vec![
            mk(0, (1 << 40) + 1),
            mk(1, (1 << 40) + 3),
            mk(2, (1 << 40) + 7),
        ])
        .unwrap();
        assert_eq!(ts.hyperperiod(), None);
    }

    #[test]
    fn iteration_preserves_insertion_order() {
        let ts = sample_set();
        let ids: Vec<u32> = ts.iter().map(|t| t.id().raw()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        let ids2: Vec<u32> = (&ts).into_iter().map(|t| t.id().raw()).collect();
        assert_eq!(ids2, ids);
        let ids3: Vec<u32> = ts.clone().into_iter().map(|t| t.id().raw()).collect();
        assert_eq!(ids3, ids);
    }

    #[test]
    fn display_mentions_counts() {
        let s = sample_set().to_string();
        assert!(s.contains("4 tasks"));
        assert!(s.contains("2 HC"));
    }

    #[test]
    fn try_from_round_trips() {
        let tasks = vec![hc(0, 1, 2, 10), lc(1, 1, 10)];
        let ts = TaskSet::try_from(tasks.clone()).unwrap();
        assert_eq!(ts.tasks(), tasks.as_slice());
    }

    mod properties {
        use super::*;
        use mc_fault::{assert_prop, PropConfig};

        /// Raw draws for one task: period, C_LO and C_HI offsets, and
        /// criticality.
        type RawTask = (u64, u64, u64, bool);

        fn task(id: usize, (p, c_lo, c_extra, high): RawTask) -> McTask {
            let (p_ms, c_lo_pct, c_extra_pct) = (1 + p, 1 + c_lo, c_extra);
            let period = Duration::from_millis(p_ms);
            let c_lo = period.mul_f64((c_lo_pct as f64 / 100.0).max(0.01) * 0.5);
            let c_lo = if c_lo.is_zero() {
                Duration::from_nanos(1)
            } else {
                c_lo
            };
            let c_hi_target = c_lo + period.mul_f64(c_extra_pct as f64 / 100.0 * 0.5);
            let c_hi = c_hi_target.min(period);
            #[expect(
                clippy::cast_possible_truncation,
                reason = "task sets under test hold a few dozen tasks"
            )]
            let mut b = McTask::builder(TaskId::new(id as u32))
                .period(period)
                .c_lo(c_lo);
            if high {
                b = b.criticality(Criticality::Hi).c_hi(c_hi);
            }
            b.build().unwrap()
        }

        #[test]
        fn utilizations_are_sums_over_views() {
            assert_prop(
                &PropConfig::named("utilizations_are_sums_over_views"),
                |rng| {
                    let n = rng.range_u64(1, 19);
                    (0..n)
                        .map(|_| (rng.below(499), rng.below(99), rng.below(100), rng.bool(0.5)))
                        .collect::<Vec<RawTask>>()
                },
                |raw| {
                    // Missing draws read as zeros, so a shrunk draw still
                    // builds at least one task.
                    let tasks: Vec<McTask> = (0..raw.len().max(1))
                        .map(|i| task(i, raw.get(i).copied().unwrap_or_default()))
                        .collect();
                    let ts = TaskSet::from_tasks(tasks).unwrap();
                    let manual_hc_lo: f64 = ts.hc_tasks().map(|t| t.u_lo()).sum();
                    let manual_lc_lo: f64 = ts.lc_tasks().map(|t| t.u_lo()).sum();
                    assert!((ts.u_hc_lo() - manual_hc_lo).abs() < 1e-12);
                    assert!((ts.u_lc_lo() - manual_lc_lo).abs() < 1e-12);
                    assert!(ts.u_hc_lo() <= ts.u_hc_hi() + 1e-12);
                    Ok(())
                },
            );
        }
    }
}
