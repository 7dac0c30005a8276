//! The mixed-criticality task type.
//!
//! A task is the paper's tuple `τᵢ = (ζᵢ, Cᵢ_LO, Cᵢ_HI, Pᵢ, Dᵢ)` with
//! implicit deadlines (`D = P`, §III). High-criticality tasks additionally
//! carry an [`ExecutionProfile`] so that WCET-assignment policies can derive
//! `C_LO` from `(ACET, σ)`.

use crate::criticality::Criticality;
use crate::profile::ExecutionProfile;
use crate::time::Duration;
use crate::TaskError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Opaque task identifier, unique within a [`crate::taskset::TaskSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TaskId(u32);

impl TaskId {
    /// Creates an identifier from a raw index.
    pub const fn new(raw: u32) -> Self {
        TaskId(raw)
    }

    /// The raw index.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "τ{}", self.0)
    }
}

impl From<u32> for TaskId {
    fn from(raw: u32) -> Self {
        TaskId(raw)
    }
}

/// A periodic mixed-criticality task.
///
/// Invariants enforced at construction:
///
/// * `period > 0`, `deadline > 0`, `deadline ≤ period` (implicit deadlines
///   default to `deadline == period`);
/// * `0 < c_lo ≤ c_hi` for high-criticality tasks;
/// * `c_hi == c_lo` for low-criticality tasks (an LC task has a single WCET;
///   what it receives in HI mode is a *scheduler policy*, not a task
///   attribute);
/// * when a profile is attached, `c_hi` matches the profile's pessimistic
///   WCET within rounding.
///
/// # Example
///
/// ```
/// use mc_task::task::{McTask, TaskId};
/// use mc_task::time::Duration;
/// use mc_task::criticality::Criticality;
///
/// # fn main() -> Result<(), mc_task::TaskError> {
/// let task = McTask::builder(TaskId::new(0))
///     .criticality(Criticality::Hi)
///     .period(Duration::from_millis(100))
///     .c_lo(Duration::from_millis(10))
///     .c_hi(Duration::from_millis(40))
///     .build()?;
/// assert!((task.u_lo() - 0.1).abs() < 1e-12);
/// assert!((task.u_hi() - 0.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct McTask {
    id: TaskId,
    name: String,
    criticality: Criticality,
    c_lo: Duration,
    c_hi: Duration,
    period: Duration,
    deadline: Duration,
    profile: Option<ExecutionProfile>,
}

impl McTask {
    /// Starts building a task with the given identifier.
    pub fn builder(id: TaskId) -> McTaskBuilder {
        McTaskBuilder::new(id)
    }

    /// Task identifier.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// Human-readable name (empty when not set).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Criticality level ζ.
    pub fn criticality(&self) -> Criticality {
        self.criticality
    }

    /// True for high-criticality tasks.
    pub fn is_high(&self) -> bool {
        self.criticality.is_high()
    }

    /// Optimistic (LO-mode) WCET `C_LO`.
    pub fn c_lo(&self) -> Duration {
        self.c_lo
    }

    /// Pessimistic (HI-mode) WCET `C_HI`.
    pub fn c_hi(&self) -> Duration {
        self.c_hi
    }

    /// WCET at the given system mode.
    pub fn wcet(&self, mode: Criticality) -> Duration {
        match mode {
            Criticality::Lo => self.c_lo,
            Criticality::Hi => self.c_hi,
        }
    }

    /// Period `P` (minimum inter-release separation).
    pub fn period(&self) -> Duration {
        self.period
    }

    /// Relative deadline `D` (equals the period for implicit deadlines).
    pub fn deadline(&self) -> Duration {
        self.deadline
    }

    /// True when `D == P`, the model the paper analyses.
    pub fn has_implicit_deadline(&self) -> bool {
        self.deadline == self.period
    }

    /// Measured execution profile, if attached.
    pub fn profile(&self) -> Option<&ExecutionProfile> {
        self.profile.as_ref()
    }

    /// LO-mode utilisation `C_LO / P`.
    pub fn u_lo(&self) -> f64 {
        self.c_lo.ratio(self.period)
    }

    /// HI-mode utilisation `C_HI / P`.
    pub fn u_hi(&self) -> f64 {
        self.c_hi.ratio(self.period)
    }

    /// Utilisation at the given mode (`uᵢˡ = Cᵢˡ / Pᵢ`, §III).
    pub fn utilization(&self, mode: Criticality) -> f64 {
        match mode {
            Criticality::Lo => self.u_lo(),
            Criticality::Hi => self.u_hi(),
        }
    }

    /// Replaces the optimistic WCET — the knob that WCET-assignment
    /// policies turn.
    ///
    /// # Errors
    ///
    /// Returns [`TaskError::InvalidWcet`] when `c_lo` is zero or exceeds
    /// `c_hi`, and [`TaskError::LcBudgetIsFixed`] for low-criticality tasks
    /// (whose single WCET is set at construction).
    pub fn set_c_lo(&mut self, c_lo: Duration) -> Result<(), TaskError> {
        if self.criticality.is_low() {
            return Err(TaskError::LcBudgetIsFixed { id: self.id });
        }
        if c_lo.is_zero() || c_lo > self.c_hi {
            return Err(TaskError::InvalidWcet {
                id: self.id,
                reason: "c_lo must satisfy 0 < c_lo <= c_hi",
            });
        }
        self.c_lo = c_lo;
        Ok(())
    }
}

impl fmt::Display for McTask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] C_LO={} C_HI={} P={}",
            self.id, self.criticality, self.c_lo, self.c_hi, self.period
        )
    }
}

/// Builder for [`McTask`] (see [`McTask::builder`]).
#[derive(Debug, Clone)]
pub struct McTaskBuilder {
    id: TaskId,
    name: String,
    criticality: Criticality,
    c_lo: Option<Duration>,
    c_hi: Option<Duration>,
    period: Option<Duration>,
    deadline: Option<Duration>,
    profile: Option<ExecutionProfile>,
}

impl McTaskBuilder {
    /// Starts a builder for the task `id`.
    pub fn new(id: TaskId) -> Self {
        McTaskBuilder {
            id,
            name: String::new(),
            criticality: Criticality::Lo,
            c_lo: None,
            c_hi: None,
            period: None,
            deadline: None,
            profile: None,
        }
    }

    /// Sets the human-readable name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets the criticality level (defaults to [`Criticality::Lo`]).
    pub fn criticality(mut self, criticality: Criticality) -> Self {
        self.criticality = criticality;
        self
    }

    /// Sets the optimistic WCET.
    pub fn c_lo(mut self, c_lo: Duration) -> Self {
        self.c_lo = Some(c_lo);
        self
    }

    /// Sets the pessimistic WCET. For low-criticality tasks this is ignored
    /// in favour of `c_lo`.
    pub fn c_hi(mut self, c_hi: Duration) -> Self {
        self.c_hi = Some(c_hi);
        self
    }

    /// Sets the period.
    pub fn period(mut self, period: Duration) -> Self {
        self.period = Some(period);
        self
    }

    /// Sets an explicit relative deadline (defaults to the period).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a measured execution profile (HC tasks only).
    pub fn profile(mut self, profile: ExecutionProfile) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Finalises the task.
    ///
    /// # Errors
    ///
    /// Returns [`TaskError::MissingField`] when a WCET or the period was
    /// never set, and [`TaskError::InvalidWcet`] /
    /// [`TaskError::InvalidTiming`] / [`TaskError::InvalidProfile`] when the
    /// invariants documented on [`McTask`] are violated.
    pub fn build(self) -> Result<McTask, TaskError> {
        let period = self.period.ok_or(TaskError::MissingField {
            id: self.id,
            field: "period",
        })?;
        let c_lo = self.c_lo.ok_or(TaskError::MissingField {
            id: self.id,
            field: "c_lo",
        })?;
        let c_hi = match self.criticality {
            // An LC task has a single WCET.
            Criticality::Lo => c_lo,
            Criticality::Hi => self.c_hi.ok_or(TaskError::MissingField {
                id: self.id,
                field: "c_hi",
            })?,
        };
        let deadline = self.deadline.unwrap_or(period);

        if period.is_zero() {
            return Err(TaskError::InvalidTiming {
                id: self.id,
                reason: "period must be non-zero",
            });
        }
        if deadline.is_zero() || deadline > period {
            return Err(TaskError::InvalidTiming {
                id: self.id,
                reason: "deadline must satisfy 0 < deadline <= period",
            });
        }
        if c_lo.is_zero() {
            return Err(TaskError::InvalidWcet {
                id: self.id,
                reason: "c_lo must be non-zero",
            });
        }
        if c_lo > c_hi {
            return Err(TaskError::InvalidWcet {
                id: self.id,
                reason: "c_lo must not exceed c_hi",
            });
        }
        if c_hi > deadline {
            return Err(TaskError::InvalidWcet {
                id: self.id,
                reason: "c_hi must not exceed the deadline",
            });
        }
        if let Some(profile) = &self.profile {
            if self.criticality.is_low() {
                return Err(TaskError::InvalidProfile {
                    reason: "execution profiles attach to HC tasks only",
                });
            }
            // The profile's pessimistic WCET and the task's C_HI must agree
            // (within the 1 ns rounding of the Duration conversion).
            let c_hi_ns = c_hi.as_nanos() as f64;
            if (profile.wcet_pes() - c_hi_ns).abs() > 1.0 {
                return Err(TaskError::InvalidProfile {
                    reason: "profile wcet_pes must match the task's c_hi",
                });
            }
        }
        Ok(McTask {
            id: self.id,
            name: self.name,
            criticality: self.criticality,
            c_lo,
            c_hi,
            period,
            deadline,
            profile: self.profile,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hc_task() -> McTask {
        McTask::builder(TaskId::new(1))
            .criticality(Criticality::Hi)
            .period(Duration::from_millis(100))
            .c_lo(Duration::from_millis(10))
            .c_hi(Duration::from_millis(40))
            .name("sensor-fusion")
            .build()
            .unwrap()
    }

    #[test]
    fn builder_produces_expected_fields() {
        let t = hc_task();
        assert_eq!(t.id(), TaskId::new(1));
        assert_eq!(t.name(), "sensor-fusion");
        assert!(t.is_high());
        assert_eq!(t.c_lo(), Duration::from_millis(10));
        assert_eq!(t.c_hi(), Duration::from_millis(40));
        assert_eq!(t.period(), Duration::from_millis(100));
        assert_eq!(t.deadline(), Duration::from_millis(100));
        assert!(t.has_implicit_deadline());
    }

    #[test]
    fn utilizations_per_mode() {
        let t = hc_task();
        assert!((t.u_lo() - 0.1).abs() < 1e-12);
        assert!((t.u_hi() - 0.4).abs() < 1e-12);
        assert_eq!(t.utilization(Criticality::Lo), t.u_lo());
        assert_eq!(t.utilization(Criticality::Hi), t.u_hi());
        assert_eq!(t.wcet(Criticality::Lo), t.c_lo());
        assert_eq!(t.wcet(Criticality::Hi), t.c_hi());
    }

    #[test]
    fn lc_task_has_single_wcet() {
        let t = McTask::builder(TaskId::new(2))
            .period(Duration::from_millis(50))
            .c_lo(Duration::from_millis(5))
            // c_hi is ignored for LC tasks even if provided.
            .c_hi(Duration::from_millis(49))
            .build()
            .unwrap();
        assert_eq!(t.c_hi(), t.c_lo());
        assert!(t.criticality().is_low());
    }

    #[test]
    fn missing_fields_are_reported() {
        let e = McTask::builder(TaskId::new(3)).build().unwrap_err();
        assert!(matches!(
            e,
            TaskError::MissingField {
                field: "period",
                ..
            }
        ));
        let e = McTask::builder(TaskId::new(3))
            .period(Duration::from_millis(10))
            .build()
            .unwrap_err();
        assert!(matches!(e, TaskError::MissingField { field: "c_lo", .. }));
        let e = McTask::builder(TaskId::new(3))
            .criticality(Criticality::Hi)
            .period(Duration::from_millis(10))
            .c_lo(Duration::from_millis(1))
            .build()
            .unwrap_err();
        assert!(matches!(e, TaskError::MissingField { field: "c_hi", .. }));
    }

    #[test]
    fn invalid_wcet_orderings_are_rejected() {
        let e = McTask::builder(TaskId::new(4))
            .criticality(Criticality::Hi)
            .period(Duration::from_millis(100))
            .c_lo(Duration::from_millis(50))
            .c_hi(Duration::from_millis(10))
            .build()
            .unwrap_err();
        assert!(matches!(e, TaskError::InvalidWcet { .. }));

        // c_hi beyond the deadline can never be schedulable.
        let e = McTask::builder(TaskId::new(4))
            .criticality(Criticality::Hi)
            .period(Duration::from_millis(100))
            .c_lo(Duration::from_millis(10))
            .c_hi(Duration::from_millis(150))
            .build()
            .unwrap_err();
        assert!(matches!(e, TaskError::InvalidWcet { .. }));
    }

    #[test]
    fn zero_period_and_bad_deadline_are_rejected() {
        let e = McTask::builder(TaskId::new(5))
            .period(Duration::ZERO)
            .c_lo(Duration::from_millis(1))
            .build()
            .unwrap_err();
        assert!(matches!(e, TaskError::InvalidTiming { .. }));

        let e = McTask::builder(TaskId::new(5))
            .period(Duration::from_millis(10))
            .deadline(Duration::from_millis(20))
            .c_lo(Duration::from_millis(1))
            .build()
            .unwrap_err();
        assert!(matches!(e, TaskError::InvalidTiming { .. }));
    }

    #[test]
    fn set_c_lo_enforces_invariants() {
        let mut t = hc_task();
        t.set_c_lo(Duration::from_millis(20)).unwrap();
        assert_eq!(t.c_lo(), Duration::from_millis(20));
        assert!(t.set_c_lo(Duration::ZERO).is_err());
        assert!(t.set_c_lo(Duration::from_millis(41)).is_err());
        // Setting equal to c_hi is allowed (the fully pessimistic choice).
        t.set_c_lo(Duration::from_millis(40)).unwrap();
    }

    #[test]
    fn set_c_lo_rejected_for_lc_tasks() {
        let mut t = McTask::builder(TaskId::new(6))
            .period(Duration::from_millis(50))
            .c_lo(Duration::from_millis(5))
            .build()
            .unwrap();
        assert!(matches!(
            t.set_c_lo(Duration::from_millis(4)),
            Err(TaskError::LcBudgetIsFixed { .. })
        ));
    }

    #[test]
    fn profile_must_match_c_hi() {
        let profile =
            crate::profile::ExecutionProfile::new(1_000_000.0, 100_000.0, 40_000_000.0).unwrap();
        let t = McTask::builder(TaskId::new(7))
            .criticality(Criticality::Hi)
            .period(Duration::from_millis(100))
            .c_lo(Duration::from_millis(10))
            .c_hi(Duration::from_millis(40))
            .profile(profile)
            .build()
            .unwrap();
        assert!(t.profile().is_some());

        let mismatched =
            crate::profile::ExecutionProfile::new(1_000_000.0, 100_000.0, 99_000_000.0).unwrap();
        let e = McTask::builder(TaskId::new(7))
            .criticality(Criticality::Hi)
            .period(Duration::from_millis(100))
            .c_lo(Duration::from_millis(10))
            .c_hi(Duration::from_millis(40))
            .profile(mismatched)
            .build()
            .unwrap_err();
        assert!(matches!(e, TaskError::InvalidProfile { .. }));
    }

    #[test]
    fn profile_on_lc_task_is_rejected() {
        let profile = crate::profile::ExecutionProfile::new(1.0, 0.0, 1.0).unwrap();
        let e = McTask::builder(TaskId::new(8))
            .period(Duration::from_millis(10))
            .c_lo(Duration::from_millis(1))
            .profile(profile)
            .build()
            .unwrap_err();
        assert!(matches!(e, TaskError::InvalidProfile { .. }));
    }

    #[test]
    fn display_is_compact_and_nonempty() {
        let t = hc_task();
        let s = t.to_string();
        assert!(s.contains("τ1"));
        assert!(s.contains("HC"));
    }

    mod properties {
        use super::*;
        use mc_fault::{assert_prop, PropConfig};

        #[test]
        fn valid_hc_tasks_have_ordered_utilizations() {
            assert_prop(
                &PropConfig::named("valid_hc_tasks_have_ordered_utilizations"),
                |rng| (rng.below(999), rng.f64(), rng.f64()),
                |&(p, u_lo, u_hi)| {
                    let period = Duration::from_millis(1 + p);
                    let (c_lo_frac, c_hi_frac) = (0.01 + 0.99 * u_lo, 0.01 + 0.99 * u_hi);
                    let c_hi = period.mul_f64(c_hi_frac.max(c_lo_frac));
                    let c_lo = period.mul_f64(c_lo_frac.min(c_hi_frac));
                    if c_lo.is_zero() {
                        return Ok(());
                    }
                    let t = McTask::builder(TaskId::new(0))
                        .criticality(Criticality::Hi)
                        .period(period)
                        .c_lo(c_lo)
                        .c_hi(c_hi)
                        .build()
                        .unwrap();
                    assert!(t.u_lo() <= t.u_hi() + 1e-12);
                    assert!(t.u_hi() <= 1.0 + 1e-12);
                    Ok(())
                },
            );
        }
    }
}
