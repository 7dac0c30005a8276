//! `chebymc-core` — the primary contribution of *"Improving the Timing
//! Behaviour of Mixed-Criticality Systems Using Chebyshev's Theorem"*
//! (DATE 2021), as a library.
//!
//! The paper's scheme chooses each high-criticality task's *optimistic*
//! WCET as `C_LO = ACET + n·σ` and bounds the probability of overrunning it
//! — and hence of a system mode switch — by the one-sided Chebyshev
//! inequality `1/(1+n²)`, independent of the execution-time distribution.
//! The per-task factors `nᵢ` are optimised (GA) to maximise
//! `(1 − P_MS) · max(U_LC^LO)` under EDF-VD schedulability.
//!
//! * [`scheme`] — [`scheme::ChebyshevScheme`], the end-to-end entry point.
//! * [`policy`] — [`policy::WcetPolicy`]: the Chebyshev family plus the
//!   λ-fraction baselines the paper compares against.
//! * [`metrics`] — design metrics: Eq. 10 (`P_MS`), Eqs. 11–12
//!   (`max U_LC^LO`), Eq. 13 (objective), Eq. 8 (schedulability).
//! * [`pipeline`] — evaluation of one synthetic task set, the unit the
//!   `mc-exp` campaigns of Figs. 3–6 and the policy arena average.
//!
//! # Example
//!
//! ```
//! use chebymc_core::scheme::ChebyshevScheme;
//! use mc_task::generate::{generate_mixed_taskset, GeneratorConfig};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut ts = generate_mixed_taskset(0.7, &GeneratorConfig::default(), &mut rng)?;
//! let report = ChebyshevScheme::new().design(&mut ts)?;
//! println!(
//!     "P_MS = {:.3}, max U_LC^LO = {:.3}",
//!     report.metrics.p_ms, report.metrics.max_u_lc_lo
//! );
//! assert!(report.metrics.schedulable);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod metrics;
pub mod multi;
pub mod pipeline;
pub mod policy;
pub mod scheme;

use mc_task::TaskId;
use std::error::Error;
use std::fmt;

pub use metrics::{design_metrics, DesignMetrics};
pub use policy::WcetPolicy;
pub use scheme::{ChebyshevScheme, DesignReport};

/// Errors produced by the core scheme.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// An HC task lacks the execution profile the scheme consumes.
    MissingProfile {
        /// The offending task.
        id: TaskId,
    },
    /// A policy parameter is out of range.
    InvalidPolicy {
        /// What was violated.
        reason: &'static str,
    },
    /// A task-model error.
    Task(mc_task::TaskError),
    /// An optimiser error.
    Opt(mc_opt::OptError),
    /// A scheduling/simulation error.
    Sched(mc_sched::SchedError),
    /// An input failed static analysis; the report carries every finding,
    /// not just the first.
    Lint(mc_lint::LintReport),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::MissingProfile { id } => {
                write!(f, "HC task {id} has no execution profile")
            }
            CoreError::InvalidPolicy { reason } => write!(f, "invalid policy: {reason}"),
            CoreError::Task(e) => write!(f, "task error: {e}"),
            CoreError::Opt(e) => write!(f, "optimiser error: {e}"),
            CoreError::Sched(e) => write!(f, "scheduling error: {e}"),
            CoreError::Lint(report) => {
                let first = report
                    .iter()
                    .find(|d| d.severity == mc_lint::Severity::Error);
                match first {
                    Some(d) => write!(
                        f,
                        "lint failed with {} error(s), first: {d}",
                        report.count(mc_lint::Severity::Error),
                    ),
                    None => write!(f, "lint failed"),
                }
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Task(e) => Some(e),
            CoreError::Opt(e) => Some(e),
            CoreError::Sched(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mc_task::TaskError> for CoreError {
    fn from(e: mc_task::TaskError) -> Self {
        CoreError::Task(e)
    }
}

impl From<mc_opt::OptError> for CoreError {
    fn from(e: mc_opt::OptError) -> Self {
        CoreError::Opt(e)
    }
}

impl From<mc_sched::SchedError> for CoreError {
    fn from(e: mc_sched::SchedError) -> Self {
        CoreError::Sched(e)
    }
}

impl From<mc_lint::LintReport> for CoreError {
    fn from(report: mc_lint::LintReport) -> Self {
        CoreError::Lint(report)
    }
}

/// Fails with [`CoreError::Lint`] when the report contains errors;
/// warnings and infos pass through silently.
///
/// # Errors
///
/// Returns the full report so callers can render every finding.
pub fn fail_on_lint_errors(report: mc_lint::LintReport) -> Result<(), CoreError> {
    if report.has_errors() {
        Err(CoreError::Lint(report))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        assert!(CoreError::MissingProfile { id: TaskId::new(5) }
            .to_string()
            .contains("τ5"));
        assert!(CoreError::InvalidPolicy { reason: "nope" }
            .to_string()
            .contains("nope"));
    }

    #[test]
    fn conversions_and_sources() {
        let e: CoreError = mc_task::TaskError::DuplicateTaskId { id: TaskId::new(0) }.into();
        assert!(Error::source(&e).is_some());
        let e: CoreError = mc_opt::OptError::EmptyChromosome.into();
        assert!(Error::source(&e).is_some());
        let e: CoreError = mc_sched::SchedError::EmptyTaskSet.into();
        assert!(Error::source(&e).is_some());
    }

    #[test]
    fn lint_errors_surface_the_first_finding() {
        let mut report = mc_lint::LintReport::new();
        report.push(mc_lint::Diagnostic::new(
            mc_lint::Code::T001,
            "task τ0",
            "C_LO exceeds C_HI",
        ));
        let e: CoreError = report.clone().into();
        assert!(e.to_string().contains("T001"), "{e}");
        assert!(fail_on_lint_errors(report).is_err());
        assert!(fail_on_lint_errors(mc_lint::LintReport::new()).is_ok());
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
