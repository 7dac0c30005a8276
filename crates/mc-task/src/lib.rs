//! Mixed-criticality task model for the `chebymc` workspace.
//!
//! Implements §III of *"Improving the Timing Behaviour of Mixed-Criticality
//! Systems Using Chebyshev's Theorem"* (DATE 2021): dual-criticality periodic
//! tasks `τᵢ = (ζᵢ, Cᵢ_LO, Cᵢ_HI, Pᵢ, Dᵢ)` with implicit deadlines, plus the
//! synthetic task-set generator from §V.
//!
//! * [`time`] — integer-nanosecond [`time::Duration`] / [`time::Instant`]
//!   newtypes (no float drift in simulation).
//! * [`criticality`] — dual levels plus the DO-178B A–E scale.
//! * [`task`] — the validated [`task::McTask`] type and its builder.
//! * [`profile`] — per-task `(ACET, σ, WCET_pes)` measurements.
//! * [`taskset`] — collections with the paper's `U_l^k` aggregates.
//! * [`generate`] — the §V synthetic workload generator and UUniFast.
//! * [`automotive`] — the Bosch-calibrated automotive workload family
//!   (period/share bins, factor matrices, fitted Weibull execution times).
//!
//! # Example
//!
//! ```
//! use mc_task::generate::{generate_mixed_taskset, GeneratorConfig};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), mc_task::TaskError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let ts = generate_mixed_taskset(0.7, &GeneratorConfig::default(), &mut rng)?;
//! assert!(((ts.u_hc_hi() + ts.u_lc_lo()) - 0.7).abs() < 5e-3);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(
    clippy::unwrap_used,
    clippy::undocumented_unsafe_blocks,
    clippy::cast_possible_truncation
)]

pub mod automotive;
pub mod criticality;
pub mod generate;
pub mod multi;
pub mod profile;
pub mod task;
pub mod taskset;
pub mod time;
pub mod workload;

use std::error::Error;
use std::fmt;

pub use criticality::Criticality;
pub use profile::{ExecutionProfile, WeibullFit};
pub use task::{McTask, TaskId};
pub use taskset::TaskSet;

/// Errors produced while constructing or generating tasks.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TaskError {
    /// A required builder field was never set.
    MissingField {
        /// The task being built.
        id: TaskId,
        /// The missing field's name.
        field: &'static str,
    },
    /// WCET values violate `0 < c_lo ≤ c_hi ≤ deadline`.
    InvalidWcet {
        /// The offending task.
        id: TaskId,
        /// What was violated.
        reason: &'static str,
    },
    /// Period/deadline values violate `0 < deadline ≤ period`.
    InvalidTiming {
        /// The offending task.
        id: TaskId,
        /// What was violated.
        reason: &'static str,
    },
    /// An execution profile violates `0 < acet ≤ wcet_pes`, `σ ≥ 0`, or its
    /// attachment rules.
    InvalidProfile {
        /// What was violated.
        reason: &'static str,
    },
    /// Low-criticality tasks have a single, fixed WCET.
    LcBudgetIsFixed {
        /// The offending task.
        id: TaskId,
    },
    /// Two tasks in a set share an identifier.
    DuplicateTaskId {
        /// The duplicated identifier.
        id: TaskId,
    },
    /// The synthetic generator was configured inconsistently.
    InvalidGeneratorConfig {
        /// What was violated.
        reason: &'static str,
    },
    /// A bounded discard-and-redraw loop exhausted its retry budget
    /// without producing a feasible draw.
    RetriesExhausted {
        /// The draw that kept getting discarded.
        what: &'static str,
        /// The retry budget that was exhausted.
        retries: usize,
    },
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskError::MissingField { id, field } => {
                write!(f, "task {id} is missing required field `{field}`")
            }
            TaskError::InvalidWcet { id, reason } => {
                write!(f, "task {id} has invalid WCETs: {reason}")
            }
            TaskError::InvalidTiming { id, reason } => {
                write!(f, "task {id} has invalid timing parameters: {reason}")
            }
            TaskError::InvalidProfile { reason } => {
                write!(f, "invalid execution profile: {reason}")
            }
            TaskError::LcBudgetIsFixed { id } => {
                write!(f, "task {id} is low-criticality; its budget is fixed")
            }
            TaskError::DuplicateTaskId { id } => {
                write!(f, "task id {id} already exists in the set")
            }
            TaskError::InvalidGeneratorConfig { reason } => {
                write!(f, "invalid generator configuration: {reason}")
            }
            TaskError::RetriesExhausted { what, retries } => {
                write!(f, "no feasible {what} after {retries} retries")
            }
        }
    }
}

impl Error for TaskError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = TaskError::MissingField {
            id: TaskId::new(3),
            field: "period",
        };
        assert!(e.to_string().contains("τ3"));
        assert!(e.to_string().contains("period"));
        let e = TaskError::DuplicateTaskId { id: TaskId::new(1) };
        assert!(e.to_string().contains("already exists"));
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TaskError>();
    }
}
