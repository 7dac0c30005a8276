//! Optimisation substrate for the `chebymc` workspace.
//!
//! Solves the paper's §IV-C problem: choose a Chebyshev factor `nᵢ` per
//! high-criticality task to maximise `(1 − P_MS) · max(U_LC^LO)` (Eq. 13)
//! subject to EDF-VD schedulability (Eq. 8) and `C_LO ≤ WCET_pes` (Eq. 9).
//!
//! * [`ga`] — a from-scratch genetic algorithm with the paper's operators
//!   (two-point crossover, single-point mutation, 5-way tournament,
//!   `p_c = 0.8`, `p_m = 0.2`); the DEAP stand-in.
//! * [`problem`] — the objective (Eqs. 10–13) over a task set's HC tasks.
//! * [`incremental`] — the objective's hot-path engine: per-task
//!   invariants in struct-of-arrays layout, blocked partial reductions for
//!   delta-fitness (a k-gene change re-folds only the touched blocks, bit
//!   identical to a full pass), and batch evaluation over flat
//!   populations.
//! * [`grid`] — uniform-n sweeps (Figs. 2–3) and exhaustive search used to
//!   cross-check the GA.
//!
//! # Example
//!
//! ```
//! use mc_opt::ga::{optimize, GaConfig, GeneBounds};
//!
//! # fn main() -> Result<(), mc_opt::OptError> {
//! let bounds = [GeneBounds::new(0.0, 10.0)?, GeneBounds::new(0.0, 10.0)?];
//! let r = optimize(&bounds, |c| -(c[0] - 2.0).abs() - (c[1] - 8.0).abs(), &GaConfig::default())?;
//! assert!((r.best[0] - 2.0).abs() < 0.5);
//! assert!((r.best[1] - 8.0).abs() < 0.5);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod anneal;
pub mod ga;
pub mod grid;
pub mod incremental;
pub mod problem;

use mc_task::TaskId;
use std::error::Error;
use std::fmt;

pub use ga::{EvalStats, GaConfig, GaResult, GeneBounds};
pub use incremental::{optimize_incremental, FlatPopulation, ObjectiveCache};
pub use problem::{ObjectiveValue, ProblemConfig, Solution, WcetProblem};

/// Errors produced by the optimisation substrate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum OptError {
    /// A configuration value is out of range.
    InvalidConfig {
        /// What was violated.
        reason: &'static str,
    },
    /// The chromosome would have no genes.
    EmptyChromosome,
    /// An HC task lacks the execution profile the problem needs.
    MissingProfile {
        /// The offending task.
        id: TaskId,
    },
    /// A factor vector's length does not match the problem dimension.
    DimensionMismatch {
        /// Expected (HC task count).
        expected: usize,
        /// Provided.
        got: usize,
    },
    /// A solution references a task that is not in the target set.
    UnknownTask {
        /// The missing task.
        id: TaskId,
    },
    /// A task-model error while applying a solution.
    Task(mc_task::TaskError),
}

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptError::InvalidConfig { reason } => {
                write!(f, "invalid optimiser configuration: {reason}")
            }
            OptError::EmptyChromosome => write!(f, "optimisation requires at least one gene"),
            OptError::MissingProfile { id } => {
                write!(f, "HC task {id} has no execution profile")
            }
            OptError::DimensionMismatch { expected, got } => {
                write!(f, "expected {expected} factors, got {got}")
            }
            OptError::UnknownTask { id } => write!(f, "task {id} not found in the target set"),
            OptError::Task(e) => write!(f, "task error: {e}"),
        }
    }
}

impl Error for OptError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            OptError::Task(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mc_task::TaskError> for OptError {
    fn from(e: mc_task::TaskError) -> Self {
        OptError::Task(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        assert!(OptError::EmptyChromosome.to_string().contains("gene"));
        assert!(OptError::MissingProfile { id: TaskId::new(2) }
            .to_string()
            .contains("τ2"));
        assert!(OptError::DimensionMismatch {
            expected: 3,
            got: 1
        }
        .to_string()
        .contains("expected 3"));
    }

    #[test]
    fn task_errors_convert_and_chain() {
        let e: OptError = mc_task::TaskError::DuplicateTaskId { id: TaskId::new(0) }.into();
        assert!(matches!(e, OptError::Task(_)));
        assert!(Error::source(&e).is_some());
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<OptError>();
    }
}
