//! Scheduling substrate for the `chebymc` workspace.
//!
//! Three layers:
//!
//! * [`analysis`] — design-time schedulability tests: plain EDF
//!   (Liu–Layland), EDF-VD (Baruah et al., RTNS 2012 — the paper's Eq. 8 and
//!   the `max(U_LC^LO)` bound of Eqs. 11–12), and the degraded-quality
//!   variant (Liu et al., RTSS 2016) used as the second baseline in Fig. 6.
//! * [`sim`] — a discrete-event preemptive uniprocessor simulator of the
//!   paper's §III operational model: EDF-VD dispatching, mode switching on
//!   `C_LO` overrun (system-level or combined task-level/system-level),
//!   LC dropping/degradation, and switch-back when the HC queue drains.
//! * [`policy`] — the [`policy::SchedulingPolicy`] seam pairing each
//!   admission test with the runtime behaviour it certifies, including the
//!   related-work entrants raced by the `policy_arena` campaign.
//!
//! # Example
//!
//! ```
//! use mc_sched::analysis::edf_vd;
//!
//! // Eq. 8 on raw utilisations: U_HC^LO = 0.2, U_HC^HI = 0.6, U_LC^LO = 0.3.
//! assert!(edf_vd::conditions_hold(0.2, 0.6, 0.3));
//! // The LC utilisation the design can hand out (Eqs. 11–12):
//! let m = edf_vd::max_u_lc_lo(0.2, 0.6);
//! assert!(m > 0.6);
//! ```

#![warn(missing_docs)]
#![warn(
    clippy::unwrap_used,
    clippy::undocumented_unsafe_blocks,
    clippy::cast_possible_truncation
)]

pub mod analysis;
pub mod policy;
pub mod sim;

use std::error::Error;
use std::fmt;

/// The simulation-facing name for [`SchedError`]: every error `simulate`
/// can return (invalid config, empty task set, divergence guard) is a
/// `SchedError`, and callers holding a simulator result see it under this
/// alias.
pub type SimError = SchedError;

/// Errors produced by scheduling analyses and simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SchedError {
    /// The simulation configuration is inconsistent.
    InvalidSimConfig {
        /// What was violated.
        reason: &'static str,
    },
    /// Simulation requires at least one task.
    EmptyTaskSet,
    /// The event loop exceeded its safety bound (likely a degenerate
    /// configuration such as nanosecond periods over a long horizon).
    SimulationDiverged,
    /// A processor-demand test needed more deadline points than its
    /// budget allows (degenerate period ratios).
    DemandBudgetExhausted {
        /// The point budget that ran out.
        max_points: u64,
    },
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::InvalidSimConfig { reason } => {
                write!(f, "invalid simulation configuration: {reason}")
            }
            SchedError::EmptyTaskSet => write!(f, "cannot simulate an empty task set"),
            SchedError::SimulationDiverged => {
                write!(f, "simulation exceeded its event-count safety bound")
            }
            SchedError::DemandBudgetExhausted { max_points } => {
                write!(f, "demand test exceeded {max_points} deadline points")
            }
        }
    }
}

impl Error for SchedError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        assert!(SchedError::EmptyTaskSet.to_string().contains("empty"));
        assert!(SchedError::SimulationDiverged
            .to_string()
            .contains("safety bound"));
        let e = SchedError::InvalidSimConfig {
            reason: "horizon must be non-zero",
        };
        assert!(e.to_string().contains("horizon"));
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SchedError>();
    }
}
