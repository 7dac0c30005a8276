//! Discrete-event simulation of mixed-criticality runtime behaviour.
//!
//! The analyses in [`crate::analysis`] answer the *design-time* question
//! ("is this set schedulable?"). This module answers the *runtime* questions
//! the paper's motivation section raises: how often does the system switch
//! to HI mode, how many LC jobs get dropped, and do HC deadlines actually
//! hold?
//!
//! The simulator implements the paper's §III operational model on a
//! preemptive uniprocessor:
//!
//! * the system starts in LO mode with every task admitted;
//! * jobs are dispatched by EDF over *virtual deadlines* (EDF-VD) in LO
//!   mode and over real deadlines in HI mode;
//! * the instant an HC job executes past its optimistic WCET `C_LO`, the
//!   system switches to HI mode and LC jobs are dropped
//!   ([`LcPolicy::DropAll`], Baruah et al.) or degraded
//!   ([`LcPolicy::Degrade`], Liu et al.);
//! * the system returns to LO mode as soon as no HC job is ready.
//!
//! One event loop runs this model for any number `L` of criticality
//! levels (the paper's §VI extension): [`simulate`] runs a dual-criticality
//! `TaskSet` as `L = 2`, [`simulate_multi`] an L-level `MultiTaskSet`.
//!
//! The loop orders its work with three heaps rather than scanning every
//! task and job per event: each task's next release, the EDF ready queue
//! and the pending deadlines. A task's deadline lies within its period, so
//! it has at most one pending job, which a per-task slot finds in O(1).
//! A run takes at most `L + 1` events per release plus one, so its event
//! bound is derived from the horizon and the periods rather than fixed.
//! Each run adds its counts to the `mc-obs` counters `sched.sim_events`
//! and `sched.sim_releases`.
//!
//! [`SharedRuns`] lets the policies raced on one set share a run: a run
//! with no mode switch and no contained overrun is the same under every
//! `lc_policy` and `mode_switch`. A shared run re-emits its counts and
//! adds one to `sched.sim_shared`.

mod engine;
mod exec_model;
mod metrics;
pub mod multi;
mod shared;

pub use engine::{simulate, ModeSwitchPolicy, SimConfig};
pub use exec_model::JobExecModel;
pub use metrics::{MultiSimMetrics, SimMetrics};
pub use multi::{simulate_multi, MultiSimConfig};
pub use shared::SharedRuns;

use serde::{Deserialize, Serialize};

/// What happens to low-criticality work when the system enters HI mode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LcPolicy {
    /// Discard all ready LC jobs and reject LC releases while in HI mode
    /// (Baruah et al., RTNS 2012).
    DropAll,
    /// Keep LC jobs running with the given fraction of their LO-mode budget
    /// (Liu et al., RTSS 2016; the paper's experiments use `0.5`).
    Degrade(f64),
}

impl LcPolicy {
    /// Validates the policy (a degradation fraction must lie in `[0, 1]`).
    pub fn is_valid(&self) -> bool {
        match self {
            LcPolicy::DropAll => true,
            LcPolicy::Degrade(f) => f.is_finite() && (0.0..=1.0).contains(f),
        }
    }
}
