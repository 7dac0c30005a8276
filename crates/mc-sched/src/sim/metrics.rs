//! Simulation outcome metrics, for dual-criticality and L-level runs.

use mc_task::time::Duration;
use serde::{Deserialize, Serialize};

/// Counters and clocks collected over one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SimMetrics {
    /// HC jobs released.
    pub hc_released: u64,
    /// LC jobs released (admitted to the ready queue).
    pub lc_released: u64,
    /// HC jobs that completed.
    pub hc_completed: u64,
    /// LC jobs that completed with their full budget.
    pub lc_completed: u64,
    /// LC jobs that completed with a degraded (truncated) budget.
    pub lc_degraded: u64,
    /// LC jobs discarded while ready when the system switched to HI mode.
    pub lc_dropped_at_switch: u64,
    /// LC releases rejected because the system was in HI mode.
    pub lc_rejected_in_hi: u64,
    /// HC deadline misses (a sound design never has any).
    pub hc_deadline_misses: u64,
    /// LC deadline misses.
    pub lc_deadline_misses: u64,
    /// LO → HI transitions (system-level mode switches).
    pub mode_switches: u64,
    /// Overruns contained at task level without a system-level switch
    /// ([`super::ModeSwitchPolicy::TaskLevelThenSystem`] only; absent in
    /// older serialized records, hence the default).
    #[serde(default)]
    pub task_level_switches: u64,
    /// Time spent in HI mode.
    pub time_in_hi: Duration,
    /// Time the processor was busy.
    pub busy_time: Duration,
    /// Total simulated time.
    pub horizon: Duration,
}

impl SimMetrics {
    /// Total jobs released (admitted).
    pub fn released(&self) -> u64 {
        self.hc_released + self.lc_released
    }

    /// Total LC jobs lost to HI mode (discarded or rejected).
    pub fn lc_lost(&self) -> u64 {
        self.lc_dropped_at_switch + self.lc_rejected_in_hi
    }

    /// Fraction of time the processor was busy.
    pub fn utilization(&self) -> f64 {
        if self.horizon.is_zero() {
            0.0
        } else {
            self.busy_time.ratio(self.horizon)
        }
    }

    /// Fraction of time spent in HI mode.
    pub fn hi_fraction(&self) -> f64 {
        if self.horizon.is_zero() {
            0.0
        } else {
            self.time_in_hi.ratio(self.horizon)
        }
    }

    /// Empirical mode-switch rate per released HC job — comparable to the
    /// per-task overrun probabilities the paper analyses.
    pub fn switch_rate_per_hc_job(&self) -> f64 {
        if self.hc_released == 0 {
            0.0
        } else {
            self.mode_switches as f64 / self.hc_released as f64
        }
    }

    /// Fraction of would-be LC work that was lost (dropped, rejected, or
    /// missed) rather than completed in full.
    pub fn lc_loss_rate(&self) -> f64 {
        let attempted = self.lc_released + self.lc_rejected_in_hi;
        if attempted == 0 {
            return 0.0;
        }
        let lost = self.lc_lost() + self.lc_deadline_misses + self.lc_degraded;
        lost as f64 / attempted as f64
    }
}

/// Counters and clocks of one L-level run ([`super::simulate_multi`]).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MultiSimMetrics {
    /// Jobs released, indexed by task criticality level.
    pub released_per_level: Vec<u64>,
    /// Jobs completed, indexed by task criticality level.
    pub completed_per_level: Vec<u64>,
    /// Deadline misses, indexed by task criticality level.
    pub misses_per_level: Vec<u64>,
    /// Escalations out of each mode (`escalations[k]` = mode k → k+1).
    pub escalations: Vec<u64>,
    /// Jobs killed at escalations.
    pub jobs_killed: u64,
    /// Releases rejected because the task's level was below the mode.
    pub releases_rejected: u64,
    /// Time spent in each mode.
    pub time_in_mode: Vec<Duration>,
    /// Processor busy time.
    pub busy_time: Duration,
    /// Total simulated time.
    pub horizon: Duration,
}

impl MultiSimMetrics {
    /// Deadline misses of the *top* criticality level — a sound design has
    /// none.
    pub fn top_level_misses(&self) -> u64 {
        self.misses_per_level.last().copied().unwrap_or(0)
    }

    /// Total escalations across all modes.
    pub fn total_escalations(&self) -> u64 {
        self.escalations.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates() {
        let m = SimMetrics {
            hc_released: 100,
            lc_released: 50,
            mode_switches: 10,
            lc_dropped_at_switch: 5,
            lc_rejected_in_hi: 15,
            busy_time: Duration::from_millis(400),
            time_in_hi: Duration::from_millis(100),
            horizon: Duration::from_millis(1_000),
            ..SimMetrics::default()
        };
        assert_eq!(m.released(), 150);
        assert_eq!(m.lc_lost(), 20);
        assert!((m.utilization() - 0.4).abs() < 1e-12);
        assert!((m.hi_fraction() - 0.1).abs() < 1e-12);
        assert!((m.switch_rate_per_hc_job() - 0.1).abs() < 1e-12);
        assert!((m.lc_loss_rate() - 20.0 / 65.0).abs() < 1e-12);
    }

    #[test]
    fn zero_horizon_is_handled() {
        let m = SimMetrics::default();
        assert_eq!(m.utilization(), 0.0);
        assert_eq!(m.hi_fraction(), 0.0);
        assert_eq!(m.switch_rate_per_hc_job(), 0.0);
        assert_eq!(m.lc_loss_rate(), 0.0);
    }
}
