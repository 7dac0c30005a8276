//! Workload files: validated JSON (de)serialisation of task sets.
//!
//! `serde` derives alone would let a hand-edited JSON file smuggle in tasks
//! that violate the model invariants (`c_lo > c_hi`, zero periods, …), so
//! loading goes through [`McTask::validate`]/[`Workload::load_json`], which
//! re-checks every invariant the builders enforce.

use crate::task::McTask;
use crate::taskset::TaskSet;
use crate::TaskError;
use serde::{Deserialize, Serialize};

/// A named, documented task set — the on-disk unit of exchange.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Workload name.
    pub name: String,
    /// Free-form description (provenance, units, assumptions).
    pub description: String,
    /// The tasks.
    pub tasks: TaskSet,
}

impl McTask {
    /// Re-checks every invariant the builder enforces — used when a task
    /// arrives from an untrusted source (deserialisation).
    ///
    /// # Errors
    ///
    /// Returns the same errors [`crate::task::McTaskBuilder::build`] would,
    /// [`TaskError::InvalidProfile`] for a profile that
    /// [`ExecutionProfile::new`](crate::profile::ExecutionProfile::new) or
    /// `with_weibull` would refuse, and [`TaskError::LcBudgetIsFixed`] for
    /// an LC task whose `c_hi` differs from its `c_lo`.
    pub fn validate(&self) -> Result<(), TaskError> {
        // The builder sets an LC task's C_HI to its C_LO, so it cannot
        // see a deserialised LC task whose two budgets disagree.
        if !self.criticality().is_high() && self.c_hi() != self.c_lo() {
            return Err(TaskError::LcBudgetIsFixed { id: self.id() });
        }
        let mut builder = McTask::builder(self.id())
            .name(self.name().to_string())
            .criticality(self.criticality())
            .period(self.period())
            .deadline(self.deadline())
            .c_lo(self.c_lo());
        if self.criticality().is_high() {
            builder = builder.c_hi(self.c_hi());
        }
        if let Some(p) = self.profile() {
            // The builder checks only the profile's fit to C_HI; its own
            // invariants are the profile constructors'.
            p.validate()?;
            builder = builder.profile(*p);
        }
        let rebuilt = builder.build()?;
        debug_assert_eq!(&rebuilt, self);
        Ok(())
    }
}

impl Workload {
    /// Wraps a task set with a name and description.
    pub fn new(name: impl Into<String>, description: impl Into<String>, tasks: TaskSet) -> Self {
        Workload {
            name: name.into(),
            description: description.into(),
            tasks,
        }
    }

    /// Serialises to pretty JSON.
    ///
    /// # Errors
    ///
    /// Returns [`TaskError::InvalidGeneratorConfig`] when encoding fails
    /// (practically unreachable for valid workloads).
    pub fn to_json(&self) -> Result<String, TaskError> {
        serde_json::to_string_pretty(self).map_err(|_| TaskError::InvalidGeneratorConfig {
            reason: "workload serialisation failed",
        })
    }

    /// Parses and **re-validates** a workload from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`TaskError::InvalidGeneratorConfig`] for malformed JSON and
    /// any task/set invariant error for well-formed but invalid content.
    pub fn load_json(json: &str) -> Result<Self, TaskError> {
        let raw: Workload =
            serde_json::from_str(json).map_err(|_| TaskError::InvalidGeneratorConfig {
                reason: "workload JSON is malformed",
            })?;
        for task in raw.tasks.iter() {
            task.validate()?;
        }
        // Re-run set-level validation (duplicate ids) too.
        let tasks = TaskSet::from_tasks(raw.tasks.tasks().to_vec())?;
        Ok(Workload {
            name: raw.name,
            description: raw.description,
            tasks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::criticality::Criticality;
    use crate::profile::ExecutionProfile;
    use crate::task::TaskId;
    use crate::time::Duration;

    fn sample() -> Workload {
        let mut ts = TaskSet::new();
        ts.push(
            McTask::builder(TaskId::new(0))
                .name("ctrl")
                .criticality(Criticality::Hi)
                .period(Duration::from_millis(100))
                .c_lo(Duration::from_millis(10))
                .c_hi(Duration::from_millis(40))
                .profile(ExecutionProfile::new(3.0e6, 1.0e6, 40.0e6).unwrap())
                .build()
                .unwrap(),
        )
        .unwrap();
        ts.push(
            McTask::builder(TaskId::new(1))
                .name("ui")
                .period(Duration::from_millis(200))
                .c_lo(Duration::from_millis(20))
                .build()
                .unwrap(),
        )
        .unwrap();
        Workload::new("demo", "two-task example", ts)
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let w = sample();
        let json = w.to_json().unwrap();
        let back = Workload::load_json(&json).unwrap();
        assert_eq!(w, back);
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(Workload::load_json("{").is_err());
        assert!(Workload::load_json("42").is_err());
    }

    #[test]
    fn invariant_violations_survive_no_deserialisation() {
        // Craft a JSON with c_lo > c_hi by string surgery on a valid file.
        let w = sample();
        let json = w.to_json().unwrap();
        let evil = json.replacen("10000000", "90000000", 1); // c_lo 10 ms → 90 ms
        let err = Workload::load_json(&evil);
        assert!(err.is_err(), "c_lo > c_hi must be rejected: {err:?}");
    }

    #[test]
    fn lc_budgets_that_disagree_are_rejected() {
        let json = sample().to_json().unwrap();
        // The LC task's c_hi 20 ms → 10 ms, below its c_lo.
        let evil = json.replacen("\"c_hi\": 20000000", "\"c_hi\": 10000000", 1);
        assert_ne!(evil, json);
        assert!(matches!(
            Workload::load_json(&evil),
            Err(TaskError::LcBudgetIsFixed { .. })
        ));
    }

    #[test]
    fn hand_edited_profiles_are_rejected() {
        let json = sample().to_json().unwrap();
        let weibull = "\"weibull\": {\"location\": 1.0e6, \"shape\": 0.0, \"scale\": 1.0e6}";
        for (from, to) in [
            ("\"sigma\": 1000000.0", "\"sigma\": -1000000.0"),
            ("\"acet\": 3000000.0", "\"acet\": 50000000.0"),
            ("\"weibull\": null", weibull),
        ] {
            let evil = json.replacen(from, to, 1);
            assert_ne!(evil, json, "{from} not found in {json}");
            assert!(
                matches!(
                    Workload::load_json(&evil),
                    Err(TaskError::InvalidProfile { .. })
                ),
                "{to} must be rejected"
            );
        }
    }

    #[test]
    fn duplicate_ids_in_json_are_rejected() {
        let w = sample();
        let mut json = w.to_json().unwrap();
        // Make both tasks claim id 0.
        json = json.replace("\"id\": 1", "\"id\": 0");
        assert!(Workload::load_json(&json).is_err());
    }

    #[test]
    fn validate_accepts_builder_output() {
        for task in sample().tasks.iter() {
            task.validate().unwrap();
        }
    }
}
