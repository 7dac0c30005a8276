//! `chebymc` — Chebyshev-based optimistic WCET assignment for
//! mixed-criticality systems.
//!
//! This facade crate re-exports the whole workspace, a reproduction of
//! *"Improving the Timing Behaviour of Mixed-Criticality Systems Using
//! Chebyshev's Theorem"* (Ranjbar et al., DATE 2021):
//!
//! | Module | Contents |
//! |---|---|
//! | [`stats`] | summary statistics, Chebyshev bounds, distributions |
//! | [`task`] | the MC task model and synthetic task-set generation |
//! | [`exec`] | execution-time sampling and the mini static WCET analyser |
//! | [`sched`] | EDF/EDF-VD/Liu schedulability analysis and the runtime simulator |
//! | [`opt`] | the genetic algorithm and grid search |
//! | [`lint`] | static analysis: CFG structure, task-set and config diagnostics |
//! | [`core`] | the paper's scheme: policies, metrics, per-set evaluation |
//! | [`exp`] | sharded, resumable experiment campaigns with a crash-safe store |
//! | [`serve`] | the distributed campaign service: coordinator, workers, failover |
//! | [`fault`] | deterministic fault injection and the seeded property harness |
//! | [`obs`] | zero-dependency tracing: spans, counters, histograms, JSONL sink |
//!
//! # Quickstart
//!
//! ```
//! use chebymc::prelude::*;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Generate a dual-criticality workload (or build your own TaskSet).
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let mut ts = generate_mixed_taskset(0.7, &GeneratorConfig::default(), &mut rng)?;
//!
//! // 2. Let the scheme choose optimistic WCETs via Chebyshev + GA.
//! let report = ChebyshevScheme::new().design(&mut ts)?;
//! assert!(report.metrics.schedulable);
//!
//! // 3. Validate the design at runtime with the event simulator.
//! let sim = simulate(&ts, &SimConfig::new(Duration::from_secs(5)))?;
//! assert_eq!(sim.hc_deadline_misses, 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use chebymc_core as core;
pub use mc_exec as exec;
pub use mc_exp as exp;
pub use mc_fault as fault;
pub use mc_lint as lint;
pub use mc_obs as obs;
pub use mc_opt as opt;
pub use mc_sched as sched;
pub use mc_serve as serve;
pub use mc_stats as stats;
pub use mc_task as task;

/// The most common imports, bundled.
pub mod prelude {
    pub use chebymc_core::metrics::{design_metrics, DesignMetrics};
    pub use chebymc_core::policy::WcetPolicy;
    pub use chebymc_core::scheme::{ChebyshevScheme, DesignReport};
    pub use chebymc_core::CoreError;
    pub use mc_exec::benchmarks;
    pub use mc_exec::{Benchmark, ExecutionModel, ExecutionTrace};
    pub use mc_lint::{LintBundle, LintReport, Severity};
    pub use mc_opt::{GaConfig, ProblemConfig, WcetProblem};
    pub use mc_sched::analysis::{dbf, edf, edf_vd, liu};
    pub use mc_sched::policy::{PolicySpec, PolicyVerdict, RuntimeBehaviour, SchedulingPolicy};
    pub use mc_sched::sim::{
        simulate, JobExecModel, LcPolicy, ModeSwitchPolicy, SimConfig, SimMetrics,
    };
    pub use mc_stats::chebyshev::{n_for_probability, one_sided_bound};
    pub use mc_stats::dist::Dist;
    pub use mc_stats::summary::Summary;
    pub use mc_task::automotive::{generate_automotive_taskset, AutomotiveConfig};
    pub use mc_task::generate::{
        generate_hc_taskset, generate_lo_bounded_taskset, generate_mixed_taskset, uunifast,
        GeneratorConfig,
    };
    pub use mc_task::time::{Duration, Instant};
    pub use mc_task::workload::Workload;
    pub use mc_task::{Criticality, ExecutionProfile, McTask, TaskId, TaskSet};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_the_headline_types() {
        use crate::prelude::*;
        // Type-level smoke test: these names must resolve.
        let _ = one_sided_bound(2.0);
        let _ = Duration::from_millis(1);
        let _: Criticality = Criticality::Hi;
        let _ = GeneratorConfig::default();
        let _ = ChebyshevScheme::new();
        let _ = LintReport::new();
    }
}
