//! mc-lint — static analysis and diagnostics for chebymc's inputs.
//!
//! Six lint passes feed one diagnostics framework:
//!
//! * [`cfg_pass`] reports `C0xx` codes on the structure the WCET
//!   analyser derives ([`mc_exec::cfg::Cfg::structure`]: dominators,
//!   loop headers, reducibility) plus reachability and loop-bound
//!   placement, *before* WCET analysis fails obscurely.
//! * [`task_pass`] checks task-set invariants and Chebyshev/EDF-VD
//!   preconditions (`T0xx`).
//! * [`scheme_pass`] checks GA, problem, and generator configuration
//!   (`S0xx`), reporting every violation at once instead of failing on the
//!   first.
//! * [`exp_pass`] checks experiment-campaign specifications (`E0xx`):
//!   axis/replica emptiness, shard validity, label collisions, and output
//!   path clashes, so `chebymc exp run` fails fast with named diagnostics.
//! * [`policy_pass`] checks scheduling-policy rosters (`P0xx`): parameter
//!   ranges, duplicate policy names, and empty rosters, gating the
//!   `policy_arena` campaign before any unit runs.
//! * [`automotive_pass`] checks the automotive workload family (`A0xx`):
//!   the baked-in Bosch period/share and factor tables, per-bin Weibull
//!   feasibility, and the campaign's `AutomotiveConfig`.
//!
//! The workspace's own Rust sources are not linted here: clippy checks
//! them, under the root `clippy.toml` and the lints each crate root
//! enables (DESIGN.md §13).
//!
//! Diagnostics carry stable codes ([`Code`]), fixed severities
//! ([`Severity`]), and a source label; a [`LintReport`] renders either for
//! terminals ([`LintReport::render_human`]) or as JSON
//! ([`LintReport::render_json`], round-trippable through `serde_json`).
//!
//! [`LintBundle`] is the file format behind `chebymc lint`: a JSON object
//! optionally carrying a serialised CFG, a workload, and configs. The
//! bundle is deserialised *without* revalidation, so defective inputs —
//! an unbounded loop, a task with `C_LO > C_HI` — are lintable instead of
//! being rejected at parse time.

#![warn(missing_docs)]
#![warn(
    clippy::unwrap_used,
    clippy::undocumented_unsafe_blocks,
    clippy::cast_possible_truncation
)]

pub mod automotive_pass;
pub mod cfg_pass;
pub mod diag;
pub mod exp_pass;
pub mod policy_pass;
pub mod scheme_pass;
pub mod task_pass;

pub use automotive_pass::{lint_automotive_config, lint_automotive_tables};
pub use cfg_pass::lint_cfg;
pub use diag::{Code, Diagnostic, LintReport, Severity, ALL_CODES};
pub use exp_pass::{lint_campaign, CampaignCheck};
pub use policy_pass::lint_policy_roster;
pub use scheme_pass::{lint_ga_config, lint_generator_config, lint_problem_config};
pub use task_pass::lint_taskset;

use mc_exec::cfg::Cfg;
use mc_opt::{GaConfig, ProblemConfig};
use mc_task::automotive::AutomotiveConfig;
use mc_task::generate::GeneratorConfig;
use mc_task::workload::Workload;
use serde::{Deserialize, Serialize};

/// Lintable inputs bundled into one JSON document — the input format of
/// `chebymc lint`. Every section is optional; absent sections are skipped.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct LintBundle {
    /// A control-flow graph (the `Cfg` serde shape).
    pub cfg: Option<Cfg>,
    /// A workload (name, description, tasks) — *not* revalidated on load.
    pub workload: Option<Workload>,
    /// GA hyper-parameters.
    pub ga: Option<GaConfig>,
    /// Chebyshev problem configuration.
    pub problem: Option<ProblemConfig>,
    /// Synthetic task-generator configuration.
    pub generator: Option<GeneratorConfig>,
    /// Automotive workload-family configuration (also re-checks the
    /// calibration tables).
    #[serde(default)]
    pub automotive: Option<AutomotiveConfig>,
}

impl LintBundle {
    /// Parses a bundle from JSON without revalidating its contents.
    ///
    /// # Errors
    ///
    /// Returns the underlying parse error for malformed JSON or a shape
    /// that does not match the bundle.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Runs every applicable pass and merges the reports.
    #[must_use]
    pub fn lint(&self) -> LintReport {
        let mut report = LintReport::new();
        if let Some(cfg) = &self.cfg {
            report.merge(lint_cfg(cfg, "bundle"));
        }
        if let Some(w) = &self.workload {
            report.merge(lint_taskset(&w.tasks));
        }
        if let Some(ga) = &self.ga {
            report.merge(lint_ga_config(ga));
        }
        if let Some(p) = &self.problem {
            report.merge(lint_problem_config(p));
        }
        if let Some(g) = &self.generator {
            report.merge(lint_generator_config(g));
        }
        if let Some(a) = &self.automotive {
            report.merge(lint_automotive_config(a));
        }
        report
    }
}

/// Parses a workload JSON *without* revalidation and lints its task set —
/// the `chebymc lint --workload` path. [`Workload::load_json`] would
/// reject a file with `C_LO > C_HI` outright; this reports every problem
/// instead.
///
/// # Errors
///
/// Returns the parse error for malformed JSON; invalid-but-well-formed
/// workloads produce diagnostics, not errors.
pub fn lint_workload_json(json: &str) -> Result<LintReport, serde_json::Error> {
    let w: Workload = serde_json::from_str(json)?;
    Ok(lint_taskset(&w.tasks))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_bundle_is_clean() {
        let bundle = LintBundle::from_json("{}").unwrap();
        assert!(bundle.lint().is_clean());
    }

    #[test]
    fn bundle_sections_compose() {
        let bundle = LintBundle {
            ga: Some(GaConfig {
                generations: 0,
                ..GaConfig::default()
            }),
            problem: Some(ProblemConfig { factor_cap: 1.0 }),
            ..LintBundle::default()
        };
        let report = bundle.lint();
        assert_eq!(report.codes(), vec![Code::S002, Code::S008]);
    }

    #[test]
    fn bundle_json_round_trips() {
        let bundle = LintBundle {
            ga: Some(GaConfig::default()),
            generator: Some(GeneratorConfig::default()),
            ..LintBundle::default()
        };
        let json = serde_json::to_string_pretty(&bundle).unwrap();
        let back = LintBundle::from_json(&json).unwrap();
        assert_eq!(back, bundle);
    }

    #[test]
    fn malformed_bundle_is_rejected() {
        assert!(LintBundle::from_json("{").is_err());
        assert!(LintBundle::from_json("[1, 2]").is_err());
    }
}
