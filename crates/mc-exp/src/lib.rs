//! mc-exp — sharded, resumable experiment campaigns with a crash-safe
//! result store.
//!
//! A [`CampaignSpec`] declares an experiment as *axis points × task-set
//! replicas*; the spec expands into a flat list of deterministic
//! [`WorkUnit`]s, each seeded as `hash(campaign_seed, point, replica)`
//! (the workspace seed contract,
//! [`chebymc_core::pipeline::derive_set_seed`]), so any shard subset of
//! the units — run in any order, on any thread count, in any process —
//! reproduces bit-identical results.
//!
//! * [`spec`] — campaign declaration, unit expansion, the campaign
//!   fingerprint (the compatibility contract for resume/shard/merge).
//! * [`store`] — the append-only JSONL result store: a schema-versioned
//!   header plus one record line per completed unit, group-committed —
//!   a batch is validated whole, written line by line, and covered by
//!   one fsync before its units count as complete. On restart the store
//!   replays itself, truncates a torn tail, and reports which units are
//!   already done.
//! * [`run`] — the campaign runner: lints the spec (`E0xx`), filters the
//!   shard's pending units, dispatches them over an [`mc_par::WorkerPool`]
//!   with a [`mc_par::ThreadBudget`] split between units and inner GA
//!   parallelism, and flushes records to the store *in session order* so
//!   an uninterrupted store is byte-identical across thread counts. One
//!   committer thread per session owns the store and commits each
//!   contiguous run of ready records with one fsync, so the compute lanes
//!   never wait on the disk.
//! * [`fault`] — deterministic crash-schedule sweeps: the store driven
//!   through seed-derived crash/resume/merge interleavings on a simulated
//!   disk (`mc_fault::SimDisk`), one record or one seed-sized batch per
//!   commit, asserting the crash invariant and canonical byte identity
//!   (`chebymc fault sweep`).
//! * [`accounting`] — shared completion arithmetic (points complete,
//!   per-shard progress) used by the runner, `chebymc exp status`, and
//!   the mc-serve coordinator's lease table.
//! * [`progress`] — the throttled stderr progress/ETA reporter.
//! * [`aggregate`](mod@aggregate) — per-point means (summed in replica
//!   order, so they do not depend on the run's thread count or sharding)
//!   and CSV export.
//! * [`catalog`] — the built-in campaign definitions: every table, figure
//!   and ablation of the paper plus the policy arena and automotive
//!   extensions, run by `chebymc exp` and `chebymc serve`.

#![warn(missing_docs)]

pub mod accounting;
pub mod aggregate;
pub mod catalog;
pub mod fault;
pub mod progress;
pub mod run;
pub mod spec;
pub mod store;

pub use accounting::{points_complete, shard_progress, ShardProgress};
pub use aggregate::{aggregate, export_points_csv, export_units_csv, PointAggregate};
pub use catalog::{Campaign, CatalogOptions};
pub use fault::{sweep, Sabotage, SweepConfig, SweepReport, Violation};
pub use run::{run_campaign, RunConfig, RunSummary, Shard, UnitRunner};
pub use spec::{unit_seed, CampaignSpec, Param, PointSpec, WorkUnit};
pub use store::{Metric, Store, StoreHeader, UnitRecord, SCHEMA_VERSION};

use std::error::Error;
use std::fmt;

/// Errors produced by the experiment subsystem.
#[derive(Debug)]
#[non_exhaustive]
pub enum ExpError {
    /// An I/O failure on the result store or an export file.
    Io {
        /// The offending path.
        path: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A store file violates its own format (corruption that truncating
    /// the tail cannot repair, duplicate units, seed mismatches).
    Store {
        /// The offending path (or `<memory>`).
        path: String,
        /// What was violated.
        detail: String,
    },
    /// A store belongs to a different campaign (fingerprint or schema
    /// version mismatch) — resuming or merging it would silently mix
    /// incompatible results.
    Mismatch {
        /// The offending path (or `<memory>`).
        path: String,
        /// What disagreed.
        detail: String,
    },
    /// The campaign failed its `E0xx` static analysis; the report carries
    /// every finding.
    Lint(mc_lint::LintReport),
    /// A unit runner failed inside the core scheme.
    Core(chebymc_core::CoreError),
    /// A malformed request (unknown campaign, bad shard syntax, …).
    Config(String),
    /// Aggregation was asked for before every replica of a point
    /// completed.
    Incomplete(String),
}

impl fmt::Display for ExpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpError::Io { path, source } => write!(f, "{path}: {source}"),
            ExpError::Store { path, detail } => write!(f, "{path}: corrupt store: {detail}"),
            ExpError::Mismatch { path, detail } => {
                write!(f, "{path}: store belongs to a different campaign: {detail}")
            }
            ExpError::Lint(report) => {
                write!(
                    f,
                    "campaign failed static analysis with {} error(s)",
                    report.count(mc_lint::Severity::Error)
                )
            }
            ExpError::Core(e) => write!(f, "unit failed: {e}"),
            ExpError::Config(msg) => write!(f, "{msg}"),
            ExpError::Incomplete(msg) => write!(f, "campaign incomplete: {msg}"),
        }
    }
}

impl Error for ExpError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExpError::Io { source, .. } => Some(source),
            ExpError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<chebymc_core::CoreError> for ExpError {
    fn from(e: chebymc_core::CoreError) -> Self {
        ExpError::Core(e)
    }
}

impl From<mc_opt::OptError> for ExpError {
    fn from(e: mc_opt::OptError) -> Self {
        ExpError::Core(e.into())
    }
}

impl From<mc_task::TaskError> for ExpError {
    fn from(e: mc_task::TaskError) -> Self {
        ExpError::Core(e.into())
    }
}

impl From<mc_sched::SchedError> for ExpError {
    fn from(e: mc_sched::SchedError) -> Self {
        ExpError::Core(e.into())
    }
}

impl From<mc_exec::ExecError> for ExpError {
    fn from(e: mc_exec::ExecError) -> Self {
        ExpError::Config(format!("benchmark error: {e}"))
    }
}

impl From<mc_stats::StatsError> for ExpError {
    fn from(e: mc_stats::StatsError) -> Self {
        ExpError::Config(format!("statistics error: {e}"))
    }
}

impl From<mc_lint::LintReport> for ExpError {
    fn from(report: mc_lint::LintReport) -> Self {
        ExpError::Lint(report)
    }
}

/// Wraps an I/O error with its path.
pub(crate) fn io_err(path: &std::path::Path, source: std::io::Error) -> ExpError {
    ExpError::Io {
        path: path.display().to_string(),
        source,
    }
}

/// Wraps an I/O error with a display label (for stores that are not
/// backed by a filesystem path, e.g. simulated disks).
pub(crate) fn label_io_err(label: &str, source: std::io::Error) -> ExpError {
    ExpError::Io {
        path: label.to_string(),
        source,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_their_context() {
        let e = ExpError::Store {
            path: "run.jsonl".into(),
            detail: "duplicate unit 3".into(),
        };
        assert!(e.to_string().contains("run.jsonl"));
        assert!(e.to_string().contains("duplicate unit 3"));
        let e = ExpError::Mismatch {
            path: "x".into(),
            detail: "fingerprint".into(),
        };
        assert!(e.to_string().contains("different campaign"));
        assert!(ExpError::Config("bad".into()).to_string().contains("bad"));
    }

    #[test]
    fn lint_reports_convert() {
        let mut report = mc_lint::LintReport::new();
        report.push(mc_lint::Diagnostic::new(
            mc_lint::Code::E001,
            "campaign:x",
            "empty axis",
        ));
        let e: ExpError = report.into();
        assert!(e.to_string().contains("1 error"));
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ExpError>();
    }
}
