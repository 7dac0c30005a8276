//! Execution-time simulation substrate for the `chebymc` workspace.
//!
//! The paper measures benchmark execution times on MEET (an ARM
//! instruction-level simulator) and obtains pessimistic WCETs from OTAWA
//! (a static analyser). Neither is available here, so this crate builds the
//! closest synthetic equivalents that exercise the same downstream code:
//!
//! * [`cfg`](mod@cfg) / [`program`] / [`wcet`] — a miniature structural WCET analyser
//!   (dominators, natural-loop collapsing, DAG longest path) over explicit
//!   program models; the OTAWA stand-in.
//! * [`sampler`] / [`trace`] — seeded execution-time sampling bounded by the
//!   pessimistic WCET; the MEET stand-in.
//! * [`benchmarks`] — the paper's Table I suite (qsort-10/100/10000, corner,
//!   edge, smooth, epic) with distribution models calibrated to the
//!   published `(ACET, σ, WCET_pes)` triples.
//!
//! # Example
//!
//! ```
//! use mc_exec::benchmarks;
//!
//! # fn main() -> Result<(), mc_exec::ExecError> {
//! let bench = benchmarks::qsort(100)?;
//! // Static analysis reproduces Table I's pessimistic WCET…
//! assert_eq!(bench.analyze()?.wcet, 410_000);
//! // …and sampling reproduces the measured behaviour.
//! let trace = bench.sample_trace(1_000, 42)?;
//! assert!(trace.summary()?.mean() < 410_000.0 / 8.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(
    clippy::unwrap_used,
    clippy::undocumented_unsafe_blocks,
    clippy::cast_possible_truncation
)]

pub mod benchmarks;
pub mod cfg;
pub mod parse;
pub mod platform;
pub mod program;
pub mod sampler;
pub mod trace;
pub mod wcet;

use std::error::Error;
use std::fmt;

pub use benchmarks::Benchmark;
pub use sampler::ExecutionModel;
pub use trace::ExecutionTrace;

/// Errors produced by the execution-time substrate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ExecError {
    /// A CFG operation referenced a node that does not exist.
    UnknownNode {
        /// The out-of-range index.
        index: usize,
    },
    /// A CFG analysis ran without an entry or exit being set.
    MissingEntryOrExit,
    /// A live CFG node is unreachable from the entry.
    UnreachableNode {
        /// The unreachable node's index.
        index: usize,
    },
    /// The CFG contains a cycle that is not a bounded natural loop.
    IrreducibleCfg,
    /// A natural loop's header carries no iteration bound.
    MissingLoopBound {
        /// The header node's index.
        index: usize,
    },
    /// A WCET computation overflowed 64 bits.
    CostOverflow,
    /// A program model violates its structural annotations.
    InvalidProgram {
        /// What was violated.
        reason: &'static str,
    },
    /// The tree and CFG analyses disagreed (internal invariant).
    AnalysisMismatch {
        /// Tree-analysis WCET.
        tree: u64,
        /// CFG-analysis WCET.
        cfg: u64,
    },
    /// An execution model was configured inconsistently.
    InvalidModel {
        /// What was violated.
        reason: &'static str,
    },
    /// A trace operation received invalid samples.
    InvalidTrace {
        /// What was violated.
        reason: &'static str,
    },
    /// No benchmark with the requested name exists.
    UnknownBenchmark {
        /// The unrecognised name.
        name: String,
    },
    /// An underlying statistics error.
    Stats(mc_stats::StatsError),
    /// JSON (de)serialisation failed.
    Serialization {
        /// Serialiser error text.
        detail: String,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownNode { index } => write!(f, "unknown CFG node index {index}"),
            ExecError::MissingEntryOrExit => {
                write!(f, "CFG analysis requires an entry and an exit node")
            }
            ExecError::UnreachableNode { index } => {
                write!(f, "CFG node {index} is unreachable from the entry")
            }
            ExecError::IrreducibleCfg => {
                write!(f, "CFG contains an irreducible cycle; cannot bound it")
            }
            ExecError::MissingLoopBound { index } => {
                write!(f, "loop headed at node {index} has no iteration bound")
            }
            ExecError::CostOverflow => write!(f, "WCET computation overflowed 64 bits"),
            ExecError::InvalidProgram { reason } => write!(f, "invalid program model: {reason}"),
            ExecError::AnalysisMismatch { tree, cfg } => {
                write!(f, "tree and CFG WCET analyses disagree: {tree} vs {cfg}")
            }
            ExecError::InvalidModel { reason } => write!(f, "invalid execution model: {reason}"),
            ExecError::InvalidTrace { reason } => write!(f, "invalid trace: {reason}"),
            ExecError::UnknownBenchmark { name } => write!(f, "unknown benchmark `{name}`"),
            ExecError::Stats(e) => write!(f, "statistics error: {e}"),
            ExecError::Serialization { detail } => write!(f, "serialization failed: {detail}"),
        }
    }
}

impl Error for ExecError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExecError::Stats(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mc_stats::StatsError> for ExecError {
    fn from(e: mc_stats::StatsError) -> Self {
        ExecError::Stats(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        assert!(ExecError::IrreducibleCfg
            .to_string()
            .contains("irreducible"));
        assert!(ExecError::UnknownNode { index: 3 }
            .to_string()
            .contains('3'));
        assert!(ExecError::AnalysisMismatch { tree: 1, cfg: 2 }
            .to_string()
            .contains("disagree"));
        let e = ExecError::Stats(mc_stats::StatsError::EmptySamples);
        assert!(e.to_string().contains("statistics"));
    }

    #[test]
    fn stats_errors_convert_and_chain() {
        let e: ExecError = mc_stats::StatsError::EmptySamples.into();
        assert!(matches!(e, ExecError::Stats(_)));
        assert!(Error::source(&e).is_some());
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ExecError>();
    }
}
