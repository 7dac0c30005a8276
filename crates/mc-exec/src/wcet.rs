//! The miniature static WCET analyser (OTAWA stand-in).
//!
//! [`analyze`] runs both the tree analysis and the CFG analysis of a
//! [`Program`] and cross-checks them, the way production WCET tools validate
//! structural results against IPET results. The returned [`WcetReport`]
//! carries the full best/average/worst-case picture that Fig. 1 of the paper
//! illustrates.

use crate::program::Program;
use crate::ExecError;
use serde::{Deserialize, Serialize};

/// The result of statically analysing a program model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WcetReport {
    /// WCET from the structural (tree) analysis, in cycles.
    pub wcet: u64,
    /// Best-case execution time, in cycles.
    pub bcet: u64,
    /// Model-based average-case estimate, in cycles.
    pub acet_estimate: f64,
    /// Number of basic blocks in the model.
    pub block_count: usize,
    /// Number of live CFG nodes after lowering (includes synthetic
    /// entry/join/exit nodes).
    pub cfg_node_count: usize,
}

impl WcetReport {
    /// The WCET/ACET gap the paper's motivation section highlights.
    pub fn wcet_acet_ratio(&self) -> f64 {
        self.wcet as f64 / self.acet_estimate
    }
}

/// Statically analyses `program`, cross-checking the tree and CFG analyses.
///
/// # Errors
///
/// Propagates structural errors from either analysis and returns
/// [`ExecError::AnalysisMismatch`] when the two disagree (which would
/// indicate a lowering bug — the analyses are algorithmically independent).
///
/// # Example
///
/// ```
/// use mc_exec::program::{BasicBlock, Program};
/// use mc_exec::wcet::analyze;
///
/// # fn main() -> Result<(), mc_exec::ExecError> {
/// let p = Program::fixed_loop(
///     BasicBlock::new("header", 2),
///     10,
///     Program::block("body", 7),
/// );
/// let report = analyze(&p)?;
/// assert_eq!(report.wcet, 11 * 2 + 10 * 7);
/// # Ok(())
/// # }
/// ```
pub fn analyze(program: &Program) -> Result<WcetReport, ExecError> {
    program.validate()?;
    let tree_wcet = program.wcet()?;
    let cfg = program.to_cfg()?;
    let cfg_wcet = cfg.wcet()?;
    if tree_wcet != cfg_wcet {
        return Err(ExecError::AnalysisMismatch {
            tree: tree_wcet,
            cfg: cfg_wcet,
        });
    }
    Ok(WcetReport {
        wcet: tree_wcet,
        bcet: program.bcet()?,
        acet_estimate: program.acet_estimate(),
        block_count: program.block_count(),
        cfg_node_count: cfg.live_node_count(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::BasicBlock;

    #[test]
    fn report_fields_are_consistent() {
        let p = Program::seq([
            Program::block("init", 10),
            Program::branch(
                BasicBlock::new("cond", 1),
                Program::block("t", 100),
                Program::block("e", 2),
                0.1,
            ),
        ]);
        let r = analyze(&p).unwrap();
        assert_eq!(r.wcet, 111);
        assert_eq!(r.bcet, 13);
        assert!((r.acet_estimate - (11.0 + 0.1 * 100.0 + 0.9 * 2.0)).abs() < 1e-9);
        assert_eq!(r.block_count, 4);
        assert!(r.cfg_node_count >= r.block_count);
        assert!(r.wcet_acet_ratio() > 1.0);
    }

    #[test]
    fn invalid_program_is_rejected() {
        let p = Program::branch(
            BasicBlock::new("c", 1),
            Program::block("t", 1),
            Program::block("e", 1),
            2.0,
        );
        assert!(matches!(
            analyze(&p).unwrap_err(),
            ExecError::InvalidProgram { .. }
        ));
    }

    #[test]
    fn deep_nesting_analyses_agree() {
        let mut p = Program::block("core", 3);
        for depth in 0..6 {
            p = Program::fixed_loop(BasicBlock::new(format!("h{depth}"), 1), 3, p);
        }
        let r = analyze(&p).unwrap();
        // Verified by construction through the cross-check; spot-check the
        // innermost term: 3^6 core executions.
        assert!(r.wcet >= 3u64.pow(6) * 3);
    }
}
