//! Structured program models.
//!
//! A [`Program`] is an abstract-syntax-level model of a benchmark: basic
//! blocks with cycle costs composed by sequencing, branching and bounded
//! loops. Two independent analyses are available:
//!
//! * a *tree* analysis ([`Program::wcet`], [`Program::bcet`],
//!   [`Program::acet_estimate`]) that folds the structure directly, and
//! * a *graph* analysis via [`Program::to_cfg`] + [`crate::cfg::Cfg::wcet`],
//!   which exercises dominator/natural-loop machinery.
//!
//! The two must agree on WCET; `crate::wcet::analyze` checks that, mirroring
//! how production WCET tools cross-validate structural and IPET results.

use crate::cfg::{Cfg, NodeId};
use crate::ExecError;
use serde::{Deserialize, Serialize};

/// A cost-annotated basic block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BasicBlock {
    /// Diagnostic name.
    pub name: String,
    /// Execution cost in cycles.
    pub cost: u64,
}

impl BasicBlock {
    /// Creates a block.
    pub fn new(name: impl Into<String>, cost: u64) -> Self {
        BasicBlock {
            name: name.into(),
            cost,
        }
    }
}

/// A structured program fragment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Program {
    /// A straight-line basic block.
    Block(BasicBlock),
    /// Sequential composition.
    Seq(Vec<Program>),
    /// Two-way branch. `taken_probability` is the probability of the *then*
    /// arm and is only used by the average-case estimate.
    Branch {
        /// Condition-evaluation block.
        cond: BasicBlock,
        /// Arm taken with probability `taken_probability`.
        then_branch: Box<Program>,
        /// Arm taken otherwise.
        else_branch: Box<Program>,
        /// Probability of the then-arm, in `[0, 1]`.
        taken_probability: f64,
    },
    /// A bounded loop. The header executes `iterations + 1` times (the final
    /// test exits); the body executes `iterations` times, where `iterations`
    /// ranges over `[min_iterations, bound]`. `avg_iterations` drives the
    /// average-case estimate.
    Loop {
        /// Loop test/increment block.
        header: BasicBlock,
        /// Worst-case iteration bound.
        bound: u64,
        /// Best-case iteration count (`≤ bound`).
        min_iterations: u64,
        /// Average iteration count (`min_iterations ≤ avg ≤ bound`).
        avg_iterations: f64,
        /// Loop body.
        body: Box<Program>,
    },
}

impl Program {
    /// A single block program.
    pub fn block(name: impl Into<String>, cost: u64) -> Self {
        Program::Block(BasicBlock::new(name, cost))
    }

    /// Sequential composition of fragments.
    pub fn seq(parts: impl IntoIterator<Item = Program>) -> Self {
        Program::Seq(parts.into_iter().collect())
    }

    /// A branch (see [`Program::Branch`]).
    pub fn branch(
        cond: BasicBlock,
        then_branch: Program,
        else_branch: Program,
        taken_probability: f64,
    ) -> Self {
        Program::Branch {
            cond,
            then_branch: Box::new(then_branch),
            else_branch: Box::new(else_branch),
            taken_probability,
        }
    }

    /// A loop with equal min/avg/max iteration counts.
    pub fn fixed_loop(header: BasicBlock, iterations: u64, body: Program) -> Self {
        Program::Loop {
            header,
            bound: iterations,
            min_iterations: iterations,
            avg_iterations: iterations as f64,
            body: Box::new(body),
        }
    }

    /// A loop with distinct bound/min/average iteration counts.
    pub fn variable_loop(
        header: BasicBlock,
        bound: u64,
        min_iterations: u64,
        avg_iterations: f64,
        body: Program,
    ) -> Self {
        Program::Loop {
            header,
            bound,
            min_iterations,
            avg_iterations,
            body: Box::new(body),
        }
    }

    /// Validates structural annotations: probabilities in `[0, 1]`,
    /// `min_iterations ≤ avg_iterations ≤ bound`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::InvalidProgram`] on the first violation.
    pub fn validate(&self) -> Result<(), ExecError> {
        match self {
            Program::Block(_) => Ok(()),
            Program::Seq(parts) => parts.iter().try_for_each(Program::validate),
            Program::Branch {
                then_branch,
                else_branch,
                taken_probability,
                ..
            } => {
                if !taken_probability.is_finite() || !(0.0..=1.0).contains(taken_probability) {
                    return Err(ExecError::InvalidProgram {
                        reason: "branch probability must be in [0, 1]",
                    });
                }
                then_branch.validate()?;
                else_branch.validate()
            }
            Program::Loop {
                bound,
                min_iterations,
                avg_iterations,
                body,
                ..
            } => {
                if min_iterations > bound {
                    return Err(ExecError::InvalidProgram {
                        reason: "loop min_iterations must not exceed the bound",
                    });
                }
                if !avg_iterations.is_finite()
                    || *avg_iterations < *min_iterations as f64
                    || *avg_iterations > *bound as f64
                {
                    return Err(ExecError::InvalidProgram {
                        reason: "loop avg_iterations must lie within [min_iterations, bound]",
                    });
                }
                body.validate()
            }
        }
    }

    /// Worst-case execution time (tree analysis): every branch takes its
    /// costlier arm, every loop runs to its bound.
    ///
    /// # Errors
    ///
    /// [`ExecError::CostOverflow`] when the cost exceeds 64 bits.
    pub fn wcet(&self) -> Result<u64, ExecError> {
        match self {
            Program::Block(b) => Ok(b.cost),
            Program::Seq(parts) => total(parts.iter().map(Program::wcet)),
            Program::Branch {
                cond,
                then_branch,
                else_branch,
                ..
            } => cond
                .cost
                .checked_add(then_branch.wcet()?.max(else_branch.wcet()?))
                .ok_or(ExecError::CostOverflow),
            Program::Loop {
                header,
                bound,
                body,
                ..
            } => loop_cost(header.cost, *bound, body.wcet()?),
        }
    }

    /// Best-case execution time: cheaper branch arms, minimum iterations.
    ///
    /// # Errors
    ///
    /// [`ExecError::CostOverflow`] when the cost exceeds 64 bits.
    pub fn bcet(&self) -> Result<u64, ExecError> {
        match self {
            Program::Block(b) => Ok(b.cost),
            Program::Seq(parts) => total(parts.iter().map(Program::bcet)),
            Program::Branch {
                cond,
                then_branch,
                else_branch,
                ..
            } => cond
                .cost
                .checked_add(then_branch.bcet()?.min(else_branch.bcet()?))
                .ok_or(ExecError::CostOverflow),
            Program::Loop {
                header,
                min_iterations,
                body,
                ..
            } => loop_cost(header.cost, *min_iterations, body.bcet()?),
        }
    }

    /// Expected execution time under the structural annotations
    /// (branch probabilities, average iteration counts). This is a model
    /// *estimate*, not a measurement — the paper's ACET comes from traces.
    pub fn acet_estimate(&self) -> f64 {
        match self {
            Program::Block(b) => b.cost as f64,
            Program::Seq(parts) => parts.iter().map(Program::acet_estimate).sum(),
            Program::Branch {
                cond,
                then_branch,
                else_branch,
                taken_probability,
            } => {
                cond.cost as f64
                    + taken_probability * then_branch.acet_estimate()
                    + (1.0 - taken_probability) * else_branch.acet_estimate()
            }
            Program::Loop {
                header,
                avg_iterations,
                body,
                ..
            } => {
                (avg_iterations + 1.0) * header.cost as f64 + avg_iterations * body.acet_estimate()
            }
        }
    }

    /// Number of basic blocks in the model.
    pub fn block_count(&self) -> usize {
        match self {
            Program::Block(_) => 1,
            Program::Seq(parts) => parts.iter().map(Program::block_count).sum(),
            Program::Branch {
                then_branch,
                else_branch,
                ..
            } => 1 + then_branch.block_count() + else_branch.block_count(),
            Program::Loop { body, .. } => 1 + body.block_count(),
        }
    }

    /// Lowers the structured program to a [`Cfg`] with loop bounds attached,
    /// adding zero-cost entry/join/exit nodes where control flow merges.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::InvalidProgram`] when [`Program::validate`]
    /// fails.
    pub fn to_cfg(&self) -> Result<Cfg, ExecError> {
        self.validate()?;
        let mut cfg = Cfg::new();
        let entry = cfg.add_node("entry", 0);
        let (first, last) = self.lower(&mut cfg)?;
        cfg.add_edge(entry, first)?;
        let exit = cfg.add_node("exit", 0);
        cfg.add_edge(last, exit)?;
        cfg.set_entry(entry)?;
        cfg.set_exit(exit)?;
        Ok(cfg)
    }

    /// Lowers this fragment, returning its (entry, exit) nodes.
    fn lower(&self, cfg: &mut Cfg) -> Result<(NodeId, NodeId), ExecError> {
        match self {
            Program::Block(b) => {
                let n = cfg.add_node(b.name.clone(), b.cost);
                Ok((n, n))
            }
            Program::Seq(parts) => {
                if parts.is_empty() {
                    let n = cfg.add_node("nop", 0);
                    return Ok((n, n));
                }
                let mut first = None;
                let mut prev: Option<NodeId> = None;
                for p in parts {
                    let (lo, hi) = p.lower(cfg)?;
                    if let Some(prev) = prev {
                        cfg.add_edge(prev, lo)?;
                    }
                    if first.is_none() {
                        first = Some(lo);
                    }
                    prev = Some(hi);
                }
                Ok((
                    first.expect("non-empty sequence"),
                    prev.expect("non-empty sequence"),
                ))
            }
            Program::Branch {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                let c = cfg.add_node(cond.name.clone(), cond.cost);
                let (t_lo, t_hi) = then_branch.lower(cfg)?;
                let (e_lo, e_hi) = else_branch.lower(cfg)?;
                let join = cfg.add_node("join", 0);
                cfg.add_edge(c, t_lo)?;
                cfg.add_edge(c, e_lo)?;
                cfg.add_edge(t_hi, join)?;
                cfg.add_edge(e_hi, join)?;
                Ok((c, join))
            }
            Program::Loop {
                header,
                bound,
                body,
                ..
            } => {
                let h = cfg.add_node(header.name.clone(), header.cost);
                cfg.set_loop_bound(h, *bound)?;
                let (b_lo, b_hi) = body.lower(cfg)?;
                cfg.add_edge(h, b_lo)?;
                cfg.add_edge(b_hi, h)?;
                // Control leaves the loop from the header.
                Ok((h, h))
            }
        }
    }
}

/// The sum of `costs`, or the first error among them.
fn total(costs: impl IntoIterator<Item = Result<u64, ExecError>>) -> Result<u64, ExecError> {
    costs.into_iter().try_fold(0u64, |sum, cost| {
        sum.checked_add(cost?).ok_or(ExecError::CostOverflow)
    })
}

/// The cost of a loop that runs `iterations` times: its header executes
/// `iterations + 1` times and its body `iterations` times.
fn loop_cost(header: u64, iterations: u64, body: u64) -> Result<u64, ExecError> {
    let headers = iterations
        .checked_add(1)
        .and_then(|n| n.checked_mul(header));
    let bodies = iterations.checked_mul(body);
    headers
        .zip(bodies)
        .and_then(|(h, b)| h.checked_add(b))
        .ok_or(ExecError::CostOverflow)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bb(name: &str, cost: u64) -> BasicBlock {
        BasicBlock::new(name, cost)
    }

    #[test]
    fn block_costs_are_exact() {
        let p = Program::block("b", 42);
        assert_eq!(p.wcet().unwrap(), 42);
        assert_eq!(p.bcet().unwrap(), 42);
        assert_eq!(p.acet_estimate(), 42.0);
        assert_eq!(p.block_count(), 1);
    }

    #[test]
    fn seq_sums() {
        let p = Program::seq([Program::block("a", 1), Program::block("b", 2)]);
        assert_eq!(p.wcet().unwrap(), 3);
        assert_eq!(p.bcet().unwrap(), 3);
        assert_eq!(p.acet_estimate(), 3.0);
    }

    #[test]
    fn branch_worst_best_average() {
        let p = Program::branch(
            bb("cond", 1),
            Program::block("then", 10),
            Program::block("else", 4),
            0.25,
        );
        assert_eq!(p.wcet().unwrap(), 11);
        assert_eq!(p.bcet().unwrap(), 5);
        assert!((p.acet_estimate() - (1.0 + 0.25 * 10.0 + 0.75 * 4.0)).abs() < 1e-12);
    }

    #[test]
    fn loop_analysis_matches_formulas() {
        let p = Program::variable_loop(bb("h", 2), 10, 1, 4.0, Program::block("body", 7));
        assert_eq!(p.wcet().unwrap(), 11 * 2 + 10 * 7);
        assert_eq!(p.bcet().unwrap(), 2 * 2 + 7);
        assert!((p.acet_estimate() - (5.0 * 2.0 + 4.0 * 7.0)).abs() < 1e-12);
    }

    #[test]
    fn bcet_never_exceeds_acet_never_exceeds_wcet() {
        let p = Program::seq([
            Program::branch(
                bb("c", 1),
                Program::block("t", 100),
                Program::block("e", 1),
                0.5,
            ),
            Program::variable_loop(bb("h", 1), 50, 0, 20.0, Program::block("b", 3)),
        ]);
        assert!(p.bcet().unwrap() as f64 <= p.acet_estimate());
        assert!(p.acet_estimate() <= p.wcet().unwrap() as f64);
    }

    #[test]
    fn validate_rejects_bad_probability_and_iterations() {
        let p = Program::branch(
            bb("c", 1),
            Program::block("t", 1),
            Program::block("e", 1),
            1.5,
        );
        assert!(p.validate().is_err());

        let p = Program::variable_loop(bb("h", 1), 5, 6, 5.0, Program::block("b", 1));
        assert!(p.validate().is_err());

        let p = Program::variable_loop(bb("h", 1), 5, 0, 7.0, Program::block("b", 1));
        assert!(p.validate().is_err());

        // Nested violations are found.
        let p = Program::seq([Program::variable_loop(
            bb("h", 1),
            5,
            0,
            2.0,
            Program::branch(
                bb("c", 1),
                Program::block("t", 1),
                Program::block("e", 1),
                -0.1,
            ),
        )]);
        assert!(p.validate().is_err());
    }

    #[test]
    fn cfg_lowering_agrees_with_tree_wcet_on_block() {
        let p = Program::block("b", 42);
        assert_eq!(p.to_cfg().unwrap().wcet().unwrap(), 42);
    }

    #[test]
    fn cfg_lowering_agrees_on_branch() {
        let p = Program::branch(
            bb("c", 3),
            Program::block("t", 10),
            Program::block("e", 4),
            0.5,
        );
        assert_eq!(p.to_cfg().unwrap().wcet().unwrap(), p.wcet().unwrap());
    }

    #[test]
    fn cfg_lowering_agrees_on_loop() {
        let p = Program::fixed_loop(bb("h", 2), 10, Program::block("b", 7));
        assert_eq!(p.to_cfg().unwrap().wcet().unwrap(), p.wcet().unwrap());
    }

    #[test]
    fn cfg_lowering_agrees_on_nested_structures() {
        let p = Program::seq([
            Program::block("init", 5),
            Program::fixed_loop(
                bb("outer", 2),
                10,
                Program::seq([
                    Program::branch(
                        bb("c", 1),
                        Program::fixed_loop(bb("inner", 1), 3, Program::block("ib", 4)),
                        Program::block("fast", 2),
                        0.5,
                    ),
                    Program::block("tail", 1),
                ]),
            ),
            Program::block("fini", 3),
        ]);
        assert_eq!(p.to_cfg().unwrap().wcet().unwrap(), p.wcet().unwrap());
    }

    #[test]
    fn empty_seq_is_a_nop() {
        let p = Program::seq([]);
        assert_eq!(p.wcet().unwrap(), 0);
        assert_eq!(p.to_cfg().unwrap().wcet().unwrap(), 0);
    }

    #[test]
    fn to_cfg_rejects_invalid_programs() {
        let p = Program::branch(
            bb("c", 1),
            Program::block("t", 1),
            Program::block("e", 1),
            f64::NAN,
        );
        assert!(matches!(
            p.to_cfg().unwrap_err(),
            ExecError::InvalidProgram { .. }
        ));
    }

    mod properties {
        use super::*;
        use mc_fault::{assert_prop, FaultRng, PropConfig};

        /// A random structured program nesting `depth` levels of
        /// sequences, branches and loops over single blocks.
        fn arb_program(rng: &mut FaultRng, depth: usize) -> Program {
            if depth == 0 {
                return Program::block("b", rng.below(100));
            }
            match rng.below(3) {
                0 => {
                    let n = rng.below(4);
                    Program::seq((0..n).map(|_| arb_program(rng, depth - 1)))
                }
                1 => {
                    let (t, e) = (arb_program(rng, depth - 1), arb_program(rng, depth - 1));
                    Program::branch(BasicBlock::new("c", rng.below(20)), t, e, rng.f64())
                }
                _ => {
                    let b = arb_program(rng, depth - 1);
                    let (bound, min, c) = (rng.below(8), rng.below(8), rng.below(20));
                    let min = min.min(bound);
                    let avg = (min + bound) as f64 / 2.0;
                    Program::variable_loop(BasicBlock::new("h", c), bound, min, avg, b)
                }
            }
        }

        #[test]
        fn analyses_are_ordered() {
            assert_prop(
                &PropConfig::named("analyses_are_ordered"),
                // A program seed and its depth, which shrinks toward a
                // single block.
                |rng| (rng.next_u64(), 4usize),
                |&(seed, depth)| {
                    let p = arb_program(&mut FaultRng::new(seed), depth);
                    p.validate().unwrap();
                    assert!(p.bcet().unwrap() <= p.wcet().unwrap());
                    assert!(p.bcet().unwrap() as f64 <= p.acet_estimate() + 1e-9);
                    assert!(p.acet_estimate() <= p.wcet().unwrap() as f64 + 1e-9);
                    Ok(())
                },
            );
        }

        #[test]
        fn tree_and_graph_wcet_agree() {
            assert_prop(
                &PropConfig::named("tree_and_graph_wcet_agree"),
                |rng| (rng.next_u64(), 4usize),
                |&(seed, depth)| {
                    let p = arb_program(&mut FaultRng::new(seed), depth);
                    let cfg = p.to_cfg().unwrap();
                    assert_eq!(cfg.wcet().unwrap(), p.wcet().unwrap());
                    Ok(())
                },
            );
        }
    }
}
