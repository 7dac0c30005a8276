//! CFG structural diagnostics (`C0xx`): reachability both ways, loop-bound
//! placement, reducibility, and edges that touch collapsed blocks.
//!
//! The pass reads the structure the WCET analyser itself derives,
//! [`Cfg::structure`] — Cooper–Harvey–Kennedy immediate dominators over a
//! reverse postorder, back edges `u → v` where `v` dominates `u`, their
//! headers, reducibility — and reports *why* a graph is unanalysable
//! instead of failing late inside the longest-path computation. A back
//! edge whose header carries no `set_loop_bound` is an error here
//! ([`Code::C005`]), not an eventual `ExecError::MissingLoopBound` deep
//! in IPET.

use crate::diag::{Code, Diagnostic, LintReport};
use mc_exec::cfg::{Cfg, NodeId};

/// Human-readable label for a node: `name (nK)`.
fn label(cfg: &Cfg, idx: usize) -> String {
    let id = cfg
        .node_ids()
        .nth(idx)
        .expect("index comes from this graph");
    match cfg.node_name(id) {
        Ok(name) if !name.is_empty() => format!("{name} ({id})"),
        _ => id.to_string(),
    }
}

fn source(context: &str, cfg: &Cfg, idx: usize) -> String {
    format!("cfg:{context}/{}", label(cfg, idx))
}

/// Live predecessors of a live node, as raw indices; a dead node has none.
fn live_predecessors(cfg: &Cfg, idx: usize) -> Vec<usize> {
    let id = cfg
        .node_ids()
        .nth(idx)
        .expect("index comes from this graph");
    if !cfg.is_alive(id).unwrap_or(false) {
        return Vec::new();
    }
    cfg.predecessors(id)
        .map(|it| {
            it.filter(|&p| cfg.is_alive(p).unwrap_or(false))
                .map(NodeId::index)
                .collect()
        })
        .unwrap_or_default()
}

/// Backward reachability to `target` over live nodes.
fn reach_backward(cfg: &Cfg, target: usize) -> Vec<bool> {
    let n = cfg.node_count();
    let mut seen = vec![false; n];
    let mut stack = vec![target];
    seen[target] = true;
    while let Some(u) = stack.pop() {
        for v in live_predecessors(cfg, u) {
            if !seen[v] {
                seen[v] = true;
                stack.push(v);
            }
        }
    }
    seen
}

/// Lints one CFG. `context` names the graph in diagnostic sources (for a
/// benchmark this is the benchmark name, for a file its path).
#[must_use]
pub fn lint_cfg(cfg: &Cfg, context: &str) -> LintReport {
    let mut report = LintReport::new();
    let graph_source = format!("cfg:{context}");

    // C007: edges into or out of collapsed nodes. The public builder API
    // cannot create these, but deserialised graphs can.
    for (from, to) in cfg.edges() {
        let from_alive = cfg.is_alive(from).unwrap_or(false);
        let to_alive = cfg.is_alive(to).unwrap_or(false);
        if !from_alive || !to_alive {
            report.push(Diagnostic::new(
                Code::C007,
                format!("cfg:{context}/{from}->{to}"),
                format!(
                    "edge {from} -> {to} touches a collapsed block ({} dead); \
                     the analyser ignores it",
                    if from_alive { to } else { from },
                ),
            ));
        }
    }

    let entry = cfg.entry();
    let exit = cfg.exit();
    if entry.is_none() {
        report.push(Diagnostic::new(
            Code::C001,
            graph_source.clone(),
            "no entry block is set; call set_entry before analysis",
        ));
    }
    if exit.is_none() {
        report.push(Diagnostic::new(
            Code::C002,
            graph_source,
            "no exit block is set; call set_exit before analysis",
        ));
    }
    let Some(structure) = cfg.structure() else {
        return report; // Reachability and dominance need an entry.
    };

    for id in cfg.node_ids() {
        let idx = id.index();
        if cfg.is_alive(id).unwrap_or(false) && !structure.reachable[idx] {
            report.push(Diagnostic::new(
                Code::C003,
                source(context, cfg, idx),
                format!("block {} is unreachable from the entry", label(cfg, idx)),
            ));
        }
    }
    if let Some(exit) = exit {
        let backward = reach_backward(cfg, exit.index());
        for id in cfg.node_ids() {
            let idx = id.index();
            // Only reachable blocks: unreachable ones already carry C003.
            if cfg.is_alive(id).unwrap_or(false) && structure.reachable[idx] && !backward[idx] {
                report.push(Diagnostic::new(
                    Code::C004,
                    source(context, cfg, idx),
                    format!("block {} cannot reach the exit", label(cfg, idx)),
                ));
            }
        }
    }

    for &header in &structure.headers {
        let id = cfg
            .node_ids()
            .nth(header)
            .expect("header index comes from this graph");
        match cfg.loop_bound(id).unwrap_or(None) {
            None => {
                let tails: Vec<String> = structure
                    .back_edges
                    .iter()
                    .filter(|&&(_, h)| h == header)
                    .map(|&(t, _)| label(cfg, t))
                    .collect();
                report.push(Diagnostic::new(
                    Code::C005,
                    source(context, cfg, header),
                    format!(
                        "loop header {} (back edge from {}) has no loop bound; \
                         WCET analysis cannot bound this loop",
                        label(cfg, header),
                        tails.join(", "),
                    ),
                ));
            }
            Some(0) => {
                report.push(Diagnostic::new(
                    Code::C009,
                    source(context, cfg, header),
                    format!(
                        "loop at {} has bound 0: the body never executes",
                        label(cfg, header),
                    ),
                ));
            }
            Some(_) => {}
        }
    }

    // C008: a bound on a block that heads no loop is dead annotation —
    // usually a refactoring leftover or a bound attached to the wrong block.
    for id in cfg.node_ids() {
        let idx = id.index();
        if cfg.is_alive(id).unwrap_or(false)
            && structure.reachable[idx]
            && cfg.loop_bound(id).unwrap_or(None).is_some()
            && !structure.headers.contains(&idx)
        {
            report.push(Diagnostic::new(
                Code::C008,
                source(context, cfg, idx),
                format!(
                    "block {} carries a loop bound but heads no loop",
                    label(cfg, idx),
                ),
            ));
        }
    }

    if !structure.reducible {
        report.push(Diagnostic::new(
            Code::C006,
            format!("cfg:{context}"),
            "irreducible control flow: a cycle remains after removing all \
             dominator back edges (multiple-entry loop)",
        ));
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_exec::cfg::Cfg;

    /// entry -> header{10} -> body -> header ; header -> exit
    fn bounded_loop() -> Cfg {
        let mut cfg = Cfg::new();
        let entry = cfg.add_node("entry", 5);
        let header = cfg.add_node("header", 2);
        let body = cfg.add_node("body", 7);
        let exit = cfg.add_node("exit", 1);
        cfg.add_edge(entry, header).unwrap();
        cfg.add_edge(header, body).unwrap();
        cfg.add_edge(body, header).unwrap();
        cfg.add_edge(header, exit).unwrap();
        cfg.set_entry(entry).unwrap();
        cfg.set_exit(exit).unwrap();
        cfg.set_loop_bound(header, 10).unwrap();
        cfg
    }

    #[test]
    fn clean_loop_lints_clean() {
        let report = lint_cfg(&bounded_loop(), "demo");
        assert!(report.is_clean(), "{}", report.render_human());
    }

    #[test]
    fn nested_loops_have_two_headers() {
        // entry -> h1 -> h2 -> b -> h2 ; h2 -> h1 ; h1 -> exit
        let mut cfg = Cfg::new();
        let entry = cfg.add_node("entry", 1);
        let h1 = cfg.add_node("h1", 1);
        let h2 = cfg.add_node("h2", 1);
        let b = cfg.add_node("b", 1);
        let exit = cfg.add_node("exit", 1);
        cfg.add_edge(entry, h1).unwrap();
        cfg.add_edge(h1, h2).unwrap();
        cfg.add_edge(h2, b).unwrap();
        cfg.add_edge(b, h2).unwrap();
        cfg.add_edge(h2, h1).unwrap();
        cfg.add_edge(h1, exit).unwrap();
        cfg.set_entry(entry).unwrap();
        cfg.set_exit(exit).unwrap();
        let s = cfg.structure().unwrap();
        assert_eq!(s.headers.len(), 2);
        assert!(s.headers.contains(&h1.index()));
        assert!(s.headers.contains(&h2.index()));
        assert!(s.reducible);

        // Without bounds both headers raise C005.
        let report = lint_cfg(&cfg, "nested");
        let c005: Vec<_> = report.iter().filter(|d| d.code == Code::C005).collect();
        assert_eq!(c005.len(), 2, "{}", report.render_human());

        // Bounding both silences the pass.
        cfg.set_loop_bound(h1, 4).unwrap();
        cfg.set_loop_bound(h2, 8).unwrap();
        assert!(lint_cfg(&cfg, "nested").is_clean());
    }

    #[test]
    fn missing_entry_and_exit_are_errors() {
        let cfg = Cfg::new();
        let report = lint_cfg(&cfg, "empty");
        assert_eq!(report.codes(), vec![Code::C001, Code::C002]);
        assert!(report.has_errors());
    }

    #[test]
    fn unreachable_block_is_reported() {
        let mut cfg = bounded_loop();
        cfg.add_node("orphan", 3);
        let report = lint_cfg(&cfg, "demo");
        assert!(report.iter().any(|d| d.code == Code::C003));
        assert!(report
            .iter()
            .any(|d| d.message.contains("orphan") && d.code == Code::C003));
    }

    #[test]
    fn block_that_cannot_reach_exit_is_reported() {
        let mut cfg = bounded_loop();
        let trap = cfg.add_node("trap", 3);
        let entry = cfg.entry().unwrap();
        cfg.add_edge(entry, trap).unwrap();
        let report = lint_cfg(&cfg, "demo");
        let c004: Vec<_> = report.iter().filter(|d| d.code == Code::C004).collect();
        assert_eq!(c004.len(), 1);
        assert!(c004[0].message.contains("trap"));
    }

    #[test]
    fn unbounded_loop_is_an_error_not_a_late_failure() {
        let mut cfg = bounded_loop();
        // Re-add the same shape without a bound on a second loop.
        let h = cfg.add_node("h2", 1);
        let t = cfg.add_node("t2", 1);
        let entry = cfg.entry().unwrap();
        let exit = cfg.exit().unwrap();
        cfg.add_edge(entry, h).unwrap();
        cfg.add_edge(h, t).unwrap();
        cfg.add_edge(t, h).unwrap();
        cfg.add_edge(h, exit).unwrap();
        let report = lint_cfg(&cfg, "demo");
        let c005: Vec<_> = report.iter().filter(|d| d.code == Code::C005).collect();
        assert_eq!(c005.len(), 1, "{}", report.render_human());
        assert!(c005[0].message.contains("h2"));
        assert!(report.has_errors());
    }

    #[test]
    fn irreducible_graph_is_detected() {
        // Two-entry cycle: entry branches to both b and c, which form a
        // cycle between them. Neither dominates the other.
        let mut cfg = Cfg::new();
        let entry = cfg.add_node("entry", 1);
        let b = cfg.add_node("b", 1);
        let c = cfg.add_node("c", 1);
        let exit = cfg.add_node("exit", 1);
        cfg.add_edge(entry, b).unwrap();
        cfg.add_edge(entry, c).unwrap();
        cfg.add_edge(b, c).unwrap();
        cfg.add_edge(c, b).unwrap();
        cfg.add_edge(b, exit).unwrap();
        cfg.set_entry(entry).unwrap();
        cfg.set_exit(exit).unwrap();
        let s = cfg.structure().unwrap();
        assert!(!s.reducible);
        let report = lint_cfg(&cfg, "irr");
        assert!(report.iter().any(|d| d.code == Code::C006));
    }

    #[test]
    fn stray_loop_bound_is_a_warning() {
        let mut cfg = bounded_loop();
        let entry = cfg.entry().unwrap();
        cfg.set_loop_bound(entry, 3).unwrap();
        let report = lint_cfg(&cfg, "demo");
        let c008: Vec<_> = report.iter().filter(|d| d.code == Code::C008).collect();
        assert_eq!(c008.len(), 1);
        assert!(!report.has_errors());
    }

    #[test]
    fn zero_bound_is_info() {
        let mut cfg = bounded_loop();
        let header = cfg.node_ids().nth(1).unwrap();
        cfg.set_loop_bound(header, 0).unwrap();
        let report = lint_cfg(&cfg, "demo");
        assert!(report.iter().any(|d| d.code == Code::C009));
        assert!(!report.has_errors());
    }

    #[test]
    fn self_loop_is_its_own_header() {
        let mut cfg = Cfg::new();
        let entry = cfg.add_node("entry", 1);
        let spin = cfg.add_node("spin", 1);
        let exit = cfg.add_node("exit", 1);
        cfg.add_edge(entry, spin).unwrap();
        cfg.add_edge(spin, spin).unwrap();
        cfg.add_edge(spin, exit).unwrap();
        cfg.set_entry(entry).unwrap();
        cfg.set_exit(exit).unwrap();
        let s = cfg.structure().unwrap();
        assert_eq!(s.back_edges, vec![(spin.index(), spin.index())]);
        let report = lint_cfg(&cfg, "selfloop");
        assert!(report.iter().any(|d| d.code == Code::C005));
        cfg.set_loop_bound(spin, 6).unwrap();
        assert!(lint_cfg(&cfg, "selfloop").is_clean());
    }

    #[test]
    fn structure_agrees_with_the_wcet_analyser() {
        // The analyser rejects what the linter flags as errors, and accepts
        // what the linter deems clean.
        let clean = bounded_loop();
        assert!(lint_cfg(&clean, "x").is_clean());
        assert!(clean.wcet().is_ok());

        let mut unbounded = bounded_loop();
        let h = unbounded.add_node("h2", 1);
        let entry = unbounded.entry().unwrap();
        let exit = unbounded.exit().unwrap();
        unbounded.add_edge(entry, h).unwrap();
        unbounded.add_edge(h, h).unwrap();
        unbounded.add_edge(h, exit).unwrap();
        assert!(lint_cfg(&unbounded, "x").has_errors());
        assert!(unbounded.wcet().is_err());
    }
}
