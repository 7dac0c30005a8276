//! Control-flow graphs with loop bounds.
//!
//! This is the graph half of the workspace's miniature static WCET analyser
//! (the stand-in for OTAWA, which the paper uses to obtain pessimistic
//! WCETs). A [`Cfg`] is a directed graph of basic blocks annotated with
//! cycle costs; loop headers carry explicit iteration bounds. The analyser
//! computes a safe longest-path bound by
//!
//! 1. computing immediate dominators (Cooper–Harvey–Kennedy),
//! 2. finding back edges (`u → v` where `v` dominates `u`),
//! 3. collapsing natural loops innermost-first into super-nodes whose cost
//!    is `bound × (header + longest body path) + header`,
//! 4. running a longest-path dynamic program over the remaining DAG.
//!
//! Irreducible graphs and loops without bounds are rejected — exactly the
//! conditions under which real structural WCET analysers give up. Steps 1
//! and 2 also yield a graph's [`CfgStructure`] ([`Cfg::structure`]),
//! which `mc-lint` reads to report those conditions before analysis.

use crate::ExecError;
use serde::{DeError, Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// Index of a basic block within its [`Cfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(usize);

impl NodeId {
    /// The raw index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Node {
    name: String,
    cost: u64,
    loop_bound: Option<u64>,
    alive: bool,
}

/// A control-flow graph of cost-annotated basic blocks.
///
/// # Example
///
/// ```
/// use mc_exec::cfg::Cfg;
///
/// # fn main() -> Result<(), mc_exec::ExecError> {
/// // entry -> header{bound 10} -> body -> header ; header -> exit
/// let mut cfg = Cfg::new();
/// let entry = cfg.add_node("entry", 5);
/// let header = cfg.add_node("header", 2);
/// let body = cfg.add_node("body", 7);
/// let exit = cfg.add_node("exit", 1);
/// cfg.add_edge(entry, header)?;
/// cfg.add_edge(header, body)?;
/// cfg.add_edge(body, header)?;
/// cfg.add_edge(header, exit)?;
/// cfg.set_entry(entry)?;
/// cfg.set_exit(exit)?;
/// cfg.set_loop_bound(header, 10)?;
/// // 5 + 11·2 + 10·7 + 1 = 98
/// assert_eq!(cfg.wcet()?, 98);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct Cfg {
    nodes: Vec<Node>,
    succ: Vec<Vec<usize>>,
    pred: Vec<Vec<usize>>,
    entry: Option<usize>,
    exit: Option<usize>,
}

/// The serialized fields of a [`Cfg`], read before they are checked to
/// form a graph.
#[derive(Deserialize)]
struct CfgWire {
    nodes: Vec<Node>,
    succ: Vec<Vec<usize>>,
    pred: Vec<Vec<usize>>,
    entry: Option<usize>,
    exit: Option<usize>,
}

/// A read graph keeps what the builder guarantees and every traversal
/// indexes by: one `succ` and one `pred` row per node, and an entry, exit
/// and edges inside the node list. Dead nodes and the edges that touch
/// them are kept, for `mc-lint` to report.
impl Deserialize for Cfg {
    fn from_value(v: &serde::Value) -> Result<Self, DeError> {
        let w = CfgWire::from_value(v)?;
        let n = w.nodes.len();
        if w.succ.len() != n || w.pred.len() != n {
            return Err(DeError::custom(format!(
                "a Cfg of {n} nodes has {} succ and {} pred rows",
                w.succ.len(),
                w.pred.len()
            )));
        }
        let mut indices = w
            .entry
            .iter()
            .chain(&w.exit)
            .chain(w.succ.iter().chain(&w.pred).flatten());
        if let Some(i) = indices.find(|&&i| i >= n) {
            return Err(DeError::custom(format!(
                "Cfg node index {i} is past its {n} nodes"
            )));
        }
        Ok(Cfg {
            nodes: w.nodes,
            succ: w.succ,
            pred: w.pred,
            entry: w.entry,
            exit: w.exit,
        })
    }
}

/// The loop structure of a graph's live part, seen from its entry: what
/// [`Cfg::wcet`] collapses loops by, and what `mc-lint` reports on. A
/// dead (collapsed) node has no edges, a dead entry included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CfgStructure {
    /// Immediate dominator per node index; `None` for unreachable or dead
    /// nodes. The entry is its own immediate dominator.
    pub idom: Vec<Option<usize>>,
    /// Whether each node is reachable from the entry.
    pub reachable: Vec<bool>,
    /// Back edges `(tail, header)`, where the header dominates the tail,
    /// in reverse postorder of their tails.
    pub back_edges: Vec<(usize, usize)>,
    /// Distinct loop headers, in the order of their first back edge.
    pub headers: Vec<usize>,
    /// Whether the reachable subgraph is reducible: removing the back
    /// edges leaves it acyclic.
    pub reducible: bool,
}

impl CfgStructure {
    /// Whether `a` dominates `b` (both must be reachable).
    #[must_use]
    pub fn dominates(&self, a: usize, b: usize) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom[cur] {
                Some(parent) if parent != cur => cur = parent,
                _ => return false,
            }
        }
    }
}

impl Cfg {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Cfg::default()
    }

    /// Adds a basic block with the given `name` and `cost` (in cycles) and
    /// returns its id.
    pub fn add_node(&mut self, name: impl Into<String>, cost: u64) -> NodeId {
        self.nodes.push(Node {
            name: name.into(),
            cost,
            loop_bound: None,
            alive: true,
        });
        self.succ.push(Vec::new());
        self.pred.push(Vec::new());
        NodeId(self.nodes.len() - 1)
    }

    /// Adds a directed edge. Parallel edges are merged.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::UnknownNode`] when either endpoint does not
    /// exist.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> Result<(), ExecError> {
        self.check(from)?;
        self.check(to)?;
        if !self.succ[from.0].contains(&to.0) {
            self.succ[from.0].push(to.0);
            self.pred[to.0].push(from.0);
        }
        Ok(())
    }

    /// Marks the entry block.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::UnknownNode`] when the node does not exist.
    pub fn set_entry(&mut self, node: NodeId) -> Result<(), ExecError> {
        self.check(node)?;
        self.entry = Some(node.0);
        Ok(())
    }

    /// Marks the exit block.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::UnknownNode`] when the node does not exist.
    pub fn set_exit(&mut self, node: NodeId) -> Result<(), ExecError> {
        self.check(node)?;
        self.exit = Some(node.0);
        Ok(())
    }

    /// Attaches a loop iteration bound to a (future) loop header.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::UnknownNode`] when the node does not exist.
    pub fn set_loop_bound(&mut self, header: NodeId, bound: u64) -> Result<(), ExecError> {
        self.check(header)?;
        self.nodes[header.0].loop_bound = Some(bound);
        Ok(())
    }

    /// Number of blocks ever added (including collapsed ones).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of currently live blocks.
    pub fn live_node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.alive).count()
    }

    /// The block's name.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::UnknownNode`] when the node does not exist.
    pub fn node_name(&self, node: NodeId) -> Result<&str, ExecError> {
        self.check(node)?;
        Ok(&self.nodes[node.0].name)
    }

    /// The block's cycle cost.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::UnknownNode`] when the node does not exist.
    pub fn node_cost(&self, node: NodeId) -> Result<u64, ExecError> {
        self.check(node)?;
        Ok(self.nodes[node.0].cost)
    }

    /// The entry block, if one has been set.
    pub fn entry(&self) -> Option<NodeId> {
        self.entry.map(NodeId)
    }

    /// The exit block, if one has been set.
    pub fn exit(&self) -> Option<NodeId> {
        self.exit.map(NodeId)
    }

    /// All node ids ever added, including collapsed (dead) ones.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Whether the block is still live (not collapsed away).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::UnknownNode`] when the node does not exist.
    pub fn is_alive(&self, node: NodeId) -> Result<bool, ExecError> {
        self.check(node)?;
        Ok(self.nodes[node.0].alive)
    }

    /// The block's loop bound, if one has been set.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::UnknownNode`] when the node does not exist.
    pub fn loop_bound(&self, node: NodeId) -> Result<Option<u64>, ExecError> {
        self.check(node)?;
        Ok(self.nodes[node.0].loop_bound)
    }

    /// The block's successors.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::UnknownNode`] when the node does not exist.
    pub fn successors(&self, node: NodeId) -> Result<impl Iterator<Item = NodeId> + '_, ExecError> {
        self.check(node)?;
        Ok(self.succ[node.0].iter().copied().map(NodeId))
    }

    /// The block's predecessors.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::UnknownNode`] when the node does not exist.
    pub fn predecessors(
        &self,
        node: NodeId,
    ) -> Result<impl Iterator<Item = NodeId> + '_, ExecError> {
        self.check(node)?;
        Ok(self.pred[node.0].iter().copied().map(NodeId))
    }

    /// Every directed edge in the graph, including edges incident to
    /// collapsed nodes.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.succ
            .iter()
            .enumerate()
            .flat_map(|(from, tos)| tos.iter().map(move |&to| (NodeId(from), NodeId(to))))
    }

    fn check(&self, node: NodeId) -> Result<(), ExecError> {
        if node.0 >= self.nodes.len() {
            return Err(ExecError::UnknownNode { index: node.0 });
        }
        Ok(())
    }

    fn entry_exit(&self) -> Result<(usize, usize), ExecError> {
        let entry = self.entry.ok_or(ExecError::MissingEntryOrExit)?;
        let exit = self.exit.ok_or(ExecError::MissingEntryOrExit)?;
        Ok((entry, exit))
    }

    /// Checks structural sanity: an entry and exit are set, every live node
    /// is reachable from the entry, and the exit is reachable.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::MissingEntryOrExit`] or
    /// [`ExecError::UnreachableNode`] accordingly.
    pub fn validate(&self) -> Result<(), ExecError> {
        let (entry, exit) = self.entry_exit()?;
        let (_, reach) = self.reverse_postorder(entry);
        for (i, n) in self.nodes.iter().enumerate() {
            if n.alive && !reach[i] {
                return Err(ExecError::UnreachableNode { index: i });
            }
        }
        if !reach[exit] {
            return Err(ExecError::UnreachableNode { index: exit });
        }
        Ok(())
    }

    /// The live successors of `u`; a dead node has none.
    fn live_successors(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        let succ: &[usize] = if self.nodes[u].alive {
            &self.succ[u]
        } else {
            &[]
        };
        succ.iter().copied().filter(|&v| self.nodes[v].alive)
    }

    /// Reverse postorder over live nodes reachable from the entry, and
    /// which nodes it reaches.
    fn reverse_postorder(&self, entry: usize) -> (Vec<usize>, Vec<bool>) {
        let mut post = Vec::new();
        let mut seen = vec![false; self.nodes.len()];
        seen[entry] = true;
        let mut stack = vec![(entry, self.live_successors(entry))];
        while let Some((u, succs)) = stack.last_mut() {
            let u = *u;
            match succs.find(|&v| !seen[v]) {
                Some(v) => {
                    seen[v] = true;
                    stack.push((v, self.live_successors(v)));
                }
                None => {
                    post.push(u);
                    stack.pop();
                }
            }
        }
        post.reverse();
        (post, seen)
    }

    /// Immediate dominators via Cooper–Harvey–Kennedy over the reverse
    /// postorder `rpo` from `entry`, where `order[node]` is the node's
    /// place in `rpo`. Returns `idom[node]` (entry maps to itself);
    /// dead/unreachable nodes map to `usize::MAX`.
    fn immediate_dominators(&self, entry: usize, rpo: &[usize], order: &[usize]) -> Vec<usize> {
        let mut idom = vec![usize::MAX; self.nodes.len()];
        idom[entry] = entry;
        let intersect = |idom: &[usize], order: &[usize], mut a: usize, mut b: usize| {
            while a != b {
                while order[a] > order[b] {
                    a = idom[a];
                }
                while order[b] > order[a] {
                    b = idom[b];
                }
            }
            a
        };
        let mut changed = true;
        while changed {
            changed = false;
            for &u in rpo.iter().skip(1) {
                let mut new_idom = usize::MAX;
                for &p in &self.pred[u] {
                    if !self.nodes[p].alive || idom[p] == usize::MAX {
                        continue;
                    }
                    new_idom = if new_idom == usize::MAX {
                        p
                    } else {
                        intersect(&idom, order, new_idom, p)
                    };
                }
                if new_idom != usize::MAX && idom[u] != new_idom {
                    idom[u] = new_idom;
                    changed = true;
                }
            }
        }
        idom
    }

    /// The graph's loop structure, or `None` while no entry is set.
    #[must_use]
    pub fn structure(&self) -> Option<CfgStructure> {
        self.entry.map(|entry| self.structure_from(entry))
    }

    fn structure_from(&self, entry: usize) -> CfgStructure {
        let (rpo, reachable) = self.reverse_postorder(entry);
        let mut order = vec![usize::MAX; self.nodes.len()];
        for (i, &u) in rpo.iter().enumerate() {
            order[u] = i;
        }
        let idom = self.immediate_dominators(entry, &rpo, &order);
        let mut s = CfgStructure {
            idom: idom
                .iter()
                .map(|&d| (d != usize::MAX).then_some(d))
                .collect(),
            reachable,
            back_edges: Vec::new(),
            headers: Vec::new(),
            reducible: true,
        };
        // Tails in reverse postorder: the order `mc-lint` reports loops
        // and their latches in. Every other live edge is a forward edge.
        let n = self.nodes.len();
        let mut is_header = vec![false; n];
        let mut forward = vec![Vec::new(); n];
        let mut indegree = vec![0usize; n];
        for &u in &rpo {
            for v in self.live_successors(u) {
                // A node's dominators come before it in reverse postorder.
                if order[v] <= order[u] && s.dominates(v, u) {
                    s.back_edges.push((u, v));
                    if !std::mem::replace(&mut is_header[v], true) {
                        s.headers.push(v);
                    }
                } else {
                    forward[u].push(v);
                    indegree[v] += 1;
                }
            }
        }
        // Kahn's algorithm over the forward edges: a node it cannot
        // order sits on a cycle with no dominating header.
        let mut ready: Vec<usize> = rpo.iter().copied().filter(|&u| indegree[u] == 0).collect();
        let mut ordered = 0;
        while let Some(u) = ready.pop() {
            ordered += 1;
            for &v in &forward[u] {
                indegree[v] -= 1;
                if indegree[v] == 0 {
                    ready.push(v);
                }
            }
        }
        s.reducible = ordered == rpo.len();
        s
    }

    /// Natural loop of a header: header plus every node that reaches a
    /// latch without passing through the header.
    fn natural_loop(&self, header: usize, latches: &[usize]) -> Vec<usize> {
        let mut in_loop = vec![false; self.nodes.len()];
        in_loop[header] = true;
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &l in latches {
            if !in_loop[l] {
                in_loop[l] = true;
                queue.push_back(l);
            }
        }
        while let Some(u) = queue.pop_front() {
            for &p in &self.pred[u] {
                if self.nodes[p].alive && !in_loop[p] {
                    in_loop[p] = true;
                    queue.push_back(p);
                }
            }
        }
        (0..self.nodes.len()).filter(|&i| in_loop[i]).collect()
    }

    /// Longest path (sum of node costs, endpoints inclusive) from `from` to
    /// `to` over the live sub-DAG induced by `allowed`, skipping edges in
    /// `banned_edges`.
    ///
    /// Returns `None` when `to` is unreachable, or an error when a cycle
    /// remains.
    fn dag_longest_path(
        &self,
        from: usize,
        to: usize,
        allowed: &[bool],
        banned_edges: &[(usize, usize)],
    ) -> Result<Option<u64>, ExecError> {
        // Kahn topological sort over the induced subgraph.
        let n = self.nodes.len();
        let is_banned = |u: usize, v: usize| banned_edges.iter().any(|&(a, b)| a == u && b == v);
        let mut indeg = vec![0usize; n];
        let mut members = Vec::new();
        for u in 0..n {
            if !allowed[u] || !self.nodes[u].alive {
                continue;
            }
            members.push(u);
            for &v in &self.succ[u] {
                if allowed[v] && self.nodes[v].alive && !is_banned(u, v) {
                    indeg[v] += 1;
                }
            }
        }
        let mut queue: VecDeque<usize> =
            members.iter().copied().filter(|&u| indeg[u] == 0).collect();
        let mut topo = Vec::with_capacity(members.len());
        while let Some(u) = queue.pop_front() {
            topo.push(u);
            for &v in &self.succ[u] {
                if allowed[v] && self.nodes[v].alive && !is_banned(u, v) {
                    indeg[v] -= 1;
                    if indeg[v] == 0 {
                        queue.push_back(v);
                    }
                }
            }
        }
        if topo.len() != members.len() {
            return Err(ExecError::IrreducibleCfg);
        }
        let mut dist: Vec<Option<u64>> = vec![None; n];
        dist[from] = Some(self.nodes[from].cost);
        for &u in &topo {
            let Some(du) = dist[u] else { continue };
            for &v in &self.succ[u] {
                if allowed[v] && self.nodes[v].alive && !is_banned(u, v) {
                    let cand = du + self.nodes[v].cost;
                    if dist[v].is_none_or(|dv| cand > dv) {
                        dist[v] = Some(cand);
                    }
                }
            }
        }
        Ok(dist[to])
    }

    /// Computes a safe WCET bound for the whole graph, collapsing bounded
    /// natural loops innermost-first and then taking the longest entry→exit
    /// path.
    ///
    /// # Errors
    ///
    /// * [`ExecError::MissingEntryOrExit`] / [`ExecError::UnreachableNode`]
    ///   when the graph is structurally unsound,
    /// * [`ExecError::MissingLoopBound`] when a loop header has no bound,
    /// * [`ExecError::IrreducibleCfg`] when a cycle is not a natural loop
    ///   (no dominating header).
    pub fn wcet(&self) -> Result<u64, ExecError> {
        self.validate()?;
        let mut work = self.clone();
        let (entry, exit) = work.entry_exit()?;
        // Each collapse removes at least one live node, so this terminates.
        for _ in 0..=work.nodes.len() {
            let CfgStructure {
                back_edges: backs,
                mut headers,
                ..
            } = work.structure_from(entry);
            if backs.is_empty() {
                let alive: Vec<bool> = work.nodes.iter().map(|n| n.alive).collect();
                return work
                    .dag_longest_path(entry, exit, &alive, &[])?
                    .ok_or(ExecError::UnreachableNode { index: exit });
            }
            // Group latches per header.
            headers.sort_unstable();
            // Innermost loop = the one with the fewest members.
            let mut chosen: Option<(usize, Vec<usize>, Vec<usize>)> = None;
            for &h in &headers {
                let latches: Vec<usize> = backs
                    .iter()
                    .filter(|&&(_, hh)| hh == h)
                    .map(|&(l, _)| l)
                    .collect();
                let members = work.natural_loop(h, &latches);
                let smaller = chosen
                    .as_ref()
                    .is_none_or(|(_, _, m)| members.len() < m.len());
                if smaller {
                    chosen = Some((h, latches, members));
                }
            }
            let (header, latches, members) = chosen.expect("non-empty back edge set yields a loop");
            // The innermost loop must not contain another loop's header.
            let inner_has_other_header =
                headers.iter().any(|&h| h != header && members.contains(&h));
            if inner_has_other_header {
                return Err(ExecError::IrreducibleCfg);
            }
            let bound = work.nodes[header]
                .loop_bound
                .ok_or(ExecError::MissingLoopBound { index: header })?;
            // Longest single-iteration path: header → ... → latch, using
            // loop-internal edges only and not re-entering via back edges.
            let mut allowed = vec![false; work.nodes.len()];
            for &m in &members {
                allowed[m] = true;
            }
            let banned: Vec<(usize, usize)> = latches.iter().map(|&l| (l, header)).collect();
            let mut iter_cost = 0u64;
            for &latch in &latches {
                if let Some(c) = work.dag_longest_path(header, latch, &allowed, &banned)? {
                    iter_cost = iter_cost.max(c);
                }
            }
            let header_cost = work.nodes[header].cost;
            // `bound` full iterations plus the final header evaluation that
            // exits the loop.
            let collapsed_cost = bound
                .checked_mul(iter_cost)
                .and_then(|c| c.checked_add(header_cost))
                .ok_or(ExecError::CostOverflow)?;
            work.collapse(header, &members, collapsed_cost);
        }
        Err(ExecError::IrreducibleCfg)
    }

    /// Renders the live graph in Graphviz DOT syntax. Loop headers are
    /// drawn as double circles annotated with their bounds; entry and exit
    /// are shaded.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph cfg {\n    rankdir=TB;\n");
        for (i, node) in self.nodes.iter().enumerate() {
            if !node.alive {
                continue;
            }
            let mut attrs = format!("label=\"{} [{}]\"", node.name, node.cost);
            if let Some(b) = node.loop_bound {
                let _ = write!(attrs, ", shape=doublecircle, xlabel=\"bound {b}\"");
            }
            if Some(i) == self.entry || Some(i) == self.exit {
                attrs.push_str(", style=filled, fillcolor=lightgrey");
            }
            let _ = writeln!(out, "    n{i} [{attrs}];");
        }
        for (u, succs) in self.succ.iter().enumerate() {
            if !self.nodes[u].alive {
                continue;
            }
            for &v in succs {
                if self.nodes[v].alive {
                    let _ = writeln!(out, "    n{u} -> n{v};");
                }
            }
        }
        out.push_str("}\n");
        out
    }

    /// Replaces a natural loop by a single super-node (reusing the header's
    /// slot) with the given cost.
    fn collapse(&mut self, header: usize, members: &[usize], cost: u64) {
        // Gather loop-exit successors before mutating.
        let mut exits: Vec<usize> = Vec::new();
        for &m in members {
            for &v in &self.succ[m] {
                if self.nodes[v].alive && !members.contains(&v) && !exits.contains(&v) {
                    exits.push(v);
                }
            }
        }
        // Kill non-header members.
        for &m in members {
            if m != header {
                self.nodes[m].alive = false;
            }
        }
        // The header becomes the super-node: drop its old out-edges into the
        // loop, keep/add exits.
        self.nodes[header].cost = cost;
        self.nodes[header].loop_bound = None;
        let name = format!("{}*", self.nodes[header].name);
        self.nodes[header].name = name;
        self.succ[header] = exits.clone();
        for &e in &exits {
            if !self.pred[e].contains(&header) {
                self.pred[e].push(header);
            }
        }
        // Remove dangling preds pointing at dead nodes is unnecessary: all
        // traversals filter on `alive`.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// entry(5) → a(3) → exit(2), with a diamond b(10)/c(4) in the middle.
    fn diamond() -> (Cfg, NodeId, NodeId) {
        let mut g = Cfg::new();
        let entry = g.add_node("entry", 5);
        let cond = g.add_node("cond", 3);
        let b = g.add_node("then", 10);
        let c = g.add_node("else", 4);
        let join = g.add_node("join", 1);
        let exit = g.add_node("exit", 2);
        g.add_edge(entry, cond).unwrap();
        g.add_edge(cond, b).unwrap();
        g.add_edge(cond, c).unwrap();
        g.add_edge(b, join).unwrap();
        g.add_edge(c, join).unwrap();
        g.add_edge(join, exit).unwrap();
        g.set_entry(entry).unwrap();
        g.set_exit(exit).unwrap();
        (g, entry, exit)
    }

    #[test]
    fn straight_line_sums_costs() {
        let mut g = Cfg::new();
        let a = g.add_node("a", 1);
        let b = g.add_node("b", 2);
        let c = g.add_node("c", 3);
        g.add_edge(a, b).unwrap();
        g.add_edge(b, c).unwrap();
        g.set_entry(a).unwrap();
        g.set_exit(c).unwrap();
        assert_eq!(g.wcet().unwrap(), 6);
    }

    #[test]
    fn diamond_takes_expensive_branch() {
        let (g, _, _) = diamond();
        // 5 + 3 + max(10, 4) + 1 + 2 = 21
        assert_eq!(g.wcet().unwrap(), 21);
    }

    #[test]
    fn single_loop_multiplies_by_bound() {
        let mut g = Cfg::new();
        let entry = g.add_node("entry", 5);
        let header = g.add_node("header", 2);
        let body = g.add_node("body", 7);
        let exit = g.add_node("exit", 1);
        g.add_edge(entry, header).unwrap();
        g.add_edge(header, body).unwrap();
        g.add_edge(body, header).unwrap();
        g.add_edge(header, exit).unwrap();
        g.set_entry(entry).unwrap();
        g.set_exit(exit).unwrap();
        g.set_loop_bound(header, 10).unwrap();
        // 5 + (10+1)·2 + 10·7 + 1 = 98
        assert_eq!(g.wcet().unwrap(), 98);
    }

    #[test]
    fn zero_bound_loop_executes_header_once() {
        let mut g = Cfg::new();
        let entry = g.add_node("entry", 5);
        let header = g.add_node("header", 2);
        let body = g.add_node("body", 7);
        let exit = g.add_node("exit", 1);
        g.add_edge(entry, header).unwrap();
        g.add_edge(header, body).unwrap();
        g.add_edge(body, header).unwrap();
        g.add_edge(header, exit).unwrap();
        g.set_entry(entry).unwrap();
        g.set_exit(exit).unwrap();
        g.set_loop_bound(header, 0).unwrap();
        assert_eq!(g.wcet().unwrap(), 8); // 5 + 2 + 1
    }

    #[test]
    fn nested_loops_multiply() {
        // entry → H1{3} → H2{4} → body → H2 ; H2 → latch1 → H1 ; H1 → exit
        let mut g = Cfg::new();
        let entry = g.add_node("entry", 1);
        let h1 = g.add_node("h1", 2);
        let h2 = g.add_node("h2", 3);
        let body = g.add_node("body", 5);
        let latch1 = g.add_node("latch1", 4);
        let exit = g.add_node("exit", 1);
        g.add_edge(entry, h1).unwrap();
        g.add_edge(h1, h2).unwrap();
        g.add_edge(h2, body).unwrap();
        g.add_edge(body, h2).unwrap();
        g.add_edge(h2, latch1).unwrap();
        g.add_edge(latch1, h1).unwrap();
        g.add_edge(h1, exit).unwrap();
        g.set_entry(entry).unwrap();
        g.set_exit(exit).unwrap();
        g.set_loop_bound(h1, 3).unwrap();
        g.set_loop_bound(h2, 4).unwrap();
        // Inner loop collapsed: cost = 4·(3+5) + 3 = 35.
        // Outer iteration: h1(2) + inner(35) + latch1(4) = 41; total = 3·41 + 2 = 125.
        // Plus entry 1 and exit 1 → 127.
        assert_eq!(g.wcet().unwrap(), 127);
    }

    #[test]
    fn loop_containing_branch_takes_worst_iteration() {
        let mut g = Cfg::new();
        let entry = g.add_node("entry", 0);
        let header = g.add_node("header", 1);
        let cheap = g.add_node("cheap", 2);
        let pricey = g.add_node("pricey", 9);
        let latch = g.add_node("latch", 1);
        let exit = g.add_node("exit", 0);
        g.add_edge(entry, header).unwrap();
        g.add_edge(header, cheap).unwrap();
        g.add_edge(header, pricey).unwrap();
        g.add_edge(cheap, latch).unwrap();
        g.add_edge(pricey, latch).unwrap();
        g.add_edge(latch, header).unwrap();
        g.add_edge(header, exit).unwrap();
        g.set_entry(entry).unwrap();
        g.set_exit(exit).unwrap();
        g.set_loop_bound(header, 5).unwrap();
        // Per iteration: 1 + max(2, 9) + 1 = 11; total = 5·11 + 1 = 56.
        assert_eq!(g.wcet().unwrap(), 56);
    }

    #[test]
    fn missing_loop_bound_is_reported() {
        let mut g = Cfg::new();
        let entry = g.add_node("entry", 0);
        let header = g.add_node("header", 1);
        let exit = g.add_node("exit", 0);
        g.add_edge(entry, header).unwrap();
        g.add_edge(header, header).unwrap(); // self loop
        g.add_edge(header, exit).unwrap();
        g.set_entry(entry).unwrap();
        g.set_exit(exit).unwrap();
        assert!(matches!(
            g.wcet().unwrap_err(),
            ExecError::MissingLoopBound { .. }
        ));
    }

    #[test]
    fn self_loop_with_bound_works() {
        let mut g = Cfg::new();
        let entry = g.add_node("entry", 0);
        let header = g.add_node("spin", 3);
        let exit = g.add_node("exit", 0);
        g.add_edge(entry, header).unwrap();
        g.add_edge(header, header).unwrap();
        g.add_edge(header, exit).unwrap();
        g.set_entry(entry).unwrap();
        g.set_exit(exit).unwrap();
        g.set_loop_bound(header, 7).unwrap();
        // 7 iterations + final test: 8·3 = 24.
        assert_eq!(g.wcet().unwrap(), 24);
    }

    #[test]
    fn missing_entry_or_exit_is_reported() {
        let mut g = Cfg::new();
        let a = g.add_node("a", 1);
        g.set_entry(a).unwrap();
        assert!(matches!(
            g.wcet().unwrap_err(),
            ExecError::MissingEntryOrExit
        ));
    }

    #[test]
    fn unreachable_node_is_reported() {
        let mut g = Cfg::new();
        let a = g.add_node("a", 1);
        let b = g.add_node("island", 1);
        g.set_entry(a).unwrap();
        g.set_exit(a).unwrap();
        let _ = b;
        assert!(matches!(
            g.validate().unwrap_err(),
            ExecError::UnreachableNode { .. }
        ));
    }

    #[test]
    fn unknown_node_errors() {
        let mut g = Cfg::new();
        let a = g.add_node("a", 1);
        let bogus = NodeId(99);
        assert!(g.add_edge(a, bogus).is_err());
        assert!(g.add_edge(bogus, a).is_err());
        assert!(g.set_entry(bogus).is_err());
        assert!(g.set_exit(bogus).is_err());
        assert!(g.set_loop_bound(bogus, 1).is_err());
        assert!(g.node_name(bogus).is_err());
        assert!(g.node_cost(bogus).is_err());
    }

    #[test]
    fn node_accessors_work() {
        let mut g = Cfg::new();
        let a = g.add_node("alpha", 13);
        assert_eq!(g.node_name(a).unwrap(), "alpha");
        assert_eq!(g.node_cost(a).unwrap(), 13);
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.live_node_count(), 1);
    }

    #[test]
    fn parallel_edges_are_merged() {
        let mut g = Cfg::new();
        let a = g.add_node("a", 1);
        let b = g.add_node("b", 1);
        g.add_edge(a, b).unwrap();
        g.add_edge(a, b).unwrap();
        g.set_entry(a).unwrap();
        g.set_exit(b).unwrap();
        assert_eq!(g.wcet().unwrap(), 2);
    }

    #[test]
    fn cost_overflow_is_reported() {
        let mut g = Cfg::new();
        let entry = g.add_node("entry", 0);
        let header = g.add_node("header", u64::MAX / 2);
        let exit = g.add_node("exit", 0);
        g.add_edge(entry, header).unwrap();
        g.add_edge(header, header).unwrap();
        g.add_edge(header, exit).unwrap();
        g.set_entry(entry).unwrap();
        g.set_exit(exit).unwrap();
        g.set_loop_bound(header, 1_000).unwrap();
        assert!(matches!(g.wcet().unwrap_err(), ExecError::CostOverflow));
    }

    #[test]
    fn sequential_loops_add() {
        let mut g = Cfg::new();
        let entry = g.add_node("entry", 0);
        let h1 = g.add_node("h1", 1);
        let b1 = g.add_node("b1", 2);
        let h2 = g.add_node("h2", 1);
        let b2 = g.add_node("b2", 3);
        let exit = g.add_node("exit", 0);
        g.add_edge(entry, h1).unwrap();
        g.add_edge(h1, b1).unwrap();
        g.add_edge(b1, h1).unwrap();
        g.add_edge(h1, h2).unwrap();
        g.add_edge(h2, b2).unwrap();
        g.add_edge(b2, h2).unwrap();
        g.add_edge(h2, exit).unwrap();
        g.set_entry(entry).unwrap();
        g.set_exit(exit).unwrap();
        g.set_loop_bound(h1, 10).unwrap();
        g.set_loop_bound(h2, 20).unwrap();
        // loop1: 10·(1+2)+1 = 31 ; loop2: 20·(1+3)+1 = 81 ; total 112.
        assert_eq!(g.wcet().unwrap(), 112);
    }

    #[test]
    fn dot_export_lists_live_nodes_and_edges() {
        let (g, _, _) = diamond();
        let dot = g.to_dot();
        assert!(dot.starts_with("digraph cfg {"));
        assert!(dot.ends_with("}\n"));
        // 6 nodes and 6 edges.
        assert_eq!(dot.matches(" -> ").count(), 6);
        assert!(dot.contains("label=\"then [10]\""));
        assert!(dot.contains("fillcolor=lightgrey"));
        // Loop bounds are annotated.
        let mut g = Cfg::new();
        let entry = g.add_node("entry", 0);
        let header = g.add_node("spin", 3);
        let exit = g.add_node("exit", 0);
        g.add_edge(entry, header).unwrap();
        g.add_edge(header, header).unwrap();
        g.add_edge(header, exit).unwrap();
        g.set_entry(entry).unwrap();
        g.set_exit(exit).unwrap();
        g.set_loop_bound(header, 7).unwrap();
        assert!(g.to_dot().contains("bound 7"));
    }

    #[test]
    fn dominators_of_a_diamond() {
        // 0 -> {1, 2} -> 3
        let mut cfg = Cfg::new();
        let a = cfg.add_node("a", 1);
        let b = cfg.add_node("b", 1);
        let c = cfg.add_node("c", 1);
        let d = cfg.add_node("d", 1);
        cfg.add_edge(a, b).unwrap();
        cfg.add_edge(a, c).unwrap();
        cfg.add_edge(b, d).unwrap();
        cfg.add_edge(c, d).unwrap();
        cfg.set_entry(a).unwrap();
        cfg.set_exit(d).unwrap();
        let s = cfg.structure().unwrap();
        assert_eq!(s.idom[0], Some(0));
        assert_eq!(s.idom[1], Some(0));
        assert_eq!(s.idom[2], Some(0));
        assert_eq!(s.idom[3], Some(0), "join point is dominated by the fork");
        assert!(s.dominates(0, 3));
        assert!(!s.dominates(1, 3));
        assert!(s.back_edges.is_empty());
        assert!(s.reducible);
    }

    #[test]
    fn a_read_graph_must_fit_its_node_list() {
        let (g, _, _) = diamond();
        let json = serde_json::to_string(&g).unwrap();
        assert_eq!(serde_json::from_str::<Cfg>(&json).unwrap(), g);
        for bad in [
            json.replacen("\"entry\":0", "\"entry\":6", 1),
            json.replacen("\"exit\":5", "\"exit\":9", 1),
            json.replacen("[[1],", "[[7],", 1),
            json.replacen("[[1],", "[", 1),
        ] {
            assert_ne!(bad, json);
            assert!(serde_json::from_str::<Cfg>(&bad).is_err(), "{bad}");
        }
    }

    mod properties {
        use super::*;
        use mc_fault::{assert_prop, PropConfig};

        #[test]
        fn chain_wcet_is_sum() {
            assert_prop(
                &PropConfig::named("chain_wcet_is_sum"),
                |rng| {
                    let n = rng.range_u64(1, 49);
                    (0..n).map(|_| rng.below(1_000)).collect::<Vec<u64>>()
                },
                |raw| {
                    // A shrunk, empty draw still builds one node.
                    let costs = if raw.is_empty() { vec![0] } else { raw.clone() };
                    let mut g = Cfg::new();
                    let nodes: Vec<NodeId> = costs.iter().map(|&c| g.add_node("n", c)).collect();
                    for w in nodes.windows(2) {
                        g.add_edge(w[0], w[1]).unwrap();
                    }
                    g.set_entry(nodes[0]).unwrap();
                    g.set_exit(*nodes.last().unwrap()).unwrap();
                    assert_eq!(g.wcet().unwrap(), costs.iter().sum::<u64>());
                    Ok(())
                },
            );
        }

        #[test]
        fn diamond_wcet_is_max_branch() {
            assert_prop(
                &PropConfig::named("diamond_wcet_is_max_branch"),
                |rng| (rng.below(1_000), rng.below(1_000)),
                |&(t, e)| {
                    let mut g = Cfg::new();
                    let entry = g.add_node("entry", 1);
                    let then_n = g.add_node("t", t);
                    let else_n = g.add_node("e", e);
                    let exit = g.add_node("exit", 1);
                    g.add_edge(entry, then_n).unwrap();
                    g.add_edge(entry, else_n).unwrap();
                    g.add_edge(then_n, exit).unwrap();
                    g.add_edge(else_n, exit).unwrap();
                    g.set_entry(entry).unwrap();
                    g.set_exit(exit).unwrap();
                    assert_eq!(g.wcet().unwrap(), 2 + t.max(e));
                    Ok(())
                },
            );
        }

        #[test]
        fn loop_wcet_is_affine_in_bound() {
            assert_prop(
                &PropConfig::named("loop_wcet_is_affine_in_bound"),
                |rng| (rng.below(10_000), rng.below(100), rng.below(100)),
                |&(bound, header_cost, body_cost)| {
                    let mut g = Cfg::new();
                    let entry = g.add_node("entry", 0);
                    let header = g.add_node("h", header_cost);
                    let body = g.add_node("b", body_cost);
                    let exit = g.add_node("exit", 0);
                    g.add_edge(entry, header).unwrap();
                    g.add_edge(header, body).unwrap();
                    g.add_edge(body, header).unwrap();
                    g.add_edge(header, exit).unwrap();
                    g.set_entry(entry).unwrap();
                    g.set_exit(exit).unwrap();
                    g.set_loop_bound(header, bound).unwrap();
                    let expect = (bound + 1) * header_cost + bound * body_cost;
                    assert_eq!(g.wcet().unwrap(), expect);
                    Ok(())
                },
            );
        }
    }
}
