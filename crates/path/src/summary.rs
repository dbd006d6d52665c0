//! Modular path analysis: series-parallel decomposition of the IPET ILP
//! with memoized segment summaries.
//!
//! The monolithic ILP of [`crate::analyze`] grows super-linearly in the
//! supergraph, and the exact branch-and-bound solver pays for it: on the
//! generated scaling series the path phase dominates total analysis time
//! by two orders of magnitude at the largest sizes. This module restores
//! the modularity the paper attributes to per-procedure analysis: it cuts
//! the supergraph at *series points* — nodes that every execution passes
//! exactly once — solves each segment's ILP independently, and composes
//! the segment optima by addition. Because identical procedure bodies
//! expand to isomorphic segments, each segment is reduced to a canonical
//! byte string and solved **once**; repeats (further call sites, other
//! jobs, warm stores) recall the [`SegmentSummary`] through a
//! [`SummaryMemo`] instead of re-solving.
//!
//! # Cut points
//!
//! A node `c` is a valid cut when
//!
//! 1. `c` dominates every exit (so every source→sink path passes it),
//! 2. `c` lies on no cycle (so circulations never touch it), and
//! 3. `c` carries no [`Frame::Loop`] in its context (so every
//!    loop-instance constraint stays within one segment — any node
//!    between a loop's first-iteration and steady-state contexts carries
//!    that loop's frame).
//!
//! (1) and (2) force `count(c) = 1` in *every* feasible integer flow:
//! a unit of flow from the virtual source to the single fired sink
//! decomposes into one path — which passes every dominator of the exits
//! — plus circulations, which avoid acyclic nodes. Splitting at `c`
//! therefore loses nothing: the restriction of a global optimum is
//! feasible per segment, and gluing per-segment optima (each boundary
//! fires exactly once on both sides) is feasible globally, so the sum of
//! segment optima equals the global optimum exactly.
//!
//! The candidate cuts are the common dominators of all exits — the
//! dominator-tree chain of their nearest common dominator — filtered by
//! (2) and (3); this aligns segments with the call structure, so a
//! procedure called from ten sites yields ten isomorphic segments and
//! one solve.
//!
//! # Safety net
//!
//! Decomposition is *validated, not trusted*: after assigning every node
//! a segment, the module checks that edge ownership is consistent, that
//! every loop instance and infeasibility pin falls inside one segment,
//! and that each segment's traversal covers all its edges. Any violation
//! abandons decomposition for that program and [`crate::analyze`] solves
//! the monolithic ILP instead — the summarized path can only ever
//! reproduce the exact monolithic optimum or step aside.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use stamp_ai::{Frame, IEdge, IEdgeId, Icfg, NodeId};
use stamp_ilp::{CmpOp, LpProblem};

use crate::{Formula, InstanceRule, PathError};

/// The solved optimum of one canonical segment ILP.
///
/// `values` holds the witness assignment in canonical variable order
/// (source, then edges in traversal order, then sinks); `objective` is
/// the segment's contribution to the WCET objective. Stored in the
/// artifact store keyed by the canonical segment bytes, so the summary
/// is shared across call sites, jobs, and processes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentSummary {
    /// Optimal objective value of the segment ILP.
    pub objective: i64,
    /// Optimal variable assignment, indexed by canonical variable.
    pub values: Vec<i64>,
}

impl stamp_codec::Codec for SegmentSummary {
    fn enc(&self, e: &mut stamp_codec::Enc) {
        e.u64(self.objective as u64);
        e.len_prefix(self.values.len());
        for &v in &self.values {
            e.u64(v as u64);
        }
    }
    fn dec(d: &mut stamp_codec::Dec) -> Result<SegmentSummary, stamp_codec::CodecError> {
        let objective = d.u64()? as i64;
        let n = d.len_prefix(8)?;
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(d.u64()? as i64);
        }
        Ok(SegmentSummary { objective, values })
    }
}

/// Where segment summaries are looked up and recorded.
///
/// `canonical` is the canonical byte form of the segment ILP (stable
/// across isomorphic segments); `solve` produces the summary when the
/// memo has no entry. Implementations decide the sharing scope: none
/// ([`NoMemo`]), per-analysis ([`LocalMemo`]), or cross-job/process
/// (the artifact-store broker in `stamp-core`).
pub trait SummaryMemo {
    /// Returns the summary for `canonical`, solving via `solve` on a
    /// miss. Solve errors must not be cached.
    fn summarize(
        &self,
        canonical: &[u8],
        solve: &mut dyn FnMut() -> Result<SegmentSummary, PathError>,
    ) -> Result<Arc<SegmentSummary>, PathError>;
}

/// A memo that never remembers: every segment is solved fresh.
pub struct NoMemo;

impl SummaryMemo for NoMemo {
    fn summarize(
        &self,
        _canonical: &[u8],
        solve: &mut dyn FnMut() -> Result<SegmentSummary, PathError>,
    ) -> Result<Arc<SegmentSummary>, PathError> {
        solve().map(Arc::new)
    }
}

/// An in-memory memo scoped to one analysis: repeated procedure bodies
/// within a single program are solved once.
#[derive(Default)]
pub struct LocalMemo {
    cache: RefCell<HashMap<Vec<u8>, Arc<SegmentSummary>>>,
}

impl SummaryMemo for LocalMemo {
    fn summarize(
        &self,
        canonical: &[u8],
        solve: &mut dyn FnMut() -> Result<SegmentSummary, PathError>,
    ) -> Result<Arc<SegmentSummary>, PathError> {
        if let Some(hit) = self.cache.borrow().get(canonical) {
            return Ok(hit.clone());
        }
        let summary = Arc::new(solve()?);
        self.cache.borrow_mut().insert(canonical.to_vec(), summary.clone());
        Ok(summary)
    }
}

/// One canonical constraint: `(op, rhs, terms)` with terms as
/// `(variable, coefficient)` pairs sorted by variable.
type SegConstraint = (CmpOp, i64, Vec<(u32, i64)>);

/// One segment's ILP in canonical form: variable 0 is the segment
/// source, variables `1..=edges.len()` are the owned edges in traversal
/// order, and any remaining variables are sinks. `constraints` hold
/// canonical variable indices with terms sorted by variable.
struct SegLp {
    obj: Vec<i64>,
    constraints: Vec<SegConstraint>,
    /// Global edge behind each canonical edge variable.
    edges: Vec<IEdgeId>,
}

impl SegLp {
    /// Serializes the segment ILP into its canonical byte form — the
    /// memo key. Isomorphic segments (same shape, same objective
    /// coefficients, same bounds) produce identical bytes regardless of
    /// where in the supergraph they sit.
    fn canonical_bytes(&self) -> Vec<u8> {
        let mut e = stamp_codec::Enc::new();
        e.u8(1); // canonical-form version
        e.u32(self.edges.len() as u32);
        e.u32(self.obj.len() as u32);
        for &c in &self.obj {
            e.u64(c as u64);
        }
        e.u32(self.constraints.len() as u32);
        for (op, rhs, terms) in &self.constraints {
            e.u8(match op {
                CmpOp::Eq => 0,
                CmpOp::Le => 1,
                CmpOp::Ge => 2,
            });
            e.u64(*rhs as u64);
            e.u32(terms.len() as u32);
            for &(v, c) in terms {
                e.u32(v);
                e.u64(c as u64);
            }
        }
        e.into_bytes()
    }

    /// Builds and solves the concrete ILP for this segment.
    fn solve(&self) -> Result<SegmentSummary, PathError> {
        let mut lp = LpProblem::new();
        for (i, &c) in self.obj.iter().enumerate() {
            lp.add_var(format!("v{i}"), c);
        }
        for (op, rhs, terms) in &self.constraints {
            lp.add_constraint(
                terms.iter().map(|&(v, c)| (stamp_ilp::VarId(v as usize), c)),
                *op,
                *rhs,
            );
        }
        let sol = lp.maximize_integer()?;
        Ok(SegmentSummary { objective: sol.objective, values: sol.values })
    }
}

/// Cooper–Harvey–Kennedy iterative dominators over a reverse postorder.
/// Returns the immediate dominator per node (entry maps to itself).
fn dominators(icfg: &Icfg, rpo: &[u32], rpo_num: &[u32]) -> Vec<u32> {
    let n = icfg.nodes().len();
    let entry = icfg.entry().index();
    let mut idom = vec![u32::MAX; n];
    idom[entry] = entry as u32;
    let mut changed = true;
    while changed {
        changed = false;
        for &u in rpo.iter().skip(1) {
            let mut new_idom = u32::MAX;
            for e in icfg.preds(NodeId(u)) {
                let p = e.from.index();
                if idom[p] == u32::MAX {
                    continue;
                }
                new_idom = if new_idom == u32::MAX {
                    p as u32
                } else {
                    intersect(new_idom, p as u32, &idom, rpo_num)
                };
            }
            if new_idom != u32::MAX && idom[u as usize] != new_idom {
                idom[u as usize] = new_idom;
                changed = true;
            }
        }
    }
    idom
}

/// Nearest common dominator of two nodes (the classic two-finger walk).
fn intersect(mut a: u32, mut b: u32, idom: &[u32], rpo_num: &[u32]) -> u32 {
    while a != b {
        while rpo_num[a as usize] > rpo_num[b as usize] {
            a = idom[a as usize];
        }
        while rpo_num[b as usize] > rpo_num[a as usize] {
            b = idom[b as usize];
        }
    }
    a
}

/// Marks every node that lies on some cycle: members of a non-trivial
/// strongly connected component, or targets of a self-loop. Iterative
/// Tarjan, since generated call chains can be deep.
fn on_cycle(icfg: &Icfg) -> Vec<bool> {
    let n = icfg.nodes().len();
    let mut cyclic = vec![false; n];
    for e in icfg.edges() {
        if e.from == e.to {
            cyclic[e.to.index()] = true;
        }
    }
    let mut index = vec![u32::MAX; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut scc_stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut dfs: Vec<(u32, usize)> = Vec::new();
    for root in 0..n as u32 {
        if index[root as usize] != u32::MAX {
            continue;
        }
        dfs.push((root, 0));
        index[root as usize] = next_index;
        low[root as usize] = next_index;
        next_index += 1;
        on_stack[root as usize] = true;
        scc_stack.push(root);
        while let Some(top) = dfs.last_mut() {
            let (u, cursor) = (top.0, top.1);
            match icfg.succs(NodeId(u)).nth(cursor) {
                Some(e) => {
                    dfs.last_mut().expect("nonempty").1 += 1;
                    let v = e.to.index();
                    if index[v] == u32::MAX {
                        index[v] = next_index;
                        low[v] = next_index;
                        next_index += 1;
                        on_stack[v] = true;
                        scc_stack.push(v as u32);
                        dfs.push((v as u32, 0));
                    } else if on_stack[v] {
                        low[u as usize] = low[u as usize].min(index[v]);
                    }
                }
                None => {
                    dfs.pop();
                    if let Some(&(p, _)) = dfs.last() {
                        low[p as usize] = low[p as usize].min(low[u as usize]);
                    }
                    if low[u as usize] == index[u as usize] {
                        // Pop the component; size ≥ 2 means a cycle.
                        let mut members: Vec<u32> = Vec::new();
                        loop {
                            let w = scc_stack.pop().expect("scc stack");
                            on_stack[w as usize] = false;
                            members.push(w);
                            if w == u {
                                break;
                            }
                        }
                        if members.len() >= 2 {
                            for w in members {
                                cyclic[w as usize] = true;
                            }
                        }
                    }
                }
            }
        }
    }
    cyclic
}

/// Does this node's calling context carry any loop frame? Such nodes
/// sit between a loop's peeled and steady-state contexts (or inside a
/// callee invoked from a loop body); cutting there would split that
/// loop's instance constraint across segments.
fn in_loop_context(icfg: &Icfg, node: u32) -> bool {
    let ctx = icfg.node(NodeId(node)).ctx;
    icfg.ctxs().get(ctx).frames().iter().any(|f| matches!(f, Frame::Loop { .. }))
}

/// Attempts the summarized solve: decompose at series cuts, solve each
/// segment through `memo`, compose. Returns `Ok(None)` when the program
/// offers no valid decomposition (the caller then solves the monolithic
/// ILP) and `Ok(Some((objective, edge_values)))` on success, with
/// `edge_values` indexed densely by supergraph edge.
pub(crate) fn solve_summarized(
    icfg: &Icfg,
    formula: &Formula,
    memo: &dyn SummaryMemo,
) -> Result<Option<(i64, Vec<i64>)>, PathError> {
    let n = icfg.nodes().len();
    let exits = icfg.exits();
    if exits.is_empty() || n == 0 {
        return Ok(None);
    }
    // Reverse postorder; decomposition steps aside when some node is
    // unreachable from the entry.
    let rpo_num: Vec<u32> = icfg.nodes().iter().map(|nd| icfg.rpo_index(nd.id)).collect();
    if rpo_num.contains(&u32::MAX) {
        return Ok(None);
    }
    let mut rpo = vec![0u32; n];
    for (u, &i) in rpo_num.iter().enumerate() {
        rpo[i as usize] = u as u32;
    }
    let idom = dominators(icfg, &rpo, &rpo_num);
    let cyclic = on_cycle(icfg);
    let mut is_exit = vec![false; n];
    for &x in exits {
        is_exit[x.index()] = true;
    }

    // Candidate cuts: the dominator chain of the exits' nearest common
    // dominator, entry-side first, filtered to valid series points.
    let entry = icfg.entry().index() as u32;
    let mut ncd = exits[0].index() as u32;
    for &x in &exits[1..] {
        ncd = intersect(ncd, x.index() as u32, &idom, &rpo_num);
    }
    let mut chain: Vec<u32> = Vec::new();
    let mut c = ncd;
    while c != entry {
        chain.push(c);
        c = idom[c as usize];
    }
    chain.reverse();
    let cuts: Vec<u32> = chain
        .into_iter()
        .filter(|&c| !cyclic[c as usize] && !is_exit[c as usize] && !in_loop_context(icfg, c))
        .collect();
    if cuts.is_empty() {
        return Ok(None);
    }
    let k = cuts.len();

    // Segment index per node: one more than the number of cuts strictly
    // dominating it. Cut j itself lands in segment j (its in-edges close
    // segment j; its out-edges open segment j+1).
    let mut cut_no = vec![usize::MAX; n];
    for (j, &c) in cuts.iter().enumerate() {
        cut_no[c as usize] = j;
    }
    let mut seg = vec![0usize; n];
    for &u in rpo.iter().skip(1) {
        let d = idom[u as usize] as usize;
        seg[u as usize] = seg[d] + usize::from(cut_no[d] != usize::MAX);
    }

    // An edge belongs to the segment of its target; a cut's out-edges
    // must open the next segment and every other edge must stay inside
    // its source's segment — otherwise the decomposition is invalid.
    let owner = |e: &IEdge| seg[e.to.index()];
    for e in icfg.edges() {
        let f = e.from.index();
        let expected = if cut_no[f] != usize::MAX { cut_no[f] + 1 } else { seg[f] };
        if owner(e) != expected {
            return Ok(None);
        }
    }
    if exits.iter().any(|x| seg[x.index()] != k) {
        return Ok(None);
    }
    // Every loop instance and every infeasibility pin must fall within
    // a single segment.
    for inst in &formula.instances {
        let mut edges = inst.edges();
        let first = match edges.next() {
            Some(e) => seg[icfg.edge(e).to.index()],
            None => continue,
        };
        if edges.any(|e| seg[icfg.edge(e).to.index()] != first) {
            return Ok(None);
        }
    }
    let mut owned_edges = vec![0usize; k + 1];
    for e in icfg.edges() {
        owned_edges[owner(e)] += 1;
    }

    let mut total_objective: i64 = 0;
    let mut edge_values = vec![0i64; icfg.edges().len()];
    for i in 0..=k {
        let boundary = if i == 0 { entry } else { cuts[i - 1] };
        let sink_boundary = if i < k { Some(cuts[i]) } else { None };
        let Some(seglp) =
            build_segment(icfg, formula, i, boundary, sink_boundary, &seg, &cut_no, owned_edges[i])
        else {
            return Ok(None);
        };
        let canonical = seglp.canonical_bytes();
        let summary = memo.summarize(&canonical, &mut || seglp.solve())?;
        // A recalled summary of the wrong shape (corrupt or stale store
        // entry) is discarded; the segment is solved inline instead.
        let summary = if summary.values.len() == seglp.obj.len() {
            summary
        } else {
            Arc::new(seglp.solve()?)
        };
        total_objective += summary.objective;
        for (j, &eid) in seglp.edges.iter().enumerate() {
            edge_values[eid.index()] = summary.values[1 + j];
        }
    }
    Ok(Some((total_objective, edge_values)))
}

/// Builds segment `i`'s canonical ILP: breadth-first traversal from the
/// boundary over owned edges fixes the canonical numbering, then the
/// constraints are emitted in a fixed order. Returns `None` when the
/// traversal fails to cover every owned edge.
#[allow(clippy::too_many_arguments)]
fn build_segment(
    icfg: &Icfg,
    formula: &Formula,
    i: usize,
    boundary: u32,
    sink_boundary: Option<u32>,
    seg: &[usize],
    cut_no: &[usize],
    owned_edges: usize,
) -> Option<SegLp> {
    let n = icfg.nodes().len();
    let mut canon_node = vec![u32::MAX; n];
    let mut visit_order: Vec<u32> = vec![boundary];
    canon_node[boundary as usize] = 0;
    let mut edges: Vec<IEdgeId> = Vec::new();
    let mut canon_edge: HashMap<IEdgeId, u32> = HashMap::new();
    let mut queue: VecDeque<u32> = VecDeque::from([boundary]);
    while let Some(u) = queue.pop_front() {
        // A cut's out-edges belong to the next segment.
        if cut_no[u as usize] != usize::MAX && u != boundary {
            continue;
        }
        for e in icfg.succs(NodeId(u)) {
            if seg[e.to.index()] != i {
                continue;
            }
            canon_edge.insert(e.id, edges.len() as u32);
            edges.push(e.id);
            let v = e.to.index();
            if canon_node[v] == u32::MAX {
                canon_node[v] = visit_order.len() as u32;
                visit_order.push(v as u32);
                queue.push_back(v as u32);
            }
        }
    }
    if edges.len() != owned_edges {
        return None;
    }

    // Variables: 0 = source, 1..=E = edges, then sinks (last segment).
    let source = 0u32;
    let evar = |eid: IEdgeId| 1 + canon_edge[&eid];
    let mut obj: Vec<i64> = Vec::with_capacity(1 + edges.len());
    obj.push(if i == 0 { formula.entry_time } else { 0 });
    for &eid in &edges {
        obj.push(formula.coeff[eid.index()]);
    }
    let mut sinks: Vec<(u32, u32)> = Vec::new(); // (node, var)
    if sink_boundary.is_none() {
        let mut xs: Vec<u32> = icfg.exits().iter().map(|x| x.index() as u32).collect();
        xs.sort_by_key(|&x| canon_node[x as usize]);
        for x in xs {
            if canon_node[x as usize] == u32::MAX {
                return None;
            }
            sinks.push((x, obj.len() as u32));
            obj.push(0);
        }
    }
    let sink_of: HashMap<u32, u32> = sinks.iter().copied().collect();

    let mut cons: Vec<SegConstraint> = Vec::new();
    let push = |cons: &mut Vec<SegConstraint>, mut terms: Vec<(u32, i64)>, op: CmpOp, rhs: i64| {
        terms.sort_by_key(|&(v, _)| v);
        cons.push((op, rhs, terms));
    };

    // The segment source fires exactly once.
    push(&mut cons, vec![(source, 1)], CmpOp::Eq, 1);
    // Conservation, boundary first, then interior nodes in canonical
    // order. The boundary receives the source; in segment 0 the entry
    // may also have (owned) in-edges. The sink boundary's conservation
    // belongs to the next segment; here its inflow is pinned to one.
    for &u in &visit_order {
        if Some(u) == sink_boundary {
            let terms: Vec<(u32, i64)> = icfg.preds(NodeId(u)).map(|e| (evar(e.id), 1)).collect();
            push(&mut cons, terms, CmpOp::Eq, 1);
            continue;
        }
        let mut terms: Vec<(u32, i64)> = Vec::new();
        if u == boundary {
            terms.push((source, 1));
            if i == 0 {
                for e in icfg.preds(NodeId(u)) {
                    terms.push((evar(e.id), 1));
                }
            }
        } else {
            for e in icfg.preds(NodeId(u)) {
                terms.push((evar(e.id), 1));
            }
        }
        for e in icfg.succs(NodeId(u)) {
            terms.push((evar(e.id), -1));
        }
        if let Some(&s) = sink_of.get(&u) {
            terms.push((s, -1));
        }
        push(&mut cons, terms, CmpOp::Eq, 0);
    }
    // Exactly one sink fires (last segment only).
    if sink_boundary.is_none() && !sinks.is_empty() {
        push(&mut cons, sinks.iter().map(|&(_, v)| (v, 1i64)).collect(), CmpOp::Eq, 1);
    }

    // Owned loop instances, ordered by their smallest canonical edge so
    // isomorphic segments emit identical constraint sequences.
    let mut owned: Vec<&crate::Instance> = formula
        .instances
        .iter()
        .filter(|inst| inst.edges().next().is_some_and(|e| seg[icfg.edge(e).to.index()] == i))
        .collect();
    owned.sort_by_key(|inst| inst.edges().map(evar).min());
    for inst in owned {
        match inst.rule {
            InstanceRule::Bound(bound) => {
                let mut terms: Vec<(u32, i64)> =
                    inst.instance.backs.iter().map(|&b| (evar(b), 1)).collect();
                let mul = bound.saturating_sub(1).min(i64::MAX as u64) as i64;
                for &en in &inst.instance.entries {
                    terms.push((evar(en), -mul));
                }
                // The task starts in the loop: the entry node heads it,
                // so it is owned by segment 0, whose source is the task's.
                if inst.at_start {
                    terms.push((source, -mul));
                }
                push(&mut cons, terms, CmpOp::Le, 0);
            }
            InstanceRule::PinUnreachable => {
                let mut pinned: Vec<u32> = inst.edges().map(evar).collect();
                pinned.sort_unstable();
                for v in pinned {
                    push(&mut cons, vec![(v, 1)], CmpOp::Le, 0);
                }
            }
        }
    }
    // Owned infeasibility pins, by canonical edge.
    let mut pins: Vec<u32> = formula
        .pins
        .iter()
        .filter(|&&e| seg[icfg.edge(e).to.index()] == i)
        .map(|&e| evar(e))
        .collect();
    pins.sort_unstable();
    for v in pins {
        push(&mut cons, vec![(v, 1)], CmpOp::Le, 0);
    }

    Some(SegLp { obj, constraints: cons, edges })
}
