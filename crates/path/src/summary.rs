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
//! The cut search runs the workspace's one dominator routine
//! ([`stamp_cfg::Idoms`]) and its one SCC routine ([`stamp_cfg::sccs`])
//! over the supergraph.
//!
//! # Rows
//!
//! A segment's rows are read from the run's IPET data (`crate::Ipet`):
//! conservation from the supergraph, objective coefficients from the
//! pipeline analysis, loop rules from the loop-bound analysis, and the
//! infeasibility pins. One pass sorts the loop rules and pins by their
//! owning segment, and all segments share one scratch numbering, so no
//! segment scans every rule and pin or allocates a supergraph-sized
//! buffer.
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

use stamp_ai::{Frame, IEdgeId, Icfg, NodeId};
use stamp_cfg::Idoms;
use stamp_ilp::{CmpOp, LpProblem, VarId};
use stamp_loopbound::FlowRule;

use crate::{Ipet, PathError};

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
/// memo has no entry. Implementations decide the sharing scope:
/// per-analysis ([`LocalMemo`]) or cross-job/process (the
/// artifact-store broker in `stamp-core`).
pub trait SummaryMemo {
    /// Returns the summary for `canonical`, solving via `solve` on a
    /// miss. Solve errors must not be cached.
    fn summarize(
        &self,
        canonical: &[u8],
        solve: &mut dyn FnMut() -> Result<SegmentSummary, PathError>,
    ) -> Result<Arc<SegmentSummary>, PathError>;
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

/// One segment's ILP in canonical form: variable 0 is the segment
/// source, variables `1..=edges.len()` are the owned edges in traversal
/// order, and any remaining variables are sinks. Row `r` is
/// `(op, rhs, end)`: its terms are `terms[rows[r-1].end..end]`, holding
/// canonical variable indices sorted by variable.
struct SegLp {
    obj: Vec<i64>,
    rows: Vec<(CmpOp, i64, usize)>,
    terms: Vec<(u32, i64)>,
    /// Global edge behind each canonical edge variable.
    edges: Vec<IEdgeId>,
}

impl SegLp {
    /// Each row as `(op, rhs, terms)`.
    fn rows(&self) -> impl Iterator<Item = (CmpOp, i64, &[(u32, i64)])> + '_ {
        let starts = std::iter::once(0).chain(self.rows.iter().map(|r| r.2));
        self.rows
            .iter()
            .zip(starts)
            .map(|(&(op, rhs, end), start)| (op, rhs, &self.terms[start..end]))
    }

    /// Closes the row whose terms were pushed since the previous one.
    fn row(&mut self, op: CmpOp, rhs: i64) {
        let start = self.rows.last().map_or(0, |r| r.2);
        self.terms[start..].sort_by_key(|&(v, _)| v);
        self.rows.push((op, rhs, self.terms.len()));
    }

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
        e.u32(self.rows.len() as u32);
        for (op, rhs, terms) in self.rows() {
            e.u8(match op {
                CmpOp::Eq => 0,
                CmpOp::Le => 1,
                CmpOp::Ge => 2,
            });
            e.u64(rhs as u64);
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
        for &c in &self.obj {
            lp.add_var(c);
        }
        for (op, rhs, terms) in self.rows() {
            lp.add_constraint(terms.iter().map(|&(v, c)| (VarId(v as usize), c)), op, rhs);
        }
        let sol = lp.maximize_integer()?;
        Ok(SegmentSummary { objective: sol.objective, values: sol.values })
    }
}

/// Marks every node that lies on some cycle: members of a non-trivial
/// strongly connected component, or targets of a self-loop.
fn on_cycle(icfg: &Icfg) -> Vec<bool> {
    let n = icfg.nodes().len();
    let mut cyclic = vec![false; n];
    for e in icfg.edges() {
        if e.from == e.to {
            cyclic[e.to.index()] = true;
        }
    }
    stamp_cfg::sccs(
        n,
        |u| icfg.succs(NodeId(u as u32)).map(|e| e.to.index()),
        |members| {
            if members.len() >= 2 {
                for &w in members {
                    cyclic[w] = true;
                }
            }
        },
    );
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
    ipet: &Ipet,
    memo: &dyn SummaryMemo,
) -> Result<Option<(i64, Vec<i64>)>, PathError> {
    let Some(mut segments) = Segments::cut(ipet) else { return Ok(None) };
    let mut total_objective: i64 = 0;
    let mut edge_values = vec![0i64; ipet.icfg.edges().len()];
    for i in 0..=segments.cuts.len() {
        let Some(seglp) = segments.build(ipet, i) else { return Ok(None) };
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

/// A validated decomposition of the supergraph at series cuts, with the
/// scratch numbering its segments are built in. Segment `i` runs from
/// cut `i − 1` (the entry for `i = 0`) to cut `i` (the exits for the
/// last segment).
struct Segments {
    /// The cuts, entry-side first.
    cuts: Vec<u32>,
    /// Position in `cuts` per node (`usize::MAX` for other nodes).
    cut_no: Vec<usize>,
    /// Segment per node; an edge belongs to its target's segment.
    seg: Vec<usize>,
    /// Number of edges per segment.
    owned_edges: Vec<usize>,
    /// `(segment, instance index)` of every loop rule, sorted by
    /// segment and in table order within one.
    rules: Vec<(usize, u32)>,
    /// `(segment, edge id)` of every pin, sorted by segment.
    pins: Vec<(usize, u32)>,
    /// Canonical number per node, with the segment that numbered it (a
    /// cut is numbered by both segments it bounds).
    canon_node: Vec<(usize, u32)>,
    /// Canonical number per edge, given by its owning segment.
    canon_edge: Vec<u32>,
}

impl Segments {
    /// Finds the cuts and assigns every node, loop rule and pin a
    /// segment. `None` when the program offers no valid decomposition.
    fn cut(ipet: &Ipet) -> Option<Segments> {
        let icfg = ipet.icfg;
        let n = icfg.nodes().len();
        let exits = icfg.exits();
        if exits.is_empty() || n == 0 {
            return None;
        }
        // Reverse postorder; decomposition steps aside when some node is
        // unreachable from the entry.
        let rpo_num: Vec<u32> = icfg.nodes().iter().map(|nd| icfg.rpo_index(nd.id)).collect();
        if rpo_num.contains(&u32::MAX) {
            return None;
        }
        let mut rpo = vec![0usize; n];
        for (u, &i) in rpo_num.iter().enumerate() {
            rpo[i as usize] = u;
        }
        let doms = Idoms::new(n, &rpo, |u| icfg.preds(NodeId(u as u32)).map(|e| e.from.index()));
        let idom = |u: usize| doms.idom(u).expect("every node is reached");
        let cyclic = on_cycle(icfg);
        let mut is_exit = vec![false; n];
        for &x in exits {
            is_exit[x.index()] = true;
        }

        // Candidate cuts: the dominator chain of the exits' nearest
        // common dominator, entry-side first, filtered to valid series
        // points.
        let entry = icfg.entry().index();
        let mut chain: Vec<u32> = Vec::new();
        let mut c = exits[1..].iter().fold(exits[0].index(), |d, x| doms.common(d, x.index()));
        while c != entry {
            chain.push(c as u32);
            c = idom(c);
        }
        chain.reverse();
        let cuts: Vec<u32> = chain
            .into_iter()
            .filter(|&c| !cyclic[c as usize] && !is_exit[c as usize] && !in_loop_context(icfg, c))
            .collect();
        if cuts.is_empty() {
            return None;
        }
        let k = cuts.len();

        // Segment index per node: one more than the number of cuts
        // strictly dominating it. Cut j itself lands in segment j (its
        // in-edges close segment j; its out-edges open segment j+1).
        let mut cut_no = vec![usize::MAX; n];
        for (j, &c) in cuts.iter().enumerate() {
            cut_no[c as usize] = j;
        }
        let mut seg = vec![0usize; n];
        for &u in &rpo[1..] {
            let d = idom(u);
            seg[u] = seg[d] + usize::from(cut_no[d] != usize::MAX);
        }

        // A cut's out-edges must open the next segment and every other
        // edge must stay inside its source's segment — otherwise the
        // decomposition is invalid.
        let mut owned_edges = vec![0usize; k + 1];
        for e in icfg.edges() {
            let f = e.from.index();
            let expected = if cut_no[f] != usize::MAX { cut_no[f] + 1 } else { seg[f] };
            if seg[e.to.index()] != expected {
                return None;
            }
            owned_edges[expected] += 1;
        }
        if exits.iter().any(|x| seg[x.index()] != k) {
            return None;
        }
        // Every loop rule must fall within a single segment.
        let owner = |e: &IEdgeId| seg[icfg.edge(*e).to.index()];
        let mut rules: Vec<(usize, u32)> = Vec::new();
        for (i, (inst, rule)) in icfg.loop_instances().iter().zip(ipet.rules).enumerate() {
            if *rule == FlowRule::Acyclic {
                continue;
            }
            let mut segs = inst.entries.iter().chain(&inst.backs).map(owner);
            let first = segs.next().expect("a rule's instance has a back edge");
            if segs.any(|s| s != first) {
                return None;
            }
            rules.push((first, i as u32));
        }
        let mut pins: Vec<(usize, u32)> = ipet.pins.iter().map(|e| (owner(e), e.0)).collect();
        rules.sort_by_key(|&(s, _)| s);
        pins.sort_by_key(|&(s, _)| s);
        Some(Segments {
            cuts,
            cut_no,
            seg,
            owned_edges,
            rules,
            pins,
            canon_node: vec![(usize::MAX, 0); n],
            canon_edge: vec![0; icfg.edges().len()],
        })
    }

    /// Builds segment `i`'s canonical ILP: breadth-first traversal from
    /// the boundary over owned edges fixes the canonical numbering, then
    /// the rows are emitted in a fixed order. Returns `None` when the
    /// traversal fails to cover every owned edge and exit.
    fn build(&mut self, ipet: &Ipet, i: usize) -> Option<SegLp> {
        let icfg = ipet.icfg;
        let boundary = if i == 0 { icfg.entry().0 } else { self.cuts[i - 1] };
        let sink_boundary = self.cuts.get(i).copied();
        let (seg, cut_no) = (&self.seg, &self.cut_no);
        let (canon_node, canon_edge) = (&mut self.canon_node, &mut self.canon_edge);
        let mut visit_order: Vec<u32> = vec![boundary];
        canon_node[boundary as usize] = (i, 0);
        let mut edges: Vec<IEdgeId> = Vec::new();
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
                canon_edge[e.id.index()] = edges.len() as u32;
                edges.push(e.id);
                let v = e.to.index();
                if canon_node[v].0 != i {
                    canon_node[v] = (i, visit_order.len() as u32);
                    visit_order.push(v as u32);
                    queue.push_back(v as u32);
                }
            }
        }
        if edges.len() != self.owned_edges[i] {
            return None;
        }

        // Variables: 0 = source, 1..=E = edges, then sinks (last segment).
        let source = 0u32;
        let canon_edge = &self.canon_edge;
        let var = |e: &IEdgeId| 1 + canon_edge[e.index()];
        let mut obj: Vec<i64> = Vec::with_capacity(1 + edges.len());
        obj.push(if i == 0 { ipet.entry_time() } else { 0 });
        obj.extend(edges.iter().map(|&e| ipet.cost(e)));
        let mut sinks: Vec<(u32, u32)> = Vec::new(); // (node, var)
        if sink_boundary.is_none() {
            let number = |x: &u32| match self.canon_node[*x as usize] {
                (s, num) if s == i => num,
                _ => u32::MAX,
            };
            let mut xs: Vec<u32> = icfg.exits().iter().map(|x| x.0).collect();
            xs.sort_by_key(number);
            for x in xs {
                if number(&x) == u32::MAX {
                    return None;
                }
                sinks.push((x, obj.len() as u32));
                obj.push(0);
            }
        }
        let mut lp = SegLp { obj, rows: Vec::new(), terms: Vec::new(), edges };

        // The segment source fires exactly once.
        lp.terms.push((source, 1));
        lp.row(CmpOp::Eq, 1);
        // Conservation, boundary first, then interior nodes in canonical
        // order. The boundary receives the source; in segment 0 the entry
        // may also have (owned) in-edges. The sink boundary's
        // conservation belongs to the next segment; here its inflow is
        // pinned to one.
        for &u in &visit_order {
            let node = NodeId(u);
            if Some(u) == sink_boundary {
                lp.terms.extend(icfg.preds(node).map(|e| (var(&e.id), 1)));
                lp.row(CmpOp::Eq, 1);
                continue;
            }
            if u == boundary {
                lp.terms.push((source, 1));
            }
            if u != boundary || i == 0 {
                lp.terms.extend(icfg.preds(node).map(|e| (var(&e.id), 1)));
            }
            lp.terms.extend(icfg.succs(node).map(|e| (var(&e.id), -1)));
            if let Some(&(_, s)) = sinks.iter().find(|&&(x, _)| x == u) {
                lp.terms.push((s, -1));
            }
            lp.row(CmpOp::Eq, 0);
        }
        // Exactly one sink fires (last segment only).
        if !sinks.is_empty() {
            lp.terms.extend(sinks.iter().map(|&(_, v)| (v, 1i64)));
            lp.row(CmpOp::Eq, 1);
        }

        // Owned loop rules, ordered by their instance's smallest
        // canonical edge so isomorphic segments emit identical rows.
        let instances = icfg.loop_instances();
        let mut owned: Vec<u32> = owned_by(&self.rules, i).collect();
        owned.sort_by_key(|&r| {
            let inst = &instances[r as usize];
            inst.entries.iter().chain(&inst.backs).map(var).min()
        });
        for r in owned {
            let inst = &instances[r as usize];
            match ipet.rules[r as usize] {
                FlowRule::Bounded(bound) => {
                    let mul = bound.saturating_sub(1).min(i64::MAX as u64) as i64;
                    lp.terms.extend(inst.backs.iter().map(|b| (var(b), 1)));
                    lp.terms.extend(inst.entries.iter().map(|en| (var(en), -mul)));
                    // The task starts in the loop: the entry node heads
                    // it, so it is owned by segment 0, whose source is
                    // the task's.
                    if icfg.entered_at_start(inst) {
                        lp.terms.push((source, -mul));
                    }
                    lp.row(CmpOp::Le, 0);
                }
                FlowRule::NeverEntered => {
                    let mut pinned: Vec<u32> =
                        inst.entries.iter().chain(&inst.backs).map(var).collect();
                    pinned.sort_unstable();
                    for v in pinned {
                        lp.terms.push((v, 1));
                        lp.row(CmpOp::Le, 0);
                    }
                }
                FlowRule::Acyclic | FlowRule::Unbounded => {}
            }
        }
        // Owned infeasibility pins, by canonical edge.
        let mut pins: Vec<u32> = owned_by(&self.pins, i).map(|e| var(&IEdgeId(e))).collect();
        pins.sort_unstable();
        for v in pins {
            lp.terms.push((v, 1));
            lp.row(CmpOp::Le, 0);
        }
        Some(lp)
    }
}

/// The items segment `i` owns in a `(segment, item)` list sorted by
/// segment.
fn owned_by(list: &[(usize, u32)], i: usize) -> impl Iterator<Item = u32> + '_ {
    let start = list.partition_point(|&(s, _)| s < i);
    list[start..].iter().take_while(move |&&(s, _)| s == i).map(|&(_, item)| item)
}
