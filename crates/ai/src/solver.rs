//! Generic worklist fixpoint solver over the supergraph.
//!
//! [`solve`] uses an index-based bucket priority queue keyed by reverse
//! post-order with an `in_worklist` bitset, and copy-on-write edge
//! propagation (states flow by reference unless an edge actually
//! refines them). The naive textbook solver it replaced (`BTreeSet`
//! worklist, one owned state per propagated edge) lives on as the
//! executable specification in `tests/worklist_diff.rs`, which checks
//! that both produce identical fixpoints, evaluation counts and
//! infeasible-edge sets.

use std::borrow::Cow;

use crate::domain::Domain;
use crate::icfg::{IEdge, IEdgeKind, Icfg, NodeId};

/// A forward dataflow problem over an [`Icfg`].
///
/// The solver computes, for every node, the least fixpoint of
///
/// ```text
/// in(n)  = ⊔ { edge(e, out(src(e))) | e ∈ preds(n) }   (⊔ boundary at entry)
/// out(n) = transfer(n, in(n))
/// ```
///
/// with widening applied at back-edge targets.
pub trait Transfer {
    /// The abstract state attached to node boundaries.
    type State: Domain;

    /// The state holding at the task entry.
    fn boundary(&self) -> Self::State;

    /// Transfer through the instructions of a node's block.
    ///
    /// [`solve`] re-schedules a node whenever its input grows, so the last
    /// call for each reached node sees that node's final input. A
    /// transfer may therefore record per-node facts as it walks the block,
    /// overwriting the node's earlier record, and needs no second walk
    /// over the finished fixpoint.
    fn transfer(&mut self, icfg: &Icfg, node: NodeId, input: &Self::State) -> Self::State;

    /// Transfer along an edge (e.g. branch refinement). Returning `None`
    /// marks the edge infeasible: nothing is propagated.
    ///
    /// The default propagates the state unchanged **by reference** —
    /// implementations should return [`Cow::Borrowed`] whenever the edge
    /// does not refine the state, so the solver never clones on the
    /// common pass-through path.
    fn edge<'s>(
        &mut self,
        icfg: &Icfg,
        edge: &IEdge,
        state: &'s Self::State,
    ) -> Option<Cow<'s, Self::State>> {
        let _ = (icfg, edge);
        Some(Cow::Borrowed(state))
    }
}

/// The result of a fixpoint computation: per-node entry/exit states.
/// `None` means the node was found unreachable.
#[derive(Clone, Debug)]
pub struct Fixpoint<S> {
    ins: Vec<Option<S>>,
    outs: Vec<Option<S>>,
    /// Edges proven infeasible by the edge transfer (never propagated a
    /// state in the final fixpoint).
    pub infeasible_edges: Vec<crate::icfg::IEdgeId>,
    /// Number of node evaluations performed (for the scaling experiment).
    pub evaluations: u64,
}

impl<S> Fixpoint<S> {
    /// The state at a node's entry, if reachable.
    pub fn input(&self, n: NodeId) -> Option<&S> {
        self.ins[n.index()].as_ref()
    }

    /// The state at a node's exit, if reachable.
    pub fn output(&self, n: NodeId) -> Option<&S> {
        self.outs[n.index()].as_ref()
    }

    /// The raw per-node `(entry, exit)` state slices, indexed by node.
    /// Used to encode a fixpoint into a stored artifact.
    pub fn states(&self) -> (&[Option<S>], &[Option<S>]) {
        (&self.ins, &self.outs)
    }

    /// Reassembles a fixpoint from per-node states (the inverse of
    /// [`Fixpoint::states`] plus the public bookkeeping fields).
    pub fn from_parts(
        ins: Vec<Option<S>>,
        outs: Vec<Option<S>>,
        infeasible_edges: Vec<crate::icfg::IEdgeId>,
        evaluations: u64,
    ) -> Fixpoint<S> {
        Fixpoint { ins, outs, infeasible_edges, evaluations }
    }
}

impl<S: Domain> Fixpoint<S> {
    /// Structural equivalence of two fixpoints (mutual `⊑` per node plus
    /// identical bookkeeping) — the oracle of the differential tests.
    pub fn equivalent(&self, other: &Fixpoint<S>) -> bool {
        let same_state = |a: &Option<S>, b: &Option<S>| match (a, b) {
            (None, None) => true,
            (Some(x), Some(y)) => x.le(y) && y.le(x),
            _ => false,
        };
        self.evaluations == other.evaluations
            && self.infeasible_edges == other.infeasible_edges
            && self.ins.len() == other.ins.len()
            && self.ins.iter().zip(&other.ins).all(|(a, b)| same_state(a, b))
            && self.outs.iter().zip(&other.outs).all(|(a, b)| same_state(a, b))
    }
}

/// The widening points of a graph: targets of back edges (and of any
/// retreating edge by RPO, to be safe with return-edge cycles).
fn widening_points(icfg: &Icfg) -> Vec<bool> {
    let mut widen_at = vec![false; icfg.nodes().len()];
    for e in icfg.edges() {
        let retreating = icfg.rpo_index(e.to) <= icfg.rpo_index(e.from);
        if retreating || matches!(e.kind, IEdgeKind::Intra { back_edge_of: Some(_), .. }) {
            widen_at[e.to.index()] = true;
        }
    }
    widen_at
}

/// An indexed bucket priority queue over reverse-post-order positions.
///
/// Because RPO indices are a bijection on reachable nodes, each bucket
/// holds at most one node, so the queue degenerates to a bitset over RPO
/// positions (doubling as the `in_worklist` membership test) plus a
/// cursor that only ever scans forward between re-insertions. Both
/// operations are O(1) amortized; no allocation happens after
/// construction.
struct RpoWorklist {
    /// One bit per RPO position; set = node is in the worklist.
    pending: Vec<u64>,
    /// The node occupying each RPO position.
    node_at: Vec<NodeId>,
    /// Lowest word that may contain a set bit.
    cursor: usize,
}

impl RpoWorklist {
    fn new(icfg: &Icfg) -> RpoWorklist {
        let n = icfg.nodes().len();
        let mut node_at = vec![NodeId(u32::MAX); n];
        for nd in icfg.nodes() {
            let r = icfg.rpo_index(nd.id);
            if r != u32::MAX {
                node_at[r as usize] = nd.id;
            }
        }
        RpoWorklist { pending: vec![0; n.div_ceil(64).max(1)], node_at, cursor: 0 }
    }

    /// Inserts the node with the given RPO index (no-op when present).
    fn insert(&mut self, rpo: u32) {
        debug_assert!(rpo != u32::MAX, "unreachable node scheduled");
        let (w, b) = (rpo as usize / 64, rpo as usize % 64);
        self.pending[w] |= 1 << b;
        self.cursor = self.cursor.min(w);
    }

    /// Removes and returns the node with the smallest RPO index.
    fn pop(&mut self) -> Option<NodeId> {
        while self.cursor < self.pending.len() {
            let word = self.pending[self.cursor];
            if word != 0 {
                let bit = word.trailing_zeros() as usize;
                self.pending[self.cursor] = word & (word - 1);
                return Some(self.node_at[self.cursor * 64 + bit]);
            }
            self.cursor += 1;
        }
        None
    }
}

/// Runs the worklist algorithm to a fixpoint.
///
/// Nodes are processed in reverse post-order priority. Widening is
/// applied at targets of loop back edges after `widen_delay` joins to
/// preserve precision on the peeled iterations.
///
/// States propagate along edges by reference ([`Transfer::edge`] returns
/// a [`Cow`]); an owned clone is made only when a successor's entry
/// state is first materialized. Results are identical to the naive
/// reference solver in `tests/worklist_diff.rs`.
pub fn solve<T: Transfer>(icfg: &Icfg, transfer: &mut T, widen_delay: u32) -> Fixpoint<T::State> {
    let n = icfg.nodes().len();
    let mut ins: Vec<Option<T::State>> = vec![None; n];
    let mut outs: Vec<Option<T::State>> = vec![None; n];
    let mut join_count: Vec<u32> = vec![0; n];
    let mut evaluations: u64 = 0;
    let widen_at = widening_points(icfg);

    let mut work = RpoWorklist::new(icfg);
    let entry = icfg.entry();
    ins[entry.index()] = Some(transfer.boundary());
    work.insert(icfg.rpo_index(entry));

    let mut edge_fired = vec![false; icfg.edges().len()];

    while let Some(node) = work.pop() {
        // Cancellation point: a runaway fixpoint (pathological widening
        // or a huge context product) must stay interruptible, so jobs
        // running under a deadline can report `timeout` instead of
        // wedging a worker. Throttled — a no-op on most iterations.
        stamp_exec::cancel::checkpoint();
        if ins[node.index()].is_none() {
            // A node can only be scheduled after its entry state was
            // materialized, so this is unreachable — but were it taken,
            // the join counter must go back to zero: joins that never
            // propagated must not consume the widening delay.
            join_count[node.index()] = 0;
            continue;
        }
        evaluations += 1;
        let out = {
            let input = ins[node.index()].as_ref().expect("checked above");
            transfer.transfer(icfg, node, input)
        };
        let out_changed = match &mut outs[node.index()] {
            Some(prev) => prev.join_from(&out),
            slot @ None => {
                *slot = Some(out);
                true
            }
        };
        if !out_changed && evaluations > 1 {
            // Re-evaluation did not grow the output: successors already
            // saw everything this node can produce.
            continue;
        }
        // `outs` is only read and `ins` only written below, so the
        // out-state flows to every successor without the re-join
        // clone round-trip the naive solver pays.
        let out_state = outs[node.index()].as_ref().expect("just set");
        for e in icfg.succs(node) {
            let propagated = match transfer.edge(icfg, &e, out_state) {
                Some(s) => s,
                None => continue,
            };
            edge_fired[e.id.index()] = true;
            let ti = e.to.index();
            let changed = match &mut ins[ti] {
                Some(prev) => {
                    join_count[ti] += 1;
                    if widen_at[ti] && join_count[ti] > widen_delay {
                        prev.widen_from(&propagated)
                    } else {
                        prev.join_from(&propagated)
                    }
                }
                slot @ None => {
                    *slot = Some(propagated.into_owned());
                    true
                }
            };
            if changed {
                work.insert(icfg.rpo_index(e.to));
            }
        }
    }

    let infeasible_edges = icfg
        .edges()
        .iter()
        .filter(|e| !edge_fired[e.id.index()] && outs[e.from.index()].is_some())
        .map(|e| e.id)
        .collect();

    Fixpoint { ins, outs, infeasible_edges, evaluations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::VivuConfig;
    use stamp_cfg::CfgBuilder;
    use stamp_isa::asm::assemble;

    #[test]
    fn rpo_worklist_pops_in_rpo_order() {
        let src = ".text\nmain: li r1, 4\nloop: addi r1, r1, -1\nbnez r1, loop\nhalt\n";
        let p = assemble(src).unwrap();
        let cfg = CfgBuilder::new(&p).build().unwrap();
        let icfg = Icfg::build(&cfg, &VivuConfig::default()).unwrap();
        let mut wl = RpoWorklist::new(&icfg);
        // Insert all nodes in reverse order, plus duplicates.
        let mut rpos: Vec<u32> = icfg.nodes().iter().map(|nd| icfg.rpo_index(nd.id)).collect();
        rpos.sort_unstable_by(|a, b| b.cmp(a));
        for &r in &rpos {
            wl.insert(r);
            wl.insert(r);
        }
        let mut popped = Vec::new();
        while let Some(nd) = wl.pop() {
            popped.push(icfg.rpo_index(nd));
        }
        let mut expect = rpos.clone();
        expect.sort_unstable();
        assert_eq!(popped, expect, "duplicates dropped, ascending order");
        // Re-insertion below the cursor is found again.
        wl.insert(rpos[0]);
        wl.insert(0);
        assert_eq!(wl.pop().map(|n| icfg.rpo_index(n)), Some(0));
        assert_eq!(wl.pop().map(|n| icfg.rpo_index(n)), Some(rpos[0]));
        assert!(wl.pop().is_none());
    }
}
