//! The context-expanded interprocedural CFG (supergraph).
//!
//! Every micro-architectural analysis and the path analysis run on this
//! graph: nodes are `(basic block, context)` pairs, edges carry their
//! originating CFG edge (for loop-bound constraints) or call/return
//! information. Virtual inlining replaces call/return by explicit edges
//! into per-context copies of the callee; virtual unrolling gives the
//! first `peel` iterations of every loop their own copies.

use std::collections::{HashMap, HashSet, VecDeque};
use std::error::Error;
use std::fmt;

use stamp_cfg::{BlockId, Cfg, CfgError, EdgeId, EdgeKind, FuncId};

use crate::context::{Ctx, CtxId, CtxTable, Frame, VivuConfig};

/// Index of a node in an [`Icfg`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Index of an edge in an [`Icfg`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IEdgeId(pub u32);

impl IEdgeId {
    /// The edge index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for IEdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ie{}", self.0)
    }
}

/// A supergraph node: one basic block in one context.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Node {
    /// This node's id.
    pub id: NodeId,
    /// The underlying basic block.
    pub block: BlockId,
    /// The execution context.
    pub ctx: CtxId,
}

/// Kind of a supergraph edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IEdgeKind {
    /// An intra-procedural edge; `cfg_edge` is the underlying CFG edge and
    /// `back_edge_of` names the loop header when it is a back edge.
    Intra { cfg_edge: EdgeId, back_edge_of: Option<BlockId> },
    /// A call edge from the call block into a callee entry.
    Call { site: u32 },
    /// A return edge from a callee return block to the caller's
    /// continuation; `back_edge_of` names the loop header when the
    /// call's fall-through edge is a back edge of that loop.
    Return { site: u32, back_edge_of: Option<BlockId> },
}

impl IEdgeKind {
    /// The loop header this edge is a back edge of, if any.
    pub fn back_edge_of(self) -> Option<BlockId> {
        match self {
            IEdgeKind::Intra { back_edge_of, .. } | IEdgeKind::Return { back_edge_of, .. } => {
                back_edge_of
            }
            IEdgeKind::Call { .. } => None,
        }
    }
}

/// A supergraph edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IEdge {
    /// This edge's id.
    pub id: IEdgeId,
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Kind and provenance.
    pub kind: IEdgeKind,
}

/// Errors raised while expanding the supergraph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IcfgError {
    /// Virtual inlining exceeded the configured depth — almost always
    /// recursion, which requires annotations and is not supported by the
    /// ICFG-based WCET analyses.
    CallDepthExceeded { site: u32, depth: usize },
    /// More contexts than [`VivuConfig::max_contexts`] were created.
    ContextExplosion { limit: usize },
    /// An error from loop detection (e.g. irreducible control flow).
    Cfg(CfgError),
}

impl fmt::Display for IcfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IcfgError::CallDepthExceeded { site, depth } => {
                write!(f, "call depth {depth} exceeded at call site {site:#x} (recursive program?)")
            }
            IcfgError::ContextExplosion { limit } => {
                write!(f, "context limit of {limit} exceeded")
            }
            IcfgError::Cfg(e) => write!(f, "{e}"),
        }
    }
}

impl Error for IcfgError {}

impl From<CfgError> for IcfgError {
    fn from(e: CfgError) -> IcfgError {
        IcfgError::Cfg(e)
    }
}

/// One virtual-inlining instance of a call site.
#[derive(Clone, Debug)]
pub struct CallInstance {
    /// Address of the call instruction.
    pub site: u32,
    /// The callee.
    pub callee: FuncId,
    /// Context inside the callee (caller context + call frame).
    pub inner: CtxId,
    /// The caller-side continuation node, if the call has a local
    /// successor.
    pub return_node: Option<NodeId>,
}

/// Identifies one loop *instance*: a loop header together with the
/// context surrounding the loop (call string and outer-loop frames).
pub type LoopKey = (BlockId, Vec<Frame>);

/// One loop instance of the supergraph and the edges that bound it.
///
/// Its header nodes are the nodes of `header` whose context, less a
/// trailing `Frame::Loop` of this loop, is `outer`. Loop-bound
/// analysis bounds each instance, and path analysis and sampling
/// constrain `Σ backs ≤ (bound − 1) · Σ entries` over it. When the
/// task entry node is a header node ([`Icfg::entered_at_start`]), the
/// virtual source that starts the task counts as one more entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoopInstance {
    /// The loop header block.
    pub header: BlockId,
    /// The frames surrounding the loop.
    pub outer: Vec<Frame>,
    /// Edges into the header nodes that are not back edges of this
    /// loop (intra entry edges, and call or return edges arriving at
    /// a header), in id order.
    pub entries: Vec<IEdgeId>,
    /// Back edges of this loop into the header nodes (intra edges, and
    /// return edges whose call falls through into the header), in id
    /// order.
    pub backs: Vec<IEdgeId>,
}

impl LoopInstance {
    /// The instance's key.
    pub fn key(&self) -> LoopKey {
        (self.header, self.outer.clone())
    }
}

/// The context-expanded supergraph. Build with [`Icfg::build`].
#[derive(Clone, Debug)]
pub struct Icfg {
    nodes: Vec<Node>,
    edges: Vec<IEdge>,
    succs: Vec<Vec<IEdgeId>>,
    preds: Vec<Vec<IEdgeId>>,
    node_ids: HashMap<(BlockId, CtxId), NodeId>,
    nodes_by_block: HashMap<BlockId, Vec<NodeId>>,
    ctxs: CtxTable,
    entry: NodeId,
    exits: Vec<NodeId>,
    call_instances: Vec<CallInstance>,
    loop_instances: Vec<LoopInstance>,
    rpo_index: Vec<u32>,
}

impl Icfg {
    /// Expands `cfg` into a supergraph under the given VIVU configuration.
    ///
    /// # Errors
    ///
    /// See [`IcfgError`]. Unresolved indirect jumps are tolerated (their
    /// blocks become dead ends) so that the value analysis can run and
    /// resolve them; the path analysis refuses incomplete graphs.
    pub fn build(cfg: &Cfg, vivu: &VivuConfig) -> Result<Icfg, IcfgError> {
        Builder::new(cfg, vivu)?.run()
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// One node.
    pub fn node(&self, id: NodeId) -> Node {
        self.nodes[id.index()]
    }

    /// All edges.
    pub fn edges(&self) -> &[IEdge] {
        &self.edges
    }

    /// One edge.
    pub fn edge(&self, id: IEdgeId) -> IEdge {
        self.edges[id.index()]
    }

    /// Outgoing edges of a node.
    pub fn succs(&self, n: NodeId) -> impl Iterator<Item = IEdge> + '_ {
        self.succs[n.index()].iter().map(|&e| self.edges[e.index()])
    }

    /// Incoming edges of a node.
    pub fn preds(&self, n: NodeId) -> impl Iterator<Item = IEdge> + '_ {
        self.preds[n.index()].iter().map(|&e| self.edges[e.index()])
    }

    /// The task-entry node.
    pub fn entry(&self) -> NodeId {
        self.entry
    }

    /// Task-exit nodes: `halt` blocks in any context plus `return` blocks
    /// of the entry function in the root call context.
    pub fn exits(&self) -> &[NodeId] {
        &self.exits
    }

    /// The context table.
    pub fn ctxs(&self) -> &CtxTable {
        &self.ctxs
    }

    /// The node for `(block, ctx)` if it exists.
    pub fn node_of(&self, block: BlockId, ctx: CtxId) -> Option<NodeId> {
        self.node_ids.get(&(block, ctx)).copied()
    }

    /// All context instances of one basic block.
    pub fn nodes_of_block(&self, block: BlockId) -> &[NodeId] {
        self.nodes_by_block.get(&block).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All virtual-inlining call instances.
    pub fn call_instances(&self) -> &[CallInstance] {
        &self.call_instances
    }

    /// Every loop instance, ordered by `(header, outer)`. Includes
    /// header nodes that no edge enters.
    pub fn loop_instances(&self) -> &[LoopInstance] {
        &self.loop_instances
    }

    /// The instances of the loop headed at `header`, ordered by
    /// `outer`.
    pub fn loop_instances_of(&self, header: BlockId) -> &[LoopInstance] {
        let all = &self.loop_instances;
        let start = all.partition_point(|l| l.header < header);
        let len = all[start..].partition_point(|l| l.header == header);
        &all[start..start + len]
    }

    /// `true` when the task entry node is one of `inst`'s header nodes:
    /// the virtual source that starts the task then enters `inst` once,
    /// besides its entry edges. The entry node has the root context, so
    /// its instance is the one of its block with no outer frames.
    pub fn entered_at_start(&self, inst: &LoopInstance) -> bool {
        inst.header == self.node(self.entry).block && inst.outer.is_empty()
    }

    /// Reverse-post-order index of a node (entry = 0), from a depth-first
    /// search over successors in edge order; unreached nodes map to
    /// `u32::MAX`.
    pub fn rpo_index(&self, n: NodeId) -> u32 {
        self.rpo_index[n.index()]
    }
}

struct Builder<'c> {
    cfg: &'c Cfg,
    vivu: &'c VivuConfig,
    ctxs: CtxTable,
    nodes: Vec<Node>,
    node_ids: HashMap<(BlockId, CtxId), NodeId>,
    edges: Vec<IEdge>,
    succs: Vec<Vec<IEdgeId>>,
    preds: Vec<Vec<IEdgeId>>,
    queue: VecDeque<NodeId>,
    /// Per block: enclosing loop headers, outermost first.
    chains: HashMap<BlockId, Vec<BlockId>>,
    /// Per CFG edge: header of the loop it is a back edge of.
    back_of: HashMap<EdgeId, BlockId>,
    call_instances: Vec<CallInstance>,
}

impl<'c> Builder<'c> {
    fn new(cfg: &'c Cfg, vivu: &'c VivuConfig) -> Result<Builder<'c>, IcfgError> {
        let mut chains: HashMap<BlockId, Vec<BlockId>> = HashMap::new();
        let mut back_of = HashMap::new();
        for f in cfg.functions() {
            let forest = cfg.loop_forest(f.id)?;
            for &b in &f.blocks {
                // Build the chain by walking innermost → outermost.
                let mut chain = Vec::new();
                let mut cur = forest.innermost(b);
                while let Some(lid) = cur {
                    let l = forest.get(lid);
                    chain.push(l.header);
                    cur = l.parent;
                }
                chain.reverse();
                chains.insert(b, chain);
            }
            for l in forest.loops() {
                for &e in &l.back_edges {
                    back_of.insert(e, l.header);
                }
            }
        }
        Ok(Builder {
            cfg,
            vivu,
            ctxs: CtxTable::new(),
            nodes: Vec::new(),
            node_ids: HashMap::new(),
            edges: Vec::new(),
            succs: Vec::new(),
            preds: Vec::new(),
            queue: VecDeque::new(),
            chains,
            back_of,
            call_instances: Vec::new(),
        })
    }

    fn node(&mut self, block: BlockId, ctx: CtxId) -> Result<NodeId, IcfgError> {
        if let Some(&id) = self.node_ids.get(&(block, ctx)) {
            return Ok(id);
        }
        if self.ctxs.len() > self.vivu.max_contexts || self.nodes.len() > 4 * self.vivu.max_contexts
        {
            return Err(IcfgError::ContextExplosion { limit: self.vivu.max_contexts });
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { id, block, ctx });
        self.node_ids.insert((block, ctx), id);
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        self.queue.push_back(id);
        Ok(id)
    }

    fn add_edge(&mut self, from: NodeId, to: NodeId, kind: IEdgeKind) {
        // Deduplicate (possible when several CFG paths yield the same
        // context transition).
        if self.succs[from.index()]
            .iter()
            .any(|&e| self.edges[e.index()].to == to && self.edges[e.index()].kind == kind)
        {
            return;
        }
        let id = IEdgeId(self.edges.len() as u32);
        self.edges.push(IEdge { id, from, to, kind });
        self.succs[from.index()].push(id);
        self.preds[to.index()].push(id);
    }

    /// Applies the VIVU context transformation of an intra-procedural
    /// edge: pop exited loops, bump the iteration class on back edges,
    /// push entered loops at iteration 0.
    fn transform(&mut self, ctx: CtxId, from: BlockId, to: BlockId, eid: EdgeId) -> CtxId {
        if self.vivu.peel == 0 {
            return ctx;
        }
        let mut frames = self.ctxs.get(ctx).0.clone();
        let peel = self.vivu.peel;
        if let Some(&h) = self.back_of.get(&eid) {
            // Pop loop frames of loops strictly inside h.
            while let Some(Frame::Loop { header, .. }) = frames.last() {
                if *header == h {
                    break;
                }
                frames.pop();
            }
            if let Some(Frame::Loop { header, iter }) = frames.last().copied() {
                if header == h {
                    frames.pop();
                    frames.push(Frame::Loop { header: h, iter: iter.saturating_add(1).min(peel) });
                }
            }
        } else {
            let from_chain = &self.chains[&from];
            let to_chain = &self.chains[&to];
            let common = from_chain.iter().zip(to_chain.iter()).take_while(|(a, b)| a == b).count();
            // Pop frames of exited loops (innermost first).
            for &h in from_chain[common..].iter().rev() {
                while let Some(f) = frames.pop() {
                    if matches!(f, Frame::Loop { header, .. } if header == h) {
                        break;
                    }
                }
            }
            // Push entered loops at iteration 0.
            for &h in &to_chain[common..] {
                frames.push(Frame::Loop { header: h, iter: 0 });
            }
        }
        self.ctxs.intern(Ctx(frames))
    }

    fn run(mut self) -> Result<Icfg, IcfgError> {
        let entry_block = self.cfg.func(self.cfg.entry_func()).entry;
        let root = self.ctxs.root();
        let entry = self.node(entry_block, root)?;

        while let Some(n) = self.queue.pop_front() {
            let Node { block, ctx, .. } = self.nodes[n.index()];
            if let Some(cs) = self.cfg.call_site_of(block) {
                let site = cs.addr;
                let targets: Vec<FuncId> = cs.callee.targets().to_vec();
                let return_to = cs.return_to;
                // Caller-side continuation (context transformed along the
                // CallFall edge, which may exit or re-enter loops).
                let ret_node = match return_to {
                    Some(rt) => {
                        let eid = self
                            .cfg
                            .succs(block)
                            .find(|(_, e)| e.kind == EdgeKind::CallFall && e.to == rt)
                            .map(|(id, _)| id);
                        let rctx = match eid {
                            Some(eid) => self.transform(ctx, block, rt, eid),
                            None => ctx,
                        };
                        Some(self.node(rt, rctx)?)
                    }
                    None => None,
                };
                for callee in targets {
                    let mut frames = self.ctxs.get(ctx).0.clone();
                    frames.push(Frame::Call { site });
                    let inner_ctx = Ctx(frames);
                    if inner_ctx.call_depth() > self.vivu.max_call_depth {
                        return Err(IcfgError::CallDepthExceeded {
                            site,
                            depth: inner_ctx.call_depth(),
                        });
                    }
                    let inner = self.ctxs.intern(inner_ctx);
                    let callee_entry = self.cfg.func(callee).entry;
                    // If the callee's entry block heads a loop, entering
                    // the function also enters that loop: push its frame
                    // so virtual unrolling applies to entry-header loops.
                    // (`inner` itself stays the pure call context — return
                    // matching relies on it.)
                    let entry_ctx = if self.vivu.peel > 0 {
                        let chain = self.chains[&callee_entry].clone();
                        if chain.is_empty() {
                            inner
                        } else {
                            let mut frames = self.ctxs.get(inner).0.clone();
                            for h in chain {
                                frames.push(Frame::Loop { header: h, iter: 0 });
                            }
                            self.ctxs.intern(Ctx(frames))
                        }
                    } else {
                        inner
                    };
                    let to = self.node(callee_entry, entry_ctx)?;
                    self.add_edge(n, to, IEdgeKind::Call { site });
                    self.call_instances.push(CallInstance {
                        site,
                        callee,
                        inner,
                        return_node: ret_node,
                    });
                }
            } else {
                let succ_list: Vec<(EdgeId, BlockId)> =
                    self.cfg.succs(block).map(|(eid, e)| (eid, e.to)).collect();
                for (eid, to_block) in succ_list {
                    let to_ctx = self.transform(ctx, block, to_block, eid);
                    let to = self.node(to_block, to_ctx)?;
                    let back = self.back_of.get(&eid).copied();
                    self.add_edge(n, to, IEdgeKind::Intra { cfg_edge: eid, back_edge_of: back });
                }
            }
        }

        // Return edges: connect every return-block instance of a callee
        // whose context sits inside the inlined call to the caller's
        // continuation.
        let instances = self.call_instances.clone();
        for inst in &instances {
            let ret_node = match inst.return_node {
                Some(r) => r,
                None => continue,
            };
            // A call whose fall-through edge is a back edge closes its
            // loop through these return edges.
            let ret_block = self.nodes[ret_node.index()].block;
            let back = self
                .cfg
                .preds(ret_block)
                .find(|(_, e)| e.kind == EdgeKind::CallFall)
                .and_then(|(eid, _)| self.back_of.get(&eid).copied());
            let inner_ctx = self.ctxs.get(inst.inner).clone();
            for &rb in &self.cfg.func(inst.callee).returns.clone() {
                let candidates: Vec<NodeId> = self
                    .nodes
                    .iter()
                    .filter(|nd| {
                        nd.block == rb && self.ctxs.get(nd.ctx).extends_with_loops(&inner_ctx)
                    })
                    .map(|nd| nd.id)
                    .collect();
                for c in candidates {
                    let kind = IEdgeKind::Return { site: inst.site, back_edge_of: back };
                    self.add_edge(c, ret_node, kind);
                }
            }
        }

        // Exits.
        let mut exits = Vec::new();
        for nd in &self.nodes {
            let b = self.cfg.block(nd.block);
            match b.exit_flow() {
                stamp_isa::Flow::Halt => exits.push(nd.id),
                stamp_isa::Flow::Return if self.ctxs.get(nd.ctx).call_depth() == 0 => {
                    exits.push(nd.id);
                }
                _ => {}
            }
        }

        // Reverse post-order from the entry.
        let n = self.nodes.len();
        let mut rpo_index = vec![u32::MAX; n];
        let mut visited = vec![false; n];
        let mut post: Vec<NodeId> = Vec::new();
        let mut stack: Vec<(NodeId, usize)> = vec![(entry, 0)];
        visited[entry.index()] = true;
        while let Some(&mut (nd, ref mut i)) = stack.last_mut() {
            let outs = &self.succs[nd.index()];
            if *i < outs.len() {
                let to = self.edges[outs[*i].index()].to;
                *i += 1;
                if !visited[to.index()] {
                    visited[to.index()] = true;
                    stack.push((to, 0));
                }
            } else {
                post.push(nd);
                stack.pop();
            }
        }
        for (i, nd) in post.iter().rev().enumerate() {
            rpo_index[nd.index()] = i as u32;
        }

        let mut nodes_by_block: HashMap<BlockId, Vec<NodeId>> = HashMap::new();
        for nd in &self.nodes {
            nodes_by_block.entry(nd.block).or_default().push(nd.id);
        }
        let loop_instances = self.index_loop_instances();

        Ok(Icfg {
            nodes: self.nodes,
            edges: self.edges,
            succs: self.succs,
            preds: self.preds,
            node_ids: self.node_ids,
            nodes_by_block,
            ctxs: self.ctxs,
            entry,
            exits,
            call_instances: self.call_instances,
            loop_instances,
            rpo_index,
        })
    }

    /// Groups the header nodes into loop instances: a header node's
    /// instance is its context with the loop's own trailing frame
    /// stripped. Every edge into a header node is an entry of that
    /// instance, or a back edge when the builder labelled it one.
    fn index_loop_instances(&self) -> Vec<LoopInstance> {
        let headers: HashSet<BlockId> = self.back_of.values().copied().collect();
        let mut keyed: Vec<(LoopKey, NodeId)> = self
            .nodes
            .iter()
            .filter(|nd| headers.contains(&nd.block))
            .map(|nd| {
                let mut outer = self.ctxs.get(nd.ctx).frames().to_vec();
                if matches!(outer.last(), Some(Frame::Loop { header, .. }) if *header == nd.block) {
                    outer.pop();
                }
                ((nd.block, outer), nd.id)
            })
            .collect();
        keyed.sort_unstable();
        let mut instances: Vec<LoopInstance> = Vec::new();
        let mut instance_of = vec![usize::MAX; self.nodes.len()];
        for ((header, outer), n) in keyed {
            if instances.last().is_none_or(|l| l.header != header || l.outer != outer) {
                instances.push(LoopInstance {
                    header,
                    outer,
                    entries: Vec::new(),
                    backs: Vec::new(),
                });
            }
            instance_of[n.index()] = instances.len() - 1;
        }
        for e in &self.edges {
            let Some(inst) = instances.get_mut(instance_of[e.to.index()]) else { continue };
            if e.kind.back_edge_of() == Some(inst.header) {
                inst.backs.push(e.id);
            } else {
                inst.entries.push(e.id);
            }
        }
        instances
    }
}

impl stamp_codec::Codec for NodeId {
    fn enc(&self, e: &mut stamp_codec::Enc) {
        e.u32(self.0);
    }
    fn dec(d: &mut stamp_codec::Dec) -> Result<NodeId, stamp_codec::CodecError> {
        Ok(NodeId(d.u32()?))
    }
}

impl stamp_codec::Codec for IEdgeId {
    fn enc(&self, e: &mut stamp_codec::Enc) {
        e.u32(self.0);
    }
    fn dec(d: &mut stamp_codec::Dec) -> Result<IEdgeId, stamp_codec::CodecError> {
        Ok(IEdgeId(d.u32()?))
    }
}

impl stamp_codec::Codec for Node {
    fn enc(&self, e: &mut stamp_codec::Enc) {
        self.id.enc(e);
        self.block.enc(e);
        self.ctx.enc(e);
    }
    fn dec(d: &mut stamp_codec::Dec) -> Result<Node, stamp_codec::CodecError> {
        Ok(Node { id: NodeId::dec(d)?, block: stamp_codec::Codec::dec(d)?, ctx: CtxId::dec(d)? })
    }
}

impl stamp_codec::Codec for IEdgeKind {
    fn enc(&self, e: &mut stamp_codec::Enc) {
        match self {
            IEdgeKind::Intra { cfg_edge, back_edge_of } => {
                e.u8(0);
                cfg_edge.enc(e);
                back_edge_of.enc(e);
            }
            IEdgeKind::Call { site } => {
                e.u8(1);
                e.u32(*site);
            }
            IEdgeKind::Return { site, back_edge_of } => {
                e.u8(2);
                e.u32(*site);
                back_edge_of.enc(e);
            }
        }
    }
    fn dec(d: &mut stamp_codec::Dec) -> Result<IEdgeKind, stamp_codec::CodecError> {
        match d.u8()? {
            0 => Ok(IEdgeKind::Intra {
                cfg_edge: stamp_codec::Codec::dec(d)?,
                back_edge_of: Option::dec(d)?,
            }),
            1 => Ok(IEdgeKind::Call { site: d.u32()? }),
            2 => Ok(IEdgeKind::Return { site: d.u32()?, back_edge_of: Option::dec(d)? }),
            _ => Err(stamp_codec::CodecError::Invalid("iedge kind")),
        }
    }
}

impl stamp_codec::Codec for IEdge {
    fn enc(&self, e: &mut stamp_codec::Enc) {
        self.id.enc(e);
        self.from.enc(e);
        self.to.enc(e);
        self.kind.enc(e);
    }
    fn dec(d: &mut stamp_codec::Dec) -> Result<IEdge, stamp_codec::CodecError> {
        Ok(IEdge {
            id: IEdgeId::dec(d)?,
            from: NodeId::dec(d)?,
            to: NodeId::dec(d)?,
            kind: IEdgeKind::dec(d)?,
        })
    }
}

impl stamp_codec::Codec for CallInstance {
    fn enc(&self, e: &mut stamp_codec::Enc) {
        e.u32(self.site);
        self.callee.enc(e);
        self.inner.enc(e);
        self.return_node.enc(e);
    }
    fn dec(d: &mut stamp_codec::Dec) -> Result<CallInstance, stamp_codec::CodecError> {
        Ok(CallInstance {
            site: d.u32()?,
            callee: stamp_codec::Codec::dec(d)?,
            inner: CtxId::dec(d)?,
            return_node: Option::dec(d)?,
        })
    }
}

impl stamp_codec::Codec for LoopInstance {
    fn enc(&self, e: &mut stamp_codec::Enc) {
        self.header.enc(e);
        self.outer.enc(e);
        self.entries.enc(e);
        self.backs.enc(e);
    }
    fn dec(d: &mut stamp_codec::Dec) -> Result<LoopInstance, stamp_codec::CodecError> {
        Ok(LoopInstance {
            header: stamp_codec::Codec::dec(d)?,
            outer: Vec::dec(d)?,
            entries: Vec::dec(d)?,
            backs: Vec::dec(d)?,
        })
    }
}

impl stamp_codec::Codec for Icfg {
    /// The two lookup maps (`node_ids`, `nodes_by_block`) are derived
    /// from `nodes` and rebuilt on decode; everything else is persisted
    /// positionally for an exact round-trip.
    fn enc(&self, e: &mut stamp_codec::Enc) {
        self.nodes.enc(e);
        self.edges.enc(e);
        self.succs.enc(e);
        self.preds.enc(e);
        self.ctxs.enc(e);
        self.entry.enc(e);
        self.exits.enc(e);
        self.call_instances.enc(e);
        self.loop_instances.enc(e);
        self.rpo_index.enc(e);
    }
    fn dec(d: &mut stamp_codec::Dec) -> Result<Icfg, stamp_codec::CodecError> {
        let nodes: Vec<Node> = Vec::dec(d)?;
        let edges: Vec<IEdge> = Vec::dec(d)?;
        let succs: Vec<Vec<IEdgeId>> = Vec::dec(d)?;
        let preds: Vec<Vec<IEdgeId>> = Vec::dec(d)?;
        let ctxs = CtxTable::dec(d)?;
        let entry = NodeId::dec(d)?;
        let exits: Vec<NodeId> = Vec::dec(d)?;
        let call_instances: Vec<CallInstance> = Vec::dec(d)?;
        let loop_instances: Vec<LoopInstance> = Vec::dec(d)?;
        let rpo_index: Vec<u32> = Vec::dec(d)?;
        if succs.len() != nodes.len()
            || preds.len() != nodes.len()
            || rpo_index.len() != nodes.len()
        {
            return Err(stamp_codec::CodecError::Invalid("icfg table lengths"));
        }
        // Every id into the supergraph's own tables must be in range, so
        // a decoded graph indexes without panicking. (Block, CFG-edge
        // and function ids name the separate `Cfg` artifact.)
        let node = |n: &NodeId| n.index() < nodes.len();
        let edge = |e: &IEdgeId| e.index() < edges.len();
        let ctx = |c: &CtxId| c.index() < ctxs.len();
        let in_range = nodes.iter().all(|n| ctx(&n.ctx))
            && edges
                .iter()
                .enumerate()
                .all(|(i, e)| e.id.index() == i && node(&e.from) && node(&e.to))
            && succs.iter().chain(&preds).flatten().all(edge)
            && node(&entry)
            && exits.iter().all(node)
            && call_instances.iter().all(|c| ctx(&c.inner) && c.return_node.iter().all(node))
            && loop_instances.iter().all(|l| l.entries.iter().chain(&l.backs).all(edge));
        if !in_range {
            return Err(stamp_codec::CodecError::Invalid("icfg id out of range"));
        }
        let mut node_ids = HashMap::new();
        let mut nodes_by_block: HashMap<BlockId, Vec<NodeId>> = HashMap::new();
        for (i, nd) in nodes.iter().enumerate() {
            if nd.id.index() != i {
                return Err(stamp_codec::CodecError::Invalid("icfg node ids"));
            }
            node_ids.insert((nd.block, nd.ctx), nd.id);
            nodes_by_block.entry(nd.block).or_default().push(nd.id);
        }
        Ok(Icfg {
            nodes,
            edges,
            succs,
            preds,
            node_ids,
            nodes_by_block,
            ctxs,
            entry,
            exits,
            call_instances,
            loop_instances,
            rpo_index,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stamp_cfg::CfgBuilder;
    use stamp_isa::asm::assemble;

    fn icfg_of(src: &str, vivu: &VivuConfig) -> Icfg {
        let p = assemble(src).expect("assembles");
        let cfg = CfgBuilder::new(&p).build().expect("builds");
        Icfg::build(&cfg, vivu).expect("expands")
    }

    #[test]
    fn loop_body_duplicated_by_unrolling() {
        let src = ".text\nmain: li r1, 4\nloop: addi r1, r1, -1\nbnez r1, loop\nhalt\n";
        let unrolled = icfg_of(src, &VivuConfig::default());
        let flat = icfg_of(src, &VivuConfig::no_unrolling());
        // peel=1: the loop block exists in iteration classes 0 and 1.
        assert_eq!(unrolled.nodes().len(), flat.nodes().len() + 1);
    }

    #[test]
    fn call_creates_inlined_copy_per_site() {
        let src = "\
            .text
            main: call f
                  call f
                  halt
            f:    ret
        ";
        let icfg = icfg_of(src, &VivuConfig::default());
        // f's body appears once per call site.
        let call_edges =
            icfg.edges().iter().filter(|e| matches!(e.kind, IEdgeKind::Call { .. })).count();
        let ret_edges =
            icfg.edges().iter().filter(|e| matches!(e.kind, IEdgeKind::Return { .. })).count();
        assert_eq!(call_edges, 2);
        assert_eq!(ret_edges, 2);
        assert_eq!(icfg.call_instances().len(), 2);
        assert_eq!(icfg.exits().len(), 1);
    }

    #[test]
    fn recursion_is_detected() {
        let src = ".text\nmain: call main\nhalt\n";
        let p = assemble(src).unwrap();
        let cfg = CfgBuilder::new(&p).build().unwrap();
        let err = Icfg::build(&cfg, &VivuConfig::default()).unwrap_err();
        assert!(matches!(err, IcfgError::CallDepthExceeded { .. }));
    }

    #[test]
    fn back_edge_context_transitions() {
        let src = ".text\nmain: li r1, 4\nloop: addi r1, r1, -1\nbnez r1, loop\nhalt\n";
        let icfg = icfg_of(src, &VivuConfig::default());
        // Find the back edges: one from iter-0 to iter-1, one iter-1 self loop.
        let backs: Vec<&IEdge> = icfg
            .edges()
            .iter()
            .filter(|e| matches!(e.kind, IEdgeKind::Intra { back_edge_of: Some(_), .. }))
            .collect();
        assert_eq!(backs.len(), 2);
        let self_loops = backs.iter().filter(|e| e.from == e.to).count();
        assert_eq!(self_loops, 1, "steady-state context loops on itself");
    }

    #[test]
    fn nested_loop_contexts() {
        let src = "\
            .text
            main:  li r1, 3
            outer: li r2, 4
            inner: addi r2, r2, -1
                   bnez r2, inner
                   addi r1, r1, -1
                   bnez r1, outer
                   halt
        ";
        let icfg = icfg_of(src, &VivuConfig::default());
        // Inner loop body: outer∈{0,1} × inner∈{0,1} = 4 instances.
        let p = assemble(src).unwrap();
        let cfg = CfgBuilder::new(&p).build().unwrap();
        let inner_block = cfg.block_at(p.symbols.addr_of("inner").unwrap()).unwrap();
        assert_eq!(icfg.nodes_of_block(inner_block).len(), 4);
    }

    #[test]
    fn rpo_starts_at_entry() {
        let src = ".text\nmain: call f\nhalt\nf: ret\n";
        let icfg = icfg_of(src, &VivuConfig::default());
        assert_eq!(icfg.rpo_index(icfg.entry()), 0);
        for e in icfg.edges() {
            // Except back/return-ish cycles, RPO should mostly ascend; at
            // minimum every reachable node has an index.
            assert_ne!(icfg.rpo_index(e.to), u32::MAX);
        }
    }

    #[test]
    fn exit_via_return_of_entry_function() {
        let src = ".text\nmain: nop\nret\n";
        let icfg = icfg_of(src, &VivuConfig::default());
        assert_eq!(icfg.exits().len(), 1);
    }

    #[test]
    fn icfg_round_trips_byte_exactly() {
        let src = "\
            .text
            main:  li r1, 3
            outer: li r2, 4
            inner: addi r2, r2, -1
                   bnez r2, inner
                   call f
                   addi r1, r1, -1
                   bnez r1, outer
                   halt
            f:     ret
        ";
        let icfg = icfg_of(src, &VivuConfig::default());
        let bytes = stamp_codec::encode_value(&icfg);
        let back: Icfg = stamp_codec::decode_value(&bytes).unwrap();
        assert_eq!(stamp_codec::encode_value(&back), bytes);
        assert_eq!(back.entry(), icfg.entry());
        assert_eq!(back.exits(), icfg.exits());
        assert_eq!(back.nodes(), icfg.nodes());
        assert_eq!(back.edges(), icfg.edges());
        assert_eq!(back.loop_instances(), icfg.loop_instances());
        assert_eq!(back.ctxs().len(), icfg.ctxs().len());
        // Rebuilt lookup maps answer identically.
        for nd in icfg.nodes() {
            assert_eq!(back.node_of(nd.block, nd.ctx), Some(nd.id));
            assert_eq!(back.rpo_index(nd.id), icfg.rpo_index(nd.id));
        }
        assert!(stamp_codec::decode_value::<Icfg>(&bytes[..bytes.len() - 2]).is_err());
    }

    #[test]
    fn out_of_range_ids_are_invalid_not_a_panic() {
        use stamp_codec::Codec;
        let icfg = icfg_of(".text\nmain: call f\nhalt\nf: ret\n", &VivuConfig::default());
        let bytes = stamp_codec::encode_value(&icfg);
        // The first edge's target node, pointed one past the last node.
        let mut d = stamp_codec::Dec::new(&bytes);
        Vec::<Node>::dec(&mut d).unwrap();
        assert!(d.len_prefix(1).unwrap() > 0, "the graph has an edge");
        IEdgeId::dec(&mut d).unwrap();
        NodeId::dec(&mut d).unwrap();
        let at = bytes.len() - d.remaining();
        let mut hostile = bytes.clone();
        hostile[at..at + 4].copy_from_slice(&(icfg.nodes().len() as u32).to_le_bytes());
        assert!(matches!(
            stamp_codec::decode_value::<Icfg>(&hostile),
            Err(stamp_codec::CodecError::Invalid("icfg id out of range"))
        ));
    }
}
