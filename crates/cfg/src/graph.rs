//! The reconstructed control-flow graph.

use std::collections::BTreeMap;
use std::fmt;

use stamp_isa::{Flow, Insn};

/// Index of a basic block in a [`Cfg`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The block index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// Index of a function in a [`Cfg`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub u32);

impl FuncId {
    /// The function index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Index of an edge in a [`Cfg`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The edge index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Kind of an intra-procedural CFG edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Fall-through to the next block (including the not-taken side of a
    /// conditional branch).
    Fall,
    /// Taken branch, direct jump, or one resolved indirect-jump target.
    Taken,
    /// The *local* successor of a call block: control reaches it after the
    /// callee returns. Interprocedural expansion happens in `stamp-ai`.
    CallFall,
}

/// An intra-procedural edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// Source block.
    pub from: BlockId,
    /// Destination block.
    pub to: BlockId,
    /// Edge kind.
    pub kind: EdgeKind,
}

/// A basic block: a maximal straight-line instruction sequence.
#[derive(Clone, Debug)]
pub struct BasicBlock {
    /// This block's id.
    pub id: BlockId,
    /// Owning function.
    pub func: FuncId,
    /// Address of the first instruction.
    pub start: u32,
    /// The instructions, as `(address, instruction)` pairs.
    pub insns: Vec<(u32, Insn)>,
}

impl BasicBlock {
    /// Address one past the last instruction.
    pub fn end(&self) -> u32 {
        self.insns.last().map(|&(a, _)| a + 4).unwrap_or(self.start)
    }

    /// The last instruction with its address.
    pub fn last(&self) -> Option<(u32, Insn)> {
        self.insns.last().copied()
    }

    /// Control-flow classification of the block's last instruction.
    pub fn exit_flow(&self) -> Flow {
        match self.last() {
            Some((addr, insn)) => insn.flow(addr),
            None => Flow::Seq,
        }
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// Returns `true` if the block holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }
}

/// The callee of a call site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Callee {
    /// A direct (or resolved indirect) call to one function.
    Direct(FuncId),
    /// A resolved indirect call with several possible targets.
    Indirect(Vec<FuncId>),
}

impl Callee {
    /// All possible callee functions.
    pub fn targets(&self) -> &[FuncId] {
        match self {
            Callee::Direct(f) => std::slice::from_ref(f),
            Callee::Indirect(fs) => fs,
        }
    }
}

/// A call site: a block terminated by a call instruction.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// The calling block (its last instruction is the call).
    pub block: BlockId,
    /// Address of the call instruction.
    pub addr: u32,
    /// The callee(s).
    pub callee: Callee,
    /// The local block control returns to.
    pub return_to: Option<BlockId>,
}

/// A reconstructed function: a single-entry region discovered via calls.
#[derive(Clone, Debug)]
pub struct Function {
    /// This function's id.
    pub id: FuncId,
    /// Entry address.
    pub entry_addr: u32,
    /// Entry block.
    pub entry: BlockId,
    /// Symbolic name (from the symbol table, or `fn_<addr>`).
    pub name: String,
    /// All blocks, in ascending start-address order.
    pub blocks: Vec<BlockId>,
    /// Blocks whose last instruction is a `return`.
    pub returns: Vec<BlockId>,
    /// Blocks whose last instruction is `halt`.
    pub halts: Vec<BlockId>,
}

/// The whole-program control-flow graph: functions, blocks, edges and
/// call sites.
#[derive(Clone, Debug)]
pub struct Cfg {
    pub(crate) blocks: Vec<BasicBlock>,
    pub(crate) functions: Vec<Function>,
    pub(crate) edges: Vec<Edge>,
    pub(crate) succs: Vec<Vec<EdgeId>>,
    pub(crate) preds: Vec<Vec<EdgeId>>,
    pub(crate) call_sites: Vec<CallSite>,
    pub(crate) block_at: BTreeMap<u32, BlockId>,
    pub(crate) entry_func: FuncId,
    /// Addresses of `jalr` instructions whose targets are still unknown.
    pub(crate) unresolved: Vec<u32>,
}

impl Cfg {
    /// All basic blocks.
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// One block.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// All functions.
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// One function.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// The function containing the program entry point.
    pub fn entry_func(&self) -> FuncId {
        self.entry_func
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// One edge.
    pub fn edge(&self, id: EdgeId) -> Edge {
        self.edges[id.index()]
    }

    /// Outgoing edges of a block.
    pub fn succs(&self, b: BlockId) -> impl Iterator<Item = (EdgeId, Edge)> + '_ {
        self.succs[b.index()].iter().map(|&e| (e, self.edges[e.index()]))
    }

    /// Incoming edges of a block.
    pub fn preds(&self, b: BlockId) -> impl Iterator<Item = (EdgeId, Edge)> + '_ {
        self.preds[b.index()].iter().map(|&e| (e, self.edges[e.index()]))
    }

    /// All call sites.
    pub fn call_sites(&self) -> &[CallSite] {
        &self.call_sites
    }

    /// The call site whose call instruction terminates `b`, if any.
    pub fn call_site_of(&self, b: BlockId) -> Option<&CallSite> {
        self.call_sites.iter().find(|c| c.block == b)
    }

    /// The block starting exactly at `addr`.
    pub fn block_at(&self, addr: u32) -> Option<BlockId> {
        self.block_at.get(&addr).copied()
    }

    /// The block *containing* `addr`.
    pub fn block_containing(&self, addr: u32) -> Option<BlockId> {
        self.block_at
            .range(..=addr)
            .next_back()
            .map(|(_, &b)| b)
            .filter(|&b| addr < self.block(b).end())
    }

    /// Addresses of indirect jumps/calls whose targets are unresolved.
    /// A non-empty list means the CFG is incomplete and should be rebuilt
    /// with more [`CfgBuilder::indirect_targets`](crate::CfgBuilder::indirect_targets)
    /// information.
    pub fn unresolved_indirects(&self) -> &[u32] {
        &self.unresolved
    }

    /// Reverse post-order of one function's blocks (ignoring `CallFall`
    /// distinction; all intra-procedural edges are followed).
    pub fn rpo(&self, f: FuncId) -> Vec<BlockId> {
        let entry = self.func(f).entry;
        let mut visited = vec![false; self.blocks.len()];
        let mut post = Vec::new();
        // Iterative DFS with an explicit stack of (block, next-succ-index).
        let mut stack = vec![(entry, 0usize)];
        visited[entry.index()] = true;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            let succ_edges = &self.succs[b.index()];
            if *i < succ_edges.len() {
                let e = self.edges[succ_edges[*i].index()];
                *i += 1;
                if !visited[e.to.index()] {
                    visited[e.to.index()] = true;
                    stack.push((e.to, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        post
    }

    /// Total number of instructions in the graph.
    pub fn insn_count(&self) -> usize {
        self.blocks.iter().map(|b| b.len()).sum()
    }
}
