//! The value-analysis driver: fixpoint + result collection.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use stamp_ai::{solve, CtxId, Fixpoint, IEdgeId, Icfg, NodeId};
use stamp_cfg::Cfg;
use stamp_hw::HwConfig;
use stamp_isa::{Insn, MemWidth, Program, Reg};

use crate::amem::AMem;
use crate::interval::{DomainKind, SInt};
use crate::state::AState;
use crate::transfer::ValueTransfer;

/// Options for [`ValueAnalysis::run`].
#[derive(Clone, Debug)]
pub struct ValueOptions {
    /// Which member of the value-domain hierarchy to use (E7 ablation).
    pub domain: DomainKind,
    /// Number of joins at a widening point before widening kicks in.
    pub widen_delay: u32,
    /// Address sets with at most this many members count as "determined"
    /// in the precision statistics (paper: "only a few indirect accesses
    /// cannot be determined exactly"). Indirect-jump target enumeration
    /// uses a separate fixed limit of 64.
    pub small_set: u64,
}

impl Default for ValueOptions {
    fn default() -> ValueOptions {
        ValueOptions { domain: DomainKind::Strided, widen_delay: 2, small_set: 4096 }
    }
}

/// The address information of one memory-accessing instruction in one
/// context.
#[derive(Clone, Debug)]
pub struct AccessInfo {
    /// The abstract address set.
    pub addrs: SInt,
    /// Access width.
    pub width: MemWidth,
    /// `true` for loads.
    pub is_load: bool,
}

/// How far down the stack pointer reaches over the analysed supergraph:
/// the fact the precise stack analysis (`stamp_stack::analyze_icfg`)
/// reads. `sp` is *out of range* when it is unknown (⊤) or below the
/// RAM the stack can occupy (`stack_top − ram_size`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StackExtent {
    /// The lowest value `sp` may hold after any instruction of any
    /// reachable instance (`u32::MAX` when no instruction is reachable).
    Lowest(u32),
    /// `sp` is out of range after some instruction. The address is that
    /// of the first instruction, in node order, whose own step takes `sp`
    /// out of range; when no step does (widening at a loop head), it is
    /// the first instruction of the first node that `sp` enters out of
    /// range and that instruction leaves it out of range.
    Escapes(u32),
}

/// What one node's block does to `sp`, as its latest evaluation saw it.
#[derive(Clone, Copy, Debug)]
pub(crate) enum NodeStack {
    /// `sp` stays in range after every instruction, and this is the
    /// lowest value it takes (`u32::MAX` for a node never evaluated).
    Lowest(u32),
    /// `sp` enters the node out of range and is still out of range after
    /// its first instruction, at this address.
    EntersOut(u32),
    /// The address of the first instruction whose own step takes `sp`
    /// from in range to out of range.
    StepsOut(u32),
}

impl NodeStack {
    /// The record after one more instruction, at `addr`: `was_in` tells
    /// whether `sp` was in range before it, and `sp` is the lowest value
    /// it may hold after it (`None` when out of range).
    pub(crate) fn after(self, addr: u32, was_in: bool, sp: Option<u32>) -> NodeStack {
        match (self, sp) {
            (NodeStack::StepsOut(_), _) => self,
            (_, None) if was_in => NodeStack::StepsOut(addr),
            (NodeStack::Lowest(_), None) => NodeStack::EntersOut(addr),
            (NodeStack::Lowest(l), Some(lo)) => NodeStack::Lowest(l.min(lo)),
            (NodeStack::EntersOut(_), _) => self,
        }
    }

    /// The stack extent of all nodes' records, in node order.
    pub(crate) fn extent(nodes: &[NodeStack]) -> StackExtent {
        let mut lowest = u32::MAX;
        let mut enters_out = None;
        for n in nodes {
            match *n {
                NodeStack::Lowest(l) => lowest = lowest.min(l),
                NodeStack::EntersOut(addr) => enters_out = enters_out.or(Some(addr)),
                NodeStack::StepsOut(addr) => return StackExtent::Escapes(addr),
            }
        }
        enters_out.map_or(StackExtent::Lowest(lowest), StackExtent::Escapes)
    }
}

/// Results of the value analysis over the supergraph: the facts folded
/// while the fixpoint ran, and the register states at the nodes
/// [`ValueAnalysis::run`] keeps.
///
/// See the crate documentation for the role each fact plays in the
/// downstream analyses.
pub struct ValueAnalysis {
    /// Each kept node with its entry and exit states (`None`:
    /// unreachable), in node order.
    kept: Vec<(NodeId, Option<AState>, Option<AState>)>,
    /// The supergraph's node count; a decoded kept node must be below it.
    nodes: u32,
    infeasible_edges: Vec<IEdgeId>,
    accesses: HashMap<(u32, CtxId), AccessInfo>,
    constant_branches: usize,
    indirect_targets: BTreeMap<u32, BTreeSet<u32>>,
    stack: StackExtent,
    options: ValueOptions,
    /// Solver node evaluations (scaling experiment).
    pub evaluations: u64,
}

/// Precision statistics for experiment E3.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrecisionSummary {
    /// Accesses with a single possible address.
    pub exact: usize,
    /// Accesses with a small bounded address set.
    pub bounded: usize,
    /// Accesses with large or unknown address sets.
    pub unknown: usize,
}

impl PrecisionSummary {
    /// Total number of classified accesses.
    pub fn total(&self) -> usize {
        self.exact + self.bounded + self.unknown
    }
}

impl ValueAnalysis {
    /// Runs the value analysis. Register states are kept only where they
    /// are read: at the task entry and the loop-entry edges' sources
    /// (loop bounds, the path analysis) and at the task exits (the fuzz
    /// oracle).
    pub fn run(
        program: &Program,
        hw: &HwConfig,
        cfg: &Cfg,
        icfg: &Icfg,
        options: &ValueOptions,
    ) -> ValueAnalysis {
        ValueAnalysis::solve(program, hw, cfg, icfg, options).0
    }

    /// [`ValueAnalysis::run`], also returning the per-node fixpoint the
    /// analysis was computed from, for checks that need every node's
    /// state.
    pub fn solve(
        program: &Program,
        hw: &HwConfig,
        cfg: &Cfg,
        icfg: &Icfg,
        options: &ValueOptions,
    ) -> (ValueAnalysis, Fixpoint<AState>) {
        let thresholds = Arc::new(collect_thresholds(program, hw));
        let mut transfer = ValueTransfer::new(program, hw, cfg, options.domain, thresholds);
        let fixpoint = solve(icfg, &mut transfer, options.widen_delay);

        let (text_lo, text_hi) = program.text_range();
        let mut indirect_targets: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
        for (&(addr, _), targets) in &transfer.jalr_targets {
            let in_text = targets.lo() >= text_lo && targets.hi() < text_hi;
            if in_text && targets.count() <= 64 {
                indirect_targets.entry(addr).or_default().extend(targets.iter());
            }
        }

        let kept = icfg
            .loop_instances()
            .iter()
            .flat_map(|inst| inst.entries.iter().map(|&e| icfg.edge(e).from))
            .chain([icfg.entry()])
            .chain(icfg.exits().iter().copied())
            .collect::<BTreeSet<NodeId>>()
            .into_iter()
            .map(|n| (n, fixpoint.input(n).cloned(), fixpoint.output(n).cloned()))
            .collect();
        let va = ValueAnalysis {
            kept,
            nodes: icfg.nodes().len() as u32,
            infeasible_edges: fixpoint.infeasible_edges.clone(),
            accesses: transfer.accesses,
            constant_branches: transfer.constant_branches.iter().filter(|&&c| c).count(),
            indirect_targets,
            stack: NodeStack::extent(&transfer.stack),
            options: options.clone(),
            evaluations: fixpoint.evaluations,
        };
        (va, fixpoint)
    }

    /// The kept record of `node`. Reading a node whose states were not
    /// kept is a bug: its `None` would read as "unreachable".
    fn kept(&self, node: NodeId) -> Option<&(NodeId, Option<AState>, Option<AState>)> {
        let at = self.kept.binary_search_by_key(&node, |k| k.0);
        debug_assert!(at.is_ok(), "the value analysis keeps no state at node {node:?}");
        at.ok().map(|i| &self.kept[i])
    }

    /// The abstract state at a kept node's entry (per block × context);
    /// `None` if the node is unreachable.
    pub fn entry_state(&self, node: NodeId) -> Option<&AState> {
        self.kept(node)?.1.as_ref()
    }

    /// The abstract state after a kept node; `None` if the node is
    /// unreachable.
    pub fn exit_state(&self, node: NodeId) -> Option<&AState> {
        self.kept(node)?.2.as_ref()
    }

    /// Supergraph edges the analysis proved infeasible ("certain paths
    /// … are never executed").
    pub fn infeasible_edges(&self) -> &[IEdgeId] {
        &self.infeasible_edges
    }

    /// Per-(instruction, context) memory-access address sets.
    pub fn accesses(&self) -> &HashMap<(u32, CtxId), AccessInfo> {
        &self.accesses
    }

    /// The address set of the access at `addr` in context `ctx`.
    pub fn access(&self, addr: u32, ctx: CtxId) -> Option<&AccessInfo> {
        self.accesses.get(&(addr, ctx))
    }

    /// Resolved targets of indirect jumps/calls, for feeding back into
    /// [`stamp_cfg::CfgBuilder::indirect_targets`].
    pub fn indirect_targets(&self) -> &BTreeMap<u32, BTreeSet<u32>> {
        &self.indirect_targets
    }

    /// How far down `sp` reaches (see [`StackExtent`]).
    pub fn stack_extent(&self) -> StackExtent {
        self.stack
    }

    /// Classification of all data accesses by address precision (E3).
    pub fn precision_summary(&self) -> PrecisionSummary {
        let mut s = PrecisionSummary::default();
        for info in self.accesses.values() {
            if info.addrs.is_const().is_some() {
                s.exact += 1;
            } else if info.addrs.count() <= self.options.small_set {
                s.bounded += 1;
            } else {
                s.unknown += 1;
            }
        }
        s
    }

    /// Count of branch instances decided to be constant (E4).
    pub fn constant_branches(&self) -> usize {
        self.constant_branches
    }
}

impl stamp_codec::Codec for ValueOptions {
    fn enc(&self, e: &mut stamp_codec::Enc) {
        self.domain.enc(e);
        e.u32(self.widen_delay);
        e.u64(self.small_set);
    }
    fn dec(d: &mut stamp_codec::Dec) -> Result<ValueOptions, stamp_codec::CodecError> {
        Ok(ValueOptions { domain: DomainKind::dec(d)?, widen_delay: d.u32()?, small_set: d.u64()? })
    }
}

impl stamp_codec::Codec for AccessInfo {
    fn enc(&self, e: &mut stamp_codec::Enc) {
        self.addrs.enc(e);
        self.width.enc(e);
        self.is_load.enc(e);
    }
    fn dec(d: &mut stamp_codec::Dec) -> Result<AccessInfo, stamp_codec::CodecError> {
        Ok(AccessInfo {
            addrs: SInt::dec(d)?,
            width: stamp_codec::Codec::dec(d)?,
            is_load: bool::dec(d)?,
        })
    }
}

/// The stored form: the threshold ladder once, each distinct word map
/// once (deduplicated by `Arc` identity, in first-use order over the
/// kept nodes' entry then exit states), the supergraph's node count,
/// then each kept node's id and its two states as registers plus a
/// word-map index, then the derived facts (the infeasible edges,
/// `accesses` in key order, the constant-branch count, the indirect
/// targets), the options, the evaluation count and the stack extent.
/// Decoding re-shares the word maps, so states that shared memory
/// before encoding share it after.
impl stamp_codec::Codec for ValueAnalysis {
    fn enc(&self, e: &mut stamp_codec::Enc) {
        let states = || self.kept.iter().flat_map(|k| [&k.1, &k.2]).flatten();
        // Every state descends from the single entry state, so they all
        // share one ladder. Make the invariant loud if a future change
        // ever breaks it — a wrong ladder after decoding would diverge
        // widening across jobs.
        let ladder = states().next().map_or(&[][..], AState::thresholds);
        debug_assert!(
            states().all(|s| std::ptr::eq(s.thresholds(), ladder)),
            "the encoding assumes one shared threshold ladder per analysis"
        );
        e.len_prefix(ladder.len());
        for &t in ladder {
            e.u32(t);
        }

        let mut pool: Vec<&BTreeMap<u32, SInt>> = Vec::new();
        let mut index: HashMap<*const BTreeMap<u32, SInt>, usize> = HashMap::new();
        for s in states() {
            let words = s.mem.shared_words();
            index.entry(Arc::as_ptr(words)).or_insert_with(|| {
                pool.push(words);
                pool.len() - 1
            });
        }
        e.len_prefix(pool.len());
        for words in pool {
            words.enc(e);
        }
        e.u32(self.nodes);
        e.len_prefix(self.kept.len());
        for (node, entry, exit) in &self.kept {
            node.enc(e);
            for state in [entry, exit] {
                match state {
                    None => e.u8(0),
                    Some(s) => {
                        e.u8(1);
                        for r in s.regs() {
                            r.enc(e);
                        }
                        index[&Arc::as_ptr(s.mem.shared_words())].enc(e);
                    }
                }
            }
        }

        self.infeasible_edges.enc(e);
        self.accesses.enc(e);
        self.constant_branches.enc(e);
        self.indirect_targets.enc(e);
        self.options.enc(e);
        e.u64(self.evaluations);
        let (tag, v) = match self.stack {
            StackExtent::Lowest(sp) => (0, sp),
            StackExtent::Escapes(addr) => (1, addr),
        };
        e.u8(tag);
        e.u32(v);
    }
    fn dec(d: &mut stamp_codec::Dec) -> Result<ValueAnalysis, stamp_codec::CodecError> {
        use stamp_codec::CodecError;
        let thresholds = Arc::new(Vec::<u32>::dec(d)?);
        let pool: Vec<Arc<BTreeMap<u32, SInt>>> =
            Vec::<BTreeMap<u32, SInt>>::dec(d)?.into_iter().map(Arc::new).collect();
        let dec_state = |d: &mut stamp_codec::Dec| -> Result<Option<AState>, CodecError> {
            match d.u8()? {
                0 => Ok(None),
                1 => {
                    let mut regs = [SInt::top(); Reg::COUNT];
                    for r in regs.iter_mut() {
                        *r = SInt::dec(d)?;
                    }
                    // A corrupt index must be an error, not a panic.
                    let words =
                        pool.get(usize::dec(d)?).ok_or(CodecError::Invalid("word-map index"))?;
                    let mem = AMem::from_words(Arc::clone(words));
                    Ok(Some(AState::from_parts(regs, mem, Arc::clone(&thresholds))))
                }
                _ => Err(CodecError::Invalid("option tag")),
            }
        };
        let nodes = d.u32()?;
        let n = d.len_prefix(6)?;
        let mut kept: Vec<(NodeId, _, _)> = Vec::with_capacity(n);
        for _ in 0..n {
            let node = NodeId::dec(d)?;
            // The accessors binary-search the ids, and every id names a
            // node of the supergraph the analysis ran on.
            if node.0 >= nodes || kept.last().is_some_and(|k| k.0 >= node) {
                return Err(CodecError::Invalid("kept node id"));
            }
            kept.push((node, dec_state(d)?, dec_state(d)?));
        }
        Ok(ValueAnalysis {
            kept,
            nodes,
            infeasible_edges: Vec::dec(d)?,
            accesses: HashMap::dec(d)?,
            constant_branches: usize::dec(d)?,
            indirect_targets: BTreeMap::dec(d)?,
            options: ValueOptions::dec(d)?,
            evaluations: d.u64()?,
            stack: match (d.u8()?, d.u32()?) {
                (0, sp) => StackExtent::Lowest(sp),
                (1, addr) => StackExtent::Escapes(addr),
                _ => return Err(CodecError::Invalid("stack extent")),
            },
        })
    }
}

/// Builds the widening-threshold ladder: immediates appearing in the
/// program (and their neighbours), section boundaries, and the stack top.
/// Widened intervals jump onto this ladder instead of straight to ±∞,
/// which keeps loop-counter and address ranges useful.
fn collect_thresholds(program: &Program, hw: &HwConfig) -> Vec<u32> {
    let mut t: BTreeSet<u32> = BTreeSet::new();
    t.insert(0);
    for (_, insn) in program.insns() {
        match insn {
            Insn::AluImm { imm, .. } => {
                let v = imm as u32;
                t.insert(v);
                t.insert(v.wrapping_add(1));
                t.insert(v.wrapping_sub(1));
            }
            Insn::Lui { imm, .. } => {
                t.insert((imm as u32) << 16);
            }
            _ => {}
        }
    }
    for s in &program.sections {
        t.insert(s.base);
        t.insert(s.end());
    }
    t.insert(hw.mem.stack_top());
    t.insert(hw.mem.ram_base);
    t.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stamp_ai::{Domain, VivuConfig};
    use stamp_cfg::CfgBuilder;
    use stamp_codec::Codec;
    use stamp_isa::asm::assemble;
    use stamp_isa::Reg;

    fn analyze(src: &str) -> (Program, Cfg, Icfg, ValueAnalysis) {
        let p = assemble(src).expect("assembles");
        let hw = HwConfig::default();
        let cfg = CfgBuilder::new(&p).build().expect("builds");
        let icfg = Icfg::build(&cfg, &VivuConfig::default()).expect("expands");
        let va = ValueAnalysis::run(&p, &hw, &cfg, &icfg, &ValueOptions::default());
        (p, cfg, icfg, va)
    }

    #[test]
    fn constants_propagate_through_calls() {
        let src = "\
            .text
            main: li r1, 5
                  call double
                  halt
            double: add r2, r1, r1
                  ret
        ";
        let (_p, _cfg, icfg, va) = analyze(src);
        let exit = icfg.exits()[0];
        let s = va.entry_state(exit).unwrap();
        assert_eq!(s.reg(Reg::new(2)).is_const(), Some(10));
    }

    #[test]
    fn loop_counter_bounded_by_refinement() {
        let src = "\
            .text
            main: li r1, 0
            loop: addi r1, r1, 1
                  blt r1, r2, cont      ; r2 unknown — but exit refines
            cont: bne r1, r3, next
            next: slti r4, r1, 100
                  blt r1, r4, loop
                  halt
        ";
        // Mostly a smoke test: analysis terminates with tops involved.
        let (_p, _cfg, icfg, va) = analyze(src);
        assert!(va.entry_state(icfg.exits()[0]).is_some());
    }

    #[test]
    fn counted_loop_exit_value_is_exact() {
        let src = "\
            .text
            main: li r1, 10
            loop: addi r1, r1, -1
                  bnez r1, loop
                  halt
        ";
        let (_p, _cfg, icfg, va) = analyze(src);
        let exit = icfg.exits()[0];
        let s = va.entry_state(exit).unwrap();
        // After the loop, refinement of `bnez` pins r1 to 0.
        assert_eq!(s.reg(Reg::new(1)).is_const(), Some(0));
    }

    #[test]
    fn dead_branch_detected() {
        // r1 = 3 always, so `beq r1, r0, dead` never fires.
        let src = "\
            .text
            main: li r1, 3
                  beq r1, r0, dead
                  halt
            dead: mul r9, r9, r9
                  halt
        ";
        let p = assemble(src).expect("assembles");
        let cfg = CfgBuilder::new(&p).build().expect("builds");
        let icfg = Icfg::build(&cfg, &VivuConfig::default()).expect("expands");
        let (va, fixpoint) =
            ValueAnalysis::solve(&p, &HwConfig::default(), &cfg, &icfg, &ValueOptions::default());
        assert_eq!(va.constant_branches(), 1);
        assert!(!va.infeasible_edges().is_empty());
        // The dead block is unreachable in the fixpoint.
        let dead_nodes: Vec<_> =
            icfg.nodes().iter().filter(|n| fixpoint.input(n.id).is_none()).collect();
        assert!(!dead_nodes.is_empty());
    }

    #[test]
    fn array_walk_has_strided_addresses() {
        let src = "\
            .text
            main: li r1, 0            ; i = 0
                  la r2, arr
            loop: slli r3, r1, 2
                  add r3, r2, r3
                  lw r4, 0(r3)        ; arr[i]
                  addi r1, r1, 1
                  slti r5, r1, 10
                  bnez r5, loop
                  halt
            .data
            arr:  .space 40
        ";
        let (p, _cfg, _icfg, va) = analyze(src);
        let arr = p.symbols.addr_of("arr").unwrap();
        // Find the load's access info in some context.
        let loads: Vec<&AccessInfo> = va.accesses().values().filter(|a| a.is_load).collect();
        assert!(!loads.is_empty());
        for info in loads {
            assert!(info.addrs.lo() >= arr, "{} under arr", info.addrs);
            assert!(
                info.addrs.hi() <= arr + 36,
                "addr {} beyond arr[9] ({:#x})",
                info.addrs,
                arr + 36
            );
            if info.addrs.is_const().is_none() {
                assert_eq!(info.addrs.stride(), 4, "stride retained: {}", info.addrs);
            }
        }
    }

    #[test]
    fn jump_table_resolved_from_rom() {
        let src = "\
            .text
            main: li r1, 1            ; selector ∈ {0,1,2} after masking
                  andi r1, r1, 3
                  slti r2, r1, 3
                  bnez r2, ok
                  halt
            ok:   slli r2, r1, 2
                  la r3, table
                  add r3, r3, r2
                  lw r4, 0(r3)
                  jalr r0, r4, 0
            c0:   halt
            c1:   halt
            c2:   halt
            .rodata
            table: .word c0, c1, c2
        ";
        let (p, _cfg, _icfg, va) = analyze(src);
        // The jalr targets should be resolved (li makes it exactly c1,
        // but even the masked range folds through the ROM table).
        assert!(!va.indirect_targets().is_empty());
        let targets: Vec<u32> =
            va.indirect_targets().values().next().unwrap().iter().copied().collect();
        let c1 = p.symbols.addr_of("c1").unwrap();
        assert!(targets.contains(&c1));
    }

    #[test]
    fn value_analysis_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ValueAnalysis>();
    }

    /// A program exercising every encoded field: memory knowledge
    /// (store + load), a decidable branch, strided accesses.
    const MEMORY_LOOP: &str = "\
        .text
        main: la r1, v
              li r2, 7
              sw r2, 0(r1)
              lw r3, 0(r1)
              li r4, 0
        loop: addi r4, r4, 1
              slti r5, r4, 10
              bnez r5, loop
              halt
        .data
        v:    .space 8
    ";

    fn round_trip(va: &ValueAnalysis) -> ValueAnalysis {
        stamp_codec::decode_value(&stamp_codec::encode_value(va)).expect("decodes")
    }

    #[test]
    fn codec_round_trips_exactly() {
        let (_p, _cfg, _icfg, va) = analyze(MEMORY_LOOP);
        let back = round_trip(&va);

        // The kept states: same nodes, reachability, registers, and
        // memory words at every kept node's entry and exit.
        assert_eq!(va.nodes, back.nodes);
        let ids = |va: &ValueAnalysis| va.kept.iter().map(|k| k.0).collect::<Vec<_>>();
        assert_eq!(ids(&va), ids(&back));
        for n in ids(&va) {
            for (a, b) in
                [(va.entry_state(n), back.entry_state(n)), (va.exit_state(n), back.exit_state(n))]
            {
                match (a, b) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        for r in 0..Reg::COUNT {
                            let r = Reg::new(r as u8);
                            assert_eq!(a.reg(r), b.reg(r), "reg {r:?} at node {n:?}");
                        }
                        assert_eq!(a.mem, b.mem, "memory at node {n:?}");
                        assert_eq!(a.thresholds(), b.thresholds());
                    }
                    _ => panic!("reachability differs at node {n:?}"),
                }
            }
        }

        // Every derived fact and statistic.
        assert_eq!(va.evaluations, back.evaluations);
        assert_eq!(va.infeasible_edges(), back.infeasible_edges());
        assert_eq!(va.indirect_targets(), back.indirect_targets());
        assert_eq!(va.precision_summary(), back.precision_summary());
        assert_eq!(va.constant_branches(), back.constant_branches());
        assert_eq!(va.accesses().len(), back.accesses().len());
        for (k, info) in va.accesses() {
            let t = back.accesses().get(k).expect("access present after decoding");
            assert_eq!(info.addrs, t.addrs);
            assert_eq!(info.width, t.width);
            assert_eq!(info.is_load, t.is_load);
        }
        assert_eq!(va.stack_extent(), back.stack_extent());
    }

    #[test]
    fn codec_round_trips_byte_exactly() {
        let (_p, _cfg, _icfg, va) = analyze(MEMORY_LOOP);
        let bytes = stamp_codec::encode_value(&va);
        let back: ValueAnalysis = stamp_codec::decode_value(&bytes).unwrap();
        assert_eq!(stamp_codec::encode_value(&back), bytes);
        assert!(stamp_codec::decode_value::<ValueAnalysis>(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn decode_preserves_structural_sharing() {
        // States that never touch memory all share one word map: decoding
        // must re-share it rather than clone it per state.
        let (_p, _cfg, _icfg, va) =
            analyze(".text\nmain: li r1, 3\nloop: addi r1, r1, -1\nbnez r1, loop\nhalt\n");
        let back = round_trip(&va);
        let pairs = |va: &ValueAnalysis| -> Vec<(NodeId, NodeId, bool)> {
            let live: Vec<(NodeId, &AState)> = va
                .kept
                .iter()
                .flat_map(|(n, entry, exit)| [(*n, entry), (*n, exit)])
                .filter_map(|(n, s)| Some((n, s.as_ref()?)))
                .collect();
            let mut out = Vec::new();
            for (i, (a, sa)) in live.iter().enumerate() {
                for (b, sb) in &live[i + 1..] {
                    let shared = Arc::ptr_eq(sa.mem.shared_words(), sb.mem.shared_words());
                    out.push((*a, *b, shared));
                }
            }
            out
        };
        let (before, after) = (pairs(&va), pairs(&back));
        assert!(before.len() > 2, "expected several reachable states");
        assert!(before.iter().any(|&(_, _, shared)| shared), "the analysis shares word maps");
        assert_eq!(before, after, "decoding keeps exactly the original sharing");
    }

    #[test]
    fn keeps_states_at_the_entry_the_exits_and_loop_entry_sources_only() {
        // Nested loops in `main`, and a loop inside a callee called from
        // the outer loop (so in several contexts).
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
            f:     li r3, 2
            floop: addi r3, r3, -1
                   bnez r3, floop
                   ret
        ";
        let p = assemble(src).expect("assembles");
        let cfg = CfgBuilder::new(&p).build().expect("builds");
        let icfg = Icfg::build(&cfg, &VivuConfig::default()).expect("expands");
        let (va, fixpoint) =
            ValueAnalysis::solve(&p, &HwConfig::default(), &cfg, &icfg, &ValueOptions::default());

        let floop = cfg.block_containing(p.symbols.addr_of("floop").unwrap()).unwrap();
        let in_callee = icfg.loop_instances().iter().filter(|i| i.header == floop).count();
        assert!(in_callee > 1, "the callee's loop has one instance per call context");
        assert!(icfg.loop_instances().len() >= 4, "nested loops and the callee's loop");

        let mut expect: BTreeSet<NodeId> = icfg.exits().iter().copied().collect();
        expect.insert(icfg.entry());
        for inst in icfg.loop_instances() {
            expect.extend(inst.entries.iter().map(|&e| icfg.edge(e).from));
        }
        let kept: Vec<NodeId> = va.kept.iter().map(|k| k.0).collect();
        assert_eq!(kept, expect.into_iter().collect::<Vec<_>>());
        assert!(kept.len() < icfg.nodes().len(), "states of other nodes are dropped");
        assert_eq!(va.nodes as usize, icfg.nodes().len());

        // The kept states are the fixpoint's own.
        for (n, entry, exit) in &va.kept {
            for (kept, full) in [(entry, fixpoint.input(*n)), (exit, fixpoint.output(*n))] {
                match (kept, full) {
                    (None, None) => {}
                    (Some(a), Some(b)) => assert!(a.le(b) && b.le(a), "node {n:?}"),
                    _ => panic!("reachability differs at node {n:?}"),
                }
            }
        }
    }

    #[test]
    fn kept_node_ids_out_of_range_or_out_of_order_are_invalid() {
        let (_p, _cfg, _icfg, mut va) = analyze(MEMORY_LOOP);
        assert!(va.kept.len() > 1, "the entry and the exit are kept");
        va.kept.swap(0, 1);
        let unsorted = stamp_codec::encode_value(&va);
        va.kept.swap(0, 1);
        let last = va.kept.len() - 1;
        va.kept[last].0 = NodeId(va.nodes);
        let out_of_range = stamp_codec::encode_value(&va);
        for hostile in [unsorted, out_of_range] {
            assert!(matches!(
                stamp_codec::decode_value::<ValueAnalysis>(&hostile),
                Err(stamp_codec::CodecError::Invalid("kept node id"))
            ));
        }
    }

    /// The byte offset of the first kept entry state's word-map index in
    /// an encoded analysis, and the length of the word-map pool.
    fn first_word_index(bytes: &[u8]) -> (usize, usize) {
        let mut d = stamp_codec::Dec::new(bytes);
        Vec::<u32>::dec(&mut d).unwrap();
        let pool = Vec::<BTreeMap<u32, SInt>>::dec(&mut d).unwrap().len();
        d.u32().unwrap(); // the node count
        d.len_prefix(1).unwrap();
        NodeId::dec(&mut d).unwrap();
        assert_eq!(d.u8().unwrap(), 1, "the first kept node is reachable");
        for _ in 0..Reg::COUNT {
            SInt::dec(&mut d).unwrap();
        }
        (bytes.len() - d.remaining(), pool)
    }

    #[test]
    fn corrupt_word_map_index_is_invalid_not_a_panic() {
        let (_p, _cfg, _icfg, va) = analyze(MEMORY_LOOP);
        let bytes = stamp_codec::encode_value(&va);
        let (at, pool) = first_word_index(&bytes);
        for bad in [pool as u64, u64::MAX] {
            let mut hostile = bytes.clone();
            hostile[at..at + 8].copy_from_slice(&bad.to_le_bytes());
            assert!(matches!(
                stamp_codec::decode_value::<ValueAnalysis>(&hostile),
                Err(stamp_codec::CodecError::Invalid("word-map index"))
            ));
        }
        // The same record with an in-range index decodes cleanly.
        let mut fine = bytes.clone();
        fine[at..at + 8].copy_from_slice(&0u64.to_le_bytes());
        assert!(stamp_codec::decode_value::<ValueAnalysis>(&fine).is_ok());
    }

    #[test]
    fn precision_summary_counts() {
        let src = "\
            .text
            main: la r1, v
                  lw r2, 0(r1)        ; exact
                  lw r3, 0(r2)        ; unknown (r2 is input data)
                  halt
            .data
            v:    .word 0
        ";
        let (_p, _cfg, _icfg, va) = analyze(src);
        let s = va.precision_summary();
        assert_eq!(s.exact, 1);
        assert_eq!(s.unknown, 1);
        assert_eq!(s.total(), 2);
    }

    #[test]
    fn stack_escape_names_the_step_out_before_a_widened_entry() {
        use NodeStack::{EntersOut, Lowest, StepsOut};
        // One node's walk: `sp` enters out of range, comes back in at 8
        // and a step at 12 takes it out again.
        let walk = [(4, false, None), (8, false, Some(0x40)), (12, true, None)];
        let node = walk.iter().fold(Lowest(u32::MAX), |n, &(a, was_in, sp)| n.after(a, was_in, sp));
        assert!(matches!(node, StepsOut(12)), "{node:?}");
        let entered = Lowest(u32::MAX).after(4, false, None).after(8, false, Some(0x40));
        assert!(matches!(entered, EntersOut(4)), "{entered:?}");

        let extent = NodeStack::extent;
        assert_eq!(extent(&[Lowest(9), Lowest(7)]), StackExtent::Lowest(7));
        assert_eq!(extent(&[Lowest(9), EntersOut(4), EntersOut(8)]), StackExtent::Escapes(4));
        assert_eq!(extent(&[EntersOut(4), StepsOut(12), StepsOut(16)]), StackExtent::Escapes(12));
    }
}
