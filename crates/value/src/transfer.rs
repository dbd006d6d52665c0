//! The abstract transfer function for EVA32 instructions.

use std::collections::HashMap;
use std::sync::Arc;

use stamp_ai::{CtxId, IEdge, IEdgeKind, Icfg, Node, NodeId, Transfer};
use stamp_cfg::{Cfg, EdgeKind};
use stamp_hw::HwConfig;
use stamp_isa::{AluOp, Flow, Insn, MemWidth, Program, Reg};

use crate::amem::join_reads;
use crate::analysis::{AccessInfo, NodeStack};
use crate::interval::{DomainKind, SInt};
use crate::state::AState;

/// The value-analysis dataflow problem: abstract execution of every
/// instruction plus branch refinement along edges.
///
/// Each evaluation of a node also records the node's per-instruction
/// facts, overwriting what its earlier evaluations recorded. The solver
/// evaluates every reached node last on its final input, so once the
/// fixpoint is reached the records are the fixpoint's facts.
pub struct ValueTransfer<'a> {
    program: &'a Program,
    cfg: &'a Cfg,
    stack_top: u32,
    ram_size: u32,
    domain: DomainKind,
    thresholds: Arc<Vec<u32>>,
    /// The address set of each memory access, per `(address, context)`.
    pub(crate) accesses: HashMap<(u32, CtxId), AccessInfo>,
    /// Per node, whether its block ends in a branch whose direction is
    /// decided.
    pub(crate) constant_branches: Vec<bool>,
    /// The target set of each indirect jump or call.
    pub(crate) jalr_targets: HashMap<(u32, CtxId), SInt>,
    /// What each node's block does to `sp`, indexed by node.
    pub(crate) stack: Vec<NodeStack>,
}

impl<'a> ValueTransfer<'a> {
    /// Creates the transfer function.
    pub fn new(
        program: &'a Program,
        hw: &'a HwConfig,
        cfg: &'a Cfg,
        domain: DomainKind,
        thresholds: Arc<Vec<u32>>,
    ) -> ValueTransfer<'a> {
        ValueTransfer {
            program,
            cfg,
            stack_top: hw.mem.stack_top(),
            ram_size: hw.mem.ram_size,
            domain,
            thresholds,
            accesses: HashMap::new(),
            constant_branches: Vec::new(),
            jalr_targets: HashMap::new(),
            stack: Vec::new(),
        }
    }

    /// The lowest value `sp` may hold in `state`, or `None` when `sp` is
    /// unknown (⊤) or below the RAM the stack can occupy
    /// (`stack_top − ram_size`).
    fn sp_low(&self, state: &AState) -> Option<u32> {
        let sp = state.reg(Reg::SP);
        let in_ram = !sp.is_top() && self.stack_top.saturating_sub(sp.lo()) <= self.ram_size;
        in_ram.then(|| sp.lo())
    }

    /// Records the facts of the instruction at `addr` of `node` about to
    /// execute on `state`.
    fn record(&mut self, state: &AState, addr: u32, insn: &Insn, node: Node) {
        let ctx = node.ctx;
        match *insn {
            Insn::Load { width, base, offset, .. } | Insn::Store { width, base, offset, .. } => {
                let addrs = state.reg(base).add_i32(offset);
                let info = AccessInfo { addrs, width, is_load: insn.is_load() };
                self.accesses.insert((addr, ctx), info);
            }
            Insn::Branch { cond, rs1, rs2, .. } => {
                let (a, b) = (state.reg(rs1), state.reg(rs2));
                let taken_possible = SInt::refine(cond, &a, &b).is_some();
                let fall_possible = SInt::refine(cond.negate(), &a, &b).is_some();
                self.constant_branches[node.id.index()] = taken_possible != fall_possible;
            }
            Insn::Jalr { .. }
                if matches!(insn.flow(addr), Flow::IndirectJump | Flow::IndirectCall) =>
            {
                let targets = self.jalr_targets(state, insn).expect("jalr has targets");
                self.jalr_targets.insert((addr, ctx), targets);
            }
            _ => {}
        }
    }

    /// Abstract value loaded by an access of `width` from the address set
    /// `addrs`: ROM reads fold to image constants, RAM reads consult the
    /// abstract memory.
    pub fn read_mem(&self, state: &AState, addrs: &SInt, width: MemWidth) -> SInt {
        join_reads(addrs, |a| match self.program.rom_value(a, width) {
            Some(v) => SInt::cst(v),
            None => state.mem.read(a, width),
        })
    }

    /// Applies the sign/zero extension of a load to the raw abstract value.
    fn extend(raw: SInt, width: MemWidth, signed: bool) -> SInt {
        if width == MemWidth::W || !signed {
            return raw;
        }
        let sign_bit: u32 = match width {
            MemWidth::B => 0x80,
            MemWidth::H => 0x8000,
            MemWidth::W => unreachable!(),
        };
        let ext: u32 = match width {
            MemWidth::B => 0xffff_ff00,
            MemWidth::H => 0xffff_0000,
            MemWidth::W => unreachable!(),
        };
        if raw.hi() < sign_bit {
            raw // all non-negative: extension is the identity
        } else if raw.lo() >= sign_bit && raw.hi() < 2 * sign_bit {
            raw.add(&SInt::cst(ext)) // all negative: shift up en bloc
        } else {
            SInt::top()
        }
    }

    /// Abstractly executes one instruction at `addr` on `state`.
    pub fn step(&self, state: &mut AState, addr: u32, insn: &Insn) {
        match *insn {
            Insn::Alu { op, rd, rs1, rs2 } => {
                let v = self.alu(op, &state.reg(rs1), &state.reg(rs2));
                state.set_reg(rd, self.domain.degrade(v));
            }
            Insn::AluImm { op, rd, rs1, imm } => {
                let v = self.alu(op, &state.reg(rs1), &SInt::cst(imm as u32));
                state.set_reg(rd, self.domain.degrade(v));
            }
            Insn::Lui { rd, imm } => state.set_reg(rd, SInt::cst((imm as u32) << 16)),
            Insn::Load { width, signed, rd, base, offset } => {
                let addrs = state.reg(base).add_i32(offset);
                let raw = self.read_mem(state, &addrs, width);
                state.set_reg(rd, self.domain.degrade(Self::extend(raw, width, signed)));
            }
            Insn::Store { width, src, base, offset } => {
                let addrs = state.reg(base).add_i32(offset);
                let v = state.reg(src);
                state.mem.write_range(&addrs, width, &v);
            }
            Insn::Branch { .. } | Insn::Jump { .. } | Insn::Halt => {}
            Insn::Jal { .. } => state.set_reg(Reg::LR, SInt::cst(addr.wrapping_add(4))),
            Insn::Jalr { rd, .. } => state.set_reg(rd, SInt::cst(addr.wrapping_add(4))),
        }
    }

    fn alu(&self, op: AluOp, a: &SInt, b: &SInt) -> SInt {
        if let (Some(x), Some(y)) = (a.is_const(), b.is_const()) {
            return SInt::cst(op.eval(x, y)); // exact, shared with the simulator
        }
        match op {
            AluOp::Add => a.add(b),
            AluOp::Sub => a.sub(b),
            AluOp::And => a.and(b),
            AluOp::Or => a.or(b),
            AluOp::Xor => a.xor(b),
            AluOp::Sll => a.sll(b),
            AluOp::Srl => a.srl(b),
            AluOp::Sra => a.sra(b),
            AluOp::Slt => a.slt(b),
            AluOp::Sltu => a.sltu(b),
            AluOp::Mul => a.mul(b),
            AluOp::Mulh => SInt::top(),
            AluOp::Div => a.div(b),
            AluOp::Rem => a.rem(b),
        }
    }

    /// The address-set of the `jalr` at `addr` under `state`
    /// (word-aligned, as the hardware clears the low bits).
    pub fn jalr_targets(&self, state: &AState, insn: &Insn) -> Option<SInt> {
        match *insn {
            Insn::Jalr { rs1, offset, .. } => Some(state.reg(rs1).add_i32(offset).align4()),
            _ => None,
        }
    }
}

/// Computes a bound on the *difference* `ra − rb` at the end of `block`,
/// given the abstract state at the block's entry — the lightweight
/// relational extension the paper sketches in §1 ("upper and lower
/// bounds for their differences").
///
/// The walk tracks both registers backwards through the block as affine
/// expressions `base-register + constant`; if they resolve to the same
/// base, the difference is exact even when both values are unknown
/// (e.g. `end = start + 64` with `start` an arbitrary input).
///
/// Returns `None` when no relation can be established.
pub fn register_delta(
    block: &stamp_cfg::BasicBlock,
    entry: &AState,
    ra: Reg,
    rb: Reg,
) -> Option<SInt> {
    // Affine view of each register at the current point: an abstract
    // *symbol* plus a constant offset. Symbols 0..16 denote the register
    // values at block entry; every non-affine definition mints a fresh
    // symbol, so two registers derived from the same unknown stay
    // related no matter where in the block that unknown was produced.
    #[derive(Clone, Copy, PartialEq)]
    struct Affine {
        sym: u32,
        offset: i64,
    }
    let mut forms: [Affine; Reg::COUNT] = [Affine { sym: 0, offset: 0 }; Reg::COUNT];
    for r in Reg::all() {
        forms[r.index()] = Affine { sym: r.index() as u32, offset: 0 };
    }
    let mut next_sym = Reg::COUNT as u32;
    // A symbol's concrete value is known only for entry symbols whose
    // register is constant in the entry state.
    let const_of = |forms: &[Affine; Reg::COUNT], r: Reg| -> Option<i64> {
        let f = forms[r.index()];
        if f.sym < Reg::COUNT as u32 {
            let base = entry.reg(Reg::new(f.sym as u8)).is_const()? as i64;
            Some(base + f.offset)
        } else {
            None
        }
    };
    for &(_, insn) in &block.insns {
        let new_form: Option<(Reg, Option<Affine>)> = match insn {
            Insn::AluImm { op: AluOp::Add, rd, rs1, imm } => {
                let f = forms[rs1.index()];
                Some((rd, Some(Affine { sym: f.sym, offset: f.offset + imm as i64 })))
            }
            Insn::Alu { op: AluOp::Add, rd, rs1, rs2 } => {
                // One constant operand keeps the other's symbol.
                if let Some(k) = const_of(&forms, rs2) {
                    let f = forms[rs1.index()];
                    Some((rd, Some(Affine { sym: f.sym, offset: f.offset + k })))
                } else if let Some(k) = const_of(&forms, rs1) {
                    let f = forms[rs2.index()];
                    Some((rd, Some(Affine { sym: f.sym, offset: f.offset + k })))
                } else {
                    insn.def().map(|rd| (rd, None))
                }
            }
            Insn::Alu { op: AluOp::Sub, rd, rs1, rs2 } => {
                if let Some(k) = const_of(&forms, rs2) {
                    let f = forms[rs1.index()];
                    Some((rd, Some(Affine { sym: f.sym, offset: f.offset - k })))
                } else {
                    insn.def().map(|rd| (rd, None))
                }
            }
            _ => insn.def().map(|rd| (rd, None)),
        };
        if let Some((rd, form)) = new_form {
            if !rd.is_zero() {
                forms[rd.index()] = form.unwrap_or_else(|| {
                    next_sym += 1;
                    Affine { sym: next_sym, offset: 0 }
                });
            }
        }
    }
    let fa = forms[ra.index()];
    let fb = forms[rb.index()];
    if fa.sym == fb.sym {
        // Same symbol: the unknown cancels and the difference is an
        // exact (possibly negative, two's-complement) constant.
        return Some(SInt::cst((fa.offset - fb.offset) as u32));
    }
    // Different symbols: fall back to the interval difference when both
    // trace back to entry registers and the result is finite.
    if fa.sym < Reg::COUNT as u32 && fb.sym < Reg::COUNT as u32 {
        let va = entry.reg(Reg::new(fa.sym as u8)).add_i32(i32::try_from(fa.offset).ok()?);
        let vb = entry.reg(Reg::new(fb.sym as u8)).add_i32(i32::try_from(fb.offset).ok()?);
        let d = va.sub(&vb);
        return (!d.is_top()).then_some(d);
    }
    None
}

/// The right-hand operand of an effective branch condition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CondRhs {
    /// A register operand.
    Reg(Reg),
    /// A constant (from a compare-immediate).
    Imm(u32),
}

/// The comparison a block's terminating branch *effectively* performs in
/// its taken direction, seeing through the `slt rc, a, b; bnez rc` idiom.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EffCond {
    /// Condition that holds on the taken edge.
    pub cond: stamp_isa::Cond,
    /// Left operand register.
    pub lhs: Reg,
    /// Right operand.
    pub rhs: CondRhs,
}

/// Extracts the effective taken-direction comparison of `block`'s
/// terminating branch, if any. Used by the loop-bound analysis to find
/// exit conditions.
pub fn effective_cond(block: &stamp_cfg::BasicBlock) -> Option<EffCond> {
    use stamp_isa::Cond;
    let (_, Insn::Branch { cond, rs1, rs2, .. }) = block.last()? else {
        return None;
    };
    // Direct comparison of two registers.
    let flag = match (cond, rs1, rs2) {
        (Cond::Ne, rc, z) | (Cond::Ne, z, rc) if z.is_zero() && !rc.is_zero() => Some((rc, true)),
        (Cond::Eq, rc, z) | (Cond::Eq, z, rc) if z.is_zero() && !rc.is_zero() => Some((rc, false)),
        _ => None,
    };
    if let Some((rc, flag_set)) = flag {
        let body = &block.insns[..block.insns.len() - 1];
        if let Some(def_idx) = body.iter().rposition(|(_, i)| i.def() == Some(rc)) {
            let found = match body[def_idx].1 {
                Insn::Alu { op: op @ (AluOp::Slt | AluOp::Sltu), rs1: a, rs2: b, .. } => {
                    Some((op == AluOp::Slt, a, CondRhs::Reg(b), Some(b)))
                }
                Insn::AluImm { op: op @ (AluOp::Slt | AluOp::Sltu), rs1: a, imm, .. } => {
                    Some((op == AluOp::Slt, a, CondRhs::Imm(imm as u32), None))
                }
                _ => None,
            };
            if let Some((signed, a, rhs, b_reg)) = found {
                let clobbered = body[def_idx + 1..]
                    .iter()
                    .any(|(_, i)| i.def() == Some(a) || b_reg.is_some_and(|b| i.def() == Some(b)));
                if !clobbered && a != rc && b_reg != Some(rc) {
                    let base = if signed { Cond::Lt } else { Cond::Ltu };
                    let eff = if flag_set { base } else { base.negate() };
                    return Some(EffCond { cond: eff, lhs: a, rhs });
                }
            }
        }
    }
    Some(EffCond { cond, lhs: rs1, rhs: CondRhs::Reg(rs2) })
}

impl Transfer for ValueTransfer<'_> {
    type State = AState;

    fn boundary(&self) -> AState {
        AState::entry(self.stack_top, Arc::clone(&self.thresholds))
    }

    fn transfer(&mut self, icfg: &Icfg, node: NodeId, input: &AState) -> AState {
        let n = icfg.node(node);
        let block = self.cfg.block(n.block);
        if self.stack.len() < icfg.nodes().len() {
            self.stack.resize(icfg.nodes().len(), NodeStack::Lowest(u32::MAX));
            self.constant_branches.resize(icfg.nodes().len(), false);
        }
        let mut s = input.clone();
        let mut sp_was_in = self.sp_low(&s).is_some();
        let mut stack = NodeStack::Lowest(u32::MAX);
        for &(addr, insn) in &block.insns {
            self.record(&s, addr, &insn, n);
            self.step(&mut s, addr, &insn);
            let sp = self.sp_low(&s);
            stack = stack.after(addr, sp_was_in, sp);
            sp_was_in = sp.is_some();
        }
        self.stack[node.index()] = stack;
        s
    }

    fn edge<'s>(
        &mut self,
        icfg: &Icfg,
        edge: &IEdge,
        state: &'s AState,
    ) -> Option<std::borrow::Cow<'s, AState>> {
        let _ = icfg;
        let cfg_eid = match edge.kind {
            IEdgeKind::Intra { cfg_edge, .. } => cfg_edge,
            // Call and return edges pass the state through unchanged; the
            // context expansion keeps call sites separate.
            IEdgeKind::Call { .. } | IEdgeKind::Return { .. } => {
                return Some(std::borrow::Cow::Borrowed(state))
            }
        };
        let cfg_edge = self.cfg.edge(cfg_eid);
        let from = self.cfg.block(cfg_edge.from);
        let taken = match cfg_edge.kind {
            EdgeKind::Taken => true,
            EdgeKind::Fall => false,
            EdgeKind::CallFall => return Some(std::borrow::Cow::Borrowed(state)),
        };
        self.refine_branch(from, taken, state)
    }
}

impl ValueTransfer<'_> {
    /// Refines `state` under the branch at the end of `block` going in
    /// the `taken` direction; `None` marks the edge infeasible. Blocks
    /// without a conditional branch pass the state through by reference.
    ///
    /// Beyond the branch's own comparison, this recognizes the
    /// compare-then-branch idiom `slt rc, a, b; bnez rc, …` and refines
    /// the *underlying* comparison's operands, provided nothing clobbers
    /// them between the compare and the branch.
    fn refine_branch<'s>(
        &self,
        block: &stamp_cfg::BasicBlock,
        taken: bool,
        state: &'s AState,
    ) -> Option<std::borrow::Cow<'s, AState>> {
        use std::borrow::Cow;
        let Some((_, Insn::Branch { cond, rs1, rs2, .. })) = block.last() else {
            return Some(Cow::Borrowed(state));
        };
        let assumed = if taken { cond } else { cond.negate() };
        let mut s = state.clone();
        let (ra, rb) = SInt::refine(assumed, &s.reg(rs1), &s.reg(rs2))?;
        if !s.refine_reg(rs1, &ra) || !s.refine_reg(rs2, &rb) {
            return None;
        }
        // Compare-then-branch idiom: also refine the compared operands.
        let eff = effective_cond(block).expect("the block ends in a branch");
        if eff != (EffCond { cond, lhs: rs1, rhs: CondRhs::Reg(rs2) }) {
            let effective = if taken { eff.cond } else { eff.cond.negate() };
            let b_val = match eff.rhs {
                CondRhs::Reg(b) => s.reg(b),
                CondRhs::Imm(k) => SInt::cst(k),
            };
            let (ra, rb) = SInt::refine(effective, &s.reg(eff.lhs), &b_val)?;
            if !s.refine_reg(eff.lhs, &ra) {
                return None;
            }
            if let CondRhs::Reg(b) = eff.rhs {
                if !s.refine_reg(b, &rb) {
                    return None;
                }
            }
        }
        Some(Cow::Owned(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stamp_isa::asm::assemble;

    fn setup(src: &str) -> (Program, HwConfig) {
        (assemble(src).expect("assembles"), HwConfig::default())
    }

    fn fresh_state(hw: &HwConfig) -> AState {
        AState::entry(hw.mem.stack_top(), Arc::new(vec![0]))
    }

    #[test]
    fn constant_folding_matches_hardware() {
        let (p, hw) = setup(".text\nmain: halt\n");
        let cfg = stamp_cfg::CfgBuilder::new(&p).build().unwrap();
        let t = ValueTransfer::new(&p, &hw, &cfg, DomainKind::Strided, Arc::new(vec![0]));
        let mut s = fresh_state(&hw);
        s.set_reg(Reg::new(1), SInt::cst(7));
        s.set_reg(Reg::new(2), SInt::cst(0));
        // div by zero folds to the architected result, not a crash.
        t.step(
            &mut s,
            0,
            &Insn::Alu { op: AluOp::Div, rd: Reg::new(3), rs1: Reg::new(1), rs2: Reg::new(2) },
        );
        assert_eq!(s.reg(Reg::new(3)).is_const(), Some(u32::MAX));
    }

    #[test]
    fn rom_load_folds_to_constant() {
        let (p, hw) = setup(".text\nmain: halt\n.rodata\ntbl: .word 0xcafe\n");
        let cfg = stamp_cfg::CfgBuilder::new(&p).build().unwrap();
        let t = ValueTransfer::new(&p, &hw, &cfg, DomainKind::Strided, Arc::new(vec![0]));
        let mut s = fresh_state(&hw);
        let tbl = p.symbols.addr_of("tbl").unwrap();
        s.set_reg(Reg::new(1), SInt::cst(tbl));
        t.step(
            &mut s,
            0,
            &Insn::Load {
                width: MemWidth::W,
                signed: true,
                rd: Reg::new(2),
                base: Reg::new(1),
                offset: 0,
            },
        );
        assert_eq!(s.reg(Reg::new(2)).is_const(), Some(0xcafe));
    }

    #[test]
    fn stack_store_load_roundtrip() {
        let (p, hw) = setup(".text\nmain: halt\n");
        let cfg = stamp_cfg::CfgBuilder::new(&p).build().unwrap();
        let t = ValueTransfer::new(&p, &hw, &cfg, DomainKind::Strided, Arc::new(vec![0]));
        let mut s = fresh_state(&hw);
        s.set_reg(Reg::new(1), SInt::cst(99));
        // addi sp, sp, -8 ; sw r1, 4(sp) ; lw r2, 4(sp)
        t.step(&mut s, 0, &Insn::AluImm { op: AluOp::Add, rd: Reg::SP, rs1: Reg::SP, imm: -8 });
        t.step(
            &mut s,
            4,
            &Insn::Store { width: MemWidth::W, src: Reg::new(1), base: Reg::SP, offset: 4 },
        );
        t.step(
            &mut s,
            8,
            &Insn::Load {
                width: MemWidth::W,
                signed: true,
                rd: Reg::new(2),
                base: Reg::SP,
                offset: 4,
            },
        );
        assert_eq!(s.reg(Reg::new(2)).is_const(), Some(99));
        assert_eq!(s.reg(Reg::SP).is_const(), Some(hw.mem.stack_top() - 8));
    }

    #[test]
    fn signed_byte_load_extends() {
        let (p, hw) = setup(".text\nmain: halt\n.rodata\nb: .byte 0xff, 0x7f\n");
        let cfg = stamp_cfg::CfgBuilder::new(&p).build().unwrap();
        let t = ValueTransfer::new(&p, &hw, &cfg, DomainKind::Strided, Arc::new(vec![0]));
        let mut s = fresh_state(&hw);
        let b = p.symbols.addr_of("b").unwrap();
        s.set_reg(Reg::new(1), SInt::cst(b));
        t.step(
            &mut s,
            0,
            &Insn::Load {
                width: MemWidth::B,
                signed: true,
                rd: Reg::new(2),
                base: Reg::new(1),
                offset: 0,
            },
        );
        assert_eq!(s.reg(Reg::new(2)).is_const(), Some(u32::MAX)); // -1
    }

    #[test]
    fn domain_degradation() {
        let (p, hw) = setup(".text\nmain: halt\n");
        let cfg = stamp_cfg::CfgBuilder::new(&p).build().unwrap();
        let t = ValueTransfer::new(&p, &hw, &cfg, DomainKind::Const, Arc::new(vec![0]));
        let mut s = fresh_state(&hw);
        s.set_reg(Reg::new(1), SInt::range(0, 10));
        t.step(
            &mut s,
            0,
            &Insn::AluImm { op: AluOp::Add, rd: Reg::new(2), rs1: Reg::new(1), imm: 1 },
        );
        // Under constant propagation a non-constant result is ⊤.
        assert!(s.reg(Reg::new(2)).is_top());
    }
}
