//! The decoded EVA32 instruction set and its static properties.

use std::fmt;

use crate::Reg;

/// Binary ALU operations (register-register and, for a subset,
/// register-immediate forms).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AluOp {
    /// Wrapping 32-bit addition.
    Add,
    /// Wrapping 32-bit subtraction.
    Sub,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive or.
    Xor,
    /// Logical shift left by the low 5 bits of the second operand.
    Sll,
    /// Logical shift right by the low 5 bits of the second operand.
    Srl,
    /// Arithmetic shift right by the low 5 bits of the second operand.
    Sra,
    /// Signed less-than comparison producing 0 or 1.
    Slt,
    /// Unsigned less-than comparison producing 0 or 1.
    Sltu,
    /// Low 32 bits of the 64-bit product.
    Mul,
    /// High 32 bits of the signed 64-bit product.
    Mulh,
    /// Signed division; division by zero yields `-1` (no trap).
    Div,
    /// Signed remainder; remainder by zero yields the dividend (no trap).
    Rem,
}

impl AluOp {
    /// All ALU operations, in opcode order.
    pub const ALL: [AluOp; 14] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Sll,
        AluOp::Srl,
        AluOp::Sra,
        AluOp::Slt,
        AluOp::Sltu,
        AluOp::Mul,
        AluOp::Mulh,
        AluOp::Div,
        AluOp::Rem,
    ];

    /// Returns `true` if the operation has an immediate form
    /// (`addi`, `andi`, …).
    pub fn has_imm_form(self) -> bool {
        !matches!(self, AluOp::Mul | AluOp::Mulh | AluOp::Div | AluOp::Rem)
    }

    /// Returns `true` for the multi-cycle multiplier ops (`mul`, `mulh`).
    pub fn is_mul(self) -> bool {
        matches!(self, AluOp::Mul | AluOp::Mulh)
    }

    /// Returns `true` for the multi-cycle divider ops (`div`, `rem`).
    pub fn is_div(self) -> bool {
        matches!(self, AluOp::Div | AluOp::Rem)
    }

    /// Returns `true` if the immediate of the `*i` form is zero-extended
    /// (logical ops) rather than sign-extended (arithmetic ops).
    ///
    /// EVA32 follows the MIPS convention: `andi`/`ori`/`xori` zero-extend,
    /// everything else sign-extends.
    pub fn imm_zero_extends(self) -> bool {
        matches!(self, AluOp::And | AluOp::Or | AluOp::Xor)
    }

    /// Returns `true` for the shift operations, whose immediate form is
    /// restricted to `0..32`.
    pub fn is_shift(self) -> bool {
        matches!(self, AluOp::Sll | AluOp::Srl | AluOp::Sra)
    }

    /// Evaluates the operation on concrete 32-bit values — the single
    /// source of truth for EVA32 ALU semantics, shared by the simulator
    /// and the value analysis's constant folding.
    ///
    /// Shift amounts use the low 5 bits of `b`; division by zero yields
    /// all-ones (`div`) / the dividend (`rem`) without trapping;
    /// `i32::MIN / -1` wraps.
    pub fn eval(self, a: u32, b: u32) -> u32 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Sll => a.wrapping_shl(b & 31),
            AluOp::Srl => a.wrapping_shr(b & 31),
            AluOp::Sra => (a as i32).wrapping_shr(b & 31) as u32,
            AluOp::Slt => ((a as i32) < (b as i32)) as u32,
            AluOp::Sltu => (a < b) as u32,
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Mulh => ((a as i32 as i64).wrapping_mul(b as i32 as i64) >> 32) as u32,
            AluOp::Div => {
                if b == 0 {
                    u32::MAX
                } else {
                    (a as i32).wrapping_div(b as i32) as u32
                }
            }
            AluOp::Rem => {
                if b == 0 {
                    a
                } else {
                    (a as i32).wrapping_rem(b as i32) as u32
                }
            }
        }
    }

    /// The assembly mnemonic of the register-register form.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Sll => "sll",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
            AluOp::Mul => "mul",
            AluOp::Mulh => "mulh",
            AluOp::Div => "div",
            AluOp::Rem => "rem",
        }
    }
}

/// Branch comparison conditions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less than.
    Lt,
    /// Signed greater or equal.
    Ge,
    /// Unsigned less than.
    Ltu,
    /// Unsigned greater or equal.
    Geu,
}

impl Cond {
    /// All conditions in opcode order.
    pub const ALL: [Cond; 6] = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::Ltu, Cond::Geu];

    /// The condition that holds exactly when `self` does not.
    pub fn negate(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Ge => Cond::Lt,
            Cond::Ltu => Cond::Geu,
            Cond::Geu => Cond::Ltu,
        }
    }

    /// The condition with its operands swapped (`a < b` ⇔ `b > a`).
    pub fn swap(self) -> Cond {
        match self {
            Cond::Eq => Cond::Eq,
            Cond::Ne => Cond::Ne,
            Cond::Lt => Cond::Ge, // a < b  ⇔ ¬(b ≤ a); not expressible, callers avoid
            Cond::Ge => Cond::Lt,
            Cond::Ltu => Cond::Geu,
            Cond::Geu => Cond::Ltu,
        }
    }

    /// Evaluates the condition on concrete 32-bit values.
    pub fn eval(self, a: u32, b: u32) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => (a as i32) < (b as i32),
            Cond::Ge => (a as i32) >= (b as i32),
            Cond::Ltu => a < b,
            Cond::Geu => a >= b,
        }
    }

    /// The assembly mnemonic (`beq`, `bne`, …) without the `b` prefix.
    pub fn suffix(self) -> &'static str {
        match self {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Lt => "lt",
            Cond::Ge => "ge",
            Cond::Ltu => "ltu",
            Cond::Geu => "geu",
        }
    }
}

/// Width of a memory access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemWidth {
    /// One byte.
    B,
    /// Two bytes (halfword).
    H,
    /// Four bytes (word).
    W,
}

impl MemWidth {
    /// Access size in bytes.
    pub fn bytes(self) -> u32 {
        match self {
            MemWidth::B => 1,
            MemWidth::H => 2,
            MemWidth::W => 4,
        }
    }
}

/// A decoded EVA32 instruction.
///
/// All immediates are stored in already-extended form (sign- or
/// zero-extended according to the operation); branch and jump offsets are
/// in *words* relative to the instruction's own address.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Insn {
    /// Register-register ALU operation: `rd = rs1 op rs2`.
    Alu { op: AluOp, rd: Reg, rs1: Reg, rs2: Reg },
    /// Register-immediate ALU operation: `rd = rs1 op imm`.
    AluImm { op: AluOp, rd: Reg, rs1: Reg, imm: i32 },
    /// Load upper immediate: `rd = imm << 16`.
    Lui { rd: Reg, imm: u16 },
    /// Memory load: `rd = mem[rs1 + offset]`, optionally sign-extended.
    Load { width: MemWidth, signed: bool, rd: Reg, base: Reg, offset: i32 },
    /// Memory store: `mem[rs1 + offset] = rs2`.
    Store { width: MemWidth, src: Reg, base: Reg, offset: i32 },
    /// Conditional branch to `pc + 4*offset` when `rs1 cond rs2` holds.
    Branch { cond: Cond, rs1: Reg, rs2: Reg, offset: i32 },
    /// Unconditional jump to `pc + 4*offset`.
    Jump { offset: i32 },
    /// Call: `lr = pc + 4; pc = pc + 4*offset`.
    Jal { offset: i32 },
    /// Indirect jump: `rd = pc + 4; pc = (rs1 + offset) & !3`.
    ///
    /// `jalr r0, lr, 0` is the return idiom; `jalr lr, rN, 0` is an
    /// indirect call; any other form is a computed jump.
    Jalr { rd: Reg, rs1: Reg, offset: i32 },
    /// Stop execution of the task.
    Halt,
}

/// Classification of an instruction's effect on control flow, as used by
/// CFG reconstruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Flow {
    /// Falls through to the next instruction.
    Seq,
    /// Two-way conditional branch; `target` is the taken destination.
    Branch { target: u32 },
    /// Unconditional direct jump.
    Jump { target: u32 },
    /// Direct call (returns to the instruction after the call).
    Call { target: u32 },
    /// Indirect call through a register (`jalr` writing `lr`).
    IndirectCall,
    /// Function return (`jalr r0, lr, 0`).
    Return,
    /// Computed jump through a register (e.g. a jump table).
    IndirectJump,
    /// End of the task.
    Halt,
}

/// A small set of registers backed by a 16-bit mask.
///
/// Used for the `uses`/`defs` sets of instructions without heap
/// allocation.
///
/// # Example
///
/// ```
/// use stamp_isa::{Reg, RegSet};
///
/// let mut s = RegSet::EMPTY;
/// s.insert(Reg::SP);
/// s.insert(Reg::new(1));
/// assert!(s.contains(Reg::SP));
/// assert_eq!(s.iter().count(), 2);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct RegSet(pub u16);

impl RegSet {
    /// The empty register set.
    pub const EMPTY: RegSet = RegSet(0);

    /// Inserts a register into the set.
    pub fn insert(&mut self, r: Reg) {
        self.0 |= 1 << r.index();
    }

    /// Returns `true` if `r` is in the set.
    pub fn contains(self, r: Reg) -> bool {
        self.0 & (1 << r.index()) != 0
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates over the members in index order.
    pub fn iter(self) -> impl Iterator<Item = Reg> {
        (0..16u8).filter(move |i| self.0 & (1 << i) != 0).map(Reg::new)
    }
}

impl FromIterator<Reg> for RegSet {
    fn from_iter<I: IntoIterator<Item = Reg>>(iter: I) -> RegSet {
        let mut s = RegSet::EMPTY;
        for r in iter {
            s.insert(r);
        }
        s
    }
}

impl Insn {
    /// The register written by this instruction, if any.
    ///
    /// Writes to `r0` are discarded by the hardware and reported as `None`.
    pub fn def(&self) -> Option<Reg> {
        let rd = match *self {
            Insn::Alu { rd, .. }
            | Insn::AluImm { rd, .. }
            | Insn::Lui { rd, .. }
            | Insn::Load { rd, .. }
            | Insn::Jalr { rd, .. } => rd,
            Insn::Jal { .. } => Reg::LR,
            Insn::Store { .. } | Insn::Branch { .. } | Insn::Jump { .. } | Insn::Halt => {
                return None
            }
        };
        (!rd.is_zero()).then_some(rd)
    }

    /// The set of registers read by this instruction.
    ///
    /// The zero register is included when named (its value is well defined).
    pub fn uses(&self) -> RegSet {
        let mut s = RegSet::EMPTY;
        match *self {
            Insn::Alu { rs1, rs2, .. } => {
                s.insert(rs1);
                s.insert(rs2);
            }
            Insn::AluImm { rs1, .. } => s.insert(rs1),
            Insn::Lui { .. } | Insn::Jump { .. } | Insn::Jal { .. } | Insn::Halt => {}
            Insn::Load { base, .. } => s.insert(base),
            Insn::Store { src, base, .. } => {
                s.insert(src);
                s.insert(base);
            }
            Insn::Branch { rs1, rs2, .. } => {
                s.insert(rs1);
                s.insert(rs2);
            }
            Insn::Jalr { rs1, .. } => s.insert(rs1),
        }
        s
    }

    /// Returns `true` if this is a memory load.
    pub fn is_load(&self) -> bool {
        matches!(self, Insn::Load { .. })
    }

    /// Returns `true` if the instruction ends a basic block.
    pub fn is_terminator(&self) -> bool {
        !matches!(self.flow(0), Flow::Seq | Flow::Call { .. } | Flow::IndirectCall)
            || matches!(self, Insn::Jal { .. } | Insn::Jalr { .. })
    }

    /// Classifies the control-flow effect of this instruction located at
    /// address `pc`.
    pub fn flow(&self, pc: u32) -> Flow {
        match *self {
            Insn::Branch { offset, .. } => {
                Flow::Branch { target: pc.wrapping_add((offset as u32).wrapping_mul(4)) }
            }
            Insn::Jump { offset } => {
                Flow::Jump { target: pc.wrapping_add((offset as u32).wrapping_mul(4)) }
            }
            Insn::Jal { offset } => {
                Flow::Call { target: pc.wrapping_add((offset as u32).wrapping_mul(4)) }
            }
            Insn::Jalr { rd, rs1, offset } => {
                if rd.is_zero() && rs1 == Reg::LR && offset == 0 {
                    Flow::Return
                } else if rd == Reg::LR {
                    Flow::IndirectCall
                } else {
                    Flow::IndirectJump
                }
            }
            Insn::Halt => Flow::Halt,
            _ => Flow::Seq,
        }
    }

    /// The canonical `nop` encoding (`addi r0, r0, 0`).
    pub fn nop() -> Insn {
        Insn::AluImm { op: AluOp::Add, rd: Reg::ZERO, rs1: Reg::ZERO, imm: 0 }
    }
}

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Insn::Alu { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic())
            }
            Insn::AluImm { op, rd, rs1, imm } => {
                write!(f, "{}i {rd}, {rs1}, {imm}", op.mnemonic())
            }
            Insn::Lui { rd, imm } => write!(f, "lui {rd}, {:#x}", imm),
            Insn::Load { width, signed, rd, base, offset } => {
                let m = match (width, signed) {
                    (MemWidth::B, true) => "lb",
                    (MemWidth::B, false) => "lbu",
                    (MemWidth::H, true) => "lh",
                    (MemWidth::H, false) => "lhu",
                    (MemWidth::W, _) => "lw",
                };
                write!(f, "{m} {rd}, {offset}({base})")
            }
            Insn::Store { width, src, base, offset } => {
                let m = match width {
                    MemWidth::B => "sb",
                    MemWidth::H => "sh",
                    MemWidth::W => "sw",
                };
                write!(f, "{m} {src}, {offset}({base})")
            }
            Insn::Branch { cond, rs1, rs2, offset } => {
                write!(f, "b{} {rs1}, {rs2}, {:+}", cond.suffix(), offset)
            }
            Insn::Jump { offset } => write!(f, "j {:+}", offset),
            Insn::Jal { offset } => write!(f, "jal {:+}", offset),
            Insn::Jalr { rd, rs1, offset } => write!(f, "jalr {rd}, {rs1}, {offset}"),
            Insn::Halt => f.write_str("halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn def_discards_zero_register() {
        let i = Insn::AluImm { op: AluOp::Add, rd: Reg::ZERO, rs1: Reg::ZERO, imm: 0 };
        assert_eq!(i.def(), None);
        let i = Insn::AluImm { op: AluOp::Add, rd: Reg::new(3), rs1: Reg::ZERO, imm: 0 };
        assert_eq!(i.def(), Some(Reg::new(3)));
    }

    #[test]
    fn jal_defines_lr() {
        let i = Insn::Jal { offset: 4 };
        assert_eq!(i.def(), Some(Reg::LR));
    }

    #[test]
    fn uses_collects_operands() {
        let i = Insn::Store { width: MemWidth::W, src: Reg::new(2), base: Reg::SP, offset: 8 };
        let u = i.uses();
        assert!(u.contains(Reg::new(2)));
        assert!(u.contains(Reg::SP));
        assert_eq!(u.iter().count(), 2);
    }

    #[test]
    fn flow_classification() {
        assert_eq!(
            Insn::Branch { cond: Cond::Eq, rs1: Reg::ZERO, rs2: Reg::ZERO, offset: -2 }.flow(0x100),
            Flow::Branch { target: 0xf8 }
        );
        assert_eq!(Insn::Jump { offset: 3 }.flow(0x100), Flow::Jump { target: 0x10c });
        assert_eq!(Insn::Jal { offset: 1 }.flow(0), Flow::Call { target: 4 });
        assert_eq!(Insn::Jalr { rd: Reg::ZERO, rs1: Reg::LR, offset: 0 }.flow(0), Flow::Return);
        assert_eq!(
            Insn::Jalr { rd: Reg::LR, rs1: Reg::new(5), offset: 0 }.flow(0),
            Flow::IndirectCall
        );
        assert_eq!(
            Insn::Jalr { rd: Reg::ZERO, rs1: Reg::new(5), offset: 0 }.flow(0),
            Flow::IndirectJump
        );
        assert_eq!(Insn::Halt.flow(0), Flow::Halt);
        assert_eq!(Insn::nop().flow(0), Flow::Seq);
    }

    #[test]
    fn cond_negate_is_involution() {
        for c in Cond::ALL {
            assert_eq!(c.negate().negate(), c);
            for (a, b) in [(0u32, 1u32), (5, 5), (u32::MAX, 0), (0x8000_0000, 1)] {
                assert_eq!(c.eval(a, b), !c.negate().eval(a, b));
            }
        }
    }

    #[test]
    fn display_formats() {
        let i = Insn::Load {
            width: MemWidth::W,
            signed: true,
            rd: Reg::new(1),
            base: Reg::SP,
            offset: -4,
        };
        assert_eq!(i.to_string(), "lw r1, -4(sp)");
        assert_eq!(Insn::Halt.to_string(), "halt");
    }

    #[test]
    fn regset_iterates_in_order() {
        let s: RegSet = [Reg::new(5), Reg::new(1), Reg::new(14)].into_iter().collect();
        let v: Vec<_> = s.iter().map(|r| r.index()).collect();
        assert_eq!(v, vec![1, 5, 14]);
    }
}
