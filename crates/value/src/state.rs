//! The abstract machine state: register file × abstract memory.

use std::sync::Arc;

use stamp_ai::Domain;
use stamp_isa::Reg;

use crate::amem::AMem;
use crate::interval::SInt;

/// Abstract state at a program point: one [`SInt`] per register plus the
/// abstract RAM.
///
/// The widening-threshold ladder is shared by reference so cloning a
/// state (which the solver does constantly) stays cheap.
#[derive(Clone, Debug)]
pub struct AState {
    regs: [SInt; Reg::COUNT],
    /// Abstract RAM.
    pub mem: AMem,
    thresholds: Arc<Vec<u32>>,
}

impl AState {
    /// The task-entry state: `r0 = 0`, `sp = stack_top`, all other
    /// registers and all RAM unknown.
    pub fn entry(stack_top: u32, thresholds: Arc<Vec<u32>>) -> AState {
        let mut regs = [SInt::top(); Reg::COUNT];
        regs[Reg::ZERO.index()] = SInt::cst(0);
        regs[Reg::SP.index()] = SInt::cst(stack_top);
        AState { regs, mem: AMem::unknown(), thresholds }
    }

    /// Reads a register.
    pub fn reg(&self, r: Reg) -> SInt {
        self.regs[r.index()]
    }

    /// Writes a register (`r0` stays pinned at zero).
    pub fn set_reg(&mut self, r: Reg, v: SInt) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// Meets a register with a refinement; returns `false` if the
    /// register becomes empty (the path is infeasible).
    #[must_use]
    pub fn refine_reg(&mut self, r: Reg, v: &SInt) -> bool {
        if r.is_zero() {
            return v.contains(0);
        }
        match self.regs[r.index()].meet(v) {
            Some(m) => {
                self.regs[r.index()] = m;
                true
            }
            None => false,
        }
    }

    /// The shared widening thresholds.
    pub fn thresholds(&self) -> &[u32] {
        &self.thresholds
    }

    /// The register file (for encoding analyses).
    pub(crate) fn regs(&self) -> &[SInt; Reg::COUNT] {
        &self.regs
    }

    /// Reassembles a state from raw parts — the inverse of
    /// [`AState::regs`] / [`AState::thresholds`] plus the memory.
    pub(crate) fn from_parts(
        regs: [SInt; Reg::COUNT],
        mem: AMem,
        thresholds: Arc<Vec<u32>>,
    ) -> AState {
        AState { regs, mem, thresholds }
    }
}

impl Domain for AState {
    fn join_from(&mut self, other: &AState) -> bool {
        let mut changed = false;
        for i in 0..Reg::COUNT {
            let j = self.regs[i].join(&other.regs[i]);
            if j != self.regs[i] {
                self.regs[i] = j;
                changed = true;
            }
        }
        changed |= self.mem.join_from(&other.mem);
        changed
    }

    fn widen_from(&mut self, other: &AState) -> bool {
        let mut changed = false;
        let thr = &self.thresholds;
        for i in 0..Reg::COUNT {
            if !other.regs[i].subset_of(&self.regs[i]) {
                let w = self.regs[i].widen(&other.regs[i], thr);
                if w != self.regs[i] {
                    self.regs[i] = w;
                    changed = true;
                }
            }
        }
        changed |= self.mem.widen_from(&other.mem, thr);
        changed
    }

    fn le(&self, other: &AState) -> bool {
        self.regs.iter().zip(other.regs.iter()).all(|(a, b)| a.subset_of(b))
            && self.mem.le(&other.mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn st() -> AState {
        AState::entry(0x1010_0000, Arc::new(vec![0, 16, 256]))
    }

    #[test]
    fn entry_state_pins_special_registers() {
        let s = st();
        assert_eq!(s.reg(Reg::ZERO).is_const(), Some(0));
        assert_eq!(s.reg(Reg::SP).is_const(), Some(0x1010_0000));
        assert!(s.reg(Reg::new(1)).is_top());
    }

    #[test]
    fn zero_register_ignores_writes() {
        let mut s = st();
        s.set_reg(Reg::ZERO, SInt::cst(5));
        assert_eq!(s.reg(Reg::ZERO).is_const(), Some(0));
    }

    #[test]
    fn join_is_pointwise() {
        let mut a = st();
        let mut b = st();
        a.set_reg(Reg::new(1), SInt::cst(1));
        b.set_reg(Reg::new(1), SInt::cst(3));
        assert!(a.join_from(&b));
        let v = a.reg(Reg::new(1));
        assert!(v.contains(1) && v.contains(3));
        assert!(b.le(&a));
        assert!(!a.le(&b));
    }

    #[test]
    fn widen_uses_shared_thresholds() {
        let mut a = st();
        let mut b = st();
        a.set_reg(Reg::new(2), SInt::cst(0));
        b.set_reg(Reg::new(2), SInt::range(0, 3));
        assert!(a.widen_from(&b));
        assert_eq!(a.reg(Reg::new(2)).hi(), 16); // jumped to threshold
    }

    #[test]
    fn refine_to_empty_reports_infeasible() {
        let mut a = st();
        a.set_reg(Reg::new(1), SInt::cst(5));
        assert!(!a.refine_reg(Reg::new(1), &SInt::cst(6)));
        assert!(a.refine_reg(Reg::ZERO, &SInt::range(0, 10)));
        assert!(!a.refine_reg(Reg::ZERO, &SInt::range(1, 10)));
    }
}
