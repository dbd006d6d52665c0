//! # stamp-loopbound — loop bound analysis
//!
//! Implements the paper's "loop bound analysis \[which\] determines upper
//! bounds for the number of iterations of simple loops", using the value
//! analysis results as input.
//!
//! For every natural loop the analysis:
//!
//! 1. identifies the loop's unique *induction register* — exactly one
//!    instruction in the body updates it, by a constant (`addi r, r, c`);
//! 2. finds exit branches that execute on every iteration (their blocks
//!    dominate the latch, by the loop forest's dominator tree) and
//!    compares the induction register against a loop-invariant bound;
//!
//! and then, for each of the loop's VIVU instances in
//! [`Icfg::loop_instances`]:
//!
//! 3. abstractly iterates the induction sequence from the value-analysis
//!    state on the instance's entry edges until the continue-condition
//!    becomes unsatisfiable, yielding a sound upper bound on header
//!    executions per loop entry.
//!
//! Loops that do not fit the pattern (e.g. binary search, data-dependent
//! exits) fall back to **user annotations**, exactly as aiT does; without
//! either, the loop is reported unbounded and WCET analysis refuses to
//! produce a bound.
//!
//! # Example
//!
//! ```
//! use stamp_isa::asm::assemble;
//! use stamp_cfg::CfgBuilder;
//! use stamp_ai::{Icfg, VivuConfig};
//! use stamp_hw::HwConfig;
//! use stamp_value::{ValueAnalysis, ValueOptions};
//! use stamp_loopbound::LoopBoundAnalysis;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let p = assemble(
//!     ".text\nmain: li r1, 10\nloop: addi r1, r1, -1\nbnez r1, loop\nhalt\n",
//! )?;
//! let cfg = CfgBuilder::new(&p).build()?;
//! let icfg = Icfg::build(&cfg, &VivuConfig::default())?;
//! let va = ValueAnalysis::run(&p, &HwConfig::default(), &cfg, &icfg, &ValueOptions::default());
//! let lb = LoopBoundAnalysis::run(&p, &cfg, &icfg, &va, &Default::default());
//! assert_eq!(lb.bounds().values().next(), Some(&10));
//! # Ok(())
//! # }
//! ```

use std::collections::BTreeMap;

use stamp_ai::{Frame, Icfg, LoopInstance};
use stamp_cfg::{BlockId, Cfg, Dominators, Loop};
use stamp_isa::{AluOp, Cond, Insn, Program, Reg};
use stamp_value::{effective_cond, CondRhs, SInt, ValueAnalysis};

pub use stamp_ai::LoopKey;

/// Options for the loop-bound analysis.
#[derive(Clone, Debug, Default)]
pub struct LoopBoundOptions {
    /// Per-header-address user annotations: "this loop executes its
    /// header at most N times per entry".
    pub annotations: BTreeMap<u32, u64>,
}

/// Abstract-iteration cap; loops that survive this many iterations are
/// reported unbounded.
const MAX_ITERATIONS: u64 = 1 << 20;

/// Loop bounds per loop instance. Build with [`LoopBoundAnalysis::run`].
#[derive(Clone, Debug)]
pub struct LoopBoundAnalysis {
    bounds: BTreeMap<LoopKey, u64>,
    unbounded: Vec<LoopKey>,
}

impl LoopBoundAnalysis {
    /// Computes bounds for every loop instance in the supergraph.
    pub fn run(
        program: &Program,
        cfg: &Cfg,
        icfg: &Icfg,
        va: &ValueAnalysis,
        options: &LoopBoundOptions,
    ) -> LoopBoundAnalysis {
        let mut bounds = BTreeMap::new();
        let mut unbounded = Vec::new();
        let _ = program;

        for func in cfg.functions() {
            let forest = match cfg.loop_forest(func.id) {
                Ok(f) => f,
                Err(_) => continue, // irreducible: reported by the ICFG stage
            };
            for l in forest.loops() {
                let pattern = InductionPattern::detect(cfg, forest.dominators(), l);
                let annotated = options.annotations.get(&cfg.block(l.header).start).copied();
                for inst in icfg.loop_instances_of(l.header) {
                    let computed = pattern.as_ref().and_then(|p| p.bound(cfg, icfg, va, inst));
                    let bound = match (computed, annotated) {
                        (Some(c), Some(a)) => Some(c.min(a)),
                        (c, a) => c.or(a),
                    };
                    match bound {
                        Some(b) => {
                            bounds.insert(inst.key(), b);
                        }
                        None => unbounded.push(inst.key()),
                    }
                }
            }
        }
        LoopBoundAnalysis { bounds, unbounded }
    }

    /// Bounds per loop instance (max header executions per loop entry).
    pub fn bounds(&self) -> &BTreeMap<LoopKey, u64> {
        &self.bounds
    }

    /// The bound for a loop instance.
    pub fn bound(&self, header: BlockId, outer: &[Frame]) -> Option<u64> {
        self.bounds.get(&(header, outer.to_vec())).copied()
    }

    /// Loop instances for which no bound could be established; these
    /// require annotations before WCET analysis can proceed.
    pub fn unbounded(&self) -> &[LoopKey] {
        &self.unbounded
    }
}

/// The detected shape of a simple counted loop.
struct InductionPattern {
    /// The induction register.
    reg: Reg,
    /// Its per-iteration constant step.
    step: i32,
    /// Exit branches usable for bounding: `(block, continue-cond, rhs,
    /// increment-executes-before-branch)`.
    exits: Vec<(BlockId, Cond, CondRhs, bool)>,
}

impl InductionPattern {
    fn detect(cfg: &Cfg, dom: &Dominators, l: &Loop) -> Option<InductionPattern> {
        // Find registers updated exactly once in the body, by `addi r, r, c`.
        let mut updates: BTreeMap<Reg, Vec<(BlockId, usize, Option<i32>)>> = BTreeMap::new();
        for &b in &l.body {
            for (idx, (_, insn)) in cfg.block(b).insns.iter().enumerate() {
                if let Some(rd) = insn.def() {
                    let step = match *insn {
                        Insn::AluImm { op: AluOp::Add, rd: d, rs1, imm }
                            if d == rs1 && imm != 0 =>
                        {
                            Some(imm)
                        }
                        _ => None,
                    };
                    updates.entry(rd).or_default().push((b, idx, step));
                }
            }
        }
        let latches: Vec<BlockId> = l.back_edges.iter().map(|&e| cfg.edge(e).from).collect();

        // Candidate induction registers: single self-increment update.
        for (reg, ups) in &updates {
            let [(step_block, step_idx, Some(step))] = ups.as_slice() else { continue };
            // The increment must run every iteration.
            if !latches.iter().all(|&lb| dom.dominates(*step_block, lb)) {
                continue;
            }
            // Collect usable exit branches comparing `reg`.
            let mut exits = Vec::new();
            for &eid in &l.exit_edges {
                let e = cfg.edge(eid);
                let b = e.from;
                if !latches.iter().all(|&lb| dom.dominates(b, lb)) && !latches.contains(&b) {
                    continue; // branch not executed every iteration
                }
                let Some(eff) = effective_cond(cfg.block(b)) else { continue };
                // The continue direction is the one staying in the loop.
                let exit_taken = matches!(e.kind, stamp_cfg::EdgeKind::Taken);
                let cont_cond = if exit_taken { eff.cond.negate() } else { eff.cond };
                // Normalize so that `reg` is on the left.
                let (cond, rhs) = if eff.lhs == *reg {
                    (cont_cond, eff.rhs)
                } else if let CondRhs::Reg(r) = eff.rhs {
                    if r == *reg {
                        (swap_sides(cont_cond)?, CondRhs::Reg(eff.lhs))
                    } else {
                        continue;
                    }
                } else {
                    continue;
                };
                // The rhs must be loop-invariant.
                if let CondRhs::Reg(r) = rhs {
                    if updates.contains_key(&r) && !r.is_zero() {
                        continue;
                    }
                }
                // Does the increment run before this branch each iteration?
                let inc_before = if *step_block == b {
                    *step_idx < cfg.block(b).insns.len() - 1
                } else if dom.dominates(*step_block, b) {
                    true
                } else if dom.dominates(b, *step_block) {
                    false
                } else {
                    continue;
                };
                exits.push((b, cond, rhs, inc_before));
            }
            if !exits.is_empty() {
                return Some(InductionPattern { reg: *reg, step: *step, exits });
            }
        }
        None
    }

    /// Bounds one context instance by abstract iteration.
    fn bound(
        &self,
        cfg: &Cfg,
        icfg: &Icfg,
        va: &ValueAnalysis,
        inst: &LoopInstance,
    ) -> Option<u64> {
        // Initial value of the induction register and of every invariant
        // rhs: joined over the instance's entry edges and, when the task
        // starts in the loop, the entry node's input state (which covers
        // the task-entry state).
        let mut init: Option<SInt> = None;
        let mut rhs_vals: BTreeMap<Reg, SInt> = BTreeMap::new();
        let start = icfg.entered_at_start(inst).then(|| va.entry_state(icfg.entry()));
        let edges = inst.entries.iter().map(|&e| va.exit_state(icfg.edge(e).from));
        for src_state in start.into_iter().chain(edges) {
            let src_state = src_state?;
            let v = src_state.reg(self.reg);
            init = Some(match init {
                None => v,
                Some(p) => p.join(&v),
            });
            for &(_, _, rhs, _) in &self.exits {
                if let CondRhs::Reg(r) = rhs {
                    let rv = src_state.reg(r);
                    rhs_vals.entry(r).and_modify(|p| *p = p.join(&rv)).or_insert(rv);
                }
            }
        }
        let init = init?;

        // Take the tightest bound over the usable exits.
        let mut best: Option<u64> = None;
        for &(_, cont, rhs, inc_before) in &self.exits {
            let limit = match rhs {
                CondRhs::Imm(v) => Some(SInt::cst(v)),
                CondRhs::Reg(r) if r.is_zero() => Some(SInt::cst(0)),
                CondRhs::Reg(r) => rhs_vals.get(&r).copied(),
            };
            // Value of the induction register at the branch in iteration
            // k (1-based): init + (k-1)·step (+ step if the increment ran).
            let interval_bound = limit.and_then(|limit| {
                let x = if inc_before { init.add_i32(self.step) } else { init };
                abstract_iterate(cont, x, &limit, self.step)
            });
            // Relational path (paper §1: "upper and lower bounds for
            // their differences"): a pointer-range loop
            // `end = p + N; while (p < end)` over an unknown `p` has an
            // exact limit − induction difference at loop entry even when
            // both intervals are useless; where both paths succeed the
            // relational one is often tighter, so take the minimum.
            let relational_bound = match rhs {
                CondRhs::Reg(limit_reg) => {
                    self.relational_bound(cfg, icfg, va, inst, cont, limit_reg, inc_before)
                }
                CondRhs::Imm(_) => None,
            };
            let bound = match (interval_bound, relational_bound) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            if let Some(b) = bound {
                best = Some(best.map_or(b, |p: u64| p.min(b)));
            }
        }
        best
    }

    /// Bounds the loop through the entry-point difference
    /// `limit − induction`, when it is exact and the condition is a
    /// strict less-than with a positive step.
    #[allow(clippy::too_many_arguments)]
    fn relational_bound(
        &self,
        cfg: &Cfg,
        icfg: &Icfg,
        va: &ValueAnalysis,
        inst: &LoopInstance,
        cont: Cond,
        limit_reg: Reg,
        inc_before: bool,
    ) -> Option<u64> {
        // The gap is read off the entry edges' source blocks; the task
        // start has none.
        if !matches!(cont, Cond::Lt | Cond::Ltu) || self.step <= 0 || icfg.entered_at_start(inst) {
            return None;
        }
        // Gap at loop entry, joined over all entry edges of the instance.
        let mut gap: Option<i64> = None;
        for &e in &inst.entries {
            let from = icfg.edge(e).from;
            let entry_state = va.entry_state(from)?;
            let block = cfg.block(icfg.node(from).block);
            let d = stamp_value::register_delta(block, entry_state, limit_reg, self.reg)?;
            let d = d.is_const()? as i32 as i64; // signed gap
            gap = Some(match gap {
                None => d,
                Some(p) => p.max(d),
            });
        }
        let gap = gap?;
        // 0-based reformulation: induction' starts at 0 (or step, if the
        // increment runs before the check), limit' = gap; both fit the
        // signed non-negative range where Lt and Ltu agree.
        if gap < 0 {
            return Some(1); // the continue condition fails immediately
        }
        let limit = SInt::cst(gap as u32);
        let x = SInt::cst(if inc_before { self.step as u32 } else { 0 });
        abstract_iterate(Cond::Lt, x, &limit, self.step)
    }
}

/// Iterates `x ← refine(cont, x, limit) + step` until the continue
/// condition becomes unsatisfiable; returns the number of header
/// executions, or `None` past [`MAX_ITERATIONS`].
fn abstract_iterate(cont: Cond, mut x: SInt, limit: &SInt, step: i32) -> Option<u64> {
    let mut k: u64 = 1;
    loop {
        match SInt::refine(cont, &x, limit) {
            None => break Some(k), // cannot continue: ≤ k headers
            Some((rx, _)) => {
                k += 1;
                if k > MAX_ITERATIONS {
                    break None;
                }
                x = rx.add_i32(step);
                if x.is_top() {
                    break None;
                }
            }
        }
    }
}

/// `a cond b` rewritten as `b cond' a`.
fn swap_sides(c: Cond) -> Option<Cond> {
    Some(match c {
        Cond::Eq => Cond::Eq,
        Cond::Ne => Cond::Ne,
        // a < b  ⇔  b > a, which is not directly expressible; callers
        // treat these as unusable.
        Cond::Lt | Cond::Ge | Cond::Ltu | Cond::Geu => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stamp_ai::VivuConfig;
    use stamp_cfg::CfgBuilder;
    use stamp_hw::HwConfig;
    use stamp_isa::asm::assemble;
    use stamp_value::ValueOptions;

    fn bounds_of(src: &str, opts: &LoopBoundOptions) -> LoopBoundAnalysis {
        let p = assemble(src).expect("assembles");
        let hw = HwConfig::default();
        let cfg = CfgBuilder::new(&p).build().expect("builds");
        let icfg = Icfg::build(&cfg, &VivuConfig::default()).expect("expands");
        let va = ValueAnalysis::run(&p, &hw, &cfg, &icfg, &ValueOptions::default());
        LoopBoundAnalysis::run(&p, &cfg, &icfg, &va, opts)
    }

    #[test]
    fn down_counting_loop() {
        let lb = bounds_of(
            ".text\nmain: li r1, 10\nloop: addi r1, r1, -1\nbnez r1, loop\nhalt\n",
            &LoopBoundOptions::default(),
        );
        assert_eq!(lb.unbounded().len(), 0);
        assert_eq!(lb.bounds().len(), 1);
        assert_eq!(*lb.bounds().values().next().unwrap(), 10);
    }

    #[test]
    fn up_counting_loop_with_slt() {
        let lb = bounds_of(
            "\
            .text
            main: li r1, 0
            loop: addi r1, r1, 1
                  slti r5, r1, 100
                  bnez r5, loop
                  halt
            ",
            &LoopBoundOptions::default(),
        );
        assert_eq!(lb.unbounded().len(), 0);
        assert_eq!(*lb.bounds().values().next().unwrap(), 100);
    }

    #[test]
    fn up_counting_branch_compare_register() {
        // Bound held in a register set before the loop.
        let lb = bounds_of(
            "\
            .text
            main: li r1, 0
                  li r2, 25
            loop: addi r1, r1, 1
                  blt r1, r2, loop
                  halt
            ",
            &LoopBoundOptions::default(),
        );
        assert_eq!(lb.unbounded().len(), 0);
        assert_eq!(*lb.bounds().values().next().unwrap(), 25);
    }

    #[test]
    fn nested_loops_bound_separately() {
        let lb = bounds_of(
            "\
            .text
            main:  li r1, 3
            outer: li r2, 4
            inner: addi r2, r2, -1
                   bnez r2, inner
                   addi r1, r1, -1
                   bnez r1, outer
                   halt
            ",
            &LoopBoundOptions::default(),
        );
        assert_eq!(lb.unbounded().len(), 0);
        let values: Vec<u64> = lb.bounds().values().copied().collect();
        // Outer bound 3; inner bound 4 in both outer iteration contexts.
        assert!(values.contains(&3));
        assert!(values.contains(&4));
        assert!(lb.bounds().len() >= 3);
    }

    #[test]
    fn data_dependent_loop_needs_annotation() {
        // Binary-search-like halving loop: no ±c induction.
        let src = "\
            .text
            main: li r1, 1024
            loop: srli r1, r1, 1
                  bnez r1, loop
                  halt
        ";
        let lb = bounds_of(src, &LoopBoundOptions::default());
        assert_eq!(lb.unbounded().len(), 1);
        // With an annotation on the header the loop is bounded.
        let p = assemble(src).unwrap();
        let header = p.symbols.addr_of("loop").unwrap();
        let mut opts = LoopBoundOptions::default();
        opts.annotations.insert(header, 10);
        let lb = bounds_of(src, &opts);
        assert_eq!(lb.unbounded().len(), 0);
        assert_eq!(*lb.bounds().values().next().unwrap(), 10);
    }

    #[test]
    fn annotation_tightens_computed_bound() {
        let src = ".text\nmain: li r1, 10\nloop: addi r1, r1, -1\nbnez r1, loop\nhalt\n";
        let p = assemble(src).unwrap();
        let header = p.symbols.addr_of("loop").unwrap();
        let mut opts = LoopBoundOptions::default();
        opts.annotations.insert(header, 5);
        let lb = bounds_of(src, &opts);
        assert_eq!(*lb.bounds().values().next().unwrap(), 5);
    }

    #[test]
    fn pointer_range_loop_bounded_relationally() {
        // `end = p + 64; while (p < end) p += 4` over an unknown p:
        // intervals alone cannot bound this (p is input data), the
        // difference end − p = 64 can (paper §1's relational extension).
        let lb = bounds_of(
            "\
            .text
            main: la   r1, pbuf
                  lw   r1, 0(r1)      ; p: unknown input word
                  addi r2, r1, 64     ; end = p + 64
            loop: addi r1, r1, 4
                  blt  r1, r2, loop
                  halt
            .data
            pbuf: .space 4
            ",
            &LoopBoundOptions::default(),
        );
        assert_eq!(lb.unbounded().len(), 0, "relational bound should apply");
        assert_eq!(*lb.bounds().values().next().unwrap(), 16);
    }

    #[test]
    fn relational_beats_interval_difference() {
        // Base bounded to [buf, buf+28] and end = base + 64: the interval
        // difference would allow up to (64+28)/4 iterations, the exact
        // relational gap gives 16.
        let lb = bounds_of(
            "\
            .text
            main: la   r9, off
                  lw   r9, 0(r9)
                  andi r9, r9, 0x1c   ; 0..28, word aligned
                  la   r1, buf
                  add  r1, r1, r9     ; p = buf + off
                  addi r2, r1, 64     ; end = p + 64
            loop: addi r1, r1, 4
                  blt  r1, r2, loop
                  halt
            .data
            off:  .space 4
            buf:  .space 96
            ",
            &LoopBoundOptions::default(),
        );
        assert_eq!(lb.unbounded().len(), 0);
        assert_eq!(*lb.bounds().values().next().unwrap(), 16);
    }

    #[test]
    fn negative_gap_means_no_reentry() {
        // end below the start pointer: the loop body runs exactly once
        // (do-while shape), so the header bound is 1.
        let lb = bounds_of(
            "\
            .text
            main: la   r1, pbuf
                  lw   r1, 0(r1)
                  addi r2, r1, -8     ; end < p
            loop: addi r1, r1, 4
                  blt  r1, r2, loop
                  halt
            .data
            pbuf: .space 4
            ",
            &LoopBoundOptions::default(),
        );
        assert_eq!(lb.unbounded().len(), 0);
        assert_eq!(*lb.bounds().values().next().unwrap(), 1);
    }

    #[test]
    fn loop_in_called_function_bound_per_context() {
        let lb = bounds_of(
            "\
            .text
            main: li r1, 7
                  call spin
                  li r1, 3
                  call spin
                  halt
            spin: addi r1, r1, -1
                  bnez r1, spin
                  ret
            ",
            &LoopBoundOptions::default(),
        );
        assert_eq!(lb.unbounded().len(), 0);
        let values: Vec<u64> = lb.bounds().values().copied().collect();
        // Two inlined instances with different bounds.
        assert!(values.contains(&7), "{values:?}");
        assert!(values.contains(&3), "{values:?}");
    }

    #[test]
    fn loop_the_task_starts_in_is_bounded_from_the_entry_state() {
        // The entry block heads the loop: the task start is its only
        // entry. `r1` is unknown there, so only the unsigned compare
        // bounds it: 51 headers when `r1` starts at −1.
        let unsigned = ".text\nmain: addi r1, r1, 1\nsltui r5, r1, 50\nbnez r5, main\nhalt\n";
        let lb = bounds_of(unsigned, &LoopBoundOptions::default());
        assert_eq!(lb.unbounded().len(), 0);
        assert_eq!(lb.bounds().values().copied().collect::<Vec<_>>(), [51]);
        let signed = ".text\nmain: addi r1, r1, 1\nslti r5, r1, 50\nbnez r5, main\nhalt\n";
        assert_eq!(bounds_of(signed, &LoopBoundOptions::default()).unbounded().len(), 1);
    }
}
