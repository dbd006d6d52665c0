//! The compositional (call-graph) stack analysis with recursion support.

use std::collections::BTreeMap;

use stamp_cfg::{BlockId, Cfg, FuncId};
use stamp_isa::{AluOp, Insn, Program, Reg};

use crate::{StackError, StackOptions, StackResult};

/// Per-function stack facts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FunctionStack {
    /// Deepest local extent below the function's entry `sp`, in bytes
    /// (not counting callees).
    pub local: u32,
    /// Worst-case usage including all callees.
    pub usage: u32,
}

/// Computes worst-case stack usage compositionally: a local frame
/// analysis per function, then a longest-path traversal of the call
/// graph. Recursive cycles require [`StackOptions::recursion_depths`]
/// annotations (keyed by function entry address); the cycle bound is
/// `depth × Σ member frames`, which is conservative for mutual
/// recursion.
///
/// # Errors
///
/// * [`StackError::VariableAdjustment`] if `sp` is modified by anything
///   but `addi sp, sp, ±c`;
/// * [`StackError::Recursion`] for unannotated cycles.
pub fn analyze_callgraph(
    program: &Program,
    cfg: &Cfg,
    options: &StackOptions,
) -> Result<StackResult, StackError> {
    let _ = program;
    // ---- Per-function local frame analysis.
    let mut local: BTreeMap<FuncId, i64> = BTreeMap::new(); // deepest (≥ 0)
                                                            // Displacement at the end of each block (at a call block's call).
    let mut end_disp: Vec<i64> = vec![0; cfg.blocks().len()];
    for f in cfg.functions() {
        let mut deltas: BTreeMap<BlockId, i64> = BTreeMap::new();
        deltas.insert(f.entry, 0);
        let mut deepest: i64 = 0;
        // Blocks in reverse post-order ensures predecessors first
        // (reducible CFGs; sp must be loop-invariant anyway).
        for b in cfg.rpo(f.id) {
            let mut d = deltas.get(&b).copied().unwrap_or(0);
            let block = cfg.block(b);
            for &(addr, insn) in &block.insns {
                match insn {
                    Insn::AluImm { op: AluOp::Add, rd, rs1, imm }
                        if rd == Reg::SP && rs1 == Reg::SP =>
                    {
                        d += imm as i64;
                        deepest = deepest.min(d);
                    }
                    _ if insn.def() == Some(Reg::SP) => {
                        return Err(StackError::VariableAdjustment { addr });
                    }
                    _ => {}
                }
            }
            end_disp[b.index()] = d;
            for (_, e) in cfg.succs(b) {
                match deltas.get(&e.to) {
                    None => {
                        deltas.insert(e.to, d);
                    }
                    Some(&prev) => {
                        // Joins with differing sp are possible in odd
                        // code; take the deeper one (sound for usage).
                        if d < prev {
                            deltas.insert(e.to, d);
                        }
                    }
                }
            }
        }
        local.insert(f.id, -deepest);
    }

    // ---- Each function's call sites with their stack displacement and
    // its callees, grouped once; then the call-graph SCCs, callee-first.
    let n = cfg.functions().len();
    let mut sites: Vec<Vec<(u64, &[FuncId])>> = vec![Vec::new(); n];
    let mut callees: Vec<Vec<FuncId>> = vec![Vec::new(); n];
    for cs in cfg.call_sites() {
        let f = cfg.block(cs.block).func.index();
        sites[f].push(((-end_disp[cs.block.index()]).max(0) as u64, cs.callee.targets()));
        for &g in cs.callee.targets() {
            if !callees[f].contains(&g) {
                callees[f].push(g);
            }
        }
    }
    let mut sccs: Vec<Vec<FuncId>> = Vec::new();
    stamp_cfg::sccs(
        n,
        |f| callees[f].iter().map(|g| g.index()),
        |members| sccs.push(members.iter().map(|&f| FuncId(f as u32)).collect()),
    );
    let mut scc_of = vec![0usize; n];
    for (i, members) in sccs.iter().enumerate() {
        for f in members {
            scc_of[f.index()] = i;
        }
    }

    // ---- Usage per function, processing SCCs in reverse topological
    // order.
    let mut usage: Vec<u64> = vec![0; n];
    for members in &sccs {
        let cyclic = members.len() > 1 || callees[members[0].index()].contains(&members[0]);
        if !cyclic {
            let f = members[0];
            let mut u = local[&f] as u64;
            for &(disp, targets) in &sites[f.index()] {
                for g in targets {
                    u = u.max(disp + usage[g.index()]);
                }
            }
            usage[f.index()] = u;
        } else {
            // Worst external contribution from any member's call site.
            let mut external: u64 = 0;
            for f in members {
                for &(disp, targets) in &sites[f.index()] {
                    for g in targets {
                        if scc_of[g.index()] != scc_of[f.index()] {
                            external = external.max(disp + usage[g.index()]);
                        }
                    }
                }
            }
            // Recursive cycle: needs a depth annotation on some member.
            let depth = members
                .iter()
                .filter_map(|&f| options.recursion_depths.get(&cfg.func(f).entry_addr).copied())
                .max()
                .ok_or_else(|| StackError::Recursion {
                    function: cfg.func(members[0]).name.clone(),
                })?;
            let per_level: u64 = members.iter().map(|&f| local[&f] as u64).sum();
            let bound = depth as u64 * per_level + external;
            for f in members {
                usage[f.index()] = bound;
            }
        }
    }

    let entry = cfg.entry_func();
    let per_function = cfg
        .functions()
        .iter()
        .map(|f| {
            (
                f.name.clone(),
                FunctionStack { local: local[&f.id] as u32, usage: usage[f.id.index()] as u32 },
            )
        })
        .collect();
    Ok(StackResult { total: usage[entry.index()] as u32, per_function })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stamp_cfg::CfgBuilder;
    use stamp_isa::asm::assemble;

    fn run(src: &str, opts: &StackOptions) -> Result<StackResult, StackError> {
        let p = assemble(src).expect("assembles");
        let cfg = CfgBuilder::new(&p).build().expect("builds");
        analyze_callgraph(&p, &cfg, opts)
    }

    #[test]
    fn chain_of_calls() {
        let r = run(
            "\
            .text
            main: addi sp, sp, -16
                  call f
                  addi sp, sp, 16
                  halt
            f:    addi sp, sp, -32
                  sw lr, 0(sp)
                  call g
                  lw lr, 0(sp)
                  addi sp, sp, 32
                  ret
            g:    addi sp, sp, -8
                  addi sp, sp, 8
                  ret
        ",
            &StackOptions::default(),
        )
        .unwrap();
        assert_eq!(r.total, 56);
        assert_eq!(r.per_function["g"].usage, 8);
        assert_eq!(r.per_function["f"].usage, 40);
        assert_eq!(r.per_function["f"].local, 32);
    }

    #[test]
    fn a_deep_call_chain_fits_a_small_stack() {
        // `main` and `f0 … f{n-1}` each push 8 bytes and call the next;
        // the call graph is a chain far deeper than a recursive walk
        // could follow on a 256 KiB thread stack.
        let n = 20_000;
        let mut src = String::from(".text\nmain: addi sp, sp, -8\ncall f0\naddi sp, sp, 8\nhalt\n");
        for i in 0..n {
            src.push_str(&format!("f{i}: addi sp, sp, -8\n"));
            if i + 1 < n {
                src.push_str(&format!("call f{}\n", i + 1));
            }
            src.push_str("addi sp, sp, 8\nret\n");
        }
        let p = assemble(&src).expect("assembles");
        let cfg = CfgBuilder::new(&p).build().expect("builds");
        let r = std::thread::scope(|s| {
            std::thread::Builder::new()
                .stack_size(256 * 1024)
                .spawn_scoped(s, || analyze_callgraph(&p, &cfg, &StackOptions::default()))
                .expect("spawns")
                .join()
                .expect("no stack overflow")
        })
        .expect("no recursion");
        assert_eq!(r.total, 8 * (n as u32 + 1));
        assert_eq!(r.per_function["f0"].usage, 8 * n as u32);
    }

    #[test]
    fn recursion_needs_annotation() {
        let src = "\
            .text
            main: call fac
                  halt
            fac:  addi sp, sp, -16
                  sw lr, 4(sp)
                  beqz r1, base
                  addi r1, r1, -1
                  call fac
            base: lw lr, 4(sp)
                  addi sp, sp, 16
                  ret
        ";
        let err = run(src, &StackOptions::default()).unwrap_err();
        assert!(matches!(err, StackError::Recursion { .. }));

        let p = assemble(src).unwrap();
        let fac = p.symbols.addr_of("fac").unwrap();
        let mut opts = StackOptions::default();
        opts.recursion_depths.insert(fac, 10);
        let r = run(src, &opts).unwrap();
        assert_eq!(r.total, 160);
    }

    #[test]
    fn variable_sp_rejected() {
        let err = run(".text\nmain: sub sp, sp, r1\nhalt\n", &StackOptions::default()).unwrap_err();
        assert!(matches!(err, StackError::VariableAdjustment { .. }));
    }

    #[test]
    fn diamond_takes_deeper_side() {
        let r = run(
            "\
            .text
            main: beq r1, r0, b
                  call big
                  halt
            b:    call small
                  halt
            big:  addi sp, sp, -128
                  addi sp, sp, 128
                  ret
            small: addi sp, sp, -16
                  addi sp, sp, 16
                  ret
        ",
            &StackOptions::default(),
        )
        .unwrap();
        assert_eq!(r.total, 128);
    }

    #[test]
    fn matches_icfg_mode_on_nonrecursive_code() {
        use stamp_ai::{Icfg, VivuConfig};
        use stamp_hw::HwConfig;
        use stamp_value::{ValueAnalysis, ValueOptions};
        let src = "\
            .text
            main: addi sp, sp, -24
                  call f
                  call f
                  addi sp, sp, 24
                  halt
            f:    addi sp, sp, -40
                  addi sp, sp, 40
                  ret
        ";
        let p = assemble(src).unwrap();
        let cfg = CfgBuilder::new(&p).build().unwrap();
        let cg = analyze_callgraph(&p, &cfg, &StackOptions::default()).unwrap();
        let hw = HwConfig::default();
        let icfg = Icfg::build(&cfg, &VivuConfig::default()).unwrap();
        let va = ValueAnalysis::run(&p, &hw, &cfg, &icfg, &ValueOptions::default());
        let precise = crate::analyze_icfg(&hw, &va).unwrap();
        assert_eq!(cg.total, precise.total);
        assert_eq!(cg.total, 64);
    }
}
