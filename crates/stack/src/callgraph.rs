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
    let mut call_disp: BTreeMap<BlockId, i64> = BTreeMap::new(); // at call insn
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
            if cfg.call_site_of(b).is_some() {
                call_disp.insert(b, d);
            }
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

    // ---- Call-graph SCCs (Tarjan).
    let n = cfg.functions().len();
    let callees: Vec<Vec<FuncId>> = cfg.functions().iter().map(|f| cfg.callees(f.id)).collect();
    let sccs = tarjan(n, &callees);
    let scc_of: BTreeMap<FuncId, usize> = sccs
        .iter()
        .enumerate()
        .flat_map(|(i, members)| members.iter().map(move |&f| (f, i)))
        .collect();

    // ---- Usage per function, processing SCCs in reverse topological
    // order (Tarjan emits them callee-first).
    let mut usage: BTreeMap<FuncId, u64> = BTreeMap::new();
    for members in &sccs {
        let cyclic = members.len() > 1 || callees[members[0].index()].contains(&members[0]);
        // Worst external contribution from any member's call site.
        let mut external: u64 = 0;
        for &f in members {
            for cs in cfg.call_sites().iter().filter(|c| cfg.block(c.block).func == f) {
                let disp = (-call_disp.get(&cs.block).copied().unwrap_or(0)).max(0) as u64;
                for &g in cs.callee.targets() {
                    if scc_of[&g] != scc_of[&f] {
                        external = external.max(disp + usage[&g]);
                    }
                }
            }
        }
        if !cyclic {
            let f = members[0];
            let mut u = local[&f] as u64;
            for cs in cfg.call_sites().iter().filter(|c| cfg.block(c.block).func == f) {
                let disp = (-call_disp.get(&cs.block).copied().unwrap_or(0)).max(0) as u64;
                for &g in cs.callee.targets() {
                    u = u.max(disp + usage[&g]);
                }
            }
            usage.insert(f, u);
        } else {
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
            for &f in members {
                usage.insert(f, bound);
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
                FunctionStack { local: local[&f.id] as u32, usage: usage[&f.id] as u32 },
            )
        })
        .collect();
    Ok(StackResult { total: usage[&entry] as u32, per_function })
}

/// Tarjan's SCC algorithm; emits components callee-first.
fn tarjan(n: usize, succs: &[Vec<FuncId>]) -> Vec<Vec<FuncId>> {
    struct St<'a> {
        succs: &'a [Vec<FuncId>],
        index: Vec<Option<u32>>,
        low: Vec<u32>,
        on_stack: Vec<bool>,
        stack: Vec<usize>,
        next: u32,
        out: Vec<Vec<FuncId>>,
    }
    fn visit(st: &mut St<'_>, v: usize) {
        st.index[v] = Some(st.next);
        st.low[v] = st.next;
        st.next += 1;
        st.stack.push(v);
        st.on_stack[v] = true;
        for w in st.succs[v].clone() {
            let w = w.index();
            match st.index[w] {
                None => {
                    visit(st, w);
                    st.low[v] = st.low[v].min(st.low[w]);
                }
                Some(wi) if st.on_stack[w] => st.low[v] = st.low[v].min(wi),
                _ => {}
            }
        }
        if Some(st.low[v]) == st.index[v] {
            let mut comp = Vec::new();
            loop {
                let w = st.stack.pop().expect("non-empty");
                st.on_stack[w] = false;
                comp.push(FuncId(w as u32));
                if w == v {
                    break;
                }
            }
            st.out.push(comp);
        }
    }
    let mut st = St {
        succs,
        index: vec![None; n],
        low: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        next: 0,
        out: Vec::new(),
    };
    for v in 0..n {
        if st.index[v].is_none() {
            visit(&mut st, v);
        }
    }
    st.out
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
