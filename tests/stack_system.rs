//! Whole-system stack analysis (experiments E2/E8): per-task bounds,
//! recursion handling, and the OSEK preemption-chain computation.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use stamp::ai::{CtxId, Fixpoint, Icfg, VivuConfig};
use stamp::cfg::{Cfg, CfgBuilder};
use stamp::isa::{Flow, Insn, MemWidth, Reg};
use stamp::stack::StackError;
use stamp::suite::{generate, GenConfig};
use stamp::value::{AState, DomainKind, SInt, ValueAnalysis, ValueOptions, ValueTransfer};
use stamp::{
    assemble, AnalysisError, Annotations, HwConfig, OsekSystem, Program, Simulator, StackAnalysis,
    Task,
};

/// A multi-task ECU image: three tasks sharing helper functions.
const ECU_IMAGE: &str = r#"
        .text
main:   call task_ctrl          ; default entry just runs one task
        halt

task_ctrl:                      ; control task
        addi sp, sp, -64
        sw   lr, 0(sp)
        call filter
        lw   lr, 0(sp)
        addi sp, sp, 64
        ret

task_comm:                      ; communication task
        addi sp, sp, -96
        sw   lr, 0(sp)
        call checksum
        lw   lr, 0(sp)
        addi sp, sp, 96
        ret

task_bg:                        ; background task
        addi sp, sp, -32
        addi sp, sp, 32
        ret

filter: addi sp, sp, -48
        li   r1, 8
flp:    addi r1, r1, -1
        bnez r1, flp
        addi sp, sp, 48
        ret

checksum:
        addi sp, sp, -16
        addi sp, sp, 16
        ret
"#;

fn task_bound(entry: &str) -> u32 {
    let program = assemble(ECU_IMAGE).expect("assembles");
    StackAnalysis::new(&program).run_task(entry).unwrap_or_else(|e| panic!("{entry}: {e}")).bound
}

#[test]
fn per_task_bounds_follow_call_chains() {
    // Each task entry gets its own worst-case chain. The run_task entry
    // starts with a fresh stack, so `main`'s call adds only lr-less
    // frames of the task itself.
    assert_eq!(task_bound("task_ctrl"), 64 + 48);
    assert_eq!(task_bound("task_comm"), 96 + 16);
    assert_eq!(task_bound("task_bg"), 32);
}

#[test]
fn task_bounds_match_simulation() {
    let program = assemble(ECU_IMAGE).expect("assembles");
    let hw = HwConfig::default();
    // The default entry runs task_ctrl to completion.
    let mut sim = Simulator::new(&program, &hw);
    let res = sim.run(100_000).unwrap();
    let bound = StackAnalysis::new(&program).run().unwrap().bound;
    assert_eq!(res.max_stack, bound, "main-task stack must be exact");
}

#[test]
fn osek_system_bound_beats_naive_sum() {
    // Per-task bounds feed the OSEK whole-ECU analysis of ref [3].
    let ctrl = task_bound("task_ctrl");
    let comm = task_bound("task_comm");
    let bg = task_bound("task_bg");
    let sys = OsekSystem::new(vec![
        Task::new("background", 1, bg),
        Task::non_preemptable("comm", 2, comm),
        Task::new("control", 3, ctrl),
    ]);
    // comm is non-preemptable: control never piles on top of it, so the
    // worst chain is bg ← comm (ends chain) vs bg ← control.
    let expected = bg + comm.max(ctrl);
    assert_eq!(sys.system_bound(), expected);
    assert!(sys.system_bound() < sys.naive_bound());
}

#[test]
fn recursive_task_needs_and_uses_annotation() {
    let b = stamp_suite::benchmarks().into_iter().find(|b| b.name == "fac").unwrap();
    let program = b.program();
    // Without the annotation the analysis must refuse.
    let err = StackAnalysis::new(&program).run().unwrap_err();
    assert!(err.to_string().contains("recursion") || err.to_string().contains("depth"));
    // With it, the bound covers the simulated watermark.
    let report = StackAnalysis::new(&program).annotations(b.annotations()).run().unwrap();
    assert_eq!(report.mode, "callgraph");
    let hw = HwConfig::default();
    let mut sim = Simulator::new(&program, &hw);
    let res = sim.run(100_000).unwrap();
    assert!(report.bound >= res.max_stack);
    assert_eq!(report.bound, 88, "depth 11 × 8-byte frame");
    assert_eq!(res.max_stack, 88, "fac(10) recurses 11 frames deep");
}

#[test]
fn per_function_breakdown_is_reported() {
    let program = assemble(ECU_IMAGE).expect("assembles");
    let report = StackAnalysis::new(&program).run().unwrap();
    assert_eq!(report.per_function["filter"].local, 48);
    assert_eq!(report.per_function["task_ctrl"].usage, 112);
}

/// A jump-table task: the case the simulator takes (`sel` = 0) allocates
/// 256 bytes, and only the value analysis can find it.
const JUMP_TABLE_TASK: &str = r#"
        .text
main:   la   r10, sel
        lw   r3, 0(r10)
        andi r3, r3, 1
        slli r3, r3, 2
        la   r11, jtab
        add  r4, r11, r3
        lw   r5, 0(r4)
        jalr r0, r5, 0
big:    addi sp, sp, -256
        sw   r1, 0(sp)
        addi sp, sp, 256
        halt
small:  halt
        .rodata
jtab:   .word big, small
        .data
sel:    .word 0
"#;

/// A recursive task (`rec` nests 4 frames of 8 bytes) followed by a
/// computed jump whose taken case allocates 512 bytes.
const RECURSIVE_JUMP_TABLE_TASK: &str = r#"
        .text
main:   li   r1, 3
        call rec
        la   r10, sel
        lw   r3, 0(r10)
        andi r3, r3, 1
        slli r3, r3, 2
        la   r11, jtab
        add  r4, r11, r3
        lw   r5, 0(r4)
jump:   jalr r0, r5, 0
big:    addi sp, sp, -512
        sw   r1, 0(sp)
        addi sp, sp, 512
        halt
small:  halt
rec:    addi sp, sp, -8
        sw   lr, 4(sp)
        beqz r1, rbase
        addi r1, r1, -1
        call rec
rbase:  lw   lr, 4(sp)
        addi sp, sp, 8
        ret
        .rodata
jtab:   .word big, small
        .data
sel:    .word 0
"#;

fn simulated_max_stack(program: &stamp::Program) -> u32 {
    Simulator::new(program, &HwConfig::default()).run(100_000).unwrap().max_stack
}

#[test]
fn precise_mode_resolves_jump_tables_before_bounding() {
    let program = assemble(JUMP_TABLE_TASK).expect("assembles");
    let report = StackAnalysis::new(&program).run().unwrap();
    assert_eq!(report.mode, "precise");
    assert_eq!(simulated_max_stack(&program), 256);
    assert_eq!(report.bound, 256, "the jump table's 256-byte case is reachable");
}

#[test]
fn recursive_task_with_computed_jump_needs_indirect_targets() {
    let program = assemble(RECURSIVE_JUMP_TABLE_TASK).expect("assembles");
    let depth = Annotations::new().recursion_depth("rec", 4);
    // The call-graph fallback has no value analysis to resolve the jump,
    // so it must refuse instead of bounding the partial call graph.
    let err = StackAnalysis::new(&program).annotations(depth.clone()).run().unwrap_err();
    assert!(matches!(err, AnalysisError::UnresolvedIndirects { .. }), "{err}");
    // Annotated targets close the call graph.
    let targets = depth.indirect_targets("jump", ["big".to_string(), "small".to_string()]);
    let report = StackAnalysis::new(&program).annotations(targets).run().unwrap();
    assert_eq!(report.mode, "callgraph");
    let observed = simulated_max_stack(&program);
    assert_eq!(observed, 512);
    assert!(report.bound >= observed, "bound {} < observed {observed}", report.bound);
}

/// Every fact the value analysis records, computed the long way.
#[derive(Debug, PartialEq)]
struct ReplayedFacts {
    /// Address set, width and load flag of each `(address, context)`
    /// memory access.
    accesses: BTreeMap<(u32, CtxId), (SInt, MemWidth, bool)>,
    constant_branches: usize,
    indirect_targets: BTreeMap<u32, BTreeSet<u32>>,
    /// The precise stack bound, or the instruction named for `sp`
    /// escaping.
    stack: Result<u32, StackError>,
}

/// The facts of `va`, as [`ReplayedFacts`].
fn recorded_facts(hw: &HwConfig, va: &ValueAnalysis) -> ReplayedFacts {
    ReplayedFacts {
        accesses: va
            .accesses()
            .iter()
            .map(|(&key, info)| (key, (info.addrs, info.width, info.is_load)))
            .collect(),
        constant_branches: va.constant_branches(),
        indirect_targets: va.indirect_targets().clone(),
        stack: stamp_stack::analyze_icfg(hw, va).map(|r| r.total),
    }
}

/// The value facts collected by a post-pass: re-walk every reachable
/// `(block, context)` instance of the finished value fixpoint with a
/// second `ValueTransfer`, reading each instruction's facts from the
/// state before it and `sp` after it. The analysis records its facts
/// during the fixpoint instead; both must agree, error address included.
///
/// `sp` is out of range when ⊤ or below the RAM. An escape names the
/// first instruction, in node order, whose step takes `sp` out of range;
/// failing that, the first instruction of the first node `sp` enters
/// out of range, if `sp` stays out after it.
fn replayed_facts(
    program: &Program,
    hw: &HwConfig,
    cfg: &Cfg,
    icfg: &Icfg,
    fixpoint: &Fixpoint<AState>,
) -> ReplayedFacts {
    let stack_top = hw.mem.stack_top();
    let out_of_range = |s: &AState| {
        let sp = s.reg(Reg::SP);
        sp.is_top() || stack_top.saturating_sub(sp.lo()) > hw.mem.ram_size
    };
    let (text_lo, text_hi) = program.text_range();
    let transfer = ValueTransfer::new(program, hw, cfg, DomainKind::Strided, Arc::new(vec![0]));
    let mut facts = ReplayedFacts {
        accesses: BTreeMap::new(),
        constant_branches: 0,
        indirect_targets: BTreeMap::new(),
        stack: Ok(0),
    };
    let (mut steps_out, mut enters_out, mut worst) = (None, None, 0);
    for nd in icfg.nodes() {
        let Some(entry) = fixpoint.input(nd.id) else { continue };
        let mut s = entry.clone();
        let mut was_out = out_of_range(&s);
        for (i, &(addr, insn)) in cfg.block(nd.block).insns.iter().enumerate() {
            match insn {
                Insn::Load { width, base, offset, .. }
                | Insn::Store { width, base, offset, .. } => {
                    let addrs = s.reg(base).add_i32(offset);
                    facts.accesses.insert((addr, nd.ctx), (addrs, width, insn.is_load()));
                }
                Insn::Branch { cond, rs1, rs2, .. } => {
                    let (a, b) = (s.reg(rs1), s.reg(rs2));
                    let taken = SInt::refine(cond, &a, &b).is_some();
                    let fall = SInt::refine(cond.negate(), &a, &b).is_some();
                    facts.constant_branches += (taken != fall) as usize;
                }
                Insn::Jalr { .. }
                    if matches!(insn.flow(addr), Flow::IndirectJump | Flow::IndirectCall) =>
                {
                    let targets = transfer.jalr_targets(&s, &insn).expect("a jalr");
                    if targets.lo() >= text_lo && targets.hi() < text_hi && targets.count() <= 64 {
                        facts.indirect_targets.entry(addr).or_default().extend(targets.iter());
                    }
                }
                _ => {}
            }
            transfer.step(&mut s, addr, &insn);
            let now_out = out_of_range(&s);
            if now_out && !was_out {
                steps_out = steps_out.or(Some(addr));
            } else if now_out && i == 0 {
                enters_out = enters_out.or(Some(addr));
            } else if !now_out {
                worst = worst.max(stack_top.saturating_sub(s.reg(Reg::SP).lo()));
            }
            was_out = now_out;
        }
    }
    facts.stack = match steps_out.or(enters_out) {
        Some(addr) => Err(StackError::UnknownStackPointer { addr }),
        None => Ok(worst),
    };
    facts
}

/// Checks the value analysis's recorded facts against
/// [`replayed_facts`] on `program`'s final CFG (jump tables resolved the
/// way the analyzer resolves them). Returns the precise stack outcome,
/// or `None` if the task does not expand (it recurses).
fn check_against_replay(
    program: &Program,
    hw: &HwConfig,
    what: &str,
) -> Option<Result<u32, StackError>> {
    let mut targets: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    loop {
        let mut builder = CfgBuilder::new(program);
        for (&addr, ts) in &targets {
            builder.indirect_targets(addr, ts.iter().copied());
        }
        let cfg = builder.build().unwrap_or_else(|e| panic!("{what}: {e}"));
        let icfg = Icfg::build(&cfg, &VivuConfig::default()).ok()?;
        let (va, fixpoint) =
            ValueAnalysis::solve(program, hw, &cfg, &icfg, &ValueOptions::default());
        let recorded = recorded_facts(hw, &va);
        assert_eq!(recorded, replayed_facts(program, hw, &cfg, &icfg, &fixpoint), "{what}");
        let mut progress = false;
        for (&addr, ts) in va.indirect_targets() {
            let known = targets.entry(addr).or_default();
            for &t in ts {
                if !known.contains(&t) {
                    known.push(t);
                    progress = true;
                }
            }
        }
        if cfg.unresolved_indirects().is_empty() || !progress {
            return Some(recorded.stack);
        }
    }
}

#[test]
fn precise_mode_matches_the_replay_oracle() {
    let hw = HwConfig::default();
    let mut checked = 0;
    for b in stamp::suite::benchmarks() {
        let program = assemble(b.source).expect("corpus assembles");
        checked += check_against_replay(&program, &hw, b.name).is_some() as usize;
    }
    for src in [ECU_IMAGE, JUMP_TABLE_TASK] {
        let program = assemble(src).expect("assembles");
        assert!(check_against_replay(&program, &hw, "hand-written task").is_some());
    }
    assert!(checked >= 15, "only {checked} corpus tasks expanded");

    let mut generated = 0;
    for seed in 0..240u64 {
        let shape = if seed % 3 == 2 { GenConfig::rich() } else { GenConfig::default() };
        let src = generate(&mut StdRng::seed_from_u64(seed), &shape);
        let program = assemble(&src).expect("generated programs assemble");
        generated +=
            check_against_replay(&program, &hw, &format!("seed {seed}")).is_some() as usize;
    }
    assert!(generated >= 200, "only {generated} generated programs expanded");
}

#[test]
fn precise_mode_errors_match_the_replay_oracle() {
    let hw = HwConfig::default();
    let escapes = |src: &str, label: &str| {
        let program = assemble(src).expect("assembles");
        let addr = program.symbols.addr_of(label).expect("label");
        let outcome = check_against_replay(&program, &hw, label).expect("expands");
        assert_eq!(outcome, Err(StackError::UnknownStackPointer { addr }), "{label}");
    };
    // `sp` computed from unknown data becomes ⊤.
    escapes(".text\nmain: lw r1, 0(r2)\nunknown: sub sp, sp, r1\nhalt\n", "unknown");
    // A frame larger than the RAM puts `sp` below it.
    escapes(".text\nmain: li r1, 0x200000\nhuge: sub sp, sp, r1\nhalt\n", "huge");
    // The instruction whose own step takes `sp` out of range is named,
    // not the caller's return block, which is numbered before the
    // callee's body and only inherits the escaped `sp`.
    escapes(
        ".text\nmain: addi sp, sp, -16\ncall f\nback: addi sp, sp, 16\nhalt\n\
         f: lw r1, 0(r2)\nshrink: sub sp, sp, r1\nret\n",
        "shrink",
    );
}
