//! # stamp-path — path analysis by implicit path enumeration (IPET)
//!
//! The final phase of the paper's pipeline: "path analysis determines a
//! worst-case execution path of the program" using "integer linear
//! programming".
//!
//! One ILP variable counts the traversals of each supergraph edge. Flow
//! conservation ties edge counts to block counts, each loop instance
//! contributes its [`FlowRule`] (`Σ back-edges ≤ (bound−1) · Σ entries`,
//! or zero flow for an instance never entered), and the value analysis
//! contributes `x_e = 0` for infeasible edges ("their execution time does
//! not contribute to the overall WCET … and need not be determined in the
//! first place"). The objective maximizes
//!
//! ```text
//! time(entry) + Σ_edges (time(target) + penalty(edge))·x_edge
//! ```
//!
//! whose per-edge coefficients are [`PipelineAnalysis::edge_cost`], and
//! which the exact solver in `stamp-ilp` turns into the WCET bound and a
//! witness assignment of worst-case execution counts.
//!
//! The problem is data built once per run: the edge objective owned by
//! the pipeline analysis, the loop rules decided by the loop-bound
//! analysis ([`LoopBoundAnalysis::rules`]) and the infeasibility pins.
//! The default solve cuts it into segments and solves each one (see
//! [`SummaryMemo`]); the whole-supergraph `LpProblem` is built only for
//! the monolithic solve, which is the test oracle and the fallback. The
//! path sampler `stamp-sample` walks inside the same problem, reading
//! the same edge objective and loop rules.
//!
//! # Example
//!
//! See `stamp-core`, which wires all phases together; this crate's tests
//! verify WCET bounds against the cycle-accurate simulator.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use stamp_ai::{IEdgeId, Icfg, NodeId};
use stamp_cfg::Cfg;
use stamp_ilp::{CmpOp, IlpError, LpProblem, VarId};
use stamp_loopbound::{FlowRule, LoopBoundAnalysis};
use stamp_pipeline::PipelineAnalysis;
use stamp_value::ValueAnalysis;

mod summary;

pub use summary::{LocalMemo, SegmentSummary, SummaryMemo};

/// Errors from the path analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PathError {
    /// A loop instance has no bound (neither computed nor annotated);
    /// the ILP would be unbounded.
    MissingLoopBound {
        /// Address of the loop header's first instruction.
        header_addr: u32,
    },
    /// The CFG still contains unresolved indirect jumps.
    UnresolvedIndirect {
        /// Address of the indirect jump.
        addr: u32,
    },
    /// The underlying ILP failed.
    Ilp(IlpError),
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathError::MissingLoopBound { header_addr } => write!(
                f,
                "no loop bound for the loop headed at {header_addr:#010x}; add an annotation"
            ),
            PathError::UnresolvedIndirect { addr } => {
                write!(f, "unresolved indirect jump at {addr:#010x}; add a target annotation")
            }
            PathError::Ilp(e) => write!(f, "path ILP failed: {e}"),
        }
    }
}

impl Error for PathError {}

impl From<IlpError> for PathError {
    fn from(e: IlpError) -> PathError {
        PathError::Ilp(e)
    }
}

/// Options for [`analyze`].
#[derive(Clone, Copy, Debug)]
pub struct PathOptions {
    /// Pin value-analysis-infeasible edges to zero (disable for the E4
    /// ablation).
    pub use_infeasible: bool,
    /// Decompose the ILP at series cut points and solve memoized
    /// per-segment summaries (see [`SummaryMemo`]); the composed
    /// optimum is exactly the monolithic one. Disable to force the
    /// single whole-supergraph solve.
    pub summaries: bool,
}

impl Default for PathOptions {
    fn default() -> PathOptions {
        PathOptions { use_infeasible: true, summaries: true }
    }
}

/// The WCET bound together with its witness counts.
#[derive(Clone, Debug)]
pub struct WcetResult {
    /// The worst-case execution time bound in cycles.
    pub wcet: u64,
    /// Worst-case traversal count per supergraph edge.
    pub edge_counts: HashMap<IEdgeId, u64>,
    /// Worst-case execution count per supergraph node.
    pub node_counts: HashMap<NodeId, u64>,
    /// Size of the whole-supergraph ILP (variables, constraints) —
    /// reported as analysis statistics, whichever way it was solved.
    pub ilp_size: (usize, usize),
}

impl WcetResult {
    /// A concrete worst-case path (block/context sequence), reconstructed
    /// from the edge counts by an Euler-style walk. Intended for reports;
    /// truncated to `limit` nodes.
    pub fn worst_path(&self, icfg: &Icfg, limit: usize) -> Vec<NodeId> {
        let mut remaining: HashMap<IEdgeId, u64> = self.edge_counts.clone();
        let mut path = vec![icfg.entry()];
        let mut cur = icfg.entry();
        while path.len() < limit {
            // Prefer the outgoing edge with the largest remaining count.
            let next = icfg
                .succs(cur)
                .filter(|e| remaining.get(&e.id).copied().unwrap_or(0) > 0)
                .max_by_key(|e| remaining[&e.id]);
            match next {
                Some(e) => {
                    *remaining.get_mut(&e.id).expect("present") -= 1;
                    path.push(e.to);
                    cur = e.to;
                }
                None => break,
            }
        }
        path
    }
}

/// The IPET problem of one run, as data: the supergraph, the objective
/// per edge, one flow rule per loop instance and the infeasibility pins.
/// Both solves read it; only the monolithic one turns it into an
/// [`LpProblem`].
struct Ipet<'a> {
    icfg: &'a Icfg,
    pa: &'a PipelineAnalysis,
    /// Aligned with [`Icfg::loop_instances`]; no rule is
    /// [`FlowRule::Unbounded`].
    rules: &'a [FlowRule],
    /// Infeasible edges pinned to zero (empty when ablated).
    pins: &'a [IEdgeId],
}

impl Ipet<'_> {
    /// Objective coefficient of the virtual source: the entry node's time.
    fn entry_time(&self) -> i64 {
        self.pa.time(self.icfg.entry()).unwrap_or(0) as i64
    }

    /// Objective coefficient of an edge.
    fn cost(&self, e: IEdgeId) -> i64 {
        self.pa.edge_cost(e) as i64
    }

    /// `(variables, constraints)` of the monolithic ILP, counted without
    /// building it: one variable per edge, the source and one sink per
    /// exit; the source row, one conservation row per node, the sink row,
    /// the loop rows and the pins.
    fn size(&self) -> (usize, usize) {
        let icfg = self.icfg;
        let exits = icfg.exits().len();
        let loop_rows: usize = icfg
            .loop_instances()
            .iter()
            .zip(self.rules)
            .map(|(inst, rule)| match rule {
                FlowRule::Bounded(_) => 1,
                FlowRule::NeverEntered => inst.entries.len() + inst.backs.len(),
                FlowRule::Acyclic | FlowRule::Unbounded => 0,
            })
            .sum();
        (
            icfg.edges().len() + 1 + exits,
            1 + icfg.nodes().len() + usize::from(exits > 0) + loop_rows + self.pins.len(),
        )
    }

    /// Builds the monolithic ILP and the variable of each edge (dense by
    /// edge index).
    fn monolithic(&self) -> (LpProblem, Vec<VarId>) {
        let icfg = self.icfg;
        let mut lp = LpProblem::new();
        // One variable per supergraph edge, plus a virtual source and one
        // sink per exit node.
        let evar: Vec<VarId> = icfg.edges().iter().map(|e| lp.add_var(self.cost(e.id))).collect();
        let source = lp.add_var(self.entry_time());
        let mut sink_of: Vec<Option<VarId>> = vec![None; icfg.nodes().len()];
        for &x in icfg.exits() {
            sink_of[x.index()] = Some(lp.add_var(0));
        }

        // Source fires exactly once.
        lp.add_constraint([(source, 1)], CmpOp::Eq, 1);
        // Flow conservation at every node.
        for nd in icfg.nodes() {
            let mut terms: Vec<(VarId, i64)> =
                icfg.preds(nd.id).map(|e| (evar[e.id.index()], 1)).collect();
            if nd.id == icfg.entry() {
                terms.push((source, 1));
            }
            terms.extend(icfg.succs(nd.id).map(|e| (evar[e.id.index()], -1)));
            if let Some(sink) = sink_of[nd.id.index()] {
                terms.push((sink, -1));
            }
            lp.add_constraint(terms, CmpOp::Eq, 0);
        }
        // At most one task exit in total (the task stops at the first halt).
        if !icfg.exits().is_empty() {
            let sinks = icfg.exits().iter().filter_map(|x| sink_of[x.index()]);
            lp.add_constraint(sinks.map(|v| (v, 1)).collect::<Vec<_>>(), CmpOp::Eq, 1);
        }
        // Loop rules per loop instance.
        for (inst, rule) in icfg.loop_instances().iter().zip(self.rules) {
            match *rule {
                FlowRule::Bounded(bound) => {
                    // Σ backs − (bound−1) · Σ entries ≤ 0.
                    let k = bound.saturating_sub(1).min(i64::MAX as u64) as i64;
                    let mut terms: Vec<(VarId, i64)> =
                        inst.backs.iter().map(|b| (evar[b.index()], 1)).collect();
                    terms.extend(inst.entries.iter().map(|en| (evar[en.index()], -k)));
                    if icfg.entered_at_start(inst) {
                        terms.push((source, -k));
                    }
                    lp.add_constraint(terms, CmpOp::Le, 0);
                }
                FlowRule::NeverEntered => {
                    for e in inst.entries.iter().chain(&inst.backs) {
                        lp.add_constraint([(evar[e.index()], 1)], CmpOp::Le, 0);
                    }
                }
                FlowRule::Acyclic | FlowRule::Unbounded => {}
            }
        }
        // Infeasible edges.
        for e in self.pins {
            lp.add_constraint([(evar[e.index()], 1)], CmpOp::Le, 0);
        }
        (lp, evar)
    }
}

/// Runs the IPET path analysis.
///
/// With `options.summaries` set (the default) the ILP is decomposed at
/// series cut points and solved per segment with an analysis-local
/// memo, so repeated procedure bodies are solved once; the result is
/// exactly the monolithic optimum. Use [`analyze_with_memo`] to share
/// segment summaries beyond a single call.
///
/// # Errors
///
/// See [`PathError`]; in particular every loop instance must carry a
/// bound.
pub fn analyze(
    cfg: &Cfg,
    icfg: &Icfg,
    va: &ValueAnalysis,
    lb: &LoopBoundAnalysis,
    pa: &PipelineAnalysis,
    options: &PathOptions,
) -> Result<WcetResult, PathError> {
    analyze_with_memo(cfg, icfg, va, lb, pa, options, &LocalMemo::default())
}

/// [`analyze`] with an explicit segment-summary memo, letting callers
/// share summaries across programs, jobs, and processes (ignored when
/// `options.summaries` is off).
pub fn analyze_with_memo(
    cfg: &Cfg,
    icfg: &Icfg,
    va: &ValueAnalysis,
    lb: &LoopBoundAnalysis,
    pa: &PipelineAnalysis,
    options: &PathOptions,
    memo: &dyn SummaryMemo,
) -> Result<WcetResult, PathError> {
    if let Some(&addr) = cfg.unresolved_indirects().first() {
        return Err(PathError::UnresolvedIndirect { addr });
    }
    let rules = lb.rules();
    if let Some(i) = rules.iter().position(|r| *r == FlowRule::Unbounded) {
        let header = icfg.loop_instances()[i].header;
        return Err(PathError::MissingLoopBound { header_addr: cfg.block(header).start });
    }
    let pins = if options.use_infeasible { va.infeasible_edges() } else { &[] };
    let ipet = Ipet { icfg, pa, rules, pins };

    let summarized = if options.summaries { summary::solve_summarized(&ipet, memo)? } else { None };
    let (objective, edge_values, ilp_size) = match summarized {
        Some((objective, values)) => (objective, values, ipet.size()),
        None => {
            let (lp, evar) = ipet.monolithic();
            let sol = lp.maximize_integer()?;
            let values = evar.iter().map(|v| sol.values[v.0]).collect();
            (sol.objective, values, (lp.num_vars(), lp.num_constraints()))
        }
    };

    let mut edge_counts = HashMap::new();
    for (e, &v) in icfg.edges().iter().zip(edge_values.iter()) {
        let c = v.max(0) as u64;
        if c > 0 {
            edge_counts.insert(e.id, c);
        }
    }
    let mut node_counts: HashMap<NodeId, u64> = HashMap::new();
    for nd in icfg.nodes() {
        let mut c: u64 = 0;
        for e in icfg.preds(nd.id) {
            c += edge_counts.get(&e.id).copied().unwrap_or(0);
        }
        if nd.id == icfg.entry() {
            c += 1; // the source edge
        }
        if c > 0 {
            node_counts.insert(nd.id, c);
        }
    }

    Ok(WcetResult {
        // Persistent lines may each miss once over the whole task; the
        // pipeline analysis priced those accesses as hits and exposes
        // the one-time budget here.
        wcet: objective.max(0) as u64 + pa.ps_extra_cycles(),
        edge_counts,
        node_counts,
        ilp_size,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stamp_ai::VivuConfig;
    use stamp_cache::CacheAnalysis;
    use stamp_cfg::CfgBuilder;
    use stamp_hw::HwConfig;
    use stamp_isa::asm::assemble;
    use stamp_loopbound::LoopBoundOptions;
    use stamp_sim::Simulator;
    use stamp_value::ValueOptions;

    fn wcet_of(src: &str, hw: &HwConfig) -> (stamp_isa::Program, WcetResult) {
        let p = assemble(src).expect("assembles");
        let cfg = CfgBuilder::new(&p).build().expect("builds");
        let icfg = Icfg::build(&cfg, &VivuConfig::default()).expect("expands");
        let va = ValueAnalysis::run(&p, hw, &cfg, &icfg, &ValueOptions::default());
        let lb = LoopBoundAnalysis::run(&p, &cfg, &icfg, &va, &LoopBoundOptions::default());
        let ca = CacheAnalysis::run(hw, &cfg, &icfg, &va);
        let pa = PipelineAnalysis::run(hw, &cfg, &icfg, &ca, &va);
        let res =
            analyze(&cfg, &icfg, &va, &lb, &pa, &PathOptions::default()).expect("path analysis");
        (p, res)
    }

    #[test]
    fn straight_line_wcet_is_exact() {
        let src = ".text\nmain: li r1, 3\nmul r2, r1, r1\nhalt\n";
        for hw in [HwConfig::ideal(), HwConfig::default()] {
            let (p, res) = wcet_of(src, &hw);
            let mut sim = Simulator::new(&p, &hw);
            let c = sim.run(1000).unwrap().cycles;
            assert_eq!(res.wcet, c, "hw {hw:?}");
        }
    }

    #[test]
    fn counted_loop_wcet_is_exact_under_ideal_timing() {
        let src = ".text\nmain: li r1, 10\nloop: addi r1, r1, -1\nbnez r1, loop\nhalt\n";
        let hw = HwConfig::ideal();
        let (p, res) = wcet_of(src, &hw);
        let mut sim = Simulator::new(&p, &hw);
        let c = sim.run(10_000).unwrap().cycles;
        assert_eq!(res.wcet, c);
    }

    #[test]
    fn loop_wcet_sound_and_tight_with_caches() {
        let src = ".text\nmain: li r1, 25\nloop: addi r1, r1, -1\nbnez r1, loop\nhalt\n";
        let hw = HwConfig::default();
        let (p, res) = wcet_of(src, &hw);
        let mut sim = Simulator::new(&p, &hw);
        let c = sim.run(10_000).unwrap().cycles;
        assert!(res.wcet >= c, "unsound: {} < {}", res.wcet, c);
        assert!(
            res.wcet <= c + 24,
            "loose: bound {} vs simulated {} (cold-start slack only)",
            res.wcet,
            c
        );
    }

    #[test]
    fn branchy_max_path_found() {
        // Two arms with different costs: WCET takes the expensive arm
        // (12 cycles of divs) even though inputs are unknown.
        let src = "\
            .text
            main: beq r2, r0, cheap
                  div r3, r4, r5
                  halt
            cheap:
                  addi r3, r0, 1
                  halt
        ";
        let hw = HwConfig::ideal();
        let (p, res) = wcet_of(src, &hw);
        // Simulate both arms, WCET must cover the worse one exactly.
        let mut worst = 0;
        for r2 in [0u32, 1] {
            let mut sim = Simulator::new(&p, &hw);
            sim.set_reg(stamp_isa::Reg::new(2), r2);
            worst = worst.max(sim.run(100).unwrap().cycles);
        }
        assert_eq!(res.wcet, worst);
    }

    #[test]
    fn infeasible_path_excluded() {
        // The expensive arm is dead: r1 is always 3.
        let src = "\
            .text
            main: li r1, 3
                  bne r1, r0, cheap
                  div r3, r4, r5
                  div r3, r4, r5
                  halt
            cheap:
                  addi r3, r0, 1
                  halt
        ";
        let hw = HwConfig::ideal();
        let (p, res) = wcet_of(src, &hw);
        let mut sim = Simulator::new(&p, &hw);
        let c = sim.run(100).unwrap().cycles;
        assert_eq!(res.wcet, c, "pruning should make the bound exact");

        // Without infeasibility facts the bound inflates.
        let cfg = CfgBuilder::new(&p).build().unwrap();
        let icfg = Icfg::build(&cfg, &VivuConfig::default()).unwrap();
        let va = ValueAnalysis::run(&p, &hw, &cfg, &icfg, &ValueOptions::default());
        let lb = LoopBoundAnalysis::run(&p, &cfg, &icfg, &va, &LoopBoundOptions::default());
        let ca = CacheAnalysis::run(&hw, &cfg, &icfg, &va);
        let pa = PipelineAnalysis::run(&hw, &cfg, &icfg, &ca, &va);
        let loose = analyze(
            &cfg,
            &icfg,
            &va,
            &lb,
            &pa,
            &PathOptions { use_infeasible: false, ..PathOptions::default() },
        )
        .unwrap();
        assert!(loose.wcet > res.wcet);
    }

    #[test]
    fn nested_loop_counts_multiply() {
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
        let hw = HwConfig::ideal();
        let (p, res) = wcet_of(src, &hw);
        let mut sim = Simulator::new(&p, &hw);
        let c = sim.run(10_000).unwrap().cycles;
        assert_eq!(res.wcet, c);
        // The inner body runs 12 times in the worst case.
        let cfg = CfgBuilder::new(&p).build().unwrap();
        let icfg = Icfg::build(&cfg, &VivuConfig::default()).unwrap();
        let inner = cfg.block_at(p.symbols.addr_of("inner").unwrap()).unwrap();
        let total: u64 = res
            .node_counts
            .iter()
            .filter(|(&n, _)| icfg.node(n).block == inner)
            .map(|(_, &c)| c)
            .sum();
        assert_eq!(total, 12);
    }

    #[test]
    fn call_costs_included() {
        let src = "\
            .text
            main: call f
                  call f
                  halt
            f:    div r1, r2, r3
                  ret
        ";
        let hw = HwConfig::ideal();
        let (p, res) = wcet_of(src, &hw);
        let mut sim = Simulator::new(&p, &hw);
        let c = sim.run(1000).unwrap().cycles;
        assert_eq!(res.wcet, c);
    }

    #[test]
    fn missing_bound_is_reported() {
        // Data-dependent loop without annotation.
        let src = ".text\nmain: lw r1, 0(r2)\nloop: srli r1, r1, 1\nbnez r1, loop\nhalt\n";
        let p = assemble(src).unwrap();
        let hw = HwConfig::ideal();
        let cfg = CfgBuilder::new(&p).build().unwrap();
        let icfg = Icfg::build(&cfg, &VivuConfig::default()).unwrap();
        let va = ValueAnalysis::run(&p, &hw, &cfg, &icfg, &ValueOptions::default());
        let lb = LoopBoundAnalysis::run(&p, &cfg, &icfg, &va, &LoopBoundOptions::default());
        let ca = CacheAnalysis::run(&hw, &cfg, &icfg, &va);
        let pa = PipelineAnalysis::run(&hw, &cfg, &icfg, &ca, &va);
        let err = analyze(&cfg, &icfg, &va, &lb, &pa, &PathOptions::default()).unwrap_err();
        assert!(matches!(err, PathError::MissingLoopBound { .. }));
    }

    /// All phases for `src` under `hw`, for tests that need to call
    /// [`analyze`] with non-default options.
    fn phases_of(
        src: &str,
        hw: &HwConfig,
    ) -> (stamp_isa::Program, Cfg, Icfg, ValueAnalysis, LoopBoundAnalysis, PipelineAnalysis) {
        let p = assemble(src).expect("assembles");
        let cfg = CfgBuilder::new(&p).build().expect("builds");
        let icfg = Icfg::build(&cfg, &VivuConfig::default()).expect("expands");
        let va = ValueAnalysis::run(&p, hw, &cfg, &icfg, &ValueOptions::default());
        let lb = LoopBoundAnalysis::run(&p, &cfg, &icfg, &va, &LoopBoundOptions::default());
        let ca = CacheAnalysis::run(hw, &cfg, &icfg, &va);
        let pa = PipelineAnalysis::run(hw, &cfg, &icfg, &ca, &va);
        (p, cfg, icfg, va, lb, pa)
    }

    #[test]
    fn summarized_equals_monolithic_on_all_shapes() {
        // Every shape exercised above, both hardware models: the
        // summarized solve must reproduce the monolithic optimum (and
        // report the same ILP size) or fall back to it.
        let programs = [
            ".text\nmain: li r1, 3\nmul r2, r1, r1\nhalt\n",
            ".text\nmain: li r1, 10\nloop: addi r1, r1, -1\nbnez r1, loop\nhalt\n",
            ".text\nmain: beq r2, r0, cheap\ndiv r3, r4, r5\nhalt\ncheap: addi r3, r0, 1\nhalt\n",
            ".text\nmain: li r1, 3\nbne r1, r0, cheap\ndiv r3, r4, r5\nhalt\ncheap: addi r3, r0, 1\nhalt\n",
            ".text\nmain: li r1, 3\nouter: li r2, 4\ninner: addi r2, r2, -1\nbnez r2, inner\naddi r1, r1, -1\nbnez r1, outer\nhalt\n",
            ".text\nmain: call f\ncall f\nhalt\nf: div r1, r2, r3\nret\n",
            ".text\nmain: call f\nli r4, 7\ncall g\nhalt\nf: div r1, r2, r3\nret\ng: call f\nret\n",
        ];
        for src in programs {
            for hw in [HwConfig::ideal(), HwConfig::default()] {
                let (_, cfg, icfg, va, lb, pa) = phases_of(src, &hw);
                let on = analyze(&cfg, &icfg, &va, &lb, &pa, &PathOptions::default()).unwrap();
                let off = analyze(
                    &cfg,
                    &icfg,
                    &va,
                    &lb,
                    &pa,
                    &PathOptions { summaries: false, ..PathOptions::default() },
                )
                .unwrap();
                assert_eq!(on.wcet, off.wcet, "src {src:?} hw {hw:?}");
                assert_eq!(on.ilp_size, off.ilp_size, "src {src:?} hw {hw:?}");
            }
        }
    }

    #[test]
    fn repeated_calls_reuse_segment_summaries() {
        use std::cell::Cell;

        /// A [`LocalMemo`] that counts lookups and actual solves.
        #[derive(Default)]
        struct CountingMemo {
            inner: LocalMemo,
            lookups: Cell<usize>,
            solves: Cell<usize>,
        }
        impl SummaryMemo for CountingMemo {
            fn summarize(
                &self,
                canonical: &[u8],
                solve: &mut dyn FnMut() -> Result<SegmentSummary, PathError>,
            ) -> Result<std::sync::Arc<SegmentSummary>, PathError> {
                self.lookups.set(self.lookups.get() + 1);
                self.inner.summarize(canonical, &mut || {
                    self.solves.set(self.solves.get() + 1);
                    solve()
                })
            }
        }

        // Three identical call sites expand to isomorphic supergraph
        // segments; under uniform (ideal) timing their canonical forms
        // coincide, so the memo must solve strictly fewer segments than
        // it serves.
        let src = "\
            .text
            main: call f
                  call f
                  call f
                  halt
            f:    div r1, r2, r3
                  ret
        ";
        let hw = HwConfig::ideal();
        let (p, cfg, icfg, va, lb, pa) = phases_of(src, &hw);
        let memo = CountingMemo::default();
        let opts = PathOptions::default();
        let res = analyze_with_memo(&cfg, &icfg, &va, &lb, &pa, &opts, &memo).unwrap();
        let mut sim = Simulator::new(&p, &hw);
        let c = sim.run(1000).unwrap().cycles;
        assert_eq!(res.wcet, c);
        assert!(memo.lookups.get() > 0, "no decomposition happened");
        assert!(
            memo.solves.get() < memo.lookups.get(),
            "no reuse: {} solves for {} segments",
            memo.solves.get(),
            memo.lookups.get()
        );
    }

    #[test]
    fn worst_path_reconstruction() {
        let src = ".text\nmain: li r1, 2\nloop: addi r1, r1, -1\nbnez r1, loop\nhalt\n";
        let hw = HwConfig::ideal();
        let (p, res) = wcet_of(src, &hw);
        let cfg = CfgBuilder::new(&p).build().unwrap();
        let icfg = Icfg::build(&cfg, &VivuConfig::default()).unwrap();
        let path = res.worst_path(&icfg, 100);
        assert_eq!(path.first(), Some(&icfg.entry()));
        // Path visits: entry, loop×2, halt = 4 nodes.
        assert_eq!(path.len(), 4);
    }

    #[test]
    fn loops_closed_by_the_task_start_or_a_return_are_bounded() {
        // The entry block heads a loop, alone and followed by a
        // decomposable tail; and a loop whose back edge is a call's
        // fall-through. Both solves agree and stay above a
        // simulated run.
        let programs = [
            ".text\nmain: addi r1, r1, 1\nsltui r5, r1, 50\nbnez r5, main\nhalt\n",
            ".text\nmain: addi r1, r1, 1\nsltui r5, r1, 50\nbnez r5, main\ncall f\ncall f\nhalt\nf: div r1, r2, r3\nret\n",
            ".text\nmain: li r1, 5\nj head\nbody: addi r1, r1, -1\ncall f\nhead: bnez r1, body\nhalt\nf: ret\n",
        ];
        for src in programs {
            for hw in [HwConfig::ideal(), HwConfig::default()] {
                let (p, cfg, icfg, va, lb, pa) = phases_of(src, &hw);
                let on = analyze(&cfg, &icfg, &va, &lb, &pa, &PathOptions::default()).unwrap();
                let mono = PathOptions { summaries: false, ..PathOptions::default() };
                let off = analyze(&cfg, &icfg, &va, &lb, &pa, &mono).unwrap();
                assert_eq!(on.wcet, off.wcet, "src {src:?} hw {hw:?}");
                let cycles = Simulator::new(&p, &hw).run(10_000).unwrap().cycles;
                assert!(on.wcet >= cycles, "src {src:?} hw {hw:?}: {} < {cycles}", on.wcet);
            }
        }
    }
}
