//! Per-block cycle bounds from cache classifications and pipeline state.

use std::collections::HashMap;

use stamp_ai::{solve, IEdge, IEdgeKind, Icfg, NodeId, Transfer};
use stamp_cache::{CacheAnalysis, Classification};
use stamp_cfg::{Cfg, EdgeKind};
use stamp_hw::HwConfig;
use stamp_isa::Insn;

use crate::state::{PipeSet, PipeState};

/// Results of the pipeline analysis: a worst-case cycle bound per
/// supergraph node plus per-edge control-transfer penalties.
///
/// Persistent references are priced as hits in the per-node times; the
/// one-time miss each persistent line can still take is accounted for by
/// the constant [`PipelineAnalysis::ps_extra_cycles`], which the path
/// analysis adds to the ILP optimum.
pub struct PipelineAnalysis {
    times: HashMap<NodeId, u64>,
    branch_penalty: u64,
    ps_extra: u64,
    /// Solver node evaluations (scaling experiment).
    pub evaluations: u64,
}

struct PipeTransfer<'a> {
    cfg: &'a Cfg,
    hw: &'a HwConfig,
    ca: &'a CacheAnalysis,
    /// Edges the value analysis proved infeasible (not propagated).
    infeasible: std::collections::HashSet<stamp_ai::IEdgeId>,
    /// Per evaluated node, the cycle bound of its latest evaluation.
    times: HashMap<NodeId, u64>,
}

impl PipeTransfer<'_> {
    /// Walks a block from one incoming pipeline state, returning the
    /// cycle count (excluding the outgoing control-transfer penalty) and
    /// the outgoing state.
    fn walk(&self, icfg: &Icfg, node: NodeId, entry: PipeState) -> (u64, PipeState) {
        let n = icfg.node(node);
        let block = self.cfg.block(n.block);
        let t = self.hw.timing;
        let mut cycles: u64 = 0;
        let mut pending = entry.pending_load;
        for &(addr, insn) in &block.insns {
            let class = self.ca.class(addr, n.ctx);
            let mut cost: u64 = 1;
            // Instruction fetch: guaranteed hits cost nothing extra;
            // persistent fetches are priced as hits here and pay their
            // single possible miss via the ps_extra constant.
            let fetch_hit = matches!(
                class.map(|c| c.fetch),
                Some(Classification::AlwaysHit | Classification::Persistent)
            );
            if !fetch_hit {
                cost += t.i_miss_penalty as u64;
            }
            // EX occupancy.
            if let Insn::Alu { op, .. } = insn {
                cost += t.ex_stall(op.is_mul(), op.is_div()) as u64;
            }
            // Load-use hazard.
            if t.load_use_hazard {
                if let Some(dest) = pending {
                    if insn.uses().contains(dest) {
                        cost += 1;
                    }
                }
            }
            // Data access (persistent: see fetch comment above).
            if insn.is_load() {
                let data_hit = matches!(
                    class.and_then(|c| c.data),
                    Some(Classification::AlwaysHit | Classification::Persistent)
                );
                if !data_hit {
                    cost += t.d_miss_penalty as u64;
                }
            }
            pending = match insn {
                Insn::Load { .. } => insn.def(),
                _ => None,
            };
            cycles += cost;
        }
        (cycles, PipeState { pending_load: pending })
    }
}

impl Transfer for PipeTransfer<'_> {
    type State = PipeSet;

    fn boundary(&self) -> PipeSet {
        PipeSet::of(PipeState::clean())
    }

    fn transfer(&mut self, icfg: &Icfg, node: NodeId, input: &PipeSet) -> PipeSet {
        let mut out = PipeSet::empty();
        let mut time = 0;
        for s in input.iter() {
            let (cycles, exit) = self.walk(icfg, node, *s);
            time = time.max(cycles);
            out.insert(exit);
        }
        self.times.insert(node, time);
        if out.is_empty() {
            out.insert(PipeState::clean());
        }
        out
    }

    fn edge<'s>(
        &mut self,
        _icfg: &Icfg,
        edge: &IEdge,
        state: &'s PipeSet,
    ) -> Option<std::borrow::Cow<'s, PipeSet>> {
        (!self.infeasible.contains(&edge.id)).then_some(std::borrow::Cow::Borrowed(state))
    }
}

impl PipelineAnalysis {
    /// Runs the pipeline analysis over the supergraph.
    pub fn run(
        hw: &HwConfig,
        cfg: &Cfg,
        icfg: &Icfg,
        ca: &CacheAnalysis,
        va: &stamp_value::ValueAnalysis,
    ) -> PipelineAnalysis {
        let mut transfer = PipeTransfer {
            cfg,
            hw,
            ca,
            infeasible: va.infeasible_edges().iter().copied().collect(),
            times: HashMap::new(),
        };
        let fixpoint = solve(icfg, &mut transfer, u32::MAX);

        // Unreached nodes (dead code under the value analysis) still get
        // a sound bound — over all pipeline states — so that the path
        // analysis can optionally ignore infeasibility facts.
        for nd in icfg.nodes() {
            if !transfer.times.contains_key(&nd.id) {
                transfer.transfer(icfg, nd.id, &PipeSet::universe());
            }
        }
        let ps_extra = ca.ps_fetch_lines().len() as u64 * hw.timing.i_miss_penalty as u64
            + ca.ps_data_lines().len() as u64 * hw.timing.d_miss_penalty as u64;
        PipelineAnalysis {
            times: transfer.times,
            branch_penalty: hw.timing.branch_penalty as u64,
            ps_extra,
            evaluations: fixpoint.evaluations,
        }
    }

    /// Exists only so `stampbench` builds; always `None`, so
    /// callers fall back to [`PipelineAnalysis::run`].
    #[doc(hidden)]
    pub fn run_summarized(
        _hw: &HwConfig,
        _cfg: &Cfg,
        _icfg: &Icfg,
        _ca: &CacheAnalysis,
        _va: &stamp_value::ValueAnalysis,
        _memo: &mut stamp_cache::LocalUarchMemo,
    ) -> Option<(PipelineAnalysis, stamp_cache::UarchSummaryStats)> {
        None
    }

    /// One-time miss budget for all persistent lines (added to the ILP
    /// optimum by the path analysis; see the struct documentation).
    pub fn ps_extra_cycles(&self) -> u64 {
        self.ps_extra
    }

    /// Worst-case cycles of one node (block × context), excluding the
    /// outgoing control-transfer penalty. `None` for unreachable nodes.
    pub fn time(&self, node: NodeId) -> Option<u64> {
        self.times.get(&node).copied()
    }

    /// Extra cycles charged when execution leaves a node along `edge`
    /// (the taken-transfer penalty of the hardware model).
    pub fn edge_penalty(&self, cfg: &Cfg, icfg: &Icfg, edge: &IEdge) -> u64 {
        let _ = icfg;
        match edge.kind {
            // Calls and returns are always taken transfers.
            IEdgeKind::Call { .. } | IEdgeKind::Return { .. } => self.branch_penalty,
            IEdgeKind::Intra { cfg_edge, .. } => {
                let e = cfg.edge(cfg_edge);
                match e.kind {
                    EdgeKind::Taken => self.branch_penalty,
                    EdgeKind::Fall | EdgeKind::CallFall => 0,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stamp_ai::VivuConfig;
    use stamp_cfg::CfgBuilder;
    use stamp_isa::asm::assemble;
    use stamp_sim::Simulator;
    use stamp_value::{ValueAnalysis, ValueOptions};

    fn analyze(src: &str, hw: &HwConfig) -> (stamp_isa::Program, Cfg, Icfg, PipelineAnalysis) {
        let p = assemble(src).expect("assembles");
        let cfg = CfgBuilder::new(&p).build().expect("builds");
        let icfg = Icfg::build(&cfg, &VivuConfig::default()).expect("expands");
        let va = ValueAnalysis::run(&p, hw, &cfg, &icfg, &ValueOptions::default());
        let ca = CacheAnalysis::run(hw, &cfg, &icfg, &va);
        let pa = PipelineAnalysis::run(hw, &cfg, &icfg, &ca, &va);
        (p, cfg, icfg, pa)
    }

    /// Sums node times plus edge penalties along the unique path of a
    /// straight-line (single-path) program.
    fn straight_line_bound(icfg: &Icfg, cfg: &Cfg, pa: &PipelineAnalysis) -> u64 {
        let mut total = 0;
        let mut node = icfg.entry();
        loop {
            total += pa.time(node).expect("reachable");
            let mut next = None;
            for e in icfg.succs(node) {
                total += pa.edge_penalty(cfg, icfg, &e);
                next = Some(e.to);
            }
            match next {
                Some(n) => node = n,
                None => return total,
            }
        }
    }

    #[test]
    fn straight_line_matches_simulator_exactly() {
        // Deterministic single-path program: the static bound and the
        // simulator must agree cycle for cycle.
        let src = "\
            .text
            main: li r1, 3
                  mul r2, r1, r1
                  la r3, v
                  lw r4, 0(r3)
                  add r5, r4, r4    ; load-use hazard
                  sw r5, 0(r3)
                  call f
                  halt
            f:    div r6, r2, r1
                  ret
            .data
            v:    .word 123
        ";
        for hw in [HwConfig::ideal(), HwConfig::default(), HwConfig::no_cache()] {
            let (p, cfg, icfg, pa) = analyze(src, &hw);
            let bound = straight_line_bound(&icfg, &cfg, &pa);
            let mut sim = Simulator::new(&p, &hw);
            let res = sim.run(10_000).expect("no fault");
            assert_eq!(
                bound, res.cycles,
                "static {bound} vs simulated {} under {hw:?}",
                res.cycles
            );
        }
    }

    #[test]
    fn hazard_counted_only_when_immediate() {
        let src = "\
            .text
            main: la r1, v
                  lw r2, 0(r1)
                  nop
                  add r3, r2, r2    ; no hazard: nop in between
                  halt
            .data
            v:    .word 1
        ";
        let hw = HwConfig::ideal();
        let (p, cfg, icfg, pa) = analyze(src, &hw);
        let bound = straight_line_bound(&icfg, &cfg, &pa);
        let mut sim = Simulator::new(&p, &hw);
        assert_eq!(bound, sim.run(1000).unwrap().cycles);
    }

    #[test]
    fn hazard_crosses_block_boundary() {
        // The load is the last instruction of one block; the use is the
        // first of the next (branch target), so the hazard state must
        // survive the block transition.
        let src = "\
            .text
            main: la r1, v
                  lw r2, 0(r1)
                  beq r0, r0, use
                  nop
            use:  add r3, r2, r2
                  halt
            .data
            v:    .word 5
        ";
        let hw = HwConfig::ideal();
        let (p, _cfg, icfg, pa) = analyze(src, &hw);
        let mut sim = Simulator::new(&p, &hw);
        let simulated = sim.run(1000).unwrap().cycles;
        // Follow the taken path only.
        let mut total = 0;
        let mut node = icfg.entry();
        let cfg = CfgBuilder::new(&p).build().unwrap();
        loop {
            total += pa.time(node).unwrap();
            // Prefer the taken edge (this program's actual path).
            let mut next = None;
            for e in icfg.succs(node) {
                let feasible = match e.kind {
                    IEdgeKind::Intra { cfg_edge, .. } => cfg.edge(cfg_edge).kind != EdgeKind::Fall,
                    _ => true,
                };
                if feasible {
                    total += pa.edge_penalty(&cfg, &icfg, &e);
                    next = Some(e.to);
                }
            }
            match next {
                Some(n) => node = n,
                None => break,
            }
        }
        assert_eq!(total, simulated);
    }

    #[test]
    fn steady_state_loop_blocks_are_cheap() {
        // `.align 16` keeps the loop body on its own I-cache line so the
        // first iteration is genuinely cold.
        let src = "\
            .text\nmain: li r1, 50\n.align 16\nloop: addi r1, r1, -1\nbnez r1, loop\nhalt\n";
        let hw = HwConfig::default();
        let (_p, _cfg, icfg, pa) = analyze(src, &hw);
        // Find the loop-body nodes: iteration 0 (cold) and ≥1 (warm).
        let mut times: Vec<u64> = Vec::new();
        for nd in icfg.nodes() {
            if let Some(t) = pa.time(nd.id) {
                times.push(t);
            }
        }
        // The warm copy of the two-instruction body costs exactly 2
        // cycles; the cold copy pays I-cache misses.
        assert!(times.contains(&2), "warm body bound missing: {times:?}");
        assert!(times.iter().any(|&t| t >= 12), "cold body bound missing: {times:?}");
    }
}
