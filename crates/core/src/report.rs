//! The aiT-style analysis report.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use stamp_ai::{Frame, Icfg};
use stamp_cache::{CacheAnalysis, ClassStats};
use stamp_cfg::{dot, BlockId, Cfg};
use stamp_isa::Program;
use stamp_loopbound::LoopBoundAnalysis;
use stamp_path::WcetResult;
use stamp_pipeline::PipelineAnalysis;
use stamp_value::{PrecisionSummary, ValueAnalysis};

use crate::json::Json;
use crate::phase::PhaseId;

/// One analysis phase as this run experienced it: wall-clock duration
/// plus whether the phase's artifact was reused from a shared
/// [`crate::ArtifactStore`] rather than computed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhaseStats {
    /// Which phase.
    pub phase: PhaseId,
    /// Duration in seconds (the time to *obtain* the artifact — near
    /// zero when reused).
    pub seconds: f64,
    /// `true` when the artifact came out of the store (provenance; kept
    /// out of all deterministic renderings, since whether a job reused
    /// or computed depends on scheduling).
    pub reused: bool,
}

impl PhaseStats {
    /// The human-readable phase name.
    pub fn name(&self) -> &'static str {
        self.phase.title()
    }
}

/// The complete result of a WCET analysis ("Its results are documented
/// in a report file and as annotations in the control-flow graph").
#[derive(Clone, Debug)]
pub struct WcetReport {
    /// The WCET bound in cycles.
    pub wcet: u64,
    /// Program entry address.
    pub entry: u32,
    /// Number of reconstructed functions.
    pub functions: usize,
    /// Number of basic blocks.
    pub blocks: usize,
    /// Number of decoded instructions.
    pub insns: usize,
    /// Number of supergraph nodes (block × context instances).
    pub nodes: usize,
    /// Value-analysis address precision (E3).
    pub precision: PrecisionSummary,
    /// Branch instances proven constant (E4).
    pub constant_branches: usize,
    /// Supergraph edges proven infeasible (E4).
    pub infeasible_edges: usize,
    /// I-cache classification counts (E5).
    pub fetch_stats: ClassStats,
    /// D-cache classification counts (E5).
    pub data_stats: ClassStats,
    /// Loop bounds: `(header address, instance description, bound)`.
    pub loop_bounds: Vec<(u32, String, u64)>,
    /// ILP size `(variables, constraints)`.
    pub ilp_size: (usize, usize),
    /// Per-phase durations.
    pub phases: Vec<PhaseStats>,
    /// Path-segment summaries this run solved (provenance, timing
    /// layer only — like [`PhaseStats::reused`] it depends on what the
    /// shared store already held, so it is kept out of every
    /// deterministic rendering).
    pub summaries_computed: u64,
    /// Path-segment summaries recalled from a memo or the store.
    pub summaries_reused: u64,
    /// Per-block worst-case profile: `(block start, count, cycles)`.
    pub block_profile: Vec<(u32, u64, u64)>,
    /// Block start addresses on the worst-case path prefix.
    pub worst_path: Vec<u32>,
    /// Total analysis node evaluations across fixpoints (E6).
    pub evaluations: u64,
    /// The CFG the report annotates ([`WcetReport::to_dot`]), shared
    /// with the run's phase artifacts.
    cfg: Arc<Cfg>,
}

impl WcetReport {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        program: &Program,
        cfg: &Arc<Cfg>,
        icfg: &Icfg,
        va: &ValueAnalysis,
        lb: &LoopBoundAnalysis,
        ca: &CacheAnalysis,
        pa: &PipelineAnalysis,
        result: &WcetResult,
        phases: Vec<PhaseStats>,
        summaries: (u64, u64),
    ) -> WcetReport {
        // Per-block worst-case cycle attribution: entering a node along
        // an edge costs the edge's objective coefficient (the node's
        // time plus any taken-transfer penalty), and the task start
        // enters the entry node once.
        let mut profile: BTreeMap<BlockId, (u64, u64)> = BTreeMap::new();
        for (&node, &count) in &result.node_counts {
            profile.entry(icfg.node(node).block).or_insert((0, 0)).0 += count;
        }
        let entry = icfg.entry();
        profile.entry(icfg.node(entry).block).or_insert((0, 0)).1 += pa.time(entry).unwrap_or(0);
        for (&eid, &count) in &result.edge_counts {
            let slot = profile.entry(icfg.node(icfg.edge(eid).to).block).or_insert((0, 0));
            slot.1 += count * pa.edge_cost(eid);
        }
        let block_profile: Vec<(u32, u64, u64)> = profile
            .iter()
            .map(|(&b, &(count, cycles))| (cfg.block(b).start, count, cycles))
            .collect();

        let loop_bounds = lb
            .bounds()
            .iter()
            .map(|((header, frames), &bound)| {
                let desc = if frames.is_empty() {
                    "task".to_string()
                } else {
                    frames
                        .iter()
                        .map(|f| match f {
                            Frame::Call { site } => format!("call@{site:#x}"),
                            Frame::Loop { header, iter } => format!("{header}#{iter}"),
                        })
                        .collect::<Vec<_>>()
                        .join("·")
                };
                (cfg.block(*header).start, desc, bound)
            })
            .collect();

        let worst_path = result
            .worst_path(icfg, 64)
            .iter()
            .map(|&n| cfg.block(icfg.node(n).block).start)
            .collect();

        WcetReport {
            wcet: result.wcet,
            entry: program.entry,
            functions: cfg.functions().len(),
            blocks: cfg.blocks().len(),
            insns: cfg.insn_count(),
            nodes: icfg.nodes().len(),
            precision: va.precision_summary(),
            constant_branches: va.constant_branches(),
            infeasible_edges: va.infeasible_edges().len(),
            fetch_stats: ca.fetch_stats(),
            data_stats: ca.data_stats(),
            loop_bounds,
            ilp_size: result.ilp_size,
            phases,
            summaries_computed: summaries.0,
            summaries_reused: summaries.1,
            block_profile,
            worst_path,
            evaluations: va.evaluations + ca.evaluations + pa.evaluations,
            cfg: Arc::clone(cfg),
        }
    }

    /// Total analysis time in seconds.
    pub fn analysis_seconds(&self) -> f64 {
        self.phases.iter().map(|p| p.seconds).sum()
    }

    /// Renders the human-readable report file.
    pub fn render(&self, program: &Program) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "==== stamp WCET analysis report ====");
        let _ = writeln!(
            out,
            "task entry: {} ({:#010x})",
            program.symbols.format_addr(self.entry),
            self.entry
        );
        let _ = writeln!(
            out,
            "program: {} functions, {} blocks, {} instructions; {} context instances",
            self.functions, self.blocks, self.insns, self.nodes
        );
        let _ = writeln!(out, "\n-- value analysis");
        let p = &self.precision;
        let _ = writeln!(
            out,
            "memory accesses: {} exact, {} bounded, {} unknown (of {})",
            p.exact,
            p.bounded,
            p.unknown,
            p.total()
        );
        let _ = writeln!(
            out,
            "constant conditions: {}; infeasible supergraph edges: {}",
            self.constant_branches, self.infeasible_edges
        );
        let _ = writeln!(out, "\n-- loop bounds");
        for (addr, desc, bound) in &self.loop_bounds {
            let _ = writeln!(
                out,
                "loop at {} [{}]: ≤ {} iterations",
                program.symbols.format_addr(*addr),
                desc,
                bound
            );
        }
        let _ = writeln!(out, "\n-- cache analysis");
        let f = &self.fetch_stats;
        let _ = writeln!(
            out,
            "fetches: {} always-hit, {} always-miss, {} persistent, {} unclassified",
            f.hit, f.miss, f.persistent, f.unclassified
        );
        let d = &self.data_stats;
        let _ = writeln!(
            out,
            "data:    {} always-hit, {} always-miss, {} persistent, {} unclassified",
            d.hit, d.miss, d.persistent, d.unclassified
        );
        let _ = writeln!(out, "\n-- path analysis");
        let _ =
            writeln!(out, "ILP: {} variables, {} constraints", self.ilp_size.0, self.ilp_size.1);
        let _ = writeln!(out, "\n**** WCET bound: {} cycles ****", self.wcet);
        let _ = writeln!(out, "\n-- worst-case profile (per block)");
        let mut rows: Vec<&(u32, u64, u64)> = self.block_profile.iter().collect();
        rows.sort_by_key(|(_, _, cycles)| std::cmp::Reverse(*cycles));
        for (addr, count, cycles) in rows.into_iter().take(12) {
            let _ = writeln!(
                out,
                "{:<24} executions: {:>8}   cycles: {:>10}",
                program.symbols.format_addr(*addr),
                count,
                cycles
            );
        }
        let _ = writeln!(out, "\n-- worst-case path (prefix)");
        let mut line = String::new();
        for (i, addr) in self.worst_path.iter().take(12).enumerate() {
            if i > 0 {
                line.push_str(" → ");
            }
            line.push_str(&program.symbols.format_addr(*addr));
        }
        if self.worst_path.len() > 12 {
            line.push_str(" → …");
        }
        let _ = writeln!(out, "{line}");
        let _ = writeln!(out, "\n-- analysis time");
        for ph in &self.phases {
            let _ = writeln!(
                out,
                "{:<24} {:>9.3} ms{}",
                ph.name(),
                ph.seconds * 1e3,
                if ph.reused { "  (reused)" } else { "" }
            );
        }
        let _ = writeln!(out, "{:<24} {:>9.3} ms", "total", self.analysis_seconds() * 1e3);
        if self.summaries_computed + self.summaries_reused > 0 {
            let _ = writeln!(
                out,
                "{:<24} {} computed, {} reused",
                "procedure summaries", self.summaries_computed, self.summaries_reused
            );
        }
        out
    }

    /// Machine-readable JSON rendering.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("wcet", Json::int(self.wcet)),
            ("entry", Json::int(self.entry as u64)),
            ("functions", Json::int(self.functions as u64)),
            ("blocks", Json::int(self.blocks as u64)),
            ("instructions", Json::int(self.insns as u64)),
            ("contexts", Json::int(self.nodes as u64)),
            (
                "precision",
                Json::obj([
                    ("exact", Json::int(self.precision.exact as u64)),
                    ("bounded", Json::int(self.precision.bounded as u64)),
                    ("unknown", Json::int(self.precision.unknown as u64)),
                ]),
            ),
            ("constant_branches", Json::int(self.constant_branches as u64)),
            ("infeasible_edges", Json::int(self.infeasible_edges as u64)),
            (
                "ilp",
                Json::obj([
                    ("vars", Json::int(self.ilp_size.0 as u64)),
                    ("constraints", Json::int(self.ilp_size.1 as u64)),
                ]),
            ),
            ("analysis_seconds", Json::Num(self.analysis_seconds())),
            (
                "loop_bounds",
                Json::Arr(
                    self.loop_bounds
                        .iter()
                        .map(|(a, d, b)| {
                            Json::obj([
                                ("header", Json::int(*a as u64)),
                                ("instance", Json::str(d.clone())),
                                ("bound", Json::int(*b)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Renders the annotated CFG in DOT format (the aiSee substitute):
    /// worst-case counts and cycles per block, worst path highlighted.
    pub fn to_dot(&self) -> String {
        let mut ann = dot::Annotations::new();
        for &(addr, count, cycles) in &self.block_profile {
            if let Some(b) = self.cfg.block_at(addr) {
                ann.note_block(b, format!("count {count}, cycles {cycles}"));
                if count > 0 {
                    ann.highlight.push(b);
                }
            }
        }
        dot::render(&self.cfg, &ann)
    }
}
