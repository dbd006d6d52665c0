//! The StackAnalyzer product: per-task worst-case stack bounds.
//!
//! The stack tool rides the same phase graph as the WCET analyzer: its
//! bound is the stack extent of the analyzer's own value analysis
//! (`phase::value_prefix`), including the CFG ↔ value iteration that
//! resolves jump tables, so cases reached only through a computed jump
//! count toward the bound. A job runs that prefix once under its own
//! configuration and reads the stack bound and the WCET phases from it
//! ([`WcetAnalysis::run_verdict`]); [`StackAnalysis`] is that run
//! without the WCET phases, at default VIVU and value options. The bound
//! itself is not stored: it is a walk over what the prefix holds.
//! Through the shared [`ArtifactStore`] a hardware sweep shares the
//! value analysis the bound is read from (only the memory map reaches
//! the value fingerprint).
//!
//! Recursive tasks fail context expansion and take the compositional
//! call-graph fallback. Without a value analysis nothing resolves their
//! computed jumps, so the fallback refuses with
//! [`AnalysisError::UnresolvedIndirects`] until annotations supply the
//! targets.

use std::collections::BTreeMap;

use stamp_ai::IcfgError;
use stamp_hw::HwConfig;
use stamp_isa::Program;
use stamp_stack::{FunctionStack, StackOptions};

use crate::analyzer::WcetAnalysis;
use crate::annot::Annotations;
use crate::artifact::ArtifactStore;
use crate::error::AnalysisError;
use crate::json::Json;
use crate::phase::{PhaseRun, Prefix};
use crate::report::PhaseStats;

/// Result of a stack analysis.
#[derive(Clone, Debug)]
pub struct StackReport {
    /// Worst-case stack usage of the task in bytes.
    pub bound: u32,
    /// Which analysis produced the bound: `"precise"` (the value
    /// analysis's stack extent) or `"callgraph"` (compositional, used
    /// for recursive tasks).
    pub mode: &'static str,
    /// Per-function breakdown (callgraph mode only).
    pub per_function: BTreeMap<String, FunctionStack>,
    /// Per-phase timing and artifact provenance of *this run* (excluded
    /// from [`StackReport::to_json`]: provenance depends on scheduling,
    /// and the JSON rendering is deterministic).
    pub phases: Vec<PhaseStats>,
}

impl StackReport {
    /// Machine-readable JSON rendering.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("stack_bound", Json::int(self.bound as u64)),
            ("mode", Json::str(self.mode)),
            (
                "functions",
                Json::Obj(
                    self.per_function
                        .iter()
                        .map(|(n, f)| {
                            (
                                n.clone(),
                                Json::obj([
                                    ("local", Json::int(f.local as u64)),
                                    ("usage", Json::int(f.usage as u64)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// The stack analyzer. Prefers the precise supergraph mode and falls
/// back to the compositional call-graph mode when the task is recursive
/// (which then requires recursion-depth annotations).
///
/// # Example
///
/// ```
/// use stamp_isa::asm::assemble;
/// use stamp_core::StackAnalysis;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = assemble(".text\nmain: addi sp, sp, -64\naddi sp, sp, 64\nhalt\n")?;
/// let report = StackAnalysis::new(&p).run()?;
/// assert_eq!(report.bound, 64);
/// # Ok(())
/// # }
/// ```
pub struct StackAnalysis<'p>(WcetAnalysis<'p>);

impl<'p> StackAnalysis<'p> {
    /// Creates a stack analyzer with the default hardware model.
    pub fn new(program: &'p Program) -> StackAnalysis<'p> {
        StackAnalysis(WcetAnalysis::new(program))
    }

    /// Sets the hardware model (memory map / stack top).
    pub fn hw(self, hw: HwConfig) -> Self {
        StackAnalysis(self.0.hw(hw))
    }

    /// Attaches annotations (recursion depths, indirect targets).
    pub fn annotations(self, annotations: Annotations) -> Self {
        StackAnalysis(self.0.annotations(annotations))
    }

    /// Analyzes the task at the program's entry point.
    pub fn run(&self) -> Result<StackReport, AnalysisError> {
        self.run_with(&ArtifactStore::disabled())
    }

    /// Like [`StackAnalysis::run`], but sharing phase artifacts through
    /// `store` (see the module docs). The report is identical except
    /// for timing and provenance.
    pub fn run_with(&self, store: &ArtifactStore) -> Result<StackReport, AnalysisError> {
        self.0.run_verdict(store, false).stack
    }

    /// Analyzes the task whose entry is the given symbol (for multi-task
    /// images, one task per OSEK task entry).
    pub fn run_task(&self, entry_symbol: &str) -> Result<StackReport, AnalysisError> {
        let addr = self
            .0
            .program
            .symbols
            .addr_of(entry_symbol)
            .ok_or_else(|| AnalysisError::UnknownSymbol { name: entry_symbol.to_string() })?;
        let mut program = self.0.program.clone();
        program.entry = addr;
        // The entry point is part of the program fingerprint, so
        // per-task artifacts of a multi-task image never collide.
        StackAnalysis(WcetAnalysis { program: &program, ..self.0.clone() }).run()
    }
}

/// The stack bound of the prefix: the value analysis's stack extent,
/// or the call-graph fallback when context expansion failed on
/// recursion. It reads only what the prefix holds, so it has no key and
/// no store request of its own; its `phases` are the prefix's.
pub(crate) fn stack_tail(
    run: &PhaseRun<'_>,
    analysis: &WcetAnalysis<'_>,
    prefix: &Prefix,
) -> Result<StackReport, AnalysisError> {
    let program = analysis.program;
    let options =
        StackOptions { recursion_depths: analysis.annotations.resolved_recursion(program) };
    let cfg = &prefix.cfg;
    let (bound, mode, per_function) = match &prefix.valued {
        Ok((_, va)) => {
            let precise = stamp_stack::analyze_icfg(&analysis.config.hw, va)?;
            // The callgraph mode also provides the per-function table.
            let table = stamp_stack::analyze_callgraph(program, cfg, &options)
                .map(|r| r.per_function)
                .unwrap_or_default();
            (precise.total, "precise", table)
        }
        // Recursion: fall back to the compositional mode (the cached
        // context error carries the variant, so sharing jobs take the
        // same branch). Without a value analysis nothing resolves
        // computed jumps, and a partial call graph is no bound.
        Err(AnalysisError::Icfg(
            IcfgError::CallDepthExceeded { .. } | IcfgError::ContextExplosion { .. },
        )) => {
            if !cfg.unresolved_indirects().is_empty() {
                let addrs = cfg.unresolved_indirects().to_vec();
                return Err(AnalysisError::UnresolvedIndirects { addrs });
            }
            let r = stamp_stack::analyze_callgraph(program, cfg, &options)?;
            (r.total, "callgraph", r.per_function)
        }
        Err(e) => return Err(e.clone()),
    };
    Ok(StackReport { bound, mode, per_function, phases: run.phases.clone() })
}
