//! The WCET analyzer pipeline (the aiT equivalent), expressed as an
//! explicit phase graph.
//!
//! Each phase of the paper's pipeline — CFG building, VIVU context
//! expansion, value analysis, loop bounds, cache, pipeline, path/ILP —
//! is a node of the graph in `phase.rs`. The costly ones (the front
//! end, context expansion, the value and cache fixpoints, and the path's
//! segment summaries) declare an input fingerprint over exactly what
//! they read and produce a typed artifact; loop bounds, pipeline times
//! and the path ILP are recomputed on every run.
//! [`WcetAnalysis::run_with`] drives the graph through a shared
//! [`ArtifactStore`], so concurrent batch jobs whose phase inputs agree
//! compute each stored artifact once and share it; [`WcetAnalysis::run`]
//! drives the same graph through a disabled store (compute everything
//! locally, cache nothing) — there is exactly one driver. Its CFG →
//! context → value prefix is `phase::value_prefix`, shared with the
//! stack tool, and every phase goes through the `phase::PhaseRun`
//! runner. [`WcetAnalysis::run_verdict`] runs that prefix once and
//! reads both bounds of a task from it.

use std::sync::Arc;

use stamp_ai::{Icfg, VivuConfig};
use stamp_cache::CacheAnalysis;
use stamp_cfg::Cfg;
use stamp_hw::HwConfig;
use stamp_isa::Program;
use stamp_loopbound::LoopBoundAnalysis;
use stamp_path::{PathOptions, WcetResult};
use stamp_pipeline::PipelineAnalysis;
use stamp_value::{ValueAnalysis, ValueOptions};

use crate::annot::Annotations;
use crate::artifact::{ArtifactClaim, ArtifactStore};
use crate::error::AnalysisError;
use crate::phase::{self, PhaseId, PhaseRun, Prefix};
use crate::report::WcetReport;
use crate::stack_tool::{self, StackReport};

/// Configuration of the analyzer pipeline.
#[derive(Clone, Debug)]
pub struct AnalysisConfig {
    /// The processor model.
    pub hw: HwConfig,
    /// VIVU context settings.
    pub vivu: VivuConfig,
    /// Value-analysis settings (domain selection, widening).
    pub value: ValueOptions,
    /// Use infeasible-path facts in the ILP (E4 ablation switch).
    pub use_infeasible: bool,
    /// Solve the path ILP via memoized per-segment summaries shared
    /// through the artifact store (see `stamp_path::SummaryMemo`); the
    /// WCET is exactly the monolithic optimum. Disable to force the
    /// whole-supergraph solve (a test oracle, not a manifest key).
    pub summaries: bool,
    /// Exists only so `stampbench` builds; nothing reads it.
    #[doc(hidden)]
    pub uarch_summaries: bool,
    /// Maximum CFG ↔ value-analysis iterations for indirect jumps.
    pub max_cfg_iterations: usize,
}

impl Default for AnalysisConfig {
    fn default() -> AnalysisConfig {
        AnalysisConfig {
            hw: HwConfig::default(),
            vivu: VivuConfig::default(),
            value: ValueOptions::default(),
            use_infeasible: true,
            summaries: true,
            uarch_summaries: false,
            max_cfg_iterations: 4,
        }
    }
}

/// Routes segment-summary lookups through the shared [`ArtifactStore`]
/// (with a job-local front cache), so isomorphic supergraph segments
/// are solved once per store — across call sites, batch jobs, `serve`
/// requests, and, with a durable backend, processes. Solve errors are
/// never published: dropping the fill guard releases the claim.
struct StoreSummaryMemo<'s> {
    store: &'s ArtifactStore,
    local: std::cell::RefCell<std::collections::HashMap<Vec<u8>, Arc<stamp_path::SegmentSummary>>>,
    /// Segments this job actually solved / recalled (local or store).
    computed: std::cell::Cell<u64>,
    reused: std::cell::Cell<u64>,
}

impl<'s> StoreSummaryMemo<'s> {
    fn new(store: &'s ArtifactStore) -> StoreSummaryMemo<'s> {
        StoreSummaryMemo {
            store,
            local: Default::default(),
            computed: Default::default(),
            reused: Default::default(),
        }
    }

    fn solve_counted(
        &self,
        solve: &mut dyn FnMut() -> Result<stamp_path::SegmentSummary, stamp_path::PathError>,
    ) -> Result<Arc<stamp_path::SegmentSummary>, stamp_path::PathError> {
        let summary = Arc::new(solve()?);
        self.computed.set(self.computed.get() + 1);
        Ok(summary)
    }
}

impl stamp_path::SummaryMemo for StoreSummaryMemo<'_> {
    fn summarize(
        &self,
        canonical: &[u8],
        solve: &mut dyn FnMut() -> Result<stamp_path::SegmentSummary, stamp_path::PathError>,
    ) -> Result<Arc<stamp_path::SegmentSummary>, stamp_path::PathError> {
        if let Some(hit) = self.local.borrow().get(canonical) {
            self.reused.set(self.reused.get() + 1);
            return Ok(hit.clone());
        }
        let fp = phase::summary_fingerprint(canonical);
        let summary = match self.store.claim(fp) {
            ArtifactClaim::Disabled => self.solve_counted(solve)?,
            ArtifactClaim::Ready(Ok(summary)) => {
                self.reused.set(self.reused.get() + 1);
                summary
            }
            // Only the `Fill` arm below publishes to a summary slot, and
            // only a solved summary.
            ArtifactClaim::Ready(Err(e)) => unreachable!("summary slot holds an error: {e}"),
            ArtifactClaim::Fill(guard) => {
                // On a solve error the guard is dropped unfulfilled,
                // releasing the claim — segment errors are not cached
                // (the path phase, recomputed per run, returns it).
                let summary = self.solve_counted(solve)?;
                guard.fulfill(Ok(summary.clone()));
                summary
            }
        };
        self.local.borrow_mut().insert(canonical.to_vec(), summary.clone());
        Ok(summary)
    }
}

/// Every phase artifact behind a [`WcetReport`], exactly as the report
/// was assembled from them. Returned by [`WcetAnalysis::run_full`] so
/// downstream consumers — the probabilistic path sampler, the
/// differential oracle — can run *on top of* a finished analysis
/// without recomputing any phase: the loop bounds, pipeline times and
/// ILP witness are the very `Arc`s the report was assembled from.
pub struct PhaseArtifacts {
    /// The control-flow graph (with resolved indirect targets).
    pub cfg: Arc<Cfg>,
    /// The interprocedural supergraph.
    pub icfg: Arc<Icfg>,
    /// The value analysis over `icfg`: its facts and its kept states.
    pub va: Arc<ValueAnalysis>,
    /// The loop-bound analysis (per-instance iteration bounds).
    pub lb: Arc<LoopBoundAnalysis>,
    /// The cache analysis (hit/miss/persistence classifications).
    pub ca: Arc<CacheAnalysis>,
    /// The pipeline analysis (per-node times, penalties).
    pub pa: Arc<PipelineAnalysis>,
    /// The ILP result: the WCET bound and its witness counts.
    pub path: Arc<WcetResult>,
}

/// The WCET analyzer. Build with [`WcetAnalysis::new`], configure with
/// the builder methods, then [`WcetAnalysis::run`] (or
/// [`WcetAnalysis::run_with`] to share phase artifacts across jobs).
///
/// See the crate documentation for an end-to-end example.
#[derive(Clone)]
pub struct WcetAnalysis<'p> {
    pub(crate) program: &'p Program,
    pub(crate) config: AnalysisConfig,
    pub(crate) annotations: Annotations,
}

impl<'p> WcetAnalysis<'p> {
    /// Creates an analyzer for `program` with the default configuration.
    pub fn new(program: &'p Program) -> WcetAnalysis<'p> {
        WcetAnalysis { program, config: AnalysisConfig::default(), annotations: Annotations::new() }
    }

    /// Replaces the whole configuration.
    pub fn config(mut self, config: AnalysisConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the hardware model.
    pub fn hw(mut self, hw: HwConfig) -> Self {
        self.config.hw = hw;
        self
    }

    /// Sets the VIVU context configuration.
    pub fn vivu(mut self, vivu: VivuConfig) -> Self {
        self.config.vivu = vivu;
        self
    }

    /// Enables or disables infeasible-path pruning in the ILP.
    pub fn use_infeasible(mut self, on: bool) -> Self {
        self.config.use_infeasible = on;
        self
    }

    /// Enables or disables the summarized (per-segment, memoized) path
    /// solve.
    pub fn summaries(mut self, on: bool) -> Self {
        self.config.summaries = on;
        self
    }

    /// Attaches annotations.
    pub fn annotations(mut self, annotations: Annotations) -> Self {
        self.annotations = annotations;
        self
    }

    /// Runs all phases locally and produces the report.
    ///
    /// # Errors
    ///
    /// See [`AnalysisError`]: irreducible or recursive control flow,
    /// unresolved indirect jumps, missing loop bounds.
    pub fn run(&self) -> Result<WcetReport, AnalysisError> {
        self.run_with(&ArtifactStore::disabled())
    }

    /// Runs all phases through a shared [`ArtifactStore`], reusing any
    /// phase artifact another job already produced under the same input
    /// fingerprint. The report is byte-identical to [`WcetAnalysis::run`];
    /// only [`crate::PhaseStats::reused`] and wall times differ.
    ///
    /// # Errors
    ///
    /// As [`WcetAnalysis::run`]. Phase errors are cached and replayed
    /// identically to sharing jobs.
    pub fn run_with(&self, store: &ArtifactStore) -> Result<WcetReport, AnalysisError> {
        self.run_full(store).map(|(report, _)| report)
    }

    /// Like [`WcetAnalysis::run_with`], but also hands back every phase
    /// artifact ([`PhaseArtifacts`]) the report was assembled from. This
    /// is the entry point for consumers layered on a finished analysis:
    /// the differential soundness oracle checks concrete simulator
    /// states against `va`'s abstract exit states, and the probabilistic
    /// path sampler walks the supergraph against `lb`/`pa`, without
    /// re-running any phase.
    ///
    /// # Errors
    ///
    /// As [`WcetAnalysis::run`].
    pub fn run_full(
        &self,
        store: &ArtifactStore,
    ) -> Result<(WcetReport, PhaseArtifacts), AnalysisError> {
        let mut run = PhaseRun::new(store);
        let prefix = phase::value_prefix(&mut run, self.program, &self.annotations, &self.config)?;
        self.tail(&mut run, &prefix)
    }

    /// Runs the CFG → context → value prefix once, reads the stack bound
    /// from it and, when `wcet` is set, runs the WCET phases on it: both
    /// bounds of the task from one value analysis. A prefix error is the
    /// error of both. The stack report's `phases` are the prefix's
    /// requests, the WCET report's all of this run's.
    pub fn run_verdict(&self, store: &ArtifactStore, wcet: bool) -> Verdict {
        self.verdict(&mut PhaseRun::new(store), wcet)
    }

    /// [`WcetAnalysis::run_verdict`] on a caller's runner.
    pub(crate) fn verdict(&self, run: &mut PhaseRun<'_>, wcet: bool) -> Verdict {
        let prefix = match phase::value_prefix(run, self.program, &self.annotations, &self.config) {
            Ok(prefix) => prefix,
            Err(e) => return Verdict { stack: Err(e.clone()), wcet: wcet.then_some(Err(e)) },
        };
        let stack = stack_tool::stack_tail(run, self, &prefix);
        Verdict { stack, wcet: wcet.then(|| self.tail(run, &prefix)) }
    }

    /// The WCET phases after the prefix: loop bounds, cache, pipeline
    /// and path, all reading the prefix's value analysis. Only the cache
    /// analysis is stored; the others are recomputed on every run.
    fn tail(
        &self,
        run: &mut PhaseRun<'_>,
        prefix: &Prefix,
    ) -> Result<(WcetReport, PhaseArtifacts), AnalysisError> {
        let (program, config) = (self.program, &self.config);
        let cfg = prefix.cfg.clone();
        let (icfg, va) = prefix.valued.clone()?;
        let lb = run.compute(PhaseId::LoopBound, || {
            let lb_opts = self.annotations.loop_bound_options(program);
            Ok(LoopBoundAnalysis::run(program, &cfg, &icfg, &va, &lb_opts))
        })?;
        let ca = run.run(phase::cache_fingerprint(prefix.keys.value, &config.hw), || {
            Ok(CacheAnalysis::run(&config.hw, &cfg, &icfg, &va))
        })?;
        let pa = run.compute(PhaseId::Pipeline, || {
            Ok(PipelineAnalysis::run(&config.hw, &cfg, &icfg, &ca, &va))
        })?;
        let memo = StoreSummaryMemo::new(run.store);
        let path_opts =
            PathOptions { use_infeasible: config.use_infeasible, summaries: config.summaries };
        let result = run.compute(PhaseId::Path, || {
            stamp_path::analyze_with_memo(&cfg, &icfg, &va, &lb, &pa, &path_opts, &memo)
                .map_err(AnalysisError::from)
        })?;
        // Zero/zero when the program offered no decomposition (or the
        // monolithic solve was asked for).
        let summaries = (memo.computed.get(), memo.reused.get());
        let phases = run.phases.clone();
        let report = WcetReport::assemble(
            program, &cfg, &icfg, &va, &lb, &ca, &pa, &result, phases, summaries,
        );
        Ok((report, PhaseArtifacts { cfg, icfg, va, lb, ca, pa, path: result }))
    }
}

/// Both bounds of one task, read from one value analysis (see
/// [`WcetAnalysis::run_verdict`]).
pub struct Verdict {
    /// The stack bound.
    pub stack: Result<StackReport, AnalysisError>,
    /// The WCET report and the artifacts behind it; `None` when the
    /// WCET was not asked for.
    pub wcet: Option<Result<(WcetReport, PhaseArtifacts), AnalysisError>>,
}
