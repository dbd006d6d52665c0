//! The WCET analyzer pipeline (the aiT equivalent), expressed as an
//! explicit phase graph.
//!
//! Each phase of the paper's pipeline — CFG building, VIVU context
//! expansion, value analysis, loop bounds, cache, pipeline, path/ILP —
//! is a node of the graph in `phase.rs`: it declares an input
//! fingerprint over exactly what it reads and produces a typed
//! artifact. [`WcetAnalysis::run_with`] drives the graph through a
//! shared [`ArtifactStore`], so concurrent batch jobs whose phase
//! inputs agree compute each artifact once and share it; [`WcetAnalysis::run`]
//! drives the same graph through a disabled store (compute everything
//! locally, cache nothing) — there is exactly one driver.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use stamp_ai::{Icfg, VivuConfig};
use stamp_cache::CacheAnalysis;
use stamp_cfg::{Cfg, CfgBuilder};
use stamp_hw::HwConfig;
use stamp_isa::Program;
use stamp_loopbound::{LoopBoundAnalysis, LoopBoundOptions};
use stamp_path::{PathOptions, WcetResult};
use stamp_pipeline::PipelineAnalysis;
use stamp_value::{FrozenValueAnalysis, ValueAnalysis, ValueOptions};

use crate::annot::Annotations;
use crate::artifact::{ArtifactClaim, ArtifactStore};
use crate::error::AnalysisError;
use crate::fingerprint::Fingerprint;
use crate::phase::{self, PhaseId};
use crate::report::{PhaseStats, WcetReport};

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

/// Runs the value phase against the store. The computing job publishes
/// the deep-frozen (`Send + Sync`) form and keeps its own analysis;
/// reusing jobs thaw a job-local copy — the kernel's `Rc`-based
/// copy-on-write state never crosses a thread boundary.
pub(crate) fn value_phase(
    store: &ArtifactStore,
    fp: Fingerprint,
    program: &Program,
    hw: &HwConfig,
    cfg: &Cfg,
    icfg: &Icfg,
    options: &ValueOptions,
) -> (ValueAnalysis, bool) {
    match store.claim(PhaseId::Value, fp) {
        ArtifactClaim::Disabled => (ValueAnalysis::run(program, hw, cfg, icfg, options), false),
        ArtifactClaim::Ready(stored) => {
            let any = stored.expect("the value analysis is infallible");
            let frozen: Arc<FrozenValueAnalysis> =
                any.downcast().expect("value artifacts are FrozenValueAnalysis");
            (frozen.thaw(), true)
        }
        ArtifactClaim::Fill(guard) => {
            let va = ValueAnalysis::run(program, hw, cfg, icfg, options);
            guard.fulfill(Ok(Arc::new(va.freeze())));
            (va, false)
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
        let summary = match self.store.claim(PhaseId::Summary, fp) {
            ArtifactClaim::Disabled => self.solve_counted(solve)?,
            ArtifactClaim::Ready(stored) => match stored.ok().and_then(|any| any.downcast().ok()) {
                Some(summary) => {
                    self.reused.set(self.reused.get() + 1);
                    summary
                }
                // A summary slot never holds an error or a foreign
                // type; recover by solving locally if one ever does.
                None => self.solve_counted(solve)?,
            },
            ArtifactClaim::Fill(guard) => {
                // On a solve error the guard is dropped unfulfilled,
                // releasing the claim — segment errors are not cached
                // (the path phase itself caches the job-level error).
                let summary = self.solve_counted(solve)?;
                guard.fulfill(Ok(summary.clone()));
                summary
            }
        };
        self.local.borrow_mut().insert(canonical.to_vec(), summary.clone());
        Ok(summary)
    }
}

/// The front half of the phase graph behind a [`WcetReport`]: the CFG,
/// the VIVU supergraph and the value-analysis fixpoint, exactly as the
/// path analysis saw them. Returned by
/// [`WcetAnalysis::run_with_artifacts`] so differential oracles (the
/// soundness fuzzer) can check concrete simulator states against the
/// abstract exit states without re-running any phase.
pub struct ValueArtifacts {
    /// The control-flow graph (with resolved indirect targets).
    pub cfg: Arc<Cfg>,
    /// The interprocedural supergraph.
    pub icfg: Arc<Icfg>,
    /// The value-analysis fixpoint over `icfg`.
    pub va: ValueAnalysis,
}

/// Every phase artifact behind a [`WcetReport`], exactly as the report
/// was assembled from them. Returned by [`WcetAnalysis::run_full`] so
/// downstream consumers — the probabilistic path sampler, the
/// differential oracle — can run *on top of* a finished analysis
/// without recomputing any phase: the loop bounds, pipeline times and
/// ILP witness are shared `Arc`s straight out of the phase DAG.
pub struct PhaseArtifacts {
    /// The control-flow graph (with resolved indirect targets).
    pub cfg: Arc<Cfg>,
    /// The interprocedural supergraph.
    pub icfg: Arc<Icfg>,
    /// The value-analysis fixpoint over `icfg`.
    pub va: ValueAnalysis,
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
pub struct WcetAnalysis<'p> {
    program: &'p Program,
    config: AnalysisConfig,
    annotations: Annotations,
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

    /// Sets the value-analysis options.
    pub fn value_options(mut self, value: ValueOptions) -> Self {
        self.config.value = value;
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
    /// only [`PhaseStats::reused`] and wall times differ.
    ///
    /// # Errors
    ///
    /// As [`WcetAnalysis::run`]. Phase errors are cached and replayed
    /// identically to sharing jobs.
    pub fn run_with(&self, store: &ArtifactStore) -> Result<WcetReport, AnalysisError> {
        self.run_with_artifacts(store).map(|(report, _)| report)
    }

    /// Like [`WcetAnalysis::run_with`], but also hands back the
    /// [`ValueArtifacts`] the report was assembled from. This is the
    /// entry point of the differential soundness oracle: the fuzzer
    /// simulates the program and checks every concrete register against
    /// `artifacts.va`'s abstract exit state at the halt site — one
    /// analysis run serves both the bound and the containment check.
    ///
    /// # Errors
    ///
    /// As [`WcetAnalysis::run`].
    pub fn run_with_artifacts(
        &self,
        store: &ArtifactStore,
    ) -> Result<(WcetReport, ValueArtifacts), AnalysisError> {
        self.run_full(store)
            .map(|(report, a)| (report, ValueArtifacts { cfg: a.cfg, icfg: a.icfg, va: a.va }))
    }

    /// Like [`WcetAnalysis::run_with_artifacts`], but hands back *every*
    /// phase artifact ([`PhaseArtifacts`]), not just the value-analysis
    /// front half. This is the entry point for consumers layered on a
    /// finished analysis — the probabilistic path sampler walks the
    /// supergraph against `lb`/`pa` without re-running any phase.
    ///
    /// # Errors
    ///
    /// As [`WcetAnalysis::run`].
    pub fn run_full(
        &self,
        store: &ArtifactStore,
    ) -> Result<(WcetReport, PhaseArtifacts), AnalysisError> {
        let program = self.program;
        let cfg_opts = &self.config;
        let program_fp = phase::program_fingerprint(program);
        let mut phases: Vec<PhaseStats> = Vec::new();

        // ---- Phase 1+2 iterated: CFG building ↔ value analysis. Each
        // iteration's artifacts are keyed by the indirect-target map it
        // starts from, so the whole feedback loop replays from the
        // store when another job analyzed the same program.
        let mut extra: BTreeMap<u32, Vec<u32>> = self.annotations.resolved_indirects(program);
        let mut iteration = 0;
        let (cfg, icfg, va, value_fp) = loop {
            iteration += 1;
            // Phase boundaries are cancellation points: a job running
            // under a deadline is cut between phases (and inside the
            // solver's own checkpoints), never mid-artifact. No store
            // lock is held here, so the unwind cannot poison anything.
            stamp_exec::cancel::checkpoint_now();
            let t = Instant::now();
            let cfg_fp = phase::cfg_fingerprint(program_fp, &extra);
            let (cfg, reused) = store.get_or_compute(PhaseId::Cfg, cfg_fp, || {
                let mut builder = CfgBuilder::new(program);
                for (a, ts) in &extra {
                    builder.indirect_targets(*a, ts.iter().copied());
                }
                builder.build().map_err(AnalysisError::from)
            })?;
            phases.push(PhaseStats {
                phase: PhaseId::Cfg,
                seconds: t.elapsed().as_secs_f64(),
                reused,
            });

            let t = Instant::now();
            let context_fp = phase::context_fingerprint(cfg_fp, &cfg_opts.vivu);
            let (icfg, reused) = store.get_or_compute(PhaseId::Context, context_fp, || {
                Icfg::build(&cfg, &cfg_opts.vivu).map_err(AnalysisError::from)
            })?;
            phases.push(PhaseStats {
                phase: PhaseId::Context,
                seconds: t.elapsed().as_secs_f64(),
                reused,
            });

            let t = Instant::now();
            let value_fp = phase::value_fingerprint(context_fp, &cfg_opts.hw.mem, &cfg_opts.value);
            let (va, reused) =
                value_phase(store, value_fp, program, &cfg_opts.hw, &cfg, &icfg, &cfg_opts.value);
            phases.push(PhaseStats {
                phase: PhaseId::Value,
                seconds: t.elapsed().as_secs_f64(),
                reused,
            });

            if cfg.unresolved_indirects().is_empty() {
                break (cfg, icfg, va, value_fp);
            }
            // Feed resolved targets back into CFG reconstruction.
            let mut progress = false;
            for (&addr, targets) in va.indirect_targets() {
                let slot = extra.entry(addr).or_default();
                for &t in targets {
                    if !slot.contains(&t) {
                        slot.push(t);
                        progress = true;
                    }
                }
            }
            if !progress || iteration >= cfg_opts.max_cfg_iterations {
                return Err(AnalysisError::UnresolvedIndirects {
                    addrs: cfg.unresolved_indirects().to_vec(),
                });
            }
        };

        // ---- Phase 3: loop bounds.
        stamp_exec::cancel::checkpoint_now();
        let t = Instant::now();
        let lb_opts = LoopBoundOptions {
            annotations: self.annotations.resolved_loop_bounds(program),
            ..LoopBoundOptions::default()
        };
        let lb_fp = phase::loopbound_fingerprint(value_fp, &lb_opts);
        let (lb, reused) = store.get_or_compute(PhaseId::LoopBound, lb_fp, || {
            Ok(LoopBoundAnalysis::run(program, &cfg, &icfg, &va, &lb_opts))
        })?;
        phases.push(PhaseStats {
            phase: PhaseId::LoopBound,
            seconds: t.elapsed().as_secs_f64(),
            reused,
        });

        // ---- Phase 4: cache analysis.
        stamp_exec::cancel::checkpoint_now();
        let t = Instant::now();
        let cache_fp = phase::cache_fingerprint(value_fp, &cfg_opts.hw);
        let (ca, reused) = store.get_or_compute(PhaseId::Cache, cache_fp, || {
            Ok(CacheAnalysis::run(&cfg_opts.hw, &cfg, &icfg, &va))
        })?;
        phases.push(PhaseStats {
            phase: PhaseId::Cache,
            seconds: t.elapsed().as_secs_f64(),
            reused,
        });

        // ---- Phase 5: pipeline analysis.
        stamp_exec::cancel::checkpoint_now();
        let t = Instant::now();
        let pipeline_fp = phase::pipeline_fingerprint(cache_fp, &cfg_opts.hw);
        let (pa, reused) = store.get_or_compute(PhaseId::Pipeline, pipeline_fp, || {
            Ok(PipelineAnalysis::run(&cfg_opts.hw, &cfg, &icfg, &ca, &va))
        })?;
        phases.push(PhaseStats {
            phase: PhaseId::Pipeline,
            seconds: t.elapsed().as_secs_f64(),
            reused,
        });

        // ---- Phase 6: path analysis (IPET).
        stamp_exec::cancel::checkpoint_now();
        let t = Instant::now();
        let path_fp = phase::path_fingerprint(
            pipeline_fp,
            lb_fp,
            cfg_opts.use_infeasible,
            cfg_opts.summaries,
        );
        let memo = StoreSummaryMemo::new(store);
        let (result, reused) = store.get_or_compute(PhaseId::Path, path_fp, || {
            let path_opts = PathOptions {
                use_infeasible: cfg_opts.use_infeasible,
                summaries: cfg_opts.summaries,
            };
            stamp_path::analyze_with_memo(&cfg, &icfg, &va, &lb, &pa, &path_opts, &memo)
                .map_err(AnalysisError::from)
        })?;
        phases.push(PhaseStats {
            phase: PhaseId::Path,
            seconds: t.elapsed().as_secs_f64(),
            reused,
        });
        // Zero/zero when the whole path artifact was reused (or the
        // program offered no decomposition).
        let (summaries_computed, summaries_reused) = (memo.computed.get(), memo.reused.get());

        let report = WcetReport::assemble(
            program,
            &cfg,
            &icfg,
            &va,
            &lb,
            &ca,
            &pa,
            &result,
            phases,
            (summaries_computed, summaries_reused),
        );
        Ok((report, PhaseArtifacts { cfg, icfg, va, lb, ca, pa, path: result }))
    }
}
