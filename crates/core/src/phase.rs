//! The analysis phase graph and its input fingerprints.
//!
//! The paper's pipeline is a strict phase DAG — executable reading, CFG
//! reconstruction, value analysis, loop bounds, cache, pipeline, IPET —
//! and this module makes that DAG explicit: every phase is a named node
//! ([`PhaseId`]) with a declared input fingerprint, computed over
//! *exactly* the program bytes, annotations and configuration fields
//! the phase reads. Fingerprints chain: a phase hashes its upstream
//! phases' fingerprints plus its own knobs, so an artifact key
//! transitively covers everything that could influence the artifact.
//!
//! Per-phase inputs (the tables in DESIGN.md are generated from this
//! list; the `let … = *config;` destructurings below make the coverage
//! compile-checked — adding a field to a config struct breaks the
//! corresponding fingerprint function until it is accounted for):
//!
//! | phase      | inputs |
//! |------------|--------|
//! | `assemble` | source text |
//! | `cfg`      | program image (entry, sections, symbols) + indirect-target map |
//! | `context`  | `cfg` + all of `VivuConfig` |
//! | `value`    | `context` + `MemoryMap` + all of `ValueOptions` |
//! | `loopbound`| `value` + resolved loop-bound annotations |
//! | `cache`    | `value` + I/D cache geometries |
//! | `pipeline` | `cache` + the whole `HwConfig` (timing and caches) |
//! | `path`     | `pipeline` + `loopbound` + `use_infeasible` + `summaries` |
//! | `summary`  | the canonical byte form of one supergraph segment's ILP |
//!
//! Notably *absent* dependencies are what make cross-variant sharing
//! work: the CFG does not depend on any hardware knob, and the value
//! analysis reads the memory map but not cache geometry or timing — so
//! a `default` / `no-cache` / `ideal` hardware sweep shares one CFG,
//! one context expansion and one value fixpoint per target.
//!
//! The stack bound is not a phase: it is read from the value analysis
//! (its stack extent) and the CFG (the per-function table) that the
//! job's prefix already holds, so nothing of it is keyed or stored.
//!
//! The module also holds what both tools share at run time: the key
//! chain ([`PrefixKeys`], [`WcetKeys`]) that the drivers and
//! [`plan_job`] compute requests from, the runner ([`PhaseRun`]) every
//! artifact request goes through, and the iterated CFG → context →
//! value prefix ([`value_prefix`]).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use stamp_ai::{Icfg, VivuConfig};
use stamp_cfg::{Cfg, CfgBuilder};
use stamp_hw::{CacheConfig, HwConfig, MemoryMap, Timing};
use stamp_isa::{Program, SectionKind};
use stamp_loopbound::LoopBoundOptions;
use stamp_value::{DomainKind, ValueAnalysis, ValueOptions};

use crate::analyzer::AnalysisConfig;
use crate::annot::Annotations;
use crate::artifact::{Artifact, ArtifactStore};
use crate::batch::BatchJob;
use crate::error::AnalysisError;
use crate::fingerprint::{Fingerprint, Fp};
use crate::report::PhaseStats;

/// One node of the phase graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PhaseId {
    /// Source text → program image.
    Assemble,
    /// Program image → control-flow graph (executable reading + CFG
    /// reconstruction).
    Cfg,
    /// CFG → interprocedural supergraph (VIVU context expansion).
    Context,
    /// Supergraph → value analysis.
    Value,
    /// Value analysis → loop iteration bounds.
    LoopBound,
    /// Value analysis → cache classifications.
    Cache,
    /// Cache analysis → per-node pipeline times.
    Pipeline,
    /// Everything → worst-case path (IPET/ILP).
    Path,
    /// One canonical supergraph segment → its solved ILP summary
    /// (sub-artifacts of the path phase, shared across call sites,
    /// jobs and processes).
    Summary,
}

impl PhaseId {
    /// Every phase, in pipeline order.
    pub const ALL: [PhaseId; 9] = [
        PhaseId::Assemble,
        PhaseId::Cfg,
        PhaseId::Context,
        PhaseId::Value,
        PhaseId::LoopBound,
        PhaseId::Cache,
        PhaseId::Pipeline,
        PhaseId::Path,
        PhaseId::Summary,
    ];

    /// Dense index (for per-phase counters).
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`PhaseId::index`], for decoding on-disk records.
    pub(crate) fn from_index(i: usize) -> Option<PhaseId> {
        PhaseId::ALL.get(i).copied()
    }

    /// The short machine-readable name (JSON keys, plan tables).
    pub fn name(self) -> &'static str {
        match self {
            PhaseId::Assemble => "assemble",
            PhaseId::Cfg => "cfg",
            PhaseId::Context => "context",
            PhaseId::Value => "value",
            PhaseId::LoopBound => "loopbound",
            PhaseId::Cache => "cache",
            PhaseId::Pipeline => "pipeline",
            PhaseId::Path => "path",
            PhaseId::Summary => "summary",
        }
    }

    /// The human-readable phase title used in reports (matches the
    /// paper's phase names).
    pub fn title(self) -> &'static str {
        match self {
            PhaseId::Assemble => "assemble",
            PhaseId::Cfg => "cfg building",
            PhaseId::Context => "context expansion",
            PhaseId::Value => "value analysis",
            PhaseId::LoopBound => "loop bound analysis",
            PhaseId::Cache => "cache analysis",
            PhaseId::Pipeline => "pipeline analysis",
            PhaseId::Path => "path analysis (ILP)",
            PhaseId::Summary => "procedure summaries",
        }
    }
}

/// Fingerprint of raw assembly source (the `assemble` phase key).
pub fn source_fingerprint(source: &str) -> Fingerprint {
    let mut fp = Fp::new("stamp/assemble/1");
    fp.str(source);
    fp.finish()
}

/// Fingerprint of an assembled program image: entry point, every
/// section (name, placement, bytes) and the symbol table (symbols name
/// CFG functions, so they are an input of CFG reconstruction).
pub fn program_fingerprint(program: &Program) -> Fingerprint {
    let mut fp = Fp::new("stamp/program/1");
    fp.u32(program.entry);
    fp.u64(program.sections.len() as u64);
    for s in &program.sections {
        fp.str(&s.name);
        fp.u32(s.base);
        fp.u8(match s.kind {
            SectionKind::Text => 0,
            SectionKind::RoData => 1,
            SectionKind::Data => 2,
            SectionKind::Bss => 3,
        });
        fp.u32(s.size);
        fp.bytes(&s.data);
    }
    fp.u64(program.symbols.len() as u64);
    for (name, addr) in program.symbols.iter() {
        fp.str(name);
        fp.u32(addr);
        // The reverse lookup is an input of its own: when several names
        // alias one address, `name_at` keeps the first registered — an
        // insertion-order fact the forward map cannot reproduce, and
        // CFG reconstruction bakes it into function names.
        fp.str(program.symbols.name_at(addr).unwrap_or(""));
    }
    fp.finish()
}

fn mem_fields(fp: &mut Fp, mem: &MemoryMap) {
    let MemoryMap { rom_base, rom_size, ram_base, ram_size } = *mem;
    fp.u32(rom_base);
    fp.u32(rom_size);
    fp.u32(ram_base);
    fp.u32(ram_size);
}

fn cache_fields(fp: &mut Fp, cache: Option<CacheConfig>) {
    match cache {
        None => fp.u8(0),
        Some(c) => {
            fp.u8(1);
            fp.u32(c.sets());
            fp.u32(c.assoc());
            fp.u32(c.line_bytes());
        }
    }
}

/// `cfg`: the program image plus the indirect-jump target map (from
/// annotations and from value-analysis feedback iterations).
pub fn cfg_fingerprint(program: Fingerprint, indirects: &BTreeMap<u32, Vec<u32>>) -> Fingerprint {
    let mut fp = Fp::new("stamp/cfg/1");
    fp.fp(program);
    fp.u64(indirects.len() as u64);
    for (addr, targets) in indirects {
        fp.u32(*addr);
        fp.u64(targets.len() as u64);
        for t in targets {
            fp.u32(*t);
        }
    }
    fp.finish()
}

/// `context`: the CFG plus every VIVU knob.
pub fn context_fingerprint(cfg: Fingerprint, vivu: &VivuConfig) -> Fingerprint {
    let VivuConfig { max_call_depth, peel, max_contexts } = *vivu;
    let mut fp = Fp::new("stamp/context/1");
    fp.fp(cfg);
    fp.u64(max_call_depth as u64);
    fp.u8(peel);
    fp.u64(max_contexts as u64);
    fp.finish()
}

/// `value`: the supergraph, the memory map (stack top, RAM/ROM extent —
/// but *not* cache geometry or timing) and every value-analysis option.
pub fn value_fingerprint(
    context: Fingerprint,
    mem: &MemoryMap,
    value: &ValueOptions,
) -> Fingerprint {
    let ValueOptions { domain, widen_delay } = *value;
    let mut fp = Fp::new("stamp/value/1");
    fp.fp(context);
    mem_fields(&mut fp, mem);
    fp.u8(match domain {
        DomainKind::Const => 0,
        DomainKind::Interval => 1,
        DomainKind::Strided => 2,
    });
    fp.u32(widen_delay);
    fp.finish()
}

/// `loopbound`: the value analysis plus resolved loop-bound
/// annotations.
pub fn loopbound_fingerprint(value: Fingerprint, options: &LoopBoundOptions) -> Fingerprint {
    let LoopBoundOptions { ref annotations } = *options;
    let mut fp = Fp::new("stamp/loopbound/2");
    fp.fp(value);
    fp.u64(annotations.len() as u64);
    for (addr, bound) in annotations {
        fp.u32(*addr);
        fp.u64(*bound);
    }
    fp.finish()
}

/// `cache`: the value analysis plus the I/D cache geometries (and
/// nothing else — timing does not influence classifications).
pub fn cache_fingerprint(value: Fingerprint, hw: &HwConfig) -> Fingerprint {
    let mut fp = Fp::new("stamp/cache/3");
    fp.fp(value);
    cache_fields(&mut fp, hw.icache);
    cache_fields(&mut fp, hw.dcache);
    fp.finish()
}

/// `pipeline`: the cache analysis plus the whole hardware model (the
/// pipeline reads timing, both cache geometries and, transitively, the
/// memory map).
pub fn pipeline_fingerprint(cache: Fingerprint, hw: &HwConfig) -> Fingerprint {
    let HwConfig { icache, dcache, ref mem, timing } = *hw;
    let Timing {
        i_miss_penalty,
        d_miss_penalty,
        branch_penalty,
        mul_latency,
        div_latency,
        load_use_hazard,
    } = timing;
    let mut fp = Fp::new("stamp/pipeline/3");
    fp.fp(cache);
    cache_fields(&mut fp, icache);
    cache_fields(&mut fp, dcache);
    mem_fields(&mut fp, mem);
    fp.u32(i_miss_penalty);
    fp.u32(d_miss_penalty);
    fp.u32(branch_penalty);
    fp.u32(mul_latency);
    fp.u32(div_latency);
    fp.bool(load_use_hazard);
    fp.finish()
}

/// `path`: pipeline times, loop bounds, the infeasible-path switch,
/// and the summarized-solve switch. The two solve modes prove the same
/// WCET but may pick different witness paths, so their artifacts must
/// not mix.
pub fn path_fingerprint(
    pipeline: Fingerprint,
    loopbound: Fingerprint,
    use_infeasible: bool,
    summaries: bool,
) -> Fingerprint {
    let mut fp = Fp::new("stamp/path/2");
    fp.fp(pipeline);
    fp.fp(loopbound);
    fp.bool(use_infeasible);
    fp.bool(summaries);
    fp.finish()
}

/// `summary`: a segment summary is keyed by nothing but the canonical
/// byte form of its ILP — that form already encodes every objective
/// coefficient and constraint, so isomorphic segments from different
/// programs, variants or processes share one artifact.
pub fn summary_fingerprint(canonical: &[u8]) -> Fingerprint {
    let mut fp = Fp::new("stamp/summary/1");
    fp.bytes(canonical);
    fp.finish()
}

/// One predicted artifact request of a job: which phase, under which
/// fingerprint (see [`plan_job`]).
#[derive(Clone, Copy, Debug)]
pub struct PhaseRequest {
    /// The phase.
    pub phase: PhaseId,
    /// The phase-input fingerprint.
    pub fingerprint: Fingerprint,
}

/// The keys of one pass over the CFG → context → value prefix under a
/// given indirect-target map.
#[derive(Clone, Copy)]
pub(crate) struct PrefixKeys {
    pub(crate) cfg: Fingerprint,
    pub(crate) context: Fingerprint,
    pub(crate) value: Fingerprint,
}

impl PrefixKeys {
    pub(crate) fn new(
        program: Fingerprint,
        indirects: &BTreeMap<u32, Vec<u32>>,
        config: &AnalysisConfig,
    ) -> PrefixKeys {
        let cfg = cfg_fingerprint(program, indirects);
        let context = context_fingerprint(cfg, &config.vivu);
        let value = value_fingerprint(context, &config.hw.mem, &config.value);
        PrefixKeys { cfg, context, value }
    }

    fn requests(self) -> [PhaseRequest; 3] {
        [(PhaseId::Cfg, self.cfg), (PhaseId::Context, self.context), (PhaseId::Value, self.value)]
            .map(|(phase, fingerprint)| PhaseRequest { phase, fingerprint })
    }
}

/// The keys of the WCET phases after the prefix.
#[derive(Clone, Copy)]
pub(crate) struct WcetKeys {
    pub(crate) loopbound: Fingerprint,
    pub(crate) cache: Fingerprint,
    pub(crate) pipeline: Fingerprint,
    pub(crate) path: Fingerprint,
}

impl WcetKeys {
    pub(crate) fn new(
        value: Fingerprint,
        loop_bounds: &LoopBoundOptions,
        config: &AnalysisConfig,
    ) -> WcetKeys {
        let loopbound = loopbound_fingerprint(value, loop_bounds);
        let cache = cache_fingerprint(value, &config.hw);
        let pipeline = pipeline_fingerprint(cache, &config.hw);
        let path = path_fingerprint(pipeline, loopbound, config.use_infeasible, config.summaries);
        WcetKeys { loopbound, cache, pipeline, path }
    }

    fn requests(self) -> [PhaseRequest; 4] {
        [
            (PhaseId::LoopBound, self.loopbound),
            (PhaseId::Cache, self.cache),
            (PhaseId::Pipeline, self.pipeline),
            (PhaseId::Path, self.path),
        ]
        .map(|(phase, fingerprint)| PhaseRequest { phase, fingerprint })
    }
}

/// Runs one job's phases. Every artifact request goes through
/// [`PhaseRun::run`], which makes the request a cancellation point,
/// times it, looks it up in the shared store and records one
/// [`PhaseStats`] row — on the error path too, so a replayed cached
/// error is reported as reused.
pub(crate) struct PhaseRun<'s> {
    pub(crate) store: &'s ArtifactStore,
    /// One row per request, in request order.
    pub(crate) phases: Vec<PhaseStats>,
}

impl<'s> PhaseRun<'s> {
    pub(crate) fn new(store: &'s ArtifactStore) -> PhaseRun<'s> {
        PhaseRun { store, phases: Vec::new() }
    }

    /// The `T` artifact under `fp`: shared from the store, or computed
    /// (and published) by `compute`.
    pub(crate) fn run<T: Artifact>(
        &mut self,
        fp: Fingerprint,
        compute: impl FnOnce() -> Result<T, AnalysisError>,
    ) -> Result<Arc<T>, AnalysisError> {
        // Phase boundaries are cancellation points: a job running under
        // a deadline is cut between phases (and inside the solver's own
        // checkpoints), never mid-artifact. No store lock is held here,
        // so the unwind cannot poison anything.
        stamp_exec::cancel::checkpoint_now();
        let t = Instant::now();
        let (out, reused) = self.store.get_or_compute(fp, compute);
        let seconds = t.elapsed().as_secs_f64();
        self.phases.push(PhaseStats { phase: T::PHASE, seconds, reused });
        out
    }
}

/// The CFG → context → value prefix both tools share.
pub(crate) struct Prefix {
    /// The keys of the last pass.
    pub(crate) keys: PrefixKeys,
    /// The CFG, closed over every resolved indirect target.
    pub(crate) cfg: Arc<Cfg>,
    /// The supergraph and its value fixpoint, or the context-expansion
    /// error (e.g. recursion) that stopped the prefix at the CFG.
    pub(crate) valued: Result<(Arc<Icfg>, Arc<ValueAnalysis>), AnalysisError>,
}

/// Runs the prefix under `config`, iterating CFG building ↔ value
/// analysis: indirect targets the value analysis resolves (jump tables
/// in ROM) are fed back into CFG reconstruction until the graph is
/// closed. Each pass is keyed by the target map it starts from, so the
/// whole feedback loop replays from the store when another job analyzed
/// the same program.
///
/// # Errors
///
/// CFG reconstruction errors, and [`AnalysisError::UnresolvedIndirects`]
/// when a pass makes no progress or `max_cfg_iterations` runs out.
pub(crate) fn value_prefix(
    run: &mut PhaseRun<'_>,
    program: &Program,
    annotations: &Annotations,
    config: &AnalysisConfig,
) -> Result<Prefix, AnalysisError> {
    let program_fp = program_fingerprint(program);
    let mut extra = annotations.resolved_indirects(program);
    let mut iteration = 0;
    loop {
        iteration += 1;
        let keys = PrefixKeys::new(program_fp, &extra, config);
        let cfg = run.run(keys.cfg, || {
            let mut builder = CfgBuilder::new(program);
            for (a, ts) in &extra {
                builder.indirect_targets(*a, ts.iter().copied());
            }
            builder.build().map_err(AnalysisError::from)
        })?;
        let icfg = match run
            .run(keys.context, || Icfg::build(&cfg, &config.vivu).map_err(AnalysisError::from))
        {
            Ok(icfg) => icfg,
            Err(e) => return Ok(Prefix { keys, cfg, valued: Err(e) }),
        };
        let va = run.run(keys.value, || {
            Ok(ValueAnalysis::run(program, &config.hw, &cfg, &icfg, &config.value))
        })?;
        if cfg.unresolved_indirects().is_empty() {
            return Ok(Prefix { keys, cfg, valued: Ok((icfg, va)) });
        }
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
        if !progress || iteration >= config.max_cfg_iterations {
            return Err(AnalysisError::UnresolvedIndirects {
                addrs: cfg.unresolved_indirects().to_vec(),
            });
        }
    }
}

/// Statically predicts the artifact requests a job will make, in
/// request order, *without running any analysis* (`stamp batch
/// --dry-run`). The prediction assembles the program (cheap) and then
/// takes its keys from `PrefixKeys` and `WcetKeys`, the chain the
/// drivers key their requests with.
///
/// Two approximations (both resolve only by running the analysis):
/// the CFG ↔ value-analysis feedback loop for indirect jumps is
/// predicted at iteration 0 (annotation-supplied targets only), so
/// programs with resolvable jump tables request a few more
/// `cfg`/`context`/`value` artifacts at run time than predicted; and
/// recursive tasks are predicted with a `value` request, while at run
/// time their context expansion fails and the prefix stops there.
///
/// # Errors
///
/// The assembler's message when the source does not assemble (the job
/// would fail the same way at run time).
pub fn plan_job(job: &BatchJob) -> Result<Vec<PhaseRequest>, String> {
    let mut requests = vec![PhaseRequest {
        phase: PhaseId::Assemble,
        fingerprint: source_fingerprint(&job.source),
    }];
    let program = stamp_isa::asm::assemble(&job.source).map_err(|e| format!("assemble: {e}"))?;
    let program_fp = program_fingerprint(&program);
    let indirects = job.annotations.resolved_indirects(&program);

    // One prefix; the stack bound reads it without a request of its
    // own, the WCET phases key their requests by it.
    let prefix = PrefixKeys::new(program_fp, &indirects, &job.config);
    requests.extend(prefix.requests());
    if job.wcet {
        let loop_bounds = job.annotations.loop_bound_options(&program);
        requests.extend(WcetKeys::new(prefix.value, &loop_bounds, &job.config).requests());
    }
    Ok(requests)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TASK: &str = ".text\nmain: li r1, 4\nloop: addi r1, r1, -1\nbnez r1, loop\nhalt\n";

    fn job(config: AnalysisConfig) -> BatchJob {
        BatchJob {
            target: "t".to_string(),
            variant: "v".to_string(),
            source: TASK.to_string(),
            config,
            annotations: Annotations::new(),
            wcet: true,
            sampling: None,
        }
    }

    #[test]
    fn phase_indices_are_dense_and_ordered() {
        for (i, p) in PhaseId::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn hardware_sweep_shares_the_value_prefix() {
        let default = plan_job(&job(AnalysisConfig::default())).unwrap();
        let no_cache = plan_job(&job(AnalysisConfig {
            hw: HwConfig::no_cache(),
            ..AnalysisConfig::default()
        }))
        .unwrap();
        let ideal =
            plan_job(&job(AnalysisConfig { hw: HwConfig::ideal(), ..AnalysisConfig::default() }))
                .unwrap();
        let by_phase = |plan: &[PhaseRequest], p: PhaseId| -> Vec<Fingerprint> {
            plan.iter().filter(|r| r.phase == p).map(|r| r.fingerprint).collect()
        };
        // Assemble/cfg/context/value/loopbound: identical across all
        // three hardware variants (value reads only the memory map).
        for p in
            [PhaseId::Assemble, PhaseId::Cfg, PhaseId::Context, PhaseId::Value, PhaseId::LoopBound]
        {
            assert_eq!(by_phase(&default, p), by_phase(&no_cache, p), "{p:?}");
            assert_eq!(by_phase(&default, p), by_phase(&ideal, p), "{p:?}");
        }
        // Cache: no-cache and ideal agree (both cacheless), default differs.
        assert_eq!(by_phase(&no_cache, PhaseId::Cache), by_phase(&ideal, PhaseId::Cache));
        assert_ne!(by_phase(&default, PhaseId::Cache), by_phase(&ideal, PhaseId::Cache));
        // Pipeline and path: all distinct (timing differs).
        assert_ne!(by_phase(&no_cache, PhaseId::Pipeline), by_phase(&ideal, PhaseId::Pipeline));
        assert_ne!(by_phase(&no_cache, PhaseId::Path), by_phase(&ideal, PhaseId::Path));
    }

    #[test]
    fn vivu_knobs_reach_context_but_not_cfg() {
        let base = plan_job(&job(AnalysisConfig::default())).unwrap();
        let mut cfg = AnalysisConfig::default();
        cfg.vivu.peel = 0;
        let peeled = plan_job(&job(cfg)).unwrap();
        fn one(plan: &[PhaseRequest], p: PhaseId) -> &PhaseRequest {
            plan.iter().find(|r| r.phase == p).unwrap()
        }
        assert_eq!(one(&base, PhaseId::Cfg).fingerprint, one(&peeled, PhaseId::Cfg).fingerprint);
        // One context request per job, and the value analysis both
        // bounds read is keyed by it.
        let ctxs = |plan: &[PhaseRequest]| -> Vec<Fingerprint> {
            plan.iter().filter(|r| r.phase == PhaseId::Context).map(|r| r.fingerprint).collect()
        };
        assert_eq!((ctxs(&base).len(), ctxs(&peeled).len()), (1, 1));
        assert_ne!(ctxs(&base), ctxs(&peeled));
        assert_ne!(
            one(&base, PhaseId::Value).fingerprint,
            one(&peeled, PhaseId::Value).fingerprint
        );
    }

    #[test]
    fn annotations_reach_loopbound_but_not_value() {
        let base = plan_job(&job(AnalysisConfig::default())).unwrap();
        let mut annotated = job(AnalysisConfig::default());
        annotated.annotations = Annotations::new().loop_bound("loop", 9);
        let annotated = plan_job(&annotated).unwrap();
        fn one(plan: &[PhaseRequest], p: PhaseId) -> &PhaseRequest {
            plan.iter().find(|r| r.phase == p).unwrap()
        }
        for p in [PhaseId::Cfg, PhaseId::Value] {
            assert_eq!(one(&base, p).fingerprint, one(&annotated, p).fingerprint, "{p:?}");
        }
        assert_ne!(
            one(&base, PhaseId::LoopBound).fingerprint,
            one(&annotated, PhaseId::LoopBound).fingerprint
        );
        assert_ne!(
            one(&base, PhaseId::Path).fingerprint,
            one(&annotated, PhaseId::Path).fingerprint,
            "loop bounds chain into the path fingerprint"
        );
    }

    #[test]
    fn aliased_label_order_reaches_the_program_fingerprint() {
        // Two labels on one address: the forward symbol map is
        // identical either way, but `name_at` (and hence CFG function
        // names) keeps the first registered — the fingerprint must see
        // the difference or a shared Cfg would leak the other job's
        // function names.
        let a = stamp_isa::asm::assemble(".text\nmain:\nalias:\n halt\n").unwrap();
        let b = stamp_isa::asm::assemble(".text\nalias:\nmain:\n halt\n").unwrap();
        assert_ne!(program_fingerprint(&a), program_fingerprint(&b));
        // Sanity: the same source twice fingerprints equal.
        let a2 = stamp_isa::asm::assemble(".text\nmain:\nalias:\n halt\n").unwrap();
        assert_eq!(program_fingerprint(&a), program_fingerprint(&a2));
    }

    #[test]
    fn bad_source_is_a_plan_error() {
        let mut j = job(AnalysisConfig::default());
        j.source = ".text\nmain: frobnicate r1\n".to_string();
        let e = plan_job(&j).unwrap_err();
        assert!(e.contains("assemble"), "{e}");
    }
}
