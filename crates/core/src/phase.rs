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
//! | `loopbound`| `value` + resolved loop-bound annotations + iteration cap |
//! | `cache`    | `value` + I/D cache geometries |
//! | `pipeline` | `cache` + the whole `HwConfig` (timing and caches) |
//! | `path`     | `pipeline` + `loopbound` + `use_infeasible` + `summaries` |
//! | `stack`    | `value` (default-VIVU chain) + resolved recursion depths |
//! | `summary`  | the canonical byte form of one supergraph segment's ILP |
//!
//! Notably *absent* dependencies are what make cross-variant sharing
//! work: the CFG does not depend on any hardware knob, and the value
//! analysis reads the memory map but not cache geometry or timing — so
//! a `default` / `no-cache` / `ideal` hardware sweep shares one CFG,
//! one context expansion and one value fixpoint per target.

use std::collections::BTreeMap;

use stamp_ai::VivuConfig;
use stamp_hw::{CacheConfig, HwConfig, MemoryMap, Timing};
use stamp_isa::{Program, SectionKind};
use stamp_loopbound::LoopBoundOptions;
use stamp_value::{DomainKind, ValueOptions};

use crate::batch::BatchJob;
use crate::fingerprint::{Fingerprint, Fp};

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
    /// Supergraph → value-analysis fixpoint.
    Value,
    /// Value analysis → loop iteration bounds.
    LoopBound,
    /// Value analysis → cache classifications.
    Cache,
    /// Cache analysis → per-node pipeline times.
    Pipeline,
    /// Everything → worst-case path (IPET/ILP).
    Path,
    /// Value analysis (default-VIVU prefix) → stack bound.
    Stack,
    /// One canonical supergraph segment → its solved ILP summary
    /// (sub-artifacts of the path phase, shared across call sites,
    /// jobs and processes). Appended after `Stack` so the dense
    /// indices of the earlier phases stay stable on disk.
    Summary,
}

impl PhaseId {
    /// Every phase, in pipeline order.
    pub const ALL: [PhaseId; 10] = [
        PhaseId::Assemble,
        PhaseId::Cfg,
        PhaseId::Context,
        PhaseId::Value,
        PhaseId::LoopBound,
        PhaseId::Cache,
        PhaseId::Pipeline,
        PhaseId::Path,
        PhaseId::Stack,
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
            PhaseId::Stack => "stack",
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
            PhaseId::Stack => "stack analysis",
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
    let ValueOptions { domain, widen_delay, small_set } = *value;
    let mut fp = Fp::new("stamp/value/1");
    fp.fp(context);
    mem_fields(&mut fp, mem);
    fp.u8(match domain {
        DomainKind::Const => 0,
        DomainKind::Interval => 1,
        DomainKind::Strided => 2,
    });
    fp.u32(widen_delay);
    fp.u64(small_set);
    fp.finish()
}

/// `loopbound`: the value analysis plus resolved loop-bound annotations
/// and the iteration cap.
pub fn loopbound_fingerprint(value: Fingerprint, options: &LoopBoundOptions) -> Fingerprint {
    let LoopBoundOptions { ref annotations, max_iterations } = *options;
    let mut fp = Fp::new("stamp/loopbound/1");
    fp.fp(value);
    fp.u64(annotations.len() as u64);
    for (addr, bound) in annotations {
        fp.u32(*addr);
        fp.u64(*bound);
    }
    fp.u64(max_iterations);
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

/// `stack` (precise supergraph mode): the default-VIVU value chain plus
/// resolved recursion depths (which feed the per-function breakdown).
pub fn stack_fingerprint(value: Fingerprint, recursion: &BTreeMap<u32, u32>) -> Fingerprint {
    let mut fp = Fp::new("stamp/stack/1");
    fp.fp(value);
    fp.u64(recursion.len() as u64);
    for (addr, depth) in recursion {
        fp.u32(*addr);
        fp.u32(*depth);
    }
    fp.finish()
}

/// `stack` (compositional call-graph fallback for recursive tasks): the
/// CFG, the memory map, and resolved recursion depths.
pub fn stack_callgraph_fingerprint(
    cfg: Fingerprint,
    mem: &MemoryMap,
    recursion: &BTreeMap<u32, u32>,
) -> Fingerprint {
    let mut fp = Fp::new("stamp/stack-callgraph/1");
    fp.fp(cfg);
    mem_fields(&mut fp, mem);
    fp.u64(recursion.len() as u64);
    for (addr, depth) in recursion {
        fp.u32(*addr);
        fp.u32(*depth);
    }
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

/// Statically predicts the artifact requests a job will make, in
/// request order, *without running any analysis* (`stamp batch
/// --dry-run`). The prediction assembles the program (cheap) and then
/// chains fingerprints exactly as the drivers do.
///
/// Two approximations (both resolve only by running the analysis):
/// the CFG ↔ value-analysis feedback loop for indirect jumps is
/// predicted at iteration 0 (annotation-supplied targets only), so
/// programs with resolvable jump tables request a few more
/// `cfg`/`context`/`value` artifacts at run time than predicted; and
/// recursive tasks are predicted on the precise-mode stack chain,
/// while at run time their context expansion fails and the stack tool
/// takes the call-graph fallback (no `value` request, a
/// differently-keyed `stack` request).
///
/// # Errors
///
/// The assembler's message when the source does not assemble (the job
/// would fail the same way at run time).
pub fn plan_job(job: &BatchJob) -> Result<Vec<PhaseRequest>, String> {
    let mut requests = Vec::new();
    let mut push = |phase, fingerprint| requests.push(PhaseRequest { phase, fingerprint });

    let src_fp = source_fingerprint(&job.source);
    push(PhaseId::Assemble, src_fp);
    let program = stamp_isa::asm::assemble(&job.source).map_err(|e| format!("assemble: {e}"))?;
    let program_fp = program_fingerprint(&program);
    let indirects = job.annotations.resolved_indirects(&program);
    let cfg_fp = cfg_fingerprint(program_fp, &indirects);
    let recursion = job.annotations.resolved_recursion(&program);

    // The stack analysis runs first in a batch job, on the default-VIVU
    // prefix (stack bounds do not depend on unrolling contexts).
    push(PhaseId::Cfg, cfg_fp);
    let stack_ctx = context_fingerprint(cfg_fp, &VivuConfig::default());
    push(PhaseId::Context, stack_ctx);
    let stack_val = value_fingerprint(stack_ctx, &job.config.hw.mem, &ValueOptions::default());
    push(PhaseId::Value, stack_val);
    push(PhaseId::Stack, stack_fingerprint(stack_val, &recursion));

    if job.wcet {
        push(PhaseId::Cfg, cfg_fp);
        let ctx = context_fingerprint(cfg_fp, &job.config.vivu);
        push(PhaseId::Context, ctx);
        let val = value_fingerprint(ctx, &job.config.hw.mem, &job.config.value);
        push(PhaseId::Value, val);
        let lb_opts = LoopBoundOptions {
            annotations: job.annotations.resolved_loop_bounds(&program),
            ..LoopBoundOptions::default()
        };
        let lb = loopbound_fingerprint(val, &lb_opts);
        push(PhaseId::LoopBound, lb);
        let ca = cache_fingerprint(val, &job.config.hw);
        push(PhaseId::Cache, ca);
        let pi = pipeline_fingerprint(ca, &job.config.hw);
        push(PhaseId::Pipeline, pi);
        push(
            PhaseId::Path,
            path_fingerprint(pi, lb, job.config.use_infeasible, job.config.summaries),
        );
    }
    Ok(requests)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::AnalysisConfig;
    use crate::annot::Annotations;

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
        // Assemble/cfg/context/value/loopbound/stack: identical across
        // all three hardware variants (value reads only the memory map).
        for p in [
            PhaseId::Assemble,
            PhaseId::Cfg,
            PhaseId::Context,
            PhaseId::Value,
            PhaseId::LoopBound,
            PhaseId::Stack,
        ] {
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
        // The stack chain uses default VIVU, so only the *second*
        // (WCET-chain) context request differs.
        let ctxs = |plan: &[PhaseRequest]| -> Vec<Fingerprint> {
            plan.iter().filter(|r| r.phase == PhaseId::Context).map(|r| r.fingerprint).collect()
        };
        assert_eq!(ctxs(&base)[0], ctxs(&peeled)[0]);
        assert_ne!(ctxs(&base)[1], ctxs(&peeled)[1]);
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
