//! The cache-analysis fixpoint and hit/miss classification.

use std::collections::{BTreeSet, HashMap};

use stamp_ai::{solve, CtxId, Domain, Icfg, NodeId, Transfer};
use stamp_cfg::Cfg;
use stamp_hw::{CacheConfig, HwConfig};
use stamp_isa::{Insn, MemWidth};
use stamp_value::{SInt, ValueAnalysis};

use crate::{MayCache, MustCache, PersCache};

/// Classification of one memory reference, following aiT's terminology.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Classification {
    /// Always hit: the line is in the must cache in every execution.
    AlwaysHit,
    /// Always miss: the line is absent from the may cache.
    AlwaysMiss,
    /// Persistent: may miss once, afterwards always hits.
    Persistent,
    /// Not classified: anything can happen; treated as a miss.
    NotClassified,
}

/// The joint abstract state of the instruction and data caches: one
/// must/may/persistence triple per configured cache.
#[derive(Clone, Debug, PartialEq)]
pub struct CacheState {
    i: Option<CacheDomains>,
    d: Option<CacheDomains>,
}

impl Domain for CacheState {
    fn join_from(&mut self, other: &CacheState) -> bool {
        let mut changed = false;
        for (a, b) in [(&mut self.i, &other.i), (&mut self.d, &other.d)] {
            if let (Some(a), Some(b)) = (a, b) {
                changed |= a.join_from(b);
            }
        }
        changed
    }

    fn le(&self, other: &CacheState) -> bool {
        [(&self.i, &other.i), (&self.d, &other.d)].into_iter().all(|pair| match pair {
            (Some(a), Some(b)) => a.le(b),
            _ => true,
        })
    }
}

/// The must, may and persistence domains of one cache, updated in
/// lockstep.
#[derive(Clone, Debug, PartialEq)]
struct CacheDomains {
    must: MustCache,
    may: MayCache,
    pers: PersCache,
}

impl CacheDomains {
    fn new(config: CacheConfig) -> CacheDomains {
        CacheDomains {
            must: MustCache::new(config),
            may: MayCache::new(config),
            pers: PersCache::new(config),
        }
    }

    /// An access to the line containing `addr`.
    fn access(&mut self, addr: u32) {
        self.must.access(addr);
        self.may.access(addr);
        self.pers.access(addr);
    }

    /// The effect of one data load.
    fn load(&mut self, access: &DataAccess) {
        match access {
            DataAccess::Lines(lines) => {
                self.must.access_any(lines);
                self.may.access_any(lines);
                self.pers.access_any(lines);
            }
            DataAccess::Clobber(sets) => {
                self.must.clobber(sets.as_deref());
                self.may.clobber(sets.as_deref());
                self.pers.clobber(sets.as_deref());
            }
        }
    }

    fn join_from(&mut self, other: &CacheDomains) -> bool {
        let must = self.must.join_from(&other.must);
        let may = self.may.join_from(&other.may);
        let pers = self.pers.join_from(&other.pers);
        must | may | pers
    }

    fn le(&self, other: &CacheDomains) -> bool {
        self.must.le(&other.must) && self.may.le(&other.may) && self.pers.le(&other.pers)
    }

    /// Classifies an access to one of `lines`.
    fn classify(&self, lines: &[u32]) -> Classification {
        if !lines.is_empty() && lines.iter().all(|&l| self.must.definitely_cached(l)) {
            Classification::AlwaysHit
        } else if lines.iter().all(|&l| !self.may.possibly_cached(l)) {
            Classification::AlwaysMiss
        } else if !lines.is_empty() && lines.iter().all(|&l| self.pers.persistent(l)) {
            Classification::Persistent
        } else {
            Classification::NotClassified
        }
    }
}

/// One classified reference: the instruction fetch and, for loads, the
/// data access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessClass {
    /// Classification of the instruction fetch.
    pub fetch: Classification,
    /// Classification of the data access, for loads.
    pub data: Option<Classification>,
}

/// Aggregate classification counts (experiment E5).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Always-hit references.
    pub hit: usize,
    /// Always-miss references.
    pub miss: usize,
    /// Persistent references.
    pub persistent: usize,
    /// Unclassified references.
    pub unclassified: usize,
}

impl ClassStats {
    fn of(classes: impl Iterator<Item = Classification>) -> ClassStats {
        let mut s = ClassStats::default();
        for c in classes {
            match c {
                Classification::AlwaysHit => s.hit += 1,
                Classification::AlwaysMiss => s.miss += 1,
                Classification::Persistent => s.persistent += 1,
                Classification::NotClassified => s.unclassified += 1,
            }
        }
        s
    }

    /// Total classified references.
    pub fn total(&self) -> usize {
        self.hit + self.miss + self.persistent + self.unclassified
    }
}

/// Results of the cache analysis: per-(instruction, context)
/// classifications for fetches and data accesses.
pub struct CacheAnalysis {
    pub(crate) classes: HashMap<(u32, CtxId), AccessClass>,
    /// Distinct I-cache lines behind persistent fetches: each can miss
    /// at most once over the whole task.
    pub(crate) ps_fetch_lines: BTreeSet<u32>,
    /// Distinct D-cache lines behind persistent loads.
    pub(crate) ps_data_lines: BTreeSet<u32>,
    /// Solver node evaluations (scaling experiment).
    pub evaluations: u64,
}

/// Maximum number of candidate lines enumerated for a data access before
/// falling back to the sound clobber treatment.
const MAX_LINES: usize = 64;

/// Precomputed effect of one data access on the D-cache domains.
#[derive(Clone, Debug, PartialEq, Eq)]
enum DataAccess {
    /// Bounded candidate line set (possibly a single line).
    Lines(Vec<u32>),
    /// Too many candidates: clobber the given sets (`None` = all).
    Clobber(Option<Vec<u32>>),
}

struct CacheTransfer<'a> {
    cfg: &'a Cfg,
    icache: Option<CacheConfig>,
    dcache: Option<CacheConfig>,
    /// Supergraph edges the value analysis proved infeasible: the cache
    /// analysis must not propagate along them, both for precision and so
    /// that every visited node has value-analysis access information.
    infeasible: std::collections::HashSet<stamp_ai::IEdgeId>,
    /// Candidate-line information per load instance, precomputed once so
    /// no evaluation re-enumerates value-analysis address sets.
    data: HashMap<(u32, CtxId), DataAccess>,
    /// Each instruction instance's class, from the latest evaluation of
    /// its node.
    classes: HashMap<(u32, CtxId), AccessClass>,
}

/// The candidate line addresses of a data access, or `None` when too
/// many to enumerate.
pub(crate) fn lines_of(cfg: CacheConfig, addrs: &SInt, width: MemWidth) -> Option<Vec<u32>> {
    if addrs.count() > 4 * MAX_LINES as u64 {
        return None;
    }
    let mut lines: Vec<u32> = Vec::new();
    for a in addrs.iter() {
        for l in cfg.lines_touched(a, width.bytes()) {
            if !lines.contains(&l) {
                lines.push(l);
            }
        }
        if lines.len() > MAX_LINES {
            return None;
        }
    }
    Some(lines)
}

/// Precomputes the D-cache effect of every load instance in the
/// supergraph, so every evaluation, and the classification it records,
/// reads the same table instead of re-enumerating address sets per visit.
fn data_accesses(
    dcache: Option<CacheConfig>,
    cfg: &Cfg,
    icfg: &Icfg,
    va: &ValueAnalysis,
) -> HashMap<(u32, CtxId), DataAccess> {
    let mut data = HashMap::new();
    let Some(dc) = dcache else { return data };
    for nd in icfg.nodes() {
        for &(addr, insn) in &cfg.block(nd.block).insns {
            if !insn.is_load() {
                continue;
            }
            let info = va.access(addr, nd.ctx);
            let da = match info.and_then(|i| lines_of(dc, &i.addrs, i.width)) {
                Some(lines) => DataAccess::Lines(lines),
                None => DataAccess::Clobber(info.and_then(|i| sets_of(dc, &i.addrs))),
            };
            data.insert((addr, nd.ctx), da);
        }
    }
    data
}

/// The cache sets an unenumerable access might touch, if its range at
/// least bounds the set index; `None` means all sets.
pub(crate) fn sets_of(cfg: CacheConfig, addrs: &SInt) -> Option<Vec<u32>> {
    let span = addrs.hi() as u64 - addrs.lo() as u64;
    if span >= (cfg.sets() * cfg.line_bytes()) as u64 {
        return None;
    }
    let mut sets: Vec<u32> = Vec::new();
    let mut a = cfg.line_addr(addrs.lo());
    loop {
        let s = cfg.set_index(a);
        if !sets.contains(&s) {
            sets.push(s);
        }
        if a >= cfg.line_addr(addrs.hi()) {
            break;
        }
        a += cfg.line_bytes();
    }
    Some(sets)
}

impl CacheTransfer<'_> {
    /// Applies one instruction's cache effects: its fetch, unless it is
    /// from `prev_line`, and, for a load, its data access. A fetch from
    /// the line just fetched is an exact no-op in all three domains (the
    /// line is MRU with an empty conflict record), so consecutive
    /// same-line fetches — the common case with several instructions
    /// per line — are skipped; data accesses never touch the I-cache, so
    /// the skip holds across loads. Stores are write-around and do not
    /// touch the cache.
    fn step(
        &self,
        state: &mut CacheState,
        addr: u32,
        insn: &Insn,
        ctx: CtxId,
        prev_line: &mut Option<u32>,
    ) {
        if let (Some(i), Some(ic)) = (state.i.as_mut(), self.icache) {
            let line = Some(ic.line_addr(addr));
            if *prev_line != line {
                *prev_line = line;
                i.access(addr);
            }
        }
        if let Some(d) = state.d.as_mut().filter(|_| insn.is_load()) {
            d.load(self.data.get(&(addr, ctx)).expect("load effect precomputed"));
        }
    }

    /// Classifies the fetch of the instruction at `addr` and, for a
    /// load, its data access, in the state just before it executes.
    fn classify(&self, state: &CacheState, addr: u32, insn: &Insn, ctx: CtxId) -> AccessClass {
        let fetch = match (&state.i, self.icache) {
            (Some(i), Some(ic)) => i.classify(&[ic.line_addr(addr)]),
            // No cache configured: every access is a (flat-latency) miss.
            _ => Classification::AlwaysMiss,
        };
        let data = insn.is_load().then(|| match (&state.d, self.data.get(&(addr, ctx))) {
            (Some(d), Some(DataAccess::Lines(lines))) => d.classify(lines),
            (Some(_), _) => Classification::NotClassified,
            (None, _) => Classification::AlwaysMiss,
        });
        AccessClass { fetch, data }
    }
}

impl Transfer for CacheTransfer<'_> {
    type State = CacheState;

    fn boundary(&self) -> CacheState {
        CacheState { i: self.icache.map(CacheDomains::new), d: self.dcache.map(CacheDomains::new) }
    }

    fn transfer(&mut self, icfg: &Icfg, node: NodeId, input: &CacheState) -> CacheState {
        let n = icfg.node(node);
        let mut s = input.clone();
        let mut prev_line = None;
        for &(addr, insn) in &self.cfg.block(n.block).insns {
            // The last evaluation sees the node's final input, so the
            // class it records is the one that stands.
            let class = self.classify(&s, addr, &insn, n.ctx);
            self.classes.insert((addr, n.ctx), class);
            self.step(&mut s, addr, &insn, n.ctx, &mut prev_line);
        }
        s
    }

    fn edge<'s>(
        &mut self,
        _icfg: &Icfg,
        edge: &stamp_ai::IEdge,
        state: &'s CacheState,
    ) -> Option<std::borrow::Cow<'s, CacheState>> {
        (!self.infeasible.contains(&edge.id)).then_some(std::borrow::Cow::Borrowed(state))
    }
}

impl CacheAnalysis {
    /// Runs the must/may/persistence analyses over the supergraph and
    /// classifies every instruction fetch and data load.
    pub fn run(hw: &HwConfig, cfg: &Cfg, icfg: &Icfg, va: &ValueAnalysis) -> CacheAnalysis {
        let mut transfer = CacheTransfer {
            cfg,
            icache: hw.icache,
            dcache: hw.dcache,
            infeasible: va.infeasible_edges().iter().copied().collect(),
            data: data_accesses(hw.dcache, cfg, icfg, va),
            classes: HashMap::new(),
        };
        // Cache domains have finite ascending chains; plain join suffices
        // (widening = join), so the delay value is irrelevant.
        let fixpoint = solve(icfg, &mut transfer, u32::MAX);

        let mut ps_fetch_lines = BTreeSet::new();
        let mut ps_data_lines = BTreeSet::new();
        for (&(addr, ctx), class) in &transfer.classes {
            if let (Classification::Persistent, Some(ic)) = (class.fetch, hw.icache) {
                ps_fetch_lines.insert(ic.line_addr(addr));
            }
            if let (Some(Classification::Persistent), Some(DataAccess::Lines(lines))) =
                (class.data, transfer.data.get(&(addr, ctx)))
            {
                ps_data_lines.extend(lines.iter().copied());
            }
        }

        CacheAnalysis {
            classes: transfer.classes,
            ps_fetch_lines,
            ps_data_lines,
            evaluations: fixpoint.evaluations,
        }
    }

    /// Distinct I-cache lines behind persistent fetches. Each misses at
    /// most once over the whole task, so pricing persistent fetches as
    /// hits is sound after adding one miss penalty per line.
    pub fn ps_fetch_lines(&self) -> &BTreeSet<u32> {
        &self.ps_fetch_lines
    }

    /// Distinct D-cache lines behind persistent loads (see
    /// [`CacheAnalysis::ps_fetch_lines`]).
    pub fn ps_data_lines(&self) -> &BTreeSet<u32> {
        &self.ps_data_lines
    }

    /// The classification of the instruction at `addr` in context `ctx`.
    pub fn class(&self, addr: u32, ctx: CtxId) -> Option<AccessClass> {
        self.classes.get(&(addr, ctx)).copied()
    }

    /// All classifications.
    pub fn classes(&self) -> &HashMap<(u32, CtxId), AccessClass> {
        &self.classes
    }

    /// Aggregate fetch statistics over all instruction instances.
    pub fn fetch_stats(&self) -> ClassStats {
        ClassStats::of(self.classes.values().map(|c| c.fetch))
    }

    /// Aggregate data-access statistics over all load instances.
    pub fn data_stats(&self) -> ClassStats {
        ClassStats::of(self.classes.values().filter_map(|c| c.data))
    }
}

impl stamp_codec::Codec for Classification {
    fn enc(&self, e: &mut stamp_codec::Enc) {
        e.u8(match self {
            Classification::AlwaysHit => 0,
            Classification::AlwaysMiss => 1,
            Classification::Persistent => 2,
            Classification::NotClassified => 3,
        });
    }
    fn dec(d: &mut stamp_codec::Dec) -> Result<Classification, stamp_codec::CodecError> {
        match d.u8()? {
            0 => Ok(Classification::AlwaysHit),
            1 => Ok(Classification::AlwaysMiss),
            2 => Ok(Classification::Persistent),
            3 => Ok(Classification::NotClassified),
            _ => Err(stamp_codec::CodecError::Invalid("classification")),
        }
    }
}

impl stamp_codec::Codec for AccessClass {
    fn enc(&self, e: &mut stamp_codec::Enc) {
        self.fetch.enc(e);
        self.data.enc(e);
    }
    fn dec(d: &mut stamp_codec::Dec) -> Result<AccessClass, stamp_codec::CodecError> {
        Ok(AccessClass { fetch: Classification::dec(d)?, data: Option::dec(d)? })
    }
}

impl stamp_codec::Codec for CacheAnalysis {
    fn enc(&self, e: &mut stamp_codec::Enc) {
        self.classes.enc(e);
        self.ps_fetch_lines.enc(e);
        self.ps_data_lines.enc(e);
        e.u64(self.evaluations);
    }
    fn dec(d: &mut stamp_codec::Dec) -> Result<CacheAnalysis, stamp_codec::CodecError> {
        Ok(CacheAnalysis {
            classes: HashMap::dec(d)?,
            ps_fetch_lines: stamp_codec::Codec::dec(d)?,
            ps_data_lines: stamp_codec::Codec::dec(d)?,
            evaluations: d.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stamp_ai::VivuConfig;
    use stamp_cfg::CfgBuilder;
    use stamp_isa::asm::assemble;
    use stamp_value::ValueOptions;

    fn analyze(src: &str, hw: &HwConfig) -> (Icfg, CacheAnalysis) {
        let p = assemble(src).expect("assembles");
        let cfg = CfgBuilder::new(&p).build().expect("builds");
        let icfg = Icfg::build(&cfg, &VivuConfig::default()).expect("expands");
        let va = ValueAnalysis::run(&p, hw, &cfg, &icfg, &ValueOptions::default());
        let ca = CacheAnalysis::run(hw, &cfg, &icfg, &va);
        (icfg, ca)
    }

    #[test]
    fn loop_fetches_hit_in_steady_state() {
        let hw = HwConfig::default();
        let (icfg, ca) =
            analyze(".text\nmain: li r1, 9\nloop: addi r1, r1, -1\nbnez r1, loop\nhalt\n", &hw);
        // In the iteration ≥ 1 context the loop instructions must-hit.
        let stats = ca.fetch_stats();
        assert!(stats.hit >= 2, "expected steady-state hits, got {stats:?}");
        // The very first fetch is an always-miss (cold cache).
        let entry = icfg.entry();
        let nd = icfg.node(entry);
        let first = ca.class(0, nd.ctx).unwrap();
        assert_eq!(first.fetch, Classification::AlwaysMiss);
    }

    #[test]
    fn repeated_scalar_load_hits() {
        let hw = HwConfig::default();
        let src = "\
            .text
            main: la r1, v
                  lw r2, 0(r1)
                  lw r3, 0(r1)
                  halt
            .data
            v:    .word 7
        ";
        let (icfg, ca) = analyze(src, &hw);
        let nd = icfg.node(icfg.entry());
        // First load misses (cold), second must-hits.
        let l1 = ca.class(8, nd.ctx).unwrap().data.unwrap();
        let l2 = ca.class(12, nd.ctx).unwrap().data.unwrap();
        assert_eq!(l1, Classification::AlwaysMiss);
        assert_eq!(l2, Classification::AlwaysHit);
    }

    #[test]
    fn strided_array_walk_is_bounded_not_hit() {
        let hw = HwConfig::default();
        let src = "\
            .text
            main: li r1, 0
                  la r2, arr
            loop: slli r3, r1, 2
                  add r3, r2, r3
                  lw r4, 0(r3)
                  addi r1, r1, 1
                  slti r5, r1, 8
                  bnez r5, loop
                  halt
            .data
            arr:  .space 32
        ";
        let (_icfg, ca) = analyze(src, &hw);
        let d = ca.data_stats();
        // The walk touches two 16-byte lines; accesses cannot be
        // classified always-hit in the joined contexts, but they are
        // bounded (not a full clobber).
        assert!(d.total() > 0);
        assert_eq!(d.hit, 0);
    }

    #[test]
    fn unknown_pointer_load_clobbers_dcache_soundly() {
        let hw = HwConfig::default(); // 2-way D-cache
        let src = "\
            .text
            main: la r1, p
                  lw r2, 0(r1)      ; exact: p
                  lw r3, 0(r2)      ; unknown target — ages p by 1
                  lw r4, 0(r1)      ; still guaranteed (age 1 < assoc 2)
                  lw r5, 0(r2)      ; p ages again...
                  lw r6, 0(r2)      ; ...and again — beyond associativity
                  lw r7, 0(r1)      ; p may have been evicted: not a hit
                  halt
            .data
            p:    .word 0
        ";
        let (icfg, ca) = analyze(src, &hw);
        let nd = icfg.node(icfg.entry());
        // One unknown access cannot displace a just-loaded line of a
        // 2-way cache: the re-load is provably a hit.
        let third = ca.class(16, nd.ctx).unwrap().data.unwrap();
        assert_eq!(third, Classification::AlwaysHit);
        // But after enough unknown accesses the guarantee is gone.
        let last = ca.class(28, nd.ctx).unwrap().data.unwrap();
        assert_ne!(last, Classification::AlwaysHit);
    }

    #[test]
    fn no_cache_means_always_miss() {
        let hw = HwConfig::no_cache();
        let (_icfg, ca) =
            analyze(".text\nmain: li r1, 2\nloop: addi r1, r1, -1\nbnez r1, loop\nhalt\n", &hw);
        let f = ca.fetch_stats();
        assert_eq!(f.hit, 0);
        assert_eq!(f.persistent, 0);
        assert_eq!(f.unclassified, 0);
        assert!(f.miss > 0);
    }

    #[test]
    fn persistence_detects_loop_resident_line() {
        // A single word re-loaded every iteration: persistent (and in
        // the steady-state context even always-hit).
        let hw = HwConfig::default();
        let src = "\
            .text
            main: li r1, 6
                  la r2, v
            loop: lw r3, 0(r2)
                  addi r1, r1, -1
                  bnez r1, loop
                  halt
            .data
            v:    .word 1
        ";
        let (_icfg, ca) = analyze(src, &hw);
        let d = ca.data_stats();
        assert!(d.hit >= 1, "steady-state load hits: {d:?}");
    }
}
