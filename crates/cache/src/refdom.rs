//! Naive reference implementation of the cache domains (test-only).
//!
//! This module is the *executable specification* the optimized domains in
//! [`crate::absdom`] and the optimized transfer in [`crate::analysis`]
//! are differentially tested against. Everything here favors obvious
//! correctness over speed:
//!
//! * abstract cache sets are plain `BTreeMap`s (no inline arrays, no
//!   copy-on-write sharing),
//! * persistence conflict records are `BTreeSet`s of line addresses,
//! * data-access line sets are re-enumerated from the value analysis on
//!   **every** solver visit (no precomputed table), and
//! * every instruction fetch is applied — the same-line fetch skip of the
//!   optimized transfer is deliberately absent, so the differential tests
//!   also validate that the skip is an exact no-op.
//!
//! The fixpoint is driven by [`stamp_ai::solve`], whose equivalence to
//! the naive textbook solver is checked separately (`stamp_ai`'s
//! `tests/worklist_diff.rs`), so a divergence here is a domain or
//! transfer divergence. [`run_reference`] produces a full
//! [`CacheAnalysis`] from these domains for the lockstep tests below.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use stamp_ai::{solve, CtxId, Domain, Icfg, NodeId, Transfer};
use stamp_cfg::Cfg;
use stamp_hw::{CacheConfig, HwConfig};
use stamp_value::ValueAnalysis;

use crate::analysis::{lines_of, sets_of, AccessClass, CacheAnalysis, Classification};

/// Reference must cache: one `line → age upper bound` map per cache set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct RefMust {
    config: CacheConfig,
    sets: Vec<BTreeMap<u32, u8>>,
}

impl RefMust {
    pub(crate) fn new(config: CacheConfig) -> RefMust {
        RefMust { config, sets: vec![BTreeMap::new(); config.sets() as usize] }
    }

    pub(crate) fn definitely_cached(&self, addr: u32) -> bool {
        self.sets[self.config.set_index(addr) as usize].contains_key(&self.config.line_addr(addr))
    }

    pub(crate) fn access(&mut self, addr: u32) {
        let a = self.config.assoc() as u8;
        let line = self.config.line_addr(addr);
        let set = &mut self.sets[self.config.set_index(addr) as usize];
        let z_age = set.get(&line).copied().unwrap_or(a);
        let mut next = BTreeMap::new();
        for (&y, &age) in set.iter() {
            if y != line && age < z_age {
                if age + 1 < a {
                    next.insert(y, age + 1);
                }
            } else {
                next.insert(y, age);
            }
        }
        next.insert(line, 0);
        *set = next;
    }

    pub(crate) fn access_any(&mut self, lines: &[u32]) {
        join_over_lines(self, lines, RefMust::access, RefMust::join_from);
    }

    pub(crate) fn clobber(&mut self, set_indices: Option<&[u32]>) {
        let a = self.config.assoc() as u8;
        for si in ref_sets(self.config.sets(), set_indices) {
            let set = &mut self.sets[si];
            *set = set
                .iter()
                .filter(|&(_, &age)| age + 1 < a)
                .map(|(&l, &age)| (l, age + 1))
                .collect();
        }
    }

    pub(crate) fn join_from(&mut self, other: &RefMust) -> bool {
        let mut changed = false;
        for (s, o) in self.sets.iter_mut().zip(other.sets.iter()) {
            let next: BTreeMap<u32, u8> =
                s.iter().filter_map(|(&l, &age)| o.get(&l).map(|&oa| (l, age.max(oa)))).collect();
            if *s != next {
                changed = true;
                *s = next;
            }
        }
        changed
    }

    fn le(&self, other: &RefMust) -> bool {
        self.sets
            .iter()
            .zip(other.sets.iter())
            .all(|(s, o)| o.iter().all(|(l, oa)| s.get(l).is_some_and(|sa| sa <= oa)))
    }
}

/// Reference may cache set: `Top` means "any line at any age".
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum RefMaySet {
    Map(BTreeMap<u32, u8>),
    Top,
}

/// Reference may cache: one `line → age lower bound` map per cache set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct RefMay {
    config: CacheConfig,
    sets: Vec<RefMaySet>,
}

impl RefMay {
    pub(crate) fn new(config: CacheConfig) -> RefMay {
        RefMay { config, sets: vec![RefMaySet::Map(BTreeMap::new()); config.sets() as usize] }
    }

    pub(crate) fn possibly_cached(&self, addr: u32) -> bool {
        match &self.sets[self.config.set_index(addr) as usize] {
            RefMaySet::Map(m) => m.contains_key(&self.config.line_addr(addr)),
            RefMaySet::Top => true,
        }
    }

    pub(crate) fn access(&mut self, addr: u32) {
        let a = self.config.assoc() as u8;
        let line = self.config.line_addr(addr);
        let RefMaySet::Map(set) = &mut self.sets[self.config.set_index(addr) as usize] else {
            return; // ⊤ stays ⊤ (still sound)
        };
        let z_age = set.get(&line).copied().unwrap_or(a);
        let mut next = BTreeMap::new();
        for (&y, &age) in set.iter() {
            if y != line && age < z_age {
                if age + 1 < a {
                    next.insert(y, age + 1);
                }
            } else {
                next.insert(y, age);
            }
        }
        next.insert(line, 0);
        *set = next;
    }

    pub(crate) fn access_any(&mut self, lines: &[u32]) {
        join_over_lines(self, lines, RefMay::access, RefMay::join_from);
    }

    pub(crate) fn clobber(&mut self, set_indices: Option<&[u32]>) {
        for si in ref_sets(self.config.sets(), set_indices) {
            self.sets[si] = RefMaySet::Top;
        }
    }

    pub(crate) fn join_from(&mut self, other: &RefMay) -> bool {
        let mut changed = false;
        for (s, o) in self.sets.iter_mut().zip(other.sets.iter()) {
            match (&mut *s, o) {
                (RefMaySet::Top, _) => {}
                (RefMaySet::Map(_), RefMaySet::Top) => {
                    *s = RefMaySet::Top;
                    changed = true;
                }
                (RefMaySet::Map(sm), RefMaySet::Map(om)) => {
                    for (&l, &oa) in om.iter() {
                        match sm.get(&l) {
                            Some(&sa) if sa <= oa => {}
                            _ => {
                                sm.insert(l, oa);
                                changed = true;
                            }
                        }
                    }
                }
            }
        }
        changed
    }

    fn le(&self, other: &RefMay) -> bool {
        self.sets.iter().zip(other.sets.iter()).all(|(s, o)| match (s, o) {
            (_, RefMaySet::Top) => true,
            (RefMaySet::Top, RefMaySet::Map(_)) => false,
            (RefMaySet::Map(sm), RefMaySet::Map(om)) => {
                sm.iter().all(|(l, sa)| om.get(l).is_some_and(|oa| oa <= sa))
            }
        })
    }
}

/// Reference conflict record: the distinct other lines possibly accessed
/// since the line's last access, or saturated (`Sat` = may be evicted).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum RefConflicts {
    Among(BTreeSet<u32>),
    Sat,
}

impl RefConflicts {
    fn none() -> RefConflicts {
        RefConflicts::Among(BTreeSet::new())
    }

    /// Mirrors [`crate::absdom`]'s `Conflicts::add`: a record saturates
    /// the moment it would reach `assoc` distinct conflicting lines.
    fn add(&mut self, line: u32, assoc: u8) {
        if let RefConflicts::Among(set) = self {
            if set.contains(&line) {
                return;
            }
            if set.len() + 1 >= assoc as usize {
                *self = RefConflicts::Sat;
            } else {
                set.insert(line);
            }
        }
    }

    fn union(&mut self, other: &RefConflicts, assoc: u8) {
        match other {
            RefConflicts::Sat => *self = RefConflicts::Sat,
            RefConflicts::Among(lines) => {
                for &l in lines {
                    self.add(l, assoc);
                }
            }
        }
    }

    fn subset_of(&self, other: &RefConflicts) -> bool {
        match (self, other) {
            (_, RefConflicts::Sat) => true,
            (RefConflicts::Sat, RefConflicts::Among(_)) => false,
            (RefConflicts::Among(s), RefConflicts::Among(o)) => s.is_subset(o),
        }
    }
}

/// Reference persistence cache: `line → conflict set` per cache set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct RefPers {
    config: CacheConfig,
    sets: Vec<BTreeMap<u32, RefConflicts>>,
}

impl RefPers {
    pub(crate) fn new(config: CacheConfig) -> RefPers {
        RefPers { config, sets: vec![BTreeMap::new(); config.sets() as usize] }
    }

    pub(crate) fn persistent(&self, addr: u32) -> bool {
        matches!(
            self.sets[self.config.set_index(addr) as usize].get(&self.config.line_addr(addr)),
            Some(RefConflicts::Among(_))
        )
    }

    pub(crate) fn access(&mut self, addr: u32) {
        let a = self.config.assoc() as u8;
        let line = self.config.line_addr(addr);
        let set = &mut self.sets[self.config.set_index(addr) as usize];
        for (&l, c) in set.iter_mut() {
            if l != line {
                c.add(line, a);
            }
        }
        set.insert(line, RefConflicts::none());
    }

    pub(crate) fn access_any(&mut self, lines: &[u32]) {
        join_over_lines(self, lines, RefPers::access, RefPers::join_from);
    }

    pub(crate) fn clobber(&mut self, set_indices: Option<&[u32]>) {
        for si in ref_sets(self.config.sets(), set_indices) {
            for (_, c) in self.sets[si].iter_mut() {
                *c = RefConflicts::Sat;
            }
        }
    }

    pub(crate) fn join_from(&mut self, other: &RefPers) -> bool {
        let a = self.config.assoc() as u8;
        let mut changed = false;
        for (s, o) in self.sets.iter_mut().zip(other.sets.iter()) {
            for (&l, oc) in o.iter() {
                match s.get_mut(&l) {
                    Some(sc) => {
                        if !oc.subset_of(sc) {
                            sc.union(oc, a);
                            changed = true;
                        }
                    }
                    None => {
                        s.insert(l, oc.clone());
                        changed = true;
                    }
                }
            }
        }
        changed
    }

    fn le(&self, other: &RefPers) -> bool {
        self.sets
            .iter()
            .zip(other.sets.iter())
            .all(|(s, o)| s.iter().all(|(l, sc)| o.get(l).is_some_and(|oc| sc.subset_of(oc))))
    }
}

/// The set indices an operation touches (`None` = all sets).
fn ref_sets(sets: u32, set_indices: Option<&[u32]>) -> Vec<usize> {
    match set_indices {
        Some(idx) => idx.iter().map(|&si| si as usize).collect(),
        None => (0..sets as usize).collect(),
    }
}

/// Access with several candidate lines: join of the per-line outcomes
/// (the literal definition the optimized `access_any` implements).
fn join_over_lines<D: Clone>(
    dom: &mut D,
    lines: &[u32],
    mut access: impl FnMut(&mut D, u32),
    mut join: impl FnMut(&mut D, &D) -> bool,
) {
    match lines {
        [] => {}
        [one] => access(dom, *one),
        _ => {
            let mut acc: Option<D> = None;
            for &l in lines {
                let mut c = dom.clone();
                access(&mut c, l);
                acc = Some(match acc {
                    None => c,
                    Some(mut p) => {
                        join(&mut p, &c);
                        p
                    }
                });
            }
            *dom = acc.expect("non-empty lines");
        }
    }
}

/// The joint reference state of the instruction and data caches.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct RefState {
    imust: Option<RefMust>,
    imay: Option<RefMay>,
    ipers: Option<RefPers>,
    dmust: Option<RefMust>,
    dmay: Option<RefMay>,
    dpers: Option<RefPers>,
}

impl RefState {
    fn new(icache: Option<CacheConfig>, dcache: Option<CacheConfig>) -> RefState {
        RefState {
            imust: icache.map(RefMust::new),
            imay: icache.map(RefMay::new),
            ipers: icache.map(RefPers::new),
            dmust: dcache.map(RefMust::new),
            dmay: dcache.map(RefMay::new),
            dpers: dcache.map(RefPers::new),
        }
    }
}

impl Domain for RefState {
    fn join_from(&mut self, other: &RefState) -> bool {
        let mut ch = false;
        macro_rules! j {
            ($f:ident) => {
                if let (Some(a), Some(b)) = (self.$f.as_mut(), other.$f.as_ref()) {
                    ch |= a.join_from(b);
                }
            };
        }
        j!(imust);
        j!(imay);
        j!(ipers);
        j!(dmust);
        j!(dmay);
        j!(dpers);
        ch
    }

    fn le(&self, other: &RefState) -> bool {
        macro_rules! l {
            ($f:ident) => {
                match (self.$f.as_ref(), other.$f.as_ref()) {
                    (Some(a), Some(b)) => a.le(b),
                    _ => true,
                }
            };
        }
        l!(imust) && l!(imay) && l!(ipers) && l!(dmust) && l!(dmay) && l!(dpers)
    }
}

/// Classifies one reference against the reference state.
fn ref_classify(state: &RefState, lines: &[u32], data: bool) -> Classification {
    let (must, may, pers) = if data {
        (&state.dmust, &state.dmay, &state.dpers)
    } else {
        (&state.imust, &state.imay, &state.ipers)
    };
    match (must, may, pers) {
        (Some(must), Some(may), Some(pers)) => {
            if !lines.is_empty() && lines.iter().all(|&l| must.definitely_cached(l)) {
                Classification::AlwaysHit
            } else if lines.iter().all(|&l| !may.possibly_cached(l)) {
                Classification::AlwaysMiss
            } else if !lines.is_empty() && lines.iter().all(|&l| pers.persistent(l)) {
                Classification::Persistent
            } else {
                Classification::NotClassified
            }
        }
        _ => Classification::AlwaysMiss,
    }
}

struct RefTransfer<'a> {
    cfg: &'a Cfg,
    va: &'a ValueAnalysis,
    icache: Option<CacheConfig>,
    dcache: Option<CacheConfig>,
    infeasible: std::collections::HashSet<stamp_ai::IEdgeId>,
}

/// The candidate lines of one load, re-enumerated from the value
/// analysis (`None` = clobber of the given sets, `None` sets = all).
enum RefAccess {
    Lines(Vec<u32>),
    Clobber(Option<Vec<u32>>),
}

impl RefTransfer<'_> {
    fn data_access(&self, dc: CacheConfig, addr: u32, ctx: CtxId) -> RefAccess {
        let info = self.va.access(addr, ctx);
        match info.and_then(|i| lines_of(dc, &i.addrs, i.width)) {
            Some(lines) => RefAccess::Lines(lines),
            None => RefAccess::Clobber(info.and_then(|i| sets_of(dc, &i.addrs))),
        }
    }

    /// Applies one instruction. Unlike the optimized transfer, every
    /// fetch is applied — there is no same-line skip.
    fn apply_insn(&self, state: &mut RefState, addr: u32, insn: &stamp_isa::Insn, ctx: CtxId) {
        if let Some(m) = state.imust.as_mut() {
            m.access(addr);
        }
        if let Some(m) = state.imay.as_mut() {
            m.access(addr);
        }
        if let Some(m) = state.ipers.as_mut() {
            m.access(addr);
        }
        if insn.is_load() {
            let Some(dc) = self.dcache else { return };
            match self.data_access(dc, addr, ctx) {
                RefAccess::Lines(lines) => {
                    if let Some(m) = state.dmust.as_mut() {
                        m.access_any(&lines);
                    }
                    if let Some(m) = state.dmay.as_mut() {
                        m.access_any(&lines);
                    }
                    if let Some(m) = state.dpers.as_mut() {
                        m.access_any(&lines);
                    }
                }
                RefAccess::Clobber(sets) => {
                    if let Some(m) = state.dmust.as_mut() {
                        m.clobber(sets.as_deref());
                    }
                    if let Some(m) = state.dmay.as_mut() {
                        m.clobber(sets.as_deref());
                    }
                    if let Some(m) = state.dpers.as_mut() {
                        m.clobber(sets.as_deref());
                    }
                }
            }
        }
    }
}

impl Transfer for RefTransfer<'_> {
    type State = RefState;

    fn boundary(&self) -> RefState {
        RefState::new(self.icache, self.dcache)
    }

    fn transfer(&mut self, icfg: &Icfg, node: NodeId, input: &RefState) -> RefState {
        let n = icfg.node(node);
        let mut s = input.clone();
        for &(addr, insn) in &self.cfg.block(n.block).insns {
            self.apply_insn(&mut s, addr, &insn, n.ctx);
        }
        s
    }

    fn edge<'s>(
        &mut self,
        _icfg: &Icfg,
        edge: &stamp_ai::IEdge,
        state: &'s RefState,
    ) -> Option<std::borrow::Cow<'s, RefState>> {
        if self.infeasible.contains(&edge.id) {
            None
        } else {
            Some(std::borrow::Cow::Borrowed(state))
        }
    }
}

/// Runs the reference cache analysis: naive domains, naive solver,
/// per-visit address enumeration. See the module docs.
pub(crate) fn run_reference(
    hw: &HwConfig,
    cfg: &Cfg,
    icfg: &Icfg,
    va: &ValueAnalysis,
) -> CacheAnalysis {
    let mut transfer = RefTransfer {
        cfg,
        va,
        icache: hw.icache,
        dcache: hw.dcache,
        infeasible: va.infeasible_edges().iter().copied().collect(),
    };
    let fixpoint = solve(icfg, &mut transfer, u32::MAX);

    let mut classes = HashMap::new();
    let mut ps_fetch_lines = BTreeSet::new();
    let mut ps_data_lines = BTreeSet::new();
    for nd in icfg.nodes() {
        let Some(input) = fixpoint.input(nd.id) else { continue };
        let mut s = input.clone();
        for &(addr, insn) in &cfg.block(nd.block).insns {
            let fetch = match hw.icache {
                Some(ic) => {
                    let c = ref_classify(&s, &[ic.line_addr(addr)], false);
                    if c == Classification::Persistent {
                        ps_fetch_lines.insert(ic.line_addr(addr));
                    }
                    c
                }
                None => Classification::AlwaysMiss,
            };
            let data = if insn.is_load() {
                Some(match hw.dcache {
                    Some(dc) => match transfer.data_access(dc, addr, nd.ctx) {
                        RefAccess::Lines(lines) => {
                            let c = ref_classify(&s, &lines, true);
                            if c == Classification::Persistent {
                                ps_data_lines.extend(lines.iter().copied());
                            }
                            c
                        }
                        RefAccess::Clobber(_) => Classification::NotClassified,
                    },
                    None => Classification::AlwaysMiss,
                })
            } else {
                None
            };
            classes.insert((addr, nd.ctx), AccessClass { fetch, data });
            transfer.apply_insn(&mut s, addr, &insn, nd.ctx);
        }
    }

    CacheAnalysis { classes, ps_fetch_lines, ps_data_lines, evaluations: fixpoint.evaluations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use stamp_ai::VivuConfig;
    use stamp_cfg::CfgBuilder;
    use stamp_isa::asm::assemble;
    use stamp_value::ValueOptions;

    /// The reference analysis and the optimized analysis must agree on
    /// every classification and on the persistent line sets.
    fn check(src: &str, hw: &HwConfig) {
        let p = assemble(src).expect("assembles");
        let cfg = CfgBuilder::new(&p).build().expect("builds");
        let icfg = Icfg::build(&cfg, &VivuConfig::default()).expect("expands");
        let va = ValueAnalysis::run(&p, hw, &cfg, &icfg, &ValueOptions::default());
        let fast = CacheAnalysis::run(hw, &cfg, &icfg, &va);
        let reference = run_reference(hw, &cfg, &icfg, &va);
        let mut keys: Vec<_> = fast.classes().keys().copied().collect();
        keys.sort_unstable();
        let mut ref_keys: Vec<_> = reference.classes().keys().copied().collect();
        ref_keys.sort_unstable();
        assert_eq!(keys, ref_keys);
        for k in &keys {
            assert_eq!(fast.classes()[k], reference.classes()[k], "at {k:?}");
        }
        assert_eq!(fast.ps_fetch_lines(), reference.ps_fetch_lines());
        assert_eq!(fast.ps_data_lines(), reference.ps_data_lines());
    }

    #[test]
    fn reference_matches_optimized_on_loops_and_loads() {
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
        check(src, &HwConfig::default());
        check(src, &HwConfig::no_cache());
    }

    #[test]
    fn reference_matches_optimized_on_calls_and_clobbers() {
        let src = "\
            .text
            main: la r1, p
                  call f
                  call f
                  halt
            f:    lw r2, 0(r1)
                  lw r3, 0(r2)
                  ret
            .data
            p:    .word 0
        ";
        check(src, &HwConfig::default());
        let small = HwConfig {
            icache: Some(stamp_hw::CacheConfig::new(2, 2, 16)),
            dcache: Some(stamp_hw::CacheConfig::new(2, 2, 16)),
            ..HwConfig::default()
        };
        check(src, &small);
    }

    // ---- boundary proptests: optimized domains vs reference domains ----

    /// One operation applied in lockstep to an optimized domain and its
    /// reference twin.
    #[derive(Clone, Debug)]
    enum Op {
        Access(u32),
        AccessAny(Vec<u32>),
        ClobberAll,
        ClobberSet(u32),
        /// Join the secondary state pair into the primary one.
        Join,
        /// Reset the secondary state pair to the primary one.
        Fork,
    }

    /// A tiny geometry keeps every access at the `age + 1 == assoc`
    /// eviction boundary and saturates persistence records quickly.
    fn geometry() -> CacheConfig {
        stamp_hw::CacheConfig::new(2, 2, 16)
    }

    fn universe(cfg: CacheConfig) -> Vec<u32> {
        (0..8u32).map(|i| i * cfg.line_bytes()).collect()
    }

    fn op_strategy(cfg: CacheConfig) -> impl Strategy<Value = Op> {
        let lb = cfg.line_bytes();
        prop_oneof![
            4 => (0..8u32).prop_map(move |i| Op::Access(i * lb)),
            2 => proptest::collection::vec((0..8u32).prop_map(move |i| i * lb), 1..4)
                .prop_map(Op::AccessAny),
            1 => Just(Op::ClobberAll),
            1 => (0..cfg.sets()).prop_map(Op::ClobberSet),
            1 => Just(Op::Join),
            1 => Just(Op::Fork),
        ]
    }

    /// Drives an optimized domain and its reference twin through the same
    /// operation sequence, comparing the classifying query after each
    /// step.
    fn lockstep<F, R>(
        ops: &[Op],
        fast0: F,
        ref0: R,
        fast_step: impl Fn(&mut F, &Op, &F) -> Option<F>,
        ref_step: impl Fn(&mut R, &Op, &R) -> Option<R>,
        agree: impl Fn(&F, &R, u32) -> bool,
    ) where
        F: Clone,
        R: Clone,
    {
        let cfg = geometry();
        let (mut f, mut fb) = (fast0.clone(), fast0);
        let (mut r, mut rb) = (ref0.clone(), ref0);
        for op in ops {
            if let Some(nf) = fast_step(&mut f, op, &fb) {
                fb = nf;
            }
            if let Some(nr) = ref_step(&mut r, op, &rb) {
                rb = nr;
            }
            for &a in &universe(cfg) {
                assert!(agree(&f, &r, a), "disagree at {a:#x} after {op:?}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Must-cache eviction at `age + 1 == assoc` matches the naive
        /// domain through arbitrary access/clobber/join sequences.
        #[test]
        fn must_matches_reference(ops in proptest::collection::vec(op_strategy(geometry()), 1..40)) {
            let cfg = geometry();
            let step_fast = |d: &mut crate::MustCache, op: &Op, b: &crate::MustCache| -> Option<crate::MustCache> {
                match op {
                    Op::Access(a) => d.access(*a),
                    Op::AccessAny(ls) => d.access_any(ls),
                    Op::ClobberAll => d.clobber(None),
                    Op::ClobberSet(s) => d.clobber(Some(&[*s])),
                    Op::Join => { d.join_from(b); }
                    Op::Fork => return Some(d.clone()),
                }
                None
            };
            let step_ref = |d: &mut RefMust, op: &Op, b: &RefMust| -> Option<RefMust> {
                match op {
                    Op::Access(a) => d.access(*a),
                    Op::AccessAny(ls) => d.access_any(ls),
                    Op::ClobberAll => d.clobber(None),
                    Op::ClobberSet(s) => d.clobber(Some(&[*s])),
                    Op::Join => { d.join_from(b); }
                    Op::Fork => return Some(d.clone()),
                }
                None
            };
            lockstep(
                &ops,
                crate::MustCache::new(cfg),
                RefMust::new(cfg),
                step_fast,
                step_ref,
                |f, r, a| f.definitely_cached(a) == r.definitely_cached(a),
            );
        }

        /// May-cache eviction and ⊤ propagation match the naive domain.
        #[test]
        fn may_matches_reference(ops in proptest::collection::vec(op_strategy(geometry()), 1..40)) {
            let cfg = geometry();
            let step_fast = |d: &mut crate::MayCache, op: &Op, b: &crate::MayCache| -> Option<crate::MayCache> {
                match op {
                    Op::Access(a) => d.access(*a),
                    Op::AccessAny(ls) => d.access_any(ls),
                    Op::ClobberAll => d.clobber(None),
                    Op::ClobberSet(s) => d.clobber(Some(&[*s])),
                    Op::Join => { d.join_from(b); }
                    Op::Fork => return Some(d.clone()),
                }
                None
            };
            let step_ref = |d: &mut RefMay, op: &Op, b: &RefMay| -> Option<RefMay> {
                match op {
                    Op::Access(a) => d.access(*a),
                    Op::AccessAny(ls) => d.access_any(ls),
                    Op::ClobberAll => d.clobber(None),
                    Op::ClobberSet(s) => d.clobber(Some(&[*s])),
                    Op::Join => { d.join_from(b); }
                    Op::Fork => return Some(d.clone()),
                }
                None
            };
            lockstep(
                &ops,
                crate::MayCache::new(cfg),
                RefMay::new(cfg),
                step_fast,
                step_ref,
                |f, r, a| f.possibly_cached(a) == r.possibly_cached(a),
            );
        }

        /// Persistence conflict-set saturation (`Conflicts::Sat`) matches
        /// the naive BTreeSet record.
        #[test]
        fn pers_matches_reference(ops in proptest::collection::vec(op_strategy(geometry()), 1..40)) {
            let cfg = geometry();
            let step_fast = |d: &mut crate::PersCache, op: &Op, b: &crate::PersCache| -> Option<crate::PersCache> {
                match op {
                    Op::Access(a) => d.access(*a),
                    Op::AccessAny(ls) => d.access_any(ls),
                    Op::ClobberAll => d.clobber(None),
                    Op::ClobberSet(s) => d.clobber(Some(&[*s])),
                    Op::Join => { d.join_from(b); }
                    Op::Fork => return Some(d.clone()),
                }
                None
            };
            let step_ref = |d: &mut RefPers, op: &Op, b: &RefPers| -> Option<RefPers> {
                match op {
                    Op::Access(a) => d.access(*a),
                    Op::AccessAny(ls) => d.access_any(ls),
                    Op::ClobberAll => d.clobber(None),
                    Op::ClobberSet(s) => d.clobber(Some(&[*s])),
                    Op::Join => { d.join_from(b); }
                    Op::Fork => return Some(d.clone()),
                }
                None
            };
            lockstep(
                &ops,
                crate::PersCache::new(cfg),
                RefPers::new(cfg),
                step_fast,
                step_ref,
                |f, r, a| f.persistent(a) == r.persistent(a),
            );
        }
    }
}
