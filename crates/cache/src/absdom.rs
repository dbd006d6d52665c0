//! The must/may/persistence abstract cache domains.
//!
//! Each must/may abstract cache set is a [`LineSet`]: a fixed inline
//! array of `(line, age)` pairs sized for the associativities we model
//! (assoc ≤ 8 in every configuration), with a heap spill for the rare
//! larger sets a may analysis can accumulate. All updates are single
//! in-place passes — the hot `access` path performs no allocation, where
//! the previous `BTreeMap` representation allocated a key vector (plus
//! tree nodes) on every update. The persistence domain instead maps each
//! line to its *conflict set* — the distinct other lines possibly
//! accessed since the line's last access (see [`PersCache`]); age-based
//! persistence is unsound. Sharing is copy-on-write at *two*
//! granularities: the per-domain set vector is an `Rc`, and every
//! individual cache set inside it is its own `Rc`. Cloning a
//! [`CacheState`] through an unchanged block or edge is six pointer
//! bumps, and a transfer that touches one cache set deep-copies only
//! that set — not the whole vector — which keeps the per-node cost of
//! the fixpoint proportional to the lines the block actually touches.

use std::rc::Rc;

use stamp_hw::CacheConfig;

/// Inline capacity of one abstract cache set. Covers every modeled
/// associativity; a must set can never exceed the associativity, and
/// may/persistence sets only spill under heavy address-set joins.
const INLINE_LINES: usize = 8;

/// One abstract cache set: `(line address, age bound)` pairs sorted by
/// line, stored inline with a heap spill.
#[derive(Clone, Debug, Default)]
struct LineSet {
    /// Number of live `inline` entries.
    len: u8,
    inline: [(u32, u8); INLINE_LINES],
    /// Sorted overflow; empty until the set outgrows the inline array,
    /// after which it holds *all* entries.
    spill: Vec<(u32, u8)>,
}

impl LineSet {
    fn entries(&self) -> &[(u32, u8)] {
        if self.spill.is_empty() {
            &self.inline[..self.len as usize]
        } else {
            &self.spill
        }
    }

    fn entries_mut(&mut self) -> &mut [(u32, u8)] {
        if self.spill.is_empty() {
            &mut self.inline[..self.len as usize]
        } else {
            &mut self.spill
        }
    }

    /// The age bound of `line`, if resident.
    fn get(&self, line: u32) -> Option<u8> {
        self.entries().binary_search_by_key(&line, |&(l, _)| l).ok().map(|i| self.entries()[i].1)
    }

    fn contains(&self, line: u32) -> bool {
        self.get(line).is_some()
    }

    fn iter(&self) -> impl Iterator<Item = (u32, u8)> + '_ {
        self.entries().iter().copied()
    }

    /// Inserts or updates `line`.
    fn insert(&mut self, line: u32, age: u8) {
        match self.entries().binary_search_by_key(&line, |&(l, _)| l) {
            Ok(i) => self.entries_mut()[i].1 = age,
            Err(i) => {
                if !self.spill.is_empty() {
                    self.spill.insert(i, (line, age));
                } else if (self.len as usize) < INLINE_LINES {
                    let n = self.len as usize;
                    self.inline.copy_within(i..n, i + 1);
                    self.inline[i] = (line, age);
                    self.len += 1;
                } else {
                    // Overflow: move everything to the spill vector.
                    self.spill.reserve(INLINE_LINES + 1);
                    self.spill.extend_from_slice(&self.inline);
                    self.spill.insert(i, (line, age));
                    self.len = 0;
                }
            }
        }
    }

    /// One in-place pass: keep each `(line, age)` entry for which `f`
    /// returns a new age, drop the rest. `f` must not change line order
    /// (ages only — line keys are never rewritten).
    fn update_retain(&mut self, mut f: impl FnMut(u32, u8) -> Option<u8>) {
        let slice = self.entries_mut();
        let mut w = 0;
        for r in 0..slice.len() {
            let (line, age) = slice[r];
            if let Some(new_age) = f(line, age) {
                slice[w] = (line, new_age);
                w += 1;
            }
        }
        if self.spill.is_empty() {
            self.len = w as u8;
        } else {
            self.spill.truncate(w);
        }
    }
}

/// Equality is on contents, independent of inline/spill placement.
impl PartialEq for LineSet {
    fn eq(&self, other: &LineSet) -> bool {
        self.entries() == other.entries()
    }
}

impl Eq for LineSet {}

/// One abstract cache set of the may analysis. `Top` means "any line may
/// be present at any age".
#[derive(Clone, Debug, PartialEq, Eq)]
enum SetState {
    Map(LineSet),
    Top,
}

/// Applies `f` to the set at `si` of every cache set index requested
/// (`None` = all sets).
fn for_sets(sets_len: u32, set_indices: Option<&[u32]>, mut f: impl FnMut(usize)) {
    match set_indices {
        Some(idx) => idx.iter().for_each(|&si| f(si as usize)),
        None => (0..sets_len).for_each(|si| f(si as usize)),
    }
}

/// An access to one of `lines`, not knowing which: the join of the
/// outcomes of accessing each (shared by the three domains).
fn access_any<D: Clone>(
    dom: &mut D,
    lines: &[u32],
    access: impl Fn(&mut D, u32),
    join: impl Fn(&mut D, &D) -> bool,
) {
    match lines {
        [] => {}
        [one] => access(dom, *one),
        [first, rest @ ..] => {
            let outcome = |l: u32| {
                let mut c = dom.clone();
                access(&mut c, l);
                c
            };
            let mut acc = outcome(*first);
            for &l in rest {
                join(&mut acc, &outcome(l));
            }
            *dom = acc;
        }
    }
}

/// The **must** cache: ages are *upper* bounds valid in every execution.
/// Membership guarantees a hit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MustCache {
    config: CacheConfig,
    sets: Rc<Vec<Rc<LineSet>>>,
}

impl MustCache {
    /// An empty must cache (nothing guaranteed).
    // Every slot deliberately shares one empty-set allocation;
    // `Rc::make_mut` un-shares a set on its first write.
    #[allow(clippy::rc_clone_in_vec_init)]
    pub fn new(config: CacheConfig) -> MustCache {
        MustCache {
            config,
            sets: Rc::new(vec![Rc::new(LineSet::default()); config.sets() as usize]),
        }
    }

    /// Returns `true` if the line containing `addr` hits in every
    /// execution.
    pub fn definitely_cached(&self, addr: u32) -> bool {
        let line = self.config.line_addr(addr);
        self.sets[self.config.set_index(addr) as usize].contains(line)
    }

    /// Applies one access to the line containing `addr`
    /// (Ferdinand's must update): a single in-place pass, no allocation.
    pub fn access(&mut self, addr: u32) {
        let a = self.config.assoc() as u8;
        let line = self.config.line_addr(addr);
        let set =
            Rc::make_mut(&mut Rc::make_mut(&mut self.sets)[self.config.set_index(addr) as usize]);
        let z_age = set.get(line).unwrap_or(a);
        set.update_retain(|y, age| {
            if y != line && age < z_age {
                if age + 1 >= a {
                    None
                } else {
                    Some(age + 1)
                }
            } else {
                Some(age)
            }
        });
        set.insert(line, 0);
    }

    /// Applies an access whose line is only known to lie in `lines`
    /// (join over the possibilities).
    pub fn access_any(&mut self, lines: &[u32]) {
        access_any(self, lines, MustCache::access, MustCache::join_from);
    }

    /// Sound treatment of an access with an unbounded address set that
    /// may touch the given cache sets (`None` = all sets): every line
    /// ages as if displaced.
    pub fn clobber(&mut self, set_indices: Option<&[u32]>) {
        let a = self.config.assoc() as u8;
        let sets = Rc::make_mut(&mut self.sets);
        for_sets(self.config.sets(), set_indices, |si| {
            if sets[si].iter().next().is_none() {
                return;
            }
            Rc::make_mut(&mut sets[si]).update_retain(|_, age| {
                if age + 1 >= a {
                    None
                } else {
                    Some(age + 1)
                }
            });
        });
    }

    /// Lattice join (set intersection, maximum ages). Returns `true` if
    /// `self` changed. Copy-on-write is per cache set: only sets that
    /// actually change are un-shared and rewritten.
    pub fn join_from(&mut self, other: &MustCache) -> bool {
        if Rc::ptr_eq(&self.sets, &other.sets) {
            return false;
        }
        let mut changed = false;
        for si in 0..other.sets.len() {
            let o = &other.sets[si];
            let grows = {
                let s = &self.sets[si];
                !Rc::ptr_eq(s, o)
                    && s.iter().any(|(k, sa)| match o.get(k) {
                        None => true,
                        Some(oa) => oa > sa,
                    })
            };
            if !grows {
                continue;
            }
            let slot = &mut Rc::make_mut(&mut self.sets)[si];
            Rc::make_mut(slot).update_retain(|k, sa| o.get(k).map(|oa| sa.max(oa)));
            changed = true;
        }
        changed
    }

    /// Partial order: `self ⊑ other` iff `self` guarantees everything
    /// `other` does.
    pub fn le(&self, other: &MustCache) -> bool {
        Rc::ptr_eq(&self.sets, &other.sets)
            || self.sets.iter().zip(other.sets.iter()).all(|(s, o)| {
                Rc::ptr_eq(s, o) || o.iter().all(|(k, oa)| s.get(k).is_some_and(|sa| sa <= oa))
            })
    }
}

/// The **may** cache: ages are *lower* bounds over all executions in
/// which the line is cached. Absence guarantees a miss.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MayCache {
    config: CacheConfig,
    sets: Rc<Vec<Rc<SetState>>>,
}

impl MayCache {
    /// An empty may cache (everything is a guaranteed miss initially).
    // Slots share one empty-set allocation; un-shared on first write.
    #[allow(clippy::rc_clone_in_vec_init)]
    pub fn new(config: CacheConfig) -> MayCache {
        MayCache {
            config,
            sets: Rc::new(vec![Rc::new(SetState::Map(LineSet::default())); config.sets() as usize]),
        }
    }

    /// Returns `true` if the line containing `addr` may be cached.
    pub fn possibly_cached(&self, addr: u32) -> bool {
        let line = self.config.line_addr(addr);
        match &*self.sets[self.config.set_index(addr) as usize] {
            SetState::Map(m) => m.contains(line),
            SetState::Top => true,
        }
    }

    /// Applies one access (Ferdinand's may update), in place.
    pub fn access(&mut self, addr: u32) {
        let a = self.config.assoc() as u8;
        let line = self.config.line_addr(addr);
        let si = self.config.set_index(addr) as usize;
        if matches!(*self.sets[si], SetState::Top) {
            return; // stays ⊤ (still sound)
        }
        let SetState::Map(m) = Rc::make_mut(&mut Rc::make_mut(&mut self.sets)[si]) else {
            unreachable!("checked above")
        };
        let z_age = m.get(line).unwrap_or(a);
        m.update_retain(|y, age| {
            // Ages are lower bounds: y provably ages only when it is
            // provably younger than z in every execution, i.e. when
            // its lower bound lies strictly below z's.
            if y != line && age < z_age {
                if age + 1 >= a {
                    None
                } else {
                    Some(age + 1)
                }
            } else {
                Some(age)
            }
        });
        m.insert(line, 0);
    }

    /// Access with a small set of candidate lines: union of outcomes.
    pub fn access_any(&mut self, lines: &[u32]) {
        access_any(self, lines, MayCache::access, MayCache::join_from);
    }

    /// Unbounded access: the touched sets may afterwards contain anything.
    pub fn clobber(&mut self, set_indices: Option<&[u32]>) {
        let sets = Rc::make_mut(&mut self.sets);
        for_sets(self.config.sets(), set_indices, |si| {
            if matches!(*sets[si], SetState::Top) {
                return;
            }
            sets[si] = Rc::new(SetState::Top);
        });
    }

    /// Lattice join (set union, minimum ages). Copy-on-write is per
    /// cache set; a set that becomes exactly `other`'s is shared rather
    /// than copied.
    pub fn join_from(&mut self, other: &MayCache) -> bool {
        if Rc::ptr_eq(&self.sets, &other.sets) {
            return false;
        }
        let mut changed = false;
        for si in 0..other.sets.len() {
            let o = &other.sets[si];
            enum Plan {
                Skip,
                Share,
                Merge,
            }
            let plan = {
                let s = &self.sets[si];
                if Rc::ptr_eq(s, o) {
                    Plan::Skip
                } else {
                    match (&**s, &**o) {
                        (SetState::Top, _) => Plan::Skip,
                        (SetState::Map(_), SetState::Top) => Plan::Share,
                        (SetState::Map(sm), SetState::Map(om)) => {
                            if sm.entries().is_empty() && !om.entries().is_empty() {
                                Plan::Share
                            } else if om.iter().any(|(k, oa)| match sm.get(k) {
                                None => true,
                                Some(sa) => oa < sa,
                            }) {
                                Plan::Merge
                            } else {
                                Plan::Skip
                            }
                        }
                    }
                }
            };
            match plan {
                Plan::Skip => continue,
                Plan::Share => {
                    Rc::make_mut(&mut self.sets)[si] = Rc::clone(o);
                }
                Plan::Merge => {
                    let slot = Rc::make_mut(&mut Rc::make_mut(&mut self.sets)[si]);
                    let SetState::Map(sm) = slot else { unreachable!("merge plan is map/map") };
                    let SetState::Map(om) = &**o else { unreachable!("merge plan is map/map") };
                    for (k, oa) in om.iter() {
                        match sm.get(k) {
                            None => sm.insert(k, oa),
                            Some(sa) if oa < sa => sm.insert(k, oa),
                            _ => {}
                        }
                    }
                }
            }
            changed = true;
        }
        changed
    }

    /// Partial order: fewer possibilities ⊑ more possibilities.
    pub fn le(&self, other: &MayCache) -> bool {
        Rc::ptr_eq(&self.sets, &other.sets)
            || self.sets.iter().zip(other.sets.iter()).all(|(s, o)| {
                Rc::ptr_eq(s, o)
                    || match (&**s, &**o) {
                        (_, SetState::Top) => true,
                        (SetState::Top, SetState::Map(_)) => false,
                        (SetState::Map(sm), SetState::Map(om)) => {
                            sm.iter().all(|(k, sa)| om.get(k).is_some_and(|oa| oa <= sa))
                        }
                    }
            })
    }
}

/// The conflict record of one line in the persistence cache: the set of
/// *distinct* other lines that may have been accessed in the same cache
/// set since this line's last access. Under LRU a line's stack position
/// equals the number of distinct lines accessed since its last use, so
/// the line is provably resident while this set stays below the
/// associativity. Once it can reach the associativity the line may have
/// been evicted and the record saturates ([`Conflicts::Sat`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Conflicts {
    /// At most these distinct conflicting lines since the last access
    /// (`len` live entries, sorted). `len` is strictly below the
    /// associativity — reaching it saturates instead.
    Among { len: u8, lines: [u32; INLINE_LINES] },
    /// The line may have been evicted since its last access.
    Sat,
}

impl Conflicts {
    fn none() -> Conflicts {
        Conflicts::Among { len: 0, lines: [0; INLINE_LINES] }
    }

    /// Adds one conflicting line, saturating at `assoc` distinct
    /// conflicts (at which point the line may be evicted).
    fn add(&mut self, line: u32, assoc: u8) {
        if let Conflicts::Among { len, lines } = self {
            let n = *len as usize;
            if lines[..n].contains(&line) {
                return;
            }
            if n + 1 >= assoc as usize {
                *self = Conflicts::Sat;
            } else {
                let pos = lines[..n].partition_point(|&l| l < line);
                lines.copy_within(pos..n, pos + 1);
                lines[pos] = line;
                *len += 1;
            }
        }
    }

    /// Set union, saturating at `assoc`.
    fn union(&mut self, other: &Conflicts, assoc: u8) {
        match other {
            Conflicts::Sat => *self = Conflicts::Sat,
            Conflicts::Among { len, lines } => {
                for &l in &lines[..*len as usize] {
                    self.add(l, assoc);
                }
            }
        }
    }

    /// `self ⊆ other` (with `Sat` as ⊤).
    fn subset_of(&self, other: &Conflicts) -> bool {
        match (self, other) {
            (_, Conflicts::Sat) => true,
            (Conflicts::Sat, Conflicts::Among { .. }) => false,
            (Conflicts::Among { len: sl, lines: sv }, Conflicts::Among { len: ol, lines: ov }) => {
                sv[..*sl as usize].iter().all(|l| ov[..*ol as usize].contains(l))
            }
        }
    }
}

/// One persistence set: `line → conflicts`, sorted by line.
type PersSet = Vec<(u32, Conflicts)>;

/// The **persistence** cache, in the conflict-set formulation: for each
/// line ever accessed it tracks the distinct other lines that may have
/// hit the same cache set since the line's last access.
///
/// The classical age-based persistence update (aging only lines whose
/// bound lies below the accessed line's bound) is unsound here: in the
/// persistence domain, presence of the accessed line says nothing about
/// whether it is concretely cached, and a concrete *miss* ages every
/// resident line. Tracking the conflict set sidesteps ages entirely —
/// under LRU a line is resident iff fewer than `assoc` distinct lines
/// were accessed in its set since its last access, which is exactly what
/// the record bounds from above.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PersCache {
    config: CacheConfig,
    sets: Rc<Vec<Rc<PersSet>>>,
}

impl PersCache {
    /// An empty persistence cache (no line accessed yet).
    // Slots share one empty-set allocation; un-shared on first write.
    #[allow(clippy::rc_clone_in_vec_init)]
    pub fn new(config: CacheConfig) -> PersCache {
        assert!(
            config.assoc() as usize <= INLINE_LINES,
            "persistence conflict records hold at most {INLINE_LINES} lines"
        );
        PersCache { config, sets: Rc::new(vec![Rc::new(PersSet::new()); config.sets() as usize]) }
    }

    fn get(set: &PersSet, line: u32) -> Option<&Conflicts> {
        set.binary_search_by_key(&line, |&(l, _)| l).ok().map(|i| &set[i].1)
    }

    /// Returns `true` if every execution in which the line was accessed
    /// before leaves it resident now: fewer than `assoc` distinct
    /// conflicting lines since its last access. A first access may still
    /// miss — hence "persistent", not "always hit".
    pub fn persistent(&self, addr: u32) -> bool {
        let line = self.config.line_addr(addr);
        matches!(
            PersCache::get(&self.sets[self.config.set_index(addr) as usize], line),
            Some(Conflicts::Among { .. })
        )
    }

    /// Applies one access: the accessed line's conflict record resets,
    /// every other line in the set gains it as a conflict.
    pub fn access(&mut self, addr: u32) {
        let a = self.config.assoc() as u8;
        let line = self.config.line_addr(addr);
        let set =
            Rc::make_mut(&mut Rc::make_mut(&mut self.sets)[self.config.set_index(addr) as usize]);
        for (l, c) in set.iter_mut() {
            if *l != line {
                c.add(line, a);
            }
        }
        match set.binary_search_by_key(&line, |&(l, _)| l) {
            Ok(i) => set[i].1 = Conflicts::none(),
            Err(i) => set.insert(i, (line, Conflicts::none())),
        }
    }

    /// Access with several candidate lines (join over the possibilities).
    pub fn access_any(&mut self, lines: &[u32]) {
        access_any(self, lines, PersCache::access, PersCache::join_from);
    }

    /// Unbounded access: every line in the touched sets may have gained
    /// arbitrarily many conflicts.
    pub fn clobber(&mut self, set_indices: Option<&[u32]>) {
        let sets = Rc::make_mut(&mut self.sets);
        for_sets(self.config.sets(), set_indices, |si| {
            if sets[si].iter().all(|(_, c)| matches!(c, Conflicts::Sat)) {
                return;
            }
            for (_, c) in Rc::make_mut(&mut sets[si]).iter_mut() {
                *c = Conflicts::Sat;
            }
        });
    }

    /// Lattice join (pointwise conflict-set union; absence means "never
    /// accessed", which is *below* any record). Copy-on-write is per
    /// cache set; an empty set joining a non-empty one shares the other
    /// side's `Rc` instead of copying it.
    pub fn join_from(&mut self, other: &PersCache) -> bool {
        if Rc::ptr_eq(&self.sets, &other.sets) {
            return false;
        }
        let a = self.config.assoc() as u8;
        let mut changed = false;
        for si in 0..other.sets.len() {
            let o = &other.sets[si];
            let grows = {
                let s = &self.sets[si];
                !Rc::ptr_eq(s, o)
                    && o.iter().any(|(k, oc)| match PersCache::get(s, *k) {
                        None => true,
                        Some(sc) => !oc.subset_of(sc),
                    })
            };
            if !grows {
                continue;
            }
            if self.sets[si].is_empty() {
                Rc::make_mut(&mut self.sets)[si] = Rc::clone(o);
            } else {
                let s = Rc::make_mut(&mut Rc::make_mut(&mut self.sets)[si]);
                for (k, oc) in o.iter() {
                    match s.binary_search_by_key(k, |&(l, _)| l) {
                        Ok(i) => s[i].1.union(oc, a),
                        Err(i) => s.insert(i, (*k, *oc)),
                    }
                }
            }
            changed = true;
        }
        changed
    }

    /// Partial order: fewer recorded lines / smaller conflict sets ⊑
    /// more.
    pub fn le(&self, other: &PersCache) -> bool {
        Rc::ptr_eq(&self.sets, &other.sets)
            || self.sets.iter().zip(other.sets.iter()).all(|(s, o)| {
                Rc::ptr_eq(s, o)
                    || s.iter()
                        .all(|(k, sc)| PersCache::get(o, *k).is_some_and(|oc| sc.subset_of(oc)))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg2way() -> CacheConfig {
        CacheConfig::new(1, 2, 16) // one 2-way set for easy reasoning
    }

    #[test]
    fn line_set_stays_sorted_across_spill() {
        let mut s = LineSet::default();
        // Fill beyond the inline capacity in a scrambled order.
        for &l in &[0x50u32, 0x10, 0x90, 0x30, 0x70, 0x20, 0x80, 0x40, 0x60, 0x00] {
            s.insert(l, (l >> 4) as u8);
        }
        let lines: Vec<u32> = s.iter().map(|(l, _)| l).collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
        assert_eq!(s.iter().count(), 10);
        assert_eq!(s.get(0x40), Some(4));
        // Equality ignores the representation (inline vs spill).
        let mut t = LineSet::default();
        for (l, a) in s.iter() {
            t.insert(l, a);
        }
        assert_eq!(s, t);
        // In-place retain keeps order and compacts.
        s.update_retain(|l, a| (l >= 0x50).then_some(a + 1));
        assert_eq!(s.iter().count(), 5);
        assert_eq!(s.get(0x50), Some(6));
        assert_eq!(s.get(0x40), None);
    }

    #[test]
    fn must_guarantees_after_access() {
        let mut m = MustCache::new(cfg2way());
        assert!(!m.definitely_cached(0x00));
        m.access(0x00);
        assert!(m.definitely_cached(0x00));
        m.access(0x10);
        assert!(m.definitely_cached(0x00) && m.definitely_cached(0x10));
        m.access(0x20); // evicts the oldest guarantee (0x00)
        assert!(!m.definitely_cached(0x00));
        assert!(m.definitely_cached(0x20));
    }

    #[test]
    fn must_join_is_intersection_with_max_age() {
        let mut a = MustCache::new(cfg2way());
        a.access(0x00); // age 0
        let mut b = MustCache::new(cfg2way());
        b.access(0x00);
        b.access(0x10); // 0x00 at age 1 in b
        let mut j = a.clone();
        assert!(j.join_from(&b));
        assert!(j.definitely_cached(0x00));
        assert!(!j.definitely_cached(0x10)); // only in b

        // Before the eviction test, a (age 0) refines j (age 1).
        assert!(a.le(&j));
        assert!(!j.le(&a));
        // One more access evicts 0x00 (its joined age is the max, 1).
        j.access(0x20);
        assert!(!j.definitely_cached(0x00));
    }

    #[test]
    fn may_absence_is_definite_miss() {
        let mut m = MayCache::new(cfg2way());
        assert!(!m.possibly_cached(0x00));
        m.access(0x00);
        m.access(0x10);
        m.access(0x20); // 0x00 has provable age 2 ≥ assoc → out
        assert!(!m.possibly_cached(0x00));
        assert!(m.possibly_cached(0x10) && m.possibly_cached(0x20));
    }

    #[test]
    fn may_join_is_union_with_min_age() {
        let mut a = MayCache::new(cfg2way());
        a.access(0x00);
        let mut b = MayCache::new(cfg2way());
        b.access(0x10);
        assert!(a.join_from(&b));
        assert!(a.possibly_cached(0x00) && a.possibly_cached(0x10));
    }

    #[test]
    fn may_clobber_makes_everything_possible() {
        let mut m = MayCache::new(cfg2way());
        m.clobber(None);
        assert!(m.possibly_cached(0xdead_beef & !0xf));
        // Further accesses keep it sound (still ⊤).
        m.access(0x40);
        assert!(m.possibly_cached(0x12340));
    }

    #[test]
    fn must_clobber_ages_everything() {
        let mut m = MustCache::new(cfg2way());
        m.access(0x00);
        m.access(0x10);
        m.clobber(None);
        // Previous MRU is now age 1; the other is evicted.
        assert!(m.definitely_cached(0x10));
        assert!(!m.definitely_cached(0x00));
    }

    #[test]
    fn persistence_survives_capacity_pressure_tracking() {
        let mut p = PersCache::new(cfg2way());
        p.access(0x00);
        p.access(0x10);
        assert!(p.persistent(0x00));
        p.access(0x20); // 0x00 saturates (may be evicted)
        assert!(!p.persistent(0x00));
        assert!(p.persistent(0x20) && p.persistent(0x10));
        // Re-access resets.
        p.access(0x00);
        assert!(p.persistent(0x00));
    }

    #[test]
    fn access_any_joins_possibilities() {
        let mut m = MustCache::new(cfg2way());
        m.access_any(&[0x00, 0x10]);
        // Neither line is guaranteed (the other may have been loaded).
        assert!(!m.definitely_cached(0x00));
        assert!(!m.definitely_cached(0x10));
        let mut may = MayCache::new(cfg2way());
        may.access_any(&[0x00, 0x10]);
        assert!(may.possibly_cached(0x00) && may.possibly_cached(0x10));
    }

    #[test]
    fn shared_sets_join_short_circuits() {
        let mut a = MustCache::new(cfg2way());
        a.access(0x00);
        let b = a.clone(); // shares the set vector
        assert!(!a.join_from(&b));
        assert!(a.le(&b) && b.le(&a));
        // Mutation after the clone un-shares without affecting `b`.
        a.access(0x10);
        assert!(a.definitely_cached(0x10));
        assert!(!b.definitely_cached(0x10));
    }

    #[test]
    fn pers_sets_accumulate_past_associativity() {
        // A persistence set never forgets lines, so it can exceed the
        // inline capacity; the spill must keep every saturated line.
        let cfg = CacheConfig::new(1, 2, 16);
        let mut p = PersCache::new(cfg);
        for i in 0..12u32 {
            p.access(i * 16);
        }
        // Every line is still recorded; all but the 2 youngest saturated.
        let persistent = (0..12u32).filter(|&i| p.persistent(i * 16)).count();
        assert_eq!(persistent, 2);
        let mut q = PersCache::new(cfg);
        q.access(0x00);
        assert!(q.join_from(&p));
        assert!(!q.persistent(0x40)); // saturated in p, absent in q → max
    }
}
