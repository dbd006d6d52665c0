//! Abstract memory: a finite map of known RAM words.

use std::collections::BTreeMap;
use std::sync::Arc;

use stamp_isa::MemWidth;

use crate::interval::SInt;

/// Abstract RAM contents at word granularity.
///
/// Absent addresses are unknown (⊤) — RAM starts completely unknown, as
/// the analysis must hold for *all inputs* ("results valid for every
/// program run and all inputs"). Knowledge accumulates through stores at
/// (sufficiently) known addresses; reads from ROM are handled separately
/// by the transfer function, since ROM contents are constant.
///
/// The map uses word-aligned addresses as keys. Sub-word stores are
/// merged into the containing word when everything relevant is constant;
/// otherwise they conservatively invalidate it.
///
/// The map is shared copy-on-write (`Arc`): cloning a state — which the
/// solver does once per node entry and transfer functions once per
/// evaluation — is a pointer bump, and the map is copied only when a
/// store or a growing join actually mutates it. The common "state
/// unchanged through a block" case therefore allocates nothing, and
/// joining a state with its own descendant short-circuits on pointer
/// identity.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AMem {
    words: Arc<BTreeMap<u32, SInt>>,
}

impl AMem {
    /// Completely unknown memory.
    pub fn unknown() -> AMem {
        AMem::default()
    }

    /// The shared word map (for encoding analyses; the `Arc` identity
    /// doubles as the structural-sharing key).
    pub(crate) fn shared_words(&self) -> &Arc<BTreeMap<u32, SInt>> {
        &self.words
    }

    /// Rebuilds a memory from a (possibly shared) word map — the
    /// inverse of [`AMem::shared_words`].
    pub(crate) fn from_words(words: Arc<BTreeMap<u32, SInt>>) -> AMem {
        AMem { words }
    }

    /// Reads an access of `width` at the *constant* word-aligned-or-not
    /// address `addr`. Returns ⊤ when nothing is known.
    pub fn read(&self, addr: u32, width: MemWidth) -> SInt {
        let word_addr = addr & !3;
        let within = addr & 3;
        let word = match self.words.get(&word_addr) {
            Some(v) => *v,
            None => return SInt::top(),
        };
        match width {
            MemWidth::W => word,
            MemWidth::H | MemWidth::B => match word.is_const() {
                Some(w) => {
                    let shift = 8 * within;
                    let mask = if width == MemWidth::H { 0xffff } else { 0xff };
                    SInt::cst((w >> shift) & mask)
                }
                // A non-constant word still bounds its sub-fields only
                // loosely; give up rather than track bit slices.
                None => SInt::top(),
            },
        }
    }

    /// Stores `value` of `width` at the constant address `addr`
    /// (strong update).
    pub fn write(&mut self, addr: u32, width: MemWidth, value: &SInt) {
        let word_addr = addr & !3;
        let within = addr & 3;
        match width {
            MemWidth::W => {
                if value.is_top() {
                    if self.words.contains_key(&word_addr) {
                        Arc::make_mut(&mut self.words).remove(&word_addr);
                    }
                } else if self.words.get(&word_addr) != Some(value) {
                    Arc::make_mut(&mut self.words).insert(word_addr, *value);
                }
            }
            MemWidth::H | MemWidth::B => {
                let old = self.words.get(&word_addr).copied();
                let merged = match (old.and_then(|o| o.is_const()), value.is_const()) {
                    (Some(o), Some(v)) => {
                        let shift = 8 * within;
                        let mask: u32 = if width == MemWidth::H { 0xffff } else { 0xff };
                        Some(SInt::cst((o & !(mask << shift)) | ((v & mask) << shift)))
                    }
                    _ => None,
                };
                match merged {
                    Some(m) => {
                        if old != Some(m) {
                            Arc::make_mut(&mut self.words).insert(word_addr, m);
                        }
                    }
                    None => {
                        if old.is_some() {
                            Arc::make_mut(&mut self.words).remove(&word_addr);
                        }
                    }
                }
            }
        }
    }

    /// Weak update over a *range* of possible store addresses: all words
    /// the store might touch lose their knowledge (or, when the range is
    /// small, are joined with the stored value).
    pub fn write_range(&mut self, addrs: &SInt, width: MemWidth, value: &SInt) {
        if let Some(a) = addrs.is_const() {
            self.write(a, width, value);
            return;
        }
        if addrs.is_top() {
            if !self.words.is_empty() {
                self.words = Arc::new(BTreeMap::new());
            }
            return;
        }
        if addrs.count() <= 64 && width == MemWidth::W {
            // Weak update: join the stored value into each candidate.
            for a in addrs.iter() {
                let word_addr = a & !3;
                if let Some(old) = self.words.get(&word_addr).copied() {
                    let joined = old.join(value);
                    if joined == old {
                        continue;
                    }
                    let words = Arc::make_mut(&mut self.words);
                    if joined.is_top() {
                        words.remove(&word_addr);
                    } else {
                        words.insert(word_addr, joined);
                    }
                }
                // Unknown stays unknown — already ⊤.
            }
            return;
        }
        // Invalidate every word in the touched byte range.
        let first = addrs.lo() & !3;
        let last = (addrs.hi().saturating_add(width.bytes() - 1)) | 3;
        if self.words.range(first..=last).next().is_none() {
            return;
        }
        Arc::make_mut(&mut self.words).retain(|&a, _| !(first..=last).contains(&a));
    }

    /// Lattice join: keep only words known on both sides (pointwise join).
    /// Returns `true` if `self` changed.
    ///
    /// A read-only pass decides whether anything changes before the
    /// shared map is copied, so the steady-state no-op join neither
    /// allocates nor writes.
    pub fn join_from(&mut self, other: &AMem) -> bool {
        if Arc::ptr_eq(&self.words, &other.words) {
            return false;
        }
        let grows = self.words.iter().any(|(k, sv)| match other.words.get(k) {
            None => true,
            Some(ov) => sv.join(ov) != *sv,
        });
        if !grows {
            return false;
        }
        Arc::make_mut(&mut self.words).retain(|k, sv| match other.words.get(k) {
            None => false,
            Some(ov) => {
                let j = sv.join(ov);
                if j.is_top() {
                    false
                } else {
                    *sv = j;
                    true
                }
            }
        });
        true
    }

    /// Widening: like join but with per-word interval widening.
    pub fn widen_from(&mut self, other: &AMem, thresholds: &[u32]) -> bool {
        if Arc::ptr_eq(&self.words, &other.words) {
            return false;
        }
        let grows = self.words.iter().any(|(k, sv)| match other.words.get(k) {
            None => true,
            Some(ov) => !ov.subset_of(sv),
        });
        if !grows {
            return false;
        }
        Arc::make_mut(&mut self.words).retain(|k, sv| match other.words.get(k) {
            None => false,
            Some(ov) => {
                if !ov.subset_of(sv) {
                    let w = sv.widen(ov, thresholds);
                    if w.is_top() {
                        return false;
                    }
                    *sv = w;
                }
                true
            }
        });
        true
    }

    /// Partial-order test (`self ⊑ other` means `self` knows at least as
    /// much: every word known in `other` is at least as precisely known
    /// in `self`).
    pub fn le(&self, other: &AMem) -> bool {
        Arc::ptr_eq(&self.words, &other.words)
            || other
                .words
                .iter()
                .all(|(k, ov)| self.words.get(k).is_some_and(|sv| sv.subset_of(ov)))
    }
}

/// The join of `read` over the members of `addrs`, or ⊤ when they are
/// more than 64.
pub(crate) fn join_reads(addrs: &SInt, read: impl Fn(u32) -> SInt) -> SInt {
    if let Some(a) = addrs.is_const() {
        return read(a);
    }
    if addrs.count() > 64 {
        return SInt::top();
    }
    let mut acc: Option<SInt> = None;
    for a in addrs.iter() {
        let v = read(a);
        acc = Some(acc.map_or(v, |p| p.join(&v)));
        if acc.as_ref().is_some_and(SInt::is_top) {
            break;
        }
    }
    acc.unwrap_or_else(SInt::top)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_unknown() {
        let m = AMem::unknown();
        assert!(m.read(0x1000_0000, MemWidth::W).is_top());
    }

    #[test]
    fn strong_update_roundtrip() {
        let mut m = AMem::unknown();
        m.write(0x1000_0010, MemWidth::W, &SInt::cst(42));
        assert_eq!(m.read(0x1000_0010, MemWidth::W).is_const(), Some(42));
        assert_eq!(m.read(0x1000_0010, MemWidth::B).is_const(), Some(42));
        assert_eq!(m.read(0x1000_0011, MemWidth::B).is_const(), Some(0));
    }

    #[test]
    fn subword_store_merges_constants() {
        let mut m = AMem::unknown();
        m.write(0x1000_0000, MemWidth::W, &SInt::cst(0x1122_3344));
        m.write(0x1000_0001, MemWidth::B, &SInt::cst(0xaa));
        assert_eq!(m.read(0x1000_0000, MemWidth::W).is_const(), Some(0x1122_aa44));
        // Non-constant sub-word store invalidates the word.
        m.write(0x1000_0002, MemWidth::H, &SInt::range(0, 5));
        assert!(m.read(0x1000_0000, MemWidth::W).is_top());
    }

    #[test]
    fn range_write_invalidates_only_touched_words() {
        let mut m = AMem::unknown();
        m.write(0x1000_0000, MemWidth::W, &SInt::cst(1));
        m.write(0x1000_0100, MemWidth::W, &SInt::cst(2));
        // A store somewhere in [0x10000000, 0x10000080] with a large range.
        m.write_range(&SInt::strided(0x1000_0000, 0x1000_0080, 1), MemWidth::W, &SInt::top());
        assert!(m.read(0x1000_0000, MemWidth::W).is_top());
        assert_eq!(m.read(0x1000_0100, MemWidth::W).is_const(), Some(2));
    }

    #[test]
    fn small_range_write_is_weak_join() {
        let mut m = AMem::unknown();
        m.write(0x1000_0000, MemWidth::W, &SInt::cst(4));
        m.write(0x1000_0004, MemWidth::W, &SInt::cst(4));
        m.write_range(&SInt::strided(0x1000_0000, 0x1000_0004, 4), MemWidth::W, &SInt::cst(8));
        let v = m.read(0x1000_0000, MemWidth::W);
        assert!(v.contains(4) && v.contains(8));
    }

    #[test]
    fn read_range_joins_values() {
        let mut m = AMem::unknown();
        m.write(0x1000_0000, MemWidth::W, &SInt::cst(10));
        m.write(0x1000_0004, MemWidth::W, &SInt::cst(20));
        let read = |addrs: &SInt| join_reads(addrs, |a| m.read(a, MemWidth::W));
        let v = read(&SInt::strided(0x1000_0000, 0x1000_0004, 4));
        assert!(v.contains(10) && v.contains(20));
        assert_eq!(v.count(), 2);
        // Huge ranges degrade to ⊤.
        assert!(read(&SInt::range(0x1000_0000, 0x100f_0000)).is_top());
    }

    #[test]
    fn join_drops_one_sided_knowledge() {
        let mut a = AMem::unknown();
        a.write(0x1000_0000, MemWidth::W, &SInt::cst(1));
        a.write(0x1000_0004, MemWidth::W, &SInt::cst(2));
        let mut b = AMem::unknown();
        b.write(0x1000_0000, MemWidth::W, &SInt::cst(3));
        assert!(a.join_from(&b));
        let v = a.read(0x1000_0000, MemWidth::W);
        assert!(v.contains(1) && v.contains(3));
        assert!(a.read(0x1000_0004, MemWidth::W).is_top());
        assert!(b.le(&a));
    }
}
