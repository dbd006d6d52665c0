//! VIVU execution contexts: virtual inlining × virtual unrolling.
//!
//! A context is a stack of [`Frame`]s describing *how* control reached a
//! block: which call sites are active (virtual inlining) and, for each
//! enclosing loop, whether we are in one of the first `peel` iterations
//! or in the steady state (virtual unrolling). Distinguishing the first
//! iteration is what lets the cache analysis prove "miss once, then
//! always hit" — the persistence effect the paper relies on for tight
//! bounds.

use std::collections::HashMap;
use std::fmt;

use stamp_cfg::BlockId;

/// One frame of a context stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Frame {
    /// A call through the call instruction at `site` is active.
    Call { site: u32 },
    /// Inside the loop headed at `header`; `iter` is the iteration class:
    /// `0..peel` are the peeled first iterations, `peel` is "any later
    /// iteration".
    Loop { header: BlockId, iter: u8 },
}

/// An interned context: a stack of frames, outermost first.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Ctx(pub Vec<Frame>);

impl Ctx {
    /// The empty (task-entry) context.
    pub fn root() -> Ctx {
        Ctx(Vec::new())
    }

    /// Number of active calls (virtual-inlining depth).
    pub fn call_depth(&self) -> usize {
        self.0.iter().filter(|f| matches!(f, Frame::Call { .. })).count()
    }

    /// The frames of this context.
    pub fn frames(&self) -> &[Frame] {
        &self.0
    }

    /// Returns `true` if `self` equals `prefix` followed only by loop
    /// frames (i.e. `self` is somewhere inside the body of the call
    /// context `prefix`). Used to connect return edges.
    pub fn extends_with_loops(&self, prefix: &Ctx) -> bool {
        self.0.len() >= prefix.0.len()
            && self.0[..prefix.0.len()] == prefix.0[..]
            && self.0[prefix.0.len()..].iter().all(|f| matches!(f, Frame::Loop { .. }))
    }
}

impl fmt::Display for Ctx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return f.write_str("⟨⟩");
        }
        f.write_str("⟨")?;
        for (i, frame) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            match frame {
                Frame::Call { site } => write!(f, "call@{site:#x}")?,
                Frame::Loop { header, iter } => write!(f, "{header}#{iter}")?,
            }
        }
        f.write_str("⟩")
    }
}

/// Index of an interned context in a [`CtxTable`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CtxId(pub u32);

impl CtxId {
    /// The context index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for CtxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Interner for contexts.
#[derive(Clone, Debug, Default)]
pub struct CtxTable {
    ctxs: Vec<Ctx>,
    ids: HashMap<Ctx, CtxId>,
}

impl CtxTable {
    /// Creates a table containing only the root context (id 0).
    pub fn new() -> CtxTable {
        let mut t = CtxTable::default();
        t.intern(Ctx::root());
        t
    }

    /// Interns a context.
    pub fn intern(&mut self, c: Ctx) -> CtxId {
        if let Some(&id) = self.ids.get(&c) {
            return id;
        }
        let id = CtxId(self.ctxs.len() as u32);
        self.ctxs.push(c.clone());
        self.ids.insert(c, id);
        id
    }

    /// The root (task-entry) context id.
    pub fn root(&self) -> CtxId {
        CtxId(0)
    }

    /// Looks up an interned context.
    pub fn get(&self, id: CtxId) -> &Ctx {
        &self.ctxs[id.index()]
    }

    /// Number of interned contexts.
    pub fn len(&self) -> usize {
        self.ctxs.len()
    }

    /// Returns `true` if no contexts are interned.
    pub fn is_empty(&self) -> bool {
        self.ctxs.is_empty()
    }
}

/// Configuration of the VIVU context mapping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VivuConfig {
    /// Maximum virtual-inlining depth. Exceeding it (recursion) is an
    /// error — recursive programs need annotations and are handled by the
    /// stack analysis, not by ICFG expansion.
    pub max_call_depth: usize,
    /// Number of peeled loop iterations distinguished per loop (`0`
    /// disables virtual unrolling; `1` distinguishes "first" from
    /// "rest", which is what makes persistence-style cache effects
    /// visible).
    pub peel: u8,
    /// Hard cap on the number of distinct contexts, as a safety net.
    pub max_contexts: usize,
}

impl Default for VivuConfig {
    fn default() -> VivuConfig {
        VivuConfig { max_call_depth: 16, peel: 1, max_contexts: 65_536 }
    }
}

impl VivuConfig {
    /// A configuration with contexts disabled entirely: one context per
    /// block (still inlining calls — depth 1 call strings are required
    /// for interprocedural analysis — but no loop unrolling).
    pub fn no_unrolling() -> VivuConfig {
        VivuConfig { peel: 0, ..VivuConfig::default() }
    }
}

impl stamp_codec::Codec for Frame {
    fn enc(&self, e: &mut stamp_codec::Enc) {
        match self {
            Frame::Call { site } => {
                e.u8(0);
                e.u32(*site);
            }
            Frame::Loop { header, iter } => {
                e.u8(1);
                header.enc(e);
                e.u8(*iter);
            }
        }
    }
    fn dec(d: &mut stamp_codec::Dec) -> Result<Frame, stamp_codec::CodecError> {
        match d.u8()? {
            0 => Ok(Frame::Call { site: d.u32()? }),
            1 => Ok(Frame::Loop { header: stamp_codec::Codec::dec(d)?, iter: d.u8()? }),
            _ => Err(stamp_codec::CodecError::Invalid("frame tag")),
        }
    }
}

impl stamp_codec::Codec for Ctx {
    fn enc(&self, e: &mut stamp_codec::Enc) {
        self.0.enc(e);
    }
    fn dec(d: &mut stamp_codec::Dec) -> Result<Ctx, stamp_codec::CodecError> {
        Ok(Ctx(Vec::dec(d)?))
    }
}

impl stamp_codec::Codec for CtxId {
    fn enc(&self, e: &mut stamp_codec::Enc) {
        e.u32(self.0);
    }
    fn dec(d: &mut stamp_codec::Dec) -> Result<CtxId, stamp_codec::CodecError> {
        Ok(CtxId(d.u32()?))
    }
}

impl stamp_codec::Codec for CtxTable {
    /// Only the context vector is persisted; the interning map is
    /// rebuilt by re-interning each context, which reassigns the same
    /// sequential ids.
    fn enc(&self, e: &mut stamp_codec::Enc) {
        self.ctxs.enc(e);
    }
    fn dec(d: &mut stamp_codec::Dec) -> Result<CtxTable, stamp_codec::CodecError> {
        let ctxs: Vec<Ctx> = Vec::dec(d)?;
        let mut t = CtxTable::default();
        for (i, c) in ctxs.into_iter().enumerate() {
            if t.intern(c).index() != i {
                return Err(stamp_codec::CodecError::Invalid("duplicate context"));
            }
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(n: u32) -> BlockId {
        BlockId(n)
    }

    #[test]
    fn extends_with_loops_matches_returns() {
        let callctx = Ctx(vec![Frame::Call { site: 8 }]);
        let inner = Ctx(vec![Frame::Call { site: 8 }, Frame::Loop { header: b(3), iter: 1 }]);
        let other = Ctx(vec![Frame::Call { site: 12 }]);
        let deeper = Ctx(vec![Frame::Call { site: 8 }, Frame::Call { site: 20 }]);
        assert!(callctx.extends_with_loops(&callctx));
        assert!(inner.extends_with_loops(&callctx));
        assert!(!other.extends_with_loops(&callctx));
        assert!(!deeper.extends_with_loops(&callctx));
    }

    #[test]
    fn interning_is_stable() {
        let mut t = CtxTable::new();
        let a = t.intern(Ctx(vec![Frame::Call { site: 4 }]));
        let b_ = t.intern(Ctx(vec![Frame::Call { site: 8 }]));
        let a2 = t.intern(Ctx(vec![Frame::Call { site: 4 }]));
        assert_eq!(a, a2);
        assert_ne!(a, b_);
        assert_eq!(t.root(), CtxId(0));
        assert_eq!(t.get(t.root()), &Ctx::root());
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn display_formats() {
        let c = Ctx(vec![Frame::Call { site: 16 }, Frame::Loop { header: b(2), iter: 0 }]);
        assert_eq!(c.to_string(), "⟨call@0x10, b2#0⟩");
        assert_eq!(Ctx::root().to_string(), "⟨⟩");
    }
}
