//! User annotations, mirroring aiT's annotation language.
//!
//! Annotations supply facts the analyses cannot derive: bounds for
//! data-dependent loops, targets of computed jumps the value analysis
//! cannot enumerate, and recursion depths for the stack analysis.
//! Locations are given by symbol name (resolved against the program's
//! symbol table) or raw address.

use std::collections::BTreeMap;

use stamp_isa::Program;
use stamp_loopbound::LoopBoundOptions;

/// A collection of analysis annotations.
///
/// # Example
///
/// ```
/// use stamp_core::Annotations;
///
/// let ann = Annotations::new()
///     .loop_bound("search_loop", 10)
///     .recursion_depth("fac", 12);
/// assert_eq!(ann.loop_bounds().len(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Annotations {
    loop_bounds: Vec<(Loc, u64)>,
    indirect_targets: Vec<(Loc, Vec<Loc>)>,
    recursion_depths: Vec<(Loc, u32)>,
}

#[derive(Clone, Debug)]
enum Loc {
    Symbol(String),
    Addr(u32),
}

impl Loc {
    fn resolve(&self, program: &Program) -> Option<u32> {
        match self {
            Loc::Symbol(s) => program.symbols.addr_of(s),
            Loc::Addr(a) => Some(*a),
        }
    }
}

impl Annotations {
    /// No annotations.
    pub fn new() -> Annotations {
        Annotations::default()
    }

    /// Bounds the loop whose header starts at the given symbol: the
    /// header executes at most `bound` times per loop entry.
    pub fn loop_bound(mut self, header: impl Into<String>, bound: u64) -> Annotations {
        self.loop_bounds.push((Loc::Symbol(header.into()), bound));
        self
    }

    /// Bounds the loop whose header starts at `addr`.
    pub fn loop_bound_at(mut self, addr: u32, bound: u64) -> Annotations {
        self.loop_bounds.push((Loc::Addr(addr), bound));
        self
    }

    /// Declares the possible targets of the indirect jump at `addr`.
    pub fn indirect_target_addrs(
        mut self,
        addr: u32,
        targets: impl IntoIterator<Item = u32>,
    ) -> Annotations {
        self.indirect_targets.push((Loc::Addr(addr), targets.into_iter().map(Loc::Addr).collect()));
        self
    }

    /// Declares the possible targets (by symbol) of the indirect jump at
    /// the instruction labelled `at`.
    pub fn indirect_targets(
        mut self,
        at: impl Into<String>,
        targets: impl IntoIterator<Item = String>,
    ) -> Annotations {
        self.indirect_targets
            .push((Loc::Symbol(at.into()), targets.into_iter().map(Loc::Symbol).collect()));
        self
    }

    /// Bounds the recursion depth of the function labelled `function`
    /// (stack analysis, call-graph mode).
    pub fn recursion_depth(mut self, function: impl Into<String>, depth: u32) -> Annotations {
        self.recursion_depths.push((Loc::Symbol(function.into()), depth));
        self
    }

    /// Number of loop-bound annotations.
    pub fn loop_bounds(&self) -> &[(impl std::fmt::Debug, u64)] {
        &self.loop_bounds
    }

    /// The loop-bound phase options: loop bounds resolved to header
    /// addresses.
    pub(crate) fn loop_bound_options(&self, program: &Program) -> LoopBoundOptions {
        let annotations =
            self.loop_bounds.iter().filter_map(|(l, b)| l.resolve(program).map(|a| (a, *b)));
        LoopBoundOptions { annotations: annotations.collect() }
    }

    /// Resolves indirect-target annotations to addresses.
    pub(crate) fn resolved_indirects(&self, program: &Program) -> BTreeMap<u32, Vec<u32>> {
        self.indirect_targets
            .iter()
            .filter_map(|(at, ts)| {
                let a = at.resolve(program)?;
                let targets: Vec<u32> = ts.iter().filter_map(|t| t.resolve(program)).collect();
                Some((a, targets))
            })
            .collect()
    }

    /// Resolves recursion depths to function entry addresses.
    pub(crate) fn resolved_recursion(&self, program: &Program) -> BTreeMap<u32, u32> {
        self.recursion_depths
            .iter()
            .filter_map(|(l, d)| l.resolve(program).map(|a| (a, *d)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stamp_isa::asm::assemble;

    #[test]
    fn symbols_resolve_against_program() {
        let p = assemble(".text\nmain: nop\nloop: j loop\n").unwrap();
        let ann = Annotations::new().loop_bound("loop", 5).loop_bound("nonexistent", 1);
        let resolved = ann.loop_bound_options(&p).annotations;
        assert_eq!(resolved.len(), 1);
        assert_eq!(resolved[&4], 5);
    }

    #[test]
    fn addresses_pass_through() {
        let p = assemble(".text\nmain: halt\n").unwrap();
        let ann =
            Annotations::new().loop_bound_at(0x40, 3).indirect_target_addrs(0x10, [0x20, 0x30]);
        assert_eq!(ann.loop_bound_options(&p).annotations[&0x40], 3);
        assert_eq!(ann.resolved_indirects(&p)[&0x10], vec![0x20, 0x30]);
    }
}
