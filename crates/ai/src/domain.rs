//! The abstract-domain interface.

/// A join-semilattice abstract domain.
///
/// Implementations must satisfy, for all `a`, `b`:
///
/// * `join` is the least upper bound: after `a.join_from(&b)`,
///   `b.le(&a)` holds and the result is the smallest such element;
/// * `widen` over-approximates `join` and guarantees that every
///   ascending chain `a0, a0 ∇ a1, …` stabilizes in finitely many steps.
///
/// The framework calls `join_from`/`widen_from` in place and uses the
/// returned *changed* flag to drive the worklist.
///
/// # Cloning contract
///
/// The solver materializes one owned state per node entry, and
/// transfer functions typically clone their input once per evaluation,
/// so `Clone` sits on the hot path. Domains are expected to make it
/// cheap through structural sharing (copy-on-write of their bulky parts
/// behind `Arc` or `Rc`, as `AState`'s abstract memory and the abstract
/// caches do); a shared component also lets `join_from` detect the
/// self-join/no-op case by pointer identity and return `false` without
/// touching the data.
pub trait Domain: Clone {
    /// Joins `other` into `self`; returns `true` if `self` changed.
    fn join_from(&mut self, other: &Self) -> bool;

    /// Widens `self` with `other`; returns `true` if `self` changed.
    ///
    /// The default is plain join, which is only correct for domains with
    /// finite ascending chains (e.g. abstract caches, pipeline states).
    fn widen_from(&mut self, other: &Self) -> bool {
        self.join_from(other)
    }

    /// Partial-order test: `true` if `self ⊑ other`.
    fn le(&self, other: &Self) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny powerset domain over `u64` bit sets, used to test the solver.
    #[derive(Clone, Debug, PartialEq, Eq, Default)]
    struct Bits(u64);

    impl Domain for Bits {
        fn join_from(&mut self, other: &Self) -> bool {
            let before = self.0;
            self.0 |= other.0;
            self.0 != before
        }

        fn le(&self, other: &Self) -> bool {
            self.0 & !other.0 == 0
        }
    }

    #[test]
    fn join_is_lub() {
        let mut a = Bits(0b01);
        assert!(a.join_from(&Bits(0b10)));
        assert_eq!(a, Bits(0b11));
        assert!(!a.join_from(&Bits(0b10)));
        assert!(Bits(0b10).le(&a));
        assert!(!a.le(&Bits(0b10)));
    }
}
