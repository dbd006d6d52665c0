//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! ships a minimal, API-compatible subset of proptest 1.x:
//!
//! * [`strategy::Strategy`] with `prop_map`, `prop_filter`,
//!   `prop_flat_map` and `boxed`;
//! * range, tuple, [`strategy::Just`], [`collection::vec`],
//!   [`arbitrary::any`] and [`sample::Index`] strategies;
//! * the [`proptest!`], [`prop_assert!`], [`prop_assert_eq!`] and
//!   [`prop_oneof!`] macros;
//! * a deterministic [`test_runner::TestRunner`].
//!
//! The one deliberate omission is shrinking: a failing case panics with
//! the assertion message (plus its case index on stderr) instead of a
//! minimized counterexample — include the generated values in
//! `prop_assert!` format args to see them, as the suites in this
//! workspace do. Generation is fully deterministic: every test's RNG
//! is seeded from a fixed hash of the test name, so `cargo test` gives
//! identical results on every run and machine (see
//! `proptest-regressions/README.md` at the workspace root). As
//! upstream, the `PROPTEST_CASES` environment variable feeds
//! `ProptestConfig::default()`, so it scales tests that use the
//! default config while explicit `with_cases(n)` headers keep their
//! configured count.

pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// Configuration for a `proptest!` block.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of generated cases per test.
        pub cases: u32,
        /// Resample attempts for `prop_filter` before giving up.
        pub max_global_rejects: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases, ..Default::default() }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            // Like upstream: the env var feeds the *default* config, so
            // an explicit `with_cases(n)` still takes precedence.
            let cases =
                std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(256);
            ProptestConfig { cases, max_global_rejects: 65536 }
        }
    }

    /// Deterministic source of randomness for strategy generation.
    pub struct TestRunner {
        rng: StdRng,
        config: ProptestConfig,
    }

    /// FNV-1a, used to derive a stable per-test seed from the test name.
    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    impl TestRunner {
        /// Runner with a fixed seed (matches upstream's deterministic
        /// runner used in exhaustive-ish loops).
        pub fn deterministic() -> Self {
            TestRunner {
                rng: StdRng::seed_from_u64(0x5461_6d70_5365_6564), // "StampSeed"-ish
                config: ProptestConfig::default(),
            }
        }

        pub fn new(config: ProptestConfig) -> Self {
            TestRunner { rng: StdRng::seed_from_u64(0x5461_6d70_5365_6564), config }
        }

        /// Runner seeded from the test name: deterministic across runs,
        /// decorrelated across tests.
        pub fn new_for_test(config: ProptestConfig, test_name: &str) -> Self {
            TestRunner { rng: StdRng::seed_from_u64(fnv1a(test_name.as_bytes())), config }
        }

        /// Case count from the config (`ProptestConfig::default` reads
        /// the `PROPTEST_CASES` env var, upstream-style).
        pub fn cases(&self) -> u32 {
            self.config.cases
        }

        pub fn config(&self) -> &ProptestConfig {
            &self.config
        }

        pub fn next_u64(&mut self) -> u64 {
            self.rng.next_u64()
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRunner;
    use std::rc::Rc;

    /// A generated value plus (vestigial) shrinking hooks.
    pub trait ValueTree {
        type Value;
        fn current(&self) -> Self::Value;
        fn simplify(&mut self) -> bool {
            false
        }
        fn complicate(&mut self) -> bool {
            false
        }
    }

    /// The tree type used by every shim strategy: just the value.
    #[derive(Clone, Debug)]
    pub struct Flat<T: Clone>(pub T);

    impl<T: Clone> ValueTree for Flat<T> {
        type Value = T;
        fn current(&self) -> T {
            self.0.clone()
        }
    }

    /// A recipe for generating values of type `Value`.
    pub trait Strategy {
        type Value: Clone;

        fn generate(&self, runner: &mut TestRunner) -> Self::Value;

        fn new_tree(&self, runner: &mut TestRunner) -> Result<Flat<Self::Value>, String> {
            Ok(Flat(self.generate(runner)))
        }

        fn prop_map<U: Clone, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { source: self, f }
        }

        fn prop_filter<R: Into<String>, F: Fn(&Self::Value) -> bool>(
            self,
            reason: R,
            f: F,
        ) -> Filter<Self, F>
        where
            Self: Sized,
        {
            Filter { source: self, reason: reason.into(), f }
        }

        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { source: self, f }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            let this = self;
            BoxedStrategy(Rc::new(move |runner| this.generate(runner)))
        }
    }

    /// Type-erased strategy (the shim erases to a generation closure).
    pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut TestRunner) -> T>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T: Clone> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, runner: &mut TestRunner) -> T {
            (self.0)(runner)
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _runner: &mut TestRunner) -> T {
            self.0.clone()
        }
    }

    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S: Strategy, U: Clone, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn generate(&self, runner: &mut TestRunner) -> U {
            (self.f)(self.source.generate(runner))
        }
    }

    pub struct Filter<S, F> {
        source: S,
        reason: String,
        f: F,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;
        fn generate(&self, runner: &mut TestRunner) -> S::Value {
            let rejects = runner.config().max_global_rejects;
            for _ in 0..=rejects {
                let v = self.source.generate(runner);
                if (self.f)(&v) {
                    return v;
                }
            }
            panic!("proptest shim: prop_filter exhausted {rejects} rejects: {}", self.reason);
        }
    }

    pub struct FlatMap<S, F> {
        source: S,
        f: F,
    }

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;
        fn generate(&self, runner: &mut TestRunner) -> T::Value {
            (self.f)(self.source.generate(runner)).generate(runner)
        }
    }

    /// Uniform choice among boxed alternatives (`prop_oneof!`).
    pub struct Union<T>(pub Vec<BoxedStrategy<T>>);

    impl<T: Clone> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, runner: &mut TestRunner) -> T {
            assert!(!self.0.is_empty(), "prop_oneof! of zero strategies");
            let i = (runner.next_u64() % self.0.len() as u64) as usize;
            self.0[i].generate(runner)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, runner: &mut TestRunner) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let k = (runner.next_u64() as u128) % span;
                    (self.start as i128 + k as i128) as $t
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, runner: &mut TestRunner) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128 + 1) as u128;
                    let k = (runner.next_u64() as u128) % span;
                    (lo as i128 + k as i128) as $t
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, runner: &mut TestRunner) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(runner),)+)
                }
            }
        };
    }
    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
    tuple_strategy!(A, B, C, D, E, F);
    tuple_strategy!(A, B, C, D, E, F, G);
    tuple_strategy!(A, B, C, D, E, F, G, H);
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRunner;
    use std::marker::PhantomData;

    /// Types with a canonical strategy, reachable via [`any`].
    pub trait Arbitrary: Clone {
        fn generate_arbitrary(runner: &mut TestRunner) -> Self;
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn generate_arbitrary(runner: &mut TestRunner) -> Self {
                    runner.next_u64() as $t
                }
            }
        )*};
    }
    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn generate_arbitrary(runner: &mut TestRunner) -> Self {
            runner.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for crate::sample::Index {
        fn generate_arbitrary(runner: &mut TestRunner) -> Self {
            crate::sample::Index::from_raw(runner.next_u64())
        }
    }

    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, runner: &mut TestRunner) -> T {
            T::generate_arbitrary(runner)
        }
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod sample {
    /// An index into a collection of (yet unknown) size.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct Index(u64);

    impl Index {
        pub(crate) fn from_raw(raw: u64) -> Self {
            Index(raw)
        }

        /// Project onto `0..len`. Panics if `len == 0`.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            (self.0 % len as u64) as usize
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRunner;
    use std::ops::{Range, RangeInclusive};

    /// Accepted size specifications for [`vec()`].
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // inclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange { lo: r.start, hi: r.end - 1 }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi: *r.end() }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, runner: &mut TestRunner) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo + 1) as u64;
            let len = self.size.lo + (runner.next_u64() % span) as usize;
            (0..len).map(|_| self.element.generate(runner)).collect()
        }
    }

    /// `proptest::collection::vec`: a vector of `element`s with a length
    /// drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

/// The `prop::` module alias exposed by the prelude (upstream exposes
/// the crate's module tree under this name).
pub mod prop {
    pub use crate::collection;
    pub use crate::sample;
    pub use crate::strategy;
}

pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::prop;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestRunner};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Like `assert!`, but named so proptest-style test bodies compile
/// unchanged. (No shrinking in the shim, so this is a plain assertion.)
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Uniform choice among the listed strategies (all must share a value
/// type). Weighted arms (`w => strat`) are accepted and the weights are
/// honoured by repetition.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {{
        let mut alts = Vec::new();
        $(
            let boxed = $crate::strategy::Strategy::boxed($strat);
            // A zero weight disables the arm entirely, as upstream.
            for _ in 0..($weight as usize) {
                alts.push(boxed.clone());
            }
        )+
        $crate::strategy::Union(alts)
    }};
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union(vec![$($crate::strategy::Strategy::boxed($strat)),+])
    };
}

/// The `proptest!` test-definition macro: each `fn name(pat in strategy,
/// ...) { body }` becomes a `#[test]` that generates `cases` inputs from
/// a deterministic, per-test-seeded runner and runs the body on each.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $config:expr;
     $($(#[$meta:meta])*
       fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config = $config;
                let mut __runner = $crate::test_runner::TestRunner::new_for_test(
                    __config,
                    concat!(module_path!(), "::", stringify!($name)),
                );
                for __case in 0..__runner.cases() {
                    $(let $pat = $crate::strategy::Strategy::generate(&($strat), &mut __runner);)*
                    // Upstream proptest runs the body in a closure
                    // returning Result, so bodies may `return Ok(())`
                    // to skip a case early. A panicking case reports
                    // its index first: generation is deterministic, so
                    // index + per-test seed reproduces the inputs.
                    #[allow(clippy::redundant_closure_call)]
                    let __result: ::std::result::Result<
                        ::std::result::Result<(), ::std::string::String>,
                        ::std::boxed::Box<dyn ::std::any::Any + ::std::marker::Send>,
                    > = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(|| {
                        $body
                        ::std::result::Result::Ok(())
                    }));
                    match __result {
                        ::std::result::Result::Ok(::std::result::Result::Ok(())) => {}
                        ::std::result::Result::Ok(::std::result::Result::Err(__e)) => {
                            panic!("proptest case failed: {}", __e);
                        }
                        ::std::result::Result::Err(__payload) => {
                            eprintln!(
                                "proptest shim: {} failed at case {} of {} \
                                 (deterministic: rerunning reproduces this case)",
                                stringify!($name),
                                __case,
                                __runner.cases(),
                            );
                            ::std::panic::resume_unwind(__payload);
                        }
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_tuples() {
        let mut runner = TestRunner::deterministic();
        for _ in 0..100 {
            let (a, b) = (0u32..10, -5i32..=5).generate(&mut runner);
            assert!(a < 10);
            assert!((-5..=5).contains(&b));
        }
    }

    #[test]
    fn oneof_and_map() {
        let mut runner = TestRunner::deterministic();
        let s = prop_oneof![Just(1u32), Just(2), 10u32..20].prop_map(|x| x * 2);
        for _ in 0..100 {
            let v = s.generate(&mut runner);
            assert!(v == 2 || v == 4 || (20..40).contains(&v));
        }
    }

    #[test]
    fn vec_sizes() {
        let mut runner = TestRunner::deterministic();
        let s = prop::collection::vec(0u32..5, 1..4);
        for _ in 0..100 {
            let v = s.generate(&mut runner);
            assert!((1..=3).contains(&v.len()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn macro_smoke((a, b) in (0u32..100, 0u32..100), v in prop::collection::vec(0u8..4, 0..8)) {
            prop_assert!(a < 100 && b < 100);
            prop_assert!(v.len() < 8);
        }
    }

    #[test]
    fn deterministic_across_runners() {
        let a: Vec<u32> = {
            let mut r = TestRunner::new_for_test(ProptestConfig::default(), "t");
            (0..32).map(|_| (0u32..1000).generate(&mut r)).collect()
        };
        let b: Vec<u32> = {
            let mut r = TestRunner::new_for_test(ProptestConfig::default(), "t");
            (0..32).map(|_| (0u32..1000).generate(&mut r)).collect()
        };
        assert_eq!(a, b);
    }
}
