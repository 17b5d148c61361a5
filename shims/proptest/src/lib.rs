//! Offline stand-in for `proptest`.
//!
//! Implements the subset of the proptest API this workspace's property
//! tests use: the [`strategy::Strategy`] trait with `prop_map` / `prop_flat_map`,
//! range and tuple strategies, [`strategy::Just`], `any::<T>()`,
//! `collection::vec`, `option::of`, `prop_oneof!`, and the `proptest!`
//! test macro with `#![proptest_config(..)]`, `prop_assert*!` and
//! `prop_assume!`.
//!
//! Differences from the real crate: cases are generated from a
//! deterministic per-test seed (derived from the test path), and failing
//! inputs are *not* shrunk — the panic message carries the case index so a
//! failure is still reproducible by rerunning the test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod strategy;

pub mod test_runner {
    //! Test-case execution configuration and deterministic per-case RNG.

    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// RNG driving case generation.
    pub type TestRng = SmallRng;

    /// Marker for a rejected case (`prop_assume!` failure).
    #[derive(Debug)]
    pub struct Reject;

    /// Configuration accepted by `#![proptest_config(..)]`.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of successful cases required for the test to pass.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            // The real crate defaults to 256; 64 keeps the optimized test
            // profile fast while exercising plenty of structure.
            ProptestConfig { cases: 64 }
        }
    }

    /// Deterministic RNG for case `case` of the test identified by `path`:
    /// FNV-1a over the path mixed with the case index.
    pub fn case_rng(path: &str, case: u32) -> TestRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in path.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        SmallRng::seed_from_u64(h ^ ((case as u64) << 32 | case as u64))
    }
}

pub mod collection {
    //! Strategies for collections.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::ops::Range;

    /// Size specification for [`vec()`]: an exact length or a half-open
    /// range of lengths.
    #[derive(Debug, Clone)]
    pub struct SizeRange(Range<usize>);

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange(n..n + 1)
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            SizeRange(r)
        }
    }

    /// Strategy producing `Vec`s of values from `element`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Vector of values drawn from `element`, length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into().0,
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
            let len = if self.size.start + 1 >= self.size.end {
                self.size.start
            } else {
                rng.gen_range(self.size.clone())
            };
            (0..len).map(|_| self.element.gen_value(rng)).collect()
        }
    }
}

pub mod option {
    //! Strategies for `Option`.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// Strategy producing `Option`s of values from an inner strategy.
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S>(S);

    /// `Some` of the inner strategy's value three times out of four,
    /// `None` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
            if rng.gen_range(0usize..4) == 0 {
                None
            } else {
                Some(self.0.gen_value(rng))
            }
        }
    }
}

/// Types with a canonical uniform strategy, used by [`arbitrary::any`].
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::marker::PhantomData;

    /// Types with a default "any value" strategy.
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.gen::<u64>() as $t
                }
            }
        )*};
    }
    impl_arbitrary_int!(u64, u32, u16, u8, usize, i64, i32, i16, i8, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.gen::<u64>() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.gen::<f64>()
        }
    }

    /// Strategy returned by [`any`].
    #[derive(Debug, Clone)]
    pub struct Any<T>(PhantomData<T>);

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn gen_value(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

pub mod prelude {
    //! Glob-import surface matching `proptest::prelude::*`.
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Asserts a condition inside a `proptest!` case.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a `proptest!` case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a `proptest!` case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Rejects the current case (it is regenerated, not counted as a success).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::test_runner::Reject);
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::test_runner::Reject);
        }
    };
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

/// Declares property tests. Supports the subset of real proptest syntax
/// used in this workspace:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn my_property(x in 0usize..10, (a, b) in my_strategy()) { ... }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@expand ($cfg) $($rest)*);
    };
    (@expand ($cfg:expr) $(
        $(#[$attr:meta])*
        fn $name:ident($($pat:pat_param in $strategy:expr),+ $(,)?) $body:block
    )*) => {
        $(
            $(#[$attr])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let mut passed: u32 = 0;
                let mut case: u32 = 0;
                let mut rejected: u32 = 0;
                while passed < config.cases {
                    let mut proptest_case_rng = $crate::test_runner::case_rng(
                        concat!(module_path!(), "::", stringify!($name)),
                        case,
                    );
                    case += 1;
                    $(
                        let $pat = $crate::strategy::Strategy::gen_value(
                            &($strategy),
                            &mut proptest_case_rng,
                        );
                    )+
                    let outcome: ::std::result::Result<(), $crate::test_runner::Reject> =
                        (|| {
                            $body
                            #[allow(
                                unreachable_code,
                                reason = "a property body that always returns early leaves this `Ok(())` unreachable"
                            )]
                            Ok(())
                        })();
                    match outcome {
                        Ok(()) => passed += 1,
                        Err(_) => {
                            rejected += 1;
                            assert!(
                                rejected < 65_536,
                                "proptest: too many prop_assume! rejections \
                                 ({rejected} rejects for {passed} passes)"
                            );
                        }
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@expand ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::Strategy;

    #[test]
    fn ranges_and_maps_generate_in_bounds() {
        let mut rng = crate::test_runner::case_rng("shim-test", 0);
        let s = (1usize..5).prop_map(|x| x * 10);
        for _ in 0..100 {
            let v = s.gen_value(&mut rng);
            assert!(v % 10 == 0 && (10..50).contains(&v));
        }
    }

    #[test]
    fn oneof_hits_every_branch() {
        let s = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut rng = crate::test_runner::case_rng("shim-test-oneof", 0);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[s.gen_value(&mut rng) as usize] = true;
        }
        assert!(seen[1] && seen[2] && seen[3]);
    }

    #[test]
    fn collection_vec_respects_sizes() {
        let mut rng = crate::test_runner::case_rng("shim-test-vec", 0);
        let exact = crate::collection::vec(0u32..5, 7usize);
        assert_eq!(exact.gen_value(&mut rng).len(), 7);
        let ranged = crate::collection::vec(0u32..5, 2..6);
        for _ in 0..50 {
            let len = ranged.gen_value(&mut rng).len();
            assert!((2..6).contains(&len));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_generates_and_asserts(x in 0u32..100, (a, b) in (0u32..10, 0u32..10)) {
            prop_assume!(x != 99);
            prop_assert!(x < 99);
            prop_assert_eq!(a + b, b + a);
            prop_assert_ne!(a, a + 1);
        }
    }
}
