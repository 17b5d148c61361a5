//! The [`Strategy`] trait and combinators.

use crate::test_runner::TestRng;
use rand::Rng;
use std::ops::{Range, RangeInclusive};

/// A recipe for generating values of an output type.
///
/// Unlike real proptest there is no value tree / shrinking: a strategy is
/// just a deterministic function of the RNG state.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn gen_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generates an intermediate value, then generates from the strategy
    /// `f` builds out of it.
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { inner: self, f }
    }

    /// Type-erases the strategy (used by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(move |rng| self.gen_value(rng)))
    }
}

/// Strategy always yielding a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn gen_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Output of [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn gen_value(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.gen_value(rng))
    }
}

/// Output of [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn gen_value(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.gen_value(rng)).gen_value(rng)
    }
}

/// Type-erased strategy.
pub struct BoxedStrategy<V>(Box<dyn Fn(&mut TestRng) -> V>);

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn gen_value(&self, rng: &mut TestRng) -> V {
        (self.0)(rng)
    }
}

/// Uniform choice among boxed strategies (`prop_oneof!`).
pub struct Union<V>(Vec<BoxedStrategy<V>>);

impl<V> Union<V> {
    /// Builds a union; panics on an empty list.
    pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Union(options)
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn gen_value(&self, rng: &mut TestRng) -> V {
        let i = rng.gen_range(0..self.0.len());
        self.0[i].gen_value(rng)
    }
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn gen_value(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn gen_value(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_int_range_strategy!(usize, u64, u32, u16, u8);

impl Strategy for Range<f64> {
    type Value = f64;
    fn gen_value(&self, rng: &mut TestRng) -> f64 {
        rng.gen_range(self.clone())
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;
    fn gen_value(&self, rng: &mut TestRng) -> f64 {
        rng.gen_range(self.clone())
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(
                    non_snake_case,
                    reason = "the bindings reuse the macro's uppercase type-parameter names"
                )]
                let ($($name,)+) = self;
                ($($name.gen_value(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);
