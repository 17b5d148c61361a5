//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so the workspace ships
//! this minimal, dependency-free implementation of exactly the surface the
//! SurfNet code uses: [`Rng`] (`gen`, `gen_range`, `gen_bool`),
//! [`SeedableRng::seed_from_u64`], and [`rngs::SmallRng`] backed by
//! xoshiro256++ with SplitMix64 seeding — the same generator family the real
//! `rand 0.8` uses for `SmallRng` on 64-bit targets. Streams are
//! deterministic per seed, which is all the Monte-Carlo pipeline requires.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

use std::ops::{Range, RangeInclusive};

/// Low-level uniform bit source.
pub trait RngCore {
    /// Returns the next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 uniformly distributed bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types that can be sampled uniformly from an RNG (the `Standard`
/// distribution of the real crate).
pub trait Random: Sized {
    /// Draws one uniform value.
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Random for f64 {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform bits in [0, 1), matching rand's `Standard` for f64.
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Random for f32 {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Random for u64 {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Random for u32 {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Random for bool {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Types uniformly sampleable over an interval (`gen_range` output types).
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform draw from `[lo, hi)`.
    fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
    /// Uniform draw from `[lo, hi]`.
    fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo < hi, "empty range in gen_range");
                let span = hi.wrapping_sub(lo) as u64;
                lo.wrapping_add((rng.next_u64() % span) as $t)
            }
            fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo <= hi, "empty range in gen_range");
                let span = (hi.wrapping_sub(lo) as u64).wrapping_add(1);
                if span == 0 {
                    // Full-width inclusive range: every value is valid.
                    return lo.wrapping_add(rng.next_u64() as $t);
                }
                lo.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
    )*};
}

impl_sample_uniform_int!(usize, u64, u32, u16, u8, i64, i32, i16, i8, isize);

impl SampleUniform for f64 {
    fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
        assert!(lo < hi, "empty range in gen_range");
        lo + f64::random(rng) * (hi - lo)
    }
    fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
        Self::sample_half_open(lo, hi, rng)
    }
}

/// Ranges that can produce a uniform sample (`gen_range` argument).
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_inclusive(*self.start(), *self.end(), rng)
    }
}

/// User-facing random-value interface, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a uniform value of type `T`.
    fn gen<T: Random>(&mut self) -> T {
        T::random(self)
    }

    /// Draws uniformly from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        f64::random(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// RNGs constructible from a seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed (stream is a pure function
    /// of the seed).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Small, fast, non-cryptographic RNG: xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = SmallRng::seed_from_u64(8);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x = rng.gen::<f64>();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..1000 {
            let x = rng.gen_range(3usize..17);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(1u32..=5);
            assert!((1..=5).contains(&y));
            let z = rng.gen_range(-1.0f64..1.0);
            assert!((-1.0..1.0).contains(&z));
        }
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[rng.gen_range(0usize..4)] += 1;
        }
        for &c in &counts {
            assert!(c > 800, "bucket count {c} far from uniform");
        }
    }
}
