//! A minimal, dependency-free subset of the `rand` crate API, vendored
//! in-tree so the workspace builds without network access.
//!
//! Only what the simulator actually uses is provided: a deterministic
//! seedable PRNG ([`rngs::StdRng`], xoshiro256** seeded via splitmix64)
//! and the [`Rng`] helpers `gen_range` / `gen_bool`. Determinism across
//! runs and platforms is the one property the simulator depends on; the
//! statistical quality of xoshiro256** is more than adequate for
//! latency jitter and workload generation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Low-level source of random 64-bit words.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// A PRNG that can be constructed from a seed.
pub trait SeedableRng: Sized {
    /// Creates a generator whose entire stream is a function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing sampling helpers, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Samples uniformly from `range` (half-open or inclusive).
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "gen_bool p out of range: {p}");
        // 53 high-quality mantissa bits → uniform in [0, 1).
        let f = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        f < p
    }
}

impl<T: RngCore> Rng for T {}

/// A range that can be sampled uniformly, producing `T`.
///
/// The sample type is a trait *parameter* (not an associated type), and
/// [`SampleRange`] has one blanket impl per range shape over
/// `SampleUniform` element types — the same structure as upstream
/// `rand`, which is what lets the expected result type drive inference
/// of the range's integer literals.
pub trait SampleRange<T> {
    /// Draws one uniform sample from the range.
    fn sample_from<G: RngCore>(self, rng: &mut G) -> T;
}

/// Types that can be drawn uniformly from a range.
pub(crate) trait SampleUniform: Copy + PartialOrd {
    /// Uniform sample from `[lo, hi)` (or `[lo, hi]` when `inclusive`).
    fn sample_between<G: RngCore>(rng: &mut G, lo: Self, hi: Self, inclusive: bool) -> Self;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_from<G: RngCore>(self, rng: &mut G) -> T {
        assert!(self.start < self.end, "empty gen_range");
        T::sample_between(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_from<G: RngCore>(self, rng: &mut G) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "empty gen_range");
        T::sample_between(rng, lo, hi, true)
    }
}

/// Uniform integer in `[0, span)` by multiply-shift; bias is far below
/// anything observable at simulator scales and the result is fully
/// deterministic, which is what matters here.
fn uniform_below<G: RngCore>(rng: &mut G, span: u64) -> u64 {
    debug_assert!(span > 0);
    ((rng.next_u64() as u128 * span as u128) >> 64) as u64
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),+) => {$(
        impl SampleUniform for $t {
            fn sample_between<G: RngCore>(rng: &mut G, lo: $t, hi: $t, inclusive: bool) -> $t {
                let span = (hi as u64)
                    .wrapping_sub(lo as u64)
                    .wrapping_add(inclusive as u64);
                if span == 0 {
                    // Inclusive over the full u64 domain.
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(uniform_below(rng, span) as $t)
            }
        }
    )+};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i32, i64);

impl SampleUniform for f64 {
    fn sample_between<G: RngCore>(rng: &mut G, lo: f64, hi: f64, _inclusive: bool) -> f64 {
        let f = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + f * (hi - lo)
    }
}

/// Concrete PRNG implementations.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic PRNG: xoshiro256**,
    /// state-seeded with splitmix64 (the construction recommended by the
    /// xoshiro authors).
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0u64..=u64::MAX), b.gen_range(0u64..=u64::MAX));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.gen_range(0u64..1_000_000)).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen_range(0u64..1_000_000)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let x = r.gen_range(10usize..20);
            assert!((10..20).contains(&x));
            let y = r.gen_range(5u64..=5);
            assert_eq!(y, 5);
            let f = r.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = StdRng::seed_from_u64(4);
        assert!((0..100).all(|_| !r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
        let heads = (0..10_000).filter(|_| r.gen_bool(0.5)).count();
        assert!((4500..5500).contains(&heads), "suspicious bias: {heads}");
    }
}
