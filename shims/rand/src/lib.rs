//! Offline shim exposing the subset of the `rand` 0.8 API this
//! workspace uses. The container image has no crates.io access, so the
//! workspace vendors a small, deterministic implementation: an
//! xoshiro256++ generator behind [`rngs::StdRng`], the [`Rng`] /
//! [`RngCore`] / [`SeedableRng`] traits, uniform range sampling and
//! slice shuffling. The statistical quality is more than sufficient for
//! the repository's seeded experiments; the stream differs from
//! upstream `rand`, which no test relies on.

/// Low-level generator interface: a source of uniform `u64`s.
pub trait RngCore {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Seeding interface (subset: [`SeedableRng::seed_from_u64`]).
pub trait SeedableRng: Sized {
    /// Derive a full generator state from a 64-bit seed (SplitMix64
    /// expansion, as upstream `rand` does).
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing convenience methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// A uniform sample of type `T` (integers: full range; `f64`/`f32`:
    /// uniform in `[0,1)`).
    fn gen<T>(&mut self) -> T
    where
        distributions::Standard: distributions::Distribution<T>,
        Self: Sized,
    {
        use distributions::Distribution;
        distributions::Standard.sample(self)
    }

    /// A uniform sample from `range` (half-open or inclusive).
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: distributions::uniform::SampleRange<T>,
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        debug_assert!((0.0..=1.0).contains(&p), "gen_bool probability {p} out of range");
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod distributions {
    //! Sampling distributions (subset: [`Standard`] and uniform ranges).

    use super::RngCore;

    /// A distribution over values of type `T`.
    pub trait Distribution<T> {
        /// Draw one sample.
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// The "natural" distribution: full range for integers, `[0,1)` for
    /// floats.
    pub struct Standard;

    macro_rules! impl_standard_int {
        ($($t:ty),*) => {$(
            impl Distribution<$t> for Standard {
                #[inline]
                fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Distribution<u128> for Standard {
        #[inline]
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u128 {
            ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
        }
    }

    impl Distribution<i128> for Standard {
        #[inline]
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> i128 {
            <Standard as Distribution<u128>>::sample(self, rng) as i128
        }
    }

    impl Distribution<bool> for Standard {
        #[inline]
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Distribution<f64> for Standard {
        #[inline]
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
            ((rng.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64)
        }
    }

    impl Distribution<f32> for Standard {
        #[inline]
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f32 {
            ((rng.next_u64() >> 40) as f32) * (1.0 / (1u32 << 24) as f32)
        }
    }

    pub mod uniform {
        //! Uniform range sampling.

        use super::super::RngCore;
        use std::ops::{Range, RangeFrom, RangeInclusive};

        /// A range that can produce uniform samples of `T`.
        pub trait SampleRange<T> {
            /// Draw one sample from the range.
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
        }

        /// Uniform `u64` in `[0, span)`, `span > 0`, via Lemire's
        /// widening-multiply method (bias < 2⁻⁶⁴, irrelevant here).
        #[inline]
        pub(crate) fn below_u64<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
            ((rng.next_u64() as u128 * span as u128) >> 64) as u64
        }

        #[inline]
        fn below_u128<R: RngCore + ?Sized>(rng: &mut R, span: u128) -> u128 {
            if span <= u64::MAX as u128 {
                below_u64(rng, span as u64) as u128
            } else {
                let wide = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
                wide % span
            }
        }

        macro_rules! impl_sample_range {
            ($($t:ty => $u:ty),*) => {$(
                impl SampleRange<$t> for Range<$t> {
                    #[inline]
                    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                        assert!(self.start < self.end, "empty gen_range");
                        let span = (self.end as $u).wrapping_sub(self.start as $u);
                        let off = below_u128(rng, span as u128) as $u;
                        (self.start as $u).wrapping_add(off) as $t
                    }
                }
                impl SampleRange<$t> for RangeInclusive<$t> {
                    #[inline]
                    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                        let (start, end) = (*self.start(), *self.end());
                        assert!(start <= end, "empty gen_range");
                        let span = (end as $u).wrapping_sub(start as $u) as u128 + 1;
                        let off = below_u128(rng, span) as $u;
                        (start as $u).wrapping_add(off) as $t
                    }
                }
                impl SampleRange<$t> for RangeFrom<$t> {
                    #[inline]
                    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                        (self.start..=<$t>::MAX).sample_single(rng)
                    }
                }
            )*};
        }
        impl_sample_range!(
            u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize,
            i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize
        );

        impl SampleRange<u128> for Range<u128> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> u128 {
                assert!(self.start < self.end, "empty gen_range");
                self.start + below_u128(rng, self.end - self.start)
            }
        }

        impl SampleRange<f64> for Range<f64> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
                let unit = ((rng.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64);
                self.start + unit * (self.end - self.start)
            }
        }
    }
}

pub mod rngs {
    //! Concrete generators.

    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++ seeded via
    /// SplitMix64. Fast, small, passes BigCrush — entirely adequate for
    /// seeded simulation experiments.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    #[inline]
    fn splitmix64(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut x = seed;
            let s = [splitmix64(&mut x), splitmix64(&mut x), splitmix64(&mut x), splitmix64(&mut x)];
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let [s0, s1, s2, s3] = self.s;
            let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
            let t = s1 << 17;
            let mut s = [s0, s1, s2, s3];
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            self.s = s;
            result
        }
    }
}

pub mod seq {
    //! Sequence helpers (subset: [`SliceRandom::shuffle`]).

    use super::distributions::uniform::below_u64;
    use super::Rng;

    /// Random operations on slices.
    pub trait SliceRandom {
        /// The element type.
        type Item;
        /// Fisher–Yates shuffle in place.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = below_u64(rng, i as u64 + 1) as usize;
                self.swap(i, j);
            }
        }
    }
}

/// Re-export matching `rand::Rng` usage as `use rand::Rng;`.
pub use distributions::Standard;

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_and_distinct() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(1);
        let mut c = StdRng::seed_from_u64(2);
        let (x, y, z): (u64, u64, u64) = (a.gen(), b.gen(), c.gen());
        assert_eq!(x, y);
        assert_ne!(x, z);
    }

    #[test]
    fn ranges_in_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = rng.gen_range(10..20);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(-5i32..=5);
            assert!((-5..=5).contains(&w));
            let u = rng.gen_range(0u128..7);
            assert!(u < 7);
            let f = rng.gen::<f64>();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_bool_is_roughly_fair() {
        let mut rng = StdRng::seed_from_u64(4);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.5)).count();
        assert!((4_500..5_500).contains(&hits), "{hits}");
    }
}
