//! k-wise independent hash families.
//!
//! The paper's strongest routing and caching guarantees (Theorem 2.11,
//! Theorem 3.8) assume the hash function mapping data items into `I` is
//! drawn from a `k ≥ log n`-wise independent family. We implement the
//! textbook construction: a random polynomial of degree `k−1` over the
//! Mersenne prime field `GF(2^61 − 1)`, evaluated by Horner's rule with
//! fast Mersenne reduction.
//!
//! Items are `u64` identifiers, for which the family is exactly k-wise
//! independent (over the prime field, then scaled to the circle).

use crate::point::Point;
use rand::Rng;

/// The Mersenne prime `2^61 − 1`.
pub const MERSENNE_P: u64 = (1 << 61) - 1;

#[inline]
fn reduce(x: u128) -> u64 {
    // x < 2^122. Two folding rounds bring it below 2^61 + ε, then a
    // final conditional subtraction normalises into [0, P).
    let x = (x & MERSENNE_P as u128) + (x >> 61);
    let mut x = ((x & MERSENNE_P as u128) + (x >> 61)) as u64;
    if x >= MERSENNE_P {
        x -= MERSENNE_P;
    }
    x
}

#[inline]
fn mulmod(a: u64, b: u64) -> u64 {
    reduce(a as u128 * b as u128)
}

#[inline]
fn addmod(a: u64, b: u64) -> u64 {
    let s = a + b; // both < 2^61, no overflow
    if s >= MERSENNE_P {
        s - MERSENNE_P
    } else {
        s
    }
}

/// A hash function drawn from a k-wise independent family
/// (random degree-(k−1) polynomial over `GF(2^61−1)`).
#[derive(Clone, Debug)]
pub struct KWiseHash {
    /// Coefficients `a_0 … a_{k−1}`, all in `[0, P)`.
    coeffs: Vec<u64>,
}

impl KWiseHash {
    /// Draw a fresh function with independence parameter `k ≥ 1`.
    pub fn new(k: usize, rng: &mut impl Rng) -> Self {
        assert!(k >= 1, "independence parameter must be ≥ 1");
        let coeffs = (0..k).map(|_| rng.gen_range(0..MERSENNE_P)).collect();
        KWiseHash { coeffs }
    }

    /// The family's independence parameter `k`.
    pub fn k(&self) -> usize {
        self.coeffs.len()
    }

    /// Evaluate over the field: `h(x) ∈ [0, P)`.
    pub fn eval(&self, x: u64) -> u64 {
        let x = x % MERSENNE_P;
        let mut acc = 0u64;
        for &c in self.coeffs.iter().rev() {
            acc = addmod(mulmod(acc, x), c);
        }
        acc
    }

    /// Hash an item identifier to a point on the circle.
    pub fn point(&self, item: u64) -> Point {
        Point(scale(self.eval(item)))
    }
}

/// Scale `h ∈ [0, P)` to `⌊h · 2^64 / P⌋ ∈ [0, 2^64)`, preserving
/// uniformity up to one ulp. As `2^64 = 8P + 8`, that is `8h + ⌊8h / P⌋`
/// exactly, and `8h < 8P < 2^64`: no 128-bit division.
#[inline]
fn scale(h: u64) -> u64 {
    let h8 = h << 3;
    h8 + h8 / MERSENNE_P
}

/// FNV-1a over a byte string: a fingerprint, not a member of the
/// k-wise family.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;
    use proptest::prelude::*;

    #[test]
    fn mersenne_reduce_matches_naive() {
        for x in [0u128, 1, MERSENNE_P as u128, (MERSENNE_P as u128) * 7 + 3, u128::MAX >> 6] {
            assert_eq!(reduce(x) as u128, x % MERSENNE_P as u128, "x={x}");
        }
    }

    #[test]
    fn eval_is_horner_polynomial() {
        let h = KWiseHash { coeffs: vec![3, 5, 7] }; // 3 + 5x + 7x²
        assert_eq!(h.eval(0), 3);
        assert_eq!(h.eval(1), 15);
        assert_eq!(h.eval(2), 3 + 10 + 28);
    }

    #[test]
    fn constant_polynomial_is_constant() {
        let h = KWiseHash { coeffs: vec![42] };
        assert_eq!(h.eval(1), h.eval(999));
    }

    #[test]
    fn points_are_roughly_uniform() {
        let mut rng = seeded(1);
        let h = KWiseHash::new(8, &mut rng);
        let buckets = 16usize;
        let mut counts = vec![0usize; buckets];
        let n = 64_000u64;
        for i in 0..n {
            let p = h.point(i);
            counts[(p.bits() >> 60) as usize] += 1;
        }
        let expected = n as f64 / buckets as f64;
        for (b, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.10, "bucket {b}: count {c} deviates {dev:.3} from uniform");
        }
    }

    #[test]
    fn pairwise_collision_rate_is_small() {
        // Over m samples, expected collisions ≈ m²/2P — essentially zero.
        let mut rng = seeded(2);
        let h = KWiseHash::new(2, &mut rng);
        let mut seen: Vec<u64> = (0..10_000).map(|i| h.eval(i)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 10_000);
    }

    proptest! {
        #[test]
        fn prop_eval_in_field(seed: u64, x: u64) {
            let mut rng = seeded(seed);
            let h = KWiseHash::new(4, &mut rng);
            prop_assert!(h.eval(x) < MERSENNE_P);
        }

        #[test]
        fn prop_deterministic(seed: u64, x: u64) {
            let mut rng1 = seeded(seed);
            let mut rng2 = seeded(seed);
            let h1 = KWiseHash::new(6, &mut rng1);
            let h2 = KWiseHash::new(6, &mut rng2);
            prop_assert_eq!(h1.point(x), h2.point(x));
        }

        #[test]
        fn prop_scale_is_the_wide_division(h in 0..MERSENNE_P) {
            // the field's edges ride along with every drawn value
            for h in [h, 0, 1, MERSENNE_P - 1] {
                let wide = ((u128::from(h) << 64) / u128::from(MERSENNE_P)) as u64;
                prop_assert_eq!(scale(h), wide);
            }
        }

        #[test]
        fn prop_reduce_correct(x: u128) {
            let x = x >> 6; // keep below 2^122
            prop_assert_eq!(reduce(x) as u128, x % (MERSENNE_P as u128));
        }
    }
}
