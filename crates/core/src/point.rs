//! Exact fixed-point arithmetic on the continuous circle `I = [0,1)`.
//!
//! A [`Point`] stores `y ∈ [0,1)` as a `u64` with the meaning
//! `y = bits / 2^64`. All of the paper's continuous maps become exact
//! integer operations:
//!
//! * `ℓ(y) = y/2`           → `bits >> 1`
//! * `r(y) = y/2 + 1/2`     → `(bits >> 1) | 2^63`
//! * `b(y) = 2y mod 1`      → `bits << 1` (the carry falls off = mod 1)
//! * `f_i(y) = y/∆ + i/∆`   → `(bits + i·2^64) / ∆` in 128-bit arithmetic
//!
//! The distance-halving property (Observation 2.3) therefore holds
//! *exactly* in the binary case and up to one unit in the last place
//! (2⁻⁶⁴) for non-power-of-two ∆.

use std::fmt;

/// A point on the continuous circle `I = [0,1)`, stored as `bits / 2^64`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Point(pub u64);

/// The top bit, i.e. the fixed-point representation of `1/2`.
pub const HALF: u64 = 1 << 63;

impl Point {
    /// The point `0`.
    pub const ZERO: Point = Point(0);

    /// The largest representable point, `1 - 2⁻⁶⁴`.
    pub const MAX: Point = Point(u64::MAX);

    /// Construct from raw fixed-point bits.
    #[inline]
    pub const fn from_bits(bits: u64) -> Self {
        Point(bits)
    }

    /// Raw fixed-point bits.
    #[inline]
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// The point `num/den` (requires `num < den`). Exact up to one ulp.
    ///
    /// Used pervasively in tests and in the De Bruijn isomorphism, where
    /// `x_i = i/n` for a power of two `n` is represented exactly.
    #[inline]
    pub fn from_ratio(num: u64, den: u64) -> Self {
        assert!(num < den, "from_ratio requires num < den (got {num}/{den})");
        Point((((num as u128) << 64) / den as u128) as u64)
    }

    /// Construct from an `f64` in `[0,1)` (rounds toward zero).
    #[inline]
    pub fn from_f64(v: f64) -> Self {
        assert!((0.0..1.0).contains(&v), "point must lie in [0,1), got {v}");
        Point((v * 2f64.powi(64)) as u64)
    }

    /// The value as an `f64` (rounded; for reporting only — protocol code
    /// always operates on bits).
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / 2f64.powi(64)
    }

    /// The left map `ℓ(y) = y/2`. Writes a `0` into the most significant
    /// digit of `y`'s binary expansion.
    #[inline]
    pub const fn left(self) -> Self {
        Point(self.0 >> 1)
    }

    /// The right map `r(y) = y/2 + 1/2`. Writes a `1` into the most
    /// significant digit of `y`'s binary expansion.
    #[inline]
    pub const fn right(self) -> Self {
        Point((self.0 >> 1) | HALF)
    }

    /// The backward map `b(y) = 2y mod 1`: the single incoming edge of
    /// `y` in the continuous Distance Halving graph.
    #[inline]
    pub const fn backward(self) -> Self {
        Point(self.0 << 1)
    }

    /// Apply one binary digit: `0 → ℓ`, `1 → r` (the paper's convention
    /// in the definition of `w(σ_t, y)`).
    #[inline]
    pub const fn apply_bit(self, bit: u8) -> Self {
        if bit == 0 {
            self.left()
        } else {
            self.right()
        }
    }

    /// The degree-∆ map `f_d(y) = y/∆ + d/∆` (Section 2.3). For ∆ a
    /// power of two this is exact; otherwise correctly rounded (floor)
    /// to one ulp.
    #[inline]
    pub fn child(self, digit: u32, delta: u32) -> Self {
        debug_assert!(digit < delta, "digit {digit} out of range for ∆={delta}");
        if delta > 1 && delta.is_power_of_two() {
            // ∆ = 2^b: the floor of (y + d·2⁶⁴) / 2^b is a shift, and
            // d < 2^b fills exactly the b bits the shift vacates
            let b = delta.trailing_zeros();
            return Point((self.0 >> b) | (u64::from(digit) << (64 - b)));
        }
        let num = self.0 as u128 + ((digit as u128) << 64);
        Point((num / delta as u128) as u64)
    }

    /// The degree-∆ backward map `b_∆(y) = ∆·y mod 1`.
    #[inline]
    pub fn backward_delta(self, delta: u32) -> Self {
        Point((self.0 as u128 * delta as u128) as u64)
    }

    /// The most significant base-∆ digit of `y`, i.e. `⌊∆·y⌋`.
    /// For ∆ = 2 this is the first bit of the binary expansion.
    #[inline]
    pub fn leading_digit(self, delta: u32) -> u32 {
        ((self.0 as u128 * delta as u128) >> 64) as u32
    }

    /// The `i`-th binary digit of `y` (0-indexed from the binary point,
    /// so `digit(0)` is the most significant bit). Valid for `i < 64`.
    #[inline]
    pub const fn bit(self, i: u32) -> u8 {
        ((self.0 >> (63 - i)) & 1) as u8
    }

    /// Linear distance `d(x,y) = |x − y|` (the metric used by the
    /// distance-halving property, Observation 2.3).
    #[inline]
    pub const fn dist(self, other: Self) -> u64 {
        self.0.abs_diff(other.0)
    }

    /// Distance on the circle: `min(|x−y|, 1−|x−y|)`.
    #[inline]
    pub const fn ring_dist(self, other: Self) -> u64 {
        let d = self.0.abs_diff(other.0);
        // 2^64 − d, computed mod 2^64 (0 exactly when d == 0).
        let complement = (u64::MAX - d).wrapping_add(1);
        if d <= complement {
            d
        } else {
            complement
        }
    }

    /// `self + delta mod 1`.
    #[inline]
    pub const fn wrapping_add(self, delta: u64) -> Self {
        Point(self.0.wrapping_add(delta))
    }

    /// `self − delta mod 1`.
    #[inline]
    pub const fn wrapping_sub(self, delta: u64) -> Self {
        Point(self.0.wrapping_sub(delta))
    }

    /// Clockwise offset from `from` to `self` on the circle (how far one
    /// must travel in increasing direction from `from` to reach `self`).
    #[inline]
    pub const fn offset_from(self, from: Self) -> u64 {
        self.0.wrapping_sub(from.0)
    }

    /// The prefix walk `w(σ(z)_t, y)` in closed form (binary case):
    /// the point whose binary expansion starts with the first `t` digits
    /// of `z` followed by the digits of `y` shifted right by `t`.
    ///
    /// By Claim 2.4, `d(z, y.prefix_walk(z, t)) ≤ 2⁻ᵗ` — a walk guided by
    /// `z`'s binary representation approaches `z` regardless of the
    /// starting point `y`. `t` must be ≤ 64.
    #[inline]
    pub fn prefix_walk(self, z: Self, t: u32) -> Self {
        match t {
            0 => self,
            1..=63 => Point((self.0 >> t) | (z.0 >> (64 - t) << (64 - t))),
            64 => z,
            _ => panic!("prefix_walk: t must be ≤ 64, got {t}"),
        }
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Point({:.6} = {:#018x})", self.to_f64(), self.0)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.to_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn left_right_are_halving() {
        let y = Point::from_ratio(3, 8); // 0.375
        assert_eq!(y.left(), Point::from_ratio(3, 16)); // 0.1875
        assert_eq!(y.right(), Point::from_ratio(11, 16)); // 0.6875
    }

    #[test]
    fn backward_inverts_left_and_right() {
        let y = Point::from_ratio(5, 16);
        assert_eq!(y.left().backward(), y);
        assert_eq!(y.right().backward(), y);
    }

    #[test]
    fn binary_shift_interpretation() {
        // ℓ inserts a 0 as the new most significant digit, r inserts a 1.
        let y = Point::from_bits(0b1011 << 60); // 0.1011₂
        assert_eq!(y.left().bits(), 0b01011 << 59); // 0.01011₂
        assert_eq!(y.right().bits(), 0b11011 << 59); // 0.11011₂
    }

    #[test]
    fn delta_maps_match_binary_for_delta_2() {
        let y = Point::from_ratio(123_456, 1 << 20);
        assert_eq!(y.child(0, 2), y.left());
        assert_eq!(y.child(1, 2), y.right());
        assert_eq!(y.backward_delta(2), y.backward());
    }

    #[test]
    fn delta_child_and_backward_invert() {
        for delta in [2u32, 3, 4, 7, 16, 100] {
            let y = Point::from_ratio(7919, 100_000);
            for d in 0..delta {
                let c = y.child(d, delta);
                // backward_delta loses at most the rounding of the division
                let back = c.backward_delta(delta);
                assert!(
                    back.dist(y) < delta as u64,
                    "∆={delta} d={d}: inversion error too large"
                );
                assert_eq!(c.leading_digit(delta), d, "leading digit must be d");
            }
        }
    }

    #[test]
    fn ring_dist_symmetry_and_wrap() {
        let a = Point::from_ratio(1, 100);
        let b = Point::from_ratio(99, 100);
        // linear distance is 0.98, ring distance 0.02
        assert!(a.dist(b) > a.ring_dist(b));
        assert_eq!(a.ring_dist(b), b.ring_dist(a));
    }

    #[test]
    fn prefix_walk_closed_form_matches_iterative() {
        let y = Point::from_ratio(123_456_789, 1 << 62);
        let z = Point::from_ratio(987_654_321, 1 << 62);
        for t in 0..=64u32 {
            // iterative: apply z's digits from digit t-1 (first applied)
            // down to digit 0 (last applied), per the w(σ_t, ·) recursion.
            let mut p = y;
            for j in (0..t).rev() {
                p = p.apply_bit(z.bit(j));
            }
            assert_eq!(p, y.prefix_walk(z, t), "t={t}");
        }
    }

    #[test]
    fn prefix_walk_approaches_target() {
        // Claim 2.4: d(z, w(σ(z)_t, y)) ≤ 2⁻ᵗ
        let y = Point::from_f64(0.314_159);
        let z = Point::from_f64(0.271_828);
        for t in 0..=63u32 {
            let w = y.prefix_walk(z, t);
            let bound = if t == 0 { u64::MAX } else { 1u64 << (64 - t) };
            assert!(w.dist(z) <= bound, "t={t}: dist {} > {}", w.dist(z), bound);
        }
    }

    proptest! {
        #[test]
        fn prop_distance_halving(a: u64, b: u64) {
            // Observation 2.3 in integer arithmetic: d(ℓa, ℓb) is d(a,b)/2
            // rounded either way depending on the parities of a and b.
            let (a, b) = (Point(a), Point(b));
            let d = a.dist(b);
            for h in [a.left().dist(b.left()), a.right().dist(b.right())] {
                prop_assert!(h == d / 2 || h == d.div_ceil(2), "h={h} d={d}");
            }
        }

        #[test]
        fn prop_backward_left_inverse(y: u64) {
            // Over the reals b(ℓ(y)) = y exactly; in fixed point the
            // right shift discards the lowest bit, so the roundtrip is
            // exact up to one ulp (and exact for even bit patterns).
            let y = Point(y);
            prop_assert!(y.left().backward().dist(y) <= 1);
            prop_assert!(y.right().backward().dist(y) <= 1);
            prop_assert_eq!(Point(y.0 & !1).left().backward(), Point(y.0 & !1));
        }

        #[test]
        fn prop_delta_distance_shrinks(a: u64, b: u64, delta in 2u32..64, d in 0u32..64) {
            let d = d % delta;
            let (a, b) = (Point(a), Point(b));
            let shrunk = a.child(d, delta).dist(b.child(d, delta));
            // d(f_d(a), f_d(b)) = d(a,b)/∆ up to one ulp of rounding.
            prop_assert!(shrunk <= a.dist(b) / delta as u64 + 1);
        }

        #[test]
        fn prop_power_of_two_child_is_the_division(y: u64, b in 1u32..=4) {
            // ∆ ∈ {2, 4, 8, 16}, every digit: the shift form equals the
            // u128 division it replaces
            let delta = 1u32 << b;
            for d in 0..delta {
                let num = u128::from(y) + (u128::from(d) << 64);
                let want = Point((num / u128::from(delta)) as u64);
                prop_assert_eq!(Point(y).child(d, delta), want, "∆={} d={}", delta, d);
            }
        }

        #[test]
        fn prop_offsets_roundtrip(p: u64, q: u64) {
            let (p, q) = (Point(p), Point(q));
            prop_assert_eq!(p.wrapping_add(q.offset_from(p)), q);
        }

        #[test]
        fn prop_ring_dist_at_most_half(a: u64, b: u64) {
            prop_assert!(Point(a).ring_dist(Point(b)) <= HALF);
        }
    }
}
