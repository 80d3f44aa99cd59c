//! The two-dimensional continuous torus `I = [0,1) × [0,1)` and the
//! Gabber-Galil expander maps (Section 5).
//!
//! Gabber and Galil define the continuous expander over `I` with the
//! transformations
//!
//! ```text
//! f(x, y) = (x + y, y)   mod 1
//! g(x, y) = (x, x + y)   mod 1
//! ```
//!
//! The neighbours of a point are `f, g, f⁻¹, g⁻¹` of it. Theorem 5.1
//! (Gabber-Galil): every measurable set `A` with `µ(A) ≤ 1/2` has
//! `µ(δ(A)) ≥ (2 − √3)/2 · µ(A)`. Both coordinates are stored as exact
//! 64-bit fixed point so the maps (wrapping adds/subs) are exact and
//! invertible.

use crate::point::Point;
use std::fmt;

/// A point on the unit torus, exact fixed-point coordinates.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Point2 {
    /// Horizontal coordinate.
    pub x: Point,
    /// Vertical coordinate.
    pub y: Point,
}

impl Point2 {
    /// Construct from two circle points.
    pub const fn new(x: Point, y: Point) -> Self {
        Point2 { x, y }
    }

    /// Construct from raw bit pairs.
    pub const fn from_bits(x: u64, y: u64) -> Self {
        Point2 { x: Point(x), y: Point(y) }
    }

    /// Construct from `f64` coordinates in `[0,1)`.
    pub fn from_f64(x: f64, y: f64) -> Self {
        Point2 { x: Point::from_f64(x), y: Point::from_f64(y) }
    }

    /// Coordinates as `f64` (for reporting/geometry only).
    pub fn to_f64(self) -> (f64, f64) {
        (self.x.to_f64(), self.y.to_f64())
    }

    /// The Gabber-Galil map `f(x,y) = (x+y, y) mod 1`.
    #[inline]
    pub fn gg_f(self) -> Self {
        Point2 { x: Point(self.x.0.wrapping_add(self.y.0)), y: self.y }
    }

    /// The Gabber-Galil map `g(x,y) = (x, x+y) mod 1`.
    #[inline]
    pub fn gg_g(self) -> Self {
        Point2 { x: self.x, y: Point(self.y.0.wrapping_add(self.x.0)) }
    }

    /// Inverse of `f`: `f⁻¹(x,y) = (x−y, y) mod 1`.
    #[inline]
    pub fn gg_f_inv(self) -> Self {
        Point2 { x: Point(self.x.0.wrapping_sub(self.y.0)), y: self.y }
    }

    /// Inverse of `g`: `g⁻¹(x,y) = (x, y−x) mod 1`.
    #[inline]
    pub fn gg_g_inv(self) -> Self {
        Point2 { x: self.x, y: Point(self.y.0.wrapping_sub(self.x.0)) }
    }

    /// Torus L∞ distance (used by grid-based smoothness checks).
    pub fn linf_dist(self, other: Self) -> u64 {
        self.x.ring_dist(other.x).max(self.y.ring_dist(other.y))
    }
}

impl fmt::Debug for Point2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6}, {:.6})", self.x.to_f64(), self.y.to_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn gg_maps_match_definition() {
        let p = Point2::from_f64(0.75, 0.5);
        assert_eq!(p.gg_f(), Point2::from_f64(0.25, 0.5)); // 0.75+0.5 mod 1
        assert_eq!(p.gg_g(), Point2::from_f64(0.75, 0.25));
    }

    #[test]
    fn measure_preserving_shear_keeps_lines() {
        // f fixes the y coordinate, g fixes the x coordinate.
        let p = Point2::from_f64(0.123, 0.456);
        assert_eq!(p.gg_f().y, p.y);
        assert_eq!(p.gg_g().x, p.x);
    }

    proptest! {
        #[test]
        fn prop_inverses(xb: u64, yb: u64) {
            let p = Point2::from_bits(xb, yb);
            prop_assert_eq!(p.gg_f().gg_f_inv(), p);
            prop_assert_eq!(p.gg_g().gg_g_inv(), p);
            prop_assert_eq!(p.gg_f_inv().gg_f(), p);
            prop_assert_eq!(p.gg_g_inv().gg_g(), p);
        }

        #[test]
        fn prop_linf_symmetric(a: (u64, u64), b: (u64, u64)) {
            let p = Point2::from_bits(a.0, a.1);
            let q = Point2::from_bits(b.0, b.1);
            prop_assert_eq!(p.linf_dist(q), q.linf_dist(p));
        }
    }
}
