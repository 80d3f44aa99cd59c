//! Wrap-around intervals (arcs) on the continuous circle `I = [0,1)`.
//!
//! A server's *segment* `s(x_i) = [x_i, x_{i+1})` is an [`Interval`].
//! Lengths range over `1..=FULL` (`FULL = 2^64` is the whole circle, the
//! `n = 1` network), one value too many for a `u64` — so an arc stores
//! `last = len − 1` instead, which maps `1..=2^64` onto `0..=u64::MAX`
//! exactly and keeps the struct at 16 bytes (neighbor tables hold one
//! per entry). The API still speaks `u128` lengths: [`Interval::new`]
//! takes one, [`Interval::len`] returns one.
//!
//! The module also computes the *images* of an interval under the
//! continuous Distance Halving maps, which is how the discrete graph's
//! edge set is derived: `V_i` and `V_j` are connected iff some edge
//! `(y, z)` of the continuous graph has `y ∈ s(V_i)`, `z ∈ s(V_j)` —
//! equivalently, iff `s(V_j)` intersects `ℓ(s(V_i))`, `r(s(V_i))` or
//! `b(s(V_i))` (and vice versa).
//!
//! Note `b` is continuous as a circle map, so `b(s)` is a single arc;
//! `ℓ` and `r` are discontinuous at the wrap point, so the image of a
//! wrapping arc may consist of **two** arcs — [`Pieces`] holds up to two.

use crate::point::Point;
use std::fmt;

/// The full circle length, `2^64`, as a `u128`.
pub const FULL: u128 = 1u128 << 64;

/// A half-open arc `[start, start + len)` on the circle, possibly
/// wrapping through `0`. `len == FULL` denotes the whole circle.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    start: Point,
    /// `len − 1`: offset of the last grid point of the arc from `start`.
    last: u64,
}

// One table probe reads one of these per entry; 16 bytes puts four on
// a cache line (`dh_dht::Neighbor` guards its own 24).
const _: () = assert!(std::mem::size_of::<Interval>() == 16);

/// Up to two disjoint arcs — the image of an arc under a map that is
/// discontinuous at the wrap point.
pub type Pieces = [Option<Interval>; 2];

impl Interval {
    /// The whole circle.
    pub const fn full() -> Self {
        Interval { start: Point::ZERO, last: u64::MAX }
    }

    /// An arc from `start` of the given length (`0 < len ≤ FULL`).
    pub fn new(start: Point, len: u128) -> Self {
        assert!(len > 0 && len <= FULL, "interval length must be in (0, 2^64], got {len}");
        Interval::with_len(start, len)
    }

    /// `len` must already be in `1..=FULL`; `len − 1` then fits a `u64`.
    #[inline]
    fn with_len(start: Point, len: u128) -> Self {
        debug_assert!(len > 0 && len <= FULL);
        Interval { start, last: (len - 1) as u64 }
    }

    /// The arc from `a` (inclusive) to `b` (exclusive), travelling
    /// clockwise (increasing). If `a == b` the result is the full circle
    /// (matching the paper's `s(x)` when one point covers everything).
    pub fn between(a: Point, b: Point) -> Self {
        match b.offset_from(a) {
            0 => Interval::full(),
            len => Interval { start: a, last: len - 1 },
        }
    }

    /// Start point (inclusive).
    #[inline]
    pub const fn start(&self) -> Point {
        self.start
    }

    /// End point (exclusive; equals `start` for the full circle).
    #[inline]
    pub fn end(&self) -> Point {
        self.start.wrapping_add(self.last.wrapping_add(1))
    }

    /// Arc length (in units of `2⁻⁶⁴`).
    #[inline]
    pub const fn len(&self) -> u128 {
        self.last as u128 + 1
    }

    /// Arc length as a fraction of the circle.
    #[inline]
    pub fn len_f64(&self) -> f64 {
        self.len() as f64 / FULL as f64
    }

    /// Never true — intervals are non-empty by construction, which is
    /// what makes the stored `len − 1` encoding exact (there is no
    /// length 0 to represent).
    #[inline]
    pub const fn is_empty(&self) -> bool {
        false
    }

    /// Is this the whole circle?
    #[inline]
    pub const fn is_full(&self) -> bool {
        self.last == u64::MAX
    }

    /// Does the arc contain the point `p`?
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.offset_from(self.start) <= self.last
    }

    /// The midpoint of the arc (the `z` used by Fast Lookup).
    #[inline]
    pub fn midpoint(&self) -> Point {
        self.start.wrapping_add((self.len() / 2) as u64)
    }

    /// Does this arc intersect `other`?
    pub fn intersects(&self, other: &Interval) -> bool {
        if self.is_full() || other.is_full() {
            return true;
        }
        // a intersects b iff a.start ∈ b or b.start ∈ a.
        self.contains(other.start) || other.contains(self.start)
    }

    /// Split at an interior point `at`, returning `([start, at), [at, end))`.
    /// `at` must lie strictly inside the arc (not at its start).
    pub fn split(&self, at: Point) -> (Interval, Interval) {
        let off = at.offset_from(self.start);
        assert!(
            off > 0 && off <= self.last,
            "split point must be strictly interior (offset {off}, len {})",
            self.len()
        );
        (
            Interval { start: self.start, last: off - 1 },
            Interval { start: at, last: self.last - off },
        )
    }

    /// Decompose into at most two non-wrapping arcs (split at `0`).
    pub fn unwrapped(&self) -> Pieces {
        if self.is_full() {
            // Treat as one arc starting at 0.
            return [Some(Interval::full()), None];
        }
        // The arc wraps iff its last point lies past `u64::MAX`.
        if self.start.bits().checked_add(self.last).is_some() {
            return [Some(*self), None];
        }
        // `first` grid points up to the wrap, the rest from 0.
        let first = self.start.bits().wrapping_neg();
        [
            Some(Interval { start: self.start, last: first - 1 }),
            Some(Interval { start: Point::ZERO, last: self.last - first }),
        ]
    }

    /// Image under the left map `ℓ(y) = y/2` — up to two arcs if `self`
    /// wraps. Exact on the fixed-point grid (see [`Self::image_child`]).
    pub fn image_left(&self) -> Pieces {
        self.map_monotone(Point::left)
    }

    /// Image under the right map `r(y) = y/2 + 1/2`.
    pub fn image_right(&self) -> Pieces {
        self.map_monotone(Point::right)
    }

    /// Image under the degree-∆ map `f_d(y) = y/∆ + d/∆`: the exact
    /// smallest arcs containing `{f_d(p) : p ∈ self}` over the grid.
    pub fn image_child(&self, digit: u32, delta: u32) -> Pieces {
        self.map_monotone(|p| p.child(digit, delta))
    }

    /// Image under the backward map `b(y) = 2y mod 1` — always a single
    /// arc (b is continuous on the circle), of twice the length, capped
    /// at the full circle.
    pub fn image_backward(&self) -> Interval {
        self.image_backward_delta(2)
    }

    /// Image under `b_∆(y) = ∆y mod 1`: the smallest arc containing the
    /// images of all quantized points of `self`. `b_∆` is exact on the
    /// fixed-point grid (multiplication mod 2⁶⁴), so the image of
    /// `{a, a+1, …, a+L−1}` is `{∆a, ∆a+∆, …}` — an arithmetic
    /// progression with stride ∆ spanning `∆(L−1)+1` units (or the full
    /// circle once that overflows).
    pub fn image_backward_delta(&self, delta: u32) -> Interval {
        let span = self.last as u128 * delta as u128 + 1;
        Interval::with_len(self.start.backward_delta(delta), span.min(FULL))
    }

    /// The same arc extended by `slack` units (capped at the full
    /// circle). Used by the discrete edge derivation to absorb the
    /// fixed-point flooring of the forward maps in the backward image.
    #[inline]
    pub fn widened(&self, slack: u128) -> Interval {
        Interval::with_len(self.start, (self.len() + slack).min(FULL))
    }

    /// The arc shifted clockwise by `offset`, same length. Translation
    /// is continuous on the circle, so the image is a single arc — this
    /// is the image computation for graphs whose continuous edges are
    /// translations (the Chord-like instance `y → y + 2⁻ⁱ` of §4).
    #[inline]
    pub fn translated(&self, offset: u64) -> Interval {
        Interval { start: self.start.wrapping_add(offset), last: self.last }
    }

    /// Map each non-wrapping piece through a monotone map, exactly:
    /// the image of the quantized arc `{a, …, a+L−1}` under a
    /// nondecreasing `f` is contained in `[f(a), f(a+L−1)]`, and for the
    /// contractions used here every grid point in between is hit, so the
    /// result is the exact smallest covering arc.
    fn map_monotone(&self, f: impl Fn(Point) -> Point) -> Pieces {
        let mut out: Pieces = [None, None];
        for (slot, piece) in out.iter_mut().zip(self.unwrapped().into_iter().flatten()) {
            let first = f(piece.start);
            let last = f(piece.start.wrapping_add(piece.last));
            *slot = Some(Interval { start: first, last: last.offset_from(first) });
        }
        out
    }
}

impl fmt::Debug for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:.6}, {:.6}) (len {:.2e})", self.start.to_f64(), self.end().to_f64(), self.len_f64())
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pt(num: u64, den: u64) -> Point {
        Point::from_ratio(num, den)
    }

    #[test]
    fn between_and_contains() {
        let s = Interval::between(pt(1, 4), pt(3, 4));
        assert!(s.contains(pt(1, 4)));
        assert!(s.contains(pt(1, 2)));
        assert!(!s.contains(pt(3, 4)));
        assert!(!s.contains(Point::ZERO));
        assert_eq!(s.len(), FULL / 2);
    }

    #[test]
    fn wrapping_contains() {
        let s = Interval::between(pt(3, 4), pt(1, 4)); // wraps through 0
        assert!(s.contains(pt(7, 8)));
        assert!(s.contains(Point::ZERO));
        assert!(s.contains(pt(1, 8)));
        assert!(!s.contains(pt(1, 4)));
        assert!(!s.contains(pt(1, 2)));
    }

    #[test]
    fn full_circle_contains_everything() {
        let s = Interval::between(pt(1, 3), pt(1, 3));
        assert!(s.is_full());
        assert!(s.contains(Point::ZERO));
        assert!(s.contains(Point::MAX));
    }

    #[test]
    fn split_partitions() {
        let s = Interval::between(pt(1, 8), pt(5, 8));
        let (a, b) = s.split(pt(1, 2));
        assert_eq!(a.start(), pt(1, 8));
        assert_eq!(a.end(), pt(1, 2));
        assert_eq!(b.start(), pt(1, 2));
        assert_eq!(b.end(), pt(5, 8));
        assert_eq!(a.len() + b.len(), s.len());
    }

    #[test]
    fn image_left_of_plain_arc() {
        // Figure 1 of the paper: [x, x+L) maps to two arcs of half length.
        let s = Interval::between(pt(1, 4), pt(1, 2));
        let l = s.image_left();
        let l0 = l[0].unwrap();
        assert!(l0.contains(pt(1, 8)));
        assert!(l0.contains(pt(3, 16)));
        assert!(l[1].is_none());
        let r = s.image_right();
        let r0 = r[0].unwrap();
        assert!(r0.contains(pt(5, 8)));
        assert!(r0.contains(pt(11, 16)));
    }

    #[test]
    fn image_left_of_wrapping_arc_has_two_pieces() {
        let s = Interval::between(pt(7, 8), pt(1, 8));
        let img = s.image_left();
        assert!(img[0].is_some() && img[1].is_some());
        // ℓ(0.9375) = 0.46875 is in the first piece; ℓ(0.0625) = 0.03125
        // in the second.
        assert!(img[0].unwrap().contains(pt(15, 32)));
        assert!(img[1].unwrap().contains(pt(1, 32)));
    }

    #[test]
    fn image_backward_doubles() {
        let s = Interval::between(pt(1, 4), pt(3, 8));
        let b = s.image_backward();
        assert_eq!(b.start(), pt(1, 2));
        // exact grid image: stride-2 progression spanning 2(L−1)+1 units
        assert_eq!(b.len(), (s.len() - 1) * 2 + 1);
        // and caps at the full circle
        let big = Interval::between(pt(0, 1), pt(3, 4));
        assert!(big.image_backward().is_full());
    }

    proptest! {
        #[test]
        fn prop_contains_after_between(a: u64, b: u64, c: u64) {
            let (a, b, c) = (Point(a), Point(b), Point(c));
            let s = Interval::between(a, b);
            // exactly one of [a,b) and [b,a) contains c — unless a == b,
            // in which case [a,b) is full and [b,a) is full too.
            let t = Interval::between(b, a);
            if a == b {
                prop_assert!(s.contains(c) && t.contains(c));
            } else {
                prop_assert!(s.contains(c) ^ t.contains(c));
            }
        }

        #[test]
        fn prop_split_preserves_membership(a: u64, b: u64, at: u64, probe: u64) {
            let s = Interval::between(Point(a), Point(b));
            let off = Point(at).offset_from(s.start()) as u128;
            prop_assume!(off > 0 && off < s.len());
            let (lo, hi) = s.split(Point(at));
            let p = Point(probe);
            prop_assert_eq!(s.contains(p), lo.contains(p) || hi.contains(p));
            prop_assert!(!(lo.contains(p) && hi.contains(p)));
        }

        #[test]
        fn prop_images_cover_pointwise(a: u64, len in 1u64.., probe: u64) {
            // Every point of the arc has its ℓ/r/b images inside the
            // computed image arcs.
            let s = Interval::new(Point(a), len as u128);
            let p = Point(a).wrapping_add(probe % len);
            prop_assert!(s.contains(p));
            let inl = s.image_left().into_iter().flatten().any(|i| i.contains(p.left()));
            let inr = s.image_right().into_iter().flatten().any(|i| i.contains(p.right()));
            prop_assert!(inl, "left image misses ℓ(p)");
            prop_assert!(inr, "right image misses r(p)");
            prop_assert!(s.image_backward().contains(p.backward()));
        }

        #[test]
        fn prop_intersects_symmetric(a: u64, b: u64, c: u64, d: u64) {
            let s = Interval::between(Point(a), Point(b));
            let t = Interval::between(Point(c), Point(d));
            prop_assert_eq!(s.intersects(&t), t.intersects(&s));
        }

        #[test]
        fn prop_unwrapped_preserves_membership(a: u64, b: u64, probe: u64) {
            let s = Interval::between(Point(a), Point(b));
            let p = Point(probe);
            let member = s.unwrapped().into_iter().flatten().any(|piece| piece.contains(p));
            prop_assert_eq!(member, s.contains(p));
        }
    }
}
