//! Model equivalence for [`Interval`]'s 16-byte representation.
//!
//! An arc stores `last = len − 1` in a `u64`; the reference here keeps
//! the plain `(start, u128 len)` pair and the arithmetic that goes
//! with it. Every operation the discrete-graph derivation and the
//! lookups use must give the same arc(s) — as `(start, len)`, `end`,
//! and the `Debug`/`Display` text — for `len = 1`, the full circle and
//! arcs wrapping through 0 in particular.

use cd_core::interval::{Interval, FULL};
use cd_core::Point;
use proptest::prelude::*;

/// The reference arc: `[start, start + len)`, `0 < len ≤ FULL`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Ref {
    start: Point,
    len: u128,
}

type RefPieces = [Option<Ref>; 2];

impl Ref {
    fn end(&self) -> Point {
        self.start.wrapping_add(self.len as u64)
    }
    fn contains(&self, p: Point) -> bool {
        (p.offset_from(self.start) as u128) < self.len
    }
    fn midpoint(&self) -> Point {
        self.start.wrapping_add((self.len / 2) as u64)
    }
    fn split(&self, at: Point) -> (Ref, Ref) {
        let off = at.offset_from(self.start) as u128;
        (Ref { start: self.start, len: off }, Ref { start: at, len: self.len - off })
    }
    fn unwrapped(&self) -> RefPieces {
        if self.len == FULL {
            return [Some(Ref { start: Point::ZERO, len: FULL }), None];
        }
        let start_off = self.start.bits() as u128;
        if start_off + self.len <= FULL {
            [Some(*self), None]
        } else {
            let first = FULL - start_off;
            [
                Some(Ref { start: self.start, len: first }),
                Some(Ref { start: Point::ZERO, len: self.len - first }),
            ]
        }
    }
    fn image_child(&self, digit: u32, delta: u32) -> RefPieces {
        self.unwrapped().map(|piece| {
            piece.map(|p| {
                let first = p.start.child(digit, delta);
                let last = p.start.wrapping_add((p.len - 1) as u64).child(digit, delta);
                Ref { start: first, len: last.offset_from(first) as u128 + 1 }
            })
        })
    }
    fn image_backward_delta(&self, delta: u32) -> Ref {
        let span = (self.len - 1) * delta as u128 + 1;
        Ref { start: self.start.backward_delta(delta), len: span.min(FULL) }
    }
    fn widened(&self, slack: u128) -> Ref {
        Ref { start: self.start, len: (self.len + slack).min(FULL) }
    }
    fn translated(&self, offset: u64) -> Ref {
        Ref { start: self.start.wrapping_add(offset), len: self.len }
    }
}

fn same(got: Interval, want: Ref) -> bool {
    got.start() == want.start
        && got.len() == want.len
        && got.end() == want.end()
        && got.is_full() == (want.len == FULL)
}

fn same_pieces(got: [Option<Interval>; 2], want: RefPieces) -> bool {
    got.iter().zip(&want).all(|(g, w)| match (g, w) {
        (Some(g), Some(w)) => same(*g, *w),
        (None, None) => true,
        _ => false,
    })
}

/// Bias the draw toward the representation's edges: length 1, the
/// full circle and one short of it, short arcs, and starts at or just
/// before the wrap point (so short arcs wrap through 0).
fn arc(start_sel: u8, len_sel: u8, a: u64, b: u64) -> Ref {
    let start = match start_sel {
        0 => Point::ZERO,
        1 => Point::MAX,
        2 | 3 => Point(u64::MAX - a % 16),
        _ => Point(a),
    };
    let len = match len_sel {
        0 => 1,
        1 => FULL,
        2 => FULL - 1,
        3 | 4 => 1 + u128::from(b % 32),
        _ => u128::from(b.max(1)),
    };
    Ref { start, len }
}

proptest! {
    #[test]
    fn matches_the_u128_length_reference(
        start_sel in 0u8..8, len_sel in 0u8..10, a: u64, b: u64,
        probe: u64, slack: u128, offset: u64, delta in 2u32..17, digit_raw: u32,
    ) {
        let r = arc(start_sel, len_sel, a, b);
        let s = Interval::new(r.start, r.len);
        prop_assert!(same(s, r), "new/len/end: {s:?} vs {r:?}");
        prop_assert_eq!(s.midpoint(), r.midpoint());

        // membership at the arc's own edges and at arbitrary points
        let edges = [r.start, r.start.wrapping_sub(1), r.end(), r.end().wrapping_sub(1)];
        for p in edges.into_iter().chain([Point::ZERO, Point::MAX, Point(probe)]) {
            prop_assert_eq!(s.contains(p), r.contains(p), "contains({p:?}) of {r:?}");
        }

        prop_assert!(same_pieces(s.unwrapped(), r.unwrapped()), "unwrapped of {r:?}");
        let digit = digit_raw % delta;
        prop_assert!(
            same_pieces(s.image_child(digit, delta), r.image_child(digit, delta)),
            "image_child({digit}, {delta}) of {r:?}"
        );
        prop_assert!(same_pieces(s.image_left(), r.image_child(0, 2)), "image_left of {r:?}");
        prop_assert!(same_pieces(s.image_right(), r.image_child(1, 2)), "image_right of {r:?}");
        prop_assert!(
            same(s.image_backward_delta(delta), r.image_backward_delta(delta)),
            "image_backward_delta({delta}) of {r:?}"
        );
        // slack spans the whole `u128` range the signature admits short
        // of overflow, and the small values the edge derivation uses
        for slack in [0, 1, u128::from(delta), slack >> 1] {
            prop_assert!(same(s.widened(slack), r.widened(slack)), "widened({slack}) of {r:?}");
        }
        prop_assert!(same(s.translated(offset), r.translated(offset)), "translated of {r:?}");

        // split at every legal kind of interior point: first, last, random
        if r.len > 1 {
            let offs = [1, (r.len - 1) as u64, 1 + probe % (r.len - 1) as u64];
            for off in offs {
                let at = r.start.wrapping_add(off);
                let (lo, hi) = s.split(at);
                let (rlo, rhi) = r.split(at);
                prop_assert!(same(lo, rlo) && same(hi, rhi), "split({at:?}) of {r:?}");
            }
        }

        // `between` builds the same arc from its endpoints (a full
        // circle comes back anchored at 0)
        let b = Interval::between(r.start, r.end());
        let want = if r.len == FULL { Ref { start: Point::ZERO, len: FULL } } else { r };
        prop_assert!(same(b, want), "between of {r:?}");
    }
}

#[test]
fn text_forms_are_unchanged() {
    let s = Interval::new(Point::from_ratio(3, 4), FULL / 2);
    assert_eq!(format!("{s:?}"), "[0.750000, 0.250000) (len 5.00e-1)");
    let (a, b) = (Point::from_ratio(3, 4), Point::from_ratio(1, 4));
    assert_eq!(format!("{s}"), format!("[{a}, {b})"));
    assert_eq!(format!("{:?}", Interval::full()), "[0.000000, 0.000000) (len 1.00e0)");
}
