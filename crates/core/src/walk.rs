//! Digit walks `w(σ_t, y)` on the continuous graph (Section 2.2).
//!
//! A walk is defined by the recursion
//!
//! ```text
//! w(σ_0, y)   = y
//! w(σ_t.d, y) = f_d(w(σ_t, y))
//! ```
//!
//! i.e. digits are applied in string order — the *last* digit of the
//! string becomes the most significant digit of the result. Two facts
//! drive both lookup algorithms:
//!
//! * **Observation 2.3** (distance halving): walks guided by the *same*
//!   string from two points approach each other at rate `∆⁻ᵗ`.
//! * **Claim 2.4**: a walk guided by the digits of `z` (most significant
//!   digit applied last) lands within `∆⁻ᵗ` of `z` from *any* start.
//!
//! The binary closed form lives in [`Point::prefix_walk`]; this module
//! supplies the general-∆ variants and the incremental two-sided walk
//! used by the Distance Halving Lookup.

use crate::interval::Interval;
use crate::point::Point;
use rand::Rng;

/// The first `t` base-∆ digits of `z` (most significant first):
/// `z = Σ d_i ∆^{-i}`.
pub fn digits_of(z: Point, delta: u32, t: usize) -> Vec<u32> {
    assert!(delta >= 2);
    let mut digits = Vec::with_capacity(t);
    let mut cur = z;
    for _ in 0..t {
        digits.push(cur.leading_digit(delta));
        cur = cur.backward_delta(delta); // shift the leading digit out
    }
    digits
}

/// `w(σ(z)_t, y)` for base ∆: the walk from `y` guided by `z`'s first
/// `t` digits, applied least-significant-first so that the result's
/// leading digits equal `z`'s. By Claim 2.4 the result is within
/// `∆⁻ᵗ` of `z` (plus ≤ t ulps of rounding for non-power-of-two ∆).
pub fn prefix_walk_delta(y: Point, z: Point, t: usize, delta: u32) -> Point {
    if delta == 2 {
        return y.prefix_walk(z, t.min(64) as u32);
    }
    let digits = digits_of(z, delta, t);
    let mut p = y;
    for &d in digits.iter().rev() {
        p = p.child(d, delta);
    }
    p
}

/// The step cap of every lookup walk: Fast Lookup's scan for its start
/// point, the two-phase walk's phase 1 and greedy routing. Each step of
/// each shrinks a distance on the 64-bit circle by a factor of at least
/// 2 (Claim 2.4, Observation 2.3, §4's halving of the clockwise gap),
/// so no correct table takes more than 64 steps; a walk that reaches
/// twice that stands on a broken table.
pub const MAX_WALK_STEPS: usize = 128;

/// Fast Lookup's start (§2.2.1): the minimal `t` with
/// `h = w(σ(z)_t, y) ∈ seg`, `z` being `seg`'s midpoint, and that `h`.
/// `t` backward edges lead from `h` to `y` (up to the low bits shifted
/// out, which a final ring hop absorbs).
pub fn fast_start(y: Point, seg: Interval, delta: u32) -> (Point, usize) {
    let z = seg.midpoint();
    let (mut h, mut t) = (y, 0);
    while !seg.contains(h) {
        t += 1;
        assert!(t <= MAX_WALK_STEPS, "Fast Lookup failed to land in own segment after {t} steps");
        h = prefix_walk_delta(y, z, t, delta);
    }
    (h, t)
}

/// The two-sided walk at the heart of the Distance Halving Lookup
/// (Section 2.2.2): a source-side point `p_t = w(τ_t, x)` and a
/// target-side point `q_t = w(τ_t, y)` advance together under the same
/// random digit string `τ`, halving (÷∆) their distance each step.
///
/// Phase 2 of the lookup retraces `q_t, q_{t−1}, …, q_0 = y` along
/// backward edges; the digits are recorded so the retrace is exact:
/// `b_∆(q_{t+1}) = q_t` holds identically in fixed point.
#[derive(Clone, Debug)]
pub struct TwoSidedWalk {
    delta: u32,
    source: Point,
    target: Point,
    /// The original lookup target `y` (needed for the exact backtrace).
    origin: Point,
    /// Digits applied so far (`τ_t`), earliest first.
    digits: Vec<u32>,
}

impl TwoSidedWalk {
    /// Start a walk from lookup source `x` toward target `y`.
    pub fn new(x: Point, y: Point, delta: u32) -> Self {
        assert!(delta >= 2);
        TwoSidedWalk { delta, source: x, target: y, origin: y, digits: Vec::new() }
    }

    /// Re-arm this walk for a fresh lookup, reusing the digit buffer.
    /// Together with [`Self::target_backtrace_into`] this makes the
    /// per-lookup hot path allocation-free.
    pub fn reset(&mut self, x: Point, y: Point, delta: u32) {
        assert!(delta >= 2);
        self.delta = delta;
        self.source = x;
        self.target = y;
        self.origin = y;
        self.digits.clear();
    }

    /// Current source-side point `p_t`.
    #[inline]
    pub fn source(&self) -> Point {
        self.source
    }

    /// Current target-side point `q_t = w(τ_t, y)`.
    #[inline]
    pub fn target(&self) -> Point {
        self.target
    }

    /// Steps taken so far (`t`).
    #[inline]
    pub fn steps(&self) -> usize {
        self.digits.len()
    }

    /// The digit string τ_t so far.
    #[inline]
    pub fn digits(&self) -> &[u32] {
        &self.digits
    }

    /// Advance both sides by one fresh random digit; returns the digit.
    pub fn step(&mut self, rng: &mut impl Rng) -> u32 {
        let d = rng.gen_range(0..self.delta);
        self.step_with(d);
        d
    }

    /// Advance both sides by a chosen digit.
    pub fn step_with(&mut self, d: u32) {
        self.source = self.source.child(d, self.delta);
        self.target = self.target.child(d, self.delta);
        self.digits.push(d);
    }

    /// Current distance between the two sides (shrinks by ∆ per step).
    #[inline]
    pub fn gap(&self) -> u64 {
        self.source.dist(self.target)
    }

    /// The phase-2 trace: `q_t, q_{t−1}, …, q_0 = y`.
    ///
    /// Conceptually each step applies the backward map (`b_∆(q_{k+1}) =
    /// q_k` over the reals); in fixed point the backward map would lose
    /// one ulp per step, so — exactly as the paper's message header
    /// “deletes the last bit in τ” and recomputes — each trace point is
    /// recomputed as `w(τ_k, y)` from the recorded digits, making the
    /// trace exact and its endpoint identically `y`.
    pub fn target_backtrace(&self) -> Vec<Point> {
        let mut out = Vec::new();
        self.target_backtrace_into(&mut out);
        out
    }

    /// [`Self::target_backtrace`] into a caller-owned buffer (cleared
    /// first) — the allocation-free variant used by lookup scratch
    /// state.
    pub fn target_backtrace_into(&self, out: &mut Vec<Point>) {
        out.clear();
        out.reserve(self.digits.len() + 1);
        let mut cur = self.origin_target();
        out.push(cur);
        for &d in &self.digits {
            cur = cur.child(d, self.delta);
            out.push(cur);
        }
        out.reverse();
    }

    /// The original target `y = q_0`, recovered exactly by re-walking
    /// from scratch is impossible (information was shifted out), so we
    /// store it: see `new`.
    fn origin_target(&self) -> Point {
        self.origin
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;
    use proptest::prelude::*;

    #[test]
    fn digits_roundtrip_binary() {
        let z = Point::from_f64(0.6015625); // 0.1001101₂
        let d = digits_of(z, 2, 7);
        assert_eq!(d, vec![1, 0, 0, 1, 1, 0, 1]);
    }

    #[test]
    fn digits_of_ternary() {
        // 0.5 in base 3 = 0.111111…₃
        let d = digits_of(Point::from_f64(0.5), 3, 5);
        assert_eq!(d, vec![1, 1, 1, 1, 1]);
    }

    #[test]
    fn prefix_walk_delta_matches_binary_closed_form() {
        let y = Point::from_f64(0.123_456);
        let z = Point::from_f64(0.654_321);
        for t in 0..40 {
            assert_eq!(prefix_walk_delta(y, z, t, 2), y.prefix_walk(z, t as u32));
        }
    }

    #[test]
    fn prefix_walk_approaches_z_in_base_delta() {
        let y = Point::from_f64(0.9);
        let z = Point::from_f64(0.337);
        for delta in [2u32, 3, 5, 16] {
            let mut bound = crate::interval::FULL;
            for t in 0..20usize {
                let w = prefix_walk_delta(y, z, t, delta);
                assert!(
                    (w.dist(z) as u128) <= bound + t as u128 * delta as u128,
                    "∆={delta} t={t}: {} > {}",
                    w.dist(z),
                    bound
                );
                bound /= delta as u128;
            }
        }
    }

    #[test]
    fn two_sided_walk_gap_shrinks_and_backtrace_ends_at_target() {
        let mut rng = seeded(7);
        for delta in [2u32, 4, 8] {
            let x = Point::from_f64(0.111);
            let y = Point::from_f64(0.888);
            let mut w = TwoSidedWalk::new(x, y, delta);
            let mut prev_gap = w.gap();
            for _ in 0..10 {
                w.step(&mut rng);
                assert!(w.gap() <= prev_gap / delta as u64 + 1, "gap must shrink ÷∆");
                prev_gap = w.gap();
            }
            let trace = w.target_backtrace();
            assert_eq!(trace.len(), 11);
            assert_eq!(trace[0], w.target());
            // the recomputed trace ends at the original target exactly,
            // for every ∆
            assert_eq!(*trace.last().unwrap(), y);
        }
    }

    proptest! {
        #[test]
        fn prop_backtrace_inverts_walk(xb: u64, yb: u64, steps in 0usize..30, seed: u64) {
            let mut rng = seeded(seed);
            let mut w = TwoSidedWalk::new(Point(xb), Point(yb), 2);
            for _ in 0..steps {
                w.step(&mut rng);
            }
            let trace = w.target_backtrace();
            prop_assert_eq!(trace[trace.len() - 1], Point(yb));
            // each consecutive pair is a backward edge, up to the one
            // ulp the fixed-point right shift discards
            for pair in trace.windows(2) {
                prop_assert!(pair[0].backward().dist(pair[1]) <= 1);
            }
        }

        #[test]
        fn prop_walk_prefix_digits_agree(zb: u64, delta in 2u32..20, t in 0usize..15) {
            // the first t digits of w(σ(z)_t, y) equal z's first t digits
            let z = Point(zb);
            let y = Point(0x1234_5678_9abc_def0);
            let w = prefix_walk_delta(y, z, t, delta);
            let dz = digits_of(z, delta, t);
            let dw = digits_of(w, delta, t);
            // allow the final digit to differ by rounding for non-power-of-two ∆
            if delta.is_power_of_two() {
                prop_assert_eq!(dz, dw);
            } else if t > 0 {
                prop_assert_eq!(&dz[..t-1], &dw[..t-1]);
            }
        }
    }
}
