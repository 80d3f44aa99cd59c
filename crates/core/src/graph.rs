//! The continuous-discrete **recipe** as a trait.
//!
//! The paper's central claim is that continuous-discrete is a recipe,
//! not one network: pick any continuous graph `Gc` on the circle
//! `I = [0,1)`, discretize it over a point set `~x` (connect `V_i` and
//! `V_j` iff some continuous edge `(y, z)` has `y ∈ s(V_i)`,
//! `z ∈ s(V_j)`), and you obtain a dynamic overlay whose degree,
//! dilation and congestion follow from the continuous graph plus the
//! smoothness `ρ(~x)`. A [`ContinuousGraph`] captures exactly what the
//! discretization needs from `Gc`:
//!
//! * **the edge set, as arcs** — [`ContinuousGraph::edge_arcs`] maps a
//!   segment to the image arcs of the continuous edge maps; the
//!   discrete neighbor table of a server is the set of servers whose
//!   segments intersect those arcs (plus ring edges, which the
//!   discrete layer always adds);
//! * **routing** — either *digit routing* (the Fast/two-phase lookups
//!   of §2.2, available to every graph of the family
//!   `f_d(y) = (y+d)/∆`, flagged by
//!   [`ContinuousGraph::digit_routing`]) or *greedy routing* (a
//!   memoryless per-hop step toward the target,
//!   [`ContinuousGraph::greedy_step`]);
//! * **parameters** — the digit base ∆ and the advertised hop bound
//!   used by property tests and benches.
//!
//! Three instances live here:
//!
//! | instance | continuous edges | routing | hops |
//! |---|---|---|---|
//! | [`DistanceHalving`] | `y → (y+d)/∆`, `y → ∆y` | digit walks | `O(log_∆ n)` |
//! | [`DeBruijn`] | same maps, base ∆ spelled out | digit walks | `O(log_∆ n)` |
//! | [`ChordLike`] | `y → y + 2⁻ⁱ` (§4) | greedy clockwise | `O(log n)` |
//!
//! The discrete half (`CdNetwork<G>` in `dh_dht`) is generic over this
//! trait: ring maintenance, incremental churn, table derivation and the
//! wire-protocol `Topology` all work for any instance.

use crate::interval::{Interval, FULL};
use crate::point::Point;

/// A continuous graph on the circle, ready for discretization.
///
/// Implementations must be cheap to clone (they are parameter structs,
/// not state).
pub trait ContinuousGraph: Clone {
    /// Short static name of the instance family (`"dh"`, `"chord"`,
    /// `"debruijn"`).
    fn name(&self) -> &'static str;

    /// Display label including parameters (e.g. `"debruijn8"`); used to
    /// tell instances apart in bench tables.
    fn label(&self) -> String {
        self.name().to_string()
    }

    /// The digit base ∆ of the forward maps `f_d(y) = (y+d)/∆`, for
    /// graphs with [`Self::digit_routing`]. Graphs without digit
    /// structure return `2`; the value is never used for them.
    fn delta(&self) -> u32;

    /// Append the image arcs of `seg` under the continuous edge maps —
    /// every arc a message can be sent *to* from a point of `seg` in
    /// one continuous hop (both directions for graphs routed in both).
    /// The discrete layer derives the neighbor table of the server
    /// owning `seg` as the servers covering these arcs, and the
    /// routing-step contract is: every position reachable by one
    /// routing step from `p ∈ seg` lies in some arc appended here.
    ///
    /// The order of arcs must be deterministic (table derivation sorts
    /// afterwards, but bulk and incremental builds must agree).
    fn edge_arcs(&self, seg: &Interval, out: &mut Vec<Interval>);

    /// Append arcs covering a point of every server `U` whose
    /// [`Self::edge_arcs`] meet `seg` — the owner's *watchers*, which
    /// the discrete layer derives from these covers (keeping those
    /// whose table lists the owner), so any superset is exact. The
    /// default, the edge arcs, suits a symmetric discrete relation.
    fn preimage_arcs(&self, seg: &Interval, out: &mut Vec<Interval>) {
        self.edge_arcs(seg, out);
    }

    /// Does this instance support the digit-walk lookups of §2.2 (Fast
    /// Lookup and the two-phase Distance Halving Lookup)? True exactly
    /// for graphs whose `edge_arcs` include the forward images `f_d`
    /// and the (widened) backward image `b_∆`.
    fn digit_routing(&self) -> bool;

    /// Does this instance support memoryless greedy routing via
    /// [`Self::greedy_step`]?
    fn greedy_routing(&self) -> bool {
        false
    }

    /// One greedy routing step: the next continuous position of a
    /// message currently at `p` and heading for `target` (`p ≠
    /// target`). The returned point must lie in an edge arc of every
    /// segment containing `p`, and repeated application must reach
    /// `target` exactly in a bounded number of steps.
    ///
    /// Only meaningful when [`Self::greedy_routing`] is true.
    fn greedy_step(&self, _p: Point, _target: Point) -> Point {
        panic!("{} has no greedy routing", self.name())
    }

    /// Advertised hop bound of the instance's native lookup on an
    /// `n`-server network of smoothness `rho` — the quantity the
    /// cross-topology property tests assert against.
    fn hop_bound(&self, n: usize, rho: f64) -> f64;
}

/// Shared arc derivation of the `f_d(y) = (y+d)/∆` family: the ∆
/// forward images, each reaching `back` ulps further back, plus the
/// backward image widened by ∆ ulps (absorbing the fixed-point
/// flooring of the forward maps — see the edge derivation notes in
/// `dh_dht::network`). Edges take `back = 0`. Preimages take 1: `U`'s
/// widened backward image ends on `b_∆(end of s(U))`, whose `f_d`-image
/// is the first point past `s(U)`, so when that is `V`'s start `V`'s
/// forward image misses `U` by one ulp (DESIGN §2).
fn digit_arcs(delta: u32, back: u64, seg: &Interval, out: &mut Vec<Interval>) {
    for d in 0..delta {
        let pieces = seg.image_child(d, delta).into_iter().flatten();
        out.extend(pieces.map(|p| p.translated(back.wrapping_neg()).widened(back.into())));
    }
    out.push(seg.image_backward_delta(delta).widened(delta as u128));
}

/// The Distance Halving graph of §2 — the paper's flagship instance.
/// `∆ = 2` is the binary graph (`ℓ`, `r`, `b`); larger ∆ is the §2.3
/// generalization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DistanceHalving {
    delta: u32,
}

impl DistanceHalving {
    /// The binary graph (`∆ = 2`).
    pub const fn binary() -> Self {
        DistanceHalving { delta: 2 }
    }

    /// The degree-∆ graph of §2.3.
    pub fn with_delta(delta: u32) -> Self {
        assert!(delta >= 2, "∆ must be ≥ 2");
        DistanceHalving { delta }
    }
}

impl Default for DistanceHalving {
    fn default() -> Self {
        Self::binary()
    }
}

impl ContinuousGraph for DistanceHalving {
    fn name(&self) -> &'static str {
        "dh"
    }

    fn label(&self) -> String {
        if self.delta == 2 {
            "dh".to_string()
        } else {
            format!("dh{}", self.delta)
        }
    }

    fn delta(&self) -> u32 {
        self.delta
    }

    fn edge_arcs(&self, seg: &Interval, out: &mut Vec<Interval>) {
        digit_arcs(self.delta, 0, seg, out);
    }

    fn preimage_arcs(&self, seg: &Interval, out: &mut Vec<Interval>) {
        digit_arcs(self.delta, 1, seg, out);
    }

    fn digit_routing(&self) -> bool {
        true
    }

    fn hop_bound(&self, n: usize, rho: f64) -> f64 {
        // Theorem 2.8: the two-phase lookup takes ≤ 2 log_∆ n +
        // 2 log_∆ ρ hops, plus the phase-boundary and ring slack.
        let log_d = (self.delta as f64).log2();
        2.0 * (n as f64).log2() / log_d + 2.0 * rho.max(1.0).log2() / log_d + 4.0
    }
}

/// The base-∆ de Bruijn generalization, `f_d(y) = (y+d)/∆` spelled out
/// as its own named instance. Structurally these are the §2.3 maps —
/// the point of the separate type is the topology axis: benches and
/// scenario harnesses name it (`debruijn∆`) and sweep ∆ without
/// conflating rows with the flagship binary graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeBruijn {
    delta: u32,
}

impl DeBruijn {
    /// The base-∆ de Bruijn graph (`∆ ≥ 2`; `∆ = 2` coincides with the
    /// binary Distance Halving graph).
    pub fn new(delta: u32) -> Self {
        assert!(delta >= 2, "∆ must be ≥ 2");
        DeBruijn { delta }
    }
}

impl ContinuousGraph for DeBruijn {
    fn name(&self) -> &'static str {
        "debruijn"
    }

    fn label(&self) -> String {
        format!("debruijn{}", self.delta)
    }

    fn delta(&self) -> u32 {
        self.delta
    }

    fn edge_arcs(&self, seg: &Interval, out: &mut Vec<Interval>) {
        digit_arcs(self.delta, 0, seg, out);
    }

    fn preimage_arcs(&self, seg: &Interval, out: &mut Vec<Interval>) {
        digit_arcs(self.delta, 1, seg, out);
    }

    fn digit_routing(&self) -> bool {
        true
    }

    fn hop_bound(&self, n: usize, rho: f64) -> f64 {
        let log_d = (self.delta as f64).log2();
        2.0 * (n as f64).log2() / log_d + 2.0 * rho.max(1.0).log2() / log_d + 4.0
    }
}

/// The Chord-like continuous graph sketched in §4: every point `y` has
/// the doubling edges `y → y + 2⁻ⁱ` for `i ≥ 1`, routed greedily
/// clockwise — each step takes the largest `2⁻ⁱ` not overshooting the
/// target, so the remaining clockwise distance at least halves per
/// step and the walk lands on the target *exactly* (steps are exact
/// power-of-two additions in fixed point; no ring correction needed).
///
/// Discretization: for steps `2⁻ⁱ ≥ |s(V)|` the image of the segment
/// is the translated arc `s(V) + 2⁻ⁱ` (one arc per step — `O(log n)`
/// of them, the *fingers*); the images of all shorter steps overlap
/// pairwise and their union is contained in `[x_V, x_V + 2|s(V)|)`,
/// covered by one widened arc. Tables are therefore `O(ρ log n)` and
/// greedy routing takes `O(log n)` hops — Chord's profile, grown from
/// the same recipe and the same churn machinery as Distance Halving.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChordLike;

impl ContinuousGraph for ChordLike {
    fn name(&self) -> &'static str {
        "chord"
    }

    fn delta(&self) -> u32 {
        2 // no digit structure; the base is never used
    }

    fn edge_arcs(&self, seg: &Interval, out: &mut Vec<Interval>) {
        let len = seg.len();
        // Long fingers: one arc per step 2⁻ⁱ ≥ |s(V)|, largest first
        // (i = 1 is half the circle, shift 63).
        for shift in (0..=63u32).rev() {
            let step = 1u64 << shift;
            if (step as u128) < len {
                break;
            }
            out.push(seg.translated(step));
        }
        // Short fingers: ∪ {s(V) + 2⁻ⁱ : 2⁻ⁱ < |s(V)|} ⊆ [start,
        // start + 2|s(V)|) — consecutive steps differ by less than
        // |s(V)|, so the arcs overlap pairwise and one widened arc
        // covers the union (and s(V) itself; self is dropped by the
        // table derivation).
        out.push(seg.widened(len.min(FULL)));
    }

    fn preimage_arcs(&self, seg: &Interval, out: &mut Vec<Interval>) {
        let len = seg.len();
        // U's finger s(U) + 2⁻ⁱ meets s(V) iff s(U) meets s(V) − 2⁻ⁱ;
        // translates by 2⁻ⁱ < |s(V)| lie in [x_V − |s(V)|, x_V + |s(V)|).
        // A U whose short-finger arc reaches x_V ends g < |s(U)| before
        // it, so covers x_V − 2^k for the power 2^k in (g, 2g] (1 if
        // g = 0): in that arc or at the start of a long one.
        for shift in (0..=63u32).rev() {
            let step = 1u64 << shift;
            if (step as u128) < len {
                break;
            }
            out.push(seg.translated(step.wrapping_neg()));
        }
        out.push(seg.translated((len as u64).wrapping_neg()).widened(len));
    }

    fn digit_routing(&self) -> bool {
        false
    }

    fn greedy_routing(&self) -> bool {
        true
    }

    fn greedy_step(&self, p: Point, target: Point) -> Point {
        let d = target.offset_from(p);
        debug_assert!(d > 0, "greedy step called at the target");
        // the largest 2⁻ⁱ ≤ d: clears the most significant set bit of
        // the remaining clockwise distance
        p.wrapping_add(1u64 << (63 - d.leading_zeros()))
    }

    fn hop_bound(&self, n: usize, rho: f64) -> f64 {
        // Each hop clears at least one bit of the remaining distance
        // while the step is at least the current segment's length
        // (≤ log₂ n + log₂ ρ such steps); shorter steps stay local
        // except for at most O(log ρ) final crossings.
        (n as f64).log2() + 2.0 * rho.max(1.0).log2() + 4.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arcs_of(g: &impl ContinuousGraph, seg: &Interval) -> Vec<Interval> {
        let mut out = Vec::new();
        g.edge_arcs(seg, &mut out);
        out
    }

    #[test]
    fn dh_arcs_match_the_legacy_derivation_order() {
        let seg = Interval::new(Point::from_ratio(1, 5), FULL / 7);
        for delta in [2u32, 3, 8] {
            let got = arcs_of(&DistanceHalving::with_delta(delta), &seg);
            let mut want: Vec<Interval> = Vec::new();
            for d in 0..delta {
                want.extend(seg.image_child(d, delta).into_iter().flatten());
            }
            want.push(seg.image_backward_delta(delta).widened(delta as u128));
            assert_eq!(got, want, "∆={delta}");
        }
    }

    #[test]
    fn debruijn_arcs_equal_dh_arcs_of_same_delta() {
        let seg = Interval::new(Point::from_ratio(3, 7), FULL / 100);
        for delta in [2u32, 4, 16] {
            assert_eq!(
                arcs_of(&DeBruijn::new(delta), &seg),
                arcs_of(&DistanceHalving::with_delta(delta), &seg)
            );
        }
    }

    #[test]
    fn chord_arcs_cover_every_greedy_step() {
        // The routing-step contract: for any p ∈ seg and any remaining
        // distance d > 0, the greedy step from p lands in an edge arc.
        let g = ChordLike;
        for (start, len) in [
            (Point::from_ratio(1, 3), FULL / 1000),
            (Point::from_ratio(9, 10), FULL / 7), // wraps
            (Point::ZERO, FULL / 2 + 12345),
        ] {
            let seg = Interval::new(start, len);
            let arcs = arcs_of(&g, &seg);
            for off in [0u128, len / 3, len - 1] {
                let p = start.wrapping_add(off as u64);
                for dist in [1u64, 255, 1 << 20, 1 << 40, u64::MAX] {
                    let target = p.wrapping_add(dist);
                    let q = g.greedy_step(p, target);
                    assert!(
                        arcs.iter().any(|a| a.contains(q)),
                        "step from {p:?} (d={dist:#x}) to {q:?} not covered"
                    );
                }
            }
        }
    }

    #[test]
    fn chord_greedy_walk_reaches_the_target_exactly() {
        let g = ChordLike;
        for (a, b) in [(0u64, u64::MAX), (123, 456), (u64::MAX, 0), (1 << 63, (1 << 63) - 1)] {
            let (mut p, target) = (Point(a), Point(b));
            let mut steps = 0;
            while p != target {
                p = g.greedy_step(p, target);
                steps += 1;
                assert!(steps <= 64, "greedy walk must terminate in ≤ 64 steps");
            }
            // the remaining distance loses its top bit every step
            assert!(steps <= 64 - target.offset_from(Point(a)).leading_zeros() as usize);
        }
    }

    #[test]
    fn chord_finger_count_is_logarithmic() {
        let g = ChordLike;
        // segment of length 2⁻²⁰ ⇒ 20 long fingers (2⁻¹ … 2⁻²⁰) + 1
        // widened arc for the short ones
        let seg = Interval::new(Point::from_ratio(1, 9), FULL >> 20);
        let arcs = arcs_of(&g, &seg);
        assert_eq!(arcs.len(), 20 + 1);
        // full circle: no long fingers, just the (capped) widened arc
        let arcs = arcs_of(&g, &Interval::full());
        assert_eq!(arcs.len(), 1);
        assert!(arcs[0].is_full());
    }

    #[test]
    fn labels_distinguish_instances() {
        assert_eq!(DistanceHalving::binary().label(), "dh");
        assert_eq!(DistanceHalving::with_delta(8).label(), "dh8");
        assert_eq!(DeBruijn::new(16).label(), "debruijn16");
        assert_eq!(ChordLike.label(), "chord");
    }

    #[test]
    fn hop_bounds_are_logarithmic() {
        assert!(DistanceHalving::binary().hop_bound(1 << 20, 1.0) <= 2.0 * 20.0 + 4.0 + 1e-9);
        assert!(DeBruijn::new(16).hop_bound(1 << 20, 1.0) <= 2.0 * 5.0 + 4.0 + 1e-9);
        assert!(ChordLike.hop_bound(1 << 20, 1.0) <= 20.0 + 4.0 + 1e-9);
    }
}
