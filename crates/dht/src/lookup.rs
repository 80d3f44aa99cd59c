//! The lookup algorithms, generic over the continuous graph: the two
//! digit-walk lookups of Section 2.2 (any degree ∆) for instances with
//! [`ContinuousGraph::digit_routing`], and greedy clockwise routing
//! (§4's Chord-like instances) for instances with
//! [`ContinuousGraph::greedy_routing`].
//!
//! **Fast Lookup** (§2.2.1). To find `y` from server `V` with segment
//! midpoint `z`: choose the minimal `t` with `w(σ(z)_t, y) ∈ s(V)`,
//! start the message at `h = w(σ(z)_t, y)` (a point of `V`'s own
//! segment) and walk `t` backward edges — each hop is the *exact*
//! expansion `p ← ∆·p mod 1` — arriving at `y` (up to the fixed-point
//! truncation absorbed by a final ring hop). Corollary 2.5: the path
//! length is at most `log_∆ n + log_∆ ρ + 1`; with that ring hop this
//! implementation's bound is `log_∆ n + log_∆ ρ + 2`, which is what
//! the tests here and `e_paper` (E4) assert.
//!
//! **Distance Halving Lookup** (§2.2.2). Valiant-style two-phase
//! routing: a fresh random digit string `τ` drives a source-side walk
//! `p_t = w(τ_t, x)` and a target-side walk `q_t = w(τ_t, y)` whose gap
//! shrinks by ∆ every step (Observation 2.3). Phase 1 forwards the
//! message along `p_0, p_1, …` until the current node or one of its
//! table entries covers `q_t`; phase 2 retraces `q_t, q_{t−1}, …, q_0 =
//! y` along backward edges, deleting one digit of `τ` per hop.
//! Theorem 2.8: path length ≤ `2 log_∆ n + 2 log_∆ ρ`; counted in
//! whole hops that is `2(log_∆ n + log_∆ ρ) + 3` — each phase takes
//! `t ≤ ⌈log_∆ nρ⌉` steps, one more than the real-valued bound, and
//! phase 1 may end with a hop to the *neighbour* covering `q_t` — and
//! it is the bound of every lookup-driven operation (a join's lookup,
//! a cached request). Theorems 2.9–2.11: congestion `Θ(log n / n)`
//! even for worst-case permutation workloads.

use crate::network::{CdNetwork, NodeId};
use cd_core::graph::ContinuousGraph;
use cd_core::point::Point;
use cd_core::walk::TwoSidedWalk;
use rand::Rng;

/// Which lookup algorithm to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LookupKind {
    /// Fast Lookup (§2.2.1): shortest paths, deterministic. Digit
    /// instances only.
    Fast,
    /// Distance Halving Lookup (§2.2.2): randomized two-phase routing
    /// with worst-case congestion guarantees. Digit instances only.
    DistanceHalving,
    /// Greedy clockwise routing (§4): each hop applies the instance's
    /// memoryless [`ContinuousGraph::greedy_step`]. Greedy instances
    /// only.
    Greedy,
}

impl std::fmt::Display for LookupKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LookupKind::Fast => "fast",
            LookupKind::DistanceHalving => "dh",
            LookupKind::Greedy => "greedy",
        })
    }
}

/// A completed lookup route — the engine's route record, so a direct
/// lookup and one driven through `dh_proto` produce the same value.
/// `nodes[0]` is the source server and `nodes.last()` the server
/// covering the target; `points[k]` is the continuous-graph position of
/// the message when held by `nodes[k]`. [`Route::empty`] is the
/// reusable buffer of the `*_into` variants.
pub use dh_proto::engine::Path as Route;

/// Reusable per-lookup state: the two-sided walk's digit buffer and
/// the phase-2 trace. Holding one of these (plus a [`Route`]) across
/// lookups makes the hot path allocation-free, so a caller timing
/// lookups measures the protocol, not the allocator.
pub struct LookupScratch {
    walk: TwoSidedWalk,
    trace: Vec<Point>,
}

impl LookupScratch {
    /// Fresh scratch state (buffers grow on first use).
    pub fn new() -> Self {
        LookupScratch { walk: TwoSidedWalk::new(Point(0), Point(0), 2), trace: Vec::new() }
    }
}

impl Default for LookupScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl<G: ContinuousGraph> CdNetwork<G> {
    /// Move the message from `cur` to the node covering `p`, using only
    /// `cur`'s own neighbor table. Panics if the discrete edge implied
    /// by the continuous graph is missing (this would falsify the edge
    /// derivation and is asserted rather than tolerated).
    fn hop(&self, cur: NodeId, p: Point, route: &mut Route) -> NodeId {
        let state = self.node(cur);
        if state.covers(p) {
            route.push(cur, p);
            return cur;
        }
        let next = state.neighbor_covering(p).unwrap_or_else(|| {
            panic!(
                "missing discrete edge: {cur} (segment {:?}) has no table entry covering {:?}",
                state.segment, p
            )
        });
        route.push(next, p);
        next
    }

    /// Fast Lookup (§2.2.1) from server `from` to the server covering
    /// `target`.
    pub fn fast_lookup(&self, from: NodeId, target: Point) -> Route {
        let mut route = Route::empty();
        self.fast_lookup_into(from, target, &mut route);
        route
    }

    /// [`Self::fast_lookup`] into a caller-owned route buffer —
    /// allocation-free once the buffer has warmed up.
    pub fn fast_lookup_into(&self, from: NodeId, target: Point, route: &mut Route) {
        assert!(
            self.graph().digit_routing(),
            "{} does not support the digit-walk lookups",
            self.graph().name()
        );
        let seg = self.node(from).segment;
        route.reset(from, seg.midpoint());
        if seg.contains(target) {
            route.push(from, target);
            return;
        }
        let z = seg.midpoint();
        let delta = self.delta();
        // minimal t with w(σ(z)_t, target) ∈ s(V); the walk budget bounds
        // the scan (log_∆ of the segment resolution, ≤ 64 for ∆ = 2).
        let budget = cd_core::walk::walk_budget(1, delta).max(2);
        let mut t = 0usize;
        let mut h = target;
        while !seg.contains(h) {
            t += 1;
            assert!(t <= budget, "Fast Lookup failed to land in own segment after {t} steps");
            h = cd_core::walk::prefix_walk_delta(target, z, t, delta);
        }
        // walk t backward edges: exact expansion by ∆ per hop
        let mut cur = from;
        let mut p = h;
        for _ in 0..t {
            p = p.backward_delta(delta);
            cur = self.hop(cur, p, route);
        }
        // fixed-point truncation correction: p equals target up to the
        // low bits shifted out at construction; finish along the ring.
        while !self.node(cur).covers(target) {
            let succ_start = self.node(cur).segment.end();
            cur = self.hop(cur, succ_start, route);
        }
        route.push(cur, target);
    }

    /// Distance Halving Lookup (§2.2.2) from server `from` to the
    /// server covering `target`, driven by fresh random digits from
    /// `rng`.
    pub fn dh_lookup(&self, from: NodeId, target: Point, rng: &mut impl Rng) -> Route {
        let mut scratch = LookupScratch::new();
        let mut route = Route::empty();
        self.dh_lookup_into(from, target, rng, &mut scratch, &mut route);
        route
    }

    /// [`Self::dh_lookup`] into caller-owned scratch and route buffers
    /// — allocation-free once the buffers have warmed up.
    pub fn dh_lookup_into(
        &self,
        from: NodeId,
        target: Point,
        rng: &mut impl Rng,
        scratch: &mut LookupScratch,
        route: &mut Route,
    ) {
        assert!(
            self.graph().digit_routing(),
            "{} does not support the digit-walk lookups",
            self.graph().name()
        );
        let x = self.node(from).x;
        scratch.walk.reset(x, target, self.delta());
        let walk = &mut scratch.walk;
        route.reset(from, x);
        let mut cur = from;
        // Phase 1: forward along p_t until q_t is covered locally.
        loop {
            let q = walk.target();
            let state = self.node(cur);
            if state.covers(q) {
                route.push(cur, q);
                break;
            }
            if let Some(next) = state.neighbor_covering(q) {
                route.push(next, q);
                cur = next;
                break;
            }
            assert!(
                walk.steps() < 130,
                "phase 1 failed to converge (n = {}, ∆ = {})",
                self.len(),
                self.delta()
            );
            walk.step(rng);
            cur = self.hop(cur, walk.source(), route);
        }
        route.phase2_start = Some(route.nodes.len() - 1);
        // Phase 2: retrace q_t, …, q_0 = target along backward edges.
        walk.target_backtrace_into(&mut scratch.trace);
        for &q in scratch.trace.iter().skip(1) {
            cur = self.hop(cur, q, route);
        }
        debug_assert!(self.node(cur).covers(target));
    }

    /// Greedy clockwise routing (§4) from server `from` to the server
    /// covering `target`: each continuous step applies the instance's
    /// [`ContinuousGraph::greedy_step`], each discrete hop follows the
    /// table entry covering the new position. Deterministic; the walk
    /// lands on the target exactly, so no ring correction is needed.
    pub fn greedy_lookup(&self, from: NodeId, target: Point) -> Route {
        let mut route = Route::empty();
        self.greedy_lookup_into(from, target, &mut route);
        route
    }

    /// [`Self::greedy_lookup`] into a caller-owned route buffer —
    /// allocation-free once the buffer has warmed up.
    pub fn greedy_lookup_into(&self, from: NodeId, target: Point, route: &mut Route) {
        assert!(
            self.graph().greedy_routing(),
            "{} does not support greedy routing",
            self.graph().name()
        );
        let x = self.node(from).x;
        route.reset(from, x);
        let mut cur = from;
        let mut p = x;
        let mut steps = 0usize;
        while !self.node(cur).covers(target) {
            // cur covers p but not the target, so p ≠ target and the
            // step is well-defined; it clears at least one bit of the
            // remaining clockwise distance, bounding the walk.
            p = self.graph().greedy_step(p, target);
            cur = self.hop(cur, p, route);
            steps += 1;
            assert!(steps <= 130, "greedy routing failed to converge (n = {})", self.len());
        }
        route.push(cur, target);
    }

    /// The instance's native lookup algorithm: the randomized two-phase
    /// lookup for digit instances, greedy routing otherwise. This is
    /// what `join_via_lookup` and the default storage path use.
    pub fn native_kind(&self) -> LookupKind {
        if self.graph().digit_routing() {
            LookupKind::DistanceHalving
        } else {
            LookupKind::Greedy
        }
    }

    /// Run the instance's native lookup (see [`Self::native_kind`]).
    pub fn native_lookup(&self, from: NodeId, target: Point, rng: &mut impl Rng) -> Route {
        self.lookup(self.native_kind(), from, target, rng)
    }

    /// Run the chosen lookup algorithm.
    pub fn lookup(&self, kind: LookupKind, from: NodeId, target: Point, rng: &mut impl Rng) -> Route {
        match kind {
            LookupKind::Fast => self.fast_lookup(from, target),
            LookupKind::DistanceHalving => self.dh_lookup(from, target, rng),
            LookupKind::Greedy => self.greedy_lookup(from, target),
        }
    }

    /// Run the chosen lookup for `(from, target)` into reused buffers.
    pub fn lookup_into(
        &self,
        kind: LookupKind,
        from: NodeId,
        target: Point,
        rng: &mut impl Rng,
        scratch: &mut LookupScratch,
        route: &mut Route,
    ) {
        match kind {
            LookupKind::Fast => self.fast_lookup_into(from, target, route),
            LookupKind::DistanceHalving => self.dh_lookup_into(from, target, rng, scratch, route),
            LookupKind::Greedy => self.greedy_lookup_into(from, target, route),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::DhNetwork;
    use cd_core::pointset::PointSet;
    use cd_core::rng::seeded;
    use cd_core::Point as CPoint;
    use rand::Rng;

    fn check_route(net: &DhNetwork, route: &Route, target: Point) {
        assert!(net.node(route.destination()).covers(target), "route must end at the cover");
        // every transition is along a real table entry
        for w in route.nodes.windows(2) {
            let (a, b) = (w[0], w[1]);
            assert!(
                net.node(a).neighbors.iter().any(|nb| nb.id == b),
                "route hop {a}→{b} is not a table edge"
            );
        }
    }

    #[test]
    fn fast_lookup_reaches_target_smooth() {
        let net = DhNetwork::new(&PointSet::evenly_spaced(64));
        let mut rng = seeded(1);
        for _ in 0..300 {
            let from = net.random_node(&mut rng);
            let target = CPoint(rng.gen());
            let route = net.fast_lookup(from, target);
            check_route(&net, &route, target);
        }
    }

    #[test]
    fn fast_lookup_reaches_target_random() {
        let mut rng = seeded(2);
        let net = DhNetwork::new(&PointSet::random(200, &mut rng));
        for _ in 0..300 {
            let from = net.random_node(&mut rng);
            let target = CPoint(rng.gen());
            let route = net.fast_lookup(from, target);
            check_route(&net, &route, target);
        }
    }

    #[test]
    fn dh_lookup_reaches_target() {
        let mut rng = seeded(3);
        let net = DhNetwork::new(&PointSet::random(200, &mut rng));
        for _ in 0..300 {
            let from = net.random_node(&mut rng);
            let target = CPoint(rng.gen());
            let route = net.dh_lookup(from, target, &mut rng);
            check_route(&net, &route, target);
            assert!(route.phase2_start.is_some());
        }
    }

    #[test]
    fn lookups_work_for_higher_delta() {
        let mut rng = seeded(4);
        for delta in [4u32, 8, 16] {
            let net = DhNetwork::with_delta(&PointSet::random(100, &mut rng), delta);
            for _ in 0..100 {
                let from = net.random_node(&mut rng);
                let target = CPoint(rng.gen());
                check_route(&net, &net.fast_lookup(from, target), target);
                check_route(&net, &net.dh_lookup(from, target, &mut rng), target);
            }
        }
    }

    #[test]
    fn fast_lookup_path_length_obeys_corollary_2_5() {
        // path ≤ log₂ n + log₂ ρ + 1 (+1 ring correction)
        let n = 256usize;
        let net = DhNetwork::new(&PointSet::evenly_spaced(n));
        let bound = (n as f64).log2() + 0.0 + 2.0; // ρ = 1
        let mut rng = seeded(5);
        for _ in 0..500 {
            let from = net.random_node(&mut rng);
            let target = CPoint(rng.gen());
            let route = net.fast_lookup(from, target);
            assert!(
                (route.hops() as f64) <= bound,
                "hops {} exceeds Corollary 2.5 bound {bound}",
                route.hops()
            );
        }
    }

    #[test]
    fn dh_lookup_path_length_obeys_theorem_2_8() {
        let n = 256usize;
        let net = DhNetwork::new(&PointSet::evenly_spaced(n));
        // 2 log n + 2 log ρ, plus the two phase-boundary hops
        let bound = 2.0 * (n as f64).log2() + 3.0;
        let mut rng = seeded(6);
        for _ in 0..500 {
            let from = net.random_node(&mut rng);
            let target = CPoint(rng.gen());
            let route = net.dh_lookup(from, target, &mut rng);
            assert!(
                (route.hops() as f64) <= bound,
                "hops {} exceeds Theorem 2.8 bound {bound}",
                route.hops()
            );
        }
    }

    #[test]
    fn lookup_to_own_segment_is_free() {
        let net = DhNetwork::new(&PointSet::evenly_spaced(16));
        let id = net.live()[3];
        let target = net.node(id).segment.midpoint();
        let route = net.fast_lookup(id, target);
        assert_eq!(route.hops(), 0);
        assert_eq!(route.destination(), id);
        // an unused buffer has no hops either (no `0 − 1` underflow)
        assert_eq!(Route::empty().hops(), 0);
    }

    #[test]
    fn reused_buffers_produce_identical_routes() {
        let mut rng = seeded(40);
        let net = DhNetwork::new(&PointSet::random(150, &mut rng));
        let mut scratch = LookupScratch::new();
        let mut route = Route::empty();
        for _ in 0..200 {
            let from = net.random_node(&mut rng);
            let target = CPoint(rng.gen());
            // identical rng streams → identical routes
            let mut rng_a = seeded(target.bits());
            let mut rng_b = seeded(target.bits());
            let fresh = net.dh_lookup(from, target, &mut rng_a);
            net.dh_lookup_into(from, target, &mut rng_b, &mut scratch, &mut route);
            assert_eq!(fresh.nodes, route.nodes);
            assert_eq!(fresh.points, route.points);
            assert_eq!(fresh.phase2_start, route.phase2_start);
            let fresh_fast = net.fast_lookup(from, target);
            net.fast_lookup_into(from, target, &mut route);
            assert_eq!(fresh_fast.nodes, route.nodes);
        }
    }

    #[test]
    fn lookup_after_churn() {
        let mut rng = seeded(7);
        let mut net = DhNetwork::new(&PointSet::random(50, &mut rng));
        for _ in 0..100 {
            if net.len() > 4 && rng.gen_bool(0.4) {
                let v = net.random_node(&mut rng);
                net.leave(v);
            } else {
                net.join(CPoint(rng.gen()));
            }
            let from = net.random_node(&mut rng);
            let target = CPoint(rng.gen());
            check_route(&net, &net.fast_lookup(from, target), target);
            check_route(&net, &net.dh_lookup(from, target, &mut rng), target);
        }
    }
}
