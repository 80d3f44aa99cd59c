//! §2.2's local routing rule, once: the walk a routed message follows,
//! one state machine per [`RouteKind`]. Each step reads the current
//! server's own segment and table and nothing else. Three drivers loop
//! over it: `dh_dht`'s synchronous `CdNetwork::lookup_into`, the
//! engine's `advance` (which sends only when a step crosses servers)
//! and the hedged planner, which prices the covers of candidate digit
//! strings.

use super::{Path, Slot, Topology};
use crate::node::NodeId;
use crate::wire::RouteKind;
use cd_core::point::Point;
use cd_core::walk::{fast_start, TwoSidedWalk, MAX_WALK_STEPS};
use rand::Rng;

/// Where a walk stands.
#[derive(Clone, Copy, Debug)]
enum Leg {
    /// Fast Lookup's backward walk: the message's position and the
    /// backward edges still to take; then the ring correction.
    Back { p: Point, left: u32 },
    /// Fast Lookup's ring correction: the fixed-point truncation the
    /// backward walk shifted out, absorbed along the ring.
    Ring,
    /// The two-phase walk's phase 1, forward along `p_t` until the
    /// current server's table covers `q_t`.
    Phase1,
    /// Phase 2, retracing `q_t, …, q_0 = y`; the message is at
    /// `trace[idx]`.
    Phase2 { idx: usize },
    /// Greedy routing (§4): the message's position and steps taken.
    Greedy { p: Point, steps: usize },
}

/// One lookup's walk: its target and leg, the two-sided walk of the
/// two-phase route and its phase-2 trace. Reused across lookups,
/// it allocates nothing once its buffers have grown. `dh_dht`
/// re-exports it as `LookupScratch`.
#[derive(Clone, Debug)]
pub struct RouteWalk {
    target: Point,
    leg: Leg,
    dh: TwoSidedWalk,
    trace: Vec<Point>,
}

impl Default for RouteWalk {
    fn default() -> Self {
        Self::new()
    }
}

impl RouteWalk {
    /// A fresh walk (buffers grow on first use).
    pub fn new() -> Self {
        RouteWalk {
            target: Point(0),
            leg: Leg::Ring,
            dh: TwoSidedWalk::new(Point(0), Point(0), 2),
            trace: Vec::new(),
        }
    }

    /// Arm a `kind` walk toward `target` from server `from` at `slot`,
    /// and reset `path` to the message's first position there: the
    /// segment's midpoint for Fast Lookup, its identifier point
    /// otherwise.
    pub fn start<G: Topology>(
        &mut self,
        net: &G,
        kind: RouteKind,
        (from, slot): (NodeId, Slot),
        target: Point,
        path: &mut Path,
    ) {
        let seg = net.slot_segment(slot);
        self.target = target;
        match kind {
            RouteKind::Fast => {
                let (h, t) = fast_start(target, seg, net.delta());
                path.reset(from, seg.midpoint());
                self.leg = Leg::Back { p: h, left: t as u32 };
            }
            RouteKind::DistanceHalving => {
                path.reset(from, seg.start());
                self.resume(net, slot);
            }
            RouteKind::Greedy => {
                path.reset(from, seg.start());
                self.leg = Leg::Greedy { p: seg.start(), steps: 0 };
            }
        }
    }

    /// Re-arm a two-phase walk at the server at `slot`, which holds the
    /// message: a fresh phase 1 from its identifier point.
    pub fn resume<G: Topology>(&mut self, net: &G, slot: Slot) {
        self.dh.reset(net.slot_segment(slot).start(), self.target, net.delta());
        self.leg = Leg::Phase1;
    }

    /// One step from server `cur` at `slot`: the next server, its slot
    /// and the message's position there — `cur` itself when the step
    /// stays local — recorded on `path`, or `None` once `cur` covers
    /// the target. Phase 1 takes `planned[t]` as its `t`-th digit and
    /// draws from `rng` past the plan's end. Panics if `cur`'s table
    /// lacks the edge the continuous graph implies, or past
    /// [`MAX_WALK_STEPS`].
    #[inline]
    pub fn step<G: Topology>(
        &mut self,
        net: &G,
        (cur, slot): (NodeId, Slot),
        planned: &[u32],
        rng: &mut impl Rng,
        path: &mut Path,
    ) -> Option<(NodeId, Slot, Point)> {
        let p = match self.leg {
            Leg::Back { p, left } if left > 0 => {
                let p = p.backward_delta(net.delta());
                self.leg = Leg::Back { p, left: left - 1 };
                p
            }
            Leg::Phase1 => {
                let q = self.dh.target();
                if let Some((next, next_slot)) = net.slot_cover(slot, q) {
                    path.push(next, q);
                    path.phase2_start = Some(path.nodes.len() - 1);
                    self.dh.target_backtrace_into(&mut self.trace);
                    self.leg = Leg::Phase2 { idx: 0 };
                    return Some((next, next_slot, q));
                }
                let t = self.dh.steps();
                assert!(t < MAX_WALK_STEPS, "phase 1 failed to converge (∆ = {})", net.delta());
                match planned.get(t) {
                    Some(&d) => self.dh.step_with(d),
                    None => {
                        self.dh.step(rng);
                    }
                }
                self.dh.source()
            }
            Leg::Phase2 { idx } => {
                // the retrace offers no detour: each backward hop is
                // the doubling map, so its cover is forced
                if idx + 1 == self.trace.len() {
                    debug_assert!(net.slot_segment(slot).contains(self.target));
                    return None;
                }
                self.leg = Leg::Phase2 { idx: idx + 1 };
                self.trace[idx + 1]
            }
            // the backward walk done, the ring correction and greedy
            // routing arrive where the current server covers the target
            _ if net.slot_segment(slot).contains(self.target) => {
                path.push(cur, self.target);
                return None;
            }
            Leg::Greedy { p, steps } => {
                assert!(steps < MAX_WALK_STEPS, "greedy routing failed to converge");
                // cur covers p but not the target, so p ≠ target
                let p = net.greedy_step(p, self.target);
                self.leg = Leg::Greedy { p, steps: steps + 1 };
                p
            }
            Leg::Back { .. } | Leg::Ring => {
                self.leg = Leg::Ring;
                net.slot_segment(slot).end()
            }
        };
        let (next, next_slot) = net.slot_cover(slot, p).unwrap_or_else(|| {
            panic!(
                "missing discrete edge: {cur} (segment {:?}) has no table entry covering {p:?}",
                net.slot_segment(slot)
            )
        });
        path.push(next, p);
        Some((next, next_slot, p))
    }

    /// The digit string the message's header carries: `τ` so far in
    /// phase 1, less one digit per phase-2 hop; none on other walks.
    pub fn header_digits(&self) -> u32 {
        match self.leg {
            Leg::Phase1 => self.dh.steps() as u32,
            Leg::Phase2 { idx } => (self.trace.len() - 1 - idx) as u32,
            _ => 0,
        }
    }

    /// The digits phase 1 has taken so far.
    pub fn digits(&self) -> &[u32] {
        self.dh.digits()
    }
}
