//! The Distance Halving network on the wire-protocol API.
//!
//! [`CdNetwork`] implements [`Topology`] for every instance, so any
//! routed operation
//! can run through `dh_proto`'s deterministic event engine over any
//! transport. Under [`dh_proto::Inline`] the engine executes exactly
//! the synchronous hop sequence (see `tests/proto_equiv.rs` — routes
//! are property-tested bit-identical to [`CdNetwork::lookup`]); under
//! [`dh_proto::Sim`] the same protocols acquire latency, loss,
//! duplication and reordering, plus per-operation message/byte
//! accounting that nothing in the synchronous path can express.
//!
//! This module also drives **churn through messages**:
//! [`join_over`]/[`leave_over`] run the paper's Join/Leave algorithms
//! as wire traffic (lookup steps, a `JoinSplit`/`LeaveMerge` RPC, one
//! `NeighborDiff` per server whose table changes — the watchers
//! [`CdNetwork::watchers`] derives) on the caller's engine. A join's
//! lookup is [`LookupKind::for_join`] of the store's data-path lookup:
//! Fast Lookup where the data path routes two-phase, because the
//! joiner's point is random, not picked. The
//! verified incremental table maintenance of [`CdNetwork`] applies the
//! state transition — the message layer prices what the state layer
//! does. Churn lends its runs no detector and records nothing.

use crate::lookup::LookupKind;
use crate::network::{CdNetwork, NodeId};
use cd_core::graph::ContinuousGraph;
use cd_core::interval::Interval;
use cd_core::point::Point;
use dh_proto::engine::{Engine, NoShares, Slot, Topology};
use dh_proto::transport::Transport;
use dh_proto::wire::{Action, RouteKind, Wire};

impl<G: ContinuousGraph> Topology for CdNetwork<G> {
    fn delta(&self) -> u32 {
        CdNetwork::delta(self)
    }

    fn slot_of(&self, n: NodeId) -> Slot {
        CdNetwork::slot_of(self, n)
    }

    fn slot_segment(&self, slot: Slot) -> Interval {
        CdNetwork::slot_segment(self, slot)
    }

    fn slot_cover(&self, slot: Slot, p: Point) -> Option<(NodeId, Slot)> {
        CdNetwork::slot_cover(self, slot, p)
    }

    fn segment_bound(&self) -> u128 {
        CdNetwork::segment_bound(self)
    }

    fn greedy_step(&self, p: Point, target: Point) -> Point {
        // instances without greedy routing panic here (by name),
        // exactly like the synchronous greedy lookup's gate
        self.graph().greedy_step(p, target)
    }

    fn ring_succ(&self, n: NodeId) -> NodeId {
        CdNetwork::ring_succ(self, n)
    }

    fn ring_pred(&self, n: NodeId) -> NodeId {
        CdNetwork::ring_pred(self, n)
    }
}

/// The wire-level spelling of a [`LookupKind`].
pub fn route_kind(kind: LookupKind) -> RouteKind {
    match kind {
        LookupKind::Fast => RouteKind::Fast,
        LookupKind::DistanceHalving => RouteKind::DistanceHalving,
        LookupKind::Greedy => RouteKind::Greedy,
    }
}

/// Message cost of one churn operation driven through the engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChurnMsgCost {
    /// Messages of the initial lookup (Join step 2, routed by
    /// [`LookupKind::for_join`] of the `kind` passed to [`join_over`];
    /// 0 for Leave).
    pub lookup_msgs: u64,
    /// The `JoinSplit`/`LeaveMerge` RPC plus one `NeighborDiff` per
    /// server whose table the operation changed, however many of its
    /// entries changed.
    pub notify_msgs: u64,
    /// Total modeled bytes of all of the above.
    pub bytes: u64,
}

/// Algorithm Join (§2.1) as wire traffic on `eng`, under its retry
/// policy: route a lookup for `x` from `host`, send `JoinSplit` to the
/// covering server, apply the verified split ([`CdNetwork::join`]),
/// then send one `NeighborDiff` to every server whose table changed.
/// `kind` is the store's data-path lookup; the join routes
/// [`LookupKind::for_join`] of it (Fast Lookup for `DistanceHalving`).
/// Returns `None` on identifier collision or if the lookup failed on
/// a lossy transport (caller may retry with a fresh seed).
pub fn join_over<G: ContinuousGraph, T: Transport>(
    eng: &mut Engine,
    net: &mut CdNetwork<G>,
    host: NodeId,
    x: Point,
    kind: LookupKind,
    seed: u64,
    transport: &mut T,
) -> Option<(NodeId, ChurnMsgCost)> {
    if net.node(net.cover_of(x)).x == x {
        return None; // identifier collision
    }
    // step 2: lookup x from the host
    let op = eng.submit(seed, route_kind(kind.for_join()), host, x, Action::Locate);
    let lookup = eng.run(&*net, transport, None, &Default::default(), &NoShares);
    let out = eng.take_outcome(op);
    if !out.ok {
        return None;
    }
    let dest = out.dest.expect("completed");
    // step 3: ask the cover to split (the joiner speaks through its
    // host until it is spliced into the ring)
    eng.send(host, dest, Wire::JoinSplit { x });
    let split = eng.run(&*net, transport, None, &Default::default(), &NoShares);
    // the affected set, derived before the split: the split node's
    // watchers, ascending by id, so the notification order (and any
    // recorded trace) is a pure function of the membership
    let watchers = net.watchers(dest);
    let id = net.join(x)?;
    // step 4: the split node informs every affected server; the joiner
    // receives its freshly derived table
    for &w in &watchers {
        eng.send(dest, w, Wire::NeighborDiff { entries: 1 });
    }
    eng.send(dest, id, Wire::NeighborDiff { entries: net.node(id).degree() as u32 });
    let notify = eng.run(&*net, transport, None, &Default::default(), &NoShares);
    let cost = ChurnMsgCost {
        lookup_msgs: out.msgs,
        notify_msgs: split.msgs + notify.msgs,
        bytes: lookup.bytes + split.bytes + notify.bytes,
    };
    Some((id, cost))
}

/// The simple Leave (§2.1) as wire traffic on `eng`: `LeaveMerge`
/// hands the segment to the ring predecessor, then each watcher of
/// either gets one `NeighborDiff` with an entry per server of the two
/// it lists. The verified [`CdNetwork::leave`] applies the state
/// transition. The leaver's shares follow as `dh_replica`'s repair
/// frames.
pub fn leave_over<G: ContinuousGraph, T: Transport>(
    eng: &mut Engine,
    net: &mut CdNetwork<G>,
    id: NodeId,
    transport: &mut T,
) -> ChurnMsgCost {
    let pred = net.ring_pred(id);
    let (of_leaver, of_pred) = (net.watchers(id), net.watchers(pred));
    // the leaver tells its watchers, the predecessor the rest of its
    // own; sent in (sender, receiver) order
    let mut notify: Vec<(NodeId, NodeId, u32)> = Vec::new();
    for &w in &of_leaver {
        notify.push((id, w, 1 + u32::from(of_pred.binary_search(&w).is_ok())));
    }
    for &w in &of_pred {
        if w != id && of_leaver.binary_search(&w).is_err() {
            notify.push((pred, w, 1));
        }
    }
    notify.sort_unstable();
    eng.send(id, pred, Wire::LeaveMerge);
    for &(src, dst, entries) in &notify {
        eng.send(src, dst, Wire::NeighborDiff { entries });
    }
    let stats = eng.run(&*net, transport, None, &Default::default(), &NoShares);
    net.leave(id);
    ChurnMsgCost { notify_msgs: stats.msgs, bytes: stats.bytes, ..Default::default() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{ChordLike, DhNetwork};
    use cd_core::pointset::PointSet;
    use cd_core::rng::seeded;
    use dh_proto::transport::{Delivery, Inline, Recorder};
    use dh_proto::wire::Envelope;
    use rand::Rng;

    #[test]
    fn topology_view_matches_network_state() {
        let mut rng = seeded(50);
        let net = DhNetwork::new(&PointSet::random(64, &mut rng));
        for &id in net.live() {
            assert_eq!(Topology::segment_of(&net, id), net.node(id).segment);
            for _ in 0..20 {
                let p = Point(rng.gen());
                assert_eq!(Topology::local_cover(&net, id, p), net.local_cover(id, p));
            }
        }
        assert_eq!(Topology::delta(&net), net.delta());
    }

    /// `Inline`, logging the receiver of every `NeighborDiff` and
    /// counting every envelope and its wire bytes.
    #[derive(Default)]
    struct Diffs {
        receivers: Vec<NodeId>,
        msgs: u64,
        bytes: u64,
    }

    impl Transport for Diffs {
        fn plan(&mut self, now: u64, env: &Envelope, out: &mut Vec<Delivery>) {
            if matches!(env.msg, Wire::NeighborDiff { .. }) {
                self.receivers.push(env.dst);
            }
            self.msgs += 1;
            self.bytes += env.msg.wire_bytes();
            Inline.plan(now, env, out)
        }
    }

    /// The cost a churn op reports is what the transport carried.
    fn assert_priced(cost: &ChurnMsgCost, seen: &Diffs) {
        assert_eq!(cost.lookup_msgs + cost.notify_msgs, seen.msgs, "messages miscounted");
        assert_eq!(cost.bytes, seen.bytes, "bytes miscounted");
    }

    fn churn_over<G: ContinuousGraph>(mut net: CdNetwork<G>, seed: u64) -> u64 {
        let (mut rng, kind) = (seeded(seed), net.native_kind());
        let mut transport = Recorder::new(Diffs::default());
        let mut eng = Engine::default();
        for i in 0..120u64 {
            *transport.inner_mut() = Diffs::default();
            if net.len() > 8 && rng.gen_bool(0.45) {
                let v = net.random_node(&mut rng);
                let cost = leave_over(&mut eng, &mut net, v, &mut transport);
                let seen = transport.inner_mut();
                assert_priced(&cost, seen);
                // one NeighborDiff per distinct receiver, never two
                let mut receivers = seen.receivers.clone();
                receivers.sort_unstable();
                receivers.dedup();
                assert_eq!(receivers.len(), seen.receivers.len(), "a receiver told twice");
                assert_eq!(cost.notify_msgs, 1 + receivers.len() as u64);
            } else {
                let host = net.random_node(&mut rng);
                let x = Point(rng.gen());
                let joined = join_over(&mut eng, &mut net, host, x, kind, i, &mut transport);
                if let Some((id, cost)) = joined {
                    assert_priced(&cost, transport.inner_mut());
                    assert!(net.node(id).covers(x));
                    // join must stay local: O(degree) notifications
                    assert!(
                        cost.notify_msgs <= 64,
                        "{} notifications — join must be local",
                        cost.notify_msgs
                    );
                    assert!(cost.lookup_msgs <= 40);
                }
            }
        }
        net.validate();
        transport.fingerprint()
    }

    #[test]
    fn churn_over_messages_preserves_invariants_and_locality() {
        let dh = || DhNetwork::new(&PointSet::random(64, &mut seeded(52)));
        assert_eq!(churn_over(dh(), 52), churn_over(dh(), 52), "a seeded storm replays exactly");
        // evenly spaced ids put a widened backward image one ulp short
        // of a forward image (`watchers_reach_one_ulp_past_a_forward_image`)
        churn_over(DhNetwork::new(&PointSet::evenly_spaced(64)), 21);
        churn_over(CdNetwork::build(ChordLike, &PointSet::random(64, &mut seeded(53))), 53);
    }
}
