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
//! [`CdNetwork::watchers`] derives) while the verified incremental
//! table maintenance of [`CdNetwork`] applies the state transition —
//! the message layer prices what the state layer does.

use crate::lookup::LookupKind;
use crate::network::{CdNetwork, NodeId};
use cd_core::graph::ContinuousGraph;
use cd_core::interval::Interval;
use cd_core::point::Point;
use cd_core::rng::splitmix64;
use dh_proto::engine::{Engine, RetryPolicy, Topology};
use dh_proto::transport::Transport;
use dh_proto::wire::{Action, RouteKind, Wire};

impl<G: ContinuousGraph> Topology for CdNetwork<G> {
    fn delta(&self) -> u32 {
        CdNetwork::delta(self)
    }

    fn segment_of(&self, n: NodeId) -> Interval {
        self.node(n).segment
    }

    fn local_cover(&self, cur: NodeId, p: Point) -> Option<NodeId> {
        CdNetwork::local_cover(self, cur, p)
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
#[derive(Clone, Copy, Debug, Default)]
pub struct ChurnMsgCost {
    /// Messages of the initial lookup (Join step 2; 0 for Leave).
    pub lookup_msgs: u64,
    /// The `JoinSplit`/`LeaveMerge` RPC plus one `NeighborDiff` per
    /// server whose table the operation changed, however many of its
    /// entries changed.
    pub notify_msgs: u64,
    /// Total modeled bytes of all of the above.
    pub bytes: u64,
    /// Attempts the lookup needed (lossy transports).
    pub attempts: u32,
}

/// Algorithm Join (§2.1) as wire traffic: route a lookup for `x` from
/// `host`, send `JoinSplit` to the covering server, apply the verified
/// split ([`CdNetwork::join`]), then send one `NeighborDiff` to every
/// server whose table changed. Returns `None` on identifier collision
/// or if the lookup failed on a lossy transport (caller may retry with
/// a fresh seed).
pub fn join_over<G: ContinuousGraph, T: Transport>(
    net: &mut CdNetwork<G>,
    host: NodeId,
    x: Point,
    kind: LookupKind,
    seed: u64,
    transport: &mut T,
    retry: RetryPolicy,
) -> Option<(NodeId, ChurnMsgCost)> {
    if net.node(net.cover_of(x)).x == x {
        return None; // identifier collision
    }
    let mut cost = ChurnMsgCost::default();
    // step 2: lookup x from the host
    let dest = {
        let mut eng = Engine::new(&*net, &mut *transport, seed).with_retry(retry);
        let op = eng.submit(route_kind(kind), host, x, Action::Locate);
        eng.run();
        let out = eng.take_outcome(op);
        cost.lookup_msgs = out.msgs;
        cost.bytes += out.bytes;
        cost.attempts = out.attempts;
        if !out.ok {
            return None;
        }
        // step 3: ask the cover to split (the joiner speaks through its
        // host until it is spliced into the ring)
        eng.send(host, out.dest.expect("completed"), Wire::JoinSplit { x });
        cost.notify_msgs += 1;
        cost.bytes += Wire::JoinSplit { x }.wire_bytes();
        eng.run();
        out.dest.expect("completed")
    };
    // the affected set, derived before the split: the split node's
    // watchers, ascending by id, so the notification order (and any
    // recorded trace) is a pure function of the membership
    let watchers = net.watchers(dest);
    let id = net.join(x)?;
    // step 4: the split node informs every affected server; the joiner
    // receives its freshly derived table
    let mut eng = Engine::new(&*net, &mut *transport, splitmix64(seed ^ 0x301F));
    for &w in &watchers {
        let msg = Wire::NeighborDiff { entries: 1 };
        cost.notify_msgs += 1;
        cost.bytes += msg.wire_bytes();
        eng.send(dest, w, msg);
    }
    let table = Wire::NeighborDiff { entries: net.node(id).degree() as u32 };
    cost.notify_msgs += 1;
    cost.bytes += table.wire_bytes();
    eng.send(dest, id, table);
    eng.run();
    Some((id, cost))
}

/// The simple Leave (§2.1) as wire traffic: `LeaveMerge` hands the
/// segment to the ring predecessor, then each watcher of either gets
/// one `NeighborDiff` with an entry per server of the two it lists.
/// The verified [`CdNetwork::leave`] applies the state transition. The
/// leaver's shares follow as `dh_replica`'s repair frames.
pub fn leave_over<G: ContinuousGraph, T: Transport>(
    net: &mut CdNetwork<G>,
    id: NodeId,
    transport: &mut T,
    seed: u64,
) -> ChurnMsgCost {
    let pred = net.ring_pred(id);
    let mut cost = ChurnMsgCost::default();
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
    {
        let mut eng = Engine::new(&*net, &mut *transport, seed);
        cost.notify_msgs += 1;
        cost.bytes += Wire::LeaveMerge.wire_bytes();
        eng.send(id, pred, Wire::LeaveMerge);
        for &(src, dst, entries) in &notify {
            let msg = Wire::NeighborDiff { entries };
            cost.notify_msgs += 1;
            cost.bytes += msg.wire_bytes();
            eng.send(src, dst, msg);
        }
        eng.run();
    }
    net.leave(id);
    cost
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

    /// `Inline`, logging the receiver of every `NeighborDiff`.
    #[derive(Default)]
    struct Diffs(Vec<NodeId>);

    impl Transport for Diffs {
        fn plan(&mut self, now: u64, env: &Envelope, out: &mut Vec<Delivery>) {
            if matches!(env.msg, Wire::NeighborDiff { .. }) {
                self.0.push(env.dst);
            }
            Inline.plan(now, env, out)
        }
    }

    fn churn_over<G: ContinuousGraph>(mut net: CdNetwork<G>, seed: u64) -> u64 {
        let (mut rng, kind) = (seeded(seed), net.native_kind());
        let mut transport = Recorder::new(Diffs::default());
        for i in 0..120u64 {
            transport.inner_mut().0.clear();
            if net.len() > 8 && rng.gen_bool(0.45) {
                let v = net.random_node(&mut rng);
                let cost = leave_over(&mut net, v, &mut transport, i);
                // one NeighborDiff per distinct receiver, never two
                let mut receivers = transport.inner_mut().0.clone();
                receivers.sort_unstable();
                receivers.dedup();
                assert_eq!(receivers.len(), transport.inner_mut().0.len(), "a receiver told twice");
                assert_eq!(cost.notify_msgs, 1 + receivers.len() as u64);
            } else {
                let host = net.random_node(&mut rng);
                let x = Point(rng.gen());
                let retry = RetryPolicy::default();
                if let Some((id, cost)) = join_over(&mut net, host, x, kind, i, &mut transport, retry) {
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
