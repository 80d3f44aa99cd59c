use super::*;
use crate::transport::{Delivery, Inline, Recorder, Sim};
use crate::fault::ChaosNet;
use cd_core::pointset::PointSet;
use dh_obs::BACKGROUND;

/// A complete-graph toy topology: every server's "table" covers the
/// whole circle, so `local_cover` always answers. Exercises the
/// engine core (timers, retries, stamps, accounting) without
/// depending on the Distance Halving discretisation — the
/// bit-identity tests against `DhNetwork` live in `dh_dht`.
struct Complete {
    ps: PointSet,
    delta: u32,
}

impl Complete {
    fn new(n: usize, delta: u32) -> Self {
        Complete { ps: PointSet::evenly_spaced(n), delta }
    }

    fn cover(&self, p: Point) -> NodeId {
        let pts = self.ps.points();
        let idx = pts.partition_point(|x| x.bits() <= p.bits());
        NodeId(if idx == 0 { pts.len() as u32 - 1 } else { idx as u32 - 1 })
    }
}

impl Topology for Complete {
    fn delta(&self) -> u32 {
        self.delta
    }
    fn segment_of(&self, n: NodeId) -> Interval {
        self.ps.segment(n.0 as usize)
    }
    fn local_cover(&self, _cur: NodeId, p: Point) -> Option<NodeId> {
        Some(self.cover(p))
    }
    fn greedy_step(&self, p: Point, target: Point) -> Point {
        // chord-style: the largest 2⁻ⁱ not overshooting the target
        let d = target.offset_from(p);
        p.wrapping_add(1u64 << (63 - d.leading_zeros()))
    }
    fn ring_succ(&self, n: NodeId) -> NodeId {
        NodeId((n.0 + 1) % self.ps.len() as u32)
    }
    fn ring_pred(&self, n: NodeId) -> NodeId {
        let len = self.ps.len() as u32;
        NodeId((n.0 + len - 1) % len)
    }
}

fn submit_mixed(eng: &mut Engine, seed: u64, n: u32) -> Vec<OpId> {
    (0..n)
        .map(|i| {
            let kind =
                if i % 2 == 0 { RouteKind::Fast } else { RouteKind::DistanceHalving };
            let from = NodeId(i % 16);
            let target = Point(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(i) + 1));
            eng.submit(seed, kind, from, target, Action::Locate)
        })
        .collect()
}

/// An engine under `retry`.
fn engine(retry: RetryPolicy) -> Engine {
    Engine { retry, ..Engine::default() }
}

/// Run `eng` to quiescence over `net` and `transport`, no detector,
/// unrecorded, no shares.
fn run(eng: &mut Engine, net: &Complete, transport: &mut impl Transport) -> EngineStats {
    eng.run(net, transport, None, &Obs::off(), &NoShares)
}

#[test]
fn inline_ops_complete_at_the_cover() {
    let net = Complete::new(16, 2);
    let mut eng = Engine::default();
    let ops = submit_mixed(&mut eng, 7, 40);
    let stats = run(&mut eng, &net, &mut Inline);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.completed, 40);
    for id in ops {
        let out = eng.take_outcome(id);
        assert!(out.ok);
        let dest = out.dest.expect("completed");
        assert!(net.segment_of(dest).contains(
            match out.action { Action::Locate => out.path.points[out.path.points.len() - 1], _ => unreachable!() }
        ));
        assert_eq!(out.attempts, 1);
        assert_eq!(out.msgs as usize, out.path.hops());
    }
}

#[test]
fn greedy_machine_completes_at_the_cover() {
    let net = Complete::new(16, 2);
    let mut eng = Engine::default();
    let ops: Vec<OpId> = (0..30)
        .map(|i| {
            let target = Point(0xD1B5_4A32_D192_ED03u64.wrapping_mul(i + 1));
            eng.submit(43, RouteKind::Greedy, NodeId((i % 16) as u32), target, Action::Locate)
        })
        .collect();
    assert_eq!(run(&mut eng, &net, &mut Inline).failed, 0);
    for id in ops {
        let out = eng.take_outcome(id);
        assert!(out.ok);
        let target = *out.path.points.last().expect("nonempty");
        assert!(net.segment_of(out.dest.expect("done")).contains(target));
        assert_eq!(out.msgs as usize, out.path.hops(), "one hop = one message under Inline");
        // greedy walks clear one bit of the gap per continuous step
        assert!(out.path.hops() <= 64);
    }
}

#[test]
fn greedy_machine_survives_drops() {
    let net = Complete::new(16, 2);
    let mut eng = engine(RetryPolicy::fixed(100, 12));
    let ops: Vec<OpId> = (0..25)
        .map(|i| {
            let target = Point(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i + 3));
            eng.submit(47, RouteKind::Greedy, NodeId((i % 16) as u32), target, Action::Locate)
        })
        .collect();
    let stats = run(&mut eng, &net, &mut Sim::new(21).with_drop(0.25));
    assert_eq!(stats.failed, 0, "retry must absorb 25% loss on short greedy routes");
    for id in ops {
        assert!(eng.take_outcome(id).ok);
    }
}

#[test]
fn sim_same_seed_same_everything() {
    let net = Complete::new(32, 2);
    let run = || {
        let mut eng = engine(RetryPolicy::fixed(200, 10));
        let mut rec = Recorder::new(Sim::new(3).with_drop(0.1).with_dup(0.1));
        let ops = submit_mixed(&mut eng, 11, 60);
        let stats = run(&mut eng, &net, &mut rec);
        let outs: Vec<(bool, u64, u64, u32, Option<u64>)> = ops
            .iter()
            .map(|&id| {
                let o = eng.take_outcome(id);
                (o.ok, o.msgs, o.bytes, o.attempts, o.completed_at)
            })
            .collect();
        (outs, stats, rec.fingerprint())
    };
    let (a_out, a_stats, a_fp) = run();
    let (b_out, b_stats, b_fp) = run();
    assert_eq!(a_out, b_out);
    assert_eq!(a_stats, b_stats);
    assert_eq!(a_fp, b_fp, "same seed must give the identical event trace");
}

#[test]
fn drops_are_survived_by_retry() {
    let net = Complete::new(16, 2);
    let mut eng = engine(RetryPolicy::fixed(100, 12));
    let ops = submit_mixed(&mut eng, 13, 30);
    let stats = run(&mut eng, &net, &mut Sim::new(5).with_drop(0.3));
    assert_eq!(stats.failed, 0, "retry must absorb 30% loss on short routes");
    assert!(stats.retries > 0, "with 30% loss some op must have retried");
    for id in ops {
        assert!(eng.take_outcome(id).ok);
    }
}

#[test]
fn duplicates_and_reordering_are_ignored_by_stamps() {
    let net = Complete::new(16, 2);
    let mut eng = Engine::default();
    let ops = submit_mixed(&mut eng, 17, 40);
    let stats = run(&mut eng, &net, &mut Sim::new(9).with_dup(0.5).with_latency(1, 20, 10));
    assert!(stats.duplicated > 0);
    assert!(stats.stale > 0, "duplicate arrivals must be discarded as stale");
    assert_eq!(stats.failed, 0);
    for id in ops {
        let o = eng.take_outcome(id);
        assert!(o.ok);
        assert_eq!(o.attempts, 1, "duplication alone must never trigger a retry");
    }
}

#[test]
fn fail_stop_destination_exhausts_retries() {
    let net = Complete::new(16, 2);
    let target = Point(u64::MAX / 2 + 12345);
    let dest = net.cover(target);
    let mut faulty = ChaosNet::new(Inline, 0);
    faulty.fail(dest);
    let from = NodeId((dest.0 + 1) % 16);
    let mut eng = engine(RetryPolicy::fixed(50, 3));
    let op = eng.submit(19, RouteKind::Fast, from, target, Action::Locate);
    let stats = run(&mut eng, &net, &mut faulty);
    let out = eng.take_outcome(op);
    assert!(!out.ok, "a dead destination cannot answer");
    assert_eq!(out.attempts, 3);
    assert_eq!(stats.failed, 1);
    assert!(stats.dropped >= 3);
}

#[test]
fn injection_marks_outcomes_corrupt() {
    let net = Complete::new(16, 2);
    let mut faulty = ChaosNet::new(Inline, 0);
    // fail every node: any route that sends at least one message
    // must arrive corrupted
    for i in 0..16 {
        faulty.lie(NodeId(i));
    }
    let mut eng = Engine::default();
    let ops = submit_mixed(&mut eng, 23, 20);
    run(&mut eng, &net, &mut faulty);
    for id in ops {
        let o = eng.take_outcome(id);
        assert!(o.ok, "liars keep routing");
        assert_eq!(o.corrupt, o.msgs > 0, "message-free ops cannot be corrupted");
    }
}

#[test]
fn bare_sends_are_accounted() {
    let net = Complete::new(8, 2);
    let mut eng = Engine::default();
    eng.send(NodeId(0), NodeId(1), Wire::NeighborDiff { entries: 3 });
    eng.send(NodeId(1), NodeId(2), Wire::JoinSplit { x: Point(5) });
    let stats = run(&mut eng, &net, &mut Inline);
    assert_eq!(stats.msgs, 2);
    assert_eq!(stats.delivered, 2);
    assert_eq!(
        stats.bytes,
        Wire::NeighborDiff { entries: 3 }.wire_bytes() + Wire::JoinSplit { x: Point(5) }.wire_bytes()
    );
}

#[test]
fn hand_crafted_op_messages_are_ignored_not_fatal() {
    let net = Complete::new(8, 2);
    let mut eng = Engine::default();
    // a LookupStep naming an op this engine never issued must be
    // discarded like stale traffic, not crash the run
    eng.send(
        NodeId(0),
        NodeId(1),
        Wire::LookupStep {
            op: 7,
            attempt: 1,
            step: 1,
            at: Point(9),
            digits: 0,
            action: Action::Locate,
        },
    );
    let stats = run(&mut eng, &net, &mut Inline);
    assert_eq!(stats.stale, 1);
    assert_eq!(stats.delivered, 1);
}

#[test]
fn take_outcome_moves_the_route_out() {
    let net = Complete::new(16, 2);
    let mut eng = Engine::default();
    let op = eng.submit(59, RouteKind::Fast, NodeId(2), Point(u64::MAX / 7), Action::Locate);
    run(&mut eng, &net, &mut Inline);
    let taken = eng.take_outcome(op);
    assert!(taken.ok);
    assert_eq!(taken.path.destination(), taken.dest.expect("completed"));
    // a second take still reports the metrics but the route is gone
    let again = eng.take_outcome(op);
    assert!(again.ok && again.path.nodes.is_empty());
    assert_eq!((again.msgs, again.bytes, again.attempts), (taken.msgs, taken.bytes, taken.attempts));
    assert_eq!(again.dest, taken.dest, "destination survives the move");
}

/// A share table for the replica tests: `(node, key) → (idx, len)`.
// detlint: allow(hash-order): test-only lookup table, never iterated
struct TableShares(std::collections::HashMap<(u32, u64), (u8, u32)>);

impl ShareView for TableShares {
    fn share_of(&self, node: NodeId, key: u64) -> Option<(u8, u32)> {
        self.0.get(&(node.0, key)).copied()
    }
}

/// The clique of `item` on the `Complete` ring: `m` consecutive
/// servers starting at the cover.
fn clique(net: &Complete, item: Point, m: u8) -> Vec<NodeId> {
    let mut out = vec![net.cover(item)];
    for _ in 1..m {
        out.push(net.ring_succ(*out.last().unwrap()));
    }
    out
}

#[test]
fn replicated_put_places_all_shares_and_completes_at_quorum() {
    let net = Complete::new(16, 2);
    let item = Point(u64::MAX / 3);
    let cover = net.cover(item);
    let mut eng = Engine::default();
    let mut tags = ScatterTags::default();
    let action = Action::PutShares { key: 7, len: 32, m: 5, k: 3, item };
    let op = eng.submit(101, RouteKind::Fast, cover, item, action);
    let stats = run(&mut eng, &net, &mut tags);
    let out = eng.take_outcome(op);
    assert!(out.ok);
    assert_eq!(out.dest, Some(cover), "the primary cover coordinates");
    assert_eq!(out.holders, clique(&net, item, 5));
    let mut stored = out.shares.clone();
    stored.sort_unstable();
    assert_eq!(stored, vec![0, 1, 2, 3, 4], "under Inline every share lands");
    // origin covers the item: (m − 1) remote StoreShares + the
    // (k − 1) acks that complete the quorum, no routing messages
    assert_eq!(out.msgs, (5 - 1) + (3 - 1));
    assert_eq!(out.attempts, 1);
    // only the acks the quorum uses are asked for: none arrives
    // after the op left its scatter
    assert_eq!((stats.stale, stats.hedged), (0, 0));
    assert_eq!((stats.retries, stats.dropped), (0, 0));
    assert_eq!(tags.0, "SSSSAA", "a store per cover, k − 1 acks");
}

#[test]
fn put_backs_up_a_silent_designated_acker() {
    let net = Complete::new(16, 2);
    let item = Point(u64::MAX / 3);
    let (m, k) = (5u8, 3u8);
    let holders = clique(&net, item, m);
    // contact order is ring order from the coordinator (holders[0]),
    // so slots 1 and 2 are asked to ack; slot 1 is dead, and so is
    // slot 4, which nobody asks
    let mut faulty = ChaosNet::new(Inline, 0);
    faulty.fail(holders[1]);
    faulty.fail(holders[4]);
    let mut health = NetHealth::new();
    let mut eng = engine(RetryPolicy::fixed(512, 4));
    let action = Action::PutShares { key: 7, len: 32, m, k, item };
    let op = eng.submit(157, RouteKind::Fast, holders[0], item, action);
    let stats = eng.run(&net, &mut faulty, Some(&mut health), &Obs::off(), &NoShares);
    let out = eng.take_outcome(op);
    assert!(out.ok && out.attempts == 1, "k live covers commit without a restart");
    // Inline delays are 0, so the hedge waits the detector's floor
    assert_eq!(out.completed_at, Some(crate::health::MIN_TIMEOUT), "one hedge delay");
    assert_eq!((stats.hedged, stats.retries, stats.stale), (1, 0, 0));
    let mut stored = out.shares.clone();
    stored.sort_unstable();
    assert_eq!(stored, vec![0, 2, 3], "every live slot, no other");
    // 4 stores (2 lost) + slot 2's ack, then slot 3's backup + ack
    assert_eq!((out.msgs, stats.dropped), (7, 2));
    // the silent acker is blamed; the dead cover nobody asked is not
    assert!(health.suspicion(holders[1]) > 0);
    for h in [holders[0], holders[2], holders[3], holders[4]] {
        assert_eq!(health.suspicion(h), 0, "{h} was blamed without being asked");
    }
}

/// A share table in which every cover of the clique holds the share
/// of `key` a put left there (index = slot, 40 bytes), except the
/// slots in `lacking`.
fn shares_on(holders: &[NodeId], key: u64, lacking: &[u8]) -> TableShares {
    let held = (0..holders.len() as u8).filter(|i| !lacking.contains(i));
    TableShares(held.map(|i| ((holders[i as usize].0, key), (i, 40u32))).collect())
}

/// `Inline` that logs the clique-protocol messages it carries, in
/// send order: `'F'` per `FetchShare`, `'R'` per `ShareReply`,
/// `'S'` per `StoreShare`, `'A'` per `ShareAck`.
#[derive(Default)]
struct ScatterTags(String);

impl Transport for ScatterTags {
    fn plan(&mut self, now: u64, env: &Envelope, out: &mut Vec<Delivery>) {
        match env.msg {
            Wire::FetchShare { .. } => self.0.push('F'),
            Wire::ShareReply { .. } => self.0.push('R'),
            Wire::StoreShare { .. } => self.0.push('S'),
            Wire::ShareAck { .. } => self.0.push('A'),
            _ => {}
        }
        Inline.plan(now, env, out)
    }
}

#[test]
fn quorum_read_gathers_first_k_shares() {
    let net = Complete::new(16, 2);
    let item = Point(12345 << 32);
    let (m, k, key) = (5u8, 3u8, 9u64);
    let holders = clique(&net, item, m);
    let view = shares_on(&holders, key, &[]);
    let mut eng = Engine::default();
    let mut tags = ScatterTags::default();
    let from = NodeId((net.cover(item).0 + 7) % 16);
    let op = eng.submit(103, RouteKind::Fast, from, item, Action::GetShares { key, m, k, item });
    let stats = eng.run(&net, &mut tags, None, &Obs::off(), &view);
    let out = eng.take_outcome(op);
    assert!(out.ok);
    assert_eq!(out.holders, holders);
    assert_eq!(out.shares.len(), k as usize, "k shares reconstruct");
    // the coordinator's own share is the first one used
    let own = holders.iter().position(|&h| Some(h) == out.dest).expect("a cover coordinates");
    assert_eq!(out.shares[0], own as u8);
    // the reply bytes include the share payloads
    assert!(out.bytes >= 2 * 40);
    // nothing is fetched to be thrown away
    assert_eq!((stats.stale, stats.hedged), (0, 0));
    assert_eq!((stats.retries, stats.dropped), (0, 0));
    assert_eq!(tags.0, "FFRR", "exactly k − 1 fetches, each answered");
}

#[test]
fn a_cover_lacking_its_share_costs_one_extra_fetch() {
    let net = Complete::new(16, 2);
    let item = Point(12345 << 32);
    let (m, k, key) = (5u8, 3u8, 9u64);
    let holders = clique(&net, item, m);
    let view = shares_on(&holders, key, &[1]);
    let mut eng = Engine::default();
    let mut tags = ScatterTags::default();
    let get = Action::GetShares { key, m, k, item };
    let op = eng.submit(103, RouteKind::Fast, holders[0], item, get);
    let stats = eng.run(&net, &mut tags, None, &Obs::off(), &view);
    let out = eng.take_outcome(op);
    assert!(out.ok);
    assert_eq!(out.shares, vec![0, 2, 3], "the next cover in contact order fills in");
    assert_eq!((stats.stale, stats.hedged, stats.retries), (0, 0, 0));
    // the top-up leaves on the not-found reply, not on a timer
    assert_eq!(tags.0, "FFRRFR");
}

#[test]
fn a_read_gathers_whichever_indices_the_covers_hold() {
    // after churn repair the shares sit on the clique as a set, not
    // by position: slot i holds index σ(i) and one slot holds none
    let net = Complete::new(16, 2);
    let item = Point(12345 << 32);
    let (m, k, key) = (5u8, 3u8, 9u64);
    let holders = clique(&net, item, m);
    let sigma = [Some(4u8), None, Some(0), Some(2), Some(1)];
    let table = holders
        .iter()
        .zip(sigma)
        .filter_map(|(h, idx)| Some(((h.0, key), (idx?, 40u32))))
        .collect();
    let mut eng = Engine::default();
    let mut tags = ScatterTags::default();
    let get = Action::GetShares { key, m, k, item };
    let op = eng.submit(103, RouteKind::Fast, holders[0], item, get);
    eng.run(&net, &mut tags, None, &Obs::off(), &TableShares(table));
    let out = eng.take_outcome(op);
    assert!(out.ok);
    assert_eq!(out.shares, vec![4, 0, 2], "own share, then the next covers' indices");
    assert_eq!(tags.0, "FFRRFR", "the empty slot costs one top-up");
}

#[test]
fn a_lone_coordinator_without_its_share_fetches_at_once() {
    // plain replication (k = 1): the first wave is the coordinator's
    // own share alone, so its absence must extend the read on the
    // spot — not a hedge delay (512 / 8 ticks) later
    let net = Complete::new(16, 2);
    let item = Point(0xABCD << 40);
    let (m, k, key) = (3u8, 1u8, 5u64);
    let holders = clique(&net, item, m);
    let view = shares_on(&holders, key, &[0]);
    let mut eng = engine(RetryPolicy::fixed(512, 4));
    let get = Action::GetShares { key, m, k, item };
    let op = eng.submit(139, RouteKind::Fast, holders[0], item, get);
    let stats = eng.run(&net, &mut Sim::new(3), None, &Obs::off(), &view);
    let out = eng.take_outcome(op);
    assert!(out.ok);
    assert_eq!(out.shares, vec![1]);
    assert!(out.completed_at.expect("done") < 512 / 8, "one round trip, no timer");
    assert_eq!((stats.hedged, stats.retries), (0, 0));
}

/// `Sim`, except that the first message tagged `tag` is lost.
struct LoseFirst {
    inner: Sim,
    tag: u8,
    lost: bool,
}

impl Transport for LoseFirst {
    fn plan(&mut self, now: u64, env: &Envelope, out: &mut Vec<Delivery>) {
        if !self.lost && env.msg.tag() == self.tag {
            self.lost = true;
            return;
        }
        self.inner.plan(now, env, out)
    }
}

#[test]
fn a_lost_reply_costs_a_backup_fetch_not_a_restart() {
    let net = Complete::new(16, 2);
    let item = Point(12345 << 32);
    let (m, k, key) = (5u8, 3u8, 9u64);
    let holders = clique(&net, item, m);
    let view = shares_on(&holders, key, &[]);
    let reply =
        Wire::ShareReply { op: 0, attempt: 1, idx: 0, key, found: true, len: 40 }.tag();
    let mut lossy = LoseFirst { inner: Sim::new(11), tag: reply, lost: false };
    let mut eng = engine(RetryPolicy::fixed(512, 4));
    let from = NodeId((net.cover(item).0 + 7) % 16);
    let op = eng.submit(149, RouteKind::Fast, from, item, Action::GetShares { key, m, k, item });
    let stats = eng.run(&net, &mut lossy, None, &Obs::off(), &view);
    let out = eng.take_outcome(op);
    assert!(out.ok);
    assert_eq!(out.shares.len(), k as usize);
    assert_eq!(out.attempts, 1);
    assert_eq!((stats.dropped, stats.retries, stats.hedged), (1, 0, 1));
}

#[test]
fn fail_stop_minority_does_not_block_the_quorum() {
    let net = Complete::new(16, 2);
    let item = Point(0xABCD_EF01_2345_6789);
    let (m, k, key) = (5u8, 3u8, 11u64);
    let holders = clique(&net, item, m);
    // fail m−k holders, but never the coordinating primary
    let mut faulty = ChaosNet::new(Inline, 0);
    faulty.fail(holders[2]);
    faulty.fail(holders[4]);
    let cover = holders[0];
    let mut eng = engine(RetryPolicy::fixed(64, 4));
    let put = eng.submit(
        107,
        RouteKind::Fast,
        cover,
        item,
        Action::PutShares { key, len: 24, m, k, item },
    );
    run(&mut eng, &net, &mut faulty);
    let out = eng.take_outcome(put);
    assert!(out.ok, "k live covers are a write quorum");
    let mut stored = out.shares.clone();
    stored.sort_unstable();
    assert_eq!(stored, vec![0, 1, 3], "dead covers cannot store");
    // now read back through the same fault pattern
    let mut table = std::collections::HashMap::new();
    for &i in &out.shares {
        table.insert((holders[i as usize].0, key), (i, 24u32));
    }
    let mut faulty = ChaosNet::new(Inline, 0);
    faulty.fail(holders[2]);
    faulty.fail(holders[4]);
    let mut eng = engine(RetryPolicy::fixed(64, 4));
    let get = eng.submit(109, RouteKind::Fast, cover, item, Action::GetShares { key, m, k, item });
    eng.run(&net, &mut faulty, None, &Obs::off(), &TableShares(table));
    let out = eng.take_outcome(get);
    assert!(out.ok, "k live shares are a read quorum");
    let mut gathered = out.shares.clone();
    gathered.sort_unstable();
    assert_eq!(gathered, vec![0, 1, 3]);
}

#[test]
fn stale_suspicion_does_not_lock_a_healthy_clique_out() {
    // a healed partition leaves a majority of the clique suspected
    // though every cover is alive: the read must still be served
    let net = Complete::new(16, 2);
    let item = Point(12345 << 32);
    let (m, k, key) = (5u8, 3u8, 9u64);
    let holders = clique(&net, item, m);
    let view = shares_on(&holders, key, &[]);
    let mut health = NetHealth::new();
    for &h in &holders[1..4] {
        health.raise(h);
    }
    let mut eng = engine(RetryPolicy::patient().hedged());
    let get = Action::GetShares { key, m, k, item };
    let op = eng.submit(151, RouteKind::Fast, holders[0], item, get);
    eng.run(&net, &mut Inline, Some(&mut health), &Obs::off(), &view);
    let out = eng.take_outcome(op);
    assert!(out.ok, "k live covers answer, suspected or not");
    assert_eq!(out.shares.len(), k as usize);
    assert_eq!(out.attempts, 1);
}

#[test]
fn missing_item_read_completes_once_every_cover_answered() {
    let net = Complete::new(16, 2);
    let item = Point(42);
    let mut eng = Engine::default();
    let mut tags = ScatterTags::default();
    let op = eng.submit(
        113,
        RouteKind::Fast,
        NodeId(3),
        item,
        Action::GetShares { key: 99, m: 4, k: 2, item },
    );
    let stats = run(&mut eng, &net, &mut tags);
    let out = eng.take_outcome(op);
    assert!(out.ok, "a complete round of not-founds is an answer, not a timeout");
    assert!(out.shares.is_empty());
    assert_eq!(out.attempts, 1);
    // two waves reach all m covers: own + k − 1, then the shortfall
    // of k at once — not one round trip per cover
    assert_eq!((stats.hedged, stats.retries), (0, 0));
    assert_eq!(tags.0, "FRFFRR");
}

#[test]
fn replicated_ops_survive_drops_via_retry() {
    let net = Complete::new(16, 2);
    let item = Point(u64::MAX / 5);
    let mut eng = engine(RetryPolicy::fixed(200, 12));
    let op = eng.submit(
        127,
        RouteKind::Fast,
        NodeId(0),
        item,
        Action::PutShares { key: 5, len: 16, m: 4, k: 2, item },
    );
    run(&mut eng, &net, &mut Sim::new(7).with_drop(0.2));
    let out = eng.take_outcome(op);
    assert!(out.ok, "retry must absorb 20% loss");
    assert!(out.shares.len() >= 2, "at least the quorum was placed");
}

#[test]
fn corrupted_shares_and_replies_never_count() {
    // every node lies: StoreShares arrive corrupted, so no share is
    // ever placed and the put must exhaust its retries
    let net = Complete::new(16, 2);
    let item = Point(u64::MAX / 7);
    let mut liars = ChaosNet::new(Inline, 0);
    for i in 0..16 {
        liars.lie(NodeId(i));
    }
    let cover = net.cover(item);
    let from = NodeId((cover.0 + 5) % 16);
    let mut eng = engine(RetryPolicy::fixed(64, 3));
    let op = eng.submit(
        131,
        RouteKind::Fast,
        from,
        item,
        Action::PutShares { key: 3, len: 8, m: 4, k: 3, item },
    );
    run(&mut eng, &net, &mut liars);
    let out = eng.take_outcome(op);
    assert!(!out.ok, "a quorum of corrupted shares must not commit");
    // only the coordinator's own (local, message-free) share stands
    assert_eq!(out.shares, vec![0]);
}

#[test]
fn staggered_arrivals_respect_the_clock() {
    let net = Complete::new(16, 2);
    let obs = Obs::recording(1 << 12);
    let mut eng = Engine::default();
    let a = eng.submit_at(0, 37, RouteKind::Fast, NodeId(0), Point(u64::MAX / 3), Action::Locate);
    let b = eng.submit_at(500, 37, RouteKind::Fast, NodeId(1), Point(u64::MAX / 5), Action::Locate);
    eng.run(&net, &mut Sim::new(31), None, &obs, &NoShares);
    let (oa, ob) = (eng.take_outcome(a), eng.take_outcome(b));
    assert!(oa.ok && ob.ok);
    if ob.msgs > 0 {
        // b sends nothing before it arrives, and its completion is
        // counted from its arrival: the last delivery completes it
        let events = obs.explain(BACKGROUND).expect("recording").events;
        let at = |send: bool| {
            let kinds = events.iter().filter(move |e| {
                matches!(e.kind, ObsEvent::Send { .. }) == send
                    && matches!(e.kind, ObsEvent::Send { .. } | ObsEvent::Deliver { .. })
            });
            kinds.map(|e| e.at)
        };
        assert_eq!(at(true).filter(|&t| t >= 500).count() as u64, ob.msgs);
        assert_eq!(at(false).max(), Some(500 + ob.completed_at.expect("done")));
    }
    assert!(oa.completed_at.expect("done") <= 500, "op a runs before b starts");
}

#[test]
fn hedged_without_a_detector_is_the_fixed_policy() {
    let net = Complete::new(32, 2);
    let run = |retry: RetryPolicy| {
        let sim = Sim::new(3).with_drop(0.3).with_dup(0.1).with_latency(1, 20, 10);
        let mut rec = Recorder::new(sim);
        let mut eng = engine(retry);
        let ops = submit_mixed(&mut eng, 11, 300);
        let stats = run(&mut eng, &net, &mut rec);
        let outs: Vec<(bool, u64, u64, u32, Option<u64>, Path)> = ops
            .iter()
            .map(|&id| {
                let o = eng.take_outcome(id);
                (o.ok, o.msgs, o.bytes, o.attempts, o.completed_at, o.path)
            })
            .collect();
        (outs, stats, rec.fingerprint())
    };
    let fixed = RetryPolicy::fixed(256, 6);
    let (f_out, f_stats, f_fp) = run(fixed);
    let (h_out, h_stats, h_fp) = run(fixed.hedged());
    assert!(f_stats.retries > 0, "the loss must exercise the timers");
    assert_eq!(f_out, h_out);
    assert_eq!(f_stats, h_stats);
    assert_eq!(f_fp, h_fp, "hedging consults a detector; without one it is inert");
}

#[test]
fn every_fired_timer_was_armed() {
    // a hedged route's in-place resend arms a timer like any other
    // send, so an op's explain chain never shows a fire it did not arm
    let net = Complete::new(16, 2);
    let obs = Obs::recording(1 << 16);
    let mut health = NetHealth::new();
    let mut eng = engine(RetryPolicy::fixed(512, 8).hedged());
    for i in 0..300u32 {
        obs.begin_op(u64::from(i));
        let target = Point(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(i) + 1));
        eng.submit(61, RouteKind::DistanceHalving, NodeId(i % 16), target, Action::Locate);
        let mut sim = Sim::new(u64::from(i)).with_drop(0.5);
        eng.run(&net, &mut sim, Some(&mut health), &obs, &NoShares);
    }
    let mut resent = 0;
    for i in 0..300 {
        let ex = obs.explain(i).expect("recording");
        let count = |arm: bool| {
            let kinds = ex.events.iter().map(|e| &e.kind);
            kinds
                .filter(|k| match k {
                    ObsEvent::TimerArm { .. } => arm,
                    ObsEvent::TimerFire { .. } => !arm,
                    _ => false,
                })
                .count()
        };
        let (armed, fired) = (count(true), count(false));
        assert!(fired <= armed, "op {i}: {fired} timer fires, {armed} arms");
        // a fire beyond one per attempt resent in place
        resent += usize::from(fired > ex.retries() + 1);
    }
    assert!(resent > 0, "the loss must exercise in-place resends");
}

#[test]
fn the_op_slab_holds_one_run() {
    // one long-lived engine over one lent lossy transport, 1 000
    // submit → run → take cycles of Locate and GetShares ops: each
    // run's ops are the slab, and each op fares exactly as it would
    // on a fresh engine at tick 0 over the transport as it stood
    let net = Complete::new(16, 2);
    let item = Point(12345 << 32);
    let (m, k, key) = (5u8, 3u8, 9u64);
    let view = shares_on(&clique(&net, item, m), key, &[2]);
    let retry = RetryPolicy::fixed(200, 6);
    let mut sim = Sim::new(43).with_drop(0.1).with_dup(0.1);
    let mut eng = engine(retry);
    for i in 0..1_000u32 {
        let ops: Vec<(RouteKind, NodeId, Point, Action)> = (0..i % 3 + 1)
            .map(|j| {
                let from = NodeId((i + j) % 16);
                match (i + j) % 3 {
                    0 => (RouteKind::Fast, from, item, Action::GetShares { key, m, k, item }),
                    1 => (RouteKind::DistanceHalving, from, Point(u64::from(i) << 40), Action::Locate),
                    _ => (RouteKind::Fast, from, Point(u64::from(j) << 50), Action::Locate),
                }
            })
            .collect();
        let seed = u64::from(i);
        let mut fresh = engine(retry);
        let mut fresh_sim = sim.clone();
        for &(kind, from, target, action) in &ops {
            eng.submit(seed, kind, from, target, action);
            fresh.submit(seed, kind, from, target, action);
        }
        let stats = eng.run(&net, &mut sim, None, &Obs::off(), &view);
        let fresh_stats = fresh.run(&net, &mut fresh_sim, None, &Obs::off(), &view);
        assert_eq!(eng.ops.len(), ops.len(), "cycle {i}: the slab holds this run's ops only");
        assert_eq!(stats, fresh_stats, "cycle {i}");
        for id in 0..ops.len() as OpId {
            assert_eq!(eng.take_outcome(id), fresh.take_outcome(id), "cycle {i}, op {id}");
        }
    }
    assert!(eng.now() > 0, "the long-lived clock moved on");
}
