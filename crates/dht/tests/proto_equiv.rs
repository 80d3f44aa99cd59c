//! The protocol-API acceptance property: under the `Inline` transport
//! the event engine's route is **bit-identical** to the synchronous
//! `CdNetwork::lookup` — same servers, same message positions, same
//! phase boundary — for both algorithms, on random Distance Halving
//! and de Bruijn networks, before and after churn. Both step the one
//! `RouteWalk`, so this is a regression net over its two drivers. Under
//! `Sim`, the same seed reproduces the identical event trace and
//! message counts; and the hedged planner steers a route around a
//! suspect.

use cd_core::graph::{ContinuousGraph, DeBruijn};
use cd_core::pointset::PointSet;
use cd_core::rng::{seeded, sub_rng};
use cd_core::Point;
use dh_dht::{CdNetwork, DhNetwork, LookupKind, NodeId};
use dh_proto::engine::{Engine, NoShares, RetryPolicy};
use dh_proto::transport::{Inline, Recorder, Sim};
use dh_proto::wire::Action;
use dh_proto::NetHealth;
use proptest::prelude::*;
use rand::Rng;

/// Route `(from, target)` through the engine over `Inline` under
/// `retry`, lending the run `health`, and return the lookup-layer view
/// of its path.
fn engine_route_with<G: ContinuousGraph>(
    net: &CdNetwork<G>,
    kind: LookupKind,
    (from, target): (NodeId, Point),
    seed: u64,
    retry: RetryPolicy,
    health: Option<&mut NetHealth>,
) -> dh_dht::Route {
    let mut eng = Engine::default();
    eng.retry = retry;
    let op = eng.submit(seed, kind, from, target, Action::Locate);
    eng.run(net, &mut Inline, health, &Default::default(), &NoShares);
    let out = eng.take_outcome(op);
    assert!(out.ok, "Inline routing cannot fail");
    assert_eq!(
        out.msgs as usize,
        out.path.hops(),
        "under Inline every hop is exactly one message"
    );
    out.path
}

/// [`engine_route_with`] under the default policy, no detector.
fn engine_route<G: ContinuousGraph>(
    net: &CdNetwork<G>,
    kind: LookupKind,
    from: NodeId,
    target: Point,
    seed: u64,
) -> dh_dht::Route {
    engine_route_with(net, kind, (from, target), seed, RetryPolicy::default(), None)
}

fn assert_bit_identical<G: ContinuousGraph>(
    net: &CdNetwork<G>,
    from: NodeId,
    target: Point,
    seed: u64,
) {
    // The engine draws a DH digit string from sub_rng(seed, op-id)
    // with op-id 0; feed the synchronous algorithm the identical
    // stream. Fast Lookup is deterministic and draws nothing from it.
    let mut rng = sub_rng(seed, 0);
    let direct = net.lookup(LookupKind::Fast, from, target, &mut rng);
    let engine = engine_route(net, LookupKind::Fast, from, target, seed);
    assert_eq!(direct.nodes, engine.nodes, "fast route servers diverge");
    assert_eq!(direct.points, engine.points, "fast route positions diverge");

    let direct = net.lookup(LookupKind::DistanceHalving, from, target, &mut rng);
    let engine = engine_route(net, LookupKind::DistanceHalving, from, target, seed);
    assert_eq!(direct.nodes, engine.nodes, "dh route servers diverge");
    assert_eq!(direct.points, engine.points, "dh route positions diverge");
    assert_eq!(direct.phase2_start, engine.phase2_start, "phase boundary diverges");
}

#[test]
fn engine_routes_are_bit_identical_smooth() {
    let net = DhNetwork::new(&PointSet::evenly_spaced(256));
    let mut rng = seeded(0x1D);
    for i in 0..300u64 {
        let from = net.random_node(&mut rng);
        let target = Point(rng.gen());
        assert_bit_identical(&net, from, target, i);
    }
}

#[test]
fn engine_routes_are_bit_identical_after_churn() {
    let mut rng = seeded(0x2D);
    let mut net = DhNetwork::new(&PointSet::random(100, &mut rng));
    for i in 0..150u64 {
        if net.len() > 8 && rng.gen_bool(0.45) {
            let v = net.random_node(&mut rng);
            net.leave(v);
        } else {
            net.join(Point(rng.gen()));
        }
        let from = net.random_node(&mut rng);
        let target = Point(rng.gen());
        assert_bit_identical(&net, from, target, i);
    }
}

proptest! {
    #[test]
    fn prop_engine_matches_synchronous_lookup(
        n in 2usize..400,
        net_seed: u64,
        query_seed: u64,
        // Distance Halving at ∆ = 2 and 4, and de Bruijn-8 (wal_write's
        // Fast Lookup instance)
        instance in 0u8..3,
    ) {
        fn queries<G: ContinuousGraph>(net: &CdNetwork<G>, query_seed: u64) {
            let mut qrng = seeded(query_seed);
            for i in 0..8u64 {
                let from = net.random_node(&mut qrng);
                let target = Point(qrng.gen());
                assert_bit_identical(net, from, target, query_seed ^ i);
            }
        }
        let points = PointSet::random(n, &mut seeded(net_seed));
        match instance {
            0 => queries(&DhNetwork::with_delta(&points, 2), query_seed),
            1 => queries(&DhNetwork::with_delta(&points, 4), query_seed),
            _ => queries(&CdNetwork::build(DeBruijn::new(8), &points), query_seed),
        }
    }

    #[test]
    fn prop_sim_transport_is_deterministic(net_seed: u64, sim_seed: u64, drop_pm in 0u32..80) {
        let mut rng = seeded(net_seed);
        let net = DhNetwork::new(&PointSet::random(128, &mut rng));
        let drop_p = f64::from(drop_pm) / 1000.0;
        let run = || {
            let mut rec = Recorder::new(Sim::new(sim_seed).with_drop(drop_p).with_dup(drop_p));
            let mut eng = Engine::default();
            eng.retry = RetryPolicy::fixed(1_000, 8);
            let mut qrng = seeded(sim_seed);
            let ops: Vec<_> = (0..24)
                .map(|i| {
                    let kind = if i % 2 == 0 { LookupKind::Fast } else { LookupKind::DistanceHalving };
                    let from = net.random_node(&mut qrng);
                    let target = Point(qrng.gen());
                    eng.submit_at(i * 7, net_seed ^ 0xE, kind, from, target, Action::Locate)
                })
                .collect();
            let stats = eng.run(&net, &mut rec, None, &Default::default(), &NoShares);
            let outcomes: Vec<_> = ops
                .iter()
                .map(|&op| {
                    let o = eng.take_outcome(op);
                    (o.ok, o.dest, o.msgs, o.bytes, o.attempts, o.completed_at, o.path.nodes)
                })
                .collect();
            (outcomes, stats, rec.fingerprint())
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.1, b.1, "message counts must be identical");
        prop_assert_eq!(a.2, b.2, "event traces must be identical");
        prop_assert_eq!(a.0, b.0, "outcomes must be identical");
    }
}

/// The hedged planner steers the route the op runs: a DH op lent a
/// detector in which one interior server of its unhedged route is
/// suspect takes a route around that server. An op that ignores the
/// plan draws the unhedged route's digits, so it avoids none.
#[test]
fn hedged_plan_steers_around_a_suspect() {
    const PAIRS: u64 = 64;
    let net = DhNetwork::new(&PointSet::random(256, &mut seeded(0x5E)));
    let mut qrng = seeded(0x5F);
    let (mut pairs, mut avoided) = (0, 0);
    let dh = LookupKind::DistanceHalving;
    for seed in 0..PAIRS {
        let ends = (net.random_node(&mut qrng), Point(qrng.gen()));
        let fixed = RetryPolicy::default();
        let route = engine_route_with(&net, dh, ends, seed, fixed, None).nodes;
        let suspect = route[route.len() / 2];
        if suspect == ends.0 || suspect == *route.last().expect("route") {
            continue; // no interior server to suspect
        }
        let mut health = NetHealth::new();
        health.raise(suspect);
        assert!(health.is_suspect(suspect));
        let hedged = engine_route_with(&net, dh, ends, seed, fixed.hedged(), Some(&mut health));
        pairs += 1;
        avoided += u32::from(!hedged.nodes.contains(&suspect));
    }
    assert!(pairs >= PAIRS as u32 * 3 / 4, "only {pairs} routes had an interior server");
    assert!(
        avoided * 10 >= pairs * 9,
        "the hedged route avoided the suspect in {avoided} of {pairs} pairs"
    );
}
