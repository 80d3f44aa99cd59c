//! The protocol-API acceptance property: under the `Inline` transport
//! the event engine executes the paper's lookups **bit-identically**
//! to the synchronous `DhNetwork` implementations — same servers, same
//! message positions, same phase boundary — for both algorithms, on
//! random networks, before and after churn. And under `Sim`, the same
//! seed reproduces the identical event trace and message counts.

use cd_core::pointset::PointSet;
use cd_core::rng::{seeded, sub_rng};
use cd_core::Point;
use dh_dht::proto::route_kind;
use dh_dht::{DhNetwork, LookupKind, NodeId};
use dh_proto::engine::{Engine, RetryPolicy};
use dh_proto::transport::{Inline, Recorder, Sim};
use dh_proto::wire::Action;
use proptest::prelude::*;
use rand::Rng;

/// Route `(from, target)` through the engine over `Inline` and return
/// the lookup-layer view of its path.
fn engine_route(
    net: &DhNetwork,
    kind: LookupKind,
    from: NodeId,
    target: Point,
    seed: u64,
) -> dh_dht::Route {
    let mut eng = Engine::new(net, Inline, seed);
    let op = eng.submit(route_kind(kind), from, target, Action::Locate);
    eng.run();
    let out = eng.take_outcome(op);
    assert!(out.ok, "Inline routing cannot fail");
    assert_eq!(
        out.msgs as usize,
        out.path.hops(),
        "under Inline every hop is exactly one message"
    );
    out.path
}

fn assert_bit_identical(net: &DhNetwork, from: NodeId, target: Point, seed: u64) {
    // Fast Lookup: deterministic, no randomness to align.
    let direct = net.fast_lookup(from, target);
    let engine = engine_route(net, LookupKind::Fast, from, target, seed);
    assert_eq!(direct.nodes, engine.nodes, "fast route servers diverge");
    assert_eq!(direct.points, engine.points, "fast route positions diverge");

    // DH Lookup: the engine draws the digit string from
    // sub_rng(seed, op-id) with op-id 0; feed the synchronous
    // algorithm the identical stream.
    let mut rng = sub_rng(seed, 0);
    let direct = net.dh_lookup(from, target, &mut rng);
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
        delta_4: bool,
    ) {
        let delta = if delta_4 { 4 } else { 2 };
        let mut rng = seeded(net_seed);
        let net = DhNetwork::with_delta(&PointSet::random(n, &mut rng), delta);
        let mut qrng = seeded(query_seed);
        for i in 0..8u64 {
            let from = net.random_node(&mut qrng);
            let target = Point(qrng.gen());
            assert_bit_identical(&net, from, target, query_seed ^ i);
        }
    }

    #[test]
    fn prop_sim_transport_is_deterministic(net_seed: u64, sim_seed: u64, drop_pm in 0u32..80) {
        let mut rng = seeded(net_seed);
        let net = DhNetwork::new(&PointSet::random(128, &mut rng));
        let drop_p = f64::from(drop_pm) / 1000.0;
        let run = || {
            let mut eng = Engine::new(
                &net,
                Recorder::new(Sim::new(sim_seed).with_drop(drop_p).with_dup(drop_p)),
                net_seed ^ 0xE,
            )
            .with_retry(RetryPolicy::fixed(1_000, 8));
            let mut qrng = seeded(sim_seed);
            let ops: Vec<_> = (0..24)
                .map(|i| {
                    let kind = if i % 2 == 0 { LookupKind::Fast } else { LookupKind::DistanceHalving };
                    let from = net.random_node(&mut qrng);
                    eng.submit_at(i * 7, route_kind(kind), from, Point(qrng.gen()), Action::Locate)
                })
                .collect();
            eng.run();
            let outcomes: Vec<_> = ops
                .iter()
                .map(|&op| {
                    let o = eng.take_outcome(op);
                    (o.ok, o.dest, o.msgs, o.bytes, o.attempts, o.completed_at, o.path.nodes)
                })
                .collect();
            let stats = eng.stats;
            (outcomes, stats, eng.into_transport().fingerprint())
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.1, b.1, "message counts must be identical");
        prop_assert_eq!(a.2, b.2, "event traces must be identical");
        prop_assert_eq!(a.0, b.0, "outcomes must be identical");
    }
}
