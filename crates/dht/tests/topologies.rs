//! Cross-topology acceptance properties of the continuous-discrete
//! recipe: every instance — Distance Halving, base-∆ de Bruijn, and
//! the Chord-like graph of §4 — must (1) route every lookup to the
//! covering server along real table edges within its advertised hop
//! bound, (2) preserve the table/watcher invariants under churn storms,
//! (3) execute bit-identically through the `Engine<Inline>` wire path
//! (mirroring `proto_equiv.rs`, here for the greedy machine), and
//! (4) run Join/Leave as wire traffic. Storage over every instance and
//! transport is `dh_replica`'s `tests/topologies.rs`.

use cd_core::graph::{ChordLike, ContinuousGraph, DeBruijn, DistanceHalving};
use cd_core::pointset::PointSet;
use cd_core::rng::seeded;
use cd_core::Point;
use dh_dht::proto::route_kind;
use dh_dht::{CdNetwork, LookupKind, NodeId, Route};
use dh_proto::engine::{Engine, RetryPolicy};
use dh_proto::transport::Inline;
use dh_proto::wire::Action;
use rand::Rng;

/// Every transition of `route` must follow a real table edge and end
/// at the server covering `target`.
fn check_route<G: ContinuousGraph>(net: &CdNetwork<G>, route: &Route, target: Point) {
    assert!(net.node(route.destination()).covers(target), "route must end at the cover");
    for w in route.nodes.windows(2) {
        let (a, b) = (w[0], w[1]);
        assert!(
            net.node(a).neighbors.iter().any(|nb| nb.id == b),
            "route hop {a}→{b} is not a table edge ({})",
            net.graph().label()
        );
    }
}

/// Exercise one instance end to end: native lookups with hop bounds,
/// then a churn storm with invariant validation, then lookups again.
fn exercise<G: ContinuousGraph>(graph: G, n: usize, seed: u64) {
    let mut rng = seeded(seed);
    let mut net = CdNetwork::build(graph, &PointSet::random(n, &mut rng));
    net.validate();

    let check_lookups = |net: &CdNetwork<G>, rng: &mut rand::rngs::StdRng, m: usize| {
        let rho = net.smoothness();
        let bound = net.graph().hop_bound(net.len(), rho);
        for _ in 0..m {
            let from = net.random_node(rng);
            let target = Point(rng.gen());
            let route = net.native_lookup(from, target, rng);
            check_route(net, &route, target);
            assert!(
                (route.hops() as f64) <= bound,
                "{}: {} hops > advertised bound {bound:.1} (n = {}, ρ = {rho:.1})",
                net.graph().label(),
                route.hops(),
                net.len()
            );
        }
    };
    check_lookups(&net, &mut rng, 150);

    // churn storm: joins and leaves interleaved with routed traffic
    for step in 0..250 {
        if net.len() > 8 && rng.gen_bool(0.45) {
            let v = net.random_node(&mut rng);
            net.leave(v);
        } else {
            net.join(Point(rng.gen()));
        }
        if step % 50 == 49 {
            net.validate(); // tables match derivation, watchers symmetric
        }
    }
    net.validate();
    check_lookups(&net, &mut rng, 100);
}

#[test]
fn distance_halving_instance_end_to_end() {
    exercise(DistanceHalving::binary(), 256, 0xA0);
}

#[test]
fn debruijn_instances_end_to_end() {
    exercise(DeBruijn::new(4), 256, 0xA1);
    exercise(DeBruijn::new(16), 256, 0xA2);
}

#[test]
fn chord_instance_end_to_end() {
    exercise(ChordLike, 256, 0xA3);
}

#[test]
fn chord_tables_are_logarithmic() {
    // the instance's degree profile: O(ρ log n) fingers per server
    let net = CdNetwork::build(ChordLike, &PointSet::evenly_spaced(1024));
    let (max, mean) = net.degree_stats();
    let logn = 10.0;
    assert!(mean >= logn - 2.0, "mean degree {mean:.1} too small for a finger table");
    assert!(max as f64 <= 4.0 * logn, "max degree {max} ≫ log n on a smooth set");
}

#[test]
fn bulk_build_matches_incremental_joins_for_new_instances() {
    // The one-sweep constructor and the churn machinery must agree on
    // every instance, not just the flagship (the DH version of this
    // test lives in `network.rs`).
    fn check<G: ContinuousGraph>(graph: G, seed: u64) {
        let mut rng = seeded(seed);
        let ps = PointSet::random(80, &mut rng);
        let bulk = CdNetwork::build(graph.clone(), &ps);
        let seed_points = PointSet::new(vec![ps.point(0), ps.point(1)]);
        let mut grown = CdNetwork::build(graph, &seed_points);
        for i in 2..ps.len() {
            grown.join(ps.point(i)).expect("distinct points");
        }
        grown.validate();
        for &id in bulk.live() {
            let b = bulk.node(id);
            let g = grown.node(grown.cover_of(b.x));
            assert_eq!(b.segment, g.segment);
            let b_pts: Vec<u64> = b.neighbors.iter().map(|nb| nb.segment.start().bits()).collect();
            let g_pts: Vec<u64> = g.neighbors.iter().map(|nb| nb.segment.start().bits()).collect();
            assert_eq!(b_pts, g_pts, "tables differ at x={:?}", b.x);
        }
    }
    check(ChordLike, 0xB0);
    check(DeBruijn::new(8), 0xB1);
}

/// After every op of a 2 000-op join/leave storm, each live server's
/// derived watchers equal a brute-force reverse scan of every live
/// table — on the graphs the tables are symmetric for and on the
/// directed Chord-like one.
fn watchers_match_a_reverse_scan<G: ContinuousGraph>(graph: G, seed: u64) {
    let mut rng = seeded(seed);
    let mut net = CdNetwork::build(graph, &PointSet::random(512, &mut rng));
    let mut listed: Vec<Vec<NodeId>> = Vec::new();
    for step in 0..2000 {
        if rng.gen_bool(0.5) {
            let v = net.random_node(&mut rng);
            net.leave(v);
        } else {
            net.join(Point(rng.gen()));
        }
        listed.iter_mut().for_each(Vec::clear);
        listed.resize(net.slab_len(), Vec::new());
        for &u in net.live() {
            for nb in &net.node(u).neighbors {
                listed[nb.id.0 as usize].push(u);
            }
        }
        for &v in net.live() {
            let scan = &mut listed[v.0 as usize];
            scan.sort_unstable();
            assert_eq!(net.watchers(v), *scan, "{} step {step}: watchers of {v}", net.graph().label());
        }
    }
}

#[test]
fn derived_watchers_equal_a_reverse_scan_dh() {
    watchers_match_a_reverse_scan(DistanceHalving::binary(), 0xD0);
}

#[test]
fn derived_watchers_equal_a_reverse_scan_dh8() {
    watchers_match_a_reverse_scan(DistanceHalving::with_delta(8), 0xD1);
}

#[test]
fn derived_watchers_equal_a_reverse_scan_debruijn8() {
    watchers_match_a_reverse_scan(DeBruijn::new(8), 0xD2);
}

#[test]
fn derived_watchers_equal_a_reverse_scan_chord() {
    watchers_match_a_reverse_scan(ChordLike, 0xD3);
}

#[test]
fn chord_engine_inline_routes_are_bit_identical() {
    // Mirror of `proto_equiv.rs` for the greedy machine: the engine
    // over Inline must reproduce the synchronous greedy lookup exactly
    // — same servers, same message positions — on random networks,
    // before and after churn.
    let mut rng = seeded(0xC0);
    let mut net = CdNetwork::build(ChordLike, &PointSet::random(128, &mut rng));
    let check_equiv = |net: &CdNetwork<ChordLike>, rng: &mut rand::rngs::StdRng| {
        for i in 0..80u64 {
            let from = net.random_node(rng);
            let target = Point(rng.gen());
            let direct = net.greedy_lookup(from, target);
            let mut eng = Engine::new(net, Inline, i);
            let op = eng.submit(route_kind(LookupKind::Greedy), from, target, Action::Locate);
            eng.run();
            let out = eng.take_outcome(op);
            assert!(out.ok, "Inline routing cannot fail");
            assert_eq!(out.msgs as usize, out.path.hops(), "one hop = one message under Inline");
            let engine = out.path;
            assert_eq!(direct.nodes, engine.nodes, "greedy route servers diverge");
            assert_eq!(direct.points, engine.points, "greedy route positions diverge");
        }
    };
    check_equiv(&net, &mut rng);
    for _ in 0..60 {
        if net.len() > 8 && rng.gen_bool(0.5) {
            let v = net.random_node(&mut rng);
            net.leave(v);
        } else {
            net.join(Point(rng.gen()));
        }
    }
    check_equiv(&net, &mut rng);
}

#[test]
fn wire_churn_works_on_new_instances() {
    // join_over/leave_over (churn as wire traffic) are generic too:
    // drive them over Inline on the Chord-like instance.
    let mut rng = seeded(0xE0);
    let mut net = CdNetwork::build(ChordLike, &PointSet::random(64, &mut rng));
    let mut transport = Inline;
    for i in 0..80u64 {
        if net.len() > 8 && rng.gen_bool(0.4) {
            let v = net.random_node(&mut rng);
            let cost = dh_dht::leave_over(&mut net, v, &mut transport, i);
            assert!(cost.notify_msgs >= 1);
        } else {
            let host = net.random_node(&mut rng);
            let x = Point(rng.gen());
            if let Some((id, cost)) = dh_dht::join_over(
                &mut net,
                host,
                x,
                LookupKind::Greedy,
                i,
                &mut transport,
                RetryPolicy::default(),
            ) {
                assert!(net.node(id).covers(x));
                assert!(cost.lookup_msgs <= 40, "greedy join lookup too long");
            }
        }
    }
    net.validate();
}

#[test]
fn native_kinds_and_gates() {
    let mut rng = seeded(0xF0);
    let dh = CdNetwork::build(DistanceHalving::binary(), &PointSet::random(16, &mut rng));
    assert_eq!(dh.native_kind(), LookupKind::DistanceHalving);
    let chord = CdNetwork::build(ChordLike, &PointSet::random(16, &mut rng));
    assert_eq!(chord.native_kind(), LookupKind::Greedy);
    // the digit lookups are gated off for non-digit instances
    let from = chord.random_node(&mut rng);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        chord.fast_lookup(from, Point(rng.gen()))
    }));
    assert!(result.is_err(), "fast lookup must refuse a non-digit instance");
    // and greedy is gated off for digit instances
    let from = dh.random_node(&mut rng);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        dh.greedy_lookup(from, Point(rng.gen()))
    }));
    assert!(result.is_err(), "greedy lookup must refuse a digit instance");
}
