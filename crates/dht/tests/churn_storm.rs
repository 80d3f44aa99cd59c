//! Churn storms: the incremental table maintenance must be
//! observationally identical to fresh derivation after arbitrarily
//! interleaved joins and leaves. `DhNetwork::validate()` re-derives
//! every table from scratch and checks ring-pointer/registry
//! agreement, so passing it after a storm is exactly that guarantee.

use cd_core::graph::{ChordLike, ContinuousGraph, DistanceHalving};
use cd_core::pointset::PointSet;
use cd_core::rng::seeded;
use cd_core::Point;
use dh_dht::{CdNetwork, DhNetwork, NodeId};
use dh_proto::engine::Topology;
use proptest::prelude::*;
use rand::Rng;

/// Drive `ops` random join/leave operations (≈55/45 mix, floor of 8
/// servers) and return how many of each ran.
fn storm(net: &mut DhNetwork, ops: usize, rng: &mut impl Rng) -> (usize, usize) {
    let (mut joins, mut leaves) = (0usize, 0usize);
    for _ in 0..ops {
        if net.len() > 8 && rng.gen_bool(0.45) {
            let v = net.random_node(rng);
            net.leave(v);
            leaves += 1;
        } else if net.join(Point(rng.gen())).is_some() {
            joins += 1;
        }
    }
    (joins, leaves)
}

#[test]
fn storm_10k_ops_delta_2() {
    let mut rng = seeded(0xD2);
    let mut net = DhNetwork::new(&PointSet::random(256, &mut rng));
    let mut total = 0usize;
    while total < 10_000 {
        let (j, l) = storm(&mut net, 2_500, &mut rng);
        total += j + l;
        // full re-derivation check at every checkpoint, not only at
        // the end, so a corruption is caught near its cause
        net.validate();
    }
    assert!(net.len() > 8);
}

#[test]
fn storm_10k_ops_delta_4() {
    let mut rng = seeded(0xD4);
    let mut net = DhNetwork::with_delta(&PointSet::random(256, &mut rng), 4);
    let mut total = 0usize;
    while total < 10_000 {
        let (j, l) = storm(&mut net, 2_500, &mut rng);
        total += j + l;
        net.validate();
    }
    assert!(net.len() > 8);
}

#[test]
fn storm_slab_reuse_is_safe() {
    // Drive the population down hard so freed slab slots are recycled
    // aggressively, then validate: stale NodeIds in any surviving
    // table would be caught by the watcher/derivation checks.
    let mut rng = seeded(0x51AB);
    let mut net = DhNetwork::new(&PointSet::random(128, &mut rng));
    for round in 0..20 {
        // shrink to the floor
        while net.len() > 10 {
            let v = net.random_node(&mut rng);
            net.leave(v);
        }
        // grow back
        while net.len() < 100 {
            net.join(Point(rng.gen()));
        }
        if round % 5 == 4 {
            net.validate();
        }
    }
    net.validate();
}

/// The node covering `p` as a linear scan over a *fresh derivation*
/// of `u`'s table — what `local_cover(u, p)` must answer from the
/// maintained table slice.
fn scan_cover<G: ContinuousGraph>(net: &CdNetwork<G>, u: NodeId, p: Point) -> Option<NodeId> {
    if net.node(u).covers(p) {
        return Some(u);
    }
    net.derived_table(u)
        .into_iter()
        .find(|&v| net.node(v).covers(p))
}

/// Every live server's slot starts with its own header (the hop from
/// it to its own identifier point stays put), and every table entry
/// holds its neighbour's current slot.
fn check_slots<G: ContinuousGraph>(net: &CdNetwork<G>, step: usize) {
    for &u in net.live() {
        let (slot, node) = (net.slot_of(u), net.node(u));
        assert_eq!(
            net.slot_cover(slot, node.x),
            Some((u, slot)),
            "step {step}: header of {u}"
        );
        for nb in node.neighbors {
            assert_eq!(
                nb.slot,
                net.slot_of(nb.id),
                "step {step}: {u}'s entry for {}",
                nb.id
            );
        }
    }
}

/// Churn `net` and, after every join and leave, check every slot
/// ([`check_slots`]) and compare the hop — by slot and by id — with
/// [`scan_cover`] at random servers: once at a uniform point (mostly
/// outside the table) and once inside a random entry's segment;
/// `validate()` (which also checks the arena's slots, holes and
/// compaction bound) runs every 250 events.
fn layout_storm<G: ContinuousGraph>(mut net: CdNetwork<G>, ops: usize, seed: u64) {
    let mut rng = seeded(seed);
    for step in 0..ops {
        if net.len() > 8 && rng.gen_bool(0.45) {
            let v = net.random_node(&mut rng);
            net.leave(v);
        } else {
            net.join(Point(rng.gen()));
        }
        check_slots(&net, step);
        for _ in 0..4 {
            let u = net.random_node(&mut rng);
            let table = net.derived_table(u);
            let v = table[rng.gen_range(0..table.len())];
            let seg = net.node(v).segment;
            let inside = seg
                .start()
                .wrapping_add((u128::from(rng.gen::<u64>()) % seg.len()) as u64);
            for p in [Point(rng.gen()), inside] {
                let want = scan_cover(&net, u, p);
                assert_eq!(net.local_cover(u, p), want, "step {step}: {u} at {p:?}");
                let hop = net.slot_cover(net.slot_of(u), p);
                assert_eq!(
                    hop,
                    want.map(|v| (v, net.slot_of(v))),
                    "step {step}: slot hop of {u} at {p:?}"
                );
            }
        }
        if step % 250 == 249 {
            net.validate();
        }
    }
    net.validate();
}

#[test]
fn local_cover_equals_fresh_derivation_under_churn_delta_2() {
    let mut rng = seeded(0x1A2);
    layout_storm(
        DhNetwork::new(&PointSet::random(256, &mut rng)),
        2_000,
        0x1A2,
    );
}

#[test]
fn local_cover_equals_fresh_derivation_under_churn_delta_4() {
    let mut rng = seeded(0x1A4);
    let points = PointSet::random(256, &mut rng);
    layout_storm(
        CdNetwork::build(DistanceHalving::with_delta(4), &points),
        2_000,
        0x1A4,
    );
}

#[test]
fn local_cover_equals_fresh_derivation_under_churn_chord_like() {
    let mut rng = seeded(0x1AC);
    layout_storm(
        CdNetwork::build(ChordLike, &PointSet::random(256, &mut rng)),
        2_000,
        0x1AC,
    );
}

/// The clique test without its distance filter: walk up to `m − 1`
/// ring predecessors looking for the cover of `item`.
fn in_clique_by_walk<G: ContinuousGraph>(
    net: &CdNetwork<G>,
    node: NodeId,
    item: Point,
    m: u8,
) -> bool {
    let mut cur = node;
    for _ in 0..m {
        if net.node(cur).covers(item) {
            return true;
        }
        cur = net.ring_pred(cur);
    }
    false
}

/// Churn `net`, leave-heavy so that merged segments outgrow every
/// segment of the build and joins leave the bound stale, and compare
/// the filtered clique test with the plain
/// walk at random servers, items and clique sizes — items drawn both
/// uniformly and within `m` bounds behind the server, where the
/// filter's edge lies.
/// Returns how many cases the filter alone decided.
fn clique_storm<G: ContinuousGraph>(mut net: CdNetwork<G>, ops: usize, seed: u64) -> usize {
    let mut rng = seeded(seed);
    let mut filtered = 0;
    for step in 0..ops {
        if net.len() > 8 && rng.gen_bool(0.6) {
            let v = net.random_node(&mut rng);
            net.leave(v);
        } else {
            net.join(Point(rng.gen()));
        }
        for _ in 0..8 {
            let u = net.random_node(&mut rng);
            let m = rng.gen_range(1..=8u8);
            let x = net.node(u).x;
            let behind = u128::from(rng.gen::<u64>()) % (u128::from(m) * net.segment_bound());
            for item in [Point(rng.gen()), x.wrapping_sub(behind as u64)] {
                let want = in_clique_by_walk(&net, u, item, m);
                let got = Topology::in_clique(&net, u, net.slot_of(u), item, m);
                assert_eq!(got, want, "step {step}: {u}, item {item:?}, m = {m}");
                let reach = u128::from(m - 1) * net.segment_bound();
                filtered += usize::from(
                    !net.node(u).covers(item) && u128::from(x.offset_from(item)) > reach,
                );
            }
        }
    }
    net.validate(); // the bound still bounds every segment
    filtered
}

#[test]
fn filtered_in_clique_equals_the_walk_under_churn() {
    let mut rng = seeded(0xC11);
    let dh = clique_storm(
        DhNetwork::new(&PointSet::random(256, &mut rng)),
        1_000,
        0xC11,
    );
    let chord = clique_storm(
        CdNetwork::build(ChordLike, &PointSet::random(256, &mut rng)),
        1_000,
        0xC12,
    );
    assert!(
        dh > 0 && chord > 0,
        "the filter must decide some cases ({dh}, {chord})"
    );
}

proptest! {
    #[test]
    fn prop_storm_matches_fresh_derivation(seed: u64, delta_4: bool) {
        let delta = if delta_4 { 4 } else { 2 };
        let mut rng = seeded(seed);
        let mut net = DhNetwork::with_delta(&PointSet::random(64, &mut rng), delta);
        storm(&mut net, 1_000, &mut rng);
        net.validate(); // tables == fresh derivation, ring == registry
        prop_assert!(net.len() > 8);
    }
}
