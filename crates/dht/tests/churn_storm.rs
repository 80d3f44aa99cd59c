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

/// Churn `net` and, after every join and leave, compare `local_cover`
/// with [`scan_cover`] at random servers: once at a uniform point
/// (mostly outside the table) and once inside a random entry's
/// segment; `validate()` (which also checks the arena's slices, holes
/// and compaction bound) runs every 250 events.
fn layout_storm<G: ContinuousGraph>(mut net: CdNetwork<G>, ops: usize, seed: u64) {
    let mut rng = seeded(seed);
    for step in 0..ops {
        if net.len() > 8 && rng.gen_bool(0.45) {
            let v = net.random_node(&mut rng);
            net.leave(v);
        } else {
            net.join(Point(rng.gen()));
        }
        for _ in 0..4 {
            let u = net.random_node(&mut rng);
            let table = net.derived_table(u);
            let v = table[rng.gen_range(0..table.len())];
            let seg = net.node(v).segment;
            let inside = seg
                .start()
                .wrapping_add((u128::from(rng.gen::<u64>()) % seg.len()) as u64);
            for p in [Point(rng.gen()), inside] {
                assert_eq!(
                    net.local_cover(u, p),
                    scan_cover(&net, u, p),
                    "step {step}: {u} at {p:?}"
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
