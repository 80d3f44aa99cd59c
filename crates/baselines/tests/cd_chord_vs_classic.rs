//! The §4 claim, measured: the Chord-like instance of the
//! continuous-discrete recipe reproduces classic Chord's routing
//! profile. Both overlays are built over the same identifier draw and
//! answer the same greedy-clockwise workload; their mean path lengths
//! must sit in the same `Θ(log n)` band.

use cd_core::graph::ChordLike;
use cd_core::pointset::PointSet;
use cd_core::rng::seeded;
use cd_core::Point;
use dh_dht::{CdNetwork, LookupKind};
use p2p_baselines::chord::Chord;
use p2p_baselines::scheme::LookupScheme;
use rand::Rng;

#[test]
fn cd_chord_matches_classic_chord_routing_profile() {
    let n = 1024usize;
    let m = 400usize;
    let logn = (n as f64).log2();
    let mut rng = seeded(0x04C0);

    // classic Chord over random u64 identifiers
    let classic = Chord::new(n, &mut rng);
    let mut classic_hops = 0usize;
    for i in 0..m {
        let from = i % n;
        let key: u64 = rng.gen();
        let path = classic.route(from, key, &mut rng);
        assert_eq!(*path.last().expect("nonempty"), classic.owner_of(key));
        classic_hops += path.len() - 1;
    }
    let classic_mean = classic_hops as f64 / m as f64;

    // the continuous-discrete instance over its own random draw
    let net = CdNetwork::build(ChordLike, &PointSet::random(n, &mut rng));
    let mut cd_hops = 0usize;
    for _ in 0..m {
        let from = net.random_node(&mut rng);
        let target = Point(rng.gen());
        let route = net.lookup(LookupKind::Greedy, from, target, &mut rng);
        assert!(net.node(route.destination()).covers(target));
        cd_hops += route.hops();
    }
    let cd_mean = cd_hops as f64 / m as f64;

    // both sit in the Θ(log n) band (greedy expectation ≈ log₂(n)/2)
    for (name, mean) in [("classic", classic_mean), ("cd", cd_mean)] {
        assert!(
            mean >= 0.25 * logn && mean <= 1.5 * logn,
            "{name} chord mean hops {mean:.2} outside the Θ(log n) band (log₂ n = {logn:.1})"
        );
    }
    let ratio = cd_mean / classic_mean;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "profiles diverge: cd {cd_mean:.2} vs classic {classic_mean:.2} hops"
    );
}
