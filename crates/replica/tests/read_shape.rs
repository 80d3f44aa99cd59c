//! The read shape the systematic code is fast on: a fault-free read of
//! a freshly placed item gathers the **data shares** `0..k`, which
//! `dh_erasure::try_decode` copies instead of multiplying.
//!
//! A put writes share `i` to clique member `i`, and a read's contact
//! order is the coordinator's own slot, then ring order from the
//! primary. So a read gathers exactly `{0, …, k − 1}` whenever its route
//! enters the clique at one of the first `k` members — always when the
//! primary coordinates, and for nearly every routed read because routes
//! approach `h(key)` from before the primary.
//!
//! Over `Inline`, fault-free, with placement as the put left it.

use bytes::Bytes;
use cd_core::graph::{ChordLike, ContinuousGraph, DeBruijn, DistanceHalving};
use cd_core::pointset::PointSet;
use cd_core::rng::seeded;
use dh_dht::CdNetwork;
use dh_proto::engine::RetryPolicy;
use dh_proto::transport::Inline;
use dh_replica::ReplicatedDht;
use rand::Rng;

/// The share indices a read gathered, in index order.
fn gathered(shares: &[u8]) -> Vec<u8> {
    let mut out = shares.to_vec();
    out.sort_unstable();
    out
}

fn primary_reads_gather_the_data_shares<G: ContinuousGraph>(graph: G, seed: u64) {
    let (m, k) = (8u8, 4u8);
    let mut rng = seeded(seed);
    let net = CdNetwork::build(graph, &PointSet::random(64, &mut rng));
    let mut dht = ReplicatedDht::new(net, m, k, &mut rng);
    for key in 0..32u64 {
        let value = Bytes::from(vec![key as u8; 100 + key as usize]);
        let from = dht.net.random_node(&mut rng);
        dht.put(from, key, value.clone(), &mut rng);
        let primary = dht.clique(key)[0];
        let (out, got) = dht.get_over(primary, key, Inline, rng.gen(), RetryPolicy::default());
        assert_eq!(got, Some(value), "key {key} reads back");
        assert_eq!(out.dest, Some(primary), "key {key}: the primary coordinates");
        assert_eq!(gathered(&out.shares), (0..k).collect::<Vec<u8>>(), "key {key}");
    }
}

#[test]
fn a_read_coordinated_by_the_primary_gathers_exactly_the_data_shares() {
    primary_reads_gather_the_data_shares(DistanceHalving::binary(), 0xDA7A);
    primary_reads_gather_the_data_shares(ChordLike, 0xDA7A);
    primary_reads_gather_the_data_shares(DeBruijn::new(8), 0xDA7A);
}

#[test]
fn routed_reads_on_a_chord_like_store_gather_no_parity_share() {
    const N: usize = 1024;
    const KEYS: u64 = 500;
    let (m, k) = (8u8, 4u8);
    let mut rng = seeded(0x5157);
    let net = CdNetwork::build(ChordLike, &PointSet::random(N, &mut rng));
    let mut dht = ReplicatedDht::new(net, m, k, &mut rng);
    for key in 0..KEYS {
        let from = dht.net.random_node(&mut rng);
        dht.put(from, key, Bytes::from(key.to_be_bytes().to_vec()), &mut rng);
    }
    let mut data_only = 0;
    for key in 0..KEYS {
        let from = dht.net.random_node(&mut rng);
        let (out, got) = dht.get_over(from, key, Inline, rng.gen(), RetryPolicy::default());
        assert_eq!(got.as_deref(), Some(&key.to_be_bytes()[..]), "key {key} reads back");
        assert_eq!(out.shares.len(), usize::from(k), "key {key}: a fault-free read gathers k");
        data_only += usize::from(out.shares.iter().all(|&i| i < k));
    }
    let share = data_only as f64 / KEYS as f64;
    assert!(share >= 0.95, "only {data_only} of {KEYS} reads gathered the data shares alone");
}
