//! The storage acceptance matrix: `put`/`get`/`remove` on the Chord-like
//! and base-8 de Bruijn instances under `Inline`, latency `Sim`, lossy
//! `Sim` and fail-stop `ChaosNet`, as §2.1's single copy (m = k = 1) and
//! as §6.2's erasure-coded clique (m = 8, k = 4).

use bytes::Bytes;
use cd_core::graph::{ChordLike, ContinuousGraph, DeBruijn};
use cd_core::pointset::PointSet;
use cd_core::rng::seeded;
use dh_dht::CdNetwork;
use dh_proto::engine::RetryPolicy;
use dh_proto::transport::{Inline, Sim};
use dh_proto::ChaosNet;
use dh_replica::ReplicatedDht;

fn storage_matrix<G: ContinuousGraph>(graph: G, (m, k): (u8, u8), seed: u64) {
    let mut rng = seeded(seed);
    let net = CdNetwork::build(graph, &PointSet::random(96, &mut rng));
    let label = format!("{} at ({m}, {k})", net.graph().label());
    let mut dht = ReplicatedDht::new(net, m, k, &mut rng);
    let retry = RetryPolicy::fixed(2_000, 10);

    // Inline: every op completes, values roundtrip, removes delete.
    for key in 0..60u64 {
        let from = dht.net.random_node(&mut rng);
        let value = Bytes::from(format!("{label}-{key}"));
        assert_eq!(dht.put(from, key, value.clone(), &mut rng), m as usize);
        let got = dht.get(dht.net.random_node(&mut rng), key, &mut rng);
        assert_eq!(got, Some(value), "{label}: inline get lost key {key}");
    }
    let from = dht.net.random_node(&mut rng);
    assert!(dht.remove(from, 7, &mut rng), "{label}: remove must find the item");
    assert_eq!(dht.get(from, 7, &mut rng), None, "{label}: removed key must be gone");

    // Sim with latency only (lossless): still every op completes.
    for key in 100..130u64 {
        let from = dht.net.random_node(&mut rng);
        let sim = Sim::new(key ^ seed).with_latency(2, 12, 5);
        let (out, placed) =
            dht.put_over(from, key, Bytes::from(vec![key as u8; 9]), sim, key, retry);
        assert!(out.ok && placed == m as usize, "{label}: lossless Sim cannot fail a put");
        let sim = Sim::new(key ^ seed ^ 1).with_latency(2, 12, 5);
        let (_, got) = dht.get_over(from, key, sim, key ^ 2, retry);
        assert_eq!(got, Some(Bytes::from(vec![key as u8; 9])), "{label}: Sim get diverged");
    }

    // Sim with loss + duplication: retries absorb almost everything.
    let mut stored = 0usize;
    let mut fetched = 0usize;
    for key in 200..260u64 {
        let from = dht.net.random_node(&mut rng);
        let sim = Sim::new(key ^ seed).with_drop(0.05).with_dup(0.02);
        let (out, _) = dht.put_over(from, key, Bytes::from(vec![key as u8; 4]), sim, key, retry);
        if out.ok {
            stored += 1;
            let sim = Sim::new(key ^ seed ^ 3).with_drop(0.05);
            let (_, got) = dht.get_over(from, key, sim, key ^ 4, retry);
            if got == Some(Bytes::from(vec![key as u8; 4])) {
                fetched += 1;
            }
        }
    }
    assert!(stored >= 55, "{label}: only {stored}/60 puts survived 5% loss with retries");
    assert!(fetched >= stored - 3, "{label}: only {fetched}/{stored} lossy gets succeeded");

    // ChaosNet (fail-stop): with the covering server dead a single
    // copy exhausts the retry budget instead of wedging; a clique of m
    // tolerates it.
    let key = 999u64;
    let dest = dht.net.cover_of(dht.hash.point(key));
    let from = dht.net.ring_succ(dest);
    let mut faulty = ChaosNet::new(Inline, 0);
    faulty.fail(dest);
    let doomed = Bytes::from_static(b"doomed");
    let (out, placed) = dht.put_over(from, key, doomed, faulty, 41, RetryPolicy::fixed(50, 3));
    if m == 1 {
        assert!(!out.ok && placed == 0, "{label}: a dead cover cannot acknowledge a put");
        assert_eq!(out.attempts, 3, "{label}: the retry budget must be spent");
    } else {
        assert!(out.ok, "{label}: one dead cover of m is within m − k");
        assert_eq!(placed, m as usize - 1, "{label}: every live cover holds its share");
    }
}

#[test]
fn chord_storage_over_every_transport() {
    storage_matrix(ChordLike, (1, 1), 0xD0);
    storage_matrix(ChordLike, (8, 4), 0xD0);
}

#[test]
fn debruijn_storage_over_every_transport() {
    storage_matrix(DeBruijn::new(8), (1, 1), 0xD1);
    storage_matrix(DeBruijn::new(8), (8, 4), 0xD1);
}
