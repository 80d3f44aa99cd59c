//! The durability matrix of the replicated store: after a churn storm
//! (repair hooked in) **and** fail-stop of m − k covers per item, every
//! item reconstructs at quorum — on all three topologies and both
//! shelf backends — and a lossy recorded op stream is bit-identical
//! over the WAL and in memory.

use bytes::Bytes;
use cd_core::graph::{ChordLike, ContinuousGraph, DeBruijn, DistanceHalving};
use cd_core::pointset::PointSet;
use cd_core::rng::seeded;
use cd_core::Point;
use dh_dht::CdNetwork;
use dh_proto::engine::RetryPolicy;
use dh_proto::transport::{Inline, Recorder, Sim};
use dh_proto::ChaosNet;
use dh_replica::{ReplicatedDht, Shelves};
use dh_store::{FileShelves, MemShelves, ScratchPath};
use rand::Rng;

fn churned_store<G: ContinuousGraph, S: Shelves>(
    graph: G,
    seed: u64,
    shelves: S,
) -> (ReplicatedDht<G, S>, Vec<(u64, Bytes)>, rand::rngs::StdRng) {
    let mut rng = seeded(seed);
    let net = CdNetwork::build(graph, &PointSet::random(96, &mut rng));
    let mut dht = ReplicatedDht::with_shelves(net, 6, 3, shelves, &mut rng);
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
    (dht, items, rng)
}

fn durability_after_churn<G: ContinuousGraph>(graph: G, seed: u64) {
    durability_after_churn_on(graph, seed, MemShelves::new());
}

fn durability_after_churn_on<G: ContinuousGraph, S: Shelves>(graph: G, seed: u64, shelves: S) {
    let (mut dht, items, mut rng) = churned_store(graph, seed, shelves);
    dht.kind = dht.net.native_kind();
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

#[test]
fn durability_after_churn_dh() {
    durability_after_churn(DistanceHalving::binary(), 0xD0A1);
}

#[test]
fn durability_after_churn_chord() {
    durability_after_churn(ChordLike, 0xD0A2);
}

#[test]
fn durability_after_churn_debruijn8() {
    durability_after_churn(DeBruijn::new(8), 0xD0A3);
}

/// The same churn + fail-stop durability matrix over the WAL backend:
/// the store's durability guarantee must not depend on where the
/// shares rest.
#[test]
fn durability_after_churn_dh_file_backed() {
    let scratch = ScratchPath::new("durability-wal");
    let shelves = FileShelves::open(scratch.path()).expect("open WAL");
    durability_after_churn_on(DistanceHalving::binary(), 0xD0A1, shelves);
}

/// One lossy recorded op stream — preload, then mixed quorum gets and
/// puts one at a time through a single recorded transport: per-op
/// results, final readable placement and the trace fingerprint.
type StreamKey = (Vec<(bool, Option<Bytes>, u64, u64)>, Vec<(u64, u32, usize)>, u64);

fn lossy_stream_on<S: Shelves>(shelves: S) -> StreamKey {
    let mut rng = seeded(0xBA7C);
    let net = CdNetwork::build(DistanceHalving::binary(), &PointSet::random(256, &mut rng));
    let mut dht = ReplicatedDht::with_shelves(net, 8, 4, shelves, &mut rng);
    for key in 0..30u64 {
        let from = dht.net.random_node(&mut rng);
        dht.put(from, key, Bytes::from(vec![key as u8; 20]), &mut rng);
    }
    let retry = RetryPolicy::fixed(2_048, 8);
    let mut rec = Recorder::new(Sim::new(0xFA11).with_drop(0.02));
    let brief = (0..120u64)
        .map(|i| {
            let from = dht.net.random_node(&mut rng);
            if i % 3 == 0 {
                let (out, value) = dht.get_over(from, i % 30, &mut rec, 0x5EED ^ i, retry);
                (value.is_some(), value, out.msgs, out.bytes)
            } else {
                let value = Bytes::from(vec![i as u8; 24]);
                let (out, _) = dht.put_over(from, 500 + i, value, &mut rec, 0x5EED ^ i, retry);
                (out.ok, None, out.msgs, out.bytes)
            }
        })
        .collect();
    let placement = (0..30u64)
        .chain(500..620)
        .filter_map(|key| {
            let clique = dht.clique(key);
            dht.get(clique[0], key, &mut rng).map(|v| (key, v.len() as u32, clique.len()))
        })
        .collect();
    // the recorder pins the entire event schedule
    (brief, placement, rec.fingerprint())
}

/// Backend-independence of the op path: a WAL-backed lossy op stream
/// is bit-identical — outcomes, final placement, trace fingerprint —
/// to the in-memory one.
#[test]
fn file_backed_ops_match_memory_bit_for_bit() {
    let mem = lossy_stream_on(MemShelves::new());
    let scratch = ScratchPath::new("stream-wal");
    let shelves = FileShelves::open(scratch.path()).expect("open WAL");
    let file = lossy_stream_on(shelves);
    assert_eq!(mem, file, "WAL backend diverged from memory on the per-op path");
}
