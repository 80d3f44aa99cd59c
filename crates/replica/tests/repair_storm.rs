//! Repair under a churn storm: across 1k interleaved
//! join/leave/put/get operations — churn driven through the wire
//! protocol with the anti-entropy pass hooked in — every stored item
//! must stay **readable at quorum** and placed on exactly its current
//! cover clique, on all three topology instances (Distance Halving,
//! Chord-like, base-8 de Bruijn). At (m, k) = (8, 4) half the leaves
//! are crashes, whose shares are rebuilt; at m = k = 1 — §2.1's
//! single-copy DHT — every leave hands its items to the server that
//! now covers them, and none is ever lost.

use bytes::Bytes;
use cd_core::graph::{ChordLike, ContinuousGraph, DeBruijn, DistanceHalving};
use cd_core::pointset::PointSet;
use cd_core::rng::seeded;
use cd_core::Point;
use dh_dht::{CdNetwork, NodeId};
use dh_proto::engine::RetryPolicy;
use dh_proto::transport::Inline;
use dh_replica::{MemShelves, ReplicatedDht, Shelves};
use dh_store::{FileShelves, ScratchPath};
use rand::Rng;
use std::collections::BTreeMap;

fn value_of(key: u64) -> Bytes {
    Bytes::from(format!("storm-item-{key}"))
}

/// Every live item is held by exactly its current clique — at m = 1,
/// by the server covering `h(key)` — and reconstructs at quorum from a
/// random origin.
fn check_all<G: ContinuousGraph, S: Shelves>(
    dht: &mut ReplicatedDht<G, S>,
    live: &BTreeMap<u64, Bytes>,
    rng: &mut impl Rng,
) {
    for (&key, want) in live {
        let mut clique = dht.clique(key);
        assert_eq!(clique.len(), dht.m() as usize, "network shrank below m");
        assert_eq!(clique[0], dht.net.cover_of(dht.hash.point(key)));
        let mut holders: Vec<NodeId> =
            dht.shelves.map()[&key].holders.values().map(|h| h.node).collect();
        holders.sort_unstable();
        clique.sort_unstable();
        assert_eq!(holders, clique, "item {key} is not placed on its cover clique");
        let from = dht.net.random_node(rng);
        let got = dht.get(from, key, rng);
        assert_eq!(got.as_ref(), Some(want), "item {key} unreadable at quorum mid-storm");
    }
}

fn storm<G: ContinuousGraph>(graph: G, geometry: (u8, u8), seed: u64) {
    storm_on(graph, geometry, seed, MemShelves::new());
}

fn storm_on<G: ContinuousGraph, S: Shelves>(
    graph: G,
    (m, k): (u8, u8),
    seed: u64,
    shelves: S,
) -> ReplicatedDht<G, S> {
    let mut rng = seeded(seed);
    let net = CdNetwork::build(graph, &PointSet::random(64, &mut rng));
    let mut dht = ReplicatedDht::with_shelves(net, m, k, shelves, &mut rng);
    let mut transport = Inline;
    // BTreeMap: deterministic iteration, so the storm replays
    let mut live: BTreeMap<u64, Bytes> = BTreeMap::new();
    let mut next_key = 0u64;
    let mut ops = 0usize;
    let mut lost_total = 0usize;
    while ops < 1_000 {
        match rng.gen_range(0..4u32) {
            // leave: the departing cover hands its shares to the
            // covers entering its cliques — or, crashing, loses them
            // and repair rebuilds them — before the next operation
            0 if dht.net.len() > 24 => {
                let v = dht.net.random_node(&mut rng);
                if m > k && rng.gen_bool(0.5) {
                    dht.drop_shelves_of(v);
                }
                let (_, report) = dht.leave_over(v, &mut transport, ops as u64);
                lost_total += report.items_lost;
            }
            // join: the split shifts every clique containing the
            // split node; the member each one pushed out hands its
            // share to the newcomer
            1 => {
                let host = dht.net.random_node(&mut rng);
                let x = Point(rng.gen());
                let kind = dht.kind;
                if dht
                    .join_over(host, x, kind, ops as u64, &mut transport, RetryPolicy::default())
                    .is_none()
                {
                    continue; // identifier collision: redraw
                }
            }
            2 => {
                let key = next_key;
                next_key += 1;
                let from = dht.net.random_node(&mut rng);
                let placed = dht.put(from, key, value_of(key), &mut rng);
                assert_eq!(placed, m as usize, "Inline must place the full clique");
                live.insert(key, value_of(key));
            }
            _ => {
                // a quorum read of a random live item must succeed
                // mid-storm
                if let Some((&key, want)) =
                    live.range(rng.gen::<u64>() % next_key.max(1)..).next()
                {
                    let from = dht.net.random_node(&mut rng);
                    assert_eq!(
                        dht.get(from, key, &mut rng).as_ref(),
                        Some(want),
                        "item {key} lost mid-storm"
                    );
                }
            }
        }
        ops += 1;
        if ops.is_multiple_of(250) {
            dht.net.validate();
            check_all(&mut dht, &live, &mut rng);
        }
    }
    assert_eq!(lost_total, 0, "one departure at a time can never lose an item");
    assert!(live.len() > 100, "the storm must have stored a real population");
    assert_eq!(dht.items(), live.len(), "shelves must track the live population");
    dht.net.validate();
    check_all(&mut dht, &live, &mut rng);
    dht
}

#[test]
fn repair_churn_storm_dh() {
    storm(DistanceHalving::binary(), (8, 4), 0xF0A1);
}

#[test]
fn repair_churn_storm_chord() {
    storm(ChordLike, (8, 4), 0xF0A2);
}

#[test]
fn repair_churn_storm_debruijn8() {
    storm(DeBruijn::new(8), (8, 4), 0xF0A3);
}

#[test]
fn single_copy_churn_storm_dh() {
    storm(DistanceHalving::binary(), (1, 1), 0xD001);
}

#[test]
fn single_copy_churn_storm_chord() {
    storm(ChordLike, (1, 1), 0xD002);
}

#[test]
fn single_copy_churn_storm_debruijn8() {
    storm(DeBruijn::new(8), (1, 1), 0xD003);
}

/// The same storm over the crash-consistent WAL backend: identical
/// protocol behavior (the backend is invisible to the engine), the
/// log stays bounded via auto-compaction, and the entire churned
/// population survives a process restart byte for byte.
#[test]
fn repair_churn_storm_dh_file_backed() {
    let scratch = ScratchPath::new("storm-wal");
    let shelves = FileShelves::open(scratch.path()).expect("open WAL");
    let dht = storm_on(DistanceHalving::binary(), (8, 4), 0xF0A1, shelves);
    let survived = dht.shelves.map().clone();
    assert!(
        dht.shelves.wal_len() < 64 * (1 << 20),
        "auto-compaction must bound a 1k-op storm's log"
    );
    drop(dht);
    // restart: the reopened WAL replays to exactly the pre-death map
    let reopened = FileShelves::open(scratch.path()).expect("reopen WAL");
    assert_eq!(reopened.recovery().skipped, 0);
    assert_eq!(reopened.map(), &survived, "restart must recover the churned population");
}
