//! Storage under churn at m = k = 1, §2.1's single-copy DHT: across 1k
//! interleaved join/leave/put/get operations, every stored item must
//! remain retrievable and must sit on the server whose segment covers
//! its hashed location — for both lookup algorithms. (A leave hands its
//! items to the server taking its segment over, a join splits them off
//! to the new owner; a lookup then has to find them wherever they went.)

use bytes::Bytes;
use cd_core::pointset::PointSet;
use cd_core::rng::seeded;
use cd_core::Point;
use dh_dht::{DhNetwork, LookupKind};
use dh_proto::engine::RetryPolicy;
use dh_proto::transport::Inline;
use dh_replica::{ReplicatedDht, Shelves};
use rand::Rng;
use std::collections::BTreeMap;

fn value_of(key: u64) -> Bytes {
    Bytes::from(key.to_be_bytes().to_vec())
}

/// Every live item sits on the server covering its hashed point and is
/// retrievable by a routed get from a random server.
fn check_all(dht: &mut ReplicatedDht, live: &BTreeMap<u64, Bytes>, rng: &mut impl Rng) {
    for (&key, want) in live {
        let owner = dht.net.cover_of(dht.hash.point(key));
        assert!(
            dht.shelves.map()[&key].holders.values().map(|h| h.node).eq([owner]),
            "item {key} is not on its covering server {owner}"
        );
        let from = dht.net.random_node(rng);
        assert_eq!(dht.get(from, key, rng).as_ref(), Some(want), "item {key} unretrievable");
    }
}

fn storm(kind: LookupKind, seed: u64) {
    let mut rng = seeded(seed);
    let net = DhNetwork::new(&PointSet::random(64, &mut rng));
    let mut dht = ReplicatedDht::new(net, 1, 1, &mut rng);
    dht.kind = kind;
    let mut transport = Inline;
    // BTreeMap: iteration order is deterministic, so the whole storm
    // (which draws from one shared rng) replays identically across runs
    let mut live: BTreeMap<u64, Bytes> = BTreeMap::new();
    let mut next_key = 0u64;
    let mut ops = 0usize;
    while ops < 1_000 {
        match rng.gen_range(0..4u32) {
            0 if dht.net.len() > 8 => {
                let v = dht.net.random_node(&mut rng);
                let (_, report) = dht.leave_over(v, &mut transport, ops as u64);
                assert_eq!(report.items_lost, 0, "a graceful leave lost an item");
            }
            1 => {
                let host = dht.net.random_node(&mut rng);
                let x = Point(rng.gen());
                let retry = RetryPolicy::default();
                if dht.join_over(host, x, kind, ops as u64, &mut transport, retry).is_none() {
                    continue;
                }
            }
            2 => {
                let key = next_key;
                next_key += 1;
                let from = dht.net.random_node(&mut rng);
                assert_eq!(dht.put(from, key, value_of(key), &mut rng), 1);
                live.insert(key, value_of(key));
            }
            _ => {
                // a get of a random live item must succeed mid-storm
                if let Some((&key, _)) = live.range(rng.gen::<u64>() % next_key.max(1)..).next() {
                    let from = dht.net.random_node(&mut rng);
                    let got = dht.get(from, key, &mut rng);
                    assert_eq!(got, Some(value_of(key)), "item {key} lost mid-storm");
                }
            }
        }
        ops += 1;
        if ops.is_multiple_of(250) {
            dht.net.validate();
            check_all(&mut dht, &live, &mut rng);
        }
    }
    assert!(live.len() > 100, "the storm must have stored a real population");
    assert_eq!(dht.shelved_shares(), live.len(), "one copy per live item");
    dht.net.validate();
    check_all(&mut dht, &live, &mut rng);
}

#[test]
fn storage_churn_storm_fast() {
    storm(LookupKind::Fast, 0xF001);
}

#[test]
fn storage_churn_storm_dh() {
    storm(LookupKind::DistanceHalving, 0xD001);
}
