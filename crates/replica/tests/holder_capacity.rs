//! An item's holder array is sized once, to its `m`: the first share a
//! put parks carries the code's `m` in its header, and every later
//! park, overwrite, hand-off and rebuild lands in a slot that already
//! exists. An array that grew one slot per park would reallocate `m`
//! times per new item and could keep spare room behind; this checks
//! every item's storage after a preload, a round of overwrites and
//! churn with repair, at both of the benchmark's geometries, and again
//! after a file-backed store recovers its shelves from the WAL.

use bytes::Bytes;
use cd_core::graph::DistanceHalving;
use cd_core::pointset::PointSet;
use cd_core::rng::seeded;
use cd_core::Point;
use dh_dht::CdNetwork;
use dh_proto::engine::RetryPolicy;
use dh_proto::transport::Inline;
use dh_replica::{ReplicatedDht, Shelves};
use dh_store::{FileShelves, ScratchPath};
use rand::rngs::StdRng;
use rand::Rng;

const ITEMS: u64 = 2_000;
const CHURN: usize = 20;

/// Every item's holder array has exactly `m` slots.
fn assert_sized_to_m<S: Shelves>(shelves: &S, m: u8, what: &str) {
    assert_eq!(shelves.items(), ITEMS as usize, "{what}: items lost");
    for (key, item) in shelves.map() {
        assert_eq!(
            item.holders.capacity(),
            usize::from(m),
            "{what}: item {key} keeps {} holder slots at m = {m}",
            item.holders.capacity()
        );
    }
}

/// One 64-byte put of `key` through the quorum write path.
fn put<S: Shelves>(dht: &mut ReplicatedDht<DistanceHalving, S>, key: u64, rng: &mut StdRng) {
    let from = dht.net.random_node(rng);
    let value = Bytes::from(vec![key as u8; 64]);
    let (out, _) = dht.put_over(from, key, value, Inline, rng.gen(), RetryPolicy::default());
    assert!(out.ok, "put of {key} missed its quorum");
}

/// Preload, overwrite a quarter, then churn with repair.
fn history<S: Shelves>(dht: &mut ReplicatedDht<DistanceHalving, S>, seed: u64) {
    let mut rng = seeded(seed);
    for key in 0..ITEMS {
        put(dht, key, &mut rng);
    }
    for key in (0..ITEMS).step_by(4) {
        put(dht, key, &mut rng);
    }
    let mut transport = Inline;
    for event in 0..CHURN {
        if event % 2 == 0 {
            let host = dht.net.random_node(&mut rng);
            let kind = dht.kind;
            let x = Point(rng.gen());
            dht.join_over(host, x, kind, event as u64, &mut transport, RetryPolicy::default());
        } else {
            let v = dht.net.random_node(&mut rng);
            // every other leave is a crash, whose shares are rebuilt
            if event % 4 == 1 {
                dht.drop_shelves_of(v);
            }
            let (_, report) = dht.leave_over(v, &mut transport, event as u64);
            assert_eq!(report.items_lost, 0, "a leave lost items");
        }
    }
}

#[test]
fn holder_storage_never_outgrows_m() {
    for (m, k) in [(4u8, 2u8), (8, 4)] {
        let mut rng = seeded(0x5107 ^ u64::from(m));
        let net = CdNetwork::build(DistanceHalving::binary(), &PointSet::random(256, &mut rng));
        let mut dht = ReplicatedDht::new(net, m, k, &mut rng);
        history(&mut dht, u64::from(m));
        assert_sized_to_m(&dht.shelves, m, "mem");
    }
}

#[test]
fn recovered_holder_storage_is_sized_to_m() {
    let (m, k) = (4u8, 2u8);
    let scratch = ScratchPath::new("holder-capacity");
    let mut rng = seeded(0x5108);
    let net = CdNetwork::build(DistanceHalving::binary(), &PointSet::random(256, &mut rng));
    let shelves = FileShelves::open(scratch.path()).expect("open WAL");
    let mut dht = ReplicatedDht::with_shelves(net, m, k, shelves, &mut rng);
    history(&mut dht, 0x5108);
    assert_sized_to_m(&dht.shelves, m, "file");
    drop(dht);
    let reopened = FileShelves::open(scratch.path()).expect("reopen WAL");
    assert_sized_to_m(&reopened, m, "file, recovered");
}
