//! A share outside its item's clique still leaves with its holder.
//!
//! Between churn events every share sits on its item's clique, so a
//! departing server's shares are found in the items whose clique
//! contains it — one arc of the arc index. The exception is an item
//! repair could not recover: it leaves the shares where they are, and
//! a later join can push a surviving holder out of the clique. Such an
//! item is a *stray*, and a departure must look there too. This builds
//! exactly that history — an item lost to two crashes at `m − k = 1`,
//! then a join just below its point that strands the old primary's
//! share — and checks that the stranded holder's graceful leave and its
//! crash-then-leave each leave no shelf slot naming it, on both
//! backends, and that a reopened log recovers the same shelves. The
//! assertions are direct, not the memory backend's debug-only
//! completeness check, so they hold on a release build too.

use bytes::Bytes;
use cd_core::graph::DistanceHalving;
use cd_core::pointset::PointSet;
use cd_core::rng::seeded;
use cd_core::Point;
use dh_dht::network::NodeId;
use dh_dht::CdNetwork;
use dh_proto::engine::RetryPolicy;
use dh_proto::transport::Inline;
use dh_replica::{MemShelves, ReplicatedDht, Shelves};
use dh_store::{FileShelves, ScratchPath};

const N: usize = 64;
const M: u8 = 4;
const K: u8 = 3;
const ITEMS: u64 = 40;
/// The item the history strands a share of.
const KEY: u64 = 7;

type Store<S> = ReplicatedDht<DistanceHalving, S>;

/// Does `node` hold a share of any item?
fn named<S: Shelves>(dht: &Store<S>, node: NodeId) -> bool {
    dht.shelves.map().values().any(|it| it.holders.values().any(|h| h.node == node))
}

/// Preload, lose [`KEY`] to two crashes, then join just below its
/// point. Returns the store and the holder the join pushed out of the
/// clique, which still holds its share.
fn strand<S: Shelves>(shelves: S) -> (Store<S>, NodeId) {
    let mut rng = seeded(0x57A7);
    let net = CdNetwork::build(DistanceHalving::binary(), &PointSet::random(N, &mut rng));
    let mut dht = ReplicatedDht::with_shelves(net, M, K, shelves, &mut rng);
    for key in 0..ITEMS {
        let from = dht.net.random_node(&mut rng);
        dht.put(from, key, Bytes::from(format!("stray-{key}")), &mut rng);
    }
    let clique = dht.clique(KEY);
    // two crashes without a repair between them: one more than m − k
    dht.drop_shelves_of(clique[1]);
    dht.drop_shelves_of(clique[2]);
    let (_, report) = dht.leave_over(clique[1], &mut Inline, 1);
    assert!(report.items_lost > 0, "the item must be reported lost");
    dht.leave_over(clique[2], &mut Inline, 2);
    // the newcomer takes over the item's point, so the primary leaves
    // the clique with its share: repair cannot move it (the item stays
    // lost), and it is no longer in the primary's arc
    let x = Point(dht.hash.point(KEY).bits().wrapping_sub(1));
    let (host, kind) = (clique[3], dht.kind);
    let joined = dht.join_over(host, x, kind, 3, &mut Inline, RetryPolicy::default());
    let (id, _, report) = joined.expect("a fresh identifier joins");
    assert!(report.items_lost > 0, "the join leaves the lost item untouched");
    let stray = clique[0];
    assert_eq!(dht.clique(KEY)[0], id);
    assert!(!dht.clique(KEY).contains(&stray), "the join must push the primary out");
    let item = &dht.shelves.map()[&KEY];
    assert!(item.holders.values().any(|h| h.node == stray), "the stray share is still held");
    assert!(dht.indices_consistent());
    (dht, stray)
}

/// The stranded holder departs — gracefully, or crashing first — and
/// no shelf slot may name it afterwards.
fn depart<S: Shelves>(dht: &mut Store<S>, stray: NodeId, crash: bool) {
    if crash {
        dht.drop_shelves_of(stray);
        assert!(!named(dht, stray), "the crash left a slot naming {stray:?}");
    }
    dht.leave_over(stray, &mut Inline, 4);
    assert!(!named(dht, stray), "the leave left a slot naming {stray:?}");
    assert!(dht.indices_consistent());
}

#[test]
fn a_stray_share_leaves_with_its_holder_mem() {
    for crash in [false, true] {
        let (mut dht, stray) = strand(MemShelves::new());
        depart(&mut dht, stray, crash);
    }
}

#[test]
fn a_stray_share_leaves_with_its_holder_file() {
    for crash in [false, true] {
        let scratch = ScratchPath::new(&format!("stray-share-{crash}"));
        let (mut dht, stray) = strand(FileShelves::open(scratch.path()).expect("open WAL"));
        depart(&mut dht, stray, crash);
        let shelves = dht.shelves.map().clone();
        drop(dht);
        let reopened = FileShelves::open(scratch.path()).expect("reopen WAL");
        assert_eq!(reopened.map(), &shelves, "a reopen must recover the same shelves");
    }
}
