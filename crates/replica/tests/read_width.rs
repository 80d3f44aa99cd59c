//! Property: whether a quorum read succeeds is a property of the
//! **shelf state**, not of how many covers the read contacts.
//!
//! A `get` fetches `k` shares — the coordinator's own plus the next
//! `k − 1` covers — and extends only on *not-found* replies. This test
//! drives one store through random histories of put / overwrite /
//! leave / join with repair **withheld** (churn goes straight to
//! `net`, a leaver's shelf is retired with it), so covers really lack
//! their shares, and asserts after **every** step, for every key, that
//!
//! * the read returns the last committed value iff a direct count over
//!   `shelves.map()` finds at least `k` shares of the committed
//!   generation on the clique's covers, whichever indices, and is a
//!   definitive miss (`ok`, fewer than `k` shares, no retry) otherwise;
//! * the read sent `2(k − 1)` clique messages when its first wave all
//!   held their shares, and never more than `2(m − 1)`,
//!
//! across all three topology instances and both storage backends.

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
use proptest::prelude::*;
use rand::Rng;
use std::collections::BTreeMap;

const N: usize = 40;
const M: u8 = 6;
const K: u8 = 3;
/// Keys are drawn from a range this small so that puts overwrite.
const KEYS: u64 = 6;

/// Does cover `slot` of `clique` hold *a* share of `key`'s committed
/// generation, whichever index? (What `ShelfView` answers a
/// `FetchShare` with: placement is a set.)
fn holds<S: Shelves>(shelves: &S, key: u64, clique: &[NodeId], slot: usize) -> bool {
    shelves.map().get(&key).is_some_and(|item| {
        item.holders.values().any(|h| h.node == clique[slot] && h.version == item.version)
    })
}

/// Read every key ever put and compare with the shelf-state oracle.
fn reads_follow_the_shelves<G: ContinuousGraph, S: Shelves>(
    dht: &mut ReplicatedDht<G, S>,
    committed: &BTreeMap<u64, Bytes>,
    rng: &mut impl Rng,
    step: usize,
) -> Result<(), TestCaseError> {
    let (m, k) = (M as usize, K as usize);
    for (&key, value) in committed {
        let from = dht.net.random_node(rng);
        let (out, got) = dht.get_over(from, key, Inline, rng.gen(), RetryPolicy::patient());
        let clique = dht.clique(key);
        prop_assert_eq!(&out.holders, &clique);
        let held = (0..clique.len()).filter(|&i| holds(&dht.shelves, key, &clique, i)).count();
        prop_assert!(out.ok, "step {}: a lossless read of key {} must be answered", step, key);
        prop_assert_eq!(out.attempts, 1, "step {}: key {} retried", step, key);
        if held >= k {
            prop_assert_eq!(got.as_ref(), Some(value), "step {}: key {} ({} held)", step, key, held);
        } else {
            prop_assert_eq!(got, None, "step {}: key {} read below quorum", step, key);
            prop_assert_eq!(out.shares.len(), held, "step {}: a miss hears every cover", step);
        }
        // the first wave: the coordinator, then the next k − 1 covers
        let own = clique.iter().position(|&c| Some(c) == out.dest).expect("a cover coordinates");
        let others = (0..clique.len()).filter(|&i| i != own).take(k - 1);
        let first_wave_holds =
            std::iter::once(own).chain(others).all(|i| holds(&dht.shelves, key, &clique, i));
        let scatter = out.msgs as usize - out.path.hops();
        if first_wave_holds {
            prop_assert_eq!(scatter, 2 * (k - 1), "step {}: key {} fetched to discard", step, key);
        }
        prop_assert!(scatter <= 2 * (m - 1), "step {}: key {} sent {} > 2(m − 1)", step, key, scatter);
    }
    Ok(())
}

/// One history over one topology and backend. `ops`: 0–1 put (fresh or
/// overwrite, as the key draw decides), 2 leave, 3 join.
fn width_on<G: ContinuousGraph, S: Shelves>(
    graph: G,
    seed: u64,
    ops: &[u8],
    shelves: S,
) -> Result<(), TestCaseError> {
    let mut rng = seeded(seed);
    let net = CdNetwork::build(graph, &PointSet::random(N, &mut rng));
    let mut dht = ReplicatedDht::with_shelves(net, M, K, shelves, &mut rng);
    let mut committed: BTreeMap<u64, Bytes> = BTreeMap::new();
    for (step, &op) in ops.iter().enumerate() {
        match op {
            0 | 1 => {
                let key = rng.gen_range(0..KEYS);
                let value = Bytes::from(format!("width-{key}-at-{step}"));
                let from = dht.net.random_node(&mut rng);
                prop_assert_eq!(dht.put(from, key, value.clone(), &mut rng), M as usize);
                committed.insert(key, value);
            }
            2 if dht.net.len() > M as usize + 8 => {
                let victim = dht.net.random_node(&mut rng);
                dht.shelves.retire(victim);
                dht.reindex();
                dht.net.leave(victim);
            }
            _ => {
                dht.net.join(Point(rng.gen()));
            }
        }
        reads_follow_the_shelves(&mut dht, &committed, &mut rng, step)?;
    }
    Ok(())
}

fn ops() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..4, 1..14)
}

proptest! {
    #[test]
    fn prop_reads_follow_the_shelves_all_topologies_mem(seed: u64, ops in ops()) {
        width_on(DistanceHalving::binary(), seed, &ops, MemShelves::new())?;
        width_on(ChordLike, seed, &ops, MemShelves::new())?;
        width_on(DeBruijn::new(8), seed, &ops, MemShelves::new())?;
    }

    #[test]
    fn prop_reads_follow_the_shelves_all_topologies_file(seed: u64, ops in ops()) {
        let wal = |tag: &str| {
            let scratch = ScratchPath::new(tag);
            FileShelves::open(scratch.path()).expect("open WAL")
        };
        width_on(DistanceHalving::binary(), seed, &ops, wal("width-dh"))?;
        width_on(ChordLike, seed, &ops, wal("width-ch"))?;
        width_on(DeBruijn::new(8), seed, &ops, wal("width-db"))?;
    }
}

/// The witness that the histories above reach both verdicts: a clique
/// that lost `m − k` share holders still reads, one more and the
/// read is a definitive miss — with no repair in between. (Covers leave
/// from the clique's second slot: placement is a set, so a member's
/// leave costs that member's share only, wherever it sits; the server
/// entering at the tail holds none.)
#[test]
fn withheld_repair_reaches_both_sides_of_the_quorum() {
    let mut rng = seeded(0x51DE);
    let net = CdNetwork::build(DistanceHalving::binary(), &PointSet::random(N, &mut rng));
    let mut dht = ReplicatedDht::new(net, M, K, &mut rng);
    let value = Bytes::from_static(b"exactly k left");
    let from = dht.net.random_node(&mut rng);
    dht.put(from, 1, value.clone(), &mut rng);
    let committed = BTreeMap::from([(1u64, value)]);
    let mut read_back = Vec::new();
    for lost in 1..=(M - K + 1) as usize {
        let victim = dht.clique(1)[1];
        dht.shelves.retire(victim);
        dht.reindex();
        dht.net.leave(victim);
        reads_follow_the_shelves(&mut dht, &committed, &mut rng, lost).unwrap();
        let from = dht.net.random_node(&mut rng);
        read_back.push(dht.get(from, 1, &mut rng).is_some());
    }
    assert_eq!(read_back, [true, true, true, false], "readable down to k = 3 of m = 6 shares");
}
