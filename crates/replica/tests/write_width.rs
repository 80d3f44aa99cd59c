//! Property: what a quorum write places and whether it commits are
//! properties of **which covers are live**, not of how many covers the
//! write asks to ack.
//!
//! A `put` stores a share on every cover but asks only the coordinator
//! and the next `k − 1` covers to ack, backing a silent one up on the
//! hedge timer. This test drives one store through random histories of
//! put / overwrite, each put over a `ChaosNet` that fail-stops a random
//! set of the clique's covers other than the coordinator, and asserts
//! for every put that
//!
//! * it commits iff at least `k` covers are live, on its first attempt
//!   when it does;
//! * the shelf map holds the put's generation on exactly the live
//!   slots, share `i` on cover `i` — every share whose `StoreShare`
//!   arrived, which is what a write asking every cover to ack placed;
//! * it sent `(m − 1) + (k − 1)` clique messages when every asked cover
//!   was live, and at most `2(m − k)` more otherwise (each backup is a
//!   store and at most one ack),
//!
//! across all three topology instances and both storage backends.

use bytes::Bytes;
use cd_core::graph::{ChordLike, ContinuousGraph, DeBruijn, DistanceHalving};
use cd_core::pointset::PointSet;
use cd_core::rng::seeded;
use dh_dht::CdNetwork;
use dh_proto::engine::RetryPolicy;
use dh_proto::transport::Inline;
use dh_proto::ChaosNet;
use dh_replica::{MemShelves, ReplicatedDht, Shelves};
use dh_store::{FileShelves, ScratchPath};
use proptest::prelude::*;
use rand::Rng;

const N: usize = 40;
const M: u8 = 6;
const K: u8 = 3;
/// Keys are drawn from a range this small so that puts overwrite.
const KEYS: u64 = 6;

/// The `(slot, cover)` pairs holding `key`'s newest generation, in slot
/// order — committed or not.
fn newest_placement<S: Shelves>(shelves: &S, key: u64) -> Vec<(usize, u32)> {
    let Some(item) = shelves.map().get(&key) else { return Vec::new() };
    let newest = item.holders.values().map(|h| h.version).max();
    item.holders
        .iter()
        .filter(|(_, h)| Some(h.version) == newest)
        .map(|(&idx, h)| (usize::from(idx), h.node.0))
        .collect()
}

/// One history over one topology and backend. `ops[i]` is the number of
/// covers the `i`-th put fail-stops, at most `m − 1`: both sides of the
/// write quorum.
fn width_on<G: ContinuousGraph, S: Shelves>(
    graph: G,
    seed: u64,
    ops: &[u8],
    shelves: S,
) -> Result<(), TestCaseError> {
    let (m, k) = (M as usize, K as usize);
    let mut rng = seeded(seed);
    let net = CdNetwork::build(graph, &PointSet::random(N, &mut rng));
    let mut dht = ReplicatedDht::with_shelves(net, M, K, shelves, &mut rng);
    for (step, &dead) in ops.iter().enumerate() {
        let key = rng.gen_range(0..KEYS);
        let value = Bytes::from(format!("write-width-{key}-at-{step}"));
        let clique = dht.clique(key);
        // the coordinator: a clique member, so the put routes nowhere
        let own = rng.gen_range(0..m);
        let mut others: Vec<usize> = (0..m).filter(|&i| i != own).collect();
        let mut down = Vec::new();
        for _ in 0..dead {
            down.push(others.swap_remove(rng.gen_range(0..others.len())));
        }
        let mut chaos = ChaosNet::new(Inline, 0);
        for &slot in &down {
            chaos.fail(clique[slot]);
        }
        let retry = RetryPolicy::fixed(256, 3);
        let (out, placed) = dht.put_over(clique[own], key, value.clone(), chaos, rng.gen(), retry);
        prop_assert_eq!(&out.holders, &clique);
        prop_assert_eq!(out.path.hops(), 0, "step {}: the coordinator routed", step);
        let live = m - down.len();
        prop_assert_eq!(out.ok, live >= k, "step {}: {} live covers", step, live);
        let mut shares: Vec<usize> = out.shares.iter().map(|&i| usize::from(i)).collect();
        shares.sort_unstable();
        let live_slots: Vec<usize> = (0..m).filter(|i| !down.contains(i)).collect();
        prop_assert_eq!(&shares, &live_slots, "step {}: placed slots", step);
        prop_assert_eq!(placed, live);
        let on_live: Vec<(usize, u32)> = live_slots.iter().map(|&i| (i, clique[i].0)).collect();
        prop_assert_eq!(newest_placement(&dht.shelves, key), on_live, "step {}: shelf map", step);
        if !out.ok {
            continue;
        }
        prop_assert_eq!(out.attempts, 1, "step {}: a backup restarted the write", step);
        // the asked covers: the coordinator, then the next k − 1 in
        // ring order
        let asked = (0..m).filter(|&i| i != own).take(k - 1);
        let scatter = out.msgs as usize;
        if asked.clone().all(|i| !down.contains(&i)) {
            prop_assert_eq!(scatter, (m - 1) + (k - 1), "step {}: acks to discard", step);
        }
        prop_assert!(
            scatter <= (m - 1) + (k - 1) + 2 * (m - k),
            "step {}: {} clique messages with {:?} down",
            step,
            scatter,
            down
        );
        // the committed generation reads back once the weather clears
        let from = dht.net.random_node(&mut rng);
        let (_, got) = dht.get_over(from, key, Inline, rng.gen(), RetryPolicy::patient());
        prop_assert_eq!(got, Some(value), "step {}: key {} committed but unreadable", step, key);
    }
    Ok(())
}

fn ops() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0..M, 1..14)
}

proptest! {
    #[test]
    fn prop_writes_place_the_live_slots_all_topologies_mem(seed: u64, ops in ops()) {
        width_on(DistanceHalving::binary(), seed, &ops, MemShelves::new())?;
        width_on(ChordLike, seed, &ops, MemShelves::new())?;
        width_on(DeBruijn::new(8), seed, &ops, MemShelves::new())?;
    }

    #[test]
    fn prop_writes_place_the_live_slots_all_topologies_file(seed: u64, ops in ops()) {
        let wal = |tag: &str| {
            let scratch = ScratchPath::new(tag);
            FileShelves::open(scratch.path()).expect("open WAL")
        };
        width_on(DistanceHalving::binary(), seed, &ops, wal("write-width-dh"))?;
        width_on(ChordLike, seed, &ops, wal("write-width-ch"))?;
        width_on(DeBruijn::new(8), seed, &ops, wal("write-width-db"))?;
    }
}
