//! Property: arc-scoped incremental repair leaves **nothing for the
//! full scan to do**.
//!
//! `join_over`/`leave_over` repair only the items whose cover clique
//! can have shifted (the arc `[x(pred^{m−1}(n)), x(succ(n)))` of the
//! item index, plus the leaver's held keys). The full scan
//! ([`ReplicatedDht::repair`]) judges every item with the same
//! per-item rule and is the ground truth. This test drives one store
//! at (m, k) = (8, 4) through random (churn sequence × item set)
//! histories — joins, graceful leaves that hand their shares off, and
//! crashes whose shares are rebuilt — and asserts after **every** event
//! that a full scan
//!
//! * reports nothing shifted, placed or lost, and
//! * leaves the complete shelf map unchanged (placement, versions,
//!   holders — byte-level, via `ItemState` equality),
//!
//! and that the placement is the set rule's: every member of an item's
//! clique holds exactly one share of the committed generation, the
//! members' indices are pairwise distinct, and nothing is held outside
//! the clique,
//!
//! and, at the end, that every key still reads back its value at
//! quorum — across all three topology instances (Distance Halving,
//! Chord-like, base-8 de Bruijn) and both storage backends (RAM and
//! the WAL). A separate witness repeats a fixed history with a burst
//! of fresh puts between churn events: `apply_put` maintains the
//! repair indices, so the property must hold for items written after
//! the ring started moving too.

use bytes::Bytes;
use cd_core::graph::{ChordLike, ContinuousGraph, DeBruijn, DistanceHalving};
use cd_core::pointset::PointSet;
use cd_core::rng::seeded;
use cd_core::Point;
use dh_dht::CdNetwork;
use dh_proto::engine::RetryPolicy;
use dh_proto::transport::Inline;
use dh_replica::{MemShelves, ReplicatedDht, Shelves};
use dh_store::{FileShelves, ScratchPath};
use proptest::prelude::*;
use rand::Rng;

const N: usize = 48;
const M: u8 = 8;
const K: u8 = 4;

fn value_of(key: u64) -> Bytes {
    Bytes::from(format!("equiv-item-{key:04}"))
}

/// Build one store and preload `items` keys.
fn build<G: ContinuousGraph, S: Shelves>(
    graph: G,
    seed: u64,
    items: u64,
    shelves: S,
) -> (ReplicatedDht<G, S>, impl Rng) {
    let mut rng = seeded(seed);
    let net = CdNetwork::build(graph, &PointSet::random(N, &mut rng));
    let mut dht = ReplicatedDht::with_shelves(net, M, K, shelves, &mut rng);
    for key in 0..items {
        let from = dht.net.random_node(&mut rng);
        assert_eq!(dht.put(from, key, value_of(key), &mut rng), M as usize);
    }
    (dht, rng)
}

/// What a churn event does: join, leave gracefully, or crash.
const JOIN: u8 = 0;
const LEAVE: u8 = 1;
const CRASH: u8 = 2;

/// One churn event through the incremental path: a graceful leave or a
/// crash (`drop_shelves_of`, then the leave) if asked for and the ring
/// can spare a server, a join otherwise.
fn churn_once<G: ContinuousGraph, S: Shelves>(
    dht: &mut ReplicatedDht<G, S>,
    rng: &mut impl Rng,
    event: u8,
    seed: u64,
) {
    if event != JOIN && dht.net.len() > M as usize + 8 {
        let victim = dht.net.random_node(rng);
        if event == CRASH {
            dht.drop_shelves_of(victim);
        }
        let (_, report) = dht.leave_over(victim, &mut Inline, seed);
        assert_eq!(report.items_lost, 0, "one departure can never exceed m − k losses");
    } else {
        let host = dht.net.random_node(rng);
        let kind = dht.kind;
        dht.join_over(host, Point(rng.gen()), kind, seed, &mut Inline, RetryPolicy::default());
    }
}

/// The oracle: a full scan right after an incremental churn op must be
/// a no-op — nothing shifted, rebuilt or lost, shelf map untouched.
fn full_scan_is_a_noop<G: ContinuousGraph, S: Shelves>(
    dht: &mut ReplicatedDht<G, S>,
    seed: u64,
    step: usize,
) -> Result<(), TestCaseError> {
    let before = dht.shelves.map().clone();
    let report = dht.repair(&mut Inline, seed);
    prop_assert_eq!(
        (report.items_shifted, report.shares_rebuilt, report.items_lost),
        (0, 0, 0),
        "incremental repair left work for the full scan after churn event {}",
        step
    );
    prop_assert_eq!(report.msgs, 0, "a converged store exchanges nothing");
    prop_assert_eq!(
        &before,
        dht.shelves.map(),
        "the full scan moved the shelf map after churn event {}",
        step
    );
    Ok(())
}

/// The set rule, checked directly against the shelves: each member of
/// `clique(key)` holds exactly one committed index, the indices are
/// distinct, and no share sits outside the clique.
fn placed_as_a_set<G: ContinuousGraph, S: Shelves>(
    dht: &ReplicatedDht<G, S>,
    step: usize,
) -> Result<(), TestCaseError> {
    for (&key, item) in dht.shelves.map() {
        let clique = dht.clique(key);
        let mut indices = Vec::new();
        for cover in &clique {
            let held: Vec<u8> = item
                .holders
                .iter()
                .filter(|(_, h)| h.node == *cover && h.version == item.version)
                .map(|(&idx, _)| idx)
                .collect();
            prop_assert_eq!(held.len(), 1, "step {}: key {} cover {:?} holds {:?}", step, key, cover, held);
            indices.extend(held);
        }
        indices.sort_unstable();
        indices.dedup();
        prop_assert_eq!(indices.len(), clique.len(), "step {}: key {} repeats an index", step, key);
        for (idx, h) in &item.holders {
            prop_assert!(clique.contains(&h.node), "step {}: key {} share {} outside", step, key, idx);
        }
    }
    Ok(())
}

/// Every key in `keys` reads back its value at quorum.
fn all_readable<G: ContinuousGraph, S: Shelves>(
    dht: &ReplicatedDht<G, S>,
    keys: impl Iterator<Item = (u64, Bytes)>,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut rng = seeded(seed ^ 0x600D);
    for (key, value) in keys {
        let from = dht.net.random_node(&mut rng);
        prop_assert_eq!(dht.get(from, key, &mut rng), Some(value), "key {} unreadable", key);
    }
    Ok(())
}

/// Drive one store through `churn` and consult the oracle after every
/// event.
fn equiv_on<G: ContinuousGraph, S: Shelves>(
    graph: G,
    seed: u64,
    items: u64,
    churn: &[u8],
    shelves: S,
) -> Result<(), TestCaseError> {
    let (mut dht, mut rng) = build(graph, seed, items, shelves);
    for (step, &event) in churn.iter().enumerate() {
        let sseed = seed ^ ((step as u64 + 1) << 8);
        churn_once(&mut dht, &mut rng, event, sseed);
        placed_as_a_set(&dht, step)?;
        full_scan_is_a_noop(&mut dht, sseed ^ 0xF011, step)?;
    }
    all_readable(&dht, (0..items).map(|key| (key, value_of(key))), seed)
}

proptest! {
    #[test]
    fn prop_incremental_equals_full_scan_all_topologies_mem(
        seed: u64, items in 1u64..16, churn in proptest::collection::vec(JOIN..=CRASH, 1..8)
    ) {
        equiv_on(DistanceHalving::binary(), seed, items, &churn, MemShelves::new())?;
        equiv_on(ChordLike, seed, items, &churn, MemShelves::new())?;
        equiv_on(DeBruijn::new(8), seed, items, &churn, MemShelves::new())?;
    }

    #[test]
    fn prop_incremental_equals_full_scan_all_topologies_file(
        seed: u64, items in 1u64..10, churn in proptest::collection::vec(JOIN..=CRASH, 1..6)
    ) {
        let wal = |tag: &str| {
            let scratch = ScratchPath::new(tag);
            FileShelves::open(scratch.path()).expect("open WAL")
        };
        equiv_on(DistanceHalving::binary(), seed, items, &churn, wal("equiv-dh"))?;
        equiv_on(ChordLike, seed, items, &churn, wal("equiv-ch"))?;
        equiv_on(DeBruijn::new(8), seed, items, &churn, wal("equiv-db"))?;
    }
}

/// The write-burst witness: one fixed history — preload, then six
/// rounds of (churn event, 16 fresh sequential puts), the events
/// cycling leave, join, crash — with the oracle
/// consulted after every churn event and every burst.
#[test]
fn equivalence_holds_with_write_bursts_between_churn() {
    let seed = 0x001D_E2E0;
    let (mut dht, mut rng) = build(DistanceHalving::binary(), seed, 12, MemShelves::new());
    for step in 0..6u64 {
        let event = [LEAVE, JOIN, CRASH][step as usize % 3];
        churn_once(&mut dht, &mut rng, event, seed ^ step);
        placed_as_a_set(&dht, step as usize).unwrap();
        full_scan_is_a_noop(&mut dht, seed ^ step ^ 0xF011, step as usize).unwrap();
        for i in 0..16u64 {
            let key = 100 + step * 16 + i;
            let from = dht.net.random_node(&mut rng);
            assert_eq!(dht.put(from, key, value_of(key), &mut rng), M as usize);
        }
        full_scan_is_a_noop(&mut dht, seed ^ step ^ 0xF012, step as usize).unwrap();
    }
    let keys = (0..12u64).chain(100..196).map(|key| (key, value_of(key)));
    all_readable(&dht, keys, seed).unwrap();
}
