//! Model equivalence for the repair indices.
//!
//! `ReplicatedDht` keeps the arc index `(h(key), key)` and `strays` —
//! the items that may hold a share outside their clique — beside the
//! shelves, and `apply_put` touches neither for an overwrite (every
//! share lands on the clique). That is only sound if the arc index
//! always equals what a from-scratch pass over the shelves would build
//! and `strays` covers every off-clique item such a pass finds, so this
//! storm asserts exactly that, [`ReplicatedDht::indices_consistent`],
//! after **every** step of a seeded mix of: fresh put, overwrite on an
//! unchanged clique, overwrite after a bare join moved the clique
//! *without* repair (followed by the `reindex` a direct `net` mutation
//! owes), torn put over a lossy transport, join, leave, full `repair`,
//! and `remove` — on both storage backends.

use bytes::Bytes;
use cd_core::graph::DistanceHalving;
use cd_core::pointset::PointSet;
use cd_core::rng::seeded;
use cd_core::Point;
use dh_dht::CdNetwork;
use dh_proto::engine::RetryPolicy;
use dh_proto::transport::{Inline, Sim};
use dh_replica::{MemShelves, ReplicatedDht, Shelves};
use dh_store::{FileShelves, ScratchPath};
use rand::Rng;

const N: usize = 40;
const M: u8 = 6;
const K: u8 = 3;
const KEYS: u64 = 24;
const STEPS: u64 = 600;

/// What the storm exercised — so the test can insist every case it
/// claims to cover really occurred.
#[derive(Default, Debug)]
struct Seen {
    fresh: u32,
    same_clique: u32,
    moved_clique: u32,
    torn: u32,
    joins: u32,
    leaves: u32,
    repairs: u32,
    removes: u32,
}

/// The `(idx, node)` placement of `key` right now.
fn placement<S: Shelves>(dht: &ReplicatedDht<DistanceHalving, S>, key: u64) -> Vec<(u8, u32)> {
    dht.shelves
        .map()
        .get(&key)
        .map(|it| it.holders.iter().map(|(&idx, h)| (idx, h.node.0)).collect())
        .unwrap_or_default()
}

fn storm<S: Shelves>(seed: u64, shelves: S) -> Seen {
    let mut rng = seeded(seed);
    let net = CdNetwork::build(DistanceHalving::binary(), &PointSet::random(N, &mut rng));
    let mut dht = ReplicatedDht::with_shelves(net, M, K, shelves, &mut rng);
    let mut seen = Seen::default();
    assert!(dht.indices_consistent(), "empty store");
    for step in 0..STEPS {
        let sseed = seed ^ (step << 8);
        let key = rng.gen_range(0..KEYS);
        let from = dht.net.random_node(&mut rng);
        let value = Bytes::from(format!("index-model-{key}-{step}"));
        let what = match rng.gen_range(0..16u32) {
            0..=6 => {
                let before = placement(&dht, key);
                dht.put(from, key, value, &mut rng);
                if before.is_empty() {
                    seen.fresh += 1;
                    "fresh put"
                } else if before == placement(&dht, key) {
                    seen.same_clique += 1;
                    "same-clique overwrite"
                } else {
                    seen.moved_clique += 1;
                    "overwrite onto a moved clique"
                }
            }
            7 | 8 => {
                // a bare topology join right at the item's point: the
                // clique shifts and nothing repairs it, so the
                // overwrite below lands on covers the index has
                // recorded under other holders
                let before = placement(&dht, key);
                let at = Point(dht.hash.point(key).bits().wrapping_add(rng.gen_range(1..1 << 20)));
                if dht.net.join(at).is_some() {
                    dht.reindex();
                    dht.put(from, key, value, &mut rng);
                    if !before.is_empty() && before != placement(&dht, key) {
                        seen.moved_clique += 1;
                    }
                }
                "join without repair, then overwrite"
            }
            9 | 10 => {
                // one short attempt: a write re-ships a lost store to
                // the next covers on its backup timer, so a round much
                // longer than a few hedge delays rarely tears
                let sim = Sim::new(sseed).with_drop(0.35);
                let (out, _) =
                    dht.put_over(from, key, value, sim, sseed, RetryPolicy::fixed(32, 1));
                seen.torn += u32::from(!out.ok && !out.shares.is_empty());
                "put over a lossy transport"
            }
            11 => {
                let kind = dht.kind;
                let x = Point(rng.gen());
                dht.join_over(from, x, kind, sseed, &mut Inline, RetryPolicy::default());
                seen.joins += 1;
                "join_over"
            }
            12 => {
                if dht.net.len() > N / 2 {
                    dht.leave_over(from, &mut Inline, sseed);
                    seen.leaves += 1;
                }
                "leave_over"
            }
            13 => {
                dht.repair(&mut Inline, sseed);
                seen.repairs += 1;
                "repair"
            }
            _ => {
                seen.removes += u32::from(dht.remove(from, key, &mut rng));
                "remove"
            }
        };
        assert!(
            dht.indices_consistent(),
            "indices drifted from the shelves at step {step} ({what}, key {key}, seed {seed:#x})"
        );
    }
    seen
}

fn covers_every_case(seen: &Seen) {
    assert!(
        seen.fresh > 0
            && seen.same_clique > 20
            && seen.moved_clique > 5
            && seen.torn > 5
            && seen.joins > 5
            && seen.leaves > 5
            && seen.repairs > 5
            && seen.removes > 5,
        "the storm missed a case it exists to cover: {seen:?}"
    );
}

#[test]
fn indices_equal_a_reindex_after_every_step_mem() {
    for seed in [0x1DE0, 0x1DE1, 0x1DE2] {
        covers_every_case(&storm(seed, MemShelves::new()));
    }
}

#[test]
fn indices_equal_a_reindex_after_every_step_file() {
    for seed in [0x1DE0, 0x1DE3] {
        let scratch = ScratchPath::new(&format!("index-model-{seed:x}"));
        let shelves = FileShelves::open(scratch.path()).expect("open WAL");
        covers_every_case(&storm(seed, shelves));
    }
}
