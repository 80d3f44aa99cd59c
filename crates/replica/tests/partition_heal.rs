//! Partition-heal convergence: a churn storm is running when the
//! network bisects ([`CutDirection::Both`] over a seeded half-split);
//! the storm rides through the cut — puts may fail to commit, joins
//! may lose their lookup, reads from the wrong side go dark — then the
//! window closes (the heal event) and an anti-entropy pass runs.
//! Afterwards every committed item must be **fully replicated on its
//! current clique** and **quorum-readable through the healed
//! substrate**, on all three topology instances (Distance Halving,
//! Chord-like, base-8 de Bruijn) and on both storage backends — whose
//! final shelf maps must be byte-equal (the backend is invisible to
//! the protocol).

use bytes::Bytes;
use cd_core::graph::{ChordLike, ContinuousGraph, DeBruijn, DistanceHalving};
use cd_core::pointset::PointSet;
use cd_core::rng::{seeded, subseed};
use cd_core::Point;
use dh_dht::CdNetwork;
use dh_proto::engine::RetryPolicy;
use dh_proto::transport::Sim;
use dh_proto::{ChaosNet, CutDirection, NodeId};
use dh_replica::{ReplicatedDht, Shelves};
use dh_store::{FileShelves, MemShelves, ScratchPath};
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};

/// Clock stride between storm ops: the store's clock advances at
/// least this much per op, spreading the storm over the bisection
/// window.
const STRIDE: u64 = 10_000;
const M: u8 = 8;
const K: u8 = 4;

fn value_of(key: u64) -> Bytes {
    Bytes::from(format!("heal-item-{key:06}"))
}

/// The storm's bookkeeping: what was durably committed (and so must
/// survive), what never committed (failed puts park their arrived
/// shares below quorum — repair reports those *uncommitted orphans*
/// as unrecoverable, which is correct accounting, not data loss).
#[derive(Default)]
struct Storm {
    committed: BTreeMap<u64, Bytes>,
    orphans: BTreeSet<u64>,
    next_key: u64,
    epoch: u64,
    op_no: u64,
}

/// One storm op: leave / join / put / get, all driven over the one
/// chaos substrate. `cut` marks the bisection window, where failure is
/// the partition doing its job rather than a bug.
fn storm_op<G: ContinuousGraph, S: Shelves>(
    dht: &mut ReplicatedDht<G, S>,
    chaos: &mut ChaosNet<Sim>,
    rng: &mut impl Rng,
    st: &mut Storm,
    cut: bool,
) {
    dht.advance_to(st.epoch);
    let seed_op = subseed(0x9A27, st.op_no);
    match rng.gen_range(0..5u32) {
        // leave: the incremental repair pass hands the departing
        // cover's shares to the covers entering its cliques — a single
        // leave can never lose a *committed* item (only uncommitted
        // orphans are ever beyond rebuilding)
        0 if dht.net.len() > 36 => {
            let v = dht.net.random_node(rng);
            let (_, report) = dht.leave_over(v, chaos, seed_op);
            assert!(
                report.items_lost <= st.orphans.len(),
                "single-leave churn with repair lost a committed item"
            );
        }
        // join: the lookup rides the chaos substrate — under the cut
        // it may never reach the host's side and the join aborts
        1 if dht.net.len() < 64 => {
            let host = dht.net.random_node(rng);
            let x = Point(rng.gen());
            let kind = dht.kind;
            let _ = dht.join_over(host, x, kind, seed_op, chaos, RetryPolicy::default());
        }
        2 | 3 => {
            let key = st.next_key;
            st.next_key += 1;
            let from = dht.net.random_node(rng);
            let (out, _) = dht.put_over(
                from,
                key,
                value_of(key),
                &mut *chaos,
                seed_op,
                RetryPolicy::patient(),
            );
            if out.ok {
                st.committed.insert(key, value_of(key));
                // a quorum write commits at k acks, but every store it
                // sent to a cover cut off by the partition is lost; the
                // anti-entropy pass tops the placement up before the
                // next leave can erode a k-share item below its
                // threshold — the put-then-repair cadence a deployment
                // runs
                let report = dht.repair(chaos, subseed(seed_op, 0x70));
                assert!(
                    report.items_lost <= st.orphans.len(),
                    "the top-up repair pass lost a committed item"
                );
            } else {
                assert!(cut, "a put over the healthy substrate must commit");
                st.orphans.insert(key);
            }
        }
        _ => {
            // a quorum read of a random committed item; only asserted
            // outside the cut (a split-side reader is *supposed* to
            // fail mid-partition)
            if let Some((&key, want)) =
                st.committed.range(rng.gen::<u64>() % st.next_key.max(1)..).next()
            {
                let from = dht.net.random_node(rng);
                let retry = RetryPolicy::patient().hedged();
                let got = dht.get_quorum(from, key, chaos, subseed(seed_op, 0x9E7), retry).value;
                if !cut {
                    assert_eq!(got.as_ref(), Some(want), "item {key} unreadable while healthy");
                }
            }
        }
    }
    st.epoch += STRIDE;
    st.op_no += 1;
}

/// The full scenario on one topology + backend: healthy storm →
/// bisection (storm continues) → heal → convergence repair →
/// post-heal storm → converged-state asserts. Returns the store so
/// callers can compare shelf maps across backends.
fn storm_on<G: ContinuousGraph, S: Shelves>(graph: G, seed: u64, shelves: S) -> ReplicatedDht<G, S> {
    let mut rng = seeded(seed);
    let net = CdNetwork::build(graph, &PointSet::random(48, &mut rng));
    let mut dht = ReplicatedDht::with_shelves(net, M, K, shelves, &mut rng);
    let mut chaos = ChaosNet::new(Sim::new(seed ^ 0x5117).with_latency(4, 16, 4), seed ^ 0xC47);
    let mut st = Storm::default();

    // phase 1: the storm runs healthy
    for _ in 0..60 {
        storm_op(&mut dht, &mut chaos, &mut rng, &mut st, false);
    }

    // phase 2: bisect mid-storm — a seeded half-split, cut both ways,
    // spanning the next 40 ops of engine time
    let cut_until = st.epoch + 40 * STRIDE;
    let nodes: Vec<NodeId> = dht.net.live().to_vec();
    let side_a = chaos.bisect(&nodes, CutDirection::Both, st.epoch, cut_until);
    assert!(!side_a.is_empty() && side_a.len() < nodes.len(), "a real bisection");
    for _ in 0..40 {
        storm_op(&mut dht, &mut chaos, &mut rng, &mut st, true);
    }

    // phase 3: the window end is the heal event; one full anti-entropy
    // pass converges every placement the split-brain churn disturbed
    st.epoch = st.epoch.max(cut_until) + STRIDE;
    dht.advance_to(st.epoch);
    let report = dht.repair(&mut chaos, subseed(seed, 0x4EA1));
    assert!(
        report.items_lost <= st.orphans.len(),
        "the heal repair pass lost a committed item"
    );

    // phase 4: the storm continues on the healed network
    for _ in 0..30 {
        storm_op(&mut dht, &mut chaos, &mut rng, &mut st, false);
    }

    // convergence: every committed item fully replicated on its
    // *current* clique and quorum-readable through the healed substrate
    dht.net.validate();
    assert!(st.committed.len() >= 25, "the storm must have committed a real population");
    for (&key, want) in &st.committed {
        dht.advance_to(st.epoch);
        let clique = dht.clique(key);
        assert_eq!(clique.len(), M as usize, "network shrank below m");
        let item = &dht.shelves.map()[&key];
        assert_eq!(item.holders.len(), M as usize, "item {key} not fully replicated after heal");
        for cover in &clique {
            let held = item.holders.values().filter(|h| h.node == *cover).count();
            assert_eq!(held, 1, "item {key}: cover {cover:?} holds {held} shares after heal");
        }
        for (i, h) in &item.holders {
            assert_eq!(h.version, item.version, "item {key} share {i} stale after heal");
        }
        let from = dht.net.random_node(&mut rng);
        let got = dht.get_quorum(
            from,
            key,
            &mut chaos,
            subseed(seed ^ 0xAF7E, key),
            RetryPolicy::patient().hedged(),
        );
        assert_eq!(got.value.as_ref(), Some(want), "item {key} not quorum-readable after heal");
        st.epoch += STRIDE;
    }
    dht
}

/// Run the identical storm on the RAM and WAL backends and demand
/// byte-equal shelf maps: every chaos decision is a pure function of
/// the seed, so the backend must be invisible down to the sealed
/// share blobs.
fn run_both_backends<G: ContinuousGraph>(make: impl Fn() -> G, seed: u64, tag: &str) {
    let mem = storm_on(make(), seed, MemShelves::new());
    let scratch = ScratchPath::new(tag);
    let file = storm_on(make(), seed, FileShelves::open(scratch.path()).expect("open WAL"));
    assert_eq!(mem.items(), file.items(), "backends diverged on population");
    assert_eq!(mem.shelves.map(), file.shelves.map(), "backends diverged on shelf bytes");
}

#[test]
fn partition_heal_dh() {
    run_both_backends(DistanceHalving::binary, 0xA417, "heal-dh");
}

#[test]
fn partition_heal_chord() {
    run_both_backends(|| ChordLike, 0xA418, "heal-chord");
}

#[test]
fn partition_heal_debruijn8() {
    run_both_backends(|| DeBruijn::new(8), 0xA419, "heal-db8");
}
