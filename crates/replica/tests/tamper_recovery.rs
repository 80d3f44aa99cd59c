//! Graceful degradation under file-layer damage, end to end: a closed
//! WAL is hit with bit flips, a zeroed record and a torn tail
//! ([`dh_store::TamperFile`]), then reopened beneath a replicated
//! store on each topology instance. The recovery scan must pay
//! **record-granular** prices (one flipped bit costs one record, never
//! the store), the surviving shares must keep every committed item at
//! read quorum, and one anti-entropy pass must re-materialize what the
//! damage took — after which a second pass prices zero messages. A
//! hand-off, likewise — a join's or a leave's — never ships a damaged
//! blob: it rebuilds.

use bytes::Bytes;
use cd_core::graph::{ChordLike, ContinuousGraph, DeBruijn, DistanceHalving};
use cd_core::pointset::PointSet;
use cd_core::rng::seeded;
use cd_core::Point;
use dh_dht::CdNetwork;
use dh_obs::Obs;
use dh_proto::engine::RetryPolicy;
use dh_proto::transport::Inline;
use dh_replica::{Holder, ReplicatedDht, Shelves};
use dh_store::{FileShelves, ScratchPath, TamperFile};
use std::path::Path;

const N: usize = 96;
const M: u8 = 6;
const K: u8 = 3;
const ITEMS: u64 = 8;

fn value_of(key: u64) -> Bytes {
    Bytes::from(format!("tamper-{key}"))
}

fn build<G: ContinuousGraph>(
    graph: G,
    seed: u64,
    path: &Path,
) -> (ReplicatedDht<G, FileShelves>, rand::rngs::StdRng) {
    let mut rng = seeded(seed);
    let net = CdNetwork::build(graph, &PointSet::random(N, &mut rng));
    let shelves = FileShelves::open(path).expect("open WAL");
    (ReplicatedDht::with_shelves(net, M, K, shelves, &mut rng), rng)
}

fn tampered_recovery_heals<G: ContinuousGraph + Clone>(graph: G, seed: u64) {
    let scratch = ScratchPath::new("tamper-e2e");
    {
        let (mut dht, mut rng) = build(graph.clone(), seed, scratch.path());
        for key in 0..ITEMS {
            let from = dht.net.random_node(&mut rng);
            dht.put(from, key, value_of(key), &mut rng);
        }
    } // clean close

    // damage the closed WAL three ways: a flipped bit deep inside one
    // park record, a fully zeroed park record, and a tail torn
    // mid-way through the final record
    let tamper = TamperFile::new(scratch.path());
    let spans = tamper.spans();
    assert_eq!(spans.len() as u64, ITEMS * (M as u64 + 1));
    let parks: Vec<_> = spans.iter().filter(|s| s.tag == 1).copied().collect();
    let flip_at = parks[2];
    tamper.flip(flip_at.offset + flip_at.len - 4, 0x20);
    let zero_at = parks[parks.len() / 2];
    tamper.zero(zero_at.offset, zero_at.len);
    let last = *spans.last().unwrap();
    tamper.truncate(last.offset + last.len / 2);

    // the restarted node: damage costs records, never the store
    let (mut dht, mut rng) = build(graph, seed, scratch.path());
    let recovery = dht.shelves.recovery();
    assert!(recovery.skipped >= 2, "flip + zero must each cost one record");
    assert!(recovery.torn_bytes > 0, "the torn tail must be truncated");
    assert_eq!(dht.items(), ITEMS as usize, "no item may vanish wholesale");

    // every generation whose commit record survived is still at read
    // quorum (each lost at most 2 of its 6 shares — below m − k = 3);
    // the torn tail took the *last item's commit record*, so that item
    // is invisible — the write discipline, not data loss...
    for key in 0..ITEMS - 1 {
        let from = dht.net.random_node(&mut rng);
        assert_eq!(
            dht.get(from, key, &mut rng),
            Some(value_of(key)),
            "item {key} unreadable after file damage"
        );
    }
    let last_key = ITEMS - 1;
    assert_eq!(dht.shelves.map()[&last_key].version, 0, "torn commit must not serve");
    let from = dht.net.random_node(&mut rng);
    assert_eq!(dht.get(from, last_key, &mut rng), None);

    // ...and one repair pass re-materializes the damaged shares and
    // promotes the fully parked but commit-less last item (its k-plus
    // surviving parks are a complete generation), pricing its
    // pull/push traffic
    let mut transport = Inline;
    let report = dht.repair(&mut transport, seed ^ 0x7A3);
    assert_eq!(report.items_lost, 0, "sub-threshold damage must never lose an item");
    assert!(report.shares_rebuilt >= 2, "the damaged shares must be rebuilt");
    assert!(report.msgs > 0, "repair traffic must be priced");

    // converged: a second pass finds a fully replicated store
    let again = dht.repair(&mut transport, seed ^ 0x7A4);
    assert_eq!(again.items_shifted, 0);
    assert_eq!(again.msgs, 0, "repair must converge after one pass");
    for key in 0..ITEMS {
        let from = dht.net.random_node(&mut rng);
        assert_eq!(dht.get(from, key, &mut rng), Some(value_of(key)));
    }
}

#[test]
fn tampered_wal_heals_dh() {
    tampered_recovery_heals(DistanceHalving::binary(), 0x7A01);
}

#[test]
fn tampered_wal_heals_chord() {
    tampered_recovery_heals(ChordLike, 0x7A02);
}

#[test]
fn tampered_wal_heals_debruijn8() {
    tampered_recovery_heals(DeBruijn::new(8), 0x7A03);
}

/// The member that leaves an item's clique holds a damaged blob — the
/// one a join pushes out, then a graceful leaver itself: each time the
/// entering cover's share must be rebuilt from `k` kept members, not
/// handed over, and the item must read back.
fn damaged_hand_off_is_rebuilt<G: ContinuousGraph>(graph: G, seed: u64) {
    let mut rng = seeded(seed);
    let net = CdNetwork::build(graph, &PointSet::random(N, &mut rng));
    let mut dht = ReplicatedDht::new(net, M, K, &mut rng);
    let obs = Obs::recording(1 << 10);
    dht.set_obs(obs.clone());
    let key = 1;
    let from = dht.net.random_node(&mut rng);
    dht.put(from, key, value_of(key), &mut rng);

    for (event, leave) in [(1, false), (2, true)] {
        // the leaver, or the last member, which a join halfway between
        // the third and fourth members pushes out: damage its blob
        let clique = dht.clique(key);
        let exiting = if leave { clique[1] } else { clique[M as usize - 1] };
        let item = &dht.shelves.map()[&key];
        let (&idx, held) = item.holders.iter().find(|(_, h)| h.node == exiting).unwrap();
        let mut sealed = held.sealed.to_vec();
        sealed[0] ^= 0xFF;
        let damaged = Holder { node: exiting, version: held.version, sealed: Bytes::from(sealed) };
        assert!(damaged.share().is_none(), "the damage must be detectable");
        let point = item.point;
        dht.shelves.park(key, point, idx, damaged);

        let report = if leave {
            dht.leave_over(exiting, &mut Inline, seed ^ 1).1
        } else {
            let (a, b) = (dht.net.node(clique[2]).x.bits(), dht.net.node(clique[3]).x.bits());
            let x = Point(a.wrapping_add(b.wrapping_sub(a) / 2));
            let (host, kind) = (dht.net.random_node(&mut rng), dht.kind);
            dht.join_over(host, x, kind, seed, &mut Inline, RetryPolicy::default()).expect("join").2
        };
        assert_eq!((report.items_shifted, report.shares_rebuilt, report.items_lost), (1, 1, 0));
        let snap = obs.snapshot();
        assert_eq!(snap.counter_total("repair/shares_handed_off"), 0, "damage was handed off");
        assert_eq!(snap.counter_total("repair/shares_rebuilt"), event);

        let now = dht.clique(key);
        let entering = *now.iter().find(|c| !clique.contains(c)).expect("a cover entered");
        let item = &dht.shelves.map()[&key];
        let entered = item.holders.values().find(|h| h.node == entering).expect("it holds a share");
        assert!(entered.share().is_some(), "the entering cover's share must be intact");
        assert!(item.holders.values().all(|h| now.contains(&h.node)), "a share left the clique");
        assert!(item.holders.values().all(|h| h.share().is_some()), "damage left on the clique");
        let from = dht.net.random_node(&mut rng);
        assert_eq!(dht.get(from, key, &mut rng), Some(value_of(key)));
    }
}

#[test]
fn a_damaged_hand_off_is_rebuilt_on_every_topology() {
    damaged_hand_off_is_rebuilt(DistanceHalving::binary(), 0x7A11);
    damaged_hand_off_is_rebuilt(ChordLike, 0x7A12);
    damaged_hand_off_is_rebuilt(DeBruijn::new(8), 0x7A13);
}
