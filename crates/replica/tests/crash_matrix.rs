//! The crash matrix, end to end: a file-backed replicated store is
//! killed after **every single WAL record** of a put/remove script
//! (with and without a torn tail), reopened, and re-driven through
//! the real quorum-read path. Invariants:
//!
//! * every generation whose commit record landed stays readable at
//!   quorum after the reopen;
//! * a generation whose commit record did not land **never** becomes
//!   visible — the atomic write sequence (parks first, commit last)
//!   guarantees the torn put is invisible, not half-applied;
//! * the recovered map is exactly the replay of the durable record
//!   prefix — no invention, no loss;
//! * a cleanly closed store restarts **without a repair storm**: the
//!   anti-entropy pass over the reopened shelves prices zero messages
//!   and zero bytes (asserted via the priced repair byte counters).

use bytes::Bytes;
use cd_core::graph::DistanceHalving;
use cd_core::pointset::PointSet;
use cd_core::rng::seeded;
use dh_dht::CdNetwork;
use dh_proto::transport::Inline;
use dh_replica::{ReplicatedDht, Shelves};
use dh_store::shelf::apply_record;
use dh_store::{scan, CrashPoint, FileShelves, MemShelves, ScratchPath};
use std::path::Path;

const SEED: u64 = 0xC4A5;
const N: usize = 64;
const M: u8 = 6;
const K: u8 = 3;

fn value_of(key: u64) -> Bytes {
    Bytes::from(format!("crash-matrix-{key}"))
}

/// Rebuild the node's world deterministically: same seed ⇒ same
/// network, same placement hash — the restart scenario, where only the
/// shelves come back from disk.
fn build(path: &Path) -> (ReplicatedDht<DistanceHalving, FileShelves>, rand::rngs::StdRng) {
    let mut rng = seeded(SEED);
    let net = CdNetwork::build(DistanceHalving::binary(), &PointSet::random(N, &mut rng));
    let shelves = FileShelves::open(path).expect("open WAL");
    (ReplicatedDht::with_shelves(net, M, K, shelves, &mut rng), rng)
}

/// The fixed op script the matrix sweeps: six puts and a remove.
fn run_script(dht: &mut ReplicatedDht<DistanceHalving, FileShelves>, rng: &mut rand::rngs::StdRng) {
    for key in 0..6u64 {
        let from = dht.net.random_node(rng);
        dht.put(from, key, value_of(key), rng);
    }
    let from = dht.net.random_node(rng);
    dht.remove(from, 1, rng);
}

#[test]
fn every_crash_point_recovers_committed_and_hides_uncommitted() {
    // reference run: the untorn WAL is the ground truth
    let full = ScratchPath::new("matrix-full");
    let total = {
        let (mut dht, mut rng) = build(full.path());
        run_script(&mut dht, &mut rng);
        dht.shelves.records_appended()
    };
    let bytes = bytes::Bytes::from(std::fs::read(full.path()).unwrap());
    let records = scan(&bytes).expect("clean log").records;
    assert_eq!(records.len() as u64, total);
    assert_eq!(total, 6 * (M as u64 + 1) + 1, "6 puts and a remove");

    // the matrix: kill the write path after every record boundary,
    // with no torn tail and with a sub-record torn tail
    for after in 0..=total {
        for torn in [0usize, 9] {
            let scratch = ScratchPath::new("matrix-point");
            {
                let (mut dht, mut rng) = build(scratch.path());
                dht.shelves.arm(CrashPoint { after_records: after, torn_bytes: torn });
                run_script(&mut dht, &mut rng);
                assert_eq!(dht.shelves.crashed(), after < total);
            }

            // what a replay of the durable prefix must produce
            let mut expected = MemShelves::new();
            for rec in &records[..after as usize] {
                apply_record(rec, &mut expected);
            }

            // the restarted node: recovered shelves, same world
            let (mut dht, mut rng) = build(scratch.path());
            assert_eq!(dht.shelves.recovery().records, after as usize);
            assert_eq!(
                dht.shelves.map(),
                expected.map(),
                "crash after {after}/{total} records (torn {torn}) recovered wrong state"
            );

            // committed ⇒ quorum-readable; uncommitted ⇒ invisible
            for key in 0..6u64 {
                let committed =
                    expected.map().get(&key).map(|it| it.version).unwrap_or(0) >= 1;
                let from = dht.net.random_node(&mut rng);
                let got = dht.get(from, key, &mut rng);
                if committed {
                    assert_eq!(
                        got,
                        Some(value_of(key)),
                        "committed item {key} unreadable after crash at {after} (torn {torn})"
                    );
                } else {
                    assert_eq!(
                        got, None,
                        "uncommitted item {key} visible after crash at {after} (torn {torn})"
                    );
                }
            }
        }
    }
}

#[test]
fn clean_restart_serves_shares_without_repair_traffic() {
    let scratch = ScratchPath::new("restart-no-repair");
    {
        let (mut dht, mut rng) = build(scratch.path());
        for key in 0..30u64 {
            let from = dht.net.random_node(&mut rng);
            dht.put(from, key, value_of(key), &mut rng);
        }
    } // process death (clean): the WAL holds everything

    // restart: shelves from disk, net + hash rebuilt from the seed
    let (mut dht, mut rng) = build(scratch.path());
    assert_eq!(dht.items(), 30, "every item recovered from the WAL");
    assert_eq!(dht.shelved_shares(), 30 * M as usize);

    // the headline property: a restarted node re-serves its shares
    // from disk — the anti-entropy pass finds nothing to pull, so the
    // priced repair counters stay at zero (no repair storm)
    let mut transport = Inline;
    let report = dht.repair(&mut transport, 0x7E57);
    assert_eq!(report.items_checked, 30);
    assert_eq!(report.items_shifted, 0, "restart shifted placements");
    assert_eq!(report.shares_rebuilt, 0, "restart rebuilt shares it already had");
    assert_eq!(report.msgs, 0, "restart caused RepairPull traffic");
    assert_eq!(report.bytes, 0, "restart caused repair bytes on the wire");

    // and the recovered shares serve real quorum reads
    for key in 0..30u64 {
        let from = dht.net.random_node(&mut rng);
        assert_eq!(dht.get(from, key, &mut rng), Some(value_of(key)));
    }
}

#[test]
fn torn_overwrite_on_disk_rolls_back_like_memory() {
    // PR 5 parity: an overwrite that parks < k shares and dies before
    // its commit record leaves the previous generation readable after
    // reopen, and repair discards the torn one — same semantics as
    // the in-memory torn-write parking, now across a process death.
    let scratch = ScratchPath::new("torn-overwrite");
    let committed = Bytes::from_static(b"generation one, committed");
    {
        let (mut dht, mut rng) = build(scratch.path());
        let from = dht.net.random_node(&mut rng);
        dht.put(from, 0, committed.clone(), &mut rng);
        // the overwrite dies after two park records — below k = 3,
        // and its commit record never lands (arming resets the
        // record counter, so the crash point is relative)
        dht.shelves.arm(CrashPoint { after_records: 2, torn_bytes: 0 });
        let from = dht.net.random_node(&mut rng);
        dht.put(from, 0, Bytes::from_static(b"generation two, torn"), &mut rng);
        assert!(dht.shelves.crashed());
    }
    let (mut dht, mut rng) = build(scratch.path());
    let item = &dht.shelves.map()[&0];
    assert_eq!(item.version, 1, "torn overwrite must not advance the generation");
    assert_eq!(item.shares_of(2).len(), 2, "the two parked v2 shares survive, invisible");
    let from = dht.net.random_node(&mut rng);
    assert_eq!(dht.get(from, 0, &mut rng), Some(committed.clone()));
    // repair rolls the torn generation back entirely
    let mut transport = Inline;
    let report = dht.repair(&mut transport, 3);
    assert_eq!(report.items_lost, 0);
    let from = dht.net.random_node(&mut rng);
    assert_eq!(dht.get(from, 0, &mut rng), Some(committed));
}
