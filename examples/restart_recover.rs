//! Restart without a repair storm: a replicated store runs over the
//! crash-consistent WAL shelves (`dh_store::FileShelves`), the process
//! dies — once cleanly, once mid-write — and the restarted node
//! re-serves every committed share from disk. The anti-entropy pass
//! prices **zero** repair messages after a clean death, and the torn
//! write is invisible (rolled back), never half-applied.
//!
//! ```sh
//! cargo run --release --example restart_recover
//! ```

use bytes::Bytes;
use continuous_discrete::core::graph::DistanceHalving;
use continuous_discrete::core::pointset::PointSet;
use continuous_discrete::core::rng::seeded;
use continuous_discrete::dht::DhNetwork;
use continuous_discrete::proto::transport::Inline;
use continuous_discrete::replica::ReplicatedDht;
use continuous_discrete::store::{CrashPoint, FileShelves, ScratchPath, Shelves};
use std::path::Path;

const SEED: u64 = 42;
const N: usize = 512;
const M: u8 = 8;
const K: u8 = 4;

fn value_of(key: u64) -> Bytes {
    Bytes::from(format!("durable-item-{key}"))
}

/// A node restart: the network and placement hash are rebuilt from the
/// seed (they are protocol state, re-derivable); only the shelves come
/// back from disk, via the WAL recovery scan.
fn boot(wal: &Path) -> (ReplicatedDht<DistanceHalving, FileShelves>, rand::rngs::StdRng) {
    let mut rng = seeded(SEED);
    let net = DhNetwork::new(&PointSet::random(N, &mut rng));
    let shelves = FileShelves::open(wal).expect("open / recover WAL");
    (ReplicatedDht::with_shelves(net, M, K, shelves, &mut rng), rng)
}

fn main() {
    let scratch = ScratchPath::new("restart-recover-demo");

    // ---- life 1: store 24 items, then the process dies (cleanly) ----
    {
        let (mut store, mut rng) = boot(scratch.path());
        for key in 0..24u64 {
            let from = store.net.random_node(&mut rng);
            store.put(from, key, value_of(key), &mut rng);
        }
        println!(
            "life 1: stored 24 items as {} sealed shares, WAL at {} bytes",
            store.shelved_shares(),
            store.shelves.wal_len()
        );
    } // drop = process death; nothing in RAM survives

    // ---- life 2: recover, serve reads, prove there is no storm ----
    let (mut store, mut rng) = boot(scratch.path());
    let rec = store.shelves.recovery();
    println!(
        "life 2: recovery replayed {} records ({} skipped, {} torn bytes) -> {} items",
        rec.records,
        rec.skipped,
        rec.torn_bytes,
        store.items()
    );
    assert_eq!(store.items(), 24);

    let mut transport = Inline;
    let report = store.repair(&mut transport, 0xB007);
    println!(
        "anti-entropy after restart: {} msgs, {} bytes on the wire (no repair storm)",
        report.msgs, report.bytes
    );
    assert_eq!(report.msgs, 0, "a clean restart must not pull a single share");

    let from = store.net.random_node(&mut rng);
    assert_eq!(store.get(from, 7, &mut rng), Some(value_of(7)));
    println!("quorum read of item 7 served straight from the recovered shelves");

    // ---- life 2 ends violently: an overwrite dies before its commit ----
    store.shelves.arm(CrashPoint { after_records: 2, torn_bytes: 9 });
    let from = store.net.random_node(&mut rng);
    store.put(from, 7, Bytes::from_static(b"generation two, torn"), &mut rng);
    assert!(store.shelves.crashed());
    println!("\nlife 2 died mid-overwrite: 2 park records durable, commit never written");
    drop(store);

    // ---- life 3: the torn generation is invisible, not half-applied ----
    let (mut store, mut rng) = boot(scratch.path());
    let rec = store.shelves.recovery();
    println!(
        "life 3: recovery truncated {} torn bytes; item 7 is at generation {}",
        rec.torn_bytes, store.shelves.map()[&7].version
    );
    let from = store.net.random_node(&mut rng);
    assert_eq!(
        store.get(from, 7, &mut rng),
        Some(value_of(7)),
        "the committed generation must survive a torn overwrite"
    );
    println!("item 7 still reads back as its committed value — torn writes roll back");
}
