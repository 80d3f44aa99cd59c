//! E-repl: the replicated store on the wire — share placement,
//! quorum reads and repair traffic, priced per operation.
//!
//! Drives `dh_replica::ReplicatedDht` (m = 8 shares, k = 4 quorum) at
//! n = 10k through the event engine and measures
//!
//! * **puts** — route to the clique + `StoreShare` fan-out + acks,
//! * **quorum gets** — route + `FetchShare` fan-out, first k of m
//!   replies reconstruct,
//! * **repair under churn** — wire-churn `join_over`/`leave_over`
//!   with the anti-entropy pass hooked in: digests, `RepairPull`/
//!   `RepairPush` share transfers, all charged.
//!
//! The whole recorded scenario is a pure function of the seed: it is
//! executed twice and the event-trace fingerprints must match; the
//! printed combined fingerprint pins the schedule (CI asserts it, as
//! for `e_msgs`/`e_table1`).
//!
//! With `--backend file` the identical scenario runs over the
//! crash-consistent WAL shelves (`dh_store::FileShelves`) instead of
//! RAM — the fingerprint must not move, because the backend is
//! invisible to the protocol — and an extra row prices the recovery
//! scan: the WAL of the full scenario is reopened cold and the replay
//! throughput (ns/share, MB/s) is reported.
//!
//! ```sh
//! cargo run --release --bin e_repl                      # n = 10k
//! cargo run --release --bin e_repl -- 10000 2000 7 [expect-fp-hex] \
//!     [--backend mem|file]
//! ```

use bytes::Bytes;
use cd_bench::{parse_backend_file, section, MASTER_SEED};
use cd_core::pointset::PointSet;
use cd_core::rng::{seeded, subseed};
use cd_core::stats::Table;
use cd_core::Point;
use dh_dht::DhNetwork;
use dh_proto::engine::RetryPolicy;
use dh_proto::transport::{Recorder, Sim};
use dh_replica::{RepairReport, ReplicatedDht, Shelves};
use dh_store::{FileShelves, MemShelves, ScratchPath};
use rand::Rng;
use std::time::Instant;

const M: u8 = 8;
const K: u8 = 4;

fn value_of(key: u64) -> Bytes {
    Bytes::from(format!("replicated-item-{key:08}-{:016x}", key.wrapping_mul(0x9E37)))
}

struct ScenarioOut {
    put_msgs: f64,
    put_bytes: f64,
    put_ns: f64,
    get_msgs: f64,
    get_bytes: f64,
    get_ns: f64,
    repair: RepairReport,
    churn_ops: usize,
    repair_ns: f64,
    fingerprint: u64,
}

/// The recorded scenario: puts, quorum gets, then a churn burst with
/// repair — all through one Recorder so the fingerprint pins every
/// transport decision of the whole run. Generic over the shelf
/// backend: the RAM and WAL runs must print the same fingerprint.
fn scenario<S: Shelves>(n: usize, items: usize, seed: u64, shelves: S) -> ScenarioOut {
    let mut rng = seeded(seed ^ 0x0E75);
    let net = DhNetwork::new(&PointSet::random(n, &mut rng));
    let mut dht = ReplicatedDht::with_shelves(net, M, K, shelves, &mut rng);
    let mut rec = Recorder::new(Sim::new(seed).with_latency(4, 16, 4));
    let retry = RetryPolicy::patient();

    let t0 = Instant::now();
    let (mut put_msgs, mut put_bytes) = (0u64, 0u64);
    for key in 0..items as u64 {
        let from = dht.net.random_node(&mut rng);
        let (out, placed) =
            dht.put_over(from, key, value_of(key), &mut rec, subseed(seed, key), retry);
        assert!(out.ok, "lossless put must reach its quorum");
        assert_eq!(placed, M as usize, "lossless put must place the full clique");
        put_msgs += out.msgs;
        put_bytes += out.bytes;
    }
    let put_ns = t0.elapsed().as_secs_f64() * 1e9 / items as f64;

    let t0 = Instant::now();
    let (mut get_msgs, mut get_bytes) = (0u64, 0u64);
    for key in 0..items as u64 {
        let from = dht.net.random_node(&mut rng);
        let (out, value) =
            dht.get_over(from, key, &mut rec, subseed(seed ^ 0x6E7, key), retry);
        assert_eq!(value, Some(value_of(key)), "quorum read lost item {key}");
        assert_eq!(out.shares.len(), K as usize, "first k of m replies reconstruct");
        get_msgs += out.msgs;
        get_bytes += out.bytes;
    }
    let get_ns = t0.elapsed().as_secs_f64() * 1e9 / items as f64;

    // churn burst: every op shifts cover cliques; repair re-materializes
    let t0 = Instant::now();
    let mut repair = RepairReport::default();
    let churn_ops = 100usize;
    for i in 0..churn_ops as u64 {
        if i % 2 == 0 {
            let victim = dht.net.random_node(&mut rng);
            let (_, report) = dht.leave_over(victim, &mut rec, subseed(seed ^ 0xC4, i));
            assert_eq!(report.items_lost, 0, "single-leave churn cannot lose items");
            repair.merge(&report);
        } else {
            let host = dht.net.random_node(&mut rng);
            let kind = dht.kind;
            if let Some((_, _, report)) = dht.join_over(
                host,
                Point(rng.gen()),
                kind,
                subseed(seed ^ 0xC4, i),
                &mut rec,
                retry,
            ) {
                repair.merge(&report);
            }
        }
    }
    let repair_ns = t0.elapsed().as_secs_f64() * 1e9 / churn_ops as f64;

    // and the store is still fully readable after the churn
    for key in (0..items as u64).step_by((items / 64).max(1)) {
        let from = dht.net.random_node(&mut rng);
        let (_, value) =
            dht.get_over(from, key, &mut rec, subseed(seed ^ 0x9E7, key), retry);
        assert_eq!(value, Some(value_of(key)), "item {key} lost across churn + repair");
    }

    ScenarioOut {
        put_msgs: put_msgs as f64 / items as f64,
        put_bytes: put_bytes as f64 / items as f64,
        put_ns,
        get_msgs: get_msgs as f64 / items as f64,
        get_bytes: get_bytes as f64 / items as f64,
        get_ns,
        repair,
        churn_ops,
        repair_ns,
        fingerprint: rec.trace.fingerprint(),
    }
}

/// The durability dial: Inline puts over the WAL backend at three
/// sync-commit settings — never sync (OS flush policy), group-commit
/// every 8th commit, sync every commit. Prices what each notch of
/// power-loss durability costs per put.
fn sync_sweep(n: usize, seed: u64) -> Vec<(&'static str, f64)> {
    const PUTS: u64 = 256;
    let configs: [(&'static str, Option<u32>); 3] = [
        ("never sync", None),
        ("sync every 8th commit", Some(8)),
        ("sync every commit", Some(1)),
    ];
    let mut rows = Vec::new();
    for (name, group) in configs {
        let scratch = ScratchPath::new("e-repl-sync");
        let mut shelves = FileShelves::open(scratch.path()).expect("open WAL");
        if let Some(g) = group {
            shelves.set_sync_commits(true).set_group_commit(g);
        }
        let mut rng = seeded(seed ^ 0x5F5C);
        let net = DhNetwork::new(&PointSet::random(n, &mut rng));
        let mut dht = ReplicatedDht::with_shelves(net, M, K, shelves, &mut rng);
        let t0 = Instant::now();
        for key in 0..PUTS {
            let from = dht.net.random_node(&mut rng);
            let placed = dht.put(from, key, value_of(key), &mut rng);
            assert_eq!(placed, M as usize, "Inline put places the full clique");
        }
        rows.push((name, t0.elapsed().as_secs_f64() * 1e9 / PUTS as f64));
    }
    rows
}

/// The recovery-scan measurement: reopen a closed scenario WAL cold
/// and price the replay.
struct RecoverScan {
    ns_per_share: f64,
    mb_per_s: f64,
    shares: usize,
    records: usize,
    wal_len: u64,
}

fn measure_recovery(path: &std::path::Path) -> RecoverScan {
    let t0 = Instant::now();
    let reopened = FileShelves::open(path).expect("reopen scenario WAL");
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(reopened.recovery().skipped, 0, "a clean close must replay losslessly");
    let shares = reopened.shelved_shares().max(1);
    RecoverScan {
        ns_per_share: secs * 1e9 / shares as f64,
        mb_per_s: reopened.wal_len() as f64 / 1e6 / secs.max(1e-12),
        shares,
        records: reopened.recovery().records,
        wal_len: reopened.wal_len(),
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let file_backend = parse_backend_file(&mut args);
    let mut args = args.into_iter();
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(10_000);
    let items: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2_000);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(MASTER_SEED ^ 0x0E91);
    let expect_fp: Option<u64> =
        args.next().and_then(|a| u64::from_str_radix(a.trim_start_matches("0x"), 16).ok());
    let backend = if file_backend { "file" } else { "mem" };

    println!(
        "# E-repl — replicated storage on the wire (n = {n}, items = {items}, m = {M}, k = {K}, seed = {seed:#x}, backend = {backend})"
    );

    section("share placement, quorum reads and repair (Sim transport, recorded)");
    // run the scenario twice (determinism witness); on the file
    // backend keep the first run's WAL around for the recovery scan
    let (out, out2, recover) = if file_backend {
        let keep = ScratchPath::new("e-repl-scenario");
        let twin = ScratchPath::new("e-repl-twin");
        let out =
            scenario(n, items, seed, FileShelves::open(keep.path()).expect("open WAL"));
        let out2 =
            scenario(n, items, seed, FileShelves::open(twin.path()).expect("open WAL"));
        (out, out2, Some(measure_recovery(keep.path())))
    } else {
        let out = scenario(n, items, seed, MemShelves::new());
        let out2 = scenario(n, items, seed, MemShelves::new());
        (out, out2, None)
    };
    assert_eq!(
        out.fingerprint, out2.fingerprint,
        "same seed must reproduce the identical replicated event trace"
    );
    assert_eq!(out.put_msgs.to_bits(), out2.put_msgs.to_bits());
    assert_eq!(out.repair, out2.repair);

    let mut table = Table::new(["op", "msgs/op", "bytes/op", "ns/op"]);
    table.row([
        "put (m=8 scatter + acks)".to_string(),
        format!("{:.2}", out.put_msgs),
        format!("{:.1}", out.put_bytes),
        format!("{:.0}", out.put_ns),
    ]);
    table.row([
        "get (first k=4 of 8)".to_string(),
        format!("{:.2}", out.get_msgs),
        format!("{:.1}", out.get_bytes),
        format!("{:.0}", out.get_ns),
    ]);
    table.row([
        "churn op (incl. repair)".to_string(),
        format!("{:.2}", out.repair.msgs as f64 / out.churn_ops as f64),
        format!("{:.1}", out.repair.bytes as f64 / out.churn_ops as f64),
        format!("{:.0}", out.repair_ns),
    ]);
    print!("{}", table.to_markdown());
    println!(
        "repair: {} items shifted, {} shares rebuilt, {} lost across {} churn ops",
        out.repair.items_shifted, out.repair.shares_rebuilt, out.repair.items_lost, out.churn_ops
    );
    println!("fingerprint (recorded scenario): {:#018x}", out.fingerprint);

    if let Some(scan) = &recover {
        section("recovery scan (cold WAL reopen after a clean close)");
        println!(
            "replayed {} records / {} shares from a {:.1} MB log: {:.0} ns/share, {:.1} MB/s",
            scan.records,
            scan.shares,
            scan.wal_len as f64 / 1e6,
            scan.ns_per_share,
            scan.mb_per_s
        );
    }

    // sanity: the scatter term dominates the routing term
    let logn = (n as f64).log2();
    let scatter = 2.0 * (M as f64 - 1.0); // store+ack / fetch+reply per remote cover
    assert!(
        out.put_msgs <= 2.0 * logn + 14.0 + scatter,
        "put cost {:.1} msgs/op exceeds route + clique fan-out shape",
        out.put_msgs
    );
    assert!(
        out.get_msgs >= scatter * 0.5,
        "a quorum read must fan out to the clique"
    );

    if let Some(want) = expect_fp {
        assert_eq!(
            out.fingerprint, want,
            "deterministic replication fingerprint changed — share placement, quorum or repair semantics moved"
        );
        println!("fingerprint matches the pinned value");
    }

    if file_backend {
        section("durability dial (sync_data off / every 8th commit / every commit)");
        for (name, ns) in sync_sweep(n, seed) {
            println!("{name}: {ns:.0} ns/put");
        }
    }
}
