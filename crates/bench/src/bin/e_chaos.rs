//! E-chaos: the grey-failure campaign — does the graceful-degradation
//! layer actually degrade gracefully?
//!
//! The §6 fault harnesses measure binary failures (fail-stop, liars).
//! Deployed overlays mostly die of failures the binary model cannot
//! express: slow-but-alive peers, flapping processes, partitions,
//! congestion loss. This harness sweeps a scenario matrix of exactly
//! those shapes over the replicated store and scores each cell on
//!
//! * **availability** — fraction of quorum reads returning the
//!   committed value,
//! * **latency** — p50/p99/p999 of the *modeled* engine ticks a read
//!   took (client-perceived, machine-invariant),
//! * **wasted work** — messages per read (failovers, retries and
//!   hedges all cost wire traffic).
//!
//! The matrix crosses chaos shapes with retry policies:
//!
//! | scenario          | chaos                                | policy        |
//! |-------------------|--------------------------------------|---------------|
//! | healthy_fixed     | none                                 | fixed timeout |
//! | healthy_hedged    | none                                 | hedged        |
//! | grey_fixed        | 10% of nodes ×8 service latency      | fixed timeout |
//! | grey_hedged       | same grey set (same chaos seed)      | hedged        |
//! | partition_hedged  | full bisection over the middle third | hedged        |
//! | flap_hedged       | 20% of nodes on fail/recover cycles  | hedged        |
//! | burst_hedged      | 30% loss burst over the middle third | hedged        |
//!
//! The grey pair is the tentpole claim: with per-destination adaptive
//! timeouts, a suspicion-driven failure detector and hedged quorum
//! reads, the store routes around grey nodes instead of paying their
//! ×8 latency — the harness *asserts* that hedged p99 undercuts the
//! fixed-timeout p99 by ≥ 2× while availability stays ≥ 99.9%.
//!
//! Every chaos decision (who is grey, who flaps, which sends a burst
//! eats, how a bisection splits) is a pure function of the chaos seed,
//! and latencies are modeled ticks — so the whole campaign
//! fingerprints: each scenario's recorded delivery trace is hashed,
//! the per-scenario fingerprints chain into one campaign fingerprint,
//! and CI pins it on both storage backends.
//! The campaign is executed twice and must reproduce itself exactly.
//!
//! ```sh
//! cargo run --release --bin e_chaos                      # defaults
//! cargo run --release --bin e_chaos -- 600 160 360 [expect-fp-hex] \
//!     [--backend mem|file]
//! ```

use bytes::Bytes;
use cd_bench::slo::percentile;
use cd_bench::{parse_backend_file, section, with_shelves, MASTER_SEED};
use cd_core::pointset::PointSet;
use cd_core::rng::{seeded, splitmix64, subseed};
use cd_core::stats::Table;
use dh_dht::DhNetwork;
use dh_proto::engine::RetryPolicy;
use dh_proto::transport::{Recorder, Sim};
use dh_proto::{ChaosNet, CutDirection, NodeId};
use dh_obs::Obs;
use dh_replica::{ReplicatedDht, Shelves};
use rand::Rng;
use std::cell::RefCell;
use std::rc::Rc;

const M: u8 = 8;
const K: u8 = 4;
/// Grey nodes serve this many times slower than healthy ones.
const GREY_MULT: u64 = 8;
/// Per-mille of nodes marked grey in the grey scenarios.
const GREY_PERMILLE: u64 = 100;
/// Per-mille of nodes flapping in the flap scenario.
const FLAP_PERMILLE: u64 = 200;
/// Flap cycle length / down-time (effective ticks).
const FLAP_PERIOD: u64 = 30_000;
const FLAP_DOWN: u64 = 7_500;
/// Loss-burst drop probability (per-mille).
const BURST_PERMILLE: u64 = 300;
/// Epoch stride between ops: each op's engine restarts its clock at
/// zero, so the harness advances the chaos epoch by this much per op
/// to give schedules a continuous timeline.
const STRIDE: u64 = 10_000;

/// The chaos shape of one scenario cell.
#[derive(Clone, Copy)]
enum Chaos {
    None,
    Grey,
    Partition,
    Flap,
    Burst,
}

fn value_of(key: u64) -> Bytes {
    Bytes::from(format!("chaos-item-{key:08}-{:016x}", key.wrapping_mul(0x9E37)))
}

struct ScenOut {
    lat: Vec<u64>,
    served: usize,
    ops: usize,
    msgs: u64,
    hedged: u64,
    shed: u64,
    attempts: u64,
    fingerprint: u64,
}

impl ScenOut {
    fn availability(&self) -> f64 {
        self.served as f64 / self.ops.max(1) as f64
    }
    fn msgs_per_op(&self) -> f64 {
        self.msgs as f64 / self.ops.max(1) as f64
    }
}

/// One campaign cell: build a fresh store, preload it (healthy-path
/// commits; the RTT estimators warm on this traffic), then drive
/// `ops` quorum reads with the chaos schedules live, advancing the
/// chaos epoch per op. Ends with a full readback sweep past the chaos
/// windows: no committed write may be lost, whatever the weather was.
fn scenario<S: Shelves>(
    chaos: Chaos,
    hedged: bool,
    n: usize,
    items: usize,
    ops: usize,
    seed: u64,
    shelves: S,
) -> ScenOut {
    let mut rng = seeded(seed ^ 0xCA05);
    let net = DhNetwork::new(&PointSet::random(n, &mut rng));
    let mut dht = ReplicatedDht::with_shelves(net, M, K, shelves, &mut rng);
    let nodes: Vec<NodeId> = dht.net.live().to_vec();
    // One recorded chaos substrate shared (by handle) across every
    // per-op engine: the engines come and go, the weather persists.
    let shared = Rc::new(RefCell::new(Recorder::new(ChaosNet::new(
        Sim::new(seed).with_latency(4, 16, 4),
        seed ^ 0xC405,
    ))));

    // chaos windows sit in *effective* time, after the preload epochs
    let base = items as u64 * STRIDE;
    let end = base + ops as u64 * STRIDE;
    let third = (end - base) / 3;
    {
        let mut t = shared.borrow_mut();
        let c = t.inner_mut();
        match chaos {
            Chaos::None => {}
            Chaos::Grey => {
                c.grey_fraction(&nodes, GREY_PERMILLE, GREY_MULT);
            }
            Chaos::Partition => {
                c.bisect(&nodes, CutDirection::Both, base + third, base + 2 * third);
            }
            Chaos::Flap => {
                c.flap_fraction(&nodes, FLAP_PERMILLE, FLAP_PERIOD, FLAP_DOWN);
            }
            Chaos::Burst => {
                c.loss_burst(base + third, base + 2 * third, BURST_PERMILLE);
            }
        }
    }

    // preload: committed writes the measured reads will demand back.
    // Health observation is unconditional, so the estimators (and the
    // slow-node detector) warm on this traffic even under fixed retry.
    let retry_pre = RetryPolicy::patient();
    let mut epoch = 0u64;
    for key in 0..items as u64 {
        // under an always-on flap schedule a single put can lose all
        // its attempts to a down window; advancing the epoch between
        // tries moves the clock past it, so every key commits
        let mut committed = false;
        for try_no in 0..6u64 {
            shared.borrow_mut().inner_mut().set_epoch(epoch);
            let from = dht.net.random_node(&mut rng);
            let (out, _) = dht.put_over(
                from,
                key,
                value_of(key),
                shared.clone(),
                subseed(seed, key | (try_no << 48)),
                retry_pre,
            );
            if out.ok {
                committed = true;
                break;
            }
            epoch += STRIDE;
        }
        assert!(committed, "preload put of key {key} must commit within 6 tries");
        epoch += STRIDE;
    }
    // retries may have overrun the nominal preload window; the chaos
    // windows assume measurement starts at `base`
    epoch = epoch.max(base);

    // the measured read stream, one epoch stride per op
    let retry = if hedged { RetryPolicy::patient().hedged() } else { RetryPolicy::patient() };
    let mut out = ScenOut {
        lat: Vec::with_capacity(ops),
        served: 0,
        ops,
        msgs: 0,
        hedged: 0,
        shed: 0,
        attempts: 0,
        fingerprint: 0,
    };
    for i in 0..ops {
        shared.borrow_mut().inner_mut().set_epoch(epoch);
        let key = rng.gen_range(0..items as u64);
        let from = dht.net.random_node(&mut rng);
        let read = dht.get_quorum_traced(
            from,
            key,
            |_| shared.clone(),
            subseed(seed ^ 0x9E7, i as u64),
            retry,
        );
        if read.value == Some(value_of(key)) {
            out.served += 1;
        }
        out.lat.push(read.ticks);
        out.msgs += read.msgs;
        out.hedged += read.hedged;
        out.shed += read.shed;
        out.attempts += u64::from(read.attempts);
        epoch += STRIDE;
    }

    // past the chaos windows (partitions healed, bursts over): every
    // committed write must still be quorum-readable
    epoch = end + 4 * STRIDE;
    for key in 0..items as u64 {
        shared.borrow_mut().inner_mut().set_epoch(epoch);
        let from = dht.net.random_node(&mut rng);
        let read = dht.get_quorum_traced(
            from,
            key,
            |_| shared.clone(),
            subseed(seed ^ 0xAF7E, key),
            retry,
        );
        assert_eq!(
            read.value,
            Some(value_of(key)),
            "committed key {key} lost after the chaos window closed"
        );
        epoch += STRIDE;
    }

    out.fingerprint = shared.borrow().trace.fingerprint();
    out
}

/// One campaign cell's sizing, seed and backend choice.
#[derive(Clone, Copy)]
struct Cfg {
    n: usize,
    items: usize,
    ops: usize,
    seed: u64,
    file_backend: bool,
}

fn run_scenario(name: &str, chaos: Chaos, hedged: bool, cfg: Cfg) -> ScenOut {
    let Cfg { n, items, ops, seed, file_backend } = cfg;
    with_shelves!(file_backend, &format!("e-chaos-{name}"), Obs::off(), |shelves| {
        scenario(chaos, hedged, n, items, ops, seed, shelves)
    })
}

const MATRIX: [(&str, Chaos, bool); 7] = [
    ("healthy_fixed", Chaos::None, false),
    ("healthy_hedged", Chaos::None, true),
    ("grey_fixed", Chaos::Grey, false),
    ("grey_hedged", Chaos::Grey, true),
    ("partition_hedged", Chaos::Partition, true),
    ("flap_hedged", Chaos::Flap, true),
    ("burst_hedged", Chaos::Burst, true),
];

fn campaign(n: usize, items: usize, ops: usize, file_backend: bool) -> (Vec<ScenOut>, u64) {
    let mut outs = Vec::with_capacity(MATRIX.len());
    let mut fp = 0u64;
    for (i, &(name, chaos, hedged)) in MATRIX.iter().enumerate() {
        // the fixed/hedged variant of one chaos shape shares its seed:
        // same topology, same grey/flap/bisection sets — only the
        // policy differs, so the comparison is apples to apples
        let seed = MASTER_SEED ^ 0xCAB0 ^ splitmix64(match chaos {
            Chaos::None => 1,
            Chaos::Grey => 2,
            Chaos::Partition => 3,
            Chaos::Flap => 4,
            Chaos::Burst => 5,
        });
        let out = run_scenario(name, chaos, hedged, Cfg { n, items, ops, seed, file_backend });
        fp = splitmix64(fp ^ out.fingerprint ^ i as u64);
        outs.push(out);
    }
    (outs, fp)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let file_backend = parse_backend_file(&mut args);
    let mut args = args.into_iter();
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(600);
    let items: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(160);
    let ops: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(360);
    let expect_fp: Option<u64> =
        args.next().and_then(|a| u64::from_str_radix(a.trim_start_matches("0x"), 16).ok());
    let backend = if file_backend { "file" } else { "mem" };

    println!(
        "# E-chaos — grey-failure campaign (n = {n}, items = {items}, ops = {ops}/scenario, \
         m = {M}, k = {K}, backend = {backend})"
    );
    println!(
        "\ngrey: {GREY_PERMILLE}‰ of nodes ×{GREY_MULT} latency; flap: {FLAP_PERMILLE}‰ down \
         {FLAP_DOWN}/{FLAP_PERIOD} ticks; burst: {BURST_PERMILLE}‰ loss over the middle third"
    );

    section("scenario matrix (modeled ticks per quorum read)");
    let (outs, fp) = campaign(n, items, ops, file_backend);
    let (outs2, fp2) = campaign(n, items, ops, file_backend);
    assert_eq!(fp, fp2, "the chaos campaign must reproduce itself exactly");
    drop(outs2);

    let mut table = Table::new([
        "scenario", "avail", "p50", "p99", "p999", "msgs/op", "hedges", "shed", "attempts/op",
    ]);
    let mut p99s = Vec::with_capacity(outs.len());
    for (&(name, _, _), out) in MATRIX.iter().zip(&outs) {
        let mut lat = out.lat.clone();
        let (p50, p99, p999) =
            (percentile(&mut lat, 0.50), percentile(&mut lat, 0.99), percentile(&mut lat, 0.999));
        p99s.push(p99);
        table.row([
            name.to_string(),
            format!("{:.4}", out.availability()),
            format!("{p50:.0}"),
            format!("{p99:.0}"),
            format!("{p999:.0}"),
            format!("{:.1}", out.msgs_per_op()),
            format!("{}", out.hedged),
            format!("{}", out.shed),
            format!("{:.2}", out.attempts as f64 / out.ops.max(1) as f64),
        ]);
    }
    print!("{}", table.to_markdown());
    println!("campaign fingerprint: {fp:#018x}");

    // the tentpole acceptance pair: grey_fixed (index 2) vs
    // grey_hedged (index 3) share topology and grey set
    let (grey_fixed_p99, grey_hedged_p99) = (p99s[2], p99s[3]);
    assert!(
        grey_fixed_p99 >= 2.0 * grey_hedged_p99,
        "hedged reads must cut grey-node p99 ≥ 2× (fixed {grey_fixed_p99:.0} vs hedged \
         {grey_hedged_p99:.0} ticks)"
    );
    assert!(
        outs[3].availability() >= 0.999,
        "grey-node availability fell to {:.4}",
        outs[3].availability()
    );
    assert!(
        (outs[0].availability() - 1.0).abs() < f64::EPSILON,
        "healthy availability must be 1.0"
    );

    println!(
        "grey ×{GREY_MULT} p99: fixed {grey_fixed_p99:.0} ticks vs hedged {grey_hedged_p99:.0} ticks \
         ({:.1}×), availability {:.4}; post-chaos readback clean in all {} scenarios",
        grey_fixed_p99 / grey_hedged_p99.max(1.0),
        outs[3].availability(),
        MATRIX.len()
    );

    if let Some(want) = expect_fp {
        assert_eq!(
            fp, want,
            "chaos campaign fingerprint changed — a fault schedule, timeout bound or hedge \
             decision moved"
        );
        println!("fingerprint matches the pinned value");
    }
}
