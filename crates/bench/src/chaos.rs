//! The grey-failure campaign behind the `e_chaos` pin row
//! ([`crate::pins`]) and the `e_chaos` report: does the
//! graceful-degradation layer actually degrade gracefully?
//!
//! The §6 fault harnesses measure binary failures (fail-stop, liars).
//! Deployed overlays mostly die of failures the binary model cannot
//! express: slow-but-alive peers, flapping processes, partitions,
//! congestion loss. The campaign sweeps a scenario matrix of exactly
//! those shapes over the replicated store at [`SHAPE`], crossing chaos
//! shapes with retry policies:
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
//! Every chaos decision (who is grey, who flaps, which sends a burst
//! eats, how a bisection splits) is a pure function of the chaos seed,
//! and latencies are modeled ticks — so the whole campaign
//! fingerprints: each cell's recorded delivery trace is hashed and the
//! per-cell fingerprints chain into the one campaign fingerprint the
//! table pins on both storage backends.

use crate::slo::{GREY_MULT, GREY_PERMILLE, K, M};
use crate::{with_shelves, MASTER_SEED};
use bytes::Bytes;
use cd_core::pointset::PointSet;
use cd_core::rng::{seeded, splitmix64, subseed};
use dh_dht::DhNetwork;
use dh_obs::Obs;
use dh_proto::engine::RetryPolicy;
use dh_proto::transport::{Recorder, Sim};
use dh_proto::{ChaosNet, CutDirection, NodeId};
use dh_replica::{ReplicatedDht, Shelves};
use rand::Rng;
use std::cell::RefCell;
use std::rc::Rc;

/// The campaign's one shape: servers, preloaded items, measured reads
/// per cell.
pub const SHAPE: (usize, usize, usize) = (600, 160, 360);
/// Per-mille of nodes flapping in the flap scenario.
pub const FLAP_PERMILLE: u64 = 200;
/// Flap cycle length (effective ticks)…
pub const FLAP_PERIOD: u64 = 30_000;
/// …and the down-time within it.
pub const FLAP_DOWN: u64 = 7_500;
/// Loss-burst drop probability (per-mille).
pub const BURST_PERMILLE: u64 = 300;
/// Epoch stride between ops: each op's engine restarts its clock at
/// zero, so the campaign advances the chaos epoch by this much per op
/// to give schedules a continuous timeline.
const STRIDE: u64 = 10_000;

/// The chaos shape of one cell; the discriminant salts its seed.
#[derive(Clone, Copy)]
enum Chaos {
    None = 1,
    Grey = 2,
    Partition = 3,
    Flap = 4,
    Burst = 5,
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

fn value_of(key: u64) -> Bytes {
    Bytes::from(format!("chaos-item-{key:08}-{:016x}", key.wrapping_mul(0x9E37)))
}

/// What one cell of the matrix measured over its read stream.
pub struct Cell {
    /// The scenario's name in the matrix.
    pub name: &'static str,
    /// Modeled engine ticks of every quorum read.
    pub lat: Vec<u64>,
    /// Reads that returned the committed value.
    pub served: usize,
    /// Messages sent, failovers, retries and hedges included.
    pub msgs: u64,
    /// Hedge waves launched.
    pub hedged: u64,
    /// Coordinator attempts.
    pub attempts: u64,
    /// Fold of the cell's recorded delivery trace.
    pub fingerprint: u64,
}

impl Cell {
    /// Fraction of reads that returned the committed value.
    pub fn availability(&self) -> f64 {
        self.served as f64 / self.lat.len().max(1) as f64
    }
}

/// `q`-quantile of an unsorted sample (sorts it).
pub fn percentile(lat: &mut [u64], q: f64) -> f64 {
    if lat.is_empty() {
        return 0.0;
    }
    lat.sort_unstable();
    let idx = ((lat.len() - 1) as f64 * q).round() as usize;
    lat[idx] as f64
}

/// One campaign cell: build a fresh store, preload it (healthy-path
/// commits; the RTT estimators warm on this traffic), then drive the
/// quorum reads with the chaos schedules live, advancing the chaos
/// epoch per op. Ends with a full readback sweep past the chaos
/// windows: no committed write may be lost, whatever the weather was.
fn cell<S: Shelves>(
    name: &'static str,
    chaos: Chaos,
    hedged: bool,
    seed: u64,
    shelves: S,
) -> Cell {
    let (n, items, ops) = SHAPE;
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
    let mut out = Cell {
        name,
        lat: Vec::with_capacity(ops),
        served: 0,
        msgs: 0,
        hedged: 0,
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

    out.fingerprint = shared.borrow().fingerprint();
    out
}

/// Run the whole matrix on fresh shelves of the chosen backend:
/// every cell, and the campaign fingerprint chained over them.
pub fn campaign(file_backend: bool) -> (Vec<Cell>, u64) {
    let mut cells = Vec::with_capacity(MATRIX.len());
    let mut fp = 0u64;
    for (i, &(name, chaos, hedged)) in MATRIX.iter().enumerate() {
        // the fixed/hedged variant of one chaos shape shares its seed:
        // same topology, same grey/flap/bisection sets — only the
        // policy differs, so the comparison is apples to apples
        let seed = MASTER_SEED ^ 0xCAB0 ^ splitmix64(chaos as u64);
        let out = with_shelves!(file_backend, &format!("e-chaos-{name}"), Obs::off(), |shelves| {
            cell(name, chaos, hedged, seed, shelves)
        });
        fp = splitmix64(fp ^ out.fingerprint ^ i as u64);
        cells.push(out);
    }
    (cells, fp)
}
