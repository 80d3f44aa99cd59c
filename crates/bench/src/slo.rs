//! The storage scenario behind two pin rows ([`crate::pins`]: `e_slo`
//! with the recorder off, `e_obs` with it on) and the `e_obs` report,
//! plus the mem/file dispatch the storage scenarios share
//! ([`crate::with_shelves!`]).
//!
//! One seeded stream over a `ReplicatedDht` on a latency-modelled
//! `Sim`:
//!
//! * **Zipf popularity** (s = 1) over the key space — the head keys
//!   absorb most of the traffic, as in any real cache/store trace,
//! * a **70/30 get/put mix** driven through the full wire engine
//!   (`Recorder<Sim>`), with every get checked against the last
//!   committed write of that key,
//! * **churn + paced repair** interleaved: every [`CHURN_EVERY`]-th
//!   foreground op a server joins or leaves; the repair plan's wire
//!   frames queue in the replica outbox and at most [`PACE`] of them
//!   are pumped after each foreground op (`pump_repair`), spreading the
//!   repair tax across the stream instead of stalling one op.
//!
//! The stream is a pure function of the seed, and the recorder handle
//! draws nothing, so the wire fingerprint is the same with
//! [`Obs::off`] and a recording handle, on either backend. What an op
//! cost is reported in engine ticks ([`Run::gets`]); the arrival clock,
//! the queue and every wall-clock latency of this scenario live in
//! `benchmark/`'s `churn_slo` workload; nothing here reads a clock.

use bytes::Bytes;
use cd_core::pointset::PointSet;
use cd_core::rng::{seeded, subseed};
use cd_core::Point;
use dh_dht::DhNetwork;
use dh_obs::{Obs, BACKGROUND};
use dh_proto::engine::RetryPolicy;
use dh_proto::transport::{Recorder, Sim, Transport};
use dh_proto::{ChaosNet, NodeId};
use dh_replica::{RepairReport, ReplicatedDht, Shelves};
use rand::Rng;

/// Shares per item.
pub const M: u8 = 8;
/// Shares that reconstruct it.
pub const K: u8 = 4;
/// One churn event (alternating leave/join) per this many requests.
pub const CHURN_EVERY: usize = 150;
/// Repair frames pumped after each foreground request.
pub const PACE: u32 = 8;
/// Degraded pass: per-mille of nodes grey (the `e_chaos` grey shape)…
pub const GREY_PERMILLE: u64 = 100;
/// …and their service slowdown.
pub const GREY_MULT: u64 = 8;

/// Run `$body` with `$shelves` bound to fresh shelves of the chosen
/// backend: RAM, or a WAL in a scratch file tagged `$tag` that lives
/// as long as the body and records its storage plane into `$obs`.
#[macro_export]
macro_rules! with_shelves {
    ($file_backend:expr, $tag:expr, $obs:expr, |$shelves:ident| $body:expr) => {
        if $file_backend {
            let scratch = dh_store::ScratchPath::new($tag);
            let mut $shelves = dh_store::FileShelves::open(scratch.path()).expect("open WAL");
            $shelves.set_obs($obs.clone());
            $body
        } else {
            let $shelves = dh_store::MemShelves::new();
            $body
        }
    };
}

fn value_of(key: u64, gen: u32) -> Bytes {
    Bytes::from(format!("slo-item-{key:08}-gen{gen:04}-{:016x}", key.wrapping_mul(0x9E37)))
}

/// What one pass of the scenario measured.
pub struct Run {
    /// `(op id, engine ticks to completion)` of every get, in stream
    /// order. The op id is the stream index, so the tail is
    /// explainable from the recorder.
    pub gets: Vec<(u64, u64)>,
    /// Repair traffic of the whole stream.
    pub repair: RepairReport,
    /// Churn events executed.
    pub churn_events: usize,
    /// The transport-trace fingerprint (the pinned one).
    pub wire_fp: u64,
    /// The recorder handle the pass ran under.
    pub obs: Obs,
}

/// The recorded scenario over `(n, items, ops)`. `make_rec` builds the
/// recorded substrate once the membership is known; `retry` is the
/// policy the foreground ops run under. Each foreground request runs
/// under its own op context of `obs`; preload, churn and the repair
/// pump are background.
fn scenario<S: Shelves, T: Transport>(
    (n, items, ops): (usize, usize, usize),
    seed: u64,
    shelves: S,
    retry: RetryPolicy,
    obs: Obs,
    make_rec: impl FnOnce(&[NodeId]) -> Recorder<T>,
) -> Run {
    let mut rng = seeded(seed ^ 0x510);
    let net = DhNetwork::new(&PointSet::random(n, &mut rng));
    let mut dht = ReplicatedDht::with_shelves(net, M, K, shelves, &mut rng);
    dht.set_obs(obs.clone());
    let mut rec = make_rec(dht.net.live());
    dht.set_repair_pacing(Some(PACE));

    // preload the key space (not part of the measured stream)
    obs.begin_op(BACKGROUND);
    let mut gens = vec![0u32; items];
    for key in 0..items as u64 {
        let from = dht.net.random_node(&mut rng);
        let (out, _) =
            dht.put_over(from, key, value_of(key, 0), &mut rec, subseed(seed, key), retry);
        assert!(out.ok, "preload put must commit");
    }

    // Zipf(s = 1) popularity: cumulative weights + binary search
    let mut cum = Vec::with_capacity(items);
    let mut total = 0.0f64;
    for rank in 0..items {
        total += 1.0 / (rank + 1) as f64;
        cum.push(total);
    }

    let mut gets = Vec::with_capacity(ops);
    let mut repair = RepairReport::default();
    let mut churn_events = 0usize;
    for i in 0..ops {
        // only the *plan* of a churn event runs here — its wire frames
        // drain PACE-at-a-time below
        if i % CHURN_EVERY == CHURN_EVERY - 1 {
            if churn_events.is_multiple_of(2) {
                let victim = dht.net.random_node(&mut rng);
                let (_, report) = dht.leave_over(victim, &mut rec, subseed(seed ^ 0xC4, i as u64));
                assert_eq!(report.items_lost, 0, "single-leave churn cannot lose items");
                repair.merge(&report);
            } else if let Some((_, _, report)) = dht.join_over(
                dht.net.random_node(&mut rng),
                Point(rng.gen()),
                dht.kind,
                subseed(seed ^ 0xC4, i as u64),
                &mut rec,
                retry,
            ) {
                repair.merge(&report);
            }
            churn_events += 1;
        }

        // Zipf-popular key, 70/30 get/put
        let u = rng.gen::<f64>() * total;
        let key = cum.partition_point(|&c| c < u).min(items - 1);
        let from = dht.net.random_node(&mut rng);
        let is_put = rng.gen_range(0..10u32) < 3;
        obs.begin_op(i as u64);
        if is_put {
            gens[key] += 1;
            let (out, _) = dht.put_over(
                from,
                key as u64,
                value_of(key as u64, gens[key]),
                &mut rec,
                subseed(seed ^ 0xF0, i as u64),
                retry,
            );
            assert!(out.ok, "lossless put must commit");
        } else {
            let (out, value) =
                dht.get_over(from, key as u64, &mut rec, subseed(seed ^ 0xF1, i as u64), retry);
            assert_eq!(
                value,
                Some(value_of(key as u64, gens[key])),
                "get of key {key} must serve the last committed write, even mid-repair"
            );
            gets.push((i as u64, out.completed_at.expect("a served get completed")));
        }
        // the paced repair tax: at most PACE frames interleave here,
        // as background work
        obs.begin_op(BACKGROUND);
        let (m, b) = dht.pump_repair(&mut rec, subseed(seed ^ 0xF2, i as u64));
        repair.msgs += m;
        repair.bytes += b;
    }
    // drain what churn still owes, then prove nothing was lost
    let (m, b) = dht.flush_repair(&mut rec, seed ^ 0xF3);
    repair.msgs += m;
    repair.bytes += b;
    for key in (0..items).step_by((items / 32).max(1)) {
        let from = dht.net.random_node(&mut rng);
        let (_, value) =
            dht.get_over(from, key as u64, &mut rec, subseed(seed ^ 0x9E7, key as u64), retry);
        assert_eq!(value, Some(value_of(key as u64, gens[key])), "item {key} lost under churn");
    }
    // drain the health ledger into the registry (RTO + suspicion
    // gauges per node)
    dht.health().export(&obs);

    Run {
        gets,
        repair,
        churn_events,
        wire_fp: rec.fingerprint(),
        obs,
    }
}

/// One pass over `shape = (n, items, ops)` on fresh shelves of the
/// chosen backend. The healthy pass runs a lossless `Sim` under patient
/// retries; the `grey` pass runs the identical schedule over a grey
/// substrate ([`GREY_PERMILLE`]‰ of nodes ×[`GREY_MULT`] slower) under
/// the hedged policy. `obs` may be [`Obs::off`].
pub fn run(
    shape: (usize, usize, usize),
    seed: u64,
    file_backend: bool,
    grey: bool,
    obs: Obs,
) -> Run {
    let sim = || Sim::new(seed).with_latency(4, 16, 4);
    with_shelves!(file_backend, "slo", obs, |shelves| if grey {
        scenario(shape, seed, shelves, RetryPolicy::patient().hedged(), obs, |nodes| {
            let mut chaos = ChaosNet::new(sim(), seed ^ 0xC405);
            let slowed = chaos.grey_fraction(nodes, GREY_PERMILLE, GREY_MULT);
            assert!(!slowed.is_empty(), "the grey pick must land on someone");
            Recorder::new(chaos)
        })
    } else {
        scenario(shape, seed, shelves, RetryPolicy::patient(), obs, |_| Recorder::new(sim()))
    })
}

/// The one shape the table pins and `e_obs` reports on: servers,
/// items, foreground ops.
pub const SHAPE: (usize, usize, usize) = (2_000, 400, 800);

/// [`run`] at the pinned [`SHAPE`] and seed.
pub fn pinned(file_backend: bool, grey: bool, obs: Obs) -> Run {
    run(SHAPE, crate::MASTER_SEED ^ 0x510, file_backend, grey, obs)
}
