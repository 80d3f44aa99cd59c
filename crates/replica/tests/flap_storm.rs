//! Flapping-node storm: 20% of the nodes fail and recover on a seeded
//! periodic schedule ([`dh_proto::FlapSchedule`]) while put/get
//! traffic runs. Two claims:
//!
//! * **zero lost committed writes** — every put that reached its
//!   write quorum stays quorum-readable, flappers or not (a down node
//!   is transient unavailability, never data loss);
//! * **bounded wasted messages** — hedged failover routes around down
//!   covers instead of burning unbounded retries, so the storm's
//!   per-read wire cost stays within a small multiple of the healthy
//!   baseline measured on the same store.
//!
//! Every flap decision (who flaps, each node's phase) is a pure
//! function of the chaos seed, so the storm replays exactly.

use bytes::Bytes;
use cd_core::pointset::PointSet;
use cd_core::rng::{seeded, subseed};
use dh_dht::DhNetwork;
use dh_obs::{EventKind, Obs, BACKGROUND};
use dh_proto::engine::RetryPolicy;
use dh_proto::transport::Sim;
use dh_proto::{ChaosNet, NodeId};
use dh_replica::{QuorumRead, ReplicatedDht};
use rand::Rng;
use std::collections::BTreeMap;

/// Clock stride between ops: the store's clock advances at least this
/// much per op, spreading the ops over the flap schedules.
const STRIDE: u64 = 10_000;
const M: u8 = 8;
const K: u8 = 4;
/// Per-mille of nodes on a fail/recover cycle.
const FLAP_PERMILLE: u64 = 200;
/// Flap cycle length / down-time (engine ticks): down a quarter of
/// the time, phases seeded per node.
const FLAP_PERIOD: u64 = 30_000;
const FLAP_DOWN: u64 = 7_500;

fn value_of(key: u64) -> Bytes {
    Bytes::from(format!("flap-item-{key:06}-{:08x}", key.wrapping_mul(0x9E37)))
}

#[test]
fn flap_storm_no_lost_commits_bounded_waste() {
    let seed = 0xF1A9_0007u64;
    let mut rng = seeded(seed);
    let net = DhNetwork::new(&PointSet::random(64, &mut rng));
    let mut dht = ReplicatedDht::new(net, M, K, &mut rng);
    // the flight recorder rides along: the storm must leave a visible
    // trail of detector verdicts, not just survive
    let obs = Obs::recording(1 << 18);
    dht.set_obs(obs.clone());
    let nodes: Vec<NodeId> = dht.net.live().to_vec();
    let mut chaos = ChaosNet::new(Sim::new(seed ^ 0x51).with_latency(4, 16, 4), seed ^ 0xF1A9);
    let retry = RetryPolicy::patient().hedged();
    let mut epoch = 0u64;

    let read = |dht: &mut ReplicatedDht,
                chaos: &mut ChaosNet<Sim>,
                epoch: u64,
                key: u64,
                salt: u64,
                rng: &mut rand::rngs::StdRng|
     -> QuorumRead {
        dht.advance_to(epoch);
        let from = dht.net.random_node(rng);
        dht.get_quorum(from, key, chaos, subseed(seed ^ salt, key), retry)
    };

    // healthy baseline: commit an initial population and price quorum
    // reads before anyone flaps
    let mut committed: BTreeMap<u64, Bytes> = BTreeMap::new();
    for key in 0..40u64 {
        dht.advance_to(epoch);
        let from = dht.net.random_node(&mut rng);
        let (out, _) = dht.put_over(
            from,
            key,
            value_of(key),
            &mut chaos,
            subseed(seed, key),
            RetryPolicy::patient(),
        );
        assert!(out.ok, "a healthy put must commit");
        committed.insert(key, value_of(key));
        epoch += STRIDE;
    }
    let mut healthy_msgs = 0u64;
    const BASELINE_READS: u64 = 40;
    for i in 0..BASELINE_READS {
        let key = rng.gen_range(0..40u64);
        let r = read(&mut dht, &mut chaos, epoch, key, 0xBA5E ^ i, &mut rng);
        assert_eq!(r.value, Some(value_of(key)), "healthy read of {key} failed");
        healthy_msgs += r.msgs;
        epoch += STRIDE;
    }
    let healthy_per_read = healthy_msgs as f64 / BASELINE_READS as f64;

    // now 20% of the population starts flapping
    let flappers = chaos.flap_fraction(&nodes, FLAP_PERMILLE, FLAP_PERIOD, FLAP_DOWN);
    assert!(
        !flappers.is_empty() && flappers.len() * 3 < nodes.len(),
        "a real but minority flapper set, got {}/{}",
        flappers.len(),
        nodes.len()
    );

    // the storm: interleaved puts (fresh keys) and reads of random
    // committed keys, flap schedules live throughout
    let mut next_key = 40u64;
    let (mut storm_msgs, mut storm_attempts, mut storm_retries) = (0u64, 0u64, 0u64);
    let mut storm_reads = 0u64;
    let mut served = 0u64;
    for op in 0..120u64 {
        if op % 3 == 0 {
            // a put can lose all its attempts to a down window;
            // advancing the clock between tries moves it past the
            // window, so every key eventually commits — and only a
            // *committed* put joins the must-survive set
            let key = next_key;
            next_key += 1;
            let mut ok = false;
            for try_no in 0..6u64 {
                dht.advance_to(epoch);
                let from = dht.net.random_node(&mut rng);
                let (out, _) = dht.put_over(
                    from,
                    key,
                    value_of(key),
                    &mut chaos,
                    subseed(seed, key | (try_no << 48)),
                    RetryPolicy::patient(),
                );
                epoch += STRIDE;
                if out.ok {
                    ok = true;
                    break;
                }
            }
            assert!(ok, "put of key {key} must commit within 6 tries under 20% flap");
            committed.insert(key, value_of(key));
        } else {
            let (&key, want) = committed
                .range(rng.gen::<u64>() % next_key..)
                .next()
                .or_else(|| committed.iter().next())
                .expect("population is never empty");
            let r = read(&mut dht, &mut chaos, epoch, key, 0x57A6 ^ op, &mut rng);
            if r.value.as_ref() == Some(want) {
                served += 1;
            }
            storm_msgs += r.msgs;
            storm_attempts += u64::from(r.attempts);
            storm_retries += r.retries;
            storm_reads += 1;
            epoch += STRIDE;
        }
    }

    // a flapped cover is routed around, not waited out: most reads
    // serve mid-storm, and the wire cost stays a small multiple of
    // the healthy baseline
    let avail = served as f64 / storm_reads as f64;
    assert!(avail >= 0.95, "mid-storm availability fell to {avail:.3}");
    let storm_per_read = storm_msgs as f64 / storm_reads as f64;
    assert!(
        storm_per_read <= 8.0 * healthy_per_read,
        "wasted messages unbounded: {storm_per_read:.1}/read vs healthy {healthy_per_read:.1}"
    );
    assert!(
        storm_attempts as f64 / storm_reads as f64 <= 6.0,
        "failover attempts unbounded: {storm_attempts} over {storm_reads} reads"
    );
    assert!(
        storm_retries as f64 / storm_reads as f64 <= 16.0,
        "engine retries unbounded: {storm_retries} over {storm_reads} reads"
    );

    // the detector's verdicts are observable, not inferred: the storm
    // must have flipped suspicion up at least once, every up-edge must
    // name a real node, and at least one names a configured flapper
    let edges: Vec<(u32, bool)> = obs
        .explain(BACKGROUND)
        .expect("recording")
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::SuspicionEdge { node, up, .. } => Some((node, up)),
            _ => None,
        })
        .collect();
    let ups: Vec<u32> = edges.iter().filter(|&&(_, up)| up).map(|&(n, _)| n).collect();
    assert!(!ups.is_empty(), "a 20% flap storm must raise at least one suspicion verdict");
    assert!(
        ups.iter().all(|&n| (n as usize) < nodes.len()),
        "suspicion edges must name real nodes"
    );
    assert!(
        ups.iter().any(|&n| flappers.contains(&NodeId(n))),
        "at least one up-verdict should land on a configured flapper: ups {ups:?} vs {flappers:?}"
    );
    {
        // the accessors agree with the verdict stream: every currently
        // suspect node is reported suspect, and the estimator has a
        // per-destination RTO for nodes that carried traffic
        let h = dht.health();
        for node in h.suspect_nodes() {
            assert!(h.is_suspect(node), "suspect_nodes() must agree with is_suspect()");
            assert!(h.suspicion(node) > 0, "a suspect carries a nonzero level");
        }
        assert!(
            nodes.iter().any(|&nd| h.rto(nd).is_some()),
            "per-destination RTT estimators must have fed on delivered traffic"
        );
    }

    // zero lost committed writes: every committed key reads back
    // exactly, flap schedules still live. A read may land in a bad
    // down window; advancing the clock retries it later — transient
    // unavailability is allowed, data loss is not.
    for (&key, want) in &committed {
        let mut got = None;
        for try_no in 0..4u64 {
            let r = read(&mut dht, &mut chaos, epoch, key, 0xAF7E ^ (try_no << 32), &mut rng);
            epoch += STRIDE;
            if r.value.is_some() {
                got = r.value;
                break;
            }
        }
        assert_eq!(got.as_ref(), Some(want), "committed key {key} lost under flapping");
    }
    assert_eq!(dht.items(), committed.len(), "shelves must track the committed population");
}
