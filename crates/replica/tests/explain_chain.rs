//! Explain-chain goldens: a fixed-seed lossy quorum get whose causal
//! chain contains a hedge wave and a retry must reconstruct the same
//! chain every run, and the recorder fingerprint over a traced
//! workload is bit-identical across runs — the flight recorder runs
//! on virtual engine time, so nothing outside the seed can move an
//! event.

use bytes::Bytes;
use cd_core::pointset::PointSet;
use cd_core::rng::seeded;
use dh_dht::DhNetwork;
use dh_obs::{EventKind, Obs};
use dh_proto::engine::RetryPolicy;
use dh_proto::transport::Sim;
use dh_replica::ReplicatedDht;

/// Foreground op id the traced get runs under.
const OP: u64 = 42;
const KEY: u64 = 7;

/// One traced lossy quorum get over a fresh store: populate under
/// background context, then read `KEY` under op `OP` through a
/// dropping transport with the hedged patient policy.
fn lossy_traced_get(drop_seed: u64) -> (Obs, Option<Bytes>) {
    let mut rng = seeded(0xE791);
    let net = DhNetwork::new(&PointSet::random(48, &mut rng));
    let mut dht = ReplicatedDht::new(net, 8, 4, &mut rng);
    let obs = Obs::recording(1 << 16);
    dht.set_obs(obs.clone());
    let from = dht.net.random_node(&mut rng);
    dht.put(from, KEY, Bytes::from_static(b"explain-me"), &mut rng);
    obs.begin_op(OP);
    let mk = |_: usize| Sim::new(drop_seed).with_latency(4, 16, 4).with_drop(0.25);
    let reader = dht.net.random_node(&mut rng);
    let got = dht.get_quorum(reader, KEY, mk, drop_seed, RetryPolicy::patient().hedged());
    (obs, got)
}

/// Deterministically pick the drop seed: the first one whose chain
/// holds at least one hedge wave, at least one retry, and still
/// serves the value. The scan is a pure function of the candidates,
/// so the golden below pins a fixed scenario.
fn golden_seed() -> u64 {
    (0..400u64)
        .find(|&s| {
            let (obs, got) = lossy_traced_get(s);
            let ex = obs.explain(OP).expect("recording");
            got.is_some() && ex.hedges() >= 1 && ex.retries() >= 1
        })
        .expect("some seed under 25% drop produces a hedge and a retry")
}

#[test]
fn explain_reconstructs_hedge_and_retry_chain() {
    let seed = golden_seed();
    assert_eq!(seed, GOLDEN_SEED, "the deterministic seed scan moved — re-pin the golden");
    let (obs, got) = lossy_traced_get(seed);
    assert_eq!(got.as_deref(), Some(&b"explain-me"[..]), "the traced get serves the value");
    let ex = obs.explain(OP).expect("recording");

    // structural invariants of a causal chain
    assert!(ex.events.windows(2).all(|w| w[0].at <= w[1].at), "chain is time-ordered");
    assert!(ex.events.iter().all(|e| e.op == OP), "explain filters to the op");
    assert!(!ex.truncated, "nothing evicted at this ring size");
    assert!(ex.hedges() >= 1, "the golden scenario hedges");
    assert!(ex.retries() >= 1, "the golden scenario retries");
    assert_eq!(
        ex.attempts(),
        ex.retries() as u32 + 1,
        "attempt numbering: one more attempt than retries"
    );
    assert!(
        ex.events.iter().any(|e| matches!(e.kind, EventKind::QuorumEntry { need: 4, .. })),
        "the get enters its quorum phase needing k = 4"
    );
    assert!(ex.acks() >= 3, "a served get gathered at least k - 1 wire acks");
    assert!(ex.bytes_sent() > 0);

    // the golden: same seed, same chain — event for event
    let (obs2, _) = lossy_traced_get(seed);
    let ex2 = obs2.explain(OP).expect("recording");
    assert_eq!(obs.fingerprint(), obs2.fingerprint(), "recorder fold is replayable");
    assert_eq!(ex.events, ex2.events, "the reconstructed chain is replayable event-for-event");
    assert_eq!(ex.events.len(), GOLDEN_CHAIN_EVENTS, "chain length drifted — re-pin the golden");
}

/// Pinned by the deterministic scan in [`golden_seed`]; update both
/// together when the protocol or the event vocabulary legitimately
/// moves.
const GOLDEN_SEED: u64 = 2;
const GOLDEN_CHAIN_EVENTS: usize = 71;

/// The golden lossy get: recorder fingerprint and event count out.
fn traced_fp() -> (u64, u64) {
    let (obs, got) = lossy_traced_get(GOLDEN_SEED);
    assert!(got.is_some());
    (obs.fingerprint(), obs.recorded())
}

#[test]
fn recorder_fingerprint_bit_identical_across_runs() {
    assert_eq!(traced_fp(), traced_fp(), "a second run moved a recorded event");
}
