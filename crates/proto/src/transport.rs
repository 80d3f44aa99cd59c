//! Pluggable message-delivery substrates.
//!
//! A [`Transport`] decides, for each sent [`Envelope`], *when* (and
//! whether, and how many times) it arrives. The engine turns those
//! decisions into deliveries on its priority-queue clock, so latency,
//! loss, duplication and reordering are entirely the transport's
//! business and every protocol above runs unchanged on all of them.
//!
//! | transport | behavior |
//! | --- | --- |
//! | [`Inline`] | zero latency, FIFO — direct dispatch, routes bit-identical to the synchronous algorithms |
//! | [`Sim`] | per-link latency + per-message jitter, seeded drops and duplication (jitter ⇒ reordering) |
//! | [`Recorder`] | wraps any transport, folds every decision into a fingerprint |
//! | [`crate::fault::ChaosNet`] | wraps any transport with the §6 failure models and grey failures |

use crate::node::NodeId;
use crate::wire::Envelope;
use cd_core::rng::{seeded, splitmix64};
use rand::rngs::StdRng;
use rand::Rng;

/// One planned arrival of a sent message.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Delivery {
    /// Absolute engine time of the arrival.
    pub at: u64,
    /// Whether the payload was corrupted in flight (false message
    /// injection; see [`crate::fault`]).
    pub corrupt: bool,
}

/// A message-delivery substrate. Implementations must be
/// deterministic: the same sequence of `plan` calls (same `now`, same
/// envelopes) must produce the same deliveries.
pub trait Transport {
    /// Plan the arrivals of `env`, sent at time `now`, by pushing zero
    /// or more [`Delivery`] entries (none ⇒ the message is lost).
    fn plan(&mut self, now: u64, env: &Envelope, out: &mut Vec<Delivery>);
}

/// A lent transport: an engine run borrows `&mut T`, so successive
/// runs drive the same substrate and its RNG stream and recorded fold
/// are continuous across operations.
impl<T: Transport + ?Sized> Transport for &mut T {
    fn plan(&mut self, now: u64, env: &Envelope, out: &mut Vec<Delivery>) {
        (**self).plan(now, env, out)
    }
}

/// Zero-overhead direct dispatch: every message arrives instantly and
/// in order. The engine over `Inline` executes exactly the synchronous
/// hop sequence of `DhNetwork::lookup` (property-tested in `dh_dht`).
#[derive(Clone, Copy, Default, Debug)]
pub struct Inline;

impl Transport for Inline {
    fn plan(&mut self, now: u64, _env: &Envelope, out: &mut Vec<Delivery>) {
        out.push(Delivery { at: now, corrupt: false });
    }
}

/// A latency/loss/duplication model.
///
/// Each link `(src, dst)` gets a fixed base latency in
/// `[latency_min, latency_max]` (derived by hashing the link with the
/// seed), and every message adds per-message jitter in `[0, jitter]`
/// drawn from the transport's own RNG — so messages on the *same* link
/// can overtake each other. Drops and duplication are Bernoulli with
/// the configured probabilities. Fully deterministic per seed.
#[derive(Clone, Debug)]
pub struct Sim {
    /// Smallest per-link base latency (ticks).
    pub latency_min: u64,
    /// Largest per-link base latency (ticks).
    pub latency_max: u64,
    /// Per-message jitter bound (ticks); > 0 enables same-link
    /// reordering.
    pub jitter: u64,
    /// Probability a message is lost.
    pub drop_p: f64,
    /// Probability a message is duplicated (two arrivals).
    pub dup_p: f64,
    seed: u64,
    rng: StdRng,
}

impl Sim {
    /// A lossless WAN-ish model: link latencies 4–16 ticks, jitter 4.
    pub fn new(seed: u64) -> Self {
        Sim {
            latency_min: 4,
            latency_max: 16,
            jitter: 4,
            drop_p: 0.0,
            dup_p: 0.0,
            seed,
            rng: seeded(splitmix64(seed ^ 0x51B0_7A5E)),
        }
    }

    /// Set the loss probability.
    pub fn with_drop(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "drop probability {p} out of range");
        self.drop_p = p;
        self
    }

    /// Set the duplication probability.
    pub fn with_dup(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "dup probability {p} out of range");
        self.dup_p = p;
        self
    }

    /// Set the latency band and per-message jitter.
    pub fn with_latency(mut self, min: u64, max: u64, jitter: u64) -> Self {
        assert!(min <= max);
        self.latency_min = min;
        self.latency_max = max;
        self.jitter = jitter;
        self
    }

    /// The fixed base latency of the directed link `src → dst`.
    pub fn link_latency(&self, src: NodeId, dst: NodeId) -> u64 {
        let span = self.latency_max - self.latency_min;
        let h = splitmix64(self.seed ^ (u64::from(src.0) << 32) ^ u64::from(dst.0));
        self.latency_min + if span == 0 { 0 } else { h % (span + 1) }
    }
}

impl Transport for Sim {
    fn plan(&mut self, now: u64, env: &Envelope, out: &mut Vec<Delivery>) {
        if self.drop_p > 0.0 && self.rng.gen_bool(self.drop_p) {
            return;
        }
        let base = now + self.link_latency(env.src, env.dst);
        let jitter = |rng: &mut StdRng, j: u64| if j == 0 { 0 } else { rng.gen_range(0..=j) };
        let j0 = jitter(&mut self.rng, self.jitter);
        out.push(Delivery { at: base + j0, corrupt: false });
        if self.dup_p > 0.0 && self.rng.gen_bool(self.dup_p) {
            let j1 = jitter(&mut self.rng, self.jitter);
            out.push(Delivery { at: base + j1, corrupt: false });
        }
    }
}

/// Wraps any transport and folds every decision it makes into a
/// running 64-bit fingerprint (order-sensitive): identical decision
/// sequences ⇒ identical folds, so asserting a fingerprint pins the
/// entire event schedule of a seeded run.
pub struct Recorder<T> {
    inner: T,
    fp: u64,
}

impl<T: Transport> Recorder<T> {
    /// Record the decisions of `inner`.
    pub fn new(inner: T) -> Self {
        Recorder { inner, fp: 0xcbf2_9ce4_8422_2325 }
    }

    /// The fold of every decision so far.
    pub fn fingerprint(&self) -> u64 {
        self.fp
    }

    /// The wrapped transport (e.g. to schedule `ChaosNet` faults
    /// mid-recording).
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: Transport> Transport for Recorder<T> {
    fn plan(&mut self, now: u64, env: &Envelope, out: &mut Vec<Delivery>) {
        let start = out.len();
        self.inner.plan(now, env, out);
        let mut h = self.fp;
        let mut mix = |v: u64| h = splitmix64(h ^ v);
        mix(now);
        mix((u64::from(env.src.0) << 32) | u64::from(env.dst.0));
        mix((u64::from(env.msg.tag()) << 56) | env.msg.wire_bytes());
        for d in &out[start..] {
            mix(d.at.wrapping_mul(2).wrapping_add(u64::from(d.corrupt)));
        }
        mix((out.len() - start) as u64);
        self.fp = h;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{Action, Wire};
    use cd_core::point::Point;

    fn env(src: u32, dst: u32) -> Envelope {
        Envelope {
            src: NodeId(src),
            dst: NodeId(dst),
            msg: Wire::LookupStep {
                op: 0,
                attempt: 0,
                step: 0,
                at: Point(42),
                digits: 0,
                action: Action::Locate,
            },
            corrupt: false,
        }
    }

    #[test]
    fn inline_is_instant() {
        let mut t = Inline;
        let mut out = Vec::new();
        t.plan(7, &env(0, 1), &mut out);
        assert_eq!(out, vec![Delivery { at: 7, corrupt: false }]);
    }

    #[test]
    fn sim_is_deterministic_per_seed() {
        let runs: Vec<Vec<Delivery>> = (0..2)
            .map(|_| {
                let mut t = Sim::new(9).with_drop(0.2).with_dup(0.2);
                let mut all = Vec::new();
                for i in 0..200u32 {
                    let mut out = Vec::new();
                    t.plan(u64::from(i), &env(i % 7, (i + 1) % 7), &mut out);
                    all.extend(out);
                }
                all
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert!(!runs[0].is_empty());
    }

    #[test]
    fn sim_latency_is_within_band_and_link_stable() {
        let t = Sim::new(3).with_latency(5, 9, 0);
        for s in 0..20 {
            for d in 0..20 {
                let l = t.link_latency(NodeId(s), NodeId(d));
                assert!((5..=9).contains(&l));
                assert_eq!(l, t.link_latency(NodeId(s), NodeId(d)));
            }
        }
    }

    #[test]
    fn recorder_replay_roundtrip() {
        let fold = |dst_of: fn(u32) -> u32| {
            let mut rec = Recorder::new(Sim::new(11).with_drop(0.3).with_dup(0.3));
            for i in 0..100u32 {
                rec.plan(u64::from(i), &env(i, dst_of(i)), &mut Vec::new());
            }
            rec.fingerprint()
        };
        // the fold is a pure function of the sends and their deliveries
        assert_eq!(fold(|i| i + 1), fold(|i| i + 1));
        // …and one differing send moves it
        assert_ne!(fold(|i| i + 1), fold(|i| if i == 57 { i + 2 } else { i + 1 }));
    }
}
