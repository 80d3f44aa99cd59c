//! The SLO stream behind two pin rows ([`crate::pins`]: `e_slo` with
//! the recorder off, `e_obs` with it on) and the `e_obs` report: one
//! [`Scenario`] over a `ReplicatedDht` on a latency-modelled `Sim`.
//!
//! * **Zipf popularity** (s = 1) over the key space — the head keys
//!   absorb most of the traffic, as in any real cache/store trace,
//! * a **70/30 get/put mix**, every get checked against the
//!   committed-register model,
//! * **churn + paced repair** interleaved: every [`CHURN_EVERY`] ops a
//!   server leaves or joins, in turn; the repair plan's wire frames
//!   queue in the replica outbox and at most [`PACE`] of them are
//!   pumped after each op, spreading the repair tax across the stream
//!   instead of stalling one op.
//!
//! The stream is a pure function of the seed, and the recorder handle
//! draws nothing, so the wire fingerprint is the same with
//! [`Obs::off`] and a recording handle, on either backend. What an op
//! cost is reported in engine ticks ([`Outcome::gets`]); the arrival
//! clock, the queue and every wall-clock latency of this stream live
//! in `benchmark/`'s `churn_slo` workload; nothing here reads a clock.

use crate::scenario::{play, Backend, Op, Outcome, Phase, Scenario, Weather};
use dh_obs::Obs;
use dh_proto::engine::RetryPolicy;

/// Shares per item.
pub const M: u8 = 8;
/// Shares that reconstruct it.
pub const K: u8 = 4;
/// One churn event (alternating leave/join) per this many requests.
pub const CHURN_EVERY: usize = 150;
/// Repair frames pumped after each op.
pub const PACE: u32 = 8;

/// One pass over `shape = (n, items, ops)` on fresh shelves of
/// `backend`: a preload of `items` keys, then `ops` requests. The
/// healthy pass runs under patient retries; the `grey` pass runs the
/// identical schedule over a grey substrate under the hedged policy.
/// `obs` may be [`Obs::off`].
pub fn run(
    (n, items, ops): (usize, usize, usize),
    seed: u64,
    backend: Backend,
    grey: bool,
    obs: Obs,
) -> Outcome {
    let retry = if grey { RetryPolicy::patient().hedged() } else { RetryPolicy::patient() };
    let mut phases = vec![Phase::new(items as u64, &[(Op::Put, 1)], retry)];
    for (i, start) in (0..ops).step_by(CHURN_EVERY).enumerate() {
        if i > 0 {
            let churn: &[_] = if i % 2 == 1 { &[(Op::Leave, 1)] } else { &[(Op::Join, 1)] };
            phases.push(Phase::new(1, churn, retry));
        }
        let len = (ops - start).min(CHURN_EVERY) as u64;
        let mix = &[(Op::Get, 7), (Op::Overwrite, 3)];
        phases.push(Phase { zipf: true, ..Phase::new(len, mix, retry) });
    }
    let slo = Scenario {
        fault: if grey { Weather::Grey } else { Weather::Calm },
        pace: Some(PACE),
        readback: (items / 32).max(1),
        min_live: items,
        ..Scenario::new((M, K), n, &phases)
    };
    play(&slo, seed, backend, obs)
}

/// The one shape the table pins and `e_obs` reports on: servers,
/// items, requests.
pub const SHAPE: (usize, usize, usize) = (2_000, 400, 800);

/// [`run`] at the pinned [`SHAPE`] and seed.
pub fn pinned(backend: Backend, grey: bool, obs: Obs) -> Outcome {
    run(SHAPE, crate::MASTER_SEED ^ 0x510, backend, grey, obs)
}
