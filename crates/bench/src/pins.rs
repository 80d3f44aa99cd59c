//! The pinned scenarios — did a message move?
//!
//! Each row of [`PINS`] drives one seeded scenario through the event
//! engine over a recorded transport and folds the whole event trace
//! into 64 bits; the row carries the value that fold must have. Six
//! values over seven rows: `e_obs` contributes two, its recorder fold
//! and its wire fold, and the second must equal `e_slo`'s pin (the
//! instrument perturbs nothing). A row that shelves shares lists both
//! backends, and [`check`] additionally demands the same fold from
//! both — the backend is invisible to the protocol.
//!
//! `tests/pins.rs` runs the table in tier-1 and prints every row that
//! moved as `name (backend): got 0x… want 0x…`. To re-pin, paste the
//! printed value over the row's and state the reason in CHANGES.md.
//! Nothing here is settable: the shapes and seeds are the rows.
//!
//! The scenario functions keep the checks a fold cannot express —
//! lossless latency moves schedules but never routes, retransmissions
//! never make a lookup cheaper, message counts stay within the paper's
//! shapes — and read no clock. The storage rows are
//! [`crate::scenario`] values, whose driver checks every read against
//! the committed-register model and reopens every WAL it closed.

pub use crate::scenario::Backend;
use crate::scenario::{play, Op, Phase, Scenario, BOTH};
use crate::slo::{self, K, M};
use crate::{chaos, MASTER_SEED};
use cd_core::graph::{ChordLike, ContinuousGraph, DeBruijn, DistanceHalving};
use cd_core::pointset::PointSet;
use cd_core::rng::{seeded, splitmix64, sub_rng};
use cd_core::Point;
use dh_dht::{CdNetwork, DhNetwork, LookupKind};
use dh_obs::Obs;
use dh_proto::engine::{Engine, NoShares, RetryPolicy};
use dh_proto::transport::{Inline, Recorder, Sim, Transport};
use dh_proto::wire::Action;
use rand::Rng;

/// One pinned scenario.
pub struct Pin {
    /// Unique row name.
    pub name: &'static str,
    /// The backends the scenario runs on; all must fold alike.
    pub backends: &'static [Backend],
    /// Runs the scenario once and folds its recorded trace.
    pub scenario: fn(Backend) -> u64,
    /// The fold it must produce.
    pub want: u64,
}

/// Rows that shelve nothing run once.
const NO_SHELVES: &[Backend] = &[Backend::Mem];

/// `e_slo`'s pin, which `e_obs`'s wire fold must reproduce.
const SLO_WIRE: u64 = 0xb77c02b9a8bdbe6a;

/// The table.
pub static PINS: [Pin; 7] = [
    Pin { name: "e_msgs", backends: NO_SHELVES, scenario: msgs, want: 0xdbb66edfc105b37e },
    Pin { name: "e_table1", backends: NO_SHELVES, scenario: table1, want: 0xe6adac908951bb17 },
    Pin { name: "e_repl", backends: REPL.backends, scenario: repl, want: 0x96c729af794725ba },
    Pin { name: "e_slo", backends: BOTH, scenario: slo_wire, want: SLO_WIRE },
    Pin { name: "e_chaos", backends: BOTH, scenario: chaos_campaign, want: 0xe30678ce41476825 },
    Pin { name: "e_obs wire", backends: BOTH, scenario: obs_wire, want: SLO_WIRE },
    Pin { name: "e_obs recorder", backends: BOTH, scenario: obs_recorder, want: 0xd09163f668b8bbd9 },
];

/// Run every row once per backend and return one line per failure:
/// `name (backend): got 0x… want 0x…` for each fold off its pin, and
/// `name: backend-dependent — …` for a row whose backends disagree
/// (even if one of them matches the pin). Empty means all hold.
pub fn check(rows: &[Pin]) -> Vec<String> {
    let mut failures = Vec::new();
    for row in rows {
        let got: Vec<(Backend, u64)> =
            row.backends.iter().map(|&b| (b, (row.scenario)(b))).collect();
        for &(backend, fp) in &got {
            if fp != row.want {
                failures.push(format!(
                    "{} ({backend}): got {fp:#018x} want {:#018x}",
                    row.name, row.want
                ));
            }
        }
        if got.iter().any(|&(_, fp)| fp != got[0].1) {
            let folds: Vec<String> =
                got.iter().map(|(backend, fp)| format!("{backend} {fp:#018x}")).collect();
            failures.push(format!("{}: backend-dependent — {}", row.name, folds.join(", ")));
        }
    }
    failures
}

fn sim(seed: u64) -> Recorder<Sim> {
    Recorder::new(Sim::new(seed).with_latency(4, 16, 4))
}

/// Network size and lookup batch size of the two lookup rows.
const LOOKUPS: (usize, usize) = (10_000, 5_000);
const LOOKUP_SEED: u64 = MASTER_SEED ^ 0x06E5;

/// What a lookup batch cost on the wire.
struct Batch {
    /// Lookups that completed.
    ok: usize,
    /// Hops of the completed lookups, summed.
    hops: u64,
    /// Messages handed to the transport, all attempts.
    msgs: u64,
    /// Modeled bytes of those messages.
    bytes: u64,
    /// End-to-end op restarts.
    retries: u64,
}

impl Batch {
    /// Messages per completed lookup.
    fn msgs_per_op(&self) -> f64 {
        self.msgs as f64 / self.ok.max(1) as f64
    }
}

/// The lookup rows' batch through one engine over `transport`: pair
/// `i` is drawn from `sub_rng(LOOKUP_SEED, i)` as in
/// `dh_dht::driver::random_lookups` and submitted at tick 2·i, and
/// each op draws its digits from one batch seed and its id.
fn lookups<G: ContinuousGraph, T: Transport>(
    net: &CdNetwork<G>,
    kind: LookupKind,
    mut transport: T,
) -> (Batch, T) {
    let ((_, m), seed) = (LOOKUPS, LOOKUP_SEED);
    let op_seed = splitmix64(seed ^ 0x0E6E);
    let mut eng = Engine::default();
    eng.retry = RetryPolicy::patient();
    let ops: Vec<_> = (0..m as u64)
        .map(|i| {
            let mut rng = sub_rng(seed, i);
            let (from, target) = (net.random_node(&mut rng), Point(rng.gen()));
            eng.submit_at(2 * i, op_seed, kind, from, target, Action::Locate)
        })
        .collect();
    let stats = eng.run(net, &mut transport, None, &Obs::off(), &NoShares);
    let (mut ok, mut hops) = (0, 0);
    for op in ops {
        let out = eng.take_outcome(op);
        if out.ok {
            ok += 1;
            hops += out.path.hops() as u64;
        }
    }
    let batch =
        Batch { ok, hops, msgs: stats.msgs, bytes: stats.bytes, retries: stats.retries };
    (batch, transport)
}

/// Lookup cost on the wire: Fast and two-phase lookups over `Inline`
/// (1 message per hop), a recorded lossless `Sim` (the fold) and a
/// lossy, duplicating `Sim` absorbed by end-to-end retry.
fn msgs(_: Backend) -> u64 {
    let ((n, m), seed) = (LOOKUPS, LOOKUP_SEED);
    let net = DhNetwork::new(&PointSet::random(n, &mut seeded(seed ^ 0x0E75)));
    let logn = (n as f64).log2();
    let mut fingerprint = 0u64;
    for (kind, bound) in
        [(LookupKind::Fast, logn + 2.0), (LookupKind::DistanceHalving, 2.0 * logn + 14.0)]
    {
        let (inline, _) = lookups(&net, kind, Inline);
        assert_eq!(inline.ok, m, "{kind}: Inline cannot fail an op");
        assert_eq!(
            (inline.msgs, inline.retries),
            (inline.hops, 0),
            "{kind}: under Inline every hop is exactly one message, sent once"
        );
        assert!(inline.bytes > inline.msgs, "every message has a header");
        assert!(
            inline.msgs_per_op() <= bound,
            "{kind}: {:.2} msgs/op exceeds the Corollary 2.5 / Theorem 2.8 shape {bound:.1}",
            inline.msgs_per_op()
        );
        let (lossless, rec) = lookups(&net, kind, sim(seed));
        assert_eq!(lossless.ok, m, "{kind}: a lossless transport cannot fail an op");
        assert_eq!(
            lossless.msgs, inline.msgs,
            "{kind}: lossless latency changes schedules, never routes"
        );
        fingerprint ^= rec.fingerprint();
        // a few lossy lookups may exhaust the retry budget; every
        // retransmission is charged either way
        let lossy_net = Sim::new(seed).with_latency(4, 16, 4).with_drop(0.01).with_dup(0.005);
        let (lossy, _) = lookups(&net, kind, lossy_net);
        assert!(
            lossy.msgs_per_op() >= lossless.msgs_per_op(),
            "{kind}: retransmissions cannot make lookups cheaper"
        );
    }
    fingerprint
}

/// Every topology over the same identifier points and the same
/// workload: binary Distance Halving (Fast and two-phase), de Bruijn
/// ∆ = 8 (Fast), Chord-like (greedy).
fn table1(_: Backend) -> u64 {
    fn row<G: ContinuousGraph>(graph: G, kind: LookupKind, points: &PointSet) -> u64 {
        let label = graph.label();
        let net = CdNetwork::build(graph, points);
        let (inline, _) = lookups(&net, kind, Inline);
        assert_eq!(inline.ok, LOOKUPS.1, "{label}: Inline cannot fail an op");
        let (lossless, rec) = lookups(&net, kind, sim(LOOKUP_SEED));
        assert_eq!(
            lossless.msgs, inline.msgs,
            "{label}: lossless latency changes schedules, never routes"
        );
        rec.fingerprint()
    }
    let points = PointSet::random(LOOKUPS.0, &mut seeded(LOOKUP_SEED ^ 0x7AB1E));
    row(DistanceHalving::binary(), LookupKind::Fast, &points)
        ^ row(DistanceHalving::binary(), LookupKind::DistanceHalving, &points)
        ^ row(DeBruijn::new(8), LookupKind::Fast, &points)
        ^ row(ChordLike, LookupKind::Greedy, &points)
}

/// The replicated store on the wire (m = 8 shares, k = 4 quorum):
/// puts, quorum gets, a churn burst with repair and a readback of every
/// 31st key, all through one recorder; on the file backend the WAL the
/// scenario closed must reopen whole.
const REPL: Scenario = Scenario {
    readback: 31,
    min_live: 2_000,
    ..Scenario::new(
        (M, K),
        10_000,
        &[
            Phase::new(2_000, &[(Op::Put, 1)], RetryPolicy::patient()),
            Phase::new(2_000, &[(Op::Get, 1)], RetryPolicy::patient()),
            Phase::new(100, &[(Op::Leave, 1), (Op::Join, 1)], RetryPolicy::patient()),
        ],
    )
};

/// Msgs per committed put and per read of the stream stay inside the
/// Thm 2.8 route plus the clique scatter: a store per remote cover and
/// an ack from `k − 1` of them, fetch + reply per share beyond the
/// coordinator's.
fn repl(backend: Backend) -> u64 {
    let out = play(&REPL, MASTER_SEED ^ 0x0E91, backend, Obs::off());
    let route = 2.0 * (REPL.n as f64).log2() + 14.0;
    let (m, k) = (f64::from(M), f64::from(K));
    let (put_scatter, get_scatter) = ((m - 1.0) + (k - 1.0), 2.0 * (k - 1.0));
    let stream = ..REPL.phases.len();
    let per = |msgs, ops| out.seen(stream, msgs) as f64 / out.seen(stream, ops) as f64;
    let (put_msgs, get_msgs) = (per("put msgs", "puts"), per("msgs", "reads"));
    assert!(
        put_msgs <= route + put_scatter,
        "put cost {put_msgs:.1} msgs/op exceeds route + clique fan-out shape"
    );
    assert!(
        (get_scatter..=route + get_scatter).contains(&get_msgs),
        "get cost {get_msgs:.1} msgs/op is outside route + k − 1 fetches"
    );
    out.wire_fp
}

fn slo_wire(backend: Backend) -> u64 {
    slo::pinned(backend, false, Obs::off()).wire_fp
}

/// The ring's depth never reaches the fold (it folds at record time).
const RING: usize = 1 << 14;

fn obs_wire(backend: Backend) -> u64 {
    slo::pinned(backend, false, Obs::recording(RING)).wire_fp
}

fn obs_recorder(backend: Backend) -> u64 {
    slo::pinned(backend, false, Obs::recording(RING)).obs.fingerprint()
}

fn chaos_campaign(backend: Backend) -> u64 {
    chaos::campaign(backend).1
}
