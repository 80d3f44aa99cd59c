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
//! shapes, no item is lost across churn, a cleanly closed WAL replays
//! whole — and read no clock.

use crate::slo::{self, K, M};
use crate::{chaos, MASTER_SEED};
use bytes::Bytes;
use cd_core::graph::{ChordLike, ContinuousGraph, DeBruijn, DistanceHalving};
use cd_core::pointset::PointSet;
use cd_core::rng::{seeded, splitmix64, sub_rng, subseed};
use cd_core::Point;
use dh_dht::{CdNetwork, DhNetwork, LookupKind};
use dh_obs::Obs;
use dh_proto::engine::{Engine, NoShares, RetryPolicy};
use dh_proto::transport::{Inline, Recorder, Sim, Transport};
use dh_proto::wire::Action;
use dh_replica::{ReplicatedDht, Shelves};
use dh_store::{FileShelves, MemShelves, ScratchPath};
use rand::Rng;

/// Where a scenario shelves its shares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// `MemShelves`.
    Mem,
    /// `FileShelves`: a WAL in a scratch file.
    File,
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if *self == Backend::File { "file" } else { "mem" })
    }
}

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
const BOTH: &[Backend] = &[Backend::Mem, Backend::File];

/// `e_slo`'s pin, which `e_obs`'s wire fold must reproduce.
const SLO_WIRE: u64 = 0x3a9db53f9323ecc2;

/// The table.
pub static PINS: [Pin; 7] = [
    Pin { name: "e_msgs", backends: NO_SHELVES, scenario: msgs, want: 0xdbb66edfc105b37e },
    Pin { name: "e_table1", backends: NO_SHELVES, scenario: table1, want: 0xe6adac908951bb17 },
    Pin { name: "e_repl", backends: BOTH, scenario: repl, want: 0x97f2853bec99011e },
    Pin { name: "e_slo", backends: BOTH, scenario: slo_wire, want: SLO_WIRE },
    Pin { name: "e_chaos", backends: BOTH, scenario: chaos_campaign, want: 0xe30678ce41476825 },
    Pin { name: "e_obs wire", backends: BOTH, scenario: obs_wire, want: SLO_WIRE },
    Pin { name: "e_obs recorder", backends: BOTH, scenario: obs_recorder, want: 0x2d9f035d9175ddff },
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
/// puts, quorum gets, a churn burst with repair and a readback, all
/// through one recorder; on the file backend the WAL the scenario
/// closed must reopen whole.
fn repl(backend: Backend) -> u64 {
    match backend {
        Backend::Mem => repl_over(MemShelves::new()),
        Backend::File => {
            let scratch = ScratchPath::new("pin-repl");
            let fp = repl_over(FileShelves::open(scratch.path()).expect("open WAL"));
            let reopened = FileShelves::open(scratch.path()).expect("reopen the scenario's WAL");
            assert_eq!(reopened.recovery().skipped, 0, "a clean close must replay losslessly");
            fp
        }
    }
}

fn repl_over<S: Shelves>(shelves: S) -> u64 {
    let (n, items, seed) = (10_000usize, 2_000usize, MASTER_SEED ^ 0x0E91);
    let value_of = |key: u64| {
        Bytes::from(format!("replicated-item-{key:08}-{:016x}", key.wrapping_mul(0x9E37)))
    };
    let mut rng = seeded(seed ^ 0x0E75);
    let net = DhNetwork::new(&PointSet::random(n, &mut rng));
    let mut dht = ReplicatedDht::with_shelves(net, M, K, shelves, &mut rng);
    let mut rec = sim(seed);
    let retry = RetryPolicy::patient();

    let (mut put_msgs, mut get_msgs) = (0u64, 0u64);
    for key in 0..items as u64 {
        let from = dht.net.random_node(&mut rng);
        let (out, placed) =
            dht.put_over(from, key, value_of(key), &mut rec, subseed(seed, key), retry);
        assert!(out.ok, "lossless put must reach its quorum");
        assert_eq!(placed, M as usize, "lossless put must place the full clique");
        put_msgs += out.msgs;
    }
    for key in 0..items as u64 {
        let from = dht.net.random_node(&mut rng);
        let (out, value) = dht.get_over(from, key, &mut rec, subseed(seed ^ 0x6E7, key), retry);
        assert_eq!(value, Some(value_of(key)), "quorum read lost item {key}");
        assert_eq!(out.shares.len(), K as usize, "a read gathers the k shares it decodes");
        get_msgs += out.msgs;
    }

    // churn burst: every op shifts cover cliques; repair re-materializes
    for i in 0..100u64 {
        if i % 2 == 0 {
            let victim = dht.net.random_node(&mut rng);
            let (_, report) = dht.leave_over(victim, &mut rec, subseed(seed ^ 0xC4, i));
            assert_eq!(report.items_lost, 0, "single-leave churn cannot lose items");
        } else {
            let host = dht.net.random_node(&mut rng);
            let kind = dht.kind;
            dht.join_over(host, Point(rng.gen()), kind, subseed(seed ^ 0xC4, i), &mut rec, retry);
        }
    }
    // and the store is still fully readable after the churn
    for key in (0..items as u64).step_by((items / 64).max(1)) {
        let from = dht.net.random_node(&mut rng);
        let (_, value) = dht.get_over(from, key, &mut rec, subseed(seed ^ 0x9E7, key), retry);
        assert_eq!(value, Some(value_of(key)), "item {key} lost across churn + repair");
    }

    // the scatter term rides on the routing term: a store per remote
    // cover and an ack from k − 1 of them, fetch + reply per share
    // beyond the coordinator's
    let route = 2.0 * (n as f64).log2() + 14.0;
    let (m, k) = (f64::from(M), f64::from(K));
    let (put_scatter, get_scatter) = ((m - 1.0) + (k - 1.0), 2.0 * (k - 1.0));
    let (put_msgs, get_msgs) = (put_msgs as f64 / items as f64, get_msgs as f64 / items as f64);
    assert!(
        put_msgs <= route + put_scatter,
        "put cost {put_msgs:.1} msgs/op exceeds route + clique fan-out shape"
    );
    assert!(
        (get_scatter..=route + get_scatter).contains(&get_msgs),
        "get cost {get_msgs:.1} msgs/op is outside route + k − 1 fetches"
    );
    rec.fingerprint()
}

fn slo_wire(backend: Backend) -> u64 {
    slo::pinned(backend == Backend::File, false, Obs::off()).wire_fp
}

/// The ring's depth never reaches the fold (it folds at record time).
const RING: usize = 1 << 14;

fn obs_wire(backend: Backend) -> u64 {
    slo::pinned(backend == Backend::File, false, Obs::recording(RING)).wire_fp
}

fn obs_recorder(backend: Backend) -> u64 {
    slo::pinned(backend == Backend::File, false, Obs::recording(RING)).obs.fingerprint()
}

fn chaos_campaign(backend: Backend) -> u64 {
    chaos::campaign(backend == Backend::File).1
}
