//! The one storage scenario driver. §6.2: any `k` of an item's `m`
//! cover shares rebuild it, through churn, repair and the weather.
//!
//! A [`Scenario`] is plain data, and [`play`] runs it from a seed over
//! one recorded `ChaosNet<Sim>`, checking every read against a
//! committed-register [`Model`]. Its values are the `e_repl` pin, the
//! SLO stream, the `e_chaos` cells and the storm profiles. The
//! conventions (`e_chaos` pins them): the world rng is
//! `seeded(seed ^ 0xCA05)` and draws per op the verb (none from a
//! one-verb mix), the key (if the verb acts on an issued key), then the
//! origin (per attempt for a put); the transport is
//! `ChaosNet(Sim::new(seed), seed ^ 0xC405)`; an op's seed is
//! `subseed(seed ^ salt, n | attempt << 48)`, `n` counting the earlier
//! ops of its salt; ops sit one [`STRIDE`] apart, a failed put attempt
//! one more; a phase's weather opens at its first op and holds until
//! its last is done or, under [`Scenario::planned`], on `[from, until)`
//! of the planned clock (one stride per op); the readback starts four
//! strides past the planned end, or where the clock is if later. So a
//! run replays, and the backend is invisible: both end on equal shelf
//! maps and wire fingerprints, and a WAL reopens to its map.

use bytes::Bytes;
use cd_core::graph::{ChordLike, ContinuousGraph, DeBruijn, DistanceHalving};
use cd_core::pointset::PointSet;
use cd_core::rng::{seeded, subseed};
use cd_core::Point;
use dh_dht::{CdNetwork, LookupKind, NodeId};
use dh_obs::{EventKind, Obs, BACKGROUND};
use dh_proto::engine::RetryPolicy;
use dh_proto::transport::{Recorder, Sim};
use dh_proto::{ChaosNet, CutDirection};
use dh_replica::{ItemState, RepairReport, ReplicatedDht, Shelves};
use dh_store::{FileShelves, MemShelves, ScratchPath};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::RangeBounds;

/// Clock stride between ops, spreading them over a weather window.
pub const STRIDE: u64 = 10_000;
/// A grey node: per mille of the servers, and their slowdown.
pub const GREY: (u64, u64) = (100, 8);
/// A flap: per mille of the servers, down `.2` ticks of every `.1`.
pub const FLAP: (u64, u64, u64) = (200, 30_000, 7_500);

/// Op-seed salts, one stream each.
const PUT: u64 = 0;
const GET: u64 = 0x9E7;
const READBACK: u64 = 0xAF7E;
const CHURN: u64 = 0xC4;
const REMOVE: u64 = 0x4E3;

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

/// Both backends.
pub const BOTH: &[Backend] = &[Backend::Mem, Backend::File];

/// The continuous graph.
#[derive(Clone, Copy)]
pub enum Topo {
    /// Binary Distance Halving.
    Dh,
    /// Chord-like.
    Chord,
    /// De Bruijn, ∆ = 8.
    Db8,
}

/// A drawn op.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Op {
    /// A put of a fresh key.
    Put,
    /// A put of an issued key, live or removed.
    Overwrite,
    /// `get_quorum` of an issued key.
    Get,
    /// `remove_over` of an issued key.
    Remove,
    /// `join_over`, below the size bound.
    Join,
    /// A graceful `leave_over`: the leaver hands its shares off.
    Leave,
    /// `drop_shelves_of` + `leave_over`: repair rebuilds the row.
    Crash,
    /// `net.join` at an item's point, `reindex`, overwrite it.
    BareJoin,
    /// One 32-tick attempt over its own 35 %-loss `Sim`.
    LossyPut,
    /// A full anti-entropy pass.
    Repair,
}

/// What the network does: over a phase, or as the substrate from
/// tick 0 to the end.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Weather {
    /// Nothing.
    Calm,
    /// [`GREY`] over the live servers: slow, not dead.
    Grey,
    /// A seeded half-split of the live servers, cut both ways.
    Cut,
    /// [`FLAP`] over the live servers.
    Flap,
    /// A seeded per-send loss burst, per mille.
    Loss(u64),
}

/// Does `weather` lose messages?
fn drops(weather: Weather) -> bool {
    !matches!(weather, Weather::Calm | Weather::Grey)
}

/// `ops` draws from `mix` (weighted), under `retry` and `weather`.
#[derive(Clone, Copy)]
pub struct Phase {
    /// Ops drawn.
    pub ops: u64,
    /// `(verb, weight)`.
    pub mix: &'static [(Op, u32)],
    /// Keys by Zipf (s = 1) popularity, else uniform.
    pub zipf: bool,
    /// The policy its ops (and, in the last phase, the readback) run under.
    pub retry: RetryPolicy,
    /// Its weather window.
    pub weather: Weather,
}

impl Phase {
    /// `ops` uniform draws from `mix` under `retry`, calm.
    pub const fn new(ops: u64, mix: &'static [(Op, u32)], retry: RetryPolicy) -> Self {
        Phase { ops, mix, zipf: false, retry, weather: Weather::Calm }
    }

    /// The phase under `weather`.
    pub const fn under(self, weather: Weather) -> Self {
        Phase { weather, ..self }
    }
}

/// A check beyond the model's, which every read makes.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Check {
    /// A settled item sits on exactly its clique, one current share each.
    Placement,
    /// `indices_consistent` after every op, and the [`CASES`] minima.
    Indices,
    /// A committed put is followed by a repair pass.
    TopUp,
    /// A weather window closes with a repair pass.
    Heal,
    /// Readbacks fail-stop each window of `m − k` of a key's covers.
    Failstop,
    /// (healthy, storm) phases: read cost bounds, suspicion edges.
    Waste(usize, usize),
}

/// The cases [`Check::Indices`] must cover, each seen more than this often.
#[rustfmt::skip]
pub const CASES: [(&str, u64); 8] = [
    ("fresh", 0), ("same clique", 20), ("moved clique", 5), ("torn", 5),
    ("join", 5), ("leave", 5), ("repair", 5), ("remove", 5),
];

/// One scenario; see the module docs.
pub struct Scenario<'a> {
    /// The continuous graph.
    pub topo: Topo,
    /// Shares per item, and shares that rebuild it.
    pub mk: (u8, u8),
    /// Servers at the start.
    pub n: usize,
    /// Leaves only above `.0` servers, joins only below `.1`.
    pub members: (usize, usize),
    /// The lookup; `None`: the instance's native one.
    pub kind: Option<LookupKind>,
    /// `Sim`'s latencies under the chaos layer, else none.
    pub latency: bool,
    /// The backends it is checked on; all must end equal.
    pub backends: &'a [Backend],
    /// The op stream.
    pub phases: &'a [Phase],
    /// The substrate's weather.
    pub fault: Weather,
    /// A phase's weather window closes on the planned clock, even where
    /// long ops ran the engine's clock past it (the `e_chaos` cells);
    /// else it holds until the phase's last op is done.
    pub planned: bool,
    /// Repair frames pumped after each op; `None`: repair runs inline.
    pub pace: Option<u32>,
    /// Attempts per put; above one, a put must commit in them.
    pub tries: u64,
    /// Run the checks every this many ops too (0: only at the end).
    pub every: u64,
    /// The readback reads every this-many-th issued key.
    pub readback: usize,
    /// Settled items at the end, at least.
    pub min_live: usize,
    /// Its checks.
    pub checks: &'a [Check],
}

impl<'a> Scenario<'a> {
    /// `phases` over `n` Distance Halving servers at `(m, k)` with
    /// `Sim`'s latencies on both backends, in calm weather, every key
    /// read back once at the end; the other fields at their no-op.
    pub const fn new(mk: (u8, u8), n: usize, phases: &'a [Phase]) -> Self {
        Scenario {
            topo: Topo::Dh,
            mk,
            n,
            members: (0, usize::MAX),
            kind: None,
            latency: true,
            backends: BOTH,
            phases,
            fault: Weather::Calm,
            planned: false,
            pace: None,
            tries: 1,
            every: 0,
            readback: 1,
            min_live: 0,
            checks: &[],
        }
    }

    fn has(&self, check: Check) -> bool {
        self.checks.contains(&check)
    }
}

/// What a run measured.
#[derive(Default)]
pub struct Outcome {
    /// How often what happened, per phase; phase `phases.len()` is the
    /// final checks.
    pub counts: BTreeMap<(usize, &'static str), u64>,
    /// `(op id, ticks)` of every drawn get: the op id is its stream
    /// index, and its recorder context.
    pub gets: Vec<(u64, u64)>,
    /// Repair traffic of the whole run.
    pub repair: RepairReport,
    /// Joins and leaves run.
    pub churn_events: u64,
    /// The shelf map at the end.
    pub shelves: BTreeMap<u64, ItemState>,
    /// The transport-trace fingerprint.
    pub wire_fp: u64,
    /// The recorder the run ran under.
    pub obs: Obs,
}

impl Outcome {
    /// How often `what` happened in `phases`.
    pub fn seen(&self, phases: impl RangeBounds<usize>, what: &str) -> u64 {
        let of = |&(p, w): &(usize, &str)| w == what && phases.contains(&p);
        self.counts.iter().filter(|(key, _)| of(key)).map(|(_, n)| n).sum()
    }
}

/// The committed-register model: per key, the last acknowledged value
/// and the torn writes issued after it, any of which repair's
/// newest-quorum rule may promote. A removed key has no entry. A read
/// returns one of those values or misses; a strict read of a settled
/// key (committed, no torn write after it) must not miss.
#[derive(Default)]
pub struct Model(BTreeMap<u64, Reg>);

#[derive(Default)]
struct Reg {
    acked: Option<Bytes>,
    torn: Vec<Bytes>,
}

impl Model {
    /// `key` committed `value`.
    pub fn ack(&mut self, key: u64, value: Bytes) {
        self.0.insert(key, Reg { acked: Some(value), torn: Vec::new() });
    }

    /// A put of `value` to `key` fell short of quorum.
    pub fn tear(&mut self, key: u64, value: Bytes) {
        self.0.entry(key).or_default().torn.push(value);
    }

    fn settled(&self, key: u64) -> Option<&Bytes> {
        self.0.get(&key).filter(|reg| reg.torn.is_empty())?.acked.as_ref()
    }

    /// Keys with a torn write pending: the only items repair may lose.
    fn unsettled(&self) -> usize {
        self.0.values().filter(|reg| !reg.torn.is_empty()).count()
    }

    /// Check a read of `key` that returned `got`. Returns whether it
    /// served a value.
    pub fn read(&mut self, key: u64, got: Option<&Bytes>, strict: bool) -> bool {
        let Some(got) = got else {
            assert!(!strict || self.settled(key).is_none(), "a calm read of key {key} missed");
            return false;
        };
        let Some(reg) = self.0.get_mut(&key) else {
            panic!("key {key} holds nothing, read {got:?}")
        };
        if reg.acked.as_ref() == Some(got) {
            return true;
        }
        // a served torn write was promoted: the register's value from
        // here on, and the values before it are gone
        let Some(at) = reg.torn.iter().position(|t| t == got) else {
            panic!("key {key} read a stale or foreign value {got:?}");
        };
        reg.acked = reg.torn.drain(..=at).next_back();
        true
    }
}

/// The `n`-th put's value of `key`: 36 bytes.
fn value_of(key: u64, n: u64) -> Bytes {
    Bytes::from(format!("{key:08}-{n:010}-{:016x}", key.wrapping_mul(0x9E37)))
}

/// Play `sc` from `seed` on `backend` under the recorder `obs`.
pub fn play(sc: &Scenario, seed: u64, backend: Backend, obs: Obs) -> Outcome {
    match sc.topo {
        Topo::Dh => on(DistanceHalving::binary(), sc, seed, backend, obs),
        Topo::Chord => on(ChordLike, sc, seed, backend, obs),
        Topo::Db8 => on(DeBruijn::new(8), sc, seed, backend, obs),
    }
}

fn on<G: ContinuousGraph>(
    graph: G,
    sc: &Scenario,
    seed: u64,
    backend: Backend,
    obs: Obs,
) -> Outcome {
    if backend == Backend::Mem {
        return drive(graph, sc, seed, MemShelves::new(), obs).0;
    }
    let scratch = ScratchPath::new(&format!("scenario-{seed:x}"));
    let mut shelves = FileShelves::open(scratch.path()).expect("open WAL");
    shelves.set_obs(obs.clone());
    let (out, shelves) = drive(graph, sc, seed, shelves, obs);
    assert!(shelves.wal_len() < 64 << 20, "auto-compaction must bound a run's log");
    drop(shelves);
    // a restart replays the log to exactly the pre-death map
    let reopened = FileShelves::open(scratch.path()).expect("reopen WAL");
    assert_eq!(reopened.recovery().skipped, 0, "a clean close must replay losslessly");
    assert!(reopened.map() == &out.shelves, "restart must recover the run's shelves");
    out
}

struct Run<'s, G: ContinuousGraph, S: Shelves> {
    sc: &'s Scenario<'s>,
    seed: u64,
    dht: ReplicatedDht<G, S>,
    net: Recorder<ChaosNet<Sim>>,
    rng: StdRng,
    model: Model,
    /// Cumulative Zipf weights of the issued keys.
    zipf: Vec<f64>,
    next_key: u64,
    clock: u64,
    /// Ops drawn so far: the next op's stream index.
    op: u64,
    /// Ops so far per op-seed salt.
    sent: BTreeMap<u64, u64>,
    phase: usize,
    retry: RetryPolicy,
    weather: Weather,
    /// A bare join since the last full repair: a clique may be short
    /// of shares, so reads may miss.
    dirty: bool,
    out: Outcome,
    flappers: BTreeSet<NodeId>,
}

impl<G: ContinuousGraph, S: Shelves> Run<'_, G, S> {
    fn random_node(&mut self) -> NodeId {
        self.dht.net.random_node(&mut self.rng)
    }

    fn count(&mut self, what: &'static str, n: u64) {
        *self.out.counts.entry((self.phase, what)).or_default() += n;
    }

    /// The next index of `salt`'s op stream.
    fn index(&mut self, salt: u64) -> u64 {
        let n = self.sent.entry(salt).or_default();
        *n += 1;
        *n - 1
    }

    /// The next op seed of `salt`'s stream.
    fn op_seed(&mut self, salt: u64) -> u64 {
        subseed(self.seed ^ salt, self.index(salt))
    }

    /// An issued key, by Zipf popularity or uniform.
    fn key(&mut self, zipf: bool) -> u64 {
        let keys = self.next_key.max(1);
        if !zipf {
            return self.rng.gen_range(0..keys);
        }
        while (self.zipf.len() as u64) < keys {
            let rank = self.zipf.len();
            self.zipf.push(self.zipf.last().unwrap_or(&0.0) + 1.0 / (rank + 1) as f64);
        }
        let cum = &self.zipf[..keys as usize];
        let u = self.rng.gen::<f64>() * cum[cum.len() - 1];
        cum.partition_point(|&c| c < u).min(cum.len() - 1) as u64
    }

    /// Move the clock on a stride; the next op starts there.
    fn tick(&mut self) {
        self.clock += STRIDE;
        self.dht.advance_to(self.clock);
    }

    /// A repair pass (of a churn event, or a full one) may lose only
    /// items with a torn write pending.
    fn repaired(&mut self, what: &'static str, report: RepairReport) {
        let torn = self.model.unsettled();
        assert!(report.items_lost <= torn, "{what} lost {} items, {torn} torn", report.items_lost);
        self.out.repair.merge(&report);
        self.count(what, 1);
    }

    fn placement(&self, key: u64) -> Vec<(u8, NodeId)> {
        let item = self.dht.shelves.map().get(&key);
        item.map(|it| it.holders.iter().map(|(&i, h)| (i, h.node)).collect()).unwrap_or_default()
    }

    /// Raise `weather` from `from`, until `until` of the planned clock
    /// or, unless [`Scenario::planned`], until [`Self::calm`].
    fn raise(&mut self, weather: Weather, (from, until): (u64, u64)) {
        let until = if self.sc.planned { until } else { u64::MAX };
        let nodes = self.dht.net.live().to_vec();
        let chaos = self.net.inner_mut();
        match weather {
            Weather::Calm => {}
            Weather::Grey => {
                let grey = chaos.grey_fraction(&nodes, GREY.0, GREY.1);
                assert!(!grey.is_empty(), "the grey pick must land on someone");
            }
            Weather::Cut => {
                let a = chaos.bisect(&nodes, CutDirection::Both, from, until);
                assert!(!a.is_empty() && a.len() < nodes.len(), "a real bisection");
            }
            Weather::Flap => {
                self.flappers = chaos.flap_fraction(&nodes, FLAP.0, FLAP.1, FLAP.2);
                let f = self.flappers.len();
                assert!(f > 0 && f * 3 < nodes.len(), "a minority flaps, got {f}/{}", nodes.len());
            }
            Weather::Loss(permille) => chaos.loss_burst(from, until, permille),
        }
        self.weather = weather;
    }

    /// Close the phase's weather (a planned window has closed already:
    /// the clock is past the phase's planned end).
    fn calm(&mut self) {
        let chaos = self.net.inner_mut();
        match self.weather {
            Weather::Cut => chaos.partitions.clear(),
            Weather::Flap => chaos.flaps.clear(),
            Weather::Loss(_) => chaos.bursts.clear(),
            _ => {}
        }
        if self.sc.has(Check::Heal) && self.weather != Weather::Calm {
            self.tick();
            let report = self.dht.repair(&mut self.net, 0);
            self.repaired("heal", report);
        }
        self.weather = Weather::Calm;
    }

    /// Put `key` in up to `tries` attempts, or once over a lossy `Sim`;
    /// an attempt short of quorum is a torn write.
    fn put(&mut self, key: u64, lossy: bool) {
        self.next_key = self.next_key.max(key + 1);
        let n = self.index(PUT);
        let value = value_of(key, n);
        let before = if self.sc.has(Check::Indices) { self.placement(key) } else { Vec::new() };
        let tries = if lossy { 1 } else { self.sc.tries };
        for attempt in 0..tries {
            let (from, seed) = (self.random_node(), subseed(self.seed ^ PUT, n | attempt << 48));
            let (out, placed) = if lossy {
                let sim = Sim::new(seed).with_drop(0.35);
                self.dht.put_over(from, key, value.clone(), sim, seed, RetryPolicy::fixed(32, 1))
            } else {
                self.dht.put_over(from, key, value.clone(), &mut self.net, seed, self.retry)
            };
            self.count("put msgs", out.msgs);
            if !out.ok {
                self.model.tear(key, value.clone());
                self.count("torn", u64::from(!out.shares.is_empty()));
                self.tick();
                continue;
            }
            self.model.ack(key, value);
            self.count("puts", 1);
            let m = usize::from(self.sc.mk.0);
            let calm = !drops(self.weather) && !drops(self.sc.fault) && !lossy;
            assert!(!calm || placed == m, "a calm put of {key} placed {placed} of {m} shares");
            if self.sc.has(Check::Indices) {
                let after = self.placement(key);
                let case = if before.is_empty() {
                    "fresh"
                } else if before == after {
                    "same clique"
                } else {
                    "moved clique"
                };
                self.count(case, 1);
            }
            if self.sc.has(Check::TopUp) {
                let report = self.dht.repair(&mut self.net, 0);
                self.repaired("top-up", report);
            }
            return;
        }
        let may_fail = tries == 1 && matches!(self.weather, Weather::Cut | Weather::Loss(_));
        assert!(lossy || may_fail, "put of {key} failed {tries} tries under {:?}", self.weather);
    }

    /// A quorum read of `key`, checked against the model and counted;
    /// returns its ticks. A miss is excused under a weather window,
    /// after a bare join, or by a flapping substrate outside a readback.
    fn read(&mut self, key: u64, from: NodeId, salt: u64) -> u64 {
        let seed = self.op_seed(salt);
        let r = self.dht.get_quorum(from, key, &mut self.net, seed, self.retry);
        let fault = salt != READBACK && drops(self.sc.fault);
        let strict = self.weather == Weather::Calm && !self.dirty && !fault;
        let served = self.model.read(key, r.value.as_ref(), strict);
        self.count("reads", 1);
        self.count("served", u64::from(served));
        self.count("msgs", r.msgs);
        self.count("attempts", u64::from(r.attempts));
        self.count("retries", r.retries);
        self.count("hedged", r.hedged);
        r.ticks
    }

    fn step(&mut self, op: Op, zipf: bool) {
        self.dht.obs().begin_op(self.op);
        let (len, (low, high)) = (self.dht.net.len(), self.sc.members);
        match op {
            Op::Put => self.put(self.next_key, false),
            Op::Overwrite | Op::LossyPut => {
                let key = self.key(zipf);
                self.put(key, op == Op::LossyPut);
            }
            Op::Get => {
                let key = self.key(zipf);
                let from = self.random_node();
                let ticks = self.read(key, from, GET);
                self.out.gets.push((self.op, ticks));
            }
            Op::Remove => {
                let (key, from) = (self.key(zipf), self.random_node());
                let seed = self.op_seed(REMOVE);
                let (out, existed) =
                    self.dht.remove_over(from, key, &mut self.net, seed, self.retry);
                if out.ok {
                    self.model.0.remove(&key);
                }
                self.count("remove", u64::from(existed));
            }
            Op::Join | Op::Leave | Op::Crash => {
                let from = self.random_node();
                if op == Op::Join && len < high {
                    let (x, kind, seed) =
                        (Point(self.rng.gen()), self.dht.kind, self.op_seed(CHURN));
                    let joined = self.dht.join_over(from, x, kind, seed, &mut self.net, self.retry);
                    if let Some((_, _, report)) = joined {
                        self.repaired("join", report);
                    }
                } else if op != Op::Join && len > low {
                    if op == Op::Crash {
                        self.dht.drop_shelves_of(from);
                    }
                    let seed = self.op_seed(CHURN);
                    let (_, report) = self.dht.leave_over(from, &mut self.net, seed);
                    self.repaired("leave", report);
                }
            }
            Op::BareJoin => {
                let (key, near) = (self.key(zipf), self.rng.gen_range(1..1 << 20));
                let at = Point(self.dht.hash.point(key).bits().wrapping_add(near));
                if self.dht.net.join(at).is_some() {
                    self.dht.reindex();
                    self.dirty = true;
                    self.put(key, false);
                }
            }
            Op::Repair => {
                let report = self.dht.repair(&mut self.net, 0);
                self.dirty = false;
                self.repaired("repair", report);
            }
        }
        if self.sc.has(Check::Indices) {
            assert!(self.dht.indices_consistent(), "indices drifted at op {} ({op:?})", self.op);
        }
        self.op += 1;
        self.dht.obs().begin_op(BACKGROUND);
        if self.sc.pace.is_some() {
            let (msgs, bytes) = self.dht.pump_repair(&mut self.net, 0);
            self.out.repair.msgs += msgs;
            self.out.repair.bytes += bytes;
        }
        self.tick();
    }

    /// `net.validate`, the placement rule, and a read of every
    /// `readback`-th issued key. Under [`Check::Failstop`] a key is
    /// read once per window of `m − k` consecutive covers
    /// fail-stopped; the windows overlap by one and go round the
    /// clique, so the primary dies too.
    fn check(&mut self) {
        self.dht.net.validate();
        let (m, k) = (usize::from(self.sc.mk.0), usize::from(self.sc.mk.1));
        for key in (0..self.next_key).step_by(self.sc.readback) {
            let clique = self.dht.clique(key);
            if self.sc.has(Check::Placement) && self.model.settled(key).is_some() {
                self.assert_placed(key, clique.clone());
            }
            let windows: Vec<Vec<NodeId>> = if self.sc.has(Check::Failstop) {
                let starts = (0..m).step_by((m - k).saturating_sub(1).max(1));
                starts.map(|s| (s..s + m - k).map(|i| clique[i % m]).collect()).collect()
            } else {
                vec![Vec::new()]
            };
            for dead in windows {
                dead.iter().for_each(|&d| self.net.inner_mut().fail(d));
                // a fail-stopped origin cannot send at all
                let from = loop {
                    let f = self.random_node();
                    if !dead.contains(&f) {
                        break f;
                    }
                };
                self.read(key, from, READBACK);
                dead.iter().for_each(|&d| self.net.inner_mut().revive(d));
                self.tick();
            }
        }
    }

    /// A settled item's holders are exactly its current clique, one
    /// share of the committed version each; at `m = 1`, the server
    /// covering `h(key)`.
    fn assert_placed(&self, key: u64, mut clique: Vec<NodeId>) {
        assert_eq!(clique.len(), usize::from(self.sc.mk.0), "network shrank below m");
        assert_eq!(clique[0], self.dht.net.cover_of(self.dht.hash.point(key)));
        let item = &self.dht.shelves.map()[&key];
        let mut held: Vec<NodeId> = item.holders.values().map(|h| h.node).collect();
        held.sort_unstable();
        clique.sort_unstable();
        assert_eq!(held, clique, "item {key} is not placed on its cover clique");
        assert!(item.holders.values().all(|h| h.version == item.version), "{key} is stale");
    }

    /// A flapping cover is routed around, not waited out: reads serve
    /// and their wire cost stays a small multiple of the healthy one,
    /// and the detector's verdicts are on the record.
    fn waste(&self, healthy: usize, storm: usize) {
        let per =
            |p, what| self.out.seen(p..=p, what) as f64 / self.out.seen(p..=p, "reads") as f64;
        let (avail, msgs, healthy_msgs) =
            (per(storm, "served"), per(storm, "msgs"), per(healthy, "msgs"));
        assert!(avail >= 0.95, "mid-storm availability fell to {avail:.3}");
        assert!(msgs <= 8.0 * healthy_msgs, "{msgs:.1} msgs/read vs healthy {healthy_msgs:.1}");
        assert!(per(storm, "attempts") <= 6.0, "failover attempts unbounded");
        assert!(per(storm, "retries") <= 16.0, "engine retries unbounded");
        let obs = self.dht.obs();
        let events = (0..self.op)
            .chain([BACKGROUND])
            .flat_map(|op| obs.explain(op).expect("recording").events);
        let ups: Vec<NodeId> = events
            .filter_map(|e| match e.kind {
                EventKind::SuspicionEdge { node, up: true, .. } => Some(NodeId(node)),
                _ => None,
            })
            .collect();
        let live = self.dht.net.live();
        assert!(!ups.is_empty(), "a 20% flap storm must raise a suspicion verdict");
        assert!(ups.iter().all(|n| live.contains(n)), "suspicion edges must name real nodes");
        assert!(ups.iter().any(|n| self.flappers.contains(n)), "no verdict on a flapper: {ups:?}");
        let health = self.dht.health();
        for node in health.suspect_nodes() {
            assert!(health.is_suspect(node) && health.suspicion(node) > 0, "{node:?} disagrees");
        }
        assert!(live.iter().any(|&n| health.rto(n).is_some()), "no RTT estimator fed");
    }

    fn finish(&mut self) {
        self.phase = self.sc.phases.len();
        if self.sc.pace.is_some() {
            let (msgs, bytes) = self.dht.flush_repair(&mut self.net, 0);
            self.out.repair.msgs += msgs;
            self.out.repair.bytes += bytes;
        }
        let planned: u64 = self.sc.phases.iter().map(|phase| phase.ops).sum();
        self.clock = self.clock.max((planned + 4) * STRIDE);
        self.dht.advance_to(self.clock);
        self.check();
        let settled: Vec<u64> =
            self.model.0.keys().copied().filter(|&key| self.model.settled(key).is_some()).collect();
        assert!(settled.len() >= self.sc.min_live, "only {} settled items", settled.len());
        let map = self.dht.shelves.map();
        assert!(settled.iter().all(|key| map.contains_key(key)), "a settled item left the shelves");
        assert!(map.keys().all(|key| self.model.0.contains_key(key)), "an unwritten item");
        for &check in self.sc.checks {
            match check {
                Check::Waste(healthy, storm) => self.waste(healthy, storm),
                Check::Indices => {
                    for (case, more_than) in CASES {
                        let seen = self.out.seen(.., case);
                        assert!(seen > more_than, "{seen} × {case}: {:?}", self.out.counts);
                    }
                }
                _ => {}
            }
        }
        self.dht.health().export(self.dht.obs());
    }
}

/// A weighted draw from `mix`; a one-verb mix draws nothing.
fn draw(mix: &[(Op, u32)], rng: &mut StdRng) -> Op {
    if let [(op, _)] = mix {
        return *op;
    }
    let mut at = rng.gen_range(0..mix.iter().map(|&(_, w)| w).sum::<u32>());
    for &(op, w) in mix {
        if at < w {
            return op;
        }
        at -= w;
    }
    unreachable!("the draw is below the total weight")
}

fn drive<G: ContinuousGraph, S: Shelves>(
    graph: G,
    sc: &Scenario,
    seed: u64,
    shelves: S,
    obs: Obs,
) -> (Outcome, S) {
    let mut rng = seeded(seed ^ 0xCA05);
    let net = CdNetwork::build(graph, &PointSet::random(sc.n, &mut rng));
    let mut dht = ReplicatedDht::with_shelves(net, sc.mk.0, sc.mk.1, shelves, &mut rng);
    dht.kind = sc.kind.unwrap_or(dht.kind);
    dht.set_obs(obs);
    dht.set_repair_pacing(sc.pace);
    // without latencies, `Sim` delivers as `Inline` does: at once, in order
    let sim = if sc.latency { Sim::new(seed) } else { Sim::new(seed).with_latency(0, 0, 0) };
    let net = Recorder::new(ChaosNet::new(sim, seed ^ 0xC405));
    let mut run = Run {
        sc,
        seed,
        dht,
        net,
        rng,
        model: Model::default(),
        zipf: Vec::new(),
        next_key: 0,
        clock: 0,
        op: 0,
        sent: BTreeMap::new(),
        phase: 0,
        retry: RetryPolicy::patient(),
        weather: Weather::Calm,
        dirty: false,
        out: Outcome::default(),
        flappers: BTreeSet::new(),
    };
    run.raise(sc.fault, (0, u64::MAX));
    let (total, mut planned) = (sc.phases.iter().map(|phase| phase.ops).sum::<u64>(), 0);
    for (i, phase) in sc.phases.iter().enumerate() {
        (run.phase, run.retry) = (i, phase.retry);
        run.raise(phase.weather, (planned * STRIDE, (planned + phase.ops) * STRIDE));
        for _ in 0..phase.ops {
            let op = draw(phase.mix, &mut run.rng);
            run.step(op, phase.zipf);
            if sc.every > 0 && run.op.is_multiple_of(sc.every) && run.op < total {
                run.check();
            }
        }
        run.calm();
        planned += phase.ops;
    }
    run.finish();
    run.out.churn_events = run.out.seen(.., "join") + run.out.seen(.., "leave");
    run.out.shelves = run.dht.shelves.map().clone();
    run.out.wire_fp = run.net.fingerprint();
    run.out.obs = run.dht.obs().clone();
    (run.out, run.dht.shelves)
}
