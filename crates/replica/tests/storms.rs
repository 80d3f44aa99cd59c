//! The replicated store's storms: one seeded driver, a profile per
//! scenario. Two guarantees carry the store. §6.2: at most `m − k`
//! losses between repairs keep every item at read quorum. §2.1: at
//! `m = k = 1` every join and leave hands items to their new cover.
//!
//! A [`Profile`] is plain data: topology, `(m, k)`, `n`, lookup kind,
//! substrate, backends, phases of drawn ops each under a [`Weather`],
//! and the [`Check`]s it runs. [`drive`] plays it from a seed over one
//! recorded chaos transport and checks every read against a
//! committed-register [`Model`]. Every decision is a function of the
//! seed, so a profile replays, and the backend is invisible: on
//! `MemShelves` and `FileShelves` a profile ends on equal shelf maps
//! and equal transport fingerprints.

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
use dh_replica::{ItemState, MemShelves, RepairReport, ReplicatedDht, Shelves};
use dh_store::{FileShelves, ScratchPath};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};

/// Clock stride between ops, spreading them over a weather window.
const STRIDE: u64 = 10_000;

/// The committed-register model: per key, the last acknowledged value
/// and the torn writes issued after it, any of which repair's
/// newest-quorum rule may promote. A removed key has no entry. A read
/// returns one of those values or misses; a calm read of a settled key
/// (committed, no torn write after it) must not miss.
#[derive(Default)]
struct Model(BTreeMap<u64, Reg>);

#[derive(Default)]
struct Reg {
    acked: Option<Bytes>,
    torn: Vec<Bytes>,
}

impl Model {
    fn ack(&mut self, key: u64, value: Bytes) {
        self.0.insert(key, Reg { acked: Some(value), torn: Vec::new() });
    }

    fn tear(&mut self, key: u64, value: Bytes) {
        self.0.entry(key).or_default().torn.push(value);
    }

    fn settled(&self, key: u64) -> Option<&Bytes> {
        self.0.get(&key).filter(|reg| reg.torn.is_empty())?.acked.as_ref()
    }

    fn settled_keys(&self) -> Vec<u64> {
        self.0.keys().copied().filter(|&key| self.settled(key).is_some()).collect()
    }

    /// Keys with a torn write pending: the only items repair may lose.
    fn unsettled(&self) -> usize {
        self.0.values().filter(|reg| !reg.torn.is_empty()).count()
    }

    /// Check a read of `key` that returned `got`. Returns whether it
    /// served a value.
    fn read(&mut self, key: u64, got: Option<&Bytes>, calm: bool) -> bool {
        let Some(got) = got else {
            assert!(!calm || self.settled(key).is_none(), "a calm read of key {key} missed");
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

#[derive(Clone, Copy, PartialEq, Debug)]
enum Op {
    Put,       // a fresh key
    Overwrite, // an issued key, live or removed
    Get,       // `get_quorum` of an issued key
    Remove,
    Join,     // `join_over`
    Leave,    // graceful `leave_over`: the leaver hands its shares off
    Crash,    // `drop_shelves_of` + `leave_over`: repair rebuilds the row
    BareJoin, // `net.join` at an item's point, `reindex`, overwrite it
    LossyPut, // one 32-tick attempt over its own 35 %-loss `Sim`
    Repair,   // a full anti-entropy pass
}

/// What the network does during a phase; the window closes with it.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Weather {
    Calm,
    Cut,       // a seeded half-split, cut both ways
    Flap,      // 20 % of the nodes down 7 500 of every 30 000 ticks
    Loss(u64), // a seeded per-send loss burst, per mille
}

struct Phase {
    ops: u64,
    mix: &'static [(Op, u32)], // weighted draw
    weather: Weather,
}

#[derive(Clone, Copy, PartialEq)]
enum Check {
    Placement,           // a settled item sits on exactly its clique, one current share each
    Indices,             // `indices_consistent` after every op, and the [`CASES`] minima
    TopUp,               // a committed put is followed by a repair pass
    Heal,                // a weather window closes with a repair pass
    Failstop,            // readbacks fail-stop each window of `m − k` of a key's covers
    Waste(usize, usize), // (healthy, storm) phases: read cost bounds, suspicion edges
}

#[derive(Clone, Copy)]
enum Topo {
    Dh,
    Chord,
    Db8,
}

#[derive(Clone, Copy, PartialEq)]
enum Backend {
    Mem,
    File,
}

struct Profile {
    topo: Topo,
    mk: (u8, u8),
    n: usize,
    members: (usize, usize),  // leaves only above, joins only below
    kind: Option<LookupKind>, // `None`: the instance's native lookup
    sim: bool,                // `Sim`'s latencies under the chaos layer, else none
    retry: RetryPolicy,
    tries: u64, // attempts per put; above one, a put must commit in them
    seeds: &'static [u64],
    backends: &'static [Backend], // each runs; all must end equal
    phases: &'static [Phase],
    every: u64, // `validate`, placement and readback every this many ops, and at the end
    min_live: usize, // settled items at the end
    checks: &'static [Check],
}

impl Profile {
    fn has(&self, check: Check) -> bool {
        self.checks.contains(&check)
    }
}

const CHURN: &[(Op, u32)] = &[(Op::Leave, 2), (Op::Join, 2), (Op::Put, 2), (Op::Get, 2)];
const PUTS: &[(Op, u32)] = &[(Op::Put, 1)];
const HEAL: &[(Op, u32)] = &[(Op::Leave, 1), (Op::Join, 1), (Op::Put, 2), (Op::Get, 1)];

/// 1 000 ops of churn, fresh puts and reads on 64 servers, with no
/// latencies; half the leaves are crashes.
const STORM: Profile = Profile {
    topo: Topo::Dh,
    mk: (8, 4),
    n: 64,
    members: (24, usize::MAX),
    kind: None,
    sim: false,
    retry: RetryPolicy::fixed(512, 5),
    tries: 1,
    seeds: &[0xF0A1],
    backends: &[Backend::Mem],
    phases: &[Phase {
        ops: 1_000,
        mix: &[(Op::Leave, 1), (Op::Crash, 1), (Op::Join, 2), (Op::Put, 2), (Op::Get, 2)],
        weather: Weather::Calm,
    }],
    every: 250,
    min_live: 101,
    checks: &[Check::Placement],
};

/// [`STORM`] at §2.1's single copy: every leave hands off.
const SINGLE: Profile = Profile {
    mk: (1, 1),
    phases: &[Phase { ops: 1_000, mix: CHURN, weather: Weather::Calm }],
    ..STORM
};

/// A storm over `Sim` on 48 servers, bisected for 40 of its 130 ops;
/// every committed item ends placed and readable.
const PARTITION: Profile = Profile {
    n: 48,
    members: (36, 64),
    sim: true,
    retry: RetryPolicy::patient().hedged(),
    backends: &[Backend::Mem, Backend::File],
    phases: &[
        Phase { ops: 60, mix: HEAL, weather: Weather::Calm },
        Phase { ops: 40, mix: HEAL, weather: Weather::Cut },
        Phase { ops: 30, mix: HEAL, weather: Weather::Calm },
    ],
    every: 0,
    min_live: 25,
    checks: &[Check::Placement, Check::TopUp, Check::Heal],
    ..STORM
};

/// On 64 servers, a healthy baseline of 40 puts and 40 reads prices a
/// read; 120 puts and reads follow under the flap schedule.
const FLAP: Profile = Profile {
    n: 64,
    tries: 6,
    seeds: &[0xF1A9_0007],
    backends: &[Backend::Mem],
    phases: &[
        Phase { ops: 40, mix: PUTS, weather: Weather::Calm },
        Phase { ops: 40, mix: &[(Op::Get, 1)], weather: Weather::Calm },
        Phase { ops: 120, mix: &[(Op::Put, 1), (Op::Get, 2)], weather: Weather::Flap },
    ],
    min_live: 40,
    checks: &[Check::Waste(1, 2)],
    ..PARTITION
};

/// 40 puts, then 60 joins and leaves, on 96 servers at `(6, 3)`.
const DURABILITY: Profile = Profile {
    mk: (6, 3),
    n: 96,
    members: (32, usize::MAX),
    retry: RetryPolicy::fixed(128, 6),
    phases: &[
        Phase { ops: 40, mix: PUTS, weather: Weather::Calm },
        Phase { ops: 60, mix: &[(Op::Leave, 1), (Op::Join, 1)], weather: Weather::Calm },
    ],
    every: 0,
    min_live: 40,
    checks: &[Check::Failstop],
    ..STORM
};

/// 600 ops over a few dozen keys at `(6, 3)` on 40 servers.
const INDEX: Profile = Profile {
    mk: (6, 3),
    n: 40,
    members: (20, usize::MAX),
    phases: &[Phase { ops: 600, mix: INDEX_MIX, weather: Weather::Calm }],
    every: 0,
    min_live: 0,
    checks: &[Check::Indices],
    ..STORM
};

#[rustfmt::skip]
const INDEX_MIX: &[(Op, u32)] = &[
    (Op::Put, 1), (Op::Overwrite, 6), (Op::BareJoin, 2), (Op::LossyPut, 2), (Op::Join, 1),
    (Op::Leave, 1), (Op::Repair, 1), (Op::Remove, 2), (Op::Get, 2),
];

/// The cases [`INDEX`] exists to cover, each seen more than this often.
#[rustfmt::skip]
const CASES: [(&str, u64); 8] = [
    ("fresh", 0), ("same clique", 20), ("moved clique", 5), ("torn", 5),
    ("join", 5), ("leave", 5), ("repair", 5), ("remove", 5),
];

struct Run<'p, G: ContinuousGraph, S: Shelves> {
    p: &'p Profile,
    dht: ReplicatedDht<G, S>,
    net: Recorder<ChaosNet<Sim>>,
    rng: StdRng,
    model: Model,
    next_key: u64,
    clock: u64,
    op: u64,
    phase: usize,
    weather: Weather,
    /// A bare join since the last full repair: a clique may be short
    /// of shares, so reads may miss.
    dirty: bool,
    /// What happened how often, per phase; the last phase is the final
    /// checks.
    counts: BTreeMap<(usize, &'static str), u64>,
    flappers: BTreeSet<NodeId>,
}

impl<G: ContinuousGraph, S: Shelves> Run<'_, G, S> {
    fn random_node(&mut self) -> NodeId {
        self.dht.net.random_node(&mut self.rng)
    }

    fn count(&mut self, what: &'static str, n: u64) {
        *self.counts.entry((self.phase, what)).or_default() += n;
    }

    /// How often `what` happened in `phase`, or in any phase.
    fn seen(&self, phase: Option<usize>, what: &str) -> u64 {
        let of = |&(p, w): &(usize, &str)| w == what && phase.is_none_or(|phase| phase == p);
        self.counts.iter().filter(|(key, _)| of(key)).map(|(_, n)| n).sum()
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
        self.count(what, 1);
    }

    fn placement(&self, key: u64) -> Vec<(u8, NodeId)> {
        let item = self.dht.shelves.map().get(&key);
        item.map(|it| it.holders.iter().map(|(&i, h)| (i, h.node)).collect()).unwrap_or_default()
    }

    fn set_weather(&mut self, weather: Weather) {
        let (chaos, now) = (self.net.inner_mut(), self.clock);
        let nodes = self.dht.net.live().to_vec();
        match weather {
            Weather::Calm => {
                chaos.partitions.clear();
                chaos.flaps.clear();
                chaos.bursts.clear();
                if self.p.has(Check::Heal) && self.weather != Weather::Calm {
                    self.tick();
                    let report = self.dht.repair(&mut self.net, 0);
                    self.repaired("heal", report);
                }
            }
            Weather::Cut => {
                let a = chaos.bisect(&nodes, CutDirection::Both, now, u64::MAX);
                assert!(!a.is_empty() && a.len() < nodes.len(), "a real bisection");
            }
            Weather::Flap => {
                self.flappers = chaos.flap_fraction(&nodes, 200, 30_000, 7_500);
                let f = self.flappers.len();
                assert!(f > 0 && f * 3 < nodes.len(), "a minority flaps, got {f}/{}", nodes.len());
            }
            Weather::Loss(permille) => chaos.loss_burst(now, u64::MAX, permille),
        }
        self.weather = weather;
    }

    /// Put `key` in up to `tries` attempts, or once over a lossy `Sim`;
    /// an attempt short of quorum is a torn write.
    fn put(&mut self, key: u64, seed: u64, lossy: bool) {
        self.next_key = self.next_key.max(key + 1);
        let value = Bytes::from(format!("storm-{key}-{}", self.op));
        let before = self.placement(key);
        let tries = if lossy { 1 } else { self.p.tries };
        for attempt in 0..tries {
            let (from, seed) = (self.random_node(), subseed(seed, attempt));
            let (out, placed) = if lossy {
                let sim = Sim::new(seed).with_drop(0.35);
                self.dht.put_over(from, key, value.clone(), sim, seed, RetryPolicy::fixed(32, 1))
            } else {
                self.dht.put_over(from, key, value.clone(), &mut self.net, seed, self.p.retry)
            };
            if !out.ok {
                self.model.tear(key, value.clone());
                self.count("torn", u64::from(!out.shares.is_empty()));
                self.tick();
                continue;
            }
            self.model.ack(key, value);
            let m = usize::from(self.p.mk.0);
            let calm = self.weather == Weather::Calm && !lossy;
            assert!(!calm || placed == m, "a calm put of {key} placed {placed} of {m} shares");
            let after = self.placement(key);
            let case = if before.is_empty() {
                "fresh"
            } else if before == after {
                "same clique"
            } else {
                "moved clique"
            };
            self.count(case, 1);
            if self.p.has(Check::TopUp) {
                let report = self.dht.repair(&mut self.net, seed);
                self.repaired("top-up", report);
            }
            return;
        }
        let may_fail = tries == 1 && matches!(self.weather, Weather::Cut | Weather::Loss(_));
        assert!(lossy || may_fail, "put of {key} failed {tries} tries under {:?}", self.weather);
    }

    /// A quorum read of `key`, checked against the model and counted.
    fn read(&mut self, key: u64, from: NodeId, seed: u64) -> bool {
        let r = self.dht.get_quorum(from, key, &mut self.net, seed, self.p.retry);
        let calm = self.weather == Weather::Calm && !self.dirty;
        let served = self.model.read(key, r.value.as_ref(), calm);
        self.count("reads", 1);
        self.count("served", u64::from(served));
        self.count("msgs", r.msgs);
        self.count("attempts", u64::from(r.attempts));
        self.count("retries", r.retries);
        served
    }

    fn step(&mut self, op: Op) {
        let (seed, from) = (self.rng.gen(), self.random_node());
        // the issued key the op acts on, where it needs one
        let key = self.rng.gen_range(0..self.next_key.max(1));
        let (len, (low, high), retry) = (self.dht.net.len(), self.p.members, self.p.retry);
        match op {
            Op::Put => self.put(self.next_key, seed, false),
            Op::Overwrite => self.put(key, seed, false),
            Op::LossyPut => self.put(key, seed, true),
            Op::Get => _ = self.read(key, from, seed),
            Op::Remove => {
                let (out, existed) = self.dht.remove_over(from, key, &mut self.net, seed, retry);
                if out.ok {
                    self.model.0.remove(&key);
                }
                self.count("remove", u64::from(existed));
            }
            Op::Join if len < high => {
                let (x, kind) = (Point(self.rng.gen()), self.dht.kind);
                let joined = self.dht.join_over(from, x, kind, seed, &mut self.net, retry);
                if let Some((_, _, report)) = joined {
                    self.repaired("join", report);
                }
            }
            Op::Leave | Op::Crash if len > low => {
                if op == Op::Crash {
                    self.dht.drop_shelves_of(from);
                }
                let (_, report) = self.dht.leave_over(from, &mut self.net, seed);
                self.repaired("leave", report);
            }
            Op::BareJoin => {
                let near = self.rng.gen_range(1..1 << 20);
                let at = Point(self.dht.hash.point(key).bits().wrapping_add(near));
                if self.dht.net.join(at).is_some() {
                    self.dht.reindex();
                    self.dirty = true;
                    self.put(key, seed, false);
                }
            }
            Op::Repair => {
                let report = self.dht.repair(&mut self.net, seed);
                self.dirty = false;
                self.repaired("repair", report);
            }
            // a membership op the size bounds refuse
            Op::Join | Op::Leave | Op::Crash => {}
        }
        if self.p.has(Check::Indices) {
            assert!(self.dht.indices_consistent(), "indices drifted at op {} ({op:?})", self.op);
        }
        self.op += 1;
        self.tick();
    }

    /// `net.validate`, the placement rule, and a read of every issued
    /// key. Under [`Check::Failstop`] a key is read once per window of
    /// `m − k` consecutive covers fail-stopped; the windows overlap by
    /// one and go round the clique, so the primary dies too.
    fn check(&mut self) {
        self.dht.net.validate();
        let (m, k) = (usize::from(self.p.mk.0), usize::from(self.p.mk.1));
        for key in 0..self.next_key {
            let clique = self.dht.clique(key);
            if self.p.has(Check::Placement) && self.model.settled(key).is_some() {
                self.assert_placed(key, clique.clone());
            }
            let windows: Vec<Vec<NodeId>> = if self.p.has(Check::Failstop) {
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
                let seed = self.rng.gen();
                self.read(key, from, seed);
                dead.iter().for_each(|&d| self.net.inner_mut().revive(d));
                self.tick();
            }
        }
    }

    /// A settled item's holders are exactly its current clique, one
    /// share of the committed version each; at `m = 1`, the server
    /// covering `h(key)`.
    fn assert_placed(&self, key: u64, mut clique: Vec<NodeId>) {
        assert_eq!(clique.len(), usize::from(self.p.mk.0), "network shrank below m");
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
        let per = |phase, what| {
            self.seen(Some(phase), what) as f64 / self.seen(Some(phase), "reads") as f64
        };
        let (avail, msgs, healthy_msgs) =
            (per(storm, "served"), per(storm, "msgs"), per(healthy, "msgs"));
        assert!(avail >= 0.95, "mid-storm availability fell to {avail:.3}");
        assert!(msgs <= 8.0 * healthy_msgs, "{msgs:.1} msgs/read vs healthy {healthy_msgs:.1}");
        assert!(per(storm, "attempts") <= 6.0, "failover attempts unbounded");
        assert!(per(storm, "retries") <= 16.0, "engine retries unbounded");
        let events = self.dht.obs().explain(BACKGROUND).expect("recording").events;
        let ups: Vec<NodeId> = events
            .iter()
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
        self.phase = self.p.phases.len();
        self.check();
        let settled = self.model.settled_keys();
        assert!(settled.len() >= self.p.min_live, "only {} settled items", settled.len());
        let map = self.dht.shelves.map();
        assert!(settled.iter().all(|key| map.contains_key(key)), "a settled item left the shelves");
        assert!(map.keys().all(|key| self.model.0.contains_key(key)), "an unwritten item");
        for &check in self.p.checks {
            match check {
                Check::Waste(healthy, storm) => self.waste(healthy, storm),
                Check::Indices => {
                    for (case, more_than) in CASES {
                        let seen = self.seen(None, case);
                        assert!(seen > more_than, "{seen} × {case}: {:?}", self.counts);
                    }
                }
                _ => {}
            }
        }
    }
}

/// A weighted draw from `mix`.
fn draw(mix: &[(Op, u32)], rng: &mut StdRng) -> Op {
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
    p: &Profile,
    seed: u64,
    shelves: S,
) -> Run<'_, G, S> {
    let mut rng = seeded(seed);
    let net = CdNetwork::build(graph, &PointSet::random(p.n, &mut rng));
    let mut dht = ReplicatedDht::with_shelves(net, p.mk.0, p.mk.1, shelves, &mut rng);
    dht.kind = p.kind.unwrap_or(dht.kind);
    if p.checks.iter().any(|check| matches!(check, Check::Waste(..))) {
        dht.set_obs(Obs::recording(1 << 18));
    }
    // without latencies, `Sim` delivers as `Inline` does: at once, in order
    let sim = Sim::new(seed ^ 0x5117);
    let base = if p.sim { sim } else { sim.with_latency(0, 0, 0) };
    let net = Recorder::new(ChaosNet::new(base, seed ^ 0xC47));
    let mut run = Run {
        p,
        dht,
        net,
        rng,
        model: Model::default(),
        next_key: 0,
        clock: 0,
        op: 0,
        phase: 0,
        weather: Weather::Calm,
        dirty: false,
        counts: BTreeMap::new(),
        flappers: BTreeSet::new(),
    };
    let total: u64 = p.phases.iter().map(|phase| phase.ops).sum();
    for (i, phase) in p.phases.iter().enumerate() {
        run.phase = i;
        run.set_weather(phase.weather);
        for _ in 0..phase.ops {
            let op = draw(phase.mix, &mut run.rng);
            run.step(op);
            if p.every > 0 && run.op.is_multiple_of(p.every) && run.op < total {
                run.check();
            }
        }
        run.set_weather(Weather::Calm);
    }
    run.finish();
    run
}

/// A run's end state: the shelf map and the transport's fingerprint.
type End = (BTreeMap<u64, ItemState>, u64);

fn run_on<G: ContinuousGraph>(graph: G, p: &Profile, seed: u64, backend: Backend) -> End {
    if backend == Backend::Mem {
        let run = drive(graph, p, seed, MemShelves::new());
        return (run.dht.shelves.map().clone(), run.net.fingerprint());
    }
    let scratch = ScratchPath::new(&format!("storm-{seed:x}"));
    let run = drive(graph, p, seed, FileShelves::open(scratch.path()).expect("open WAL"));
    assert!(run.dht.shelves.wal_len() < 64 << 20, "auto-compaction must bound a storm's log");
    let end = (run.dht.shelves.map().clone(), run.net.fingerprint());
    drop(run);
    // a restart replays the log to exactly the pre-death map
    let reopened = FileShelves::open(scratch.path()).expect("reopen WAL");
    assert_eq!(reopened.recovery().skipped, 0);
    assert!(reopened.map() == &end.0, "restart must recover the storm's shelves");
    end
}

fn run(p: &Profile, seed: u64, backend: Backend) -> End {
    match p.topo {
        Topo::Dh => run_on(DistanceHalving::binary(), p, seed, backend),
        Topo::Chord => run_on(ChordLike, p, seed, backend),
        Topo::Db8 => run_on(DeBruijn::new(8), p, seed, backend),
    }
}

fn play(p: &Profile) {
    for &seed in p.seeds {
        let ends: Vec<End> = p.backends.iter().map(|&b| run(p, seed, b)).collect();
        for pair in ends.windows(2) {
            assert!(pair[0].0 == pair[1].0, "backends diverged on shelf bytes (seed {seed:#x})");
            assert_eq!(pair[0].1, pair[1].1, "backends diverged on the wire (seed {seed:#x})");
        }
    }
}

macro_rules! profiles {
    ($($(#[$doc:meta])* $name:ident: $profile:expr;)*) => {
        $($(#[$doc])* #[test] fn $name() { play(&$profile) })*
    };
}

profiles! {
    repair_churn_storm_dh: STORM;
    repair_churn_storm_chord: Profile { topo: Topo::Chord, seeds: &[0xF0A2], ..STORM };
    repair_churn_storm_debruijn8: Profile { topo: Topo::Db8, seeds: &[0xF0A3], ..STORM };
    repair_churn_storm_dh_file_backed: Profile { backends: &[Backend::File], ..STORM };
    single_copy_churn_storm_dh: Profile { seeds: &[0xD001], ..SINGLE };
    single_copy_churn_storm_chord: Profile { topo: Topo::Chord, seeds: &[0xD002], ..SINGLE };
    single_copy_churn_storm_debruijn8: Profile { topo: Topo::Db8, seeds: &[0xD003], ..SINGLE };
    /// §2.1 under the Fast lookup, down to 8 servers (the native
    /// DistanceHalving lookup is `single_copy_churn_storm_dh`'s).
    storage_churn_storm_fast: Profile {
        kind: Some(LookupKind::Fast), members: (8, usize::MAX), seeds: &[0xF001], ..SINGLE
    };
    partition_heal_dh: Profile { seeds: &[0xA417], ..PARTITION };
    partition_heal_chord: Profile { topo: Topo::Chord, seeds: &[0xA418], ..PARTITION };
    partition_heal_debruijn8: Profile { topo: Topo::Db8, seeds: &[0xA419], ..PARTITION };
    flap_storm_no_lost_commits_bounded_waste: FLAP;
    indices_equal_a_reindex_after_every_step_mem: Profile { seeds: &[0x1DE0, 0x1DE1, 0x1DE2], ..INDEX };
    indices_equal_a_reindex_after_every_step_file: Profile {
        seeds: &[0x1DE0, 0x1DE3], backends: &[Backend::File], ..INDEX
    };
    durability_after_churn_dh: Profile { seeds: &[0xD0A1], ..DURABILITY };
    durability_after_churn_debruijn8: Profile { topo: Topo::Db8, seeds: &[0xD0A3], ..DURABILITY };
    durability_after_churn_dh_file_backed: Profile {
        seeds: &[0xD0A1], backends: &[Backend::File], ..DURABILITY
    };
    /// Reads and fresh puts through a loss burst on 256 servers at
    /// `(8, 4)`, bit-identical over the WAL and in memory.
    file_backed_ops_match_memory_bit_for_bit: Profile {
        mk: (8, 4),
        n: 256,
        sim: true,
        retry: RetryPolicy::fixed(2_048, 8),
        seeds: &[0xBA7C],
        backends: &[Backend::Mem, Backend::File],
        phases: &[
            Phase { ops: 30, mix: PUTS, weather: Weather::Calm },
            Phase { ops: 120, mix: &[(Op::Get, 1), (Op::Put, 2)], weather: Weather::Loss(20) },
        ],
        min_live: 30,
        checks: &[],
        ..DURABILITY
    };
}

/// A profile replays: the same seed, the same shelves and wire schedule.
#[test]
fn replay_is_exact() {
    let seed = FLAP.seeds[0];
    assert!(run(&FLAP, seed, Backend::Mem) == run(&FLAP, seed, Backend::Mem), "a replay diverged");
}

/// An oracle that accepts everything would pass every profile.
#[test]
#[should_panic(expected = "stale")]
fn the_model_rejects_a_stale_read() {
    let mut model = Model::default();
    model.ack(7, Bytes::from("old"));
    model.ack(7, Bytes::from("new"));
    model.read(7, Some(&Bytes::from("old")), false);
}
