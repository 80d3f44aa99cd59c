//! The harness: builds a workload's store, drives the generated stream
//! through the public `ReplicatedDht` API on one thread, checks every
//! output against a sequential model, and times each call.

use crate::spec::{end_to_end, Overlay, Workload, REPAIR_PACE};
use crate::stats::{median_f, percentile, quiet_segment};
use crate::stream::{fill_value, ChurnGen, Keys, Op, OpGen};
use crate::{Outcome, Reading};
use bytes::Bytes;
use cd_core::graph::{ChordLike, ContinuousGraph, DeBruijn, DistanceHalving};
use cd_core::pointset::PointSet;
use cd_core::rng::{seeded, subseed};
use cd_core::Point;
use dh_dht::proto::ChurnMsgCost;
use dh_dht::{CdNetwork, LookupKind, NodeId};
use dh_obs::Obs;
use dh_proto::engine::{OpOutcome, RetryPolicy};
use dh_proto::transport::{Inline, Sim, Transport};
use dh_replica::{RepairReport, ReplicatedDht, Shelves};
use dh_store::{FileShelves, MemShelves};
use rand::Rng;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The storage backend of a workload, with the few backend-specific
/// observations the metrics need.
pub trait Backend: Shelves + Sized {
    /// A fresh, empty store (`path` is ignored by the RAM backend).
    fn create(path: &Path) -> Self;
    /// Reopen what a previous store left at `path`.
    fn reopen(path: &Path) -> Self;
    /// Current log length, if there is a log (a backend with one
    /// outlives the process, so it gets a restart phase).
    fn log_len(&self) -> Option<u64>;
    /// Log records appended since open (0 without a log).
    fn log_records(&self) -> u64;
    /// Bytes at rest right now: the log, or the sealed shares in RAM.
    fn at_rest_bytes(&self) -> u64;
    /// Records the recovery scan replayed at open (0 without a log).
    fn recovered_records(&self) -> usize;
    /// Force a compaction; `None` without a log.
    fn compact_now(&mut self) -> Option<Duration>;
    /// Attach a flight recorder to the backend itself, where it has
    /// events of its own to record.
    fn attach_obs(&mut self, obs: Obs);
}

impl Backend for MemShelves {
    fn create(_: &Path) -> Self {
        MemShelves::new()
    }
    fn reopen(_: &Path) -> Self {
        unreachable!("the RAM backend has nothing to reopen")
    }
    fn log_len(&self) -> Option<u64> {
        None
    }
    fn log_records(&self) -> u64 {
        0
    }
    fn at_rest_bytes(&self) -> u64 {
        self.map()
            .values()
            .flat_map(|item| item.holders.values())
            .map(|h| h.sealed.len() as u64)
            .sum()
    }
    fn recovered_records(&self) -> usize {
        0
    }
    fn compact_now(&mut self) -> Option<Duration> {
        None
    }
    fn attach_obs(&mut self, _: Obs) {}
}

impl Backend for FileShelves {
    fn create(path: &Path) -> Self {
        // a leftover from a killed run must not be recovered into this one
        let _ = std::fs::remove_file(path);
        Self::reopen(path)
    }
    fn reopen(path: &Path) -> Self {
        FileShelves::open(path).unwrap_or_else(|e| panic!("open WAL {}: {e}", path.display()))
    }
    fn log_len(&self) -> Option<u64> {
        Some(self.wal_len())
    }
    fn log_records(&self) -> u64 {
        self.records_appended()
    }
    fn at_rest_bytes(&self) -> u64 {
        self.wal_len()
    }
    fn recovered_records(&self) -> usize {
        self.recovery().records
    }
    fn compact_now(&mut self) -> Option<Duration> {
        let t0 = Instant::now();
        self.compact().expect("explicit compaction");
        Some(t0.elapsed())
    }
    fn attach_obs(&mut self, obs: Obs) {
        self.set_obs(obs);
    }
}

/// The transport of a workload.
pub trait Net: Transport + Sized {
    /// A fresh instance (replays get their own, so they never advance
    /// the random stream of the store under test).
    fn make(seed: u64) -> Self;
}

impl Net for Inline {
    fn make(_: u64) -> Self {
        Inline
    }
}

impl Net for Sim {
    fn make(seed: u64) -> Self {
        Sim::new(seed).with_latency(4, 16, 4)
    }
}

/// Something to run on a workload's concrete overlay, backend and
/// transport types.
pub trait Job {
    /// What it returns.
    type Out;
    /// Run on the types [`dispatch`] picked.
    fn run<G: ContinuousGraph, S: Backend, T: Net>(self, graph: fn() -> G) -> Self::Out;
}

/// Pick the concrete types of `w` and run `job` on them. Only the four
/// combinations the workloads use are instantiated.
pub fn dispatch<J: Job>(w: &Workload, job: J) -> J::Out {
    match (w.overlay, w.file_backend, w.sim_transport) {
        (Overlay::DistanceHalving, false, false) => {
            job.run::<_, MemShelves, Inline>(DistanceHalving::binary)
        }
        (Overlay::DistanceHalving, false, true) => {
            job.run::<_, MemShelves, Sim>(DistanceHalving::binary)
        }
        (Overlay::Chord, false, false) => job.run::<_, MemShelves, Inline>(|| ChordLike),
        (Overlay::DeBruijn8Fast, true, false) => {
            job.run::<_, FileShelves, Inline>(|| DeBruijn::new(8))
        }
        other => panic!("no workload uses the combination {other:?}"),
    }
}

/// Attempts and failures, counted across every phase of a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Those that failed: an op with `ok == false`, a get that did not
    /// return the last committed value, a lost item, a failed join.
    pub failed: u64,
}

impl Tally {
    /// Count one attempt, failed unless `ok`; the first few failures
    /// are described on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("FAILED: {}", what());
            }
        }
    }
}

/// Wire traffic, in messages and modeled bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Messages.
    pub msgs: u64,
    /// Modeled wire bytes.
    pub bytes: u64,
}

impl Traffic {
    /// Add `msgs` messages of `bytes` bytes in total.
    pub fn add(&mut self, msgs: u64, bytes: u64) {
        self.msgs += msgs;
        self.bytes += bytes;
    }
}

/// What one churn event did.
pub struct ChurnOutcome {
    /// A join (else a leave).
    pub join: bool,
    /// Wall time of the public `join_over`/`leave_over` call.
    pub ns: u64,
    /// Member-protocol traffic (lookup + notifications).
    pub member: Traffic,
    /// Repair traffic priced inside the call (0 under pacing).
    pub repair: Traffic,
    /// Shares the repair pass re-materialized.
    pub shares_rebuilt: usize,
    /// Items the repair pass could not recover.
    pub items_lost: usize,
    /// Whether membership changed (a refused join changes nothing).
    pub applied: bool,
    /// The server that left or joined.
    pub node: NodeId,
    /// The joiner's identifier point (joins only).
    pub point: Point,
}

/// A workload's store with its sequential model.
pub struct World<G: ContinuousGraph, S: Backend, T: Net> {
    /// The workload.
    pub w: Workload,
    /// The run's seed.
    pub seed: u64,
    /// The store under test.
    pub dht: ReplicatedDht<G, S>,
    /// Its transport, continuous across ops.
    pub wire: T,
    /// The model: the committed generation of every key.
    pub gens: Vec<u32>,
    /// Attempts and failures so far.
    pub tally: Tally,
    /// Where the backend's log lives.
    pub wal_path: PathBuf,
    churn: ChurnGen,
    churn_events: usize,
    expect: Vec<u8>,
    obs: Obs,
}

/// The engine seed of foreground put `i` (replays derive theirs from
/// it).
pub fn put_seed(seed: u64, i: u64) -> u64 {
    subseed(seed ^ 0xF0, i)
}

/// The engine seed of foreground get `i`.
pub fn get_seed(seed: u64, i: u64) -> u64 {
    subseed(seed ^ 0xF1, i)
}

/// When a timed call started and how long it took.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    /// Start of the call.
    pub t0: Instant,
    /// Its wall time.
    pub ns: u64,
}

impl Timed {
    /// A call that started at `t0` and has just returned.
    fn since(t0: Instant) -> Timed {
        Timed {
            t0,
            ns: t0.elapsed().as_nanos() as u64,
        }
    }
}

/// The identifier points of a run's servers, and the generator they
/// came from (set-up goes on drawing preload origins from it).
pub fn points(w: &Workload, seed: u64) -> (PointSet, rand::rngs::StdRng) {
    let mut rng = seeded(subseed(seed, 0x4E7));
    (PointSet::random(w.n, &mut rng), rng)
}

/// The retry policy of every op: generous, as the workloads are
/// lossless and a retry would be a finding.
pub const RETRY: RetryPolicy = RetryPolicy::patient();

impl<G: ContinuousGraph, S: Backend, T: Net> World<G, S, T> {
    /// Build the network, open the shelves and preload every key.
    /// This is what `setup_s` times.
    pub fn setup(w: Workload, seed: u64, graph: fn() -> G, wal_path: &Path) -> Self {
        let (points, mut rng) = points(&w, seed);
        let net = CdNetwork::build(graph(), &points);
        let mut dht = ReplicatedDht::with_shelves(
            net,
            w.m,
            w.k,
            S::create(wal_path),
            &mut seeded(subseed(seed, 0x4A5)),
        );
        if w.overlay == Overlay::DeBruijn8Fast {
            dht.kind = LookupKind::Fast;
        }
        if w.churn_every.is_some() {
            dht.set_repair_pacing(Some(REPAIR_PACE));
        }
        let mut world = World {
            w,
            seed,
            dht,
            wire: T::make(seed),
            gens: vec![0; w.keys],
            tally: Tally::default(),
            wal_path: wal_path.to_path_buf(),
            churn: ChurnGen::new(seed),
            churn_events: 0,
            expect: Vec::new(),
            obs: Obs::off(),
        };
        for key in 0..w.keys as u32 {
            let op = Op {
                put: true,
                key,
                origin: rng.gen(),
            };
            let value = world.value(key, 0);
            let (out, _) = world.put(u64::from(key) | 1 << 40, op, value);
            world.tally.check(out.ok, || {
                format!("preload put of key {key} did not commit")
            });
        }
        world
    }

    /// The server `pick` selects from the live list.
    pub fn live(&self, pick: u32) -> NodeId {
        let live = self.dht.net.live();
        live[pick as usize % live.len()]
    }

    /// Generation `gen` of `key`'s value.
    pub fn value(&mut self, key: u32, gen: u32) -> Bytes {
        fill_value(&mut self.expect, self.seed, key, gen, self.w.value_len);
        Bytes::from(self.expect.clone())
    }

    /// One timed `put_over`; `i` seeds the op.
    pub fn put(&mut self, i: u64, op: Op, value: Bytes) -> (OpOutcome, Timed) {
        let from = self.live(op.origin);
        let seed = put_seed(self.seed, i);
        let t0 = Instant::now();
        let (out, _) =
            self.dht
                .put_over(from, u64::from(op.key), value, &mut self.wire, seed, RETRY);
        (out, Timed::since(t0))
    }

    /// One timed `get_over`; `i` seeds the op.
    pub fn get(&mut self, i: u64, op: Op) -> (OpOutcome, Option<Bytes>, Timed) {
        let from = self.live(op.origin);
        let seed = get_seed(self.seed, i);
        let t0 = Instant::now();
        let (out, value) = self
            .dht
            .get_over(from, u64::from(op.key), &mut self.wire, seed, RETRY);
        (out, value, Timed::since(t0))
    }

    /// Attach a flight recorder to the store and its backend (the
    /// traced run's recorder pass; everything else runs with it off).
    pub fn attach_obs(&mut self, obs: Obs) {
        self.dht.set_obs(obs.clone());
        self.dht.shelves.attach_obs(obs.clone());
        self.obs = obs;
    }

    /// Run foreground op `i` and check it against the model.
    pub fn foreground(&mut self, i: u64, op: Op) -> (OpOutcome, Timed) {
        // the recorder's op context (and its deferred-encoding drain);
        // one `Option` test when no recorder is attached
        self.obs.begin_op(i);
        if op.put {
            let gen = self.gens[op.key as usize] + 1;
            let value = self.value(op.key, gen);
            let (out, timed) = self.put(i, op, value);
            if out.ok {
                self.gens[op.key as usize] = gen;
            }
            self.tally.check(out.ok, || {
                format!("op {i}: put of key {} did not commit", op.key)
            });
            (out, timed)
        } else {
            let (out, value, timed) = self.get(i, op);
            let ok = out.ok && self.matches(op.key, value.as_deref());
            self.tally.check(ok, || {
                format!(
                    "op {i}: get of key {} (ok = {}) is not the last committed value",
                    op.key, out.ok
                )
            });
            (out, timed)
        }
    }

    /// Is `value` byte-for-byte the last committed value of `key`?
    fn matches(&mut self, key: u32, value: Option<&[u8]>) -> bool {
        fill_value(
            &mut self.expect,
            self.seed,
            key,
            self.gens[key as usize],
            self.w.value_len,
        );
        value == Some(self.expect.as_slice())
    }

    /// The next churn event of the schedule: a leave, then a join,
    /// alternating, through the public replica API.
    pub fn churn_event(&mut self) -> ChurnOutcome {
        let draw = self.churn.next();
        let node = self.live(draw.node);
        let seed = subseed(self.seed ^ 0xC4, self.churn_events as u64);
        let join = self.churn_events % 2 == 1;
        self.churn_events += 1;
        let t0 = Instant::now();
        let outcome = if join {
            let kind = self.dht.kind;
            self.dht
                .join_over(node, Point(draw.point), kind, seed, &mut self.wire, RETRY)
        } else {
            let (cost, report) = self.dht.leave_over(node, &mut self.wire, seed);
            Some((node, cost, report))
        };
        let ns = t0.elapsed().as_nanos() as u64;
        self.tally.check(
            outcome.as_ref().is_some_and(|(_, _, r)| r.items_lost == 0),
            || {
                format!(
                    "churn event {}: join = {join}, outcome {outcome:?}",
                    self.churn_events
                )
            },
        );
        let applied = outcome.is_some();
        // a refused join is already counted as a failure, and cost nothing
        let (node, cost, report) =
            outcome.unwrap_or((node, ChurnMsgCost::default(), RepairReport::default()));
        ChurnOutcome {
            join,
            ns,
            member: Traffic {
                msgs: cost.lookup_msgs + cost.notify_msgs,
                bytes: cost.bytes,
            },
            repair: Traffic {
                msgs: report.msgs,
                bytes: report.bytes,
            },
            shares_rebuilt: report.shares_rebuilt,
            items_lost: report.items_lost,
            applied,
            node,
            point: Point(draw.point),
        }
    }

    /// Read every key back and compare it with the model.
    pub fn audit(&mut self, round: u64) {
        let mut rng = seeded(subseed(self.seed ^ 0xA0D, round));
        for key in 0..self.w.keys as u32 {
            let op = Op {
                put: false,
                key,
                origin: rng.gen(),
            };
            let (out, value, _) = self.get(u64::from(key) | (2 + round) << 40, op);
            let ok = out.ok && self.matches(key, value.as_deref());
            self.tally.check(ok, || {
                format!(
                    "audit {round}: key {key} (ok = {}) is not the last committed value",
                    out.ok
                )
            });
        }
    }

    /// Drop the store and bring it back from what its backend
    /// persisted: reopen the log (the recovery scan), wrap it with the
    /// same network and placement hash, run one repair pass, then read
    /// every key back. Returns what that cost, or `None` on a backend
    /// that does not persist.
    pub fn restart(self) -> (Self, Option<Restart>) {
        if self.dht.shelves.log_len().is_none() {
            return (self, None);
        }
        let (w, seed, kind) = (self.w, self.seed, self.dht.kind);
        let ReplicatedDht { net, shelves, .. } = self.dht;
        let log_bytes = shelves.at_rest_bytes();
        drop(shelves);
        let t0 = Instant::now();
        let shelves = S::reopen(&self.wal_path);
        let open_s = t0.elapsed().as_secs_f64();
        let records = shelves.recovered_records();
        let mut dht =
            ReplicatedDht::with_shelves(net, w.m, w.k, shelves, &mut seeded(subseed(seed, 0x4A5)));
        dht.kind = kind;
        let report = dht.repair(&mut T::make(seed ^ 0x2E5), subseed(seed, 0x2E5));
        let restart_s = t0.elapsed().as_secs_f64();
        // Losing an item is a failure. A repair pass that finds work
        // is reported, not failed: see `store.restart_repair_msgs`.
        let mut tally = self.tally;
        tally.check(report.items_lost == 0, || {
            format!("the repair pass after the restart lost items: {report:?}")
        });
        let mut world = World { dht, tally, ..self };
        world.audit(1);
        let repair_msgs = report.msgs;
        (
            world,
            Some(Restart {
                restart_s,
                open_s,
                log_bytes,
                records,
                repair_msgs,
            }),
        )
    }
}

/// What the restart phase measured.
#[derive(Clone, Copy, Debug)]
pub struct Restart {
    /// Reopen + wrap + repair pass, seconds.
    pub restart_s: f64,
    /// The `FileShelves::open` part (read + recovery scan), seconds.
    pub open_s: f64,
    /// Log length that was recovered.
    pub log_bytes: u64,
    /// Records the scan replayed.
    pub records: usize,
    /// Messages the repair pass after the reopen priced (0 when the
    /// log held exactly the state the store had acknowledged).
    pub repair_msgs: u64,
}

/// One foreground op as measured. Times are `u32` nanoseconds
/// (saturating at 4.3 s) to keep the harness's own footprint, one of
/// these per op, small beside the store's in `peak_rss_mb`.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// A put (else a get).
    pub put: bool,
    /// Latency: the call's service time in a closed loop, completion
    /// minus due time in an open loop.
    pub latency_ns: u32,
    /// Wall time of the `put_over`/`get_over` call alone.
    pub call_ns: u32,
    /// Everything the op occupied the server for: the call, its
    /// `pump_repair`, and a churn event due before it.
    pub service_ns: u32,
    /// How late the op started against its due time (open loop).
    pub late_ns: u32,
    /// Completion time on the engine's virtual clock.
    pub ticks: u32,
}

/// What is taken at the end of the exact prefix of the stream, so that
/// it does not depend on how many ops the box fits into a run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Exact {
    /// Traffic of the foreground puts and gets.
    pub fg: Traffic,
    /// Traffic churn caused: member protocol and repair.
    pub churn: Traffic,
    /// Churn events in the prefix.
    pub churn_events: u64,
    /// Peak bytes at rest.
    pub peak_at_rest: u64,
    /// Foreground ops the above covers.
    pub ops: u64,
    /// Peak resident set of the process so far, MiB (the harness keeps
    /// one sample per op, so a later reading would grow with the run).
    pub peak_rss_mb: f64,
}

/// The measured phase's raw output.
pub struct Measured {
    /// One entry per foreground op, in stream order.
    pub samples: Vec<Sample>,
    /// In-stream churn events, in order.
    pub churn: Vec<ChurnOutcome>,
    /// The counted metrics over the first `exact_ops` ops.
    pub exact: Exact,
    /// Member-protocol and repair traffic of the whole phase (repair
    /// pumped between ops included).
    pub churn_traffic: Traffic,
    /// `pump_repair` wall time, per op (in-stream churn only).
    pub pump_ns: Vec<u64>,
    /// Most frames ever waiting in the repair outbox.
    pub backlog_peak: usize,
    /// Times the log was seen shorter after a put than before it.
    pub compactions: u64,
    /// Puts run.
    pub puts: u64,
    /// Log growth over the puts that did not compact.
    pub log_written: u64,
}

/// When the measured phase stops: at `max_ops`, or once `after` has
/// elapsed and `min_ops` are done.
#[derive(Clone, Copy, Debug)]
pub struct Stop {
    /// Never stop before this many ops.
    pub min_ops: usize,
    /// Always stop at this many ops.
    pub max_ops: usize,
    /// Stop once this long has passed.
    pub after: Duration,
}

impl Stop {
    /// Exactly `n` ops, however long they take.
    pub fn at_ops(n: usize) -> Stop {
        Stop {
            min_ops: n,
            max_ops: n,
            after: Duration::ZERO,
        }
    }
}

impl<G: ContinuousGraph, S: Backend, T: Net> World<G, S, T> {
    /// The foreground stream of this run's seed, from its start.
    pub fn op_gen(&self) -> OpGen {
        let w = self.w;
        let keys = if w.zipf {
            Keys::zipf(w.keys)
        } else {
            Keys::Uniform(w.keys as u32)
        };
        OpGen::new(self.seed, keys, w.put_pct)
    }

    /// Drive the foreground stream until `stop`, with the workload's
    /// loop discipline and in-stream churn.
    pub fn measure(&mut self, stop: Stop) -> Measured {
        const CHUNK: usize = 4096;
        let w = self.w;
        let mut gen = self.op_gen();
        let mut ops: Vec<Op> = Vec::with_capacity(CHUNK);
        let interval_ns = w.open_loop_rate.map(|rate| 1_000_000_000 / rate);
        let mut m = Measured {
            // room for any run without a reallocation (untouched pages
            // cost nothing), so growth never doubles the footprint
            samples: Vec::with_capacity(stop.max_ops.min(1 << 22)),
            churn: Vec::new(),
            exact: Exact::default(),
            churn_traffic: Traffic::default(),
            pump_ns: Vec::new(),
            backlog_peak: 0,
            compactions: 0,
            puts: 0,
            log_written: 0,
        };
        let (mut fg, mut churn) = (Traffic::default(), Traffic::default());
        let mut peak = self.dht.shelves.at_rest_bytes();
        let t0 = Instant::now();
        let now_ns = || t0.elapsed().as_nanos() as u64;
        let mut i = 0usize;
        loop {
            if i == w.exact_ops {
                m.exact = Exact {
                    fg,
                    churn,
                    churn_events: m.churn.len() as u64,
                    peak_at_rest: peak,
                    ops: i as u64,
                    peak_rss_mb: peak_rss_mb(),
                };
            }
            if i >= stop.max_ops || (i >= stop.min_ops && t0.elapsed() >= stop.after) {
                break;
            }
            if i.is_multiple_of(CHUNK) {
                ops.clear();
                gen.extend(&mut ops, CHUNK);
            }
            let op = ops[i % CHUNK];
            // open loop: the op is due on the schedule, whatever the
            // server is doing; a closed loop's op is due when it starts
            let due = match interval_ns {
                Some(interval) => {
                    let due = i as u64 * interval;
                    while now_ns() < due {
                        std::hint::spin_loop();
                    }
                    due
                }
                None => now_ns(),
            };
            let start = now_ns();
            if w.churn_every.is_some_and(|every| i % every == every - 1) {
                let ev = self.churn_event();
                churn.add(
                    ev.member.msgs + ev.repair.msgs,
                    ev.member.bytes + ev.repair.bytes,
                );
                m.churn.push(ev);
                m.backlog_peak = m.backlog_peak.max(self.dht.repair_backlog());
            }
            let log_before = self.dht.shelves.log_len();
            let (out, call) = self.foreground(i as u64, op);
            fg.add(out.msgs, out.bytes);
            if w.churn_every.is_some() {
                let p0 = Instant::now();
                let (msgs, bytes) = self
                    .dht
                    .pump_repair(&mut self.wire, subseed(self.seed ^ 0xF2, i as u64));
                m.pump_ns.push(p0.elapsed().as_nanos() as u64);
                churn.add(msgs, bytes);
            }
            let end = now_ns();
            if op.put {
                m.puts += 1;
                if let (Some(before), Some(after)) = (log_before, self.dht.shelves.log_len()) {
                    m.compactions += u64::from(after < before);
                    m.log_written += after.saturating_sub(before);
                    peak = peak.max(before).max(after);
                }
            }
            let ns = |v: u64| u32::try_from(v).unwrap_or(u32::MAX);
            m.samples.push(Sample {
                put: op.put,
                latency_ns: ns(if interval_ns.is_some() {
                    end - due
                } else {
                    call.ns
                }),
                call_ns: ns(call.ns),
                service_ns: ns(end - start),
                late_ns: ns(start - due),
                ticks: ns(out.completed_at.unwrap_or(0)),
            });
            i += 1;
        }
        if w.churn_every.is_some() {
            let (msgs, bytes) = self
                .dht
                .flush_repair(&mut self.wire, subseed(self.seed, 0xF3));
            churn.add(msgs, bytes);
        }
        m.churn_traffic = churn;
        m
    }

    /// The churn tail: `pairs` leave/join pairs after the stream, with
    /// repair priced inside each call. Gives the workloads whose
    /// stream has no churn their `join_p50_us`/`leave_p50_us`.
    pub fn churn_tail(&mut self, pairs: usize) -> Vec<ChurnOutcome> {
        (0..pairs * 2).map(|_| self.churn_event()).collect()
    }
}

/// Latency of one kind of op in a sample, sorted ascending.
pub fn latencies(samples: &[Sample], put: bool) -> Vec<u64> {
    let mut v: Vec<u64> = samples
        .iter()
        .filter(|s| s.put == put)
        .map(|s| u64::from(s.latency_ns))
        .collect();
    v.sort_unstable();
    v
}

/// Median latency (µs) of one kind of op, at the run's quiet quartile.
pub fn p50_us(samples: &[Sample], put: bool) -> f64 {
    let p50 = |seg: &[Sample]| {
        let lat = latencies(seg, put);
        percentile(&lat, 0.5).unwrap_or(0) as f64 / 1e3
    };
    quiet_segment(samples, p50, f64::total_cmp)
}

/// Foreground ops per second of service time, at the run's quiet
/// quartile.
pub fn ops_per_s(samples: &[Sample]) -> f64 {
    let rate = |seg: &[Sample]| {
        let busy: u64 = seg.iter().map(|s| u64::from(s.service_ns)).sum();
        seg.len() as f64 / (busy as f64 / 1e9)
    };
    quiet_segment(samples, rate, |a, b| b.total_cmp(a))
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What a run of one workload is given.
pub struct Args {
    /// The workload.
    pub w: Workload,
    /// The seed every input is drawn from.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: u64,
    /// Scratch directory for the backend's log.
    pub dir: PathBuf,
}

/// The untraced run: what `--trace 0` executes, and the only place
/// the end-to-end metrics come from.
pub struct Untraced(pub Args);

impl Job for Untraced {
    type Out = Outcome;

    fn run<G: ContinuousGraph, S: Backend, T: Net>(self, graph: fn() -> G) -> Outcome {
        let Args {
            w,
            seed,
            seconds,
            dir,
        } = self.0;
        let wal = dir.join("shelves.wal");
        // Set up several times and report the median: half before the
        // measured phase and half after it, so a slow spell of the box
        // cannot cover them all. Each store is dropped before the next
        // is built, so the peak resident set is one store's.
        let mut setup_s = Vec::with_capacity(w.setups);
        let mut timed_setup = |prev: Option<World<G, S, T>>| {
            drop(prev);
            let t0 = Instant::now();
            let world = World::setup(w, seed, graph, &wal);
            setup_s.push(t0.elapsed().as_secs_f64());
            world
        };
        let before = w.setups.div_ceil(2);
        let mut world = timed_setup(None);
        for _ in 1..before {
            world = timed_setup(Some(world));
        }
        let m = world.measure(Stop {
            min_ops: w.exact_ops,
            max_ops: usize::MAX,
            after: Duration::from_secs(seconds),
        });
        let tail = world.churn_tail(w.churn_tail_pairs);
        world.audit(0);
        let tally = world.tally;
        let mut last = Some(world);
        for _ in before..w.setups {
            last = Some(timed_setup(last.take()));
        }
        drop(last);
        let count = |put| m.samples.iter().filter(|s| s.put == put).count();
        let per_op = |total: u64| total as f64 / m.exact.ops as f64;
        // in-stream churn is counted over the exact prefix; the tail is
        // a fixed number of events, counted whole
        let churn_msgs_per_event = if w.churn_every.is_some() {
            m.exact.churn.msgs as f64 / m.exact.churn_events as f64
        } else {
            let msgs: u64 = tail.iter().map(|e| e.member.msgs + e.repair.msgs).sum();
            msgs as f64 / tail.len() as f64
        };
        let readings = [
            ("setup_s", median_f(&mut setup_s), Some(w.setups)),
            ("ops_per_s", ops_per_s(&m.samples), Some(m.samples.len())),
            ("put_p50_us", p50_us(&m.samples, true), Some(count(true))),
            ("get_p50_us", p50_us(&m.samples, false), Some(count(false))),
            (
                "msgs_per_op",
                per_op(m.exact.fg.msgs + m.exact.churn.msgs),
                None,
            ),
            (
                "wire_bytes_per_op",
                per_op(m.exact.fg.bytes + m.exact.churn.bytes),
                None,
            ),
            ("churn_msgs_per_event", churn_msgs_per_event, None),
            (
                "stored_bytes_per_user_byte",
                m.exact.peak_at_rest as f64 / w.user_bytes() as f64,
                None,
            ),
            ("peak_rss_mb", m.exact.peak_rss_mb, None),
        ]
        .into_iter()
        .map(|(name, value, samples)| {
            // units come from the metric table, so the table and the
            // output cannot drift apart
            let unit = end_to_end(name).expect("a metric of the table").unit;
            Reading {
                samples: samples.map(|n| n as u64),
                ..Reading::new(name, value, unit)
            }
        })
        .collect();
        Outcome { tally, readings }
    }
}
