//! The traced run (`--trace 1`): the per-layer bill.
//!
//! Three passes over the same prefix of the workload's stream, each on
//! a fresh identical store:
//!
//! * **plain** — nothing attached; gives the baseline the other two
//!   are compared with, the wall-clock tails, the virtual-tick
//!   percentiles, the churn and log figures, and the restart phase;
//! * **recorder** — a `dh_obs` flight recorder attached to store and
//!   backend; gives the recorder's own cost and the registry counters;
//! * **spans** — around each real `put_over`/`get_over` call (the
//!   root span) the harness replays, as child spans, stand-alone calls
//!   into each lower layer's public functions on that op's inputs.
//!   Replays never touch the store under test: engine replays only
//!   read its network and shelves, shelf replays write to a scratch
//!   shelf of the same backend.
//!
//! The bill is outside-in: children run right after the real call, on
//! warm caches, so they cost no more than inside it and a root's self
//! time (root − Σ children) is an upper bound on what the replica
//! layer itself spends.

use crate::run::{
    get_seed, latencies, points, put_seed, Args, Backend, ChurnOutcome, Job, Measured, Net, Stop,
    Tally, World, RETRY,
};
use crate::spec::PER_LAYER;
use crate::stats::{median, percentile};
use crate::{out_dir, Outcome, Reading};
use cd_core::graph::ContinuousGraph;
use cd_core::rng::{seeded, subseed};
use cd_core::Point;
use dh_dht::proto::route_kind;
use dh_dht::{CdNetwork, LookupKind, LookupScratch, NodeId, Route};
use dh_erasure::{encode, try_decode, Share, ShareHeader};
use dh_obs::Obs;
use dh_proto::engine::{Engine, NoShares, OpOutcome, ShareView};
use dh_proto::transport::Transport;
use dh_proto::wire::Action;
use dh_proto::NetHealth;
use dh_replica::{Holder, ShelfView};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Ops whose spans are written to the span file (every span is kept
/// in memory and feeds the metrics; the file is for reading).
const SPAN_FILE_OPS: u32 = 2_000;

/// One recorded span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// What was timed.
    pub name: &'static str,
    /// The foreground op it belongs to.
    pub op: u32,
    /// Index of the span that caused it, if any.
    pub parent: Option<u32>,
    /// Start, ns since the pass began.
    pub start_ns: u64,
    /// End, ns since the pass began.
    pub end_ns: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory span log of one pass.
pub struct Spans {
    t0: Instant,
    /// Every span, in the order recorded; a span's id is its index.
    pub all: Vec<Span>,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            t0: Instant::now(),
            all: Vec::new(),
        }
    }

    /// Record a span that was timed elsewhere.
    fn add(
        &mut self,
        name: &'static str,
        op: u32,
        parent: Option<u32>,
        t0: Instant,
        ns: u64,
    ) -> u32 {
        let start_ns = t0.duration_since(self.t0).as_nanos() as u64;
        self.all.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns + ns,
        });
        self.all.len() as u32 - 1
    }

    /// Time `f` as a span.
    fn time<R>(
        &mut self,
        name: &'static str,
        op: u32,
        parent: Option<u32>,
        f: impl FnOnce() -> R,
    ) -> (R, u32) {
        let t0 = Instant::now();
        let r = black_box(f());
        let ns = t0.elapsed().as_nanos() as u64;
        (r, self.add(name, op, parent, t0, ns))
    }
}

/// Durations of every span, grouped by name.
pub fn durations(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut by: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for s in spans {
        by.entry(s.name).or_default().push(s.ns());
    }
    by
}

/// Self time of every span named `root`: its duration minus its
/// direct children's. Replayed children are timed after the real call
/// rather than inside it, so the subtraction is on durations; a child
/// total above its root (noise on a tiny op) clamps to zero.
pub fn self_times(spans: &[Span], root: &str) -> Vec<u64> {
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize] += s.ns();
        }
    }
    spans
        .iter()
        .zip(&children)
        .filter(|(s, _)| s.name == root)
        .map(|(s, &c)| s.ns().saturating_sub(c))
        .collect()
}

fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.op < SPAN_FILE_OPS)
    {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {id}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
             \"start_ns\": {}, \"end_ns\": {}}}",
            s.name, s.op, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// The traced run: what `--trace 1` executes.
pub struct Traced(pub Args);

/// What the replays of the span pass counted besides time.
#[derive(Default)]
struct Counts {
    lookups: u64,
    hops: u64,
    locate_msgs: u64,
    health_extra_ns: Vec<i64>,
}

impl Job for Traced {
    type Out = Outcome;

    fn run<G: ContinuousGraph, S: Backend, T: Net>(self, graph: fn() -> G) -> Outcome {
        let Args {
            w,
            seed,
            seconds,
            dir,
        } = self.0;
        let wal = dir.join("shelves.wal");
        let mut out = Vec::new();
        // units come from the metric table, so a name the table does
        // not know cannot be reported
        let mut push = |name: &str, value: f64| {
            let (_, unit, _) = PER_LAYER
                .iter()
                .find(|(known, ..)| *known == name)
                .unwrap_or_else(|| panic!("{name} is not in the per-layer table"));
            out.push(Reading::new(name, value, unit));
        };

        // ---- plain pass -------------------------------------------------
        let mut a: World<G, S, T> = World::setup(w, seed, graph, &wal);
        let records_before = a.dht.shelves.log_records();
        let ma = a.measure(Stop {
            min_ops: 0,
            max_ops: w.trace_ops,
            after: Duration::from_secs(seconds),
        });
        let n = ma.samples.len();
        let records = a.dht.shelves.log_records() - records_before;
        let (mut a, restart) = a.restart();
        let compact = a.dht.shelves.compact_now();
        let tail = a.churn_tail(w.churn_tail_pairs);
        a.audit(0);
        let mut tally = a.tally;
        drop(a);
        let churn = if w.churn_every.is_some() {
            &ma.churn
        } else {
            &tail
        };

        // the bare topology under the same churn sequence, on the
        // harness's own copy of the network (building it is the
        // stand-alone `CdNetwork::build` measurement)
        let t0 = Instant::now();
        let mut mirror = CdNetwork::build(graph(), &points(&w, seed).0);
        push("dht.build_s", t0.elapsed().as_secs_f64());
        let (mut join_ns, mut leave_ns) = (Vec::new(), Vec::new());
        for ev in churn.iter().filter(|ev| ev.applied) {
            let t0 = Instant::now();
            if ev.join {
                let id = mirror.join(ev.point);
                join_ns.push(t0.elapsed().as_nanos() as u64);
                tally.check(id == Some(ev.node), || {
                    format!(
                        "the mirror network joined {id:?}, the store's {:?}",
                        ev.node
                    )
                });
            } else {
                mirror.leave(ev.node);
                leave_ns.push(t0.elapsed().as_nanos() as u64);
            }
        }
        drop(mirror);
        push("dht.join_ns", median(&mut join_ns));
        push("dht.leave_ns", median(&mut leave_ns));

        // ---- recorder pass ----------------------------------------------
        let mut b: World<G, S, T> = World::setup(w, seed, graph, &wal);
        let obs = Obs::recording(1 << 16);
        b.attach_obs(obs.clone());
        let mb = b.measure(Stop::at_ops(n));
        merge(&mut tally, b.tally);
        drop(b);
        let snap = obs.snapshot();
        let busy = |m: &Measured| {
            m.samples
                .iter()
                .map(|s| u64::from(s.service_ns))
                .sum::<u64>() as f64
        };
        push(
            "obs.recorder_overhead_pct",
            100.0 * (busy(&mb) / busy(&ma) - 1.0),
        );
        push("obs.events_per_op", obs.recorded() as f64 / n as f64);
        push("obs.ring_overflow", obs.overflow() as f64);
        let counter = |name| snap.counter_total(name) as f64;
        push(
            "proto.wire_bytes_per_msg",
            ratio(counter("engine/bytes"), counter("engine/msgs")),
        );
        push(
            "proto.stale_share",
            ratio(counter("engine/stale"), counter("engine/delivered")),
        );
        push("proto.retries_per_op", counter("engine/retries") / n as f64);
        drop(obs);

        // ---- span pass --------------------------------------------------
        let mut c: World<G, S, T> = World::setup(w, seed, graph, &wal);
        let (spans, counts) = span_pass(&mut c, n, &dir);
        merge(&mut tally, c.tally);
        drop(c);
        let span_file = out_dir().join(format!("trace-{}.jsonl", w.name));
        if let Err(e) = write_spans(&span_file, &spans.all) {
            eprintln!("warning: could not write {}: {e}", span_file.display());
        }

        // ---- the bill ---------------------------------------------------
        let mut by = durations(&spans.all);
        let mut med = |name: &str| by.get_mut(name).map_or(0.0, |v| median(v));
        for name in [
            "core.hash_point",
            "dht.lookup",
            "dht.clique_of",
            "proto.engine_locate",
            "proto.engine_putshares",
            "proto.engine_getshares",
            "erasure.encode",
            "erasure.decode",
            "erasure.seal",
            "erasure.open",
            "store.park_commit",
        ] {
            push(&format!("{name}_ns"), med(name));
        }
        let hops = ratio(counts.hops as f64, counts.lookups as f64);
        let msgs = ratio(counts.locate_msgs as f64, counts.lookups as f64);
        push("dht.hops_per_lookup", hops);
        push("dht.lookup_ns_per_hop", ratio(med("dht.lookup"), hops));
        push("proto.msgs_per_locate", msgs);
        push(
            "proto.engine_ns_per_msg",
            ratio(med("proto.engine_locate"), msgs),
        );
        push(
            "proto.engine_overhead_ratio",
            ratio(med("proto.engine_locate"), med("dht.lookup")),
        );
        let mut extra = counts.health_extra_ns;
        extra.sort_unstable();
        push(
            "proto.health_ns_per_op",
            extra.get(extra.len() / 2).map_or(0.0, |&v| v as f64),
        );
        // bytes per ns × 1000 = MB/s
        let mb_per_s = |ns: f64| ratio(w.value_len as f64 * 1e3, ns);
        push("erasure.encode_mb_per_s", mb_per_s(med("erasure.encode")));
        push("erasure.decode_mb_per_s", mb_per_s(med("erasure.decode")));
        push(
            "replica.put_self_ns",
            median(&mut self_times(&spans.all, "replica.put")),
        );
        push(
            "replica.get_self_ns",
            median(&mut self_times(&spans.all, "replica.get")),
        );
        push("replica.pump_ns_per_op", med("replica.pump_repair"));
        let mut calls: Vec<u64> = ma.samples.iter().map(|s| u64::from(s.call_ns)).collect();
        let mut roots: Vec<u64> = spans
            .all
            .iter()
            .filter(|s| matches!(s.name, "replica.put" | "replica.get"))
            .map(Span::ns)
            .collect();
        push(
            "trace.overhead_pct",
            100.0 * (ratio(median(&mut roots), median(&mut calls)) - 1.0),
        );

        // ---- tails, ticks, lateness (plain pass) ------------------------
        for (put, kind) in [(true, "put"), (false, "get")] {
            let lat = latencies(&ma.samples, put);
            let pct = |q| percentile(&lat, q).map_or(0.0, |ns| ns as f64 / 1e3);
            push(&format!("replica.{kind}_p99_us"), pct(0.99));
            push(&format!("replica.{kind}_p999_us"), pct(0.999));
            push(&format!("replica.{kind}_samples"), lat.len() as f64);
            let mut ticks: Vec<u64> = ma
                .samples
                .iter()
                .filter(|s| s.put == put)
                .map(|s| u64::from(s.ticks))
                .collect();
            ticks.sort_unstable();
            let pct = |q| percentile(&ticks, q).map_or(0.0, |t| t as f64);
            push(&format!("proto.{kind}_ticks_p50"), pct(0.5));
            push(&format!("proto.{kind}_ticks_p99"), pct(0.99));
        }
        let mut late: Vec<u64> = ma.samples.iter().map(|s| u64::from(s.late_ns)).collect();
        late.sort_unstable();
        push(
            "gen.late_p99_us",
            percentile(&late, 0.99).map_or(0.0, |ns| ns as f64 / 1e3),
        );

        // ---- churn and repair (plain pass) ------------------------------
        let events = churn.len() as f64;
        let ns_of = |join: bool| {
            let mut v: Vec<u64> = churn
                .iter()
                .filter(|e| e.join == join)
                .map(|e| e.ns)
                .collect();
            median(&mut v)
        };
        push("replica.join_over_ns", ns_of(true));
        push("replica.leave_over_ns", ns_of(false));
        let sum = |f: fn(&ChurnOutcome) -> u64| churn.iter().map(f).sum::<u64>() as f64;
        // repair priced between ops rather than inside a churn call:
        // the phase's churn traffic less what the calls themselves sent
        let in_call = |f: fn(&ChurnOutcome) -> u64| ma.churn.iter().map(f).sum::<u64>();
        let pumped_msgs = ma.churn_traffic.msgs - in_call(|e| e.member.msgs + e.repair.msgs);
        let pumped_bytes = ma.churn_traffic.bytes - in_call(|e| e.member.bytes + e.repair.bytes);
        push(
            "dht.churn_msgs_per_event",
            ratio(sum(|e| e.member.msgs), events),
        );
        push(
            "replica.repair_msgs_per_churn",
            ratio(sum(|e| e.repair.msgs) + pumped_msgs as f64, events),
        );
        push(
            "replica.repair_bytes_per_churn",
            ratio(sum(|e| e.repair.bytes) + pumped_bytes as f64, events),
        );
        push(
            "replica.shares_rebuilt_per_churn",
            ratio(sum(|e| e.shares_rebuilt as u64), events),
        );
        push("replica.backlog_peak_frames", ma.backlog_peak as f64);
        push("replica.items_lost", sum(|e| e.items_lost as u64));

        // ---- the log (plain pass; zero on the RAM backend) --------------
        let quiet_puts = ma.puts.saturating_sub(ma.compactions) as f64;
        push(
            "store.wal_bytes_per_user_byte",
            ratio(ma.log_written as f64, quiet_puts * w.value_len as f64),
        );
        push(
            "store.wal_records_per_put",
            ratio(records as f64, ma.puts as f64),
        );
        push("store.compactions", ma.compactions as f64);
        push("store.compact_s", compact.map_or(0.0, |d| d.as_secs_f64()));
        push("store.restart_s", restart.map_or(0.0, |r| r.restart_s));
        push(
            "store.recover_mb_per_s",
            restart.map_or(0.0, |r| ratio(r.log_bytes as f64 / 1e6, r.open_s)),
        );
        push(
            "store.recover_records",
            restart.map_or(0.0, |r| r.records as f64),
        );
        push(
            "store.restart_repair_msgs",
            restart.map_or(0.0, |r| r.repair_msgs as f64),
        );

        assert_eq!(
            out.len(),
            PER_LAYER.len(),
            "every per-layer metric is reported exactly once"
        );
        out.sort_by(|x, y| x.name.cmp(&y.name));
        Outcome {
            tally,
            readings: out,
        }
    }
}

fn merge(into: &mut Tally, other: Tally) {
    into.attempted += other.attempted;
    into.failed += other.failed;
}

/// `a / b`, or 0 where the workload has nothing to divide by (no
/// churn, no log).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One stand-alone engine run, the way `ReplicatedDht` drives one: a
/// fresh engine, one submitted op, run to completion. With `health`
/// it carries a failure detector as the store's own engines do.
#[allow(clippy::too_many_arguments)]
fn engine_replay<'g, G: ContinuousGraph, T: Transport, V: ShareView>(
    net: &'g CdNetwork<G>,
    wire: T,
    seed: u64,
    kind: LookupKind,
    from: NodeId,
    target: Point,
    action: Action,
    view: &V,
    health: Option<&'g mut NetHealth>,
) -> OpOutcome {
    let eng = Engine::new(net, wire, seed).with_retry(RETRY);
    let mut eng = match health {
        Some(health) => eng.with_health(health),
        None => eng,
    };
    let op = eng.submit(route_kind(kind), from, target, action);
    eng.run_with_shares(view);
    eng.take_outcome(op)
}

/// The span pass: replay the first `n` ops of the stream on `c`, each
/// real call followed by its layer replays.
fn span_pass<G: ContinuousGraph, S: Backend, T: Net>(
    c: &mut World<G, S, T>,
    n: usize,
    dir: &Path,
) -> (Spans, Counts) {
    let w = c.w;
    let (k, m) = (w.k as usize, w.m as usize);
    let mut ops = Vec::with_capacity(n);
    c.op_gen().extend(&mut ops, n);
    let mut spans = Spans::new();
    let mut counts = Counts::default();
    // what the replays own: a transport and a failure detector of
    // their own, a scratch shelf, and lookup buffers
    let mut wire = T::make(c.seed ^ 0x2E91A);
    let mut health = NetHealth::new();
    let mut shelf = S::create(&dir.join("scratch.wal"));
    let mut scratch = LookupScratch::new();
    let mut route = Route::empty();
    let mut clique: Vec<NodeId> = Vec::with_capacity(m);

    for (i, &op) in ops.iter().enumerate() {
        let id = i as u32;
        if w.churn_every.is_some_and(|every| i % every == every - 1) {
            let t0 = Instant::now();
            let ev = c.churn_event();
            let name = if ev.join {
                "replica.join_over"
            } else {
                "replica.leave_over"
            };
            spans.add(name, id, None, t0, ev.ns);
        }
        let from = c.live(op.origin);
        let key = u64::from(op.key);
        let (real, timed) = c.foreground(i as u64, op);
        let root_name = if op.put { "replica.put" } else { "replica.get" };
        let root = Some(spans.add(root_name, id, None, timed.t0, timed.ns));
        // Every replay draws its own engine seed. A replay on the real
        // op's seed would retrace its randomized route over tables the
        // real call has just pulled into cache, and cost a fraction of
        // it; a fresh seed walks a fresh route between the same two
        // ends, as cold as the real one was.
        let seed = if op.put {
            put_seed(c.seed, i as u64)
        } else {
            get_seed(c.seed, i as u64)
        };
        let fresh = |replay: u64| subseed(seed, replay);
        // the value the put just wrote (regenerated before the network
        // is borrowed for the replays)
        let value = op.put.then(|| c.value(op.key, c.gens[op.key as usize]));
        let kind = c.dht.kind;
        let net = &c.dht.net;
        let (point, _) = spans.time("core.hash_point", id, root, || c.dht.hash.point(key));

        let engine = if let Some(value) = value {
            let version = c.dht.shelves.map().get(&key).map_or(0, |item| item.version);
            let (shares, _) = spans.time("erasure.encode", id, root, || encode(&value, k, m));
            let (holders, _) = spans.time("erasure.seal", id, root, || {
                shares
                    .iter()
                    .zip(&real.holders)
                    .map(|(share, &node)| {
                        let header = ShareHeader {
                            version,
                            index: share.index,
                            k: w.k,
                            m: w.m,
                        };
                        Holder::seal(node, header, share)
                    })
                    .collect::<Vec<Holder>>()
            });
            let len = holders[0].sealed.len() as u32;
            let action = Action::PutShares {
                key,
                len,
                m: w.m,
                k: w.k,
                item: point,
            };
            let (_, engine) = spans.time("proto.engine_putshares", id, root, || {
                let health = Some(&mut health);
                engine_replay(
                    net,
                    &mut wire,
                    fresh(1),
                    kind,
                    from,
                    point,
                    action,
                    &NoShares,
                    health,
                )
            });
            spans.time("store.park_commit", id, root, || {
                for (idx, holder) in holders.into_iter().enumerate() {
                    shelf.park(key, point, idx as u8, holder);
                }
                shelf.commit(key, version);
            });
            engine
        } else {
            let action = Action::GetShares {
                key,
                m: w.m,
                k: w.k,
                item: point,
            };
            let view = ShelfView(&c.dht.shelves);
            let (_, engine) = spans.time("proto.engine_getshares", id, root, || {
                let health = Some(&mut health);
                engine_replay(
                    net,
                    &mut wire,
                    fresh(1),
                    kind,
                    from,
                    point,
                    action,
                    &view,
                    health,
                )
            });
            // the same replay without the failure detector: the
            // difference is what the per-destination health map costs
            let (_, bare) = spans.time("proto.engine_getshares_bare", id, Some(engine), || {
                engine_replay(
                    net,
                    &mut wire,
                    fresh(2),
                    kind,
                    from,
                    point,
                    action,
                    &view,
                    None,
                )
            });
            let ns = |s: u32| spans.all[s as usize].ns() as i64;
            counts.health_extra_ns.push(ns(engine) - ns(bare));
            let item = c.dht.shelves.map().get(&key);
            let (shares, _) = spans.time("erasure.open", id, root, || {
                real.shares
                    .iter()
                    .filter_map(|idx| item?.holders.get(idx)?.share())
                    .collect::<Vec<Share>>()
            });
            spans.time("erasure.decode", id, root, || {
                try_decode(&shares, k).is_ok()
            });
            engine
        };

        // what the engine replay above is made of: the routed lookup
        // through a bare engine, and beneath it the same lookup
        // straight on the tables plus the clique enumeration
        let (located, locate) = spans.time("proto.engine_locate", id, Some(engine), || {
            engine_replay(
                net,
                &mut wire,
                fresh(3),
                kind,
                from,
                point,
                Action::Locate,
                &NoShares,
                None,
            )
        });
        counts.locate_msgs += located.msgs;
        let mut rng = seeded(fresh(4));
        spans.time("dht.lookup", id, Some(locate), || {
            net.lookup_into(kind, from, point, &mut rng, &mut scratch, &mut route);
        });
        counts.lookups += 1;
        counts.hops += route.hops() as u64;
        spans.time("dht.clique_of", id, Some(locate), || {
            net.clique_of(point, m, &mut clique)
        });

        if w.churn_every.is_some() {
            let seed = subseed(c.seed ^ 0xF2, i as u64);
            spans.time("replica.pump_repair", id, None, || {
                c.dht.pump_repair(&mut c.wire, seed)
            });
        }
    }
    (spans, counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_root_minus_direct_children() {
        let spans = [
            span("replica.put", None, 0, 100),         // 0
            span("erasure.encode", Some(0), 100, 130), // 1: child, 30
            span("proto.engine", Some(0), 130, 170),   // 2: child, 40
            span("proto.locate", Some(2), 170, 195),   // 3: grandchild, not subtracted
            span("replica.get", None, 200, 210),       // 4
            span("erasure.decode", Some(4), 210, 230), // 5: child above its root
            span("replica.put", None, 300, 350),       // 6: no children
        ];
        assert_eq!(self_times(&spans, "replica.put"), vec![30, 50]);
        assert_eq!(
            self_times(&spans, "replica.get"),
            vec![0],
            "clamped, never negative"
        );
        assert_eq!(self_times(&spans, "proto.engine"), vec![15]);
        assert!(self_times(&spans, "absent").is_empty());
        let by = durations(&spans);
        assert_eq!(by["replica.put"], vec![100, 50]);
        assert_eq!(by["erasure.encode"], vec![30]);
    }
}
