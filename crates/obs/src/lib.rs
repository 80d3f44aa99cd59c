//! `dh_obs` — a deterministic flight recorder and unified metrics
//! registry over **virtual engine time**.
//!
//! The repro prices the paper's per-op claims (congestion, load under
//! batch workloads, dilation) through several subsystem-local structs:
//! `EngineStats`, `RepairReport`, `NetHealth`'s suspicion counters,
//! plus bench-local percentile math. This crate
//! unifies them behind two deterministic primitives:
//!
//! * a **flight recorder** (behind [`Obs`]) — a bounded ring of
//!   structured [`Event`]s stamped with the engine's virtual clock,
//!   with an [`Obs::explain`] query that reconstructs the causal chain
//!   of any op (route steps → scatter fan-out → hedges/retries →
//!   completing quorum) and a running fingerprint folded at record
//!   time, so an instrumented run pins its own trace in CI exactly
//!   like the wire traces do;
//! * a **metrics registry** ([`Registry`]) — counters, gauges and
//!   log₂-bucket histograms keyed by `(&'static str, u64)` with
//!   BTree-ordered snapshots ([`Snapshot`]).
//!
//! # Determinism
//!
//! Every event is a pure function of the seed: timestamps are engine
//! ticks, ids are protocol ids, byte costs are wire-encoding lengths.
//! Nothing here reads a wall clock or an OS facility (detlint rules
//! D1/D2 cover this crate), so the recorder fingerprint is invariant
//! across runs and machines.
//!
//! Two deliberate carve-outs keep the fingerprint *pinnable*:
//!
//! * **storage-plane events** ([`EventKind::WalAppend`],
//!   [`EventKind::Fsync`], [`EventKind::Compaction`],
//!   [`EventKind::RecoveryScan`]) are recorded — they show up in
//!   `explain` chains and counters — but are **excluded from the
//!   fingerprint fold**, so one pinned value covers the mem and file
//!   backends alike;
//! * **ring overflow** evicts the oldest events from `explain`'s view
//!   but never touches the fingerprint (folded at record time) — the
//!   overflow is counted, not silently dropped.
//!
//! # Cost
//!
//! The [`Obs`] handle is a `Clone`-able `Option` around the recorder.
//! The default handle is *off*: every emit/add/observe call is a
//! single `Option` discriminant test and nothing else, which is how
//! the pinned wire folds (`cd_bench::pins`) stay byte-identical with
//! observability disabled — by construction, not by re-measurement.
//! When on, every event is encoded (folded and pushed onto the ring)
//! the moment it is emitted; what that costs an op is the benchmark's
//! traced-run metric `obs.recorder_overhead_pct`.

#![deny(missing_docs)]

use cd_core::rng::splitmix64;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// Sentinel op id stamped on events that belong to no foreground op
/// (preload, churn, repair pumping, recovery).
pub const BACKGROUND: u64 = u64::MAX;

/// The structured event vocabulary. Node ids are raw `u32`s (this
/// crate sits below `dh_proto`); byte costs are wire-encoding lengths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A wire envelope left `src` for `dst` (`bytes` on the wire).
    Send {
        /// Sending node.
        src: u32,
        /// Destination node.
        dst: u32,
        /// Wire-encoded size of the message.
        bytes: u32,
    },
    /// A wire envelope arrived at `dst`.
    Deliver {
        /// Originating node.
        src: u32,
        /// Receiving node.
        dst: u32,
    },
    /// A progress timer was armed while waiting on `dst`.
    TimerArm {
        /// Node the op is waiting on.
        dst: u32,
        /// Virtual deadline (engine ticks).
        deadline: u64,
    },
    /// A progress timer fired at route step `step`.
    TimerFire {
        /// Route step the op had reached.
        step: u32,
    },
    /// The op gave up on its attempt and restarted (the event's
    /// `attempt` is the *new* attempt number).
    Retry,
    /// A hedge wave extended the scatter contact set.
    Hedge {
        /// Hedge wave number (1-based).
        wave: u32,
    },
    /// A scatter/gather entered its quorum phase at the coordinator.
    QuorumEntry {
        /// Coordinating node.
        coordinator: u32,
        /// Size of the holder clique.
        clique: u32,
        /// Acks needed for quorum.
        need: u32,
    },
    /// A share holder acknowledged a store/fetch.
    ShareAck {
        /// The holder that acked.
        holder: u32,
        /// Share index.
        idx: u32,
    },
    /// A repair frame was pumped from the replica outbox.
    RepairFrame {
        /// Frame source.
        src: u32,
        /// Frame destination.
        dst: u32,
        /// Wire-encoded size.
        bytes: u32,
    },
    /// The failure detector crossed its suspicion threshold for
    /// `node` (up = became suspect, down = cleared).
    SuspicionEdge {
        /// The node whose standing changed.
        node: u32,
        /// `true` when the node became suspect.
        up: bool,
        /// Suspicion level after the transition.
        level: u32,
    },
    /// A WAL record landed on disk (storage plane — not folded into
    /// the fingerprint).
    WalAppend {
        /// Encoded record size.
        bytes: u32,
    },
    /// A commit's fsync (storage plane).
    Fsync,
    /// The WAL was compacted (storage plane). Byte counts saturate at
    /// `u32::MAX` — the narrow fields keep [`EventKind`] (and with it
    /// every ring-resident event) compact.
    Compaction {
        /// Live bytes surviving the rewrite (saturating).
        live_bytes: u32,
        /// WAL length before compaction (saturating).
        wal_bytes: u32,
    },
    /// A recovery scan replayed the WAL at open (storage plane).
    /// Counts saturate at `u32::MAX`.
    RecoveryScan {
        /// Records applied (saturating).
        records: u32,
        /// Records skipped (bad checksum / unknown verb, saturating).
        skipped: u32,
        /// Torn bytes truncated at the tail (saturating).
        torn_bytes: u32,
    },
}

impl EventKind {
    /// Stable discriminant code for the fingerprint fold.
    fn code(self) -> u64 {
        match self {
            EventKind::Send { .. } => 0,
            EventKind::Deliver { .. } => 1,
            EventKind::TimerArm { .. } => 2,
            EventKind::TimerFire { .. } => 3,
            EventKind::Retry => 4,
            EventKind::Hedge { .. } => 5,
            EventKind::QuorumEntry { .. } => 6,
            EventKind::ShareAck { .. } => 7,
            EventKind::RepairFrame { .. } => 8,
            EventKind::SuspicionEdge { .. } => 9,
            EventKind::WalAppend { .. } => 10,
            EventKind::Fsync => 11,
            EventKind::Compaction { .. } => 12,
            EventKind::RecoveryScan { .. } => 13,
        }
    }

    /// Storage-plane events are recorded and counted but excluded
    /// from the fingerprint, so one pinned value covers the mem and
    /// file backends (see the crate docs).
    pub fn storage_plane(self) -> bool {
        matches!(
            self,
            EventKind::WalAppend { .. }
                | EventKind::Fsync
                | EventKind::Compaction { .. }
                | EventKind::RecoveryScan { .. }
        )
    }

    /// Payload words folded into the fingerprint, in a fixed order.
    fn fold(self, mut mix: impl FnMut(u64)) {
        match self {
            EventKind::Send { src, dst, bytes } => {
                mix(u64::from(src));
                mix(u64::from(dst));
                mix(u64::from(bytes));
            }
            EventKind::Deliver { src, dst } => {
                mix(u64::from(src));
                mix(u64::from(dst));
            }
            EventKind::TimerArm { dst, deadline } => {
                mix(u64::from(dst));
                mix(deadline);
            }
            EventKind::TimerFire { step } => mix(u64::from(step)),
            EventKind::Retry => {}
            EventKind::Hedge { wave } => mix(u64::from(wave)),
            EventKind::QuorumEntry { coordinator, clique, need } => {
                mix(u64::from(coordinator));
                mix(u64::from(clique));
                mix(u64::from(need));
            }
            EventKind::ShareAck { holder, idx } => {
                mix(u64::from(holder));
                mix(u64::from(idx));
            }
            EventKind::RepairFrame { src, dst, bytes } => {
                mix(u64::from(src));
                mix(u64::from(dst));
                mix(u64::from(bytes));
            }
            EventKind::SuspicionEdge { node, up, level } => {
                mix(u64::from(node));
                mix(u64::from(up));
                mix(u64::from(level));
            }
            // storage plane: never folded
            EventKind::WalAppend { .. }
            | EventKind::Fsync
            | EventKind::Compaction { .. }
            | EventKind::RecoveryScan { .. } => {}
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EventKind::Send { src, dst, bytes } => write!(f, "send {src} -> {dst} ({bytes} B)"),
            EventKind::Deliver { src, dst } => write!(f, "deliver {src} -> {dst}"),
            EventKind::TimerArm { dst, deadline } => {
                write!(f, "timer armed on {dst} (deadline t={deadline})")
            }
            EventKind::TimerFire { step } => write!(f, "timer fired at route step {step}"),
            EventKind::Retry => write!(f, "retry (fresh attempt)"),
            EventKind::Hedge { wave } => write!(f, "hedge wave {wave}"),
            EventKind::QuorumEntry { coordinator, clique, need } => {
                write!(f, "quorum entry at {coordinator} (clique {clique}, need {need})")
            }
            EventKind::ShareAck { holder, idx } => write!(f, "share ack from {holder} (idx {idx})"),
            EventKind::RepairFrame { src, dst, bytes } => {
                write!(f, "repair frame {src} -> {dst} ({bytes} B)")
            }
            EventKind::SuspicionEdge { node, up, level } => {
                let dir = if up { "suspect" } else { "cleared" };
                write!(f, "suspicion edge: node {node} {dir} (level {level})")
            }
            EventKind::WalAppend { bytes } => write!(f, "wal append ({bytes} B)"),
            EventKind::Fsync => write!(f, "fsync"),
            EventKind::Compaction { live_bytes, wal_bytes } => {
                write!(f, "compaction ({wal_bytes} B wal -> {live_bytes} B live)")
            }
            EventKind::RecoveryScan { records, skipped, torn_bytes } => {
                write!(f, "recovery scan ({records} records, {skipped} skipped, {torn_bytes} torn B)")
            }
        }
    }
}

/// One recorded event: virtual timestamp, owning op, attempt, and
/// the payload. Ring order is recording order, so no per-event
/// sequence number is stored — keeping the struct small keeps the
/// ring cache-resident, which is what bounds the recorder's drag on
/// the instrumented hot path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Virtual engine time (ticks).
    pub at: u64,
    /// Scenario-level op id ([`BACKGROUND`] for non-op traffic).
    pub op: u64,
    /// Attempt the event belongs to (engines stamp 1-based attempt
    /// numbers; 0 marks traffic outside any attempt).
    pub attempt: u32,
    /// The event payload.
    pub kind: EventKind,
}

/// A deterministic log₂-bucket histogram: bucket `b` holds samples
/// `v` with `bit_width(v) == b` (so bucket 0 is exactly `v == 0`).
#[derive(Clone, Debug)]
pub struct Hist {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist { buckets: [0; 65], count: 0, sum: 0, max: 0 }
    }
}

impl Hist {
    /// Record one sample.
    pub fn observe(&mut self, v: u64) {
        let b = (u64::BITS - v.leading_zeros()) as usize;
        self.buckets[b] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// `q`-quantile, resolved to the **lower bound** of the bucket the
    /// quantile rank lands in (deterministic, never interpolated).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count - 1) as f64 * q).round() as u64;
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if n > 0 && seen > rank {
                return if b == 0 { 0 } else { 1u64 << (b - 1) };
            }
        }
        self.max
    }
}

/// The metric key: a static name plus a numeric label (node id, share
/// index, wave — `0` when unused). BTree order makes every snapshot
/// iteration deterministic.
pub type Key = (&'static str, u64);

/// Counters, gauges and histograms behind BTree-ordered storage.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, u64>,
    hists: BTreeMap<Key, Hist>,
}

impl Registry {
    /// Add `v` to the counter `(name, label)`.
    pub fn add(&mut self, name: &'static str, label: u64, v: u64) {
        *self.counters.entry((name, label)).or_insert(0) += v;
    }

    /// Set the gauge `(name, label)` to `v`.
    pub fn gauge(&mut self, name: &'static str, label: u64, v: u64) {
        self.gauges.insert((name, label), v);
    }

    /// Record `sample` into the histogram `(name, label)`.
    pub fn observe(&mut self, name: &'static str, label: u64, sample: u64) {
        self.hists.entry((name, label)).or_default().observe(sample);
    }

    /// Read a counter back (0 when absent).
    pub fn counter(&self, name: &'static str, label: u64) -> u64 {
        self.counters.get(&(name, label)).copied().unwrap_or(0)
    }

    /// Deterministic point-in-time snapshot.
    pub fn snapshot(&self) -> Snapshot {
        let mut rows = Vec::new();
        for (&(name, label), &v) in &self.counters {
            rows.push(SnapRow { name, label, value: SnapValue::Counter(v) });
        }
        for (&(name, label), &v) in &self.gauges {
            rows.push(SnapRow { name, label, value: SnapValue::Gauge(v) });
        }
        for (&(name, label), h) in &self.hists {
            rows.push(SnapRow { name, label, value: SnapValue::Hist(Box::new(h.clone())) });
        }
        rows.sort_by(|a, b| (a.name, a.label).cmp(&(b.name, b.label)));
        Snapshot { rows }
    }
}

/// One snapshot row value.
#[derive(Clone, Debug)]
pub enum SnapValue {
    /// Monotone counter.
    Counter(u64),
    /// Last-write-wins gauge.
    Gauge(u64),
    /// Log₂-bucket histogram (boxed: the buckets dwarf the scalar
    /// variants).
    Hist(Box<Hist>),
}

/// One `(name, label)` entry of a [`Snapshot`].
#[derive(Clone, Debug)]
pub struct SnapRow {
    /// Metric name.
    pub name: &'static str,
    /// Numeric label (node id, share index, … — 0 when unused).
    pub label: u64,
    /// The value.
    pub value: SnapValue,
}

/// A BTree-ordered, deterministic snapshot of a [`Registry`].
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Rows sorted by `(name, label)`.
    pub rows: Vec<SnapRow>,
}

impl Snapshot {
    /// Sum of a counter over all labels.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.rows
            .iter()
            .filter(|r| r.name == name)
            .map(|r| match &r.value {
                SnapValue::Counter(v) => *v,
                _ => 0,
            })
            .sum()
    }

    /// All `(label, value)` pairs of a counter, in label order.
    pub fn counter_series(&self, name: &str) -> Vec<(u64, u64)> {
        self.rows
            .iter()
            .filter_map(|r| match &r.value {
                SnapValue::Counter(v) if r.name == name => Some((r.label, *v)),
                _ => None,
            })
            .collect()
    }

    /// Merge all labels of a histogram metric into one histogram.
    pub fn hist_merged(&self, name: &str) -> Hist {
        let mut out = Hist::default();
        for r in &self.rows {
            if let (true, SnapValue::Hist(h)) = (r.name == name, &r.value) {
                out.merge(h);
            }
        }
        out
    }
}

/// The reconstructed causal chain of one op (see [`Obs::explain`]).
#[derive(Clone, Debug)]
pub struct Explain {
    /// The op being explained.
    pub op: u64,
    /// Its events, in record order.
    pub events: Vec<Event>,
    /// `true` when the ring overflowed at some point, so the chain's
    /// *head* may have been evicted (the tail is always intact).
    pub truncated: bool,
}

impl Explain {
    /// Count events matching a predicate.
    fn count(&self, f: impl Fn(&EventKind) -> bool) -> usize {
        self.events.iter().filter(|e| f(&e.kind)).count()
    }

    /// Number of attempts observed. Protocol events carry 1-based
    /// attempt numbers; plane events stamped with attempt 0 (storage,
    /// suspicion) still witness one attempt.
    pub fn attempts(&self) -> u32 {
        self.events.iter().map(|e| e.attempt).max().map_or(0, |m| m.max(1))
    }

    /// Number of retries (attempt restarts).
    pub fn retries(&self) -> usize {
        self.count(|k| matches!(k, EventKind::Retry))
    }

    /// Number of hedge waves.
    pub fn hedges(&self) -> usize {
        self.count(|k| matches!(k, EventKind::Hedge { .. }))
    }

    /// Number of timer fires.
    pub fn timer_fires(&self) -> usize {
        self.count(|k| matches!(k, EventKind::TimerFire { .. }))
    }

    /// Number of share acks.
    pub fn acks(&self) -> usize {
        self.count(|k| matches!(k, EventKind::ShareAck { .. }))
    }

    /// Total bytes sent on behalf of this op.
    pub fn bytes_sent(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e.kind {
                EventKind::Send { bytes, .. } => u64::from(bytes),
                _ => 0,
            })
            .sum()
    }

    /// Suspect nodes this op tripped over (nodes named by an up-going
    /// suspicion edge).
    pub fn suspects_blamed(&self) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::SuspicionEdge { node, up: true, .. } => Some(node),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

impl fmt::Display for Explain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "op {}: {} events, {} attempt(s), {} retry(s), {} hedge wave(s), {} timer fire(s), \
             {} ack(s), {} B sent{}",
            self.op,
            self.events.len(),
            self.attempts(),
            self.retries(),
            self.hedges(),
            self.timer_fires(),
            self.acks(),
            self.bytes_sent(),
            if self.truncated { " [head may be truncated: ring overflowed]" } else { "" },
        )?;
        // every stamp, deadlines included, counts from the first event
        let t0 = self.events.first().map(|e| e.at).unwrap_or(0);
        for e in &self.events {
            let mut kind = e.kind;
            if let EventKind::TimerArm { deadline, .. } = &mut kind {
                *deadline = deadline.saturating_sub(t0);
            }
            writeln!(f, "  t={:<8} a{} {}", e.at.saturating_sub(t0), e.attempt, kind)?;
        }
        Ok(())
    }
}

/// The flight recorder: a bounded event ring plus the registry, a
/// monotone sequence counter, a running protocol-plane fingerprint,
/// and the current op context.
#[derive(Debug)]
struct Recorder {
    ring: std::collections::VecDeque<Event>,
    cap: usize,
    seq: u64,
    overflow: u64,
    fp: u64,
    ctx: u64,
    last_at: u64,
    registry: Registry,
    /// Dense per-node delivery counts (index = node id). Kept out of
    /// the string-keyed registry map — thousands of per-node labels
    /// would bloat it and tax every other counter add — and merged
    /// into snapshots as `load/deliver` rows at read time.
    node_loads: Vec<u64>,
}

impl Recorder {
    /// A recorder whose ring holds at most `cap` events (≥ 1).
    fn new(cap: usize) -> Self {
        // pre-fault the ring's backing pages up front: records then
        // write into warm memory instead of advancing the heap
        // frontier mid-run, which would charge minor faults (and the
        // allocator churn around them) to the instrumented pass
        let pre = cap.clamp(1, 1 << 17);
        let mut ring = std::collections::VecDeque::with_capacity(pre);
        let blank =
            Event { at: 0, op: BACKGROUND, attempt: 0, kind: EventKind::Retry };
        ring.resize(pre, blank);
        ring.clear();
        Recorder {
            ring,
            cap: cap.max(1),
            seq: 0,
            overflow: 0,
            fp: 0xcbf2_9ce4_8422_2325,
            ctx: BACKGROUND,
            last_at: 0,
            registry: Registry::default(),
            node_loads: Vec::new(),
        }
    }

    /// Registry snapshot with the dense per-node delivery loads
    /// merged in as `load/deliver` counter rows.
    fn snapshot(&self) -> Snapshot {
        let mut snap = self.registry.snapshot();
        for (i, &v) in self.node_loads.iter().enumerate() {
            if v != 0 {
                snap.rows.push(SnapRow {
                    name: "load/deliver",
                    label: i as u64,
                    value: SnapValue::Counter(v),
                });
            }
        }
        snap.rows.sort_by(|a, b| (a.name, a.label).cmp(&(b.name, b.label)));
        snap
    }

    /// Record one event at virtual time `at`. The fingerprint folds
    /// protocol-plane events only; the ring keeps everything, evicting
    /// the oldest event (counted in `overflow`) at capacity.
    fn record(&mut self, at: u64, attempt: u32, kind: EventKind) {
        self.last_at = at;
        if let EventKind::Deliver { dst, .. } = kind {
            // per-node load falls straight out of the event stream
            // (the congestion the paper's Definition 3 bounds is "how
            // many messages land on each server")
            let dst = dst as usize;
            if self.node_loads.len() <= dst {
                self.node_loads.resize(dst + 1, 0);
            }
            self.node_loads[dst] += 1;
        }
        if !kind.storage_plane() {
            let mut h = self.fp;
            let mut mix = |v: u64| h = splitmix64(h ^ v);
            mix(at);
            mix(self.ctx);
            mix(u64::from(attempt));
            mix(kind.code());
            kind.fold(&mut mix);
            self.fp = h;
        }
        if self.ring.len() == self.cap {
            self.ring.pop_front();
            self.overflow += 1;
        }
        self.ring.push_back(Event { at, op: self.ctx, attempt, kind });
        self.seq += 1;
    }

    /// Reconstruct the causal chain of `op` from the events still in
    /// the ring.
    fn explain(&self, op: u64) -> Explain {
        Explain {
            op,
            events: self.ring.iter().filter(|e| e.op == op).copied().collect(),
            truncated: self.overflow > 0,
        }
    }
}

/// The cheap, clonable observability handle threaded through the
/// engine, replica, store and benches. `Obs::default()` /
/// [`Obs::off`] is a no-op sink: every call is one `Option` test.
///
/// Everything runs on one thread, so the live recorder sits behind an
/// `Rc<RefCell<_>>`: clones share one recorder, and every event is
/// encoded — folded and pushed onto the ring — when it is emitted.
#[derive(Clone, Default, Debug)]
pub struct Obs {
    inner: Option<Rc<RefCell<Recorder>>>,
}

impl Obs {
    /// The no-op sink (the default).
    pub fn off() -> Self {
        Obs { inner: None }
    }

    /// A live recorder with ring capacity `cap`.
    pub fn recording(cap: usize) -> Self {
        Obs { inner: Some(Rc::new(RefCell::new(Recorder::new(cap)))) }
    }

    /// Is a recorder attached?
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// Run `f` on the live recorder, if any.
    #[inline]
    fn with<R>(&self, f: impl FnOnce(&mut Recorder) -> R) -> Option<R> {
        self.inner.as_ref().map(|r| f(&mut r.borrow_mut()))
    }

    /// Set the op context stamped on subsequent events ([`BACKGROUND`]
    /// for non-op traffic).
    pub fn begin_op(&self, op: u64) {
        self.with(|r| r.ctx = op);
    }

    /// Record one protocol-plane event at virtual time `at`.
    #[inline]
    pub fn emit(&self, at: u64, attempt: u32, kind: EventKind) {
        self.with(|r| r.record(at, attempt, kind));
    }

    /// Record a storage-plane event (stamped with the last-seen
    /// engine time).
    #[inline]
    pub fn emit_storage(&self, kind: EventKind) {
        self.with(|r| r.record(r.last_at, 0, kind));
    }

    /// Add `v` to the counter `(name, label)`.
    #[inline]
    pub fn add(&self, name: &'static str, label: u64, v: u64) {
        self.with(|r| r.registry.add(name, label, v));
    }

    /// Set the gauge `(name, label)`.
    #[inline]
    pub fn gauge(&self, name: &'static str, label: u64, v: u64) {
        self.with(|r| r.registry.gauge(name, label, v));
    }

    /// Record `sample` into the histogram `(name, label)`.
    #[inline]
    pub fn observe(&self, name: &'static str, label: u64, sample: u64) {
        self.with(|r| r.registry.observe(name, label, sample));
    }

    /// Running protocol-plane fingerprint (0 when off).
    pub fn fingerprint(&self) -> u64 {
        self.with(|r| r.fp).unwrap_or(0)
    }

    /// Ring evictions so far.
    pub fn overflow(&self) -> u64 {
        self.with(|r| r.overflow).unwrap_or(0)
    }

    /// Events recorded so far.
    pub fn recorded(&self) -> u64 {
        self.with(|r| r.seq).unwrap_or(0)
    }

    /// Reconstruct the causal chain of `op`. `None` when off.
    pub fn explain(&self, op: u64) -> Option<Explain> {
        self.with(|r| r.explain(op))
    }

    /// Snapshot the registry, per-node load table included (empty
    /// when off).
    pub fn snapshot(&self) -> Snapshot {
        self.with(|r| r.snapshot()).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(n: u32) -> EventKind {
        EventKind::Send { src: n, dst: n + 1, bytes: 8 }
    }

    #[test]
    fn ring_overflow_counted_fingerprint_stable() {
        let a = Obs::recording(4);
        let b = Obs::recording(1 << 12);
        for i in 0..64u32 {
            a.emit(u64::from(i), 0, send(i));
            b.emit(u64::from(i), 0, send(i));
        }
        assert_eq!(a.overflow(), 60, "evictions past capacity are counted");
        assert_eq!(b.overflow(), 0);
        assert_eq!(a.recorded(), 64);
        // overflow never perturbs the fingerprint: it folds at record
        // time, not from the ring
        assert_eq!(a.fingerprint(), b.fingerprint());
        // the ring keeps the newest events
        let ex = a.explain(BACKGROUND).expect("recording");
        assert_eq!(ex.events.len(), 4);
        assert!(ex.truncated);
        assert_eq!(ex.events.last().map(|e| e.at), Some(63));
    }

    #[test]
    fn storage_plane_excluded_from_fingerprint() {
        let a = Obs::recording(64);
        let b = Obs::recording(64);
        a.emit(5, 0, send(1));
        b.emit(5, 0, send(1));
        // only `b` sees storage traffic — fingerprints must agree
        b.emit_storage(EventKind::WalAppend { bytes: 33 });
        b.emit_storage(EventKind::Fsync);
        a.emit(9, 1, EventKind::Retry);
        b.emit(9, 1, EventKind::Retry);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // …but the events are recorded, not dropped
        assert_eq!(b.recorded(), 4);
        assert_eq!(b.explain(BACKGROUND).expect("recording").events.len(), 4);
    }

    #[test]
    fn explain_filters_by_op_context() {
        let o = Obs::recording(64);
        o.begin_op(7);
        o.emit(1, 0, send(1));
        o.emit(2, 0, EventKind::Hedge { wave: 1 });
        o.begin_op(8);
        o.emit(3, 0, send(2));
        let ex = o.explain(7).expect("recording");
        assert_eq!(ex.events.len(), 2);
        assert_eq!(ex.hedges(), 1);
        assert!(!ex.truncated);
        assert_eq!(o.explain(8).expect("recording").events.len(), 1);
    }

    #[test]
    fn registry_snapshot_is_btree_ordered_and_aggregates() {
        let o = Obs::recording(8);
        o.add("zeta", 0, 3);
        o.add("alpha", 2, 1);
        o.add("alpha", 1, 5);
        o.gauge("gmax", 0, 9);
        for v in [1u64, 2, 4, 1000] {
            o.observe("lat_ticks", 0, v);
        }
        let s = o.snapshot();
        let names: Vec<&str> = s.rows.iter().map(|r| r.name).collect();
        assert_eq!(names, vec!["alpha", "alpha", "gmax", "lat_ticks", "zeta"]);
        assert_eq!(s.counter_total("alpha"), 6);
        assert_eq!(s.counter_series("alpha"), vec![(1, 5), (2, 1)]);
        let h = s.hist_merged("lat_ticks");
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), 1000);
        assert!(h.quantile(0.999) >= 512, "p999 lands in the 1000-sample's bucket");
    }

    #[test]
    fn off_handle_is_inert() {
        let o = Obs::off();
        o.emit(1, 0, send(1));
        o.add("x", 0, 1);
        assert!(!o.is_on());
        assert_eq!(o.recorded(), 0);
        assert_eq!(o.fingerprint(), 0);
        assert!(o.explain(0).is_none());
        assert!(o.snapshot().rows.is_empty());
    }

    #[test]
    fn hist_quantiles_deterministic() {
        let mut h = Hist::default();
        for v in 0..100u64 {
            h.observe(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.0), 0);
        // p50 of 0..100 lands in bucket of 49 (bit width 6) -> lower bound 32
        assert_eq!(h.quantile(0.5), 32);
        assert_eq!(h.quantile(1.0), 64, "top bucket lower bound");
        assert_eq!(h.max(), 99);
    }
}
