//! The deterministic discrete-event runtime.
//!
//! An [`Engine`] drives per-node protocol state machines over any
//! [`Topology`] and any [`crate::transport::Transport`]. Time is a
//! `u64` tick counter; events (message deliveries, retry timers) live
//! in a priority queue ordered by `(time, sequence-number)`, so runs
//! are exactly reproducible. Per-op randomness (the Distance Halving
//! Lookup's digit string) comes from `sub_rng(engine_seed, op)`,
//! independent of how ops interleave.
//!
//! Every hop decision uses **only the current node's own table**
//! ([`Topology::local_cover`]), so what the engine executes is the
//! paper's local protocol, message by message. Local steps (the
//! message position moves but stays on the same server) cost nothing;
//! a message is sent exactly when the hop crosses to another server,
//! which is why the `Inline` transport reproduces `DhNetwork::lookup`
//! routes bit for bit. One exception: a hedged DH op with a detector
//! attached has its digit string chosen up front (`Engine::plan_walk`)
//! from 32 candidate walks simulated over *other* servers' tables and
//! priced with the detector's per-destination estimates. Without it
//! `e_chaos`'s healthy hedged p50 goes 137 → 182 ticks and its grey
//! hedged p99 380 → 804, losing the 2× margin over the fixed policy.
//!
//! Loss is survived end-to-end: each send arms a progress timer
//! stamped with the op's `(attempt, step)`; if the op has not advanced
//! when the timer fires, the origin restarts the operation (fresh
//! digits, same target) up to [`RetryPolicy::max_attempts`] times.
//! Duplicated or reordered deliveries and retransmissions from
//! abandoned attempts are recognised by their stamps and ignored.
//!
//! # The quorum read
//!
//! §6.2 stores an item as `m` shares of which any `k` reconstruct, so
//! a `GetShares` scatter fetches `k`, not `m`: the coordinator's own
//! share (a free local step) plus the next `k − 1` covers in contact
//! order. A *not-found* reply that leaves the read short fetches the
//! shortfall from the next covers at once; a reply that is merely late
//! or lost is covered by a backup `FetchShare` (wave-stamped) after a
//! hedge delay, so a lost reply costs one extra fetch, not an
//! end-to-end restart. The read completes at `k` found shares, or once
//! every cover has answered (a definitive miss). There is no other
//! read path, under any [`RetryPolicy`].
//!
//! # The quorum write
//!
//! A `PutShares` scatter still ships one `StoreShare` to every cover
//! — placement is all `m` shares — but a write commits at `k`
//! acknowledgements, so only the coordinator's own slot (a free local
//! ack) and the next `k − 1` covers in contact order are asked to ack
//! (the store's ack bit). For a put, *contacted* means "asked to ack",
//! as it means "asked to reply" for a read, so the read machinery
//! serves it unchanged: the hedge timer backs a silent acker up by
//! asking the next covers in contact order — as many as the write is
//! still short, at once — with a store carrying the ack bit
//! (idempotent where the share already landed, a re-shipment where it
//! was lost), and only a cover that was asked is ever blamed. The put
//! completes at `k` acks; no ack is sent to be thrown away.
//!
//! # Grey-failure tolerance
//!
//! A fixed timeout cannot distinguish "dead" from "slow". Attaching a
//! [`crate::health::NetHealth`] ([`Engine::with_health`]) feeds every
//! planned delivery into per-destination Jacobson RTT estimators and
//! decays/raises per-node suspicion counters; the opt-in
//! [`RetryPolicy::hedge`] flag then changes behavior: progress timers
//! use the per-destination bound (`3·rto`, clamped to the fixed
//! timeout as a ceiling) with deterministic per-attempt jitter drawn
//! from `sub_rng(seed, op, attempt)` — traces stay fingerprintable —
//! and scatter rounds back off exponentially across attempts; a
//! quorum op asks the least-suspect covers first, a read hands
//! coordination off a suspect coordinator, and DH walks are
//! pre-planned around suspects. Suspicion never fails an op: only
//! fewer than `k` answering covers put a clique out of reach.
//!
//! With the flag off the estimators set one thing only: the hedge
//! delay of a quorum op's backup timer.

use crate::health::NetHealth;
use crate::node::NodeId;
use crate::transport::{Delivery, Transport};
use crate::wire::{Action, Envelope, OpId, RouteKind, Wire};
use cd_core::interval::Interval;
use cd_core::point::Point;
use cd_core::rng::sub_rng;
use cd_core::walk::{prefix_walk_delta, walk_budget, TwoSidedWalk};
use dh_obs::{EventKind as ObsEvent, Obs};
use rand::rngs::StdRng;
use rand::Rng;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::mem;

/// The local view a protocol needs from an overlay: the degree
/// parameter, each server's own segment, and the server's routing
/// primitive (its own table, nothing global). `dh_dht` implements this
/// for `DhNetwork`.
pub trait Topology {
    /// The degree parameter ∆ of the continuous graph.
    fn delta(&self) -> u32;
    /// The segment owned by `n` (starts at `n`'s identifier point).
    fn segment_of(&self, n: NodeId) -> Interval;
    /// The node covering `p` *as visible from `cur`*: `cur` itself if
    /// its segment covers `p`, otherwise the entry of `cur`'s own
    /// neighbor table covering `p`, otherwise `None`.
    fn local_cover(&self, cur: NodeId, p: Point) -> Option<NodeId>;
    /// One greedy routing step: the next continuous position of a
    /// message at `p` heading for `target` (`p ≠ target`), for
    /// topologies routed by [`crate::wire::RouteKind::Greedy`]. The
    /// default panics — only topologies whose continuous graph has
    /// greedy routing (e.g. the Chord-like instance) override it.
    fn greedy_step(&self, _p: Point, _target: Point) -> Point {
        panic!("this topology has no greedy routing")
    }
    /// The ring successor of `n`. The replicated-storage scatter
    /// (§6.2) uses it to enumerate the cover clique of an item — the
    /// `m` consecutive covers starting at the server covering
    /// `h(item)`. The default panics: only topologies that expose
    /// their ring (e.g. `dh_dht::CdNetwork`) support replicated ops.
    fn ring_succ(&self, _n: NodeId) -> NodeId {
        panic!("this topology does not expose its ring")
    }
    /// The ring predecessor of `n` (see [`Self::ring_succ`]): lets a
    /// coordinator that entered the clique mid-span walk back to the
    /// clique primary.
    fn ring_pred(&self, _n: NodeId) -> NodeId {
        panic!("this topology does not expose its ring")
    }
}

/// Read-only view of the share placement the storage layer maintains,
/// consulted by the engine whenever a [`Wire::FetchShare`] arrives at
/// a cover: the engine models the message flow of the §6.2 clique
/// protocol, the actual share bytes live above it (`dh_replica`).
/// Placement is a set — any `k` distinct shares reconstruct — so a
/// cover is asked for *its* share, whichever index that is.
pub trait ShareView {
    /// The share `node` holds of item `key`'s committed generation:
    /// its index and its wire length in bytes. `None` if it holds none.
    fn share_of(&self, node: NodeId, key: u64) -> Option<(u8, u32)>;
}

/// The empty share store: no node holds anything. What [`Engine::run`]
/// consults — sufficient for every non-replicated protocol and for
/// replicated *writes*.
pub struct NoShares;

impl ShareView for NoShares {
    fn share_of(&self, _node: NodeId, _key: u64) -> Option<(u8, u32)> {
        None
    }
}

/// A route: servers visited (consecutive duplicates collapsed) and the
/// continuous position of the message at each. `nodes[0]` is the
/// source and `nodes.last()` the server covering the target. The one
/// route record of the system — `dh_dht` re-exports it as `Route` for
/// its synchronous lookups.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Path {
    /// Servers visited, in order.
    pub nodes: Vec<NodeId>,
    /// Continuous position of the message at each visited server.
    pub points: Vec<Point>,
    /// Index into `nodes` where phase 2 began (DH routing only).
    pub phase2_start: Option<usize>,
}

impl Path {
    /// An empty route buffer, for reuse across lookups.
    pub fn empty() -> Self {
        Path::default()
    }

    /// Reset to a single-node route starting at `source`, keeping the
    /// buffers.
    pub fn reset(&mut self, source: NodeId, at: Point) {
        self.nodes.clear();
        self.points.clear();
        self.phase2_start = None;
        self.nodes.push(source);
        self.points.push(at);
    }

    /// Move the message to `node` at position `at` (a new entry only
    /// when `node` differs from the current server).
    pub fn push(&mut self, node: NodeId, at: Point) {
        if *self.nodes.last().expect("path never empty") != node {
            self.nodes.push(node);
            self.points.push(at);
        } else {
            *self.points.last_mut().expect("path never empty") = at;
        }
    }

    /// Number of hops (messages sent on the successful attempt) =
    /// visited servers − 1; 0 for an empty route.
    pub fn hops(&self) -> usize {
        self.nodes.len().saturating_sub(1)
    }

    /// The server the route ended at.
    pub fn destination(&self) -> NodeId {
        *self.nodes.last().expect("path never empty")
    }
}

/// End-to-end retransmission policy.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Ticks without progress before the origin restarts the op. When
    /// hedging this is the *ceiling* (and the cold-start value);
    /// per-destination estimates undercut it, never exceed it.
    pub timeout: u64,
    /// Attempts (including the first) before the op is abandoned.
    pub max_attempts: u32,
    /// Consult the attached [`crate::health::NetHealth`]: progress
    /// timeouts from the per-destination Jacobson bound (deterministic
    /// per-attempt jitter; exponential backoff for scatter rounds),
    /// suspicion-ordered quorum reads with coordinator handoff, and
    /// pre-planned DH walks. No-op unless a health tracker is
    /// attached.
    pub hedge: bool,
}

impl RetryPolicy {
    /// A fixed-timeout policy with no detector-driven behavior — the
    /// classic pre-health engine semantics.
    pub const fn fixed(timeout: u64, max_attempts: u32) -> Self {
        RetryPolicy { timeout, max_attempts, hedge: false }
    }

    /// Fast-failing: a short timeout and a small retry budget, for
    /// callers that prefer an error over a long stall (interactive
    /// paths, tests asserting failure).
    pub const fn aggressive() -> Self {
        RetryPolicy::fixed(64, 3)
    }

    /// Patient: a generous timeout ceiling and a deep retry budget,
    /// for lossy/slow substrates where completion beats latency
    /// (benches, repair, bulk drivers).
    pub const fn patient() -> Self {
        RetryPolicy::fixed(4_096, 8)
    }

    /// Enable the detector-driven behaviors of the `hedge` field
    /// (builder-style).
    pub const fn hedged(mut self) -> Self {
        self.hedge = true;
        self
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::fixed(512, 5)
    }
}

/// Global counters of one engine run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Messages handed to the transport.
    pub msgs: u64,
    /// Modeled bytes handed to the transport.
    pub bytes: u64,
    /// Deliveries that reached a receiver.
    pub delivered: u64,
    /// Sends the transport lost entirely.
    pub dropped: u64,
    /// Extra arrivals beyond the first (duplication).
    pub duplicated: u64,
    /// Deliveries ignored because their `(attempt, step)` stamp was
    /// stale (old attempt, duplicate, reordered-behind, or a reply or
    /// ack that a backup already made redundant). A healthy quorum
    /// read or write leaves none: it asks only the `k` covers it uses.
    pub stale: u64,
    /// Op restarts triggered by progress timeouts.
    pub retries: u64,
    /// Ops that completed.
    pub completed: u64,
    /// Ops abandoned after `max_attempts`.
    pub failed: u64,
    /// Backup requests launched on the hedge timer past a late or lost
    /// answer: a read's `FetchShare`s and a write's acked
    /// `StoreShare`s (top-ups on *not-found* are not counted).
    pub hedged: u64,
}

impl EngineStats {
    /// Push every counter into a [`dh_obs`] registry under the
    /// `engine/…` namespace, labelled by `label` (0 for "the run";
    /// a scenario can use it to split foreground from repair traffic).
    /// Counters accumulate across engine runs, which is exactly what
    /// a scenario spanning many short-lived engines wants.
    pub fn export(&self, obs: &Obs, label: u64) {
        for (name, v) in [
            ("engine/msgs", self.msgs),
            ("engine/bytes", self.bytes),
            ("engine/delivered", self.delivered),
            ("engine/dropped", self.dropped),
            ("engine/duplicated", self.duplicated),
            ("engine/stale", self.stale),
            ("engine/retries", self.retries),
            ("engine/completed", self.completed),
            ("engine/failed", self.failed),
            ("engine/hedged", self.hedged),
        ] {
            obs.add(name, label, v);
        }
    }
}

/// The final record of one operation.
#[derive(Clone, Debug)]
pub struct OpOutcome {
    /// What the op did at its destination.
    pub action: Action,
    /// Did it complete (false ⇒ retry budget exhausted)?
    pub ok: bool,
    /// The server that answered (when `ok`).
    pub dest: Option<NodeId>,
    /// The route of the successful attempt.
    pub path: Path,
    /// Messages sent for this op, all attempts included.
    pub msgs: u64,
    /// Bytes sent for this op, all attempts included.
    pub bytes: u64,
    /// Attempts used (1 = succeeded first try).
    pub attempts: u32,
    /// Completion time on the engine clock.
    pub completed_at: Option<u64>,
    /// Whether any delivery the successful attempt consumed was
    /// corrupted in flight (false message injection).
    pub corrupt: bool,
    /// Replicated ops: the cover clique the scatter fanned out to, in
    /// ring order from the primary. A put sends share index `i` to
    /// `holders[i]`; churn repair may later move it to any member.
    /// Empty otherwise.
    pub holders: Vec<NodeId>,
    /// Replicated ops: for `PutShares`, the share indices whose
    /// [`Wire::StoreShare`] arrived intact at their holder (all
    /// attempts — these shares really are placed); for `GetShares`,
    /// the indices the replying covers named on the completing
    /// attempt, in arrival order (the first `k` reconstruct at quorum).
    pub shares: Vec<u8>,
}

/// Per-op routing machine state.
enum Machine {
    /// Waiting for its start event.
    Pending,
    /// Fast Lookup backward walk: current position, hops remaining.
    Fast { p: Point, remaining: u32 },
    /// Fast Lookup ring correction toward the true cover.
    FastRing,
    /// DH lookup phase 1 (forward along `p_t`).
    Dh1,
    /// DH lookup phase 2 (retrace `q_t … q_0`); `idx` indexes `trace`.
    Dh2 { idx: usize },
    /// Greedy routing: current continuous position of the message.
    Greedy { p: Point },
    /// Replicated op (§6.2): the route reached the clique and the
    /// coordinator fanned `StoreShare`/`FetchShare` out to the covers;
    /// the op now waits for its quorum of acks/replies.
    Scatter,
    /// Completed.
    Done,
    /// Abandoned after retry exhaustion.
    Failed,
}

/// Scatter-phase bookkeeping of a replicated op, keyed by cover: a
/// *slot* is a position in the clique. A put sends share `i` to slot
/// `i`, so for puts slot and share index coincide; a read asks each
/// slot for whatever share it holds. Boxed into the op lazily —
/// non-replicated ops never allocate it.
#[derive(Default)]
struct ReplicaState {
    /// The covers of the item, in ring order from the primary.
    holders: Vec<NodeId>,
    /// Slots whose `StoreShare` arrived intact (all attempts).
    stored: Vec<u8>,
    /// Slots acked to the coordinator on the current attempt (its own
    /// included).
    acked: Vec<u8>,
    /// Slots that answered a fetch on the current attempt.
    replied: Vec<u8>,
    /// Share indices found on the current attempt, in arrival order.
    gathered: Vec<u8>,
    /// Contact order (slots) of the current attempt: the coordinator
    /// first, then ring order (suspicion-sorted when hedging).
    contact_order: Vec<u8>,
    /// Entries of `contact_order` contacted so far: asked to reply (a
    /// read) or asked to ack (a put, which stores on every cover but
    /// asks only these).
    contacted: usize,
    /// Hedge wave counter: backups launched on this attempt (stamped
    /// into a read's backup `FetchShare`s).
    wave: u8,
}

impl ReplicaState {
    /// The slots that answered on the current attempt: acks for a put,
    /// replies for a read.
    fn answered(&self, put: bool) -> &[u8] {
        if put {
            &self.acked
        } else {
            &self.replied
        }
    }

    /// The contacted covers other than `cur` whose slot is not among
    /// `answered` — whom a fired timer blames.
    fn silent(&self, answered: &[u8], cur: NodeId) -> Vec<NodeId> {
        let contacted = self.contact_order.iter().take(self.contacted);
        contacted
            .filter(|slot| !answered.contains(slot))
            .filter_map(|&slot| self.holders.get(slot as usize).copied())
            .filter(|&n| n != cur)
            .collect()
    }
}

struct Op {
    kind: RouteKind,
    action: Action,
    from: NodeId,
    target: Point,
    rng: StdRng,
    machine: Machine,
    cur: NodeId,
    attempt: u32,
    step: u32,
    /// Fast Lookup plan: walk start and length (computed once).
    plan: Option<(Point, u32)>,
    walk: TwoSidedWalk,
    trace: Vec<Point>,
    path: Path,
    msgs: u64,
    bytes: u64,
    corrupt: bool,
    completed_at: Option<u64>,
    /// The node the op's last routed send is waiting on — whom the
    /// failure detector blames if the progress timer fires.
    waiting_on: Option<NodeId>,
    /// Pre-planned walk digits for a hedged DH op
    /// ([`Engine::plan_walk`]): a route vetted against the failure
    /// detector before the first send. Consumed digit-by-digit; the
    /// op's own rng takes over past its end, and a retry re-plans
    /// (the stall falsified the vetting).
    planned: Vec<u32>,
    /// Hedged scatter: whether this attempt already handed
    /// coordination off to a less-suspect cover (at most once).
    handed_off: bool,
    /// In-place retransmissions of the current routed step (hedged
    /// spurious-timeout protection; reset on every fresh step).
    resends: u8,
    /// The point of the last routed send — what an in-place
    /// retransmission of the current step carries again.
    last_at: Point,
    replica: Option<Box<ReplicaState>>,
}

enum EventKind {
    Start { op: OpId },
    Deliver { env: Envelope },
    Timer { op: OpId, attempt: u32, step: u32 },
    /// Backup checkpoint of a quorum op: if it is still short, blame
    /// the silent covers and contact the next ones.
    Hedge { op: OpId, attempt: u32 },
}

struct Event {
    at: u64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq)
        // pops first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Which FIFO lane of the [`EventQueue`] a push is headed for.
#[derive(Clone, Copy)]
enum Lane {
    /// Deliveries scheduled for the current tick (every `Inline` send).
    Immediate,
    /// Progress/hedge timers (a fixed retry delay ⇒ monotone pushes;
    /// hedged timeouts vary per destination and simply spill).
    Timer,
    /// Op start events (drivers submit in nondecreasing time order).
    Start,
}

/// The engine's event queue: three sorted FIFO lanes plus a spill
/// heap, popping in exactly the global `(time, seq)` order the old
/// single `BinaryHeap` produced — but with O(1) push/pop on every
/// common path.
///
/// The tick domain is small and regular: deliveries under `Inline`
/// land *at the current tick*, progress timers always fire a fixed
/// `retry.timeout` after the (monotone) clock, and drivers submit ops
/// at nondecreasing start times. Each of those streams is therefore
/// already sorted by `(time, seq)` and lives in a `VecDeque`; a push
/// that would break its lane's ordering (e.g. a jittered `Sim`
/// delivery) spills to the [`BinaryHeap`], which then only ever holds
/// the few genuinely unordered in-flight events. Correctness never
/// depends on the monotonicity heuristics — the pop compares all four
/// fronts.
#[derive(Default)]
struct EventQueue {
    immediate: VecDeque<Event>,
    timers: VecDeque<Event>,
    starts: VecDeque<Event>,
    heap: BinaryHeap<Event>,
}

impl EventQueue {
    /// Push into `lane` if that keeps the lane sorted, else spill to
    /// the heap.
    fn push(&mut self, ev: Event, lane: Lane) {
        let q = match lane {
            Lane::Immediate => &mut self.immediate,
            Lane::Timer => &mut self.timers,
            Lane::Start => &mut self.starts,
        };
        match q.back() {
            Some(back) if (back.at, back.seq) > (ev.at, ev.seq) => self.heap.push(ev),
            _ => q.push_back(ev),
        }
    }

    /// Pop the globally earliest event by `(time, seq)`.
    fn pop(&mut self) -> Option<Event> {
        // the best lane front, if any
        let mut best: Option<(u64, u64, Lane)> = None;
        for (lane, q) in [
            (Lane::Immediate, &self.immediate),
            (Lane::Timer, &self.timers),
            (Lane::Start, &self.starts),
        ] {
            if let Some(ev) = q.front() {
                if best.is_none_or(|(at, seq, _)| (ev.at, ev.seq) < (at, seq)) {
                    best = Some((ev.at, ev.seq, lane));
                }
            }
        }
        // compare against the spill heap's minimum
        if let Some(top) = self.heap.peek() {
            if best.is_none_or(|(at, seq, _)| (top.at, top.seq) < (at, seq)) {
                return self.heap.pop();
            }
        }
        best.and_then(|(_, _, lane)| match lane {
            Lane::Immediate => self.immediate.pop_front(),
            Lane::Timer => self.timers.pop_front(),
            Lane::Start => self.starts.pop_front(),
        })
    }
}

/// The deterministic event-driven runtime. See the module docs.
pub struct Engine<'g, G: Topology, T: Transport> {
    net: &'g G,
    transport: T,
    seed: u64,
    clock: u64,
    seq: u64,
    queue: EventQueue,
    ops: Vec<Op>,
    /// Retransmission policy for routed ops.
    pub retry: RetryPolicy,
    /// Global counters.
    pub stats: EngineStats,
    /// Failure detector / RTT tracker shared across engine runs (the
    /// layer above owns it; `None` ⇒ classic fixed-timeout behavior).
    health: Option<&'g mut NetHealth>,
    /// Flight-recorder handle ([`dh_obs`]). Off by default: every
    /// emit is one `Option` test, so an un-instrumented run schedules
    /// bit-identically to a build without the recorder at all.
    obs: Obs,
    plan_buf: Vec<Delivery>,
}

impl<'g, G: Topology, T: Transport> Engine<'g, G, T> {
    /// A fresh engine at tick 0 over `net` and `transport`, with all
    /// per-op randomness derived from `seed`.
    pub fn new(net: &'g G, transport: T, seed: u64) -> Self {
        Engine {
            net,
            transport,
            seed,
            clock: 0,
            seq: 0,
            queue: EventQueue::default(),
            ops: Vec::new(),
            retry: RetryPolicy::default(),
            stats: EngineStats::default(),
            health: None,
            obs: Obs::off(),
            plan_buf: Vec::new(),
        }
    }

    /// Set the retransmission policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Attach a failure detector / RTT tracker that outlives this
    /// engine run. Observation is unconditional, and a quorum read
    /// takes its hedge delay from the observed population RTT; the
    /// detector-driven behaviors additionally require
    /// [`RetryPolicy::hedge`].
    pub fn with_health(mut self, health: &'g mut NetHealth) -> Self {
        self.health = Some(health);
        self
    }

    /// Attach a flight recorder ([`dh_obs::Obs`]). Emission is purely
    /// observational — no event changes what the engine schedules and
    /// no emission consumes engine randomness — so an instrumented
    /// run's wire trace is bit-identical to an un-instrumented one.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The current engine time.
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Give back the transport (e.g. to read a recorder's fold).
    pub fn into_transport(self) -> T {
        self.transport
    }

    /// Submit an operation starting now. Returns its handle.
    pub fn submit(&mut self, kind: RouteKind, from: NodeId, target: Point, action: Action) -> OpId {
        self.submit_at(self.clock, kind, from, target, action)
    }

    /// Submit an operation whose origin starts acting at time `t`
    /// (staggered arrivals). The op's randomness is derived from its
    /// id (`sub_rng(seed, id)`).
    pub fn submit_at(
        &mut self,
        t: u64,
        kind: RouteKind,
        from: NodeId,
        target: Point,
        action: Action,
    ) -> OpId {
        let id = self.ops.len() as OpId;
        self.ops.push(Op {
            kind,
            action,
            from,
            target,
            rng: sub_rng(self.seed, u64::from(id)),
            machine: Machine::Pending,
            cur: from,
            attempt: 1,
            step: 0,
            plan: None,
            walk: TwoSidedWalk::new(Point(0), Point(0), 2),
            trace: Vec::new(),
            path: Path::default(),
            msgs: 0,
            bytes: 0,
            corrupt: false,
            completed_at: None,
            waiting_on: None,
            planned: Vec::new(),
            handed_off: false,
            resends: 0,
            last_at: Point(0),
            replica: None,
        });
        let at = t.max(self.clock);
        self.push_event(at, EventKind::Start { op: id }, Lane::Start);
        id
    }

    /// Send a bare (non-routed) protocol message — churn notifications
    /// and the like. Counted and traced like any other send; delivery
    /// has no state machine to drive.
    pub fn send(&mut self, src: NodeId, dst: NodeId, msg: Wire) {
        let bytes = msg.wire_bytes();
        let env = Envelope { src, dst, msg, corrupt: false };
        self.dispatch(env, bytes, 0);
    }

    /// Run to quiescence with no share store attached.
    pub fn run(&mut self) {
        self.run_with_shares(&NoShares);
    }

    /// Run to quiescence with a share store attached: every
    /// [`Wire::FetchShare`] a cover receives is answered by consulting
    /// `view` — what quorum reads ([`Action::GetShares`]) need.
    pub fn run_with_shares<V: ShareView>(&mut self, view: &V) {
        while let Some(ev) = self.queue.pop() {
            debug_assert!(ev.at >= self.clock, "time went backwards");
            debug_assert!(ev.seq < self.seq, "event from the future");
            self.clock = ev.at;
            match ev.kind {
                EventKind::Start { op } => {
                    self.start_op(op);
                    self.advance_or_enter(op, view);
                }
                EventKind::Deliver { env } => self.deliver(env, view),
                EventKind::Timer { op, attempt, step } => self.timer(op, attempt, step, view),
                EventKind::Hedge { op, attempt } => self.hedge_fire(op, attempt),
            }
        }
    }

    /// The outcome of a submitted op (meaningful after [`Self::run`]).
    /// Moves the route buffers out of the op: a second call returns
    /// the metrics again but an empty route.
    pub fn take_outcome(&mut self, id: OpId) -> OpOutcome {
        let op = &mut self.ops[id as usize];
        let ok = matches!(op.machine, Machine::Done);
        let (holders, shares) = match &op.replica {
            Some(rep) => (
                rep.holders.clone(),
                match op.action {
                    Action::PutShares { .. } => rep.stored.clone(),
                    _ => rep.gathered.clone(),
                },
            ),
            None => (Vec::new(), Vec::new()),
        };
        OpOutcome {
            action: op.action,
            ok,
            // the path may already have been taken; the destination is
            // wherever the op's message last sat
            dest: ok.then_some(op.cur),
            path: mem::take(&mut op.path),
            msgs: op.msgs,
            bytes: op.bytes,
            attempts: op.attempt,
            completed_at: op.completed_at,
            corrupt: op.corrupt,
            holders,
            shares,
        }
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    fn push_event(&mut self, at: u64, kind: EventKind, lane: Lane) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Event { at, seq, kind }, lane);
    }

    /// Hand `env` to the transport and schedule its arrivals. `bytes`
    /// is `env.msg.wire_bytes()`, computed once by the caller (it also
    /// charges the per-op accounting with it); `attempt` stamps the
    /// recorder's Send event (0 for bare sends).
    fn dispatch(&mut self, env: Envelope, bytes: u64, attempt: u32) {
        self.stats.msgs += 1;
        self.stats.bytes += bytes;
        self.obs.emit(
            self.clock,
            attempt,
            ObsEvent::Send { src: env.src.0, dst: env.dst.0, bytes: bytes as u32 },
        );
        let mut plan = mem::take(&mut self.plan_buf);
        plan.clear();
        self.transport.plan(self.clock, &env, &mut plan);
        match plan.len() {
            0 => self.stats.dropped += 1,
            n => self.stats.duplicated += (n - 1) as u64,
        }
        // feed the failure detector's RTT estimators with the planned
        // delivery delays — pure observation, never changes the plan.
        // Grey slowness rides whichever endpoint is slow, so hedged
        // runs attribute the delay to both: a slow *sender* gets
        // flagged too, instead of smearing its delay onto whoever it
        // talks to.
        if let Some(h) = self.health.as_deref_mut() {
            for d in &plan {
                let delay = d.at.saturating_sub(self.clock);
                h.observe(env.dst, delay);
                if self.retry.hedge && env.src != env.dst {
                    h.observe(env.src, delay);
                }
            }
        }
        for d in &plan {
            debug_assert!(d.at >= self.clock, "transport scheduled into the past");
            let env = Envelope { corrupt: env.corrupt || d.corrupt, ..env };
            self.push_event(d.at, EventKind::Deliver { env }, Lane::Immediate);
        }
        self.plan_buf = plan;
    }

    /// Initialize an op's routing state at its origin (attempt 1 or a
    /// retry): reset the path and plan/re-plan the walk.
    fn start_op(&mut self, id: OpId) {
        let delta = self.net.delta();
        // a hedged DH op pre-plans its digit string against the
        // detector — the initial attempt and every from-origin retry
        // alike ([`Self::plan_walk`])
        let planned = {
            let op = &self.ops[id as usize];
            if self.retry.hedge && matches!(op.kind, RouteKind::DistanceHalving) {
                self.plan_walk(op.from, op.target, id, op.attempt)
            } else {
                Vec::new()
            }
        };
        let op = &mut self.ops[id as usize];
        op.cur = op.from;
        op.handed_off = false;
        op.planned = planned;
        let seg = self.net.segment_of(op.from);
        match op.kind {
            RouteKind::Fast => {
                op.path.reset(op.from, seg.midpoint());
                let (h, t) = *op.plan.get_or_insert_with(|| {
                    // minimal t with w(σ(z)_t, target) ∈ s(V)
                    let z = seg.midpoint();
                    let budget = walk_budget(1, delta).max(2);
                    let mut t = 0u32;
                    let mut h = op.target;
                    while !seg.contains(h) {
                        t += 1;
                        assert!(
                            (t as usize) <= budget,
                            "Fast Lookup failed to land in own segment after {t} steps"
                        );
                        h = prefix_walk_delta(op.target, z, t as usize, delta);
                    }
                    (h, t)
                });
                // a 0-length walk is the local hit of the synchronous
                // Fast Lookup's early exit; the ring-correction state completes it in place
                op.machine = if t == 0 && seg.contains(op.target) {
                    Machine::FastRing
                } else {
                    Machine::Fast { p: h, remaining: t }
                };
            }
            RouteKind::DistanceHalving => {
                // the walk starts at the node's identifier point
                let x = seg.start();
                op.path.reset(op.from, x);
                op.walk.reset(x, op.target, delta);
                op.machine = Machine::Dh1;
            }
            RouteKind::Greedy => {
                // the message starts at the node's identifier point
                let x = seg.start();
                op.path.reset(op.from, x);
                op.machine = Machine::Greedy { p: x };
            }
        }
    }

    /// Take local steps for `op` at its current node until it either
    /// completes or must send a message (sent here), then return.
    fn advance<V: ShareView>(&mut self, id: OpId, view: &V) {
        loop {
            let op = &mut self.ops[id as usize];
            let cur = op.cur;
            match op.machine {
                Machine::Pending | Machine::Done | Machine::Failed => return,
                // waiting for acks/replies from the clique
                Machine::Scatter => return,
                Machine::Fast { p, remaining } => {
                    if remaining == 0 {
                        op.machine = Machine::FastRing;
                        continue;
                    }
                    let next_p = p.backward_delta(self.net.delta());
                    op.machine = Machine::Fast { p: next_p, remaining: remaining - 1 };
                    if self.hop(id, next_p) {
                        return; // message in flight
                    }
                }
                Machine::FastRing => {
                    let seg = self.net.segment_of(cur);
                    if seg.contains(op.target) {
                        op.path.push(cur, op.target);
                        self.arrive(id, view);
                        return;
                    }
                    // fixed-point truncation correction along the ring
                    let succ_start = seg.end();
                    if self.hop(id, succ_start) {
                        return;
                    }
                }
                Machine::Dh1 => {
                    let q = op.walk.target();
                    match self.net.local_cover(cur, q) {
                        Some(next) => {
                            // phase 1 ends; the message (if any) carries
                            // the phase-2 entry
                            op.path.push(next, q);
                            op.path.phase2_start = Some(op.path.nodes.len() - 1);
                            op.walk.target_backtrace_into(&mut op.trace);
                            op.machine = Machine::Dh2 { idx: 0 };
                            if next != cur {
                                self.send_step(id, next, q);
                                return;
                            }
                        }
                        None => {
                            let delta = self.net.delta();
                            assert!(
                                op.walk.steps() < 130,
                                "phase 1 failed to converge (∆ = {delta})"
                            );
                            // a planner-vetted digit string takes
                            // precedence; past its end (or when no plan
                            // was made) the op draws its own
                            let d = match op.planned.get(op.walk.steps()) {
                                Some(&d) => d,
                                None => op.rng.gen_range(0..delta),
                            };
                            op.walk.step_with(d);
                            let p = op.walk.source();
                            if self.hop(id, p) {
                                return;
                            }
                        }
                    }
                }
                Machine::Greedy { p } => {
                    if self.net.segment_of(cur).contains(op.target) {
                        op.path.push(cur, op.target);
                        self.arrive(id, view);
                        return;
                    }
                    // cur covers p and not the target, so p ≠ target
                    let next_p = self.net.greedy_step(p, op.target);
                    op.machine = Machine::Greedy { p: next_p };
                    if self.hop(id, next_p) {
                        return;
                    }
                }
                Machine::Dh2 { idx } => {
                    // at the last trace node the op has arrived;
                    // otherwise hop to the next one
                    if idx == op.trace.len() - 1 {
                        debug_assert!(self.net.segment_of(cur).contains(op.target));
                        self.arrive(id, view);
                        return;
                    }
                    // (the retrace offers no local detour: each
                    // backward hop is the doubling map, so its next
                    // cover is forced — suspect avoidance happens when
                    // the digit string is planned, not here)
                    op.machine = Machine::Dh2 { idx: idx + 1 };
                    let next_q = op.trace[idx + 1];
                    if self.hop(id, next_q) {
                        return;
                    }
                }
            }
        }
    }

    /// Move `op`'s message to the node covering `p`, using only the
    /// current node's own table. Returns `true` iff a message was sent
    /// (the op then waits for its delivery); `false` means the
    /// position moved but stayed on the same server.
    fn hop(&mut self, id: OpId, p: Point) -> bool {
        let op = &self.ops[id as usize];
        let cur = op.cur;
        let next = self.net.local_cover(cur, p).unwrap_or_else(|| {
            panic!(
                "missing discrete edge: {cur} (segment {:?}) has no table entry covering {:?}",
                self.net.segment_of(cur),
                p
            )
        });
        self.ops[id as usize].path.push(next, p);
        if next == cur {
            return false;
        }
        self.send_step(id, next, p);
        true
    }

    /// The `LookupStep` carrying the op's *current* step state — built
    /// the same way for a fresh send and for an in-place
    /// retransmission (identical stamps, so either delivery advances
    /// the op).
    fn step_msg(&self, id: OpId, at: Point) -> Wire {
        let op = &self.ops[id as usize];
        let digits = match op.kind {
            RouteKind::Fast | RouteKind::Greedy => 0,
            RouteKind::DistanceHalving => match op.machine {
                // phase 2 deletes one digit of τ per hop
                Machine::Dh2 { idx } => (op.trace.len() - 1 - idx) as u32,
                _ => op.walk.steps() as u32,
            },
        };
        Wire::LookupStep {
            op: id,
            attempt: op.attempt,
            step: op.step,
            at,
            digits,
            action: op.action,
        }
    }

    /// Emit the op's next `LookupStep` to `next` and arm the progress
    /// timer.
    fn send_step(&mut self, id: OpId, next: NodeId, at: Point) {
        {
            let op = &mut self.ops[id as usize];
            op.step += 1;
            op.resends = 0;
            op.last_at = at;
        }
        let msg = self.step_msg(id, at);
        let bytes = msg.wire_bytes();
        let op = &mut self.ops[id as usize];
        op.msgs += 1;
        op.bytes += bytes;
        let (src, attempt, step) = (op.cur, op.attempt, op.step);
        op.waiting_on = Some(next);
        // the timeout is decided with what was known *before* this
        // send's own delivery is observed
        let timeout = self.progress_timeout(id, next, attempt);
        self.dispatch(Envelope { src, dst: next, msg, corrupt: false }, bytes, attempt);
        self.obs.emit(
            self.clock,
            attempt,
            ObsEvent::TimerArm { dst: next.0, deadline: self.clock + timeout },
        );
        self.push_event(
            self.clock + timeout,
            EventKind::Timer { op: id, attempt, step },
            Lane::Timer,
        );
    }

    /// `base` plus deterministic per-`(op, attempt)` jitter of up to a
    /// quarter, clamped to the policy ceiling. The jitter stream is
    /// `sub_rng(seed, op, attempt)` — a pure function of the engine
    /// seed, so traces stay fingerprintable.
    fn jittered(&self, base: u64, id: OpId, attempt: u32) -> u64 {
        let span = (base / 4).max(1);
        let mut rng = sub_rng(
            self.seed ^ 0xBACC_0FF5,
            (u64::from(id) << 32) | u64::from(attempt),
        );
        (base + rng.gen_range(0..span)).min(self.retry.timeout)
    }

    /// The progress timeout for a send toward `dst`: the fixed policy
    /// timeout, or — hedging with health attached — the
    /// per-destination Jacobson bound with jitter.
    fn progress_timeout(&self, id: OpId, dst: NodeId, attempt: u32) -> u64 {
        let ceiling = self.retry.timeout;
        if !self.retry.hedge {
            return ceiling;
        }
        let Some(h) = self.health.as_deref() else { return ceiling };
        // a hedged route stalls one healthy-sized wait at most, every
        // attempt: a premature fire costs one in-place retransmission
        // (position kept), a true stall takes the re-planning detour
        // around the blamed cover ([`Self::plan_walk`]) — so neither a
        // slow cover's own inflated timeout nor exponential backoff
        // should delay either. Flat cap, per-attempt jitter only.
        let capped = h.timeout_for(dst, ceiling).min(h.route_cap(ceiling));
        self.jittered(capped, id, attempt)
    }

    /// Pre-plan a hedged Distance-Halving walk: simulate a few
    /// candidate digit strings over the segment map, price every cover
    /// each candidate visits — descent *and* the forced retrace orbit
    /// — with the detector's delay estimators, and return the cheapest
    /// string. The retrace offers no mid-route detour (each backward
    /// hop is the doubling map, digit-independent), so the digit
    /// string τ is the *only* routing freedom the §2.2.2 walk has;
    /// pricing whole candidates before the first send is how lookup
    /// planning consults the detector. A cover is priced at its
    /// personal smoothed delay when any sample exists (one slow
    /// delivery is enough to steer away — far earlier than the
    /// suspicion threshold), the population's otherwise, plus a
    /// penalty that makes suspect-free candidates always outrank
    /// suspect-crossing ones. Candidate streams are pure functions of
    /// `(engine seed, op, attempt)`, so traces stay fingerprintable;
    /// retries re-plan from wherever the op stalled. Empty (the op
    /// draws its own digits) without health or when no candidate
    /// converged.
    fn plan_walk(&self, from: NodeId, target: Point, id: OpId, attempt: u32) -> Vec<u32> {
        const CANDIDATES: u64 = 32;
        const MAX_STEPS: usize = 96;
        /// Expected-delay surcharge for a suspect cover: dominates any
        /// realistic sum of per-hop smoothed delays.
        const SUSPECT_PENALTY: u64 = 100_000;
        let Some(h) = self.health.as_deref() else {
            return Vec::new();
        };
        // price a cover at smoothed delay + deviation (greys are both
        // slow *and* jittery, so the deviation term separates them
        // from the healthy population even on few samples)
        let g = h.global_estimate();
        let global = (g.srtt() + g.var()).max(1);
        let price = |n: NodeId| -> u64 {
            let base = match h.estimate(n) {
                Some(e) if e.samples() > 0 => e.srtt() + e.var(),
                _ => global,
            };
            base + if h.is_suspect(n) { SUSPECT_PENALTY } else { 0 }
        };
        let delta = self.net.delta();
        let x = self.net.segment_of(from).start();
        let mut best: Option<(u64, Vec<u32>)> = None;
        for c in 0..CANDIDATES {
            let mut rng = sub_rng(
                self.seed ^ 0xD161_7909,
                (u64::from(id) << 32) | (u64::from(attempt) << 8) | c,
            );
            let mut walk = TwoSidedWalk::new(x, target, delta);
            let mut cur = from;
            let mut cost = 0u64;
            let mut ok = true;
            loop {
                // mirror the Dh1 arm: converged iff the current node's
                // own table covers the walk's target
                if let Some(entry) = self.net.local_cover(cur, walk.target()) {
                    cost += price(entry);
                    let trace = walk.target_backtrace();
                    let mut at = entry;
                    for q in trace.iter().skip(1) {
                        match self.net.local_cover(at, *q) {
                            Some(n) => {
                                at = n;
                                cost += price(n);
                            }
                            None => {
                                ok = false;
                                break;
                            }
                        }
                    }
                    break;
                }
                if walk.steps() >= MAX_STEPS {
                    ok = false;
                    break;
                }
                walk.step(&mut rng);
                match self.net.local_cover(cur, walk.source()) {
                    Some(n) => {
                        cur = n;
                        cost += price(n);
                    }
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                continue;
            }
            if best.as_ref().is_none_or(|(s, _)| cost < *s) {
                best = Some((cost, walk.digits().to_vec()));
            }
        }
        best.map(|(_, d)| d).unwrap_or_default()
    }

    /// The progress timeout of a scatter round: the slowest contacted
    /// cover bounds the round, so take the max per-destination bound,
    /// backed off exponentially across attempts.
    fn scatter_timeout(&self, id: OpId, holders: &[NodeId], attempt: u32) -> u64 {
        let ceiling = self.retry.timeout;
        if !self.retry.hedge {
            return ceiling;
        }
        let Some(h) = self.health.as_deref() else { return ceiling };
        let base = holders
            .iter()
            .map(|&n| h.timeout_for(n, ceiling))
            .max()
            .unwrap_or(ceiling);
        let shift = attempt.saturating_sub(1).min(4);
        self.jittered(base.saturating_mul(1u64 << shift).min(ceiling), id, attempt)
    }

    /// How long a quorum read waits before its next backup fetch.
    fn hedge_delay_now(&self) -> u64 {
        match self.health.as_deref() {
            Some(h) => h.hedge_delay(self.retry.timeout),
            None => (self.retry.timeout / 8).max(1),
        }
    }

    /// Is `node` within the §6.2 cover clique of `item` — one of the
    /// `m` ring-consecutive covers starting at the cover of `item`?
    /// (`node` is a clique member iff walking at most `m − 1` ring
    /// predecessors reaches the segment covering `item`.)
    fn in_clique(&self, node: NodeId, item: Point, m: u8) -> bool {
        let mut cur = node;
        for _ in 0..m {
            if self.net.segment_of(cur).contains(item) {
                return true;
            }
            cur = self.net.ring_pred(cur);
        }
        false
    }

    /// Step the op's machine — but a replicated op whose message
    /// already sits on a clique member skips the rest of the route and
    /// enters the scatter right there: §6.2 only needs the route to
    /// locate *one* cover, the clique reaches the rest in one hop.
    /// (This is also what makes quorum ops reachable around a dead
    /// primary: any live cover the route touches can coordinate.)
    fn advance_or_enter<V: ShareView>(&mut self, id: OpId, view: &V) {
        let op = &self.ops[id as usize];
        let entry = match op.action {
            Action::PutShares { item, m, .. } | Action::GetShares { item, m, .. } => {
                let routing = !matches!(
                    op.machine,
                    Machine::Scatter | Machine::Done | Machine::Failed
                );
                (routing && self.in_clique(op.cur, item, m)).then_some(())
            }
            _ => None,
        };
        if entry.is_some() {
            self.begin_scatter(id, view);
        } else {
            self.advance(id, view);
        }
    }

    /// A routed op's message reached the node covering its target:
    /// plain ops complete here; replicated ops enter the clique
    /// scatter instead.
    fn arrive<V: ShareView>(&mut self, id: OpId, view: &V) {
        if self.ops[id as usize].action.is_replicated() {
            self.begin_scatter(id, view);
        } else {
            self.complete(id);
        }
    }

    /// Enter the §6.2 clique protocol: the node the route landed on
    /// becomes the coordinator, enumerates the item's cover clique
    /// over the ring (every member is one hop away — the clique
    /// property), and asks the first `k − 1` covers beside itself to
    /// answer — a `FetchShare` each, or a `StoreShare` with the ack bit
    /// — while a put also stores on every other cover, unasked (see the
    /// module docs); its own share is a free local step. One progress
    /// timer covers the whole round: if the quorum is not reached in
    /// time, the op restarts end to end like any other routed op.
    fn begin_scatter<V: ShareView>(&mut self, id: OpId, view: &V) {
        let op = &self.ops[id as usize];
        let cur = op.cur;
        let (key, m, k, item, put, share_len) = match op.action {
            Action::PutShares { key, len, m, k, item } => (key, m, k, item, true, len),
            Action::GetShares { key, m, k, item } => (key, m, k, item, false, 0),
            _ => unreachable!("arrive() gates on is_replicated"),
        };
        // walk back to the clique primary (the cover of h(item)): the
        // route may have entered the clique at any member
        let mut primary = cur;
        let mut steps = 0u32;
        while !self.net.segment_of(primary).contains(item) {
            primary = self.net.ring_pred(primary);
            steps += 1;
            assert!(
                steps <= 2 * u32::from(m),
                "coordinator {cur} is not within the clique of {item:?}"
            );
        }
        // the clique: m consecutive covers, truncated if the whole
        // ring is smaller than m
        let mut holders: Vec<NodeId> = Vec::with_capacity(m as usize);
        let mut h = primary;
        for _ in 0..m {
            holders.push(h);
            h = self.net.ring_succ(h);
            if h == primary {
                break;
            }
        }
        // coordinator handoff: a suspect coordinator relays every
        // share reply through its own slow queue, so a hedged read
        // forwards the coordination one hop to the least-suspect
        // cover instead (at most once per attempt)
        if self.retry.hedge && !put && !self.ops[id as usize].handed_off {
            if let Some(h) = self.health.as_deref() {
                if h.is_suspect(cur) {
                    let best = holders
                        .iter()
                        .copied()
                        .min_by_key(|&n| (h.suspicion(n), n))
                        .unwrap_or(cur);
                    if best != cur && h.suspicion(best) < h.suspicion(cur) {
                        let op = &mut self.ops[id as usize];
                        op.handed_off = true;
                        self.send_step(id, best, item);
                        return;
                    }
                }
            }
        }
        // contact order: the coordinator's own slot first (a free local
        // step), then ring order — least-suspect first when the policy
        // consults the detector
        let mut order: Vec<u8> = (0..holders.len() as u8).collect();
        if self.retry.hedge {
            if let Some(h) = self.health.as_deref() {
                order.sort_by_key(|&i| (h.suspicion(holders[i as usize]), i));
            }
        }
        if let Some(pos) = order.iter().position(|&i| holders[i as usize] == cur) {
            order[..=pos].rotate_right(1);
        }
        // a quorum's worth of covers is asked to answer — not-found
        // replies and the backup timer extend it; a put still places
        // every share
        let need = (k as usize).min(holders.len()).max(1);
        self.obs.emit(
            self.clock,
            self.ops[id as usize].attempt,
            ObsEvent::QuorumEntry {
                coordinator: cur.0,
                clique: holders.len() as u32,
                need: need as u32,
            },
        );
        let op = &mut self.ops[id as usize];
        op.step += 1;
        op.waiting_on = None;
        let (attempt, step) = (op.attempt, op.step);
        let rep = op.replica.get_or_insert_with(Default::default);
        rep.acked.clear();
        rep.replied.clear();
        rep.gathered.clear();
        rep.holders.clear();
        rep.holders.extend_from_slice(&holders);
        rep.contact_order.clear();
        rep.contact_order.extend_from_slice(&order);
        rep.contacted = need;
        rep.wave = 0;
        op.machine = Machine::Scatter;
        // who is sent something, not who is asked: every cover gets its
        // store, only the asked covers get a fetch
        let sends = if put { holders.len() } else { need };
        for (pos, &slot) in order.iter().enumerate().take(sends) {
            let holder = holders[slot as usize];
            if holder == cur {
                let rep = self.ops[id as usize].replica.as_mut().expect("just set");
                if put {
                    if !rep.stored.contains(&slot) {
                        rep.stored.push(slot);
                    }
                    rep.acked.push(slot);
                } else {
                    rep.replied.push(slot);
                    if let Some((idx, _)) = view.share_of(holder, key) {
                        rep.gathered.push(idx);
                    }
                }
            } else {
                let msg = if put {
                    let ack = pos < need;
                    Wire::StoreShare { op: id, attempt, idx: slot, key, len: share_len, ack }
                } else {
                    Wire::FetchShare { op: id, attempt, key, wave: 0 }
                };
                self.send_replica(id, cur, holder, msg);
            }
        }
        let timeout = self.scatter_timeout(id, &holders, attempt);
        self.obs.emit(
            self.clock,
            attempt,
            ObsEvent::TimerArm { dst: cur.0, deadline: self.clock + timeout },
        );
        self.push_event(
            self.clock + timeout,
            EventKind::Timer { op: id, attempt, step },
            Lane::Timer,
        );
        if need < holders.len() {
            let delay = self.hedge_delay_now();
            self.push_event(self.clock + delay, EventKind::Hedge { op: id, attempt }, Lane::Timer);
        }
        // at k = 1 a coordinator lacking its share has nothing in flight
        self.extend_contact_if_stalled(id);
        self.check_quorum(id);
    }

    /// Ask the next uncontacted cover of a quorum op, if any remains:
    /// a read fetches its share, a write re-sends its store with the
    /// ack bit (idempotent where the first copy landed). Returns
    /// whether a request was sent.
    fn contact_next(&mut self, id: OpId) -> bool {
        let op = &mut self.ops[id as usize];
        let (attempt, cur, action) = (op.attempt, op.cur, op.action);
        let Some(rep) = op.replica.as_mut() else { return false };
        let Some(&slot) = rep.contact_order.get(rep.contacted) else { return false };
        rep.contacted += 1;
        rep.wave = rep.wave.saturating_add(1);
        let wave = rep.wave;
        let Some(&holder) = rep.holders.get(slot as usize) else { return false };
        let msg = match action {
            Action::GetShares { key, .. } => Wire::FetchShare { op: id, attempt, key, wave },
            Action::PutShares { key, len, .. } => {
                Wire::StoreShare { op: id, attempt, idx: slot, key, len, ack: true }
            }
            _ => return false,
        };
        self.send_replica(id, cur, holder, msg);
        true
    }

    /// Reply-driven top-up of a quorum read: every contacted cover
    /// has answered but the quorum is still short — fetch the whole
    /// shortfall from the next covers at once instead of waiting for
    /// the backup timer (a definitive miss is then two waves, not one
    /// round trip per cover).
    fn extend_contact_if_stalled(&mut self, id: OpId) {
        let op = &self.ops[id as usize];
        if !matches!(op.machine, Machine::Scatter) {
            return;
        }
        let Action::GetShares { k, .. } = op.action else { return };
        let Some(rep) = op.replica.as_ref() else { return };
        let need = (k as usize).min(rep.holders.len()).max(1);
        if rep.replied.len() < rep.contacted {
            return;
        }
        for _ in rep.gathered.len()..need {
            if !self.contact_next(id) {
                break;
            }
        }
    }

    /// A hedge timer fired: if the quorum op is still short, raise
    /// (gentle) suspicion of the silent covers, launch backups — one
    /// fetch for a read, the whole ack shortfall at once for a write —
    /// and chain the next hedge.
    fn hedge_fire(&mut self, id: OpId, attempt: u32) {
        let op = &self.ops[id as usize];
        if !matches!(op.machine, Machine::Scatter) || attempt != op.attempt {
            return; // the op completed or restarted since
        }
        let Some(rep) = op.replica.as_ref() else { return };
        let (put, backups) = match op.action {
            Action::PutShares { k, .. } => {
                (true, (k as usize).min(rep.holders.len()).saturating_sub(rep.acked.len()))
            }
            _ => (false, 1),
        };
        for n in rep.silent(rep.answered(put), op.cur) {
            self.raise_suspicion(n, true);
        }
        let mut sent = 0;
        while sent < backups && self.contact_next(id) {
            sent += 1;
            self.stats.hedged += 1;
            let wave = self.ops[id as usize].replica.as_ref().map_or(0, |r| u32::from(r.wave));
            self.obs.emit(self.clock, attempt, ObsEvent::Hedge { wave });
        }
        let more = self.ops[id as usize]
            .replica
            .as_ref()
            .is_some_and(|r| r.contacted < r.contact_order.len());
        if sent > 0 && more {
            let delay = self.hedge_delay_now();
            self.push_event(self.clock + delay, EventKind::Hedge { op: id, attempt }, Lane::Timer);
        }
    }

    /// Completion test of the scatter phase: a put completes at `k`
    /// acks (write quorum), a get at `k` gathered shares — or once
    /// every cover answered (the item may simply have fewer than `k`
    /// live shares; the driver decides what that means).
    fn check_quorum(&mut self, id: OpId) {
        let op = &self.ops[id as usize];
        if !matches!(op.machine, Machine::Scatter) {
            return;
        }
        let rep = op.replica.as_ref().expect("scatter state exists");
        let (put, k) = match op.action {
            Action::PutShares { k, .. } => (true, k),
            Action::GetShares { k, .. } => (false, k),
            _ => unreachable!("only replicated ops scatter"),
        };
        let need = (k as usize).min(rep.holders.len());
        let done = if put {
            rep.acked.len() >= need
        } else {
            rep.gathered.len() >= need || rep.replied.len() == rep.holders.len()
        };
        if done {
            self.complete(id);
        }
    }

    /// Emit one clique-protocol message (scatter fan-out, ack or
    /// reply), charged to the op. No per-message timer: the scatter
    /// round is covered by a single progress timer.
    fn send_replica(&mut self, id: OpId, src: NodeId, dst: NodeId, msg: Wire) {
        let bytes = msg.wire_bytes();
        let op = &mut self.ops[id as usize];
        op.msgs += 1;
        op.bytes += bytes;
        let attempt = op.attempt;
        self.dispatch(Envelope { src, dst, msg, corrupt: false }, bytes, attempt);
    }

    /// Accrue suspicion of `node` (gentle accrual when `hedge`),
    /// emitting a [`ObsEvent::SuspicionEdge`] when the detector's
    /// verdict flips. Pure pass-through to [`NetHealth`] plus reads —
    /// behavior is identical to calling `raise`/`raise_hedge` direct.
    fn raise_suspicion(&mut self, node: NodeId, hedge: bool) {
        let Some(h) = self.health.as_deref_mut() else { return };
        let was = h.is_suspect(node);
        if hedge {
            h.raise_hedge(node);
        } else {
            h.raise(node);
        }
        let now = h.is_suspect(node);
        let level = h.suspicion(node);
        if was != now {
            self.obs.emit(self.clock, 0, ObsEvent::SuspicionEdge { node: node.0, up: now, level });
        }
    }

    /// Decay suspicion of `node` (it showed life), emitting a
    /// [`ObsEvent::SuspicionEdge`] when the verdict flips back down.
    fn note_alive(&mut self, node: NodeId) {
        let Some(h) = self.health.as_deref_mut() else { return };
        let was = h.is_suspect(node);
        h.alive(node);
        let now = h.is_suspect(node);
        let level = h.suspicion(node);
        if was != now {
            self.obs.emit(self.clock, 0, ObsEvent::SuspicionEdge { node: node.0, up: now, level });
        }
    }

    fn deliver<V: ShareView>(&mut self, env: Envelope, view: &V) {
        self.stats.delivered += 1;
        if self.obs.is_on() {
            let attempt = match &env.msg {
                Wire::LookupStep { attempt, .. }
                | Wire::StoreShare { attempt, .. }
                | Wire::ShareAck { attempt, .. }
                | Wire::FetchShare { attempt, .. }
                | Wire::ShareReply { attempt, .. } => *attempt,
                _ => 0,
            };
            self.obs.emit(
                self.clock,
                attempt,
                ObsEvent::Deliver { src: env.src.0, dst: env.dst.0 },
            );
        }
        // any delivered message is evidence its sender is alive
        self.note_alive(env.src);
        match env.msg {
            Wire::LookupStep { op: id, attempt, step, .. } => {
                // an id this engine never issued (a hand-crafted send)
                // is ignored like any other stale traffic
                let Some(op) = self.ops.get_mut(id as usize) else {
                    self.stats.stale += 1;
                    return;
                };
                if matches!(op.machine, Machine::Done | Machine::Failed)
                    || attempt != op.attempt
                    || step != op.step
                {
                    self.stats.stale += 1;
                    return;
                }
                op.cur = env.dst;
                op.corrupt |= env.corrupt;
                op.waiting_on = None;
                self.advance_or_enter(id, view);
            }
            Wire::StoreShare { op: id, attempt, idx, ack, .. } => {
                self.deliver_store(&env, id, attempt, idx, ack)
            }
            Wire::ShareAck { op: id, attempt, idx } => self.deliver_ack(&env, id, attempt, idx),
            Wire::FetchShare { op: id, attempt, key, .. } => {
                self.deliver_fetch(&env, id, attempt, key, view)
            }
            Wire::ShareReply { op: id, attempt, idx, found, .. } => {
                self.deliver_reply(&env, id, attempt, idx, found)
            }
            _ => {} // bare protocol message: accounted, no machine
        }
    }

    /// Holder side of a replicated put: record the placement, and ack
    /// if the coordinator asked for it.
    fn deliver_store(&mut self, env: &Envelope, id: OpId, attempt: u32, idx: u8, ack: bool) {
        let Some(op) = self.ops.get_mut(id as usize) else {
            self.stats.stale += 1;
            return;
        };
        // a corrupted share fails the holder's integrity check and is
        // never stored — the write quorum, not this holder, recovers
        if attempt != op.attempt || matches!(op.machine, Machine::Failed) || env.corrupt {
            self.stats.stale += 1;
            return;
        }
        let rep = op.replica.get_or_insert_with(Default::default);
        if !rep.stored.contains(&idx) {
            rep.stored.push(idx);
        }
        // an unasked cover, or a late arrival past quorum, still places
        // its share (recorded above) but no ack could matter — stay quiet
        if ack && !matches!(op.machine, Machine::Done) {
            self.send_replica(id, env.dst, env.src, Wire::ShareAck { op: id, attempt, idx });
        }
    }

    /// Coordinator side of a replicated put: count the ack toward the
    /// write quorum.
    fn deliver_ack(&mut self, env: &Envelope, id: OpId, attempt: u32, idx: u8) {
        let Some(op) = self.ops.get_mut(id as usize) else {
            self.stats.stale += 1;
            return;
        };
        if attempt != op.attempt || !matches!(op.machine, Machine::Scatter) || env.corrupt {
            self.stats.stale += 1;
            return;
        }
        let rep = op.replica.as_mut().expect("scatter state exists");
        if !rep.acked.contains(&idx) {
            rep.acked.push(idx);
        }
        self.obs.emit(
            self.clock,
            attempt,
            ObsEvent::ShareAck { holder: env.src.0, idx: u32::from(idx) },
        );
        self.check_quorum(id);
    }

    /// Holder side of a quorum read: consult the share store, answer
    /// with the share this cover holds, naming its index.
    fn deliver_fetch<V: ShareView>(
        &mut self,
        env: &Envelope,
        id: OpId,
        attempt: u32,
        key: u64,
        view: &V,
    ) {
        let Some(op) = self.ops.get(id as usize) else {
            self.stats.stale += 1;
            return;
        };
        if attempt != op.attempt
            || matches!(op.machine, Machine::Done | Machine::Failed)
            || env.corrupt
        {
            self.stats.stale += 1;
            return;
        }
        let (idx, found, len) = match view.share_of(env.dst, key) {
            Some((idx, len)) => (idx, true, len),
            None => (0, false, 0),
        };
        let reply = Wire::ShareReply { op: id, attempt, idx, key, found, len };
        self.send_replica(id, env.dst, env.src, reply);
    }

    /// Coordinator side of a quorum read: count the reply; the first
    /// `k` found shares reconstruct.
    fn deliver_reply(&mut self, env: &Envelope, id: OpId, attempt: u32, idx: u8, found: bool) {
        let Some(op) = self.ops.get_mut(id as usize) else {
            self.stats.stale += 1;
            return;
        };
        // a corrupted reply fails its integrity check: it never counts
        // toward the quorum (false message injection cannot fake reads)
        if attempt != op.attempt || !matches!(op.machine, Machine::Scatter) || env.corrupt {
            self.stats.stale += 1;
            return;
        }
        let rep = op.replica.as_mut().expect("scatter state exists");
        // replies are counted per cover; `idx` is the share it named
        let Some(slot) = rep.holders.iter().position(|&h| h == env.src) else {
            self.stats.stale += 1;
            return;
        };
        let slot = slot as u8;
        if !rep.replied.contains(&slot) {
            rep.replied.push(slot);
            if found {
                rep.gathered.push(idx);
                // a found reply is the read-side twin of a put's ack:
                // the holder contributed a share toward the quorum
                self.obs.emit(
                    self.clock,
                    attempt,
                    ObsEvent::ShareAck { holder: env.src.0, idx: u32::from(idx) },
                );
            }
        }
        self.extend_contact_if_stalled(id);
        self.check_quorum(id);
    }

    fn timer<V: ShareView>(&mut self, id: OpId, attempt: u32, step: u32, view: &V) {
        let op = &self.ops[id as usize];
        if matches!(op.machine, Machine::Done | Machine::Failed)
            || attempt != op.attempt
            || step != op.step
        {
            return; // the op made progress since this timer was armed
        }
        self.obs.emit(self.clock, attempt, ObsEvent::TimerFire { step });
        let op = &self.ops[id as usize];
        // spurious-timeout protection for hedged routes: a stalled
        // step is usually a lost or merely-late message (a grey
        // crossing outlasts the healthy-sized timer but still
        // arrives) — retransmit in place with identical stamps
        // (either delivery advances the op) instead of discarding
        // route progress with a restart, and only soft-blame: a
        // restart is the last resort once the resend budget shows the
        // silence is real.
        const MAX_RESENDS: u8 = 2;
        if self.retry.hedge && !matches!(op.machine, Machine::Scatter) {
            if let (Some(dst), Some(_)) = (op.waiting_on, self.health.as_deref()) {
                if op.resends < MAX_RESENDS {
                    let at = op.last_at;
                    self.ops[id as usize].resends += 1;
                    let msg = self.step_msg(id, at);
                    let bytes = msg.wire_bytes();
                    let op = &mut self.ops[id as usize];
                    op.msgs += 1;
                    op.bytes += bytes;
                    let src = op.cur;
                    // repeated silence still accrues, gently
                    self.raise_suspicion(dst, true);
                    let timeout = self.progress_timeout(id, dst, attempt);
                    self.dispatch(Envelope { src, dst, msg, corrupt: false }, bytes, attempt);
                    self.push_event(
                        self.clock + timeout,
                        EventKind::Timer { op: id, attempt, step },
                        Lane::Timer,
                    );
                    return;
                }
            }
        }
        // the accrual detector's primary signal: blame whoever we were
        // waiting on when the progress timer fired
        if self.health.is_some() {
            let blamed: Vec<NodeId> = match (&op.machine, op.replica.as_ref()) {
                (Machine::Scatter, Some(rep)) => {
                    let put = matches!(op.action, Action::PutShares { .. });
                    rep.silent(rep.answered(put), op.cur)
                }
                _ => op.waiting_on.into_iter().collect(),
            };
            for n in blamed {
                self.raise_suspicion(n, false);
            }
        }
        let op = &mut self.ops[id as usize];
        if op.attempt >= self.retry.max_attempts {
            op.machine = Machine::Failed;
            self.stats.failed += 1;
            return;
        }
        // end-to-end restart from the origin: new attempt stamp
        // invalidates every in-flight message of the old one
        op.attempt += 1;
        op.step = 0;
        op.corrupt = false;
        self.stats.retries += 1;
        let fresh = op.attempt;
        self.obs.emit(self.clock, fresh, ObsEvent::Retry);
        let op = &self.ops[id as usize];
        // a hedged DH route that stalled mid-walk resumes from the
        // node holding the message — a fresh random descent from here
        // (the stalled hop's cover is now suspect, so the new digits
        // steer around it) — instead of paying the whole route again
        let resume = self.retry.hedge
            && self.health.is_some()
            && matches!(op.kind, RouteKind::DistanceHalving)
            && matches!(op.machine, Machine::Dh1 | Machine::Dh2 { .. });
        if resume {
            let (cur, target, attempt) = (op.cur, op.target, op.attempt);
            let here = self.net.segment_of(cur).start();
            let delta = self.net.delta();
            let digits = self.plan_walk(cur, target, id, attempt);
            let op = &mut self.ops[id as usize];
            op.handed_off = false;
            op.walk.reset(here, op.target, delta);
            op.planned = digits;
            op.machine = Machine::Dh1;
        } else {
            self.start_op(id);
        }
        self.advance_or_enter(id, view);
    }

    fn complete(&mut self, id: OpId) {
        let op = &mut self.ops[id as usize];
        op.machine = Machine::Done;
        op.completed_at = Some(self.clock);
        self.stats.completed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{Delivery, Inline, Recorder, Sim};
    use crate::fault::ChaosNet;
    use cd_core::pointset::PointSet;

    /// A complete-graph toy topology: every server's "table" covers the
    /// whole circle, so `local_cover` always answers. Exercises the
    /// engine core (timers, retries, stamps, accounting) without
    /// depending on the Distance Halving discretisation — the
    /// bit-identity tests against `DhNetwork` live in `dh_dht`.
    struct Complete {
        ps: PointSet,
        delta: u32,
    }

    impl Complete {
        fn new(n: usize, delta: u32) -> Self {
            Complete { ps: PointSet::evenly_spaced(n), delta }
        }

        fn cover(&self, p: Point) -> NodeId {
            let pts = self.ps.points();
            let idx = pts.partition_point(|x| x.bits() <= p.bits());
            NodeId(if idx == 0 { pts.len() as u32 - 1 } else { idx as u32 - 1 })
        }
    }

    impl Topology for Complete {
        fn delta(&self) -> u32 {
            self.delta
        }
        fn segment_of(&self, n: NodeId) -> Interval {
            self.ps.segment(n.0 as usize)
        }
        fn local_cover(&self, _cur: NodeId, p: Point) -> Option<NodeId> {
            Some(self.cover(p))
        }
        fn greedy_step(&self, p: Point, target: Point) -> Point {
            // chord-style: the largest 2⁻ⁱ not overshooting the target
            let d = target.offset_from(p);
            p.wrapping_add(1u64 << (63 - d.leading_zeros()))
        }
        fn ring_succ(&self, n: NodeId) -> NodeId {
            NodeId((n.0 + 1) % self.ps.len() as u32)
        }
        fn ring_pred(&self, n: NodeId) -> NodeId {
            let len = self.ps.len() as u32;
            NodeId((n.0 + len - 1) % len)
        }
    }

    fn submit_mixed(eng: &mut Engine<Complete, impl Transport>, n: u32) -> Vec<OpId> {
        (0..n)
            .map(|i| {
                let kind =
                    if i % 2 == 0 { RouteKind::Fast } else { RouteKind::DistanceHalving };
                let from = NodeId(i % 16);
                let target = Point(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(i) + 1));
                eng.submit(kind, from, target, Action::Locate)
            })
            .collect()
    }

    #[test]
    fn inline_ops_complete_at_the_cover() {
        let net = Complete::new(16, 2);
        let mut eng = Engine::new(&net, Inline, 7);
        let ops = submit_mixed(&mut eng, 40);
        eng.run();
        assert_eq!(eng.stats.failed, 0);
        assert_eq!(eng.stats.completed, 40);
        for id in ops {
            let out = eng.take_outcome(id);
            assert!(out.ok);
            let dest = out.dest.expect("completed");
            assert!(net.segment_of(dest).contains(
                match out.action { Action::Locate => out.path.points[out.path.points.len() - 1], _ => unreachable!() }
            ));
            assert_eq!(out.attempts, 1);
            assert_eq!(out.msgs as usize, out.path.hops());
        }
    }

    #[test]
    fn greedy_machine_completes_at_the_cover() {
        let net = Complete::new(16, 2);
        let mut eng = Engine::new(&net, Inline, 43);
        let ops: Vec<OpId> = (0..30)
            .map(|i| {
                let target = Point(0xD1B5_4A32_D192_ED03u64.wrapping_mul(i + 1));
                eng.submit(RouteKind::Greedy, NodeId((i % 16) as u32), target, Action::Locate)
            })
            .collect();
        eng.run();
        assert_eq!(eng.stats.failed, 0);
        for id in ops {
            let out = eng.take_outcome(id);
            assert!(out.ok);
            let target = *out.path.points.last().expect("nonempty");
            assert!(net.segment_of(out.dest.expect("done")).contains(target));
            assert_eq!(out.msgs as usize, out.path.hops(), "one hop = one message under Inline");
            // greedy walks clear one bit of the gap per continuous step
            assert!(out.path.hops() <= 64);
        }
    }

    #[test]
    fn greedy_machine_survives_drops() {
        let net = Complete::new(16, 2);
        let mut eng = Engine::new(&net, Sim::new(21).with_drop(0.25), 47)
            .with_retry(RetryPolicy::fixed(100, 12));
        let ops: Vec<OpId> = (0..25)
            .map(|i| {
                let target = Point(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i + 3));
                eng.submit(RouteKind::Greedy, NodeId((i % 16) as u32), target, Action::Locate)
            })
            .collect();
        eng.run();
        assert_eq!(eng.stats.failed, 0, "retry must absorb 25% loss on short greedy routes");
        for id in ops {
            assert!(eng.take_outcome(id).ok);
        }
    }

    #[test]
    fn sim_same_seed_same_everything() {
        let net = Complete::new(32, 2);
        let run = || {
            let mut eng =
                Engine::new(&net, Recorder::new(Sim::new(3).with_drop(0.1).with_dup(0.1)), 11)
                    .with_retry(RetryPolicy::fixed(200, 10));
            let ops = submit_mixed(&mut eng, 60);
            eng.run();
            let outs: Vec<(bool, u64, u64, u32, Option<u64>)> = ops
                .iter()
                .map(|&id| {
                    let o = eng.take_outcome(id);
                    (o.ok, o.msgs, o.bytes, o.attempts, o.completed_at)
                })
                .collect();
            let stats = eng.stats;
            (outs, stats, eng.into_transport().fingerprint())
        };
        let (a_out, a_stats, a_fp) = run();
        let (b_out, b_stats, b_fp) = run();
        assert_eq!(a_out, b_out);
        assert_eq!(a_stats, b_stats);
        assert_eq!(a_fp, b_fp, "same seed must give the identical event trace");
    }

    #[test]
    fn drops_are_survived_by_retry() {
        let net = Complete::new(16, 2);
        let mut eng = Engine::new(&net, Sim::new(5).with_drop(0.3), 13)
            .with_retry(RetryPolicy::fixed(100, 12));
        let ops = submit_mixed(&mut eng, 30);
        eng.run();
        assert_eq!(eng.stats.failed, 0, "retry must absorb 30% loss on short routes");
        assert!(eng.stats.retries > 0, "with 30% loss some op must have retried");
        for id in ops {
            assert!(eng.take_outcome(id).ok);
        }
    }

    #[test]
    fn duplicates_and_reordering_are_ignored_by_stamps() {
        let net = Complete::new(16, 2);
        let mut eng = Engine::new(&net, Sim::new(9).with_dup(0.5).with_latency(1, 20, 10), 17);
        let ops = submit_mixed(&mut eng, 40);
        eng.run();
        assert!(eng.stats.duplicated > 0);
        assert!(eng.stats.stale > 0, "duplicate arrivals must be discarded as stale");
        assert_eq!(eng.stats.failed, 0);
        for id in ops {
            let o = eng.take_outcome(id);
            assert!(o.ok);
            assert_eq!(o.attempts, 1, "duplication alone must never trigger a retry");
        }
    }

    #[test]
    fn fail_stop_destination_exhausts_retries() {
        let net = Complete::new(16, 2);
        let target = Point(u64::MAX / 2 + 12345);
        let dest = net.cover(target);
        let mut faulty = ChaosNet::new(Inline, 0);
        faulty.fail(dest);
        let from = NodeId((dest.0 + 1) % 16);
        let mut eng = Engine::new(&net, faulty, 19)
            .with_retry(RetryPolicy::fixed(50, 3));
        let op = eng.submit(RouteKind::Fast, from, target, Action::Locate);
        eng.run();
        let out = eng.take_outcome(op);
        assert!(!out.ok, "a dead destination cannot answer");
        assert_eq!(out.attempts, 3);
        assert_eq!(eng.stats.failed, 1);
        assert!(eng.stats.dropped >= 3);
    }

    #[test]
    fn injection_marks_outcomes_corrupt() {
        let net = Complete::new(16, 2);
        let mut faulty = ChaosNet::new(Inline, 0);
        // fail every node: any route that sends at least one message
        // must arrive corrupted
        for i in 0..16 {
            faulty.lie(NodeId(i));
        }
        let mut eng = Engine::new(&net, faulty, 23);
        let ops = submit_mixed(&mut eng, 20);
        eng.run();
        for id in ops {
            let o = eng.take_outcome(id);
            assert!(o.ok, "liars keep routing");
            assert_eq!(o.corrupt, o.msgs > 0, "message-free ops cannot be corrupted");
        }
    }

    #[test]
    fn bare_sends_are_accounted() {
        let net = Complete::new(8, 2);
        let mut eng = Engine::new(&net, Inline, 29);
        eng.send(NodeId(0), NodeId(1), Wire::NeighborDiff { entries: 3 });
        eng.send(NodeId(1), NodeId(2), Wire::JoinSplit { x: Point(5) });
        eng.run();
        assert_eq!(eng.stats.msgs, 2);
        assert_eq!(eng.stats.delivered, 2);
        assert_eq!(
            eng.stats.bytes,
            Wire::NeighborDiff { entries: 3 }.wire_bytes() + Wire::JoinSplit { x: Point(5) }.wire_bytes()
        );
    }

    #[test]
    fn hand_crafted_op_messages_are_ignored_not_fatal() {
        let net = Complete::new(8, 2);
        let mut eng = Engine::new(&net, Inline, 41);
        // a LookupStep naming an op this engine never issued must be
        // discarded like stale traffic, not crash the run
        eng.send(
            NodeId(0),
            NodeId(1),
            Wire::LookupStep {
                op: 7,
                attempt: 1,
                step: 1,
                at: Point(9),
                digits: 0,
                action: Action::Locate,
            },
        );
        eng.run();
        assert_eq!(eng.stats.stale, 1);
        assert_eq!(eng.stats.delivered, 1);
    }

    #[test]
    fn take_outcome_moves_the_route_out() {
        let net = Complete::new(16, 2);
        let mut eng = Engine::new(&net, Inline, 59);
        let op = eng.submit(RouteKind::Fast, NodeId(2), Point(u64::MAX / 7), Action::Locate);
        eng.run();
        let taken = eng.take_outcome(op);
        assert!(taken.ok);
        assert_eq!(taken.path.destination(), taken.dest.expect("completed"));
        // a second take still reports the metrics but the route is gone
        let again = eng.take_outcome(op);
        assert!(again.ok && again.path.nodes.is_empty());
        assert_eq!((again.msgs, again.bytes, again.attempts), (taken.msgs, taken.bytes, taken.attempts));
        assert_eq!(again.dest, taken.dest, "destination survives the move");
    }

    /// A share table for the replica tests: `(node, key) → (idx, len)`.
    struct TableShares(std::collections::HashMap<(u32, u64), (u8, u32)>);

    impl ShareView for TableShares {
        fn share_of(&self, node: NodeId, key: u64) -> Option<(u8, u32)> {
            self.0.get(&(node.0, key)).copied()
        }
    }

    /// The clique of `item` on the `Complete` ring: `m` consecutive
    /// servers starting at the cover.
    fn clique(net: &Complete, item: Point, m: u8) -> Vec<NodeId> {
        let mut out = vec![net.cover(item)];
        for _ in 1..m {
            out.push(net.ring_succ(*out.last().unwrap()));
        }
        out
    }

    #[test]
    fn replicated_put_places_all_shares_and_completes_at_quorum() {
        let net = Complete::new(16, 2);
        let item = Point(u64::MAX / 3);
        let cover = net.cover(item);
        let mut eng = Engine::new(&net, ScatterTags::default(), 101);
        let action = Action::PutShares { key: 7, len: 32, m: 5, k: 3, item };
        let op = eng.submit(RouteKind::Fast, cover, item, action);
        eng.run();
        let out = eng.take_outcome(op);
        assert!(out.ok);
        assert_eq!(out.dest, Some(cover), "the primary cover coordinates");
        assert_eq!(out.holders, clique(&net, item, 5));
        let mut stored = out.shares.clone();
        stored.sort_unstable();
        assert_eq!(stored, vec![0, 1, 2, 3, 4], "under Inline every share lands");
        // origin covers the item: (m − 1) remote StoreShares + the
        // (k − 1) acks that complete the quorum, no routing messages
        assert_eq!(out.msgs, (5 - 1) + (3 - 1));
        assert_eq!(out.attempts, 1);
        // only the acks the quorum uses are asked for: none arrives
        // after the op left its scatter
        assert_eq!((eng.stats.stale, eng.stats.hedged), (0, 0));
        assert_eq!((eng.stats.retries, eng.stats.dropped), (0, 0));
        assert_eq!(eng.into_transport().0, "SSSSAA", "a store per cover, k − 1 acks");
    }

    #[test]
    fn put_backs_up_a_silent_designated_acker() {
        let net = Complete::new(16, 2);
        let item = Point(u64::MAX / 3);
        let (m, k) = (5u8, 3u8);
        let holders = clique(&net, item, m);
        // contact order is ring order from the coordinator (holders[0]),
        // so slots 1 and 2 are asked to ack; slot 1 is dead, and so is
        // slot 4, which nobody asks
        let mut faulty = ChaosNet::new(Inline, 0);
        faulty.fail(holders[1]);
        faulty.fail(holders[4]);
        let mut health = NetHealth::new();
        let mut eng = Engine::new(&net, faulty, 157)
            .with_retry(RetryPolicy::fixed(512, 4))
            .with_health(&mut health);
        let action = Action::PutShares { key: 7, len: 32, m, k, item };
        let op = eng.submit(RouteKind::Fast, holders[0], item, action);
        eng.run();
        let out = eng.take_outcome(op);
        let stats = eng.stats;
        drop(eng);
        assert!(out.ok && out.attempts == 1, "k live covers commit without a restart");
        // Inline delays are 0, so the hedge waits the detector's floor
        assert_eq!(out.completed_at, Some(crate::health::MIN_TIMEOUT), "one hedge delay");
        assert_eq!((stats.hedged, stats.retries, stats.stale), (1, 0, 0));
        let mut stored = out.shares.clone();
        stored.sort_unstable();
        assert_eq!(stored, vec![0, 2, 3], "every live slot, no other");
        // 4 stores (2 lost) + slot 2's ack, then slot 3's backup + ack
        assert_eq!((out.msgs, stats.dropped), (7, 2));
        // the silent acker is blamed; the dead cover nobody asked is not
        assert!(health.suspicion(holders[1]) > 0);
        for h in [holders[0], holders[2], holders[3], holders[4]] {
            assert_eq!(health.suspicion(h), 0, "{h} was blamed without being asked");
        }
    }

    /// A share table in which every cover of the clique holds the share
    /// of `key` a put left there (index = slot, 40 bytes), except the
    /// slots in `lacking`.
    fn shares_on(holders: &[NodeId], key: u64, lacking: &[u8]) -> TableShares {
        let held = (0..holders.len() as u8).filter(|i| !lacking.contains(i));
        TableShares(held.map(|i| ((holders[i as usize].0, key), (i, 40u32))).collect())
    }

    /// `Inline` that logs the clique-protocol messages it carries, in
    /// send order: `'F'` per `FetchShare`, `'R'` per `ShareReply`,
    /// `'S'` per `StoreShare`, `'A'` per `ShareAck`.
    #[derive(Default)]
    struct ScatterTags(String);

    impl Transport for ScatterTags {
        fn plan(&mut self, now: u64, env: &Envelope, out: &mut Vec<Delivery>) {
            match env.msg {
                Wire::FetchShare { .. } => self.0.push('F'),
                Wire::ShareReply { .. } => self.0.push('R'),
                Wire::StoreShare { .. } => self.0.push('S'),
                Wire::ShareAck { .. } => self.0.push('A'),
                _ => {}
            }
            Inline.plan(now, env, out)
        }
    }

    #[test]
    fn quorum_read_gathers_first_k_shares() {
        let net = Complete::new(16, 2);
        let item = Point(12345 << 32);
        let (m, k, key) = (5u8, 3u8, 9u64);
        let holders = clique(&net, item, m);
        let view = shares_on(&holders, key, &[]);
        let mut eng = Engine::new(&net, ScatterTags::default(), 103);
        let from = NodeId((net.cover(item).0 + 7) % 16);
        let op = eng.submit(RouteKind::Fast, from, item, Action::GetShares { key, m, k, item });
        eng.run_with_shares(&view);
        let out = eng.take_outcome(op);
        assert!(out.ok);
        assert_eq!(out.holders, holders);
        assert_eq!(out.shares.len(), k as usize, "k shares reconstruct");
        // the coordinator's own share is the first one used
        let own = holders.iter().position(|&h| Some(h) == out.dest).expect("a cover coordinates");
        assert_eq!(out.shares[0], own as u8);
        // the reply bytes include the share payloads
        assert!(out.bytes >= 2 * 40);
        // nothing is fetched to be thrown away
        assert_eq!((eng.stats.stale, eng.stats.hedged), (0, 0));
        assert_eq!((eng.stats.retries, eng.stats.dropped), (0, 0));
        assert_eq!(eng.into_transport().0, "FFRR", "exactly k − 1 fetches, each answered");
    }

    #[test]
    fn a_cover_lacking_its_share_costs_one_extra_fetch() {
        let net = Complete::new(16, 2);
        let item = Point(12345 << 32);
        let (m, k, key) = (5u8, 3u8, 9u64);
        let holders = clique(&net, item, m);
        let view = shares_on(&holders, key, &[1]);
        let mut eng = Engine::new(&net, ScatterTags::default(), 103);
        let get = Action::GetShares { key, m, k, item };
        let op = eng.submit(RouteKind::Fast, holders[0], item, get);
        eng.run_with_shares(&view);
        let out = eng.take_outcome(op);
        assert!(out.ok);
        assert_eq!(out.shares, vec![0, 2, 3], "the next cover in contact order fills in");
        assert_eq!((eng.stats.stale, eng.stats.hedged, eng.stats.retries), (0, 0, 0));
        // the top-up leaves on the not-found reply, not on a timer
        assert_eq!(eng.into_transport().0, "FFRRFR");
    }

    #[test]
    fn a_read_gathers_whichever_indices_the_covers_hold() {
        // after churn repair the shares sit on the clique as a set, not
        // by position: slot i holds index σ(i) and one slot holds none
        let net = Complete::new(16, 2);
        let item = Point(12345 << 32);
        let (m, k, key) = (5u8, 3u8, 9u64);
        let holders = clique(&net, item, m);
        let sigma = [Some(4u8), None, Some(0), Some(2), Some(1)];
        let table = holders
            .iter()
            .zip(sigma)
            .filter_map(|(h, idx)| Some(((h.0, key), (idx?, 40u32))))
            .collect();
        let mut eng = Engine::new(&net, ScatterTags::default(), 103);
        let get = Action::GetShares { key, m, k, item };
        let op = eng.submit(RouteKind::Fast, holders[0], item, get);
        eng.run_with_shares(&TableShares(table));
        let out = eng.take_outcome(op);
        assert!(out.ok);
        assert_eq!(out.shares, vec![4, 0, 2], "own share, then the next covers' indices");
        assert_eq!(eng.into_transport().0, "FFRRFR", "the empty slot costs one top-up");
    }

    #[test]
    fn a_lone_coordinator_without_its_share_fetches_at_once() {
        // plain replication (k = 1): the first wave is the coordinator's
        // own share alone, so its absence must extend the read on the
        // spot — not a hedge delay (512 / 8 ticks) later
        let net = Complete::new(16, 2);
        let item = Point(0xABCD << 40);
        let (m, k, key) = (3u8, 1u8, 5u64);
        let holders = clique(&net, item, m);
        let view = shares_on(&holders, key, &[0]);
        let mut eng = Engine::new(&net, Sim::new(3), 139).with_retry(RetryPolicy::fixed(512, 4));
        let get = Action::GetShares { key, m, k, item };
        let op = eng.submit(RouteKind::Fast, holders[0], item, get);
        eng.run_with_shares(&view);
        let out = eng.take_outcome(op);
        assert!(out.ok);
        assert_eq!(out.shares, vec![1]);
        assert!(out.completed_at.expect("done") < 512 / 8, "one round trip, no timer");
        assert_eq!((eng.stats.hedged, eng.stats.retries), (0, 0));
    }

    /// `Sim`, except that the first message tagged `tag` is lost.
    struct LoseFirst {
        inner: Sim,
        tag: u8,
        lost: bool,
    }

    impl Transport for LoseFirst {
        fn plan(&mut self, now: u64, env: &Envelope, out: &mut Vec<Delivery>) {
            if !self.lost && env.msg.tag() == self.tag {
                self.lost = true;
                return;
            }
            self.inner.plan(now, env, out)
        }
    }

    #[test]
    fn a_lost_reply_costs_a_backup_fetch_not_a_restart() {
        let net = Complete::new(16, 2);
        let item = Point(12345 << 32);
        let (m, k, key) = (5u8, 3u8, 9u64);
        let holders = clique(&net, item, m);
        let view = shares_on(&holders, key, &[]);
        let reply =
            Wire::ShareReply { op: 0, attempt: 1, idx: 0, key, found: true, len: 40 }.tag();
        let lossy = LoseFirst { inner: Sim::new(11), tag: reply, lost: false };
        let mut eng = Engine::new(&net, lossy, 149).with_retry(RetryPolicy::fixed(512, 4));
        let from = NodeId((net.cover(item).0 + 7) % 16);
        let op = eng.submit(RouteKind::Fast, from, item, Action::GetShares { key, m, k, item });
        eng.run_with_shares(&view);
        let out = eng.take_outcome(op);
        assert!(out.ok);
        assert_eq!(out.shares.len(), k as usize);
        assert_eq!(out.attempts, 1);
        assert_eq!((eng.stats.dropped, eng.stats.retries, eng.stats.hedged), (1, 0, 1));
    }

    #[test]
    fn fail_stop_minority_does_not_block_the_quorum() {
        let net = Complete::new(16, 2);
        let item = Point(0xABCD_EF01_2345_6789);
        let (m, k, key) = (5u8, 3u8, 11u64);
        let holders = clique(&net, item, m);
        // fail m−k holders, but never the coordinating primary
        let mut faulty = ChaosNet::new(Inline, 0);
        faulty.fail(holders[2]);
        faulty.fail(holders[4]);
        let cover = holders[0];
        let mut eng = Engine::new(&net, faulty, 107)
            .with_retry(RetryPolicy::fixed(64, 4));
        let put = eng.submit(
            RouteKind::Fast,
            cover,
            item,
            Action::PutShares { key, len: 24, m, k, item },
        );
        eng.run();
        let out = eng.take_outcome(put);
        assert!(out.ok, "k live covers are a write quorum");
        let mut stored = out.shares.clone();
        stored.sort_unstable();
        assert_eq!(stored, vec![0, 1, 3], "dead covers cannot store");
        // now read back through the same fault pattern
        let mut table = std::collections::HashMap::new();
        for &i in &out.shares {
            table.insert((holders[i as usize].0, key), (i, 24u32));
        }
        let mut faulty = ChaosNet::new(Inline, 0);
        faulty.fail(holders[2]);
        faulty.fail(holders[4]);
        let mut eng = Engine::new(&net, faulty, 109)
            .with_retry(RetryPolicy::fixed(64, 4));
        let get = eng.submit(RouteKind::Fast, cover, item, Action::GetShares { key, m, k, item });
        eng.run_with_shares(&TableShares(table));
        let out = eng.take_outcome(get);
        assert!(out.ok, "k live shares are a read quorum");
        let mut gathered = out.shares.clone();
        gathered.sort_unstable();
        assert_eq!(gathered, vec![0, 1, 3]);
    }

    #[test]
    fn stale_suspicion_does_not_lock_a_healthy_clique_out() {
        // a healed partition leaves a majority of the clique suspected
        // though every cover is alive: the read must still be served
        let net = Complete::new(16, 2);
        let item = Point(12345 << 32);
        let (m, k, key) = (5u8, 3u8, 9u64);
        let holders = clique(&net, item, m);
        let view = shares_on(&holders, key, &[]);
        let mut health = NetHealth::new();
        for &h in &holders[1..4] {
            health.raise(h);
        }
        let mut eng = Engine::new(&net, Inline, 151)
            .with_retry(RetryPolicy::patient().hedged())
            .with_health(&mut health);
        let get = Action::GetShares { key, m, k, item };
        let op = eng.submit(RouteKind::Fast, holders[0], item, get);
        eng.run_with_shares(&view);
        let out = eng.take_outcome(op);
        assert!(out.ok, "k live covers answer, suspected or not");
        assert_eq!(out.shares.len(), k as usize);
        assert_eq!(out.attempts, 1);
    }

    #[test]
    fn missing_item_read_completes_once_every_cover_answered() {
        let net = Complete::new(16, 2);
        let item = Point(42);
        let mut eng = Engine::new(&net, ScatterTags::default(), 113);
        let op = eng.submit(
            RouteKind::Fast,
            NodeId(3),
            item,
            Action::GetShares { key: 99, m: 4, k: 2, item },
        );
        eng.run_with_shares(&NoShares);
        let out = eng.take_outcome(op);
        assert!(out.ok, "a complete round of not-founds is an answer, not a timeout");
        assert!(out.shares.is_empty());
        assert_eq!(out.attempts, 1);
        // two waves reach all m covers: own + k − 1, then the shortfall
        // of k at once — not one round trip per cover
        assert_eq!((eng.stats.hedged, eng.stats.retries), (0, 0));
        assert_eq!(eng.into_transport().0, "FRFFRR");
    }

    #[test]
    fn replicated_ops_survive_drops_via_retry() {
        let net = Complete::new(16, 2);
        let item = Point(u64::MAX / 5);
        let mut eng = Engine::new(&net, Sim::new(7).with_drop(0.2), 127)
            .with_retry(RetryPolicy::fixed(200, 12));
        let op = eng.submit(
            RouteKind::Fast,
            NodeId(0),
            item,
            Action::PutShares { key: 5, len: 16, m: 4, k: 2, item },
        );
        eng.run();
        let out = eng.take_outcome(op);
        assert!(out.ok, "retry must absorb 20% loss");
        assert!(out.shares.len() >= 2, "at least the quorum was placed");
    }

    #[test]
    fn corrupted_shares_and_replies_never_count() {
        // every node lies: StoreShares arrive corrupted, so no share is
        // ever placed and the put must exhaust its retries
        let net = Complete::new(16, 2);
        let item = Point(u64::MAX / 7);
        let mut liars = ChaosNet::new(Inline, 0);
        for i in 0..16 {
            liars.lie(NodeId(i));
        }
        let cover = net.cover(item);
        let from = NodeId((cover.0 + 5) % 16);
        let mut eng = Engine::new(&net, liars, 131)
            .with_retry(RetryPolicy::fixed(64, 3));
        let op = eng.submit(
            RouteKind::Fast,
            from,
            item,
            Action::PutShares { key: 3, len: 8, m: 4, k: 3, item },
        );
        eng.run();
        let out = eng.take_outcome(op);
        assert!(!out.ok, "a quorum of corrupted shares must not commit");
        // only the coordinator's own (local, message-free) share stands
        assert_eq!(out.shares, vec![0]);
    }

    #[test]
    fn staggered_arrivals_respect_the_clock() {
        let net = Complete::new(16, 2);
        let mut eng = Engine::new(&net, Sim::new(31), 37);
        let a = eng.submit_at(0, RouteKind::Fast, NodeId(0), Point(u64::MAX / 3), Action::Locate);
        let b = eng.submit_at(500, RouteKind::Fast, NodeId(1), Point(u64::MAX / 5), Action::Locate);
        eng.run();
        let (oa, ob) = (eng.take_outcome(a), eng.take_outcome(b));
        assert!(oa.ok && ob.ok);
        if ob.msgs > 0 {
            assert!(ob.completed_at.expect("done") >= 500);
        }
        assert!(oa.completed_at.expect("done") <= 500, "op a runs before b starts");
    }
}
