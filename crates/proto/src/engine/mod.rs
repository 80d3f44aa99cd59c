//! The deterministic discrete-event runtime.
//!
//! An [`Engine`] drives per-node protocol state machines over any
//! [`Topology`] and any [`crate::transport::Transport`]. Time is a
//! `u64` tick counter; events (message deliveries, retry timers) live
//! in a priority queue ordered by `(time, sequence-number)`, so runs
//! are exactly reproducible. The engine keeps what persists (clock,
//! queue, op slab, retry policy); each [`Engine::run`] borrows the
//! world it acts on, so one engine serves a network whose membership
//! changes between runs. An op's randomness (digits, timer jitter,
//! walk plans) keys on its seed and id, however ops interleave.
//!
//! Every hop decision uses **only the current node's own table**
//! ([`Topology::local_cover`]), so what the engine executes is the
//! paper's local protocol, message by message. Local steps (the
//! message position moves but stays on the same server) cost nothing;
//! a message is sent exactly when the hop crosses to another server,
//! which is why the `Inline` transport reproduces `DhNetwork::lookup`
//! routes bit for bit. One exception: a hedged DH op with a detector
//! attached has its digit string chosen up front (`policy::plan_walk`)
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
//! A fixed timeout cannot distinguish "dead" from "slow". Lending a
//! run a [`NetHealth`] ([`Engine::run`]) feeds every
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
//!
//! # Layout
//!
//! `route` runs the §2.2 routing machines, `scatter` the §6.2 clique
//! and its quorum, `policy` the grey-failure policy — the only code
//! that reads the detector. Here: types, event queue, API, plumbing.

mod policy;
mod route;
mod scatter;

pub use policy::RetryPolicy;
use scatter::ReplicaState;
use crate::node::NodeId;
use crate::transport::{Delivery, Transport};
use crate::wire::{Action, Envelope, OpId, RouteKind, Wire};
use crate::NetHealth;
use cd_core::interval::Interval;
use cd_core::point::Point;
use cd_core::rng::sub_rng;
use cd_core::walk::TwoSidedWalk;
use dh_obs::{EventKind as ObsEvent, Obs};
use rand::rngs::StdRng;
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

/// The empty share store: no node holds anything — sufficient for
/// every non-replicated protocol and for replicated *writes*.
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
    /// The registry adds what each run exports, so a scenario reads
    /// its totals there.
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
#[derive(Clone, Debug, PartialEq, Eq)]
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
    /// Ticks from the op's start to its completion.
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

struct Op {
    /// With the op's id, keys its digits, timer jitter and walk plans.
    seed: u64,
    /// The tick the op's origin started acting.
    started: u64,
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
    /// (`policy::plan_walk`): a route vetted against the failure
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
    /// A bare message handed to the transport when the run reaches it.
    Send { env: Envelope },
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

    fn is_empty(&self) -> bool {
        [&self.immediate, &self.timers, &self.starts].iter().all(|q| q.is_empty())
            && self.heap.is_empty()
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
#[derive(Default)]
pub struct Engine {
    clock: u64,
    seq: u64,
    queue: EventQueue,
    /// This run's ops: a submit to an idle engine resets it to op 0.
    ops: Vec<Op>,
    /// Retransmission policy for routed ops.
    pub retry: RetryPolicy,
    plan_buf: Vec<Delivery>,
}

/// One [`Engine::run`]: the engine, the world it borrows, its counters.
struct Run<'r, G, T> {
    eng: &'r mut Engine,
    net: &'r G,
    transport: &'r mut T,
    /// The detector lent by the layer above (`None` ⇒ fixed timeouts).
    health: Option<&'r mut NetHealth>,
    /// Purely observational: a recorded run schedules as an unrecorded one.
    obs: &'r Obs,
    stats: EngineStats,
}

impl Engine {
    /// The current engine time.
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Move an idle engine's clock forward to `t` (never back): the
    /// next op starts no earlier than `t`.
    pub fn advance_to(&mut self, t: u64) {
        assert!(self.queue.is_empty(), "advance_to on an engine with events pending");
        self.clock = self.clock.max(t);
    }

    /// [`Self::submit_at`] the current tick.
    pub fn submit(
        &mut self,
        seed: u64,
        kind: RouteKind,
        from: NodeId,
        target: Point,
        action: Action,
    ) -> OpId {
        self.submit_at(self.clock, seed, kind, from, target, action)
    }

    /// Submit an operation whose origin starts acting at time `t`
    /// (staggered arrivals). The op's randomness is derived from
    /// `seed` and its id (`sub_rng(seed, id)`).
    pub fn submit_at(
        &mut self,
        t: u64,
        seed: u64,
        kind: RouteKind,
        from: NodeId,
        target: Point,
        action: Action,
    ) -> OpId {
        if self.queue.is_empty() {
            // idle: the last run's outcomes were taken or abandoned
            self.ops.clear();
        }
        let id = self.ops.len() as OpId;
        let at = t.max(self.clock);
        self.ops.push(Op {
            seed,
            started: at,
            kind,
            action,
            from,
            target,
            rng: sub_rng(seed, u64::from(id)),
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
        self.push_event(at, EventKind::Start { op: id }, Lane::Start);
        id
    }

    /// Send a bare (non-routed) protocol message — churn notifications
    /// and the like — when the next run reaches the current tick.
    /// Counted and traced like any other send; delivery has no state
    /// machine to drive.
    pub fn send(&mut self, src: NodeId, dst: NodeId, msg: Wire) {
        let env = Envelope { src, dst, msg, corrupt: false };
        self.push_event(self.clock, EventKind::Send { env }, Lane::Start);
    }

    /// Run to quiescence over `net` and `transport`, lending the run
    /// `health` and recording into `obs`. Every [`Wire::FetchShare`] a
    /// cover receives is answered by consulting `shares` — what quorum
    /// reads ([`Action::GetShares`]) need. Returns this run's counters.
    pub fn run<G: Topology, T: Transport, V: ShareView>(
        &mut self,
        net: &G,
        transport: &mut T,
        health: Option<&mut NetHealth>,
        obs: &Obs,
        shares: &V,
    ) -> EngineStats {
        let mut run = Run { eng: self, net, transport, health, obs, stats: EngineStats::default() };
        while let Some(ev) = run.eng.queue.pop() {
            debug_assert!(ev.at >= run.eng.clock, "time went backwards");
            debug_assert!(ev.seq < run.eng.seq, "event from the future");
            run.eng.clock = ev.at;
            match ev.kind {
                EventKind::Start { op } => {
                    run.start_op(op);
                    run.advance_or_enter(op, shares);
                }
                EventKind::Send { env } => run.dispatch(env, env.msg.wire_bytes(), 0),
                EventKind::Deliver { env } => run.deliver(env, shares),
                EventKind::Timer { op, attempt, step } => run.timer(op, attempt, step, shares),
                EventKind::Hedge { op, attempt } => run.hedge_fire(op, attempt),
            }
        }
        run.stats
    }

    /// The outcome of a submitted op (meaningful after its run, until
    /// the next idle submit). Moves the route buffers out of the op: a
    /// second call returns the metrics again but an empty route.
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

    fn push_event(&mut self, at: u64, kind: EventKind, lane: Lane) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Event { at, seq, kind }, lane);
    }

    /// A fresh [`BoundEngine`]. ROADMAP B2 deletes it.
    #[doc(hidden)]
    #[expect(clippy::new_ret_no_self, reason = "the name `benchmark/` calls")]
    pub fn new<G: Topology, T: Transport>(net: &G, transport: T, seed: u64) -> BoundEngine<'_, G, T> {
        BoundEngine { net, transport, seed, health: None, eng: Engine::default() }
    }
}

/// An engine bound to one topology, transport, op seed and detector:
/// the one-op API `benchmark/` builds against. ROADMAP B2 deletes it;
/// nothing else may use it.
#[doc(hidden)]
pub struct BoundEngine<'g, G, T> {
    net: &'g G,
    transport: T,
    seed: u64,
    health: Option<&'g mut NetHealth>,
    eng: Engine,
}

#[doc(hidden)]
impl<'g, G: Topology, T: Transport> BoundEngine<'g, G, T> {
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.eng.retry = retry;
        self
    }

    pub fn with_health(mut self, health: &'g mut NetHealth) -> Self {
        self.health = Some(health);
        self
    }

    pub fn submit(&mut self, kind: RouteKind, from: NodeId, target: Point, action: Action) -> OpId {
        self.eng.submit(self.seed, kind, from, target, action)
    }

    pub fn run_with_shares<V: ShareView>(&mut self, view: &V) {
        self.eng.run(self.net, &mut self.transport, self.health.as_deref_mut(), &Obs::off(), view);
    }

    pub fn take_outcome(&mut self, id: OpId) -> OpOutcome {
        self.eng.take_outcome(id)
    }
}

impl<G: Topology, T: Transport> Run<'_, G, T> {
    /// Arm op `id`'s progress timer for its current `(attempt, step)`,
    /// `timeout` ticks from now, waiting on `dst`.
    fn arm_timer(&mut self, id: OpId, dst: NodeId, timeout: u64) {
        let op = &self.eng.ops[id as usize];
        let (attempt, step, deadline) = (op.attempt, op.step, self.eng.clock + timeout);
        self.obs.emit(self.eng.clock, attempt, ObsEvent::TimerArm { dst: dst.0, deadline });
        self.eng.push_event(deadline, EventKind::Timer { op: id, attempt, step }, Lane::Timer);
    }

    /// Hand `env` to the transport and schedule its arrivals. `bytes`
    /// is `env.msg.wire_bytes()`, computed once by the caller (it also
    /// charges the per-op accounting with it); `attempt` stamps the
    /// recorder's Send event (0 for bare sends).
    fn dispatch(&mut self, env: Envelope, bytes: u64, attempt: u32) {
        self.stats.msgs += 1;
        self.stats.bytes += bytes;
        self.obs.emit(
            self.eng.clock,
            attempt,
            ObsEvent::Send { src: env.src.0, dst: env.dst.0, bytes: bytes as u32 },
        );
        let mut plan = mem::take(&mut self.eng.plan_buf);
        plan.clear();
        self.transport.plan(self.eng.clock, &env, &mut plan);
        match plan.len() {
            0 => self.stats.dropped += 1,
            n => self.stats.duplicated += (n - 1) as u64,
        }
        self.observe_rtt(&env, &plan);
        for d in &plan {
            debug_assert!(d.at >= self.eng.clock, "transport scheduled into the past");
            let env = Envelope { corrupt: env.corrupt || d.corrupt, ..env };
            self.eng.push_event(d.at, EventKind::Deliver { env }, Lane::Immediate);
        }
        self.eng.plan_buf = plan;
    }

    /// Emit one of op `id`'s messages, charged to the op and stamped
    /// with its current attempt.
    fn send_op(&mut self, id: OpId, src: NodeId, dst: NodeId, msg: Wire) {
        let bytes = msg.wire_bytes();
        let op = &mut self.eng.ops[id as usize];
        op.msgs += 1;
        op.bytes += bytes;
        let attempt = op.attempt;
        self.dispatch(Envelope { src, dst, msg, corrupt: false }, bytes, attempt);
    }

    /// The op a delivery stamped `(id, attempt)` may act on: issued,
    /// on that attempt, `intact`, in a state `accepts` takes. Anything
    /// else (even an id never issued) is counted stale and ignored.
    fn admit(
        &mut self,
        id: OpId,
        attempt: u32,
        intact: bool,
        accepts: impl FnOnce(&Op) -> bool,
    ) -> Option<&mut Op> {
        match self.eng.ops.get_mut(id as usize) {
            Some(op) if attempt == op.attempt && intact && accepts(op) => Some(op),
            _ => {
                self.stats.stale += 1;
                None
            }
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
                self.eng.clock,
                attempt,
                ObsEvent::Deliver { src: env.src.0, dst: env.dst.0 },
            );
        }
        // any delivered message is evidence its sender is alive
        self.note_alive(env.src);
        match env.msg {
            Wire::LookupStep { op: id, attempt, step, .. } => {
                let accepts = |op: &Op| {
                    !matches!(op.machine, Machine::Done | Machine::Failed) && step == op.step
                };
                let Some(op) = self.admit(id, attempt, true, accepts) else { return };
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

    fn complete(&mut self, id: OpId) {
        let op = &mut self.eng.ops[id as usize];
        op.machine = Machine::Done;
        op.completed_at = Some(self.eng.clock - op.started);
        self.stats.completed += 1;
    }
}

#[cfg(test)]
mod tests;
