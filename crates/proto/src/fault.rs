//! The §6 failure models — and the grey failures beyond them — as
//! transport behaviors.
//!
//! The paper studies two adversaries: *fail-stop* (a failed server
//! never responds) and *false message injection* (a failed server
//! keeps routing but its payloads are corrupted). Both are properties
//! of the communication substrate, not of the overlay topology — so
//! here they are two node sets of the one fault transport,
//! [`ChaosNet`], which turns any inner transport into a faulty one
//! while the same engine-driven protocols run against it unchanged:
//!
//! * **fail-stop** ([`ChaosNet::fail`] / [`ChaosNet::revive`]) — every
//!   message **to or from** a failed server is silently lost (a
//!   crashed server neither sends nor receives); the engine's
//!   timeout/retry machinery sees exactly what a real peer would see;
//! * **false message injection** ([`ChaosNet::lie`]) — messages are
//!   delivered on schedule but anything *sent by* a liar arrives with
//!   the `corrupt` flag set: routing survives, payload integrity does
//!   not, which is what majority filtering defends against.
//!
//! (`dh_fault` keeps the §6 *overlapping discretisation*, which is a
//! genuinely different topology; its [`FaultModel`] is this module's,
//! re-exported.)
//!
//! Deployed overlays, though, mostly die of failures the paper's
//! binary model cannot express: slow-but-alive peers, flapping
//! processes, asymmetric partitions, congestion loss. [`ChaosNet`]
//! carries exactly those shapes too — every one a deterministic
//! function of the chaos seed and the (epoch-extended) clock, so a
//! chaos campaign fingerprints as reproducibly as a healthy run:
//!
//! * **partitions** ([`Partition`]) — a node-set bisection with a
//!   [`CutDirection`] (two-way, or asymmetric one-way cuts) active on
//!   a `[from, until)` window; the window end *is* the heal event;
//! * **grey nodes** — per-node service-latency multipliers: every
//!   delivery to or from a grey node takes `mult ×` the inner
//!   transport's latency (the node is slow, not dead);
//! * **flapping** ([`FlapSchedule`]) — nodes that fail and recover on
//!   a seeded periodic schedule (down for `down` out of every
//!   `period` ticks, phase-shifted per node);
//! * **loss bursts** ([`LossBurst`]) — windows in which sends are
//!   dropped with a seeded per-send Bernoulli.
//!
//! Engines restart their clock at zero for every operation, but chaos
//! schedules need to span many operations — that is what the **epoch**
//! is for: a harness advances [`ChaosNet::set_epoch`] between ops and
//! every schedule is evaluated at `epoch + now`, giving flaps and
//! partitions a continuous timeline across per-op engine runs.

use crate::node::NodeId;
use crate::transport::{Delivery, Transport};
use crate::wire::Envelope;
use cd_core::rng::splitmix64;
use std::collections::{BTreeMap, BTreeSet};

/// Which §6 failure model a faulty substrate applies to its failed
/// servers (`dh_fault::OverlapNet` carries one; on [`ChaosNet`] the
/// two are the `failed` and `liars` sets).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultModel {
    /// Failed servers do not respond at all.
    FailStop,
    /// Failed servers respond with corrupted payloads but follow the
    /// routing protocol otherwise (§6's false message injection).
    FalseMessageInjection,
}

/// Which directions a [`Partition`] severs. Side *A* is the
/// partition's member set; side *B* is everyone else.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CutDirection {
    /// Nothing crosses in either direction (a full bisection).
    Both,
    /// Messages from side A toward side B are lost; B → A still
    /// flows (an asymmetric one-way cut).
    AToB,
    /// Messages from side B toward side A are lost; A → B still
    /// flows.
    BToA,
}

/// One scheduled network partition. Active on the effective-time
/// window `[from, until)`; the window end is the heal event.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Side A of the cut (side B is the complement).
    pub a: BTreeSet<NodeId>,
    /// Which crossing directions are severed.
    pub cut: CutDirection,
    /// Effective time the cut appears.
    pub from: u64,
    /// Effective time the cut heals (exclusive).
    pub until: u64,
}

impl Partition {
    /// Does this partition drop a `src → dst` send at effective time
    /// `t`?
    pub fn blocks(&self, t: u64, src: NodeId, dst: NodeId) -> bool {
        if t < self.from || t >= self.until {
            return false;
        }
        let src_a = self.a.contains(&src);
        let dst_a = self.a.contains(&dst);
        if src_a == dst_a {
            return false; // same side: unaffected
        }
        match self.cut {
            CutDirection::Both => true,
            CutDirection::AToB => src_a,
            CutDirection::BToA => !src_a,
        }
    }
}

/// A periodic fail/recover cycle: the node is down for the first
/// `down` out of every `period` effective ticks, phase-shifted so a
/// population of flapping nodes does not blink in lockstep.
#[derive(Clone, Copy, Debug)]
pub struct FlapSchedule {
    /// Cycle length (ticks); `0` disables the schedule.
    pub period: u64,
    /// Down-time per cycle (ticks).
    pub down: u64,
    /// Per-node phase shift (ticks).
    pub phase: u64,
}

impl FlapSchedule {
    /// Is the node down at effective time `t`?
    pub fn is_down(&self, t: u64) -> bool {
        if self.period == 0 {
            return false;
        }
        t.wrapping_add(self.phase) % self.period < self.down.min(self.period)
    }
}

/// A window of congestion loss: sends inside `[from, until)` are
/// dropped with probability `permille / 1000` (seeded per-send
/// Bernoulli).
#[derive(Clone, Copy, Debug)]
pub struct LossBurst {
    /// Effective time the burst starts.
    pub from: u64,
    /// Effective time the burst ends (exclusive).
    pub until: u64,
    /// Drop probability in per-mille (0–1000).
    pub permille: u64,
}

/// The one fault transport: the §6 failure sets and deterministic
/// grey-failure injection around any inner transport. See the module
/// docs for the fault taxonomy. Drop decisions happen
/// *before* the inner transport is consulted, so a chaos-dropped send
/// consumes no inner-transport randomness — healing a partition
/// leaves the surviving links' schedule untouched.
pub struct ChaosNet<T> {
    inner: T,
    seed: u64,
    epoch: u64,
    sends: u64,
    /// Scheduled partitions (all are consulted; any active one that
    /// blocks a send drops it).
    pub partitions: Vec<Partition>,
    /// Per-node service-latency multipliers (absent ⇒ 1, healthy). A
    /// delivery's latency is scaled by the larger of the two
    /// endpoints' multipliers.
    pub grey: BTreeMap<NodeId, u64>,
    /// Per-node flap schedules.
    pub flaps: BTreeMap<NodeId, FlapSchedule>,
    /// Scheduled loss bursts.
    pub bursts: Vec<LossBurst>,
    /// §6 fail-stopped servers: they neither send nor receive.
    pub failed: BTreeSet<NodeId>,
    /// §6 false-message injectors: they route on schedule, but every
    /// delivery they *send* arrives `corrupt`.
    pub liars: BTreeSet<NodeId>,
}

impl<T: Transport> ChaosNet<T> {
    /// Wrap `inner` with no chaos configured yet. The seed drives the
    /// node-set samplers, flap phases and burst Bernoullis.
    pub fn new(inner: T, seed: u64) -> Self {
        ChaosNet {
            inner,
            seed,
            epoch: 0,
            sends: 0,
            partitions: Vec::new(),
            grey: BTreeMap::new(),
            flaps: BTreeMap::new(),
            bursts: Vec::new(),
            failed: BTreeSet::new(),
            liars: BTreeSet::new(),
        }
    }

    /// The inner transport (e.g. to reconfigure a wrapped `Sim`).
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// Advance the epoch: every schedule is evaluated at
    /// `epoch + now`, letting chaos windows span many per-op engine
    /// runs (each of which restarts its clock at zero).
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Add an explicit partition.
    pub fn partition(&mut self, a: BTreeSet<NodeId>, cut: CutDirection, from: u64, until: u64) {
        self.partitions.push(Partition { a, cut, from, until });
    }

    /// Bisect `nodes` into two pseudo-random halves (a deterministic
    /// function of the chaos seed) and cut them apart on
    /// `[from, until)`. Returns side A.
    pub fn bisect(&mut self, nodes: &[NodeId], cut: CutDirection, from: u64, until: u64) -> BTreeSet<NodeId> {
        let a: BTreeSet<NodeId> = nodes
            .iter()
            .copied()
            .filter(|n| splitmix64(self.seed ^ 0xB15E_C7ED ^ u64::from(n.0)) & 1 == 0)
            .collect();
        self.partitions.push(Partition { a: a.clone(), cut, from, until });
        a
    }

    /// Mark one node grey with the given latency multiplier.
    pub fn set_grey(&mut self, node: NodeId, mult: u64) {
        self.grey.insert(node, mult.max(1));
    }

    /// Mark roughly `permille / 1000` of `nodes` grey (seeded
    /// per-node pick) with latency multiplier `mult`. Returns the
    /// chosen set.
    pub fn grey_fraction(&mut self, nodes: &[NodeId], permille: u64, mult: u64) -> BTreeSet<NodeId> {
        let picked: BTreeSet<NodeId> = nodes
            .iter()
            .copied()
            .filter(|n| splitmix64(self.seed ^ 0x62E7_6E7A ^ u64::from(n.0)) % 1000 < permille)
            .collect();
        for &n in &picked {
            self.grey.insert(n, mult.max(1));
        }
        picked
    }

    /// The latency multiplier of `node` (1 ⇒ healthy).
    pub fn grey_of(&self, node: NodeId) -> u64 {
        self.grey.get(&node).copied().unwrap_or(1)
    }

    /// Give one node a flap schedule.
    pub fn set_flap(&mut self, node: NodeId, schedule: FlapSchedule) {
        self.flaps.insert(node, schedule);
    }

    /// Put roughly `permille / 1000` of `nodes` on a fail/recover
    /// cycle (down for `down` of every `period` ticks, seeded phase
    /// per node). Returns the chosen set.
    pub fn flap_fraction(
        &mut self,
        nodes: &[NodeId],
        permille: u64,
        period: u64,
        down: u64,
    ) -> BTreeSet<NodeId> {
        let picked: BTreeSet<NodeId> = nodes
            .iter()
            .copied()
            .filter(|n| splitmix64(self.seed ^ 0xF1A9_F1A9 ^ u64::from(n.0)) % 1000 < permille)
            .collect();
        for &n in &picked {
            let phase = if period == 0 {
                0
            } else {
                splitmix64(self.seed ^ 0x9A5E_0FF5 ^ u64::from(n.0)) % period
            };
            self.flaps.insert(n, FlapSchedule { period, down, phase });
        }
        picked
    }

    /// Schedule a loss burst.
    pub fn loss_burst(&mut self, from: u64, until: u64, permille: u64) {
        self.bursts.push(LossBurst { from, until, permille: permille.min(1000) });
    }

    /// Fail-stop a server until [`Self::revive`].
    pub fn fail(&mut self, node: NodeId) {
        self.failed.insert(node);
    }

    /// Revive a fail-stopped server.
    pub fn revive(&mut self, node: NodeId) {
        self.failed.remove(&node);
    }

    /// Make a server a false-message injector.
    pub fn lie(&mut self, node: NodeId) {
        self.liars.insert(node);
    }

    /// Is `node` flap-down at effective time `t`?
    pub fn is_down(&self, node: NodeId, t: u64) -> bool {
        match self.flaps.get(&node) {
            Some(f) => f.is_down(t),
            None => false,
        }
    }
}

impl<T: Transport> Transport for ChaosNet<T> {
    fn plan(&mut self, now: u64, env: &Envelope, out: &mut Vec<Delivery>) {
        let t = self.epoch.saturating_add(now);
        let sn = self.sends;
        self.sends = self.sends.wrapping_add(1);
        // 1. fail-stop and flapping: a down endpoint neither sends nor
        // receives
        let down = |n: NodeId| self.failed.contains(&n) || self.is_down(n, t);
        if down(env.src) || down(env.dst) {
            return;
        }
        // 2. partitions
        if self.partitions.iter().any(|p| p.blocks(t, env.src, env.dst)) {
            return;
        }
        // 3. loss bursts: seeded per-send Bernoulli
        for b in &self.bursts {
            if t >= b.from && t < b.until && splitmix64(self.seed ^ 0x1055_B0B5 ^ sn) % 1000 < b.permille {
                return;
            }
        }
        // 4. grey slowdown: scale the inner transport's latency
        let start = out.len();
        self.inner.plan(now, env, out);
        let g = self.grey_of(env.src).max(self.grey_of(env.dst));
        if g > 1 {
            for d in out.iter_mut().skip(start) {
                let lat = d.at.saturating_sub(now).max(1);
                d.at = now.saturating_add(lat.saturating_mul(g));
            }
        }
        // 5. false message injection: a liar's payloads arrive corrupted
        if self.liars.contains(&env.src) {
            for d in out.iter_mut().skip(start) {
                d.corrupt = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{Inline, Sim};
    use crate::wire::Wire;
    use cd_core::point::Point;

    fn env(src: u32, dst: u32) -> Envelope {
        Envelope {
            src: NodeId(src),
            dst: NodeId(dst),
            msg: Wire::JoinSplit { x: Point(1) },
            corrupt: false,
        }
    }

    #[test]
    fn fail_stop_drops_both_directions() {
        let mut t = ChaosNet::new(Inline, 0);
        t.fail(NodeId(5));
        let mut out = Vec::new();
        t.plan(0, &env(5, 1), &mut out);
        t.plan(0, &env(1, 5), &mut out);
        assert!(out.is_empty());
        t.plan(0, &env(1, 2), &mut out);
        assert_eq!(out.len(), 1);
        t.revive(NodeId(5));
        t.plan(0, &env(5, 1), &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn injection_delivers_but_corrupts() {
        let mut t = ChaosNet::new(Inline, 0);
        t.lie(NodeId(3));
        let mut out = Vec::new();
        t.plan(0, &env(3, 1), &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].corrupt, "a liar's message must arrive corrupted");
        out.clear();
        t.plan(0, &env(1, 3), &mut out);
        assert!(!out[0].corrupt, "messages *to* a liar are intact");
    }

    #[test]
    fn bisection_blocks_cross_traffic_until_heal() {
        let nodes: Vec<NodeId> = (0..64).map(NodeId).collect();
        let mut t = ChaosNet::new(Inline, 7);
        let a = t.bisect(&nodes, CutDirection::Both, 100, 200);
        assert!(!a.is_empty() && a.len() < nodes.len(), "a real bisection");
        let inside = *a.iter().next().unwrap();
        let outside = *nodes.iter().find(|n| !a.contains(n)).unwrap();
        let mut out = Vec::new();
        // before the window: flows
        t.plan(50, &env(inside.0, outside.0), &mut out);
        assert_eq!(out.len(), 1);
        out.clear();
        // inside the window: cut, both directions
        t.plan(150, &env(inside.0, outside.0), &mut out);
        t.plan(150, &env(outside.0, inside.0), &mut out);
        assert!(out.is_empty());
        // same side: unaffected
        let inside2 = *a.iter().nth(1).unwrap();
        t.plan(150, &env(inside.0, inside2.0), &mut out);
        assert_eq!(out.len(), 1);
        out.clear();
        // the window end is the heal event
        t.plan(200, &env(inside.0, outside.0), &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn one_way_cut_is_asymmetric() {
        let mut a = BTreeSet::new();
        a.insert(NodeId(1));
        let mut t = ChaosNet::new(Inline, 3);
        t.partition(a, CutDirection::AToB, 0, u64::MAX);
        let mut out = Vec::new();
        t.plan(0, &env(1, 2), &mut out);
        assert!(out.is_empty(), "A → B is cut");
        t.plan(0, &env(2, 1), &mut out);
        assert_eq!(out.len(), 1, "B → A still flows");
    }

    #[test]
    fn grey_nodes_are_slow_not_dead() {
        let mut t = ChaosNet::new(Sim::new(5).with_latency(10, 10, 0), 5);
        t.set_grey(NodeId(9), 8);
        let mut out = Vec::new();
        t.plan(0, &env(1, 2), &mut out);
        assert_eq!(out[0].at, 10, "healthy link: inner latency");
        out.clear();
        t.plan(0, &env(1, 9), &mut out);
        assert_eq!(out[0].at, 80, "delivery *to* a grey node is 8× slower");
        out.clear();
        t.plan(0, &env(9, 1), &mut out);
        assert_eq!(out[0].at, 80, "delivery *from* a grey node is 8× slower");
        assert_eq!(t.grey_of(NodeId(9)), 8);
        assert_eq!(t.grey_of(NodeId(1)), 1);
    }

    #[test]
    fn flapping_follows_the_schedule_across_epochs() {
        let mut t = ChaosNet::new(Inline, 11);
        t.set_flap(NodeId(4), FlapSchedule { period: 100, down: 30, phase: 0 });
        let mut out = Vec::new();
        t.plan(10, &env(4, 1), &mut out);
        assert!(out.is_empty(), "down at t=10");
        t.plan(50, &env(4, 1), &mut out);
        assert_eq!(out.len(), 1, "up at t=50");
        out.clear();
        t.plan(50, &env(1, 4), &mut out);
        assert_eq!(out.len(), 1);
        out.clear();
        // the epoch shifts the effective clock: engine-time 10 in
        // epoch 100 is effective 110 — the node is back down
        t.set_epoch(100);
        t.plan(10, &env(1, 4), &mut out);
        assert!(out.is_empty(), "down again next cycle (epoch-extended time)");
        assert!(t.is_down(NodeId(4), 110));
        assert!(!t.is_down(NodeId(4), 50));
    }

    #[test]
    fn loss_bursts_drop_some_sends_deterministically() {
        let run = |seed: u64| {
            let mut t = ChaosNet::new(Inline, seed);
            t.loss_burst(0, 1000, 500);
            let mut kept = Vec::new();
            for i in 0..200u32 {
                let mut out = Vec::new();
                t.plan(5, &env(i % 9, (i + 1) % 9), &mut out);
                kept.push(!out.is_empty());
            }
            kept
        };
        let a = run(42);
        let dropped = a.iter().filter(|k| !**k).count();
        assert!(dropped > 50 && dropped < 150, "≈50% dropped, got {dropped}/200");
        assert_eq!(a, run(42), "burst decisions are a pure function of the seed");
        // outside the window nothing is dropped
        let mut t = ChaosNet::new(Inline, 42);
        t.loss_burst(100, 200, 1000);
        let mut out = Vec::new();
        t.plan(5, &env(1, 2), &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn chaos_drops_consume_no_inner_randomness() {
        // A chaos-dropped send must not advance the inner Sim's RNG:
        // the surviving sends schedule exactly as if the dropped ones
        // had never been offered at all.
        let chaos = {
            let mut t = ChaosNet::new(Sim::new(77).with_latency(4, 16, 4), 77);
            // down at even effective ticks — every even send (to the
            // flapper, below) is chaos-dropped
            t.set_flap(NodeId(50), FlapSchedule { period: 2, down: 1, phase: 0 });
            let mut all = Vec::new();
            for i in 0..50u32 {
                let mut out = Vec::new();
                let (s, d) = if i % 2 == 0 { (50, i % 7) } else { (i % 7, (i + 1) % 7) };
                t.plan(u64::from(i), &env(s, d), &mut out);
                if i % 2 == 0 {
                    assert!(out.is_empty(), "send #{i} should be flap-dropped");
                } else {
                    all.push(out);
                }
            }
            all
        };
        let reference = {
            let mut t = Sim::new(77).with_latency(4, 16, 4);
            let mut all = Vec::new();
            for i in (1..50u32).step_by(2) {
                let mut out = Vec::new();
                t.plan(u64::from(i), &env(i % 7, (i + 1) % 7), &mut out);
                all.push(out);
            }
            all
        };
        assert_eq!(chaos, reference);
    }

    #[test]
    fn empty_section6_sets_plan_exactly_as_the_parent_did() {
        // 1 000 seeded sends through every chaos shape over a lossy,
        // duplicating Sim, folded delivery by delivery. The pin was
        // captured at the parent of the PR that gave ChaosNet its
        // `failed`/`liars` sets: while both are empty not one send may
        // move, be dropped, or arrive corrupt.
        let nodes: Vec<NodeId> = (0..40).map(NodeId).collect();
        let inner = Sim::new(0xC4A0).with_latency(3, 20, 5).with_drop(0.1).with_dup(0.1);
        let mut t = ChaosNet::new(inner, 0xC4A0);
        t.bisect(&nodes, CutDirection::AToB, 300, 500);
        t.grey_fraction(&nodes, 200, 6);
        t.flap_fraction(&nodes, 150, 90, 25);
        t.loss_burst(600, 800, 400);
        let mut rng = cd_core::rng::seeded(0xC4A0);
        let mut fold = 0xcbf2_9ce4_8422_2325u64;
        let mut out = Vec::new();
        for i in 0..1_000u64 {
            use rand::Rng;
            t.set_epoch(i / 250 * 40);
            out.clear();
            t.plan(i, &env(rng.gen_range(0..40), rng.gen_range(0..40)), &mut out);
            fold = splitmix64(fold ^ out.len() as u64);
            for d in &out {
                fold = splitmix64(fold ^ d.at ^ (u64::from(d.corrupt) << 63));
            }
        }
        assert_eq!(fold, 0xd1d4_7b34_fd52_536c, "no failed server, no liar, yet a send moved");
    }
}
