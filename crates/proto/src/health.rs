//! Per-destination network health: adaptive RTT estimation and an
//! accrual-style suspicion failure detector.
//!
//! The §6 fault models are binary — a server is failed or it is not —
//! but deployed overlays mostly die of *grey* failures: slow links,
//! flapping peers, asymmetric partitions. Surviving those needs two
//! pieces of per-destination state that persist **across** operations:
//!
//! * [`RttEstimate`] — an integer Jacobson/Karels estimator (smoothed
//!   RTT + mean deviation, fixed-point ×8 / ×4 like the classic TCP
//!   implementation) fed with observed delivery delays. The engine
//!   derives per-destination progress timeouts from it
//!   (`srtt + 4·var`, scaled) instead of one fixed constant, so a
//!   slow-but-alive destination is *waited for* while a dead one is
//!   detected at network speed.
//! * a **suspicion counter** per node — raised when a progress timer
//!   fires against the node, raised slightly when a hedge passes over
//!   it, decayed every time any message from it is delivered. A node
//!   whose smoothed RTT sits far above the population's
//!   ([`SLOW_FACTOR`]) carries a standing penalty, so grey
//!   nodes become suspects from pure observation, before any timeout
//!   fires.
//!
//! [`NetHealth`] is owned by the layer above the engine (e.g.
//! `dh_replica::ReplicatedDht`) and lent to each `Engine::run`, which
//! is what lets the detector outlive a run and inform *future*
//! routing and quorum planning.
//!
//! Everything here is integer arithmetic over ordered containers (a
//! slab of estimators indexed by node id, a sparse `BTreeMap` of
//! suspicion counters) — a pure function of the observed delivery
//! schedule. Every quorum read takes its backup-timer delay from it
//! ([`NetHealth::hedge_delay`]); only the hedged policy reads the rest.
//!
//! A delivery updates the population estimator at once (hedge delays
//! and route caps read it mid-run) but only *logs* its per-destination
//! sample: a routed message would otherwise pay a read-modify-write on
//! a random slot of a slab far larger than cache. `Engine::run` folds
//! the log in send order before each detector read and when it
//! returns, and every reader answers as if it had been folded already,
//! so the deferral is invisible: a destination's estimate depends only
//! on its own samples, in order.

use crate::node::NodeId;
use std::collections::BTreeMap;

/// Suspicion ceiling: bounds how long a recovered node needs to talk
/// itself back below the threshold.
pub const SUSPICION_CAP: u32 = 32;
/// Floor of every adaptive timeout (ticks) — guards against a burst of
/// tiny samples collapsing the timer to nothing.
pub const MIN_TIMEOUT: u64 = 8;
/// A destination whose smoothed delay exceeds `SLOW_FACTOR ×` the
/// population's is carrying a standing grey-node penalty.
pub const SLOW_FACTOR: u64 = 3;
/// The standing suspicion penalty of a slow destination.
pub const SLOW_PENALTY: u32 = 6;
/// Suspicion added when a progress timer fires against a node.
pub const RAISE: u32 = 8;
/// Suspicion added when a hedge fires past a still-silent node.
pub const HEDGE_RAISE: u32 = 2;
/// Suspicion removed whenever a message from the node is delivered.
pub const DECAY: u32 = 1;
/// Suspicion at or above this level makes the node a suspect.
pub const THRESHOLD: u32 = 6;
/// Minimum per-destination samples before the slow comparison is
/// trusted.
pub const SLOW_MIN_SAMPLES: u64 = 3;
/// Logged per-destination samples that [`NetHealth::observe`] folds in
/// itself, bounding the log of a run that never reads the detector.
const LOG_CAP: usize = 4_096;

/// Integer Jacobson/Karels RTT estimator. `srtt` is kept scaled ×8 and
/// the mean deviation ×4 (the classic fixed-point trick), so the
/// update is exact integer arithmetic: `srtt ← ⅞·srtt + ⅛·sample`,
/// `var ← ¾·var + ¼·|sample − srtt|`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RttEstimate {
    /// Smoothed delay, scaled ×8.
    srtt8: u64,
    /// Mean deviation, scaled ×4.
    var4: u64,
    /// Samples folded in.
    samples: u64,
}

impl RttEstimate {
    /// Fold one observed delivery delay (ticks) into the estimate.
    pub fn observe(&mut self, sample: u64) {
        if self.samples == 0 {
            self.srtt8 = sample * 8;
            self.var4 = sample * 2; // initial var = sample / 2
        } else {
            let err = sample.abs_diff(self.srtt8 / 8);
            self.srtt8 = self.srtt8 - self.srtt8 / 8 + sample;
            // Decay by at least 1 so the integer floor (`var4/4 == 0`
            // for var4 < 4) cannot pin a small residual deviation
            // forever on a steady signal.
            self.var4 = self.var4.saturating_sub((self.var4 / 4).max(1)) + err;
        }
        self.samples += 1;
    }

    /// Smoothed one-way delivery delay (ticks).
    pub fn srtt(&self) -> u64 {
        self.srtt8 / 8
    }

    /// Mean deviation of the delay (ticks).
    pub fn var(&self) -> u64 {
        self.var4 / 4
    }

    /// The classic retransmission bound `srtt + 4·var` (ticks).
    pub fn rto(&self) -> u64 {
        self.srtt8 / 8 + self.var4
    }

    /// Number of samples folded in.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

/// The failure detector + adaptive-timeout state shared across engine
/// runs. See the module docs; its rules are the module's constants.
#[derive(Clone, Debug, Default)]
pub struct NetHealth {
    /// Per-destination delivery-delay estimators, indexed by
    /// `NodeId.0` (node ids are slab indices, so the table is dense)
    /// and grown on demand; a slot with `samples == 0` is an
    /// unobserved destination. Stale by the samples in `log`.
    rtt: Vec<RttEstimate>,
    /// Per-destination samples not yet folded into `rtt`, in send
    /// order.
    log: Vec<(NodeId, u64)>,
    /// Population-wide estimator (all destinations pooled): the
    /// baseline that [`SLOW_FACTOR`] compares against and the source
    /// of the hedge delay.
    global: RttEstimate,
    /// Accrual suspicion counters (absent ⇒ 0).
    susp: BTreeMap<NodeId, u32>,
}

impl NetHealth {
    /// A fresh detector.
    pub fn new() -> Self {
        NetHealth::default()
    }

    /// Feed one observed delivery delay toward `dst` (ticks between
    /// send and planned arrival) into the per-destination and global
    /// estimators. The population baseline describes what *healthy*
    /// exchanges look like, so samples far above it (`SLOW_FACTOR ×`
    /// its smoothed delay — a grey endpoint's doing) only train the
    /// per-destination estimator: one slow cover must not slacken
    /// every bound derived from the baseline (route caps, hedge
    /// delays, the slow comparison itself).
    ///
    /// The per-destination sample is logged, not folded (module docs).
    pub fn observe(&mut self, dst: NodeId, delay: u64) {
        if self.log.len() == LOG_CAP {
            self.fold();
        }
        self.log.push((dst, delay));
        if self.global.samples() == 0
            || delay <= SLOW_FACTOR.saturating_mul(self.global.srtt().max(1))
        {
            self.global.observe(delay);
        }
    }

    /// Fold the logged per-destination samples into their estimators,
    /// in send order. The independent slots of one run's log are
    /// touched in one tight loop, so their cache misses overlap.
    pub(crate) fn fold(&mut self) {
        for &(dst, delay) in &self.log {
            let i = dst.0 as usize;
            if i >= self.rtt.len() {
                self.rtt.resize(i + 1, RttEstimate::default());
            }
            if let Some(e) = self.rtt.get_mut(i) {
                e.observe(delay);
            }
        }
        self.log.clear();
    }

    /// The per-destination estimate, if any samples exist (folds the
    /// log first: a borrowed estimate must be a folded slot).
    pub fn estimate(&mut self, dst: NodeId) -> Option<&RttEstimate> {
        self.fold();
        self.rtt.get(dst.0 as usize).filter(|e| e.samples() > 0)
    }

    /// `dst`'s estimate as the folded slab would hold it: its slot
    /// plus its logged samples, `None` while it has no samples.
    fn current(&self, dst: NodeId) -> Option<RttEstimate> {
        let mut e = self.rtt.get(dst.0 as usize).copied().unwrap_or_default();
        for &(_, delay) in self.log.iter().filter(|&&(n, _)| n == dst) {
            e.observe(delay);
        }
        (e.samples() > 0).then_some(e)
    }

    /// The population-wide estimate.
    pub fn global_estimate(&self) -> &RttEstimate {
        &self.global
    }

    /// The adaptive progress timeout for a send toward `dst`, clamped
    /// to `[MIN_TIMEOUT, ceiling]`. `3 × rto` covers a full
    /// request/response exchange (two delivery legs plus dispersion);
    /// with no samples at all the ceiling (the policy's fixed timeout)
    /// applies — cold starts are conservative, never trigger-happy.
    pub fn timeout_for(&self, dst: NodeId, ceiling: u64) -> u64 {
        let est = match self.current(dst) {
            Some(e) => e,
            None if self.global.samples() > 0 => self.global,
            None => return ceiling,
        };
        (est.rto().saturating_mul(3)).clamp(MIN_TIMEOUT.min(ceiling), ceiling)
    }

    /// How long a quorum read waits for its first wave before
    /// launching a backup fetch: two population-typical exchanges —
    /// long enough that healthy stragglers almost never trigger it,
    /// short enough that a grey cover costs one hedge delay instead of
    /// a full timeout. Clamped to `[MIN_TIMEOUT, ceiling]`.
    pub fn hedge_delay(&self, ceiling: u64) -> u64 {
        if self.global.samples() == 0 {
            return (ceiling / 8).max(MIN_TIMEOUT).min(ceiling);
        }
        (self.global.rto().saturating_mul(2)).clamp(MIN_TIMEOUT.min(ceiling), ceiling)
    }

    /// The per-step progress bound of a *hedged* route: what a send to
    /// a population-typical cover takes (`3 × global rto`), regardless
    /// of how slow this particular destination has been. A hedged
    /// route forced across a known-slow cover should stall one
    /// healthy-sized wait, take the blame-driven restart and route
    /// around the cover — not sit out the slow cover's own inflated
    /// timeout. Cold start falls back to the ceiling, like
    /// [`Self::timeout_for`].
    pub fn route_cap(&self, ceiling: u64) -> u64 {
        if self.global.samples() == 0 {
            return ceiling;
        }
        (self.global.rto().saturating_mul(3)).clamp(MIN_TIMEOUT.min(ceiling), ceiling)
    }

    /// Is `dst` far slower than the population (a grey node)?
    pub fn is_slow(&self, dst: NodeId) -> bool {
        match self.current(dst) {
            Some(e) => {
                e.samples() >= SLOW_MIN_SAMPLES
                    && self.global.samples() >= SLOW_MIN_SAMPLES
                    && e.srtt() > SLOW_FACTOR.saturating_mul(self.global.srtt().max(1))
            }
            None => false,
        }
    }

    /// Raise suspicion of `node` by the timeout amount ([`RAISE`]).
    pub fn raise(&mut self, node: NodeId) {
        let s = self.susp.entry(node).or_insert(0);
        *s = s.saturating_add(RAISE).min(SUSPICION_CAP);
    }

    /// Raise suspicion of `node` by the hedge amount
    /// ([`HEDGE_RAISE`]) — a cover a hedge had to fire past.
    pub fn raise_hedge(&mut self, node: NodeId) {
        let s = self.susp.entry(node).or_insert(0);
        *s = s.saturating_add(HEDGE_RAISE).min(SUSPICION_CAP);
    }

    /// Does `node` carry an accrual counter? Without one,
    /// [`Self::alive`] is a no-op, so its verdict cannot change.
    pub(crate) fn has_counter(&self, node: NodeId) -> bool {
        self.susp.contains_key(&node)
    }

    /// A message from `node` was delivered: decay its suspicion.
    pub fn alive(&mut self, node: NodeId) {
        if let Some(s) = self.susp.get_mut(&node) {
            *s = s.saturating_sub(DECAY);
            if *s == 0 {
                self.susp.remove(&node);
            }
        }
    }

    /// The suspicion level of `node`: the accrual counter plus the
    /// standing grey-node penalty when the node is [`Self::is_slow`].
    pub fn suspicion(&self, node: NodeId) -> u32 {
        let counter = self.susp.get(&node).copied().unwrap_or(0);
        let penalty = if self.is_slow(node) { SLOW_PENALTY } else { 0 };
        counter.saturating_add(penalty)
    }

    /// Is `node` currently a suspect (suspicion at/above the
    /// threshold)?
    pub fn is_suspect(&self, node: NodeId) -> bool {
        self.suspicion(node) >= THRESHOLD
    }

    /// Number of nodes currently judged suspect ([`Self::is_suspect`])
    /// among those carrying an accrual counter — a node at/above the
    /// threshold on the grey-node penalty alone is not counted.
    pub fn suspects(&self) -> usize {
        self.susp.iter().filter(|&(&n, _)| self.is_suspect(n)).count()
    }

    /// The nodes currently judged suspect, in id order (BTree
    /// iteration — deterministic). The list form of [`Self::suspects`],
    /// for tests and observability that need to name the suspects
    /// rather than count them.
    pub fn suspect_nodes(&self) -> Vec<NodeId> {
        self.susp.keys().copied().filter(|&n| self.is_suspect(n)).collect()
    }

    /// The retransmission-timeout estimate for `dst`: `None` until a
    /// delivery sample exists. Convenience over [`Self::estimate`] for
    /// callers that only want the Jacobson bound.
    pub fn rto(&self, dst: NodeId) -> Option<u64> {
        self.current(dst).as_ref().map(RttEstimate::rto)
    }

    /// Push the detector's state into a [`dh_obs`] registry: per-node
    /// rto gauges (`health/rto_ticks`, labelled by node id), per-node
    /// suspicion levels for every tracked node (`health/suspicion`),
    /// and a `health/suspects` gauge with the current suspect count.
    pub fn export(&self, obs: &dh_obs::Obs) {
        if !obs.is_on() {
            return;
        }
        if !self.log.is_empty() {
            let mut folded = self.clone();
            folded.fold();
            return folded.export(obs);
        }
        for (n, e) in self.rtt.iter().enumerate().filter(|(_, e)| e.samples() > 0) {
            obs.gauge("health/rto_ticks", n as u64, e.rto());
        }
        for &n in self.susp.keys() {
            obs.gauge("health/suspicion", u64::from(n.0), u64::from(self.suspicion(n)));
        }
        obs.gauge("health/suspects", 0, self.suspects() as u64);
    }

    /// Forget everything (estimators and suspicion alike).
    pub fn reset(&mut self) {
        self.rtt.clear();
        self.log.clear();
        self.susp.clear();
        self.global = RttEstimate::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimator_converges_on_a_steady_signal() {
        let mut e = RttEstimate::default();
        for _ in 0..64 {
            e.observe(10);
        }
        assert_eq!(e.srtt(), 10);
        assert_eq!(e.var(), 0, "steady signal drives the deviation to zero");
        assert_eq!(e.rto(), 10);
        assert_eq!(e.samples(), 64);
    }

    #[test]
    fn estimator_tracks_a_level_shift() {
        let mut e = RttEstimate::default();
        for _ in 0..32 {
            e.observe(10);
        }
        for _ in 0..64 {
            e.observe(80);
        }
        assert!(e.srtt() >= 70, "srtt must follow the new level, got {}", e.srtt());
    }

    #[test]
    fn adaptive_timeout_is_clamped_and_cold_start_conservative() {
        let mut h = NetHealth::new();
        assert_eq!(h.timeout_for(NodeId(1), 512), 512, "no samples ⇒ the fixed ceiling");
        for _ in 0..16 {
            h.observe(NodeId(1), 10);
        }
        let t = h.timeout_for(NodeId(1), 512);
        assert!((MIN_TIMEOUT..512).contains(&t), "adaptive timeout {t} must undercut the ceiling");
        // an unknown destination borrows the population estimate
        let u = h.timeout_for(NodeId(99), 512);
        assert!(u < 512);
        assert!(h.hedge_delay(512) < 512 / 4);
    }

    #[test]
    fn slow_nodes_carry_a_standing_penalty() {
        let mut h = NetHealth::new();
        // The grey node's samples interleave with healthy traffic (as
        // they do on a real network), so the global estimator stays
        // anchored near the healthy population mean.
        for round in 0..8u32 {
            for i in 0..20u32 {
                h.observe(NodeId(i), 10 + u64::from(i % 3));
            }
            h.observe(NodeId(42), 90 + u64::from(round % 2));
        }
        assert!(h.is_slow(NodeId(42)));
        assert!(h.is_suspect(NodeId(42)), "a grey node is a suspect from observation alone");
        assert!(!h.is_slow(NodeId(3)));
        assert_eq!(h.suspicion(NodeId(3)), 0);
    }

    #[test]
    fn suspicion_raises_cap_and_decays() {
        let mut h = NetHealth::new();
        let n = NodeId(7);
        for _ in 0..100 {
            h.raise(n);
        }
        assert_eq!(h.suspicion(n), SUSPICION_CAP, "the counter must cap");
        assert!(h.is_suspect(n));
        for _ in 0..SUSPICION_CAP {
            h.alive(n);
        }
        assert_eq!(h.suspicion(n), 0, "a talking node must fully recover");
        assert!(!h.is_suspect(n));
        // hedge raises are gentler than timeout raises
        h.raise_hedge(n);
        assert!(h.suspicion(n) < RAISE);
        h.reset();
        assert_eq!(h.suspicion(n), 0);
        assert_eq!(h.global_estimate().samples(), 0);
        assert_eq!(h.suspects(), 0);
    }
}
