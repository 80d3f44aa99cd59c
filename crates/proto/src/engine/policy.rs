//! The grey-failure policy — timeouts, hedging, suspicion — and the
//! only code that reads the attached detector.

use super::*;
use rand::Rng;

/// End-to-end retransmission policy.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Ticks without progress before the origin restarts the op. When
    /// hedging this is the *ceiling* (and the cold-start value);
    /// per-destination estimates undercut it, never exceed it.
    pub timeout: u64,
    /// Attempts (including the first) before the op is abandoned.
    pub max_attempts: u32,
    /// Consult the attached [`NetHealth`]: progress
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

impl<G: Topology, T: Transport> Run<'_, G, T> {
    /// Is a detector attached and the policy hedged? The one gate of
    /// every detector-driven behavior.
    fn hedged(&self) -> bool {
        self.health.is_some() && self.eng.retry.hedge
    }

    /// The attached detector with its logged samples folded in, but
    /// only when [`Self::hedged`]: every per-destination read goes
    /// through here (or [`Self::suspicion_edge`]), so the deferred
    /// folds are invisible to the policy.
    fn hedged_detector(&mut self) -> Option<&mut NetHealth> {
        let h = self.health.as_deref_mut().filter(|_| self.eng.retry.hedge)?;
        h.fold();
        Some(h)
    }

    /// End the run: hand the detector back with its log folded, and
    /// return the run's counters.
    pub(super) fn finish(self) -> EngineStats {
        if let Some(h) = self.health {
            h.fold();
        }
        self.stats
    }

    /// Feed the failure detector's RTT estimators with the planned
    /// delivery delays of `env` — pure observation, never changes the
    /// plan. Grey slowness rides whichever endpoint is slow, so hedged
    /// runs attribute the delay to both: a slow *sender* gets flagged
    /// too, instead of smearing its delay onto whoever it talks to.
    pub(super) fn observe_rtt(&mut self, env: &Envelope, plan: &[Delivery]) {
        let Some(h) = self.health.as_deref_mut() else { return };
        for d in plan {
            let delay = d.at.saturating_sub(self.eng.clock);
            h.observe(env.dst, delay);
            if self.eng.retry.hedge && env.src != env.dst {
                h.observe(env.src, delay);
            }
        }
    }

    /// `base` plus deterministic per-`(op, attempt)` jitter of up to a
    /// quarter, clamped to the policy ceiling. The jitter stream is
    /// `sub_rng(seed, op, attempt)` — a pure function of the op's
    /// seed, so traces stay fingerprintable.
    fn jittered(&self, base: u64, id: OpId, attempt: u32) -> u64 {
        let span = (base / 4).max(1);
        let mut rng = sub_rng(
            self.eng.ops[id as usize].seed ^ 0xBACC_0FF5,
            (u64::from(id) << 32) | u64::from(attempt),
        );
        (base + rng.gen_range(0..span)).min(self.eng.retry.timeout)
    }

    /// The progress timeout for a send toward `dst`: the fixed policy
    /// timeout, or — hedging with health attached — the
    /// per-destination Jacobson bound with jitter.
    pub(super) fn progress_timeout(&mut self, id: OpId, dst: NodeId, attempt: u32) -> u64 {
        let ceiling = self.eng.retry.timeout;
        let Some(h) = self.hedged_detector() else { return ceiling };
        // a hedged route stalls one healthy-sized wait at most, every
        // attempt: a premature fire costs one in-place retransmission
        // (position kept), a true stall takes the re-planning detour
        // around the blamed cover ([`Self::plan_walk`]) — so neither a
        // slow cover's own inflated timeout nor exponential backoff
        // should delay either. Flat cap, per-attempt jitter only.
        let capped = h.timeout_for(dst, ceiling).min(h.route_cap(ceiling));
        self.jittered(capped, id, attempt)
    }

    /// Pre-plan a hedged Distance-Halving walk from the server (and
    /// slot) `at`: run the route walk ([`RouteWalk`]) on a few
    /// candidate digit strings, price every cover each candidate
    /// visits — descent *and* the forced retrace — with the detector's
    /// delay estimators, and return the cheapest string. The retrace
    /// offers no mid-route detour (each backward hop is the doubling
    /// map, digit-independent), so the digit string τ is the *only*
    /// routing freedom the §2.2.2 walk has; pricing whole candidates
    /// before the first send is how lookup planning consults the
    /// detector. A cover is priced at its
    /// personal smoothed delay when any sample exists (one slow
    /// delivery is enough to steer away — far earlier than the
    /// suspicion threshold), the population's otherwise, plus a
    /// penalty that makes suspect-free candidates always outrank
    /// suspect-crossing ones. Candidate streams are pure functions of
    /// `(op seed, op, attempt)`, so traces stay fingerprintable;
    /// retries re-plan from wherever the op stalled. The digits go
    /// into `out`, cleared first; it stays empty (the op draws its own
    /// digits) unhedged.
    fn plan_walk(
        &mut self,
        at: (NodeId, Slot),
        target: Point,
        id: OpId,
        attempt: u32,
        out: &mut Vec<u32>,
    ) {
        const CANDIDATES: u64 = 32;
        /// Expected-delay surcharge for a suspect cover: dominates any
        /// realistic sum of per-hop smoothed delays.
        const SUSPECT_PENALTY: u64 = 100_000;
        let (net, seed) = (self.net, self.eng.ops[id as usize].seed);
        out.clear();
        let Some(h) = self.hedged_detector() else { return };
        // price a cover at smoothed delay + deviation (greys are both
        // slow *and* jittery, so the deviation term separates them
        // from the healthy population even on few samples)
        let g = h.global_estimate();
        let global = (g.srtt() + g.var()).max(1);
        let mut price = |n: NodeId| -> u64 {
            let base = match h.estimate(n) {
                Some(e) if e.samples() > 0 => e.srtt() + e.var(),
                _ => global,
            };
            base + if h.is_suspect(n) { SUSPECT_PENALTY } else { 0 }
        };
        let (mut walk, mut path) = (RouteWalk::new(), Path::empty());
        let mut best: Option<u64> = None;
        for c in 0..CANDIDATES {
            let mut rng = sub_rng(
                seed ^ 0xD161_7909,
                (u64::from(id) << 32) | (u64::from(attempt) << 8) | c,
            );
            walk.start(net, RouteKind::DistanceHalving, at, target, &mut path);
            let (mut cur, mut cost) = (at, 0u64);
            while let Some((next, slot, _)) = walk.step(net, cur, &[], &mut rng, &mut path) {
                cost += price(next);
                cur = (next, slot);
            }
            if best.is_none_or(|b| cost < b) {
                best = Some(cost);
                out.clear();
                out.extend_from_slice(walk.digits());
            }
        }
    }

    /// The progress timeout of a scatter round: the slowest contacted
    /// cover bounds the round, so take the max per-destination bound,
    /// backed off exponentially across attempts.
    pub(super) fn scatter_timeout(&mut self, id: OpId, holders: &[NodeId], attempt: u32) -> u64 {
        let ceiling = self.eng.retry.timeout;
        let Some(h) = self.hedged_detector() else { return ceiling };
        let base = holders
            .iter()
            .map(|&n| h.timeout_for(n, ceiling))
            .max()
            .unwrap_or(ceiling);
        let shift = attempt.saturating_sub(1).min(4);
        self.jittered(base.saturating_mul(1u64 << shift).min(ceiling), id, attempt)
    }

    /// How long a quorum read waits before its next backup fetch.
    pub(super) fn hedge_delay_now(&self) -> u64 {
        match self.health.as_deref() {
            Some(h) => h.hedge_delay(self.eng.retry.timeout),
            None => (self.eng.retry.timeout / 8).max(1),
        }
    }

    /// Set a DH op's digit string from the server holding its message,
    /// pre-planned against the detector when hedged — the initial
    /// attempt, every from-origin retry and a hedged resume alike
    /// ([`Self::plan_walk`]). Other ops' stay empty.
    pub(super) fn preplan(&mut self, id: OpId) {
        let op = &mut self.eng.ops[id as usize];
        if let RouteKind::DistanceHalving = op.kind {
            let (at, target, attempt) = ((op.cur, op.slot), op.target, op.attempt);
            let mut planned = mem::take(&mut op.planned);
            self.plan_walk(at, target, id, attempt, &mut planned);
            self.eng.ops[id as usize].planned = planned;
        }
    }

    /// Coordinator handoff: a suspect coordinator relays every share
    /// reply through its own slow queue, so a hedged read forwards the
    /// coordination one hop to the least-suspect cover of `holders`
    /// instead (at most once per attempt). That cover, if any.
    pub(super) fn handoff(&mut self, id: OpId, holders: &[NodeId]) -> Option<NodeId> {
        let op = &self.eng.ops[id as usize];
        let (read, cur, handed_off) =
            (matches!(op.action, Action::GetShares { .. }), op.cur, op.handed_off);
        let h = self.hedged_detector()?;
        if !read || handed_off || !h.is_suspect(cur) {
            return None;
        }
        let best = holders.iter().copied().min_by_key(|&n| (h.suspicion(n), n)).unwrap_or(cur);
        (best != cur && h.suspicion(best) < h.suspicion(cur)).then_some(best)
    }

    /// The slots of `holders`, into `order`, in the order a scatter
    /// contacts them: ring order, least-suspect first when hedged.
    pub(super) fn contact_order(&mut self, holders: &[NodeId], order: &mut Vec<u8>) {
        order.clear();
        order.extend(0..holders.len() as u8);
        if let Some(h) = self.hedged_detector() {
            order.sort_by_key(|&i| (h.suspicion(holders[i as usize]), i));
        }
    }

    /// Accrue suspicion of `node` (gentle accrual when `hedge`),
    /// emitting a [`ObsEvent::SuspicionEdge`] when the detector's
    /// verdict flips. Pure pass-through to [`NetHealth`] plus reads —
    /// behavior is identical to calling `raise`/`raise_hedge` direct.
    pub(super) fn raise_suspicion(&mut self, node: NodeId, hedge: bool) {
        self.suspicion_edge(node, |h| if hedge { h.raise_hedge(node) } else { h.raise(node) });
    }

    /// Decay suspicion of `node` (it showed life), emitting a
    /// [`ObsEvent::SuspicionEdge`] when the verdict flips back down.
    /// A node without a counter is skipped outright: decay is a no-op
    /// there, so no verdict can flip — and the delivery reads no
    /// estimator.
    pub(super) fn note_alive(&mut self, node: NodeId) {
        if self.health.as_deref().is_some_and(|h| h.has_counter(node)) {
            self.suspicion_edge(node, |h| h.alive(node));
        }
    }

    /// Apply `update` to the detector's record of `node`, emitting a
    /// [`ObsEvent::SuspicionEdge`] when its verdict flips.
    fn suspicion_edge(&mut self, node: NodeId, update: impl FnOnce(&mut NetHealth)) {
        let Some(h) = self.health.as_deref_mut() else { return };
        h.fold();
        let was = h.is_suspect(node);
        update(h);
        let (up, level) = (h.is_suspect(node), h.suspicion(node));
        if was != up {
            self.obs.emit(self.eng.clock, 0, ObsEvent::SuspicionEdge { node: node.0, up, level });
        }
    }

    /// A progress timer fired on a stalled op: resend in place, blame,
    /// then resume or restart — until the retry budget runs out.
    pub(super) fn timer<V: ShareView>(&mut self, id: OpId, attempt: u32, step: u32, view: &V) {
        let op = &self.eng.ops[id as usize];
        if matches!(op.machine, Machine::Done | Machine::Failed)
            || attempt != op.attempt
            || step != op.step
        {
            return; // the op made progress since this timer was armed
        }
        self.obs.emit(self.eng.clock, attempt, ObsEvent::TimerFire { step });
        let op = &self.eng.ops[id as usize];
        // spurious-timeout protection for hedged routes: a stalled
        // step is usually a lost or merely-late message (a grey
        // crossing outlasts the healthy-sized timer but still
        // arrives) — retransmit in place with identical stamps
        // (either delivery advances the op) instead of discarding
        // route progress with a restart, and only soft-blame: a
        // restart is the last resort once the resend budget shows the
        // silence is real.
        const MAX_RESENDS: u8 = 2;
        let resend = !matches!(op.machine, Machine::Scatter)
            && op.resends < MAX_RESENDS
            && self.hedged();
        if let Some(dst) = op.waiting_on.filter(|_| resend) {
            let (src, at) = (op.cur, op.last_at);
            self.eng.ops[id as usize].resends += 1;
            // repeated silence still accrues, gently
            self.raise_suspicion(dst, true);
            let timeout = self.progress_timeout(id, dst, attempt);
            let msg = self.step_msg(id, at);
            self.send_op(id, src, dst, msg);
            self.arm_timer(id, dst, timeout);
            return;
        }
        // the accrual detector's primary signal: blame whoever we were
        // waiting on when the progress timer fired
        if self.health.is_some() {
            let blamed: Vec<NodeId> = match op.machine {
                Machine::Scatter => {
                    let put = matches!(op.action, Action::PutShares { .. });
                    op.replica.silent(put, op.cur)
                }
                _ => op.waiting_on.into_iter().collect(),
            };
            for n in blamed {
                self.raise_suspicion(n, false);
            }
        }
        let op = &mut self.eng.ops[id as usize];
        if op.attempt >= self.eng.retry.max_attempts {
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
        self.obs.emit(self.eng.clock, fresh, ObsEvent::Retry);
        let op = &self.eng.ops[id as usize];
        // a hedged DH route that stalled mid-walk resumes from the
        // node holding the message — a fresh random descent from here
        // (the stalled hop's cover is now suspect, so the new digits
        // steer around it) — instead of paying the whole route again
        let resume = self.hedged()
            && matches!(op.kind, RouteKind::DistanceHalving)
            && matches!(op.machine, Machine::Route);
        if resume {
            self.preplan(id);
            let op = &mut self.eng.ops[id as usize];
            op.handed_off = false;
            op.walk.resume(self.net, op.slot);
        } else {
            self.start_op(id);
        }
        self.advance_or_enter(id, view);
    }
}
