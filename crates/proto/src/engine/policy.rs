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
    /// The attached detector, but only when the policy is hedged: the
    /// one gate of every detector-driven behavior.
    fn hedged_detector(&self) -> Option<&NetHealth> {
        self.health.as_deref().filter(|_| self.eng.retry.hedge)
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
    pub(super) fn progress_timeout(&self, id: OpId, dst: NodeId, attempt: u32) -> u64 {
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
    /// `(op seed, op, attempt)`, so traces stay fingerprintable;
    /// retries re-plan from wherever the op stalled. Empty (the op
    /// draws its own digits) unhedged or when no candidate converged.
    fn plan_walk(&self, from: NodeId, target: Point, id: OpId, attempt: u32) -> Vec<u32> {
        const CANDIDATES: u64 = 32;
        const MAX_STEPS: usize = 96;
        /// Expected-delay surcharge for a suspect cover: dominates any
        /// realistic sum of per-hop smoothed delays.
        const SUSPECT_PENALTY: u64 = 100_000;
        let Some(h) = self.hedged_detector() else { return Vec::new() };
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
                self.eng.ops[id as usize].seed ^ 0xD161_7909,
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
    pub(super) fn scatter_timeout(&self, id: OpId, holders: &[NodeId], attempt: u32) -> u64 {
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

    /// A DH op's digit string, pre-planned against the detector when
    /// hedged — the initial attempt and every from-origin retry alike
    /// ([`Self::plan_walk`]); empty otherwise.
    pub(super) fn preplan(&self, id: OpId) -> Vec<u32> {
        let op = &self.eng.ops[id as usize];
        match op.kind {
            RouteKind::DistanceHalving => self.plan_walk(op.from, op.target, id, op.attempt),
            _ => Vec::new(),
        }
    }

    /// Coordinator handoff: a suspect coordinator relays every share
    /// reply through its own slow queue, so a hedged read forwards the
    /// coordination one hop to the least-suspect cover of `holders`
    /// instead (at most once per attempt). That cover, if any.
    pub(super) fn handoff(&self, id: OpId, holders: &[NodeId]) -> Option<NodeId> {
        let op = &self.eng.ops[id as usize];
        let h = self.hedged_detector()?;
        let (read, cur) = (matches!(op.action, Action::GetShares { .. }), op.cur);
        if !read || op.handed_off || !h.is_suspect(cur) {
            return None;
        }
        let best = holders.iter().copied().min_by_key(|&n| (h.suspicion(n), n)).unwrap_or(cur);
        (best != cur && h.suspicion(best) < h.suspicion(cur)).then_some(best)
    }

    /// The slots of `holders` in the order a scatter contacts them:
    /// ring order, least-suspect first when hedged.
    pub(super) fn contact_order(&self, holders: &[NodeId]) -> Vec<u8> {
        let mut order: Vec<u8> = (0..holders.len() as u8).collect();
        if let Some(h) = self.hedged_detector() {
            order.sort_by_key(|&i| (h.suspicion(holders[i as usize]), i));
        }
        order
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
    pub(super) fn note_alive(&mut self, node: NodeId) {
        self.suspicion_edge(node, |h| h.alive(node));
    }

    /// Apply `update` to the detector's record of `node`, emitting a
    /// [`ObsEvent::SuspicionEdge`] when its verdict flips.
    fn suspicion_edge(&mut self, node: NodeId, update: impl FnOnce(&mut NetHealth)) {
        let Some(h) = self.health.as_deref_mut() else { return };
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
            && self.hedged_detector().is_some();
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
            let blamed: Vec<NodeId> = match (&op.machine, op.replica.as_ref()) {
                (Machine::Scatter, Some(rep)) => {
                    let put = matches!(op.action, Action::PutShares { .. });
                    rep.silent(put, op.cur)
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
        let resume = self.hedged_detector().is_some()
            && matches!(op.kind, RouteKind::DistanceHalving)
            && matches!(op.machine, Machine::Dh1 | Machine::Dh2 { .. });
        if resume {
            let (cur, target, attempt) = (op.cur, op.target, op.attempt);
            let here = self.net.segment_of(cur).start();
            let delta = self.net.delta();
            let digits = self.plan_walk(cur, target, id, attempt);
            let op = &mut self.eng.ops[id as usize];
            op.handed_off = false;
            op.walk.reset(here, op.target, delta);
            op.planned = digits;
            op.machine = Machine::Dh1;
        } else {
            self.start_op(id);
        }
        self.advance_or_enter(id, view);
    }
}
