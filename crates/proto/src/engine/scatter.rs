//! §6.2's clique protocol: the scatter to an item's cover clique and
//! its `k`-of-`m` quorum (the parent module describes read and write).

use super::*;

/// Scatter-phase bookkeeping of a replicated op, keyed by cover: a
/// *slot* is a position in the clique. A put sends share `i` to slot
/// `i`, so for puts slot and share index coincide; a read asks each
/// slot for whatever share it holds. Boxed into the op lazily —
/// non-replicated ops never allocate it.
#[derive(Default)]
pub(super) struct ReplicaState {
    /// The covers of the item, in ring order from the primary.
    pub(super) holders: Vec<NodeId>,
    /// Slots whose `StoreShare` arrived intact (all attempts).
    pub(super) stored: Vec<u8>,
    /// Slots acked to the coordinator on the current attempt (its own
    /// included).
    acked: Vec<u8>,
    /// Slots that answered a fetch on the current attempt.
    replied: Vec<u8>,
    /// Share indices found on the current attempt, in arrival order.
    pub(super) gathered: Vec<u8>,
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
    /// The contacted covers other than `cur` that have not answered on
    /// the current attempt (acked a put, replied to a read) — whom a
    /// fired timer blames.
    pub(super) fn silent(&self, put: bool, cur: NodeId) -> Vec<NodeId> {
        let answered = if put { &self.acked } else { &self.replied };
        let contacted = self.contact_order.iter().take(self.contacted);
        contacted
            .filter(|slot| !answered.contains(slot))
            .filter_map(|&slot| self.holders.get(slot as usize).copied())
            .filter(|&n| n != cur)
            .collect()
    }
}

impl<G: Topology, T: Transport> Run<'_, G, T> {
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
    pub(super) fn advance_or_enter<V: ShareView>(&mut self, id: OpId, view: &V) {
        let op = &self.eng.ops[id as usize];
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
    pub(super) fn arrive<V: ShareView>(&mut self, id: OpId, view: &V) {
        if self.eng.ops[id as usize].action.is_replicated() {
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
        let op = &self.eng.ops[id as usize];
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
        if let Some(best) = self.handoff(id, &holders) {
            self.eng.ops[id as usize].handed_off = true;
            self.send_step(id, best, item);
            return;
        }
        // contact order: the coordinator's own slot first (a free local
        // step), then the policy's order
        let mut order = self.contact_order(&holders);
        if let Some(pos) = order.iter().position(|&i| holders[i as usize] == cur) {
            order[..=pos].rotate_right(1);
        }
        // a quorum's worth of covers is asked to answer — not-found
        // replies and the backup timer extend it; a put still places
        // every share
        let need = (k as usize).min(holders.len()).max(1);
        self.obs.emit(
            self.eng.clock,
            self.eng.ops[id as usize].attempt,
            ObsEvent::QuorumEntry {
                coordinator: cur.0,
                clique: holders.len() as u32,
                need: need as u32,
            },
        );
        let op = &mut self.eng.ops[id as usize];
        op.step += 1;
        op.waiting_on = None;
        let attempt = op.attempt;
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
                let rep = self.eng.ops[id as usize].replica.as_mut().expect("just set");
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
                self.send_op(id, cur, holder, msg);
            }
        }
        let timeout = self.scatter_timeout(id, &holders, attempt);
        self.arm_timer(id, cur, timeout);
        if need < holders.len() {
            let delay = self.hedge_delay_now();
            self.eng.push_event(self.eng.clock + delay, EventKind::Hedge { op: id, attempt }, Lane::Timer);
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
        let op = &mut self.eng.ops[id as usize];
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
        self.send_op(id, cur, holder, msg);
        true
    }

    /// Reply-driven top-up of a quorum read: every contacted cover
    /// has answered but the quorum is still short — fetch the whole
    /// shortfall from the next covers at once instead of waiting for
    /// the backup timer (a definitive miss is then two waves, not one
    /// round trip per cover).
    fn extend_contact_if_stalled(&mut self, id: OpId) {
        let op = &self.eng.ops[id as usize];
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
    pub(super) fn hedge_fire(&mut self, id: OpId, attempt: u32) {
        let op = &self.eng.ops[id as usize];
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
        for n in rep.silent(put, op.cur) {
            self.raise_suspicion(n, true);
        }
        let mut sent = 0;
        while sent < backups && self.contact_next(id) {
            sent += 1;
            self.stats.hedged += 1;
            let wave = self.eng.ops[id as usize].replica.as_ref().map_or(0, |r| u32::from(r.wave));
            self.obs.emit(self.eng.clock, attempt, ObsEvent::Hedge { wave });
        }
        let more = self.eng.ops[id as usize]
            .replica
            .as_ref()
            .is_some_and(|r| r.contacted < r.contact_order.len());
        if sent > 0 && more {
            let delay = self.hedge_delay_now();
            self.eng.push_event(self.eng.clock + delay, EventKind::Hedge { op: id, attempt }, Lane::Timer);
        }
    }

    /// Completion test of the scatter phase: a put completes at `k`
    /// acks (write quorum), a get at `k` gathered shares — or once
    /// every cover answered (the item may simply have fewer than `k`
    /// live shares; the driver decides what that means).
    fn check_quorum(&mut self, id: OpId) {
        let op = &self.eng.ops[id as usize];
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


    /// Holder side of a replicated put: record the placement, and ack
    /// if the coordinator asked for it.
    pub(super) fn deliver_store(
        &mut self,
        env: &Envelope,
        id: OpId,
        attempt: u32,
        idx: u8,
        ack: bool,
    ) {
        // a corrupted share fails the holder's integrity check and is
        // never stored — the write quorum, not this holder, recovers
        let accepts = |op: &Op| !matches!(op.machine, Machine::Failed);
        let Some(op) = self.admit(id, attempt, !env.corrupt, accepts) else { return };
        let rep = op.replica.get_or_insert_with(Default::default);
        if !rep.stored.contains(&idx) {
            rep.stored.push(idx);
        }
        // an unasked cover, or a late arrival past quorum, still places
        // its share (recorded above) but no ack could matter — stay quiet
        if ack && !matches!(op.machine, Machine::Done) {
            self.send_op(id, env.dst, env.src, Wire::ShareAck { op: id, attempt, idx });
        }
    }

    /// Coordinator side of a replicated put: count the ack toward the
    /// write quorum.
    pub(super) fn deliver_ack(&mut self, env: &Envelope, id: OpId, attempt: u32, idx: u8) {
        let accepts = |op: &Op| matches!(op.machine, Machine::Scatter);
        let Some(op) = self.admit(id, attempt, !env.corrupt, accepts) else { return };
        let rep = op.replica.as_mut().expect("scatter state exists");
        if !rep.acked.contains(&idx) {
            rep.acked.push(idx);
        }
        self.obs.emit(
            self.eng.clock,
            attempt,
            ObsEvent::ShareAck { holder: env.src.0, idx: u32::from(idx) },
        );
        self.check_quorum(id);
    }

    /// Holder side of a quorum read: consult the share store, answer
    /// with the share this cover holds, naming its index.
    pub(super) fn deliver_fetch<V: ShareView>(
        &mut self,
        env: &Envelope,
        id: OpId,
        attempt: u32,
        key: u64,
        view: &V,
    ) {
        let accepts = |op: &Op| !matches!(op.machine, Machine::Done | Machine::Failed);
        if self.admit(id, attempt, !env.corrupt, accepts).is_none() {
            return;
        }
        let (idx, found, len) = match view.share_of(env.dst, key) {
            Some((idx, len)) => (idx, true, len),
            None => (0, false, 0),
        };
        let reply = Wire::ShareReply { op: id, attempt, idx, key, found, len };
        self.send_op(id, env.dst, env.src, reply);
    }

    /// Coordinator side of a quorum read: count the reply; the first
    /// `k` found shares reconstruct.
    pub(super) fn deliver_reply(
        &mut self,
        env: &Envelope,
        id: OpId,
        attempt: u32,
        idx: u8,
        found: bool,
    ) {
        // a corrupted reply fails its integrity check: it never counts
        // toward the quorum (false message injection cannot fake reads)
        let accepts = |op: &Op| matches!(op.machine, Machine::Scatter);
        let Some(op) = self.admit(id, attempt, !env.corrupt, accepts) else { return };
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
                    self.eng.clock,
                    attempt,
                    ObsEvent::ShareAck { holder: env.src.0, idx: u32::from(idx) },
                );
            }
        }
        self.extend_contact_if_stalled(id);
        self.check_quorum(id);
    }
}
