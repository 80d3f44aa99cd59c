//! §2.2's local routing: the machines that move an op's message hop
//! by hop, each hop decided by the current server's own table alone.

use super::*;
use cd_core::walk::{prefix_walk_delta, walk_budget};
use rand::Rng;

impl<G: Topology, T: Transport> Run<'_, G, T> {
    /// Initialize an op's routing state at its origin (attempt 1 or a
    /// retry): reset the path and plan/re-plan the walk.
    pub(super) fn start_op(&mut self, id: OpId) {
        let delta = self.net.delta();
        let planned = self.preplan(id);
        let op = &mut self.eng.ops[id as usize];
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
    pub(super) fn advance<V: ShareView>(&mut self, id: OpId, view: &V) {
        loop {
            let op = &mut self.eng.ops[id as usize];
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
        let op = &self.eng.ops[id as usize];
        let cur = op.cur;
        let next = self.net.local_cover(cur, p).unwrap_or_else(|| {
            panic!(
                "missing discrete edge: {cur} (segment {:?}) has no table entry covering {:?}",
                self.net.segment_of(cur),
                p
            )
        });
        self.eng.ops[id as usize].path.push(next, p);
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
    pub(super) fn step_msg(&self, id: OpId, at: Point) -> Wire {
        let op = &self.eng.ops[id as usize];
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
    pub(super) fn send_step(&mut self, id: OpId, next: NodeId, at: Point) {
        let op = &mut self.eng.ops[id as usize];
        op.step += 1;
        op.resends = 0;
        op.last_at = at;
        op.waiting_on = Some(next);
        let (src, attempt) = (op.cur, op.attempt);
        let msg = self.step_msg(id, at);
        // the timeout is decided with what was known *before* this
        // send's own delivery is observed
        let timeout = self.progress_timeout(id, next, attempt);
        self.send_op(id, src, next, msg);
        self.arm_timer(id, next, timeout);
    }
}
