//! The engine's driver of §2.2's local routing: it steps the op's
//! [`RouteWalk`] and sends only when a step crosses servers.

use super::*;

impl<G: Topology, T: Transport> Run<'_, G, T> {
    /// Initialize an op's routing state at its origin (attempt 1 or a
    /// retry): plan/re-plan its digits and arm its walk there.
    pub(super) fn start_op(&mut self, id: OpId) {
        let op = &mut self.eng.ops[id as usize];
        op.cur = op.from;
        op.slot = self.net.slot_of(op.from);
        op.handed_off = false;
        self.preplan(id);
        let op = &mut self.eng.ops[id as usize];
        op.walk.start(self.net, op.kind, (op.from, op.slot), op.target, &mut op.path);
        op.machine = Machine::Route;
    }

    /// Take local steps for `op` at its current node until it either
    /// completes or must send a message (sent here), then return.
    pub(super) fn advance<V: ShareView>(&mut self, id: OpId, view: &V) {
        let op = &mut self.eng.ops[id as usize];
        if !matches!(op.machine, Machine::Route) {
            return;
        }
        let at = (op.cur, op.slot);
        loop {
            let op = &mut self.eng.ops[id as usize];
            match op.walk.step(self.net, at, &op.planned, &mut op.rng, &mut op.path) {
                None => return self.arrive(id, view),
                Some((next, slot, p)) if next != at.0 => return self.send_step(id, next, slot, p),
                Some(_) => {}
            }
        }
    }

    /// The `LookupStep` carrying the op's *current* step state — built
    /// the same way for a fresh send and for an in-place
    /// retransmission (identical stamps, so either delivery advances
    /// the op).
    pub(super) fn step_msg(&self, id: OpId, at: Point) -> Wire {
        let op = &self.eng.ops[id as usize];
        Wire::LookupStep {
            op: id,
            attempt: op.attempt,
            step: op.step,
            at,
            digits: op.walk.header_digits(),
            action: op.action,
        }
    }

    /// Emit the op's next `LookupStep` to `next`, whose slot is
    /// `next_slot`, and arm the progress timer.
    pub(super) fn send_step(&mut self, id: OpId, next: NodeId, next_slot: Slot, at: Point) {
        let op = &mut self.eng.ops[id as usize];
        op.next_slot = next_slot;
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
