//! The self-healing pass: churn-driven share repair.
//!
//! Join splits a segment and leave merges one, so the cover clique of
//! an item — the `m` ring-consecutive servers starting at the cover
//! of `h(item)` — **shifts** under churn: one server enters it and,
//! on a large enough ring, one leaves it. §6.2 needs only that *any*
//! `k` of the `m` shares reconstruct, so placement is a **set**: an
//! item is placed when every member of its current clique holds
//! exactly one share of the committed generation, the indices are
//! distinct, and nothing is held outside the clique. Which member
//! holds which index does not matter (a put writes index `i` to member
//! `i`; churn permutes that freely). So a shift costs one share:
//!
//! * **join** — the member pushed out of the clique still holds its
//!   share and hands it to the newcomer: one [`Wire::RepairPush`] of
//!   the stored sealed blob, no pull, no decode, no encode. The blob is
//!   shipped only if it opens at the placed generation; a damaged one
//!   is rebuilt instead, as after a crash;
//! * **leave** — §2.1's hand-off: the leaver ships each share it holds
//!   to the cover entering that clique, as a join's pushed-out member
//!   does. Only a share that is gone — damaged, or lost in a crash
//!   ([`ReplicatedDht::drop_shelves_of`] first) — is rebuilt: the
//!   entering cover pulls `k` shares from kept members
//!   ([`Wire::RepairPull`]/[`Wire::RepairPush`]), decodes them (the
//!   codeword check) and computes the one missing row
//!   ([`dh_erasure::encode_row`]).
//!
//! The anti-entropy pass ([`ReplicatedDht::repair`]) detects drift per
//! item by digest exchange ([`Wire::ShareDigest`]) and applies that
//! rule to whatever it finds: the generation placed is the committed
//! one when every share is of it, else the newest with a decodable
//! quorum (an interrupted overwrite rolls back, never mixes); members
//! lacking a share take a spare one (held outside the clique, or a
//! member's second) if it is intact, else a rebuilt free index; every
//! other share is dropped. The churn entry points
//! [`ReplicatedDht::join_over`] and [`ReplicatedDht::leave_over`] run
//! the wire-churn protocol of `dh_dht::proto` and then this pass, so a
//! store driven through them is always fully replicated between churn
//! events — which is exactly the induction step behind the durability
//! guarantee (at most `m − k` losses between repairs keep every item
//! at read quorum).
//!
//! ## Incremental (arc-scoped) repair
//!
//! The continuous-discrete construction makes churn *local*: a
//! join/leave moves one point, so the only cliques that change are
//! those containing the moved server — exactly the items whose hashed
//! location falls in the arc `[x(pred^{m−1}(n)), x(succ(n)))` (the
//! segments whose cover walk reaches `n`), plus, for a leave, the
//! items whose shares the leaver physically held. The store keeps a
//! per-arc item index (`(h(key), key)` in a `BTreeSet`) so
//! [`ReplicatedDht::join_over`]/[`ReplicatedDht::leave_over`]
//! digest-scan only that interval — cost proportional to the shifted
//! arc, not the keyspace. The full-scan [`ReplicatedDht::repair`]
//! stays as the ground truth: both run the same per-item judgement,
//! and a property test asserts that a full scan after any churn op
//! finds nothing left to shift, place or lose and leaves the shelf map
//! untouched.
//!
//! ## Batching and pacing
//!
//! Repair traffic is *planned* per item but *emitted* coalesced: all
//! digest entries one clique primary owes a peer ride one
//! [`Wire::ShareDigest`], and all pulls/pushes between one (cover,
//! holder) pair ride one [`Wire::RepairPullBatch`] /
//! [`Wire::RepairPushBatch`] frame (single-entry groups keep the
//! scalar vocabulary). Planned frames go to an outbox; by default the
//! churn call flushes it through a seeded engine synchronously, while
//! [`ReplicatedDht::set_repair_pacing`] caps how many frames each
//! [`ReplicatedDht::pump_repair`] drains — bounded background repair
//! overlapping foreground traffic instead of a synchronous storm.
//! Shelves are repaired at plan time either way: pacing spreads the
//! modeled wire cost, never the durability fix. The one exception is a
//! leaver's own hand-off frames, priced inside its `leave_over`: no
//! queued frame may name a server whose slab slot can be reused.
//!
//! Determinism: items are scanned in key order (`BTreeMap`), frames
//! are emitted in `BTreeMap` order of `(src, dst)`, message costs run
//! through the same seeded engine as every other protocol, and repair
//! mutates shelves in scan order — so the whole pass fingerprints and
//! replays like any routed batch.

use crate::ReplicatedDht;
use cd_core::graph::ContinuousGraph;
use cd_core::point::Point;
use cd_core::rng::splitmix64;
use dh_dht::network::NodeId;
use dh_dht::proto::{join_over, leave_over, ChurnMsgCost};
use dh_dht::LookupKind;
use dh_erasure::{encode_row, try_decode, Share, ShareHeader};
use dh_obs::EventKind as ObsEvent;
use dh_proto::engine::{Engine, RetryPolicy};
use dh_proto::transport::Transport;
use dh_proto::wire::Wire;
use dh_store::{Holder, ItemState, Shelves};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::mem;
use std::ops::RangeInclusive;

/// What one repair pass did and what it cost on the wire.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Items scanned.
    pub items_checked: usize,
    /// Items whose placement had drifted from their current clique.
    pub items_shifted: usize,
    /// Shares placed on covers that entered a clique: handed off plus
    /// rebuilt (the registry counts the two kinds apart, as
    /// `repair/shares_handed_off` and `repair/shares_rebuilt`).
    pub shares_rebuilt: usize,
    /// Items with fewer than `k` live shares in every generation —
    /// unrecoverable (more than `m − k` covers lost between repairs).
    pub items_lost: usize,
    /// Digest + pull/push frames sent (batched frames count once).
    pub msgs: u64,
    /// Modeled bytes of the above.
    pub bytes: u64,
    /// Frames planned by this pass but left in the outbox for
    /// [`ReplicatedDht::pump_repair`] (nonzero only under pacing).
    pub frames_queued: usize,
}

impl RepairReport {
    /// Merge another pass's counters (e.g. the per-op reports of a
    /// churn storm) by addition.
    pub fn merge(&mut self, other: &RepairReport) {
        self.items_checked += other.items_checked;
        self.items_shifted += other.items_shifted;
        self.shares_rebuilt += other.shares_rebuilt;
        self.items_lost += other.items_lost;
        self.msgs += other.msgs;
        self.bytes += other.bytes;
        self.frames_queued += other.frames_queued;
    }
}

/// Traffic owed between one `(src, dst)` pair, keyed by the pair.
type Owed<T> = BTreeMap<(NodeId, NodeId), T>;

/// The coalesced wire traffic one repair pass owes: planned per item,
/// emitted per `(src, dst)` pair in `BTreeMap` order.
#[derive(Default)]
struct RepairPlan {
    /// Clique primary → peer: digest entries owed.
    digests: Owed<u32>,
    /// Rebuilding cover → kept member: `(key, idx)` pulls owed.
    pulls: Owed<Vec<(u64, u8)>>,
    /// Holder → entering cover: `(key, idx, sealed_len)` shares owed,
    /// pulled ones and handed-off ones alike.
    pushes: Owed<Vec<(u64, u8, u32)>>,
    /// Shares handed over whole by a member that left the clique.
    handed_off: u64,
    /// Shares rebuilt from `k` pulled ones.
    rebuilt: u64,
}

impl RepairPlan {
    /// Emit every planned frame, coalescing each `(src, dst)` group
    /// into one batch frame (single-entry groups keep the scalar
    /// vocabulary, so a lone pull still reads as [`Wire::RepairPull`]).
    fn enqueue(self, outbox: &mut VecDeque<(NodeId, NodeId, Wire)>) {
        for ((src, dst), keys) in self.digests {
            outbox.push_back((src, dst, Wire::ShareDigest { keys }));
        }
        for ((src, dst), entries) in self.pulls {
            let msg = match entries.as_slice() {
                [(key, idx)] => Wire::RepairPull { key: *key, idx: *idx },
                _ => Wire::RepairPullBatch { keys: entries.len() as u32 },
            };
            outbox.push_back((src, dst, msg));
        }
        for ((src, dst), entries) in self.pushes {
            let msg = match entries.as_slice() {
                [(key, idx, len)] => Wire::RepairPush { key: *key, idx: *idx, len: *len },
                _ => Wire::RepairPushBatch {
                    keys: entries.len() as u32,
                    bytes: entries.iter().map(|e| e.2).sum(),
                },
            };
            outbox.push_back((src, dst, msg));
        }
    }
}

impl<G: ContinuousGraph, S: Shelves> ReplicatedDht<G, S> {
    /// Drop every shelf entry held by `node`: the server's disk died
    /// with it. A crash-stop departure is spelled `drop_shelves_of(v)`
    /// then [`Self::leave_over`]`(v)`; the repair pass then finds no
    /// share to hand off and rebuilds each lost one.
    ///
    /// The holder index knows exactly which `(key, idx)` slots `node`
    /// holds, so this hands the backend a hint list
    /// ([`Shelves::retire_hinted`]) instead of letting it scan every
    /// item.
    pub fn drop_shelves_of(&mut self, node: NodeId) {
        let hints: Vec<(u64, u8)> =
            self.held.range(held_by(node)).map(|&(_, key, idx)| (key, idx)).collect();
        for &(key, idx) in &hints {
            self.held.remove(&(node.0, key, idx));
        }
        self.shelves.retire_hinted(node, &hints);
    }

    /// One anti-entropy pass over every item: detect placement drift
    /// against the current cliques, give every member lacking a share
    /// a spare one or a rebuilt one, garbage-collect the rest. All
    /// message costs are priced through `transport` on a fresh engine
    /// seeded by `seed` (or queued, under pacing).
    pub fn repair<T: Transport>(&mut self, transport: &mut T, seed: u64) -> RepairReport {
        let keys: Vec<u64> = self.shelves.map().keys().copied().collect();
        self.repair_keys(&keys, transport, seed)
    }

    /// The anti-entropy pass restricted to `keys` (deduplicated,
    /// ascending): the shared engine of the full scan and the
    /// arc-scoped incremental path.
    fn repair_keys<T: Transport>(
        &mut self,
        keys: &[u64],
        transport: &mut T,
        seed: u64,
    ) -> RepairReport {
        let mut report = RepairReport::default();
        let mut plan = RepairPlan::default();
        for &key in keys {
            self.plan_item(key, &mut plan, &mut report);
        }
        self.obs.add("repair/shares_handed_off", 0, plan.handed_off);
        self.obs.add("repair/shares_rebuilt", 0, plan.rebuilt);
        let before = self.outbox.len();
        plan.enqueue(&mut self.outbox);
        report.frames_queued = self.outbox.len() - before;
        self.obs.add("repair/frames_planned", 0, report.frames_queued as u64);
        if self.pace.is_none() {
            let (msgs, bytes) = self.flush_repair(transport, seed);
            report.msgs = msgs;
            report.bytes = bytes;
            report.frames_queued = 0;
        }
        report
    }

    /// Judge one item against its current clique; mutate the shelves
    /// to the repaired placement and add the owed traffic to `plan`.
    fn plan_item(&mut self, key: u64, plan: &mut RepairPlan, report: &mut RepairReport) {
        let (m, k) = (self.m(), self.k() as usize);
        let Some(item) = self.shelves.map().get(&key) else {
            return;
        };
        report.items_checked += 1;
        let mut clique: Vec<NodeId> = Vec::with_capacity(m as usize);
        self.net.clique_of(item.point, m as usize, &mut clique);
        if placed(item, &clique) {
            return;
        }
        report.items_shifted += 1;
        // digest exchange: the primary announces the item's expected
        // generation across the clique; every mismatch below is what
        // the digests flagged
        for &h in &clique[1..] {
            *plan.digests.entry((clique[0], h)).or_insert(0) += 1;
        }
        // the generation to place: the committed one when every share
        // is of it (decoded only if a row must be rebuilt), else the
        // newest generation still decoding from a quorum of live shares
        let uniform =
            item.holders.len() >= k && item.holders.values().all(|h| h.version == item.version);
        let (version, mut value) = if uniform {
            (item.version, None)
        } else {
            let Some((version, value)) = best_generation(item, k) else {
                report.items_lost += 1;
                return;
            };
            (version, Some(value))
        };
        // each member keeps the lowest index it holds of `version`; the
        // shares nobody keeps are spares (a member's that left the
        // clique, or a member's second), handed on only if intact
        let of_version = |idx: &u8| item.holders[idx].version == version;
        let kept: Vec<Option<u8>> = clique
            .iter()
            .map(|&c| item.holders.iter().find(|(i, h)| h.node == c && of_version(i)))
            .map(|held| held.map(|(&idx, _)| idx))
            .collect();
        let spare: Vec<u8> = item
            .holders
            .keys()
            .copied()
            .filter(|idx| of_version(idx) && !kept.contains(&Some(*idx)))
            .collect();
        let mut intact = spare.iter().copied().filter(|idx| item.holders[idx].share().is_some());
        // every member without a share takes a spare, else a rebuilt
        // index no member holds
        let mut used: Vec<u8> = kept.iter().flatten().copied().collect();
        let mut fills: Vec<(NodeId, u8, bool)> = Vec::new();
        for (&cover, _) in clique.iter().zip(&kept).filter(|(_, kept)| kept.is_none()) {
            let (idx, handed) = match intact.next() {
                Some(idx) => (idx, true),
                None => {
                    let free = (0..m).find(|i| !used.contains(i));
                    (free.expect("a clique has at most m members"), false)
                }
            };
            used.push(idx);
            fills.push((cover, idx, handed));
        }
        // a rebuild pulls the first k intact shares: kept members' in
        // clique order, then the spares
        let mut sources: Vec<(u8, Share)> = Vec::new();
        if fills.iter().any(|&(_, _, handed)| !handed) {
            let order = kept.iter().flatten().chain(&spare);
            sources = order.filter_map(|&i| Some((i, item.holders[&i].share()?))).take(k).collect();
            if value.is_none() {
                let shares: Vec<Share> = sources.iter().map(|(_, s)| s.clone()).collect();
                value = try_decode(&shares, k).ok();
            }
            if value.is_none() {
                report.items_lost += 1;
                return;
            }
        }
        report.shares_rebuilt += fills.len();
        // (index, its previous holder, its new holder)
        let mut parks: Vec<(u8, Option<NodeId>, Holder)> = Vec::with_capacity(fills.len());
        for &(cover, idx, handed) in &fills {
            let holder = if handed {
                plan.handed_off += 1;
                let from = &item.holders[&idx];
                let len = from.sealed.len() as u32;
                plan.pushes.entry((from.node, cover)).or_default().push((key, idx, len));
                Holder { node: cover, version, sealed: from.sealed.clone() }
            } else {
                plan.rebuilt += 1;
                for (src_idx, _) in &sources {
                    let src = &item.holders[src_idx];
                    let len = src.sealed.len() as u32;
                    plan.pulls.entry((cover, src.node)).or_default().push((key, idx));
                    plan.pushes.entry((src.node, cover)).or_default().push((key, *src_idx, len));
                }
                let value = value.as_deref().expect("decoded above");
                let header = ShareHeader { version, index: idx, k: k as u8, m };
                Holder::seal(cover, header, &encode_row(value, k, idx))
            };
            parks.push((idx, item.holders.get(&idx).map(|h| h.node), holder));
        }
        let dropped: Vec<(u8, NodeId)> = item
            .holders
            .iter()
            .filter(|(idx, _)| !used.contains(idx))
            .map(|(&idx, h)| (idx, h.node))
            .collect();
        let point = item.point;
        // apply with the same write discipline as a put — park the
        // placed shares, drop the rest, commit last — so on a WAL
        // backend a crash mid-repair still recovers to a generation
        // repair can finish from
        for (idx, old, holder) in parks {
            if let Some(old) = old {
                self.held.remove(&(old.0, key, idx));
            }
            self.held.insert((holder.node.0, key, idx));
            self.shelves.park(key, point, idx, holder);
        }
        for (idx, old) in dropped {
            self.held.remove(&(old.0, key, idx));
            self.shelves.unpark(key, idx);
        }
        self.shelves.commit(key, version);
    }

    /// The keys whose cover clique contains `n` — the arc
    /// `[x(pred^{m−1}(n)), x(succ(n)))` of the item index. Falls back
    /// to every key when the predecessor walk wraps (ring ≤ m: every
    /// clique is the whole ring).
    fn shifted_keys(&self, n: NodeId) -> BTreeSet<u64> {
        let m = self.m() as usize;
        let mut first = n;
        for _ in 1..m {
            first = self.net.ring_pred(first);
            if first == n {
                return self.shelves.map().keys().copied().collect();
            }
        }
        let lo = self.net.node(first).x.bits();
        let hi = self.net.node(self.net.ring_succ(n)).x.bits();
        let arc = &self.arc;
        if lo < hi {
            arc.range((lo, 0)..(hi, 0)).map(|&(_, key)| key).collect()
        } else {
            // the arc wraps the top of the ring (hi == lo: the clique
            // walk covers the whole circle)
            arc.range((lo, 0)..)
                .chain(arc.range(..(hi, 0)))
                .map(|&(_, key)| key)
                .collect()
        }
    }

    /// Drain up to the configured pacing budget of queued repair
    /// frames through a fresh engine seeded by `seed` (everything, if
    /// unpaced). Returns the priced `(msgs, bytes)`.
    pub fn pump_repair<T: Transport>(&mut self, transport: &mut T, seed: u64) -> (u64, u64) {
        let budget = self.pace.map(|b| b as usize).unwrap_or(usize::MAX);
        self.drain_repair(transport, seed, budget)
    }

    /// Drain the whole repair outbox regardless of pacing.
    pub fn flush_repair<T: Transport>(&mut self, transport: &mut T, seed: u64) -> (u64, u64) {
        self.drain_repair(transport, seed, usize::MAX)
    }

    fn drain_repair<T: Transport>(
        &mut self,
        transport: &mut T,
        seed: u64,
        budget: usize,
    ) -> (u64, u64) {
        if budget == 0 || self.outbox.is_empty() {
            return (0, 0);
        }
        let sent = budget.min(self.outbox.len());
        // every frame of the pump is recorded before its first send:
        // the `e_obs recorder` pin folds them in this order
        for (src, dst, msg) in self.outbox.iter().take(sent) {
            let bytes = msg.wire_bytes() as u32;
            self.obs.emit_storage(ObsEvent::RepairFrame { src: src.0, dst: dst.0, bytes });
        }
        let mut eng =
            Engine::new(&self.net, &mut *transport, seed).with_obs(self.obs.clone());
        for (src, dst, msg) in self.outbox.drain(..sent) {
            eng.send(src, dst, msg);
        }
        eng.run();
        self.obs.add("repair/frames_pumped", 0, sent as u64);
        eng.stats.export(&self.obs, 1);
        (eng.stats.msgs, eng.stats.bytes)
    }

    /// Price the member protocol of one join or leave into the metrics
    /// registry, beside the repair traffic it triggers.
    fn note_member(&self, cost: &ChurnMsgCost) {
        self.obs.add("churn/member_msgs", 0, cost.lookup_msgs + cost.notify_msgs);
        self.obs.add("churn/member_bytes", 0, cost.bytes);
    }

    /// Algorithm Join as wire traffic plus the repair pass: the member
    /// protocol of `dh_dht::proto::join_over`, then anti-entropy so
    /// every clique the split shifted is fully replicated again — the
    /// member each one pushed out hands its share to the newcomer —
    /// scoped to the shifted arc.
    /// Returns `None` on identifier collision or failed join lookup.
    pub fn join_over<T: Transport>(
        &mut self,
        host: NodeId,
        x: Point,
        kind: LookupKind,
        seed: u64,
        transport: &mut T,
        retry: RetryPolicy,
    ) -> Option<(NodeId, ChurnMsgCost, RepairReport)> {
        let (id, cost) = join_over(&mut self.net, host, x, kind, seed, transport, retry)?;
        self.note_member(&cost);
        // computed after the join: the cliques that changed are
        // exactly those the new node is now part of
        let keys: Vec<u64> = self.shifted_keys(id).into_iter().collect();
        let report = self.repair_keys(&keys, transport, splitmix64(seed ^ 0x5E1F));
        Some((id, cost, report))
    }

    /// §2.1's Leave as wire traffic plus the repair pass: the member
    /// protocol of `dh_dht::proto::leave_over`, then anti-entropy over
    /// the arc that contained the leaver plus the keys it holds, which
    /// hands each of its shares to the cover entering that clique (a
    /// share that does not open is rebuilt). A crash is
    /// [`Self::drop_shelves_of`] first. Afterwards nothing names the
    /// leaver, whose slab slot may be reused: its hand-off frames are
    /// priced inside this call even under pacing.
    pub fn leave_over<T: Transport>(
        &mut self,
        id: NodeId,
        transport: &mut T,
        seed: u64,
    ) -> (ChurnMsgCost, RepairReport) {
        // frames queued before the leave addressed to or from the
        // leaver can no longer be delivered: purged, and counted so
        // planned = pumped + purged + backlog stays exact
        let queued = self.outbox.len();
        self.outbox.retain(|&(src, dst, _)| src != id && dst != id);
        self.obs.add("repair/frames_purged", 0, (queued - self.outbox.len()) as u64);
        // computed before the leave: the cliques that will change are
        // those the leaver is still part of, plus what it holds
        let mut keys = self.shifted_keys(id);
        keys.extend(self.held.range(held_by(id)).map(|&(_, key, _)| key));
        let cost = leave_over(&mut self.net, id, transport, seed);
        self.note_member(&cost);
        let keys: Vec<u64> = keys.into_iter().collect();
        let seed = splitmix64(seed ^ 0x5E1F);
        let mut report = self.repair_keys(&keys, transport, seed);
        // the planner leaves an item it cannot recover untouched; the
        // leaver's share of it goes with the leaver
        self.drop_shelves_of(id);
        if self.pace.is_some() {
            // every frame still naming the leaver is one of this
            // leave's hand-offs
            let (own, rest): (VecDeque<_>, VecDeque<_>) = mem::take(&mut self.outbox)
                .into_iter()
                .partition(|&(src, dst, _)| src == id || dst == id);
            self.outbox = own;
            report.frames_queued -= self.outbox.len();
            (report.msgs, report.bytes) = self.flush_repair(transport, seed);
            self.outbox = rest;
        }
        (cost, report)
    }
}

/// The holder-index range of every share `node` holds.
fn held_by(node: NodeId) -> RangeInclusive<(u32, u64, u8)> {
    (node.0, 0, 0)..=(node.0, u64::MAX, u8::MAX)
}

/// Is the item placed on `clique` — every member holding a share of
/// the committed generation, and nothing else held? With as many
/// shares as members that is one distinct index per member, in any
/// order.
fn placed(item: &ItemState, clique: &[NodeId]) -> bool {
    item.holders.len() == clique.len()
        && clique.iter().all(|&cover| {
            item.holders.values().any(|h| h.node == cover && h.version == item.version)
        })
}

/// The newest generation with at least `k` live shares, decoded.
/// Scans versions newest-first so an interrupted overwrite (a partial
/// newer generation) rolls back to the last complete one.
fn best_generation(item: &ItemState, k: usize) -> Option<(u32, Vec<u8>)> {
    let mut versions: Vec<u32> = item.holders.values().map(|h| h.version).collect();
    versions.sort_unstable_by(|a, b| b.cmp(a));
    versions.dedup();
    for v in versions {
        let shares: Vec<Share> = item.shares_of(v);
        if shares.len() >= k {
            if let Ok(value) = try_decode(&shares, k) {
                return Some((v, value));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReplicatedDht;
    use bytes::Bytes;
    use cd_core::pointset::PointSet;
    use cd_core::rng::seeded;
    use cd_core::Point as CPoint;
    use dh_dht::network::DhNetwork;
    use dh_erasure::encode;
    use dh_obs::{Obs, BACKGROUND};
    use dh_proto::transport::{Delivery, Inline, Recorder};
    use dh_proto::wire::Envelope;
    use rand::Rng;

    fn store(n: usize, m: u8, k: u8, seed: u64) -> (ReplicatedDht, rand::rngs::StdRng) {
        let mut rng = seeded(seed);
        let net = DhNetwork::new(&PointSet::random(n, &mut rng));
        (ReplicatedDht::new(net, m, k, &mut rng), rng)
    }

    /// Every item placed on its current clique as a set — each member
    /// holding exactly one committed share, nothing held elsewhere —
    /// and readable.
    fn assert_healthy(dht: &mut ReplicatedDht, rng: &mut impl Rng) {
        let keys: Vec<u64> = dht.shelves.map().keys().copied().collect();
        for key in keys {
            let clique = dht.clique(key);
            let item = &dht.shelves.map()[&key];
            assert_eq!(item.holders.len(), clique.len(), "item {key} under-replicated");
            for cover in &clique {
                let held = item.holders.values().filter(|h| h.node == *cover).count();
                assert_eq!(held, 1, "item {key}: cover {cover:?} holds {held} shares");
            }
            assert!(item.holders.values().all(|h| h.version == item.version));
            let from = dht.net.random_node(rng);
            assert!(dht.get(from, key, rng).is_some(), "item {key} unreadable");
        }
    }

    /// `Inline`, counting the repair pull frames it carries.
    #[derive(Default)]
    struct Pulls(u64);

    impl Transport for Pulls {
        fn plan(&mut self, now: u64, env: &Envelope, out: &mut Vec<Delivery>) {
            let pull = matches!(env.msg, Wire::RepairPull { .. } | Wire::RepairPullBatch { .. });
            self.0 += u64::from(pull);
            Inline.plan(now, env, out)
        }
    }

    #[test]
    fn a_join_hands_one_share_off_and_a_leave_rebuilds_one() {
        let (mut dht, mut rng) = store(96, 6, 3, 0xBA);
        let obs = Obs::recording(1 << 10);
        dht.set_obs(obs.clone());
        for key in 0..40u64 {
            let from = dht.net.random_node(&mut rng);
            dht.put(from, key, Bytes::from(vec![key as u8; 30]), &mut rng);
        }
        let counted = || {
            let snap = obs.snapshot();
            let kinds = ["repair/shares_handed_off", "repair/shares_rebuilt"];
            kinds.map(|name| snap.counter_total(name))
        };
        // per kind of event — join, graceful leave, crash — the items
        // it shifted
        let mut shifted_by = [0u64; 3];
        for i in 0..45u64 {
            let before = counted();
            let mut t = Pulls::default();
            let kind_of_event = (i % 3) as usize;
            let report = if kind_of_event == 0 {
                let (host, x, kind) = (dht.net.random_node(&mut rng), CPoint(rng.gen()), dht.kind);
                match dht.join_over(host, x, kind, i, &mut t, RetryPolicy::default()) {
                    Some((_, _, report)) => report,
                    None => continue,
                }
            } else {
                let victim = dht.net.random_node(&mut rng);
                if kind_of_event == 2 {
                    dht.drop_shelves_of(victim);
                }
                dht.leave_over(victim, &mut t, i).1
            };
            let [handed, rebuilt] = counted();
            let (handed, rebuilt) = (handed - before[0], rebuilt - before[1]);
            let shifted = report.items_shifted as u64;
            assert_eq!(handed + rebuilt, report.shares_rebuilt as u64, "the two kinds sum up");
            if kind_of_event < 2 {
                assert_eq!((handed, rebuilt), (shifted, 0), "event {i}: joins and leaves hand off");
                assert_eq!(t.0, 0, "event {i}: a hand-off pulls nothing");
            } else {
                assert_eq!((handed, rebuilt), (0, shifted), "event {i}: a crash rebuilds");
            }
            shifted_by[kind_of_event] += shifted;
            assert_healthy(&mut dht, &mut rng);
        }
        assert!(shifted_by.iter().all(|&s| s > 0), "every kind of event shifted items");
    }

    #[test]
    fn repair_is_a_noop_on_a_healthy_store() {
        let (mut dht, mut rng) = store(96, 6, 3, 0xB0);
        for key in 0..30u64 {
            let from = dht.net.random_node(&mut rng);
            dht.put(from, key, Bytes::from(vec![key as u8; 12]), &mut rng);
        }
        let mut t = Inline;
        let report = dht.repair(&mut t, 1);
        assert_eq!(report.items_checked, 30);
        assert_eq!(report.items_shifted, 0);
        assert_eq!(report.shares_rebuilt, 0);
        assert_eq!(report.msgs, 0, "a healthy store exchanges nothing");
    }

    #[test]
    fn leave_over_re_materializes_the_lost_shares() {
        let (mut dht, mut rng) = store(96, 6, 3, 0xB1);
        for key in 0..25u64 {
            let from = dht.net.random_node(&mut rng);
            dht.put(from, key, Bytes::from(format!("repair-{key}")), &mut rng);
        }
        let mut t = Inline;
        let mut total = RepairReport::default();
        for i in 0..20u64 {
            // a crash: the victim's shares die with it
            let victim = dht.net.random_node(&mut rng);
            dht.drop_shelves_of(victim);
            let (_, report) = dht.leave_over(victim, &mut t, i);
            assert_eq!(report.items_lost, 0, "one crash can never exceed m − k losses");
            total.merge(&report);
            assert_healthy(&mut dht, &mut rng);
        }
        assert!(total.shares_rebuilt > 0, "crashes of share-holding covers must trigger repair");
        assert!(total.msgs > 0, "repair traffic must be priced");
        for key in 0..25u64 {
            let from = dht.net.random_node(&mut rng);
            assert_eq!(
                dht.get(from, key, &mut rng),
                Some(Bytes::from(format!("repair-{key}"))),
                "item {key} lost after churn + repair"
            );
        }
    }

    #[test]
    fn join_over_heals_shifted_cliques() {
        let (mut dht, mut rng) = store(64, 6, 3, 0xB2);
        for key in 0..25u64 {
            let from = dht.net.random_node(&mut rng);
            dht.put(from, key, Bytes::from(format!("join-{key}")), &mut rng);
        }
        let mut t = Inline;
        for i in 0..30u64 {
            let host = dht.net.random_node(&mut rng);
            let x = CPoint(rng.gen());
            let kind = dht.kind;
            if dht
                .join_over(host, x, kind, i, &mut t, RetryPolicy::default())
                .is_some()
            {
                assert_healthy(&mut dht, &mut rng);
            }
        }
    }

    #[test]
    fn interrupted_overwrite_rolls_back_to_the_committed_generation() {
        let (mut dht, mut rng) = store(96, 6, 3, 0xB3);
        let from = dht.net.random_node(&mut rng);
        dht.put(from, 7, Bytes::from_static(b"committed"), &mut rng);
        // forge a partial newer generation: fewer than k shares of v2,
        // through the same verbs a torn overwrite would have used
        let (point, v2, nodes) = {
            let item = &dht.shelves.map()[&7];
            (item.point, item.version + 1, [item.holders[&0].node, item.holders[&1].node])
        };
        let forged = encode(b"torn write", 3, 6);
        for idx in 0..2u8 {
            let header = ShareHeader { version: v2, index: idx, k: 3, m: 6 };
            let holder = Holder::seal(nodes[idx as usize], header, &forged[idx as usize]);
            dht.shelves.park(7, point, idx, holder);
        }
        dht.shelves.commit(7, v2);
        // the newest generation is now unreadable at quorum…
        assert_eq!(dht.get(from, 7, &mut rng), None);
        // …until repair rolls back to the last complete one
        let mut t = Inline;
        let report = dht.repair(&mut t, 9);
        assert_eq!(report.items_lost, 0);
        assert_eq!(dht.get(from, 7, &mut rng), Some(Bytes::from_static(b"committed")));
    }

    #[test]
    fn losing_more_than_m_minus_k_between_repairs_is_reported() {
        let (mut dht, mut rng) = store(128, 4, 3, 0xB4);
        let from = dht.net.random_node(&mut rng);
        dht.put(from, 1, Bytes::from_static(b"fragile"), &mut rng);
        // kill 2 > m − k = 1 covers without repairing in between
        let clique = dht.clique(1);
        dht.drop_shelves_of(clique[0]);
        dht.drop_shelves_of(clique[1]);
        let mut t = Inline;
        let report = dht.repair(&mut t, 3);
        assert_eq!(report.items_lost, 1, "an unrecoverable item must be reported, not invented");
    }

    #[test]
    fn incremental_and_full_scan_converge_to_the_same_shelves() {
        let (mut dht, mut rng) = store(80, 6, 3, 0xB6);
        for key in 0..30u64 {
            let from = dht.net.random_node(&mut rng);
            dht.put(from, key, Bytes::from(vec![key as u8; 14]), &mut rng);
        }
        let mut t = Inline;
        for i in 0..24u64 {
            if i % 3 == 2 {
                let host = dht.net.random_node(&mut rng);
                let kind = dht.kind;
                dht.join_over(host, CPoint(rng.gen()), kind, i, &mut t, RetryPolicy::default());
            } else {
                // a graceful leave, then a crash
                let victim = dht.net.random_node(&mut rng);
                if i % 3 == 1 {
                    dht.drop_shelves_of(victim);
                }
                dht.leave_over(victim, &mut t, i);
            }
            // the full scan judges every item with the same rule: after
            // the arc-scoped pass it must find nothing left to do
            let before = dht.shelves.map().clone();
            let full = dht.repair(&mut t, i ^ 0xF011);
            assert_eq!(full.items_checked, 30);
            assert_eq!(
                (full.items_shifted, full.shares_rebuilt, full.items_lost, full.msgs),
                (0, 0, 0, 0),
                "incremental repair left work for the full scan at event {i}"
            );
            assert_eq!(&before, dht.shelves.map(), "the full scan moved shelves at event {i}");
            assert_healthy(&mut dht, &mut seeded(0x600D ^ i));
        }
    }

    #[test]
    fn paced_repair_bounds_traffic_per_pump_and_still_converges() {
        let (mut dht, mut rng) = store(96, 6, 3, 0xB7);
        for key in 0..25u64 {
            let from = dht.net.random_node(&mut rng);
            dht.put(from, key, Bytes::from(vec![key as u8; 20]), &mut rng);
        }
        let mut t = Inline;
        dht.set_repair_pacing(Some(3));
        // a crash: nothing of the victim's is left to send, so nothing
        // is priced inside the call
        let victim = dht.net.random_node(&mut rng);
        dht.drop_shelves_of(victim);
        let (_, report) = dht.leave_over(victim, &mut t, 1);
        assert_eq!(report.msgs, 0, "paced repair must not price traffic synchronously");
        assert!(report.frames_queued > 0, "a share-holding victim must queue repair frames");
        assert_eq!(dht.repair_backlog(), report.frames_queued);
        // shelf state is already repaired — pacing defers only the wire
        assert_healthy(&mut dht, &mut rng);
        let mut total = (0u64, 0u64);
        let mut pumps = 0usize;
        while dht.repair_backlog() > 0 {
            let (msgs, bytes) = dht.pump_repair(&mut t, 100 + pumps as u64);
            assert!(msgs <= 3, "pump exceeded its budget: {msgs} frames");
            total.0 += msgs;
            total.1 += bytes;
            pumps += 1;
        }
        assert!(pumps >= 2, "a crash of a share holder should take several pumps at budget 3");
        assert_eq!(total.0, report.frames_queued as u64, "every queued frame priced once");
        assert!(total.1 > 0);
        // the unpaced twin prices the same frames in one flush
        let (mut twin, mut rng2) = store(96, 6, 3, 0xB7);
        for key in 0..25u64 {
            let from = twin.net.random_node(&mut rng2);
            twin.put(from, key, Bytes::from(vec![key as u8; 20]), &mut rng2);
        }
        twin.drop_shelves_of(victim);
        let (_, unpaced) = twin.leave_over(victim, &mut t, 1);
        assert_eq!(unpaced.msgs, total.0, "pacing must not change what goes on the wire");
        assert_eq!(unpaced.bytes, total.1);
        assert_eq!(twin.shelves.map(), dht.shelves.map());
    }

    /// One paced pump whose frames are all recorded before its first
    /// `Send` — the order the `e_obs recorder` pin folds. Everything
    /// here is background traffic and the ring never evicts, so the
    /// pump's events are the tail of `explain(BACKGROUND)`.
    fn pump_frames_first(dht: &mut ReplicatedDht, obs: &Obs, seed: u64) {
        let from = obs.recorded() as usize;
        let (msgs, _) = dht.pump_repair(&mut Inline, seed);
        let ex = obs.explain(BACKGROUND).expect("recording");
        let pump = &ex.events[from..];
        let is_frame = |e: &&dh_obs::Event| matches!(e.kind, ObsEvent::RepairFrame { .. });
        let frames = pump.iter().take_while(is_frame).count();
        assert_eq!(frames as u64, msgs, "one frame event per frame sent, ahead of the sends");
        assert!(matches!(pump[frames].kind, ObsEvent::Send { .. }), "the pump's first send");
        assert!(!pump[frames..].iter().any(|e| is_frame(&e)), "a frame recorded after a send");
    }

    #[test]
    fn leave_mid_backlog_counts_the_frames_it_purges() {
        let (mut dht, mut rng) = store(96, 6, 3, 0xB9);
        let obs = Obs::recording(1 << 16);
        dht.set_obs(obs.clone());
        for key in 0..25u64 {
            let from = dht.net.random_node(&mut rng);
            dht.put(from, key, Bytes::from(vec![key as u8; 20]), &mut rng);
        }
        let mut t = Inline;
        dht.set_repair_pacing(Some(2));
        // planned = pumped + purged + backlog, at every point
        let balance = |dht: &ReplicatedDht| {
            let snap = obs.snapshot();
            assert_eq!(
                snap.counter_total("repair/frames_planned"),
                snap.counter_total("repair/frames_pumped")
                    + snap.counter_total("repair/frames_purged")
                    + dht.repair_backlog() as u64,
                "a repair frame went missing uncounted"
            );
            snap.counter_total("repair/frames_purged")
        };
        // a departed server owes nothing and is owed nothing, since its
        // slab slot may be reused: no queued frame, index entry or shelf
        // slot names it, and the indices still agree with the shelves
        let departed = |dht: &ReplicatedDht, gone: NodeId| {
            assert!(dht.outbox.iter().all(|&(src, dst, _)| src != gone && dst != gone));
            assert!(dht.held.range(held_by(gone)).next().is_none(), "{gone:?} still indexed");
            let holders = || dht.shelves.map().values().flat_map(|item| item.holders.values());
            assert!(holders().all(|h| h.node != gone), "{gone:?} still holds a share");
            assert!(dht.indices_consistent());
            balance(dht)
        };
        let victim = dht.net.random_node(&mut rng);
        let (_, report) = dht.leave_over(victim, &mut t, 1);
        assert!(report.msgs > 0, "the leaver's hand-offs are priced inside the call");
        departed(&dht, victim);
        assert!(dht.repair_backlog() > 2, "the rest of the leave's repair is queued");
        pump_frames_first(&mut dht, &obs, 2);
        assert_eq!(balance(&dht), 0, "nothing purged yet");
        // a server with frames still queued leaves mid-backlog
        let (_, busy, _) = dht.outbox[0];
        dht.leave_over(busy, &mut t, 3);
        assert!(departed(&dht, busy) > 0, "the leaver's queued frames must be counted as purged");
        while dht.repair_backlog() > 0 {
            pump_frames_first(&mut dht, &obs, 4);
        }
        balance(&dht);
        assert_eq!(obs.overflow(), 0, "the ring held every event");
        assert_healthy(&mut dht, &mut rng);
    }

    #[test]
    fn batched_frames_beat_per_item_traffic() {
        // 25 items on a small ring: each leave shifts many items, so
        // batching must coalesce their pulls/pushes into far fewer
        // frames than the 2·k·(items shifted) a per-item exchange costs
        let (mut dht, mut rng) = store(32, 6, 3, 0xB8);
        for key in 0..25u64 {
            let from = dht.net.random_node(&mut rng);
            dht.put(from, key, Bytes::from(vec![key as u8; 16]), &mut rng);
        }
        let mut t = Inline;
        // a crash, so every shifted item pulls k shares
        let victim = dht.net.random_node(&mut rng);
        dht.drop_shelves_of(victim);
        let (_, report) = dht.leave_over(victim, &mut t, 7);
        assert!(report.shares_rebuilt > 0);
        // what the pre-batching per-item exchange would have cost:
        // m−1 digests per shifted item, ≤ k pull+push pairs per
        // rebuilt share
        let per_item = (dht.m() as u64 - 1) * report.items_shifted as u64
            + 2 * (dht.k() as u64) * report.shares_rebuilt as u64;
        assert!(
            report.msgs * 3 < per_item * 2,
            "{} frames vs {} per-item messages — batching is not coalescing",
            report.msgs,
            per_item
        );
    }

    #[test]
    fn repair_pass_is_deterministic_and_fingerprints() {
        let run = || {
            let (mut dht, mut rng) = store(96, 6, 3, 0xB5);
            for key in 0..20u64 {
                let from = dht.net.random_node(&mut rng);
                dht.put(from, key, Bytes::from(vec![key as u8; 10]), &mut rng);
            }
            let mut rec = Recorder::new(Inline);
            let mut reports = Vec::new();
            for i in 0..10u64 {
                let victim = dht.net.random_node(&mut rng);
                let (_, report) = dht.leave_over(victim, &mut rec, i);
                reports.push(report);
            }
            (reports, rec.fingerprint())
        };
        assert_eq!(run(), run(), "repair must fingerprint identically per seed");
    }
}
