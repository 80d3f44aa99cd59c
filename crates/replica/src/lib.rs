//! # dh-replica — self-healing replicated storage on the wire engine
//!
//! §6.2 of Naor & Wieder observes that in the overlapping DHT all
//! `Θ(log n)` servers covering `h(item)` form a **clique**, so an item
//! need not be replicated whole: store it as Reed-Solomon shares, one
//! per cover, and *any* `k` covers suffice to reconstruct (the
//! digital-fountain suggestion, after Byers et al. and
//! Weatherspoon-Kubiatowicz). This crate turns that observation into a
//! wire protocol on the production stack:
//!
//! * [`ReplicatedDht<G>`] layers on [`dh_dht::CdNetwork`] +
//!   [`dh_proto::Engine`], generically over every
//!   [`ContinuousGraph`] instance (Distance Halving, Chord-like, de
//!   Bruijn). An item's **cover clique** is the `m` ring-consecutive
//!   servers starting at the server covering `h(item)`
//!   ([`dh_dht::CdNetwork::clique_of`]).
//! * **Writes** route a `PutShares` op to the clique, where the
//!   coordinator fans one [`dh_proto::Wire::StoreShare`] out per cover,
//!   asks only `k − 1` of them to ack (backing a silent one up on a
//!   timer) and completes at `k` acks (write quorum). **Reads** route
//!   `GetShares` and fetch only the `k` shares they decode — the
//!   coordinator's own plus `k − 1` [`dh_proto::Wire::ShareReply`]s,
//!   topped up when a cover lacks its share and backed up on a timer
//!   when one is silent — over [`Inline`], lossy
//!   [`dh_proto::Sim`] and fail-stop [`dh_proto::ChaosNet`] transports
//!   alike, with every message priced. The per-op state machines live
//!   in the engine (`dh_proto::engine`), so replicated storage
//!   inherits timeout/retry, stamps and determinism from the same
//!   runtime as everything else.
//! * **Placement is a set**: a put writes share `i` to clique member
//!   `i`, but an item counts as placed whenever each member of its
//!   current clique holds one distinct share of the committed
//!   generation, in any order — so a read asks a cover for *its* share
//!   and the reply names the index.
//! * **Self-healing**: [`ReplicatedDht::repair`] is the anti-entropy
//!   pass hooked into [`ReplicatedDht::join_over`] /
//!   [`ReplicatedDht::leave_over`] churn — when cover membership
//!   shifts, digests ([`dh_proto::Wire::ShareDigest`]) flag the
//!   shifted keys and each cover entering a clique gets one share,
//!   handed over whole ([`dh_proto::Wire::RepairPush`]) by the member
//!   that left the clique — the one a join pushed out, or the leaver
//!   itself (§2.1's hand-off). Only a share that is gone (damaged, or
//!   lost with a crashed server's disk) is rebuilt from `k` pulled ones
//!   ([`dh_proto::Wire::RepairPull`]).
//! * Shares rest and travel **sealed** ([`dh_erasure::header`]):
//!   versioned, so quorum reads only combine shares of one item
//!   generation and interrupted overwrites cannot be mistaken for
//!   committed ones.
//!
//! Everything is deterministic under the engine's `(time, seq)`
//! discipline: same seeds ⇒ identical traces, fingerprints and
//! placements. The store owns one engine: every verb, churn event and
//! repair pump runs on it, on one clock, on the caller's thread.

#![deny(missing_docs)]

pub mod repair;
#[cfg(test)]
mod storage;

use bytes::Bytes;
use cd_core::graph::ContinuousGraph;
use cd_core::hashing::KWiseHash;
use cd_core::point::Point;
use dh_dht::network::{CdNetwork, DistanceHalving, NodeId};
use dh_dht::proto::route_kind;
use dh_dht::LookupKind;
use dh_erasure::{encode_sealed, try_decode, Share};
use dh_obs::Obs;
use dh_proto::engine::{Engine, EngineStats, OpOutcome, RetryPolicy};
use dh_proto::health::NetHealth;
use dh_proto::transport::{Inline, Transport};
use dh_proto::wire::{Action, Wire};
use rand::Rng;
use std::collections::{BTreeSet, VecDeque};

pub use dh_store::{
    FileShelves, Holder, ItemState, MemShelves, ShelfError, ShelfView, Shelves,
};
pub use repair::RepairReport;

/// The arc index: `(h(key).bits, key)` per shelved item, so churn can
/// range-query the shifted interval of the ring.
type ArcIndex = BTreeSet<(u64, u64)>;

/// Build the arc index and the exact stray set — the items with a
/// share held outside their current clique — from a shelf map in one
/// pass (used by [`ReplicatedDht::with_shelves`] and
/// [`ReplicatedDht::reindex`]).
fn index_of<G: ContinuousGraph, S: Shelves>(
    net: &CdNetwork<G>,
    m: u8,
    shelves: &S,
) -> (ArcIndex, BTreeSet<u64>) {
    let mut arc = BTreeSet::new();
    let mut strays = BTreeSet::new();
    let mut clique = Vec::with_capacity(m as usize);
    for (&key, item) in shelves.map() {
        arc.insert((item.point.bits(), key));
        net.clique_of(item.point, m as usize, &mut clique);
        if item.holders.values().any(|h| !clique.contains(&h.node)) {
            strays.insert(key);
        }
    }
    (arc, strays)
}

/// What a quorum read ([`ReplicatedDht::get_quorum`]) observed: the
/// value plus the SLO and chaos-campaign accounting.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QuorumRead {
    /// The reconstructed value, if any attempt reached quorum.
    pub value: Option<Bytes>,
    /// Modeled engine ticks summed across all failover attempts —
    /// the client-perceived latency of the read.
    pub ticks: u64,
    /// Wire messages across all attempts (wasted-work accounting).
    pub msgs: u64,
    /// Wire bytes across all attempts.
    pub bytes: u64,
    /// Failover attempts made (1 = first coordinator answered).
    pub attempts: u32,
    /// Backup fetches launched past silent covers across all
    /// attempts — under any policy, the read path arms the timer.
    pub hedged: u64,
    /// Engine-level op restarts (progress timeouts) across all
    /// attempts — the wasted-work half of grey-failure accounting.
    pub retries: u64,
}

/// The replicated storage layer: a network plus the placement hash,
/// the replication geometry `(m, k)`, and the shelves.
///
/// It stores `m` sealed Reed-Solomon shares on the item's cover
/// clique, any `k` of which reconstruct. At `m = k = 1` that is §2.1's
/// plain DHT: one copy on the covering server, handed to the new cover
/// by every join and leave that moves it.
///
/// Generic over the [`Shelves`] storage backend: [`MemShelves`] (the
/// default) keeps shares in RAM, [`dh_store::FileShelves`] puts a
/// crash-consistent write-ahead log beneath the same five verbs — the
/// protocol code is identical over either, so traces, placements and
/// fingerprints do not depend on the backend.
///
/// Drive churn through [`Self::join_over`]/[`Self::leave_over`] (or
/// call [`Self::repair`] or [`Self::reindex`] yourself after mutating
/// `net` directly): repair is what moves shares after membership
/// shifts, and nothing may name a departed server once its slab slot
/// can be reused.
///
/// **Invariant:** a share sits on its item's clique unless the item is
/// in `strays`. So the shares a live server holds belong to the items
/// whose clique contains it — one arc of the arc index — plus strays,
/// and a departure finds its slots there.
pub struct ReplicatedDht<G: ContinuousGraph = DistanceHalving, S: Shelves = MemShelves> {
    /// The overlay network.
    pub net: CdNetwork<G>,
    /// The item-placement hash function.
    pub hash: KWiseHash,
    /// Which lookup algorithm routes the ops.
    pub kind: LookupKind,
    /// Total shares per item (clique size).
    m: u8,
    /// Reconstruction threshold / quorum size.
    k: u8,
    /// Item key → placement state, behind the storage backend.
    pub shelves: S,
    /// The per-arc item index: `(h(key).bits, key)` for every shelved
    /// item, ordered by ring point — so churn repair can range-query
    /// exactly the items whose cover clique a join/leave shifted
    /// instead of scanning the keyspace. Maintained by every path that
    /// creates or removes an item ([`Self::apply_put`],
    /// [`Self::remove_over`]); call [`Self::reindex`] after mutating
    /// `shelves` directly.
    arc: ArcIndex,
    /// The items that may have a holder outside their clique: repair
    /// adds an item it cannot recover (it leaves the shares where they
    /// are) and drops one it places or removes. A superset of the
    /// exact set, which [`Self::reindex`] rebuilds.
    strays: BTreeSet<u64>,
    /// Repair pacing budget: `None` flushes repair traffic inside the
    /// churn call; `Some(b)` queues frames in [`Self::outbox`] and
    /// [`ReplicatedDht::pump_repair`] drains at most `b` per call.
    pace: Option<u32>,
    /// Repair frames planned but not yet priced on the wire.
    pub(crate) outbox: VecDeque<(NodeId, NodeId, Wire)>,
    /// The engine every verb, churn event and repair pump runs on.
    eng: Engine,
    /// The client-side network health ledger: per-destination Jacobson
    /// RTT estimators plus the accrual suspicion failure detector. Every
    /// verb lends it to its run, so grey-failure knowledge carries
    /// from one op to the next. Observation is always on and sets the
    /// hedge delay of every quorum read's backup timer;
    /// [`RetryPolicy::hedge`] opts individual ops into consulting its
    /// verdicts.
    health: NetHealth,
    /// The observability sink ([`dh_obs::Obs`]): off by default (inert
    /// handle, fingerprints unchanged), lent to every verb's and repair
    /// pump's run so foreground, hedge and repair traffic all land in
    /// one flight recorder + metrics registry.
    obs: Obs,
}

impl<G: ContinuousGraph> ReplicatedDht<G, MemShelves> {
    /// Wrap a network with replication geometry `(m, k)` — `m` shares
    /// per item, any `k` reconstruct — and a freshly drawn
    /// `log₂ n`-wise independent placement hash, on the in-memory
    /// backend. Routes with the instance's native lookup by default.
    pub fn new(net: CdNetwork<G>, m: u8, k: u8, rng: &mut impl Rng) -> Self {
        ReplicatedDht::with_shelves(net, m, k, MemShelves::new(), rng)
    }
}

impl<G: ContinuousGraph, S: Shelves> ReplicatedDht<G, S> {
    /// [`Self::new`] over an explicit storage backend — e.g. a
    /// reopened [`dh_store::FileShelves`] carrying the shares a
    /// previous process shelved. The placement hash is drawn from
    /// `rng` exactly as in `new`, so a restart that rebuilds net and
    /// hash from the same seeds sees every recovered share exactly
    /// where repair expects it (restart without a repair storm).
    pub fn with_shelves(net: CdNetwork<G>, m: u8, k: u8, shelves: S, rng: &mut impl Rng) -> Self {
        assert!(k >= 1 && k <= m, "need 1 ≤ k ≤ m, got k = {k}, m = {m}");
        // a clique truncated below k can never reach a read quorum —
        // refuse the geometry rather than storing unreadable items
        assert!(
            net.len() >= k as usize,
            "network of {} servers cannot host a k = {k} quorum",
            net.len()
        );
        let bits = (net.len().max(2) as f64).log2().ceil() as usize + 1;
        let (arc, strays) = index_of(&net, m, &shelves);
        ReplicatedDht {
            hash: KWiseHash::new(bits, rng),
            kind: net.native_kind(),
            net,
            m,
            k,
            shelves,
            arc,
            strays,
            pace: None,
            outbox: VecDeque::new(),
            eng: Engine::default(),
            health: NetHealth::new(),
            obs: Obs::off(),
        }
    }

    /// Attach an observability sink: every verb and repair pump records
    /// into it from now on (sends, delivers, timers, retries, hedges,
    /// quorum entries, repair frames, suspicion edges), and exports its
    /// run's [`EngineStats`] into its metrics registry.
    /// The default [`Obs::off`] handle makes all of that a no-op.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The attached observability sink (an inert handle when none was
    /// set) — clone it to read fingerprints, explain ops, or snapshot
    /// the registry.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Snapshot accessor for the network health ledger (RTT
    /// estimators + suspicion counters accrued across ops).
    pub fn health(&self) -> &NetHealth {
        &self.health
    }

    /// Move the store's clock forward to `t` (never back): the next verb
    /// starts no earlier than `t`, wherever chaos schedules put it.
    pub fn advance_to(&mut self, t: u64) {
        self.eng.advance_to(t);
    }

    /// Run the store's engine under `retry` over `transport`, lending
    /// it the health ledger, the recorder and the shelves, and export
    /// the run's counters as foreground traffic.
    fn run_lent<T: Transport>(&mut self, transport: &mut T, retry: RetryPolicy) -> EngineStats {
        self.eng.retry = retry;
        let view = ShelfView(&self.shelves);
        let stats = self.eng.run(&self.net, transport, Some(&mut self.health), &self.obs, &view);
        stats.export(&self.obs, 0);
        stats
    }

    /// Rebuild the arc index and the stray set from the shelves and the
    /// current cliques. Required after mutating `shelves` in ways that
    /// add or remove items or holders outside the normal verbs (tests
    /// forging state, manual surgery), and after mutating `net`
    /// directly without a [`Self::repair`]; the put, remove, churn and
    /// repair paths all maintain both themselves.
    pub fn reindex(&mut self) {
        (self.arc, self.strays) = index_of(&self.net, self.m, &self.shelves);
    }

    /// Does the incrementally maintained arc index equal a from-scratch
    /// [`Self::reindex`] of the shelves, and do the strays cover every
    /// item the rebuild finds off its clique? The put path skips index
    /// updates it can prove are no-ops and a departure finds its slots
    /// through both, which is only sound while this holds
    /// (model-equivalence tests assert it after every step).
    #[doc(hidden)]
    pub fn indices_consistent(&self) -> bool {
        let (arc, strays) = index_of(&self.net, self.m, &self.shelves);
        self.arc == arc && strays.is_subset(&self.strays)
    }

    /// Set the repair pacing budget: `None` (default) prices all
    /// repair traffic inside the churn call; `Some(b)` queues planned
    /// frames and each [`Self::pump_repair`] drains at most `b` of
    /// them — repair overlapping foreground traffic instead of
    /// stalling it. Shelf state is repaired immediately either way;
    /// pacing spreads the modeled wire cost.
    pub fn set_repair_pacing(&mut self, pace: Option<u32>) {
        self.pace = pace;
    }

    /// Repair frames planned but not yet priced on the wire.
    pub fn repair_backlog(&self) -> usize {
        self.outbox.len()
    }

    /// Total shares per item.
    pub fn m(&self) -> u8 {
        self.m
    }

    /// Reconstruction threshold.
    pub fn k(&self) -> u8 {
        self.k
    }

    /// Number of items the store knows about.
    pub fn items(&self) -> usize {
        self.shelves.items()
    }

    /// Total shares currently on shelves (leak/repair observability).
    pub fn shelved_shares(&self) -> usize {
        self.shelves.shelved_shares()
    }

    /// The cover clique of `key` right now, in ring order from the
    /// primary — the order a put writes share `i` to member `i` in.
    pub fn clique(&self, key: u64) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.m as usize);
        self.net.clique_of(self.hash.point(key), self.m as usize, &mut out);
        out
    }

    /// Store `value` under `key` over an arbitrary transport: the
    /// `PutShares` op routes to the clique, the coordinator scatters
    /// one sealed share per cover, asking `k − 1` of them to ack, and
    /// the op completes at `k` acks. Every share whose `StoreShare`
    /// arrived intact is placed, acked or not — also on a failed op
    /// (those covers really hold it; repair or a re-put reconciles).
    /// Returns the op outcome and the number of shares placed.
    ///
    /// The shares are sealed by the coder itself
    /// ([`dh_erasure::encode_sealed`]): the generation is fixed before
    /// the engine runs — it depends on the shelf alone, which the run
    /// does not touch — and the shelves park windows into the one
    /// codeword buffer, so no share is copied after it is coded.
    pub fn put_over<T: Transport>(
        &mut self,
        from: NodeId,
        key: u64,
        value: Bytes,
        mut transport: T,
        seed: u64,
        retry: RetryPolicy,
    ) -> (OpOutcome, usize) {
        let point = self.hash.point(key);
        let version = self.next_version(key);
        let sealed = encode_sealed(&value, self.k as usize, self.m as usize, version);
        let len = sealed[0].len() as u32;
        let action = Action::PutShares { key, len, m: self.m, k: self.k, item: point };
        let op = self.eng.submit(seed, route_kind(self.kind), from, point, action);
        self.run_lent(&mut transport, retry);
        let out = self.eng.take_outcome(op);
        let placed = self.apply_put(key, point, version, &sealed, &out);
        (out, placed)
    }

    /// The generation a put of `key` writes: strictly above every
    /// share ever placed, so two torn writes can never park different
    /// payloads under one version.
    fn next_version(&self, key: u64) -> u32 {
        let Some(item) = self.shelves.map().get(&key) else { return 1 };
        item.holders.values().map(|h| h.version).max().unwrap_or(0).max(item.version) + 1
    }

    /// Place the sealed shares of generation `version` a put outcome
    /// reports as stored (`sealed[i]` is share `i`). Returns the share
    /// count. Two safety rules:
    ///
    /// * a request that arrived **corrupted** is rejected wholesale —
    ///   the holders' integrity checks fail every share derived from
    ///   it, so nothing lands (false message injection cannot fake a
    ///   write);
    /// * only a **committed** write (quorum of acks) advances the
    ///   generation reads serve. A torn write parks its shares under a
    ///   fresh higher version without touching `item.version`, so the
    ///   last committed generation stays readable wherever ≥ `k` of
    ///   its shares survive, and repair's newest-quorum rule later
    ///   promotes or discards the torn generation.
    fn apply_put(
        &mut self,
        key: u64,
        point: Point,
        version: u32,
        sealed: &[Bytes],
        out: &OpOutcome,
    ) -> usize {
        if out.shares.is_empty() || out.corrupt {
            return 0;
        }
        // every share lands on the clique, so only a new item touches
        // the indices
        if !self.shelves.map().contains_key(&key) {
            self.arc.insert((point.bits(), key));
        }
        // the atomic write sequence: park every placed share first,
        // commit last — on the WAL backend this is literally the
        // on-disk record order, so a crash anywhere in between leaves
        // the previous committed generation the readable one
        for &idx in &out.shares {
            let node = out.holders[idx as usize];
            let sealed = sealed[idx as usize].clone();
            self.shelves.park(key, point, idx, Holder { node, version, sealed });
        }
        if out.ok {
            self.shelves.commit(key, version);
        }
        out.shares.len()
    }

    /// [`Self::put_over`] on the zero-overhead [`Inline`] transport.
    /// Panics if the write quorum was not reached (impossible inline).
    pub fn put(&mut self, from: NodeId, key: u64, value: Bytes, rng: &mut impl Rng) -> usize {
        let (out, placed) =
            self.put_over(from, key, value, Inline, rng.gen(), RetryPolicy::default());
        assert!(out.ok, "Inline transport cannot miss a write quorum");
        placed
    }

    /// Quorum read over an arbitrary transport: the op routes toward
    /// `h(key)`, the first clique member it reaches coordinates,
    /// fetching `k − 1` shares beside its own (more only where a cover
    /// lacks or withholds its share), and `k` found shares reconstruct.
    /// `None` means the item is absent, under-quorum — every cover was
    /// asked before that is concluded — or the route failed (a dead
    /// primary — see [`Self::get_quorum`] for client-side failover).
    pub fn get_over<T: Transport>(
        &mut self,
        from: NodeId,
        key: u64,
        transport: T,
        seed: u64,
        retry: RetryPolicy,
    ) -> (OpOutcome, Option<Bytes>) {
        let point = self.hash.point(key);
        let (out, value, _, _) = self.get_via(from, key, point, point, transport, seed, retry);
        (out, value)
    }

    /// One quorum-read attempt of `key`, whose placement point is
    /// `point`, routed at `target` (a clique member's identifier point,
    /// or `point` itself for the primary). Besides
    /// the outcome and value, reports the modeled ticks the attempt
    /// took (to completion, or to the run's last event on failure) and
    /// the run's stats — the raw material for SLO accounting.
    #[expect(clippy::too_many_arguments, reason = "one read attempt's whole description")]
    fn get_via<T: Transport>(
        &mut self,
        from: NodeId,
        key: u64,
        point: Point,
        target: Point,
        mut transport: T,
        seed: u64,
        retry: RetryPolicy,
    ) -> (OpOutcome, Option<Bytes>, u64, EngineStats) {
        let action = Action::GetShares { key, m: self.m, k: self.k, item: point };
        let t0 = self.eng.now();
        let op = self.eng.submit(seed, route_kind(self.kind), from, target, action);
        let stats = self.run_lent(&mut transport, retry);
        let out = self.eng.take_outcome(op);
        let ticks = out.completed_at.unwrap_or(self.eng.now() - t0);
        let value = self.reconstruct(key, &out);
        (out, value, ticks, stats)
    }

    /// Decode the value a completed quorum read gathered: the shares
    /// whose indices the replying covers named, wherever in the clique
    /// each one sits.
    fn reconstruct(&self, key: u64, out: &OpOutcome) -> Option<Bytes> {
        if !out.ok || out.corrupt {
            return None;
        }
        let item = self.shelves.map().get(&key)?;
        let shares: Vec<Share> = out
            .shares
            .iter()
            .filter_map(|&idx| {
                let h = item.holders.get(&idx)?;
                (out.holders.contains(&h.node) && h.version == item.version)
                    .then(|| h.share())
                    .flatten()
            })
            .collect();
        try_decode(&shares, self.k as usize).ok().map(Bytes::from)
    }

    /// [`Self::get_over`] on [`Inline`].
    pub fn get(&mut self, from: NodeId, key: u64, rng: &mut impl Rng) -> Option<Bytes> {
        self.get_over(from, key, Inline, rng.gen(), RetryPolicy::default()).1
    }

    /// Quorum read with client-side failover: try the clique primary
    /// first, then each further cover as coordinator (routing to its
    /// identifier point), re-drawing the origin per attempt and
    /// cycling the clique a few rounds, until one attempt
    /// reconstructs. With `m` shares, threshold `k` and at most
    /// `m − k` fail-stopped covers, some live cover coordinates a
    /// successful quorum — and a route entering the clique at *any*
    /// live member begins the scatter there, so the guarantee is
    /// independent of **which** covers died, the primary included.
    /// Re-randomizing the origin matters for deterministically routed
    /// instances (Chord-like greedy): a blocked approach path is
    /// origin-dependent, so a different vantage point unblocks it.
    /// Every attempt runs over the one `transport`, so dead covers and
    /// loss persist between attempts as they do on a real network.
    /// Under a hedged [`RetryPolicy`] each sweep additionally orders
    /// candidate coordinators by the failure detector's suspicion level
    /// (stable on ties), so reads route around grey or flapping covers
    /// instead of paying their timeouts first. The returned
    /// [`QuorumRead`] carries the value and the SLO accounting: modeled
    /// ticks, message counts, retries and backup fetches.
    pub fn get_quorum<T: Transport>(
        &mut self,
        from: NodeId,
        key: u64,
        mut transport: T,
        seed: u64,
        retry: RetryPolicy,
    ) -> QuorumRead {
        /// Clique sweeps before giving up. Generous because a
        /// deterministically routed instance (Chord-like) can have
        /// its approach to a given coordinator blocked by a dead
        /// cover on the path — each fresh origin re-rolls the dyadic
        /// approach, so sweeps are independent trials.
        const ROUNDS: usize = 12;
        let (point, clique) = (self.hash.point(key), self.clique(key));
        let mut read = QuorumRead::default();
        for round in 0..ROUNDS {
            // suspicion-ordered failover: least-suspect coordinator
            // first, re-ranked per sweep as the detector learns. With
            // hedging off the order is the identity, byte-for-byte the
            // historical sweep.
            let mut order: Vec<usize> = (0..clique.len()).collect();
            if retry.hedge {
                order.sort_by_key(|&j| (self.health.suspicion(clique[j]), j));
            }
            for (pos, &j) in order.iter().enumerate() {
                let coord = clique[j];
                let attempt = round * clique.len() + pos;
                let origin = if attempt == 0 {
                    from
                } else {
                    let mut rng = cd_core::rng::sub_rng(seed ^ 0x0E16, attempt as u64);
                    self.net.random_node(&mut rng)
                };
                let target = if j == 0 { point } else { self.net.node(coord).x };
                let (out, value, ticks, stats) = self.get_via(
                    origin,
                    key,
                    point,
                    target,
                    &mut transport,
                    cd_core::rng::subseed(seed, attempt as u64),
                    retry,
                );
                read.ticks += ticks;
                read.msgs += out.msgs;
                read.bytes += out.bytes;
                read.attempts += 1;
                read.hedged += stats.hedged;
                read.retries += stats.retries;
                if out.ok {
                    if value.is_some() {
                        read.value = value;
                        self.note_quorum(&read);
                        return read;
                    }
                    // completed below quorum ⇒ the every-cover-answered
                    // path fired: a definitive miss for this placement,
                    // so failing over cannot find more shares
                    if out.shares.len() < self.k as usize {
                        self.note_quorum(&read);
                        return read;
                    }
                }
            }
        }
        self.note_quorum(&read);
        read
    }

    /// Price a finished quorum read into the metrics registry:
    /// read count, failure count, and the failover-attempt and latency
    /// distributions (no-op with observability off).
    fn note_quorum(&self, read: &QuorumRead) {
        self.obs.add("quorum/reads", 0, 1);
        self.obs.add("quorum/failed", 0, u64::from(read.value.is_none()));
        self.obs.observe("quorum/attempts", 0, u64::from(read.attempts));
        self.obs.observe("quorum/ticks", 0, read.ticks);
    }

    /// Delete `key`: a routed `Remove` reaches the clique primary,
    /// which tombstones the item across the clique (one digest per
    /// cover). Returns the op outcome and whether the item existed.
    /// Frees every shelf entry of the item — nothing leaks.
    pub fn remove_over<T: Transport>(
        &mut self,
        from: NodeId,
        key: u64,
        mut transport: T,
        seed: u64,
        retry: RetryPolicy,
    ) -> (OpOutcome, bool) {
        let point = self.hash.point(key);
        let op = self.eng.submit(seed, route_kind(self.kind), from, point, Action::Remove { key });
        self.run_lent(&mut transport, retry);
        let out = self.eng.take_outcome(op);
        let existed = out.ok && !out.corrupt && self.shelves.map().contains_key(&key);
        if existed {
            // tombstone fan-out: the primary tells every other cover
            // to drop its share (clique edges, one hop each)
            let primary = out.dest.expect("completed");
            for &h in &self.clique(key) {
                if h != primary {
                    self.eng.send(primary, h, Wire::ShareDigest { keys: 1 });
                }
            }
            self.run_lent(&mut transport, retry);
            if let Some(item) = self.shelves.map().get(&key) {
                self.arc.remove(&(item.point.bits(), key));
            }
            self.strays.remove(&key);
            self.shelves.remove(key);
        }
        (out, existed)
    }

    /// [`Self::remove_over`] on [`Inline`].
    pub fn remove(&mut self, from: NodeId, key: u64, rng: &mut impl Rng) -> bool {
        self.remove_over(from, key, Inline, rng.gen(), RetryPolicy::default()).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cd_core::pointset::PointSet;
    use cd_core::rng::seeded;
    use dh_dht::network::DhNetwork;
    use dh_dht::proto::ChurnMsgCost;
    use dh_proto::transport::{Delivery, Sim};
    use dh_proto::wire::Envelope;
    use dh_proto::ChaosNet;

    fn store(n: usize, m: u8, k: u8, seed: u64) -> (ReplicatedDht, rand::rngs::StdRng) {
        let mut rng = seeded(seed);
        let net = DhNetwork::new(&PointSet::random(n, &mut rng));
        (ReplicatedDht::new(net, m, k, &mut rng), rng)
    }

    #[test]
    fn put_places_m_shares_on_the_clique() {
        let (mut dht, mut rng) = store(128, 8, 4, 0xA0);
        for key in 0..40u64 {
            let from = dht.net.random_node(&mut rng);
            let placed = dht.put(from, key, Bytes::from(format!("value-{key}")), &mut rng);
            assert_eq!(placed, 8, "Inline places every share");
            let clique = dht.clique(key);
            let item = &dht.shelves.map()[&key];
            assert_eq!(item.holders.len(), 8);
            for (idx, h) in &item.holders {
                assert_eq!(h.node, clique[*idx as usize], "share {idx} on the wrong cover");
            }
        }
        assert_eq!(dht.shelved_shares(), 40 * 8);
    }

    #[test]
    fn put_then_quorum_get_roundtrips() {
        let (mut dht, mut rng) = store(128, 8, 4, 0xA1);
        for key in 0..60u64 {
            let from = dht.net.random_node(&mut rng);
            let value = Bytes::from(format!("quorum payload {key}"));
            dht.put(from, key, value.clone(), &mut rng);
            let from2 = dht.net.random_node(&mut rng);
            assert_eq!(dht.get(from2, key, &mut rng), Some(value));
        }
    }

    #[test]
    fn missing_key_reads_none_without_retry_storm() {
        let (mut dht, mut rng) = store(64, 6, 3, 0xA2);
        let from = dht.net.random_node(&mut rng);
        let (out, value) = dht.get_over(from, 999, Inline, 7, RetryPolicy::default());
        assert!(out.ok, "a full round of not-founds is an answer");
        assert_eq!(out.attempts, 1);
        assert_eq!(value, None);
    }

    #[test]
    fn overwrite_reads_back_newest_generation() {
        let (mut dht, mut rng) = store(96, 6, 3, 0xA3);
        let from = dht.net.random_node(&mut rng);
        dht.put(from, 5, Bytes::from_static(b"first"), &mut rng);
        dht.put(from, 5, Bytes::from_static(b"second"), &mut rng);
        assert_eq!(dht.get(from, 5, &mut rng), Some(Bytes::from_static(b"second")));
        assert_eq!(dht.shelves.map()[&5].version, 2);
        assert_eq!(dht.shelves.map()[&5].holders.len(), 6, "overwrites reuse the shelves");
    }

    #[test]
    fn remove_frees_all_shelves() {
        let (mut dht, mut rng) = store(96, 6, 3, 0xA4);
        let from = dht.net.random_node(&mut rng);
        dht.put(from, 1, Bytes::from_static(b"ephemeral"), &mut rng);
        assert_eq!(dht.shelved_shares(), 6);
        assert!(dht.remove(from, 1, &mut rng));
        assert_eq!(dht.shelved_shares(), 0, "remove must not leak shelves");
        assert_eq!(dht.get(from, 1, &mut rng), None);
        assert!(!dht.remove(from, 1, &mut rng), "double remove is a no-op");
    }

    /// A transport that counts the envelopes it plans.
    struct Counting<T>(T, u64);

    impl<T: Transport> Transport for Counting<T> {
        fn plan(&mut self, now: u64, env: &Envelope, out: &mut Vec<Delivery>) {
            self.1 += 1;
            self.0.plan(now, env, out)
        }
    }

    #[test]
    fn survives_fail_stop_of_any_m_minus_k_covers() {
        // The §6.2 durability property, with the adversary choosing
        // the failed covers — the primary included: every item stays
        // readable at quorum through client-side failover.
        let (mut dht, mut rng) = store(128, 5, 3, 0xA5);
        dht.kind = LookupKind::DistanceHalving; // randomized routes for failover
        let value = Bytes::from_static(b"survives any m-k failures");
        let from = dht.net.random_node(&mut rng);
        dht.put(from, 77, value.clone(), &mut rng);
        let clique = dht.clique(77);
        let mut failed_over = false;
        // every pair of failed covers (m − k = 2 of 5), all C(5,2) = 10
        for a in 0..5usize {
            for b in (a + 1)..5 {
                let dead = [clique[a], clique[b]];
                let mut net = Counting(ChaosNet::new(Inline, 0), 0);
                net.0.fail(dead[0]);
                net.0.fail(dead[1]);
                // the reader must itself be alive
                let from = loop {
                    let f = dht.net.random_node(&mut rng);
                    if f != dead[0] && f != dead[1] {
                        break f;
                    }
                };
                let retry = RetryPolicy::fixed(128, 6);
                let seed = 0xFEE7 ^ (a as u64) << 8 ^ b as u64;
                let read = dht.get_quorum(from, 77, &mut net, seed, retry);
                assert_eq!(
                    read.value,
                    Some(value.clone()),
                    "item unreadable with covers {a} and {b} dead"
                );
                // every attempt ran over the one lent transport
                assert_eq!(read.msgs, net.1, "covers {a} and {b} dead: msgs miscounted");
                failed_over |= read.attempts >= 2;
            }
        }
        assert!(failed_over, "some dead pair must force a failover");
    }

    #[test]
    fn quorum_read_survives_a_lossy_transport() {
        let (mut dht, mut rng) = store(128, 8, 4, 0xA6);
        let retry = RetryPolicy::fixed(4_096, 10);
        let mut stored = 0usize;
        let mut fetched = 0usize;
        for key in 0..40u64 {
            let from = dht.net.random_node(&mut rng);
            let sim = Sim::new(key ^ 0xC0).with_drop(0.03);
            let (out, placed) =
                dht.put_over(from, key, Bytes::from(vec![key as u8; 24]), sim, key, retry);
            if out.ok {
                stored += 1;
                assert!(placed >= 4, "a committed write has at least a quorum of shares");
                let sim = Sim::new(key ^ 0xD1).with_drop(0.03);
                let (_, got) = dht.get_over(from, key, sim, key ^ 1, retry);
                if got == Some(Bytes::from(vec![key as u8; 24])) {
                    fetched += 1;
                }
            }
        }
        assert!(stored >= 36, "only {stored}/40 puts survived 3% loss with retries");
        assert!(fetched >= stored - 2, "only {fetched}/{stored} quorum reads succeeded");
    }

    #[test]
    fn false_message_injection_cannot_fake_writes() {
        let (mut dht, mut rng) = store(96, 5, 3, 0xA7);
        let from = dht.net.random_node(&mut rng);
        let mut liars = ChaosNet::new(Inline, 0);
        for &id in dht.net.live() {
            liars.lie(id);
        }
        let retry = RetryPolicy::fixed(64, 3);
        let (out, placed) =
            dht.put_over(from, 9, Bytes::from_static(b"evil"), liars, 0x11, retry);
        if out.msgs > 0 {
            assert!(!out.ok, "corrupted shares must not reach a write quorum");
            if out.corrupt {
                // the routed request itself lost integrity: rejected
                // wholesale at application time
                assert_eq!(placed, 0, "a corrupted request must place nothing");
            } else {
                // every remote StoreShare arrives corrupted and is
                // rejected; only each attempt's coordinator-local
                // share (message-free) can land
                assert!(
                    placed <= out.attempts as usize,
                    "{placed} shares placed across {} attempts — a liar's share was accepted",
                    out.attempts
                );
            }
        }
    }

    #[test]
    fn torn_overwrite_keeps_the_committed_generation_readable() {
        let (mut dht, mut rng) = store(96, 6, 3, 0xAB);
        let v1 = Bytes::from_static(b"v1 committed");
        let from = dht.net.random_node(&mut rng);
        dht.put(from, 3, v1.clone(), &mut rng);
        // fail-stop all covers but the first two: the overwrite can
        // place at most 2 < k shares and must fail its write quorum
        let clique = dht.clique(3);
        let mut faulty = ChaosNet::new(Inline, 0);
        for &c in &clique[2..] {
            faulty.fail(c);
        }
        let retry = RetryPolicy::fixed(64, 3);
        let (out, placed) =
            dht.put_over(clique[0], 3, Bytes::from_static(b"v2 torn"), faulty, 0x7E41, retry);
        assert!(!out.ok, "2 live covers cannot ack a k = 3 quorum");
        assert_eq!(placed, 2, "the live covers really hold the torn shares");
        // the committed generation stays readable right away — no
        // repair needed: 4 of its 6 shares survived
        assert_eq!(dht.get(clique[0], 3, &mut rng), Some(v1.clone()));
        // and repair discards the under-quorum torn generation
        let mut t = Inline;
        let report = dht.repair(&mut t, 5);
        assert_eq!(report.items_lost, 0);
        assert_eq!(dht.get(clique[0], 3, &mut rng), Some(v1));
    }

    #[test]
    fn quorum_miss_fails_over_only_until_definitive() {
        // a miss on a healthy network is answered by the first
        // coordinator (every cover replies not-found) — failover must
        // stop there instead of sweeping the clique for rounds
        let (mut dht, mut rng) = store(96, 6, 3, 0xAC);
        let from = dht.net.random_node(&mut rng);
        let read = dht.get_quorum(from, 424242, Inline, 0x9, RetryPolicy::default());
        assert_eq!(read.value, None);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = || {
            let (mut dht, mut rng) = store(128, 8, 4, 0xA8);
            let mut log: Vec<(u64, bool, u64, u64)> = Vec::new();
            for key in 0..30u64 {
                let from = dht.net.random_node(&mut rng);
                let sim = Sim::new(key).with_drop(0.02);
                let retry = RetryPolicy::fixed(2_048, 8);
                let (out, _) =
                    dht.put_over(from, key, Bytes::from(vec![key as u8; 16]), sim, key, retry);
                log.push((key, out.ok, out.msgs, out.bytes));
                let sim = Sim::new(key ^ 99).with_drop(0.02);
                let (out, v) = dht.get_over(from, key, sim, key ^ 1, retry);
                log.push((key, v.is_some(), out.msgs, out.bytes));
            }
            log
        };
        assert_eq!(run(), run(), "same seeds must reproduce the run exactly");
    }

    #[test]
    fn works_on_chord_and_debruijn_instances() {
        use cd_core::graph::{ChordLike, DeBruijn};
        let mut rng = seeded(0xA9);
        let chord = CdNetwork::build(ChordLike, &PointSet::random(96, &mut rng));
        let mut dht = ReplicatedDht::new(chord, 6, 3, &mut rng);
        let from = dht.net.random_node(&mut rng);
        dht.put(from, 4, Bytes::from_static(b"chord"), &mut rng);
        assert_eq!(dht.get(from, 4, &mut rng), Some(Bytes::from_static(b"chord")));

        let db8 = CdNetwork::build(DeBruijn::new(8), &PointSet::random(96, &mut rng));
        let mut dht = ReplicatedDht::new(db8, 6, 3, &mut rng);
        let from = dht.net.random_node(&mut rng);
        dht.put(from, 4, Bytes::from_static(b"debruijn"), &mut rng);
        assert_eq!(dht.get(from, 4, &mut rng), Some(Bytes::from_static(b"debruijn")));
    }

    #[test]
    fn the_clock_does_not_change_an_op() {
        /// Everything the store's verbs report, in call order.
        #[derive(Debug, Default, PartialEq)]
        struct Trace {
            outs: Vec<(OpOutcome, Option<Bytes>)>,
            reads: Vec<QuorumRead>,
            churn: Vec<ChurnMsgCost>,
            repairs: Vec<RepairReport>,
            pumped: Vec<(u64, u64)>,
        }
        // one seeded sequence of every verb on two stores whose clocks
        // start 2⁴⁰ ticks apart, each over its own lossy, duplicating
        // Sim: an op is a function of its own start, not of the clock
        let run = |offset: u64| {
            let (mut dht, mut rng) = store(96, 6, 3, 0xC10C);
            dht.set_repair_pacing(Some(4));
            dht.advance_to(offset);
            let mut sim = Sim::new(0xC10C).with_drop(0.1).with_dup(0.1);
            let retry = RetryPolicy::patient();
            let mut t = Trace::default();
            for i in 0..48u64 {
                let (key, from) = (i % 12, dht.net.random_node(&mut rng));
                let value = Bytes::from(format!("clock-{i}"));
                let (out, _) = dht.put_over(from, key, value, &mut sim, i, retry);
                t.outs.push((out, None));
                let (out, value) = dht.get_over(from, key, &mut sim, i ^ 1, retry);
                t.outs.push((out, value));
                t.reads.push(dht.get_quorum(from, key, &mut sim, i ^ 2, retry.hedged()));
                match i % 4 {
                    0 => t.outs.push((dht.remove_over(from, key, &mut sim, i ^ 3, retry).0, None)),
                    1 => {
                        let x = Point(rng.gen());
                        let joined = dht.join_over(from, x, dht.kind, i, &mut sim, retry);
                        if let Some((_, cost, report)) = joined {
                            t.churn.push(cost);
                            t.repairs.push(report);
                        }
                    }
                    2 => {
                        let (cost, report) = dht.leave_over(from, &mut sim, i);
                        t.churn.push(cost);
                        t.repairs.push(report);
                    }
                    _ => t.pumped.push(dht.pump_repair(&mut sim, i)),
                }
            }
            t.pumped.push(dht.flush_repair(&mut sim, 0));
            t
        };
        let (early, late) = (run(0), run(1 << 40));
        assert!(early.outs.iter().any(|(o, _)| o.attempts > 1), "the loss must force retries");
        assert!(early.churn.len() >= 20 && early.pumped.iter().any(|&(m, _)| m > 0));
        assert_eq!(early, late);
    }
}
