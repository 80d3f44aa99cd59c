//! The discrete graph `G_~x` of **any** continuous graph, with dynamic
//! membership: [`CdNetwork<G>`] is the continuous-discrete recipe
//! (Section 2) generic over a [`ContinuousGraph`], and
//! [`DhNetwork`] = `CdNetwork<DistanceHalving>` is the paper's
//! flagship instance.
//!
//! Each server `V_i` owns the segment `s(x_i) = [x_i, x_{i+1})`. The
//! edge set is *derived* from the continuous graph: `V`'s neighbor
//! table contains every server whose segment intersects an arc of
//! `G::edge_arcs(s(V))`, plus the ring predecessor and successor. For
//! the Distance Halving instance those arcs are
//!
//! * `f_d(s(V))` for `d = 0..∆`   (forward/children images), and
//! * `b_∆(s(V))` (+ ∆ ulps of slack to absorb fixed-point flooring of
//!   the forward maps — see below);
//!
//! for the Chord-like instance they are the `O(log n)` translated
//! finger arcs `s(V) + 2⁻ⁱ`. Everything below the arc derivation —
//! ring maintenance, incremental churn over reused scratch buffers,
//! the one-sweep bulk builder, validation — is instance-independent
//! and written once, here. Items live in `dh_replica`, not here.
//!
//! Routing only ever moves a message from a node to a point covered by
//! an entry of that node's **own** table:
//!
//! * a forward hop goes from `cover(p)` to `cover(f_d(p))` — found via
//!   the forward images;
//! * a backward hop goes from `cover(q)` to `cover(b_∆(q))` — `b_∆` is
//!   exact on the fixed-point grid, so it is found via the backward
//!   image; when a hop instead targets the exact *walk predecessor*
//!   `q_k` with `q_{k+1} = f_d(q_k)` (phase 2 of the DH lookup), the
//!   flooring of `f_d` makes `b_∆(q_{k+1})` undershoot `q_k` by up to
//!   `∆−1` ulps — the slack on the backward image covers exactly this.
//!
//! Join and leave maintain the tables incrementally: the set of nodes
//! whose tables can change is `{split/absorbing node} ∪ watchers`,
//! where [`CdNetwork::watchers`]`(X)` — the servers whose tables list
//! `X` — is derived from the continuous graph's preimage arcs when the
//! operation starts, not stored.
//!
//! # Hot-path architecture
//!
//! The paper's promise is that churn touches only `O(ρ + ∆)` servers
//! and lookups take `O(log_∆ n)` hops; this module keeps the *constant
//! factors* of both paths small. At n = 65 536 the tables outgrow the
//! cache, so a hop's cost is the number of *dependent* misses it takes:
//!
//! * **One slot per server.** Every server's state is one contiguous
//!   *slot* of a shared arena: a header cell (its id, its segment —
//!   whose start is the identifier point — and its table length)
//!   followed by its table, sorted by segment start. Each entry holds
//!   the neighbour's id, its segment (§2.2's locality, kept literal)
//!   and its slot. A hop ([`CdNetwork::slot_cover`]) reads the slot it
//!   stands on and returns the cover's id *and slot*, so a route never
//!   goes back to a per-id index: one dependent miss per hop. The scan
//!   counts the starts `≤ p` in one branch-free pass — independent
//!   loads the CPU overlaps — instead of a chain of dependent
//!   binary-search probes.
//! * **A 16-byte record per id.** A dense slab indexed by `NodeId`
//!   keeps each server's slot and ring successor and predecessor: what
//!   an id-based caller reads once ([`CdNetwork::local_cover`] is that
//!   read plus the hop) and what the O(1) ring needs.
//! * **Incremental tables.** A churn rebuild derives the new table
//!   into scratch buffers owned by the network and rewrites the slot
//!   in place, or moves it to the arena tail when it grew and re-points
//!   the entries its derived watchers hold; the hole left behind is
//!   counted, and the arena is compacted in place (re-pointing every
//!   entry in the same pass) once holes pass a quarter of the live
//!   cells, or when a move would otherwise grow it — no per-event
//!   allocation.
//! * **O(1) ring.** The sorted `registry` survives only for *point*
//!   queries ([`CdNetwork::cover_of`]); an arc-coverage query is one
//!   O(log n) registry seek plus O(k) pointer chasing.
//! * **Bulk construction.** [`CdNetwork::build`] derives all tables
//!   with one sweep over the sorted identifier array, writing each
//!   straight into the arena, then points every entry at its slot.

use cd_core::graph::ContinuousGraph;
use cd_core::interval::Interval;
use cd_core::point::Point;
use cd_core::pointset::PointSet;
use std::collections::BTreeMap;
use std::mem;

// The recipe's instances are part of this crate's vocabulary: a
// network type is spelled `CdNetwork<ChordLike>` etc.
pub use cd_core::graph::{ChordLike, DeBruijn, DistanceHalving};

// The server handle now lives in the wire-protocol crate (every layer
// from the transports up names servers with it); re-exported here so
// `dh_dht::NodeId` remains the same type it always was.
pub use dh_proto::NodeId;

/// Where a server's slot starts in the arena (`dh_proto`'s name for
/// it).
pub use dh_proto::engine::Slot;

/// A neighbor-table entry: the neighbor, its slot, and the segment it
/// covered when the entry was derived (both kept current by the churn
/// protocol).
#[derive(Clone, Copy, Debug)]
pub struct Neighbor {
    /// The neighbor's id.
    pub id: NodeId,
    /// The neighbor's slot: where its header cell sits in the arena.
    pub slot: Slot,
    /// The neighbor's segment.
    pub segment: Interval,
}

// A hop scans one node's table of these; 24 bytes keeps a header and
// seven entries inside three cache lines.
const _: () = assert!(std::mem::size_of::<Neighbor>() == 24);

/// A slot's first cell, read as what it holds: the server's own id and
/// segment, and how many entries follow. Stored as a [`Neighbor`]
/// whose `slot` field carries the length.
#[derive(Clone, Copy, Debug)]
struct Head {
    id: NodeId,
    len: u32,
    segment: Interval,
}

// A header is one arena cell.
const _: () = assert!(std::mem::size_of::<Head>() == std::mem::size_of::<Neighbor>());

impl Head {
    fn cell(self) -> Neighbor {
        Neighbor { id: self.id, slot: self.len, segment: self.segment }
    }
}

/// The entry of `table` (sorted by segment start, segments disjoint)
/// covering `p`. Two candidates can: the entry with the greatest start
/// `≤ p`, and — because exactly one segment of the network wraps
/// through `0`, and that segment has the greatest start of all — the
/// last entry. The first is found by counting the starts `≤ p`: every
/// entry is loaded and none waits on another.
#[inline]
fn cover_in(table: &[Neighbor], p: Point) -> Option<&Neighbor> {
    let last = table.last()?;
    let below: usize = table.iter().map(|nb| usize::from(nb.segment.start().bits() <= p.bits())).sum();
    let cand = below.checked_sub(1).map_or(last, |i| &table[i]);
    if cand.segment.contains(p) {
        Some(cand)
    } else if last.segment.contains(p) {
        Some(last)
    } else {
        None
    }
}

/// A server's state, read from its slot.
#[derive(Clone, Copy, Debug)]
pub struct NodeView<'a> {
    /// This node's id.
    pub id: NodeId,
    /// The node's identifier point `x_i`.
    pub x: Point,
    /// The owned segment `s(x_i)`.
    pub segment: Interval,
    /// The neighbor table (excluding self), sorted by segment start.
    pub neighbors: &'a [Neighbor],
}

impl NodeView<'_> {
    /// Does this node's own segment cover `p`?
    #[inline]
    pub fn covers(&self, p: Point) -> bool {
        self.segment.contains(p)
    }

    /// Find a table entry covering `p` (self excluded).
    pub fn neighbor_covering(&self, p: Point) -> Option<NodeId> {
        cover_in(self.neighbors, p).map(|nb| nb.id)
    }

    /// Degree (table size).
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }
}

/// A server's record: where its slot is, and its ring links. Aligned
/// so that no record straddles a cache line.
#[derive(Clone, Copy, Debug)]
#[repr(align(16))]
struct Rec {
    /// The header cell of the server's slot; `DEAD` marks a free slab
    /// slot.
    slot: Slot,
    /// Ring successor.
    succ: NodeId,
    /// Ring predecessor.
    pred: NodeId,
}

const _: () = assert!(std::mem::size_of::<Rec>() == 16);

/// `Rec::slot` of a free slab slot.
const DEAD: Slot = Slot::MAX;

/// Arena holes tolerated regardless of the live cell count, so a
/// small network does not compact on every event. Above it, holes are
/// kept to a quarter of the live cells.
const COMPACT_FLOOR: usize = 1_024;

/// Arena cells the bulk builder writes before it sizes the arena
/// from their mean slot size.
const BUILD_SAMPLE: usize = 4_096;

/// Reusable buffers for the churn machinery, owned by the network so
/// that join/leave allocate nothing in the steady state.
#[derive(Default)]
struct ChurnScratch {
    /// Freshly derived neighbor ids (sorted by identifier point).
    ids: Vec<NodeId>,
    /// Nodes whose tables must be rebuilt by the current operation.
    affected: Vec<NodeId>,
    /// The watchers of a slot that moved, whose entries re-point.
    watchers: Vec<NodeId>,
    /// Continuous edge-image arcs of the segment being (re)derived.
    arcs: Vec<Interval>,
    /// Live slots as `(slot, node)`, for compaction.
    slices: Vec<(Slot, u32)>,
}

/// The discrete network of a [`ContinuousGraph`] — the
/// continuous-discrete recipe with dynamic membership, generic over
/// the instance. See the module docs.
pub struct CdNetwork<G: ContinuousGraph> {
    graph: G,
    /// One record per slab slot, indexed by `NodeId.0`.
    recs: Vec<Rec>,
    /// Every live slot, one contiguous run of cells each.
    arena: Vec<Neighbor>,
    /// Arena cells no live slot owns (left by shrunk, moved and
    /// departed slots); compaction reclaims them.
    holes: usize,
    free: Vec<u32>,
    /// An upper bound on every live segment's length: the longest at
    /// build, raised when a leave merges two. A join only splits, so
    /// it never needs lowering; staleness only weakens the clique
    /// filter that reads it.
    seg_bound: u128,
    /// Sorted map from identifier-point bits to node; used only for
    /// *point* queries (`cover_of` and join collision checks).
    registry: BTreeMap<u64, NodeId>,
    /// Live node ids, unordered, for O(1) random sampling.
    live: Vec<NodeId>,
    /// Position of each node in `live` (slab-indexed).
    live_pos: Vec<u32>,
    /// Reusable churn buffers.
    scratch: ChurnScratch,
}

/// The discrete Distance Halving network — the flagship instance of
/// the recipe, bit-identical to the pre-refactor dedicated type.
pub type DhNetwork = CdNetwork<DistanceHalving>;

impl DhNetwork {
    /// Build a degree-2 (binary De Bruijn) network from identifier
    /// points.
    pub fn new(points: &PointSet) -> Self {
        Self::with_delta(points, 2)
    }

    /// Build a degree-∆ Distance Halving network (Section 2.3) from
    /// identifier points.
    pub fn with_delta(points: &PointSet, delta: u32) -> Self {
        CdNetwork::build(DistanceHalving::with_delta(delta), points)
    }
}

impl<G: ContinuousGraph> CdNetwork<G> {
    /// Discretize `graph` over the identifier points (the recipe's
    /// bulk constructor).
    ///
    /// Tables are derived in one sweep over the sorted identifier
    /// array — each arc query is a binary search on the point slice
    /// plus a forward walk, instead of `n` independent rebuilds probing
    /// the `BTreeMap` oracle — and written straight into the arena.
    /// Node `i` is the `i`-th point in sorted order, so ring pointers
    /// are index arithmetic and the id lists are already sorted by
    /// segment start. A later slot's offset is known only once the
    /// sweep passed it, so one pass at the end points every entry at
    /// its slot.
    pub fn build(graph: G, points: &PointSet) -> Self {
        let n = points.len();
        let pts = points.points();
        let mut arena: Vec<Neighbor> = Vec::with_capacity(BUILD_SAMPLE);
        let mut recs: Vec<Rec> = Vec::with_capacity(n);
        let mut ids: Vec<u32> = Vec::new();
        let mut arcs: Vec<Interval> = Vec::new();
        let mut seg_bound = 0u128;
        for i in 0..n {
            let (succ, pred) = ((i + 1) % n, (i + n - 1) % n);
            let seg = points.segment(i);
            ids.clear();
            arcs.clear();
            graph.edge_arcs(&seg, &mut arcs);
            // the indices whose segments intersect each arc, exactly as
            // `covers_of_arc_into` collects them on the live network
            for q in &arcs {
                let first = points.index_covering(q.start());
                ids.push(first as u32);
                let mut cur = (first + 1) % n;
                while cur != first && q.contains(pts[cur]) {
                    ids.push(cur as u32);
                    cur = (cur + 1) % n;
                }
            }
            ids.extend([succ as u32, pred as u32]);
            ids.sort_unstable();
            ids.dedup();
            ids.retain(|&j| j != i as u32);
            let cells = 1 + ids.len();
            if arena.len() + cells > arena.capacity() {
                // room for every slot at the mean size so far, plus a
                // quarter for churn's holes: the arena is copied while
                // it is a small prefix, not doubled when it is large
                let mean = (arena.len() + cells).div_ceil(i + 1);
                let want = (mean * n + mean * n / 4).max(arena.len() + cells);
                arena.reserve_exact(want - arena.len());
            }
            let slot = arena.len() as Slot;
            arena.push(Head { id: NodeId(i as u32), len: ids.len() as u32, segment: seg }.cell());
            arena.extend(
                ids.iter().map(|&j| Neighbor { id: NodeId(j), slot: 0, segment: points.segment(j as usize) }),
            );
            let (succ, pred) = (NodeId(succ as u32), NodeId(pred as u32));
            recs.push(Rec { slot, succ, pred });
            seg_bound = seg_bound.max(seg.len());
        }
        for i in 0..n {
            let slot = recs[i].slot as usize;
            let len = arena[slot].slot as usize;
            for nb in &mut arena[slot + 1..][..len] {
                nb.slot = recs[nb.id.0 as usize].slot;
            }
        }
        CdNetwork {
            graph,
            recs,
            arena,
            holes: 0,
            free: Vec::new(),
            seg_bound,
            registry: pts.iter().enumerate().map(|(i, p)| (p.bits(), NodeId(i as u32))).collect(),
            live: (0..n as u32).map(NodeId).collect(),
            live_pos: (0..n as u32).collect(),
            scratch: ChurnScratch::default(),
        }
    }

    /// The continuous graph this network discretizes.
    #[inline]
    pub fn graph(&self) -> &G {
        &self.graph
    }

    /// The digit base ∆ of the continuous graph (degree parameter for
    /// the `f_d` family; unused by non-digit instances).
    #[inline]
    pub fn delta(&self) -> u32 {
        self.graph.delta()
    }

    /// Number of live servers.
    #[inline]
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// True iff the network has no servers.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Slab capacity (upper bound over all `NodeId.0` ever issued + 1);
    /// sized for metric arrays.
    #[inline]
    pub fn slab_len(&self) -> usize {
        self.recs.len()
    }

    /// The live node ids (unordered).
    #[inline]
    pub fn live(&self) -> &[NodeId] {
        &self.live
    }

    /// The record of a live node.
    #[inline]
    fn rec(&self, id: NodeId) -> &Rec {
        let rec = &self.recs[id.0 as usize];
        assert!(rec.slot != DEAD, "dangling NodeId {id}");
        rec
    }

    /// The header of the slot at `slot`.
    #[inline]
    fn head(&self, slot: Slot) -> Head {
        let cell = &self.arena[slot as usize];
        Head { id: cell.id, len: cell.slot, segment: cell.segment }
    }

    /// The table of the slot at `slot`, whose header says `len`.
    #[inline]
    fn table_at(&self, slot: Slot, len: u32) -> &[Neighbor] {
        &self.arena[slot as usize + 1..][..len as usize]
    }

    /// A live node's segment.
    #[inline]
    fn segment(&self, id: NodeId) -> Interval {
        self.slot_segment(self.slot_of(id))
    }

    /// A live node's state, read from its slot.
    #[inline]
    pub fn node(&self, id: NodeId) -> NodeView<'_> {
        let slot = self.rec(id).slot;
        let head = self.head(slot);
        NodeView { id, x: head.segment.start(), segment: head.segment, neighbors: self.table_at(slot, head.len) }
    }

    /// Where a live node's slot starts — the one record read an
    /// id-based caller pays before it can hop.
    #[inline]
    pub fn slot_of(&self, id: NodeId) -> Slot {
        self.rec(id).slot
    }

    /// The segment owned by the server at `slot`.
    #[inline]
    pub fn slot_segment(&self, slot: Slot) -> Interval {
        self.arena[slot as usize].segment
    }

    /// An upper bound on every live segment's length (see
    /// [`dh_proto::engine::Topology::segment_bound`]).
    #[inline]
    pub fn segment_bound(&self) -> u128 {
        self.seg_bound
    }

    /// The ring successor of a live node — O(1).
    #[inline]
    pub fn ring_succ(&self, id: NodeId) -> NodeId {
        self.rec(id).succ
    }

    /// The ring predecessor of a live node — O(1).
    #[inline]
    pub fn ring_pred(&self, id: NodeId) -> NodeId {
        self.rec(id).pred
    }

    /// The node covering point `p` (global oracle — used by tests,
    /// neighbor derivation and experiment setup, never by routing).
    pub fn cover_of(&self, p: Point) -> NodeId {
        // greatest x ≤ p, else wrap to the greatest overall
        if let Some((_, &id)) = self.registry.range(..=p.bits()).next_back() {
            id
        } else {
            let (_, &id) = self.registry.iter().next_back().expect("empty network");
            id
        }
    }

    /// A uniformly random live node.
    pub fn random_node(&self, rng: &mut impl rand::Rng) -> NodeId {
        self.live[rng.gen_range(0..self.live.len())]
    }

    /// The cover clique of `p` (§6.2): the `m` ring-consecutive
    /// servers starting at the server covering `p`, appended to `out`
    /// in clique order (truncated if the whole ring is smaller than
    /// `m`). In the overlapping DHT these are exactly the servers
    /// whose widened segments contain `p`, and they form a clique —
    /// one hop connects any two — which is what lets an item live as
    /// `m` erasure shares with any `k` covers sufficing (`dh_replica`
    /// places and repairs shares over this set).
    pub fn clique_of(&self, p: Point, m: usize, out: &mut Vec<NodeId>) {
        out.clear();
        let primary = self.cover_of(p);
        let mut cur = primary;
        for _ in 0..m.min(self.live.len()) {
            out.push(cur);
            cur = self.ring_succ(cur);
            if cur == primary {
                break;
            }
        }
    }

    /// The routing primitive: the node covering `p` *as visible from
    /// the server at `slot`*, and that node's slot — the server itself
    /// if its segment covers `p`, otherwise the entry of its own table
    /// covering `p`, otherwise `None`. Every hop of every protocol is
    /// this (or [`Self::local_cover`]), so routing never consults
    /// global state: it reads one slot and nothing else.
    #[inline]
    pub fn slot_cover(&self, slot: Slot, p: Point) -> Option<(NodeId, Slot)> {
        let head = self.head(slot);
        if head.segment.contains(p) {
            Some((head.id, slot))
        } else {
            cover_in(self.table_at(slot, head.len), p).map(|nb| (nb.id, nb.slot))
        }
    }

    /// [`Self::slot_cover`] for a caller that holds an id: reads `cur`'s
    /// record, then hops.
    #[inline]
    pub fn local_cover(&self, cur: NodeId, p: Point) -> Option<NodeId> {
        self.slot_cover(self.slot_of(cur), p).map(|(id, _)| id)
    }

    // ------------------------------------------------------------------
    // Neighbor derivation
    // ------------------------------------------------------------------

    /// Append all nodes whose segments intersect the arc `q`: one
    /// registry seek for the arc start, then O(k) ring-pointer chasing.
    fn covers_of_arc_into(&self, q: &Interval, out: &mut Vec<NodeId>) {
        let first = self.cover_of(q.start());
        out.push(first);
        let mut cur = self.ring_succ(first);
        while cur != first && q.contains(self.segment(cur).start()) {
            out.push(cur);
            cur = self.ring_succ(cur);
        }
    }

    /// The live node whose point strictly follows `x` on the ring
    /// (registry walk — validation/tests only; protocol paths use
    /// [`Self::ring_succ`]).
    fn successor(&self, x: Point) -> (Point, NodeId) {
        use std::ops::Bound::{Excluded, Unbounded};
        if let Some((&bits, &id)) = self.registry.range((Excluded(x.bits()), Unbounded)).next() {
            (Point(bits), id)
        } else {
            let (&bits, &id) = self.registry.iter().next().expect("empty network");
            (Point(bits), id)
        }
    }

    /// The live node whose point strictly precedes `x` on the ring
    /// (registry walk — validation/tests only).
    fn predecessor(&self, x: Point) -> (Point, NodeId) {
        if let Some((&bits, &id)) = self.registry.range(..x.bits()).next_back() {
            (Point(bits), id)
        } else {
            let (&bits, &id) = self.registry.iter().next_back().expect("empty network");
            (Point(bits), id)
        }
    }

    /// Derive the neighbor id set for the segment of live node `myself`
    /// into `out`, sorted by identifier point (= table order). `arcs`
    /// is a reusable buffer for the continuous edge images.
    fn derive_into(&self, seg: &Interval, myself: NodeId, out: &mut Vec<NodeId>, arcs: &mut Vec<Interval>) {
        out.clear();
        arcs.clear();
        self.graph.edge_arcs(seg, arcs);
        for q in arcs.iter() {
            self.covers_of_arc_into(q, out);
        }
        // ring edges
        out.push(self.ring_succ(myself));
        out.push(self.ring_pred(myself));
        out.sort_unstable_by_key(|&id| self.segment(id).start().bits());
        out.dedup();
        out.retain(|&id| id != myself);
    }

    /// A fresh derivation of live node `id`'s table — the ids its table
    /// must hold, in table order — for tests that check the maintained
    /// table against it.
    pub fn derived_table(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.derive_into(&self.segment(id), id, &mut out, &mut Vec::new());
        out
    }

    /// The servers whose tables list live node `v`, ascending by id,
    /// into `out`: the covers of `G::preimage_arcs(s(v))` plus the ring
    /// neighbours, each kept only if its table lists `v`. The arcs
    /// reach every such server (DESIGN §2), so the set is exact.
    fn watchers_into(&self, v: NodeId, out: &mut Vec<NodeId>, arcs: &mut Vec<Interval>) {
        let seg = self.segment(v);
        out.clear();
        arcs.clear();
        self.graph.preimage_arcs(&seg, arcs);
        for q in arcs.iter() {
            self.covers_of_arc_into(q, out);
        }
        out.push(self.ring_succ(v));
        out.push(self.ring_pred(v));
        out.sort_unstable();
        out.dedup();
        out.retain(|&u| u != v && self.node(u).neighbor_covering(seg.start()) == Some(v));
    }

    /// The servers whose tables list live node `v`, ascending by id —
    /// the receivers of a `NeighborDiff` when `v`'s segment changes.
    pub fn watchers(&self, v: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.watchers_into(v, &mut out, &mut Vec::new());
        out
    }

    /// The table entry for live node `nb`, as its record and header
    /// stand now.
    fn entry(&self, nb: NodeId) -> Neighbor {
        let slot = self.slot_of(nb);
        Neighbor { id: nb, slot, segment: self.slot_segment(slot) }
    }

    /// Make room for `cells` more at the arena tail by compacting, if
    /// the tail has no room the holes could make.
    fn reserve_tail(&mut self, cells: usize) {
        if self.arena.len() + cells > self.arena.capacity() && self.holes >= cells {
            self.compact();
        }
    }

    /// Recompute one node's table from its current segment and rewrite
    /// its slot: in place when the new table fits, else at the arena
    /// tail (the old slot becomes holes, and every entry naming the
    /// node in its derived watchers' tables re-points to the new slot).
    /// Steady-state allocation-free: all intermediates live in
    /// [`ChurnScratch`].
    fn rebuild_table(&mut self, id: NodeId) {
        let mut ids = mem::take(&mut self.scratch.ids);
        let mut arcs = mem::take(&mut self.scratch.arcs);
        let Head { len, segment: seg, .. } = self.head(self.slot_of(id));
        self.derive_into(&seg, id, &mut ids, &mut arcs);
        let moves = ids.len() > len as usize;
        if moves {
            self.reserve_tail(1 + ids.len());
        }
        let head = Head { id, len: ids.len() as u32, segment: seg }.cell();
        let slot = if !moves {
            let slot = self.slot_of(id);
            self.arena[slot as usize] = head;
            for (i, &nb) in ids.iter().enumerate() {
                self.arena[slot as usize + 1 + i] = self.entry(nb);
            }
            self.holes += len as usize - ids.len();
            slot
        } else {
            let tail = self.arena.len() as Slot;
            self.arena.push(head);
            for &nb in &ids {
                let entry = self.entry(nb);
                self.arena.push(entry);
            }
            self.holes += 1 + len as usize;
            tail
        };
        self.recs[id.0 as usize].slot = slot;
        if moves {
            let mut watchers = mem::take(&mut self.scratch.watchers);
            self.watchers_into(id, &mut watchers, &mut arcs);
            for &u in &watchers {
                let at = self.slot_of(u);
                let len = self.head(at).len as usize;
                for nb in &mut self.arena[at as usize + 1..][..len] {
                    if nb.id == id {
                        nb.slot = slot;
                    }
                }
            }
            self.scratch.watchers = watchers;
        }
        self.scratch.ids = ids;
        self.scratch.arcs = arcs;
    }

    /// Rebuild the tables listed in `scratch.affected` (deduplicated),
    /// then compact the arena if the holes exceed their bound.
    fn rebuild_affected(&mut self) {
        let mut affected = mem::take(&mut self.scratch.affected);
        affected.sort_unstable();
        affected.dedup();
        for &a in &affected {
            self.rebuild_table(a);
        }
        affected.clear();
        self.scratch.affected = affected;
        if self.holes > self.hole_bound() {
            self.compact();
        }
    }

    /// The holes the arena may hold after a churn event.
    fn hole_bound(&self) -> usize {
        ((self.arena.len() - self.holes) / 4).max(COMPACT_FLOOR)
    }

    /// Slide every live slot down over the holes, in arena order (each
    /// moves toward the front, so `copy_within` never clobbers a slot
    /// not yet moved), re-pointing each entry as its slot lands: every
    /// new offset is assigned before the first cell moves.
    fn compact(&mut self) {
        let mut slices = mem::take(&mut self.scratch.slices);
        slices.clear();
        slices.extend(self.live.iter().map(|&id| (self.recs[id.0 as usize].slot, id.0)));
        slices.sort_unstable();
        let mut to = 0usize;
        for &(slot, id) in &slices {
            self.recs[id as usize].slot = to as Slot;
            to += 1 + self.arena[slot as usize].slot as usize;
        }
        for &(slot, id) in &slices {
            let (from, to) = (slot as usize, self.recs[id as usize].slot as usize);
            let cells = 1 + self.arena[from].slot as usize;
            self.arena.copy_within(from..from + cells, to);
            for nb in &mut self.arena[to + 1..to + cells] {
                nb.slot = self.recs[nb.id.0 as usize].slot;
            }
        }
        self.arena.truncate(to);
        self.holes = 0;
        self.scratch.slices = slices;
    }

    // ------------------------------------------------------------------
    // Join / leave
    // ------------------------------------------------------------------

    /// Join a new server with identifier point `x` (Algorithm Join,
    /// §2.1). The segment covering `x` splits at `x`; tables of the
    /// affected nodes are rebuilt.
    ///
    /// Returns the new node's id, or `None` if `x` collides with an
    /// existing identifier.
    pub fn join(&mut self, x: Point) -> Option<NodeId> {
        if self.registry.contains_key(&x.bits()) {
            return None;
        }
        let old = self.cover_of(x);
        // Split s(old) at x: old keeps [x_old, x), new gets [x, old_end).
        let (keep, give) = self.segment(old).split(x);
        // affected: old and everyone watching it, derived before mutation
        let mut scratch = mem::take(&mut self.scratch);
        self.watchers_into(old, &mut scratch.affected, &mut scratch.arcs);
        scratch.affected.push(old);
        self.scratch = scratch;
        // splice into the ring: old → id → old's former successor; the
        // new slot is a bare header at the tail until its rebuild
        self.reserve_tail(1);
        let after = self.rec(old).succ;
        let rec = Rec { slot: self.arena.len() as Slot, succ: after, pred: old };
        let id = match self.free.pop() {
            Some(slot) => {
                self.recs[slot as usize] = rec;
                NodeId(slot)
            }
            None => {
                self.recs.push(rec);
                self.live_pos.push(0);
                NodeId(self.recs.len() as u32 - 1)
            }
        };
        self.arena.push(Head { id, len: 0, segment: give }.cell());
        self.recs[old.0 as usize].succ = id;
        self.recs[after.0 as usize].pred = id;
        let old_slot = self.rec(old).slot;
        self.arena[old_slot as usize].segment = keep;
        self.registry.insert(x.bits(), id);
        self.live_pos[id.0 as usize] = self.live.len() as u32;
        self.live.push(id);
        self.scratch.affected.push(id);
        self.rebuild_affected();
        Some(id)
    }

    /// Join a new server whose identifier point is picked by one of
    /// the §4 smoothing strategies, evaluated against the live
    /// network's own segment view (the network implements
    /// [`dh_balance::SegmentView`]). Identifier collisions redraw, so
    /// the join always succeeds; returns the new node's id.
    pub fn join_with(
        &mut self,
        strategy: dh_balance::IdStrategy,
        rng: &mut impl rand::Rng,
    ) -> NodeId {
        loop {
            let x = strategy.choose(self, rng);
            if let Some(id) = self.join(x) {
                return id;
            }
        }
    }

    /// Remove a server; its ring predecessor absorbs the segment (the
    /// simple Leave of §2.1).
    ///
    /// Panics when removing the last node.
    pub fn leave(&mut self, id: NodeId) {
        assert!(self.live.len() > 1, "cannot remove the last server");
        let Rec { slot, succ: after, pred } = *self.rec(id);
        let Head { len, segment: seg, .. } = self.head(slot);
        debug_assert_ne!(pred, id);
        // affected set, derived before mutation (scratch.ids is free
        // here — rebuilds happen only at the end of leave)
        let mut scratch = mem::take(&mut self.scratch);
        let ChurnScratch { ids: of_pred, affected, arcs, .. } = &mut scratch;
        self.watchers_into(id, affected, arcs);
        self.watchers_into(pred, of_pred, arcs);
        affected.extend(of_pred.iter().copied().filter(|&a| a != id));
        affected.push(pred);
        self.scratch = scratch;
        // pred absorbs the segment; unsplice the ring
        let pred_slot = self.rec(pred).slot as usize;
        let pred_seg = self.arena[pred_slot].segment;
        let merged =
            Interval::new(pred_seg.start(), (pred_seg.len() + seg.len()).min(cd_core::interval::FULL));
        self.arena[pred_slot].segment = merged;
        self.seg_bound = self.seg_bound.max(merged.len());
        self.recs[pred.0 as usize].succ = after;
        self.recs[after.0 as usize].pred = pred;
        // unregister; the departed slot becomes holes
        self.registry.remove(&seg.start().bits());
        let pos = self.live_pos[id.0 as usize] as usize;
        self.live.swap_remove(pos);
        if pos < self.live.len() {
            let moved_id = self.live[pos];
            self.live_pos[moved_id.0 as usize] = pos as u32;
        }
        self.holes += 1 + len as usize;
        self.recs[id.0 as usize].slot = DEAD;
        self.free.push(id.0);
        self.rebuild_affected();
    }

    // ------------------------------------------------------------------
    // Validation
    // ------------------------------------------------------------------

    /// Check global invariants (used by tests after churn):
    /// segments tile the circle, registry and ring pointers agree with
    /// node state, every header names its own record and every entry
    /// its neighbour's slot, tables match fresh derivation and are
    /// sorted, [`Self::watchers`] equals a reverse scan of every table,
    /// the segment bound holds, and the arena holds the live slots as
    /// disjoint runs with exactly the counted holes, within the
    /// compaction bound.
    pub fn validate(&self) {
        // segments tile; ring pointers agree with the registry order
        let mut total: u128 = 0;
        for &id in &self.live {
            let n = self.node(id);
            let (sx, s_id) = self.successor(n.x);
            assert_eq!(n.segment.end(), sx, "segment must end at successor");
            assert_eq!(self.ring_succ(id), s_id, "ring successor pointer of {id} disagrees with registry");
            let (_, p_id) = self.predecessor(n.x);
            assert_eq!(self.ring_pred(id), p_id, "ring predecessor pointer of {id} disagrees with registry");
            assert_eq!(self.ring_pred(self.ring_succ(id)), id, "ring pointers of {id} are not mutually inverse");
            assert_eq!(self.registry.get(&n.x.bits()), Some(&id), "registry misses {id}");
            assert_eq!(self.head(self.rec(id).slot).id, id, "the header of {id}'s slot names another server");
            assert!(n.segment.len() <= self.seg_bound, "segment of {id} exceeds the segment bound");
            total += n.segment.len();
        }
        assert_eq!(total, cd_core::interval::FULL, "segments must tile the circle");
        // tables match derivation, stay sorted and point at live slots
        let mut fresh: Vec<NodeId> = Vec::new();
        let mut arcs: Vec<Interval> = Vec::new();
        for &id in &self.live {
            let node = self.node(id);
            self.derive_into(&node.segment, id, &mut fresh, &mut arcs);
            let actual: Vec<NodeId> = node.neighbors.iter().map(|nb| nb.id).collect();
            assert_eq!(actual, fresh, "stale table on {id}");
            for w in node.neighbors.windows(2) {
                assert!(
                    w[0].segment.start().bits() < w[1].segment.start().bits(),
                    "table of {id} is not sorted by segment start"
                );
            }
            for nb in node.neighbors {
                assert_eq!(
                    nb.segment,
                    self.node(nb.id).segment,
                    "stale segment info for {} in table of {id}",
                    nb.id
                );
                assert_eq!(nb.slot, self.slot_of(nb.id), "stale slot for {} in table of {id}", nb.id);
            }
        }
        // derived watchers = a brute-force reverse scan of the tables
        let mut listed: Vec<Vec<NodeId>> = vec![Vec::new(); self.recs.len()];
        for &id in &self.live {
            for nb in self.node(id).neighbors {
                listed[nb.id.0 as usize].push(id);
            }
        }
        for &v in &self.live {
            let scan = &mut listed[v.0 as usize];
            scan.sort_unstable();
            self.watchers_into(v, &mut fresh, &mut arcs);
            assert_eq!(fresh, *scan, "derived watchers of {v} miss or add a table");
        }
        // the arena: free slots own nothing, live slots are disjoint
        // and in bounds, and everything else is a counted hole
        let dead = self.recs.iter().filter(|r| r.slot == DEAD).count();
        assert_eq!(dead, self.free.len(), "free slots and dead records disagree");
        let mut slices: Vec<(usize, usize)> = self
            .live
            .iter()
            .map(|&id| (self.rec(id).slot as usize, 1 + self.node(id).degree()))
            .collect();
        slices.sort_unstable();
        let mut end = 0usize;
        for &(slot, cells) in &slices {
            assert!(slot >= end, "arena slots overlap at {slot}");
            end = slot + cells;
        }
        assert!(end <= self.arena.len(), "a slot runs past the arena");
        let owned: usize = slices.iter().map(|&(_, cells)| cells).sum();
        assert_eq!(self.arena.len() - owned, self.holes, "arena holes miscounted");
        assert!(
            self.holes <= self.hole_bound(),
            "{} holes over {owned} live cells: compaction fell behind",
            self.holes
        );
    }

    /// The smoothness ρ of the live identifier set (max/min segment
    /// ratio, Definition 1). O(n).
    pub fn smoothness(&self) -> f64 {
        let mut min = u128::MAX;
        let mut max = 0u128;
        for &id in &self.live {
            let len = self.segment(id).len();
            min = min.min(len);
            max = max.max(len);
        }
        max as f64 / min as f64
    }

    /// Maximum and mean table size (the paper's *linkage* metric).
    pub fn degree_stats(&self) -> (usize, f64) {
        let mut max = 0usize;
        let mut sum = 0usize;
        for &id in &self.live {
            let d = self.node(id).degree();
            max = max.max(d);
            sum += d;
        }
        (max, sum as f64 / self.live.len() as f64)
    }
}

/// The live network as a substrate for the §4 ID-selection
/// strategies: [`CdNetwork::join_with`] samples against this view, so
/// smooth joins need no side-channel `Ring` mirror of the membership.
impl<G: ContinuousGraph> dh_balance::SegmentView for CdNetwork<G> {
    fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    fn segment_of(&self, z: Point) -> Interval {
        self.node(self.cover_of(z)).segment
    }

    fn estimate_log_n(&self, z: Point) -> f64 {
        let cover = self.cover_of(z);
        let x = self.node(cover).x;
        let pred = self.node(self.ring_pred(cover)).x;
        dh_balance::strategy::log_n_from_pred_distance(x, pred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cd_core::rng::seeded;
    use cd_core::Point as CPoint;
    use rand::Rng;

    #[test]
    fn build_small_and_validate() {
        let net = DhNetwork::new(&PointSet::evenly_spaced(8));
        assert_eq!(net.len(), 8);
        net.validate();
    }

    #[test]
    fn build_random_and_validate() {
        let mut rng = seeded(3);
        for n in [2usize, 3, 5, 17, 64, 257] {
            let net = DhNetwork::new(&PointSet::random(n, &mut rng));
            net.validate();
        }
    }

    #[test]
    fn build_delta_ary_and_validate() {
        let mut rng = seeded(4);
        for delta in [3u32, 4, 8, 16] {
            let net = DhNetwork::with_delta(&PointSet::random(50, &mut rng), delta);
            net.validate();
        }
    }

    #[test]
    fn cover_of_matches_pointset() {
        let mut rng = seeded(5);
        let ps = PointSet::random(40, &mut rng);
        let net = DhNetwork::new(&ps);
        for _ in 0..200 {
            let p = CPoint(rng.gen());
            let id = net.cover_of(p);
            assert!(net.node(id).covers(p));
        }
    }

    #[test]
    fn neighbor_covering_matches_linear_scan() {
        let mut rng = seeded(35);
        let net = DhNetwork::new(&PointSet::random(120, &mut rng));
        for &id in net.live() {
            let state = net.node(id);
            for _ in 0..50 {
                let p = CPoint(rng.gen());
                let linear = state.neighbors.iter().find(|nb| nb.segment.contains(p)).map(|nb| nb.id);
                assert_eq!(state.neighbor_covering(p), linear);
            }
            // and every neighbor's own start point must be found
            for nb in state.neighbors {
                assert_eq!(state.neighbor_covering(nb.segment.start()), Some(nb.id));
            }
        }
    }

    #[test]
    fn ring_pointers_are_o1_and_correct() {
        let mut rng = seeded(36);
        let mut net = DhNetwork::new(&PointSet::random(64, &mut rng));
        for _ in 0..200 {
            if net.len() > 2 && rng.gen_bool(0.5) {
                let v = net.random_node(&mut rng);
                net.leave(v);
            } else {
                net.join(CPoint(rng.gen()));
            }
            let a = net.random_node(&mut rng);
            let s = net.ring_succ(a);
            assert_eq!(net.ring_pred(s), a);
            assert_eq!(net.node(a).segment.end(), net.node(s).x);
        }
        net.validate();
    }

    #[test]
    fn join_splits_segment() {
        let mut rng = seeded(6);
        let mut net = DhNetwork::new(&PointSet::random(10, &mut rng));
        let x = CPoint(rng.gen());
        let old = net.cover_of(x);
        let old_seg = net.node(old).segment;
        let id = net.join(x).expect("no collision");
        assert_eq!(net.len(), 11);
        assert_eq!(net.node(id).x, x);
        assert_eq!(net.node(id).segment.end(), old_seg.end());
        assert_eq!(net.node(old).segment.end(), x);
        net.validate();
    }

    #[test]
    fn leave_merges_into_predecessor() {
        let mut rng = seeded(7);
        let mut net = DhNetwork::new(&PointSet::random(10, &mut rng));
        let victim = net.random_node(&mut rng);
        let seg = net.node(victim).segment;
        let pred = net.ring_pred(victim);
        let pred_seg = net.node(pred).segment;
        net.leave(victim);
        assert_eq!(net.len(), 9);
        assert_eq!(net.node(pred).segment.len(), pred_seg.len() + seg.len());
        net.validate();
    }

    #[test]
    fn churn_storm_preserves_invariants() {
        let mut rng = seeded(8);
        let mut net = DhNetwork::new(&PointSet::random(16, &mut rng));
        for step in 0..300 {
            if net.len() > 2 && rng.gen_bool(0.45) {
                let v = net.random_node(&mut rng);
                net.leave(v);
            } else {
                net.join(CPoint(rng.gen()));
            }
            if step % 50 == 49 {
                net.validate();
            }
        }
        net.validate();
    }

    #[test]
    fn churn_storm_delta_4() {
        let mut rng = seeded(9);
        let mut net = DhNetwork::with_delta(&PointSet::random(16, &mut rng), 4);
        for _ in 0..150 {
            if net.len() > 2 && rng.gen_bool(0.45) {
                let v = net.random_node(&mut rng);
                net.leave(v);
            } else {
                net.join(CPoint(rng.gen()));
            }
        }
        net.validate();
    }

    #[test]
    fn join_with_multiple_choice_beats_uniform_joins() {
        // The satellite claim: joins that pick identifiers with the §4
        // Multiple Choice strategy (evaluated against the live
        // network's own segment view) keep the identifier set far
        // smoother than uniform-random joins.
        let mut rng = seeded(44);
        let n = 4096usize;
        let seed_points = PointSet::new(vec![CPoint(0), CPoint(1 << 63)]);
        let mut uniform = DhNetwork::new(&seed_points);
        while uniform.len() < n {
            uniform.join(CPoint(rng.gen()));
        }
        let mut smart = DhNetwork::new(&seed_points);
        while smart.len() < n {
            smart.join_with(dh_balance::IdStrategy::MultipleChoice { t: 3 }, &mut rng);
        }
        smart.validate();
        let (rho_uniform, rho_smart) = (uniform.smoothness(), smart.smoothness());
        assert!(
            rho_smart * 8.0 < rho_uniform,
            "Multiple Choice ρ = {rho_smart:.1} not ≪ uniform ρ = {rho_uniform:.1}"
        );
        assert!(rho_smart <= 32.0, "Multiple Choice ρ = {rho_smart:.1} not O(1) (Lemma 4.3)");
    }

    #[test]
    fn clique_of_is_ring_consecutive_covers() {
        let mut rng = seeded(45);
        let net = DhNetwork::new(&PointSet::random(40, &mut rng));
        let mut clique = Vec::new();
        for _ in 0..50 {
            let p = CPoint(rng.gen());
            net.clique_of(p, 6, &mut clique);
            assert_eq!(clique.len(), 6);
            assert_eq!(clique[0], net.cover_of(p));
            assert!(net.node(clique[0]).covers(p));
            for w in clique.windows(2) {
                assert_eq!(net.ring_succ(w[0]), w[1]);
            }
        }
        // truncated when the whole ring is smaller than m
        let tiny = DhNetwork::new(&PointSet::new(vec![CPoint(0), CPoint(1 << 63)]));
        tiny.clique_of(CPoint(7), 6, &mut clique);
        assert_eq!(clique.len(), 2);
    }

    #[test]
    fn watchers_reach_one_ulp_past_a_forward_image() {
        // Evenly spaced ids: V0's widened backward image [0, 2⁻²]
        // ends exactly on V2's start, but V2's forward image f_0 starts
        // at 2⁻³ = V1's start, one ulp past s(V0). The relation is not
        // symmetric there, and the preimage arcs still find V0.
        let net = DhNetwork::new(&PointSet::evenly_spaced(8));
        let lists = |u: u32, v: u32| net.node(NodeId(u)).neighbors.iter().any(|nb| nb.id == NodeId(v));
        assert!(lists(0, 2) && !lists(2, 0));
        assert!(net.watchers(NodeId(2)).contains(&NodeId(0)));
        net.validate();
    }

    #[test]
    fn two_node_network_has_each_other() {
        let ps = PointSet::new(vec![CPoint(0), CPoint(1 << 63)]);
        let net = DhNetwork::new(&ps);
        net.validate();
        for &id in net.live() {
            assert!(net.node(id).degree() >= 1);
        }
    }

    #[test]
    fn average_degree_is_constant_for_smooth_sets() {
        // Theorem 2.1 ⇒ average degree ≤ 6 (plus 2 ring edges).
        let net = DhNetwork::new(&PointSet::evenly_spaced(512));
        let (_, avg) = net.degree_stats();
        assert!(avg <= 8.0, "average degree {avg} too large for a smooth set");
    }

    #[test]
    fn bulk_build_matches_incremental_joins() {
        // The one-sweep constructor must produce exactly the network
        // that incremental joins starting from a two-node ring produce.
        let mut rng = seeded(37);
        let ps = PointSet::random(80, &mut rng);
        let bulk = DhNetwork::new(&ps);
        let seed_points = PointSet::new(vec![ps.point(0), ps.point(1)]);
        let mut grown = DhNetwork::new(&seed_points);
        for i in 2..ps.len() {
            grown.join(ps.point(i)).expect("distinct points");
        }
        grown.validate();
        assert_eq!(bulk.len(), grown.len());
        for &id in bulk.live() {
            let b = bulk.node(id);
            let g = grown.node(grown.cover_of(b.x));
            assert_eq!(b.x, g.x);
            assert_eq!(b.segment, g.segment);
            let b_pts: Vec<u64> = b.neighbors.iter().map(|nb| nb.segment.start().bits()).collect();
            let g_pts: Vec<u64> = g.neighbors.iter().map(|nb| nb.segment.start().bits()).collect();
            assert_eq!(b_pts, g_pts, "tables differ at x={:?}", b.x);
        }
    }
}
