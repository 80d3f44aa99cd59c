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
//! factors* of both paths small:
//!
//! * **O(1) ring.** Ring successor/predecessor pointers are slab
//!   arrays (`DhNetwork::succ`/`pred`) maintained in O(1) on
//!   join/leave. The sorted `registry` survives only for *point*
//!   queries ([`DhNetwork::cover_of`]); an arc-coverage query is one
//!   O(log n) registry seek plus O(k) pointer chasing.
//! * **Incremental tables.** Neighbor tables are kept sorted by
//!   segment start, so the per-hop routing primitive
//!   ([`NodeState::neighbor_covering`]) is a binary search, and a
//!   table rebuild derives the new table and rewrites the old one in
//!   place over scratch buffers owned by the network — no per-event
//!   allocation.
//! * **Bulk construction.** [`DhNetwork::with_delta`] derives all
//!   tables with one sweep over the sorted identifier array instead of
//!   `n` independent oracle rebuilds.

use cd_core::graph::ContinuousGraph;
use cd_core::interval::Interval;
use cd_core::point::Point;
use cd_core::pointset::PointSet;
use cd_core::Point as CPoint;
use std::collections::BTreeMap;
use std::mem;

// The recipe's instances are part of this crate's vocabulary: a
// network type is spelled `CdNetwork<ChordLike>` etc.
pub use cd_core::graph::{ChordLike, DeBruijn, DistanceHalving};

// The server handle now lives in the wire-protocol crate (every layer
// from the transports up names servers with it); re-exported here so
// `dh_dht::NodeId` remains the same type it always was.
pub use dh_proto::NodeId;

/// A neighbor-table entry: the neighbor and the segment it covered
/// when the entry was derived (kept current by the churn protocol).
#[derive(Clone, Copy, Debug)]
pub struct Neighbor {
    /// The neighbor's id.
    pub id: NodeId,
    /// The neighbor's segment.
    pub segment: Interval,
}

// A hop scans one node's table of these; 24 bytes keeps a probe of a
// few entries inside two or three cache lines.
const _: () = assert!(std::mem::size_of::<Neighbor>() == 24);

/// Per-server state: identifier point, owned segment, neighbor table.
#[derive(Clone, Debug)]
pub struct NodeState {
    /// This node's id.
    pub id: NodeId,
    /// The node's identifier point `x_i`.
    pub x: Point,
    /// The owned segment `s(x_i)`.
    pub segment: Interval,
    /// The neighbor table (excluding self), sorted by segment start.
    pub neighbors: Vec<Neighbor>,
}

impl NodeState {
    /// Does this node's own segment cover `p`?
    #[inline]
    pub fn covers(&self, p: Point) -> bool {
        self.segment.contains(p)
    }

    /// Find a table entry covering `p` (self excluded).
    ///
    /// The table is sorted by segment start and segments of distinct
    /// live servers are disjoint, so this is a binary search with two
    /// candidate probes: the entry with the greatest start `≤ p`, and —
    /// because exactly one segment of the network wraps through `0`,
    /// and that segment has the greatest start of all — the last entry.
    pub fn neighbor_covering(&self, p: Point) -> Option<NodeId> {
        let nbs = &self.neighbors;
        let last = nbs.last()?;
        let idx = nbs.partition_point(|nb| nb.segment.start().bits() <= p.bits());
        let cand = if idx > 0 { &nbs[idx - 1] } else { last };
        if cand.segment.contains(p) {
            return Some(cand.id);
        }
        if last.segment.contains(p) {
            return Some(last.id);
        }
        None
    }

    /// Degree (table size).
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }
}

/// Reusable buffers for the churn machinery, owned by the network so
/// that join/leave allocate nothing in the steady state.
#[derive(Default)]
struct ChurnScratch {
    /// Freshly derived neighbor ids (sorted by identifier point).
    ids: Vec<NodeId>,
    /// Nodes whose tables must be rebuilt by the current operation.
    affected: Vec<NodeId>,
    /// Continuous edge-image arcs of the segment being (re)derived.
    arcs: Vec<Interval>,
}

/// The discrete network of a [`ContinuousGraph`] — the
/// continuous-discrete recipe with dynamic membership, generic over
/// the instance. See the module docs.
pub struct CdNetwork<G: ContinuousGraph> {
    graph: G,
    nodes: Vec<Option<NodeState>>,
    free: Vec<u32>,
    /// Sorted map from identifier-point bits to node; used only for
    /// *point* queries (`cover_of` and join collision checks).
    registry: BTreeMap<u64, NodeId>,
    /// Live node ids, unordered, for O(1) random sampling.
    live: Vec<NodeId>,
    /// Position of each node in `live` (slab-indexed).
    live_pos: Vec<u32>,
    /// Ring successor of each node (slab-indexed) — O(1) topology.
    succ: Vec<NodeId>,
    /// Ring predecessor of each node (slab-indexed).
    pred: Vec<NodeId>,
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
    /// array: each arc query is a binary search on a flat `u64` slice
    /// plus a forward walk, instead of `n` independent rebuilds probing
    /// the `BTreeMap` oracle. Node `i` is the `i`-th point in sorted
    /// order, so ring pointers are index arithmetic.
    pub fn build(graph: G, points: &PointSet) -> Self {
        let n = points.len();
        let bits: Vec<u64> = points.points().iter().map(|p| p.bits()).collect();
        // cover(b): index of the segment containing the point `b` —
        // greatest i with bits[i] ≤ b, wrapping to the last segment.
        let cover = |b: u64| -> usize {
            match bits.binary_search(&b) {
                Ok(i) => i,
                Err(0) => n - 1,
                Err(i) => i - 1,
            }
        };
        // Collect the indices whose segments intersect `q`, exactly as
        // `covers_of_arc` does on the live network.
        let collect = |q: &Interval, out: &mut Vec<u32>| {
            let first = cover(q.start().bits());
            out.push(first as u32);
            let mut cur = (first + 1) % n;
            while cur != first && q.contains(CPoint(bits[cur])) {
                out.push(cur as u32);
                cur = (cur + 1) % n;
            }
        };
        // One sweep over the sorted identifier array: node `i`'s sorted
        // neighbor ids land in `flat[offs[i]..offs[i + 1]]` (CSR).
        let mut flat: Vec<u32> = Vec::with_capacity(n * (graph.delta() as usize + 4));
        let mut offs: Vec<usize> = Vec::with_capacity(n + 1);
        offs.push(0);
        let mut ids: Vec<u32> = Vec::new();
        let mut arcs: Vec<Interval> = Vec::new();
        for i in 0..n {
            ids.clear();
            let seg = points.segment(i);
            arcs.clear();
            graph.edge_arcs(&seg, &mut arcs);
            for q in &arcs {
                collect(q, &mut ids);
            }
            ids.push(((i + 1) % n) as u32);
            ids.push(((i + n - 1) % n) as u32);
            ids.sort_unstable();
            ids.dedup();
            if let Ok(pos) = ids.binary_search(&(i as u32)) {
                ids.remove(pos);
            }
            flat.extend_from_slice(&ids);
            offs.push(flat.len());
        }
        // Materialize node state. Index order is identifier order, so
        // the id lists are already sorted by segment start.
        let nodes: Vec<Option<NodeState>> = (0..n)
            .map(|i| {
                let neighbors: Vec<Neighbor> = flat[offs[i]..offs[i + 1]]
                    .iter()
                    .map(|&j| Neighbor { id: NodeId(j), segment: points.segment(j as usize) })
                    .collect();
                Some(NodeState {
                    id: NodeId(i as u32),
                    x: points.point(i),
                    segment: points.segment(i),
                    neighbors,
                })
            })
            .collect();
        CdNetwork {
            graph,
            nodes,
            free: Vec::new(),
            registry: bits.iter().enumerate().map(|(i, &b)| (b, NodeId(i as u32))).collect(),
            live: (0..n as u32).map(NodeId).collect(),
            live_pos: (0..n as u32).collect(),
            succ: (0..n).map(|i| NodeId(((i + 1) % n) as u32)).collect(),
            pred: (0..n).map(|i| NodeId(((i + n - 1) % n) as u32)).collect(),
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
        self.nodes.len()
    }

    /// The live node ids (unordered).
    #[inline]
    pub fn live(&self) -> &[NodeId] {
        &self.live
    }

    /// Borrow a node's state.
    #[inline]
    pub fn node(&self, id: NodeId) -> &NodeState {
        self.nodes[id.0 as usize].as_ref().expect("dangling NodeId")
    }

    fn node_mut(&mut self, id: NodeId) -> &mut NodeState {
        self.nodes[id.0 as usize].as_mut().expect("dangling NodeId")
    }

    /// The ring successor of a live node — O(1).
    #[inline]
    pub fn ring_succ(&self, id: NodeId) -> NodeId {
        self.succ[id.0 as usize]
    }

    /// The ring predecessor of a live node — O(1).
    #[inline]
    pub fn ring_pred(&self, id: NodeId) -> NodeId {
        self.pred[id.0 as usize]
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
            cur = self.succ[cur.0 as usize];
            if cur == primary {
                break;
            }
        }
    }

    /// Local routing primitive: the node covering `p`, *as visible from
    /// `cur`* — `cur` itself if its segment covers `p`, otherwise the
    /// entry of `cur`'s own neighbor table covering `p`, otherwise
    /// `None`. Higher-level protocols (lookups, caching, figures) build
    /// every hop from this, so routing never consults global state.
    pub fn local_cover(&self, cur: NodeId, p: Point) -> Option<NodeId> {
        let state = self.node(cur);
        if state.covers(p) {
            Some(cur)
        } else {
            state.neighbor_covering(p)
        }
    }

    // ------------------------------------------------------------------
    // Neighbor derivation
    // ------------------------------------------------------------------

    /// Append all nodes whose segments intersect the arc `q`: one
    /// registry seek for the arc start, then O(k) ring-pointer chasing.
    fn covers_of_arc_into(&self, q: &Interval, out: &mut Vec<NodeId>) {
        let first = self.cover_of(q.start());
        out.push(first);
        let mut cur = self.succ[first.0 as usize];
        while cur != first && q.contains(self.node(cur).x) {
            out.push(cur);
            cur = self.succ[cur.0 as usize];
        }
    }

    /// The live node whose point strictly follows `x` on the ring
    /// (registry walk — validation/tests only; protocol paths use
    /// [`Self::ring_succ`]).
    fn successor(&self, x: Point) -> (Point, NodeId) {
        use std::ops::Bound::{Excluded, Unbounded};
        if let Some((&bits, &id)) = self.registry.range((Excluded(x.bits()), Unbounded)).next() {
            (CPoint(bits), id)
        } else {
            let (&bits, &id) = self.registry.iter().next().expect("empty network");
            (CPoint(bits), id)
        }
    }

    /// The live node whose point strictly precedes `x` on the ring
    /// (registry walk — validation/tests only).
    fn predecessor(&self, x: Point) -> (Point, NodeId) {
        if let Some((&bits, &id)) = self.registry.range(..x.bits()).next_back() {
            (CPoint(bits), id)
        } else {
            let (&bits, &id) = self.registry.iter().next_back().expect("empty network");
            (CPoint(bits), id)
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
        out.push(self.succ[myself.0 as usize]);
        out.push(self.pred[myself.0 as usize]);
        out.sort_unstable_by_key(|id| self.node(*id).x.bits());
        out.dedup();
        out.retain(|&id| id != myself);
    }

    /// The servers whose tables list live node `v`, ascending by id,
    /// into `out`: the covers of `G::preimage_arcs(s(v))` plus the ring
    /// neighbours, each kept only if its table lists `v`. The arcs
    /// reach every such server (DESIGN §2), so the set is exact.
    fn watchers_into(&self, v: NodeId, out: &mut Vec<NodeId>, arcs: &mut Vec<Interval>) {
        let state = self.node(v);
        out.clear();
        arcs.clear();
        self.graph.preimage_arcs(&state.segment, arcs);
        for q in arcs.iter() {
            self.covers_of_arc_into(q, out);
        }
        out.push(self.succ[v.0 as usize]);
        out.push(self.pred[v.0 as usize]);
        out.sort_unstable();
        out.dedup();
        out.retain(|&u| u != v && self.node(u).neighbor_covering(state.x) == Some(v));
    }

    /// The servers whose tables list live node `v`, ascending by id —
    /// the receivers of a `NeighborDiff` when `v`'s segment changes.
    pub fn watchers(&self, v: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.watchers_into(v, &mut out, &mut Vec::new());
        out
    }

    /// Recompute one node's table from its current segment and rewrite
    /// it in place. Steady-state allocation-free: all intermediates live
    /// in [`ChurnScratch`].
    fn rebuild_table(&mut self, id: NodeId) {
        let mut ids = mem::take(&mut self.scratch.ids);
        let mut arcs = mem::take(&mut self.scratch.arcs);
        let seg = self.node(id).segment;
        self.derive_into(&seg, id, &mut ids, &mut arcs);
        let mut table = mem::take(&mut self.node_mut(id).neighbors);
        table.clear();
        table.extend(ids.iter().map(|&nb| Neighbor { id: nb, segment: self.node(nb).segment }));
        self.node_mut(id).neighbors = table;
        self.scratch.ids = ids;
        self.scratch.arcs = arcs;
    }

    /// Rebuild the tables listed in `scratch.affected` (deduplicated).
    fn rebuild_affected(&mut self) {
        let mut affected = mem::take(&mut self.scratch.affected);
        affected.sort_unstable();
        affected.dedup();
        for &a in &affected {
            self.rebuild_table(a);
        }
        affected.clear();
        self.scratch.affected = affected;
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
        let old_seg = self.node(old).segment;
        let (keep, give) = old_seg.split(x);
        // affected: old and everyone watching it, derived before mutation
        let mut scratch = mem::take(&mut self.scratch);
        self.watchers_into(old, &mut scratch.affected, &mut scratch.arcs);
        scratch.affected.push(old);
        self.scratch = scratch;
        // allocate
        let id = match self.free.pop() {
            Some(slot) => {
                let id = NodeId(slot);
                self.nodes[slot as usize] =
                    Some(NodeState { id, x, segment: give, neighbors: Vec::new() });
                id
            }
            None => {
                let id = NodeId(self.nodes.len() as u32);
                self.nodes.push(Some(NodeState { id, x, segment: give, neighbors: Vec::new() }));
                self.live_pos.push(0);
                self.succ.push(id);
                self.pred.push(id);
                id
            }
        };
        self.registry.insert(x.bits(), id);
        self.live_pos[id.0 as usize] = self.live.len() as u32;
        self.live.push(id);
        // splice into the ring: old → id → old's former successor
        let after = self.succ[old.0 as usize];
        self.succ[old.0 as usize] = id;
        self.pred[id.0 as usize] = old;
        self.succ[id.0 as usize] = after;
        self.pred[after.0 as usize] = id;
        self.node_mut(old).segment = keep;
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
        let x = self.node(id).x;
        let seg = self.node(id).segment;
        let pred = self.pred[id.0 as usize];
        debug_assert_ne!(pred, id);
        // affected set, derived before mutation (scratch.ids is free
        // here — rebuilds happen only at the end of leave)
        let mut scratch = mem::take(&mut self.scratch);
        let ChurnScratch { ids: of_pred, affected, arcs } = &mut scratch;
        self.watchers_into(id, affected, arcs);
        self.watchers_into(pred, of_pred, arcs);
        affected.extend(of_pred.iter().copied().filter(|&a| a != id));
        affected.push(pred);
        self.scratch = scratch;
        // pred absorbs the segment
        let pred_seg = self.node(pred).segment;
        let merged =
            Interval::new(pred_seg.start(), (pred_seg.len() + seg.len()).min(cd_core::interval::FULL));
        self.node_mut(pred).segment = merged;
        // unsplice the ring
        let after = self.succ[id.0 as usize];
        self.succ[pred.0 as usize] = after;
        self.pred[after.0 as usize] = pred;
        // unregister
        self.registry.remove(&x.bits());
        let pos = self.live_pos[id.0 as usize] as usize;
        self.live.swap_remove(pos);
        if pos < self.live.len() {
            let moved_id = self.live[pos];
            self.live_pos[moved_id.0 as usize] = pos as u32;
        }
        self.nodes[id.0 as usize] = None;
        self.free.push(id.0);
        self.rebuild_affected();
    }

    // ------------------------------------------------------------------
    // Validation
    // ------------------------------------------------------------------

    /// Check global invariants (used by tests after churn):
    /// segments tile the circle, registry and ring pointers agree with
    /// node state, tables match fresh derivation and are sorted, and
    /// [`Self::watchers`] equals a reverse scan of every table.
    pub fn validate(&self) {
        // segments tile; ring pointers agree with the registry order
        let mut total: u128 = 0;
        for &id in &self.live {
            let n = self.node(id);
            assert_eq!(n.segment.start(), n.x, "segment must start at x");
            let (sx, s_id) = self.successor(n.x);
            assert_eq!(n.segment.end(), sx, "segment must end at successor");
            assert_eq!(
                self.succ[id.0 as usize], s_id,
                "ring successor pointer of {id} disagrees with registry"
            );
            let (_, p_id) = self.predecessor(n.x);
            assert_eq!(
                self.pred[id.0 as usize], p_id,
                "ring predecessor pointer of {id} disagrees with registry"
            );
            assert_eq!(
                self.pred[self.succ[id.0 as usize].0 as usize],
                id,
                "ring pointers of {id} are not mutually inverse"
            );
            total += n.segment.len();
        }
        assert_eq!(total, cd_core::interval::FULL, "segments must tile the circle");
        // tables match derivation and stay sorted
        let mut fresh: Vec<NodeId> = Vec::new();
        let mut arcs: Vec<Interval> = Vec::new();
        for &id in &self.live {
            self.derive_into(&self.node(id).segment, id, &mut fresh, &mut arcs);
            let actual: Vec<NodeId> = self.node(id).neighbors.iter().map(|nb| nb.id).collect();
            assert_eq!(actual, fresh, "stale table on {id}");
            for w in self.node(id).neighbors.windows(2) {
                assert!(
                    w[0].segment.start().bits() < w[1].segment.start().bits(),
                    "table of {id} is not sorted by segment start"
                );
            }
            for nb in &self.node(id).neighbors {
                assert_eq!(
                    nb.segment,
                    self.node(nb.id).segment,
                    "stale segment info for {} in table of {id}",
                    nb.id
                );
            }
        }
        // derived watchers = a brute-force reverse scan of the tables
        let mut listed: Vec<Vec<NodeId>> = vec![Vec::new(); self.nodes.len()];
        for &id in &self.live {
            for nb in &self.node(id).neighbors {
                listed[nb.id.0 as usize].push(id);
            }
        }
        for &v in &self.live {
            let scan = &mut listed[v.0 as usize];
            scan.sort_unstable();
            self.watchers_into(v, &mut fresh, &mut arcs);
            assert_eq!(fresh, *scan, "derived watchers of {v} miss or add a table");
        }
    }

    /// The smoothness ρ of the live identifier set (max/min segment
    /// ratio, Definition 1). O(n).
    pub fn smoothness(&self) -> f64 {
        let mut min = u128::MAX;
        let mut max = 0u128;
        for &id in &self.live {
            let len = self.node(id).segment.len();
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
            for nb in &state.neighbors {
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
