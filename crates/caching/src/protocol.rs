//! The discrete Continuous Hot Spots Protocol: requests are routed with
//! the Distance Halving Lookup; phase 2 climbs the item's path tree
//! toward the root and is served by the first active node it meets.
//! Server-level metrics (cache sizes, supplies, messages) are obtained
//! by mapping active tree nodes to the servers covering them, exactly
//! as Figure 3 of the paper illustrates.

use crate::tree::ActiveTree;
use cd_core::hashing::KWiseHash;
use cd_core::point::Point;
use cd_core::walk::TwoSidedWalk;
use cd_core::graph::{ContinuousGraph, DistanceHalving};
use dh_dht::{CdNetwork, NodeId};
use rand::Rng;
use std::collections::HashMap;

/// Outcome of one cached request.
#[derive(Clone, Debug)]
pub struct Served {
    /// The tree node (continuous point) that supplied the item.
    pub at: Point,
    /// Level of the supplying node in the path tree.
    pub level: u32,
    /// The server covering the supplying node.
    pub by: NodeId,
    /// Routing hops the request travelled before being served.
    pub hops: usize,
    /// The path-tree level at which phase 2 entered the climb (`t`).
    /// `level == entered_at` means the request was served at its entry
    /// point rather than after climbing through descendants.
    pub entered_at: u32,
}

/// End-of-epoch report.
#[derive(Clone, Debug)]
pub struct EpochReport {
    /// Active nodes removed by the collapse, summed over items.
    pub collapsed: usize,
    /// Active nodes remaining (including roots), summed over items.
    pub active_nodes: usize,
    /// Per-server count of distinct cached items (cache sizes),
    /// for servers with non-empty caches.
    pub cache_sizes: HashMap<NodeId, usize>,
}

/// A continuous-discrete DHT with the dynamic caching protocol.
///
/// The protocol state (an [`ActiveTree`] per item) is held centrally
/// for observability; every quantity a real deployment would hold
/// per-server (active nodes, hit counters) is keyed by the continuous
/// point the server covers, so the mapping server ↔ state is exactly
/// the paper's.
///
/// Generic over the continuous graph, but gated to **binary digit
/// instances** (`∆ = 2` with digit routing): the protocol is built on
/// the path tree — children of `z` are `ℓ(z)`/`r(z)` — and on the
/// phase-2 climb of the two-phase lookup, structures only those
/// graphs possess. `CdNetwork<DistanceHalving>` (the default) and
/// `CdNetwork<DeBruijn>` at ∆ = 2 qualify; the Chord-like instance
/// does not (its greedy routes have no leaf-to-root climb).
pub struct CachedDht<G: ContinuousGraph = DistanceHalving> {
    /// The overlay network (a binary digit instance).
    pub net: CdNetwork<G>,
    /// The item-placement hash.
    pub hash: KWiseHash,
    /// The replication threshold `c` (typically Θ(log n)).
    pub threshold: u64,
    trees: HashMap<u64, ActiveTree>,
    /// Per-server supplies this epoch (slab-indexed).
    supplies: Vec<u64>,
    /// Per-server messages handled this epoch (slab-indexed), including
    /// routing, replication and update messages.
    messages: Vec<u64>,
    /// Reusable two-sided walk (digit buffer) for the serve path.
    walk: TwoSidedWalk,
    /// Reusable phase-2 trace buffer for the serve path.
    trace: Vec<Point>,
}

impl<G: ContinuousGraph> CachedDht<G> {
    /// Wrap a binary digit-instance network. `threshold` is the
    /// protocol's `c`; the paper assumes `c = Ω(log n)`.
    pub fn new(net: CdNetwork<G>, hash: KWiseHash, threshold: u64) -> Self {
        assert!(
            net.graph().digit_routing() && net.delta() == 2,
            "the caching protocol runs on binary digit graphs (the ℓ/r path tree)"
        );
        assert!(threshold >= 1);
        let cap = net.slab_len();
        CachedDht {
            net,
            hash,
            threshold,
            trees: HashMap::new(),
            supplies: vec![0; cap],
            messages: vec![0; cap],
            walk: TwoSidedWalk::new(Point(0), Point(0), 2),
            trace: Vec::new(),
        }
    }

    fn charge(&mut self, id: NodeId, n: u64) {
        let idx = id.0 as usize;
        if self.messages.len() <= idx {
            self.messages.resize(idx + 1, 0);
            self.supplies.resize(idx + 1, 0);
        }
        self.messages[idx] += n;
    }

    /// The active tree of an item, if any requests have touched it.
    pub fn tree(&self, item: u64) -> Option<&ActiveTree> {
        self.trees.get(&item)
    }

    /// Request `item` from server `from` (one client request, §3.1).
    ///
    /// Routes exactly like the Distance Halving Lookup; during phase 2
    /// each server on the climb checks whether the tree node the
    /// message sits on is active in its cache, and serves the request
    /// at the first hit. The root (the item's owner) always serves as a
    /// last resort, so every request is answered.
    pub fn request(&mut self, from: NodeId, item: u64, rng: &mut impl Rng) -> Served {
        let y = self.hash.point(item);
        self.trees.entry(item).or_insert_with(|| ActiveTree::new(y));
        let x = self.net.node(from).x;
        // Take the reusable walk/trace buffers out of self so the
        // serve path can borrow the rest of the state mutably; restored
        // below (the std::mem dance keeps the hot path allocation-free).
        let mut walk = std::mem::replace(&mut self.walk, TwoSidedWalk::new(Point(0), Point(0), 2));
        let mut trace = std::mem::take(&mut self.trace);
        walk.reset(x, y, 2);
        let mut cur = from;
        let mut hops = 0usize;
        self.charge(from, 1);
        // phase 1
        loop {
            let q = walk.target();
            if let Some(next) = self.net.local_cover(cur, q) {
                if next != cur {
                    hops += 1;
                    self.charge(next, 1);
                }
                cur = next;
                break;
            }
            assert!(walk.steps() < 130, "phase 1 diverged");
            walk.step(rng);
            let next = self
                .net
                .local_cover(cur, walk.source())
                .expect("missing forward edge during caching walk");
            if next != cur {
                hops += 1;
                self.charge(next, 1);
            }
            cur = next;
        }
        // phase 2: climb q_t … q_0 = y, serve at the first active node
        walk.target_backtrace_into(&mut trace);
        let t = trace.len() - 1;
        let mut served = None;
        for (idx, &q) in trace.iter().enumerate() {
            if idx > 0 {
                let next = self
                    .net
                    .local_cover(cur, q)
                    .expect("missing backward edge during caching walk");
                if next != cur {
                    hops += 1;
                    self.charge(next, 1);
                }
                cur = next;
            }
            let level = (t - idx) as u32;
            if let Some(kids) = self.serve_probe(item, q) {
                if let Some(kids) = kids {
                    // one replication message to each child's server
                    for k in kids {
                        let owner = self.net.cover_of(k);
                        self.charge(owner, 1);
                    }
                }
                let idx_by = cur.0 as usize;
                if self.supplies.len() <= idx_by {
                    self.supplies.resize(idx_by + 1, 0);
                }
                self.supplies[idx_by] += 1;
                served = Some(Served { at: q, level, by: cur, hops, entered_at: t as u32 });
                break;
            }
        }
        self.walk = walk;
        self.trace = trace;
        served.expect("the root of an active tree is always active")
    }

    /// Probe the path-tree node `q` of `item`: `None` if it is not
    /// active (the climb continues); otherwise record the hit and serve
    /// the request here — `Some(kids)`, where `kids` are the two
    /// children the hit activated if it saturated the node (threshold
    /// `c` reached).
    fn serve_probe(&mut self, item: u64, q: Point) -> Option<Option<[Point; 2]>> {
        let tree = self.trees.get_mut(&item)?;
        if !tree.is_active(q) {
            return None;
        }
        Some((tree.record_hit(q) >= self.threshold).then(|| tree.activate_children(q)))
    }

    /// Propagate a content change from the owner down the active tree
    /// (§3.4 “Content Update”). Returns `(messages, parallel_depth)` —
    /// the paper's `O(log q/c)` message/time cost.
    pub fn update_item(&mut self, item: u64) -> (usize, u32) {
        let Some(tree) = self.trees.get(&item) else { return (0, 0) };
        let messages = tree.len() - 1; // one per non-root active node
        let depth = tree.depth();
        // charge the servers covering the active nodes
        let owners: Vec<NodeId> =
            tree.iter().filter(|n| n.level > 0).map(|n| self.net.cover_of(n.point)).collect();
        for o in owners {
            self.charge(o, 1);
        }
        (messages, depth)
    }

    /// Close the epoch: collapse every tree, reset counters, and report
    /// cache occupancy (Theorem 3.8 metrics).
    pub fn end_epoch(&mut self) -> EpochReport {
        let mut collapsed = 0usize;
        let mut active_nodes = 0usize;
        let mut cache_sizes: HashMap<NodeId, usize> = HashMap::new();
        let mut seen: HashMap<NodeId, u64> = HashMap::new();
        for (&item, tree) in self.trees.iter_mut() {
            collapsed += tree.collapse(self.threshold);
            active_nodes += tree.len();
            for node in tree.iter() {
                let owner = self.net.cover_of(node.point);
                // count each (server, item) pair once
                if seen.insert(owner, item).is_none_or(|prev| prev != item) {
                    *cache_sizes.entry(owner).or_insert(0) += 1;
                }
            }
        }
        self.supplies.iter_mut().for_each(|s| *s = 0);
        self.messages.iter_mut().for_each(|m| *m = 0);
        EpochReport { collapsed, active_nodes, cache_sizes }
    }

    /// Per-server supplies so far this epoch (live servers only).
    pub fn supplies(&self) -> Vec<(NodeId, u64)> {
        self.per_live(&self.supplies)
    }

    /// Per-server messages handled so far this epoch (live servers only).
    pub fn messages(&self) -> Vec<(NodeId, u64)> {
        self.per_live(&self.messages)
    }

    /// `counts` for every live server. `net` is public, so a server
    /// may have joined since the counters last grew: it reads 0.
    fn per_live(&self, counts: &[u64]) -> Vec<(NodeId, u64)> {
        let at = |id: NodeId| counts.get(id.0 as usize).copied().unwrap_or(0);
        self.net.live().iter().map(|&id| (id, at(id))).collect()
    }

    /// Per-server count of distinct cached items right now.
    pub fn cache_sizes(&self) -> HashMap<NodeId, usize> {
        let mut sizes: HashMap<NodeId, HashMap<u64, ()>> = HashMap::new();
        for (&item, tree) in &self.trees {
            for node in tree.iter() {
                let owner = self.net.cover_of(node.point);
                sizes.entry(owner).or_default().insert(item, ());
            }
        }
        sizes.into_iter().map(|(k, v)| (k, v.len())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cd_core::pointset::PointSet;
    use dh_dht::DhNetwork;
    use cd_core::rng::seeded;

    fn setup(n: usize, c: u64, seed: u64) -> (CachedDht, rand::rngs::StdRng) {
        let mut rng = seeded(seed);
        let net = DhNetwork::new(&PointSet::random(n, &mut rng));
        let hash = KWiseHash::new(16, &mut rng);
        (CachedDht::new(net, hash, c), rng)
    }

    #[test]
    fn accessors_cover_servers_joined_since_construction() {
        // the counters are sized at construction; a join through the
        // public `net` adds a slot past their end
        let (mut cache, mut rng) = setup(32, 4, 0x10);
        let newcomer = cache.net.join(Point(rng.gen())).expect("fresh identifier");
        for rows in [cache.supplies(), cache.messages()] {
            assert_eq!(rows.len(), 33);
            assert!(rows.contains(&(newcomer, 0)), "a newcomer starts at 0");
        }
        cache.request(newcomer, 5, &mut rng);
        let charged = cache.messages().into_iter().find(|&(id, _)| id == newcomer);
        assert!(charged.is_some_and(|(_, m)| m >= 1), "the request is charged to the newcomer");
    }

    #[test]
    fn binary_debruijn_instance_supports_caching() {
        // the protocol gate admits any binary digit instance, not just
        // the flagship type alias
        use cd_core::pointset::PointSet;
        let mut rng = seeded(0xDB);
        let net = CdNetwork::build(cd_core::graph::DeBruijn::new(2), &PointSet::random(128, &mut rng));
        let hash = KWiseHash::new(16, &mut rng);
        let mut cache = CachedDht::new(net, hash, 4);
        for _ in 0..120 {
            let from = cache.net.random_node(&mut rng);
            cache.request(from, 7, &mut rng);
        }
        let tree = cache.tree(7).expect("tree");
        tree.validate();
        assert!(tree.len() > 1, "tree must grow under load");
    }

    #[test]
    fn cold_item_is_served_by_owner() {
        let (mut cache, mut rng) = setup(64, 8, 1);
        let from = cache.net.random_node(&mut rng);
        let served = cache.request(from, 42, &mut rng);
        assert_eq!(served.level, 0, "first request must reach the root");
        let y = cache.hash.point(42);
        assert_eq!(served.by, cache.net.cover_of(y));
        assert_eq!(cache.tree(42).expect("tree exists").len(), 1);
    }

    #[test]
    fn hot_item_grows_the_active_tree() {
        let (mut cache, mut rng) = setup(128, 4, 2);
        for _ in 0..200 {
            let from = cache.net.random_node(&mut rng);
            cache.request(from, 7, &mut rng);
        }
        let tree = cache.tree(7).expect("tree exists");
        tree.validate();
        assert!(tree.len() > 1, "tree must grow under load");
        assert!(tree.depth() >= 1);
    }

    #[test]
    fn observation_3_1_tree_size_bounded() {
        // active tree ≤ 4q/c nodes after the epoch's collapse
        let (mut cache, mut rng) = setup(256, 8, 3);
        let q = 512usize;
        for _ in 0..q {
            let from = cache.net.random_node(&mut rng);
            cache.request(from, 99, &mut rng);
        }
        let report = cache.end_epoch();
        assert!(
            report.active_nodes <= 4 * q / 8,
            "active nodes {} > 4q/c = {}",
            report.active_nodes,
            4 * q / 8
        );
    }

    #[test]
    fn lemma_3_3_depth_is_log_q_over_c() {
        let (mut cache, mut rng) = setup(512, 8, 4);
        let q = 1024usize;
        for _ in 0..q {
            let from = cache.net.random_node(&mut rng);
            cache.request(from, 5, &mut rng);
        }
        let depth = cache.tree(5).expect("tree").depth();
        let bound = ((q as f64 / 8.0).log2() + 4.0) as u32;
        assert!(depth <= bound, "depth {depth} > log(q/c)+O(1) = {bound}");
    }

    #[test]
    fn nodes_serve_at_most_c_plus_entry_requests() {
        // Lemma 3.4(1): each cache hit count stays ≈ c — once a node
        // saturates it replicates and subsequent climbs stop below it.
        // The bound needs the active tree depth log(q/c) to sit below
        // the phase-2 entry level ≈ log n (requests that enter *at* an
        // active node are the `q·|s(V)|` term of Theorem 3.6), so pick
        // c large enough to separate the two scales, and a smooth set.
        let mut rng = seeded(5);
        let net = DhNetwork::new(&PointSet::evenly_spaced(256));
        let hash = KWiseHash::new(16, &mut rng);
        let c = 32u64;
        let mut cache = CachedDht::new(net, hash, c);
        // Lemma 3.4 bounds the hits a node receives *through its
        // children*; requests whose phase-2 entry point is the node
        // itself are the separate q·|s(V)| term of Theorem 3.6. Count
        // climb-through hits per node and check the ≤ c (+1) bound.
        let mut climb_hits: std::collections::HashMap<u64, u64> = Default::default();
        for _ in 0..600 {
            let from = cache.net.random_node(&mut rng);
            let served = cache.request(from, 1, &mut rng);
            if served.level < served.entered_at {
                *climb_hits.entry(served.at.bits()).or_insert(0) += 1;
            }
        }
        for (node, hits) in climb_hits {
            assert!(hits <= c + 1, "node {node:#x} served {hits} climb-through hits ≫ c = {c}");
        }
    }

    #[test]
    fn idle_epoch_collapses_to_root() {
        let (mut cache, mut rng) = setup(128, 4, 6);
        for _ in 0..150 {
            let from = cache.net.random_node(&mut rng);
            cache.request(from, 3, &mut rng);
        }
        assert!(cache.tree(3).expect("tree").len() > 1);
        cache.end_epoch(); // busy epoch ends; counters reset
        let report = cache.end_epoch(); // idle epoch: everything collapses
        assert_eq!(report.active_nodes, 1, "idle tree must collapse to the root");
        assert_eq!(cache.tree(3).expect("tree").depth(), 0);
    }

    #[test]
    fn update_cost_tracks_tree_size() {
        let (mut cache, mut rng) = setup(128, 4, 7);
        for _ in 0..200 {
            let from = cache.net.random_node(&mut rng);
            cache.request(from, 11, &mut rng);
        }
        let tree_len = cache.tree(11).expect("tree").len();
        let tree_depth = cache.tree(11).expect("tree").depth();
        let (messages, depth) = cache.update_item(11);
        assert_eq!(messages, tree_len - 1);
        assert_eq!(depth, tree_depth);
    }

    #[test]
    fn every_request_is_served_with_bounded_hops() {
        let (mut cache, mut rng) = setup(256, 8, 8);
        let bound = 2.0 * 256f64.log2() + 2.0 * 10.0; // 2log n + 2log ρ slack
        for item in 0..20u64 {
            for _ in 0..30 {
                let from = cache.net.random_node(&mut rng);
                let served = cache.request(from, item, &mut rng);
                assert!(
                    (served.hops as f64) <= bound,
                    "caching must add no routing delay: {} hops",
                    served.hops
                );
            }
        }
    }

    #[test]
    fn multiple_hotspots_keep_caches_small() {
        // Theorem 3.8(i) shape: n requests spread over items ⇒ max
        // cache size O(log n).
        let n = 256usize;
        let (mut cache, mut rng) = setup(n, 8, 9);
        // adversarial-ish demand: a few very hot items + a tail
        let demands: Vec<(u64, usize)> =
            vec![(0, 64), (1, 64), (2, 32), (3, 32), (4, 16), (5, 16), (6, 16), (7, 16)];
        for (item, q) in demands {
            for _ in 0..q {
                let from = cache.net.random_node(&mut rng);
                cache.request(from, item, &mut rng);
            }
        }
        let sizes = cache.cache_sizes();
        let max_size = sizes.values().copied().max().unwrap_or(0);
        let logn = (n as f64).log2();
        assert!(
            (max_size as f64) <= 3.0 * logn,
            "max cache size {max_size} not O(log n) = {logn:.1}"
        );
    }
}
