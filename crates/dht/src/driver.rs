//! Workload drivers for the congestion and permutation-routing
//! experiments (Theorems 2.7, 2.9, 2.10, 2.11).
//!
//! A batch is a plain loop through one reused [`LookupScratch`] and
//! [`Route`]; lookup `i` draws its randomness from `sub_rng(seed, i)`
//! (SplitMix64-derived), so every result is a pure function of
//! `(network, seed)` whatever order the indices run in. Each server's
//! load — the messages it handles, the paper's congestion measure
//! (Definition 3) — is counted in a slab-indexed vector.

use crate::lookup::{LookupKind, LookupScratch, Route};
use crate::network::{CdNetwork, NodeId};
use cd_core::graph::ContinuousGraph;
use cd_core::point::Point;
use cd_core::rng::sub_rng;
use cd_core::stats::Summary;
use rand::rngs::StdRng;
use rand::Rng;

/// Result of a batch workload.
pub struct BatchResult {
    /// Path lengths (hops) of each lookup.
    pub path_lengths: Summary,
    /// Per-live-server loads.
    pub loads: Summary,
    /// Max load over servers.
    pub max_load: u64,
    /// Number of lookups executed.
    pub lookups: usize,
}

/// Run `m` lookups from random servers to uniformly random points.
/// This is the workload of Definition 3 / Theorems 2.7 and 2.9.
pub fn random_lookups<G: ContinuousGraph>(
    net: &CdNetwork<G>,
    kind: LookupKind,
    m: usize,
    seed: u64,
) -> BatchResult {
    batch(net, kind, m, seed, |_, rng| (net.random_node(rng), Point(rng.gen())))
}

/// Permutation routing (§2.2.3): a permutation `η` is sampled (or
/// supplied), and every server `V_i` simultaneously looks up a point in
/// `s(V_{η(i)})`. Theorem 2.10: with the Distance Halving lookup each
/// server handles `O(log n)` messages w.h.p.
pub fn permutation_routing<G: ContinuousGraph>(
    net: &CdNetwork<G>,
    kind: LookupKind,
    permutation: &[NodeId],
    seed: u64,
) -> BatchResult {
    let live = net.live();
    assert_eq!(permutation.len(), live.len(), "permutation arity mismatch");
    batch(net, kind, live.len(), seed, |i, rng| {
        // target: a random point inside the destination's segment
        let seg = net.node(permutation[i]).segment;
        let off = rng.gen_range(0..seg.len());
        (live[i], seg.start().wrapping_add(off as u64))
    })
}

/// The batch loop: lookup `i` runs between the `(from, target)` pair
/// that `pair(i, rng)` draws from `rng = sub_rng(seed, i)`, and every
/// server on its route is charged one message.
fn batch<G: ContinuousGraph>(
    net: &CdNetwork<G>,
    kind: LookupKind,
    m: usize,
    seed: u64,
    pair: impl Fn(usize, &mut StdRng) -> (NodeId, Point),
) -> BatchResult {
    let mut loads = vec![0u64; net.slab_len()];
    let mut scratch = LookupScratch::new();
    let mut route = Route::empty();
    let lengths: Vec<u64> = (0..m)
        .map(|i| {
            let mut rng = sub_rng(seed, i as u64);
            let (from, target) = pair(i, &mut rng);
            net.lookup_into(kind, from, target, &mut rng, &mut scratch, &mut route);
            for &id in &route.nodes {
                loads[id.0 as usize] += 1;
            }
            route.hops() as u64
        })
        .collect();
    let live: Vec<u64> = net.live().iter().map(|&id| loads[id.0 as usize]).collect();
    BatchResult {
        path_lengths: Summary::of_u64(lengths),
        max_load: live.iter().copied().max().unwrap_or(0),
        loads: Summary::of_u64(live),
        lookups: m,
    }
}

/// Sample a uniformly random permutation of the live servers.
pub fn random_permutation<G: ContinuousGraph>(net: &CdNetwork<G>, rng: &mut impl Rng) -> Vec<NodeId> {
    let mut perm: Vec<NodeId> = net.live().to_vec();
    // Fisher-Yates
    for i in (1..perm.len()).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    perm
}

/// The *reversal* permutation: server at rank `i` targets rank
/// `n−1−i`. A structured permutation exercising worst-case-style
/// traffic patterns for the ablation A1.
pub fn reversal_permutation<G: ContinuousGraph>(net: &CdNetwork<G>) -> Vec<NodeId> {
    let mut by_point: Vec<NodeId> = net.live().to_vec();
    by_point.sort_by_key(|&id| net.node(id).x);
    let target: std::collections::BTreeMap<NodeId, NodeId> =
        by_point.iter().zip(by_point.iter().rev()).map(|(&id, &mirror)| (id, mirror)).collect();
    net.live().iter().map(|id| target[id]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::DhNetwork;
    use cd_core::pointset::PointSet;
    use cd_core::rng::seeded;

    #[test]
    fn random_lookups_runs_and_counts() {
        let net = DhNetwork::new(&PointSet::evenly_spaced(64));
        let r = random_lookups(&net, LookupKind::DistanceHalving, 500, 42);
        assert_eq!(r.lookups, 500);
        assert!(r.path_lengths.max <= 2.0 * 6.0 + 3.0);
        assert!(r.max_load > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let net = DhNetwork::new(&PointSet::evenly_spaced(32));
        let a = random_lookups(&net, LookupKind::DistanceHalving, 200, 7);
        let b = random_lookups(&net, LookupKind::DistanceHalving, 200, 7);
        assert_eq!(a.path_lengths, b.path_lengths);
        assert_eq!(a.max_load, b.max_load);
    }

    #[test]
    fn permutation_routing_load_is_logarithmic() {
        // Theorem 2.10 sanity check at small n: max load O(log n).
        let n = 128usize;
        let net = DhNetwork::new(&PointSet::evenly_spaced(n));
        let mut rng = seeded(11);
        let perm = random_permutation(&net, &mut rng);
        let r = permutation_routing(&net, LookupKind::DistanceHalving, &perm, 13);
        let logn = (n as f64).log2();
        assert!(
            (r.max_load as f64) < 8.0 * logn,
            "max load {} not O(log n) = {logn:.1}",
            r.max_load
        );
    }

    #[test]
    fn reversal_permutation_is_a_permutation() {
        let mut rng = seeded(9);
        // joins append to live(), so the churned network's slab order
        // is not its ring order
        let mut churned = DhNetwork::new(&PointSet::random(32, &mut rng));
        for _ in 0..8 {
            churned.join(Point(rng.gen()));
        }
        for net in [DhNetwork::new(&PointSet::evenly_spaced(16)), churned] {
            let perm = reversal_permutation(&net);
            let n = net.len();
            let mut seen: Vec<u32> = perm.iter().map(|id| id.0).collect();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), n);
            // perm[i] is the ring-rank mirror of live()[i]
            let x = |id: NodeId| net.node(id).x;
            let rank = |id: NodeId| net.live().iter().filter(|&&v| x(v) < x(id)).count();
            for (i, &id) in net.live().iter().enumerate() {
                assert_eq!(rank(perm[i]), n - 1 - rank(id), "server {i}");
            }
        }
    }
}
