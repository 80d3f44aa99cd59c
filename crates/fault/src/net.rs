//! The overlapping discretisation `G` of §6.2.
//!
//! Construction (Join Algorithm of §6.2, executed for all servers):
//! `x_i` uniform; `α_i = log₂(1/d(x_i, pred))` estimates `log n`
//! within a multiplicative factor (Lemma 6.2 band); `y_i` is chosen so
//! that `[x_i, y_i]` contains exactly `⌈α_i⌉` other identifier points,
//! which makes `|s(V_i)| = Θ(log n / n)` w.h.p. (Property II).
//!
//! Edges: `V_i ~ V_j` iff their segments are connected in the
//! continuous graph (`ℓ/r/b` images intersect) **or overlap**. Every
//! point is covered by `Θ(log n)` servers, every server has degree
//! `Θ(log n)`.

use cd_core::interval::Interval;
use cd_core::point::Point;
use rand::Rng;
use std::collections::BTreeSet;

/// Handle to a server of the overlapping network.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct OverlapNodeId(pub u32);

// Since the protocol-API redesign the failure models are transport
// behaviors (`dh_proto::ChaosNet` wraps any transport with them for the
// plain DH network); this crate re-exports the shared vocabulary and
// keeps the §6 *overlapping discretisation*, which is a genuinely
// different topology rather than a failure mode.
pub use dh_proto::FaultModel;

/// One server.
#[derive(Clone, Debug)]
pub struct OverlapNode {
    /// Identifier point `x_i` (fixed).
    pub x: Point,
    /// Covered segment `[x_i, y_i]`.
    pub segment: Interval,
    /// Neighbor table.
    pub neighbors: Vec<OverlapNodeId>,
}

/// The overlapping Distance Halving network plus fault state.
pub struct OverlapNet {
    nodes: Vec<OverlapNode>,
    /// Identifier points sorted (bits, id) for cover queries.
    index: Vec<(u64, OverlapNodeId)>,
    /// Longest segment (bounds cover scans).
    max_seg: u128,
    /// Currently failed servers.
    pub failed: BTreeSet<OverlapNodeId>,
    /// Failure semantics for `failed` servers.
    pub model: FaultModel,
}

impl OverlapNet {
    /// Build an `n`-server network with uniformly random identifiers.
    pub fn build(n: usize, rng: &mut impl Rng) -> Self {
        assert!(n >= 8, "the overlap construction needs a few servers");
        let mut xs: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
        xs.sort_unstable();
        xs.dedup();
        while xs.len() < n {
            xs.push(rng.gen());
            xs.sort_unstable();
            xs.dedup();
        }
        Self::from_points(&xs)
    }

    /// Build from explicit (sorted, distinct) identifier points.
    pub fn from_points(xs: &[u64]) -> Self {
        let n = xs.len();
        let mut nodes: Vec<OverlapNode> = Vec::with_capacity(n);
        for i in 0..n {
            let x = Point(xs[i]);
            let pred = Point(xs[(i + n - 1) % n]);
            let d = x.offset_from(pred).max(1);
            // α_i: the local log n estimate (Lemma 6.2)
            let alpha = ((u64::MAX as f64 / d as f64).log2().ceil() as usize).clamp(1, n - 1);
            // y_i: the α_i-th successor ⇒ the segment contains exactly
            // α_i other identifier points
            let y = Point(xs[(i + alpha) % n]);
            let len = y.offset_from(x).max(1);
            nodes.push(OverlapNode {
                x,
                segment: Interval::new(x, len as u128),
                neighbors: Vec::new(),
            });
        }
        let index: Vec<(u64, OverlapNodeId)> =
            xs.iter().enumerate().map(|(i, &b)| (b, OverlapNodeId(i as u32))).collect();
        let max_seg = nodes.iter().map(|nd| nd.segment.len()).max().expect("nonempty");
        let mut net =
            OverlapNet { nodes, index, max_seg, failed: BTreeSet::new(), model: FaultModel::FailStop };
        for i in 0..n {
            let id = OverlapNodeId(i as u32);
            net.nodes[i].neighbors = net.derive_neighbors(id);
        }
        net
    }

    /// Number of servers (live and failed).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff no servers.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrow a node.
    pub fn node(&self, id: OverlapNodeId) -> &OverlapNode {
        &self.nodes[id.0 as usize]
    }

    /// Is the server alive (not failed)?
    pub fn alive(&self, id: OverlapNodeId) -> bool {
        !self.failed.contains(&id)
    }

    /// Fail each server independently with probability `p`
    /// (keeps the first live server guaranteed for experiment setup).
    pub fn fail_random(&mut self, p: f64, rng: &mut impl Rng) {
        self.failed.clear();
        for i in 0..self.nodes.len() {
            if rng.gen_bool(p) {
                self.failed.insert(OverlapNodeId(i as u32));
            }
        }
    }

    /// All servers covering point `p` (regardless of liveness).
    pub fn covers_of(&self, p: Point) -> Vec<OverlapNodeId> {
        // candidates have x ∈ (p − max_seg, p]; scan the sorted index
        let mut out = Vec::new();
        let n = self.index.len();
        let start = match self.index.binary_search_by_key(&p.bits(), |e| e.0) {
            Ok(i) => i,
            Err(0) => n - 1,
            Err(i) => i - 1,
        };
        let mut i = start;
        let mut scanned = 0usize;
        loop {
            let (_, id) = self.index[i];
            let seg = &self.nodes[id.0 as usize].segment;
            if seg.contains(p) {
                out.push(id);
            } else if (p.offset_from(Point(self.index[i].0)) as u128) > self.max_seg {
                break;
            }
            i = (i + n - 1) % n;
            scanned += 1;
            if scanned >= n {
                break;
            }
        }
        out
    }

    /// Derive the neighbor table of `id`: servers whose segments
    /// intersect `s`, `ℓ(s)`, `r(s)` or `b(s)`.
    fn derive_neighbors(&self, id: OverlapNodeId) -> Vec<OverlapNodeId> {
        let seg = self.nodes[id.0 as usize].segment;
        let mut ids: BTreeSet<OverlapNodeId> = BTreeSet::new();
        let mut arcs: Vec<Interval> = vec![seg];
        arcs.extend(seg.image_left().into_iter().flatten());
        arcs.extend(seg.image_right().into_iter().flatten());
        let b = seg.image_backward();
        arcs.push(Interval::new(
            b.start(),
            (b.len() + 2).min(cd_core::interval::FULL),
        ));
        for arc in arcs {
            ids.extend(self.intersecting(&arc));
        }
        ids.remove(&id);
        let mut v: Vec<OverlapNodeId> = ids.into_iter().collect();
        v.sort_unstable();
        v
    }

    /// Servers whose segment intersects the arc.
    fn intersecting(&self, arc: &Interval) -> Vec<OverlapNodeId> {
        // candidates: x ∈ (arc.start − max_seg, arc.end)
        let mut out = Vec::new();
        for &(_, id) in &self.index {
            if self.nodes[id.0 as usize].segment.intersects(arc) {
                out.push(id);
            }
        }
        out
    }

    /// Degree statistics `(max, mean)` — Θ(log n) by construction.
    pub fn degree_stats(&self) -> (usize, f64) {
        let max = self.nodes.iter().map(|n| n.neighbors.len()).max().unwrap_or(0);
        let sum: usize = self.nodes.iter().map(|n| n.neighbors.len()).sum();
        (max, sum as f64 / self.len() as f64)
    }

    /// Coverage statistics: `(min, mean)` number of servers covering a
    /// sample of random points — Θ(log n) by Property I+II.
    pub fn coverage_stats(&self, samples: usize, rng: &mut impl Rng) -> (usize, f64) {
        let mut min = usize::MAX;
        let mut sum = 0usize;
        for _ in 0..samples {
            let c = self.covers_of(Point(rng.gen())).len();
            min = min.min(c);
            sum += c;
        }
        (min, sum as f64 / samples as f64)
    }

    /// Validate: every neighbor relation is symmetric and every
    /// point's covers are mutual neighbors (the clique property §6.2
    /// uses for parallel access).
    pub fn validate(&self, rng: &mut impl Rng) {
        for (i, node) in self.nodes.iter().enumerate() {
            let id = OverlapNodeId(i as u32);
            for &nb in &node.neighbors {
                assert!(
                    self.nodes[nb.0 as usize].neighbors.contains(&id),
                    "asymmetric table {id:?} → {nb:?}"
                );
            }
        }
        for _ in 0..50 {
            let p = Point(rng.gen());
            let covers = self.covers_of(p);
            for &a in &covers {
                for &b in &covers {
                    if a != b {
                        assert!(
                            self.nodes[a.0 as usize].neighbors.contains(&b),
                            "covers of {p:?} are not a clique: {a:?} !~ {b:?}"
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cd_core::rng::seeded;

    #[test]
    fn coverage_is_logarithmic() {
        let mut rng = seeded(1);
        let n = 1024usize;
        let net = OverlapNet::build(n, &mut rng);
        let (min, mean) = net.coverage_stats(300, &mut rng);
        let logn = (n as f64).log2();
        assert!(min >= 2, "minimum coverage {min} too small");
        assert!(
            mean >= 0.5 * logn && mean <= 6.0 * logn,
            "mean coverage {mean} outside Θ(log n) = {logn}"
        );
    }

    #[test]
    fn degrees_are_logarithmic() {
        let mut rng = seeded(2);
        let n = 1024usize;
        let net = OverlapNet::build(n, &mut rng);
        let (max, mean) = net.degree_stats();
        let logn = (n as f64).log2();
        assert!(mean >= logn, "mean degree {mean} below log n");
        assert!(max as f64 <= 40.0 * logn, "max degree {max} ≫ log n");
    }

    #[test]
    fn structure_validates() {
        let mut rng = seeded(3);
        let net = OverlapNet::build(256, &mut rng);
        net.validate(&mut rng);
    }

    #[test]
    fn fail_random_hits_expected_fraction() {
        let mut rng = seeded(4);
        let mut net = OverlapNet::build(512, &mut rng);
        net.fail_random(0.3, &mut rng);
        let f = net.failed.len() as f64 / 512.0;
        assert!((f - 0.3).abs() < 0.08, "failure fraction {f}");
    }

    #[test]
    fn covers_of_matches_bruteforce() {
        let mut rng = seeded(5);
        let net = OverlapNet::build(128, &mut rng);
        for _ in 0..100 {
            let p = Point(rng.gen());
            let mut got = net.covers_of(p);
            got.sort_unstable();
            let mut want: Vec<OverlapNodeId> = (0..net.len() as u32)
                .map(OverlapNodeId)
                .filter(|id| net.node(*id).segment.contains(p))
                .collect();
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }
}
