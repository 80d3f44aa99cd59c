//! The Φ_k emulation of Section 7.
//!
//! Given a smooth point set `~x` (the hosts) and a guest family
//! `{G_k}`, server `V_i` simulates every guest node `u_j` with
//! `j/2^k ∈ s(x_i)`. Host edges are derived from guest edges through
//! the mapping; Theorem 7.1's quantities (guest nodes per host `g ≤
//! ρ·2^k/n + 1`, guest edges per host edge ≤ g², host degree ≤ g·d —
//! see the crate docs for why they are stated in `g`) are computed
//! exactly. A `step` method runs one round of a guest computation —
//! real-time emulation with constant slowdown.

use crate::families::GraphFamily;
use cd_core::point::Point;
use cd_core::pointset::PointSet;
use std::collections::{BTreeSet, HashMap};

/// A concrete emulation of `G_k` over a point set.
pub struct Emulation {
    /// The guest family.
    pub family: GraphFamily,
    /// The guest dimension `k` (guest has `2^k` nodes).
    pub k: u32,
    hosts: PointSet,
    /// Host index of every guest node.
    host_of: Vec<usize>,
}

/// Exact emulation statistics (the Theorem 7.1 quantities).
#[derive(Clone, Copy, Debug)]
pub struct EmulationStats {
    /// Max guest nodes simulated by one host, `g` (`≤ ρ·2^k/n + 1`).
    pub max_guests_per_host: usize,
    /// Max guest edges carried by one host edge (`≤ g²`).
    pub max_guest_edges_per_host_edge: usize,
    /// Max host degree induced by the emulation (`≤ g·d`).
    pub max_host_degree: usize,
    /// Smoothness of the host set.
    pub rho: f64,
}

impl Emulation {
    /// Map `G_⌈log n⌉` (or a chosen `k`) onto the hosts.
    pub fn new(family: GraphFamily, k: u32, hosts: PointSet) -> Self {
        assert!(k <= 26, "guest graphs larger than 2^26 are impractical here");
        let n_guest = 1u64 << k;
        let host_of = (0..n_guest)
            .map(|j| hosts.index_covering(Point::from_ratio(j, n_guest)))
            .collect();
        Emulation { family, k, hosts, host_of }
    }

    /// The paper's default dimension: `k = ⌈log₂ n⌉`.
    pub fn with_default_k(family: GraphFamily, hosts: PointSet) -> Self {
        let mut k = (hosts.len() as f64).log2().ceil() as u32;
        if family == GraphFamily::Torus && k % 2 == 1 {
            k += 1;
        }
        Self::new(family, k.max(2), hosts)
    }

    /// The host simulating guest node `j` (the mapping Φ_k).
    pub fn host_of(&self, guest: u64) -> usize {
        self.host_of[guest as usize]
    }

    /// Guest nodes simulated by host `i` (Φ_k⁻¹).
    pub fn guests_of(&self, host: usize) -> Vec<u64> {
        // guests are mapped in sorted point order; binary search the range
        (0..(1u64 << self.k)).filter(|&j| self.host_of[j as usize] == host).collect()
    }

    /// Host-level adjacency induced by the guest edges:
    /// `(V_a, V_b)` iff some guest edge maps to `(a, b)`, `a ≠ b`.
    pub fn host_adjacency(&self) -> Vec<BTreeSet<usize>> {
        let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); self.hosts.len()];
        let mut nbrs: Vec<u64> = Vec::new();
        for j in 0..(1u64 << self.k) {
            let a = self.host_of[j as usize];
            self.family.neighbors_into(self.k, j, &mut nbrs);
            for &v in &nbrs {
                let b = self.host_of[v as usize];
                if a != b {
                    adj[a].insert(b);
                    adj[b].insert(a);
                }
            }
        }
        adj
    }

    /// Exact Theorem 7.1 statistics.
    pub fn stats(&self) -> EmulationStats {
        let mut per_host = vec![0usize; self.hosts.len()];
        for &h in &self.host_of {
            per_host[h] += 1;
        }
        let mut per_edge: HashMap<(usize, usize), usize> = HashMap::new();
        let mut nbrs: Vec<u64> = Vec::new();
        for j in 0..(1u64 << self.k) {
            let a = self.host_of[j as usize];
            self.family.neighbors_into(self.k, j, &mut nbrs);
            for &v in &nbrs {
                if v < j {
                    continue; // count each guest edge once
                }
                let b = self.host_of[v as usize];
                if a != b {
                    let key = if a < b { (a, b) } else { (b, a) };
                    *per_edge.entry(key).or_insert(0) += 1;
                }
            }
        }
        let adj = self.host_adjacency();
        EmulationStats {
            max_guests_per_host: per_host.iter().copied().max().unwrap_or(0),
            max_guest_edges_per_host_edge: per_edge.values().copied().max().unwrap_or(0),
            max_host_degree: adj.iter().map(std::collections::BTreeSet::len).max().unwrap_or(0),
            rho: self.hosts.smoothness(),
        }
    }

    /// Run one synchronous round of a guest computation: every guest
    /// node's state is replaced by `f(u, own, neighbor states)`. This
    /// is the "real-time emulation" of the paper — each host performs
    /// the work of its ≤ ρ+1 guests, a constant slowdown. The
    /// adjacency and view buffers are reused across the whole sweep
    /// (`neighbors_into`), so the hot loop does not touch the
    /// allocator once warm.
    pub fn step<T: Clone>(
        &self,
        states: &[T],
        f: impl Fn(u64, &T, &[&T]) -> T,
    ) -> Vec<T> {
        let n = 1usize << self.k;
        assert_eq!(states.len(), n);
        let mut nbrs: Vec<u64> = Vec::new();
        let mut views: Vec<&T> = Vec::new();
        (0..n as u64)
            .map(|u| {
                self.family.neighbors_into(self.k, u, &mut nbrs);
                views.clear();
                views.extend(nbrs.iter().map(|&v| &states[v as usize]));
                f(u, &states[u as usize], &views)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cd_core::rng::seeded;

    #[test]
    fn theorem_7_1_bounds_on_smooth_hosts() {
        // evenly spaced hosts: ρ ≈ 1 ⇒ guests/host ≤ 2, host degree ≤ ~d
        let hosts = PointSet::evenly_spaced(64);
        for fam in [GraphFamily::DeBruijn, GraphFamily::ShuffleExchange, GraphFamily::Torus] {
            let emu = Emulation::with_default_k(fam, hosts.clone());
            let s = emu.stats();
            let rho = s.rho.max(1.0);
            assert!(
                s.max_guests_per_host as f64 <= (rho + 1.0).ceil() + 1.0,
                "{fam:?}: guests/host {} > ρ+1",
                s.max_guests_per_host
            );
            let d = fam.max_degree(emu.k) as f64;
            assert!(
                s.max_host_degree as f64 <= (rho + 1.0) * d + 1.0,
                "{fam:?}: host degree {} > ρ·d = {}",
                s.max_host_degree,
                rho * d
            );
            assert!(
                (s.max_guest_edges_per_host_edge as f64) <= rho.powi(2).ceil() + 2.0,
                "{fam:?}: edges/edge {}",
                s.max_guest_edges_per_host_edge
            );
        }
    }

    #[test]
    fn theorem_7_1_bounds_track_rho_on_random_hosts() {
        let mut rng = seeded(1);
        let hosts = PointSet::random(64, &mut rng);
        let emu = Emulation::with_default_k(GraphFamily::DeBruijn, hosts);
        let s = emu.stats();
        assert!(
            (s.max_guests_per_host as f64) <= s.rho + 2.0,
            "guests/host {} > ρ+1 = {}",
            s.max_guests_per_host,
            s.rho + 1.0
        );
    }

    #[test]
    fn every_guest_is_mapped() {
        let hosts = PointSet::evenly_spaced(20);
        let emu = Emulation::new(GraphFamily::Hypercube, 6, hosts);
        let total: usize = (0..20).map(|h| emu.guests_of(h).len()).sum();
        assert_eq!(total, 64);
        for j in 0..64u64 {
            assert!(emu.guests_of(emu.host_of(j)).contains(&j));
        }
    }

    #[test]
    fn real_time_emulation_computes_parity_flood() {
        // run max-propagation on the emulated hypercube: after k
        // rounds every node holds the global maximum
        let hosts = PointSet::evenly_spaced(16);
        let k = 4u32;
        let emu = Emulation::new(GraphFamily::Hypercube, k, hosts);
        let mut states: Vec<u64> = (0..(1 << k)).map(|i| (i * 37) % 101).collect();
        let expect = *states.iter().max().expect("nonempty");
        for _ in 0..k {
            states = emu.step(&states, |_, own, nbrs| {
                nbrs.iter().fold(*own, |m, &&v| m.max(v))
            });
        }
        assert!(states.iter().all(|&s| s == expect));
    }

    #[test]
    fn emulated_debruijn_matches_direct_dht_shape() {
        // the Section 2 construction *is* the Φ emulation of the
        // De Bruijn family on the same smooth set — host degree must
        // stay constant
        let hosts = PointSet::evenly_spaced(128);
        let emu = Emulation::new(GraphFamily::DeBruijn, 7, hosts);
        let s = emu.stats();
        assert!(s.max_host_degree <= 8, "host degree {}", s.max_host_degree);
    }
}
