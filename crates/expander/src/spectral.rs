//! Expansion verification: spectral gap and sweep-cut conductance.
//!
//! For an undirected graph with adjacency lists, we estimate the second
//! eigenvalue of the normalized adjacency `M = D^{-1/2} A D^{-1/2}` by
//! power iteration on `(M + I)/2` with deflation of the trivial
//! eigenvector `D^{1/2}·1`. The *spectral gap* `1 − λ₂(M)` certifies
//! edge expansion via Cheeger: `gap/2 ≤ φ(G) ≤ √(2·gap)`; the sweep cut
//! over the iterated vector produces an explicit low-conductance cut
//! witnessing the upper bound.

use cd_core::rng::seeded;
use rand::Rng;

/// Result of the spectral analysis.
#[derive(Clone, Copy, Debug)]
pub struct SpectralReport {
    /// Estimated `λ₂` of the normalized adjacency (≤ 1).
    pub lambda2: f64,
    /// Spectral gap `1 − λ₂`.
    pub gap: f64,
    /// Minimum conductance over sweep cuts of the Fiedler-like vector
    /// (an upper bound for the graph's conductance).
    pub sweep_conductance: f64,
    /// Cheeger lower bound `gap / 2` for the conductance.
    pub cheeger_lower: f64,
}

/// Analyze an undirected graph. `adj` must be symmetric with min
/// degree ≥ 1 (parallel edges allowed; self-loops ignored).
pub fn analyze(adj: &[Vec<usize>], iters: usize, seed: u64) -> SpectralReport {
    let n = adj.len();
    assert!(n >= 2, "need at least two vertices");
    let deg: Vec<f64> = adj.iter().map(|a| a.len() as f64).collect();
    assert!(deg.iter().all(|&d| d >= 1.0), "isolated vertex");
    // trivial eigenvector v1 ∝ D^{1/2}·1
    let mut v1: Vec<f64> = deg.iter().map(|d| d.sqrt()).collect();
    normalize(&mut v1);
    // start vector: random, deflated
    let mut rng = seeded(seed);
    let mut x: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
    deflate(&mut x, &v1);
    normalize(&mut x);
    let mut lambda_shifted = 0.0f64;
    for _ in 0..iters {
        // y = (M + I)/2 · x, with M = D^{-1/2} A D^{-1/2}
        let mut y = vec![0.0f64; n];
        for (u, nbrs) in adj.iter().enumerate() {
            let du = deg[u].sqrt();
            for &v in nbrs {
                if v == u {
                    continue;
                }
                y[v] += x[u] / (du * deg[v].sqrt());
            }
        }
        for u in 0..n {
            y[u] = (y[u] + x[u]) / 2.0;
        }
        deflate(&mut y, &v1);
        let norm = normalize(&mut y);
        lambda_shifted = norm; // ‖(M+I)/2 · x‖ → |ν₂| for unit x
        x = y;
    }
    // Rayleigh quotient for the final vector (signed, more accurate)
    let lambda2 = 2.0 * rayleigh(adj, &deg, &x) - 1.0;
    let _ = lambda_shifted;
    let gap = 1.0 - lambda2;
    let sweep = sweep_conductance(adj, &deg, &x);
    SpectralReport { lambda2, gap, sweep_conductance: sweep, cheeger_lower: gap / 2.0 }
}

fn rayleigh(adj: &[Vec<usize>], deg: &[f64], x: &[f64]) -> f64 {
    // xᵀ (M+I)/2 x for unit x
    let mut acc = 0.0;
    for (u, nbrs) in adj.iter().enumerate() {
        let du = deg[u].sqrt();
        for &v in nbrs {
            if v == u {
                continue;
            }
            acc += x[u] * x[v] / (du * deg[v].sqrt());
        }
    }
    let m = acc; // xᵀMx
    (m + 1.0) / 2.0
}

fn deflate(x: &mut [f64], v1: &[f64]) {
    let dot: f64 = x.iter().zip(v1).map(|(a, b)| a * b).sum();
    for (xi, vi) in x.iter_mut().zip(v1) {
        *xi -= dot * vi;
    }
}

fn normalize(x: &mut [f64]) -> f64 {
    let norm = x.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm > 0.0 {
        for v in x.iter_mut() {
            *v /= norm;
        }
    }
    norm
}

/// Minimum conductance over the sweep cuts of `x/√deg` ordering.
pub fn sweep_conductance(adj: &[Vec<usize>], deg: &[f64], x: &[f64]) -> f64 {
    let n = adj.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let fa = x[a] / deg[a].sqrt();
        let fb = x[b] / deg[b].sqrt();
        fa.partial_cmp(&fb).expect("no NaN in eigenvector")
    });
    let total_vol: f64 = deg.iter().sum();
    let mut in_set = vec![false; n];
    let mut vol = 0.0f64;
    let mut cut = 0.0f64;
    let mut best = f64::INFINITY;
    for (k, &u) in order.iter().enumerate() {
        in_set[u] = true;
        vol += deg[u];
        let mut internal = 0.0;
        for &v in &adj[u] {
            if v != u && in_set[v] {
                internal += 1.0;
            }
        }
        cut += deg[u] - 2.0 * internal;
        if k + 1 < n {
            let denom = vol.min(total_vol - vol);
            if denom > 0.0 {
                best = best.min(cut / denom);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> Vec<Vec<usize>> {
        (0..n).map(|i| vec![(i + n - 1) % n, (i + 1) % n]).collect()
    }

    fn complete(n: usize) -> Vec<Vec<usize>> {
        (0..n).map(|i| (0..n).filter(|&j| j != i).collect()).collect()
    }

    #[test]
    fn complete_graph_has_big_gap() {
        // K_n: λ₂(M) = −1/(n−1) ⇒ gap ≈ 1 + 1/(n−1)
        let r = analyze(&complete(16), 200, 1);
        assert!(r.gap > 0.9, "gap {}", r.gap);
        assert!(r.sweep_conductance > 0.4);
    }

    #[test]
    fn cycle_has_vanishing_gap() {
        // C_n: λ₂ = cos(2π/n) ⇒ gap ≈ 2π²/n²
        let r32 = analyze(&cycle(32), 600, 2);
        let r64 = analyze(&cycle(64), 1200, 3);
        assert!(r32.gap < 0.1, "gap {}", r32.gap);
        assert!(r64.gap < r32.gap, "gap must shrink with n");
        // sweep cut finds the obvious bisection: conductance ≈ 2/n
        assert!(r64.sweep_conductance < 0.1);
    }

    #[test]
    fn gap_matches_cycle_closed_form() {
        let n = 24usize;
        let r = analyze(&cycle(n), 3000, 4);
        let expect = 1.0 - (2.0 * std::f64::consts::PI / n as f64).cos();
        assert!(
            (r.gap - expect).abs() < 0.02,
            "gap {} vs closed form {expect}",
            r.gap
        );
    }

    #[test]
    fn two_cliques_with_bridge_have_low_conductance() {
        // two K_8 joined by one edge: sweep must find the bridge
        let mut adj = vec![Vec::new(); 16];
        for i in 0..8 {
            for j in 0..8 {
                if i != j {
                    adj[i].push(j);
                    adj[8 + i].push(8 + j);
                }
            }
        }
        adj[0].push(8);
        adj[8].push(0);
        let r = analyze(&adj, 500, 5);
        assert!(r.sweep_conductance < 0.03, "sweep {}", r.sweep_conductance);
        assert!(r.gap < 0.1);
    }

    #[test]
    fn cheeger_sandwich_holds() {
        for (adj, seed) in [(complete(12), 7u64), (cycle(40), 8u64)] {
            let r = analyze(&adj, 800, seed);
            assert!(
                r.cheeger_lower <= r.sweep_conductance + 1e-6,
                "lower {} > witness {}",
                r.cheeger_lower,
                r.sweep_conductance
            );
            assert!(r.sweep_conductance <= (2.0 * r.gap).sqrt() + 0.05);
        }
    }
}
