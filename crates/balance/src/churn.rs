//! Churn drivers: grow/shrink a ring under an ID-selection strategy and
//! record the smoothness trajectory — the measurement behind the E13–
//! E16 experiments.

use crate::ring::Ring;
use crate::strategy::IdStrategy;
use cd_core::interval::FULL;
use rand::Rng;

/// One sample of the smoothness trajectory.
#[derive(Clone, Copy, Debug)]
pub struct SmoothnessSample {
    /// Operation count at which the sample was taken.
    pub ops: usize,
    /// Number of servers at that moment.
    pub n: usize,
    /// Smoothness ρ.
    pub rho: f64,
    /// Max segment × n (should be Θ(log n) for single choice, Θ(1) for
    /// multiple choice).
    pub max_times_n: f64,
    /// Min segment × n.
    pub min_times_n: f64,
}

/// Alternate joins (with the strategy) and uniformly random leaves,
/// holding the population around `n`. This is the regime where the
/// pure join algorithms lose smoothness (§4.1's motivation).
pub fn churn_trajectory(
    strategy: IdStrategy,
    n: usize,
    ops: usize,
    sample_every: usize,
    rng: &mut impl Rng,
) -> Vec<SmoothnessSample> {
    let mut ring = Ring::new();
    while ring.len() < n {
        let id = strategy.choose(&ring, rng);
        ring.insert(id);
    }
    let mut samples = vec![sample(&ring, 0)];
    for i in 0..ops {
        if rng.gen_bool(0.5) && ring.len() > n / 2 {
            // uniformly random leave
            let k = rng.gen_range(0..ring.len());
            let victim = ring.iter().nth(k).expect("index in range");
            ring.remove(victim);
        } else {
            let id = strategy.choose(&ring, rng);
            ring.insert(id);
        }
        if (i + 1) % sample_every == 0 {
            samples.push(sample(&ring, i + 1));
        }
    }
    samples
}

fn sample(ring: &Ring, ops: usize) -> SmoothnessSample {
    let (min, max) = ring.min_max_segment();
    let n = ring.len();
    SmoothnessSample {
        ops,
        n,
        rho: max as f64 / min as f64,
        max_times_n: max as f64 / FULL as f64 * n as f64,
        min_times_n: min as f64 / FULL as f64 * n as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cd_core::rng::seeded;

    #[test]
    fn churn_degrades_multiple_choice_smoothness() {
        // §4.1: join-only algorithms do not survive deletions — ρ
        // drifts upward under churn. (This is the failure the bucket
        // scheme exists to fix.)
        let mut rng = seeded(2);
        let s = churn_trajectory(IdStrategy::MultipleChoice { t: 3 }, 512, 8000, 1000, &mut rng);
        let start_rho = s.first().expect("samples").rho;
        let end_rho = s.last().expect("samples").rho;
        // The threshold is relative to the post-growth smoothness so the
        // test is robust to the exact RNG stream.
        assert!(
            end_rho > start_rho * 1.3 && end_rho > 3.0,
            "expected smoothness to degrade under churn, got ρ = {start_rho} → {end_rho}"
        );
    }
}
