//! Deterministic randomness plumbing.
//!
//! Every experiment in the repository is seeded so that results are
//! exactly reproducible. Batch drivers derive per-index sub-seeds
//! with SplitMix64 so that the set of random choices is independent of
//! iteration order.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// A seeded standard RNG.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// SplitMix64 — used to derive statistically independent sub-seeds.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `i`-th sub-seed of a master seed.
pub fn subseed(master: u64, i: u64) -> u64 {
    splitmix64(master ^ splitmix64(i.wrapping_add(0xA076_1D64_78BD_642F)))
}

/// A sub-RNG for worker `i` of a seeded experiment.
pub fn sub_rng(master: u64, i: u64) -> StdRng {
    seeded(subseed(master, i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn seeded_is_deterministic() {
        let a: u64 = seeded(5).gen();
        let b: u64 = seeded(5).gen();
        assert_eq!(a, b);
    }

    #[test]
    fn subseeds_differ() {
        let s: Vec<u64> = (0..100).map(|i| subseed(7, i)).collect();
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), s.len(), "subseeds must be distinct");
    }

    #[test]
    fn splitmix_known_vector() {
        // Reference value from the SplitMix64 reference implementation
        // (seed 0 first output).
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
    }
}
