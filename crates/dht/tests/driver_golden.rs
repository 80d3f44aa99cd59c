//! Golden values for the batch workload drivers, captured at the
//! parent of the PR that turned them from pool fan-outs into plain
//! loops: every lookup draws from `sub_rng(seed, index)`, so the hop
//! and load totals below are a pure function of `(network, seed)` and
//! any change to the per-index seeding moves them.

use cd_core::pointset::PointSet;
use cd_core::rng::seeded;
use cd_core::stats::Summary;
use dh_dht::driver::{permutation_routing, random_lookups, random_permutation, BatchResult};
use dh_dht::{DhNetwork, LookupKind};

const N: usize = 1_024;
const M: usize = 2_000;
const SEED: u64 = 0xBEE5;

fn network() -> DhNetwork {
    DhNetwork::new(&PointSet::random(N, &mut seeded(SEED)))
}

/// Sum of an integer-valued sample, back out of its summary.
fn sum(s: &Summary) -> u64 {
    (s.mean * s.n as f64).round() as u64
}

/// `(Σ path lengths, max load, Σ loads)`.
fn totals(r: &BatchResult) -> (u64, u64, u64) {
    (sum(&r.path_lengths), r.max_load, sum(&r.loads))
}

#[test]
fn random_lookups_reproduce_the_parent_totals() {
    let net = network();
    let fast = random_lookups(&net, LookupKind::Fast, M, SEED);
    assert_eq!(fast.lookups, M);
    assert_eq!(totals(&fast), (18_979, 160, 20_979));
    let dh = random_lookups(&net, LookupKind::DistanceHalving, M, SEED);
    assert_eq!(dh.lookups, M);
    assert_eq!(totals(&dh), (29_938, 240, 31_938));
}

#[test]
fn permutation_routing_reproduces_the_parent_totals() {
    let net = network();
    let perm = random_permutation(&net, &mut seeded(SEED ^ 1));
    let fast = permutation_routing(&net, LookupKind::Fast, &perm, SEED);
    assert_eq!(fast.lookups, N);
    assert_eq!(totals(&fast), (9_588, 70, 10_612));
    let dh = permutation_routing(&net, LookupKind::DistanceHalving, &perm, SEED);
    assert_eq!(dh.lookups, N);
    assert_eq!(totals(&dh), (15_481, 123, 16_505));
}
