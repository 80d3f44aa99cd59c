//! The determinism matrix of the multi-core execution layer: every
//! parallel driver must produce **bit-identical** results at 1, 2 and
//! 8 worker threads — routes, tables and batch metrics alike. The
//! thread pool only changes wall-clock, never results, because per-op
//! randomness is indexed (`sub_rng(seed, op)`), chunk boundaries are
//! fixed, and every merge restores index order.

use cd_core::graph::ChordLike;
use cd_core::pointset::PointSet;
use cd_core::rng::{seeded, sub_rng};
use cd_core::Point;
use dh_dht::driver::random_lookups;
use dh_dht::{CdNetwork, DhNetwork, LookupKind, NodeId, Route};
use rand::Rng;

const THREAD_MATRIX: [usize; 3] = [1, 2, 8];

/// Run `f` with the pool pinned to `threads` workers, restoring auto
/// detection afterwards. (Every parallel result in the workspace is
/// thread-count independent by design, so the global override racing
/// with concurrently running tests is harmless.)
fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::set_num_threads(threads);
    let out = f();
    rayon::set_num_threads(0);
    out
}

fn queries(net: &DhNetwork, m: usize, seed: u64) -> Vec<(NodeId, Point)> {
    let mut rng = seeded(seed);
    (0..m).map(|_| (net.random_node(&mut rng), Point(rng.gen()))).collect()
}

/// Flatten a route into comparable numbers.
fn route_key(r: &Route) -> (Vec<u32>, Vec<u64>, Option<usize>) {
    (
        r.nodes.iter().map(|n| n.0).collect(),
        r.points.iter().map(|p| p.bits()).collect(),
        r.phase2_start,
    )
}

#[test]
fn lookup_many_par_is_thread_count_independent_and_matches_sequential() {
    let mut rng = seeded(0xA11);
    let net = DhNetwork::new(&PointSet::random(512, &mut rng));
    let qs = queries(&net, 3_000, 0xA12);
    for kind in [LookupKind::Fast, LookupKind::DistanceHalving] {
        let runs: Vec<(usize, Vec<_>)> = THREAD_MATRIX
            .iter()
            .map(|&t| {
                with_threads(t, || {
                    let mut routes = Vec::with_capacity(qs.len());
                    let hops = net.lookup_many_par(kind, &qs, 0x5EED, |i, route| {
                        assert_eq!(i, routes.len(), "visit must arrive in query order");
                        routes.push(route_key(route));
                    });
                    (hops, routes)
                })
            })
            .collect();
        assert_eq!(runs[0], runs[1], "{kind}: 1 vs 2 threads diverged");
        assert_eq!(runs[0], runs[2], "{kind}: 1 vs 8 threads diverged");
        // and the parallel routes are the sequential per-query routes
        for (i, &(from, target)) in qs.iter().enumerate().step_by(97) {
            let reference = match kind {
                LookupKind::Fast => net.fast_lookup(from, target),
                LookupKind::DistanceHalving => {
                    net.dh_lookup(from, target, &mut sub_rng(0x5EED, i as u64))
                }
                LookupKind::Greedy => unreachable!(),
            };
            assert_eq!(runs[0].1[i], route_key(&reference), "query {i} diverged from sequential");
        }
    }
}

#[test]
fn lookup_many_par_greedy_matches_on_chord() {
    let mut rng = seeded(0xA21);
    let points = PointSet::random(256, &mut rng);
    let net = CdNetwork::build(ChordLike, &points);
    let mut qs = Vec::new();
    for _ in 0..1_500 {
        qs.push((net.random_node(&mut rng), Point(rng.gen())));
    }
    let per_thread: Vec<Vec<_>> = THREAD_MATRIX
        .iter()
        .map(|&t| {
            with_threads(t, || {
                let mut routes = Vec::new();
                net.lookup_many_par(LookupKind::Greedy, &qs, 0, |_, r| routes.push(route_key(r)));
                routes
            })
        })
        .collect();
    assert_eq!(per_thread[0], per_thread[1]);
    assert_eq!(per_thread[0], per_thread[2]);
    for (i, &(from, target)) in qs.iter().enumerate().step_by(131) {
        assert_eq!(per_thread[0][i], route_key(&net.greedy_lookup(from, target)));
    }
}

#[test]
fn bulk_build_is_thread_count_independent() {
    let mut rng = seeded(0xA31);
    let points = PointSet::random(9_000, &mut rng); // > 2 build chunks
    for delta in [2u32, 8] {
        let tables: Vec<Vec<Vec<u32>>> = THREAD_MATRIX
            .iter()
            .map(|&t| {
                with_threads(t, || {
                    let net = DhNetwork::with_delta(&points, delta);
                    net.live()
                        .iter()
                        .map(|&id| net.node(id).neighbors.iter().map(|nb| nb.id.0).collect())
                        .collect()
                })
            })
            .collect();
        assert_eq!(tables[0], tables[1], "∆={delta}: tables differ at 2 threads");
        assert_eq!(tables[0], tables[2], "∆={delta}: tables differ at 8 threads");
    }
}

#[test]
fn driver_batches_are_thread_count_independent() {
    // the e_scale-style workload through the rayon-pool driver
    let net = DhNetwork::new(&PointSet::evenly_spaced(256));
    let runs: Vec<_> = THREAD_MATRIX
        .iter()
        .map(|&t| {
            with_threads(t, || {
                let r = random_lookups(&net, LookupKind::DistanceHalving, 2_000, 0xBEE5);
                (r.path_lengths, r.loads, r.max_load, r.lookups)
            })
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[0], runs[2]);
}
