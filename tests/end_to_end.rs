//! Integration tests spanning crates: the full DHT stack (network +
//! storage + caching) under churn, and cross-checks between the
//! analysis view and the runtime network.

use bytes::Bytes;
use continuous_discrete::caching::CachedDht;
use continuous_discrete::core::hashing::KWiseHash;
use continuous_discrete::core::pointset::PointSet;
use continuous_discrete::core::rng::seeded;
use continuous_discrete::core::Point;
use continuous_discrete::dht::analysis::graph_stats;
use continuous_discrete::dht::driver::{permutation_routing, random_lookups, random_permutation};
use continuous_discrete::dht::{DhNetwork, LookupKind};
use continuous_discrete::proto::engine::RetryPolicy;
use continuous_discrete::proto::transport::Inline;
use continuous_discrete::replica::ReplicatedDht;
use rand::Rng;

#[test]
fn full_stack_storage_caching_churn() {
    let mut rng = seeded(0xE2E);
    let net = DhNetwork::new(&PointSet::random(128, &mut rng));
    // one copy per item on its covering server: §2.1's DHT
    let mut dht = ReplicatedDht::new(net, 1, 1, &mut rng);

    // store 64 items
    for key in 0..64u64 {
        let from = dht.net.random_node(&mut rng);
        dht.put(from, key, Bytes::from(key.to_le_bytes().to_vec()), &mut rng);
    }
    // heavy churn: every join and leave hands the items it moves over
    let mut wire = Inline;
    for i in 0..200u64 {
        if dht.net.len() > 16 && rng.gen_bool(0.5) {
            let v = dht.net.random_node(&mut rng);
            let (_, report) = dht.leave_over(v, &mut wire, i);
            assert_eq!(report.items_lost, 0);
        } else {
            let (host, kind) = (dht.net.random_node(&mut rng), dht.kind);
            dht.join_over(host, Point(rng.gen()), kind, i, &mut wire, RetryPolicy::default());
        }
    }
    dht.net.validate();
    // everything still retrievable, paths still logarithmic-ish
    let bound = 2.0 * (dht.net.len() as f64).log2() + 40.0;
    for key in 0..64u64 {
        let from = dht.net.random_node(&mut rng);
        let (out, value) = dht.get_over(from, key, Inline, rng.gen(), RetryPolicy::default());
        assert_eq!(value, Some(Bytes::from(key.to_le_bytes().to_vec())));
        assert!((out.path.hops() as f64) < bound);
    }
}

#[test]
fn analysis_agrees_with_runtime_network() {
    // the exact analysis (Theorems 2.1/2.2) and the runtime neighbor
    // tables must tell a consistent story: runtime tables contain the
    // analysis edges (they add the ring and backward slack, never less)
    let mut rng = seeded(0xA9A);
    let ps = PointSet::random(64, &mut rng);
    let net = DhNetwork::new(&ps);
    let stats = graph_stats(&ps, 2);
    let (runtime_max, _) = net.degree_stats();
    assert!(
        runtime_max + 1 >= stats.max_out_degree,
        "runtime tables ({runtime_max}) must cover the exact out-edges ({})",
        stats.max_out_degree
    );
    // every exact out-neighbor is present in the runtime table
    for i in 0..ps.len() {
        let x = ps.point(i);
        let id = net.cover_of(x);
        let table: Vec<_> = net.node(id).neighbors.iter().map(|nb| nb.id).collect();
        for j in continuous_discrete::dht::analysis::out_neighbors(&ps, i, 2) {
            if j == i {
                continue;
            }
            let jid = net.cover_of(ps.point(j));
            assert!(
                table.contains(&jid) || jid == id,
                "exact edge {i}→{j} missing from runtime table"
            );
        }
    }
}

#[test]
fn caching_on_top_of_balanced_ids() {
    // balance + caching together: multiple-choice IDs give a smooth
    // network on which the caching bounds are tight
    let mut rng = seeded(0xCAC);
    let ring = continuous_discrete::balance::IdStrategy::MultipleChoice { t: 3 }
        .build_ring(256, &mut rng);
    let hosts = PointSet::new(ring.iter().collect());
    assert!(hosts.smoothness() <= 32.0);
    let net = DhNetwork::new(&hosts);
    let hash = KWiseHash::new(16, &mut rng);
    let mut cache = CachedDht::new(net, hash, 8);
    for _ in 0..300 {
        let from = cache.net.random_node(&mut rng);
        let served = cache.request(from, 5, &mut rng);
        assert!(served.hops <= 2 * 8 + 6, "hops {}", served.hops);
    }
    let tree = cache.tree(5).expect("tree exists");
    tree.validate();
    assert!(tree.len() > 1);
}

#[test]
fn permutation_routing_beats_averaging_bound() {
    let n = 256usize;
    let net = DhNetwork::new(&PointSet::evenly_spaced(n));
    let mut rng = seeded(0x9E9);
    let perm = random_permutation(&net, &mut rng);
    let r = permutation_routing(&net, LookupKind::DistanceHalving, &perm, 77);
    // lower bound from the averaging argument: some server sees Ω(log n)
    let logn = (n as f64).log2();
    assert!(r.max_load as f64 >= logn / 4.0, "max load {} suspiciously small", r.max_load);
    assert!(r.max_load as f64 <= 8.0 * logn, "max load {} not O(log n)", r.max_load);
}

#[test]
fn lookup_kinds_agree_on_destination() {
    let mut rng = seeded(0xDE5);
    let net = DhNetwork::new(&PointSet::random(100, &mut rng));
    for _ in 0..100 {
        let from = net.random_node(&mut rng);
        let target = Point(rng.gen());
        let fast = net.fast_lookup(from, target);
        let dh = net.dh_lookup(from, target, &mut rng);
        assert_eq!(fast.destination(), dh.destination());
        assert_eq!(fast.destination(), net.cover_of(target));
    }
}

#[test]
fn parallel_driver_matches_sequential_destinations() {
    // the batch driver must produce the same deterministic result set
    let net = DhNetwork::new(&PointSet::evenly_spaced(64));
    let a = random_lookups(&net, LookupKind::DistanceHalving, 500, 31);
    let b = random_lookups(&net, LookupKind::DistanceHalving, 500, 31);
    assert_eq!(a.path_lengths, b.path_lengths);
    assert_eq!(a.max_load, b.max_load);
}
