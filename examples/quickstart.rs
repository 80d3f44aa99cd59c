//! Quickstart: build a Distance Halving DHT, store and retrieve items,
//! let servers join and leave, and watch the guarantees hold.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use bytes::Bytes;
use continuous_discrete::core::pointset::PointSet;
use continuous_discrete::core::rng::seeded;
use continuous_discrete::core::Point;
use continuous_discrete::dht::DhNetwork;
use continuous_discrete::proto::engine::RetryPolicy;
use continuous_discrete::proto::transport::Inline;
use continuous_discrete::replica::ReplicatedDht;
use rand::Rng;

fn main() {
    let mut rng = seeded(42);

    // 1. Bootstrap a 64-server network with random identifier points;
    //    every item is kept as one copy (m = k = 1) on the server
    //    covering its hashed location.
    let net = DhNetwork::new(&PointSet::random(64, &mut rng));
    let mut dht = ReplicatedDht::new(net, 1, 1, &mut rng);
    println!("built a Distance Halving DHT with {} servers", dht.net.len());

    // 2. Store a few items — each travels to the server covering its
    //    hashed location via the Distance Halving Lookup.
    for (key, value) in [(1u64, "alpha"), (2, "bravo"), (3, "charlie")] {
        let from = dht.net.random_node(&mut rng);
        let (out, _) =
            dht.put_over(from, key, Bytes::from(value), Inline, rng.gen(), RetryPolicy::default());
        println!(
            "put key {key} ({value:?}) from {} → {} in {} hops",
            from,
            out.path.destination(),
            out.path.hops()
        );
    }

    // 3. Retrieve from a different server.
    let from = dht.net.random_node(&mut rng);
    let (out, value) = dht.get_over(from, 2, Inline, rng.gen(), RetryPolicy::default());
    println!(
        "get key 2 from {} → {:?} in {} hops",
        from,
        value.expect("stored above"),
        out.path.hops()
    );

    // 4. Churn: servers join (splitting a segment) and leave (merging);
    //    each hands over the items whose covering server it changes.
    let mut wire = Inline;
    for i in 0..20 {
        let (host, kind) = (dht.net.random_node(&mut rng), dht.kind);
        dht.join_over(host, Point(rng.gen()), kind, i, &mut wire, RetryPolicy::default());
    }
    for i in 0..10 {
        let victim = dht.net.random_node(&mut rng);
        dht.leave_over(victim, &mut wire, 20 + i);
    }
    dht.net.validate();
    println!("after churn: {} servers; invariants hold", dht.net.len());

    // 5. Items survive churn.
    for key in [1u64, 2, 3] {
        let from = dht.net.random_node(&mut rng);
        assert!(dht.get(from, key, &mut rng).is_some(), "item {key} survived churn");
    }
    println!("all items survived churn");

    // 6. Degrees stay constant (Theorem 2.1/2.2) and lookups logarithmic.
    let (max_deg, avg_deg) = dht.net.degree_stats();
    println!("degrees: max {max_deg}, average {avg_deg:.1} (paper: O(ρ) and ≤ 6 + ring)");
}
