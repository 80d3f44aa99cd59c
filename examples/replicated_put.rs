//! Durability on the wire: store an item as 8 Reed-Solomon shares on
//! its §6.2 cover clique, kill any 4 covers (m − k), and read it back
//! at quorum — then churn the network and watch repair put one share
//! on each cover that enters the clique.
//!
//! ```sh
//! cargo run --release --example replicated_put
//! ```

use continuous_discrete::core::pointset::PointSet;
use continuous_discrete::core::rng::seeded;
use continuous_discrete::core::Point;
use continuous_discrete::dht::DhNetwork;
use continuous_discrete::proto::engine::RetryPolicy;
use continuous_discrete::proto::transport::Inline;
use continuous_discrete::proto::ChaosNet;
use continuous_discrete::replica::ReplicatedDht;
use bytes::Bytes;
use rand::Rng;

fn main() {
    let mut rng = seeded(42);
    let n = 1_024usize;
    let net = DhNetwork::new(&PointSet::random(n, &mut rng));
    let (m, k) = (8u8, 4u8);
    let mut store = ReplicatedDht::new(net, m, k, &mut rng);
    println!("replicated store on {n} servers: m = {m} shares per item, any k = {k} reconstruct");

    // a routed PutShares op: lookup to the clique, a StoreShare to every
    // cover, acks asked of k − 1 of them, completes at k acks — every
    // message modeled and priced
    let from = store.net.random_node(&mut rng);
    let key = 7u64;
    let value = Bytes::from_static(b"the data stored by any small subset of the servers suffices");
    let placed = store.put(from, key, value.clone(), &mut rng);
    let clique = store.clique(key);
    println!("put: {placed} sealed shares placed on the cover clique {clique:?}");

    // disaster: any m − k covers fail-stop — the primary included
    let dead: Vec<_> = clique.iter().take((m - k) as usize).copied().collect();
    let make_faulty = |_: usize| {
        let mut f = ChaosNet::new(Inline, 0);
        for &d in &dead {
            f.fail(d);
        }
        f
    };
    println!("fail-stopping {} covers (the primary among them): {dead:?}", dead.len());
    let reader = loop {
        let c = store.net.random_node(&mut rng);
        if !dead.contains(&c) {
            break c;
        }
    };
    let retry = RetryPolicy::fixed(256, 6);
    let got = store
        .get_quorum(reader, key, make_faulty, 0xD00D, retry)
        .expect("k live covers are a read quorum");
    assert_eq!(got, value);
    println!("quorum read reconstructed the item from {k} of the surviving covers\n");

    // churn: the dead covers really leave, new servers join — repair
    // (hooked into the wire-churn entry points) gives every cover that
    // enters the clique one share: rebuilt for a leave, handed over by
    // the member it pushed out for a join
    let mut transport = Inline;
    let mut placed_by_repair = 0usize;
    for (i, &d) in dead.iter().enumerate() {
        let (_, report) = store.leave_over(d, &mut transport, i as u64);
        placed_by_repair += report.shares_rebuilt;
        assert_eq!(report.items_lost, 0);
    }
    for i in 0..4u64 {
        let host = store.net.random_node(&mut rng);
        let kind = store.kind;
        if let Some((_, _, report)) =
            store.join_over(host, Point(rng.gen()), kind, i, &mut transport, retry)
        {
            placed_by_repair += report.shares_rebuilt;
        }
    }
    println!("churned {} leaves + 4 joins; repair placed {placed_by_repair} shares", dead.len());

    let got = store.get(reader, key, &mut rng).expect("still readable");
    assert_eq!(got, value);
    println!("item still reconstructs at quorum on the churned network — self-healing works");
}
