//! Resilient lookups: the overlapping DHT of Section 6. A quarter of
//! the servers fail — some silently (fail-stop), later some lie (false
//! message injection) — and lookups keep reaching a live cover. (The
//! k-of-m erasure-coded storage of §6.2 under the same two adversaries
//! is `examples/replicated_put.rs`.)
//!
//! ```sh
//! cargo run --release --example resilient_store
//! ```

use continuous_discrete::core::rng::seeded;
use continuous_discrete::core::Point;
use continuous_discrete::fault::{FaultModel, OverlapNet, OverlapNodeId};
use rand::Rng;

/// A uniformly random live server.
fn live_node(net: &OverlapNet, rng: &mut impl Rng) -> OverlapNodeId {
    loop {
        let id = OverlapNodeId(rng.gen_range(0..net.len() as u32));
        if net.alive(id) {
            return id;
        }
    }
}

fn main() {
    let mut rng = seeded(13);
    let n = 1024usize;
    let mut net = OverlapNet::build(n, &mut rng);
    let (_, mean_cov) = net.coverage_stats(200, &mut rng);
    println!(
        "overlapping DHT with {n} servers; every point covered by ≈{mean_cov:.0} servers (Θ(log n))"
    );

    // disaster: 25% of servers fail-stop — simple lookup routes around them
    net.fail_random(0.25, &mut rng);
    println!("\n{} servers failed (25%, fail-stop)", net.failed.len());
    let mut ok = 0;
    let mut total_hops = 0usize;
    for _ in 0..50 {
        let from = live_node(&net, &mut rng);
        let route = net.simple_lookup(from, Point(rng.gen()), &mut rng);
        ok += route.ok as usize;
        total_hops += route.hops.len() - 1;
    }
    println!(
        "simple lookup: {ok}/50 reach a live cover, ≈{} hops each (log n + O(1), Theorem 6.4)",
        total_hops / 50
    );

    // worse: failed servers start lying — switch to majority lookup
    net.model = FaultModel::FalseMessageInjection;
    net.fail_random(0.15, &mut rng);
    println!("\nnow {} servers inject false messages", net.failed.len());
    let mut correct = 0;
    let mut total_msgs = 0usize;
    for _ in 0..50 {
        let from = live_node(&net, &mut rng);
        let out = net.majority_lookup(from, Point(rng.gen()));
        correct += out.correct as usize;
        total_msgs += out.messages;
    }
    println!(
        "majority lookup: {correct}/50 correct, ≈{} messages each (O(log³ n), Theorem 6.6)",
        total_msgs / 50
    );
}
