//! The README's protocol-layer example: one Distance Halving lookup
//! driven through the deterministic event engine over a simulated WAN
//! (per-link latency, jitter, 1% loss, end-to-end retry), with full
//! message/byte accounting.

use continuous_discrete::core::pointset::PointSet;
use continuous_discrete::core::Point;
use continuous_discrete::dht::proto::route_kind;
use continuous_discrete::dht::{DhNetwork, LookupKind};
use continuous_discrete::proto::engine::Engine;
use continuous_discrete::proto::wire::Action;
use continuous_discrete::proto::{RetryPolicy, Sim};

fn main() {
    let net = DhNetwork::new(&PointSet::evenly_spaced(1024));
    let sim = Sim::new(7).with_latency(4, 16, 4).with_drop(0.01);
    let mut eng = Engine::new(&net, sim, 42)
        .with_retry(RetryPolicy::patient());

    let op = eng.submit(
        route_kind(LookupKind::DistanceHalving),
        net.live()[0],
        Point::from_f64(0.375),
        Action::Locate,
    );
    eng.run(); // deterministic: same seeds ⇒ same trace, bit for bit

    let out = eng.take_outcome(op);
    println!(
        "answered by {:?} after {} hops, {} msgs / {} bytes on the wire, t = {:?}",
        out.dest,
        out.path.hops(),
        out.msgs,
        out.bytes,
        out.completed_at,
    );
    assert!(out.ok);
    assert!(net.node(out.dest.expect("completed")).covers(Point::from_f64(0.375)));
}
