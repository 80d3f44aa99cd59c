//! The README's protocol-layer example: one Distance Halving lookup
//! driven through the deterministic event engine over a simulated WAN
//! (per-link latency, jitter, 1% loss, end-to-end retry), with full
//! message/byte accounting.

use continuous_discrete::core::pointset::PointSet;
use continuous_discrete::core::Point;
use continuous_discrete::dht::proto::route_kind;
use continuous_discrete::dht::{DhNetwork, LookupKind};
use continuous_discrete::proto::engine::{Engine, NoShares};
use continuous_discrete::proto::wire::Action;
use continuous_discrete::proto::{RetryPolicy, Sim};

fn main() {
    let net = DhNetwork::new(&PointSet::evenly_spaced(1024));
    let mut sim = Sim::new(7).with_latency(4, 16, 4).with_drop(0.01);
    let mut eng = Engine::default();
    eng.retry = RetryPolicy::patient();

    let op = eng.submit(
        42, // the op's seed: its digits and timer jitter
        route_kind(LookupKind::DistanceHalving),
        net.live()[0],
        Point::from_f64(0.375),
        Action::Locate,
    );
    // the run borrows its world: topology, transport, detector,
    // recorder, share view; same seeds ⇒ same trace, bit for bit
    eng.run(&net, &mut sim, None, &Default::default(), &NoShares);

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
