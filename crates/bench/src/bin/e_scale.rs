//! E-scale: the million-node scenario.
//!
//! Builds a large Distance Halving network with the one-sweep bulk
//! constructor, then measures the three hot paths end to end:
//!
//! 1. **build** — `DhNetwork::new` over `n` random identifier points,
//! 2. **lookups** — batched lookups of the chosen kind(s) through
//!    reused scratch buffers ([`DhNetwork::lookup_many`]),
//! 3. **churn** — join/leave pairs through the incremental table
//!    maintenance.
//!
//! ```sh
//! cargo run --release --bin e_scale                       # n = 1M, both kinds
//! cargo run --release --bin e_scale -- 10000 20000 10000  # CI smoke size
//! cargo run --release --bin e_scale -- 10000 20000 10000 dh 42
//! #                       n  lookups  churn  fast|dh|both  seed
//! ```

use cd_bench::{section, MASTER_SEED};
use cd_core::point::Point;
use cd_core::pointset::PointSet;
use cd_core::rng::seeded;
use dh_dht::{DhNetwork, LookupKind, NodeId};
use rand::Rng;
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1_000_000);
    let lookups: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(200_000);
    let churn_ops: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(50_000);
    // lookup kind and master seed used to be hardcoded; both are now
    // CLI-selectable so sweeps can isolate one algorithm and rerun any
    // measurement bit-for-bit
    let kind_arg = args.next().unwrap_or_else(|| "both".to_string());
    let seed: u64 =
        args.next().and_then(|a| a.parse().ok()).unwrap_or(MASTER_SEED ^ 0x00E5_CA1E);
    let kinds: Vec<LookupKind> = match kind_arg.as_str() {
        "both" => vec![LookupKind::Fast, LookupKind::DistanceHalving],
        s => vec![s.parse().unwrap_or_else(|e| panic!("{e}"))],
    };
    // reject unsupported kinds before the (expensive) build: this
    // harness drives the Distance Halving instance, which has no
    // greedy routing (the cross-topology sweep is the e_table1 pin)
    assert!(
        !kinds.contains(&LookupKind::Greedy),
        "e_scale drives the DH instance; `greedy` runs under the e_table1 pin"
    );
    let mut rng = seeded(seed);

    section(&format!("e_scale: n = {n} servers (kinds: {kind_arg}, seed: {seed:#x})"));

    // 1. Build.
    let t0 = Instant::now();
    let points = PointSet::random(n, &mut rng);
    let points_secs = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let mut net = DhNetwork::new(&points);
    let build_secs = t0.elapsed().as_secs_f64();
    let (max_deg, avg_deg) = net.degree_stats();
    println!("- identifier draw: {points_secs:.2} s");
    println!("- bulk build: {build_secs:.2} s ({:.0} nodes/s)", n as f64 / build_secs);
    println!("- degrees: max {max_deg}, mean {avg_deg:.2}");
    if n <= 65_536 {
        net.validate();
        println!("- validate(): ok");
    }

    // 2. Lookup throughput (reused buffers).
    let queries: Vec<(NodeId, Point)> =
        (0..lookups).map(|_| (net.random_node(&mut rng), Point(rng.gen()))).collect();
    let mut fast_rate = f64::INFINITY;
    for kind in kinds {
        let batch = match kind {
            LookupKind::Fast => &queries[..],
            // the two-phase lookup is ~2× the hops; batch it smaller
            // (but never empty: a mean over zero lookups prints NaN)
            LookupKind::DistanceHalving => &queries[..(lookups / 4).max(1).min(lookups)],
            LookupKind::Greedy => unreachable!("rejected at argument parsing"),
        };
        let t0 = Instant::now();
        let hops = net.lookup_many(kind, batch, &mut rng, |_, _| {});
        let secs = t0.elapsed().as_secs_f64();
        let rate = batch.len() as f64 / secs;
        println!(
            "- {kind} lookup: {} lookups in {secs:.2} s = {rate:.0}/s ({:.1} hops mean)",
            batch.len(),
            hops as f64 / batch.len() as f64
        );
        if kind == LookupKind::Fast {
            fast_rate = rate;
        }
    }

    // 3. Churn throughput: join/leave pairs (each pair = 2 ops).
    let t0 = Instant::now();
    let mut done = 0usize;
    while done < churn_ops {
        if let Some(id) = net.join(Point(rng.gen())) {
            net.leave(id);
            done += 2;
        }
    }
    let churn_secs = t0.elapsed().as_secs_f64();
    let churn_rate = done as f64 / churn_secs;
    println!("- churn: {done} ops in {churn_secs:.2} s = {churn_rate:.0} ops/s");

    // The scale targets this harness exists to hold the line on.
    if n >= 1_000_000 && fast_rate.is_finite() {
        assert!(fast_rate >= 100_000.0, "fast lookup rate {fast_rate:.0}/s below 100k/s target");
    }
}
