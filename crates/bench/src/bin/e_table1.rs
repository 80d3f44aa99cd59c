//! E-table1: one harness, every topology — the "Table 1" of the
//! continuous-discrete recipe.
//!
//! Builds each overlay instance over the *same* identifier point set
//! and drives the same lookup workload through the `dh_proto` event
//! engine over `Inline`, so the rows are directly comparable:
//!
//! * `dh` — the binary Distance Halving graph, Fast and two-phase
//!   lookups (§2.2),
//! * `debruijn8` — the base-∆ de Bruijn generalization (`∆ = 8`),
//!   Fast lookup,
//! * `chord` — the §4 Chord-like graph (`y → y + 2⁻ⁱ`), greedy
//!   clockwise routing.
//!
//! Each row reports mean degree, path length, messages/op and
//! bytes/op. A second run of every batch over a recorded `Sim`
//! transport pins the whole schedule: the combined fingerprint printed
//! at the end is deterministic in the seed, and CI asserts it — if
//! routing, table derivation or transport semantics drift for *any*
//! instance, the build fails.
//!
//! ```sh
//! cargo run --release --bin e_table1                    # n = 10k
//! cargo run --release --bin e_table1 -- 100000 20000    # n = 100k
//! cargo run --release --bin e_table1 -- 10000 5000 1592642534 [expect-fp-hex]
//! #                                      n    m    seed
//! ```
//!
//! The harness scales to the million-node sizes of `e_scale` (`n` is a
//! plain CLI argument); the CI smoke runs the 10k size.

use cd_bench::{section, MASTER_SEED};
use cd_core::graph::{ChordLike, ContinuousGraph, DeBruijn, DistanceHalving};
use cd_core::pointset::PointSet;
use cd_core::rng::seeded;
use cd_core::stats::Table;
use dh_dht::proto::lookups_over;
use dh_dht::{CdNetwork, LookupKind};
use dh_proto::engine::RetryPolicy;
use dh_proto::transport::{Inline, Recorder, Sim};
use std::time::Instant;

/// The workload every row shares: identifier points, batch size and
/// seed.
struct RowCtx<'a> {
    points: &'a PointSet,
    m: usize,
    seed: u64,
}

/// Run one `(instance, kind)` row: an `Inline` batch for the metrics
/// plus a recorded lossless-`Sim` batch for the fingerprint.
fn run_row<G: ContinuousGraph>(
    graph: G,
    kind: LookupKind,
    ctx: &RowCtx<'_>,
    table: &mut Table,
) -> u64 {
    let (points, m, seed) = (ctx.points, ctx.m, ctx.seed);
    let label = graph.label();
    let t0 = Instant::now();
    let net = CdNetwork::build(graph, points);
    let build_secs = t0.elapsed().as_secs_f64();
    let (_, mean_deg) = net.degree_stats();
    let retry = RetryPolicy::patient();

    let t0 = Instant::now();
    let (batch, _) = lookups_over(&net, kind, m, seed, Inline, retry, 2);
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(batch.failed, 0, "{label}: Inline cannot fail an op");

    // determinism witness: the same batch over a recorded Sim schedule
    let sim = || Recorder::new(Sim::new(seed).with_latency(4, 16, 4));
    let (sim_batch, rec) = lookups_over(&net, kind, m, seed, sim(), retry, 2);
    assert_eq!(
        sim_batch.msgs, batch.msgs,
        "{label}: lossless latency changes schedules, never routes"
    );
    let fingerprint = rec.trace.fingerprint();

    table.row([
        label,
        kind.to_string(),
        format!("{mean_deg:.1}"),
        format!("{:.2}", batch.path_lengths.mean),
        format!("{:.1}", batch.path_lengths.max),
        format!("{:.2}", batch.msgs_per_op()),
        format!("{:.1}", batch.bytes_per_op()),
        format!("{build_secs:.2}"),
        format!("{:.0}", m as f64 / secs),
    ]);
    fingerprint
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(10_000);
    let m: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(5_000);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(MASTER_SEED ^ 0x7AB1);
    let expect_fp: Option<u64> =
        args.next().and_then(|a| u64::from_str_radix(a.trim_start_matches("0x"), 16).ok());

    println!("# E-table1 — every topology under one harness (n = {n}, m = {m}, seed = {seed:#x})");
    section("instances over the same identifier set, same workload, Inline transport");

    let points = PointSet::random(n, &mut seeded(seed ^ 0x7AB1E));
    let mut table = Table::new([
        "topology",
        "kind",
        "deg mean",
        "hops mean",
        "hops max",
        "msgs/op",
        "bytes/op",
        "build s",
        "lookups/s",
    ]);
    let mut fingerprint = 0u64;
    let ctx = RowCtx { points: &points, m, seed };

    fingerprint ^= run_row(DistanceHalving::binary(), LookupKind::Fast, &ctx, &mut table);
    fingerprint ^= run_row(DistanceHalving::binary(), LookupKind::DistanceHalving, &ctx, &mut table);
    fingerprint ^= run_row(DeBruijn::new(8), LookupKind::Fast, &ctx, &mut table);
    fingerprint ^= run_row(ChordLike, LookupKind::Greedy, &ctx, &mut table);

    print!("{}", table.to_markdown());

    println!("\ncombined fingerprint: {fingerprint:#018x}");
    if let Some(want) = expect_fp {
        assert_eq!(
            fingerprint, want,
            "cross-topology fingerprint changed — routing, table derivation or transport semantics moved for some instance"
        );
        println!("fingerprint matches the pinned value");
    }
}
