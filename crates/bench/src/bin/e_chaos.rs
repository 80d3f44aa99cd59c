//! E-chaos: the grey-failure campaign ([`cd_bench::chaos`]) as a
//! report — one row per cell of the scenario matrix, scored on
//!
//! * **availability** — fraction of quorum reads returning the
//!   committed value,
//! * **latency** — p50/p99/p999 of the *modeled* engine ticks a read
//!   took (client-perceived, machine-invariant),
//! * **wasted work** — messages per read (failovers, retries and
//!   hedges all cost wire traffic).
//!
//! The grey pair is the claim this bin asserts: with per-destination
//! adaptive timeouts, a suspicion-driven failure detector and hedged
//! quorum reads, the store routes around grey nodes instead of paying
//! their ×8 latency — hedged p99 must undercut the fixed-timeout p99
//! by ≥ 2× while availability stays ≥ 99.9%. Both policies read by
//! the same path — fetch `k` shares, back a silent cover up on a timer
//! — so the fixed rows must stay as available and within `2(m − k)`
//! messages of the hedged ones: a read that went back to fetching all
//! `m` fails the report, as does partition availability < 97% or
//! loss-burst availability < 99.9%. The fingerprint is pinned in
//! `cd_bench::pins`, not here.
//!
//! ```sh
//! cargo run --release --bin e_chaos [-- --backend mem|file]
//! ```

use cd_bench::chaos::{self, percentile, Cell, BURST_PERMILLE};
use cd_bench::scenario::{FLAP, GREY};
use cd_bench::slo::{K, M};
use cd_bench::{parse_backend, section};
use cd_core::stats::Table;

fn msgs_per_op(cell: &Cell) -> f64 {
    cell.per_read("msgs")
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let backend = parse_backend(&mut args);
    let (n, items, ops) = chaos::SHAPE;
    let ((grey_permille, grey_mult), (flap_permille, flap_period, flap_down)) = (GREY, FLAP);

    println!(
        "# E-chaos — grey-failure campaign (n = {n}, items = {items}, ops = {ops}/scenario, \
         m = {M}, k = {K}, backend = {backend})"
    );
    println!(
        "\ngrey: {grey_permille}‰ of nodes ×{grey_mult} latency; flap: {flap_permille}‰ down \
         {flap_down}/{flap_period} ticks; burst: {BURST_PERMILLE}‰ loss over the middle third"
    );

    section("scenario matrix (modeled ticks per quorum read)");
    let (cells, _) = chaos::campaign(backend);

    let mut table = Table::new([
        "scenario", "avail", "p50", "p99", "p999", "msgs/op", "hedges", "attempts/op",
    ]);
    for cell in &cells {
        let mut lat = cell.lat.clone();
        table.row([
            cell.name.to_string(),
            format!("{:.4}", cell.availability()),
            format!("{:.0}", percentile(&mut lat, 0.50)),
            format!("{:.0}", percentile(&mut lat, 0.99)),
            format!("{:.0}", percentile(&mut lat, 0.999)),
            format!("{:.1}", msgs_per_op(cell)),
            format!("{}", cell.out.seen(1..4, "hedged")),
            format!("{:.2}", cell.per_read("attempts")),
        ]);
    }
    print!("{}", table.to_markdown());

    // the acceptance pair: grey_fixed vs grey_hedged share topology
    // and grey set
    let cell = |name: &str| {
        cells.iter().find(|c| c.name == name).unwrap_or_else(|| panic!("no cell {name}"))
    };
    let p99 = |cell: &Cell| percentile(&mut cell.lat.clone(), 0.99);
    let (grey_fixed, grey_hedged) = (cell("grey_fixed"), cell("grey_hedged"));
    let (grey_fixed_p99, grey_hedged_p99) = (p99(grey_fixed), p99(grey_hedged));
    assert!(
        grey_fixed_p99 >= 2.0 * grey_hedged_p99,
        "hedged reads must cut grey-node p99 ≥ 2× (fixed {grey_fixed_p99:.0} vs hedged \
         {grey_hedged_p99:.0} ticks)"
    );
    assert!(
        grey_hedged.availability() >= 0.999,
        "grey-node availability fell to {:.4}",
        grey_hedged.availability()
    );
    assert!(
        grey_fixed.availability() >= 0.999,
        "without hedging the backup timer alone must keep grey reads available, got {:.4}",
        grey_fixed.availability()
    );
    // a clique still suspected after the weather clears is read anyway
    for (name, floor) in [("partition_hedged", 0.97), ("burst_hedged", 0.999)] {
        let avail = cell(name).availability();
        assert!(avail >= floor, "{name} availability fell to {avail:.4}");
    }
    let (healthy_fixed, healthy_hedged) = (cell("healthy_fixed"), cell("healthy_hedged"));
    assert!(
        (healthy_fixed.availability() - 1.0).abs() < f64::EPSILON,
        "healthy availability must be 1.0"
    );
    assert!(
        msgs_per_op(healthy_fixed) <= msgs_per_op(healthy_hedged) + 2.0 * f64::from(M - K),
        "a healthy read fetches k shares under either policy: fixed {:.1} vs hedged {:.1} msgs/op",
        msgs_per_op(healthy_fixed),
        msgs_per_op(healthy_hedged)
    );

    println!(
        "grey ×{grey_mult} p99: fixed {grey_fixed_p99:.0} ticks vs hedged {grey_hedged_p99:.0} ticks \
         ({:.2}×), availability {:.4}; post-chaos readback clean in all {} scenarios",
        grey_fixed_p99 / grey_hedged_p99.max(1.0),
        grey_hedged.availability(),
        cells.len()
    );
}
