//! E-slo: open-loop latency under churn — does repair pacing keep the
//! foreground tail?
//!
//! Scores [`cd_bench::slo`]'s scenario (arrival clock, Zipf keys, 70/30
//! get/put, churn with paced repair — see that module) with the
//! recorder off: p50/p99/p999 of the modeled arrival queue, fed by
//! measured service times.
//!
//! The op/churn/repair *schedule* is a pure function of the seed, so
//! the healthy pass runs twice and must reproduce its wire fingerprint,
//! which CI pins on both backends.
//!
//! With `--chaos`, a second **degraded** pass runs the identical
//! op/churn schedule over a grey substrate (10% of nodes serve ×8
//! slower, the `e_chaos` shape) under the hedged retry policy, and the
//! healthy and degraded percentiles print side by side. The healthy
//! pass is byte-identical with and without the flag — its pinned
//! fingerprint never moves.
//!
//! ```sh
//! cargo run --release --bin e_slo                       # n = 10k
//! cargo run --release --bin e_slo -- 10000 2000 4000 [expect-fp-hex] \
//!     [--backend mem|file] [--chaos]
//! ```

use cd_bench::slo::{self, Percentiles, BURST, BURST_EVERY, CHURN_EVERY, INTERVAL_NS, K, M, PACE};
use cd_bench::{parse_backend_file, parse_flag, section, MASTER_SEED};
use cd_core::stats::Table;
use dh_obs::Obs;

fn latency_table(rows: [(&str, &Percentiles); 2]) -> Table {
    let mut table = Table::new(["op", "count", "mean µs", "p50 µs", "p99 µs", "p999 µs"]);
    for (name, p) in rows {
        table.row([
            name.to_string(),
            format!("{}", p.count),
            format!("{:.1}", p.mean / 1e3),
            format!("{:.1}", p.p50 / 1e3),
            format!("{:.1}", p.p99 / 1e3),
            format!("{:.1}", p.p999 / 1e3),
        ]);
    }
    table
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let file_backend = parse_backend_file(&mut args);
    let chaos = parse_flag(&mut args, "--chaos");
    let mut args = args.into_iter();
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(10_000);
    let items: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2_000);
    let ops: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4_000);
    let expect_fp: Option<u64> =
        args.next().and_then(|a| u64::from_str_radix(a.trim_start_matches("0x"), 16).ok());
    let backend = if file_backend { "file" } else { "mem" };
    let seed = MASTER_SEED ^ 0x510;
    let pass = |grey: bool| slo::run((n, items, ops), seed, file_backend, grey, Obs::off());

    println!(
        "# E-slo — open-loop latency under churn (n = {n}, items = {items}, ops = {ops}, \
         m = {M}, k = {K}, backend = {backend})"
    );
    println!(
        "\narrivals every {INTERVAL_NS} ns, bursts of {BURST} every {BURST_EVERY} slots, \
         churn every {CHURN_EVERY} ops, repair pace = {PACE} frames/op"
    );

    section("latency percentiles (modeled open-loop queue, measured service)");
    let (mut out, twin) = (pass(false), pass(false));
    assert_eq!(
        out.wire_fp, twin.wire_fp,
        "same seed must reproduce the identical open-loop event trace"
    );
    assert_eq!(out.repair.shares_rebuilt, twin.repair.shares_rebuilt);

    let (p_put, p_get) = (slo::summarize(&mut out.put), slo::summarize(&mut out.get));
    print!("{}", latency_table([("put", &p_put), ("get", &p_get)]).to_markdown());
    println!(
        "throughput: {:.0} ops/s over the modeled makespan; {} churn events, \
         {} shares rebuilt, {} lost; repair backlog peak {} frames",
        out.ops_per_s,
        out.churn_events,
        out.repair.shares_rebuilt,
        out.repair.items_lost,
        out.backlog_peak
    );
    println!("fingerprint (recorded scenario): {:#018x}", out.wire_fp);

    if let Some(want) = expect_fp {
        assert_eq!(
            out.wire_fp, want,
            "open-loop SLO fingerprint changed — op schedule, churn or repair semantics moved"
        );
        println!("fingerprint matches the pinned value");
    }

    // the degraded pass: the identical op/churn schedule over a grey
    // substrate under the hedged policy
    if chaos {
        section("degraded pass (grey substrate, hedged policy)");
        let mut dg = pass(true);
        let (dp_put, dp_get) = (slo::summarize(&mut dg.put), slo::summarize(&mut dg.get));
        let rows = [("put (grey ×8)", &dp_put), ("get (grey ×8)", &dp_get)];
        print!("{}", latency_table(rows).to_markdown());
        println!(
            "degraded throughput: {:.0} ops/s; {} shares rebuilt, {} lost; get p99 {:.0} µs vs \
             healthy {:.0} µs under the identical open-loop schedule",
            dg.ops_per_s,
            dg.repair.shares_rebuilt,
            dg.repair.items_lost,
            dp_get.p99 / 1e3,
            p_get.p99 / 1e3
        );
        println!("fingerprint (degraded scenario): {:#018x}", dg.wire_fp);
    }
}
