//! E-obs: the flight recorder put to work on the SLO scenario.
//!
//! Runs [`cd_bench::slo`]'s scenario at its pinned shape with the
//! `dh_obs` deterministic flight recorder and metrics registry
//! attached, and reports two things nothing else does:
//!
//! * **Explain every op** — each foreground request runs under its
//!   own op context; the recorder's bounded ring reconstructs the
//!   causal chain (`explain(op)`) of the chaos pass's p999 get, ranked
//!   by engine ticks: which timers fired, which hedges launched, which
//!   suspects were blamed, how many bytes it burned.
//! * **Price every subsystem** — engine stats export per plane
//!   (label 0 = client ops, label 1 = repair), per-node delivery
//!   loads accumulate under `load/deliver`, checked against the
//!   congestion shape.
//!
//! The recorder's own fold, and the wire fold with it attached, are
//! pinned in `cd_bench::pins`, not here. What the recorder costs an op
//! is the benchmark's traced-run metric `obs.recorder_overhead_pct`.
//!
//! ```sh
//! cargo run --release --bin e_obs [-- --backend mem|file] [--chaos]
//! ```

use cd_bench::slo::{self, K, M};
use cd_bench::{parse_backend_file, parse_flag, section};
use cd_core::stats::Table;
use dh_obs::Obs;

/// Ring capacity: generous, so the worst op's chain is still resident
/// at the end of a CI-sized run (overflow is counted, not fatal).
const RING_CAP: usize = 1 << 20;

/// Render the hedge/retry/repair cost-attribution table from the
/// registry snapshot: label 0 = client ops, label 1 = repair.
fn attribution(obs: &Obs) -> Table {
    let snap = obs.snapshot();
    let series = |name: &str, label: u64| -> u64 {
        snap.counter_series(name).into_iter().find(|&(l, _)| l == label).map_or(0, |(_, v)| v)
    };
    let mut t = Table::new(["plane", "msgs", "bytes", "retries", "hedges", "timeout resends"]);
    for (plane, label) in [("client ops", 0u64), ("repair", 1u64)] {
        t.row([
            plane.to_string(),
            format!("{}", series("engine/msgs", label)),
            format!("{}", series("engine/bytes", label)),
            format!("{}", series("engine/retries", label)),
            format!("{}", series("engine/hedged", label)),
            format!("{}", series("engine/stale", label)),
        ]);
    }
    t
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let file_backend = parse_backend_file(&mut args);
    let chaos = parse_flag(&mut args, "--chaos");
    let (n, items, ops) = slo::SHAPE;
    let backend = if file_backend { "file" } else { "mem" };

    println!(
        "# E-obs — flight recorder + metrics plane on the SLO scenario \
         (n = {n}, items = {items}, ops = {ops}, m = {M}, k = {K}, backend = {backend})"
    );

    // fresh shelves per pass; the file backend additionally threads
    // the recorder into the WAL so storage-plane events land too
    let pass = |grey: bool, obs: Obs| slo::pinned(file_backend, grey, obs);

    let out = pass(false, Obs::recording(RING_CAP));
    println!(
        "{} events recorded ({} evicted from the ring)",
        out.obs.recorded(),
        out.obs.overflow()
    );

    section("per-node delivery load vs the congestion shape");
    let snap = out.obs.snapshot();
    let loads = snap.counter_series("load/deliver");
    let total: u64 = loads.iter().map(|&(_, v)| v).sum();
    let max = loads.iter().map(|&(_, v)| v).max().unwrap_or(0);
    let mean = total as f64 / loads.len().max(1) as f64;
    let logn = (n as f64).log2();
    let mut top: Vec<(u64, u64)> = loads.clone();
    top.sort_by_key(|&(node, v)| (std::cmp::Reverse(v), node));
    let mut lt = Table::new(["node", "deliveries", "x mean"]);
    for &(node, v) in top.iter().take(5) {
        lt.row([format!("{node}"), format!("{v}"), format!("{:.1}", v as f64 / mean.max(1e-9))]);
    }
    print!("{}", lt.to_markdown());
    println!(
        "{} nodes delivered {total} messages; max {max} vs mean {mean:.1} \
         (skew ×{:.1}, log2 n = {logn:.1})",
        loads.len(),
        max as f64 / mean.max(1e-9)
    );
    // Zipf-hot cliques concentrate load, but the lookup fabric still
    // spreads each op over Θ(log n) servers: a very generous multiple
    // of the Theorem 2.7 shape catches pathological concentration
    assert!(
        (max as f64) <= mean.max(1.0) * 32.0 * logn,
        "per-node load skew ×{:.1} blew past the congestion-bound shape",
        max as f64 / mean.max(1e-9)
    );

    section("cost attribution by plane");
    print!("{}", attribution(&out.obs).to_markdown());
    println!(
        "repair: {} frames planned, {} pumped, {} purged, {} shares rebuilt",
        snap.counter_total("repair/frames_planned"),
        snap.counter_total("repair/frames_pumped"),
        snap.counter_total("repair/frames_purged"),
        out.repair.shares_rebuilt,
    );

    if chaos {
        section("chaos pass: explain the p999 get");
        let dg = pass(true, Obs::recording(RING_CAP));
        let mut by_ticks = dg.gets.clone();
        by_ticks.sort_unstable_by_key(|&(op, ticks)| (ticks, op));
        let idx = ((by_ticks.len() - 1) as f64 * 0.999).round() as usize;
        let (worst_op, worst_ticks) = by_ticks[idx];
        let ex = dg.obs.explain(worst_op).expect("recording");
        // well-formedness: the chain is non-empty, every event belongs
        // to the op, and a completed quorum get gathered ≥ k shares
        assert!(!ex.events.is_empty(), "the worst op's chain must still be resident");
        assert!(ex.events.iter().all(|e| e.op == worst_op), "explain leaked another op's events");
        assert!(
            ex.events.iter().any(|e| matches!(e.kind, dh_obs::EventKind::QuorumEntry { .. })),
            "a quorum get must have entered its clique"
        );
        // the coordinator's own share never crosses the wire, so a
        // decode at threshold k shows at least k − 1 wire acks
        assert!(
            ex.acks() >= K as usize - 1,
            "a completed get gathered at least k - 1 = {} wire acks, saw {}",
            K - 1,
            ex.acks()
        );
        println!("p999 get: op {worst_op} at {worst_ticks} engine ticks — its causal chain:");
        print!("{ex}");
        if !ex.suspects_blamed().is_empty() {
            println!("suspects blamed: {:?}", ex.suspects_blamed());
        }
        println!(
            "op {worst_op}: {} attempts, {} retries, {} hedge waves, {} timer fires, {} B",
            ex.attempts(),
            ex.retries(),
            ex.hedges(),
            ex.timer_fires(),
            ex.bytes_sent()
        );
    }
}
