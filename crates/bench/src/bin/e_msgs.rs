//! E-msgs: lookup cost on the wire — messages, bytes, latency, loss.
//!
//! Drives batches of lookups through the `dh_proto` event engine at
//! n = 10k (CI-smoke size; any n works) and prices each operation in
//! messages and bytes per op, under
//!
//! * `Inline` — the zero-overhead baseline (1 message per hop, routes
//!   bit-identical to the synchronous `DhNetwork::lookup`),
//! * `Sim` — per-link latency with jitter (lossless), and
//! * `Sim` + loss/duplication — drops recovered by end-to-end retry,
//!   every retransmission charged.
//!
//! The run is a pure function of the seed: the lossless-`Sim` batch is
//! executed twice and must produce the identical recorded event trace
//! (the printed `fingerprint` pins the whole schedule — CI asserts
//! it).
//!
//! ```sh
//! cargo run --release --bin e_msgs                  # n = 10k, both kinds
//! cargo run --release --bin e_msgs -- 10000 5000 dh 7 [expect-fp-hex]
//! ```

use cd_bench::{section, MASTER_SEED};
use cd_core::pointset::PointSet;
use cd_core::rng::seeded;
use cd_core::stats::Table;
use dh_dht::proto::{lookups_over, MsgBatch};
use dh_dht::{DhNetwork, LookupKind};
use dh_proto::engine::RetryPolicy;
use dh_proto::transport::{Inline, Recorder, Sim, Transport};
use std::time::Instant;

/// One batch configuration: the network, batch size and master seed.
struct Ctx<'n> {
    net: &'n DhNetwork,
    m: usize,
    seed: u64,
}

fn run_one<T: Transport>(
    ctx: &Ctx<'_>,
    kind: LookupKind,
    transport: T,
    scenario: &'static str,
    table: &mut Table,
) -> (MsgBatch, T) {
    let (net, m, seed) = (ctx.net, ctx.m, ctx.seed);
    let retry = RetryPolicy::patient();
    let t0 = Instant::now();
    let (batch, transport) = lookups_over(net, kind, m, seed, transport, retry, 2);
    let secs = t0.elapsed().as_secs_f64();
    if scenario.contains("loss") {
        // under loss a vanishingly small fraction of ops can exhaust
        // the retry budget for unlucky seeds; report, don't panic
        if batch.failed > 0 {
            println!("note: {scenario}: {} of {m} lookups exhausted the retry budget", batch.failed);
        }
    } else {
        assert_eq!(batch.failed, 0, "{scenario}: a lossless transport cannot fail an op");
    }
    table.row([
        scenario.to_string(),
        kind.to_string(),
        format!("{:.2}", batch.path_lengths.mean),
        format!("{:.2}", batch.msgs_per_op()),
        format!("{:.1}", batch.bytes_per_op()),
        format!("{}", batch.retries),
        format!("{}", batch.dropped),
        format!("{}", batch.makespan),
        format!("{:.0}", m as f64 / secs),
    ]);
    (batch, transport)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(10_000);
    let m: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(5_000);
    let kind_arg = args.next().unwrap_or_else(|| "both".to_string());
    let seed: u64 =
        args.next().and_then(|a| a.parse().ok()).unwrap_or(MASTER_SEED ^ 0x06E5);
    let expect_fp: Option<u64> =
        args.next().and_then(|a| u64::from_str_radix(a.trim_start_matches("0x"), 16).ok());
    let kinds: Vec<LookupKind> = match kind_arg.as_str() {
        "both" => vec![LookupKind::Fast, LookupKind::DistanceHalving],
        s => vec![s.parse().unwrap_or_else(|e| panic!("{e}"))],
    };

    println!("# E-msgs — per-operation wire cost of lookups (n = {n}, m = {m}, seed = {seed:#x})");
    let net = DhNetwork::new(&PointSet::random(n, &mut seeded(seed ^ 0x0E75)));
    let ctx = Ctx { net: &net, m, seed };
    let logn = (n as f64).log2();

    let mut fingerprint = 0u64;
    for kind in kinds {
        section(&format!("{kind} lookup over each transport"));
        let mut table = Table::new([
            "transport",
            "kind",
            "hops mean",
            "msgs/op",
            "bytes/op",
            "retries",
            "dropped",
            "makespan",
            "lookups/s",
        ]);
        // 1. Inline baseline: 1 message per hop, by construction.
        let (inline_batch, _) = run_one(&ctx, kind, Inline, "inline", &mut table);
        assert!(
            inline_batch.bytes_per_op() > inline_batch.msgs_per_op(),
            "every message has a header"
        );
        // 2. Lossless Sim, twice: the determinism witness.
        let sim = || Recorder::new(Sim::new(seed).with_latency(4, 16, 4));
        let (sim_batch, rec_a) = run_one(&ctx, kind, sim(), "sim", &mut table);
        let fp_a = rec_a.trace.fingerprint();
        let mut shadow = Table::new(["x"; 9]);
        let (sim_batch_b, rec_b) = run_one(&ctx, kind, sim(), "sim", &mut shadow);
        let fp_b = rec_b.trace.fingerprint();
        assert_eq!(fp_a, fp_b, "same seed must reproduce the identical event trace");
        assert_eq!(sim_batch.msgs_per_op().to_bits(), sim_batch_b.msgs_per_op().to_bits());
        assert_eq!(
            sim_batch.msgs_per_op().to_bits(),
            inline_batch.msgs_per_op().to_bits(),
            "lossless latency changes schedules, never routes"
        );
        fingerprint ^= fp_a;
        println!("fingerprint({kind}, sim lossless): {fp_a:#018x}");
        // 3. Loss + duplication, absorbed by end-to-end retry.
        let (lossy_batch, _) = run_one(
            &ctx,
            kind,
            Sim::new(seed).with_latency(4, 16, 4).with_drop(0.01).with_dup(0.005),
            "sim 1% loss",
            &mut table,
        );
        assert!(
            lossy_batch.msgs_per_op() >= sim_batch.msgs_per_op(),
            "retransmissions cannot make lookups cheaper"
        );
        print!("{}", table.to_markdown());
        let bound = match kind {
            LookupKind::Fast => logn + 2.0,
            LookupKind::DistanceHalving => 2.0 * logn + 14.0,
            LookupKind::Greedy => unreachable!("e_msgs drives the DH instance only"),
        };
        assert!(
            inline_batch.msgs_per_op() <= bound,
            "{kind}: {:.2} msgs/op exceeds the Corollary 2.5 / Theorem 2.8 shape {bound:.1}",
            inline_batch.msgs_per_op()
        );
    }

    println!("\ncombined fingerprint: {fingerprint:#018x}");
    if let Some(want) = expect_fp {
        assert_eq!(
            fingerprint, want,
            "deterministic message-count fingerprint changed — routing or transport semantics moved"
        );
        println!("fingerprint matches the pinned value");
    }
}
