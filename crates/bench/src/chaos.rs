//! The grey-failure campaign behind the `e_chaos` pin row
//! ([`crate::pins`]) and the `e_chaos` report: does the
//! graceful-degradation layer actually degrade gracefully?
//!
//! The §6 fault harnesses measure binary failures (fail-stop, liars).
//! Deployed overlays mostly die of failures the binary model cannot
//! express: slow-but-alive peers, flapping processes, partitions,
//! congestion loss. The campaign sweeps a scenario matrix of exactly
//! those shapes over the replicated store at [`SHAPE`], crossing chaos
//! shapes with retry policies:
//!
//! | scenario          | chaos                                | policy        |
//! |-------------------|--------------------------------------|---------------|
//! | healthy_fixed     | none                                 | fixed timeout |
//! | healthy_hedged    | none                                 | hedged        |
//! | grey_fixed        | 10% of nodes ×8 service latency      | fixed timeout |
//! | grey_hedged       | same grey set (same chaos seed)      | hedged        |
//! | partition_hedged  | full bisection over the middle third | hedged        |
//! | flap_hedged       | 20% of nodes on fail/recover cycles  | hedged        |
//! | burst_hedged      | 30% loss burst over the middle third | hedged        |
//!
//! Each cell is one [`Scenario`]: a preload of committed puts under
//! patient retries (the RTT estimators warm on it), then the measured
//! quorum reads in three phases, the middle one under the cell's
//! weather (a window on the planned clock), then a full readback past the windows: no committed write
//! may be lost, whatever the weather was. Every chaos decision is a
//! pure function of the chaos seed, and latencies are modeled ticks,
//! so each cell's recorded delivery trace is hashed and the per-cell
//! fingerprints chain into the one campaign fingerprint the table pins
//! on both storage backends.

use crate::scenario::{play, Backend, Op, Outcome, Phase, Scenario, Weather};
use crate::slo::{K, M};
use crate::MASTER_SEED;
use cd_core::rng::splitmix64;
use dh_obs::Obs;
use dh_proto::engine::RetryPolicy;

/// The campaign's one shape: servers, preloaded items, measured reads
/// per cell.
pub const SHAPE: (usize, usize, usize) = (600, 160, 360);
/// Loss-burst drop probability (per-mille).
pub const BURST_PERMILLE: u64 = 300;

/// `(name, seed salt, fault, middle-third weather, hedged)`: the
/// fixed/hedged variant of one chaos shape shares its salt, so the
/// same topology and grey set — only the policy differs.
const MATRIX: [(&str, u64, Weather, Weather, bool); 7] = [
    ("healthy_fixed", 1, Weather::Calm, Weather::Calm, false),
    ("healthy_hedged", 1, Weather::Calm, Weather::Calm, true),
    ("grey_fixed", 2, Weather::Grey, Weather::Calm, false),
    ("grey_hedged", 2, Weather::Grey, Weather::Calm, true),
    ("partition_hedged", 3, Weather::Calm, Weather::Cut, true),
    ("flap_hedged", 4, Weather::Flap, Weather::Calm, true),
    ("burst_hedged", 5, Weather::Calm, Weather::Loss(BURST_PERMILLE), true),
];

/// What one cell of the matrix measured over its read stream.
pub struct Cell {
    /// The scenario's name in the matrix.
    pub name: &'static str,
    /// Modeled engine ticks of every quorum read.
    pub lat: Vec<u64>,
    /// What its run counted.
    pub out: Outcome,
}

impl Cell {
    /// Fraction of reads that returned the committed value.
    pub fn availability(&self) -> f64 {
        self.per_read("served")
    }

    /// `what` per measured read: `"msgs"` (failovers, retries and
    /// hedges included), `"attempts"`, `"hedged"` (waves).
    pub fn per_read(&self, what: &str) -> f64 {
        self.out.seen(1..4, what) as f64 / self.lat.len().max(1) as f64
    }
}

/// `q`-quantile of an unsorted sample (sorts it).
pub fn percentile(lat: &mut [u64], q: f64) -> f64 {
    if lat.is_empty() {
        return 0.0;
    }
    lat.sort_unstable();
    let idx = ((lat.len() - 1) as f64 * q).round() as usize;
    lat[idx] as f64
}

/// Run the whole matrix on fresh shelves of `backend`: every cell,
/// and the campaign fingerprint chained over them.
pub fn campaign(backend: Backend) -> (Vec<Cell>, u64) {
    let (n, items, ops) = SHAPE;
    let mut cells = Vec::with_capacity(MATRIX.len());
    let mut fp = 0u64;
    for (i, &(name, salt, fault, weather, hedged)) in MATRIX.iter().enumerate() {
        let retry = if hedged { RetryPolicy::patient().hedged() } else { RetryPolicy::patient() };
        let reads = Phase::new(ops as u64 / 3, &[(Op::Get, 1)], retry);
        let preload = Phase::new(items as u64, &[(Op::Put, 1)], RetryPolicy::patient());
        let phases = [preload, reads, reads.under(weather), reads];
        let cell = Scenario {
            fault,
            planned: true,
            tries: 6,
            min_live: items,
            ..Scenario::new((M, K), n, &phases)
        };
        let out = play(&cell, MASTER_SEED ^ 0xCAB0 ^ splitmix64(salt), backend, Obs::off());
        fp = splitmix64(fp ^ out.wire_fp ^ i as u64);
        cells.push(Cell { name, lat: out.gets.iter().map(|&(_, ticks)| ticks).collect(), out });
    }
    (cells, fp)
}
