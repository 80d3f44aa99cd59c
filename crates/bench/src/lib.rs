//! The experiment harness.
//!
//! [`paper`] is the oracle — every bound the paper states, measured
//! and asserted (`e_paper`, `tests/paper.rs`). [`pins`] is the safety
//! net — one table of seeded scenarios whose recorded event traces
//! must fold to the pinned values (`tests/pins.rs`). [`scenario`] is
//! the one storage driver: the `e_repl` row, [`slo`] and [`chaos`]
//! (the two storage scenarios a bin also reports on — `e_obs`:
//! per-node load, cost by plane and an op's `explain` chain;
//! `e_chaos`: the grey-failure matrix in virtual ticks) and the storm
//! profiles (`tests/storms.rs`) are its values; `figures` renders.
//! Nothing here reads a clock or writes a file: the only wall-clock
//! ledger is `benchmark/`.

#![deny(missing_docs)]

use cd_core::pointset::PointSet;
use cd_core::rng::seeded;

/// The master seed every harness derives from (reproducibility).
pub const MASTER_SEED: u64 = 0x5EED_CD03;

/// Standard network sizes for sweeps.
pub const SIZES: [usize; 4] = [256, 1024, 4096, 16384];

/// A random point set of size `n` (Single Choice IDs), seeded per
/// `(experiment, n)`.
pub fn random_points(n: usize, experiment: u64) -> PointSet {
    let mut rng = seeded(MASTER_SEED ^ experiment.wrapping_mul(0x9E37) ^ n as u64);
    PointSet::random(n, &mut rng)
}

/// Print a section header for harness output.
pub fn section(title: &str) {
    println!("\n## {title}\n");
}

/// Strip a `--backend mem|file` flag out of `args` and return the
/// backend (`mem` without one). Panics on an unknown value so a typo'd
/// sweep fails loudly instead of benchmarking RAM.
pub fn parse_backend(args: &mut Vec<String>) -> scenario::Backend {
    let Some(pos) = args.iter().position(|a| a == "--backend") else {
        return scenario::Backend::Mem;
    };
    let backend = match args.get(pos + 1).map(String::as_str) {
        Some("file") => scenario::Backend::File,
        Some("mem") => scenario::Backend::Mem,
        other => panic!("--backend needs `mem` or `file`, got {other:?}"),
    };
    args.drain(pos..=pos + 1);
    backend
}

/// Strip a bare boolean flag (e.g. `--chaos`) out of `args` and
/// return whether it was present.
pub fn parse_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return false;
    };
    args.remove(pos);
    true
}

pub mod chaos;
pub mod paper;
pub mod pins;
pub mod scenario;
pub mod slo;
