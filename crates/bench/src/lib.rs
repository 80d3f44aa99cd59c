//! Shared helpers for the experiment harness binaries.
//!
//! Every binary under `src/bin/` regenerates one table or figure of
//! the paper (each binary's module docs name the claim it checks) and
//! prints Markdown alongside the paper's claimed bound, so measured
//! shape and theory can be compared line by line.

#![deny(missing_docs)]
#![deny(unsafe_code)]

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

/// Strip a `--threads N` flag (anywhere on the command line) out of
/// `args` and return `N`. Shared by the harness binaries that pin
/// the thread-pool width; panics on a malformed value so a typo'd
/// sweep fails loudly instead of measuring the wrong width.
pub fn parse_threads(args: &mut Vec<String>) -> Option<usize> {
    let pos = args.iter().position(|a| a == "--threads")?;
    let threads = args
        .get(pos + 1)
        .and_then(|v| v.parse().ok())
        .filter(|&t| t > 0)
        .expect("--threads needs a positive integer");
    args.drain(pos..=pos + 1);
    Some(threads)
}

/// Strip a `--backend mem|file` flag out of `args` and return whether
/// the file (WAL) backend was requested. Panics on an unknown value
/// so a typo'd sweep fails loudly instead of benchmarking RAM.
pub fn parse_backend_file(args: &mut Vec<String>) -> bool {
    let Some(pos) = args.iter().position(|a| a == "--backend") else {
        return false;
    };
    let file = match args.get(pos + 1).map(String::as_str) {
        Some("file") => true,
        Some("mem") => false,
        other => panic!("--backend needs `mem` or `file`, got {other:?}"),
    };
    args.drain(pos..=pos + 1);
    file
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

/// Print a paper-vs-measured comparison line.
pub fn claim(paper: &str, measured: impl std::fmt::Display) {
    println!("- paper: {paper}");
    println!("  measured: {measured}");
}

pub mod bench_json {
    //! Machine-readable benchmark records.
    //!
    //! `BENCH_ops.json` is a JSON-lines file (one record per line) so
    //! every PR can *append* its numbers and the perf trajectory stays
    //! diffable. Every line carries `"schema": 1` (the dialect
    //! version — bump it if a field changes meaning) and the core
    //! triple `{"bench": <name>, "n": <size>, "ns_per_op": <mean>}`;
    //! records measured through the wire protocol additionally carry
    //! `"msgs_per_op"` and `"bytes_per_op"` (mean messages/bytes per
    //! operation, all retransmissions charged), records swept across
    //! overlay instances carry `"topology"` (the instance label, e.g.
    //! `"chord"` or `"debruijn8"`), records of runs that pinned the
    //! thread pool carry `"threads"` (the pool width — only the bulk
    //! build and `e_scale`'s parallel lookups run on it), open-loop
    //! SLO benches carry `"p50_ns"`/`"p99_ns"`/`"p999_ns"` (tail
    //! latency of the modeled arrival queue, not just the mean), and
    //! `"unit"` names what the numeric columns measure (`"ns"` for
    //! wall-clock records — the default when absent — `"ticks"` for
    //! virtual engine time, `"count"`/`"bytes"` for registry
    //! exports). The full field table lives in `README.md`.
    //! `dh_obs::Snapshot::to_json_lines` emits this same dialect, so
    //! metrics-registry snapshots append next to wall-clock records
    //! ([`append_lines`]).

    use std::io::Write;

    /// One benchmark measurement.
    #[derive(Clone, Debug)]
    pub struct Record {
        /// Benchmark name, e.g. `"churn/join_leave"`.
        pub bench: String,
        /// Problem size (server count).
        pub n: usize,
        /// Mean wall-clock nanoseconds per operation.
        pub ns_per_op: f64,
        /// Mean messages per operation (wire-protocol benches only).
        pub msgs_per_op: Option<f64>,
        /// Mean modeled bytes per operation (wire-protocol benches
        /// only).
        pub bytes_per_op: Option<f64>,
        /// Overlay instance label (cross-topology benches only).
        pub topology: Option<String>,
        /// Thread-pool width of the run (when the bench pins it).
        pub threads: Option<usize>,
        /// Median latency in nanoseconds (open-loop SLO benches only).
        pub p50_ns: Option<f64>,
        /// 99th-percentile latency in nanoseconds.
        pub p99_ns: Option<f64>,
        /// 99.9th-percentile latency in nanoseconds.
        pub p999_ns: Option<f64>,
        /// What the numeric columns measure (`"ns"` when absent;
        /// `"ticks"` for virtual engine time, `"count"`/`"bytes"`
        /// for metrics-registry exports).
        pub unit: Option<String>,
    }

    /// Escape a string for inclusion in a JSON value.
    fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    impl Record {
        /// Build a record.
        pub fn new(bench: impl Into<String>, n: usize, ns_per_op: f64) -> Self {
            Record {
                bench: bench.into(),
                n,
                ns_per_op,
                msgs_per_op: None,
                bytes_per_op: None,
                topology: None,
                threads: None,
                p50_ns: None,
                p99_ns: None,
                p999_ns: None,
                unit: None,
            }
        }

        /// Attach per-operation message/byte accounting.
        pub fn with_msgs(mut self, msgs_per_op: f64, bytes_per_op: f64) -> Self {
            self.msgs_per_op = Some(msgs_per_op);
            self.bytes_per_op = Some(bytes_per_op);
            self
        }

        /// Tag the record with the overlay instance it measured.
        pub fn with_topology(mut self, topology: impl Into<String>) -> Self {
            self.topology = Some(topology.into());
            self
        }

        /// Tag the record with the worker-thread count of the run.
        pub fn with_threads(mut self, threads: usize) -> Self {
            self.threads = Some(threads);
            self
        }

        /// Attach open-loop latency percentiles (nanoseconds).
        pub fn with_percentiles(mut self, p50: f64, p99: f64, p999: f64) -> Self {
            self.p50_ns = Some(p50);
            self.p99_ns = Some(p99);
            self.p999_ns = Some(p999);
            self
        }

        /// Tag the record's numeric columns with a unit (`"ticks"`,
        /// `"count"`, `"bytes"`, …). Wall-clock records omit it.
        pub fn with_unit(mut self, unit: impl Into<String>) -> Self {
            self.unit = Some(unit.into());
            self
        }

        /// The record as a single JSON line.
        pub fn to_json(&self) -> String {
            let name = escape(&self.bench);
            let mut line = format!(
                "{{\"schema\": 1, \"bench\": \"{name}\", \"n\": {}, \"ns_per_op\": {:.1}",
                self.n, self.ns_per_op
            );
            if let Some(m) = self.msgs_per_op {
                line.push_str(&format!(", \"msgs_per_op\": {m:.2}"));
            }
            if let Some(b) = self.bytes_per_op {
                line.push_str(&format!(", \"bytes_per_op\": {b:.1}"));
            }
            if let Some(t) = &self.topology {
                line.push_str(&format!(", \"topology\": \"{}\"", escape(t)));
            }
            if let Some(t) = self.threads {
                line.push_str(&format!(", \"threads\": {t}"));
            }
            if let Some(p) = self.p50_ns {
                line.push_str(&format!(", \"p50_ns\": {p:.1}"));
            }
            if let Some(p) = self.p99_ns {
                line.push_str(&format!(", \"p99_ns\": {p:.1}"));
            }
            if let Some(p) = self.p999_ns {
                line.push_str(&format!(", \"p999_ns\": {p:.1}"));
            }
            if let Some(u) = &self.unit {
                line.push_str(&format!(", \"unit\": \"{}\"", escape(u)));
            }
            line.push('}');
            line
        }
    }

    /// Append records to a JSON-lines file (created if missing).
    pub fn append(path: &str, records: &[Record]) -> std::io::Result<()> {
        let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        for r in records {
            writeln!(file, "{}", r.to_json())?;
        }
        Ok(())
    }

    /// Append pre-serialized JSON lines (e.g. a
    /// `dh_obs::Snapshot::to_json_lines` export, which speaks the
    /// same dialect) to the same file.
    pub fn append_lines(path: &str, lines: &[String]) -> std::io::Result<()> {
        let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        for l in lines {
            writeln!(file, "{l}")?;
        }
        Ok(())
    }

    /// Overwrite a JSON-lines file with the given records.
    pub fn write(path: &str, records: &[Record]) -> std::io::Result<()> {
        let mut out = String::new();
        for r in records {
            out.push_str(&r.to_json());
            out.push('\n');
        }
        std::fs::write(path, out)
    }
}
