//! The repository benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1 [--quick 1]
//! benchmark all [--seed N] [--seconds S] [--repeat R] [--trace] [--quick]
//! benchmark compare A.json B.json
//! ```
//!
//! The first form is one workload in this process and is what
//! `BENCHMARK.json` names; its last line of output is the result
//! object. `all` runs every workload, each in a process of its own,
//! and writes `out/result-<seed>.json`.

mod json;
mod report;
mod run;
mod spec;
mod stats;
mod stream;
mod trace;

use json::Json;
use std::path::PathBuf;
use std::process::ExitCode;

/// Everything a run leaves behind goes here: inside the package, so
/// inside whatever checkout the binary was built in.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// A per-process scratch directory, removed when dropped.
pub struct Scratch(pub PathBuf);

impl Scratch {
    fn new() -> Scratch {
        let dir = out_dir().join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One reported number.
pub struct Reading {
    /// Metric name.
    pub name: String,
    /// Its value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Samples behind it, where it is a percentile or a median.
    pub samples: Option<u64>,
}

impl Reading {
    fn new(name: &str, value: f64, unit: &'static str) -> Reading {
        Reading {
            name: name.to_string(),
            value,
            unit,
            samples: None,
        }
    }
}

/// What one workload run produced.
pub struct Outcome {
    /// Attempts and failures over every phase.
    pub tally: run::Tally,
    /// The metrics of the requested kind.
    pub readings: Vec<Reading>,
}

/// Flags of the single-workload form.
struct Flags {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
}

pub fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark --workload <{}> --seed N --seconds S --trace 0|1 [--quick 1]\n       \
         benchmark all [--seed N] [--seconds S] [--repeat R] [--trace] [--quick]\n       \
         benchmark compare A.json B.json",
        spec::WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join("|")
    );
    ExitCode::from(2)
}

/// `--name value` pairs into a lookup; `None` on a stray token.
fn pairs(args: &[String]) -> Option<Vec<(&str, &str)>> {
    args.chunks(2)
        .map(|c| match c {
            [k, v] => k.strip_prefix("--").map(|k| (k, v.as_str())),
            _ => None,
        })
        .collect()
}

fn parse_flags(args: &[String]) -> Option<Flags> {
    let mut f = Flags {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        quick: false,
    };
    for (k, v) in pairs(args)? {
        match k {
            "workload" => f.workload = v.to_string(),
            "seed" => f.seed = v.parse().ok()?,
            "seconds" => f.seconds = v.parse().ok()?,
            "trace" => f.trace = v.parse::<u8>().ok()? != 0,
            "quick" => f.quick = v.parse::<u8>().ok()? != 0,
            _ => return None,
        }
    }
    Some(f)
}

/// Run one workload in this process and print its result object.
fn single(flags: &Flags) -> ExitCode {
    let Some(&w) = spec::workload(&flags.workload) else {
        return usage();
    };
    let w = if flags.quick { w.quick() } else { w };
    println!("# {}: {}", w.name, w.why);
    // one client, one thread: the pool the library would fan bulk
    // builds out over is pinned to the caller
    rayon::set_num_threads(1);
    let scratch = Scratch::new();
    let args = run::Args {
        w,
        seed: flags.seed,
        seconds: flags.seconds,
        dir: scratch.0.clone(),
    };
    let outcome = if flags.trace {
        run::dispatch(&w, trace::Traced(args))
    } else {
        run::dispatch(&w, run::Untraced(args))
    };
    drop(scratch);
    for r in &outcome.readings {
        let n = r
            .samples
            .map(|n| format!("  (n = {n})"))
            .unwrap_or_default();
        println!(
            "{:14} {:34} {:>16.4} {}{n}",
            w.name, r.name, r.value, r.unit
        );
    }
    let t = outcome.tally;
    println!(
        "{:14} failed_share {} ({} of {} attempts)",
        w.name,
        t.failed as f64 / t.attempted.max(1) as f64,
        t.failed,
        t.attempted
    );
    println!("{}", samples_line(&outcome));
    println!("{}", result_line(&outcome));
    if t.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The sample counts behind the medians and percentiles, as one JSON
/// line (`all` copies them into the result file).
fn samples_line(outcome: &Outcome) -> String {
    let counts = outcome
        .readings
        .iter()
        .filter_map(|r| Some((r.name.clone(), Json::Num(r.samples? as f64))))
        .collect();
    format!("samples {}", Json::Obj(counts).to_line())
}

/// The result object the driver reads.
fn result_line(outcome: &Outcome) -> String {
    let metrics = outcome
        .readings
        .iter()
        .map(|r| {
            let m = Json::obj([("value", Json::Num(r.value)), ("unit", Json::str(r.unit))]);
            (r.name.clone(), m)
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(outcome.tally.failed == 0)),
        ("attempted", Json::Num(outcome.tally.attempted as f64)),
        ("failed", Json::Num(outcome.tally.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_line()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("all") => report::all(&args[1..]),
        Some("compare") => match &args[1..] {
            [a, b] => report::compare_files(a, b),
            _ => usage(),
        },
        Some(flag) if flag.starts_with("--") => match parse_flags(&args) {
            Some(flags) if !flags.workload.is_empty() => single(&flags),
            _ => usage(),
        },
        _ => usage(),
    }
}
