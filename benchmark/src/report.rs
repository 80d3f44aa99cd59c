//! The human-facing commands: `all` runs every workload (each in a
//! process of its own) and writes a result file; `compare` judges one
//! result file against another with the bounds of the metric table.

use crate::json::Json;
use crate::spec::{self, Better, Metric, WORKLOADS};
use crate::stats::{median_f, quartiles, spread};
use crate::{out_dir, usage};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// Every value seen for one (workload, metric), in run order.
#[derive(Default)]
struct Row {
    unit: String,
    traced: bool,
    values: Vec<f64>,
    samples: Option<f64>,
}

type Rows = BTreeMap<(String, String), Row>;

/// Run one workload in a child process and fold its result into `rows`.
fn child(w: &str, seed: u64, seconds: u64, trace: bool, quick: bool, rows: &mut Rows) -> bool {
    let exe = std::env::current_exe().expect("own path");
    let arg = |b: bool| if b { "1" } else { "0" };
    let out = Command::new(exe)
        .args([
            "--workload",
            w,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", arg(trace), "--quick", arg(quick)])
        .output()
        .expect("spawn the workload process");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines.next().and_then(|l| Json::parse(l).ok());
    let samples = lines
        .next()
        .and_then(|l| Json::parse(l.strip_prefix("samples ")?).ok());
    let Some(result) = result else {
        eprintln!(
            "{w}: no result ({})\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        return false;
    };
    if let Some(Json::Obj(metrics)) = result.get("metrics") {
        for (name, m) in metrics {
            let row = rows.entry((w.to_string(), name.clone())).or_default();
            row.unit = m
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            row.traced = trace;
            row.values.extend(m.get("value").and_then(Json::num));
            row.samples = samples
                .as_ref()
                .and_then(|s| s.get(name))
                .and_then(Json::num);
        }
    }
    let correct = result.get("correct") == Some(&Json::Bool(true));
    if !correct {
        eprintln!(
            "{w}: {} of {} attempts failed",
            result.get("failed").and_then(Json::num).unwrap_or(f64::NAN),
            result
                .get("attempted")
                .and_then(Json::num)
                .unwrap_or(f64::NAN)
        );
    }
    correct && out.status.success()
}

/// The box the numbers came from.
fn box_descriptor() -> Json {
    let run = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let proc_field = |file: &str, key: &str| {
        std::fs::read_to_string(file)
            .ok()
            .and_then(|t| {
                t.lines().find_map(|l| {
                    let (k, v) = l.split_once(':')?;
                    (k.trim() == key).then(|| v.trim().to_string())
                })
            })
            .unwrap_or_else(|| "unknown".to_string())
    };
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    Json::obj([
        ("git_commit", Json::str(run("git", &["rev-parse", "HEAD"]))),
        ("rustc", Json::str(run("rustc", &["--version"]))),
        ("nproc", Json::Num(nproc as f64)),
        (
            "cpus_allowed",
            Json::str(proc_field("/proc/self/status", "Cpus_allowed_list")),
        ),
        (
            "cpu_model",
            Json::str(proc_field("/proc/cpuinfo", "model name")),
        ),
        ("pool_width", Json::Num(1.0)),
        ("clients", Json::Num(1.0)),
    ])
}

/// `benchmark all …`
pub fn all(args: &[String]) -> ExitCode {
    let (mut seed, mut seconds, mut repeat) = (1u64, 10u64, 1u64);
    let (mut trace, mut quick) = (false, false);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let slot = match a.as_str() {
            "--trace" => {
                trace = true;
                continue;
            }
            "--quick" => {
                quick = true;
                continue;
            }
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--repeat" => &mut repeat,
            _ => return usage(),
        };
        match it.next().and_then(|v| v.parse().ok()) {
            Some(v) => *slot = v,
            None => return usage(),
        }
    }
    if quick {
        // the smoke: short, and twice, so the exact metrics can be
        // checked for bit-identity between two runs of one seed
        seconds = 1;
        repeat = 2;
    }
    let mut rows = Rows::new();
    let mut ok = true;
    for rep in 0..repeat {
        for w in WORKLOADS {
            eprintln!("run {}/{repeat}: {}", rep + 1, w.name);
            ok &= child(w.name, seed, seconds, false, quick, &mut rows);
        }
    }
    if trace {
        for w in WORKLOADS {
            eprintln!("trace: {}", w.name);
            ok &= child(w.name, seed, seconds, true, quick, &mut rows);
        }
    }

    println!(
        "{:14} {:34} {:>14} {:>14} {:>14} {:>14} {:>14}  unit",
        "workload", "metric", "median", "q1", "q3", "min", "max"
    );
    let mut rows_json = Vec::new();
    for ((w, name), row) in &rows {
        let mut sorted = row.values.clone();
        let med = median_f(&mut sorted);
        let (lo, hi) = (sorted[0], sorted[sorted.len() - 1]);
        let (q1, _, q3) = quartiles(&row.values).unwrap_or((med, med, med));
        println!(
            "{w:14} {name:34} {med:>14.4} {q1:>14.4} {q3:>14.4} {lo:>14.4} {hi:>14.4}  {}",
            row.unit
        );
        if repeat > 1 && spec::end_to_end(name).is_some_and(|m| m.exact) && lo != hi {
            eprintln!("{w}: exact metric {name} differs between runs of one seed: {lo} vs {hi}");
            ok = false;
        }
        rows_json.push(Json::obj([
            ("workload", Json::str(w.as_str())),
            ("metric", Json::str(name.as_str())),
            ("unit", Json::str(row.unit.as_str())),
            (
                "kind",
                Json::str(if row.traced {
                    "per_layer"
                } else {
                    "end_to_end"
                }),
            ),
            (
                "values",
                Json::Arr(row.values.iter().map(|&v| Json::Num(v)).collect()),
            ),
            ("median", Json::Num(med)),
            ("q1", Json::Num(q1)),
            ("q3", Json::Num(q3)),
            ("min", Json::Num(lo)),
            ("max", Json::Num(hi)),
            ("samples", row.samples.map_or(Json::Null, Json::Num)),
        ]));
    }
    let doc = Json::obj([
        ("schema", Json::Num(1.0)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds as f64)),
        ("repeat", Json::Num(repeat as f64)),
        ("quick", Json::Bool(quick)),
        ("box", box_descriptor()),
        ("rows", Json::Arr(rows_json)),
    ]);
    let path = out_dir().join(format!(
        "result-{}{seed}.json",
        if quick { "quick-" } else { "" }
    ));
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, doc.to_line().replace("}, {", "},\n{") + "\n"));
    match written {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// How a metric of the change stands against the parent's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Exact metric, identical.
    Identical,
    /// Exact metric that moved: protocol behaviour changed, not speed.
    Moved,
    /// Improved by more than the parent's own run-to-run spread (or
    /// every run of the change beats every run of the parent).
    Better,
    /// No worse than the bound allows.
    WithinBound,
    /// Worse by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound: nothing shown.
    Unresolved,
}

/// Judge the change's runs `b` against the parent's runs `a`.
pub fn verdict(metric: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    if metric.exact {
        return if median_f(&mut a.to_vec()) == median_f(&mut b.to_vec()) {
            Verdict::Identical
        } else {
            Verdict::Moved
        };
    }
    // signed so that larger is worse
    let sign = if metric.better == Better::Lower {
        1.0
    } else {
        -1.0
    };
    let (ma, mb) = (median_f(&mut a.to_vec()), median_f(&mut b.to_vec()));
    let worse_by = sign * (mb - ma) / ma.abs();
    let worst = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::NEG_INFINITY, f64::max);
    let best = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::INFINITY, f64::min);
    // a clean sweep says something only with a few runs a side
    if a.len().min(b.len()) >= 3 && worst(b) < best(a) {
        return Verdict::Better;
    }
    let noise = spread(a).unwrap_or(0.0).max(spread(b).unwrap_or(0.0));
    if noise > metric.bound {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Worse
    } else if -worse_by > spread(a).unwrap_or(0.0) && worse_by < 0.0 && a.len() > 1 {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// A result file's rows: (workload, metric) → (unit, values).
type Loaded = BTreeMap<(String, String), (String, Vec<f64>)>;

fn load(path: &str) -> Result<Loaded, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let rows = doc.get("rows").ok_or_else(|| format!("{path}: no rows"))?;
    Ok(rows
        .arr()
        .iter()
        .filter_map(|r| {
            let key = (
                r.get("workload")?.as_str()?.to_string(),
                r.get("metric")?.as_str()?.to_string(),
            );
            let values = r
                .get("values")?
                .arr()
                .iter()
                .filter_map(Json::num)
                .collect();
            Some((key, (r.get("unit")?.as_str()?.to_string(), values)))
        })
        .collect())
}

/// `benchmark compare A.json B.json`: A is the parent, B the change.
pub fn compare_files(a: &str, b: &str) -> ExitCode {
    let (ra, rb) = match (load(a), load(b)) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:14} {:34} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "parent", "change", "change %"
    );
    let mut bad = false;
    for ((w, name), (unit, va)) in &ra {
        let Some((_, vb)) = rb.get(&(w.clone(), name.clone())) else {
            // a file without the traced pass simply has no layer rows
            if spec::end_to_end(name).is_some() {
                println!("{w:14} {name:34} missing from {b}");
                bad = true;
            }
            continue;
        };
        let (ma, mb) = (median_f(&mut va.clone()), median_f(&mut vb.clone()));
        let pct = if ma == 0.0 {
            0.0
        } else {
            100.0 * (mb - ma) / ma.abs()
        };
        // only end-to-end metrics carry a bound; layer metrics are shown
        let word = match spec::end_to_end(name).map(|m| verdict(m, va, vb)) {
            None => "",
            Some(Verdict::Identical) => "identical",
            Some(Verdict::Moved) => "MOVED (exact metric)",
            Some(Verdict::Better) => "better",
            Some(Verdict::WithinBound) => "within bound",
            Some(Verdict::Worse) => "WORSE",
            Some(Verdict::Unresolved) => "unresolved (spread > bound)",
        };
        bad |= word.starts_with("MOVED") || word == "WORSE";
        println!("{w:14} {name:34} {ma:>14.4} {mb:>14.4} {pct:>+9.2}  {word}  [{unit}]");
    }
    if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wall(bound: f64, better: Better) -> Metric {
        Metric {
            name: "t",
            unit: "us",
            better,
            bound,
            exact: false,
        }
    }

    #[test]
    fn verdicts_on_synthetic_runs() {
        let lower = wall(0.10, Better::Lower);
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5];
        // within the bound, inside the noise
        assert_eq!(
            verdict(&lower, &parent, &[100.2, 99.8, 100.9, 99.1, 100.0]),
            Verdict::WithinBound
        );
        // 5 % worse: still within a 10 % bound
        assert_eq!(
            verdict(&lower, &parent, &[105.0, 104.0, 106.0, 105.5, 104.5]),
            Verdict::WithinBound
        );
        // 20 % worse
        assert_eq!(
            verdict(&lower, &parent, &[120.0, 121.0, 119.0, 120.5, 119.5]),
            Verdict::Worse
        );
        // every run of the change beats every run of the parent
        assert_eq!(
            verdict(&lower, &parent, &[90.0, 91.0, 89.0, 90.5, 98.9]),
            Verdict::Better
        );
        // improved by more than the parent's spread, runs overlapping
        assert_eq!(
            verdict(&lower, &parent, &[97.0, 97.5, 96.5, 97.2, 99.2]),
            Verdict::Better
        );
        // spread wider than the bound: nothing can be said
        let noisy = [100.0, 140.0, 80.0, 120.0, 90.0];
        assert_eq!(
            verdict(&lower, &noisy, &[105.0, 104.0, 106.0, 105.5, 104.5]),
            Verdict::Unresolved
        );
        // … unless the change wins every pairing
        assert_eq!(
            verdict(&lower, &noisy, &[50.0, 51.0, 49.0, 50.5, 49.5]),
            Verdict::Better
        );
        // direction flips for higher-is-better
        let higher = wall(0.10, Better::Higher);
        assert_eq!(
            verdict(&higher, &parent, &[80.0, 81.0, 79.0, 80.5, 79.5]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&higher, &parent, &[120.0, 121.0, 119.0, 120.5, 119.5]),
            Verdict::Better
        );
        // single runs: only the bound can speak
        assert_eq!(verdict(&lower, &[100.0], &[109.0]), Verdict::WithinBound);
        assert_eq!(verdict(&lower, &[100.0], &[111.0]), Verdict::Worse);
    }

    #[test]
    fn exact_metrics_must_not_move() {
        let exact = Metric {
            name: "m",
            unit: "msgs",
            better: Better::Lower,
            bound: 0.02,
            exact: true,
        };
        assert_eq!(
            verdict(&exact, &[33.5, 33.5], &[33.5, 33.5, 33.5]),
            Verdict::Identical
        );
        assert_eq!(
            verdict(&exact, &[33.5, 33.5], &[33.5001, 33.5001]),
            Verdict::Moved
        );
        assert_eq!(
            verdict(&exact, &[33.5], &[30.0]),
            Verdict::Moved,
            "even an improvement"
        );
    }
}
