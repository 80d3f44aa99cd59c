//! detlint CLI: lint the workspace, print findings, exit nonzero on
//! any. CI runs this as a hard gate (`cargo run -p dh_check`).

use std::path::PathBuf;
use std::process::ExitCode;

fn workspace_root() -> Option<PathBuf> {
    // walk up from cwd to the manifest that declares [workspace]
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "detlint — determinism lints for this workspace\n\n\
             usage: cargo run -p dh_check [-- --root <dir>]\n\n\
             rules: D1 hash-order, D2 nondet-source, D3 unwrap/indexing,\n\
             D5 relaxed-ordering (allowlist).\n\
             Escape hatch: // detlint: allow(<rule>): <justification>\n\
             Full catalog: DESIGN.md §11."
        );
        return ExitCode::SUCCESS;
    }
    let root = match args.iter().position(|a| a == "--root") {
        Some(i) => match args.get(i + 1) {
            Some(p) => PathBuf::from(p),
            None => {
                eprintln!("--root requires a directory argument");
                return ExitCode::FAILURE;
            }
        },
        None => match workspace_root() {
            Some(r) => r,
            None => {
                eprintln!("detlint: no workspace Cargo.toml above the current directory");
                return ExitCode::FAILURE;
            }
        },
    };
    match dh_check::lint_workspace(&root) {
        Ok((findings, stats)) => {
            for f in &findings {
                println!("{f}");
            }
            println!(
                "detlint: {} file(s) checked, {} finding(s), {} pragma(s) in use",
                stats.files,
                findings.len(),
                stats.pragmas_used
            );
            if findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("detlint: i/o error walking the workspace: {e}");
            ExitCode::FAILURE
        }
    }
}
