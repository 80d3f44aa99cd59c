//! The conformance table: every bound of the paper (E1–E23, A1, A2, the
//! §6.2 floors R1–R5 and Table 1), measured and checked — see
//! [`cd_bench::paper`] for the claims, the experiments and the constant
//! policy.
//!
//! ```sh
//! cargo run --release --bin e_paper            # all of it, ~10 s
//! cargo run --release --bin e_paper -- E5 E17  # the experiments owning these ids
//! ```
//!
//! Exits 1 naming every sweep point that misses its bound.

use cd_bench::paper;

fn main() {
    let prefixes: Vec<String> = std::env::args().skip(1).collect();
    let table = paper::run(&paper::PAPER, &prefixes);
    let paper::Params { sizes, n } = paper::PAPER;
    println!("# The paper's bounds, measured (n sweep {sizes:?}, fixed n = {n})\n");
    print!("{}", table.to_markdown());
    let failures = table.failures();
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL {f}");
        }
        std::process::exit(1);
    }
}
