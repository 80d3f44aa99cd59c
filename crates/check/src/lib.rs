//! `dh_check`: the repo's correctness tooling.
//!
//! One instrument — keep the determinism claims (the pinned trace
//! fingerprints) *enforced* rather than conventional: **detlint**
//! ([`rules`]), a lexical lint driver with rules D1–D3 and D5 over
//! the workspace source: no hash-order iteration in trace-affecting
//! crates, no wall-clock/OS randomness in deterministic paths, no
//! panicking access in crash-recovery code, and an allowlist for every
//! `Ordering::Relaxed`. Run it
//! with `cargo run -p dh_check`; it exits nonzero on findings.
//! `cargo test -p dh_check` runs detlint's own tests, including the
//! mutant fixtures proving each rule catches the bug it claims to
//! catch.
//!
//! DESIGN.md §11 documents the rule catalog and the pragma syntax.

pub mod allowlist;
pub mod lex;
pub mod rules;

pub use rules::{lint_source, lint_workspace, Finding, Stats};
