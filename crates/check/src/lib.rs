//! `dh_check`: the repo's correctness tooling.
//!
//! Two instruments, one goal — keep the determinism claims (pinned
//! trace fingerprints, bit-identical results at any thread count)
//! *enforced* rather than conventional:
//!
//! * **detlint** ([`rules`]) — a lexical lint driver with rules D1–D5
//!   over the workspace source: no hash-order iteration in
//!   trace-affecting crates, no wall-clock/OS randomness in
//!   deterministic paths, no panicking access in crash-recovery code,
//!   `// SAFETY:` on every `unsafe`, and an allowlist for every
//!   `Ordering::Relaxed`. Run it with `cargo run -p dh_check`; it
//!   exits nonzero on findings.
//! * **model checks** (`tests/model.rs`) — drive the `rayon::chk`
//!   happens-before race checker over the thread pool's chunk-cursor
//!   claim/merge protocol and `THREAD_OVERRIDE`, exploring bounded
//!   interleavings; plus mutation
//!   tests proving the tooling catches the bugs it claims to catch.
//!   Run with `cargo test -p dh_check` (and with
//!   `RUSTFLAGS="--cfg dh_check"` to model-check the *real* pool).
//!
//! DESIGN.md §11 documents the rule catalog, the pragma syntax and
//! the model checker's coverage envelope.

pub mod allowlist;
pub mod lex;
pub mod rules;

pub use rules::{lint_source, lint_workspace, Finding, Stats};
