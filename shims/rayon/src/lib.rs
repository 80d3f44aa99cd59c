//! What is left of the `rayon` shim: one no-op. The workspace runs on
//! one thread (DESIGN.md Non-goals, "No thread pool") and no crate in
//! it depends on this package. It exists only because
//! `benchmark/src/main.rs` calls `rayon::set_num_threads(1)` through
//! `benchmark/Cargo.toml`'s path dependency, and `benchmark/` was
//! read-only to the PR that deleted the pool. ROADMAP item 0(c): drop
//! `rayon` from `benchmark/`, then delete `shims/rayon`.

/// No-op: there is no pool left to size.
pub fn set_num_threads(_: usize) {}
