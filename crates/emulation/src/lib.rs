//! # cd-emulation — emulating general graphs (Section 7)
//!
//! "Smoothness is everything": given *any* family of bounded-degree
//! graphs `{G_1, G_2, …}` with `2^k` vertices each, a smooth dynamic
//! decomposition of `[0,1)` emulates `G_⌈log n⌉` in real time. Node
//! `u_j` of `G_k` is mapped to the server covering `j/2^k`:
//!
//! ```text
//! Φ_k(u_j) = V_i   iff   j/2^k ∈ s(x_i)
//! ```
//!
//! Theorem 7.1: with smoothness ρ, every server simulates ≤ ρ+1 guest
//! nodes, every host edge carries ≤ ρ² guest edges, and host degree is
//! ≤ ρ·d (≤ 2dρ·log ρ when servers must *estimate* log n from their
//! segment lengths). Those forms assume `2^k = n` and count ρ guests
//! per host. What the mapping gives for any `n ≤ 2^k` is stated in
//! the max guests per host `g`: a segment is at most `ρ/n` long and a
//! segment of length `L` holds at most `L·2^k + 1` of the points
//! `j/2^k`, so **`g ≤ ρ·2^k/n + 1`**; two hosts share at most
//! **`g²`** guest edges; and a host's `g` guests have at most **`g·d`**
//! neighbours. With 1 024 guests on 1 000 evenly spaced hosts that is
//! `g ≤ 2`, 4 and `2d` — not the `ρ + 1 = 2`, `ρ² = 1`, `ρ·d = d` a
//! literal reading gives — and these are the bounds `e_paper` (E22)
//! asserts. The paper's conclusion — any static-network
//! solution can be made dynamic this way — is exercised by emulating
//! hypercubes, butterflies, cube-connected cycles, shuffle-exchange
//! and torus graphs over the point sets of the balance crate.

#![deny(missing_docs)]

pub mod emulate;
pub mod families;

pub use emulate::{Emulation, EmulationStats};
pub use families::GraphFamily;
