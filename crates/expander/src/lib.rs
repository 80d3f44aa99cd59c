//! # cd-expander — dynamic constant-degree expanders (Section 5)
//!
//! The paper's second architecture: discretise the **Gabber-Galil
//! continuous expander** over `I = [0,1)²` — neighbours of `(x,y)` are
//! `f(x,y) = (x+y, y)`, `g(x,y) = (x, x+y)` and their inverses — using
//! a dynamic Voronoi decomposition of the torus into server cells. By
//! Theorem 5.1 (Gabber-Galil) every set of measure ≤ 1/2 expands by
//! `(2−√3)/2`, so (Corollary 5.2) any *smooth* decomposition yields a
//! network with degree `Θ(ρ)` and expansion `Ω((2−√3)/ρ)` — expansion
//! that can be *verified* from smoothness, unlike randomized
//! constructions.
//!
//! Three different quantities go by "expansion" here, and only like
//! may be compared with like. `(2−√3)/2 ≈ 0.134` is the *continuous*
//! graph's vertex expansion (measure of new neighbours ÷ measure of the
//! set). Discretised over cells whose areas differ by at most ρ it
//! gives **vertex** expansion `≥ (2−√3)/(2ρ)` for sets of at most half
//! the cells: the boundary's measure is at least `(2−√3)/2` of the
//! set's, and one cell holds at most ρ times the measure of another.
//! What [`spectral`] certifies is **conductance** (cut edges ÷ volume):
//! every boundary cell costs at least one cut edge and every cell at
//! most `d_max` volume, so Corollary 5.2 implies
//! `φ ≥ (2−√3)/(2·ρ·d_max)`, and that — not 0.134 — is what the
//! certified `gap/2` is checked against (`e_paper`, E17). The measured
//! `gap/2` (0.13 at n = 128, 0.07 at n = 512) is two orders of
//! magnitude above it; the paper promises a constant, not that
//! constant.
//!
//! Components:
//! * [`gg`] — the discretisation: cell adjacency from the Voronoi
//!   diagram plus the cells overlapped by each cell's image under
//!   `f, g, f⁻¹, g⁻¹`,
//! * [`spectral`] — expansion verification: the spectral gap of the
//!   normalized adjacency operator (power iteration with deflation)
//!   and sweep-cut conductance (Cheeger witnesses),
//! * [`margulis`] — the classical discrete Margulis expander on
//!   `Z_m × Z_m`, a known-gap baseline for the verifier,
//! * [`balance2d`] — the 2D Multiple Choice algorithm (Lemma 5.3):
//!   smoothness ≤ 2 w.h.p., making the expander constant-degree.

#![deny(missing_docs)]

pub mod balance2d;
pub mod gg;
pub mod margulis;
pub mod spectral;

pub use balance2d::{smoothness2_check, TwoDMultipleChoice};
pub use gg::GgExpander;
