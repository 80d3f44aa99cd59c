//! # cd-core — the continuous-discrete framework
//!
//! This crate implements the *continuous* half of Naor & Wieder's
//! continuous-discrete approach (SPAA 2003): the unit interval
//! `I = [0,1)` as an exact 64-bit fixed-point circle, the Distance
//! Halving maps `ℓ(y) = y/2`, `r(y) = y/2 + 1/2`, `b(y) = 2y mod 1`
//! (and their degree-∆ generalisations), wrap-around intervals with
//! image computations under those maps, digit walks `w(σ_t, y)`,
//! k-wise independent hash families, smoothness of point sets, and the
//! 2D torus with the Gabber-Galil expander maps.
//!
//! The recipe itself is a trait: [`graph::ContinuousGraph`] captures
//! what a continuous graph must provide to be discretized (edge-image
//! arcs, a routing strategy, hop/degree parameters), with the
//! Distance Halving, base-∆ de Bruijn and §4 Chord-like instances
//! in-tree; the discrete half (`dh_dht::CdNetwork<G>`) is generic
//! over it.
//!
//! Everything here is *deterministic and exact*: a point is a `u64`
//! interpreted as `bits / 2^64`, so the Distance Halving maps are bit
//! shifts and the distance-halving property (Observation 2.3 of the
//! paper) holds as integer arithmetic, not merely up to floating-point
//! rounding. The paper notes `4 log n` bits of precision suffice; with
//! 64 bits we have comfortable slack for every experiment in this
//! repository (n ≤ 2^20).
//!
//! The *discrete* half — actual networks of servers that decompose `I`
//! into cells — lives in the dependent crates (`dh-dht`, `dh-fault`,
//! `cd-expander`, …).

#![deny(missing_docs)]

pub mod graph;
pub mod hashing;
pub mod interval;
pub mod point;
pub mod point2;
pub mod pointset;
pub mod rng;
pub mod stats;
pub mod walk;

pub use graph::{ChordLike, ContinuousGraph, DeBruijn, DistanceHalving};
pub use interval::Interval;
pub use point::Point;
pub use point2::Point2;
pub use pointset::PointSet;
